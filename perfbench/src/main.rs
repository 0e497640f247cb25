//! `plasma-perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//! [--out DIR]`
//!
//! Prints diagnostic lines (the input's shape and digest first), then, as
//! the last line, one JSON object with `correct`, `attempted`, `failed`
//! and the metrics: end-to-end ones untraced, per-layer ones traced.

use std::path::PathBuf;
use std::process::ExitCode;

use plasma_perfbench::bench::{self, Options, END_TO_END, PER_LAYER};
use plasma_perfbench::input::{Workload, DEFAULT_SEED};

fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workload: Workload::SkewSim,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        traced: false,
        out_dir: PathBuf::from(".bench_out"),
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => opts.seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?,
            "--seconds" => {
                opts.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad seconds {value:?}"))?
            }
            "--trace" => {
                opts.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            "--out" => opts.out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    opts.workload = workload.ok_or("--workload is required")?;
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("plasma-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let summary = bench::execute(&opts);
    for note in &summary.notes {
        println!("{note}");
    }
    let defs: &[bench::Metric] = if opts.traced { &PER_LAYER } else { &END_TO_END };
    println!("{}", summary.to_json(defs));
    ExitCode::SUCCESS
}
