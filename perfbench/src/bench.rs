//! Repetitions, cross-checks, metrics and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::calib;
use crate::input::{Carrier, Input, Shape, Workload};
use crate::meter::Span;
use crate::rep::{self, Rep};
use crate::stats::{index_medians, median, quantile, tail_percentile};

/// A metric's name and unit, as listed in `BENCHMARK.json`.
#[derive(Clone, Copy, Debug)]
pub struct Metric {
    /// Name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit }
}

/// Metrics of an untraced run (`--trace 0`).
pub const END_TO_END: [Metric; 9] = [
    m("setup_s", "s"),
    m("run_s", "s"),
    m("deliveries_per_s", "1/s"),
    m("decision_ms_p50", "ms"),
    m("decision_ms_tail", "ms"),
    m("peak_rss_mb", "MB"),
    m("sim_latency_ms_p50", "ms"),
    m("sim_latency_ms_tail", "ms"),
    m("sim_server_s", "server-s"),
];

/// Metrics of a traced run (`--trace 1`).
pub const PER_LAYER: [Metric; 61] = [
    m("epl.compile_ms", "ms"),
    m("core.build_ms", "ms"),
    m("actor.spawn_us", "us"),
    m("actor.spawn_calls", "count"),
    m("actor.step_ms_p50", "ms"),
    m("actor.step_ms_tail", "ms"),
    m("actor.self_ms", "ms"),
    m("actor.ns_per_delivery", "ns"),
    m("actor.deliveries", "count"),
    m("actor.remote_messages", "count"),
    m("actor.forwarded_messages", "count"),
    m("actor.dropped_messages", "count"),
    m("actor.requests", "count"),
    m("actor.replies", "count"),
    m("actor.migrations", "count"),
    m("actor.snapshot_builds", "count"),
    m("backend.frames_per_delivery", "ratio"),
    m("backend.wire_bytes_per_delivery", "B"),
    m("backend.frames_sent", "count"),
    m("backend.wire_bytes_sent", "B"),
    m("backend.max_inflight_frames", "count"),
    m("backend.control_wire_bytes", "B"),
    m("backend.channel_us_mean", "us"),
    m("backend.workers_spawned", "count"),
    m("backend.windows_closed", "count"),
    m("backend.rounds", "count"),
    m("backend.window_mismatches", "count"),
    m("backend.carrier_self_ms", "ms"),
    m("emr.plan_calls", "count"),
    m("emr.plan_ms_total", "ms"),
    m("emr.plan_ms_p50", "ms"),
    m("emr.plan_ms_tail", "ms"),
    m("emr.apply_ms_total", "ms"),
    m("emr.snapshot_reuse", "count"),
    m("emr.frame_patches", "count"),
    m("emr.frame_rebuilds", "count"),
    m("emr.eval_ns", "ns"),
    m("emr.frame_patch_ns", "ns"),
    m("emr.place_calls", "count"),
    m("emr.place_us_mean", "us"),
    m("emr.ready_calls", "count"),
    m("emr.planned", "count"),
    m("emr.admitted", "count"),
    m("emr.admit_ratio", "ratio"),
    m("emr.scale_outs", "count"),
    m("emr.scale_ins", "count"),
    m("emr.decisions", "count"),
    m("cluster.servers_created", "count"),
    m("cluster.peak_servers", "count"),
    m("apps.handler_ms", "ms"),
    m("apps.handler_calls", "count"),
    m("perfbench.trace_overhead", "ratio"),
    m("perfbench.reps", "count"),
    m("perfbench.traced_reps", "count"),
    m("perfbench.span_windows_checked", "count"),
    m("net.run_ms", "ms"),
    m("net.carrier_self_ms", "ms"),
    m("net.frames_per_delivery", "ratio"),
    m("net.wire_bytes_per_delivery", "B"),
    m("net.control_wire_bytes", "B"),
    m("net.workers_spawned", "count"),
];

/// Repetitions an untraced run makes at least.
pub const MIN_REPS: usize = 3;
/// Repetitions of each kind, traced and untraced, a traced run makes at
/// least.
pub const MIN_TRACED_REPS: usize = 2;
/// Traced repetitions of its inputs on the net carrier that a traced
/// `skew-sim` run adds: the `net.*` metrics and a cross-carrier check.
pub const NET_TRACED_REPS: usize = 2;
/// Setup samples an untraced run takes at least.
pub const MIN_SETUPS: usize = 31;

/// What a run is asked to do.
#[derive(Clone, Debug)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measuring budget.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of untraced (end-to-end).
    pub traced: bool,
    /// Where traced runs write their spans.
    pub out_dir: PathBuf,
}

/// The deterministic outcome of a repetition: what every carrier must
/// reproduce for the same inputs.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Outcome {
    /// `RunReport::decision_digest`.
    pub decision_digest: u64,
    /// Decisions made.
    pub decisions: u64,
    /// `sim_latency_ms_p50`.
    pub latency_p50: f64,
    /// `sim_latency_ms_tail`.
    pub latency_tail: f64,
    /// `sim_server_s`.
    pub server_s: f64,
    /// Requests issued.
    pub attempted: u64,
    /// Requests unanswered before the cutoff.
    pub unanswered: u64,
}

impl Outcome {
    /// The outcome of `rep`.
    pub fn of(rep: &Rep) -> Outcome {
        Outcome {
            decision_digest: rep.decision_digest,
            decisions: rep.decisions,
            latency_p50: rep.latency_p50_ms,
            latency_tail: rep.latency_tail_ms,
            server_s: rep.server_s,
            attempted: rep.attempted,
            unanswered: rep.failed,
        }
    }
}

/// Operations a repetition attempted and failed, and whether its outputs
/// are correct.
///
/// `rep` is `None` when the repetition panicked; `expected` is the outcome
/// it must reproduce. A repetition that panicked, lost carriage (window
/// mismatches), dropped messages, or differs from `expected` counts every
/// operation as failed.
pub fn account(rep: Option<&Rep>, expected: &Outcome) -> (u64, u64, Option<String>) {
    let Some(rep) = rep else {
        let n = expected.attempted.max(1);
        return (n, n, Some("repetition panicked".into()));
    };
    let got = Outcome::of(rep);
    let problem = if got != *expected {
        Some(format!(
            "outcome {got:?} differs from expected {expected:?}"
        ))
    } else if rep.counter("backend.window_mismatches") > 0.0 {
        Some(format!(
            "{} carrier window mismatches",
            rep.counter("backend.window_mismatches")
        ))
    } else if rep.counter("actor.dropped_messages") > 0.0 {
        Some(format!(
            "{} dropped messages",
            rep.counter("actor.dropped_messages")
        ))
    } else if rep.counter("actor.requests") as u64 != rep.attempted
        || rep.counter("actor.replies") as u64 != rep.answered
    {
        Some("runtime request/reply counts disagree with the clients'".into())
    } else {
        None
    };
    match problem {
        Some(p) => (rep.attempted.max(1), rep.attempted.max(1), Some(p)),
        None => (rep.attempted, rep.failed, None),
    }
}

/// The result of one benchmark run.
#[derive(Debug, Default)]
pub struct Summary {
    /// Whether every output was correct.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Metric values by name.
    pub values: BTreeMap<&'static str, f64>,
    /// Diagnostic lines printed before the result.
    pub notes: Vec<String>,
}

impl Summary {
    fn absorb(&mut self, (attempted, failed, problem): (u64, u64, Option<String>)) {
        self.attempted += attempted;
        self.failed += failed;
        if let Some(p) = problem {
            self.correct = false;
            self.notes.push(format!("incorrect: {p}"));
        }
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and every metric in `defs`.
    pub fn to_json(&self, defs: &[Metric]) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, d) in defs.iter().enumerate() {
            let v = self.values.get(d.name).copied().unwrap_or(f64::NAN);
            let v = if v.is_finite() { v } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                d.name, d.unit
            );
        }
        out.push_str("}}");
        out
    }
}

fn guarded(input: &Input, carrier: Carrier, traced: bool) -> Option<Rep> {
    catch_unwind(AssertUnwindSafe(|| rep::run(input, carrier, traced))).ok()
}

/// Peak resident set of this process, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs the benchmark as `opts` asks.
pub fn execute(opts: &Options) -> Summary {
    let input = Input::generate(opts.workload, opts.seed);
    let carrier = opts.workload.carrier();
    let mut summary = Summary {
        correct: true,
        ..Summary::default()
    };
    summary.notes.push(format!(
        "input: workload={} seed={} {}",
        opts.workload.name(),
        opts.seed,
        Shape(&input)
    ));

    // A carrier workload must reproduce the sim carrier on the same inputs.
    let reference = (carrier != Carrier::Sim).then(|| guarded(&input, Carrier::Sim, opts.traced));
    let expected = match &reference {
        Some(Some(r)) => Some(Outcome::of(r)),
        Some(None) => {
            summary.correct = false;
            summary
                .notes
                .push("incorrect: sim reference panicked".into());
            None
        }
        None => None,
    };

    // A traced skew-sim run also replays its inputs on the net carrier, so
    // that the runs a gate makes measure the net layer and check that it
    // reproduces the sim carrier.
    let net: Vec<Option<Rep>> = if opts.traced && opts.workload == Workload::SkewSim {
        (0..NET_TRACED_REPS)
            .map(|_| guarded(&input, Carrier::Net, true))
            .collect()
    } else {
        Vec::new()
    };

    let budget = Duration::from_secs_f64(opts.seconds);
    let start = Instant::now();
    let mut reps: Vec<Option<Rep>> = Vec::new();
    let mut traced: Vec<Option<Rep>> = Vec::new();
    loop {
        let t = Instant::now();
        reps.push(guarded(&input, carrier, false));
        if opts.traced {
            traced.push(guarded(&input, carrier, true));
        }
        let took = t.elapsed();
        let min = if opts.traced {
            MIN_TRACED_REPS
        } else {
            MIN_REPS
        };
        let panicked = reps.iter().chain(&traced).any(Option::is_none);
        if panicked || (reps.len() >= min && start.elapsed() + took > budget) {
            break;
        }
    }

    let expected = expected
        .or_else(|| reps.iter().flatten().next().map(Outcome::of))
        .unwrap_or_default();
    for r in reps.iter().chain(&traced).chain(&net) {
        summary.absorb(account(r.as_ref(), &expected));
    }
    let reps: Vec<Rep> = reps.into_iter().flatten().collect();
    let traced: Vec<Rep> = traced.into_iter().flatten().collect();
    let net: Vec<Rep> = net.into_iter().flatten().collect();
    if reps.is_empty() {
        return summary;
    }

    if opts.traced {
        per_layer(
            opts,
            &reps,
            &traced,
            &net,
            reference.flatten(),
            &mut summary,
        );
    } else {
        let mut setups: Vec<f64> = reps
            .iter()
            .map(|r| calib::adjust(r.setup_ns, r.setup_calib_ns))
            .collect();
        while setups.len() < MIN_SETUPS {
            if let Ok(p) = catch_unwind(AssertUnwindSafe(|| rep::setup(&input, carrier, false))) {
                setups.push(calib::adjust(p.setup_ns(), p.setup_calib_ns()));
            } else {
                summary.correct = false;
                summary.notes.push("incorrect: setup panicked".into());
                break;
            }
        }
        end_to_end(&reps, &setups, &mut summary);
    }
    summary
}

fn end_to_end(reps: &[Rep], setups: &[f64], summary: &mut Summary) {
    let outcome = Outcome::of(&reps[0]);
    let v = &mut summary.values;
    v.insert("setup_s", median(setups) / 1e9);
    // Every window and round is timed next to a sample of the host-speed
    // kernel and rescaled by it. Repetitions replay the same windows, so
    // each window is taken at its median over them; rounds are pooled.
    let windows = index_medians(reps.iter().map(|r| {
        r.window_ns
            .iter()
            .zip(&r.calib_ns)
            .map(|(&ns, &k)| calib::adjust(ns, k))
            .collect()
    }));
    let run_s = windows.iter().sum::<f64>() / 1e9;
    v.insert("run_s", run_s);
    v.insert("deliveries_per_s", reps[0].deliveries() as f64 / run_s);
    let wall: Vec<f64> = reps.iter().map(|r| r.run_ns as f64 / 1e9).collect();
    let kernel = |f: &dyn Fn(&Rep) -> &[u64]| {
        median(
            &reps
                .iter()
                .flat_map(|r| f(r).iter().map(|&ns| ns as f64 / 1e3))
                .collect::<Vec<_>>(),
        )
    };
    summary.notes.push(format!(
        "run_s: {run_s:.4} host-adjusted over {} windows; wall per rep: {wall:.4?}; \
         kernel median after windows {:.1} us, after rounds {:.1} us (reference {:.1} us)",
        windows.len(),
        kernel(&|r| &r.calib_ns),
        kernel(&|r| &r.controller.round_calib_ns),
        calib::REFERENCE_NS / 1e3
    ));
    let mut rounds: Vec<f64> = reps
        .iter()
        .flat_map(|r| {
            r.controller
                .round_ns
                .iter()
                .zip(&r.controller.round_calib_ns)
                .map(|(&ns, &k)| calib::adjust(ns, k) / 1e6)
        })
        .collect();
    rounds.sort_by(f64::total_cmp);
    // The tail percentile follows from the sample count every run is sure
    // to have, so it is the same percentile on every run of a workload.
    let tail = tail_percentile(reps[0].controller.round_ns.len() * MIN_REPS);
    v.insert("decision_ms_p50", quantile(&rounds, 0.5));
    v.insert("decision_ms_tail", quantile(&rounds, tail / 100.0));
    v.insert("peak_rss_mb", peak_rss_mb());
    v.insert("sim_latency_ms_p50", outcome.latency_p50);
    v.insert("sim_latency_ms_tail", outcome.latency_tail);
    v.insert("sim_server_s", outcome.server_s);
    summary.notes.push(format!(
        "tails: decision_ms_tail=p{tail} of {} rounds ({} reps); \
         sim_latency_ms_tail=p{} of {} replies",
        rounds.len(),
        reps.len(),
        reps[0].latency_tail_pct,
        reps[0].answered
    ));
}

/// Sum of self times of a rep's window spans: each window's duration
/// minus its controller children.
fn window_self_ns(spans: &[Span]) -> u64 {
    let mut children: BTreeMap<u32, u64> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *children.entry(p).or_default() += s.dur_ns();
        }
    }
    spans
        .iter()
        .filter(|s| s.name == "window")
        .map(|w| w.dur_ns() - children.get(&w.id).copied().unwrap_or(0))
        .sum()
}

/// Checks that every window's controller children lie inside it and do not
/// overlap, so that children plus self time add up to the window's
/// duration, and that every apply shares its round with a plan. Returns
/// the number of windows checked.
pub fn check_spans(spans: &[Span]) -> Result<usize, String> {
    let mut by_parent: BTreeMap<u32, Vec<&Span>> = BTreeMap::new();
    for s in spans {
        if s.name.starts_with("emr.") {
            let p = s
                .parent
                .ok_or_else(|| format!("controller span {} outside any window", s.id))?;
            by_parent.entry(p).or_default().push(s);
        }
    }
    let mut checked = 0;
    for w in spans.iter().filter(|s| s.name == "window") {
        let mut kids = by_parent.remove(&w.id).unwrap_or_default();
        kids.sort_by_key(|s| s.start_ns);
        let mut cursor = w.start_ns;
        let mut busy = 0;
        for k in &kids {
            if k.start_ns < cursor || k.end_ns > w.end_ns || k.end_ns < k.start_ns {
                return Err(format!(
                    "span {} ({}) escapes window {}",
                    k.id, k.name, w.id
                ));
            }
            cursor = k.end_ns;
            busy += k.dur_ns();
        }
        let self_ns = w.dur_ns() - busy;
        if busy + self_ns != w.dur_ns() {
            return Err(format!("window {} does not add up", w.id));
        }
        checked += 1;
    }
    if let Some((p, _)) = by_parent.into_iter().next() {
        return Err(format!("controller spans under non-window span {p}"));
    }
    let plans: Vec<u64> = spans
        .iter()
        .filter(|s| s.name == "emr.plan")
        .filter_map(|s| s.round)
        .collect();
    for a in spans.iter().filter(|s| s.name == "emr.apply") {
        if !a.round.is_some_and(|r| plans.contains(&r)) {
            return Err(format!("apply span {} has no plan in its round", a.id));
        }
    }
    Ok(checked)
}

fn actor_self_ns(rep: &Rep) -> f64 {
    window_self_ns(&rep.spans) as f64 - rep.handler_ns as f64
}

fn per_layer(
    opts: &Options,
    reps: &[Rep],
    traced: &[Rep],
    net: &[Rep],
    reference: Option<Rep>,
    summary: &mut Summary,
) {
    if traced.is_empty() {
        return;
    }
    let mut windows_checked = 0;
    for r in traced.iter().chain(net) {
        match check_spans(&r.spans) {
            Ok(n) => windows_checked += n,
            Err(e) => {
                summary.correct = false;
                summary.notes.push(format!("incorrect: spans: {e}"));
            }
        }
    }
    let med = |f: &dyn Fn(&Rep) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
    let first = &traced[0];
    let deliveries = first.deliveries() as f64;
    let self_ms = med(&|r| actor_self_ns(r) / 1e6);
    let mut steps: Vec<f64> = traced
        .iter()
        .flat_map(|r| r.window_ns.iter().map(|&ns| ns as f64 / 1e6))
        .collect();
    steps.sort_by(f64::total_cmp);
    let step_tail = tail_percentile(first.window_ns.len() * MIN_TRACED_REPS) / 100.0;
    let mut plans: Vec<f64> = traced
        .iter()
        .flat_map(|r| r.controller.plan_ns.iter().map(|&ns| ns as f64 / 1e6))
        .collect();
    plans.sort_by(f64::total_cmp);
    let plan_tail = tail_percentile(first.controller.plan_ns.len() * MIN_TRACED_REPS) / 100.0;
    let carrier_self_ms = reference
        .as_ref()
        .map_or(0.0, |r| self_ms - actor_self_ns(r) / 1e6);
    let untraced_run = median(&reps.iter().map(|r| r.run_ns as f64).collect::<Vec<_>>());
    let traced_run = med(&|r| r.run_ns as f64);
    let c = |k: &str| first.counter(k);
    let planned = c("emr.planned");

    let v = &mut summary.values;
    v.insert("epl.compile_ms", med(&|r| r.compile_ns as f64 / 1e6));
    v.insert("core.build_ms", med(&|r| r.build_ns as f64 / 1e6));
    v.insert("actor.spawn_us", med(&|r| r.spawn_ns as f64 / 1e3));
    v.insert("actor.spawn_calls", first.spawn_calls as f64);
    v.insert("actor.step_ms_p50", quantile(&steps, 0.5));
    v.insert("actor.step_ms_tail", quantile(&steps, step_tail));
    v.insert("actor.self_ms", self_ms);
    v.insert("actor.ns_per_delivery", self_ms * 1e6 / deliveries.max(1.0));
    v.insert("actor.deliveries", deliveries);
    for k in [
        "actor.remote_messages",
        "actor.forwarded_messages",
        "actor.dropped_messages",
        "actor.requests",
        "actor.replies",
        "actor.migrations",
        "actor.snapshot_builds",
        "backend.frames_sent",
        "backend.wire_bytes_sent",
        "backend.max_inflight_frames",
        "backend.control_wire_bytes",
        "backend.workers_spawned",
        "backend.windows_closed",
        "backend.rounds",
        "backend.window_mismatches",
        "emr.snapshot_reuse",
        "emr.frame_patches",
        "emr.frame_rebuilds",
        "emr.planned",
        "emr.admitted",
        "emr.scale_outs",
        "emr.scale_ins",
        "cluster.servers_created",
    ] {
        v.insert(k, c(k));
    }
    v.insert(
        "backend.frames_per_delivery",
        c("backend.frames_sent") / deliveries.max(1.0),
    );
    v.insert(
        "backend.wire_bytes_per_delivery",
        c("backend.wire_bytes_sent") / deliveries.max(1.0),
    );
    v.insert(
        "backend.channel_us_mean",
        med(&|r| r.counter("backend.channel_us_mean")),
    );
    v.insert("backend.carrier_self_ms", carrier_self_ms);
    v.insert("emr.plan_calls", first.controller.plan_ns.len() as f64);
    v.insert(
        "emr.plan_ms_total",
        med(&|r| r.controller.plan_ns.iter().sum::<u64>() as f64 / 1e6),
    );
    v.insert("emr.plan_ms_p50", quantile(&plans, 0.5));
    v.insert("emr.plan_ms_tail", quantile(&plans, plan_tail));
    v.insert(
        "emr.apply_ms_total",
        med(&|r| r.controller.apply_ns.iter().sum::<u64>() as f64 / 1e6),
    );
    v.insert("emr.eval_ns", med(&|r| r.counter("emr.eval_ns")));
    v.insert(
        "emr.frame_patch_ns",
        med(&|r| r.counter("emr.frame_patch_ns")),
    );
    v.insert("emr.place_calls", first.controller.place_calls as f64);
    v.insert(
        "emr.place_us_mean",
        med(&|r| r.controller.place_ns as f64 / 1e3 / (r.controller.place_calls.max(1) as f64)),
    );
    v.insert("emr.ready_calls", first.controller.ready_calls as f64);
    v.insert(
        "emr.admit_ratio",
        if planned > 0.0 {
            c("emr.admitted") / planned
        } else {
            0.0
        },
    );
    v.insert("emr.decisions", first.decisions as f64);
    v.insert("cluster.peak_servers", first.peak_servers as f64);
    v.insert("apps.handler_ms", med(&|r| r.handler_ns as f64 / 1e6));
    v.insert("apps.handler_calls", first.handler_calls as f64);
    v.insert("perfbench.trace_overhead", traced_run / untraced_run);
    v.insert("perfbench.reps", reps.len() as f64);
    v.insert("perfbench.traced_reps", traced.len() as f64);
    v.insert("perfbench.span_windows_checked", windows_checked as f64);
    if let Some(n) = net.first() {
        let d = n.deliveries().max(1) as f64;
        let net_med = |f: &dyn Fn(&Rep) -> f64| median(&net.iter().map(f).collect::<Vec<_>>());
        v.insert("net.run_ms", net_med(&|r| r.run_ns as f64 / 1e6));
        v.insert(
            "net.carrier_self_ms",
            net_med(&|r| actor_self_ns(r) / 1e6) - self_ms,
        );
        v.insert(
            "net.frames_per_delivery",
            n.counter("backend.frames_sent") / d,
        );
        v.insert(
            "net.wire_bytes_per_delivery",
            n.counter("backend.wire_bytes_sent") / d,
        );
        v.insert(
            "net.control_wire_bytes",
            n.counter("backend.control_wire_bytes"),
        );
        v.insert("net.workers_spawned", n.counter("backend.workers_spawned"));
        summary.notes.push(format!(
            "net: {} traced repetitions on the net carrier, checked against this run's sim outcome",
            net.len()
        ));
    }
    summary.notes.push(format!(
        "trace overhead: traced run_s {:.4} / untraced run_s {:.4} = {:.4}",
        traced_run / 1e9,
        untraced_run / 1e9,
        traced_run / untraced_run
    ));
    match write_spans(opts, traced) {
        Ok(path) => summary.notes.push(format!("spans: {}", path.display())),
        Err(e) => summary.notes.push(format!("spans not written: {e}")),
    }
}

/// Writes every traced repetition's spans as JSON under `opts.out_dir`.
fn write_spans(opts: &Options, traced: &[Rep]) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(&opts.out_dir)?;
    let path = opts.out_dir.join(format!(
        "spans-{}-seed{}.json",
        opts.workload.name(),
        opts.seed
    ));
    let mut out = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"reps\": [",
        opts.workload.name(),
        opts.seed
    );
    for (i, r) in traced.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}{{\"handler_calls\": {}, \"handler_ns\": {}, \"spans\": [",
            r.handler_calls, r.handler_ns
        );
        for (j, s) in r.spans.iter().enumerate() {
            let sep = if j == 0 { "" } else { ", " };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let round = s.round.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{sep}{{\"id\": {}, \"parent\": {parent}, \"name\": \"{}\", \
                 \"start_ns\": {}, \"end_ns\": {}, \"round\": {round}}}",
                s.id, s.name, s.start_ns, s.end_ns
            );
        }
        out.push_str("]}");
    }
    out.push_str("]}\n");
    std::fs::write(&path, out)?;
    Ok(path)
}
