//! Hot-path benchmark: indexed plan evaluator vs. the naive AST walker.
//!
//! Uses the synthetic large-scale snapshot from
//! [`plasma_bench::eval::synth`] (32 servers, 3000 actors — no simulation)
//! and times `solve_bound` against `eval::naive::solve` on the
//! representative rule shapes. The run *asserts* the aggregate speedup is
//! at least 3x, so a regression in the query-plan lowering or the index
//! fast paths fails `cargo bench --bench eval_hotpath` outright rather
//! than drifting by.
//!
//! The naive evaluator comes from the `naive-oracle` feature of
//! `plasma-emr`; it is the same code path the in-crate property tests use
//! as the semantic oracle.

use std::cell::Cell;
use std::rc::Rc;

use criterion::{black_box, Criterion};

use plasma_bench::eval::synth;
use plasma_cluster::ServerId;
use plasma_emr::eval::{naive, solve_bound, BoundRule};
use plasma_emr::view::{EvalCtx, EvalFrame};
use plasma_epl::CompiledPolicy;

/// Runs one benchmark and returns its median ns/iter over the timed
/// batches (steadier than the mean, which one preempted batch can skew).
fn timed<F>(c: &mut Criterion, name: &str, mut f: F) -> f64
where
    F: FnMut() -> usize,
{
    let median = Rc::new(Cell::new(0.0));
    let sink = Rc::clone(&median);
    c.bench_function(name, move |b| {
        b.iter(|| black_box(f()));
        sink.set(b.median_ns);
    });
    median.get()
}

fn main() {
    let mut c = Criterion::default();
    let (snap, servers) = synth::synth_world(32, 3000, 0x504C_4153);
    let snap = std::sync::Arc::new(snap);
    let (types, fns) = synth::name_tables();
    let frame = EvalFrame::from_parts(snap, servers.clone(), types, fns);
    let scope: Vec<ServerId> = servers.iter().map(|s| s.id).collect();
    let ctx = EvalCtx::scoped(&frame, &scope);
    let schema = synth::schema();
    let policies: Vec<(&str, CompiledPolicy)> = synth::RULES
        .iter()
        .map(|(name, src)| {
            (
                *name,
                plasma_epl::compile(src, &schema).expect("rule compiles"),
            )
        })
        .collect();

    let (mut naive_total, mut indexed_total) = (0.0f64, 0.0f64);
    for (name, policy) in &policies {
        let rule = &policy.rules[0];
        let bound = BoundRule::bind(rule, &frame);
        // Sanity: identical answers before timing anything.
        assert_eq!(
            solve_bound(&bound, &ctx),
            naive::solve(rule, &ctx),
            "evaluators disagree on {name}"
        );
        let slow = timed(&mut c, &format!("naive/{name}"), || {
            naive::solve(rule, &ctx).len()
        });
        let fast = timed(&mut c, &format!("indexed/{name}"), || {
            solve_bound(&bound, &ctx).len()
        });
        println!("speedup {name:<24} {:>8.1}x", slow / fast);
        naive_total += slow;
        indexed_total += fast;
    }
    // Include bind cost on the indexed side: it runs once per round per
    // rule in production, so charge it once per solve here.
    let bind = timed(&mut c, "indexed/bind_all_rules", || {
        let mut bound = 0;
        for (_, p) in &policies {
            black_box(BoundRule::bind(&p.rules[0], &frame));
            bound += 1;
        }
        bound
    });
    indexed_total += bind;
    let speedup = naive_total / indexed_total;
    println!(
        "eval_hotpath aggregate: naive {naive_total:.0} ns, \
         indexed+bind {indexed_total:.0} ns, speedup {speedup:.1}x"
    );
    assert!(
        speedup >= 3.0,
        "indexed evaluator must be at least 3x the naive walker, got {speedup:.1}x"
    );
}
