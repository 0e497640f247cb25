//! The benchmark's own checks: seeded inputs, failure accounting, span
//! bookkeeping, and the metric list `BENCHMARK.json` promises.

use std::collections::BTreeSet;

use plasma::prelude::{SimDuration, SimTime};
use plasma_perfbench::apps::Book;
use plasma_perfbench::bench::{account, check_spans, Outcome, Summary, END_TO_END, PER_LAYER};
use plasma_perfbench::input::{Input, Workload, DEFAULT_SEED, HELD_OUT_SEED};
use plasma_perfbench::meter::Span;
use plasma_perfbench::rep::Rep;

#[test]
fn same_seed_generates_byte_identical_inputs() {
    for w in Workload::ALL {
        for seed in [DEFAULT_SEED, HELD_OUT_SEED] {
            let a = Input::generate(w, seed).to_bytes();
            let b = Input::generate(w, seed).to_bytes();
            assert_eq!(a, b, "{} seed {seed}", w.name());
        }
        assert_ne!(
            Input::generate(w, DEFAULT_SEED).digest(),
            Input::generate(w, HELD_OUT_SEED).digest(),
            "{}: the seed must change the inputs",
            w.name()
        );
    }
}

#[test]
fn carrier_workloads_get_the_sim_workloads_inputs() {
    let sim = Input::generate(Workload::SkewSim, 5);
    assert_eq!(Input::generate(Workload::SkewNet, 5), sim);
    assert_eq!(Input::generate(Workload::SkewLive, 5), sim);
}

/// A repetition that issued `attempted` requests, all answered.
fn clean_rep(attempted: u64) -> Rep {
    let mut rep = Rep {
        attempted,
        answered: attempted,
        decision_digest: 0xD16E57,
        decisions: 3,
        latency_p50_ms: 2.0,
        latency_tail_ms: 3.0,
        server_s: 100.0,
        ..Rep::default()
    };
    rep.counters
        .insert("actor.requests".into(), attempted as f64);
    rep.counters
        .insert("actor.replies".into(), attempted as f64);
    rep
}

#[test]
fn an_unanswered_request_counts_as_failed() {
    let cutoff = SimTime::from_secs(595);
    let mut book = Book::new(3);
    book.issue(0, 10, SimTime::from_secs(1));
    book.answer(0, 10, SimDuration::from_millis(4));
    book.issue(1, 11, SimTime::from_secs(2));
    // Issued inside the last five simulated seconds: not yet a failure.
    book.issue(2, 12, SimTime::from_secs(598));
    assert_eq!(book.unanswered_before(cutoff), 1);

    let mut rep = clean_rep(3);
    rep.answered = 1;
    rep.counters.insert("actor.replies".into(), 1.0);
    rep.failed = book.unanswered_before(cutoff);
    let expected = Outcome::of(&rep);
    assert_eq!(account(Some(&rep), &expected), (3, 1, None));
}

#[test]
fn an_injected_digest_mismatch_fails_every_operation() {
    let rep = clean_rep(40);
    let mut expected = Outcome::of(&rep);
    assert_eq!(account(Some(&rep), &expected), (40, 0, None));

    expected.decision_digest ^= 1;
    let (attempted, failed, problem) = account(Some(&rep), &expected);
    assert_eq!((attempted, failed), (40, 40));
    assert!(problem.is_some());
}

#[test]
fn carrier_loss_and_panics_fail_every_operation() {
    let mut rep = clean_rep(40);
    let expected = Outcome::of(&rep);
    rep.counters.insert("backend.window_mismatches".into(), 1.0);
    assert_eq!(account(Some(&rep), &expected).1, 40);
    assert_eq!(account(None, &expected).1, 40);
}

fn span(id: u32, parent: Option<u32>, name: &'static str, start: u64, end: u64) -> Span {
    Span {
        id,
        parent,
        name,
        start_ns: start,
        end_ns: end,
        round: (name == "emr.plan" || name == "emr.apply").then_some(1),
    }
}

#[test]
fn window_children_must_nest_without_overlap() {
    let good = vec![
        span(0, None, "window", 0, 100),
        span(1, Some(0), "emr.plan", 10, 30),
        span(2, Some(0), "emr.apply", 40, 50),
    ];
    assert_eq!(check_spans(&good), Ok(1));

    let mut overlapping = good.clone();
    overlapping[2].start_ns = 20;
    assert!(check_spans(&overlapping).is_err());

    let mut escaping = good.clone();
    escaping[2].end_ns = 120;
    assert!(check_spans(&escaping).is_err());

    let mut orphan_apply = good;
    orphan_apply[2].round = Some(2);
    assert!(check_spans(&orphan_apply).is_err());
}

/// `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
fn listed(key: &str) -> BTreeSet<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let doc = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    doc.get(key)
        .and_then(|v| v.as_array())
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |f| m.get(f).and_then(|v| v.as_str()).expect(f).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

/// `(name, unit)` pairs the result line prints.
fn printed(defs: &[plasma_perfbench::bench::Metric]) -> BTreeSet<(String, String)> {
    let line = Summary::default().to_json(defs);
    let doc = serde_json::from_str(&line).expect("result line is JSON");
    doc.get("metrics")
        .and_then(|v| v.as_object())
        .expect("metrics object")
        .iter()
        .map(|(k, v)| {
            let unit = v.get("unit").and_then(|u| u.as_str()).expect("unit");
            (k.clone(), unit.to_string())
        })
        .collect()
}

#[test]
fn every_printed_metric_is_listed_in_benchmark_json() {
    assert_eq!(printed(&END_TO_END), listed("end_to_end"));
    assert_eq!(printed(&PER_LAYER), listed("per_layer"));
}
