//! Steady-state decision-round benchmark: incremental [`EvalFrame`]
//! maintenance vs. a from-scratch rebuild.
//!
//! Models the EMR's per-round work on a large world where one profiling
//! window touched ~1% of actors: the patched path applies the window's
//! [`SnapshotDelta`] to the retained frame, the rebuild path re-collects,
//! re-keys, and re-sorts the whole world. The run *asserts* three
//! properties, so a regression in the splice/insert machinery fails
//! `cargo bench --bench frame_maintenance` outright: the patched path is
//! at least 5x faster at full scale (32 servers / 3000 actors), still at
//! least 5x faster at `xl` (128 servers / 50k actors), and the absolute
//! per-round saving (rebuild − patched) grows with world size. The saving
//! is the property that scales: at `xl` both paths stream far more group
//! data than fits in cache, so the *ratio* compresses toward the memory
//! bandwidth floor, but each round banks an order of magnitude more time
//! than at full scale.
//!
//! Before timing anything, the patched frame is checked index-for-index
//! identical to the rebuilt one (the from-scratch builder is the
//! correctness oracle).

use std::cell::Cell;
use std::rc::Rc;
use std::sync::Arc;

use criterion::{black_box, Criterion};

use plasma_actor::stats::SnapshotDelta;
use plasma_bench::eval::synth;
use plasma_emr::view::EvalFrame;

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
    let mut ratios = Vec::new();
    for (label, n_servers, n_actors) in [("full", 32u32, 3000u64), ("xl", 128, 50_000)] {
        let (snap0, servers) = synth::synth_world(n_servers, n_actors, 0x504C_4153);
        let snap1 = synth::churn_world(&snap0, 0.01, 0x0063_6875_726E ^ n_actors);
        let (snap0, snap1) = (Arc::new(snap0), Arc::new(snap1));
        let forward = SnapshotDelta::between(&snap0, &snap1);
        let backward = SnapshotDelta::between(&snap1, &snap0);
        let (types, fns) = synth::name_tables();

        // Correctness first: one patched step must equal the oracle rebuild.
        let mut patched = EvalFrame::from_parts(
            Arc::clone(&snap0),
            servers.clone(),
            types.clone(),
            fns.clone(),
        );
        assert!(
            patched.apply(Arc::clone(&snap1), servers.clone(), &forward),
            "forward delta refused"
        );
        let oracle = EvalFrame::from_parts(
            Arc::clone(&snap1),
            servers.clone(),
            types.clone(),
            fns.clone(),
        );
        patched.assert_same_indexes(&oracle);
        assert!(
            patched.apply(Arc::clone(&snap0), servers.clone(), &backward),
            "backward delta refused"
        );

        // Patched: ping-pong the two generations so every iteration applies
        // two steady-state deltas against a warm retained frame.
        let mut frame = patched;
        let (s0, s1, sv) = (Arc::clone(&snap0), Arc::clone(&snap1), servers.clone());
        let patch_ns = timed(&mut c, &format!("frame_patch/{label}"), move || {
            assert!(frame.apply(Arc::clone(&s1), sv.clone(), &forward));
            assert!(frame.apply(Arc::clone(&s0), sv.clone(), &backward));
            2
        }) / 2.0;

        // Rebuild: the pre-incremental per-round cost, same two generations.
        let (s0, s1, sv) = (Arc::clone(&snap0), Arc::clone(&snap1), servers.clone());
        let (ty, fu) = (types.clone(), fns.clone());
        let rebuild_ns = timed(&mut c, &format!("frame_rebuild/{label}"), move || {
            let a = EvalFrame::from_parts(Arc::clone(&s1), sv.clone(), ty.clone(), fu.clone());
            let b = EvalFrame::from_parts(Arc::clone(&s0), sv.clone(), ty.clone(), fu.clone());
            black_box(a.generation() as usize + b.generation() as usize)
        }) / 2.0;

        let ratio = rebuild_ns / patch_ns;
        let gain = rebuild_ns - patch_ns;
        println!(
            "frame_maintenance {label:<5} ({n_servers} servers / {n_actors} actors, 1% churn): \
             rebuild {rebuild_ns:.0} ns, patched {patch_ns:.0} ns, speedup {ratio:.1}x, \
             saved/round {gain:.0} ns"
        );
        ratios.push((label, ratio, gain));
    }
    let (_, full_ratio, full_gain) = ratios[0];
    let (_, xl_ratio, xl_gain) = ratios[1];
    assert!(
        full_ratio >= 5.0,
        "patched frame maintenance must be at least 5x a full rebuild at full scale, \
         got {full_ratio:.1}x"
    );
    assert!(
        xl_ratio >= 5.0,
        "patched frame maintenance must stay at least 5x a full rebuild at xl scale, \
         got {xl_ratio:.1}x"
    );
    assert!(
        xl_gain > full_gain,
        "the absolute per-round saving must grow with world size, \
         got {full_gain:.0} ns at full vs {xl_gain:.0} ns at xl"
    );
}
