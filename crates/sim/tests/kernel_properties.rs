//! Property tests of the simulation kernel.

use plasma_sim::metrics::{BucketedSeries, Histogram};
use plasma_sim::rng::Zipf;
use plasma_sim::{DetRng, EventQueue, SimDuration, SimTime};
use proptest::prelude::*;

/// One step of the event-queue model test.
#[derive(Clone, Debug)]
enum QueueOp {
    Push(u64),
    Pop,
    /// `pop_at_if` at the model's head time (`at_head`, when non-empty) or
    /// at `t`, accepting ids with `id % modulus <= residue`.
    PopAtIf {
        at_head: bool,
        t: u64,
        modulus: u64,
        residue: u64,
    },
}

fn queue_op() -> impl Strategy<Value = QueueOp> {
    // Pushes outweigh pops so the queue grows and shrinks; few distinct
    // times, so same-tick ties are common.
    (0u8..9, 0u8..2, 0u64..20, 1u64..4, 0u64..3).prop_map(|(kind, head, t, modulus, residue)| {
        match kind {
            0..=3 => QueueOp::Push(t),
            4 | 5 => QueueOp::Pop,
            _ => QueueOp::PopAtIf {
                at_head: head == 1,
                t,
                modulus,
                residue,
            },
        }
    })
}

proptest! {
    /// Events always pop in non-decreasing time order, and same-time events
    /// pop in insertion order.
    #[test]
    fn event_queue_is_a_stable_priority_queue(times in proptest::collection::vec(0u64..1_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_micros(t), i);
        }
        let mut last: Option<(SimTime, usize)> = None;
        let mut popped = 0;
        while let Some((t, i)) = q.pop() {
            popped += 1;
            if let Some((lt, li)) = last {
                prop_assert!(t >= lt);
                if t == lt {
                    prop_assert!(i > li, "FIFO within a timestamp");
                }
            }
            last = Some((t, i));
        }
        prop_assert_eq!(popped, times.len());
    }

    /// Random interleavings of `push`, `pop` and `pop_at_if` (with random
    /// accept predicates) match a reference model: a plain `Vec` kept
    /// sorted by `(at, seq)`. Every event carries a unique id, so a reused
    /// slab slot handing back a stale event would show as a mismatch.
    #[test]
    fn event_queue_matches_sorted_vec_model(ops in proptest::collection::vec(queue_op(), 1..400)) {
        let mut q = EventQueue::new();
        let mut model: Vec<(SimTime, u64, u64)> = Vec::new();
        let (mut next_id, mut model_pushed, mut model_popped) = (0u64, 0u64, 0u64);
        for op in ops {
            match op {
                QueueOp::Push(t) => {
                    let at = SimTime::from_micros(t);
                    q.push(at, next_id);
                    // seq equals the id: both count pushes.
                    let pos = model.partition_point(|&(mt, ms, _)| (mt, ms) < (at, next_id));
                    model.insert(pos, (at, next_id, next_id));
                    next_id += 1;
                    model_pushed += 1;
                }
                QueueOp::Pop => {
                    let want = if model.is_empty() {
                        None
                    } else {
                        model_popped += 1;
                        let (at, _, id) = model.remove(0);
                        Some((at, id))
                    };
                    prop_assert_eq!(q.pop(), want);
                }
                QueueOp::PopAtIf { at_head, t, modulus, residue } => {
                    let at = match model.first() {
                        Some(&(head, _, _)) if at_head => head,
                        _ => SimTime::from_micros(t),
                    };
                    let accept = |id: &u64| id % modulus <= residue;
                    let want = match model.first() {
                        Some(&(head, _, id)) if head == at && accept(&id) => {
                            model_popped += 1;
                            model.remove(0);
                            Some(id)
                        }
                        _ => None,
                    };
                    prop_assert_eq!(q.pop_at_if(at, accept), want);
                }
            }
            prop_assert_eq!(q.len(), model.len());
            prop_assert_eq!(q.is_empty(), model.is_empty());
            prop_assert_eq!(q.peek_time(), model.first().map(|&(at, _, _)| at));
            prop_assert_eq!(q.total_pushed(), model_pushed);
            prop_assert_eq!(q.total_popped(), model_popped);
        }
        // Drain: the tail must come out in model order too.
        for (at, _, id) in model {
            prop_assert_eq!(q.pop(), Some((at, id)));
        }
        prop_assert_eq!(q.pop(), None);
    }

    /// The histogram's quantiles are actual sample values and ordered.
    #[test]
    fn histogram_quantiles_are_monotone_samples(values in proptest::collection::vec(0.0f64..1e6, 1..300)) {
        let mut h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        let mut prev = f64::NEG_INFINITY;
        for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            let x = h.quantile(q);
            prop_assert!(values.contains(&x), "quantile must be a sample");
            prop_assert!(x >= prev);
            prev = x;
        }
        prop_assert!(h.min() <= h.mean() && h.mean() <= h.max());
    }

    /// Bucketed means always lie within the range of raw observations.
    #[test]
    fn bucketed_series_means_bounded(
        obs in proptest::collection::vec((0u64..100_000, 0.0f64..1e4), 1..200),
        width_ms in 1u64..5_000,
    ) {
        let mut s = BucketedSeries::new(SimDuration::from_millis(width_ms));
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for &(t, v) in &obs {
            s.record(SimTime::from_millis(t), v);
            lo = lo.min(v);
            hi = hi.max(v);
        }
        prop_assert_eq!(s.count(), obs.len() as u64);
        for (_, mean) in s.buckets() {
            prop_assert!(mean >= lo - 1e-9 && mean <= hi + 1e-9);
        }
    }

    /// Uniform draws stay in range for arbitrary bounds.
    #[test]
    fn rng_below_in_range(seed in 0u64..u64::MAX, n in 1u64..1_000_000) {
        let mut rng = DetRng::new(seed);
        for _ in 0..64 {
            prop_assert!(rng.below(n) < n);
        }
    }

    /// Zipf ranks stay in range for any skew.
    #[test]
    fn zipf_in_range(seed in 0u64..u64::MAX, n in 1usize..500, exp in 0.0f64..3.0) {
        let zipf = Zipf::new(n, exp);
        let mut rng = DetRng::new(seed);
        for _ in 0..64 {
            prop_assert!(zipf.sample(&mut rng) < n);
        }
    }

    /// Forked streams never equal the parent stream over a prefix.
    #[test]
    fn forked_rng_diverges(seed in 0u64..u64::MAX) {
        let mut parent = DetRng::new(seed);
        let mut child = parent.fork(1);
        let mut same = 0;
        for _ in 0..32 {
            if parent.next_u64() == child.next_u64() {
                same += 1;
            }
        }
        prop_assert!(same < 4);
    }
}
