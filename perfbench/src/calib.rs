//! A fixed piece of work that gauges the host's speed.
//!
//! The benchmark runs on a share of a busy machine. A fixed loop timed over
//! and over there reads anywhere from 1× to 1.6× its best time, with CPU
//! time equal to wall time (no steal time shows), and slow spells last from
//! milliseconds to minutes. So the end-to-end timings pair every timed
//! piece of work with a sample of this kernel taken right after it, and
//! report the work's time rescaled to a host on which the kernel takes
//! [`REFERENCE_NS`].
//!
//! The kernel is timed cold, as it finds the caches after the program's
//! work: random read-modify-writes over 32 KB, then 512 ordered-map inserts
//! and removals. That is what makes it slow down when the program does: the
//! spells come mostly from other tenants crowding the shared cache and
//! memory, which a kernel warmed up first does not feel. The price is that
//! its time depends a little on what the program left behind; see
//! `NOTES.md`.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

use crate::input::SplitMix;

/// The kernel time the adjusted figures are scaled to, in ns: a little
/// under its median after a window on the 2-core x86-64 box the benchmark
/// was written on (warm and unhurried it takes about 70 us).
pub const REFERENCE_NS: f64 = 120_000.0;

/// Words in the kernel's scratch buffer (32 KB).
const WORDS: usize = 4096;

struct Kernel {
    buf: Vec<u64>,
}

impl Kernel {
    fn new() -> Self {
        let mut k = Kernel {
            buf: (0..WORDS as u64).collect(),
        };
        k.run();
        k
    }

    fn run(&mut self) -> u64 {
        let t = Instant::now();
        let mut rng = SplitMix::new(0x0CA1_1B8A);
        let mut acc = 0u64;
        for _ in 0..16384 {
            let i = rng.below(WORDS as u64) as usize;
            self.buf[i] = self.buf[i].rotate_left(7) ^ acc;
            acc = acc.wrapping_add(self.buf[i]);
        }
        let mut map = BTreeMap::new();
        for k in 0..512u64 {
            map.insert(rng.next_u64(), k);
        }
        while let Some((k, v)) = map.pop_first() {
            acc = acc.wrapping_add(k ^ v);
        }
        std::hint::black_box(acc);
        t.elapsed().as_nanos() as u64
    }
}

thread_local! {
    static KERNEL: RefCell<Kernel> = RefCell::new(Kernel::new());
}

/// Runs the kernel once and returns its wall time in ns. Every call does
/// the same work.
pub fn sample() -> u64 {
    KERNEL.with(|k| k.borrow_mut().run())
}

/// `ns` of work timed next to a kernel sample that took `kernel_ns`,
/// rescaled to a host on which the kernel takes [`REFERENCE_NS`].
pub fn adjust(ns: u64, kernel_ns: u64) -> f64 {
    ns as f64 * REFERENCE_NS / kernel_ns.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adjust_rescales_to_the_reference() {
        assert_eq!(adjust(500, REFERENCE_NS as u64), 500.0);
        assert_eq!(adjust(500, 2 * REFERENCE_NS as u64), 250.0);
        assert!(sample() > 0);
    }
}
