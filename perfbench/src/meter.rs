//! In-memory instrumentation shared by the benchmark's handlers, its
//! controller wrapper and its window loop.
//!
//! Untraced runs record only what the end-to-end metrics need: the plan
//! and apply time of every elasticity round. Traced runs also record spans
//! (name, start, end, parent, round) at the boundary between the benchmark
//! and each PLASMA layer, and handler time as a count plus busy time, with
//! no span per delivery.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Mutex;
use std::time::Instant;

/// One timed interval of the traced run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Index of this span in the recorder.
    pub id: u32,
    /// The span it is part of, if any.
    pub parent: Option<u32>,
    /// What it times.
    pub name: &'static str,
    /// Start, in nanoseconds since the meter was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the meter was created.
    pub end_ns: u64,
    /// Elasticity round it belongs to (plan and apply of one round share
    /// it).
    pub round: Option<u64>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Controller-call timings.
#[derive(Debug, Default)]
pub struct ControllerLog {
    /// Wall time of each plan call (`on_elasticity_tick`).
    pub plan_ns: Vec<u64>,
    /// Wall time of each apply call (`on_control`).
    pub apply_ns: Vec<u64>,
    /// Plan plus the apply it scheduled, per completed round.
    pub round_ns: Vec<u64>,
    /// The host-speed kernel, sampled right after each completed round
    /// (untraced runs only).
    pub round_calib_ns: Vec<u64>,
    /// Kernel time inside the running window, not yet taken out of it.
    pub calib_ns: u64,
    /// The round planned but not yet applied: its number and plan time.
    pub pending: Option<(u64, u64)>,
    /// `place_new_actor` calls.
    pub place_calls: u64,
    /// Wall time in `place_new_actor` (traced runs only).
    pub place_ns: u64,
    /// `on_server_ready` calls.
    pub ready_calls: u64,
}

/// The shared meter of one repetition.
pub(crate) struct Meter {
    traced: bool,
    origin: Instant,
    handler_calls: AtomicU64,
    handler_ns: AtomicU64,
    /// Wall time of timed runtime calls made from inside handlers (actor
    /// creation and removal), subtracted from handler busy time.
    nested_ns: AtomicU64,
    /// Parent of controller spans: the window being run.
    window: AtomicU64,
    spans: Mutex<Vec<Span>>,
    /// Controller-call timings.
    pub(crate) controller: Mutex<ControllerLog>,
}

/// Sentinel for "no window is running".
const NO_WINDOW: u64 = u64::MAX;

impl Meter {
    /// A meter; `traced` turns on spans and handler timing.
    pub(crate) fn new(traced: bool) -> Self {
        Meter {
            traced,
            origin: Instant::now(),
            handler_calls: AtomicU64::new(0),
            handler_ns: AtomicU64::new(0),
            nested_ns: AtomicU64::new(0),
            window: AtomicU64::new(NO_WINDOW),
            spans: Mutex::new(Vec::new()),
            controller: Mutex::new(ControllerLog::default()),
        }
    }

    /// Whether this is a traced run.
    pub(crate) fn traced(&self) -> bool {
        self.traced
    }

    /// Nanoseconds since the meter was created.
    pub(crate) fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span (traced runs only) and returns its id.
    pub(crate) fn open(&self, name: &'static str, parent: Option<u32>) -> Option<u32> {
        if !self.traced {
            return None;
        }
        let start_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("span recorder poisoned");
        let id = spans.len() as u32;
        spans.push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns: start_ns,
            round: None,
        });
        Some(id)
    }

    /// Closes a span opened by [`Meter::open`].
    pub(crate) fn close(&self, id: Option<u32>) {
        if let Some(id) = id {
            let end = self.now_ns();
            self.spans.lock().expect("span recorder poisoned")[id as usize].end_ns = end;
        }
    }

    /// Records a finished span under the running window.
    pub(crate) fn record_in_window(
        &self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        round: Option<u64>,
    ) {
        if !self.traced {
            return;
        }
        let w = self.window.load(Relaxed);
        let mut spans = self.spans.lock().expect("span recorder poisoned");
        let id = spans.len() as u32;
        spans.push(Span {
            id,
            parent: (w != NO_WINDOW).then_some(w as u32),
            name,
            start_ns,
            end_ns,
            round,
        });
    }

    /// Sets the window span controller spans nest under.
    pub(crate) fn set_window(&self, id: Option<u32>) {
        self.window.store(id.map_or(NO_WINDOW, u64::from), Relaxed);
    }

    /// Adds wall time spent in a timed call made from inside a handler.
    pub(crate) fn add_nested(&self, ns: u64) {
        self.nested_ns.fetch_add(ns, Relaxed);
    }

    /// Starts timing a handler call (traced runs only).
    #[inline]
    pub(crate) fn handler_enter(&self) -> Option<(Instant, u64)> {
        self.traced
            .then(|| (Instant::now(), self.nested_ns.load(Relaxed)))
    }

    /// Ends timing a handler call, excluding nested timed calls.
    #[inline]
    pub(crate) fn handler_exit(&self, entered: Option<(Instant, u64)>) {
        if let Some((t0, nested0)) = entered {
            let total = t0.elapsed().as_nanos() as u64;
            let nested = self.nested_ns.load(Relaxed) - nested0;
            self.handler_calls.fetch_add(1, Relaxed);
            self.handler_ns
                .fetch_add(total.saturating_sub(nested), Relaxed);
        }
    }

    /// Handler calls and busy nanoseconds so far.
    pub(crate) fn handler_totals(&self) -> (u64, u64) {
        (
            self.handler_calls.load(Relaxed),
            self.handler_ns.load(Relaxed),
        )
    }

    /// Takes the recorded spans.
    pub(crate) fn take_spans(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span recorder poisoned"))
    }
}
