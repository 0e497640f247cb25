//! A stable-order event queue: the heart of the discrete-event simulation.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// The heap's entry: when an event fires, its tie-breaking sequence
/// number, and the slab slot holding the event itself. Keeping payloads out
/// of the heap means every sift moves 24 bytes, however large `E` is.
#[derive(Clone, Copy)]
struct Key {
    at: SimTime,
    seq: u64,
    slot: u32,
}

impl PartialEq for Key {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Key {}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Key {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest event pops first.
        // Ties break by insertion order (seq) for full determinism.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A priority queue of timestamped events with deterministic FIFO
/// tie-breaking.
///
/// Events scheduled for the same instant pop in the order they were pushed,
/// which makes whole-simulation runs reproducible independent of hash-map
/// iteration order or heap internals.
///
/// The heap orders small `(at, seq, slot)` keys; the events themselves sit
/// in a slab whose emptied slots are reused, so neither a push nor a pop
/// moves an event more than once.
///
/// # Examples
///
/// ```
/// use plasma_sim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_secs(2), "late");
/// q.push(SimTime::from_secs(1), "early");
/// q.push(SimTime::from_secs(1), "early-2");
///
/// assert_eq!(q.pop(), Some((SimTime::from_secs(1), "early")));
/// assert_eq!(q.pop(), Some((SimTime::from_secs(1), "early-2")));
/// assert_eq!(q.pop(), Some((SimTime::from_secs(2), "late")));
/// assert_eq!(q.pop(), None);
/// ```
pub struct EventQueue<E> {
    heap: BinaryHeap<Key>,
    /// Pending events, indexed by their key's `slot`; `None` slots are
    /// listed in `free` for reuse.
    slab: Vec<Option<E>>,
    free: Vec<u32>,
    next_seq: u64,
    pushed: u64,
    popped: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            slab: Vec::new(),
            free: Vec::new(),
            next_seq: 0,
            pushed: 0,
            popped: 0,
        }
    }

    /// Schedules `event` to fire at `at`.
    pub fn push(&mut self, at: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pushed += 1;
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = Some(event);
                slot
            }
            None => {
                self.slab.push(Some(event));
                u32::try_from(self.slab.len() - 1).expect("fewer than 2^32 pending events")
            }
        };
        self.heap.push(Key { at, seq, slot });
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let key = self.heap.pop()?;
        Some((key.at, self.take(key.slot)))
    }

    /// Empties `slot` for reuse and returns its event.
    fn take(&mut self, slot: u32) -> E {
        self.popped += 1;
        self.free.push(slot);
        self.slab[slot as usize]
            .take()
            .expect("a queued key names a full slot")
    }

    /// Returns the timestamp of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|s| s.at)
    }

    /// Pops the earliest event only if it fires exactly at `at` and `accept`
    /// approves it; otherwise leaves the queue untouched.
    ///
    /// This is the same-tick coalescing primitive: an event-loop handler
    /// that can batch a run of homogeneous events (e.g. message deliveries
    /// bound for one server) drains them with repeated `pop_at_if` calls
    /// and performs the follow-up work once. FIFO tie order is preserved —
    /// the candidate offered to `accept` is always the exact event `pop`
    /// would return next.
    pub fn pop_at_if<F>(&mut self, at: SimTime, accept: F) -> Option<E>
    where
        F: FnOnce(&E) -> bool,
    {
        let head = *self.heap.peek()?;
        if head.at != at {
            return None;
        }
        let event = self.slab[head.slot as usize]
            .as_ref()
            .expect("a queued key names a full slot");
        if !accept(event) {
            return None;
        }
        self.heap.pop();
        Some(self.take(head.slot))
    }

    /// Returns the number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Returns `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Returns the total number of events ever pushed.
    pub fn total_pushed(&self) -> u64 {
        self.pushed
    }

    /// Returns the total number of events ever popped.
    pub fn total_popped(&self) -> u64 {
        self.popped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_micros(30), 3);
        q.push(SimTime::from_micros(10), 1);
        q.push(SimTime::from_micros(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn same_time_is_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        for i in 0..100 {
            q.push(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn interleaved_push_pop_keeps_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(5), "b");
        q.push(SimTime::from_secs(1), "a");
        assert_eq!(q.pop().unwrap().1, "a");
        q.push(SimTime::from_secs(3), "c");
        assert_eq!(q.pop().unwrap().1, "c");
        assert_eq!(q.pop().unwrap().1, "b");
    }

    #[test]
    fn pop_at_if_only_drains_matching_same_tick_events() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        q.push(t, 1);
        q.push(t, 2);
        q.push(t, 9);
        q.push(SimTime::from_secs(2), 3);
        // Wrong instant: untouched.
        assert_eq!(q.pop_at_if(SimTime::from_secs(0), |_| true), None);
        // Drains the accepted same-tick run in FIFO order, stopping at the
        // first rejected event.
        let mut run = Vec::new();
        while let Some(e) = q.pop_at_if(t, |&e| e < 5) {
            run.push(e);
        }
        assert_eq!(run, vec![1, 2]);
        // The rejected event is still next, in order.
        assert_eq!(q.pop(), Some((t, 9)));
        assert_eq!(q.pop(), Some((SimTime::from_secs(2), 3)));
        assert_eq!(q.total_popped(), 4);
    }

    #[test]
    fn counters_and_peek() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(SimTime::from_secs(2), ());
        q.push(SimTime::from_secs(1), ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(1)));
        q.pop();
        assert_eq!(q.total_pushed(), 2);
        assert_eq!(q.total_popped(), 1);
    }
}
