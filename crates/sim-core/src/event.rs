//! Deterministic discrete-event queue.
//!
//! Events are ordered by `(time, sequence)`: ties at the same simulated
//! cycle are broken by insertion order, which makes every simulation run
//! with a fixed seed bit-for-bit reproducible.
//!
//! The store is the hierarchical timing wheel of [`crate::wheel`]:
//! O(1) amortized push/pop, built for the far-future horizon that lease
//! timeouts keep resident. `tests/event_prop.rs` checks it against an
//! independent binary-heap reference model.

use crate::wheel::Wheel;
use crate::Cycle;

/// A time-ordered event queue with deterministic tie-breaking.
#[derive(Debug)]
pub struct EventQueue<E> {
    wheel: Wheel<E>,
    seq: u64,
    now: Cycle,
    processed: u64,
    /// Last popped `(time, seq)`, for the full-ordering audit.
    #[cfg(feature = "strict-invariants")]
    last: Option<(Cycle, u64)>,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue at time 0.
    pub fn new() -> Self {
        EventQueue {
            wheel: Wheel::new(),
            seq: 0,
            now: 0,
            processed: 0,
            #[cfg(feature = "strict-invariants")]
            last: None,
        }
    }

    /// Current simulated time: the timestamp of the last popped event.
    #[inline]
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Total number of events popped so far.
    #[inline]
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Number of pending events.
    #[inline]
    pub fn len(&self) -> usize {
        self.wheel.len()
    }

    /// True if no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Schedule `payload` at absolute time `time`.
    ///
    /// Scheduling in the past is a logic error and panics: the engine
    /// never travels backwards.
    pub fn push_at(&mut self, time: Cycle, payload: E) {
        let seq = self.seq;
        self.seq += 1;
        self.push_at_seq(time, seq, payload);
    }

    /// Schedule `payload` at `time` under a caller-supplied sequence
    /// key instead of the internal counter. This is the building block
    /// of [`crate::shard::TileQueue`], whose canonical keys (`src-tile`
    /// ∥ per-src-tile push counter) make ordering by `(time, seq)` a
    /// pure function of simulated causality. Keys must be unique per
    /// `(time, seq)` pair but need *not* arrive in ascending order; the
    /// wheel orders same-time entries by key (ordered slot insertion).
    pub fn push_at_seq(&mut self, time: Cycle, seq: u64, payload: E) {
        assert!(
            time >= self.now,
            "event scheduled in the past: t={} < now={}",
            time,
            self.now
        );
        // A caller-supplied canonical key may legitimately land at the
        // current cycle *below* the last popped key (same cycle, lower
        // source tile, pushed after that pop) — pops before this push
        // are no longer comparable, so restart the ordering audit here.
        #[cfg(feature = "strict-invariants")]
        if self.last.is_some_and(|last| (time, seq) <= last) {
            self.last = None;
        }
        self.wheel.push(time, seq, payload);
    }

    /// Schedule `payload` `delay` cycles after the current time.
    ///
    /// A delay that overflows the 64-bit cycle counter is a logic error
    /// and panics — wrapping would silently schedule the event in the
    /// past (caught only probabilistically by the `push_at` check).
    pub fn push_after(&mut self, delay: Cycle, payload: E) {
        let time = self.now.checked_add(delay).unwrap_or_else(|| {
            panic!(
                "event delay overflows the simulated clock: now={} + delay={}",
                self.now, delay
            )
        });
        self.push_at(time, payload);
    }

    /// Pop the earliest event, advancing the simulated clock to it.
    pub fn pop(&mut self) -> Option<(Cycle, E)> {
        let (time, seq, payload) = self.wheel.pop()?;
        // Always-on (one branch per event): simulated time never moves
        // backwards, in release builds too — a queue-ordering bug here
        // would silently corrupt every downstream statistic.
        assert!(
            time >= self.now,
            "event queue time went backwards: popped t={} behind now={}",
            time,
            self.now
        );
        // Full-ordering audit: pops are strictly increasing in
        // (time, seq) — an exact stable FIFO per cycle — except across
        // a keyed push at-or-below the last pop, which resets `last`
        // (see `push_at_seq`).
        #[cfg(feature = "strict-invariants")]
        {
            if let Some((lt, ls)) = self.last {
                assert!(
                    (time, seq) > (lt, ls),
                    "event order violated: popped (t={time}, seq={seq}) after (t={lt}, seq={ls})"
                );
            }
            self.last = Some((time, seq));
        }
        #[cfg(not(feature = "strict-invariants"))]
        let _ = seq;
        self.now = time;
        self.processed += 1;
        Some((time, payload))
    }

    /// Peek at the timestamp of the earliest pending event.
    pub fn peek_time(&self) -> Option<Cycle> {
        self.wheel.peek_time()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        // The wheel-backed queue pops out-of-order pushes by time.
        let mut q = EventQueue::new();
        q.push_at(5, "b");
        q.push_at(3, "a");
        q.push_at(9, "c");
        assert_eq!(q.pop(), Some((3, "a")));
        assert_eq!(q.pop(), Some((5, "b")));
        assert_eq!(q.now(), 5);
        assert_eq!(q.pop(), Some((9, "c")));
        assert_eq!(q.pop(), None);
        assert_eq!(q.processed(), 3);
    }

    #[test]
    fn ties_broken_by_insertion_order() {
        // Same-cycle pushes pop in FIFO order.
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push_at(7, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((7, i)));
        }
    }

    #[test]
    fn push_after_uses_current_time() {
        // `push_after` is relative to the last popped timestamp.
        let mut q = EventQueue::new();
        q.push_at(10, 0);
        q.pop();
        q.push_after(5, 1);
        assert_eq!(q.pop(), Some((15, 1)));
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.push_at(10, 0);
        q.pop();
        q.push_at(9, 1);
    }

    #[test]
    #[should_panic(expected = "overflows the simulated clock")]
    fn overflowing_delay_panics() {
        let mut q = EventQueue::new();
        q.push_at(10, 0);
        q.pop();
        // Pre-fix this wrapped to t=9 in release builds and scheduled
        // the event in the past.
        q.push_after(u64::MAX, 1);
    }

    #[test]
    fn max_time_is_schedulable() {
        // The wheel files and pops an event at the last cycle of the clock.
        let mut q = EventQueue::new();
        q.push_at(u64::MAX, 0);
        q.push_at(0, 1);
        assert_eq!(q.pop(), Some((0, 1)));
        assert_eq!(q.pop(), Some((u64::MAX, 0)));
    }

    #[test]
    fn len_and_empty() {
        // `len`/`is_empty` track pending events across pushes and pops.
        let mut q: EventQueue<u8> = EventQueue::new();
        assert!(q.is_empty());
        q.push_at(1, 1);
        q.push_at(2, 2);
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn peek_time() {
        // `peek_time` reports the earliest pending timestamp.
        let mut q: EventQueue<u8> = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.push_at(4, 0);
        q.push_at(2, 1);
        assert_eq!(q.peek_time(), Some(2));
    }
}
