//! Exponential backoff in simulated time.
//!
//! The paper compares leases against backoff-based contention management
//! (§7, "Comparison with Backoffs"): backoff inserts "dead time" in which
//! no operations execute, trading retry traffic for idleness.

use lr_machine::ThreadCtx;
use lr_sim_core::Cycle;

/// Truncated exponential backoff with jitter, advancing simulated time.
#[derive(Debug, Clone)]
pub struct Backoff {
    min: Cycle,
    max: Cycle,
    cur: Cycle,
}

impl Backoff {
    /// Backoff starting at `min` cycles, doubling up to `max`.
    pub fn new(min: Cycle, max: Cycle) -> Self {
        assert!(min >= 1 && max >= min);
        Backoff { min, max, cur: min }
    }

    /// The paper's stack/queue comparison point: a well-tuned range for
    /// the simulated machine.
    pub fn contended() -> Self {
        Backoff::new(64, 8192)
    }

    /// Spin for the current interval (with jitter) and double it.
    pub async fn wait(&mut self, ctx: &mut ThreadCtx) {
        let jitter = ctx.rng().gen_range(0..=self.cur);
        ctx.work(self.cur / 2 + jitter);
        self.cur = (self.cur * 2).min(self.max);
    }

    /// Reset to the minimum interval (call after a success).
    pub fn reset(&mut self) {
        self.cur = self.min;
    }

    /// Current interval, cycles.
    pub fn current(&self) -> Cycle {
        self.cur
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn doubles_and_saturates() {
        let mut b = Backoff::new(10, 35);
        assert_eq!(b.current(), 10);
        b.cur = (b.cur * 2).min(b.max);
        assert_eq!(b.current(), 20);
        b.cur = (b.cur * 2).min(b.max);
        assert_eq!(b.current(), 35);
        b.cur = (b.cur * 2).min(b.max);
        assert_eq!(b.current(), 35);
        b.reset();
        assert_eq!(b.current(), 10);
    }
}
