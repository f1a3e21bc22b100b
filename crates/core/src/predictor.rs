//! Adaptive lease suppression — the paper's §5 "Speculative Execution"
//! proposal: "a speculative mechanism which keeps track of leases which
//! cause frequent involuntary releases, and ignores the corresponding
//! lease. More precisely, such a mechanism could track the program
//! counter of the lease, and count the number of involuntary releases
//! ... If these numbers exceed a set threshold, the lease is ignored."
//!
//! Software has no program counters here, so call sites identify
//! themselves with a `site` id (one per static lease location). Because
//! lease usage is advisory, suppression can never affect correctness —
//! only performance.

use lr_sim_core::{Addr, Cycle};

use crate::snapshot::LeaseOps;
use std::collections::HashMap;

/// Per-site outcome counters.
#[derive(Debug, Clone, Copy, Default)]
struct SiteStats {
    taken: u32,
    involuntary: u32,
    /// Consecutive suppressed attempts (for periodic re-probing).
    suppressed_streak: u32,
}

/// Tracks lease outcomes per call site and decides when to stop leasing.
#[derive(Debug)]
pub struct LeasePredictor {
    /// Suppress a site once it has at least this many involuntary
    /// releases *and* they are the majority outcome.
    threshold: u32,
    /// After this many consecutive suppressions, re-try one lease to
    /// probe whether the workload phase changed.
    reprobe_interval: u32,
    sites: HashMap<u64, SiteStats>,
}

impl Default for LeasePredictor {
    fn default() -> Self {
        LeasePredictor::new(4, 64)
    }
}

impl LeasePredictor {
    /// A predictor with the given suppression threshold and re-probe
    /// interval.
    pub fn new(threshold: u32, reprobe_interval: u32) -> Self {
        assert!(threshold >= 1 && reprobe_interval >= 1);
        LeasePredictor {
            threshold,
            reprobe_interval,
            sites: HashMap::new(),
        }
    }

    /// Should the next lease at `site` actually be taken?
    pub fn should_lease(&mut self, site: u64) -> bool {
        let s = self.sites.entry(site).or_default();
        let suppressed = s.involuntary >= self.threshold && s.involuntary * 2 > s.taken;
        if !suppressed {
            return true;
        }
        s.suppressed_streak += 1;
        if s.suppressed_streak >= self.reprobe_interval {
            // Periodic re-probe: forget half the history and try again.
            s.suppressed_streak = 0;
            s.involuntary /= 2;
            s.taken /= 2;
            return true;
        }
        false
    }

    /// Record the outcome of a lease taken at `site`.
    pub fn record(&mut self, site: u64, voluntary: bool) {
        let s = self.sites.entry(site).or_default();
        s.taken = s.taken.saturating_add(1);
        if !voluntary {
            s.involuntary = s.involuntary.saturating_add(1);
        } else if s.involuntary > 0 && s.taken.is_multiple_of(16) {
            // Slow decay so a site can rehabilitate.
            s.involuntary -= 1;
        }
    }

    /// Is `site` currently in the suppressed state?
    pub fn is_suppressed(&self, site: u64) -> bool {
        self.sites
            .get(&site)
            .is_some_and(|s| s.involuntary >= self.threshold && s.involuntary * 2 > s.taken)
    }
}

/// Workload-side helper pairing the predictor with the lease instructions.
///
/// ```ignore
/// let mut al = AdaptiveLease::default();
/// let took = al.lease(ctx, SITE_PUSH, head, time).await;
/// /* ... read-CAS ... */
/// al.release(ctx, SITE_PUSH, head, took).await;
/// ```
#[derive(Debug, Default)]
pub struct AdaptiveLease {
    predictor: LeasePredictor,
}

impl AdaptiveLease {
    /// An adaptive leaser with custom predictor parameters.
    pub fn new(threshold: u32, reprobe_interval: u32) -> Self {
        AdaptiveLease {
            predictor: LeasePredictor::new(threshold, reprobe_interval),
        }
    }

    /// Take the lease unless the predictor suppressed this site.
    /// Returns whether the lease was actually taken.
    pub async fn lease<T: LeaseOps + ?Sized>(
        &mut self,
        ops: &mut T,
        site: u64,
        addr: Addr,
        time: Cycle,
    ) -> bool {
        if self.predictor.should_lease(site) {
            ops.lease(addr, time).await;
            true
        } else {
            false
        }
    }

    /// Release (if `taken`) and feed the outcome back to the predictor.
    pub async fn release<T: LeaseOps + ?Sized>(
        &mut self,
        ops: &mut T,
        site: u64,
        addr: Addr,
        taken: bool,
    ) {
        if taken {
            let voluntary = ops.release(addr).await;
            self.predictor.record(site, voluntary);
        }
    }

    /// The underlying predictor (for inspection in tests/benches).
    pub fn predictor(&self) -> &LeasePredictor {
        &self.predictor
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn healthy_site_is_never_suppressed() {
        let mut p = LeasePredictor::new(4, 64);
        for _ in 0..1000 {
            assert!(p.should_lease(1));
            p.record(1, true);
        }
        assert!(!p.is_suppressed(1));
    }

    #[test]
    fn failing_site_gets_suppressed() {
        let mut p = LeasePredictor::new(4, 64);
        let mut taken = 0;
        for _ in 0..8 {
            if p.should_lease(2) {
                taken += 1;
                p.record(2, false);
            }
        }
        assert!(taken >= 4, "threshold must be reached before suppressing");
        assert!(taken < 8, "suppression must kick in");
        assert!(p.is_suppressed(2));
        assert!(!p.should_lease(2));
    }

    #[test]
    fn suppression_is_per_site() {
        let mut p = LeasePredictor::new(2, 64);
        for _ in 0..4 {
            p.should_lease(1);
            p.record(1, false);
        }
        assert!(p.is_suppressed(1));
        assert!(p.should_lease(9), "other sites unaffected");
    }

    #[test]
    fn suppressed_site_reprobes_eventually() {
        let mut p = LeasePredictor::new(2, 8);
        for _ in 0..4 {
            p.should_lease(3);
            p.record(3, false);
        }
        assert!(!p.should_lease(3));
        let mut allowed = 0;
        for _ in 0..40 {
            if p.should_lease(3) {
                allowed += 1;
                p.record(3, true); // the phase changed: leases work now
            }
        }
        assert!(allowed > 0, "no re-probe in 40 attempts");
    }

    #[test]
    fn rehabilitated_site_leases_again() {
        let mut p = LeasePredictor::new(2, 4);
        for _ in 0..4 {
            p.should_lease(5);
            p.record(5, false);
        }
        assert!(p.is_suppressed(5));
        // Voluntary outcomes during re-probes decay the failure count.
        for _ in 0..200 {
            if p.should_lease(5) {
                p.record(5, true);
            }
        }
        assert!(!p.is_suppressed(5), "site never rehabilitated");
    }
}
