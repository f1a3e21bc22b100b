//! Cheap lock-free snapshots via leases (Section 5 of the paper).
//!
//! "The snapshot operation first leases the lines corresponding to the
//! locations, reads them, and then releases them. If all the releases are
//! voluntary, the values read form a correct snapshot."
//!
//! The primitive is expressed against the small [`LeaseOps`] trait so it
//! can run both on the simulated machine (`lr-machine`'s `ThreadCtx`
//! implements it) and in plain unit tests.

use lr_sim_core::{Addr, Cycle};

/// The subset of the simulated-instruction API the snapshot needs.
///
/// The methods are `async` because simulated instructions suspend the
/// workload until the engine replies. Their futures are polled on the
/// engine's own thread and never need to be `Send`.
#[allow(async_fn_in_trait)]
pub trait LeaseOps {
    /// Lease the line containing `addr` for `time` cycles.
    async fn lease(&mut self, addr: Addr, time: Cycle);
    /// Release the line containing `addr`; returns `true` iff the release
    /// was voluntary (the lease was still held).
    async fn release(&mut self, addr: Addr) -> bool;
    /// Read the word at `addr`.
    async fn read(&mut self, addr: Addr) -> u64;
}

/// Attempt one lease-based snapshot of `addrs`.
///
/// Returns `Some(values)` if every release was voluntary — i.e. every
/// line stayed exclusively owned from its read to the release, so the
/// values form a consistent snapshot — and `None` if any lease expired,
/// in which case the caller retries (possibly falling back to a
/// double-collect after a bounded number of attempts).
pub async fn snapshot<T: LeaseOps + ?Sized>(
    ops: &mut T,
    addrs: &[Addr],
    time: Cycle,
) -> Option<Vec<u64>> {
    // Lease all lines (ascending order, mirroring the MultiLease global
    // order so concurrent snapshotters cannot deadlock each other).
    let mut sorted: Vec<Addr> = addrs.to_vec();
    sorted.sort_unstable();
    for &a in &sorted {
        ops.lease(a, time).await;
    }
    // Read in caller order.
    let mut values = Vec::with_capacity(addrs.len());
    for &a in addrs {
        values.push(ops.read(a).await);
    }
    // Release; all must be voluntary.
    let mut ok = true;
    for &a in &sorted {
        ok &= ops.release(a).await;
    }
    ok.then_some(values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use std::future::Future;
    use std::task::{Context, Poll, Waker};

    /// Run a future that never suspends (every `Toy` op is immediate).
    fn block_on<F: Future>(f: F) -> F::Output {
        let mut cx = Context::from_waker(Waker::noop());
        match std::pin::pin!(f).poll(&mut cx) {
            Poll::Ready(v) => v,
            Poll::Pending => panic!("Toy ops never suspend"),
        }
    }

    /// A toy LeaseOps where specific leases can be made to expire.
    struct Toy {
        mem: HashMap<u64, u64>,
        leased: HashMap<u64, bool>, // addr -> still valid at release?
        expire: Vec<Addr>,
        lease_order: Vec<Addr>,
    }

    impl Toy {
        fn new(vals: &[(u64, u64)], expire: &[Addr]) -> Self {
            Toy {
                mem: vals.iter().copied().collect(),
                leased: HashMap::new(),
                expire: expire.to_vec(),
                lease_order: Vec::new(),
            }
        }
    }

    impl LeaseOps for Toy {
        async fn lease(&mut self, addr: Addr, _time: Cycle) {
            self.lease_order.push(addr);
            self.leased.insert(addr.0, !self.expire.contains(&addr));
        }
        async fn release(&mut self, addr: Addr) -> bool {
            self.leased.remove(&addr.0).unwrap_or(false)
        }
        async fn read(&mut self, addr: Addr) -> u64 {
            self.mem.get(&addr.0).copied().unwrap_or(0)
        }
    }

    #[test]
    fn all_voluntary_yields_snapshot() {
        let mut toy = Toy::new(&[(64, 7), (128, 9)], &[]);
        let vals = block_on(snapshot(&mut toy, &[Addr(128), Addr(64)], 100));
        // Values come back in caller order.
        assert_eq!(vals, Some(vec![9, 7]));
        // Leases were taken in ascending (deadlock-free) order.
        assert_eq!(toy.lease_order, vec![Addr(64), Addr(128)]);
    }

    #[test]
    fn involuntary_release_fails_snapshot() {
        let mut toy = Toy::new(&[(64, 7), (128, 9)], &[Addr(128)]);
        assert_eq!(
            block_on(snapshot(&mut toy, &[Addr(64), Addr(128)], 100)),
            None
        );
    }

    #[test]
    fn empty_snapshot_is_trivially_consistent() {
        let mut toy = Toy::new(&[], &[]);
        assert_eq!(block_on(snapshot(&mut toy, &[], 100)), Some(vec![]));
    }
}
