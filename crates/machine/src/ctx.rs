//! The workload-side simulated-instruction API.

use crate::proto::{AddrVec, Op, Reply};
use crate::rendezvous::Mailbox;
use lr_lease::LeaseOps;
use lr_sim_core::{Addr, Cycle, LeaseConfig, SplitMix64};
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll};

/// One simulated instruction: the first poll advances the core's clock
/// by the instruction cost, posts the request and suspends; the poll
/// after the engine's reply lands completes with it.
struct Issue<'a> {
    mb: &'a Mailbox,
    tid: usize,
    cost: Cycle,
    op: Option<Op>,
}

impl Future for Issue<'_> {
    type Output = Reply;
    fn poll(mut self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<Reply> {
        if let Some(op) = self.op.take() {
            self.mb.post(self.tid, self.cost, op);
            return Poll::Pending;
        }
        match self.mb.take_reply() {
            Some(r) => Poll::Ready(r),
            None => Poll::Pending,
        }
    }
}

/// Per-thread handle to the simulated machine.
///
/// Every `async` method is a *simulated instruction*: awaiting it
/// advances this thread's simulated clock and may block (in simulated
/// time) on the coherence protocol. Workload code calls these instead
/// of real loads/stores. The synchronous methods (`work`, `count_op`,
/// ...) are local bookkeeping with no engine round trip.
pub struct ThreadCtx {
    tid: usize,
    inst_cost: Cycle,
    lease_cfg: LeaseConfig,
    rng: SplitMix64,
    mb: Rc<Mailbox>,
}

impl ThreadCtx {
    pub(crate) fn new(
        tid: usize,
        inst_cost: Cycle,
        lease_cfg: LeaseConfig,
        seed: u64,
        mb: Rc<Mailbox>,
    ) -> Self {
        ThreadCtx {
            tid,
            inst_cost,
            lease_cfg,
            rng: SplitMix64::new(seed ^ (tid as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)),
            mb,
        }
    }

    /// This thread's id (== its core id).
    pub fn tid(&self) -> usize {
        self.tid
    }

    /// Current simulated time at this core, cycles.
    pub fn now(&self) -> Cycle {
        self.mb.time.get()
    }

    /// The system-wide `MAX_LEASE_TIME` bound.
    pub fn max_lease_time(&self) -> Cycle {
        self.lease_cfg.max_lease_time
    }

    /// Deterministic per-thread RNG for workload decisions.
    pub fn rng(&mut self) -> &mut SplitMix64 {
        &mut self.rng
    }

    /// Report one completed application-level operation (throughput unit).
    pub fn count_op(&mut self) {
        self.count_ops(1);
    }

    /// Report `n` completed application-level operations.
    pub fn count_ops(&mut self, n: u64) {
        self.mb.ops.set(self.mb.ops.get() + n);
    }

    /// Local computation for `cycles` cycles (no memory traffic).
    pub fn work(&mut self, cycles: Cycle) {
        let mb = &*self.mb;
        mb.time.set(mb.time.get() + cycles);
        mb.instructions.set(mb.instructions.get() + cycles);
    }

    fn issue(&mut self, op: Op) -> Issue<'_> {
        Issue {
            mb: &self.mb,
            tid: self.tid,
            cost: self.inst_cost,
            op: Some(op),
        }
    }

    /// Drop a `Barrier` marker into the trace stream (no engine-visible
    /// op). The replayer skips markers; tools use them to delimit phases.
    pub(crate) fn note_barrier(&mut self) {
        if let Some(marks) = &self.mb.marks {
            marks.borrow_mut().push(self.mb.time.get());
        }
    }

    /// 64-bit load.
    pub async fn read(&mut self, addr: Addr) -> u64 {
        self.issue(Op::Read(addr)).await.value
    }

    /// 64-bit store.
    pub async fn write(&mut self, addr: Addr, value: u64) {
        self.issue(Op::Write(addr, value)).await;
    }

    /// Compare-and-swap; true on success.
    pub async fn cas(&mut self, addr: Addr, expected: u64, new: u64) -> bool {
        self.issue(Op::Cas {
            addr,
            expected,
            new,
        })
        .await
        .flag
    }

    /// Compare-and-swap returning `(success, observed old value)`.
    pub async fn cas_val(&mut self, addr: Addr, expected: u64, new: u64) -> (bool, u64) {
        let r = self
            .issue(Op::Cas {
                addr,
                expected,
                new,
            })
            .await;
        (r.flag, r.value)
    }

    /// Fetch-and-add, returning the old value.
    pub async fn faa(&mut self, addr: Addr, delta: u64) -> u64 {
        self.issue(Op::Faa { addr, delta }).await.value
    }

    /// Fetch-and-add with wrapping arithmetic on a signed delta.
    pub async fn faa_signed(&mut self, addr: Addr, delta: i64) -> u64 {
        let delta = delta as u64;
        self.issue(Op::Faa { addr, delta }).await.value
    }

    /// Atomic exchange, returning the old value.
    pub async fn xchg(&mut self, addr: Addr, value: u64) -> u64 {
        self.issue(Op::Xchg { addr, value }).await.value
    }

    /// `Lease(addr, time)` — lease the cache line containing `addr` for
    /// `min(time, MAX_LEASE_TIME)` cycles (Algorithm 1). Blocks until the
    /// line is owned exclusively.
    pub async fn lease(&mut self, addr: Addr, time: Cycle) {
        self.issue(Op::Lease { addr, time }).await;
    }

    /// Lease for the maximum allowed interval.
    pub async fn lease_max(&mut self, addr: Addr) {
        let time = self.lease_cfg.max_lease_time;
        self.issue(Op::Lease { addr, time }).await;
    }

    /// `Release(addr)`; returns true iff the release was voluntary.
    pub async fn release(&mut self, addr: Addr) -> bool {
        self.issue(Op::Release { addr }).await.flag
    }

    /// Hardware `MultiLease` (Algorithm 2): jointly lease the lines of
    /// `addrs`, acquiring them in the fixed global order. Returns false
    /// if the group was rejected (`MAX_NUM_LEASES` exceeded).
    pub async fn multi_lease(&mut self, addrs: &[Addr], time: Cycle) -> bool {
        self.issue(Op::MultiLease {
            addrs: AddrVec::from_slice(addrs),
            time,
        })
        .await
        .flag
    }

    /// `ReleaseAll()`: drop every lease this core holds.
    pub async fn release_all(&mut self) {
        self.issue(Op::ReleaseAll).await;
    }

    /// *Software* MultiLease emulation (Section 4): single-location
    /// leases taken in sorted order with staggered timeouts
    /// `time + j·X`. Joint holding is *not* guaranteed.
    pub async fn software_multi_lease(&mut self, addrs: &[Addr], time: Cycle) {
        let x = self.lease_cfg.software_multilease_x;
        for (a, dur) in lr_lease::software_multilease_schedule(addrs, time, x) {
            self.lease(a, dur).await;
        }
    }

    /// Release the software-MultiLease group (every address individually).
    pub async fn software_release_all(&mut self, addrs: &[Addr]) {
        for &a in addrs {
            self.release(a).await;
        }
    }

    /// Allocate simulated heap memory.
    pub async fn malloc(&mut self, size: u64, align: u64) -> Addr {
        Addr(self.issue(Op::Malloc { size, align }).await.value)
    }

    /// Allocate cache-line-aligned memory (lease-safe: never shares a
    /// line with another allocation).
    pub async fn malloc_line(&mut self, size: u64) -> Addr {
        self.malloc(size, lr_sim_core::LINE_SIZE).await
    }

    /// Free simulated heap memory.
    pub async fn free(&mut self, addr: Addr) {
        self.issue(Op::Free(addr)).await;
    }

    /// Lease-based snapshot (Section 5): returns a consistent view of
    /// `addrs` or `None` if any lease expired involuntarily.
    pub async fn snapshot(&mut self, addrs: &[Addr], time: Cycle) -> Option<Vec<u64>> {
        lr_lease::snapshot(self, addrs, time).await
    }
}

impl LeaseOps for ThreadCtx {
    async fn lease(&mut self, addr: Addr, time: Cycle) {
        ThreadCtx::lease(self, addr, time).await;
    }
    async fn release(&mut self, addr: Addr) -> bool {
        ThreadCtx::release(self, addr).await
    }
    async fn read(&mut self, addr: Addr) -> u64 {
        ThreadCtx::read(self, addr).await
    }
}
