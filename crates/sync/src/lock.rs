//! Spin locks on simulated memory: plain test&test&set and the paper's
//! lease-guarded variant (§6, "Leases for TryLocks").

use lr_machine::ThreadCtx;
use lr_sim_core::Addr;
use lr_sim_mem::SimMemory;

/// Common lock interface for the lock-based data structures.
// Workload futures are polled on the engine's thread and never need
// `Send`, so the auto-trait caveat of `async fn` in traits is moot.
#[allow(async_fn_in_trait)]
pub trait TryLock {
    /// One acquisition attempt; true on success.
    async fn try_lock(&self, ctx: &mut ThreadCtx) -> bool;
    /// Release; caller must hold the lock.
    async fn unlock(&self, ctx: &mut ThreadCtx);
    /// Blocking acquire (default: spin on `try_lock`).
    async fn lock(&self, ctx: &mut ThreadCtx) {
        while !self.try_lock(ctx).await {
            ctx.work(16);
        }
    }
}

/// Plain test&test&set spin lock (the paper's baseline for the contended
/// counter, Pagerank, and the lock-based priority queue).
#[derive(Debug, Clone, Copy)]
pub struct SpinLock {
    /// The lock word (0 = free, 1 = held), alone on its cache line.
    pub addr: Addr,
}

impl SpinLock {
    /// Allocate a free lock on its own cache line.
    pub fn init(mem: &mut SimMemory) -> Self {
        SpinLock {
            addr: mem.alloc_line_aligned(8),
        }
    }

    /// Wrap an existing word as a lock.
    pub fn at(addr: Addr) -> Self {
        SpinLock { addr }
    }
}

impl TryLock for SpinLock {
    async fn try_lock(&self, ctx: &mut ThreadCtx) -> bool {
        // test&test&set: read first to avoid useless exclusive requests.
        ctx.read(self.addr).await == 0 && ctx.xchg(self.addr, 1).await == 0
    }

    async fn unlock(&self, ctx: &mut ThreadCtx) {
        ctx.write(self.addr, 0).await;
    }

    async fn lock(&self, ctx: &mut ThreadCtx) {
        loop {
            if self.try_lock(ctx).await {
                return;
            }
            // Plain TTS: spin on the locally cached copy (L1 hits) until
            // the unlock store invalidates it. No backoff — this is the
            // paper's baseline; the backoff'd alternatives are the
            // ticket/CLH locks.
            while ctx.read(self.addr).await != 0 {
                ctx.work(24);
            }
        }
    }
}

/// The lease-guarded lock of §6: the lock word's line is leased before
/// the acquisition attempt and held (exclusively) through the critical
/// section, so (a) the holder's unlock store is always a local hit, and
/// (b) the first waiting request queues at the holder and is granted a
/// *free* lock at release — the "implicit queue" behaviour.
///
/// Per the paper's "Observations and Limitations": if the try-lock fails,
/// the lease is dropped immediately, as holding it would delay the owner.
#[derive(Debug, Clone, Copy)]
pub struct LeasedLock {
    /// The lock word (0 = free, 1 = held), alone on its cache line.
    pub addr: Addr,
}

impl LeasedLock {
    /// Allocate a free lock on its own cache line.
    pub fn init(mem: &mut SimMemory) -> Self {
        LeasedLock {
            addr: mem.alloc_line_aligned(8),
        }
    }

    /// Wrap an existing word as a lease-guarded lock.
    pub fn at(addr: Addr) -> Self {
        LeasedLock { addr }
    }
}

impl TryLock for LeasedLock {
    async fn try_lock(&self, ctx: &mut ThreadCtx) -> bool {
        ctx.lease_max(self.addr).await;
        if ctx.xchg(self.addr, 1).await == 0 {
            // Keep the lease for the whole critical section.
            true
        } else {
            // Already owned: drop the lease at once so the owner's unlock
            // is not delayed behind our lease.
            ctx.release(self.addr).await;
            false
        }
    }

    async fn unlock(&self, ctx: &mut ThreadCtx) {
        ctx.write(self.addr, 0).await;
        ctx.release(self.addr).await;
    }

    async fn lock(&self, ctx: &mut ThreadCtx) {
        // No spin-wait loop: the lease acquisition *is* the wait. Each
        // retry's exclusive request queues — first in line at the owning
        // core, the rest in the directory's per-line FIFO — and is
        // granted exactly at the owner's release, with the lock free
        // (the paper's "implicit queue" / efficient sequentialization).
        loop {
            if self.try_lock(ctx).await {
                return;
            }
        }
    }
}
