//! The *blocking* two-lock Michael–Scott queue \[27\] — the lock-based
//! queue reading of Figure 3's caption ("lock-based counter, queue, and
//! skip-list priority queue"). One lock serializes enqueuers, another
//! serializes dequeuers; a dummy node keeps them from ever touching the
//! same node except at the empty boundary.
//!
//! The leased variant applies the §6 critical-section lease to both
//! locks.

use lr_machine::ThreadCtx;
use lr_sim_core::Addr;
use lr_sim_mem::SimMemory;
use lr_sync::{LeasedLock, SpinLock, TryLock};

const VAL: u64 = 0;
const NEXT: u64 = 8;

/// Which lock implementation protects the two ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TwoLockVariant {
    /// Plain test&test&set locks.
    Base,
    /// Lease-guarded locks (§6).
    Leased,
}

/// A two-lock Michael–Scott queue in simulated memory.
#[derive(Debug, Clone, Copy)]
pub struct TwoLockQueue {
    head: Addr,
    tail: Addr,
    head_lock_tts: SpinLock,
    tail_lock_tts: SpinLock,
    head_lock_leased: LeasedLock,
    tail_lock_leased: LeasedLock,
    variant: TwoLockVariant,
}

impl TwoLockQueue {
    /// Allocate an empty queue (head and tail point at a dummy node).
    pub fn init(mem: &mut SimMemory, variant: TwoLockVariant) -> Self {
        let head = mem.alloc_line_aligned(8);
        let tail = mem.alloc_line_aligned(8);
        let dummy = mem.alloc_line_aligned(16);
        mem.write_word(head, dummy.0);
        mem.write_word(tail, dummy.0);
        TwoLockQueue {
            head,
            tail,
            head_lock_tts: SpinLock::init(mem),
            tail_lock_tts: SpinLock::init(mem),
            head_lock_leased: LeasedLock::init(mem),
            tail_lock_leased: LeasedLock::init(mem),
            variant,
        }
    }

    async fn lock_tail(&self, ctx: &mut ThreadCtx) {
        match self.variant {
            TwoLockVariant::Base => self.tail_lock_tts.lock(ctx).await,
            TwoLockVariant::Leased => self.tail_lock_leased.lock(ctx).await,
        }
    }

    async fn unlock_tail(&self, ctx: &mut ThreadCtx) {
        match self.variant {
            TwoLockVariant::Base => self.tail_lock_tts.unlock(ctx).await,
            TwoLockVariant::Leased => self.tail_lock_leased.unlock(ctx).await,
        }
    }

    async fn lock_head(&self, ctx: &mut ThreadCtx) {
        match self.variant {
            TwoLockVariant::Base => self.head_lock_tts.lock(ctx).await,
            TwoLockVariant::Leased => self.head_lock_leased.lock(ctx).await,
        }
    }

    async fn unlock_head(&self, ctx: &mut ThreadCtx) {
        match self.variant {
            TwoLockVariant::Base => self.head_lock_tts.unlock(ctx).await,
            TwoLockVariant::Leased => self.head_lock_leased.unlock(ctx).await,
        }
    }

    /// Enqueue `v` under the tail lock.
    pub async fn enqueue(&self, ctx: &mut ThreadCtx, v: u64) {
        let node = ctx.malloc_line(16).await;
        ctx.write(node.offset(VAL), v).await;
        self.lock_tail(ctx).await;
        let t = ctx.read(self.tail).await;
        ctx.write(Addr(t).offset(NEXT), node.0).await;
        ctx.write(self.tail, node.0).await;
        self.unlock_tail(ctx).await;
    }

    /// Dequeue under the head lock; `None` when empty.
    pub async fn dequeue(&self, ctx: &mut ThreadCtx) -> Option<u64> {
        self.lock_head(ctx).await;
        let h = ctx.read(self.head).await;
        let next = ctx.read(Addr(h).offset(NEXT)).await;
        if next == 0 {
            self.unlock_head(ctx).await;
            return None;
        }
        let v = ctx.read(Addr(next).offset(VAL)).await;
        ctx.write(self.head, next).await;
        self.unlock_head(ctx).await;
        Some(v)
    }
}
