//! Treiber's lock-free stack \[41\] — the paper's running example
//! (Figure 1) — in base, leased, and backoff variants.
//!
//! Node layout (one cache line): `[value, next]`.
//! Popped nodes are not reclaimed, exactly as in the paper's evaluation
//! ("our description omits details related to memory reclamation and the
//! ABA problem").

use lr_machine::ThreadCtx;
use lr_sim_core::Addr;
use lr_sim_mem::SimMemory;
use lr_sync::Backoff;

const VAL: u64 = 0;
const NEXT: u64 = 8;

/// Contention-management variant of the stack operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StackVariant {
    /// Classic Treiber: read head, CAS, retry on failure.
    Base,
    /// Treiber + exponential backoff on CAS failure (§7 comparison).
    Backoff,
    /// Treiber + Lease/Release around the read–CAS window (Figure 1).
    Leased,
}

/// A Treiber stack living in simulated memory.
#[derive(Debug, Clone, Copy)]
pub struct TreiberStack {
    /// Head pointer, alone on its cache line.
    pub head: Addr,
    /// Which contention-management variant the operations use.
    pub variant: StackVariant,
}

impl TreiberStack {
    /// Allocate an empty stack.
    pub fn init(mem: &mut SimMemory, variant: StackVariant) -> Self {
        TreiberStack {
            head: mem.alloc_line_aligned(8),
            variant,
        }
    }

    /// Allocate a node holding `v` (simulated-time cost: one malloc).
    async fn new_node(ctx: &mut ThreadCtx, v: u64) -> Addr {
        let n = ctx.malloc_line(16).await;
        ctx.write(n.offset(VAL), v).await;
        n
    }

    /// Push `v` (Figure 1 of the paper, with/without the lease).
    pub async fn push(&self, ctx: &mut ThreadCtx, v: u64) {
        let node = Self::new_node(ctx, v).await;
        let mut backoff = Backoff::contended();
        loop {
            if self.variant == StackVariant::Leased {
                ctx.lease_max(self.head).await;
            }
            let h = ctx.read(self.head).await;
            ctx.write(node.offset(NEXT), h).await;
            let ok = ctx.cas(self.head, h, node.0).await;
            if self.variant == StackVariant::Leased {
                ctx.release(self.head).await;
            }
            if ok {
                return;
            }
            if self.variant == StackVariant::Backoff {
                backoff.wait(ctx).await;
            }
        }
    }

    /// Site id for the adaptive push lease (stands in for the PC).
    pub const SITE_PUSH: u64 = 0x57ac_0001;
    /// Site id for the adaptive pop lease.
    pub const SITE_POP: u64 = 0x57ac_0002;

    /// Push with *adaptive* leasing (paper §5 "Speculative Execution"):
    /// the per-thread predictor suppresses the head lease if it keeps
    /// expiring involuntarily.
    pub async fn push_adaptive(
        &self,
        ctx: &mut ThreadCtx,
        al: &mut lr_lease::AdaptiveLease,
        v: u64,
    ) {
        let node = Self::new_node(ctx, v).await;
        loop {
            let time = ctx.max_lease_time();
            let took = al.lease(ctx, Self::SITE_PUSH, self.head, time).await;
            let h = ctx.read(self.head).await;
            ctx.write(node.offset(NEXT), h).await;
            let ok = ctx.cas(self.head, h, node.0).await;
            al.release(ctx, Self::SITE_PUSH, self.head, took).await;
            if ok {
                return;
            }
        }
    }

    /// Pop with adaptive leasing; see [`TreiberStack::push_adaptive`].
    pub async fn pop_adaptive(
        &self,
        ctx: &mut ThreadCtx,
        al: &mut lr_lease::AdaptiveLease,
    ) -> Option<u64> {
        loop {
            let time = ctx.max_lease_time();
            let took = al.lease(ctx, Self::SITE_POP, self.head, time).await;
            let h = ctx.read(self.head).await;
            if h == 0 {
                al.release(ctx, Self::SITE_POP, self.head, took).await;
                return None;
            }
            let next = ctx.read(Addr(h).offset(NEXT)).await;
            let ok = ctx.cas(self.head, h, next).await;
            al.release(ctx, Self::SITE_POP, self.head, took).await;
            if ok {
                return Some(ctx.read(Addr(h).offset(VAL)).await);
            }
        }
    }

    /// Pop, returning the value, or `None` if the stack is empty.
    pub async fn pop(&self, ctx: &mut ThreadCtx) -> Option<u64> {
        let mut backoff = Backoff::contended();
        loop {
            if self.variant == StackVariant::Leased {
                ctx.lease_max(self.head).await;
            }
            let h = ctx.read(self.head).await;
            if h == 0 {
                if self.variant == StackVariant::Leased {
                    ctx.release(self.head).await;
                }
                return None;
            }
            let next = ctx.read(Addr(h).offset(NEXT)).await;
            let ok = ctx.cas(self.head, h, next).await;
            if self.variant == StackVariant::Leased {
                ctx.release(self.head).await;
            }
            if ok {
                return Some(ctx.read(Addr(h).offset(VAL)).await);
            }
            if self.variant == StackVariant::Backoff {
                backoff.wait(ctx).await;
            }
        }
    }
}
