//! The Michael–Scott non-blocking queue \[27\], following the paper's
//! Algorithm 3: base, leased (lease the head/tail sentinel pointers for
//! the read–CAS window), and multi-leased (lease both the tail pointer
//! and the last node's `next` field — the §7 ablation showing that
//! leasing the predecessor alone is usually better).
//!
//! Node layout (one line): `[value, next]`. The queue starts with a dummy
//! node; popped nodes are not reclaimed (as in the paper's evaluation).

use lr_machine::ThreadCtx;
use lr_sim_core::Addr;
use lr_sim_mem::SimMemory;

const VAL: u64 = 0;
const NEXT: u64 = 8;

/// Contention-management variant of the queue operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueVariant {
    /// Classic Michael–Scott.
    Base,
    /// Algorithm 3: lease the sentinel (head/tail) pointers.
    Leased,
    /// Enqueue jointly leases the tail pointer and the last node's
    /// `next` field (hardware MultiLease); dequeue as in `Leased`.
    MultiLeased,
}

/// A Michael–Scott queue in simulated memory.
#[derive(Debug, Clone, Copy)]
pub struct MsQueue {
    /// Head pointer (its own cache line).
    pub head: Addr,
    /// Tail pointer (its own cache line).
    pub tail: Addr,
    /// Operation variant.
    pub variant: QueueVariant,
}

impl MsQueue {
    /// Allocate an empty queue (head and tail point at a dummy node).
    pub fn init(mem: &mut SimMemory, variant: QueueVariant) -> Self {
        let head = mem.alloc_line_aligned(8);
        let tail = mem.alloc_line_aligned(8);
        let dummy = mem.alloc_line_aligned(16);
        mem.write_word(head, dummy.0);
        mem.write_word(tail, dummy.0);
        MsQueue {
            head,
            tail,
            variant,
        }
    }

    async fn new_node(ctx: &mut ThreadCtx, v: u64) -> Addr {
        let n = ctx.malloc_line(16).await;
        ctx.write(n.offset(VAL), v).await;
        n
    }

    /// Enqueue `v` (Algorithm 3 left column).
    pub async fn enqueue(&self, ctx: &mut ThreadCtx, v: u64) {
        let w = Self::new_node(ctx, v).await;
        match self.variant {
            QueueVariant::MultiLeased => self.enqueue_multi(ctx, w).await,
            _ => self.enqueue_single(ctx, w).await,
        }
    }

    async fn enqueue_single(&self, ctx: &mut ThreadCtx, w: Addr) {
        let leased = self.variant == QueueVariant::Leased;
        loop {
            if leased {
                ctx.lease_max(self.tail).await;
            }
            let t = ctx.read(self.tail).await;
            let n = ctx.read(Addr(t).offset(NEXT)).await;
            if t == ctx.read(self.tail).await {
                if n == 0 {
                    // tail points to the last node: try to link w.
                    if ctx.cas(Addr(t).offset(NEXT), 0, w.0).await {
                        ctx.cas(self.tail, t, w.0).await; // swing tail
                        if leased {
                            ctx.release(self.tail).await;
                        }
                        return;
                    }
                } else {
                    // tail fell behind: help swing it.
                    ctx.cas(self.tail, t, n).await;
                }
            }
            if leased {
                ctx.release(self.tail).await;
            }
        }
    }

    async fn enqueue_multi(&self, ctx: &mut ThreadCtx, w: Addr) {
        loop {
            // Read tail without a lease to learn the last node, then
            // jointly lease the tail pointer and that node's next field.
            let t = ctx.read(self.tail).await;
            let next_field = Addr(t).offset(NEXT);
            ctx.multi_lease(&[self.tail, next_field], ctx.max_lease_time())
                .await;
            if ctx.read(self.tail).await != t {
                // The tail moved while we leased: retry with fresh lines.
                ctx.release_all().await;
                continue;
            }
            let n = ctx.read(next_field).await;
            if n == 0 {
                if ctx.cas(next_field, 0, w.0).await {
                    ctx.cas(self.tail, t, w.0).await;
                    ctx.release_all().await;
                    return;
                }
            } else {
                ctx.cas(self.tail, t, n).await;
            }
            ctx.release_all().await;
        }
    }

    /// Dequeue (Algorithm 3 right column); `None` when empty.
    pub async fn dequeue(&self, ctx: &mut ThreadCtx) -> Option<u64> {
        let leased = self.variant != QueueVariant::Base;
        loop {
            if leased {
                ctx.lease_max(self.head).await;
            }
            let h = ctx.read(self.head).await;
            let t = ctx.read(self.tail).await;
            let n = ctx.read(Addr(h).offset(NEXT)).await;
            if h == ctx.read(self.head).await {
                // are pointers consistent?
                if h == t {
                    if n == 0 {
                        if leased {
                            ctx.release(self.head).await;
                        }
                        return None; // empty
                    }
                    // tail fell behind, update it.
                    ctx.cas(self.tail, t, n).await;
                } else {
                    let ret = ctx.read(Addr(n).offset(VAL)).await;
                    if ctx.cas(self.head, h, n).await {
                        if leased {
                            ctx.release(self.head).await;
                        }
                        return Some(ret);
                    }
                }
            }
            if leased {
                ctx.release(self.head).await;
            }
        }
    }
}
