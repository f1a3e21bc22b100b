//! Harris's lock-free linked list \[17\] (sorted set with marked-pointer
//! logical deletion), used in the paper's low-contention experiments.
//!
//! The deletion mark lives in bit 0 of the `next` pointer — safe because
//! all node addresses are cache-line aligned. Physically unlinked nodes
//! are not reclaimed (no ABA handling needed in the simulator, matching
//! the paper's setup).
//!
//! The `leased` flag adds a lease over the predecessor's line around the
//! update CAS — the paper's "lease the predecessor" pattern for linear
//! structures.

use lr_machine::ThreadCtx;
use lr_sim_core::Addr;
use lr_sim_mem::SimMemory;

const KEY: u64 = 0;
const NEXT: u64 = 8;

const MARK: u64 = 1;

fn unmarked(p: u64) -> u64 {
    p & !MARK
}

fn is_marked(p: u64) -> bool {
    p & MARK != 0
}

/// A sorted lock-free set over `u64` keys (keys must be ≥ 1).
#[derive(Debug, Clone, Copy)]
pub struct HarrisList {
    /// Head sentinel.
    pub head: Addr,
    /// Lease the predecessor line around update CASes.
    pub leased: bool,
}

impl HarrisList {
    /// Allocate an empty list.
    pub fn init(mem: &mut SimMemory, leased: bool) -> Self {
        HarrisList {
            head: mem.alloc_line_aligned(16),
            leased,
        }
    }

    /// Harris search: returns `(left, right)` with `left.key < key ≤
    /// right.key`, unlinking any marked nodes in between.
    async fn search(&self, ctx: &mut ThreadCtx, key: u64) -> (Addr, u64) {
        'retry: loop {
            let mut left = self.head;
            let mut left_next = ctx.read(self.head.offset(NEXT)).await;
            debug_assert!(!is_marked(left_next));
            let mut t = self.head;
            let mut t_next = left_next;
            // Find left and right nodes.
            loop {
                if !is_marked(t_next) {
                    left = t;
                    left_next = t_next;
                }
                t = Addr(unmarked(t_next));
                if t.is_null() {
                    break;
                }
                t_next = ctx.read(t.offset(NEXT)).await;
                if !is_marked(t_next) && ctx.read(t.offset(KEY)).await >= key {
                    break;
                }
            }
            let right = t.0;
            if left_next == right {
                // Adjacent: make sure right has not been marked meanwhile.
                if right != 0 && is_marked(ctx.read(Addr(right).offset(NEXT)).await) {
                    continue 'retry;
                }
                return (left, right);
            }
            // Snip out the marked chain between left and right.
            if ctx.cas(left.offset(NEXT), left_next, right).await {
                if right != 0 && is_marked(ctx.read(Addr(right).offset(NEXT)).await) {
                    continue 'retry;
                }
                return (left, right);
            }
        }
    }

    /// Insert `key`; false if already present.
    pub async fn insert(&self, ctx: &mut ThreadCtx, key: u64) -> bool {
        debug_assert!(key >= 1);
        let node = ctx.malloc_line(16).await;
        ctx.write(node.offset(KEY), key).await;
        loop {
            let (left, right) = self.search(ctx, key).await;
            if right != 0 && ctx.read(Addr(right).offset(KEY)).await == key {
                ctx.free(node).await;
                return false;
            }
            if self.leased {
                ctx.lease_max(left.offset(NEXT)).await;
            }
            ctx.write(node.offset(NEXT), right).await;
            let ok = ctx.cas(left.offset(NEXT), right, node.0).await;
            if self.leased {
                ctx.release(left.offset(NEXT)).await;
            }
            if ok {
                return true;
            }
        }
    }

    /// Remove `key`; false if absent.
    pub async fn remove(&self, ctx: &mut ThreadCtx, key: u64) -> bool {
        loop {
            let (left, right) = self.search(ctx, key).await;
            if right == 0 || ctx.read(Addr(right).offset(KEY)).await != key {
                return false;
            }
            let right = Addr(right);
            let right_next = ctx.read(right.offset(NEXT)).await;
            if is_marked(right_next) {
                continue;
            }
            if self.leased {
                ctx.lease_max(right.offset(NEXT)).await;
            }
            let ok = ctx
                .cas(right.offset(NEXT), right_next, right_next | MARK)
                .await;
            if self.leased {
                ctx.release(right.offset(NEXT)).await;
            }
            if ok {
                // Try to unlink physically; search() cleans up otherwise.
                if !ctx.cas(left.offset(NEXT), right.0, right_next).await {
                    let _ = self.search(ctx, key).await;
                }
                return true;
            }
        }
    }

    /// Is `key` in the set?
    pub async fn contains(&self, ctx: &mut ThreadCtx, key: u64) -> bool {
        let mut cur = ctx.read(self.head.offset(NEXT)).await;
        loop {
            let node = Addr(unmarked(cur));
            if node.is_null() {
                return false;
            }
            let next = ctx.read(node.offset(NEXT)).await;
            let k = ctx.read(node.offset(KEY)).await;
            if k >= key {
                return k == key && !is_marked(next);
            }
            cur = next;
        }
    }
}
