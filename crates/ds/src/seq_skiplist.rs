//! A *sequential* skiplist priority queue in simulated memory.
//!
//! Used wherever the paper needs a sequential priority queue protected by
//! a lock: the global-lock (+lease) variant of the Lotan–Shavit benchmark
//! and the per-queue sequential priority queues of MultiQueues \[36\].
//!
//! Node layout: `[key, value, level, next[0..MAX_LEVEL]]`.

use lr_machine::ThreadCtx;
use lr_sim_core::Addr;
use lr_sim_mem::SimMemory;

/// Maximum tower height.
pub const MAX_LEVEL: usize = 8;

const KEY: u64 = 0;
const VALUE: u64 = 8;
const LEVEL: u64 = 16;
const NEXT0: u64 = 24;

fn next_off(i: usize) -> u64 {
    NEXT0 + 8 * i as u64
}

const NODE_BYTES: u64 = NEXT0 + 8 * MAX_LEVEL as u64;

/// A sequential skiplist keyed by `u64`, minimum-first.
#[derive(Debug, Clone, Copy)]
pub struct SeqSkipList {
    /// Head (sentinel) node.
    pub head: Addr,
}

impl SeqSkipList {
    /// Allocate an empty skiplist.
    pub fn init(mem: &mut SimMemory) -> Self {
        let head = mem.alloc_line_aligned(NODE_BYTES);
        SeqSkipList { head }
    }

    async fn random_level(ctx: &mut ThreadCtx) -> usize {
        let r: u64 = ctx.rng().next_u64();
        ((r.trailing_ones() as usize) + 1).min(MAX_LEVEL)
    }

    /// Insert `(key, value)`. Duplicate keys are allowed (kept adjacent).
    pub async fn insert(&self, ctx: &mut ThreadCtx, key: u64, value: u64) {
        let mut preds = [self.head; MAX_LEVEL];
        let mut cur = self.head;
        for lvl in (0..MAX_LEVEL).rev() {
            loop {
                let nxt = ctx.read(cur.offset(next_off(lvl))).await;
                if nxt != 0 && ctx.read(Addr(nxt).offset(KEY)).await < key {
                    cur = Addr(nxt);
                } else {
                    break;
                }
            }
            preds[lvl] = cur;
        }
        let level = Self::random_level(ctx).await;
        let node = ctx.malloc_line(NODE_BYTES).await;
        ctx.write(node.offset(KEY), key).await;
        ctx.write(node.offset(VALUE), value).await;
        ctx.write(node.offset(LEVEL), level as u64).await;
        for (lvl, pred) in preds.iter().enumerate().take(level) {
            let succ = ctx.read(pred.offset(next_off(lvl))).await;
            ctx.write(node.offset(next_off(lvl)), succ).await;
            ctx.write(pred.offset(next_off(lvl)), node.0).await;
        }
    }

    /// Remove and return the minimum `(key, value)`, or `None` if empty.
    ///
    /// The minimum node is the first node of every level it occupies, so
    /// unlinking needs no predecessor search.
    pub async fn delete_min(&self, ctx: &mut ThreadCtx) -> Option<(u64, u64)> {
        let first = ctx.read(self.head.offset(next_off(0))).await;
        if first == 0 {
            return None;
        }
        let node = Addr(first);
        let key = ctx.read(node.offset(KEY)).await;
        let value = ctx.read(node.offset(VALUE)).await;
        let level = ctx.read(node.offset(LEVEL)).await as usize;
        for lvl in 0..level {
            let head_next = ctx.read(self.head.offset(next_off(lvl))).await;
            if head_next == node.0 {
                let succ = ctx.read(node.offset(next_off(lvl))).await;
                ctx.write(self.head.offset(next_off(lvl)), succ).await;
            }
        }
        ctx.free(node).await;
        Some((key, value))
    }

    /// Key of the current minimum without removing it.
    pub async fn peek_min(&self, ctx: &mut ThreadCtx) -> Option<u64> {
        let first = ctx.read(self.head.offset(next_off(0))).await;
        if first == 0 {
            return None;
        }
        Some(ctx.read(Addr(first).offset(KEY)).await)
    }

    /// Is the list empty?
    pub async fn is_empty(&self, ctx: &mut ThreadCtx) -> bool {
        ctx.read(self.head.offset(next_off(0))).await == 0
    }
}
