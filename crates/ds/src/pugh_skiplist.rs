//! A concurrent fine-grained-locking skiplist in the style of Pugh \[33\]
//! (structured like the lazy skiplist of Herlihy & Shavit), plus the
//! Lotan–Shavit `deleteMin` \[23\]: logically mark the first live node,
//! then physically unlink it under predecessor locks.
//!
//! This is the paper's *baseline* priority queue for Figure 3 ("The
//! baseline Lotan-Shavit priority queue is based on a fine-grained
//! locking skiplist design by Pugh"); its `contains` also serves the
//! low-contention skiplist-set experiment.
//!
//! Deadlock freedom: every operation locks nodes in ascending-level
//! order, and a level-`i+1` predecessor never has a larger key than the
//! level-`i` one, so all lock acquisition follows one global
//! (descending-key) order. `deleteMin` marks its victim under the
//! victim's lock but *drops* that lock before taking predecessor locks.
//!
//! Node layout: `[key, value, level, marked, fully_linked, lock,
//! next[0..MAX_LEVEL_C]]`.

use lr_machine::ThreadCtx;
use lr_sim_core::Addr;
use lr_sim_mem::SimMemory;

/// Maximum tower height of the concurrent skiplist.
pub const MAX_LEVEL_C: usize = 6;

const KEY: u64 = 0;
const VALUE: u64 = 8;
const LEVEL: u64 = 16;
const MARKED: u64 = 24;
const LINKED: u64 = 32;
const LOCK: u64 = 40;
const NEXT0: u64 = 48;

fn next_off(i: usize) -> u64 {
    NEXT0 + 8 * i as u64
}

const NODE_BYTES: u64 = NEXT0 + 8 * MAX_LEVEL_C as u64;

/// The concurrent locking skiplist.
#[derive(Debug, Clone, Copy)]
pub struct LockingSkipList {
    /// Head sentinel (key = 0, never removed; real keys must be ≥ 1).
    pub head: Addr,
}

async fn try_lock(ctx: &mut ThreadCtx, node: Addr) -> bool {
    ctx.read(node.offset(LOCK)).await == 0 && ctx.xchg(node.offset(LOCK), 1).await == 0
}

async fn lock(ctx: &mut ThreadCtx, node: Addr) {
    while !try_lock(ctx, node).await {
        ctx.work(24);
    }
}

async fn unlock(ctx: &mut ThreadCtx, node: Addr) {
    ctx.write(node.offset(LOCK), 0).await;
}

impl LockingSkipList {
    /// Allocate an empty skiplist.
    pub fn init(mem: &mut SimMemory) -> Self {
        let head = mem.alloc_line_aligned(NODE_BYTES);
        mem.write_word(head.offset(LINKED), 1);
        LockingSkipList { head }
    }

    async fn random_level(ctx: &mut ThreadCtx) -> usize {
        let r: u64 = ctx.rng().next_u64();
        ((r.trailing_ones() as usize) + 1).min(MAX_LEVEL_C)
    }

    /// Optimistic lock-free traversal: predecessors and successors of
    /// `key` at every level.
    async fn find(
        &self,
        ctx: &mut ThreadCtx,
        key: u64,
    ) -> ([Addr; MAX_LEVEL_C], [u64; MAX_LEVEL_C]) {
        let mut preds = [self.head; MAX_LEVEL_C];
        let mut succs = [0u64; MAX_LEVEL_C];
        let mut cur = self.head;
        for lvl in (0..MAX_LEVEL_C).rev() {
            loop {
                let nxt = ctx.read(cur.offset(next_off(lvl))).await;
                if nxt != 0 && ctx.read(Addr(nxt).offset(KEY)).await < key {
                    cur = Addr(nxt);
                } else {
                    preds[lvl] = cur;
                    succs[lvl] = nxt;
                    break;
                }
            }
        }
        (preds, succs)
    }

    /// Insert `(key, value)`; returns false if `key` is already present.
    /// Keys must be ≥ 1 (0 is the head sentinel key).
    #[allow(clippy::needless_range_loop)] // lvl indexes preds *and* succs
    pub async fn insert(&self, ctx: &mut ThreadCtx, key: u64, value: u64) -> bool {
        debug_assert!(key >= 1);
        let top = Self::random_level(ctx).await;
        loop {
            let (preds, succs) = self.find(ctx, key).await;
            if succs[0] != 0 && ctx.read(Addr(succs[0]).offset(KEY)).await == key {
                if ctx.read(Addr(succs[0]).offset(MARKED)).await == 1 {
                    // Being deleted: wait for it to leave, then retry.
                    ctx.work(32);
                    continue;
                }
                return false;
            }
            // Lock predecessors in ascending-level order, skipping
            // duplicates (a node may be the pred at several levels).
            let mut locked: Vec<Addr> = Vec::new();
            let mut valid = true;
            for lvl in 0..top {
                let p = preds[lvl];
                if locked.last() != Some(&p) && !locked.contains(&p) {
                    lock(ctx, p).await;
                    locked.push(p);
                }
                if ctx.read(p.offset(MARKED)).await == 1
                    || ctx.read(p.offset(next_off(lvl))).await != succs[lvl]
                {
                    valid = false;
                    break;
                }
            }
            if !valid {
                for p in locked {
                    unlock(ctx, p).await;
                }
                continue;
            }
            let node = ctx.malloc_line(NODE_BYTES).await;
            ctx.write(node.offset(KEY), key).await;
            ctx.write(node.offset(VALUE), value).await;
            ctx.write(node.offset(LEVEL), top as u64).await;
            for lvl in 0..top {
                ctx.write(node.offset(next_off(lvl)), succs[lvl]).await;
            }
            for lvl in 0..top {
                ctx.write(preds[lvl].offset(next_off(lvl)), node.0).await;
            }
            ctx.write(node.offset(LINKED), 1).await;
            for p in locked {
                unlock(ctx, p).await;
            }
            return true;
        }
    }

    /// Is `key` present (fully linked and not logically deleted)?
    pub async fn contains(&self, ctx: &mut ThreadCtx, key: u64) -> bool {
        let (_, succs) = self.find(ctx, key).await;
        succs[0] != 0
            && ctx.read(Addr(succs[0]).offset(KEY)).await == key
            && ctx.read(Addr(succs[0]).offset(LINKED)).await == 1
            && ctx.read(Addr(succs[0]).offset(MARKED)).await == 0
    }

    /// Physically unlink a marked victim under predecessor locks.
    #[allow(clippy::needless_range_loop)] // lvl indexes preds and node levels
    async fn remove_node(&self, ctx: &mut ThreadCtx, node: Addr, key: u64) {
        let top = ctx.read(node.offset(LEVEL)).await as usize;
        loop {
            let (preds, _) = self.find(ctx, key).await;
            let mut locked: Vec<Addr> = Vec::new();
            let mut valid = true;
            for lvl in 0..top {
                let p = preds[lvl];
                if locked.last() != Some(&p) && !locked.contains(&p) {
                    lock(ctx, p).await;
                    locked.push(p);
                }
                if ctx.read(p.offset(MARKED)).await == 1
                    || ctx.read(p.offset(next_off(lvl))).await != node.0
                {
                    valid = false;
                    break;
                }
            }
            if valid {
                for lvl in (0..top).rev() {
                    let succ = ctx.read(node.offset(next_off(lvl))).await;
                    ctx.write(preds[lvl].offset(next_off(lvl)), succ).await;
                }
                for p in locked {
                    unlock(ctx, p).await;
                }
                return;
            }
            for p in locked {
                unlock(ctx, p).await;
            }
            ctx.work(32);
        }
    }

    /// Remove `key`; returns false if absent. (Set API for the
    /// low-contention experiment.)
    pub async fn remove(&self, ctx: &mut ThreadCtx, key: u64) -> bool {
        loop {
            let (_, succs) = self.find(ctx, key).await;
            if succs[0] == 0 || ctx.read(Addr(succs[0]).offset(KEY)).await != key {
                return false;
            }
            let node = Addr(succs[0]);
            if ctx.read(node.offset(LINKED)).await != 1 {
                ctx.work(16);
                continue;
            }
            if !try_lock(ctx, node).await {
                ctx.work(16);
                continue;
            }
            if ctx.read(node.offset(MARKED)).await == 1 {
                unlock(ctx, node).await;
                return false;
            }
            ctx.write(node.offset(MARKED), 1).await;
            unlock(ctx, node).await;
            self.remove_node(ctx, node, key).await;
            return true;
        }
    }

    /// Lotan–Shavit `deleteMin`: mark the first live node at level 0 and
    /// physically remove it. Returns its `(key, value)`, or `None` if the
    /// queue looks empty.
    pub async fn delete_min(&self, ctx: &mut ThreadCtx) -> Option<(u64, u64)> {
        let mut cur = ctx.read(self.head.offset(next_off(0))).await;
        while cur != 0 {
            let node = Addr(cur);
            if ctx.read(node.offset(LINKED)).await == 1
                && ctx.read(node.offset(MARKED)).await == 0
                && try_lock(ctx, node).await
            {
                if ctx.read(node.offset(MARKED)).await == 0 {
                    ctx.write(node.offset(MARKED), 1).await;
                    unlock(ctx, node).await;
                    let key = ctx.read(node.offset(KEY)).await;
                    let value = ctx.read(node.offset(VALUE)).await;
                    self.remove_node(ctx, node, key).await;
                    return Some((key, value));
                }
                unlock(ctx, node).await;
            }
            cur = ctx.read(node.offset(next_off(0))).await;
        }
        None
    }
}
