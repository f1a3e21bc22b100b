//! An unbalanced concurrent binary search tree with lock-free reads and
//! per-node locking for updates, with *logical* deletion (a `deleted`
//! flag) and no physical removal.
//!
//! This stands in for the lock-free external BST of Natarajan–Mittal
//! \[31\] in the paper's low-contention experiments: what matters there is
//! the access pattern (pointer-chasing over a large, mostly-read tree
//! with rare localized updates), which this design reproduces; the
//! substitution is recorded in DESIGN.md.
//!
//! Node layout: `[key, left, right, lock, deleted]`.

use lr_machine::ThreadCtx;
use lr_sim_core::Addr;
use lr_sim_mem::SimMemory;

const KEY: u64 = 0;
const LEFT: u64 = 8;
const RIGHT: u64 = 16;
const LOCK: u64 = 24;
const DELETED: u64 = 32;

const NODE_BYTES: u64 = 40;

/// A concurrent BST set over `u64` keys (keys ≥ 1).
#[derive(Debug, Clone, Copy)]
pub struct Bst {
    /// Root pointer cell (its own line).
    pub root: Addr,
    /// Lease the parent node's line around the linking write.
    pub leased: bool,
}

impl Bst {
    /// Allocate an empty tree.
    pub fn init(mem: &mut SimMemory, leased: bool) -> Self {
        Bst {
            root: mem.alloc_line_aligned(8),
            leased,
        }
    }

    async fn lock_node(&self, ctx: &mut ThreadCtx, n: Addr) {
        loop {
            if ctx.read(n.offset(LOCK)).await == 0 && ctx.xchg(n.offset(LOCK), 1).await == 0 {
                return;
            }
            ctx.work(16);
        }
    }

    async fn unlock_node(&self, ctx: &mut ThreadCtx, n: Addr) {
        ctx.write(n.offset(LOCK), 0).await;
    }

    /// Find `key`'s node, or the would-be parent and side.
    /// Returns `(node_or_null, parent, child_offset)`.
    async fn locate(&self, ctx: &mut ThreadCtx, key: u64) -> (u64, Addr, u64) {
        let mut parent = Addr::NULL;
        let mut link = self.root; // the cell holding the child pointer
        let mut side = 0;
        loop {
            let cur = ctx.read(link).await;
            if cur == 0 {
                return (0, parent, side);
            }
            let node = Addr(cur);
            let k = ctx.read(node.offset(KEY)).await;
            if k == key {
                return (cur, parent, side);
            }
            parent = node;
            side = if key < k { LEFT } else { RIGHT };
            link = node.offset(side);
        }
    }

    /// Insert `key`; false if present (and not logically deleted).
    pub async fn insert(&self, ctx: &mut ThreadCtx, key: u64) -> bool {
        debug_assert!(key >= 1);
        loop {
            let (found, parent, side) = self.locate(ctx, key).await;
            if found != 0 {
                // Key node exists: resurrect it if logically deleted.
                let node = Addr(found);
                self.lock_node(ctx, node).await;
                let was_deleted = ctx.read(node.offset(DELETED)).await == 1;
                if was_deleted {
                    ctx.write(node.offset(DELETED), 0).await;
                }
                self.unlock_node(ctx, node).await;
                return was_deleted;
            }
            // Link a fresh leaf under `parent` (or at the root).
            let node = ctx.malloc_line(NODE_BYTES).await;
            ctx.write(node.offset(KEY), key).await;
            if parent.is_null() {
                if ctx.cas(self.root, 0, node.0).await {
                    return true;
                }
                ctx.free(node).await;
                continue;
            }
            let link = parent.offset(side);
            self.lock_node(ctx, parent).await;
            if self.leased {
                ctx.lease_max(link).await;
            }
            let ok = ctx.cas(link, 0, node.0).await;
            if self.leased {
                ctx.release(link).await;
            }
            self.unlock_node(ctx, parent).await;
            if ok {
                return true;
            }
            ctx.free(node).await;
            // Someone linked a node here first: retry from the top.
        }
    }

    /// Logically remove `key`; false if absent.
    pub async fn remove(&self, ctx: &mut ThreadCtx, key: u64) -> bool {
        let (found, _, _) = self.locate(ctx, key).await;
        if found == 0 {
            return false;
        }
        let node = Addr(found);
        self.lock_node(ctx, node).await;
        let was_live = ctx.read(node.offset(DELETED)).await == 0;
        if was_live {
            ctx.write(node.offset(DELETED), 1).await;
        }
        self.unlock_node(ctx, node).await;
        was_live
    }

    /// Is `key` present (and not logically deleted)?
    pub async fn contains(&self, ctx: &mut ThreadCtx, key: u64) -> bool {
        let (found, _, _) = self.locate(ctx, key).await;
        found != 0 && ctx.read(Addr(found).offset(DELETED)).await == 0
    }
}
