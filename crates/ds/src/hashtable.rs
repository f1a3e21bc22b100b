//! A lock-based chained hash table (per-bucket locks), standing in for
//! the "Java concurrent hash table" of the paper's low-contention
//! experiments. Each bucket is `[lock, list_head]` on its own cache
//! line; chains are sorted singly-linked lists of `[key, next]` nodes.

use lr_machine::ThreadCtx;
use lr_sim_core::Addr;
use lr_sim_mem::SimMemory;

const B_LOCK: u64 = 0;
const B_HEAD: u64 = 8;

const KEY: u64 = 0;
const NEXT: u64 = 8;

/// A fixed-size lock-based hash set over `u64` keys (keys ≥ 1).
#[derive(Debug, Clone)]
pub struct HashTable {
    buckets: Vec<Addr>,
    /// Lease each bucket lock across its critical section.
    pub leased: bool,
}

impl HashTable {
    /// Allocate a table with `n` buckets.
    pub fn init(mem: &mut SimMemory, n: usize, leased: bool) -> Self {
        assert!(n >= 1);
        HashTable {
            buckets: (0..n).map(|_| mem.alloc_line_aligned(16)).collect(),
            leased,
        }
    }

    fn bucket(&self, key: u64) -> Addr {
        // Fibonacci hashing spreads sequential keys across buckets.
        let h = key.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.buckets[(h % self.buckets.len() as u64) as usize]
    }

    async fn lock(&self, ctx: &mut ThreadCtx, b: Addr) {
        if self.leased {
            loop {
                ctx.lease_max(b.offset(B_LOCK)).await;
                if ctx.xchg(b.offset(B_LOCK), 1).await == 0 {
                    return;
                }
                ctx.release(b.offset(B_LOCK)).await;
                while ctx.read(b.offset(B_LOCK)).await != 0 {
                    ctx.work(16);
                }
            }
        } else {
            loop {
                if ctx.read(b.offset(B_LOCK)).await == 0 && ctx.xchg(b.offset(B_LOCK), 1).await == 0
                {
                    return;
                }
                ctx.work(16);
            }
        }
    }

    async fn unlock(&self, ctx: &mut ThreadCtx, b: Addr) {
        ctx.write(b.offset(B_LOCK), 0).await;
        if self.leased {
            ctx.release(b.offset(B_LOCK)).await;
        }
    }

    /// Insert `key`; false if already present.
    pub async fn insert(&self, ctx: &mut ThreadCtx, key: u64) -> bool {
        debug_assert!(key >= 1);
        let b = self.bucket(key);
        self.lock(ctx, b).await;
        // Sorted-chain walk.
        let mut prev = b.offset(B_HEAD);
        let mut cur = ctx.read(prev).await;
        while cur != 0 {
            let k = ctx.read(Addr(cur).offset(KEY)).await;
            if k == key {
                self.unlock(ctx, b).await;
                return false;
            }
            if k > key {
                break;
            }
            prev = Addr(cur).offset(NEXT);
            cur = ctx.read(prev).await;
        }
        let node = ctx.malloc_line(16).await;
        ctx.write(node.offset(KEY), key).await;
        ctx.write(node.offset(NEXT), cur).await;
        ctx.write(prev, node.0).await;
        self.unlock(ctx, b).await;
        true
    }

    /// Remove `key`; false if absent.
    pub async fn remove(&self, ctx: &mut ThreadCtx, key: u64) -> bool {
        let b = self.bucket(key);
        self.lock(ctx, b).await;
        let mut prev = b.offset(B_HEAD);
        let mut cur = ctx.read(prev).await;
        while cur != 0 {
            let k = ctx.read(Addr(cur).offset(KEY)).await;
            if k == key {
                let next = ctx.read(Addr(cur).offset(NEXT)).await;
                ctx.write(prev, next).await;
                self.unlock(ctx, b).await;
                // Unlinked nodes are not freed: `contains` reads chains
                // without the bucket lock (no reclamation, as everywhere
                // in the paper's evaluation).
                return true;
            }
            if k > key {
                break;
            }
            prev = Addr(cur).offset(NEXT);
            cur = ctx.read(prev).await;
        }
        self.unlock(ctx, b).await;
        false
    }

    /// Is `key` present? (Lock-free read of the sorted chain.)
    pub async fn contains(&self, ctx: &mut ThreadCtx, key: u64) -> bool {
        let b = self.bucket(key);
        let mut cur = ctx.read(b.offset(B_HEAD)).await;
        while cur != 0 {
            let k = ctx.read(Addr(cur).offset(KEY)).await;
            if k == key {
                return true;
            }
            if k > key {
                return false;
            }
            cur = ctx.read(Addr(cur).offset(NEXT)).await;
        }
        false
    }
}
