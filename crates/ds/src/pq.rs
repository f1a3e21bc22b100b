//! Priority queues for the Figure 3 benchmark.
//!
//! * Baseline: the Lotan–Shavit queue over the Pugh-style locking
//!   skiplist ([`crate::pugh_skiplist::LockingSkipList`]).
//! * Leased: the paper's lease-based implementation "relies on a global
//!   lock" — a sequential skiplist under one lease-guarded lock.
//! * A plain global-lock variant is kept as an ablation point (it shows
//!   how much of the win comes from the lease vs. from serialization).

use crate::pugh_skiplist::LockingSkipList;
use crate::seq_skiplist::SeqSkipList;
use lr_machine::ThreadCtx;
use lr_sim_mem::SimMemory;
use lr_sync::{LeasedLock, SpinLock, TryLock};

/// A concurrent priority queue implementation choice.
#[derive(Debug, Clone, Copy)]
pub enum PriorityQueue {
    /// Lotan–Shavit over the fine-grained locking skiplist (baseline).
    LotanShavit(LockingSkipList),
    /// Sequential skiplist under a plain global test&test&set lock.
    GlobalLock(SpinLock, SeqSkipList),
    /// Sequential skiplist under a lease-guarded global lock (the
    /// paper's leased variant).
    GlobalLeasedLock(LeasedLock, SeqSkipList),
}

impl PriorityQueue {
    /// Allocate the chosen implementation.
    pub fn init_lotan_shavit(mem: &mut SimMemory) -> Self {
        PriorityQueue::LotanShavit(LockingSkipList::init(mem))
    }

    /// Allocate the plain global-lock variant.
    pub fn init_global_lock(mem: &mut SimMemory) -> Self {
        PriorityQueue::GlobalLock(SpinLock::init(mem), SeqSkipList::init(mem))
    }

    /// Allocate the lease-guarded global-lock variant.
    pub fn init_global_leased(mem: &mut SimMemory) -> Self {
        PriorityQueue::GlobalLeasedLock(LeasedLock::init(mem), SeqSkipList::init(mem))
    }

    /// Insert `(key, value)`; smaller keys have higher priority.
    /// Keys must be ≥ 1.
    pub async fn insert(&self, ctx: &mut ThreadCtx, key: u64, value: u64) {
        match self {
            PriorityQueue::LotanShavit(sl) => {
                // Unique-key set: perturb colliding keys.
                let mut k = key;
                while !sl.insert(ctx, k, value).await {
                    k += 1;
                }
            }
            PriorityQueue::GlobalLock(lock, list) => {
                lock.lock(ctx).await;
                list.insert(ctx, key, value).await;
                lock.unlock(ctx).await;
            }
            PriorityQueue::GlobalLeasedLock(lock, list) => {
                lock.lock(ctx).await;
                list.insert(ctx, key, value).await;
                lock.unlock(ctx).await;
            }
        }
    }

    /// Remove and return the minimum `(key, value)`.
    pub async fn delete_min(&self, ctx: &mut ThreadCtx) -> Option<(u64, u64)> {
        match self {
            PriorityQueue::LotanShavit(sl) => sl.delete_min(ctx).await,
            PriorityQueue::GlobalLock(lock, list) => {
                lock.lock(ctx).await;
                let r = list.delete_min(ctx).await;
                lock.unlock(ctx).await;
                r
            }
            PriorityQueue::GlobalLeasedLock(lock, list) => {
                lock.lock(ctx).await;
                let r = list.delete_min(ctx).await;
                lock.unlock(ctx).await;
                r
            }
        }
    }
}
