//! MultiQueues \[36\] — the relaxed priority queue of the paper's
//! Algorithm 4: `M` sequential priority queues, each behind a try-lock.
//! `insert` locks one random queue; `deleteMin` locks two random queues
//! and pops the better minimum.
//!
//! The leased variant follows Algorithm 4 exactly: `insert` leases the
//! chosen lock; `deleteMin` MultiLeases *both* locks, and — critically —
//! releases the leases right after the priority comparison, before the
//! (long) sequential `deleteMin`, so other threads can re-randomize
//! instead of waiting (the §6 discussion of why this traffic is "not
//! useless" for MultiQueues).

use crate::seq_skiplist::SeqSkipList;
use lr_machine::ThreadCtx;
use lr_sim_core::Addr;
use lr_sim_mem::SimMemory;

/// Lease usage variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MqVariant {
    /// Plain try-locks.
    Base,
    /// Algorithm 4: leases on insert, MultiLease on deleteMin.
    Leased,
}

/// A MultiQueue over `M` sequential skiplists.
#[derive(Debug, Clone)]
pub struct MultiQueue {
    locks: Vec<Addr>,
    queues: Vec<SeqSkipList>,
    variant: MqVariant,
}

impl MultiQueue {
    /// Allocate `m` queues (the paper's benchmark uses eight).
    pub fn init(mem: &mut SimMemory, m: usize, variant: MqVariant) -> Self {
        assert!(m >= 2);
        MultiQueue {
            locks: (0..m).map(|_| mem.alloc_line_aligned(8)).collect(),
            queues: (0..m).map(|_| SeqSkipList::init(mem)).collect(),
            variant,
        }
    }

    /// Number of underlying queues.
    pub fn queues(&self) -> usize {
        self.queues.len()
    }

    async fn try_lock(&self, ctx: &mut ThreadCtx, i: usize) -> bool {
        ctx.read(self.locks[i]).await == 0 && ctx.xchg(self.locks[i], 1).await == 0
    }

    async fn unlock(&self, ctx: &mut ThreadCtx, i: usize) {
        ctx.write(self.locks[i], 0).await;
    }

    /// Algorithm 4 `INSERT`.
    pub async fn insert(&self, ctx: &mut ThreadCtx, key: u64, value: u64) -> usize {
        let m = self.queues.len();
        loop {
            let i = ctx.rng().gen_range(0..m);
            if self.variant == MqVariant::Leased {
                ctx.lease_max(self.locks[i]).await;
            }
            if self.try_lock(ctx, i).await {
                self.queues[i].insert(ctx, key, value).await; // sequential
                self.unlock(ctx, i).await;
                if self.variant == MqVariant::Leased {
                    ctx.release(self.locks[i]).await;
                }
                return i;
            }
            if self.variant == MqVariant::Leased {
                ctx.release(self.locks[i]).await;
            }
            ctx.work(32);
        }
    }

    /// Algorithm 4 `DELETEMIN`: lock two random queues, pop the better
    /// minimum. Returns `None` only if the chosen queues were both empty.
    pub async fn delete_min(&self, ctx: &mut ThreadCtx) -> Option<(u64, u64)> {
        let m = self.queues.len();
        loop {
            let i = ctx.rng().gen_range(0..m);
            let k = ctx.rng().gen_range(0..m);
            if i == k {
                continue;
            }
            if self.variant == MqVariant::Leased {
                ctx.multi_lease(&[self.locks[i], self.locks[k]], ctx.max_lease_time())
                    .await;
            }
            if self.try_lock(ctx, i).await {
                if self.try_lock(ctx, k).await {
                    // Compare the two minima; `best` wins.
                    let (best, other) = match (
                        self.queues[i].peek_min(ctx).await,
                        self.queues[k].peek_min(ctx).await,
                    ) {
                        (None, None) => {
                            self.unlock(ctx, k).await;
                            self.unlock(ctx, i).await;
                            if self.variant == MqVariant::Leased {
                                ctx.release_all().await;
                            }
                            return None;
                        }
                        (Some(_), None) => (i, k),
                        (None, Some(_)) => (k, i),
                        (Some(a), Some(b)) => {
                            if a <= b {
                                (i, k)
                            } else {
                                (k, i)
                            }
                        }
                    };
                    // As soon as the comparison is done: unlock the loser
                    // and drop both leases (Algorithm 4 lines 13–14).
                    self.unlock(ctx, other).await;
                    if self.variant == MqVariant::Leased {
                        ctx.release_all().await;
                    }
                    let rtn = self.queues[best].delete_min(ctx).await; // sequential
                    self.unlock(ctx, best).await;
                    return rtn;
                }
                // Failed to acquire the second lock.
                self.unlock(ctx, i).await;
                if self.variant == MqVariant::Leased {
                    ctx.release_all().await;
                }
            } else if self.variant == MqVariant::Leased {
                ctx.release_all().await;
            }
            ctx.work(32);
        }
    }
}
