//! Software delegation locks on simulated memory — the strongest modern
//! competitors to the paper's hardware lease mechanism: MCS and CLH
//! queue locks, flat combining \[Hendler et al., SPAA 2010\], and
//! CCSynch \[Fatourou & Kallimanis, PPoPP 2012\] — plus two
//! lease-accelerated hybrids (the MCS tail word and the flat-combining
//! publication list under §6-style leases).
//!
//! All per-thread queue nodes and publication records are
//! **pre-allocated at machine setup** ([`Dlock::init`]) on line-aligned
//! simulated memory. This is not just the classic node-recycling idiom:
//! in this simulator every `Malloc`/`Free` executes as a message round
//! trip to the allocator home tile (tile 0), so per-acquisition
//! allocation would charge delegation locks a *false* NoC contention
//! cost that the TTS/lease baselines never pay. Scenarios assert the
//! steady-state sweep performs zero allocator messages
//! (`EngineInfo::alloc_msgs == 0`).
//!
//! Delegation means the lock holder may execute *other threads'*
//! critical sections: operations are published as `(op, arg)` word
//! pairs and applied through a [`CsApply`] — a `Copy` description of
//! the structure being protected, so every thread (and therefore every
//! potential combiner) can run any thread's operation.

use lr_machine::ThreadCtx;
use lr_sim_core::Addr;
use lr_sim_mem::SimMemory;

/// A critical-section interpreter: applies one published `(op, arg)`
/// operation to the protected structure and returns its response word.
/// Combiners call this for other threads' operations, so it must be a
/// pure function of simulated memory (no host-side per-thread state).
// Workload futures are polled on the engine's thread and never need
// `Send`, so the auto-trait caveat of `async fn` in traits is moot.
#[allow(async_fn_in_trait)]
pub trait CsApply: Copy + Send + 'static {
    async fn apply(&self, ctx: &mut ThreadCtx, op: u64, arg: u64) -> u64;
}

/// Which delegation algorithm a [`Dlock`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DlockAlgo {
    /// MCS queue lock: `xchg` on the tail, spin on your own node.
    Mcs,
    /// MCS with the tail word leased around the `xchg`/`cas` — the §6
    /// idea applied to the queue lock's only contended line.
    McsLease,
    /// CLH queue lock with handoff node recycling (spin on the
    /// predecessor's node; pre-allocated pool, unlike [`crate::ClhLock`]
    /// which mallocs its node per handle).
    Clh,
    /// Flat combining: publish `(op, arg)`, one thread takes a TTS
    /// combiner lock and serves the whole publication list.
    Fc,
    /// Flat combining with the combiner lock *and* each served
    /// publication record leased — "lease the combiner's publication
    /// list" (the head-to-head hybrid the ROADMAP asks for).
    FcLease,
    /// CCSynch: node-chain delegation with bounded handoff — the
    /// combining chain is the queue, so there is no separate lock word
    /// (captures Reciprocating Locks' bounded-handoff reciprocation).
    CcSynch,
}

/// Every algorithm, in canonical order (fuzz generator and scenario
/// series index into this).
pub const DLOCK_ALGOS: [DlockAlgo; 6] = [
    DlockAlgo::Mcs,
    DlockAlgo::McsLease,
    DlockAlgo::Clh,
    DlockAlgo::Fc,
    DlockAlgo::FcLease,
    DlockAlgo::CcSynch,
];

impl DlockAlgo {
    pub fn name(self) -> &'static str {
        match self {
            DlockAlgo::Mcs => "mcs",
            DlockAlgo::McsLease => "mcs-lease",
            DlockAlgo::Clh => "clh",
            DlockAlgo::Fc => "fc",
            DlockAlgo::FcLease => "fc-lease",
            DlockAlgo::CcSynch => "ccsynch",
        }
    }
}

// MCS node layout (16 bytes, line-aligned).
const MCS_LOCKED: u64 = 0;
const MCS_NEXT: u64 = 8;

// Flat-combining publication record layout (32 bytes, line-aligned).
// REQ: 0 = idle, 1 = pending, 2 = served.
const FC_REQ: u64 = 0;
const FC_OP: u64 = 8;
const FC_ARG: u64 = 16;
const FC_RESP: u64 = 24;

// CCSynch node layout (48 bytes, line-aligned).
const CC_WAIT: u64 = 0;
const CC_DONE: u64 = 8;
const CC_OP: u64 = 16;
const CC_ARG: u64 = 24;
const CC_RESP: u64 = 32;
const CC_NEXT: u64 = 40;

/// CCSynch handoff bound: a combiner serves at most this many chained
/// operations before passing combining duty down the chain (the
/// bounded-reciprocation knob; large enough that small sweeps combine
/// freely, small enough that no thread serves unboundedly).
const CC_HANDOFF: u64 = 64;

/// Local spin-loop cost between re-reads while waiting (cycles),
/// matching the CLH baseline's cadence.
const SPIN_WORK: u64 = 48;

/// A delegation lock instance: the shared word(s) plus the pre-allocated
/// per-thread node/record pool. `Clone` so each workload thread can move
/// its own copy into its closure; all fields are simulated addresses, so
/// clones alias the same simulated lock.
#[derive(Debug, Clone)]
pub struct Dlock {
    algo: DlockAlgo,
    /// MCS/CLH/CCSynch tail pointer; FC combiner-lock word.
    tail: Addr,
    /// Per-thread pool, indexed by worker tid. CLH and CCSynch carry one
    /// extra node at the end: the initial dummy the tail starts on.
    nodes: Vec<Addr>,
}

/// Per-thread lock state plus host-side combiner statistics. The stats
/// are deterministic (the simulation is), but host-side only: they never
/// touch `MachineStats`, so recorded traces and goldens are unaffected.
#[derive(Debug, Clone)]
pub struct DlockHandle {
    /// MCS/FC: this thread's own node/record. CLH/CCSynch: the node the
    /// thread currently owns (recycled along the queue/chain).
    node: Addr,
    /// Times this thread held the lock / acted as combiner.
    pub acquisitions: u64,
    /// Operations this thread executed while holding (own + served).
    /// For non-delegating algorithms this equals `acquisitions`.
    pub combined: u64,
}

impl Dlock {
    /// Allocate the lock and its whole per-thread pool at machine setup
    /// time (zero simulated cost, zero allocator messages at runtime).
    /// `max_threads` bounds the worker tids that may call [`Self::handle`].
    pub fn init(mem: &mut SimMemory, algo: DlockAlgo, max_threads: usize) -> Dlock {
        let tail = mem.alloc_line_aligned(8);
        let nodes: Vec<Addr> = match algo {
            DlockAlgo::Mcs | DlockAlgo::McsLease => (0..max_threads)
                .map(|_| mem.alloc_line_aligned(16))
                .collect(),
            DlockAlgo::Clh => {
                let v: Vec<Addr> = (0..max_threads + 1)
                    .map(|_| mem.alloc_line_aligned(8))
                    .collect();
                // Tail starts on the unlocked dummy (fresh memory is
                // zeroed, so the dummy already reads "released").
                mem.write_word(tail, v[max_threads].0);
                v
            }
            DlockAlgo::Fc | DlockAlgo::FcLease => (0..max_threads)
                .map(|_| mem.alloc_line_aligned(32))
                .collect(),
            DlockAlgo::CcSynch => {
                let v: Vec<Addr> = (0..max_threads + 1)
                    .map(|_| mem.alloc_line_aligned(48))
                    .collect();
                // The initial chain node: WAIT=0/DONE=0 means the first
                // enqueuer becomes combiner immediately.
                mem.write_word(tail, v[max_threads].0);
                v
            }
        };
        Dlock { algo, tail, nodes }
    }

    pub fn algo(&self) -> DlockAlgo {
        self.algo
    }

    /// This thread's handle over the pre-allocated pool. Host-side only —
    /// no simulated instructions, hence no allocator traffic.
    pub fn handle(&self, tid: usize) -> DlockHandle {
        DlockHandle {
            node: self.nodes[tid],
            acquisitions: 0,
            combined: 0,
        }
    }

    /// Execute one critical-section operation under the lock: acquire,
    /// run (possibly *being* run by a combiner), release. Returns the
    /// operation's response word.
    pub async fn run<A: CsApply>(
        &self,
        ctx: &mut ThreadCtx,
        h: &mut DlockHandle,
        apply: &A,
        op: u64,
        arg: u64,
    ) -> u64 {
        match self.algo {
            DlockAlgo::Mcs => self.mcs_run(ctx, h, apply, op, arg, false).await,
            DlockAlgo::McsLease => self.mcs_run(ctx, h, apply, op, arg, true).await,
            DlockAlgo::Clh => self.clh_run(ctx, h, apply, op, arg).await,
            DlockAlgo::Fc => self.fc_run(ctx, h, apply, op, arg, false).await,
            DlockAlgo::FcLease => self.fc_run(ctx, h, apply, op, arg, true).await,
            DlockAlgo::CcSynch => self.cc_run(ctx, h, apply, op, arg).await,
        }
    }

    /// MCS: enqueue via tail `xchg`, spin on our own node, hand off
    /// through the successor link. `lease_tail` wraps the two tail RMWs
    /// in a §6 lease so the queue's only globally contended line behaves
    /// like the paper's leased lock word.
    async fn mcs_run<A: CsApply>(
        &self,
        ctx: &mut ThreadCtx,
        h: &mut DlockHandle,
        apply: &A,
        op: u64,
        arg: u64,
        lease_tail: bool,
    ) -> u64 {
        let node = h.node;
        ctx.write(node.offset(MCS_NEXT), 0).await;
        if lease_tail {
            ctx.lease_max(self.tail).await;
        }
        let pred = ctx.xchg(self.tail, node.0).await;
        if lease_tail {
            ctx.release(self.tail).await;
        }
        if pred != 0 {
            // Arm our spin flag *before* linking: the predecessor can
            // only clear it after it sees the link.
            ctx.write(node.offset(MCS_LOCKED), 1).await;
            ctx.write(Addr(pred).offset(MCS_NEXT), node.0).await;
            while ctx.read(node.offset(MCS_LOCKED)).await != 0 {
                ctx.work(SPIN_WORK);
            }
        }
        let resp = apply.apply(ctx, op, arg).await;
        h.acquisitions += 1;
        h.combined += 1;
        let mut next = ctx.read(node.offset(MCS_NEXT)).await;
        if next == 0 {
            if lease_tail {
                ctx.lease_max(self.tail).await;
            }
            let (won, _) = ctx.cas_val(self.tail, node.0, 0).await;
            if lease_tail {
                ctx.release(self.tail).await;
            }
            if won {
                return resp;
            }
            // A successor is mid-enqueue: wait for its link.
            loop {
                next = ctx.read(node.offset(MCS_NEXT)).await;
                if next != 0 {
                    break;
                }
                ctx.work(SPIN_WORK);
            }
        }
        ctx.write(Addr(next).offset(MCS_LOCKED), 0).await;
        resp
    }

    /// CLH with queue handoff: spin on the *predecessor's* node, recycle
    /// it as ours on release — the pool never grows and waiting costs no
    /// global traffic.
    async fn clh_run<A: CsApply>(
        &self,
        ctx: &mut ThreadCtx,
        h: &mut DlockHandle,
        apply: &A,
        op: u64,
        arg: u64,
    ) -> u64 {
        let node = h.node;
        ctx.write(node, 1).await;
        let pred = Addr(ctx.xchg(self.tail, node.0).await);
        while ctx.read(pred).await != 0 {
            ctx.work(SPIN_WORK);
        }
        let resp = apply.apply(ctx, op, arg).await;
        h.acquisitions += 1;
        h.combined += 1;
        ctx.write(node, 0).await;
        h.node = pred;
        resp
    }

    /// Flat combining: publish the operation, then either observe it
    /// served or win the combiner lock and serve the whole publication
    /// list. `lease` holds the combiner word for the session and leases
    /// each record while serving it, batching the response/handoff
    /// invalidations the way §6 batches lock-word ownership.
    async fn fc_run<A: CsApply>(
        &self,
        ctx: &mut ThreadCtx,
        h: &mut DlockHandle,
        apply: &A,
        op: u64,
        arg: u64,
        lease: bool,
    ) -> u64 {
        let rec = h.node;
        ctx.write(rec.offset(FC_OP), op).await;
        ctx.write(rec.offset(FC_ARG), arg).await;
        ctx.write(rec.offset(FC_REQ), 1).await;
        loop {
            if ctx.read(rec.offset(FC_REQ)).await == 2 {
                let resp = ctx.read(rec.offset(FC_RESP)).await;
                ctx.write(rec.offset(FC_REQ), 0).await;
                return resp;
            }
            let won = if lease {
                ctx.lease_max(self.tail).await;
                if ctx.xchg(self.tail, 1).await == 0 {
                    true
                } else {
                    // Contended: drop the lease at once (the §6 rule) so
                    // the active combiner's unlock is not delayed.
                    ctx.release(self.tail).await;
                    false
                }
            } else {
                ctx.read(self.tail).await == 0 && ctx.xchg(self.tail, 1).await == 0
            };
            if won {
                if ctx.read(rec.offset(FC_REQ)).await == 2 {
                    // Served while we contended for the combiner word
                    // (under leases, waiters queue for the whole
                    // session): hand the lock straight back.
                    ctx.write(self.tail, 0).await;
                    if lease {
                        ctx.release(self.tail).await;
                    }
                    let resp = ctx.read(rec.offset(FC_RESP)).await;
                    ctx.write(rec.offset(FC_REQ), 0).await;
                    return resp;
                }
                h.acquisitions += 1;
                for &r in &self.nodes {
                    if lease {
                        ctx.lease_max(r).await;
                    }
                    if ctx.read(r.offset(FC_REQ)).await == 1 {
                        let o = ctx.read(r.offset(FC_OP)).await;
                        let a = ctx.read(r.offset(FC_ARG)).await;
                        let resp = apply.apply(ctx, o, a).await;
                        ctx.write(r.offset(FC_RESP), resp).await;
                        ctx.write(r.offset(FC_REQ), 2).await;
                        h.combined += 1;
                    }
                    if lease {
                        ctx.release(r).await;
                    }
                }
                ctx.write(self.tail, 0).await;
                if lease {
                    ctx.release(self.tail).await;
                }
                // Our own record was pending, so the scan served it.
                let resp = ctx.read(rec.offset(FC_RESP)).await;
                ctx.write(rec.offset(FC_REQ), 0).await;
                return resp;
            }
            ctx.work(SPIN_WORK);
        }
    }

    /// CCSynch: the enqueue chain *is* the combining queue. Swap a fresh
    /// node in as tail, publish into the node received, spin on it; the
    /// thread woken with `DONE == 0` combines up to [`CC_HANDOFF`]
    /// chained operations, then reciprocates combining duty onward.
    async fn cc_run<A: CsApply>(
        &self,
        ctx: &mut ThreadCtx,
        h: &mut DlockHandle,
        apply: &A,
        op: u64,
        arg: u64,
    ) -> u64 {
        let fresh = h.node;
        ctx.write(fresh.offset(CC_WAIT), 1).await;
        ctx.write(fresh.offset(CC_DONE), 0).await;
        ctx.write(fresh.offset(CC_NEXT), 0).await;
        let cur = Addr(ctx.xchg(self.tail, fresh.0).await);
        ctx.write(cur.offset(CC_OP), op).await;
        ctx.write(cur.offset(CC_ARG), arg).await;
        ctx.write(cur.offset(CC_NEXT), fresh.0).await;
        h.node = cur; // adopt the received node as our next spare
        while ctx.read(cur.offset(CC_WAIT)).await != 0 {
            ctx.work(SPIN_WORK);
        }
        if ctx.read(cur.offset(CC_DONE)).await != 0 {
            return ctx.read(cur.offset(CC_RESP)).await;
        }
        // Combining duty is ours. The first served node is always `cur`
        // (we linked its NEXT above), so our own response is iteration 0.
        h.acquisitions += 1;
        let mut own_resp = 0;
        let mut tmp = cur;
        let mut served = 0u64;
        loop {
            let next = ctx.read(tmp.offset(CC_NEXT)).await;
            if next == 0 || served >= CC_HANDOFF {
                break;
            }
            let o = ctx.read(tmp.offset(CC_OP)).await;
            let a = ctx.read(tmp.offset(CC_ARG)).await;
            let resp = apply.apply(ctx, o, a).await;
            ctx.write(tmp.offset(CC_RESP), resp).await;
            ctx.write(tmp.offset(CC_DONE), 1).await;
            ctx.write(tmp.offset(CC_WAIT), 0).await;
            if tmp == cur {
                own_resp = resp;
            }
            h.combined += 1;
            served += 1;
            tmp = Addr(next);
        }
        // Handoff: wake `tmp`'s owner with DONE still 0 — it combines
        // from here (or, if `tmp` is the idle tail node, the next
        // enqueuer skips its spin entirely).
        ctx.write(tmp.offset(CC_WAIT), 0).await;
        own_resp
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lr_machine::{program, Machine, SystemConfig, ThreadCtx, ThreadFn};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    /// Non-atomic read-modify-write counter: loses updates under any
    /// mutual-exclusion bug, and proves delegated application (the
    /// combiner's faa-free increment) is serialized.
    #[derive(Clone, Copy)]
    struct CounterApply {
        cell: Addr,
    }

    impl CsApply for CounterApply {
        async fn apply(&self, ctx: &mut ThreadCtx, _op: u64, arg: u64) -> u64 {
            let v = ctx.read(self.cell).await;
            ctx.work(25);
            ctx.write(self.cell, v.wrapping_add(arg)).await;
            v
        }
    }

    fn run_algo(algo: DlockAlgo, threads: usize, per: u64) -> (u64, u64, u64) {
        let mut m = Machine::new(SystemConfig::with_cores(threads));
        let (lock, cell) = m.setup(|mem| {
            let cell = mem.alloc_line_aligned(8);
            (Dlock::init(mem, algo, threads), cell)
        });
        let acq = Arc::new(AtomicU64::new(0));
        let comb = Arc::new(AtomicU64::new(0));
        let progs: Vec<ThreadFn> = (0..threads)
            .map(|tid| {
                let lock = lock.clone();
                let (acq, comb) = (acq.clone(), comb.clone());
                program(async move |ctx: &mut ThreadCtx| {
                    let mut h = lock.handle(tid);
                    let apply = CounterApply { cell };
                    for _ in 0..per {
                        lock.run(ctx, &mut h, &apply, 0, 1).await;
                        ctx.work(30);
                    }
                    acq.fetch_add(h.acquisitions, Ordering::Relaxed);
                    comb.fetch_add(h.combined, Ordering::Relaxed);
                })
            })
            .collect();
        let (_, mem) = m.run_with_memory(progs);
        (
            mem.read_word(cell),
            acq.load(Ordering::Relaxed),
            comb.load(Ordering::Relaxed),
        )
    }

    #[test]
    fn every_algorithm_is_mutually_exclusive_and_complete() {
        let (threads, per) = (5, 20u64);
        for algo in DLOCK_ALGOS {
            let (count, acq, comb) = run_algo(algo, threads, per);
            let total = threads as u64 * per;
            assert_eq!(count, total, "{}: lost updates", algo.name());
            assert_eq!(comb, total, "{}: ops applied != ops submitted", algo.name());
            assert!(
                acq >= 1 && acq <= total,
                "{}: handoff count insane",
                algo.name()
            );
        }
    }

    #[test]
    fn combining_algorithms_batch_ops_per_handoff() {
        // Under contention the delegating algorithms must serve more
        // than one op per lock acquisition on average.
        for algo in [DlockAlgo::Fc, DlockAlgo::FcLease, DlockAlgo::CcSynch] {
            let (count, acq, comb) = run_algo(algo, 6, 30);
            assert_eq!(count, 180, "{}: lost updates", algo.name());
            assert!(
                comb > acq,
                "{}: no combining happened ({comb} ops in {acq} holds)",
                algo.name()
            );
        }
    }

    #[test]
    fn single_thread_fast_path_works() {
        for algo in DLOCK_ALGOS {
            let (count, acq, comb) = run_algo(algo, 1, 10);
            assert_eq!(count, 10, "{}", algo.name());
            assert_eq!(comb, 10, "{}", algo.name());
            assert_eq!(acq, 10, "{}: uncontended holds must be 1:1", algo.name());
        }
    }

    #[test]
    fn responses_route_back_to_the_delegating_thread() {
        // Each thread FAAs a shared cell by 1 and must receive the *old*
        // value; collecting every response must yield a permutation of
        // 0..total — even when a combiner executed the op on our behalf.
        let (threads, per) = (4, 12u64);
        for algo in DLOCK_ALGOS {
            let mut m = Machine::new(SystemConfig::with_cores(threads));
            let (lock, cell) = m.setup(|mem| {
                let cell = mem.alloc_line_aligned(8);
                (Dlock::init(mem, algo, threads), cell)
            });
            let seen = Arc::new(std::sync::Mutex::new(Vec::new()));
            let progs: Vec<ThreadFn> = (0..threads)
                .map(|tid| {
                    let lock = lock.clone();
                    let seen = seen.clone();
                    program(async move |ctx: &mut ThreadCtx| {
                        let mut h = lock.handle(tid);
                        let apply = CounterApply { cell };
                        let mut got = Vec::new();
                        for _ in 0..per {
                            got.push(lock.run(ctx, &mut h, &apply, 0, 1).await);
                        }
                        seen.lock().unwrap().extend(got);
                    })
                })
                .collect();
            m.run(progs);
            let mut all = seen.lock().unwrap().clone();
            all.sort_unstable();
            let expect: Vec<u64> = (0..threads as u64 * per).collect();
            assert_eq!(all, expect, "{}: responses mangled", algo.name());
        }
    }
}
