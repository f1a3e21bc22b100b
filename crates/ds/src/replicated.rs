//! Node-replication tier: an NR-style replicated structure on the
//! simulated memory API (Calciu et al., "Black-box Concurrent Data
//! Structures for NUMA Architectures", ASPLOS'17, applied to this
//! simulator's lease/release machinery).
//!
//! One **shared operation log** is the only cross-socket state: a tail
//! word reserves entries with a single fetch-and-add (the natural lease
//! target — it is the one globally contended line), and each appended
//! entry flips a per-entry ready flag once its `(op, arg)` words are
//! published. Every socket keeps a **replica** of the structure in its
//! own memory arena ([`lr_sim_mem::SimMemory::alloc_in_socket`], so the
//! replica's lines are directory-homed on that socket) plus a
//! flat-combining layer reusing the [`CsApply`] contract of the
//! delegation locks: threads publish `(op, arg)` into a socket-local
//! record, one thread per socket takes the socket's combiner lock,
//! appends the whole socket batch to the log with one reservation, and
//! replays the log into the local replica up to the end of its batch —
//! computing each of its own operations' responses on the way. Replicas
//! apply the identical log prefix in the identical order, so any
//! replica's response for a given log position is the linearized one.
//!
//! Cross-socket traffic per *batch* is therefore one tail FAA plus the
//! log-entry lines, instead of one structure-line migration per
//! *operation* — this is what the `numa_serving` scenario measures
//! against plain MSI and lease/release on the un-replicated structure.
//!
//! Progress: appenders never block (reserve, publish, flip ready), and
//! a combiner replaying the log only waits on ready flags of already
//! reserved entries, whose writers are in straight-line code — no
//! circular wait exists.

use lr_machine::ThreadCtx;
use lr_sim_core::Addr;
use lr_sim_mem::SimMemory;
use lr_sync::CsApply;

/// Publication-record layout (32 bytes, line-aligned; one per thread,
/// allocated in the thread's socket arena). REQ: 0 = idle, 1 = pending,
/// 2 = served — the same protocol as the flat-combining delegation lock.
const REC_REQ: u64 = 0;
const REC_OP: u64 = 8;
const REC_ARG: u64 = 16;
const REC_RESP: u64 = 24;

/// Log-entry layout (32 bytes, line-sharing allowed: entries are
/// written once and then only read).
const LOG_OP: u64 = 0;
const LOG_ARG: u64 = 8;
const LOG_READY: u64 = 16;
/// Bytes per log entry.
pub const LOG_STRIDE: u64 = 32;

/// Local spin cost between re-reads while waiting (cycles), matching
/// the delegation locks' cadence.
const SPIN_WORK: u64 = 48;

/// Per-thread handle: the thread id plus host-side combining stats
/// (deterministic but never part of `MachineStats`).
#[derive(Debug, Clone)]
pub struct ReplHandle {
    tid: usize,
    /// Times this thread combined (won its socket's combiner lock).
    pub combines: u64,
    /// Operations this thread appended to the log while combining.
    pub appended: u64,
}

/// An NR-style replicated structure: shared log + per-socket replicas
/// of an arbitrary [`CsApply`] interpreter. `Clone` so each workload
/// thread can move its own copy into its closure; all fields are
/// simulated addresses, so clones alias the same simulated structure.
#[derive(Debug, Clone)]
pub struct Replicated<A> {
    /// Lease the combiner word, the publication records, and the log
    /// tail (the lease/release hybrid); `false` is the plain-MSI NR.
    lease: bool,
    /// Tiles (= worker tids) per socket: thread `t` belongs to socket
    /// `t / tps`, matching the machine's socket-major core numbering.
    tps: usize,
    /// Shared log tail: count of reserved entries. The FAA target.
    tail: Addr,
    /// Shared log storage (`log_cap` entries of [`LOG_STRIDE`] bytes).
    log: Addr,
    log_cap: u64,
    /// Per-socket combiner lock word (in the socket's arena).
    combiner: Vec<Addr>,
    /// Per-socket applied-prefix counter (only its combiner touches it).
    applied: Vec<Addr>,
    /// Per-thread publication record, indexed by tid (each in its
    /// thread's socket arena).
    recs: Vec<Addr>,
    /// Per-socket replica interpreters (each over arena-local storage).
    replicas: Vec<A>,
}

impl<A: CsApply> Replicated<A> {
    /// Allocate the log, the per-socket combining layer, and one
    /// replica per socket at machine setup time (zero allocator
    /// messages at runtime). `mk_replica(mem, s)` builds socket `s`'s
    /// replica and must place its storage with
    /// [`SimMemory::alloc_in_socket`] for the NUMA placement to mean
    /// anything. `log_cap` bounds the total operations ever appended.
    pub fn init<F>(
        mem: &mut SimMemory,
        sockets: usize,
        tiles_per_socket: usize,
        max_threads: usize,
        log_cap: u64,
        lease: bool,
        mut mk_replica: F,
    ) -> Self
    where
        F: FnMut(&mut SimMemory, usize) -> A,
    {
        assert!(sockets >= 1 && tiles_per_socket >= 1);
        assert!(
            max_threads <= sockets * tiles_per_socket,
            "{max_threads} threads exceed {sockets} sockets x {tiles_per_socket} tiles"
        );
        assert!(log_cap >= 1);
        let tail = mem.alloc_line_aligned(8);
        let log = mem.alloc_line_aligned(log_cap * LOG_STRIDE);
        let combiner = (0..sockets)
            .map(|s| mem.alloc_in_socket(8, 64, s))
            .collect();
        let applied = (0..sockets)
            .map(|s| mem.alloc_in_socket(8, 64, s))
            .collect();
        let recs = (0..max_threads)
            .map(|t| mem.alloc_in_socket(32, 64, t / tiles_per_socket))
            .collect();
        let replicas = (0..sockets).map(|s| mk_replica(mem, s)).collect();
        Replicated {
            lease,
            tps: tiles_per_socket,
            tail,
            log,
            log_cap,
            combiner,
            applied,
            recs,
            replicas,
        }
    }

    /// Per-thread handle (host-side; no simulated traffic).
    pub fn handle(&self, tid: usize) -> ReplHandle {
        assert!(tid < self.recs.len());
        ReplHandle {
            tid,
            combines: 0,
            appended: 0,
        }
    }

    /// The per-socket replica interpreters (host-side checks).
    pub fn replicas(&self) -> &[A] {
        &self.replicas
    }

    /// Host-side read of the log length (total appended operations).
    pub fn log_len(&self, mem: &SimMemory) -> u64 {
        mem.read_word(self.tail)
    }

    /// Host-side read of socket `s`'s applied prefix length.
    pub fn applied_len(&self, mem: &SimMemory, s: usize) -> u64 {
        mem.read_word(self.applied[s])
    }

    /// Host-side read of log entry `i` as `(op, arg)`; panics if the
    /// entry was reserved but never published.
    pub fn log_entry(&self, mem: &SimMemory, i: u64) -> (u64, u64) {
        let e = self.entry(i);
        assert_eq!(
            mem.read_word(e.offset(LOG_READY)),
            1,
            "unpublished entry {i}"
        );
        (
            mem.read_word(e.offset(LOG_OP)),
            mem.read_word(e.offset(LOG_ARG)),
        )
    }

    #[inline]
    fn entry(&self, i: u64) -> Addr {
        self.log.offset(i * LOG_STRIDE)
    }

    /// Execute one operation through the replicated structure: publish
    /// to the socket-local record, then either observe it served or win
    /// the socket's combiner lock, append the socket batch to the
    /// shared log, and replay the log into the local replica. Returns
    /// the operation's response word.
    pub async fn run(&self, ctx: &mut ThreadCtx, h: &mut ReplHandle, op: u64, arg: u64) -> u64 {
        let s = h.tid / self.tps;
        let rec = self.recs[h.tid];
        ctx.write(rec.offset(REC_OP), op).await;
        ctx.write(rec.offset(REC_ARG), arg).await;
        ctx.write(rec.offset(REC_REQ), 1).await;
        let lockw = self.combiner[s];
        loop {
            if ctx.read(rec.offset(REC_REQ)).await == 2 {
                let resp = ctx.read(rec.offset(REC_RESP)).await;
                ctx.write(rec.offset(REC_REQ), 0).await;
                return resp;
            }
            let won = if self.lease {
                ctx.lease_max(lockw).await;
                if ctx.xchg(lockw, 1).await == 0 {
                    true
                } else {
                    // Contended: drop the lease at once (the §6 rule).
                    ctx.release(lockw).await;
                    false
                }
            } else {
                ctx.read(lockw).await == 0 && ctx.xchg(lockw, 1).await == 0
            };
            if won {
                if ctx.read(rec.offset(REC_REQ)).await == 2 {
                    // Served while we contended for the combiner word:
                    // hand the lock straight back.
                    ctx.write(lockw, 0).await;
                    if self.lease {
                        ctx.release(lockw).await;
                    }
                    let resp = ctx.read(rec.offset(REC_RESP)).await;
                    ctx.write(rec.offset(REC_REQ), 0).await;
                    return resp;
                }
                h.combines += 1;
                h.appended += self.combine(ctx, s).await;
                ctx.write(lockw, 0).await;
                if self.lease {
                    ctx.release(lockw).await;
                }
                // Our own record was pending, so the batch served it.
                let resp = ctx.read(rec.offset(REC_RESP)).await;
                ctx.write(rec.offset(REC_REQ), 0).await;
                return resp;
            }
            ctx.work(SPIN_WORK);
        }
    }

    /// Combiner duty for socket `s` (the caller holds its lock):
    /// collect the socket's pending publications, append them with one
    /// tail reservation, replay the log into the replica through the
    /// end of the batch, and serve the batch's responses. Returns the
    /// batch size.
    async fn combine(&self, ctx: &mut ThreadCtx, s: usize) -> u64 {
        let lo = s * self.tps;
        let hi = ((s + 1) * self.tps).min(self.recs.len());
        let mut batch: Vec<(Addr, u64, u64)> = Vec::new();
        for &r in &self.recs[lo..hi] {
            if self.lease {
                ctx.lease_max(r).await;
            }
            if ctx.read(r.offset(REC_REQ)).await == 1 {
                let o = ctx.read(r.offset(REC_OP)).await;
                let a = ctx.read(r.offset(REC_ARG)).await;
                batch.push((r, o, a));
            }
            if self.lease {
                ctx.release(r).await;
            }
        }
        // The caller's own record was pending, so the batch is never
        // empty.
        let k = batch.len() as u64;
        if self.lease {
            ctx.lease_max(self.tail).await;
        }
        let start = ctx.faa(self.tail, k).await;
        assert!(
            start + k <= self.log_cap,
            "replicated log exhausted ({start}+{k} > {})",
            self.log_cap
        );
        for (i, &(_, o, a)) in batch.iter().enumerate() {
            let e = self.entry(start + i as u64);
            ctx.write(e.offset(LOG_OP), o).await;
            ctx.write(e.offset(LOG_ARG), a).await;
            ctx.write(e.offset(LOG_READY), 1).await;
        }
        if self.lease {
            ctx.release(self.tail).await;
        }
        // Replay the log into the local replica up to the end of our
        // batch; positions inside the batch yield our responses.
        let mut t = ctx.read(self.applied[s]).await;
        while t < start + k {
            let e = self.entry(t);
            while ctx.read(e.offset(LOG_READY)).await == 0 {
                ctx.work(SPIN_WORK);
            }
            let o = ctx.read(e.offset(LOG_OP)).await;
            let a = ctx.read(e.offset(LOG_ARG)).await;
            let resp = self.replicas[s].apply(ctx, o, a).await;
            if t >= start {
                let (r, ..) = batch[(t - start) as usize];
                ctx.write(r.offset(REC_RESP), resp).await;
                ctx.write(r.offset(REC_REQ), 2).await;
            }
            t += 1;
        }
        ctx.write(self.applied[s], t).await;
        k
    }
}

// ---------------------------------------------------------------------
// Replicated counter
// ---------------------------------------------------------------------

/// One socket's counter replica: a single arena-local cell; `arg` is
/// the (wrapping) FAA delta, the response the pre-add value.
#[derive(Debug, Clone, Copy)]
pub struct CounterReplica {
    cell: Addr,
}

impl CsApply for CounterReplica {
    async fn apply(&self, ctx: &mut ThreadCtx, _op: u64, arg: u64) -> u64 {
        ctx.faa(self.cell, arg).await
    }
}

/// The replicated shared counter (Figure 3's counter under node
/// replication): one cell per socket, all adds through the shared log.
#[derive(Debug, Clone)]
pub struct ReplicatedCounter {
    repl: Replicated<CounterReplica>,
}

impl ReplicatedCounter {
    pub fn init(
        mem: &mut SimMemory,
        sockets: usize,
        tiles_per_socket: usize,
        max_threads: usize,
        log_cap: u64,
        lease: bool,
    ) -> Self {
        ReplicatedCounter {
            repl: Replicated::init(
                mem,
                sockets,
                tiles_per_socket,
                max_threads,
                log_cap,
                lease,
                |mem, s| CounterReplica {
                    cell: mem.alloc_in_socket(8, 64, s),
                },
            ),
        }
    }

    pub fn handle(&self, tid: usize) -> ReplHandle {
        self.repl.handle(tid)
    }

    /// Add `delta` through the log, returning the pre-add value on this
    /// socket's replica (the linearized pre-add value: every replica
    /// applies the same log prefix).
    pub async fn add(&self, ctx: &mut ThreadCtx, h: &mut ReplHandle, delta: u64) -> u64 {
        self.repl.run(ctx, h, 0, delta).await
    }

    /// Host-side linearized final value: the wrapping fold of every
    /// appended delta. Also checks each replica against its applied log
    /// prefix — a replica may lag (its socket went idle), but it must
    /// equal the fold of exactly the prefix it applied.
    pub fn final_value(&self, mem: &SimMemory) -> u64 {
        let n = self.repl.log_len(mem);
        let mut prefix = Vec::with_capacity(n as usize + 1);
        prefix.push(0u64);
        let mut acc = 0u64;
        for i in 0..n {
            let (_, delta) = self.repl.log_entry(mem, i);
            acc = acc.wrapping_add(delta);
            prefix.push(acc);
        }
        for (s, rep) in self.repl.replicas().iter().enumerate() {
            let applied = self.repl.applied_len(mem, s);
            assert!(applied <= n, "socket {s} applied past the log tail");
            assert_eq!(
                mem.read_word(rep.cell),
                prefix[applied as usize],
                "socket {s} replica diverged from its applied log prefix"
            );
        }
        acc
    }
}

// ---------------------------------------------------------------------
// Replicated key-value map
// ---------------------------------------------------------------------

/// KV op codes (low 8 bits of the op word; the key is `op >> 8`).
pub const KV_GET: u64 = 0;
pub const KV_PUT: u64 = 1;
/// Wrapping add to the key's value (insert `arg` when absent) — the
/// read-modify-write op the serving benchmark contends on.
pub const KV_ADD: u64 = 2;

/// `get` response when the key is absent.
pub const KV_MISS: u64 = u64::MAX;

/// One socket's KV replica: an arena-local open-addressing table of
/// 16-byte `[key, value]` slots (Fibonacci hash, linear probing; key 0
/// marks an empty slot, so caller keys must be ≥ 1).
#[derive(Debug, Clone, Copy)]
pub struct KvReplica {
    slots: Addr,
    cap: u64,
}

impl KvReplica {
    #[inline]
    fn index(&self, key: u64) -> u64 {
        let h = key.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        (h >> 32) & (self.cap - 1)
    }

    /// Host-side seed (used at setup, before any simulated traffic):
    /// insert or update `key` without charging simulated cycles.
    fn seed_host(&self, mem: &mut SimMemory, key: u64, value: u64) {
        assert!(key != 0, "key 0 marks empty slots");
        let mut i = self.index(key);
        loop {
            let slot = self.slots.offset(i * 16);
            let k = mem.read_word(slot);
            if k == key || k == 0 {
                mem.write_word(slot, key);
                mem.write_word(slot.offset(8), value);
                return;
            }
            i = (i + 1) & (self.cap - 1);
        }
    }

    /// Host-side lookup (post-run checks).
    fn get_host(&self, mem: &SimMemory, key: u64) -> Option<u64> {
        let mut i = self.index(key);
        loop {
            let slot = self.slots.offset(i * 16);
            let k = mem.read_word(slot);
            if k == key {
                return Some(mem.read_word(slot.offset(8)));
            }
            if k == 0 {
                return None;
            }
            i = (i + 1) & (self.cap - 1);
        }
    }
}

impl CsApply for KvReplica {
    async fn apply(&self, ctx: &mut ThreadCtx, op: u64, arg: u64) -> u64 {
        let key = op >> 8;
        let code = op & 0xff;
        debug_assert!(key != 0, "key 0 marks empty slots");
        let mut i = self.index(key);
        // Probe sequences are bounded by the seeded load factor; the
        // table never fills (init asserts slack), so a 0 slot is always
        // reached for absent keys.
        loop {
            let slot = self.slots.offset(i * 16);
            let k = ctx.read(slot).await;
            if k == key {
                let old = ctx.read(slot.offset(8)).await;
                match code {
                    KV_PUT => ctx.write(slot.offset(8), arg).await,
                    KV_ADD => ctx.write(slot.offset(8), old.wrapping_add(arg)).await,
                    _ => {}
                }
                return old;
            }
            if k == 0 {
                if code != KV_GET {
                    // First insert of this key: replicas stay identical
                    // because every replica applies the same log order.
                    ctx.write(slot, key).await;
                    ctx.write(slot.offset(8), arg).await;
                }
                return KV_MISS;
            }
            i = (i + 1) & (self.cap - 1);
        }
    }
}

/// The replicated hash map: per-socket open-addressing replicas, all
/// updates through the shared log. `put` returns the previous value
/// ([`KV_MISS`] on first insert), `get` the current one.
#[derive(Debug, Clone)]
pub struct ReplicatedKv {
    repl: Replicated<KvReplica>,
}

impl ReplicatedKv {
    /// `cap` (rounded up to a power of two) slots per replica.
    #[allow(clippy::too_many_arguments)]
    pub fn init(
        mem: &mut SimMemory,
        sockets: usize,
        tiles_per_socket: usize,
        max_threads: usize,
        log_cap: u64,
        lease: bool,
        cap: u64,
    ) -> Self {
        let cap = cap.max(8).next_power_of_two();
        ReplicatedKv {
            repl: Replicated::init(
                mem,
                sockets,
                tiles_per_socket,
                max_threads,
                log_cap,
                lease,
                |mem, s| KvReplica {
                    slots: mem.alloc_in_socket(cap * 16, 64, s),
                    cap,
                },
            ),
        }
    }

    pub fn handle(&self, tid: usize) -> ReplHandle {
        self.repl.handle(tid)
    }

    /// Seed `key -> value` into every replica at setup time (host-side,
    /// no simulated traffic; keeps the serving workload free of
    /// structural insertions). Callers must keep the table under-full —
    /// `init` over-provisions `cap` for that.
    pub fn seed(&self, mem: &mut SimMemory, key: u64, value: u64) {
        for rep in self.repl.replicas() {
            rep.seed_host(mem, key, value);
        }
    }

    /// `get(key)` through the log; [`KV_MISS`] when absent. Linearized
    /// with every mutation (the log orders it), at the cost of a log
    /// append per read.
    pub async fn get(&self, ctx: &mut ThreadCtx, h: &mut ReplHandle, key: u64) -> u64 {
        self.repl.run(ctx, h, (key << 8) | KV_GET, 0).await
    }

    /// Serve `get(key)` from the calling thread's **socket-local
    /// replica** without touching the shared log — the NR read path.
    /// Reads are per-socket sequentially consistent rather than
    /// linearized: a replica may lag the log tail by the batches its
    /// socket has not yet applied. All traffic stays on lines homed in
    /// (and written only from) the reader's socket.
    pub async fn get_local(&self, ctx: &mut ThreadCtx, h: &ReplHandle, key: u64) -> u64 {
        let s = h.tid / self.repl.tps;
        self.repl.replicas[s]
            .apply(ctx, (key << 8) | KV_GET, 0)
            .await
    }

    /// `put(key, value)` through the log; returns the previous value.
    pub async fn put(&self, ctx: &mut ThreadCtx, h: &mut ReplHandle, key: u64, value: u64) -> u64 {
        self.repl.run(ctx, h, (key << 8) | KV_PUT, value).await
    }

    /// Wrapping `add(key, delta)` through the log; returns the previous
    /// value ([`KV_MISS`] on first touch, which inserts `delta`).
    pub async fn add(&self, ctx: &mut ThreadCtx, h: &mut ReplHandle, key: u64, delta: u64) -> u64 {
        self.repl.run(ctx, h, (key << 8) | KV_ADD, delta).await
    }

    /// Host-side lookup on socket `s`'s replica (post-run checks).
    pub fn get_on_replica(&self, mem: &SimMemory, s: usize, key: u64) -> Option<u64> {
        self.repl.replicas()[s].get_host(mem, key)
    }

    /// Host-side value of `key` after replaying the first `upto` log
    /// entries over the seeded value (pass
    /// [`ReplicatedKv::applied_len`] of a socket to predict that
    /// replica's state, or [`ReplicatedKv::log_len`] for the linearized
    /// final value).
    pub fn replay_value(
        &self,
        mem: &SimMemory,
        key: u64,
        seeded: Option<u64>,
        upto: u64,
    ) -> Option<u64> {
        let mut val = seeded;
        for i in 0..upto {
            let (op, arg) = self.repl.log_entry(mem, i);
            if op >> 8 == key {
                match op & 0xff {
                    KV_PUT => val = Some(arg),
                    KV_ADD => val = Some(val.map_or(arg, |v| v.wrapping_add(arg))),
                    _ => {}
                }
            }
        }
        val
    }

    /// Host-side op ledger over the whole log: `(mutations, gets)`
    /// where mutations are puts and adds.
    pub fn op_counts(&self, mem: &SimMemory) -> (u64, u64) {
        let n = self.repl.log_len(mem);
        let (mut muts, mut gets) = (0u64, 0u64);
        for i in 0..n {
            let (op, _) = self.repl.log_entry(mem, i);
            if op & 0xff == KV_GET {
                gets += 1;
            } else {
                muts += 1;
            }
        }
        (muts, gets)
    }

    /// Total operations appended to the log (ledger checks).
    pub fn log_len(&self, mem: &SimMemory) -> u64 {
        self.repl.log_len(mem)
    }

    /// Socket `s`'s applied log prefix length.
    pub fn applied_len(&self, mem: &SimMemory, s: usize) -> u64 {
        self.repl.applied_len(mem, s)
    }

    /// Number of replicas (= sockets).
    pub fn sockets(&self) -> usize {
        self.repl.replicas().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lr_machine::{program, Machine, SystemConfig, ThreadCtx, ThreadFn};

    fn numa_cfg(cores: usize, sockets: usize) -> SystemConfig {
        let mut cfg = SystemConfig::with_cores(cores);
        cfg.sockets = sockets;
        cfg
    }

    #[test]
    fn replicated_counter_sums_across_sockets() {
        let (threads, per) = (8usize, 12u64);
        for sockets in [1usize, 2, 4] {
            for lease in [false, true] {
                let mut m = Machine::new(numa_cfg(threads, sockets));
                let tps = threads / sockets;
                let c = m.setup(|mem| {
                    ReplicatedCounter::init(mem, sockets, tps, threads, threads as u64 * per, lease)
                });
                let progs: Vec<ThreadFn> = (0..threads)
                    .map(|tid| {
                        let c = c.clone();
                        program(async move |ctx: &mut ThreadCtx| {
                            let mut h = c.handle(tid);
                            for _ in 0..per {
                                c.add(ctx, &mut h, 3).await;
                            }
                        })
                    })
                    .collect();
                let (stats, mem) = m.run_with_memory(progs);
                assert_eq!(
                    c.final_value(&mem),
                    threads as u64 * per * 3,
                    "sockets={sockets} lease={lease}: lost adds"
                );
                if sockets > 1 {
                    assert!(
                        stats.cross_socket_msgs > 0,
                        "multi-socket run must cross the link"
                    );
                } else {
                    assert_eq!(stats.cross_socket_msgs, 0);
                }
            }
        }
    }

    #[test]
    fn replicated_kv_linearizes_gets_and_puts() {
        let (threads, sockets, per) = (4usize, 2usize, 10u64);
        let mut m = Machine::new(numa_cfg(threads, sockets));
        let kv = m.setup(|mem| {
            let kv = ReplicatedKv::init(mem, sockets, threads / sockets, threads, 256, false, 64);
            for k in 1..=8u64 {
                kv.seed(mem, k, 100 + k);
            }
            kv
        });
        let progs: Vec<ThreadFn> = (0..threads)
            .map(|tid| {
                let kv = kv.clone();
                program(async move |ctx: &mut ThreadCtx| {
                    let mut h = kv.handle(tid);
                    for i in 0..per {
                        let key = 1 + (i + tid as u64) % 8;
                        if i % 2 == 0 {
                            let old = kv.get(ctx, &mut h, key).await;
                            assert_ne!(old, KV_MISS, "seeded key can never miss");
                        } else {
                            kv.put(ctx, &mut h, key, tid as u64 * 1000 + i).await;
                        }
                    }
                })
            })
            .collect();
        let (_, mem) = m.run_with_memory(progs);
        // Each replica must equal a replay of exactly the log prefix it
        // applied (a socket that went idle may lag the tail), and the
        // ledger must balance: every issued op is in the log.
        for s in 0..kv.sockets() {
            let upto = kv.applied_len(&mem, s);
            for k in 1..=8u64 {
                assert_eq!(
                    kv.get_on_replica(&mem, s, k),
                    kv.replay_value(&mem, k, Some(100 + k), upto),
                    "socket {s} key {k} diverged from its applied prefix"
                );
            }
        }
        let (puts, gets) = kv.op_counts(&mem);
        assert_eq!(puts + gets, threads as u64 * per, "op ledger unbalanced");
        assert_eq!(kv.log_len(&mem), threads as u64 * per);
    }
}
