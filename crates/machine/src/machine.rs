//! The engine loop: ties the coherence protocol, lease tables, simulated
//! memory, and the workloads' op sources together.
//!
//! ## Event routing
//!
//! Every simulated instruction becomes an `OpStart` event at the
//! core's local issue time and an `OpComplete` event at its
//! protocol-determined completion time. Every event names the tile it
//! executes at ([`Ev::tile`]), and applying it touches only that tile's
//! slice of machine state — its pending-op slot, its lease table, its
//! partition's scratch buffers — mirroring the message-passing handler
//! discipline of `lr-coherence`. The one piece of genuinely global
//! machine state, the heap allocator, is reached by message too:
//! `Malloc`/`Free` are routed to a fixed *allocator home* tile
//! ([`ALLOC_HOME`]) and the result rides back as [`Ev::MemReply`].
//!
//! ## Commit modes
//!
//! [`CommitMode::Lockstep`] applies events strictly in global
//! `(time, key)` order, one at a time. [`CommitMode::Relaxed`] drives
//! the safe-window API of [`ShardedQueue`]: each partition commits its
//! whole window batch in turn, in a different order than global time,
//! and the tile-local discipline above guarantees the simulated results
//! are byte-identical anyway.
//! The shard A/B tests and the CI lockstep-vs-relaxed gate hold us to
//! that, byte for byte.

use crate::live::{LiveSource, ThreadFn};
use crate::proto::{Op, Reply, Request, ALLOC_COST};
use lr_coherence::{AccessKind, CohContext, CohEvent, CoherenceEngine, ProbeAction};
use lr_lease::{ArmedCounter, BeginLease, LeaseTable, MultiLeaseBegin};
use lr_sim_core::trace::{TraceEvent, TraceRing, TraceSink};
use lr_sim_core::tracefmt::{self, MachineTrace};
use lr_sim_core::{
    CoreId, Cycle, EventQueueKind, LineAddr, MachineStats, ShardedQueue, SystemConfig,
};
use lr_sim_mem::SimMemory;
use std::panic::AssertUnwindSafe;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

static SHARDS_FROM_ENV: OnceLock<usize> = OnceLock::new();

fn parse_shards_env() -> usize {
    match std::env::var("LR_ENGINE_SHARDS") {
        Err(_) => 1,
        Ok(v) => match v.parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => panic!("LR_ENGINE_SHARDS={v:?} is not a positive shard count"),
        },
    }
}

/// The process-wide default engine-partition count, from
/// `LR_ENGINE_SHARDS` (default 1 = the classic single event loop).
/// Parsed once; a bad value aborts rather than silently running the
/// wrong engine. Each machine clamps the count to its simulated core
/// count — partitions are slices of tiles, so there can never be more
/// partitions than tiles.
///
/// The value is cached process-wide on first read: setting
/// `LR_ENGINE_SHARDS` from *inside* the process afterwards (e.g.
/// `std::env::set_var` in a test) can never take effect. Debug builds
/// assert the environment still matches the cache on every read so such
/// a stale configuration fails loudly instead of silently running the
/// wrong partition count — tests that need a specific count should use
/// [`Machine::with_engine_shards`] instead of mutating the environment.
pub fn engine_shards_from_env() -> usize {
    let cached = *SHARDS_FROM_ENV.get_or_init(parse_shards_env);
    debug_assert_eq!(
        cached,
        parse_shards_env(),
        "LR_ENGINE_SHARDS changed after its first read was cached; \
         per-machine control belongs to Machine::with_engine_shards"
    );
    cached
}

/// How a partitioned engine commits each safe window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommitMode {
    /// One event at a time, in global `(time, key)` order: the
    /// sequential loop. The A/B reference for relaxed commit.
    Lockstep,
    /// Whole safe-window batches per partition, one partition after
    /// another. Simulated results are identical to lockstep by
    /// construction.
    Relaxed,
}

impl std::fmt::Display for CommitMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommitMode::Lockstep => f.write_str("lockstep"),
            CommitMode::Relaxed => f.write_str("relaxed"),
        }
    }
}

static COMMIT_FROM_ENV: OnceLock<CommitMode> = OnceLock::new();

fn parse_commit_env() -> CommitMode {
    match std::env::var("LR_ENGINE_COMMIT") {
        Err(_) => CommitMode::Relaxed,
        Ok(v) => match v.as_str() {
            "lockstep" => CommitMode::Lockstep,
            "relaxed" => CommitMode::Relaxed,
            _ => panic!("LR_ENGINE_COMMIT={v:?} is not \"lockstep\" or \"relaxed\""),
        },
    }
}

/// The process-wide default commit mode, from `LR_ENGINE_COMMIT`
/// (`lockstep` | `relaxed`; default relaxed — the modes only differ in
/// host execution shape, never in simulated results).
///
/// Cached process-wide on first read, like [`engine_shards_from_env`]:
/// debug builds assert the environment still matches the cache on every
/// subsequent read, so an in-process `set_var` misfires loudly. Tests
/// should pin the mode per machine via [`Machine::with_commit_mode`].
pub fn engine_commit_from_env() -> CommitMode {
    let cached = *COMMIT_FROM_ENV.get_or_init(parse_commit_env);
    debug_assert_eq!(
        cached,
        parse_commit_env(),
        "LR_ENGINE_COMMIT changed after its first read was cached; \
         per-machine control belongs to Machine::with_commit_mode"
    );
    cached
}

/// The tile that owns the simulated heap allocator. `Malloc`/`Free`
/// mutate one global free list, so they execute as messages delivered
/// here — the only machine-layer state reached by routing rather than
/// by the issuing event's own tile.
const ALLOC_HOME: usize = 0;

/// A single-threaded supplier of requests: live workloads (the machine's
/// own coroutine source) or an engine-only replay.
///
/// `next(tid)` is called whenever core `tid` is ready to issue its next
/// instruction; `observe(tid, reply)` is called with the reply to that
/// instruction, immediately before the next `next(tid)`. Returning `Err`
/// from either aborts the run with a structured failure report — this is
/// how `lr-replay` surfaces divergence between a recorded trace and the
/// engine's behaviour.
///
/// Calls for different `tid`s arrive in executor-dependent order (the
/// relaxed executor drains per-partition window batches, not global time
/// order), but each core's own `next`/`observe` alternation is always in
/// that core's program order — sources must key their state by `tid`,
/// never by global call order.
pub trait OpSource {
    /// The next request core `tid` issues (or its `Op::Exit`).
    fn next(&mut self, tid: usize) -> Result<Request, String>;
    /// The engine's reply to core `tid`'s in-flight request.
    fn observe(&mut self, tid: usize, reply: Reply) -> Result<(), String>;
}

/// Why a [`Machine::run_source`] run stopped early.
#[derive(Debug)]
pub struct SourceAbort {
    /// One-line failure reason (divergence detail, deadlock, watchdog…).
    pub reason: String,
    /// Full rendered failure report: reason, protocol-trace window,
    /// in-flight protocol state, lease tables, pending ops.
    pub report: String,
}

/// Result of [`Machine::run_recorded`]: the usual run outputs plus the
/// captured trace, ready for [`tracefmt::encode`].
pub struct RecordedRun {
    pub stats: MachineStats,
    pub mem: SimMemory,
    /// Discrete events the engine processed.
    pub events: u64,
    pub trace: MachineTrace,
}

/// Where a live run dumps its captured trace: a directory plus a
/// caller-chosen label naming the run (e.g. `fig3_counter.lr.t8` for one
/// sweep cell). The label keeps filenames meaningful and collision-free
/// across concurrent sweep workers writing into one directory.
#[derive(Debug, Clone)]
pub struct TraceOutput {
    pub dir: PathBuf,
    pub label: String,
}

/// Keep labels filesystem-safe: anything outside `[A-Za-z0-9._-]`
/// becomes `-`, and an empty label falls back to `trace`.
fn sanitize_label(label: &str) -> String {
    let s: String = label
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-') {
                c
            } else {
                '-'
            }
        })
        .collect();
    if s.is_empty() {
        "trace".to_string()
    } else {
        s
    }
}

/// Create the first free `{label}_{fingerprint}[-k].lrt` name in `dir`,
/// atomically (`create_new`): two runs racing on the same label each get
/// their own file, never a silent overwrite.
fn create_trace_file(
    dir: &Path,
    label: &str,
    trace: &MachineTrace,
) -> std::io::Result<(std::fs::File, PathBuf)> {
    std::fs::create_dir_all(dir)?;
    let stem = format!(
        "{}_{:016x}",
        sanitize_label(label),
        tracefmt::config_fingerprint(&trace.config)
    );
    for k in 1u64.. {
        let name = if k == 1 {
            format!("{stem}.{}", tracefmt::TRACE_EXT)
        } else {
            format!("{stem}-{k}.{}", tracefmt::TRACE_EXT)
        };
        let path = dir.join(name);
        match std::fs::OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(&path)
        {
            Ok(f) => return Ok((f, path)),
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => continue,
            Err(e) => return Err(e),
        }
    }
    unreachable!("u64 sequence space exhausted")
}

/// Best-effort trace write for [`Machine::with_trace_output`]: IO failure
/// warns on stderr rather than failing an otherwise-successful simulation.
fn write_trace_file(out: &TraceOutput, trace: &MachineTrace) {
    use std::io::Write;
    let bytes = tracefmt::encode(trace);
    let res = create_trace_file(&out.dir, &out.label, trace)
        .and_then(|(mut f, path)| f.write_all(&bytes).map(|()| path));
    if let Err(e) = res {
        eprintln!(
            "lr-machine: cannot write trace {:?} into {}: {e}",
            out.label,
            out.dir.display()
        );
    }
}

/// Host-level observability for one run: how the execution engine (not
/// the simulated machine) behaved. Kept out of [`MachineStats`] so the
/// published simulated metrics stay exactly the paper's — and so the
/// simulated results provably cannot depend on the executor shape.
#[derive(Debug, Clone, Copy)]
pub struct EngineInfo {
    /// Discrete events the engine processed.
    pub events: u64,
    /// Partition count the run actually used (after clamping).
    pub shards: usize,
    /// Events delivered across a partition boundary (mailbox traffic).
    pub cross_events: u64,
    /// Events whose timestamp preceded every other partition's safe
    /// horizon (head + lookahead): the events a conservative PDES
    /// executor may commit concurrently without risking causality.
    /// Maintained on the `pop_global` (lockstep) path.
    pub concurrent_events: u64,
    /// Safe-time epochs the partitioned clocks advanced through
    /// (`pop_global` path).
    pub epochs: u64,
    /// Conservative lookahead (cycles) stamped on cross-partition sends.
    pub lookahead: Cycle,
    /// Non-empty per-partition window batches the relaxed executor
    /// committed (0 under lockstep driving).
    pub commit_batches: u64,
    /// Largest single per-partition window batch committed.
    pub max_batch: u64,
    /// Heap ops (`Malloc`/`Free`) routed as messages to the allocator
    /// home tile — each one a NoC round trip charged to the issuing
    /// thread. Steady-state scenarios built on pre-allocated pools
    /// (the delegation locks) assert this stays 0, so the home-tile
    /// hotspot can never distort a lock comparison.
    pub alloc_msgs: u64,
}

/// Executor observability counters, read off the event store after a
/// run. The engine always uses [`ShardedQueue`] (shards = 1 is a single
/// partition — the classic engine with a mailbox layer that never
/// fires), so every run reports the same counter set.
fn queue_info(q: &ShardedQueue<Ev>) -> EngineInfo {
    EngineInfo {
        events: q.processed(),
        shards: q.map().partitions(),
        cross_events: q.cross_events(),
        concurrent_events: q.concurrent_events(),
        epochs: q.epochs(),
        lookahead: q.lookahead(),
        commit_batches: q.commit_batches(),
        max_batch: q.max_batch(),
        // Counted per partition while applying `Ev::MemReq`; summed in
        // by the run loop, which owns the partition contexts.
        alloc_msgs: 0,
    }
}

/// Engine events. Every variant executes at exactly one tile
/// ([`Ev::tile`]), and applying it touches only state owned by that
/// tile — the property that makes relaxed window commit sound.
#[derive(Debug)]
enum Ev {
    /// Fetch the core's first request.
    Start(usize),
    /// A core's instruction reaches its issue time.
    OpStart(usize),
    /// A core's instruction completes (data moves now).
    OpComplete(usize),
    /// Coherence-protocol event, delivered at the named tile.
    Coh(u16, CohEvent),
    /// A lease counter reached zero (Algorithm 1 `ZERO-COUNTER`).
    Expiry {
        core: CoreId,
        line: LineAddr,
        generation: u64,
    },
    /// A heap request reached the allocator home tile.
    MemReq { tid: usize, op: Op },
    /// The allocator's reply reached the requesting core.
    MemReply { tid: usize, value: u64 },
}

impl Ev {
    /// The tile this event executes at (selects the owning partition).
    fn tile(&self) -> usize {
        match self {
            Ev::Start(tid) | Ev::OpStart(tid) | Ev::OpComplete(tid) => *tid,
            Ev::Coh(dest, _) => *dest as usize,
            Ev::Expiry { core, .. } => core.idx(),
            Ev::MemReq { .. } => ALLOC_HOME,
            Ev::MemReply { tid, .. } => *tid,
        }
    }
}

/// Per-core lease statistics collected by the machine layer.
#[derive(Debug, Default, Clone)]
struct LeaseCounters {
    taken: u64,
    voluntary: u64,
    involuntary: u64,
    overflow: u64,
    broken: u64,
    multileases: u64,
}

/// In-flight instruction state per core.
#[derive(Debug)]
enum Pending {
    /// Received from the core's source, waiting for its issue time.
    Incoming(Op),
    /// A data access in the protocol; data moves at completion.
    Data { op: Op, issued: Cycle },
    /// A single-lease acquisition in the protocol.
    LeaseAcq { issued: Cycle },
    /// A MultiLease group acquisition: lines acquired one at a time in
    /// global order (Algorithm 2).
    Multi {
        lines: Vec<LineAddr>,
        idx: usize,
        issued: Cycle,
    },
    /// A heap request in flight to/from the allocator home tile.
    Alloc { issued: Cycle },
    /// Immediate completion with a precomputed result.
    Imm {
        value: u64,
        flag: bool,
        issued: Cycle,
    },
}

/// Reusable machine-loop buffers, one set per partition.
/// Deferred-effect staging ping-pongs between here and [`PartCtx`] (see
/// [`EngineCore::drain`]) so the steady-state loop performs no per-event
/// heap allocation.
#[derive(Default)]
struct Scratch {
    pins: Vec<(CoreId, LineAddr)>,
    rels: Vec<(CoreId, LineAddr)>,
    completions: Vec<(u64, Cycle)>,
    /// Release/expiry result lines for the machine-loop paths.
    lines: Vec<LineAddr>,
}

/// Machine state shared across partitions. Every access is keyed by the
/// executing event's tile — queue pushes by source partition, lease
/// tables and counters by core — so window commits touch disjoint
/// slices. The structured trace ring is the exception: it is one
/// window over the whole machine, in commit order.
struct Shared {
    queue: ShardedQueue<Ev>,
    tables: Vec<LeaseTable>,
    lc: Vec<LeaseCounters>,
    prioritization: bool,
    /// Structured trace window (depth 0 = off) fed by both the engine
    /// (through the [`CohContext`] hooks) and the machine loop itself.
    trace: TraceRing,
}

/// Per-partition engine-call context: the base time/tile of the event
/// being applied (every `schedule` is relative to them, and the tile
/// both stamps the canonical push key and names the source partition)
/// plus the deferred-effect and reuse buffers that used to be global —
/// one set per partition, so each partition's window batch has its own.
#[derive(Default)]
struct PartCtx {
    /// Base time of the engine call in progress (schedule() is relative).
    base: Cycle,
    /// Tile of the event being applied (push source / canonical key).
    tile: usize,
    /// Deferred effects, drained after every engine call.
    completions: Vec<(u64, Cycle)>,
    to_pin: Vec<(CoreId, LineAddr)>,
    deferred_release: Vec<(CoreId, LineAddr)>,
    /// Reusable buffer for lease-release results inside the `CohContext`
    /// hooks (the hook signatures are fixed, so the scratch lives here).
    released_scratch: Vec<LineAddr>,
    /// Reusable sorted copy of the engine's pinned-ways set for
    /// [`CohContext::pinned_victim`] membership tests.
    pinned_scratch: Vec<LineAddr>,
    /// Reusable buffer for counters armed by an exclusive grant.
    armed_scratch: Vec<ArmedCounter>,
    /// Events this partition applied — its share of the watchdog event
    /// budget (the exact global count is only read at executor
    /// synchronization points).
    applied: u64,
    /// `Ev::MemReq` events (heap ops routed to the allocator home tile)
    /// this partition applied; summed into [`EngineInfo::alloc_msgs`].
    alloc_msgs: u64,
}

/// The [`CohContext`] the engine sees: the tile-sliced shared state plus
/// the executing partition's context, borrowed disjointly from
/// [`EngineCore`] for the duration of one engine call.
struct Ctx<'a> {
    shared: &'a mut Shared,
    ps: &'a mut PartCtx,
}

impl CohContext for Ctx<'_> {
    fn schedule(&mut self, delay: Cycle, dest: CoreId, ev: CohEvent) {
        self.shared.queue.push(
            self.ps.tile,
            self.ps.base,
            dest.idx(),
            self.ps.base + delay,
            Ev::Coh(dest.0, ev),
        );
    }

    fn tracing(&self) -> bool {
        self.shared.trace.enabled()
    }

    fn trace(&mut self, now: Cycle, ev: TraceEvent) {
        self.shared.trace.record(now, ev);
    }

    fn xact_completed(&mut self, token: u64, now: Cycle) {
        self.ps.completions.push((token, now));
    }

    fn probe_action(
        &mut self,
        owner: CoreId,
        line: LineAddr,
        regular: bool,
        now: Cycle,
    ) -> ProbeAction {
        match self.shared.tables[owner.idx()].state(line, now) {
            lr_lease::LeaseState::NotLeased => ProbeAction::Proceed,
            // The entry exists but ownership has not been (re-)acquired
            // under it: the line is merely stale-owned, so the probe may
            // take it (the group's own request will fetch it back later,
            // in sorted order — this is what keeps MultiLease
            // deadlock-free, Proposition 3).
            lr_lease::LeaseState::Pending => ProbeAction::Proceed,
            lr_lease::LeaseState::Active => {
                if regular && self.shared.prioritization {
                    // §5 prioritization: a regular request breaks the lease.
                    let found = self.shared.tables[owner.idx()]
                        .release_into(line, &mut self.ps.released_scratch);
                    assert!(found, "Active lease vanished under release");
                    self.shared.lc[owner.idx()].broken += self.ps.released_scratch.len() as u64;
                    for &l in &self.ps.released_scratch {
                        if l != line {
                            self.ps.deferred_release.push((owner, l));
                        }
                    }
                    ProbeAction::ProceedBreakingLease
                } else {
                    ProbeAction::Queue
                }
            }
            // Expired but the expiry event has not fired yet (tie at the
            // same cycle): finish the involuntary release in place.
            lr_lease::LeaseState::Expired => {
                let found = self.shared.tables[owner.idx()]
                    .release_into(line, &mut self.ps.released_scratch);
                assert!(found, "Expired lease vanished under release");
                self.shared.lc[owner.idx()].involuntary += self.ps.released_scratch.len() as u64;
                for &l in &self.ps.released_scratch {
                    if l != line {
                        self.ps.deferred_release.push((owner, l));
                    }
                }
                ProbeAction::ProceedBreakingLease
            }
        }
    }

    fn exclusive_granted(&mut self, core: CoreId, line: LineAddr, now: Cycle) {
        self.shared.tables[core.idx()].on_exclusive_granted_into(
            line,
            now,
            &mut self.ps.armed_scratch,
        );
        if self.shared.tables[core.idx()].is_leased(line, now) {
            self.ps.to_pin.push((core, line));
        }
        for a in &self.ps.armed_scratch {
            // Expiries fire at the leasing core's own tile. Grants are
            // delivered at that same tile, so this is a same-tile push.
            self.shared.queue.push(
                self.ps.tile,
                self.ps.base,
                core.idx(),
                a.expires,
                Ev::Expiry {
                    core,
                    line: a.line,
                    generation: a.generation,
                },
            );
        }
    }

    fn pinned_victim(
        &mut self,
        core: CoreId,
        pinned: &[LineAddr],
        _now: Cycle,
    ) -> Option<LineAddr> {
        // Oldest lease first (FIFO), matching Algorithm 1's replacement.
        // Membership is a binary search against a sorted copy of the
        // pinned set (O(leases·log pinned)) instead of a linear
        // `contains` per lease line.
        self.ps.pinned_scratch.clear();
        self.ps.pinned_scratch.extend_from_slice(pinned);
        self.ps.pinned_scratch.sort_unstable();
        if let Some(l) = self.shared.tables[core.idx()].oldest_member(&self.ps.pinned_scratch) {
            self.shared.lc[core.idx()].overflow += 1;
            if self.shared.tables[core.idx()].release_into(l, &mut self.ps.released_scratch) {
                for &m in &self.ps.released_scratch {
                    if m != l {
                        self.ps.deferred_release.push((core, m));
                    }
                }
            }
            return Some(l);
        }
        // Stale pin (lease already gone): let the engine unpin it.
        pinned.first().copied()
    }

    fn line_invalidated(&mut self, core: CoreId, line: LineAddr, _now: Cycle) {
        if self.shared.tables[core.idx()].release_into(line, &mut self.ps.released_scratch) {
            self.shared.lc[core.idx()].involuntary += self.ps.released_scratch.len() as u64;
            for &m in &self.ps.released_scratch {
                if m != line {
                    self.ps.deferred_release.push((core, m));
                }
            }
        }
    }
}

/// The simulated machine: configure, set up shared simulated memory, then
/// run a set of workload threads to completion.
///
/// ```
/// use lr_machine::{program, Machine, SystemConfig, ThreadCtx, ThreadFn};
///
/// let mut machine = Machine::new(SystemConfig::with_cores(2));
/// let cell = machine.setup(|mem| mem.alloc_line_aligned(8));
/// let progs: Vec<ThreadFn> = (0..2)
///     .map(|_| {
///         program(async move |ctx: &mut ThreadCtx| {
///             // Lease the line for the read–CAS window (paper Fig. 1).
///             loop {
///                 ctx.lease_max(cell).await;
///                 let v = ctx.read(cell).await;
///                 let ok = ctx.cas(cell, v, v + 1).await;
///                 ctx.release(cell).await;
///                 if ok { break; }
///             }
///             ctx.count_op();
///         })
///     })
///     .collect();
/// let (stats, mem) = machine.run_with_memory(progs);
/// assert_eq!(mem.read_word(cell), 2);
/// assert_eq!(stats.app_ops, 2);
/// assert_eq!(stats.core_totals().cas_failures, 0);
/// ```
pub struct Machine {
    cfg: SystemConfig,
    mem: SimMemory,
    trace_depth: usize,
    /// Explicit event-queue store override; `None` follows the
    /// process-wide `LR_EVENTQ` default.
    eventq: Option<EventQueueKind>,
    /// Explicit engine-partition override; `None` follows the
    /// process-wide `LR_ENGINE_SHARDS` default.
    engine_shards: Option<usize>,
    /// Explicit commit-mode override; `None` follows the process-wide
    /// `LR_ENGINE_COMMIT` default.
    commit: Option<CommitMode>,
    /// When set, a live run records itself and writes the trace here.
    trace_out: Option<TraceOutput>,
    /// Skip the distance-aware per-partition-pair lookahead matrix and
    /// run the uniform scalar window (the pre-refinement behaviour).
    uniform_lookahead: bool,
}

// The `lr-bench` sweep driver constructs and runs one `Machine` per
// grid cell from parallel host threads. Machines (and the workload
// closures they accept) must therefore stay Send; this fails
// compilation if a non-Send field (Rc, raw-pointer cache, ...) is ever
// introduced.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Machine>();
    assert_send::<ThreadFn>();
};

impl Machine {
    /// The largest simulated core count a machine supports (the width
    /// of the directory's sharer set).
    pub const MAX_CORES: usize = lr_coherence::CoreSet::CAPACITY;

    /// A machine with the given configuration and an empty heap.
    pub fn new(cfg: SystemConfig) -> Self {
        assert!(cfg.num_cores >= 1 && cfg.num_cores <= Self::MAX_CORES);
        Machine {
            cfg,
            mem: SimMemory::new(),
            trace_depth: 0,
            eventq: None,
            engine_shards: None,
            commit: None,
            trace_out: None,
            uniform_lookahead: false,
        }
    }

    /// Pin this machine to a specific event-queue store, bypassing the
    /// `LR_EVENTQ` process default. Simulated results are required to be
    /// byte-identical across stores; this exists for the tests that
    /// prove it (heap/wheel A/B) — production callers keep the default.
    pub fn with_event_queue(mut self, kind: EventQueueKind) -> Self {
        self.eventq = Some(kind);
        self
    }

    /// Partition the engine into `n` conservatively-synchronized PDES
    /// partitions (tile slices), bypassing the `LR_ENGINE_SHARDS`
    /// process default. `n` is clamped to `[1, num_cores]`; 1 is the
    /// classic single event loop. Simulated results are required to be
    /// byte-identical for every shard count — the shard A/B tests and
    /// the CI gate prove it; production callers keep the default.
    pub fn with_engine_shards(mut self, n: usize) -> Self {
        self.engine_shards = Some(n.max(1));
        self
    }

    /// Fall back to the uniform scalar lookahead instead of the
    /// distance-aware per-partition-pair matrix. Simulated results are
    /// byte-identical either way (the matrix only widens safe windows,
    /// it never reorders commits); this exists for the occupancy A/B
    /// in the `pdes_scaling` benchmark scenario.
    pub fn with_uniform_lookahead(mut self) -> Self {
        self.uniform_lookahead = true;
        self
    }

    /// Pin this machine to a commit mode, bypassing the
    /// `LR_ENGINE_COMMIT` process default. Simulated results are
    /// required to be byte-identical across modes — the commit A/B
    /// tests and the CI lockstep-vs-relaxed gate prove it.
    pub fn with_commit_mode(mut self, mode: CommitMode) -> Self {
        self.commit = Some(mode);
        self
    }

    /// Keep a ring of the last `depth` structured protocol/machine trace
    /// events ([`lr_sim_core::TraceEvent`]) and include the window in the
    /// failure report emitted on watchdog trips, deadlocks, or invariant
    /// violations (0 = off, the default). Events are plain `Copy` records;
    /// nothing is formatted unless a report is actually printed.
    pub fn with_trace(mut self, depth: usize) -> Self {
        self.trace_depth = depth;
        self
    }

    /// Record this machine's live run and write the captured trace into
    /// `dir` as `{label}_{config-fingerprint}.lrt` (a `-2`, `-3`, …
    /// suffix is appended if the name is taken — creation is atomic, so
    /// concurrent runs sharing a directory never overwrite each other).
    /// The explicit (dir, label) pair replaces the old process-global
    /// `LR_TRACE_DIR` env probe: drivers thread their record directory
    /// through here, and any env knob is resolved once at the entry
    /// point, never per-`Machine`.
    pub fn with_trace_output(mut self, dir: impl Into<PathBuf>, label: impl Into<String>) -> Self {
        self.trace_out = Some(TraceOutput {
            dir: dir.into(),
            label: label.into(),
        });
        self
    }

    /// The machine's configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// Pre-run setup: allocate and initialize shared structures directly
    /// in simulated memory (charges no simulated time).
    pub fn setup<R>(&mut self, f: impl FnOnce(&mut SimMemory) -> R) -> R {
        f(&mut self.mem)
    }

    /// Run `programs` (one per core, at most `num_cores`) to completion
    /// and return the merged statistics.
    ///
    /// Panics if any workload panics, if the watchdog limits are exceeded,
    /// or if protocol invariants are violated at quiescence.
    pub fn run(self, programs: Vec<ThreadFn>) -> MachineStats {
        self.run_with_memory(programs).0
    }

    /// Like [`Machine::run`], additionally returning the final simulated
    /// memory for post-run audits (rank sums, final counter values, ...).
    pub fn run_with_memory(self, programs: Vec<ThreadFn>) -> (MachineStats, SimMemory) {
        let (stats, mem, _events) = self.run_counted(programs);
        (stats, mem)
    }

    /// Like [`Machine::run_with_memory`], additionally returning the
    /// number of discrete events the engine processed — the denominator
    /// for host-throughput measurements (`engine_throughput` scenario).
    /// Kept out of [`MachineStats`] so the published simulated metrics
    /// stay exactly the paper's.
    pub fn run_counted(self, programs: Vec<ThreadFn>) -> (MachineStats, SimMemory, u64) {
        let (stats, mem, info) = self.run_counted_info(programs);
        (stats, mem, info.events)
    }

    /// Like [`Machine::run_counted`], returning the full [`EngineInfo`]
    /// (shard count, cross-partition traffic, concurrency headroom) for
    /// the PDES-scaling measurements instead of the bare event count.
    pub fn run_counted_info(
        self,
        programs: Vec<ThreadFn>,
    ) -> (MachineStats, SimMemory, EngineInfo) {
        let (stats, mem, info, _) = self.run_live(programs, false);
        (stats, mem, info)
    }

    /// Like [`Machine::run_counted`], additionally capturing every
    /// core's op stream (operands, issue times, and observed replies)
    /// plus a pre-run memory snapshot, as a [`MachineTrace`] ready for
    /// [`tracefmt::encode`] and later engine-only replay.
    pub fn run_recorded(self, programs: Vec<ThreadFn>) -> RecordedRun {
        let (stats, mem, info, trace) = self.run_live(programs, true);
        RecordedRun {
            stats,
            mem,
            events: info.events,
            trace: trace.expect("recording run produces a trace"),
        }
    }

    /// Engine-only run: pull every request from `source` instead of
    /// from live workloads. `threads` is the simulated core count to
    /// drive (must match the recording for faithful replay). Failures —
    /// including `source` reporting divergence — return a structured
    /// [`SourceAbort`] instead of panicking.
    pub fn run_source(
        self,
        threads: usize,
        source: &mut dyn OpSource,
    ) -> Result<(MachineStats, SimMemory, u64), Box<SourceAbort>> {
        let (stats, mem, info) = self.run_inner(threads, source)?;
        Ok((stats, mem, info.events))
    }

    /// Run `programs` as in-thread coroutines through a [`LiveSource`],
    /// recording when asked to (or when a trace output is configured).
    /// Any failure panics with the structured report.
    #[allow(clippy::type_complexity)]
    fn run_live(
        mut self,
        programs: Vec<ThreadFn>,
        record: bool,
    ) -> (MachineStats, SimMemory, EngineInfo, Option<MachineTrace>) {
        let trace_out = self.trace_out.take();
        // The replayer restores this exact image before re-driving ops,
        // so it must be taken before any simulated execution.
        let pre_image = (record || trace_out.is_some()).then(|| self.mem.snapshot());
        let cfg = self.cfg.clone();
        let n = programs.len();
        let mut source = LiveSource::new(programs, &cfg, pre_image.is_some());
        let (stats, mem, info) = self
            .run_inner(n, &mut source)
            .unwrap_or_else(|abort| panic!("{}", abort.report));
        let trace = pre_image.map(|image| {
            let trace = MachineTrace {
                config: cfg,
                mem: image,
                cores: source.take_records(),
                stats_json: stats.to_json(),
                live_events: info.events,
            };
            if let Some(out) = &trace_out {
                write_trace_file(out, &trace);
            }
            trace
        });
        (stats, mem, info, trace)
    }

    fn run_inner(
        self,
        n: usize,
        source: &mut dyn OpSource,
    ) -> Result<(MachineStats, SimMemory, EngineInfo), Box<SourceAbort>> {
        let cfg = self.cfg;
        let shards = self
            .engine_shards
            .unwrap_or_else(engine_shards_from_env)
            .clamp(1, cfg.num_cores);
        let kind = self.eventq.unwrap_or_else(EventQueueKind::from_env);
        let commit = self.commit.unwrap_or_else(engine_commit_from_env);
        assert!(n >= 1, "no workload threads");
        assert!(
            n <= cfg.num_cores,
            "{n} threads exceed {} cores",
            cfg.num_cores
        );

        let engine = CoherenceEngine::new(&cfg);
        let mem = self.mem;
        // Conservative-PDES lookahead: every cross-partition event rides
        // at least one cross-tile NoC message — except a probe that
        // races an eviction, which is served from the requester's own
        // home slice (L2 tag + data + local hop); the min() covers that
        // degenerate path for configs with tiny L2 latencies.
        let lookahead = engine
            .noc_min_lookahead()
            .min(cfg.l2_tag_latency + cfg.l2_data_latency + 1);
        let mut queue = ShardedQueue::with_kind(kind, cfg.num_cores, shards, lookahead);
        // Distance-aware refinement: a pair of partitions exchanges
        // events no faster than the cheapest NoC message between their
        // tile blocks, so mesh-distant (and above all cross-socket)
        // pairs admit proportionally wider safe windows. The same
        // eviction-race cap as the scalar applies per pair, which also
        // keeps every entry ≥ the scalar.
        if queue.map().partitions() > 1 && !self.uniform_lookahead {
            let cap = cfg.l2_tag_latency + cfg.l2_data_latency + 1;
            let m: Vec<Vec<Cycle>> = engine
                .pair_lookahead(&queue.map())
                .into_iter()
                .map(|row| row.into_iter().map(|v| v.min(cap)).collect())
                .collect();
            queue.set_pair_lookahead(m);
        }
        let parts = queue.map().partitions();
        let mut shared = Shared {
            queue,
            tables: (0..cfg.num_cores)
                .map(|_| LeaseTable::new(cfg.lease.clone()))
                .collect(),
            lc: vec![LeaseCounters::default(); cfg.num_cores],
            prioritization: cfg.lease.prioritization,
            trace: TraceRing::new(self.trace_depth),
        };
        // Setup pushes: same-tile sends at t = 0, before any pop — the
        // lookahead discipline never applies to them.
        for tid in 0..n {
            shared.queue.push(tid, 0, tid, 0, Ev::Start(tid));
        }

        let mut core = EngineCore {
            cfg,
            engine,
            shared,
            pctx: (0..parts).map(|_| PartCtx::default()).collect(),
            scratch: (0..parts).map(|_| Scratch::default()).collect(),
            mem,
            source,
            pending: (0..n).map(|_| None).collect(),
            live: n,
            finish_time: 0,
            exit_inst: vec![0u64; n],
            exit_ops: vec![0u64; n],
            panicked: Vec::new(),
        };

        // Any failure inside the event loop — watchdog trip, protocol
        // assertion (panic), divergence or deadlock (Err) — is caught
        // and rendered as one coherent report: the failure reason, the
        // trace window, the in-flight protocol state, and every core's
        // lease table.
        //
        // Executor choice (N = partitions after clamping): relaxed commit
        // with N > 1 runs the windowed schedule, everything else the
        // sequential loop, both on this thread. Both run the same
        // per-event `apply`; the first commits in per-partition window
        // order, the second in global `(time, key)` order — and the
        // tile-local state discipline makes the simulated results
        // byte-identical either way.
        let relaxed = parts > 1 && commit == CommitMode::Relaxed;
        if relaxed {
            // Mid-flight per-line invariant sweeps read other tiles'
            // caches — between window barriers that is spuriously wrong
            // (a grant can commit before an earlier-timed invalidation
            // settles in another partition's batch). Quiescence checks
            // still run in finish_checks.
            core.engine.set_strict_at(false);
        }
        let c = &mut core;
        let loop_result = std::panic::catch_unwind(AssertUnwindSafe(|| -> Result<(), String> {
            if relaxed {
                run_relaxed_serial(c)?;
            } else {
                while let Some((t, p, ev)) = c.shared.queue.pop_global() {
                    c.apply(p, t, ev)?;
                }
            }
            c.finish_checks()
        }))
        .unwrap_or_else(|p| Err(panic_payload_msg(p.as_ref())));
        let reason = match loop_result {
            Err(reason) => Some(reason),
            // Same coherent report as a loop failure: the workload panic
            // is the reason, the protocol state is the context.
            Ok(()) if !core.panicked.is_empty() => Some(format!(
                "workload thread(s) {:?} panicked inside the simulation",
                core.panicked
            )),
            Ok(()) => None,
        };
        if let Some(reason) = reason {
            let report = render_failure_report(&reason, &core.shared, &core.engine, &core.pending);
            return Err(Box::new(SourceAbort { reason, report }));
        }
        let EngineCore {
            engine,
            shared,
            pctx,
            mem,
            finish_time,
            exit_inst,
            exit_ops,
            ..
        } = core;

        let mut info = queue_info(&shared.queue);
        info.alloc_msgs = pctx.iter().map(|c| c.alloc_msgs).sum();
        let mut stats = engine.stats();
        stats.total_cycles = finish_time;
        stats.app_ops = exit_ops.iter().sum();
        for (tid, c) in stats.cores.iter_mut().enumerate().take(n) {
            c.instructions += exit_inst[tid];
            let lc = &shared.lc[tid];
            c.leases_taken += lc.taken;
            c.releases_voluntary += lc.voluntary;
            c.releases_involuntary += lc.involuntary;
            c.lease_overflows += lc.overflow;
            c.leases_broken_by_priority += lc.broken;
            c.multileases += lc.multileases;
        }
        Ok((stats, mem, info))
    }
}

/// The engine state: protocol, lease tables, event store, simulated
/// memory, the op source, and per-core completion bookkeeping.
///
/// Every event goes through [`EngineCore::apply`] with the partition
/// that owns it, and applying an event touches only state owned by the
/// event's tile: its queue partition (plus the source-side outbox rows
/// of the sharded queue), its tiles' engine slices, its cores' lease
/// tables/counters/pending slots, its partition's context and scratch.
/// The relaxed executor relies on exactly this — it applies each
/// partition's window batch in turn, with cross-partition effects riding
/// staged messages that are only delivered at window boundaries.
struct EngineCore<'a> {
    cfg: SystemConfig,
    engine: CoherenceEngine,
    shared: Shared,
    pctx: Vec<PartCtx>,
    scratch: Vec<Scratch>,
    mem: SimMemory,
    source: &'a mut dyn OpSource,
    pending: Vec<Option<Pending>>,
    /// Cores that have not exited yet.
    live: usize,
    finish_time: Cycle,
    exit_inst: Vec<u64>,
    exit_ops: Vec<u64>,
    panicked: Vec<usize>,
}

impl EngineCore<'_> {
    /// Apply one popped event of partition `p` at time `t`: the single
    /// step every executor is built from.
    fn apply(&mut self, p: usize, t: Cycle, ev: Ev) -> Result<(), String> {
        debug_assert_eq!(
            self.shared.queue.map().partition_of(ev.tile()),
            p,
            "event applied by the wrong partition"
        );
        assert!(
            t <= self.cfg.watchdog_max_cycles,
            "watchdog: simulated time exceeded {} cycles (livelock?)",
            self.cfg.watchdog_max_cycles
        );
        {
            let ps = &mut self.pctx[p];
            // Per-partition share of the event budget (any partition
            // crossing the whole budget alone has certainly blown it;
            // the exact global count is checked at executor
            // synchronization points).
            ps.applied += 1;
            assert!(
                ps.applied <= self.cfg.watchdog_max_events,
                "watchdog: event budget exceeded"
            );
            ps.base = t;
            ps.tile = ev.tile();
        }
        match ev {
            Ev::Start(tid) => self.await_request(tid, t)?,
            Ev::OpStart(tid) => {
                if self.shared.trace.enabled() {
                    self.shared.trace.record(t, TraceEvent::OpStart { tid });
                }
                let Some(Pending::Incoming(op)) = self.pending[tid].take() else {
                    return Err(format!(
                        "OpStart without incoming op for core {tid} at cycle {t}"
                    ));
                };
                self.start_op(p, tid, t, op);
            }
            Ev::OpComplete(tid) => {
                if self.shared.trace.enabled() {
                    self.shared.trace.record(t, TraceEvent::OpComplete { tid });
                }
                self.complete_op(p, tid, t)?;
            }
            Ev::Coh(dest, e) => {
                let mut cx = Ctx {
                    shared: &mut self.shared,
                    ps: &mut self.pctx[p],
                };
                self.engine.handle(t, CoreId(dest), e, &mut cx);
                self.drain(p, t);
            }
            Ev::Expiry {
                core,
                line,
                generation,
            } => {
                if self.shared.tables[core.idx()].on_expiry_into(
                    line,
                    generation,
                    &mut self.scratch[p].lines,
                ) {
                    self.shared.lc[core.idx()].involuntary += self.scratch[p].lines.len() as u64;
                    for i in 0..self.scratch[p].lines.len() {
                        let l = self.scratch[p].lines[i];
                        if self.shared.trace.enabled() {
                            self.shared
                                .trace
                                .record(t, TraceEvent::LeaseExpired { core, line: l });
                        }
                        let mut cx = Ctx {
                            shared: &mut self.shared,
                            ps: &mut self.pctx[p],
                        };
                        self.engine.lease_released(t, core, l, &mut cx);
                    }
                    self.drain(p, t);
                }
            }
            Ev::MemReq { tid, op } => {
                self.pctx[p].alloc_msgs += 1;
                let value = match op {
                    Op::Malloc { size, align } => self.mem.alloc(size, align).0,
                    Op::Free(a) => {
                        self.mem.free(a);
                        0
                    }
                    other => {
                        return Err(format!(
                            "non-heap op routed to the allocator home: {other:?}"
                        ))
                    }
                };
                let back = self
                    .engine
                    .ctrl_latency(CoreId(ALLOC_HOME as u16), CoreId(tid as u16));
                self.shared
                    .queue
                    .push(ALLOC_HOME, t, tid, t + back, Ev::MemReply { tid, value });
            }
            Ev::MemReply { tid, value } => {
                let Some(Pending::Alloc { issued }) = self.pending[tid].take() else {
                    return Err(format!(
                        "MemReply without a pending heap op for core {tid} at cycle {t}"
                    ));
                };
                self.pending[tid] = Some(Pending::Imm {
                    value,
                    flag: true,
                    issued,
                });
                self.shared
                    .queue
                    .push(tid, t, tid, t + ALLOC_COST, Ev::OpComplete(tid));
            }
        }
        Ok(())
    }

    /// End-of-run validation, shared by every executor: no thread may
    /// still be blocked, no transaction in flight, invariants hold.
    fn finish_checks(&mut self) -> Result<(), String> {
        let live = self.live;
        if live != 0 {
            return Err(format!(
                "simulation deadlock: event queue drained with {live} threads blocked"
            ));
        }
        assert_eq!(self.engine.in_flight(), 0);
        self.engine.check_invariants();
        Ok(())
    }

    /// Drain effects deferred by the `CohContext` during partition `p`'s
    /// engine calls.
    ///
    /// The deferred-effect vectors ping-pong with the partition's
    /// scratch via `mem::swap`, so at steady state this allocates
    /// nothing: both sides keep their high-water capacity.
    fn drain(&mut self, p: usize, t: Cycle) {
        loop {
            if self.pctx[p].to_pin.is_empty() && self.pctx[p].deferred_release.is_empty() {
                break;
            }
            {
                let ps = &mut self.pctx[p];
                let sc = &mut self.scratch[p];
                std::mem::swap(&mut ps.to_pin, &mut sc.pins);
                std::mem::swap(&mut ps.deferred_release, &mut sc.rels);
            }
            for i in 0..self.scratch[p].pins.len() {
                let (c, l) = self.scratch[p].pins[i];
                self.engine.pin(c, l, true);
            }
            for i in 0..self.scratch[p].rels.len() {
                let (c, l) = self.scratch[p].rels[i];
                let mut cx = Ctx {
                    shared: &mut self.shared,
                    ps: &mut self.pctx[p],
                };
                self.engine.lease_released(t, c, l, &mut cx);
            }
            self.scratch[p].pins.clear();
            self.scratch[p].rels.clear();
        }
        if !self.pctx[p].completions.is_empty() {
            {
                let ps = &mut self.pctx[p];
                let sc = &mut self.scratch[p];
                std::mem::swap(&mut ps.completions, &mut sc.completions);
            }
            let tile = self.pctx[p].tile;
            for i in 0..self.scratch[p].completions.len() {
                let (token, done) = self.scratch[p].completions[i];
                // Completions are delivered at the requesting core —
                // which is the tile the grant/hit just executed at, so
                // this is a same-tile push.
                self.shared.queue.push(
                    tile,
                    t,
                    token as usize,
                    done,
                    Ev::OpComplete(token as usize),
                );
            }
            self.scratch[p].completions.clear();
        }
    }

    /// Fetch core `tid`'s next instruction from the op source — for a
    /// live run, this resumes the core's workload until it issues one.
    fn await_request(&mut self, tid: usize, t: Cycle) -> Result<(), String> {
        let r = self.source.next(tid)?;
        debug_assert_eq!(r.tid, tid);
        match r.op {
            Op::Exit {
                instructions,
                ops,
                at,
                panicked: p,
            } => {
                self.live -= 1;
                self.exit_inst[tid] = instructions;
                self.exit_ops[tid] = ops;
                self.finish_time = self.finish_time.max(at);
                if p {
                    self.panicked.push(tid);
                }
            }
            op => {
                debug_assert!(self.pending[tid].is_none());
                self.pending[tid] = Some(Pending::Incoming(op));
                self.shared.queue.push(tid, t, tid, r.at, Ev::OpStart(tid));
            }
        }
        Ok(())
    }

    /// Immediate completion with a precomputed result after `delay`.
    fn imm(&mut self, tid: usize, t: Cycle, value: u64, flag: bool, delay: Cycle) {
        self.pending[tid] = Some(Pending::Imm {
            value,
            flag,
            issued: t,
        });
        self.shared
            .queue
            .push(tid, t, tid, t + delay, Ev::OpComplete(tid));
    }

    /// Begin executing one instruction at its issue time `t`.
    fn start_op(&mut self, p: usize, tid: usize, t: Cycle, op: Op) {
        let core = CoreId(tid as u16);
        let token = tid as u64;
        match op {
            Op::Read(a)
            | Op::Write(a, _)
            | Op::Cas { addr: a, .. }
            | Op::Faa { addr: a, .. }
            | Op::Xchg { addr: a, .. } => {
                let kind = match op {
                    Op::Read(_) => AccessKind::Load,
                    Op::Write(..) => AccessKind::Store,
                    _ => AccessKind::Rmw,
                };
                let hit = {
                    let mut cx = Ctx {
                        shared: &mut self.shared,
                        ps: &mut self.pctx[p],
                    };
                    self.engine
                        .access(t, token, core, a.line(), kind, false, true, &mut cx)
                };
                if let Some(done) = hit {
                    self.shared
                        .queue
                        .push(tid, t, tid, done, Ev::OpComplete(tid));
                }
                self.pending[tid] = Some(Pending::Data { op, issued: t });
                self.drain(p, t);
            }
            Op::Lease { addr, time } => {
                let line = addr.line();
                match self.shared.tables[tid].begin_lease(line, time) {
                    BeginLease::AlreadyLeased => {
                        self.imm(tid, t, 0, false, 1);
                    }
                    BeginLease::Inserted { displaced } => {
                        for d in displaced {
                            self.shared.lc[tid].overflow += 1;
                            let mut cx = Ctx {
                                shared: &mut self.shared,
                                ps: &mut self.pctx[p],
                            };
                            self.engine.lease_released(t, core, d, &mut cx);
                        }
                        self.shared.lc[tid].taken += 1;
                        let hit = {
                            let mut cx = Ctx {
                                shared: &mut self.shared,
                                ps: &mut self.pctx[p],
                            };
                            self.engine.access(
                                t,
                                token,
                                core,
                                line,
                                AccessKind::Rmw,
                                true,
                                false,
                                &mut cx,
                            )
                        };
                        if let Some(done) = hit {
                            self.shared
                                .queue
                                .push(tid, t, tid, done, Ev::OpComplete(tid));
                        }
                        self.pending[tid] = Some(Pending::LeaseAcq { issued: t });
                    }
                }
                self.drain(p, t);
            }
            Op::Release { addr } => {
                let line = addr.line();
                let flag = self.shared.tables[tid].release_into(line, &mut self.scratch[p].lines);
                self.shared.lc[tid].voluntary += self.scratch[p].lines.len() as u64;
                for i in 0..self.scratch[p].lines.len() {
                    let l = self.scratch[p].lines[i];
                    if self.shared.trace.enabled() {
                        self.shared.trace.record(
                            t,
                            TraceEvent::LeaseReleased {
                                core,
                                line: l,
                                voluntary: true,
                            },
                        );
                    }
                    let mut cx = Ctx {
                        shared: &mut self.shared,
                        ps: &mut self.pctx[p],
                    };
                    self.engine.lease_released(t, core, l, &mut cx);
                }
                self.imm(tid, t, 0, flag, 1);
                self.drain(p, t);
            }
            Op::MultiLease { addrs, time } => {
                let lines: Vec<LineAddr> = addrs.iter().map(|a| a.line()).collect();
                match self.shared.tables[tid].begin_multilease(&lines, time) {
                    MultiLeaseBegin::Rejected { released } => {
                        self.shared.lc[tid].voluntary += released.len() as u64;
                        for l in released {
                            let mut cx = Ctx {
                                shared: &mut self.shared,
                                ps: &mut self.pctx[p],
                            };
                            self.engine.lease_released(t, core, l, &mut cx);
                        }
                        self.imm(tid, t, 0, false, 1);
                    }
                    MultiLeaseBegin::Admitted {
                        released,
                        sorted_lines,
                    } => {
                        self.shared.lc[tid].voluntary += released.len() as u64;
                        for l in released {
                            let mut cx = Ctx {
                                shared: &mut self.shared,
                                ps: &mut self.pctx[p],
                            };
                            self.engine.lease_released(t, core, l, &mut cx);
                        }
                        if sorted_lines.is_empty() {
                            self.imm(tid, t, 0, true, 1);
                        } else {
                            self.shared.lc[tid].multileases += 1;
                            self.shared.lc[tid].taken += sorted_lines.len() as u64;
                            let first = sorted_lines[0];
                            let hit = {
                                let mut cx = Ctx {
                                    shared: &mut self.shared,
                                    ps: &mut self.pctx[p],
                                };
                                self.engine.access(
                                    t,
                                    token,
                                    core,
                                    first,
                                    AccessKind::Rmw,
                                    true,
                                    false,
                                    &mut cx,
                                )
                            };
                            if let Some(done) = hit {
                                self.shared
                                    .queue
                                    .push(tid, t, tid, done, Ev::OpComplete(tid));
                            }
                            self.pending[tid] = Some(Pending::Multi {
                                lines: sorted_lines,
                                idx: 0,
                                issued: t,
                            });
                        }
                    }
                }
                self.drain(p, t);
            }
            Op::ReleaseAll => {
                self.shared.tables[tid].release_all_into(&mut self.scratch[p].lines);
                self.shared.lc[tid].voluntary += self.scratch[p].lines.len() as u64;
                for i in 0..self.scratch[p].lines.len() {
                    let l = self.scratch[p].lines[i];
                    if self.shared.trace.enabled() {
                        self.shared.trace.record(
                            t,
                            TraceEvent::LeaseReleased {
                                core,
                                line: l,
                                voluntary: true,
                            },
                        );
                    }
                    let mut cx = Ctx {
                        shared: &mut self.shared,
                        ps: &mut self.pctx[p],
                    };
                    self.engine.lease_released(t, core, l, &mut cx);
                }
                self.imm(tid, t, 0, true, 1);
                self.drain(p, t);
            }
            Op::Malloc { .. } | Op::Free(_) => {
                // The heap allocator is global machine state: route the
                // request to the allocator home tile as a message. The
                // simulated cost model becomes ALLOC_COST plus the NoC
                // control round trip — identical for every executor.
                self.pending[tid] = Some(Pending::Alloc { issued: t });
                let go = self.engine.ctrl_latency(core, CoreId(ALLOC_HOME as u16));
                self.shared
                    .queue
                    .push(tid, t, ALLOC_HOME, t + go, Ev::MemReq { tid, op });
            }
            Op::Exit { .. } => unreachable!("Exit handled in await_request"),
        }
    }

    /// Finish one instruction at its completion time: move data, account
    /// statistics, hand the reply to the source, and fetch the core's
    /// next instruction.
    fn complete_op(&mut self, p: usize, tid: usize, t: Cycle) -> Result<(), String> {
        let pd = self.pending[tid].take().ok_or_else(|| {
            format!("OpComplete for core {tid} at cycle {t} without a pending op")
        })?;
        let core = CoreId(tid as u16);
        let (value, flag, issued) = match pd {
            Pending::Data { op, issued } => {
                let mem = &mut self.mem;
                let cs = self.engine.core_stats_mut(core);
                let (value, flag) = match op {
                    Op::Read(a) => {
                        cs.loads += 1;
                        (mem.read_word(a), false)
                    }
                    Op::Write(a, v) => {
                        cs.stores += 1;
                        mem.write_word(a, v);
                        (0, false)
                    }
                    Op::Cas {
                        addr,
                        expected,
                        new,
                    } => {
                        cs.cas_attempts += 1;
                        let old = mem.read_word(addr);
                        let ok = old == expected;
                        if ok {
                            mem.write_word(addr, new);
                        } else {
                            cs.cas_failures += 1;
                        }
                        (old, ok)
                    }
                    Op::Faa { addr, delta } => {
                        cs.rmw_ops += 1;
                        let old = mem.read_word(addr);
                        mem.write_word(addr, old.wrapping_add(delta));
                        (old, true)
                    }
                    Op::Xchg { addr, value } => {
                        cs.rmw_ops += 1;
                        let old = mem.read_word(addr);
                        mem.write_word(addr, value);
                        (old, true)
                    }
                    other => unreachable!("non-data op in Data pending: {other:?}"),
                };
                (value, flag, issued)
            }
            Pending::LeaseAcq { issued } => (0, true, issued),
            Pending::Multi { lines, idx, issued } => {
                if idx + 1 < lines.len() {
                    // Acquire the next line of the group, in order.
                    let hit = {
                        let mut cx = Ctx {
                            shared: &mut self.shared,
                            ps: &mut self.pctx[p],
                        };
                        self.engine.access(
                            t,
                            tid as u64,
                            core,
                            lines[idx + 1],
                            AccessKind::Rmw,
                            true,
                            false,
                            &mut cx,
                        )
                    };
                    if let Some(done) = hit {
                        self.shared
                            .queue
                            .push(tid, t, tid, done, Ev::OpComplete(tid));
                    }
                    self.pending[tid] = Some(Pending::Multi {
                        lines,
                        idx: idx + 1,
                        issued,
                    });
                    self.drain(p, t);
                    return Ok(());
                }
                (0, true, issued)
            }
            Pending::Imm {
                value,
                flag,
                issued,
            } => (value, flag, issued),
            Pending::Alloc { .. } => unreachable!("completion before the allocator replied"),
            Pending::Incoming(_) => unreachable!("completion before start"),
        };
        self.engine.core_stats_mut(core).mem_stall_cycles += t - issued;
        self.source.observe(
            tid,
            Reply {
                time: t,
                value,
                flag,
            },
        )?;
        self.await_request(tid, t)
    }
}

/// The relaxed windowed schedule on one host thread: open a safe window
/// ([`ShardedQueue::begin_window`]), drain every partition's batch in
/// partition order, repeat. This applies events in a *different order*
/// than the sequential `pop_global` loop (per-partition batches instead
/// of global time order) while producing byte-identical simulated
/// results. Every run under relaxed commit with more than one
/// partition uses it, live or engine-only.
fn run_relaxed_serial(core: &mut EngineCore<'_>) -> Result<(), String> {
    let budget = core.cfg.watchdog_max_events;
    while let Some(bounds) = core.shared.queue.begin_window() {
        if core.shared.queue.processed() > budget {
            return Err("watchdog: event budget exceeded".to_string());
        }
        for (p, &bound) in bounds.iter().enumerate() {
            while let Some((t, ev)) = core.shared.queue.pop_bounded(p, bound) {
                core.apply(p, t, ev)?;
            }
        }
    }
    Ok(())
}

/// Best-effort extraction of a panic payload's message.
fn panic_payload_msg(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        String::from("<non-string panic payload>")
    }
}

/// One coherent diagnosis of a failed simulation: the failure reason, the
/// structured trace window, the engine's in-flight protocol state, and
/// every core's lease table.
fn render_failure_report(
    reason: &str,
    shared: &Shared,
    engine: &CoherenceEngine,
    pending: &[Option<Pending>],
) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    let _ = writeln!(s, "==== simulation failure report ====");
    let _ = writeln!(s, "reason: {reason}");
    let _ = writeln!(s, "-- trace window --");
    if shared.trace.enabled() {
        let _ = writeln!(
            s,
            "  ({} retained of {} recorded events)",
            shared.trace.len(),
            shared.trace.recorded()
        );
        s.push_str(&shared.trace.render());
    } else {
        let _ = writeln!(
            s,
            "  (tracing off; build the machine with Machine::with_trace(depth) to capture events)"
        );
    }
    let _ = writeln!(s, "-- in-flight protocol state --");
    let dump = engine.debug_dump();
    if dump.is_empty() {
        let _ = writeln!(s, "  (quiescent)");
    } else {
        s.push_str(&dump);
    }
    let _ = writeln!(s, "-- lease tables --");
    for (i, tbl) in shared.tables.iter().enumerate() {
        let _ = writeln!(s, " core{i}:");
        s.push_str(&tbl.debug_dump());
    }
    let _ = writeln!(s, "-- pending ops --");
    let mut any = false;
    for (tid, p) in pending.iter().enumerate() {
        if let Some(p) = p {
            any = true;
            let _ = writeln!(s, "  tid{tid}: {p:?}");
        }
    }
    if !any {
        let _ = writeln!(s, "  (none)");
    }
    let _ = writeln!(s, "===================================");
    s
}
