//! Engine-level protocol tests, driven by a mock context and a local
//! event loop. The mock's lease behaviour is programmable so the lease
//! queuing path can be exercised without the `lr-lease` crate (which sits
//! above this one).

use crate::*;
use lr_sim_core::{CoreId, Cycle, EventQueue, LineAddr, SystemConfig};
use std::collections::HashMap;
use std::collections::HashSet;

/// Programmable mock of the machine layer. The queue carries each
/// event's delivery tile so `run` can hand it back to the engine the
/// way a real executor would.
struct MockCtx {
    queue: EventQueue<(CoreId, CohEvent)>,
    completions: Vec<(u64, Cycle)>,
    /// Lines the mock claims are leased per core: probes on them queue.
    leased: HashSet<(CoreId, LineAddr)>,
    /// If true, `regular` probes break leases (§5 prioritization).
    prioritize_regular: bool,
    exclusive_grants: Vec<(CoreId, LineAddr, Cycle)>,
    invalidated: Vec<(CoreId, LineAddr)>,
}

impl MockCtx {
    fn new() -> Self {
        MockCtx {
            queue: EventQueue::new(),
            completions: Vec::new(),
            leased: HashSet::new(),
            prioritize_regular: false,
            exclusive_grants: Vec::new(),
            invalidated: Vec::new(),
        }
    }
}

impl CohContext for MockCtx {
    fn schedule(&mut self, delay: Cycle, dest: CoreId, ev: CohEvent) {
        self.queue.push_after(delay, (dest, ev));
    }
    fn xact_completed(&mut self, token: u64, now: Cycle) {
        self.completions.push((token, now));
    }
    fn probe_action(
        &mut self,
        owner: CoreId,
        line: LineAddr,
        regular: bool,
        _now: Cycle,
    ) -> ProbeAction {
        if self.leased.contains(&(owner, line)) {
            if regular && self.prioritize_regular {
                self.leased.remove(&(owner, line));
                ProbeAction::ProceedBreakingLease
            } else {
                ProbeAction::Queue
            }
        } else {
            ProbeAction::Proceed
        }
    }
    fn exclusive_granted(&mut self, core: CoreId, line: LineAddr, now: Cycle) {
        self.exclusive_grants.push((core, line, now));
    }
    fn pinned_victim(
        &mut self,
        _core: CoreId,
        pinned: &[LineAddr],
        _now: Cycle,
    ) -> Option<LineAddr> {
        pinned.first().copied()
    }
    fn line_invalidated(&mut self, core: CoreId, line: LineAddr, _now: Cycle) {
        self.invalidated.push((core, line));
    }
}

/// Drain the event queue completely.
fn run(engine: &mut CoherenceEngine, ctx: &mut MockCtx) {
    while let Some((t, (at, ev))) = ctx.queue.pop() {
        engine.handle(t, at, ev, ctx);
    }
}

fn cfg(cores: usize) -> SystemConfig {
    SystemConfig::with_cores(cores)
}

const L: LineAddr = LineAddr(100);

#[test]
fn cold_load_misses_then_hits() {
    let mut e = CoherenceEngine::new(&cfg(4));
    let mut ctx = MockCtx::new();
    let c0 = CoreId(0);

    let r = e.access(0, 7, c0, L, AccessKind::Load, false, true, &mut ctx);
    assert!(r.is_none(), "cold access must miss");
    run(&mut e, &mut ctx);
    assert_eq!(ctx.completions.len(), 1);
    assert_eq!(ctx.completions[0].0, 7);
    assert!(ctx.completions[0].1 > 0);
    assert_eq!(e.l1_state(c0, L), Some(L1State::Shared));
    assert_eq!(
        e.dir_state(L),
        Some(DirState::Shared(SharerSet::from_mask(1)))
    );
    assert_eq!(e.stats().l2_misses, 1);

    // Second load: pure L1 hit, completes synchronously.
    let now = ctx.queue.now();
    let r = e.access(now, 7, c0, L, AccessKind::Load, false, true, &mut ctx);
    assert_eq!(r, Some(now + 1));
    run(&mut e, &mut ctx);
    e.check_invariants();
}

#[test]
fn store_grants_modified_and_invalidation_on_second_reader() {
    let mut e = CoherenceEngine::new(&cfg(4));
    let mut ctx = MockCtx::new();
    let (c0, c1) = (CoreId(0), CoreId(1));

    assert!(e
        .access(0, 0, c0, L, AccessKind::Store, false, true, &mut ctx)
        .is_none());
    run(&mut e, &mut ctx);
    assert_eq!(e.l1_state(c0, L), Some(L1State::Modified));
    assert_eq!(e.dir_state(L), Some(DirState::Modified(c0)));

    // A load by c1 downgrades c0 to Shared.
    let now = ctx.queue.now();
    assert!(e
        .access(now, 1, c1, L, AccessKind::Load, false, true, &mut ctx)
        .is_none());
    run(&mut e, &mut ctx);
    assert_eq!(e.l1_state(c0, L), Some(L1State::Shared));
    assert_eq!(e.l1_state(c1, L), Some(L1State::Shared));
    assert_eq!(
        e.dir_state(L),
        Some(DirState::Shared(SharerSet::from_mask(0b11)))
    );
    assert_eq!(e.stats().owner_probes, 1);
    e.check_invariants();
}

#[test]
fn upgrade_invalidates_other_sharers() {
    let mut e = CoherenceEngine::new(&cfg(4));
    let mut ctx = MockCtx::new();
    let (c0, c1, c2) = (CoreId(0), CoreId(1), CoreId(2));

    for (t, c) in [(0u64, c0), (1, c1), (2, c2)] {
        let now = ctx.queue.now();
        e.access(now, t, c, L, AccessKind::Load, false, true, &mut ctx);
        run(&mut e, &mut ctx);
    }
    assert_eq!(
        e.dir_state(L),
        Some(DirState::Shared(SharerSet::from_mask(0b111)))
    );

    // c1 upgrades: c0 and c2 lose their copies.
    let now = ctx.queue.now();
    e.access(now, 1, c1, L, AccessKind::Rmw, false, true, &mut ctx);
    run(&mut e, &mut ctx);
    assert_eq!(e.l1_state(c0, L), None);
    assert_eq!(e.l1_state(c2, L), None);
    assert_eq!(e.l1_state(c1, L), Some(L1State::Modified));
    assert_eq!(e.dir_state(L), Some(DirState::Modified(c1)));
    assert_eq!(e.stats().invalidations, 2);
    e.check_invariants();
}

#[test]
fn per_line_fifo_serializes_contending_stores() {
    let mut e = CoherenceEngine::new(&cfg(8));
    let mut ctx = MockCtx::new();

    // Eight cores store to the same line "simultaneously".
    for c in 0..8u16 {
        e.access(
            0,
            c as u64,
            CoreId(c),
            L,
            AccessKind::Store,
            false,
            true,
            &mut ctx,
        );
    }
    run(&mut e, &mut ctx);
    assert_eq!(ctx.completions.len(), 8);
    // Completions happen in strictly increasing time: the line's FIFO
    // channel serializes ownership transfers.
    let times: Vec<Cycle> = ctx.completions.iter().map(|&(_, t)| t).collect();
    for w in times.windows(2) {
        assert!(w[0] < w[1], "FIFO order violated: {times:?}");
    }
    assert!(e.stats().max_dir_queue_len >= 6);
    assert!(e.stats().dir_queue_wait_cycles > 0);
    e.check_invariants();
}

#[test]
fn leased_line_queues_probe_until_release() {
    let mut e = CoherenceEngine::new(&cfg(4));
    let mut ctx = MockCtx::new();
    let (c0, c1) = (CoreId(0), CoreId(1));

    // c0 acquires the line exclusively with lease intent.
    e.access(0, 0, c0, L, AccessKind::Rmw, true, false, &mut ctx);
    run(&mut e, &mut ctx);
    assert_eq!(ctx.exclusive_grants.len(), 1);
    ctx.leased.insert((c0, L));
    e.pin(c0, L, true);

    // c1 requests the line: the probe must stall at c0.
    let t_req = ctx.queue.now();
    e.access(t_req, 1, c1, L, AccessKind::Store, false, false, &mut ctx);
    run(&mut e, &mut ctx);
    assert!(
        e.has_stalled_probe(c0, L),
        "probe should be queued behind the lease"
    );
    assert_eq!(ctx.completions.len(), 1, "c1 must not complete yet");
    assert_eq!(e.l1_state(c0, L), Some(L1State::Modified));

    // Release after 500 cycles: the probe resumes and c1 completes.
    let t_rel = ctx.queue.now() + 500;
    ctx.queue
        .push_at(t_rel, (CoreId(0), CohEvent::DirUnlock(LineAddr(0xdead)))); // dummy to advance clock
                                                                             // Instead of the dummy event trick, call lease_released directly.
    ctx.queue.pop();
    ctx.leased.remove(&(c0, L));
    e.lease_released(t_rel, c0, L, &mut ctx);
    run(&mut e, &mut ctx);
    assert!(!e.has_stalled_probe(c0, L));
    assert_eq!(ctx.completions.len(), 2);
    let (_, t_done) = ctx.completions[1];
    assert!(t_done >= t_rel, "c1 completes only after the release");
    assert_eq!(e.l1_state(c1, L), Some(L1State::Modified));
    assert_eq!(e.l1_state(c0, L), None);
    let queued: u64 = e.stats().cores.iter().map(|c| c.probes_queued).sum();
    assert_eq!(queued, 1);
    e.check_invariants();
}

#[test]
fn prioritized_regular_request_breaks_lease() {
    let mut e = CoherenceEngine::new(&cfg(4));
    let mut ctx = MockCtx::new();
    ctx.prioritize_regular = true;
    let (c0, c1) = (CoreId(0), CoreId(1));

    e.access(0, 0, c0, L, AccessKind::Rmw, true, false, &mut ctx);
    run(&mut e, &mut ctx);
    ctx.leased.insert((c0, L));
    e.pin(c0, L, true);

    // Regular store by c1: the lease is broken, no stall.
    let now = ctx.queue.now();
    e.access(now, 1, c1, L, AccessKind::Store, false, true, &mut ctx);
    run(&mut e, &mut ctx);
    assert!(!e.has_stalled_probe(c0, L));
    assert_eq!(ctx.completions.len(), 2);
    assert_eq!(e.l1_state(c1, L), Some(L1State::Modified));
    e.check_invariants();
}

#[test]
fn lease_tagged_request_still_queues_under_prioritization() {
    let mut e = CoherenceEngine::new(&cfg(4));
    let mut ctx = MockCtx::new();
    ctx.prioritize_regular = true;
    let (c0, c1) = (CoreId(0), CoreId(1));

    e.access(0, 0, c0, L, AccessKind::Rmw, true, false, &mut ctx);
    run(&mut e, &mut ctx);
    ctx.leased.insert((c0, L));
    e.pin(c0, L, true);

    // c1's request is itself a lease request (regular = false): it queues.
    let now = ctx.queue.now();
    e.access(now, 1, c1, L, AccessKind::Rmw, true, false, &mut ctx);
    run(&mut e, &mut ctx);
    assert!(e.has_stalled_probe(c0, L));
    // Clean up: release so invariants hold.
    ctx.leased.remove(&(c0, L));
    e.lease_released(ctx.queue.now(), c0, L, &mut ctx);
    run(&mut e, &mut ctx);
    e.check_invariants();
}

#[test]
fn eviction_writes_back_and_line_can_be_refetched() {
    // Tiny L1: 1 KiB, 1-way => 16 sets; lines 16 apart alias.
    let mut config = cfg(2);
    config.l1_kib = 1;
    config.l1_ways = 1;
    let mut e = CoherenceEngine::new(&config);
    let mut ctx = MockCtx::new();
    let c0 = CoreId(0);
    let a = LineAddr(0);
    let b = LineAddr(16); // same L1 set as `a`

    e.access(0, 0, c0, a, AccessKind::Store, false, true, &mut ctx);
    run(&mut e, &mut ctx);
    let now = ctx.queue.now();
    e.access(now, 0, c0, b, AccessKind::Store, false, true, &mut ctx);
    run(&mut e, &mut ctx);
    // `a` was evicted dirty: directory must say Uncached again.
    assert_eq!(e.l1_state(c0, a), None);
    assert_eq!(e.dir_state(a), Some(DirState::Uncached));
    assert!(e.stats().cores[0].l1_writebacks >= 1);

    // Refetch `a`: L2 hit this time.
    let l2_misses_before = e.stats().l2_misses;
    let now = ctx.queue.now();
    e.access(now, 0, c0, a, AccessKind::Load, false, true, &mut ctx);
    run(&mut e, &mut ctx);
    assert_eq!(e.stats().l2_misses, l2_misses_before);
    assert_eq!(e.l1_state(c0, a), Some(L1State::Shared));
    e.check_invariants();
}

#[test]
fn probe_delay_bounded_by_lease_time() {
    // Proposition 2: with a lease of D cycles, a probe waits at most D
    // beyond normal service. We model the involuntary release by calling
    // lease_released exactly D cycles after the grant.
    let mut e = CoherenceEngine::new(&cfg(4));
    let mut ctx = MockCtx::new();
    let (c0, c1) = (CoreId(0), CoreId(1));
    let d: Cycle = 1000;

    e.access(0, 0, c0, L, AccessKind::Rmw, true, false, &mut ctx);
    run(&mut e, &mut ctx);
    let grant_time = ctx.exclusive_grants[0].2;
    ctx.leased.insert((c0, L));
    e.pin(c0, L, true);

    let t_req = grant_time + 10;
    e.access(t_req, 1, c1, L, AccessKind::Store, false, false, &mut ctx);
    // Drain until the probe stalls.
    run(&mut e, &mut ctx);
    assert!(e.has_stalled_probe(c0, L));

    // Involuntary release at lease expiry.
    let expiry = grant_time + d;
    ctx.leased.remove(&(c0, L));
    e.lease_released(expiry.max(ctx.queue.now()), c0, L, &mut ctx);
    run(&mut e, &mut ctx);
    let (_, t_done) = *ctx.completions.last().unwrap();
    // The request completed within D plus ordinary protocol latencies.
    let slack = 200; // generous bound on protocol message latencies
    assert!(
        t_done <= t_req + d + slack,
        "probe delayed too long: done={t_done} req={t_req}"
    );
    e.check_invariants();
}

#[test]
fn concurrent_distinct_lines_progress_independently() {
    let mut e = CoherenceEngine::new(&cfg(4));
    let mut ctx = MockCtx::new();
    // Four cores on four distinct lines: no owner probes at all.
    for c in 0..4u16 {
        e.access(
            0,
            c as u64,
            CoreId(c),
            LineAddr(200 + c as u64),
            AccessKind::Store,
            false,
            true,
            &mut ctx,
        );
    }
    run(&mut e, &mut ctx);
    assert_eq!(ctx.completions.len(), 4);
    assert_eq!(e.stats().owner_probes, 0);
    e.check_invariants();
}

#[test]
fn stats_track_messages_and_hops() {
    let mut e = CoherenceEngine::new(&cfg(16));
    let mut ctx = MockCtx::new();
    e.access(
        0,
        0,
        CoreId(15),
        LineAddr(3),
        AccessKind::Load,
        false,
        true,
        &mut ctx,
    );
    run(&mut e, &mut ctx);
    let s = e.stats();
    assert!(s.msgs_control >= 2, "request + ack");
    assert!(s.msgs_data >= 1, "data fill");
    assert!(s.flit_hops > 0);
    assert_eq!(s.dir_requests, 1);
}

#[test]
fn mesi_sole_reader_gets_exclusive_and_upgrades_silently() {
    let mut config = cfg(4);
    config.protocol = lr_sim_core::CoherenceProtocol::Mesi;
    let mut e = CoherenceEngine::new(&config);
    let mut ctx = MockCtx::new();
    let c0 = CoreId(0);

    // Cold load: Exclusive grant.
    e.access(0, 0, c0, L, AccessKind::Load, false, true, &mut ctx);
    run(&mut e, &mut ctx);
    assert_eq!(e.l1_state(c0, L), Some(L1State::Exclusive));
    assert_eq!(e.dir_state(L), Some(DirState::Modified(c0)));

    // Write: silent E→M upgrade, zero messages.
    let msgs_before = e.stats().coherence_messages();
    let now = ctx.queue.now();
    let r = e.access(now, 0, c0, L, AccessKind::Store, false, true, &mut ctx);
    assert!(r.is_some(), "silent upgrade must hit");
    assert_eq!(e.l1_state(c0, L), Some(L1State::Modified));
    assert_eq!(e.stats().coherence_messages(), msgs_before);
    e.check_invariants();
}

#[test]
fn mesi_second_reader_downgrades_exclusive_cleanly() {
    let mut config = cfg(4);
    config.protocol = lr_sim_core::CoherenceProtocol::Mesi;
    let mut e = CoherenceEngine::new(&config);
    let mut ctx = MockCtx::new();
    let (c0, c1) = (CoreId(0), CoreId(1));

    e.access(0, 0, c0, L, AccessKind::Load, false, true, &mut ctx);
    run(&mut e, &mut ctx);
    assert_eq!(e.l1_state(c0, L), Some(L1State::Exclusive));

    // Second reader: both end Shared; the clean E copy writes nothing back.
    let now = ctx.queue.now();
    e.access(now, 1, c1, L, AccessKind::Load, false, true, &mut ctx);
    run(&mut e, &mut ctx);
    assert_eq!(e.l1_state(c0, L), Some(L1State::Shared));
    assert_eq!(e.l1_state(c1, L), Some(L1State::Shared));
    assert_eq!(
        e.dir_state(L),
        Some(DirState::Shared(SharerSet::from_mask(0b11)))
    );
    assert_eq!(e.stats().cores[0].l1_writebacks, 0, "E is clean");
    e.check_invariants();
}

#[test]
fn mesi_lease_queues_probe_like_msi() {
    let mut config = cfg(4);
    config.protocol = lr_sim_core::CoherenceProtocol::Mesi;
    let mut e = CoherenceEngine::new(&config);
    let mut ctx = MockCtx::new();
    let (c0, c1) = (CoreId(0), CoreId(1));

    e.access(0, 0, c0, L, AccessKind::Rmw, true, false, &mut ctx);
    run(&mut e, &mut ctx);
    ctx.leased.insert((c0, L));
    e.pin(c0, L, true);

    let now = ctx.queue.now();
    e.access(now, 1, c1, L, AccessKind::Store, false, false, &mut ctx);
    run(&mut e, &mut ctx);
    assert!(
        e.has_stalled_probe(c0, L),
        "leases must work identically on MESI"
    );

    ctx.leased.remove(&(c0, L));
    e.lease_released(ctx.queue.now(), c0, L, &mut ctx);
    run(&mut e, &mut ctx);
    assert_eq!(e.l1_state(c1, L), Some(L1State::Modified));
    e.check_invariants();
}

#[test]
fn stats_counters_exact_for_three_core_contention() {
    // Hand-built scenario pinning down the queueing counters:
    //   c0 leases the line (Modified, pinned);
    //   c1 stores -> probe delivered to c0, stalls behind the lease;
    //   c2 stores -> queues at the directory behind c1's transaction;
    //   release  -> c1 completes, then c2 probes c1 and completes.
    let mut e = CoherenceEngine::new(&cfg(4));
    let mut ctx = MockCtx::new();
    let (c0, c1, c2) = (CoreId(0), CoreId(1), CoreId(2));

    e.access(0, 0, c0, L, AccessKind::Rmw, true, false, &mut ctx);
    run(&mut e, &mut ctx);
    ctx.leased.insert((c0, L));
    e.pin(c0, L, true);
    assert_eq!(e.stats().owner_probes, 0);
    assert_eq!(e.stats().max_dir_queue_len, 0);

    // c1: probe delivered and stalled; the directory entry stays locked.
    let t1 = ctx.queue.now();
    e.access(t1, 1, c1, L, AccessKind::Store, false, false, &mut ctx);
    run(&mut e, &mut ctx);
    let t_stalled = ctx.queue.now();
    assert!(e.has_stalled_probe(c0, L));
    assert_eq!(e.stats().owner_probes, 1, "exactly one probe delivered");
    assert_eq!(e.stats().cores[c0.idx()].probes_queued, 1);
    assert_eq!(
        e.stats().cores[c0.idx()].probe_queued_cycles,
        0,
        "stall time accrues only when the probe resumes"
    );

    // c2: the line's directory channel is busy, so it must queue. No
    // probe is delivered for it yet (owner_probes stays 1): counting in
    // `service` would be wrong, the request hasn't reached the owner.
    let t2 = ctx.queue.now();
    e.access(t2, 2, c2, L, AccessKind::Store, false, true, &mut ctx);
    run(&mut e, &mut ctx);
    assert_eq!(ctx.completions.len(), 1, "only c0's own access completed");
    assert_eq!(e.stats().max_dir_queue_len, 1, "c2 queued behind c1");
    assert_eq!(e.stats().owner_probes, 1);

    // Release 700 cycles later: c1's stalled probe resumes, c1 takes the
    // line, then c2's queued transaction probes the *new* owner c1.
    let t_rel = ctx.queue.now() + 700;
    // Advance the mock clock to the release time (push/pop a dummy event)
    // so the resumed protocol messages are scheduled relative to t_rel.
    ctx.queue
        .push_at(t_rel, (CoreId(0), CohEvent::DirUnlock(LineAddr(0xdead))));
    ctx.queue.pop();
    ctx.leased.remove(&(c0, L));
    e.lease_released(t_rel, c0, L, &mut ctx);
    run(&mut e, &mut ctx);
    assert_eq!(ctx.completions.len(), 3);
    assert_eq!(e.stats().owner_probes, 2, "c1's probe + c2's probe of c1");
    assert_eq!(e.stats().cores[c0.idx()].probes_queued, 1);
    assert_eq!(e.stats().cores[c1.idx()].probes_queued, 0, "no lease at c1");

    // The stalled probe waited from when it parked at c0 until the
    // release; it parked somewhere in [t1, t_stalled].
    let waited = e.stats().cores[c0.idx()].probe_queued_cycles;
    assert!(
        waited >= t_rel - t_stalled && waited <= t_rel - t1,
        "probe wait {waited} outside [{}, {}]",
        t_rel - t_stalled,
        t_rel - t1
    );
    // c2 arrived at the directory shortly after t2 and was only serviced
    // after the release: it ate (nearly) the whole release delay.
    assert!(
        e.stats().dir_queue_wait_cycles >= 500,
        "dir wait {} too small for a 700-cycle lease hold",
        e.stats().dir_queue_wait_cycles
    );
    assert_eq!(e.l1_state(c2, L), Some(L1State::Modified));
    e.check_invariants();
}

#[test]
fn mesi_store_invalidates_clean_exclusive_without_writeback() {
    // owner_downgrade must not count a writeback for a clean Exclusive
    // copy even on the invalidate (store) path.
    let mut config = cfg(4);
    config.protocol = lr_sim_core::CoherenceProtocol::Mesi;
    let mut e = CoherenceEngine::new(&config);
    let mut ctx = MockCtx::new();
    let (c0, c1) = (CoreId(0), CoreId(1));

    e.access(0, 0, c0, L, AccessKind::Load, false, true, &mut ctx);
    run(&mut e, &mut ctx);
    assert_eq!(e.l1_state(c0, L), Some(L1State::Exclusive));

    let now = ctx.queue.now();
    e.access(now, 1, c1, L, AccessKind::Store, false, true, &mut ctx);
    run(&mut e, &mut ctx);
    assert_eq!(e.l1_state(c0, L), None, "E copy invalidated");
    assert_eq!(e.l1_state(c1, L), Some(L1State::Modified));
    assert_eq!(e.dir_state(L), Some(DirState::Modified(c1)));
    assert_eq!(e.stats().cores[0].l1_writebacks, 0, "E is clean");
    assert_eq!(e.stats().owner_probes, 1);
    e.check_invariants();
}

#[test]
fn mesi_clean_exclusive_eviction_frees_line_for_next_exclusive_reader() {
    // Evicting a clean Exclusive copy is a control-only PutE that returns
    // the directory to Uncached, so the *next* sole reader takes the
    // `grant_exclusive` path in grant_from_home again.
    let mut config = cfg(2);
    config.protocol = lr_sim_core::CoherenceProtocol::Mesi;
    config.l1_kib = 1;
    config.l1_ways = 1; // 16 sets; lines 16 apart alias
    let mut e = CoherenceEngine::new(&config);
    let mut ctx = MockCtx::new();
    let (c0, c1) = (CoreId(0), CoreId(1));
    let a = LineAddr(0);
    let b = LineAddr(16);

    e.access(0, 0, c0, a, AccessKind::Load, false, true, &mut ctx);
    run(&mut e, &mut ctx);
    assert_eq!(e.l1_state(c0, a), Some(L1State::Exclusive));

    // Alias load: `a` is evicted clean (no writeback), dir -> Uncached.
    let now = ctx.queue.now();
    e.access(now, 0, c0, b, AccessKind::Load, false, true, &mut ctx);
    run(&mut e, &mut ctx);
    assert_eq!(e.l1_state(c0, a), None);
    assert_eq!(e.dir_state(a), Some(DirState::Uncached));
    assert_eq!(e.stats().cores[0].l1_writebacks, 0, "clean PutE");

    // A different core loads `a`: sole reader again => Exclusive grant.
    let now = ctx.queue.now();
    e.access(now, 1, c1, a, AccessKind::Load, false, true, &mut ctx);
    run(&mut e, &mut ctx);
    assert_eq!(e.l1_state(c1, a), Some(L1State::Exclusive));
    assert_eq!(e.dir_state(a), Some(DirState::Modified(c1)));
    e.check_invariants();
}

#[test]
fn home_distribution_is_striped() {
    let e = CoherenceEngine::new(&cfg(8));
    let mut homes = HashMap::new();
    for l in 0..64u64 {
        *homes.entry(e.home_of(LineAddr(l))).or_insert(0) += 1;
    }
    assert_eq!(homes.len(), 8);
    for (_, n) in homes {
        assert_eq!(n, 8);
    }
}

#[test]
fn socket_aware_home_map_degenerates_and_localizes() {
    // sockets = 1: exactly the old flat stride interleaving.
    let e = CoherenceEngine::new(&cfg(8));
    for l in (0..4096u64).step_by(37) {
        assert_eq!(e.home_of(LineAddr(l)).idx() as u64, l % 8);
    }
    // sockets = 2, 8 cores: socket picked by the 1 GiB region
    // (line >> 24), slice by stride *within* that socket's tiles.
    let mut c = cfg(8);
    c.sockets = 2;
    let e = CoherenceEngine::new(&c);
    assert_eq!(
        e.home_of(LineAddr(5)),
        CoreId(1),
        "region 0 homes on socket 0"
    );
    assert_eq!(
        e.home_of(LineAddr((1 << 24) | 6)),
        CoreId(4 + 2),
        "region 1 homes on socket 1"
    );
    // Every line still maps to a valid tile, and each socket's regions
    // use only that socket's tiles.
    for l in (0..(3u64 << 24)).step_by((1 << 21) + 13) {
        let h = e.home_of(LineAddr(l));
        assert!(h.idx() < 8);
        assert_eq!(h.idx() / 4, ((l >> 24) % 2) as usize);
    }
}

#[test]
fn cross_socket_access_counts_numa_traffic() {
    let mut c = cfg(4);
    c.sockets = 2;
    let mut e = CoherenceEngine::new(&c);
    let mut ctx = MockCtx::new();
    // Line homed in socket 1's region, accessed from core 0 (socket 0):
    // the request and the grant both cross the inter-socket link.
    let l = LineAddr(1 << 24);
    assert_eq!(e.home_of(l), CoreId(2));
    let r = e.access(0, 1, CoreId(0), l, AccessKind::Load, false, true, &mut ctx);
    assert!(r.is_none());
    run(&mut e, &mut ctx);
    assert_eq!(ctx.completions.len(), 1);
    let st = e.stats();
    assert!(
        st.cross_socket_msgs >= 2,
        "request + grant should cross the link, got {}",
        st.cross_socket_msgs
    );
    assert!(st.socket_flit_hops > 0);
    // The link hops are charged at the (more expensive) inter-socket
    // energy rate on top of the mesh flit energy.
    let base = {
        let mut m = c.energy.clone();
        m.socket_flit_hop_nj = 0.0;
        st.energy_nj(&m)
    };
    assert!(st.energy_nj(&c.energy) > base);

    // The same access on a single-socket machine reports zero NUMA
    // traffic (counters stay all-zero, keeping JSON goldens identical).
    let mut e1 = CoherenceEngine::new(&cfg(4));
    let mut ctx1 = MockCtx::new();
    e1.access(0, 1, CoreId(0), l, AccessKind::Load, false, true, &mut ctx1);
    run(&mut e1, &mut ctx1);
    assert_eq!(e1.stats().cross_socket_msgs, 0);
    assert_eq!(e1.stats().socket_flit_hops, 0);
}

/// An owner's downgrade reaches the home as a delta, and the home
/// rebuilds the directory entry from it: a read probe to an M owner
/// leaves `Shared({owner, req})` (the owner kept a copy), a write probe
/// leaves `Modified(req)`.
#[test]
fn dir_update_delta_rebuilds_the_directory_entry() {
    let mut e = CoherenceEngine::new(&cfg(4));
    let mut ctx = MockCtx::new();
    let (c0, c1, c2) = (CoreId(0), CoreId(1), CoreId(2));
    // Drain the queue; check the directory right after each DirUpdate
    // lands and return the deltas seen.
    let run_checking = |e: &mut CoherenceEngine, ctx: &mut MockCtx, want: DirState| {
        let mut seen = Vec::new();
        while let Some((t, (at, ev))) = ctx.queue.pop() {
            e.handle(t, at, ev, ctx);
            if let CohEvent::DirUpdate { line, req, kept_by } = ev {
                assert_eq!(e.dir_state(line), Some(want));
                seen.push((req, kept_by));
            }
        }
        seen
    };

    // c0 takes the line in M; c1's load probes it and c0 keeps S.
    e.access(0, 0, c0, L, AccessKind::Store, false, true, &mut ctx);
    run(&mut e, &mut ctx);
    let now = ctx.queue.now();
    e.access(now, 1, c1, L, AccessKind::Load, false, true, &mut ctx);
    let both = DirState::Shared(SharerSet::from_mask(0b11));
    assert_eq!(run_checking(&mut e, &mut ctx, both), [(c1, Some(c0))]);
    assert_eq!(e.dir_state(L), Some(both));
    e.check_invariants();

    // A fresh line: c0 holds it in M, c2's store probes it away.
    let l = LineAddr(L.0 + 1);
    let now = ctx.queue.now();
    e.access(now, 0, c0, l, AccessKind::Store, false, true, &mut ctx);
    run(&mut e, &mut ctx);
    let now = ctx.queue.now();
    e.access(now, 2, c2, l, AccessKind::Store, false, true, &mut ctx);
    let seen = run_checking(&mut e, &mut ctx, DirState::Modified(c2));
    assert_eq!(seen, [(c2, None)]);
    assert_eq!(e.l1_state(c0, l), None);
    assert_eq!(e.l1_state(c2, l), Some(L1State::Modified));
    e.check_invariants();
}
