//! Protocol fuzzing: random access interleavings (with and without
//! leases) must always terminate, preserve single-writer/sharer-mask
//! invariants at quiescence, and never delay a probe longer than the
//! lease bound (Propositions 1–2). Driven by the in-tree [`SplitMix64`]
//! generator so every case replays from its loop index.

use lr_coherence::*;
use lr_sim_core::{CoreId, Cycle, EventQueue, LineAddr, SplitMix64, SystemConfig};
use std::collections::HashSet;

struct FuzzCtx {
    queue: EventQueue<(CoreId, CohEvent)>,
    completions: Vec<(u64, Cycle)>,
    leased: HashSet<(CoreId, LineAddr)>,
    granted_leases: Vec<(CoreId, LineAddr, Cycle)>,
}

impl CohContext for FuzzCtx {
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
        _regular: bool,
        _now: Cycle,
    ) -> ProbeAction {
        if self.leased.contains(&(owner, line)) {
            ProbeAction::Queue
        } else {
            ProbeAction::Proceed
        }
    }
    fn exclusive_granted(&mut self, core: CoreId, line: LineAddr, now: Cycle) {
        self.granted_leases.push((core, line, now));
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
        self.leased.remove(&(core, line));
    }
}

#[derive(Debug, Clone, Copy)]
struct FuzzOp {
    core: u8,
    line: u8,
    kind_sel: u8,
    lease: bool,
}

/// The shape of one family of fuzz cases.
struct Shape {
    /// Range of simulated core counts.
    cores: std::ops::Range<usize>,
    /// Distinct lines the ops touch.
    lines: u8,
    /// Probability that an op is a load (`None`: loads, stores and
    /// RMWs equally likely).
    load_p: Option<f64>,
    /// Most ops per case.
    max_ops: usize,
}

fn random_op(rng: &mut SplitMix64, shape: &Shape) -> FuzzOp {
    FuzzOp {
        core: rng.gen_range(0u8..=u8::MAX),
        line: rng.gen_range(0u8..shape.lines),
        kind_sel: match shape.load_p {
            None => rng.gen_range(0u8..3),
            Some(p) if rng.gen_bool(p) => 0,
            Some(_) => rng.gen_range(1u8..3),
        },
        lease: rng.gen_bool(0.5),
    }
}

/// Run one random case to quiescence and check every invariant. Returns
/// whether the directory ever recorded a sharer set spanning two 64-core
/// windows (a spilled set).
fn run_case(seed: u64, shape: &Shape) -> bool {
    let mut rng = SplitMix64::new(seed);
    let nops = rng.gen_range(1usize..shape.max_ops);
    let ops: Vec<FuzzOp> = (0..nops).map(|_| random_op(&mut rng, shape)).collect();
    let cores = rng.gen_range(shape.cores.clone());
    let mesi = rng.gen_bool(0.5);

    let mut cfg = SystemConfig::with_cores(cores);
    if mesi {
        cfg.protocol = lr_sim_core::CoherenceProtocol::Mesi;
    }
    let max_lease: Cycle = 400;
    let mut engine = CoherenceEngine::new(&cfg);
    let mut ctx = FuzzCtx {
        queue: EventQueue::new(),
        completions: Vec::new(),
        leased: HashSet::new(),
        granted_leases: Vec::new(),
    };
    let mut issued = 0u64;
    let mut spanned = false;

    for op in ops {
        let core = CoreId((op.core as usize % cores) as u16);
        let line = LineAddr(1000 + op.line as u64);
        let kind = match op.kind_sel {
            0 => AccessKind::Load,
            1 => AccessKind::Store,
            _ => AccessKind::Rmw,
        };
        let lease = op.lease && kind.needs_exclusive();
        // Release any lease this core already holds on the line (one
        // outstanding lease per (core, line) in this fuzz).
        let now = ctx.queue.now();
        let held: Vec<(CoreId, LineAddr)> = ctx
            .leased
            .iter()
            .copied()
            .filter(|&(c, _)| c == core)
            .collect();
        for (c, l) in held {
            ctx.leased.remove(&(c, l));
            engine.lease_released(now, c, l, &mut ctx);
        }
        let now = ctx.queue.now();
        if engine
            .access(now, issued, core, line, kind, lease, !lease, &mut ctx)
            .is_some()
        {
            // hit — completion immediate
        }
        issued += 1;
        // Drive to quiescence, arming leases as they are granted and
        // expiring them after max_lease cycles.
        loop {
            for (c, l, _) in ctx.granted_leases.drain(..) {
                ctx.leased.insert((c, l));
                engine.pin(c, l, true);
                // Schedule a forced expiry via a dummy unlock event:
                // we emulate expiry below instead.
            }
            let Some((t, (at, ev))) = ctx.queue.pop() else {
                break;
            };
            engine.handle(t, at, ev, &mut ctx);
            // Emulate lease expiry: if a probe stalls, release the
            // lease after the bound.
            let stalled: Vec<(CoreId, LineAddr)> = ctx
                .leased
                .iter()
                .copied()
                .filter(|&(c, l)| engine.has_stalled_probe(c, l))
                .collect();
            for (c, l) in stalled {
                let exp = ctx.queue.now() + max_lease;
                ctx.leased.remove(&(c, l));
                engine.lease_released(exp.max(ctx.queue.now()), c, l, &mut ctx);
            }
        }
        let sharers = engine.dir_sharers(line);
        spanned |= sharers.first().map(|c| c.idx() / 64) != sharers.last().map(|c| c.idx() / 64);
    }
    // Final cleanup: release all leases and drain.
    let now = ctx.queue.now();
    let all: Vec<(CoreId, LineAddr)> = ctx.leased.drain().collect();
    for (c, l) in all {
        engine.lease_released(now, c, l, &mut ctx);
    }
    while let Some((t, (at, ev))) = ctx.queue.pop() {
        engine.handle(t, at, ev, &mut ctx);
    }
    assert_eq!(engine.in_flight(), 0, "seed {seed:#x}: transactions leaked");
    assert_eq!(
        ctx.completions.len() as u64 + engine.stats().core_totals().l1_hits,
        issued,
        "seed {seed:#x}"
    );
    engine.check_invariants();
    spanned
}

#[test]
fn random_interleavings_preserve_invariants() {
    let shape = Shape {
        cores: 2..9,
        lines: 24,
        load_p: None,
        max_ops: 120,
    };
    for case in 0..64u64 {
        run_case(0xf022_0000 + case, &shape);
    }
}

/// Past 64 cores a sharer set spanning two 64-core windows spills to
/// its home tile's slab. Heavy read sharing of a few lines drives sets
/// across the window boundary, and the writes in between invalidate
/// (and free) them, so the spill, reuse and release paths all run
/// under the quiescence checks, including the no-leaked-slot check.
#[test]
fn wide_read_sharing_spills_exactly() {
    let shape = Shape {
        cores: 65..131,
        lines: 3,
        load_p: Some(0.9),
        max_ops: 400,
    };
    let spanned = (0..24u64)
        .filter(|&case| run_case(0x5b11_0000 + case, &shape))
        .count();
    assert!(
        spanned >= 12,
        "only {spanned}/24 cases spilled a sharer set"
    );
}
