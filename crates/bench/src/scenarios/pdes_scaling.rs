//! Host throughput of the partitioned (PDES) engine executor: how many
//! discrete events per wall-clock second the simulator retires under
//! each commit mode — `lockstep` (one event at a time in global
//! `(time, key)` order) vs `relaxed` (whole safe-window batches
//! committed concurrently across host threads) — at 1, 2, or 4
//! conservatively-synchronized partitions. Not a paper figure — this
//! guards the executors' constant factors and the relaxed mode's
//! commit-batch occupancy.
//!
//! Each series pins one (commit mode × partition count) via
//! [`Machine::with_commit_mode`] and [`Machine::with_engine_shards`];
//! the workload (a contended FAA line plus per-thread private traffic)
//! is identical across series, so the simulated results must be too.
//! Every non-baseline cell re-runs the same workload single-partition
//! lockstep and asserts the `MachineStats` JSON and final memory are
//! byte-identical — the determinism contract is checked inside the
//! bench itself, not just by CI diffing. Relaxed cells additionally
//! assert the batch executor really engaged: at least one commit batch
//! per partition and an average batch occupancy above one event —
//! the whole point of window batching is committing more than one
//! event per handoff.
//!
//! Rows report wall-clock *engine events/s* (in Mops units) — the PDES
//! scaling metric — and the `CSVX` extras carry the executor's shape:
//! cross-partition events, concurrently-safe events, epoch/window
//! count, commit batches, the largest batch, average batch occupancy,
//! and the NoC-derived lookahead. Numbers are host-dependent by
//! nature; sim results are not.

use crate::harness::BenchRow;
use crate::scenario::{CellCtx, CellOut, Scenario, ScenarioKind};
use lr_machine::{
    program, CommitMode, EngineInfo, Machine, MachineStats, SystemConfig, ThreadCtx, ThreadFn,
};
use std::time::Instant;

pub static SCENARIO: Scenario = Scenario {
    name: "pdes_scaling",
    title: "PDES engine scaling",
    paper_ref: "infrastructure",
    series: &["lockstep-1", "lockstep-4", "relaxed-2", "relaxed-4"],
    default_ops: 4_000,
    ops_env: Some("LR_PDES_OPS"),
    kind: ScenarioKind::HostLockstep,
    run_cell,
    annotate: None,
    footer: Some(
        "Wall-clock event throughput of the conservatively-synchronized\n\
         partitioned executor (host-dependent, not byte-reproducible).\n\
         lockstep commits one event at a time in global order; relaxed\n\
         commits whole safe-window batches concurrently. Simulated\n\
         stats are asserted byte-identical across every series inside\n\
         the cells; batch_occupancy (events per commit batch) is the\n\
         parallelism the windows actually expose.",
    ),
};

/// (commit mode, partition count) for each series index.
const MODES: [(CommitMode, usize); 4] = [
    (CommitMode::Lockstep, 1),
    (CommitMode::Lockstep, 4),
    (CommitMode::Relaxed, 2),
    (CommitMode::Relaxed, 4),
];

/// One deterministic run of the scenario workload under `shards`
/// engine partitions committing in `commit` mode.
fn simulate(
    ctx: &CellCtx,
    threads: usize,
    ops: u64,
    commit: CommitMode,
    shards: usize,
    record: bool,
    uniform: bool,
) -> (MachineStats, u64, EngineInfo) {
    // At least 4 tiles so the 4-partition series genuinely partitions.
    let cfg = SystemConfig::with_cores(threads.max(4));
    let mut m = Machine::new(cfg)
        .with_engine_shards(shards)
        .with_commit_mode(commit);
    if uniform {
        // A/B reference: fall back to the scalar (worst-pair) lookahead
        // instead of the distance-aware per-partition-pair matrix.
        m = m.with_uniform_lookahead();
    }
    if record {
        // Only the measured run records; the in-cell reference run
        // would otherwise write a second trace under the same label.
        m = ctx.prepare(m);
    }
    let lines = m.setup(|mem| {
        (0..threads.max(1) + 1)
            .map(|_| mem.alloc_line_aligned(8))
            .collect::<Vec<_>>()
    });
    let shared = lines[0];
    let progs: Vec<ThreadFn> = (0..threads)
        .map(|tid| {
            let own = lines[tid + 1];
            program(async move |ctx: &mut ThreadCtx| {
                // 3:1 contended-to-private mix: plenty of cross-tile
                // directory traffic (the mailbox-heavy regime) with
                // enough local work that partitions have independent
                // event streams.
                for i in 0..ops {
                    if i % 4 == 3 {
                        ctx.write(own, i).await;
                    } else {
                        ctx.faa(shared, 1).await;
                    }
                    ctx.count_op();
                }
            })
        })
        .collect();
    let (stats, mem, info) = m.run_counted_info(progs);
    (stats, mem.read_word(shared), info)
}

/// FNV-1a 64 over the stats JSON: a short row-embeddable fingerprint
/// that every (commit mode × shard count) must agree on.
fn fingerprint(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn run_cell(ctx: &CellCtx) -> CellOut {
    let (series, threads, ops) = (ctx.series, ctx.threads, ctx.ops);
    let (commit, shards) = MODES[series];
    let t0 = Instant::now();
    let (stats, counter, info) = simulate(ctx, threads, ops, commit, shards, true, false);
    let wall = t0.elapsed().as_secs_f64().max(1e-9);
    let json = stats.to_json();
    if series > 0 {
        // The determinism contract, checked in-cell: neither the
        // partition count nor the commit mode may be visible in any
        // simulated observable.
        let (ref_stats, ref_counter, ref_info) =
            simulate(ctx, threads, ops, CommitMode::Lockstep, 1, false, false);
        assert_eq!(
            json,
            ref_stats.to_json(),
            "stats diverged between {}/shards-{shards} and lockstep/shards-1",
            commit,
        );
        assert_eq!(
            counter, ref_counter,
            "memory diverged at {commit}/shards-{shards}"
        );
        assert_eq!(info.events, ref_info.events, "event count diverged");
    }
    let occupancy = if info.commit_batches > 0 {
        info.events as f64 / info.commit_batches as f64
    } else {
        0.0
    };
    if commit == CommitMode::Relaxed {
        // The batch executor must actually engage on this contended
        // workload: batches exist and average more than one event.
        assert!(
            info.commit_batches > 0,
            "relaxed run committed no window batches"
        );
        // Occupancy above one event per batch is only guaranteed when
        // the run genuinely partitions and is long enough to open real
        // safe windows: the shard count clamps to 1 on small hosts, and
        // tiny smoke configs (e.g. `--smoke`'s 8 ops) can legitimately
        // commit mostly singleton batches. Guarding by shape keeps the
        // assert meaningful without tripping spuriously.
        if info.shards > 1 && threads >= 2 && ops >= 64 {
            assert!(
                occupancy > 1.0,
                "relaxed commit-batch occupancy {occupancy:.2} <= 1 event/batch \
                 ({} events in {} batches)",
                info.events,
                info.commit_batches
            );
        }
    }
    // Distance-aware pair-lookahead A/B: re-run relaxed multi-partition
    // cells with the scalar (worst-pair) lookahead and report the
    // commit-batch occupancy gain the per-pair matrix buys. Simulated
    // results must be identical either way — lookahead only reshapes
    // the safe windows, never the event order observables.
    let mut pair_gain = String::new();
    if commit == CommitMode::Relaxed && info.shards > 1 {
        let (u_stats, u_counter, u_info) = simulate(ctx, threads, ops, commit, shards, false, true);
        assert_eq!(
            json,
            u_stats.to_json(),
            "stats diverged between pair and uniform lookahead"
        );
        assert_eq!(
            counter, u_counter,
            "memory diverged under uniform lookahead"
        );
        let u_occ = if u_info.commit_batches > 0 {
            u_info.events as f64 / u_info.commit_batches as f64
        } else {
            0.0
        };
        let gain = if u_occ > 0.0 { occupancy / u_occ } else { 1.0 };
        pair_gain = format!(",uniform_occupancy,{u_occ:.2},pair_occupancy_gain,{gain:.3}");
    }
    let events_per_sec = info.events as f64 / wall;
    let mut cell = CellOut::row(BenchRow::host_only(
        SCENARIO.series[series],
        threads,
        events_per_sec / 1e6,
    ));
    cell.post.push(format!(
        "CSVX,pdes_scaling,{},{},sim_events_per_sec,{:.0},events,{},commit,{},shards,{},\
         cross_events,{},concurrent_events,{},epochs,{},commit_batches,{},max_batch,{},\
         batch_occupancy,{:.2},lookahead,{},stats_fp,{:016x},wall_secs,{:.4}{}",
        SCENARIO.series[series],
        threads,
        events_per_sec,
        info.events,
        commit,
        info.shards,
        info.cross_events,
        info.concurrent_events,
        info.epochs,
        info.commit_batches,
        info.max_batch,
        occupancy,
        info.lookahead,
        fingerprint(&json),
        wall,
        pair_gain
    ));
    cell
}
