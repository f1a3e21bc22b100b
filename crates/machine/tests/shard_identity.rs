//! Partitioned-engine determinism: the same workload run under 1, 2,
//! and 4 engine partitions must produce byte-identical results — same
//! stats JSON, same recorded trace bytes, same event count, same final
//! memory. The partition count shapes the executor's schedule; it must
//! never select the outcome.

use lr_machine::{program, CommitMode, Machine, SystemConfig, ThreadCtx, ThreadFn};
use lr_sim_core::tracefmt;

/// A contended lease/CAS counter plus FAA side traffic across 8 cores:
/// exercises grants, probes, stalls, expiries, and cross-tile traffic.
fn programs(n: usize, a: lr_sim_core::Addr, b: lr_sim_core::Addr) -> Vec<ThreadFn> {
    (0..n)
        .map(|tid| {
            program(async move |ctx: &mut ThreadCtx| {
                for i in 0..40 {
                    if tid % 2 == 0 {
                        loop {
                            ctx.lease_max(a).await;
                            let v = ctx.read(a).await;
                            let ok = ctx.cas(a, v, v + 1).await;
                            ctx.release(a).await;
                            if ok {
                                break;
                            }
                        }
                    } else {
                        ctx.faa(a, 1).await;
                    }
                    ctx.faa(b, tid as u64 + i).await;
                    ctx.count_op();
                }
            })
        })
        .collect()
}

fn recorded_run(shards: usize) -> (String, Vec<u8>, u64, u64, u64) {
    let mut m = Machine::new(SystemConfig::with_cores(8))
        .with_engine_shards(shards)
        .with_trace(32);
    let a = m.setup(|mem| mem.alloc_line_aligned(8));
    let b = m.setup(|mem| mem.alloc_line_aligned(8));
    let run = m.run_recorded(programs(8, a, b));
    let mem_a = run.mem.read_word(a);
    let mem_b = run.mem.read_word(b);
    (
        run.stats.to_json(),
        tracefmt::encode(&run.trace),
        run.events,
        mem_a,
        mem_b,
    )
}

#[test]
fn shard_counts_1_2_4_are_byte_identical() {
    let base = recorded_run(1);
    for shards in [2usize, 4] {
        let got = recorded_run(shards);
        assert_eq!(got.0, base.0, "stats JSON diverged at {shards} shards");
        assert_eq!(
            got.1, base.1,
            "recorded trace bytes diverged at {shards} shards"
        );
        assert_eq!(got.2, base.2, "event count diverged at {shards} shards");
        assert_eq!(got.3, base.3, "final memory diverged at {shards} shards");
        assert_eq!(got.4, base.4, "final memory diverged at {shards} shards");
    }
}

/// The commit mode selects the *schedule* (one event at a time vs
/// whole safe-window batches per partition), never the outcome: for
/// every shard count, the relaxed executor's merged statistics, event
/// count, and final memory are byte-identical to the sequential
/// lockstep run.
#[test]
fn commit_modes_are_byte_identical_across_shard_counts() {
    let run = |shards: usize, commit: CommitMode| {
        let mut m = Machine::new(SystemConfig::with_cores(8))
            .with_engine_shards(shards)
            .with_commit_mode(commit);
        let a = m.setup(|mem| mem.alloc_line_aligned(8));
        let b = m.setup(|mem| mem.alloc_line_aligned(8));
        let (stats, mem, info) = m.run_counted_info(programs(8, a, b));
        (
            stats.to_json(),
            info.events,
            mem.read_word(a),
            mem.read_word(b),
        )
    };
    let base = run(1, CommitMode::Lockstep);
    for shards in [1usize, 2, 4] {
        for commit in [CommitMode::Lockstep, CommitMode::Relaxed] {
            let got = run(shards, commit);
            assert_eq!(
                got.0, base.0,
                "stats JSON diverged at {shards} shards / {commit} commit"
            );
            assert_eq!(
                got.1, base.1,
                "event count diverged at {shards} shards / {commit} commit"
            );
            assert_eq!(
                (got.2, got.3),
                (base.2, base.3),
                "final memory diverged at {shards} shards / {commit} commit"
            );
        }
    }
}

/// The partitioned executor reports its shape without touching the
/// simulated statistics, and clamps absurd shard counts to the tile
/// count instead of failing.
#[test]
fn engine_info_reports_partition_shape_and_clamps() {
    let run = |shards: usize| {
        let mut m = Machine::new(SystemConfig::with_cores(4)).with_engine_shards(shards);
        let a = m.setup(|mem| mem.alloc_line_aligned(8));
        let progs: Vec<ThreadFn> = (0..4)
            .map(|_| {
                program(async move |ctx: &mut ThreadCtx| {
                    for _ in 0..10 {
                        ctx.faa(a, 1).await;
                        ctx.count_op();
                    }
                })
            })
            .collect();
        m.run_counted_info(progs)
    };
    let (stats1, _, info1) = run(1);
    let (stats64, _, info64) = run(64);
    assert_eq!(info1.shards, 1);
    assert_eq!(info1.cross_events, 0);
    // 64 requested partitions on 4 tiles clamp to 4.
    assert_eq!(info64.shards, 4);
    assert!(info64.lookahead >= 1);
    // Contended FAA traffic between distinct tiles must cross
    // partitions when every tile is its own partition.
    assert!(info64.cross_events > 0);
    assert!(info64.epochs > 0);
    assert_eq!(info1.events, info64.events);
    assert_eq!(stats1.to_json(), stats64.to_json());
}
