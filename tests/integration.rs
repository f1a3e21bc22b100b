//! Cross-crate integration tests: full-machine runs exercising the whole
//! stack (lease tables → coherence → machine → data structures → apps)
//! through the façade crate, plus determinism and misuse/failure
//! injection from the paper's "Observations and Limitations".

use lease_release::apps::{CounterBench, CounterLockKind, Graph, Pagerank, PagerankVariant};
use lease_release::ds::{MsQueue, QueueVariant, StackVariant, TreiberStack};
use lease_release::machine::{program, Machine, SystemConfig, ThreadCtx, ThreadFn};
use lease_release::stm::{Tl2, Tl2Variant};

fn cfg(cores: usize) -> SystemConfig {
    SystemConfig::with_cores(cores)
}

/// The paper's headline claim, end to end: under contention, adding
/// leases to the Treiber stack must improve throughput substantially and
/// keep misses/op roughly constant.
#[test]
fn leases_speed_up_contended_stack() {
    let run = |variant: StackVariant| {
        let threads = 8;
        let mut m = Machine::new(cfg(threads));
        let s = m.setup(|mem| TreiberStack::init(mem, variant));
        let progs: Vec<ThreadFn> = (0..threads)
            .map(|_| {
                program(async move |ctx: &mut ThreadCtx| {
                    for i in 0..60 {
                        s.push(ctx, i + 1).await;
                        ctx.count_op();
                        s.pop(ctx).await;
                        ctx.count_op();
                    }
                })
            })
            .collect();
        m.run(progs)
    };
    let base = run(StackVariant::Base);
    let lease = run(StackVariant::Leased);
    let tb = base.throughput_ops_per_sec(1.0);
    let tl = lease.throughput_ops_per_sec(1.0);
    assert!(
        tl > tb * 1.5,
        "lease speedup too small: base {tb:.0} vs lease {tl:.0}"
    );
    assert_eq!(lease.core_totals().cas_failures, 0);
    assert!(lease.misses_per_op() < base.misses_per_op());
}

/// Leases must not hurt the uncontended single-thread case (§7: "In
/// scenarios with no contention, leases do not affect overall throughput
/// in a discernible way").
#[test]
fn leases_do_not_hurt_uncontended() {
    let run = |variant: StackVariant| {
        let mut m = Machine::new(cfg(2));
        let s = m.setup(|mem| TreiberStack::init(mem, variant));
        let progs: Vec<ThreadFn> = vec![program(async move |ctx: &mut ThreadCtx| {
            for i in 0..120 {
                s.push(ctx, i + 1).await;
                ctx.count_op();
                s.pop(ctx).await;
                ctx.count_op();
            }
        })];
        m.run(progs).throughput_ops_per_sec(1.0)
    };
    let base = run(StackVariant::Base);
    let lease = run(StackVariant::Leased);
    assert!(
        lease > base * 0.85,
        "uncontended lease overhead too large: {base:.0} vs {lease:.0}"
    );
}

/// Same-seed determinism across the full stack.
#[test]
fn full_stack_determinism() {
    let run = || {
        let threads = 6;
        let mut m = Machine::new(cfg(threads));
        let q = m.setup(|mem| MsQueue::init(mem, QueueVariant::Leased));
        let progs: Vec<ThreadFn> = (0..threads)
            .map(|_| {
                program(async move |ctx: &mut ThreadCtx| {
                    for _ in 0..40 {
                        let v: u64 = ctx.rng().gen_range(1..1000);
                        q.enqueue(ctx, v).await;
                        q.dequeue(ctx).await;
                        ctx.count_op();
                    }
                })
            })
            .collect();
        m.run(progs).summary()
    };
    assert_eq!(run(), run());
}

/// Misuse injection (§7 "Observations and Limitations"): a thread that
/// leases the lock line *and keeps the lease while spinning on an owned
/// lock* delays the owner. The run must still terminate (bounded leases)
/// and show involuntary releases.
#[test]
fn misuse_holding_lease_on_owned_lock_still_terminates() {
    let mut config = cfg(3);
    config.lease.max_lease_time = 1_000;
    let mut m = Machine::new(config);
    let (lock, data) = m.setup(|mem| (mem.alloc_line_aligned(8), mem.alloc_line_aligned(8)));
    let mut progs: Vec<ThreadFn> = Vec::new();
    // Thread 0 takes the lock WITHOUT leases (so the bad leasers below
    // can be granted the line while the lock is held — when everyone
    // leases, the implicit FIFO queue hands the line over only at
    // unlocks and the bad pattern is never even exposed).
    progs.push(program(async move |ctx: &mut ThreadCtx| {
        for _ in 0..15 {
            while ctx.xchg(lock, 1).await != 0 {
                ctx.work(16);
            }
            let v = ctx.read(data).await;
            ctx.work(400);
            ctx.write(data, v + 1).await;
            ctx.write(lock, 0).await;
            ctx.count_op();
        }
    }));
    for _ in 1..3 {
        progs.push(program(async move |ctx: &mut ThreadCtx| {
            for _ in 0..15 {
                // BAD pattern: lease, fail to acquire, DO NOT release —
                // the owner's unlock store now stalls until our lease
                // expires.
                loop {
                    ctx.lease(lock, 1_000).await;
                    if ctx.xchg(lock, 1).await == 0 {
                        break;
                    }
                    ctx.work(50); // spin on the leased line
                }
                let v = ctx.read(data).await;
                ctx.work(400);
                ctx.write(data, v + 1).await;
                ctx.write(lock, 0).await;
                ctx.release(lock).await;
                ctx.count_op();
            }
        }));
    }
    let (stats, mem) = m.run_with_memory(progs);
    assert_eq!(mem.read_word(data), 45, "mutual exclusion broken");
    assert!(
        stats.core_totals().releases_involuntary > 0,
        "the bad pattern must cause involuntary releases"
    );
}

/// Failure injection: a tiny MAX_LEASE_TIME forces involuntary releases
/// mid-critical-pattern; the structures must stay correct (lease usage is
/// advisory — early release never affects safety).
#[test]
fn tiny_lease_time_preserves_correctness() {
    let mut config = cfg(6);
    config.lease.max_lease_time = 60; // expires before most CS finish
    let threads = 6;
    let per = 25u64;
    let mut m = Machine::new(config);
    let bench = m.setup(|mem| CounterBench::init(mem, CounterLockKind::TtsLeased));
    let progs: Vec<ThreadFn> = (0..threads)
        .map(|_| {
            program(async move |ctx: &mut ThreadCtx| {
                bench.run_thread(ctx, per).await;
            })
        })
        .collect();
    let (stats, mem) = m.run_with_memory(progs);
    assert_eq!(mem.read_word(bench.counter_addr()), per * threads as u64);
    assert!(stats.core_totals().releases_involuntary > 0);
}

/// False-sharing injection (§7): two hot variables deliberately placed on
/// the SAME cache line, leased by different threads. Forward progress is
/// guaranteed by lease expiry; the final values must still be exact.
#[test]
fn false_sharing_leases_still_make_progress() {
    let mut config = cfg(4);
    config.lease.max_lease_time = 500;
    let mut m = Machine::new(config);
    // One line, two words — intentionally violating the paper's
    // cache-aligned-allocation advice.
    let line = m.setup(|mem| mem.alloc_line_aligned(16));
    let a = line;
    let b = line.offset(8);
    let per = 30u64;
    let progs: Vec<ThreadFn> = (0..4)
        .map(|tid| {
            let target = if tid % 2 == 0 { a } else { b };
            program(async move |ctx: &mut ThreadCtx| {
                for _ in 0..per {
                    loop {
                        ctx.lease(target, 400).await;
                        let v = ctx.read(target).await;
                        let ok = ctx.cas(target, v, v + 1).await;
                        ctx.release(target).await;
                        if ok {
                            break;
                        }
                    }
                }
            })
        })
        .collect();
    let (_, mem) = m.run_with_memory(progs);
    assert_eq!(mem.read_word(a), 2 * per);
    assert_eq!(mem.read_word(b), 2 * per);
}

/// TL2 transactions through the façade: money conservation under the
/// hardware MultiLease variant.
#[test]
fn tl2_multilease_conserves_sum() {
    let threads = 6;
    let per = 20u64;
    let mut m = Machine::new(cfg(threads));
    let tl2 = m.setup(|mem| Tl2::init(mem, 10, Tl2Variant::HwMultiLease));
    let tl2_audit = tl2.clone();
    let progs: Vec<ThreadFn> = (0..threads)
        .map(|tid| {
            let tl2 = tl2.clone();
            let tl2_audit = tl2_audit.clone();
            program(async move |ctx: &mut ThreadCtx| {
                for _ in 0..per {
                    let i = ctx.rng().gen_range(0..10);
                    let mut j = ctx.rng().gen_range(0..10);
                    while j == i {
                        j = ctx.rng().gen_range(0..10);
                    }
                    tl2.transact_pair(ctx, i, j, 1).await;
                }
                if tid == 0 {
                    loop {
                        let mut total = 0u64;
                        for k in 0..10 {
                            total += tl2_audit.read_committed(ctx, k).await;
                        }
                        if total == 2 * per * threads as u64 {
                            break;
                        }
                        ctx.work(500);
                    }
                }
            })
        })
        .collect();
    m.run(progs);
}

/// Pagerank through the façade: base and leased variants produce the
/// *same* rank vector (the lease changes timing, never results).
#[test]
fn pagerank_lease_is_semantically_transparent() {
    let graph = std::sync::Arc::new(Graph::synthesize(120, 0.25, 9));
    let ranks = |variant: PagerankVariant| {
        let threads = 4;
        let mut m = Machine::new(cfg(threads));
        let pr = m.setup(|mem| Pagerank::init(mem, &graph, threads, variant));
        let pr2 = pr.clone();
        let progs: Vec<ThreadFn> = (0..threads)
            .map(|tid| {
                let pr = pr.clone();
                let graph = graph.clone();
                program(async move |ctx: &mut ThreadCtx| {
                    pr.run_thread(ctx, &graph, tid, threads, 3).await;
                })
            })
            .collect();
        let (_, mem) = m.run_with_memory(progs);
        pr2.total_rank(&mem)
    };
    let base = ranks(PagerankVariant::Base);
    let leased = ranks(PagerankVariant::Leased);
    assert_eq!(base, leased, "lease changed the computed ranks");
}

/// Proposition 2 bound, measured end to end: no probe ever waits longer
/// than MAX_LEASE_TIME behind a lease.
#[test]
fn probe_delay_bounded_by_max_lease_time() {
    let mut config = cfg(4);
    config.lease.max_lease_time = 800;
    let mut m = Machine::new(config);
    let a = m.setup(|mem| mem.alloc_line_aligned(8));
    let progs: Vec<ThreadFn> = (0..4)
        .map(|_| {
            program(async move |ctx: &mut ThreadCtx| {
                for _ in 0..20 {
                    // Hold each lease to expiry (worst case).
                    ctx.lease(a, 800).await;
                    ctx.write(a, 1).await;
                    ctx.work(3_000);
                }
            })
        })
        .collect();
    let stats = m.run(progs);
    let t = stats.core_totals();
    assert!(t.probes_queued > 0, "expected queued probes");
    // Average queued delay must respect the bound (with slack for the
    // service latency after release).
    let avg = t.probe_queued_cycles as f64 / t.probes_queued as f64;
    assert!(
        avg <= 800.0 + 200.0,
        "average probe delay {avg} exceeds MAX_LEASE_TIME"
    );
}

/// Cross-runtime determinism regression: golden statistics pinned
/// across scheduler rewrites. The in-thread coroutine runtime (and any
/// future scheduling change) must reproduce these *exact* numbers —
/// simulated results are a function of the event order alone, never of
/// how workloads are resumed. (Re-captured when canonical per-tile
/// event keys changed same-cycle tie-breaking and allocator ops began
/// to ride a NoC round trip to the allocator home tile — both
/// *simulated-timing* changes.)
///
/// Checks the wheel-backed tile queue against the goldens, proving it
/// keeps the exact `(time, key)` event order they were captured under.
#[test]
fn scheduler_change_preserves_golden_stats() {
    let run = || {
        let threads = 8;
        let mut m = Machine::new(cfg(threads));
        let s = m.setup(|mem| TreiberStack::init(mem, StackVariant::Leased));
        let progs: Vec<ThreadFn> = (0..threads)
            .map(|_| {
                program(async move |ctx: &mut ThreadCtx| {
                    for i in 0..60 {
                        s.push(ctx, i + 1).await;
                        ctx.count_op();
                        s.pop(ctx).await;
                        ctx.count_op();
                    }
                })
            })
            .collect();
        m.run(progs)
    };
    let stats = run();
    assert_eq!(stats.total_cycles, 19_829);
    assert_eq!(stats.app_ops, 960);
    assert_eq!(stats.msgs_control, 3_802);
    assert_eq!(stats.msgs_data, 1_191);
    assert_eq!(stats.flit_hops, 24_725);
    assert_eq!(stats.dir_queue_wait_cycles, 34_058);
    assert_eq!(stats.max_dir_queue_len, 7);
    let t = stats.core_totals();
    assert_eq!(t.instructions, 6_240);
    assert_eq!(t.l1_hits, 3_609);
    assert_eq!(t.l1_misses, 1_191);
    assert_eq!(t.l1_writebacks, 710);
    assert_eq!(t.loads, 1_920);
    assert_eq!(t.stores, 960);
    assert_eq!(t.cas_attempts, 960);
    assert_eq!(t.cas_failures, 0);
    assert_eq!(t.mem_stall_cycles, 137_489);
    assert_eq!(t.leases_taken, 960);
    assert_eq!(t.releases_voluntary, 960);
    assert_eq!(t.probes_received, 710);
    assert_eq!(t.probes_queued, 589);
    assert_eq!(t.probe_queued_cycles, 3_971);
    // And the whole document, not just the spot checks, is stable
    // run to run.
    assert_eq!(run().to_json(), run().to_json());
}
