//! Workload loops shared by several scenarios (the Treiber stack and
//! Michael–Scott queue sweeps appear in four different paper
//! experiments with different `SystemConfig` tweaks, and both TL2
//! figures share the 2-of-10-objects transaction loop).

use crate::harness::BenchRow;
use crate::scenario::CellCtx;
use lr_ds::{MsQueue, QueueVariant, StackVariant, TreiberStack};
use lr_machine::{program, Machine, SystemConfig, ThreadCtx, ThreadFn};
use lr_stm::{Tl2, Tl2Variant};

/// Alternating push/pop pairs on a shared Treiber stack; `tweak`
/// adjusts the configuration (lease bounds, protocol, prioritization).
pub(crate) fn stack_cell(
    ctx: &CellCtx,
    name: &str,
    variant: StackVariant,
    tweak: impl FnOnce(&mut SystemConfig),
) -> BenchRow {
    let (threads, ops) = (ctx.threads, ctx.ops);
    let mut cfg = SystemConfig::with_cores(threads.max(2));
    tweak(&mut cfg);
    let mut m = ctx.prepare(Machine::new(cfg.clone()));
    let s = m.setup(|mem| TreiberStack::init(mem, variant));
    let progs: Vec<ThreadFn> = (0..threads)
        .map(|_| {
            program(async move |ctx: &mut ThreadCtx| {
                for i in 0..ops {
                    s.push(ctx, i + 1).await;
                    ctx.count_op();
                    s.pop(ctx).await;
                    ctx.count_op();
                }
            })
        })
        .collect();
    let stats = m.run(progs);
    BenchRow::from_stats(name, threads, &cfg, &stats)
}

/// Alternating enqueue/dequeue pairs on a shared Michael–Scott queue.
pub(crate) fn queue_cell(
    ctx: &CellCtx,
    name: &str,
    variant: QueueVariant,
    tweak: impl FnOnce(&mut SystemConfig),
) -> BenchRow {
    let (threads, ops) = (ctx.threads, ctx.ops);
    let mut cfg = SystemConfig::with_cores(threads.max(2));
    tweak(&mut cfg);
    let mut m = ctx.prepare(Machine::new(cfg.clone()));
    let q = m.setup(|mem| MsQueue::init(mem, variant));
    let progs: Vec<ThreadFn> = (0..threads)
        .map(|_| {
            program(async move |ctx: &mut ThreadCtx| {
                for i in 0..ops {
                    q.enqueue(ctx, i + 1).await;
                    ctx.count_op();
                    q.dequeue(ctx).await;
                    ctx.count_op();
                }
            })
        })
        .collect();
    let stats = m.run(progs);
    BenchRow::from_stats(name, threads, &cfg, &stats)
}

/// The paper's TL2 benchmark: transactions modify two randomly chosen
/// objects out of a fixed set of ten. Returns the measured row plus the
/// abort rate (aborts / (aborts + committed ops)).
pub(crate) fn tl2_cell(ctx: &CellCtx, name: &str, variant: Tl2Variant) -> (BenchRow, f64) {
    const NUM_OBJECTS: usize = 10;
    let (threads, ops) = (ctx.threads, ctx.ops);
    let cfg = SystemConfig::with_cores(threads.max(2));
    let mut m = ctx.prepare(Machine::new(cfg.clone()));
    let tl2 = m.setup(|mem| Tl2::init(mem, NUM_OBJECTS, variant));
    let aborts = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
    let progs: Vec<ThreadFn> = (0..threads)
        .map(|_| {
            let tl2 = tl2.clone();
            let aborts = aborts.clone();
            program(async move |ctx: &mut ThreadCtx| {
                let mut local = 0;
                for _ in 0..ops {
                    let i = ctx.rng().gen_range(0..NUM_OBJECTS);
                    let mut j = ctx.rng().gen_range(0..NUM_OBJECTS);
                    while j == i {
                        j = ctx.rng().gen_range(0..NUM_OBJECTS);
                    }
                    local += tl2.transact_pair(ctx, i, j, 1).await.aborts;
                    ctx.count_op();
                }
                aborts.fetch_add(local, std::sync::atomic::Ordering::Relaxed);
            })
        })
        .collect();
    let stats = m.run(progs);
    let total_aborts = aborts.load(std::sync::atomic::Ordering::Relaxed);
    let abort_rate = total_aborts as f64 / (total_aborts + stats.app_ops) as f64;
    (
        BenchRow::from_stats(name, threads, &cfg, &stats),
        abort_rate,
    )
}
