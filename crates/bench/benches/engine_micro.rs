//! Microbenchmarks of the simulator itself: event-queue throughput,
//! coherence-transaction latency, and full-machine instruction
//! round-trip cost. These track the *simulator's* host-side
//! performance (how many simulated events/ops per wall second), not any
//! paper result.
//!
//! Hand-rolled timing harness (median of N timed runs after warmup) so
//! the workspace carries no external benchmarking dependency.

use lr_machine::{program, Machine, SystemConfig, ThreadCtx, ThreadFn};
use lr_sim_core::EventQueue;
use std::hint::black_box;
use std::time::Instant;

/// Run `f` `warmup + samples` times; report the median timed run.
fn bench<R>(name: &str, samples: usize, mut f: impl FnMut() -> R) {
    for _ in 0..2 {
        black_box(f());
    }
    let mut times: Vec<u128> = (0..samples)
        .map(|_| {
            let t0 = Instant::now();
            black_box(f());
            t0.elapsed().as_nanos()
        })
        .collect();
    times.sort_unstable();
    let median = times[times.len() / 2];
    println!(
        "{name:<40} median {:>12.3} us  (n={samples})",
        median as f64 / 1000.0
    );
}

fn bench_event_queue() {
    bench("event_queue_push_pop_1k", 50, || {
        let mut q = EventQueue::new();
        for i in 0..1000u64 {
            q.push_at(i * 7 % 997, i);
        }
        let mut sum = 0u64;
        while let Some((_, v)) = q.pop() {
            sum = sum.wrapping_add(v);
        }
        sum
    });
}

fn bench_machine_roundtrip() {
    bench("machine_1_thread_1k_cached_reads", 10, || {
        let mut m = Machine::new(SystemConfig::with_cores(1));
        let a = m.setup(|mem| mem.alloc_line_aligned(8));
        let stats = m.run(vec![program(async move |ctx: &mut ThreadCtx| {
            for _ in 0..1000 {
                black_box(ctx.read(a).await);
            }
        })]);
        stats.total_cycles
    });
}

fn bench_contended_transactions() {
    bench("machine_4_threads_contended_faa", 10, || {
        let mut m = Machine::new(SystemConfig::with_cores(4));
        let a = m.setup(|mem| mem.alloc_line_aligned(8));
        let progs: Vec<ThreadFn> = (0..4)
            .map(|_| {
                program(async move |ctx: &mut ThreadCtx| {
                    for _ in 0..100 {
                        ctx.faa(a, 1).await;
                    }
                })
            })
            .collect();
        m.run(progs).total_cycles
    });
}

fn main() {
    bench_event_queue();
    bench_machine_roundtrip();
    bench_contended_transactions();
}
