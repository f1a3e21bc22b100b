//! Quickstart: build a simulated multicore, run a contended counter with
//! and without Lease/Release, and compare the statistics.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use lease_release::machine::{program, Machine, SystemConfig, ThreadCtx, ThreadFn};

fn run(threads: usize, leased: bool) -> lease_release::machine::MachineStats {
    let cfg = SystemConfig::with_cores(threads);
    let mut machine = Machine::new(cfg);

    // Allocate shared state in simulated memory (cache-line aligned so
    // the counter never false-shares with anything else).
    let counter = machine.setup(|mem| mem.alloc_line_aligned(8));

    // Each thread increments the shared counter via a read–CAS loop —
    // the canonical contended pattern from Figure 1 of the paper.
    let progs: Vec<ThreadFn> = (0..threads)
        .map(|_| {
            program(async move |ctx: &mut ThreadCtx| {
                for _ in 0..200 {
                    loop {
                        if leased {
                            // Lease the line for the read–CAS window...
                            ctx.lease_max(counter).await;
                        }
                        let v = ctx.read(counter).await;
                        // "Compute" the new value: the longer the window
                        // between the read and the CAS, the more the CAS
                        // fails under contention — and the more the lease
                        // helps.
                        ctx.work(64);
                        let ok = ctx.cas(counter, v, v + 1).await;
                        if leased {
                            // ... and release it right after the CAS.
                            ctx.release(counter).await;
                        }
                        if ok {
                            break;
                        }
                    }
                    ctx.count_op();
                }
            })
        })
        .collect();

    machine.run(progs)
}

fn main() {
    let threads = 16;
    println!("{}\n", SystemConfig::with_cores(threads).table1());

    let base = run(threads, false);
    let leased = run(threads, true);

    for (name, s) in [("base", &base), ("leased", &leased)] {
        let t = s.core_totals();
        println!(
            "{name:>7}: {:>8.2} Mops/s | CAS failures {:>5.1}% | {:.2} misses/op | {:.2} msgs/op",
            s.throughput_ops_per_sec(1.0) / 1e6,
            100.0 * t.cas_failures as f64 / t.cas_attempts.max(1) as f64,
            s.misses_per_op(),
            s.messages_per_op(),
        );
    }
    let speedup = leased.throughput_ops_per_sec(1.0) / base.throughput_ops_per_sec(1.0).max(1e-9);
    println!("\nLease/Release speedup at {threads} threads: {speedup:.2}x");
}
