//! The paper's running example (Figures 1–2): Treiber's stack under
//! 100% updates, base vs. backoff vs. leased, across thread counts.
//!
//! ```sh
//! cargo run --release --example contended_stack
//! ```

use lease_release::ds::{StackVariant, TreiberStack};
use lease_release::machine::{program, Machine, SystemConfig, ThreadCtx, ThreadFn};

fn run(variant: StackVariant, threads: usize) -> f64 {
    let mut machine = Machine::new(SystemConfig::with_cores(threads.max(2)));
    let stack = machine.setup(|mem| TreiberStack::init(mem, variant));
    let progs: Vec<ThreadFn> = (0..threads)
        .map(|_| {
            program(async move |ctx: &mut ThreadCtx| {
                for i in 0..150 {
                    stack.push(ctx, i + 1).await;
                    ctx.count_op();
                    stack.pop(ctx).await;
                    ctx.count_op();
                }
            })
        })
        .collect();
    machine.run(progs).throughput_ops_per_sec(1.0) / 1e6
}

fn main() {
    println!("Treiber stack, 100% updates (Mops/s):\n");
    println!(
        "{:>8} {:>12} {:>12} {:>12}",
        "threads", "base", "backoff", "leased"
    );
    for threads in [1usize, 2, 4, 8, 16] {
        let base = run(StackVariant::Base, threads);
        let backoff = run(StackVariant::Backoff, threads);
        let leased = run(StackVariant::Leased, threads);
        println!("{threads:>8} {base:>12.2} {backoff:>12.2} {leased:>12.2}");
    }
    println!(
        "\nExpected shape (paper Fig. 2): base collapses under contention,\n\
         backoff helps a little, leases keep scaling."
    );
}
