//! The Figure 5 application workload: CRONO-style lock-based Pagerank
//! whose dangling-page mass is folded under one contended lock, with and
//! without leasing that lock.
//!
//! ```sh
//! cargo run --release --example pagerank
//! ```

use lease_release::apps::{Graph, Pagerank, PagerankVariant};
use lease_release::machine::{program, Machine, SystemConfig, ThreadCtx, ThreadFn};
use std::sync::Arc;

fn run(variant: PagerankVariant, threads: usize, graph: &Arc<Graph>) -> u64 {
    let mut machine = Machine::new(SystemConfig::with_cores(threads));
    let pr = machine.setup(|mem| Pagerank::init(mem, graph, threads, variant));
    let progs: Vec<ThreadFn> = (0..threads)
        .map(|tid| {
            let pr = pr.clone();
            let graph = graph.clone();
            program(async move |ctx: &mut ThreadCtx| {
                pr.run_thread(ctx, &graph, tid, threads, 3).await;
            })
        })
        .collect();
    machine.run(progs).total_cycles
}

fn main() {
    let graph = Arc::new(Graph::synthesize(400, 0.25, 2024));
    println!(
        "web graph: {} nodes, {} edges, {:.0}% dangling pages\n",
        graph.nodes(),
        graph.edges(),
        100.0 * graph.dangling_fraction()
    );
    println!(
        "{:>8} {:>14} {:>14} {:>9}",
        "threads", "base (Mcyc)", "leased (Mcyc)", "speedup"
    );
    for threads in [2usize, 4, 8, 16] {
        let base = run(PagerankVariant::Base, threads, &graph);
        let leased = run(PagerankVariant::Leased, threads, &graph);
        println!(
            "{threads:>8} {:>14.2} {:>14.2} {:>8.2}x",
            base as f64 / 1e6,
            leased as f64 / 1e6,
            base as f64 / leased as f64
        );
    }
    println!(
        "\nThe contended dangling-mass lock throttles the base version as\n\
         threads grow; the leased lock removes the lock-transfer overhead\n\
         (paper Fig. 5: 8x at 32 threads)."
    );
}
