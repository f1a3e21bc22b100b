//! Failure report demo: deliberately livelock the machine and print the
//! structured report it produces — the trace window, the coherence
//! engine's in-flight state, every lease table, and the pending ops.
//!
//! ```sh
//! cargo run --release --example failure_report
//! ```

use lease_release::machine::{program, Machine, SystemConfig, ThreadCtx, ThreadFn};

fn main() {
    let mut cfg = SystemConfig::with_cores(2);
    // Tight watchdog so the demo trips quickly; the default is ~50 s of
    // simulated time.
    cfg.watchdog_max_cycles = 20_000;

    // Enable the typed protocol trace (depth 64). Without `with_trace`
    // the report still prints, but its trace window is empty.
    let mut machine = Machine::new(cfg).with_trace(64);
    let cell = machine.setup(|mem| mem.alloc_line_aligned(8));

    // One thread holds a lease and spins forever: a livelock the cycle
    // watchdog converts into a loud, structured failure.
    let progs: Vec<ThreadFn> = vec![program(async move |ctx: &mut ThreadCtx| {
        ctx.lease(cell, 1_000_000).await;
        loop {
            ctx.read(cell).await;
            ctx.work(100);
        }
    })];

    let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| machine.run(progs)))
        .expect_err("the watchdog should have tripped");
    let report = payload
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_else(|| "<non-string panic payload>".into());

    println!("--- report the machine panicked with ---\n");
    println!("{report}");
}
