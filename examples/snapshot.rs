//! The §5 *cheap snapshot* primitive: lease all lines, read them,
//! release — if every release is voluntary, the values are a consistent
//! snapshot. This example shows both a succeeding snapshot and one that
//! fails because the lease interval is too short for the read set.
//!
//! ```sh
//! cargo run --release --example snapshot
//! ```

use lease_release::machine::{program, Addr, Machine, SystemConfig, ThreadCtx, ThreadFn};

const CELLS: usize = 6;

fn main() {
    let mut machine = Machine::new(SystemConfig::with_cores(4));
    let cells: Vec<Addr> =
        machine.setup(|mem| (0..CELLS).map(|_| mem.alloc_line_aligned(8)).collect());

    let mut progs: Vec<ThreadFn> = Vec::new();

    // Two writers keep all cells equal, updating them under a MultiLease.
    for _ in 0..2 {
        let cells = cells.clone();
        progs.push(program(async move |ctx: &mut ThreadCtx| {
            for round in 1..=60u64 {
                ctx.multi_lease(&cells, ctx.max_lease_time()).await;
                for &c in &cells {
                    ctx.write(c, round).await;
                }
                ctx.release(cells[0]).await; // releases the whole group
                ctx.work(500);
            }
        }));
    }

    // Snapshotter with a healthy lease interval: every consistent
    // snapshot must see all cells equal.
    {
        let cells = cells.clone();
        progs.push(program(async move |ctx: &mut ThreadCtx| {
            let mut ok = 0u64;
            let mut failed = 0u64;
            while ok < 25 {
                match ctx.snapshot(&cells, 10_000).await {
                    Some(vals) => {
                        assert!(
                            vals.windows(2).all(|w| w[0] == w[1]),
                            "torn snapshot: {vals:?}"
                        );
                        ok += 1;
                    }
                    None => failed += 1,
                }
                ctx.work(300);
            }
            println!("healthy snapshotter: 25 consistent snapshots, {failed} retries");
        }));
    }

    // Snapshotter with a hopeless 2-cycle lease: every attempt must
    // report failure (involuntary release) — and, crucially, never
    // return a wrong "consistent" result.
    {
        let cells = cells.clone();
        progs.push(program(async move |ctx: &mut ThreadCtx| {
            let mut failures = 0u64;
            for _ in 0..40 {
                if let Some(vals) = ctx.snapshot(&cells, 2).await {
                    // A 2-cycle lease expires before the reads finish, so
                    // success is only possible with zero contention.
                    assert!(vals.windows(2).all(|w| w[0] == w[1]));
                } else {
                    failures += 1;
                }
                ctx.work(700);
            }
            println!("2-cycle snapshotter: {failures}/40 attempts correctly reported failure");
        }));
    }

    let stats = machine.run(progs);
    let t = stats.core_totals();
    println!(
        "total leases: {} | voluntary: {} | involuntary: {}",
        t.leases_taken, t.releases_voluntary, t.releases_involuntary
    );
}
