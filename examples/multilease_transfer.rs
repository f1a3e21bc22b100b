//! MultiLease in action: atomic two-account transfers plus a lease-based
//! *cheap snapshot* (Section 5 of the paper) auditing that the total
//! balance is conserved — all while transfers keep running.
//!
//! ```sh
//! cargo run --release --example multilease_transfer
//! ```

use lease_release::machine::{program, Addr, Machine, SystemConfig, ThreadCtx, ThreadFn};

const ACCOUNTS: usize = 8;
const INITIAL: u64 = 1_000;
const TRANSFERS_PER_THREAD: u64 = 150;

fn main() {
    let threads = 8;
    let mut machine = Machine::new(SystemConfig::with_cores(threads + 1));

    // One cache line per account (false-sharing-safe, as leases require).
    let accounts: Vec<Addr> = machine.setup(|mem| {
        (0..ACCOUNTS)
            .map(|_| {
                let a = mem.alloc_line_aligned(8);
                mem.write_word(a, INITIAL);
                a
            })
            .collect()
    });

    let mut progs: Vec<ThreadFn> = Vec::new();

    // Transfer threads: MultiLease both accounts, move a random amount.
    for _ in 0..threads {
        let accounts = accounts.clone();
        progs.push(program(async move |ctx: &mut ThreadCtx| {
            for _ in 0..TRANSFERS_PER_THREAD {
                let i = ctx.rng().gen_range(0..ACCOUNTS);
                let mut j = ctx.rng().gen_range(0..ACCOUNTS);
                while j == i {
                    j = ctx.rng().gen_range(0..ACCOUNTS);
                }
                let amount = ctx.rng().gen_range(1..50);

                // Jointly lease both lines: the two reads and two writes
                // below execute without losing ownership in between.
                ctx.multi_lease(&[accounts[i], accounts[j]], ctx.max_lease_time())
                    .await;
                let from = ctx.read(accounts[i]).await;
                let to = ctx.read(accounts[j]).await;
                let amount = amount.min(from);
                ctx.write(accounts[i], from - amount).await;
                ctx.write(accounts[j], to + amount).await;
                // Releasing any group member releases the whole group.
                ctx.release(accounts[i]).await;
                ctx.count_op();
            }
        }));
    }

    // Auditor thread: lease-based snapshots of all eight accounts.
    let accounts2 = accounts.clone();
    progs.push(program(async move |ctx: &mut ThreadCtx| {
        let mut consistent = 0u64;
        let mut retries = 0u64;
        while consistent < 20 {
            match ctx.snapshot(&accounts2, 10_000).await {
                Some(balances) => {
                    let total: u64 = balances.iter().sum();
                    assert_eq!(
                        total,
                        ACCOUNTS as u64 * INITIAL,
                        "snapshot saw a torn transfer!"
                    );
                    consistent += 1;
                }
                None => retries += 1,
            }
            ctx.work(2_000);
        }
        println!("auditor: 20 consistent snapshots ({retries} retries due to expired leases)");
    }));

    let (stats, mem) = machine.run_with_memory(progs);

    let final_total: u64 = accounts.iter().map(|&a| mem.read_word(a)).sum();
    println!(
        "transfers: {} | final total balance: {final_total} (expected {})",
        stats.app_ops,
        ACCOUNTS as u64 * INITIAL
    );
    let t = stats.core_totals();
    println!(
        "multileases: {} | voluntary releases: {} | involuntary: {}",
        t.multileases, t.releases_voluntary, t.releases_involuntary
    );
    assert_eq!(final_total, ACCOUNTS as u64 * INITIAL);
}
