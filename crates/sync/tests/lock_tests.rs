//! Behavioural tests for every lock flavour: mutual exclusion, fairness
//! properties, and the lease-specific traffic characteristics the paper
//! claims in §1/§6.

use lr_machine::{program, Machine, SystemConfig, ThreadCtx, ThreadFn};
use lr_sync::{ClhLock, LeasedLock, SpinLock, TicketLock, TryLock};

fn cfg(cores: usize) -> SystemConfig {
    SystemConfig::with_cores(cores)
}

/// Generic mutual-exclusion check: `cs` runs a read-modify-write with a
/// deliberate in-CS delay; any exclusion bug loses increments.
fn check_mutex<L, F>(init: impl FnOnce(&mut lr_sim_mem::SimMemory) -> L, cs: F)
where
    L: Copy + Send + 'static,
    F: AsyncFn(&mut ThreadCtx, &L, lr_sim_core::Addr) + Copy + Send + Sync + 'static,
{
    let threads = 5;
    let per = 20u64;
    let mut m = Machine::new(cfg(threads));
    let (lock, data) = m.setup(|mem| (init(mem), mem.alloc_line_aligned(8)));
    let progs: Vec<ThreadFn> = (0..threads)
        .map(|_| {
            program(async move |ctx: &mut ThreadCtx| {
                for _ in 0..per {
                    cs(ctx, &lock, data).await;
                    ctx.work(30);
                }
            })
        })
        .collect();
    let (_, mem) = m.run_with_memory(progs);
    assert_eq!(mem.read_word(data), per * threads as u64, "lost updates");
}

#[test]
fn spinlock_mutual_exclusion() {
    check_mutex(SpinLock::init, async |ctx, l: &SpinLock, d| {
        l.lock(ctx).await;
        let v = ctx.read(d).await;
        ctx.work(25);
        ctx.write(d, v + 1).await;
        l.unlock(ctx).await;
    });
}

#[test]
fn leased_lock_mutual_exclusion() {
    check_mutex(LeasedLock::init, async |ctx, l: &LeasedLock, d| {
        l.lock(ctx).await;
        let v = ctx.read(d).await;
        ctx.work(25);
        ctx.write(d, v + 1).await;
        l.unlock(ctx).await;
    });
}

#[test]
fn ticket_lock_mutual_exclusion() {
    check_mutex(
        |mem| TicketLock::init(mem, 30),
        async |ctx, l: &TicketLock, d| {
            let t = l.lock(ctx).await;
            let v = ctx.read(d).await;
            ctx.work(25);
            ctx.write(d, v + 1).await;
            l.unlock(ctx, t).await;
        },
    );
}

#[test]
fn clh_lock_mutual_exclusion() {
    // CLH needs a per-thread handle; roll the loop by hand.
    let threads = 5;
    let per = 20u64;
    let mut m = Machine::new(cfg(threads));
    let (lock, data) = m.setup(|mem| (ClhLock::init(mem), mem.alloc_line_aligned(8)));
    let progs: Vec<ThreadFn> = (0..threads)
        .map(|_| {
            program(async move |ctx: &mut ThreadCtx| {
                let mut h = lock.handle(ctx).await;
                for _ in 0..per {
                    lock.lock(ctx, &mut h).await;
                    let v = ctx.read(data).await;
                    ctx.work(25);
                    ctx.write(data, v + 1).await;
                    lock.unlock(ctx, &mut h).await;
                    ctx.work(30);
                }
            })
        })
        .collect();
    let (_, mem) = m.run_with_memory(progs);
    assert_eq!(mem.read_word(data), per * threads as u64);
}

/// §1's two claims about the leased lock: (a) the holder's unlock store
/// is a local hit (it never loses the line mid-CS), and (b) waiting
/// requests queue behind the lease.
#[test]
fn leased_lock_keeps_line_and_queues_waiters() {
    let threads = 6;
    let per = 15u64;
    let run = |leased: bool| {
        let mut m = Machine::new(cfg(threads));
        let (spin, lease, data) = m.setup(|mem| {
            (
                SpinLock::init(mem),
                LeasedLock::init(mem),
                mem.alloc_line_aligned(8),
            )
        });
        let progs: Vec<ThreadFn> = (0..threads)
            .map(|_| {
                program(async move |ctx: &mut ThreadCtx| {
                    for _ in 0..per {
                        if leased {
                            lease.lock(ctx).await;
                        } else {
                            spin.lock(ctx).await;
                        }
                        let v = ctx.read(data).await;
                        ctx.work(40);
                        ctx.write(data, v + 1).await;
                        if leased {
                            lease.unlock(ctx).await;
                        } else {
                            spin.unlock(ctx).await;
                        }
                        ctx.work(40);
                    }
                })
            })
            .collect();
        m.run(progs)
    };
    let base = run(false);
    let leased = run(true);
    let t = leased.core_totals();
    assert!(t.probes_queued > 0, "waiters must queue behind the lease");
    assert_eq!(t.releases_involuntary, 0, "short CS: all voluntary");
    // The leased lock must move fewer coherence messages in total (same
    // number of operations in both runs).
    assert!(
        leased.coherence_messages() < base.coherence_messages(),
        "lease did not reduce traffic: {} vs {}",
        leased.coherence_messages(),
        base.coherence_messages()
    );
    assert!(
        leased.total_cycles < base.total_cycles,
        "lease did not speed up the contended lock"
    );
}

/// The leased lock's implicit queue must not starve anyone: with equal
/// demand, per-thread completion counts stay balanced.
#[test]
fn leased_lock_is_roughly_fair() {
    let threads = 6;
    let mut m = Machine::new(cfg(threads));
    let (lock, data) = m.setup(|mem| (LeasedLock::init(mem), mem.alloc_line_aligned(8)));
    let counts = std::sync::Arc::new(std::sync::Mutex::new(vec![0u64; threads]));
    // Run for a fixed simulated-time budget per thread.
    let progs: Vec<ThreadFn> = (0..threads)
        .map(|tid| {
            let counts = counts.clone();
            program(async move |ctx: &mut ThreadCtx| {
                let mut done = 0u64;
                while ctx.now() < 120_000 {
                    lock.lock(ctx).await;
                    let v = ctx.read(data).await;
                    ctx.work(50);
                    ctx.write(data, v + 1).await;
                    lock.unlock(ctx).await;
                    done += 1;
                    ctx.work(50);
                }
                counts.lock().unwrap()[tid] = done;
            })
        })
        .collect();
    m.run(progs);
    let counts = counts.lock().unwrap();
    let min = *counts.iter().min().unwrap();
    let max = *counts.iter().max().unwrap();
    assert!(min > 0, "a thread starved entirely: {counts:?}");
    assert!(
        max <= min * 3,
        "unfair beyond 3x spread: {counts:?} (implicit queue broken?)"
    );
}

/// Ticket lock grants in FIFO order (tickets strictly increase).
#[test]
fn ticket_lock_is_fifo() {
    let threads = 4;
    let per = 10u64;
    let mut m = Machine::new(cfg(threads));
    let (lock, order) = m.setup(|mem| (TicketLock::init(mem, 30), mem.alloc_line_aligned(8)));
    let progs: Vec<ThreadFn> = (0..threads)
        .map(|_| {
            program(async move |ctx: &mut ThreadCtx| {
                for _ in 0..per {
                    let t = lock.lock(ctx).await;
                    // Inside the CS, the global grant counter must equal
                    // our ticket: grants happen in ticket order.
                    let served = ctx.read(order).await;
                    assert_eq!(served, t, "out-of-order grant");
                    ctx.write(order, served + 1).await;
                    lock.unlock(ctx, t).await;
                    ctx.work(20);
                }
            })
        })
        .collect();
    m.run(progs);
}
