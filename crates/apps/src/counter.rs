//! The contended lock-based counter of Figure 3: one counter variable
//! protected by one lock, 100% update operations.

use lr_machine::ThreadCtx;
use lr_sim_core::Addr;
use lr_sim_mem::SimMemory;
use lr_sync::{ClhLock, LeasedLock, SpinLock, TicketLock, TryLock};

/// Which lock protects the counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CounterLockKind {
    /// Plain test&test&set (the paper's baseline).
    Tts,
    /// Test&test&set with the critical-section lease (§6).
    TtsLeased,
    /// Ticket lock with linear backoff (optimized baseline).
    TicketBackoff,
    /// CLH queue lock (optimized baseline).
    Clh,
}

/// The shared state of the counter benchmark.
#[derive(Debug, Clone, Copy)]
pub struct CounterBench {
    kind: CounterLockKind,
    counter: Addr,
    tts: SpinLock,
    leased: LeasedLock,
    ticket: TicketLock,
    clh: ClhLock,
}

impl CounterBench {
    /// Allocate the counter and every lock flavour (only `kind` is used).
    pub fn init(mem: &mut SimMemory, kind: CounterLockKind) -> Self {
        CounterBench {
            kind,
            counter: mem.alloc_line_aligned(8),
            tts: SpinLock::init(mem),
            leased: LeasedLock::init(mem),
            ticket: TicketLock::init(mem, 40),
            clh: ClhLock::init(mem),
        }
    }

    /// The protected counter cell (for final-value audits).
    pub fn counter_addr(&self) -> Addr {
        self.counter
    }

    /// Run `ops` increment operations from this thread.
    pub async fn run_thread(&self, ctx: &mut ThreadCtx, ops: u64) {
        let mut clh_handle = match self.kind {
            CounterLockKind::Clh => Some(self.clh.handle(ctx).await),
            _ => None,
        };
        for _ in 0..ops {
            match self.kind {
                CounterLockKind::Tts => {
                    self.tts.lock(ctx).await;
                    let v = ctx.read(self.counter).await;
                    ctx.write(self.counter, v + 1).await;
                    self.tts.unlock(ctx).await;
                }
                CounterLockKind::TtsLeased => {
                    self.leased.lock(ctx).await;
                    let v = ctx.read(self.counter).await;
                    ctx.write(self.counter, v + 1).await;
                    self.leased.unlock(ctx).await;
                }
                CounterLockKind::TicketBackoff => {
                    let t = self.ticket.lock(ctx).await;
                    let v = ctx.read(self.counter).await;
                    ctx.write(self.counter, v + 1).await;
                    self.ticket.unlock(ctx, t).await;
                }
                CounterLockKind::Clh => {
                    let h = clh_handle.as_mut().unwrap();
                    self.clh.lock(ctx, h).await;
                    let v = ctx.read(self.counter).await;
                    ctx.write(self.counter, v + 1).await;
                    self.clh.unlock(ctx, h).await;
                }
            }
            ctx.count_op();
            // Inter-operation "think time": loop overhead and unrelated
            // work between increments. Without it the unlock-to-relock
            // window is a couple of cycles and one core can monopolize
            // the lock line, which no real system exhibits.
            ctx.work(50);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lr_machine::{program, Machine, SystemConfig, ThreadCtx, ThreadFn};

    fn run(kind: CounterLockKind, threads: usize, per: u64) {
        let mut m = Machine::new(SystemConfig::with_cores(threads));
        let bench = m.setup(|mem| CounterBench::init(mem, kind));
        let final_val = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
        let mut progs: Vec<ThreadFn> = Vec::new();
        for tid in 0..threads {
            let final_val = final_val.clone();
            progs.push(program(async move |ctx: &mut ThreadCtx| {
                bench.run_thread(ctx, per).await;
                if tid == 0 {
                    loop {
                        let v = ctx.read(bench.counter_addr()).await;
                        if v == per * threads as u64 {
                            final_val.store(v, std::sync::atomic::Ordering::Relaxed);
                            break;
                        }
                        ctx.work(300);
                    }
                }
            }));
        }
        let stats = m.run(progs);
        assert_eq!(stats.app_ops, per * threads as u64);
        assert_eq!(
            final_val.load(std::sync::atomic::Ordering::Relaxed),
            per * threads as u64,
            "{kind:?}: increments lost — mutual exclusion violated"
        );
    }

    #[test]
    fn tts_counter_is_exact() {
        run(CounterLockKind::Tts, 4, 30);
    }

    #[test]
    fn tts_leased_counter_is_exact() {
        run(CounterLockKind::TtsLeased, 4, 30);
    }

    #[test]
    fn ticket_counter_is_exact() {
        run(CounterLockKind::TicketBackoff, 4, 30);
    }

    #[test]
    fn clh_counter_is_exact() {
        run(CounterLockKind::Clh, 4, 30);
    }
}
