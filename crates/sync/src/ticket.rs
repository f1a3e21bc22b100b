//! Ticket lock with linear (proportional) backoff — one of the optimized
//! lock baselines the paper compares leases against in the counter
//! benchmark ("the ticket lock implementation in Figure 3 uses linear
//! backoffs").

use lr_machine::ThreadCtx;
use lr_sim_core::{Addr, Cycle};
use lr_sim_mem::SimMemory;

/// FIFO ticket lock with proportional backoff while waiting.
#[derive(Debug, Clone, Copy)]
pub struct TicketLock {
    next: Addr,
    serving: Addr,
    /// Backoff granularity: estimated critical-section length.
    slice: Cycle,
}

impl TicketLock {
    /// Allocate a ticket lock; `slice` approximates the critical-section
    /// length for the proportional backoff.
    pub fn init(mem: &mut SimMemory, slice: Cycle) -> Self {
        TicketLock {
            next: mem.alloc_line_aligned(8),
            serving: mem.alloc_line_aligned(8),
            slice: slice.max(1),
        }
    }

    /// Acquire, returning the ticket to pass to [`TicketLock::unlock`].
    pub async fn lock(&self, ctx: &mut ThreadCtx) -> u64 {
        let my = ctx.faa(self.next, 1).await;
        loop {
            let cur = ctx.read(self.serving).await;
            if cur == my {
                return my;
            }
            // Linear backoff: wait proportionally to queue position.
            let ahead = my.wrapping_sub(cur);
            ctx.work(self.slice * ahead.min(64));
        }
    }

    /// Release with the ticket obtained from [`TicketLock::lock`].
    pub async fn unlock(&self, ctx: &mut ThreadCtx, ticket: u64) {
        ctx.write(self.serving, ticket.wrapping_add(1)).await;
    }
}
