//! CLH queue lock (Craig; Magnusson–Landin–Hagersten), the classic
//! queue-lock baseline of the paper's counter benchmark. Each waiter
//! spins on its predecessor's node, so waiting costs no global traffic.

use lr_machine::ThreadCtx;
use lr_sim_core::Addr;
use lr_sim_mem::SimMemory;

/// The shared part of a CLH lock: the tail pointer.
#[derive(Debug, Clone, Copy)]
pub struct ClhLock {
    tail: Addr,
}

/// Per-thread CLH state (the thread's queue node, recycled across
/// acquisitions in the standard CLH fashion).
#[derive(Debug, Clone, Copy)]
pub struct ClhHandle {
    node: Addr,
    pred: Addr,
}

impl ClhLock {
    /// Allocate the lock with an initial unlocked dummy node.
    pub fn init(mem: &mut SimMemory) -> Self {
        let dummy = mem.alloc_line_aligned(8); // locked = 0
        let tail = mem.alloc_line_aligned(8);
        mem.write_word(tail, dummy.0);
        ClhLock { tail }
    }

    /// Create this thread's handle (allocates its queue node).
    pub async fn handle(&self, ctx: &mut ThreadCtx) -> ClhHandle {
        ClhHandle {
            node: ctx.malloc_line(8).await,
            pred: Addr::NULL,
        }
    }

    /// Acquire the lock.
    pub async fn lock(&self, ctx: &mut ThreadCtx, h: &mut ClhHandle) {
        ctx.write(h.node, 1).await;
        let pred = Addr(ctx.xchg(self.tail, h.node.0).await);
        h.pred = pred;
        while ctx.read(pred).await != 0 {
            ctx.work(48);
        }
    }

    /// Release the lock; the handle recycles its predecessor's node.
    pub async fn unlock(&self, ctx: &mut ThreadCtx, h: &mut ClhHandle) {
        ctx.write(h.node, 0).await;
        h.node = h.pred;
        h.pred = Addr::NULL;
    }
}
