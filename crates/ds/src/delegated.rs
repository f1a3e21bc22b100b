//! Delegation-guarded data structures: a sequential structure whose
//! every operation runs under a [`Dlock`] critical section, published as
//! an `(op, arg)` pair so a combiner (flat combining / CCSynch) can
//! execute it on the owner's behalf.
//!
//! The structures here are deliberately *sequential* under the lock —
//! an array stack and a plain counter — because that is the regime
//! delegation is built for: one thread with the structure's lines hot in
//! its cache applies a whole batch of operations, versus every thread
//! dragging the lines across the NoC for a single operation. The
//! `lock_showdown` scenario sweeps these against the paper's TTS and
//! leased locks.
//!
//! Everything (lock pools and the structure's storage) is pre-allocated
//! at machine setup, so steady-state operation performs **zero**
//! simulated allocator messages — see the `dlock` module docs for why
//! that matters in this simulator.

use lr_machine::ThreadCtx;
use lr_sim_core::Addr;
use lr_sim_mem::SimMemory;
use lr_sync::{CsApply, Dlock, DlockAlgo, DlockHandle};

/// Stack operation codes published through the lock.
pub const STACK_PUSH: u64 = 0;
pub const STACK_POP: u64 = 1;

/// `pop` response when the stack was empty (no slot value is ever this).
pub const STACK_EMPTY: u64 = u64::MAX;

/// The sequential array stack a [`DelegatedStack`]'s critical sections
/// interpret: a top-of-stack counter plus a fixed slot array. `Copy` so
/// any combiner can apply any thread's published operation.
#[derive(Debug, Clone, Copy)]
pub struct StackApply {
    top: Addr,
    slots: Addr,
    cap: u64,
}

impl StackApply {
    /// Allocate the bare sequential stack (top word + slot array)
    /// without any lock — for callers pairing it with their own
    /// [`lr_sync::TryLock`] baseline (the `lock_showdown` TTS series).
    pub fn init(mem: &mut SimMemory, cap: u64) -> Self {
        let top = mem.alloc_line_aligned(8);
        let slots = mem.alloc_line_aligned(cap.max(1) * 8);
        StackApply { top, slots, cap }
    }

    /// Host-side read of the current depth.
    pub fn depth(&self, mem: &SimMemory) -> u64 {
        mem.read_word(self.top)
    }
}

impl CsApply for StackApply {
    async fn apply(&self, ctx: &mut ThreadCtx, op: u64, arg: u64) -> u64 {
        if op == STACK_PUSH {
            let t = ctx.read(self.top).await;
            if t >= self.cap {
                return 0; // full — rejected
            }
            ctx.write(self.slots.offset(t * 8), arg).await;
            ctx.write(self.top, t + 1).await;
            1
        } else {
            let t = ctx.read(self.top).await;
            if t == 0 {
                return STACK_EMPTY;
            }
            let v = ctx.read(self.slots.offset((t - 1) * 8)).await;
            ctx.write(self.top, t - 1).await;
            v
        }
    }
}

/// An array stack guarded by one delegation lock.
#[derive(Debug, Clone)]
pub struct DelegatedStack {
    pub lock: Dlock,
    apply: StackApply,
}

impl DelegatedStack {
    /// Allocate the stack storage and the lock's full per-thread pool at
    /// setup time. `cap` bounds the stack depth (push returns `false`
    /// beyond it); `max_threads` bounds the worker tids.
    pub fn init(mem: &mut SimMemory, algo: DlockAlgo, max_threads: usize, cap: u64) -> Self {
        DelegatedStack {
            lock: Dlock::init(mem, algo, max_threads),
            apply: StackApply::init(mem, cap),
        }
    }

    /// Per-thread handle (host-side; no simulated traffic).
    pub fn handle(&self, tid: usize) -> DlockHandle {
        self.lock.handle(tid)
    }

    /// The interpreter, for callers that drive [`Dlock::run`] directly.
    pub fn apply(&self) -> StackApply {
        self.apply
    }

    /// Push under the lock; `false` if the stack was at capacity.
    pub async fn push(&self, ctx: &mut ThreadCtx, h: &mut DlockHandle, v: u64) -> bool {
        self.lock.run(ctx, h, &self.apply, STACK_PUSH, v).await == 1
    }

    /// Pop under the lock; `None` when empty.
    pub async fn pop(&self, ctx: &mut ThreadCtx, h: &mut DlockHandle) -> Option<u64> {
        match self.lock.run(ctx, h, &self.apply, STACK_POP, 0).await {
            STACK_EMPTY => None,
            v => Some(v),
        }
    }

    /// Host-side read of the final depth (post-run consistency checks).
    pub fn depth(&self, mem: &SimMemory) -> u64 {
        mem.read_word(self.apply.top)
    }
}

/// The counter interpreter: `arg` is the FAA delta, the response is the
/// pre-add value. Uses a real `faa` instruction (not read+write) so the
/// cell stays compatible with the fuzz farm's FAA-only counter ledger.
#[derive(Debug, Clone, Copy)]
pub struct CounterApply {
    cell: Addr,
}

impl CsApply for CounterApply {
    async fn apply(&self, ctx: &mut ThreadCtx, _op: u64, arg: u64) -> u64 {
        ctx.faa(self.cell, arg).await
    }
}

/// A shared counter whose adds are delegated through a [`Dlock`] — the
/// lock-based counter of Figure 3, under delegation instead of TTS.
#[derive(Debug, Clone)]
pub struct DelegatedCounter {
    pub lock: Dlock,
    apply: CounterApply,
}

impl DelegatedCounter {
    pub fn init(mem: &mut SimMemory, algo: DlockAlgo, max_threads: usize) -> Self {
        let cell = mem.alloc_line_aligned(8);
        DelegatedCounter {
            lock: Dlock::init(mem, algo, max_threads),
            apply: CounterApply { cell },
        }
    }

    pub fn handle(&self, tid: usize) -> DlockHandle {
        self.lock.handle(tid)
    }

    /// Add `delta` under the lock, returning the pre-add value.
    pub async fn add(&self, ctx: &mut ThreadCtx, h: &mut DlockHandle, delta: u64) -> u64 {
        self.lock.run(ctx, h, &self.apply, 0, delta).await
    }

    /// The counter cell (for host-side final-value checks).
    pub fn cell(&self) -> Addr {
        self.apply.cell
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lr_machine::{program, Machine, SystemConfig, ThreadCtx, ThreadFn};
    use lr_sync::DLOCK_ALGOS;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    #[test]
    fn delegated_counter_sums_under_every_algorithm() {
        let (threads, per) = (4, 16u64);
        for algo in DLOCK_ALGOS {
            let mut m = Machine::new(SystemConfig::with_cores(threads));
            let c = m.setup(|mem| DelegatedCounter::init(mem, algo, threads));
            let cell = c.cell();
            let progs: Vec<ThreadFn> = (0..threads)
                .map(|tid| {
                    let c = c.clone();
                    program(async move |ctx: &mut ThreadCtx| {
                        let mut h = c.handle(tid);
                        for _ in 0..per {
                            c.add(ctx, &mut h, 3).await;
                        }
                    })
                })
                .collect();
            let (_, mem) = m.run_with_memory(progs);
            assert_eq!(
                mem.read_word(cell),
                threads as u64 * per * 3,
                "{}: lost adds",
                algo.name()
            );
        }
    }

    #[test]
    fn delegated_stack_conserves_elements() {
        // push;pop pairs: the final depth must equal exactly the number
        // of pops that observed the stack empty, and no push may ever
        // hit capacity (each thread has at most one unpopped element).
        let (threads, per) = (4, 12u64);
        for algo in DLOCK_ALGOS {
            let mut m = Machine::new(SystemConfig::with_cores(threads));
            let s = m.setup(|mem| DelegatedStack::init(mem, algo, threads, threads as u64));
            let empties = Arc::new(AtomicU64::new(0));
            let rejected = Arc::new(AtomicU64::new(0));
            let progs: Vec<ThreadFn> = (0..threads)
                .map(|tid| {
                    let s = s.clone();
                    let (empties, rejected) = (empties.clone(), rejected.clone());
                    program(async move |ctx: &mut ThreadCtx| {
                        let mut h = s.handle(tid);
                        let (mut e, mut r) = (0u64, 0u64);
                        for i in 0..per {
                            if !s.push(ctx, &mut h, i + 1).await {
                                r += 1;
                            }
                            if s.pop(ctx, &mut h).await.is_none() {
                                e += 1;
                            }
                        }
                        empties.fetch_add(e, Ordering::Relaxed);
                        rejected.fetch_add(r, Ordering::Relaxed);
                    })
                })
                .collect();
            let (_, mem) = m.run_with_memory(progs);
            assert_eq!(
                rejected.load(Ordering::Relaxed),
                0,
                "{}: capacity {threads} must never reject",
                algo.name()
            );
            assert_eq!(
                s.depth(&mem),
                empties.load(Ordering::Relaxed),
                "{}: depth != empty pops",
                algo.name()
            );
        }
    }
}
