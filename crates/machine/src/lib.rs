//! # lr-machine
//!
//! The full-system simulated multicore: tiles (core + L1 + lease table +
//! L2 slice/directory), the deterministic coroutine thread runtime, and
//! the [`ThreadCtx`] simulated-instruction API that workloads program
//! against.
//!
//! ## Execution model
//!
//! Workloads are `async` Rust programs ([`program`]), one per simulated
//! core. The engine polls each core's future on its own thread, exactly
//! when that core's previous instruction completes, so every simulation
//! is deterministic — same seed, same statistics, bit for bit.
//!
//! Each awaited `ThreadCtx` call is a *simulated instruction*: it
//! advances the thread's local clock by the instruction cost and, for
//! memory operations, round-trips through the coherence protocol of
//! `lr-coherence`, including lease-table consultation per the paper's
//! Algorithms 1 and 2. Data values are read/written at the simulated
//! completion instant, so CAS failures, lock contention, and lease
//! expiries all emerge from simulated interleavings.
//!
//! ## Divergences from real hardware (documented in DESIGN.md)
//!
//! * `lease` blocks until Exclusive ownership is granted (the hardware
//!   proposal is prefetch-like). The canonical `Lease(a); load a` pattern
//!   has identical timing.
//! * Cores are blocking and in-order (as in the paper's Graphite setup),
//!   with one outstanding miss.

mod barrier;
mod ctx;
mod live;
mod machine;
mod proto;

/// The in-thread rendezvous between a core's workload future and the
/// engine: one [`Mailbox`](rendezvous::Mailbox) per core, holding at
/// most one request and one reply in flight.
mod rendezvous {
    use crate::proto::{Op, Reply, Request};
    use lr_sim_core::Cycle;
    use std::cell::{Cell, RefCell};

    /// One core's handoff cell between its `ThreadCtx` (inside the
    /// workload future) and the engine-side live source that polls that
    /// future. Both live on the engine's thread, so plain `Cell`s
    /// suffice: an instruction posts its [`Request`] and suspends, the
    /// engine puts the [`Reply`] here and polls the future again.
    ///
    /// The core's clock and retirement counters live here too, so the
    /// source can build the core's `Exit` however its future ended.
    #[derive(Default)]
    pub(crate) struct Mailbox {
        pub(crate) req: Cell<Option<Request>>,
        pub(crate) reply: Cell<Option<Reply>>,
        pub(crate) time: Cell<Cycle>,
        pub(crate) instructions: Cell<u64>,
        pub(crate) ops: Cell<u64>,
        /// `Some` only on recording runs: times of the barrier markers
        /// noted since the source last drained them.
        pub(crate) marks: Option<RefCell<Vec<Cycle>>>,
    }

    impl Mailbox {
        /// Core side: advance the clock by `cost`, count the instruction
        /// and post its request. At most one request is in flight; the
        /// request/reply alternation guarantees it and a violation panics.
        #[inline]
        pub(crate) fn post(&self, tid: usize, cost: Cycle, op: Op) {
            let at = self.time.get() + cost;
            self.time.set(at);
            self.instructions.set(self.instructions.get() + 1);
            let prev = self.req.replace(Some(Request { tid, at, op }));
            assert!(
                prev.is_none(),
                "core {tid}: a second simulated instruction was issued while one is in flight"
            );
        }

        /// Core side: the engine's reply, once it has landed, with the
        /// core's clock moved to the reply's completion time.
        #[inline]
        pub(crate) fn take_reply(&self) -> Option<Reply> {
            let r = self.reply.take()?;
            self.time.set(r.time);
            Some(r)
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use lr_sim_core::Addr;

        #[test]
        fn single_handoff() {
            let mb = Mailbox::default();
            mb.time.set(10);
            mb.post(3, 2, Op::Read(Addr(64)));
            assert_eq!(mb.instructions.get(), 1);
            // No reply yet: the core stays suspended.
            assert!(mb.take_reply().is_none());
            let r = mb.req.take().expect("request posted");
            assert_eq!((r.tid, r.at), (3, 12));
            assert!(matches!(r.op, Op::Read(Addr(64))));
            mb.reply.set(Some(Reply {
                time: 40,
                value: 7,
                flag: true,
            }));
            let got = mb.take_reply().expect("reply delivered");
            assert_eq!((got.time, got.value, got.flag), (40, 7, true));
            assert_eq!(mb.time.get(), 40);
            // Each value is handed off exactly once.
            assert!(mb.req.take().is_none());
            assert!(mb.take_reply().is_none());
        }
    }
}

pub use barrier::SimBarrier;
pub use ctx::ThreadCtx;
pub use live::{program, ThreadFn};
pub use machine::{EngineInfo, Machine, OpSource, RecordedRun, SourceAbort, TraceOutput};
pub use proto::{AddrVec, Op, Reply, Request};

pub use lr_sim_core::{Addr, CoreId, Cycle, LineAddr, MachineStats, SystemConfig};
