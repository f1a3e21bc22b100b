//! Live workloads as in-thread coroutines.
//!
//! A workload is an `async` program over [`ThreadCtx`]. Each core's
//! program becomes one boxed future, and [`LiveSource`] drives all of
//! them from the engine's own thread: asking it for core `tid`'s next
//! request polls that core's future until the instruction it issues
//! posts its [`Request`] into the core's [`Mailbox`] and suspends;
//! handing it the reply drops the [`Reply`] into the same mailbox for
//! the next poll. There is no worker thread and no cross-thread
//! handoff — a live run is just one more [`OpSource`], driven by the
//! same executors as engine-only replay.

use crate::ctx::ThreadCtx;
use crate::machine::OpSource;
use crate::proto::{Op, Reply, Request};
use crate::rendezvous::Mailbox;
use lr_sim_core::tracefmt::{OpRecord, TraceOp};
use lr_sim_core::SystemConfig;
use std::cell::RefCell;
use std::future::Future;
use std::panic::AssertUnwindSafe;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

/// One core's running workload.
type Task = Pin<Box<dyn Future<Output = ()>>>;

/// A workload thread: given its core's [`ThreadCtx`], produce the
/// future that runs the workload. Build one with [`program`].
pub type ThreadFn = Box<dyn FnOnce(ThreadCtx) -> Task + Send + 'static>;

/// Wrap an async workload closure as a [`ThreadFn`]:
///
/// ```
/// # use lr_machine::{program, ThreadCtx, ThreadFn, Addr};
/// let a = Addr(64);
/// let f: ThreadFn = program(async move |ctx: &mut ThreadCtx| {
///     let v = ctx.read(a).await;
///     ctx.write(a, v + 1).await;
/// });
/// ```
///
/// The future is boxed once, when the machine starts the core.
pub fn program<F>(f: F) -> ThreadFn
where
    F: AsyncFnOnce(&mut ThreadCtx) + Send + 'static,
{
    Box::new(move |mut ctx: ThreadCtx| Box::pin(async move { f(&mut ctx).await }))
}

/// The live [`OpSource`]: owns every core's workload future.
pub(crate) struct LiveSource {
    tasks: Vec<Option<Task>>,
    mail: Vec<Rc<Mailbox>>,
    /// Recording observer (`Some` on recording runs): every core's
    /// `(at, op, reply)` stream, barrier markers and exit record, in that
    /// core's program order. An op's record is pushed when the op is
    /// issued and completed with its reply in [`OpSource::observe`].
    rec: Option<Vec<Vec<OpRecord>>>,
}

impl LiveSource {
    /// Start every program on its own core (`tid` = index).
    pub(crate) fn new(programs: Vec<ThreadFn>, cfg: &SystemConfig, record: bool) -> Self {
        let n = programs.len();
        let mut tasks = Vec::with_capacity(n);
        let mut mail = Vec::with_capacity(n);
        for (tid, f) in programs.into_iter().enumerate() {
            let mb = Rc::new(Mailbox {
                marks: record.then(|| RefCell::new(Vec::new())),
                ..Mailbox::default()
            });
            let ctx = ThreadCtx::new(
                tid,
                cfg.instruction_cost,
                cfg.lease.clone(),
                cfg.seed,
                mb.clone(),
            );
            tasks.push(Some(f(ctx)));
            mail.push(mb);
        }
        LiveSource {
            tasks,
            mail,
            rec: record.then(|| (0..n).map(|_| Vec::new()).collect()),
        }
    }

    /// The recorded per-core streams (empty when not recording).
    pub(crate) fn take_records(&mut self) -> Vec<Vec<OpRecord>> {
        self.rec.take().unwrap_or_default()
    }

    /// Move barrier markers noted since the last poll into the stream.
    fn drain_marks(&mut self, tid: usize) {
        let (Some(rec), Some(marks)) = (self.rec.as_mut(), self.mail[tid].marks.as_ref()) else {
            return;
        };
        for at in marks.borrow_mut().drain(..) {
            rec[tid].push(OpRecord {
                at,
                op: TraceOp::Barrier,
                reply_time: at,
                reply_value: 0,
                reply_flag: false,
            });
        }
    }

    /// Core `tid`'s future has ended: retire it and build its `Exit`.
    fn exit(&mut self, tid: usize, panicked: bool) -> Request {
        self.tasks[tid] = None;
        let mb = &self.mail[tid];
        let (at, instructions, ops) = (mb.time.get(), mb.instructions.get(), mb.ops.get());
        // A panicked core's stream ends without an exit record.
        if let Some(rec) = self.rec.as_mut().filter(|_| !panicked) {
            rec[tid].push(OpRecord {
                at,
                op: TraceOp::Exit { instructions, ops },
                reply_time: at,
                reply_value: 0,
                reply_flag: false,
            });
        }
        Request {
            tid,
            at,
            op: Op::Exit {
                instructions,
                ops,
                at,
                panicked,
            },
        }
    }
}

impl OpSource for LiveSource {
    fn next(&mut self, tid: usize) -> Result<Request, String> {
        let task = self.tasks[tid]
            .as_mut()
            .ok_or_else(|| format!("core {tid}: asked for an op after its workload exited"))?;
        let mut cx = Context::from_waker(Waker::noop());
        // A workload panic unwinds out of `poll` and ends the core like
        // a normal exit, flagged; the engine turns it into the run's
        // failure report.
        let polled = std::panic::catch_unwind(AssertUnwindSafe(|| task.as_mut().poll(&mut cx)));
        self.drain_marks(tid);
        match polled {
            Ok(Poll::Pending) => {
                let r = self.mail[tid].req.take().ok_or_else(|| {
                    format!(
                        "core {tid}: workload suspended without issuing a simulated \
                         instruction (it awaited a future that is not a ThreadCtx op)"
                    )
                })?;
                if let Some(rec) = self.rec.as_mut() {
                    rec[tid].push(OpRecord {
                        at: r.at,
                        op: r.op.to_trace(),
                        reply_time: 0,
                        reply_value: 0,
                        reply_flag: false,
                    });
                }
                Ok(r)
            }
            Ok(Poll::Ready(())) => Ok(self.exit(tid, false)),
            Err(_) => Ok(self.exit(tid, true)),
        }
    }

    fn observe(&mut self, tid: usize, reply: Reply) -> Result<(), String> {
        if let Some(r) = self.rec.as_mut().and_then(|rec| rec[tid].last_mut()) {
            r.reply_time = reply.time;
            r.reply_value = reply.value;
            r.reply_flag = reply.flag;
        }
        self.mail[tid].reply.set(Some(reply));
        Ok(())
    }
}
