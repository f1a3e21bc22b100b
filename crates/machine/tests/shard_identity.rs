//! Event-budget watchdog exactness: the budget counts every applied
//! event, once, in the engine's single commit loop.

use lr_machine::{program, Machine, SystemConfig, ThreadCtx, ThreadFn};

/// A contended lease/CAS counter plus FAA side traffic across 8 cores:
/// exercises grants, probes, stalls, expiries, and cross-tile traffic.
fn programs(n: usize, a: lr_sim_core::Addr, b: lr_sim_core::Addr) -> Vec<ThreadFn> {
    (0..n)
        .map(|tid| {
            program(async move |ctx: &mut ThreadCtx| {
                for i in 0..40 {
                    if tid % 2 == 0 {
                        loop {
                            ctx.lease_max(a).await;
                            let v = ctx.read(a).await;
                            let ok = ctx.cas(a, v, v + 1).await;
                            ctx.release(a).await;
                            if ok {
                                break;
                            }
                        }
                    } else {
                        ctx.faa(a, 1).await;
                    }
                    ctx.faa(b, tid as u64 + i).await;
                    ctx.count_op();
                }
            })
        })
        .collect()
}

/// The event budget is exact: a budget one short of a run's event count
/// ends in the structured failure report, the exact count completes,
/// and a tiny budget reports the same reason.
#[test]
fn event_budget_watchdog_is_exact_at_shards_1_and_4() {
    let run = |budget: Option<u64>| {
        let mut cfg = SystemConfig::with_cores(8);
        if let Some(b) = budget {
            cfg.watchdog_max_events = b;
        }
        let mut m = Machine::new(cfg).with_trace(8);
        let a = m.setup(|mem| mem.alloc_line_aligned(8));
        let b = m.setup(|mem| mem.alloc_line_aligned(8));
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            m.run_counted_info(programs(8, a, b)).2.events
        }))
        .map_err(|p| {
            p.downcast_ref::<String>()
                .cloned()
                .expect("structured report payload")
        })
    };
    let events = run(None).expect("unbounded run completes");
    assert_eq!(run(Some(events)), Ok(events));
    for budget in [events - 1, 10] {
        let report = run(Some(budget)).expect_err("budget must trip");
        assert!(
            report.starts_with("==== simulation failure report ====\n")
                && report.contains("reason: watchdog: event budget exceeded\n")
                && report.contains("-- pending ops --"),
            "budget {budget}: {report}"
        );
    }
}
