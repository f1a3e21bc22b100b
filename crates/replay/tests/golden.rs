//! Golden-trace fixture: a checked-in recording of a fixed workload.
//!
//! Two invariants, diffed byte-for-byte in CI:
//!
//! 1. Re-recording the workload today produces *exactly* the fixture
//!    bytes — any drift in the wire format, the lockstep runtime, or
//!    the protocol stack's simulated behaviour shows up here first.
//! 2. The fixture replays cleanly and byte-identically.
//!
//! Regenerate deliberately (after an intentional behaviour change) with
//! `LR_REGEN_GOLDEN=1 cargo test -p lr-replay --test golden`.

use lr_machine::{program, Machine, SimBarrier, SystemConfig, ThreadCtx, ThreadFn};
use lr_sim_core::tracefmt::{self, MachineTrace, TraceOp};
use std::path::PathBuf;

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join("golden.lrt")
}

/// Fixed workload covering every recorded op kind: lease/read/CAS/
/// release churn on a shared cell, FAA, exchange, malloc/free, a
/// MultiLease pair, and a barrier (for the marker record).
fn record_golden() -> MachineTrace {
    let mut cfg = SystemConfig::with_cores(2);
    cfg.seed = 0x90_1d_e2;
    let mut machine = Machine::new(cfg);
    let (cell, pair, barrier) = machine.setup(|m| {
        let cell = m.alloc_line_aligned(8);
        let pair = [m.alloc_line_aligned(8), m.alloc_line_aligned(8)];
        let barrier = SimBarrier::init(m, 2);
        (cell, pair, barrier)
    });
    let progs: Vec<ThreadFn> = (0..2)
        .map(|tid| {
            let mut barrier = barrier;
            program(async move |ctx: &mut ThreadCtx| {
                for i in 0..12u64 {
                    loop {
                        ctx.lease_max(cell).await;
                        let v = ctx.read(cell).await;
                        let ok = ctx.cas(cell, v, v + 1).await;
                        ctx.release(cell).await;
                        if ok {
                            break;
                        }
                    }
                    ctx.faa(pair[0], i).await;
                    ctx.count_op();
                }
                barrier.wait(ctx).await;
                if ctx.multi_lease(&[pair[0], pair[1]], 400).await {
                    let a = ctx.read(pair[0]).await;
                    ctx.write(pair[1], a + tid as u64).await;
                    ctx.release_all().await;
                }
                let scratch = ctx.malloc_line(64).await;
                ctx.write(scratch, 0xabc).await;
                ctx.xchg(scratch, 0xdef).await;
                ctx.free(scratch).await;
                ctx.count_op();
            })
        })
        .collect();
    machine.run_recorded(progs).trace
}

#[test]
fn golden_trace_matches_fixture_byte_for_byte() {
    let trace = record_golden();
    let bytes = tracefmt::encode(&trace);
    let path = fixture_path();
    if std::env::var_os("LR_REGEN_GOLDEN").is_some_and(|v| v == "1") {
        std::fs::create_dir_all(path.parent().expect("fixture dir")).expect("mkdir fixtures");
        std::fs::write(&path, &bytes).expect("write golden fixture");
        eprintln!("regenerated {} ({} bytes)", path.display(), bytes.len());
        return;
    }
    let golden = std::fs::read(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {} ({e}); regenerate with LR_REGEN_GOLDEN=1",
            path.display()
        )
    });
    assert_eq!(
        bytes, golden,
        "re-recording the golden workload no longer reproduces the fixture — \
         the wire format or simulated behaviour changed; if intentional, \
         regenerate with LR_REGEN_GOLDEN=1"
    );
}

#[test]
fn golden_fixture_decodes_replays_and_reencodes() {
    let path = fixture_path();
    let trace = lr_replay::read_trace(&path).unwrap_or_else(|e| {
        panic!(
            "cannot load {} ({e}); regenerate with LR_REGEN_GOLDEN=1",
            path.display()
        )
    });
    // Canonical form: decode → encode is byte-identical.
    let reencoded = tracefmt::encode(&trace);
    assert_eq!(reencoded, std::fs::read(&path).expect("fixture readable"));
    // The fixture contains the barrier marker the workload crossed.
    assert!(
        trace
            .cores
            .iter()
            .flatten()
            .any(|r| matches!(r.op, TraceOp::Barrier)),
        "golden fixture should contain a Barrier marker"
    );
    // And it replays byte-identically.
    let stats = lr_replay::verify(&trace).expect("golden fixture replays byte-identical");
    assert_eq!(stats.app_ops, 2 * 13);
}
