//! Engine-only verification of traces wider than a 64-bit sharer mask:
//! a 128-core, 2-socket `numa_serving` cell is recorded live and must
//! pass `lr_replay::verify` (in-flight reply checks, then the stats-JSON
//! and event-count checks).

use lr_bench::{CellCtx, RecordTo};
use lr_sim_core::tracefmt;

#[test]
fn numa_serving_128_core_recording_verifies() {
    let sc = lr_bench::find("numa_serving").expect("registered");
    let series = sc.series_index("lease.s2").expect("lease.s2 series");
    let dir = std::env::temp_dir().join(format!("lr_replay_wide_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let ctx = CellCtx {
        series,
        threads: 128,
        ops: 4,
        record: Some(RecordTo {
            dir: dir.clone(),
            label: "numa_serving.lease.s2.t128".to_string(),
        }),
    };
    let live = (sc.run_cell)(&ctx);
    let files = lr_replay::trace_files(&dir).expect("record dir readable");
    assert_eq!(files.len(), 1, "one recorded simulation: {files:?}");
    let bytes = std::fs::read(&files[0]).expect("trace readable");
    let trace = tracefmt::decode(&bytes).expect("trace decodes");
    assert_eq!(trace.config.num_cores, 128);
    assert_eq!(trace.config.sockets, 2);
    let stats = lr_replay::verify(&trace).unwrap_or_else(|d| panic!("replay diverged: {d}"));
    assert_eq!(stats.to_json(), live.row.stats_json);
    let _ = std::fs::remove_dir_all(&dir);
}
