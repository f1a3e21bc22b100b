//! `Machine::with_trace_output` file-naming tests: concurrent runs that
//! share a directory (the `--jobs N` sweep case) must never silently
//! overwrite each other's traces, and every written file must decode.

use lr_machine::{program, Machine, SystemConfig, ThreadCtx, ThreadFn};
use lr_sim_core::tracefmt;
use std::path::PathBuf;

/// Fresh scratch directory unique to this test process.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lr-machine-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn trace_files(dir: &std::path::Path) -> Vec<PathBuf> {
    let mut v: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == tracefmt::TRACE_EXT))
        .collect();
    v.sort();
    v
}

fn recording_run(dir: &std::path::Path, label: &str) {
    let mut m =
        Machine::new(SystemConfig::with_cores(2)).with_trace_output(dir.to_path_buf(), label);
    let a = m.setup(|mem| mem.alloc_line_aligned(8));
    let progs: Vec<ThreadFn> = (0..2)
        .map(|_| {
            program(async move |ctx: &mut ThreadCtx| {
                for _ in 0..4 {
                    ctx.faa(a, 1).await;
                    ctx.count_op();
                }
            })
        })
        .collect();
    m.run(progs);
}

#[test]
fn concurrent_identical_cells_never_overwrite_a_trace() {
    // Four identical "sweep cells" (same label, same config fingerprint)
    // record into one directory at once — exactly the jobs-4 collision
    // scenario. Every run must land in its own file.
    let dir = scratch("jobs4");
    let jobs = 4;
    std::thread::scope(|s| {
        for _ in 0..jobs {
            s.spawn(|| recording_run(&dir, "cell.lr.t2"));
        }
    });
    let files = trace_files(&dir);
    assert_eq!(
        files.len(),
        jobs,
        "expected {jobs} distinct trace files, got {files:?}"
    );
    for f in &files {
        let bytes = std::fs::read(f).unwrap();
        let t = tracefmt::decode(&bytes).unwrap_or_else(|e| panic!("{}: {e}", f.display()));
        assert_eq!(t.cores.len(), 2);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn repeated_runs_extend_rather_than_replace() {
    let dir = scratch("rerun");
    recording_run(&dir, "cell");
    recording_run(&dir, "cell");
    recording_run(&dir, "cell");
    let files = trace_files(&dir);
    assert_eq!(files.len(), 3, "got {files:?}");
    // First file takes the bare name; later ones get -2, -3 suffixes.
    let names: Vec<String> = files
        .iter()
        .map(|p| p.file_name().unwrap().to_string_lossy().into_owned())
        .collect();
    assert!(names.iter().any(|n| !n.contains('-')), "{names:?}");
    assert!(names
        .iter()
        .any(|n| n.ends_with(&format!("-2.{}", tracefmt::TRACE_EXT))));
    assert!(names
        .iter()
        .any(|n| n.ends_with(&format!("-3.{}", tracefmt::TRACE_EXT))));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn hostile_labels_are_sanitized() {
    let dir = scratch("label");
    recording_run(&dir, "a/b c:d");
    let files = trace_files(&dir);
    assert_eq!(files.len(), 1, "got {files:?}");
    let name = files[0].file_name().unwrap().to_string_lossy().into_owned();
    assert!(name.starts_with("a-b-c-d_"), "{name}");
    let _ = std::fs::remove_dir_all(&dir);
}
