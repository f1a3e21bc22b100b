//! The `lr-bench` sweep driver's `--jobs` oversubscription clamp,
//! driven through the real binary.

use std::process::{Command, Output};

fn bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_lr-bench"))
        .args(args)
        .env("LR_NO_JSON", "1")
        .output()
        .expect("lr-bench subprocess runs")
}

/// `--jobs J` beyond host parallelism is clamped to the host's thread
/// count — with a warning naming both numbers.
#[test]
fn oversubscribing_jobs_are_clamped_with_warning() {
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    let asked = (host + 1).to_string();
    let out = bench(&[
        "--scenario",
        "fig2_stack",
        "--threads",
        "2",
        "--ops",
        "4",
        "--jobs",
        &asked,
    ]);
    assert!(out.status.success(), "clamped run failed: {out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains(&format!("clamping --jobs {asked} to {host}:")),
        "missing/incorrect clamp warning:\n{err}"
    );
    assert!(
        err.contains(&format!(", {host} job(s)")),
        "plan banner should show the clamped job count:\n{err}"
    );
}
