//! The `lr-bench` sweep driver's `--jobs` oversubscription clamp and
//! its refusal of bad knobs, driven through the real binary.

use std::process::{Command, Output};

fn bench_with_no_json(no_json: &str, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_lr-bench"))
        .args(args)
        .env("LR_NO_JSON", no_json)
        .output()
        .expect("lr-bench subprocess runs")
}

fn bench(args: &[&str]) -> Output {
    bench_with_no_json("1", args)
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

/// A set `LR_NO_JSON` other than `1`, `0` or empty, and the retired
/// `--kind wall`, both stop the driver with exit 2 before any cell runs.
#[test]
fn bad_no_json_value_and_wall_kind_are_refused() {
    let small = ["--scenario", "fig2_stack", "--threads", "2", "--ops", "4"];
    let out = bench_with_no_json("true", &small);
    assert_eq!(out.status.code(), Some(2), "LR_NO_JSON=true: {out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("LR_NO_JSON") && err.contains("\"true\""),
        "error should name the variable and its value:\n{err}"
    );
    assert!(out.stdout.is_empty(), "no cell may run: {out:?}");

    let out = bench(&["--kind", "wall", "--smoke"]);
    assert_eq!(out.status.code(), Some(2), "--kind wall: {out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("\"wall\""),
        "error should name the value:\n{err}"
    );
}
