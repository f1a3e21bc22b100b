//! `LR_ENGINE_SHARDS` selects the engine executor, never the results:
//! the `lr-bench` binary run with 1 vs 4 engine partitions over
//! deterministic sim scenarios must emit byte-identical stdout (rows,
//! CSVX extras, everything). Subprocess-driven so the environment knob
//! takes its real path through `engine_shards_from_env` and the sweep's
//! oversubscription clamp.

use std::process::{Command, Output};

fn bench(shards: &str, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_lr-bench"))
        .args(args)
        .env("LR_NO_JSON", "1")
        .env("LR_ENGINE_SHARDS", shards)
        .output()
        .expect("lr-bench subprocess runs")
}

#[test]
fn engine_shards_env_is_byte_invisible_in_sim_output() {
    let args = [
        "--scenario",
        "fig2_stack,fig3_counter",
        "--threads",
        "2,4",
        "--ops",
        "6",
        "--jobs",
        "2",
    ];
    let s1 = bench("1", &args);
    let s4 = bench("4", &args);
    assert!(s1.status.success(), "shards-1 run failed: {s1:?}");
    assert!(s4.status.success(), "shards-4 run failed: {s4:?}");
    assert!(!s1.stdout.is_empty());
    assert_eq!(
        String::from_utf8_lossy(&s1.stdout),
        String::from_utf8_lossy(&s4.stdout),
        "LR_ENGINE_SHARDS leaked into simulated output"
    );
}

/// `--jobs J` beyond host parallelism is clamped to the host's thread
/// count — with a warning naming both numbers. Engine partitions do not
/// shrink the budget: a machine runs on one host thread at any
/// `LR_ENGINE_SHARDS`.
#[test]
fn oversubscribing_jobs_are_clamped_with_warning() {
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    let asked = (host + 1).to_string();
    let out = bench(
        "4",
        &[
            "--scenario",
            "fig2_stack",
            "--threads",
            "2",
            "--ops",
            "4",
            "--jobs",
            &asked,
        ],
    );
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
