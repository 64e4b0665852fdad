//! The `ets-loadgen` binary writes its report only where `--out` says:
//! a run without it leaves its working directory as it found it. A
//! `--rps` it cannot run, or a stop-rule threshold that is negative or
//! not finite, is a usage error.

use serde_json::Value;
use std::path::{Path, PathBuf};
use std::process::Command;

/// An empty working directory of this test process's own.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ets-loadgen-cli-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Runs two delivery sessions over one connection against the
/// in-process pool, from `dir`, with `extra` arguments appended.
fn loadgen(dir: &Path, extra: &[&str]) {
    let out = Command::new(env!("CARGO_BIN_EXE_ets-loadgen"))
        .current_dir(dir)
        .args(["--mix", "delivery", "--connections", "1", "--requests", "2"])
        .args(extra)
        .output()
        .expect("ets-loadgen runs");
    assert!(
        out.status.success(),
        "ets-loadgen failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn without_out_no_file_is_written() {
    let dir = scratch("bare");
    loadgen(&dir, &[]);
    assert!(!dir.join("results").exists(), "the run created results/");
    let left: Vec<_> = std::fs::read_dir(&dir)
        .expect("readable")
        .map(|e| e.expect("dir entry").file_name())
        .collect();
    assert!(left.is_empty(), "the run wrote {left:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn out_names_the_report() {
    let dir = scratch("out");
    loadgen(&dir, &["--out", "report/serve.json"]);
    let text = std::fs::read_to_string(dir.join("report/serve.json")).expect("report written");
    let report: Value = serde_json::from_str(&text).expect("report is JSON");
    assert_eq!(
        report.get("schema").and_then(Value::as_str),
        Some("ets.bench_serve.v1")
    );
    assert!(!dir.join("results").exists(), "the run created results/");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Asserts that `flag value` is a usage error that names the flag,
/// exits 1 and writes no report.
fn rejects(flag: &str, value: &str) {
    let dir = scratch(&format!("{}{value}", flag.trim_start_matches('-')));
    let out = Command::new(env!("CARGO_BIN_EXE_ets-loadgen"))
        .current_dir(&dir)
        .args(["--mix", "delivery", "--connections", "1", "--requests", "2"])
        .args([flag, value, "--out", "serve.json"])
        .output()
        .expect("ets-loadgen runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{flag} {value}:\n{stderr}");
    assert!(stderr.contains(flag), "{flag} {value}:\n{stderr}");
    assert!(
        !dir.join("serve.json").exists(),
        "{flag} {value} wrote a report"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn rps_rejects_negative_and_non_finite_rates() {
    for rate in ["-5", "NaN", "inf"] {
        rejects("--rps", rate);
    }
}

#[test]
fn thresholds_reject_negative_and_non_finite_values() {
    for flag in ["--max-failure-rate", "--max-p50-ms", "--max-p99-ms"] {
        for value in ["-1", "NaN", "inf"] {
            rejects(flag, value);
        }
    }
}
