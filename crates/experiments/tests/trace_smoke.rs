//! End-to-end observability contract for the `repro` binary:
//!
//! * `--trace` emits a Chrome-trace file, a JSONL event log, and a
//!   deterministic metrics snapshot — all parseable, with a span for
//!   every pipeline stage and per-worker child spans under the
//!   `ets-parallel` fan-outs.
//! * The metrics snapshot is byte-identical at 1/2/8 threads.
//! * Tracing never perturbs the `results/*.json` outputs, and without
//!   `--trace` no trace artifact is written.
//! * `--out` holds result records only: the run's timings live in the
//!   JSONL log, and a record that cannot be written fails the run.
//! * `--snapshot` creates the directories its file goes in, as
//!   `--trace` does.

use serde_json::Value;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Stages `repro all` runs through `time_stage` — each must appear as a
/// `stage.<name>` span in the trace. (The streaming pipeline fuses
/// traffic generation and funnel classification into `stream_collect` +
/// `funnel_finish`; `repro` has no batch mode.)
const STAGES: [&str; 3] = ["world_build", "stream_collect", "funnel_finish"];

/// Top-level pipeline spans every `all --fast` trace must contain.
const PIPELINE_SPANS: [&str; 6] = [
    "world.build",
    "stream.collect",
    "funnel.finish",
    "scan.census",
    "whois.cluster",
    "regression.fit",
];

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ets-trace-smoke-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    v.get(key).unwrap_or_else(|| panic!("missing field {key}"))
}

fn str_field<'a>(v: &'a Value, key: &str) -> &'a str {
    field(v, key)
        .as_str()
        .unwrap_or_else(|| panic!("field {key} not a string"))
}

/// Runs `repro all --fast` with the given thread count, tracing into
/// `<dir>/trace/trace.json` when `traced` (also proving `--trace` creates
/// missing parent directories).
fn run_all(dir: &Path, threads: u32, traced: bool) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_repro"));
    cmd.arg("all")
        .arg("--fast")
        .arg("--out")
        .arg(dir.join("results"))
        .arg("--threads")
        .arg(threads.to_string());
    if traced {
        cmd.arg("--trace").arg(dir.join("trace/trace.json"));
    }
    let out = cmd.output().expect("repro runs");
    assert!(
        out.status.success(),
        "repro all --fast failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// Every file under `<dir>/results` (name → bytes): the outputs that
/// must be byte-identical regardless of tracing and thread count.
fn result_files(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut out = BTreeMap::new();
    for entry in std::fs::read_dir(dir.join("results")).expect("results dir") {
        let entry = entry.expect("dir entry");
        let name = entry.file_name().to_string_lossy().into_owned();
        out.insert(name, std::fs::read(entry.path()).expect("readable"));
    }
    out
}

#[test]
fn trace_artifacts_are_valid_and_deterministic() {
    // One traced run per thread count, plus an untraced run at 2 threads.
    let t1 = scratch("t1");
    let t2 = scratch("t2");
    let t8 = scratch("t8");
    let plain = scratch("plain");
    run_all(&t1, 1, true);
    run_all(&t2, 2, true);
    run_all(&t8, 8, true);
    run_all(&plain, 2, false);

    // --- Chrome trace parses and covers the pipeline -------------------
    let chrome: Value = serde_json::from_str(
        &std::fs::read_to_string(t2.join("trace/trace.json")).expect("chrome trace written"),
    )
    .expect("chrome trace is valid JSON");
    let events = field(&chrome, "traceEvents")
        .as_array()
        .expect("traceEvents is an array");
    let spans: Vec<&Value> = events
        .iter()
        .filter(|e| str_field(e, "ph") == "X")
        .collect();
    let names: Vec<&str> = spans.iter().map(|e| str_field(e, "name")).collect();
    for stage in STAGES {
        let span = format!("stage.{stage}");
        assert!(names.contains(&span.as_str()), "missing {span}");
    }
    for span in PIPELINE_SPANS {
        assert!(names.contains(&span), "missing {span}");
    }

    // --- per-worker child spans parented to their fan-out ---------------
    // Fan-out parents: `parallel.par_map` / `parallel.stream` (the
    // streaming pipeline's worker pool).
    let ids: Vec<u64> = spans
        .iter()
        .filter(|e| {
            let n = str_field(e, "name");
            n.starts_with("parallel.") && n != "parallel.worker"
        })
        .filter_map(|e| field(field(e, "args"), "id").as_u64())
        .collect();
    let workers: Vec<&&Value> = spans
        .iter()
        .filter(|e| str_field(e, "name") == "parallel.worker")
        .collect();
    assert!(!workers.is_empty(), "no worker spans at 2 threads");
    for w in &workers {
        let parent = field(field(w, "args"), "parent")
            .as_u64()
            .expect("worker parent id");
        assert!(ids.contains(&parent), "worker not parented to a fan-out");
        assert!(
            field(w, "tid").as_u64().expect("tid") > 0,
            "worker span on the main tid"
        );
    }

    // --- JSONL log: every line parses, span lines mirror the trace ------
    let jsonl = std::fs::read_to_string(t2.join("trace/trace.jsonl")).expect("jsonl written");
    let lines: Vec<Value> = jsonl
        .lines()
        .map(|line| serde_json::from_str(line).expect("jsonl line parses"))
        .collect();
    let of_type = |kind: &str| -> BTreeMap<&str, &Value> {
        lines
            .iter()
            .filter(|v| str_field(v, "type") == kind)
            .map(|v| (str_field(v, "name"), v))
            .collect()
    };
    let span_lines = lines
        .iter()
        .filter(|v| str_field(v, "type") == "span")
        .count();
    assert_eq!(span_lines, spans.len(), "jsonl/chrome span count mismatch");

    // --- the log carries the run's timings, keyed and counted -----------
    let stage_lines = of_type("stage");
    for stage in STAGES {
        let secs = stage_lines
            .get(stage)
            .and_then(|v| field(v, "seconds").as_f64());
        assert!(secs.is_some(), "no stage line for {stage}");
    }
    let gauges = of_type("gauge");
    let gauge = |name: &str| gauges.get(name).and_then(|v| field(v, "value").as_f64());
    assert_eq!(gauge("run.threads"), Some(2.0), "run.threads gauge");
    assert_eq!(gauge("run.fast"), Some(1.0), "run.fast gauge");
    let log_counters = of_type("counter");
    for count in [
        "lab.world_targets",
        "lab.world_ctypos",
        "lab.traffic_emails",
        "lab.funnel_true_typos",
    ] {
        let value = log_counters
            .get(count)
            .and_then(|v| field(v, "value").as_u64());
        assert!(value.unwrap_or(0) > 0, "counter {count} missing or zero");
    }

    // --- deterministic snapshot: byte-identical across thread counts ----
    let snap = |d: &Path| {
        std::fs::read_to_string(d.join("trace/trace.metrics.json")).expect("snapshot written")
    };
    let s1 = snap(&t1);
    assert_eq!(s1, snap(&t2), "metrics snapshot differs 1 vs 2 threads");
    assert_eq!(s1, snap(&t8), "metrics snapshot differs 1 vs 8 threads");
    let metrics: Value = serde_json::from_str(&s1).expect("snapshot is valid JSON");
    let counters = field(&metrics, "counters");
    for counter in ["funnel.emails", "traffic.emails", "world.ctypos"] {
        assert!(
            field(counters, counter).as_u64().unwrap_or(0) > 0,
            "counter {counter} missing or zero"
        );
    }
    assert!(
        field(
            field(field(&metrics, "histograms"), "world.band_pending_bytes"),
            "counts"
        )
        .as_array()
        .is_some(),
        "band payload histogram missing"
    );
    let counter_names: Vec<&String> = counters
        .as_object()
        .expect("counters is an object")
        .keys()
        .collect();
    assert!(
        counter_names.iter().all(|name| !name.starts_with("bench.")),
        "benchmark counters leaked into the metrics snapshot: {counter_names:?}"
    );

    // --- results/ holds the 16 result records and nothing else ----------
    assert_eq!(result_files(&plain).len(), 16, "files in results/");

    // --- tracing must not perturb results; no --trace, no artifacts -----
    assert_eq!(
        result_files(&t2),
        result_files(&plain),
        "tracing changed results/*.json"
    );
    assert_eq!(
        result_files(&t1),
        result_files(&t8),
        "results differ across thread counts"
    );
    assert!(
        !plain.join("trace").exists(),
        "untraced run wrote trace artifacts"
    );

    for d in [t1, t2, t8, plain] {
        let _ = std::fs::remove_dir_all(d);
    }
}

#[test]
fn snapshot_run_writes_no_file_under_out() {
    let dir = scratch("snapshot");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["snapshot", "--fast", "--snapshot"])
        .arg(dir.join("w.ets"))
        .arg("--out")
        .arg(dir.join("results"))
        .output()
        .expect("repro runs");
    assert!(
        out.status.success(),
        "repro snapshot failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(dir.join("w.ets").is_file(), "snapshot not saved");
    assert!(
        !dir.join("results").exists(),
        "a run that writes no record created --out"
    );
    let _ = std::fs::remove_dir_all(dir);
}

/// `--snapshot` may name a file in directories that do not exist yet:
/// the first run creates them and saves, and the next run reloads.
#[test]
fn snapshot_into_missing_directories_is_saved_and_reloaded() {
    let dir = scratch("snapshot-nested");
    let path = dir.join("a/b/w.ets");
    let run = || {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(["snapshot", "--fast", "--snapshot"])
            .arg(&path)
            .arg("--out")
            .arg(dir.join("results"))
            .output()
            .expect("repro runs");
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        assert!(out.status.success(), "repro snapshot failed:\n{stderr}");
        stderr
    };
    let first = run();
    assert!(path.is_file(), "snapshot not saved:\n{first}");
    let second = run();
    assert!(
        second.contains("stage snapshot_load"),
        "second run did not reload:\n{second}"
    );
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn uncreatable_out_fails_the_run() {
    let dir = scratch("uncreatable");
    // A regular file where the output directory's parent should be.
    std::fs::create_dir_all(&dir).expect("scratch dir");
    std::fs::write(dir.join("file"), b"").expect("scratch file");
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["table1", "--fast", "--out"])
        .arg(dir.join("file/results"))
        .output()
        .expect("repro runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "repro exited 0:\n{stderr}");
    assert!(stderr.contains("cannot write"), "{stderr}");
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn unwritable_record_fails_the_run() {
    let dir = scratch("unwritable");
    // A directory where the record's file should go.
    std::fs::create_dir_all(dir.join("results/table1.json")).expect("scratch dir");
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["table1", "--fast", "--out"])
        .arg(dir.join("results"))
        .output()
        .expect("repro runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "repro exited 0:\n{stderr}");
    assert!(stderr.contains("cannot write"), "{stderr}");
    let _ = std::fs::remove_dir_all(dir);
}
