//! `ets-bench` — the performance ratchet for both planes.
//!
//! Compares a fresh run — the JSONL log of `repro --trace` or the
//! `bench_serve.json` report of `ets-loadgen --out` — against the
//! committed baseline `BENCH_ratchet.json` and fails when a metric
//! regresses. CI checks runs of both planes on every push; the baseline
//! moves deliberately with `--update-baseline` when a change is
//! *supposed* to shift the profile.
//!
//! ```text
//! ets-bench --check           --bench FILE [--baseline FILE]
//! ets-bench --update-baseline --bench FILE [--baseline FILE] [--commit HEX]
//! ets-bench --report-md       [--baseline FILE] [--readme FILE]
//! ```
//!
//! A `--bench` file whose name ends in `.jsonl` is a pipeline run's
//! trace log; any other is a serve report. One adapter per kind turns
//! it into rows `{workload, layer, metric, unit, value}`:
//!
//! * a pipeline log is one workload `{plane: "pipeline", threads, fast,
//!   scale, world}`, keyed by the `run.*` gauges every `repro` run sets
//!   (`scale` is `fast`/`default` without `--scale`), with one
//!   `stage.<name>` row (`seconds`) per `stage` line. `world` is
//!   `snapshot` when the log has a `snapshot_load` stage, which only a
//!   reload records, and `build` otherwise, so a reload is never
//!   compared with a fresh build. `ETS_TRACE=off` keeps these lines;
//! * a serve report is one workload per phase, `{plane: "serve", mix,
//!   phase, connections, requests_per_conn, target_rps}`, with `session`
//!   rows `achieved_rps`, `p50_ms`, `p99_ms` and `p999_ms`. Before it
//!   yields a row, the adapter gates the report hard: schema
//!   `ets.bench_serve.v1`, all five Table 5 taxonomy rows, zero lost
//!   workers and passing stop rules.
//!
//! [`BOUNDS`] holds one noise bound per metric. `--check` fails on a row
//! beyond its bound, on a report value that is missing, and on a
//! workload the baseline knows when no row was compared (renamed stages
//! must not pass as "nothing regressed"). It does not require every
//! baseline row to appear: which stages run depends on the experiment. A
//! workload the baseline has never seen warns and passes, so new CI
//! matrix cells don't fail before anyone has ratcheted them.
//!
//! `--update-baseline` replaces the rows of the report's workloads and
//! appends one `{commit, rows}` record to the `history` array, so the
//! baseline doubles as the performance trajectory of the repo.
//! `--report-md` renders the pipeline part of that history as a Markdown
//! table and can splice it into the README between the
//! `<!-- ets-bench:trajectory -->` / `<!-- /ets-bench:trajectory -->`
//! markers.

#![forbid(unsafe_code)]

use serde::{Deserialize, Serialize};
use serde_json::{json, Value};
use std::collections::HashMap;
use std::path::Path;
use std::process::ExitCode;

/// One ratcheted number.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Row {
    /// The configuration that produced the number (a JSON object).
    workload: Value,
    /// Where in the workload: `stage.<name>` or `session`.
    layer: String,
    metric: String,
    unit: String,
    value: f64,
}

/// One `--update-baseline` run: its commit and every row it ratcheted.
#[derive(Serialize, Deserialize)]
struct Record {
    commit: String,
    rows: Vec<Row>,
}

/// The committed ratchet file.
#[derive(Default, Serialize, Deserialize)]
struct Baseline {
    /// The rows `--check` compares against: the latest of each workload.
    entries: Vec<Row>,
    /// Every update ever made, oldest first.
    history: Vec<Record>,
}

/// Which side of its bound a metric fails on.
#[derive(Clone, Copy)]
enum Better {
    Lower,
    Higher,
}

/// Noise bounds by metric: `(metric, better, rel, abs)`. A lower-is-better
/// value fails above max(base × (1 + rel), base + abs); a higher-is-better
/// one fails below min(base × (1 − rel), base − abs).
const BOUNDS: [(&str, Better, f64, f64); 5] = [
    // Wall clock: tiny stages jitter far more than 10% between runs, and
    // large stages would hide real regressions behind a pure-absolute bound.
    ("seconds", Better::Lower, 0.10, 0.35),
    // Socket-scale noise: RPS may fall 35%, a latency quantile may double
    // and may always grow by 5 ms.
    ("achieved_rps", Better::Higher, 0.35, 0.0),
    ("p50_ms", Better::Lower, 1.0, 5.0),
    ("p99_ms", Better::Lower, 1.0, 5.0),
    ("p999_ms", Better::Lower, 1.0, 5.0),
];

/// Relative slack on every limit, so a value on the edge of its decimal
/// bound passes: in `f64`, 0.05 s + 0.35 s is 0.39999999999999997, below
/// a 0.40 s reading.
const EDGE_SLACK: f64 = 1e-12;

/// The five Table 5 taxonomy rows a serve report must carry.
const TABLE5_KEYS: [&str; 5] = [
    "no_error",
    "bounce",
    "timeout",
    "network_error",
    "other_error",
];

/// Markers between which `--report-md --readme` splices the trajectory.
const TRAJ_BEGIN: &str = "<!-- ets-bench:trajectory -->";
const TRAJ_END: &str = "<!-- /ets-bench:trajectory -->";

fn main() -> ExitCode {
    let mut mode: Option<String> = None;
    let mut bench_path: Option<String> = None;
    let mut baseline_path = "BENCH_ratchet.json".to_owned();
    let mut commit = "unknown".to_owned();
    let mut readme: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let slot = match a.as_str() {
            "--check" | "--update-baseline" | "--report-md" => {
                mode = Some(a);
                continue;
            }
            "--bench" => bench_path.insert(String::new()),
            "--baseline" => &mut baseline_path,
            "--commit" => &mut commit,
            "--readme" => readme.insert(String::new()),
            other => return usage(&format!("unknown argument {other:?}")),
        };
        match args.next() {
            Some(v) => *slot = v,
            None => return usage(&format!("{a} needs a value")),
        }
    }
    let bench = bench_path
        .as_deref()
        .ok_or_else(|| vec!["--bench FILE is required".to_owned()]);
    let outcome = match mode.as_deref() {
        Some("--check") => bench.and_then(read_report).and_then(|report| {
            let compared = check(&report, &load(&baseline_path)?)?;
            Ok(format!(
                "ratchet holds ({compared} rows checked against {baseline_path})"
            ))
        }),
        Some("--update-baseline") => bench.and_then(read_report).and_then(|report| {
            // Only the update may start a baseline from nothing.
            let prior = if Path::new(&baseline_path).exists() {
                load(&baseline_path)?
            } else {
                Baseline::default()
            };
            let updated = update(&report, prior, &commit)?;
            let text = serde_json::to_string_pretty(&updated).map_err(|e| vec![e.to_string()])?;
            write(&baseline_path, &(text + "\n"))?;
            Ok(format!("ratcheted {baseline_path} at {commit}"))
        }),
        Some("--report-md") => load(&baseline_path).and_then(|baseline| {
            let table = trajectory(&baseline);
            print!("{table}");
            let Some(readme) = readme else {
                return Ok("trajectory rendered".to_owned());
            };
            let spliced = splice(&read(&readme)?, &table).map_err(|e| vec![e])?;
            write(&readme, &spliced)?;
            Ok(format!("spliced trajectory table into {readme}"))
        }),
        _ => return usage("pass --check, --update-baseline or --report-md"),
    };
    match outcome {
        Ok(done) => {
            eprintln!("[ets-bench] {done}");
            ExitCode::SUCCESS
        }
        Err(errors) => {
            for e in errors {
                eprintln!("[ets-bench] FAIL: {e}");
            }
            ExitCode::FAILURE
        }
    }
}

fn usage(err: &str) -> ExitCode {
    eprintln!("error: {err}");
    eprintln!("usage: ets-bench --check|--update-baseline|--report-md [--bench FILE] [--baseline FILE] [--commit HEX] [--readme FILE]");
    eprintln!("  --bench FILE     a repro --trace JSONL log (*.jsonl) or an ets-loadgen bench_serve.json report; required with --check and --update-baseline");
    eprintln!("  --baseline FILE  committed ratchet file (default BENCH_ratchet.json)");
    eprintln!("  --commit HEX     revision recorded with --update-baseline");
    eprintln!("  --readme FILE    with --report-md: splice the trajectory table between the ets-bench:trajectory markers in FILE");
    ExitCode::FAILURE
}

fn read(path: &str) -> Result<String, Vec<String>> {
    std::fs::read_to_string(path).map_err(|e| vec![format!("cannot read {path}: {e}")])
}

/// A fresh run to ratchet.
enum Report {
    /// The lines of a `repro --trace` JSONL log.
    Pipeline(Vec<Value>),
    /// An `ets-loadgen` report.
    Serve(Value),
}

/// Reads `--bench`: a `.jsonl` file is a pipeline log, any other a serve
/// report.
fn read_report(path: &str) -> Result<Report, Vec<String>> {
    let text = read(path)?;
    let report = if path.ends_with(".jsonl") {
        text.lines()
            .map(serde_json::from_str)
            .collect::<Result<_, _>>()
            .map(Report::Pipeline)
    } else {
        serde_json::from_str(&text).map(Report::Serve)
    };
    report.map_err(|e| vec![format!("cannot parse {path}: {e}")])
}

fn load(path: &str) -> Result<Baseline, Vec<String>> {
    serde_json::from_str(&read(path)?).map_err(|e| vec![format!("cannot parse {path}: {e}")])
}

fn write(path: &str, text: &str) -> Result<(), Vec<String>> {
    std::fs::write(path, text).map_err(|e| vec![format!("cannot write {path}: {e}")])
}

fn row(workload: &Value, layer: &str, metric: &str, unit: &str, value: f64) -> Row {
    Row {
        workload: workload.clone(),
        layer: layer.to_owned(),
        metric: metric.to_owned(),
        unit: unit.to_owned(),
        value,
    }
}

/// Turns a report into rows with its kind's adapter. A report that
/// yields no row is an error, since nothing could be ratcheted.
fn rows(report: &Report) -> Result<Vec<Row>, Vec<String>> {
    let rows = match report {
        Report::Pipeline(log) => pipeline_rows(log)?,
        Report::Serve(report) => serve_rows(report)?,
    };
    if rows.is_empty() {
        return Err(vec!["report has no timed stage or phase".to_owned()]);
    }
    Ok(rows)
}

/// `--scale N` as its preset name (`1k`, `100k`, `1m`), or the raw count.
fn scale_label(n: u64) -> String {
    match n {
        n if n >= 1_000_000 && n % 1_000_000 == 0 => format!("{}m", n / 1_000_000),
        n if n >= 1_000 && n % 1_000 == 0 => format!("{}k", n / 1_000),
        n => n.to_string(),
    }
}

fn pipeline_rows(log: &[Value]) -> Result<Vec<Row>, Vec<String>> {
    let lines = |kind: &'static str| {
        log.iter()
            .filter(move |l| l.get("type").and_then(Value::as_str) == Some(kind))
            .map(|l| (l.get("name").and_then(Value::as_str).unwrap_or("?"), l))
    };
    let gauge = |name: &str| {
        lines("gauge")
            .find(|(n, _)| *n == name)
            .and_then(|(_, l)| l.get("value").and_then(Value::as_f64))
    };
    let (Some(threads), Some(fast)) = (gauge("run.threads"), gauge("run.fast")) else {
        return Err(vec![
            "no run.threads or run.fast gauge in the log".to_owned()
        ]);
    };
    let fast = fast != 0.0;
    let scale = match gauge("run.scale") {
        Some(n) => scale_label(n as u64),
        None if fast => "fast".to_owned(),
        None => "default".to_owned(),
    };
    let world = if lines("stage").any(|(n, _)| n == "snapshot_load") {
        "snapshot"
    } else {
        "build"
    };
    let workload = json!({
        "plane": "pipeline",
        "threads": threads as u64,
        "fast": fast,
        "scale": scale,
        "world": world,
    });
    let mut out = Vec::new();
    let mut errors = Vec::new();
    for (name, l) in lines("stage") {
        let layer = format!("stage.{name}");
        match l.get("seconds").and_then(Value::as_f64) {
            Some(secs) => out.push(row(&workload, &layer, "seconds", "s", secs)),
            None => errors.push(format!("{layer}: no seconds")),
        }
    }
    errors.is_empty().then_some(out).ok_or(errors)
}

fn serve_rows(report: &Value) -> Result<Vec<Row>, Vec<String>> {
    let mut errors = Vec::new();
    if report.get("schema").and_then(Value::as_str) != Some("ets.bench_serve.v1") {
        errors.push("schema is not ets.bench_serve.v1".to_owned());
    }
    let phases = report
        .get("phases")
        .and_then(Value::as_array)
        .map_or(&[][..], Vec::as_slice);
    if phases.is_empty() {
        errors.push("report has no phases".to_owned());
    }
    let mix = report.get("mix").and_then(Value::as_str).unwrap_or("?");
    let mut out = Vec::new();
    for p in phases {
        let name = p.get("phase").and_then(Value::as_str).unwrap_or("?");
        match p
            .get("taxonomy")
            .and_then(|t| t.get("observed"))
            .and_then(Value::as_object)
        {
            Some(observed) => errors.extend(
                TABLE5_KEYS
                    .iter()
                    .filter(|k| !observed.contains_key(**k))
                    .map(|k| format!("phase {name}: taxonomy row {k} missing")),
            ),
            None => errors.push(format!("phase {name}: no taxonomy.observed object")),
        }
        if p.get("lost_workers").and_then(Value::as_u64).unwrap_or(0) > 0 {
            errors.push(format!("phase {name}: lost worker threads"));
        }
        if p.get("stop_rules")
            .and_then(|s| s.get("pass"))
            .and_then(Value::as_bool)
            != Some(true)
        {
            errors.push(format!("phase {name}: stop rules did not pass"));
        }
        let count = |k: &str| p.get(k).and_then(Value::as_u64).unwrap_or(0);
        let rps = p.get("target_rps").and_then(Value::as_f64).unwrap_or(0.0);
        let workload = json!({
            "plane": "serve",
            "mix": mix,
            "phase": name,
            "connections": count("connections"),
            "requests_per_conn": count("requests_per_conn"),
            // The offered rate keys to one decimal.
            "target_rps": (rps * 10.0).round() / 10.0,
        });
        let latency = |q: &str| p.get("latency").and_then(|l| l.get(q));
        for (metric, unit, value) in [
            ("achieved_rps", "1/s", p.get("achieved_rps")),
            ("p50_ms", "ms", latency("p50_ms")),
            ("p99_ms", "ms", latency("p99_ms")),
            ("p999_ms", "ms", latency("p999_ms")),
        ] {
            match value.and_then(Value::as_f64) {
                Some(v) => out.push(row(&workload, "session", metric, unit, v)),
                None => errors.push(format!("phase {name}: no {metric}")),
            }
        }
    }
    errors.is_empty().then_some(out).ok_or(errors)
}

/// Rows grouped by workload, in first-seen order.
fn by_workload(rows: &[Row]) -> Vec<(&Value, Vec<&Row>)> {
    let mut groups: Vec<(&Value, Vec<&Row>)> = Vec::new();
    for r in rows {
        match groups.iter_mut().find(|(w, _)| **w == r.workload) {
            Some((_, group)) => group.push(r),
            None => groups.push((&r.workload, vec![r])),
        }
    }
    groups
}

/// The limit a `metric` reading may reach against `base`, and whether
/// `value` lies beyond it.
fn judge(metric: &str, base: f64, value: f64) -> (f64, bool) {
    let &(_, better, rel, abs) = BOUNDS
        .iter()
        .find(|b| b.0 == metric)
        .expect("the adapters emit only bounded metrics");
    match better {
        Better::Lower => {
            let limit = f64::max(base * (1.0 + rel), base + abs);
            (limit, value > limit * (1.0 + EDGE_SLACK))
        }
        Better::Higher => {
            let limit = f64::min(base * (1.0 - rel), base - abs);
            (limit, value < limit * (1.0 - EDGE_SLACK))
        }
    }
}

/// `--check`: compares every report row with the baseline row of the same
/// workload, layer and metric. Returns how many rows were compared, or
/// every failure.
fn check(report: &Report, baseline: &Baseline) -> Result<usize, Vec<String>> {
    let rows = rows(report)?;
    let mut compared = 0;
    let mut errors = Vec::new();
    for (workload, group) in by_workload(&rows) {
        let key = serde_json::to_string(workload).unwrap_or_default();
        let base: Vec<&Row> = baseline
            .entries
            .iter()
            .filter(|b| b.workload == *workload)
            .collect();
        if base.is_empty() {
            eprintln!(
                "[ets-bench] baseline has no rows for {key}; run --update-baseline to ratchet it"
            );
            continue;
        }
        let mut matched = 0;
        for r in group {
            let what = format!("{key} {} {}", r.layer, r.metric);
            let Some(b) = base
                .iter()
                .find(|b| b.layer == r.layer && b.metric == r.metric)
            else {
                eprintln!(
                    "[ets-bench] new row {what}: {:.3} {} (no baseline)",
                    r.value, r.unit
                );
                continue;
            };
            matched += 1;
            let (limit, regressed) = judge(&r.metric, b.value, r.value);
            let line = format!(
                "{what}: {:.3} {unit} vs baseline {:.3} {unit} (limit {limit:.3})",
                r.value,
                b.value,
                unit = r.unit
            );
            if regressed {
                errors.push(format!("REGRESSION {line}"));
            } else {
                eprintln!("[ets-bench] ok {line}");
            }
        }
        if matched == 0 {
            errors.push(format!(
                "{key}: no report row matches a baseline row, so nothing was compared"
            ));
        }
        compared += matched;
    }
    errors.is_empty().then_some(compared).ok_or(errors)
}

/// `--update-baseline`: replaces every baseline row of the report's
/// workloads with the report's rows and appends one history record.
fn update(report: &Report, mut baseline: Baseline, commit: &str) -> Result<Baseline, Vec<String>> {
    let rows = rows(report)?;
    baseline
        .entries
        .retain(|b| rows.iter().all(|r| r.workload != b.workload));
    baseline.entries.extend(rows.iter().cloned());
    baseline.history.push(Record {
        commit: commit.to_owned(),
        rows,
    });
    Ok(baseline)
}

/// The pipeline history as a Markdown table: world build vs snapshot
/// reload per scale, one line per record. A reload's speedup is taken
/// against the latest fresh build at the same scale; the total sums the
/// record's stage rows.
fn trajectory(baseline: &Baseline) -> String {
    let mut table = String::from(
        "| commit | scale | threads | world_build (s) | snapshot_load (s) | load speedup | total (s) |\n\
         |---|---|---|---|---|---|---|\n",
    );
    let fmt = |v: Option<f64>| v.map_or_else(|| "—".to_owned(), |s| format!("{s:.3}"));
    let mut last_build: HashMap<String, f64> = HashMap::new();
    let mut lines = 0;
    for record in &baseline.history {
        let short: String = record.commit.chars().take(9).collect();
        for (workload, stages) in by_workload(&record.rows) {
            if workload.get("plane").and_then(Value::as_str) != Some("pipeline") {
                continue;
            }
            let scale = workload.get("scale").and_then(Value::as_str).unwrap_or("?");
            let threads = workload.get("threads").and_then(Value::as_u64).unwrap_or(0);
            let stage = |name: &str| {
                stages
                    .iter()
                    .find(|r| r.layer.strip_prefix("stage.") == Some(name))
                    .map(|r| r.value)
            };
            let (build, load) = (stage("world_build"), stage("snapshot_load"));
            if let Some(b) = build {
                last_build.insert(scale.to_owned(), b);
            }
            let speedup = match (load, last_build.get(scale)) {
                (Some(l), Some(b)) if l > 0.0 => format!("{:.1}x", b / l),
                _ => "—".to_owned(),
            };
            let total: f64 = stages.iter().map(|r| r.value).sum();
            table.push_str(&format!(
                "| {short} | {scale} | {threads} | {} | {} | {speedup} | {total:.3} |\n",
                fmt(build),
                fmt(load)
            ));
            lines += 1;
        }
    }
    if lines == 0 {
        table.push_str("| *(no history yet)* | | | | | | |\n");
    }
    table
}

/// `text` with `table` between the trajectory markers.
fn splice(text: &str, table: &str) -> Result<String, String> {
    let (Some(begin), Some(end)) = (text.find(TRAJ_BEGIN), text.find(TRAJ_END)) else {
        return Err(format!("no {TRAJ_BEGIN} / {TRAJ_END} markers"));
    };
    if end < begin {
        return Err("trajectory markers are out of order".to_owned());
    }
    Ok(format!(
        "{}{TRAJ_BEGIN}\n{table}{}",
        &text[..begin],
        &text[end..]
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Map;

    /// A `repro --trace` JSONL log, its lines written as `ets_obs::trace`
    /// writes them: the gauges, then one `stage` line per stage.
    fn log(gauges: &[(&str, f64)], stages: &[(&str, f64)]) -> Report {
        let gauges = gauges.iter().map(|(name, value)| {
            format!(r#"{{"type": "gauge", "name": "{name}", "value": {value:?}}}"#)
        });
        let stages = stages.iter().map(|(name, secs)| {
            format!(r#"{{"type": "stage", "name": "{name}", "seconds": {secs:?}}}"#)
        });
        let lines = gauges.chain(stages);
        Report::Pipeline(
            lines
                .map(|l| serde_json::from_str(&l).expect("log line parses"))
                .collect(),
        )
    }

    /// The log of a 1-thread run: `--fast` or the default mode.
    fn mode_log(fast: bool, stages: &[(&str, f64)]) -> Report {
        let fast = if fast { 1.0 } else { 0.0 };
        log(&[("run.fast", fast), ("run.threads", 1.0)], stages)
    }

    /// The log of a 1-thread `--scale n` run.
    fn scale_log(n: u64, stages: &[(&str, f64)]) -> Report {
        let gauges = [
            ("run.fast", 0.0),
            ("run.scale", n as f64),
            ("run.threads", 1.0),
        ];
        log(&gauges, stages)
    }

    /// A passing 16-connection serve phase.
    fn phase(rps: f64, p50: f64, p99: f64, p999: f64) -> Map {
        let Value::Object(phase) = json!({
            "phase": "pool",
            "connections": 16,
            "requests_per_conn": 8,
            "target_rps": 200.0,
            "achieved_rps": rps,
            "latency": { "p50_ms": p50, "p99_ms": p99, "p999_ms": p999 },
            "lost_workers": 0,
            "stop_rules": { "pass": true, "violations": [] },
            "taxonomy": { "observed": {
                "no_error": 92, "bounce": 12, "timeout": 10,
                "network_error": 9, "other_error": 5,
            } },
        }) else {
            unreachable!("json! object literal")
        };
        phase
    }

    fn serve_report(phase: Map) -> Report {
        Report::Serve(
            json!({ "schema": "ets.bench_serve.v1", "mix": "paper", "phases": [Value::Object(phase)] }),
        )
    }

    /// A baseline built by updating from `reports` in order.
    fn baseline_of(reports: &[Report]) -> Baseline {
        reports.iter().fold(Baseline::default(), |b, r| {
            update(r, b, "base").expect("valid report")
        })
    }

    fn committed_baseline() -> Baseline {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_ratchet.json");
        let text = std::fs::read_to_string(path).expect("committed baseline");
        serde_json::from_str(&text).expect("baseline parses")
    }

    fn stage_passes(base: f64, secs: f64) -> bool {
        let baseline = baseline_of(&[scale_log(1_000, &[("world_build", base)])]);
        check(&scale_log(1_000, &[("world_build", secs)]), &baseline).is_ok()
    }

    #[test]
    fn seconds_bound_is_the_larger_of_10_percent_and_350_ms() {
        assert!(stage_passes(0.05, 0.40));
        assert!(!stage_passes(0.05, 0.40 + 1e-9));
        assert!(stage_passes(10.0, 11.0));
        assert!(!stage_passes(10.0, 11.0 + 1e-9));
    }

    #[test]
    fn logs_key_as_the_committed_pipeline_workloads() {
        let key = |log: Report| rows(&log).expect("valid log")[0].workload.clone();
        let build = [("world_build", 1.0), ("snapshot_save", 0.1)];
        let reload = [("snapshot_load", 0.1)];
        let mut cases = vec![
            (key(mode_log(true, &build)), (true, "fast", "build")),
            (key(mode_log(false, &build)), (false, "default", "build")),
        ];
        for (n, scale) in [(1_000, "1k"), (100_000, "100k"), (1_000_000, "1m")] {
            cases.push((key(scale_log(n, &build)), (false, scale, "build")));
            cases.push((key(scale_log(n, &reload)), (false, scale, "snapshot")));
        }
        let committed = committed_baseline();
        for (got, (fast, scale, world)) in cases {
            let want = json!({
                "plane": "pipeline", "threads": 1, "fast": fast, "scale": scale, "world": world,
            });
            assert_eq!(got, want);
            assert!(
                committed.entries.iter().any(|e| e.workload == got),
                "{got:?} is not a committed workload"
            );
        }
        let odd = key(scale_log(1_500, &build));
        assert_eq!(odd.get("scale"), Some(&json!("1500")));
    }

    #[test]
    fn fast_log_checks_three_rows_against_the_committed_baseline() {
        let stages = [
            ("world_build", 0.05),
            ("stream_collect", 0.10),
            ("funnel_finish", 0.002),
        ];
        let fast = mode_log(true, &stages);
        assert_eq!(check(&fast, &committed_baseline()), Ok(3));
    }

    #[test]
    fn log_without_run_gauges_is_rejected() {
        let untagged = log(&[("run.fast", 1.0)], &[("world_build", 0.05)]);
        let errors = rows(&untagged).expect_err("no run.threads");
        assert!(errors[0].contains("run.threads"), "{errors:?}");
        assert!(update(&untagged, Baseline::default(), "x").is_err());
    }

    #[test]
    fn serve_bounds_at_their_edges() {
        let baseline = baseline_of(&[serve_report(phase(100.0, 1.0, 1.0, 100.0))]);
        let passes = |p: Map| check(&serve_report(p), &baseline).is_ok();
        assert!(passes(phase(65.0, 1.0, 1.0, 100.0)));
        assert!(!passes(phase(65.0 - 1e-9, 1.0, 1.0, 100.0)));
        assert!(passes(phase(100.0, 1.0, 6.0, 100.0)));
        assert!(!passes(phase(100.0, 1.0, 6.0 + 1e-9, 100.0)));
        let baseline = baseline_of(&[serve_report(phase(100.0, 1.0, 100.0, 100.0))]);
        let passes = |p: Map| check(&serve_report(p), &baseline).is_ok();
        assert!(passes(phase(100.0, 1.0, 200.0, 100.0)));
        assert!(!passes(phase(100.0, 1.0, 200.0 + 1e-9, 100.0)));
    }

    #[test]
    fn unknown_workload_passes_unchecked() {
        let baseline = baseline_of(&[scale_log(1_000, &[("world_build", 0.05)])]);
        let report = scale_log(100_000, &[("world_build", 500.0)]);
        assert_eq!(check(&report, &baseline), Ok(0));
    }

    #[test]
    fn reload_is_never_compared_with_a_fresh_build() {
        let build = scale_log(1_000, &[("world_build", 0.28), ("snapshot_save", 0.01)]);
        let reload = |secs| scale_log(1_000, &[("snapshot_load", secs)]);
        assert_eq!(check(&reload(50.0), &baseline_of(&[build])), Ok(0));
        let baseline = baseline_of(&[reload(0.06)]);
        assert_eq!(check(&reload(0.06), &baseline), Ok(1));
    }

    #[test]
    fn missing_stages_pass_but_renamed_stages_fail() {
        let stages = [
            ("world_build", 0.05),
            ("stream_collect", 0.10),
            ("funnel_finish", 0.002),
        ];
        let baseline = baseline_of(&[mode_log(true, &stages)]);
        // `repro snapshot` times world_build alone.
        let snapshot_only = mode_log(true, &stages[..1]);
        assert_eq!(check(&snapshot_only, &baseline), Ok(1));
        let renamed = mode_log(true, &[("build", 0.05), ("collect", 0.10)]);
        let errors = check(&renamed, &baseline).expect_err("compared nothing");
        assert!(errors[0].contains("nothing was compared"), "{errors:?}");
    }

    #[test]
    fn serve_report_without_latency_fails() {
        let baseline = baseline_of(&[serve_report(phase(100.0, 1.0, 1.0, 100.0))]);
        let mut p = phase(100.0, 1.0, 1.0, 100.0);
        p.remove("latency");
        let report = serve_report(p);
        let errors = check(&report, &baseline).expect_err("no latency");
        assert!(errors.iter().any(|e| e.contains("no p99_ms")), "{errors:?}");
        assert!(update(&report, Baseline::default(), "x").is_err());
    }

    #[test]
    fn serve_gate_rejects_broken_reports_in_check_and_update() {
        let good = phase(100.0, 1.0, 1.0, 100.0);
        let baseline = baseline_of(&[serve_report(good.clone())]);
        let Report::Serve(mut wrong_schema) = serve_report(good.clone()) else {
            unreachable!("a serve report")
        };
        if let Value::Object(m) = &mut wrong_schema {
            m.insert("schema".to_owned(), json!("ets.bench_serve.v0"));
        }
        let mut cases = vec![(Report::Serve(wrong_schema), "schema is not")];
        for (key, value, why) in [
            (
                "taxonomy",
                json!({ "observed": { "no_error": 1, "bounce": 1, "timeout": 1, "network_error": 1 } }),
                "taxonomy row other_error missing",
            ),
            ("lost_workers", json!(1), "lost worker"),
            (
                "stop_rules",
                json!({ "pass": false, "violations": ["failure rate"] }),
                "stop rules did not pass",
            ),
        ] {
            let mut p = good.clone();
            p.insert(key.to_owned(), value);
            cases.push((serve_report(p), why));
        }
        for (bad, why) in cases {
            for errors in [
                check(&bad, &baseline).expect_err(why),
                update(&bad, Baseline::default(), "x").err().expect(why),
            ] {
                assert!(errors.iter().any(|e| e.contains(why)), "{why}: {errors:?}");
            }
        }
    }

    #[test]
    fn update_replaces_only_the_report_workload_and_appends_one_record() {
        let serve = serve_report(phase(100.0, 1.0, 1.0, 100.0));
        let old = mode_log(true, &[("world_build", 0.05), ("stream_collect", 0.1)]);
        let baseline = baseline_of(&[old, serve]);
        let fresh = mode_log(true, &[("world_build", 0.04)]);
        let updated = update(&fresh, baseline, "new").expect("valid");
        let expected: Vec<Row> = rows(&serve_report(phase(100.0, 1.0, 1.0, 100.0)))
            .expect("valid")
            .into_iter()
            .chain(rows(&fresh).expect("valid"))
            .collect();
        assert_eq!(updated.entries, expected);
        assert_eq!(updated.history.len(), 3);
        let last = &updated.history[2];
        assert_eq!(last.commit, "new");
        assert_eq!(last.rows, rows(&fresh).expect("valid"));
    }

    #[test]
    fn readme_trajectory_matches_committed_baseline() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let readme = std::fs::read_to_string(root.join("README.md")).expect("committed file");
        assert_eq!(
            splice(&readme, &trajectory(&committed_baseline())),
            Ok(readme)
        );
    }
}
