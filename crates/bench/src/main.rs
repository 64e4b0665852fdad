//! `ets-bench` — the pipeline performance ratchet.
//!
//! Compares a fresh `results/bench_pipeline.json` (written by
//! `repro all`) against the committed baseline `BENCH_pipeline.json` and
//! fails when a stage regresses. CI runs `--check` on every push; the
//! baseline is refreshed deliberately with `--update-baseline` when a
//! change is *supposed* to shift the profile.
//!
//! ```text
//! ets-bench --check                 [--bench FILE] [--baseline FILE]
//! ets-bench --update-baseline       [--bench FILE] [--baseline FILE] [--commit HEX]
//! ets-bench --report-md             [--baseline FILE] [--readme FILE]
//! ets-bench --check-serve           [--bench FILE] [--baseline FILE]
//! ets-bench --update-serve-baseline [--bench FILE] [--baseline FILE] [--commit HEX]
//! ```
//!
//! Baseline entries are keyed by `(threads, fast, streaming, scale)` so
//! a single file can hold the configurations CI exercises (reports from
//! before the `--scale` knob carry no scale field and key as their
//! `fast`/`default` mode). Wall-clock noise policy: a stage only fails
//! the check when it exceeds the baseline by **both** 10% relative and
//! 0.35 s absolute — tiny stages jitter far more than 10% between runs,
//! and large stages hide real regressions behind a pure-absolute bound.
//! A missing baseline (or a configuration the baseline has never seen)
//! warns and exits 0, so new CI matrix cells don't fail before anyone
//! has ratcheted them.
//!
//! Stages a run *skipped* (e.g. `world_build` satisfied from a world
//! snapshot) appear in the report with a `skipped` reason instead of
//! `seconds`; the ratchet never mistakes one for a 0-second run of the
//! real stage.
//!
//! `--update-baseline` also **appends** the run to an ever-growing
//! `history` array (`{commit, threads, fast, streaming, scale, stages}`),
//! so the baseline file doubles as the performance trajectory of the
//! repo; `--report-md` renders that trajectory as a Markdown table and
//! can splice it into the README between the
//! `<!-- ets-bench:trajectory -->` / `<!-- /ets-bench:trajectory -->`
//! markers.
//!
//! The `--check-serve` / `--update-serve-baseline` pair is the same
//! ratchet for the serving benchmark: `results/bench_serve.json`
//! (written by `ets-loadgen`) against `BENCH_serve.json`, with entries
//! keyed by `(mix, phase, connections, requests_per_conn, target_rps)`.
//! Correctness fields gate hard — the report must carry all five Table 5
//! taxonomy rows, zero lost workers, and a passing stop-rule verdict —
//! while the performance fields get socket-scale noise headroom:
//! achieved RPS may fall up to 35% below baseline, and a latency
//! quantile only fails when it exceeds the baseline by both 2× relative
//! and 5 ms absolute. Serve updates append to the same-style `history`
//! array in `BENCH_serve.json`.

#![forbid(unsafe_code)]

use serde_json::{json, Value};
use std::process::ExitCode;

/// Relative headroom before a stage counts as regressed.
const REL_TOLERANCE: f64 = 0.10;
/// Absolute headroom (seconds); guards tiny stages against jitter.
const ABS_TOLERANCE: f64 = 0.35;

/// Serving ratchet: tolerated fractional RPS shortfall vs baseline.
const SERVE_RPS_SHORTFALL: f64 = 0.35;
/// Serving ratchet: relative latency headroom (1.0 = may double).
const SERVE_LAT_REL: f64 = 1.0;
/// Serving ratchet: absolute latency headroom in milliseconds.
const SERVE_LAT_ABS_MS: f64 = 5.0;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut mode: Option<&str> = None;
    let mut bench_arg: Option<String> = None;
    let mut baseline_arg: Option<String> = None;
    let mut commit = "unknown".to_owned();
    let mut readme_path: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--check" => mode = Some("check"),
            "--update-baseline" => mode = Some("update"),
            "--report-md" => mode = Some("report"),
            "--check-serve" => mode = Some("check-serve"),
            "--update-serve-baseline" => mode = Some("update-serve"),
            "--bench" => match it.next() {
                Some(p) => bench_arg = Some(p.clone()),
                None => return usage("--bench needs a file path"),
            },
            "--baseline" => match it.next() {
                Some(p) => baseline_arg = Some(p.clone()),
                None => return usage("--baseline needs a file path"),
            },
            "--commit" => match it.next() {
                Some(c) => commit = c.clone(),
                None => return usage("--commit needs a revision id"),
            },
            "--readme" => match it.next() {
                Some(p) => readme_path = Some(p.clone()),
                None => return usage("--readme needs a file path"),
            },
            other => return usage(&format!("unknown argument {other:?}")),
        }
    }
    let serve = matches!(mode, Some("check-serve") | Some("update-serve"));
    let bench_path = bench_arg.unwrap_or_else(|| {
        if serve {
            "results/bench_serve.json".to_owned()
        } else {
            "results/bench_pipeline.json".to_owned()
        }
    });
    let baseline_path = baseline_arg.unwrap_or_else(|| {
        if serve {
            "BENCH_serve.json".to_owned()
        } else {
            "BENCH_pipeline.json".to_owned()
        }
    });
    if mode == Some("report") {
        return report_md(&baseline_path, readme_path.as_deref());
    }
    let bench = match read_json(&bench_path) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("[ets-bench] cannot read {bench_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match mode {
        Some("check") => check(&bench, &baseline_path),
        Some("update") => update(&bench, &baseline_path, &commit),
        Some("check-serve") => check_serve(&bench, &baseline_path),
        Some("update-serve") => update_serve(&bench, &baseline_path, &commit),
        _ => usage("pass --check, --update-baseline, --check-serve, --update-serve-baseline, or --report-md"),
    }
}

fn usage(err: &str) -> ExitCode {
    eprintln!("error: {err}");
    eprintln!("usage: ets-bench --check|--update-baseline|--check-serve|--update-serve-baseline|--report-md [--bench FILE] [--baseline FILE] [--commit HEX] [--readme FILE]");
    eprintln!("  --bench FILE     fresh report to evaluate (default results/bench_pipeline.json; serve modes: results/bench_serve.json)");
    eprintln!("  --baseline FILE  committed ratchet file (default BENCH_pipeline.json; serve modes: BENCH_serve.json)");
    eprintln!("  --commit HEX     revision recorded with --update-baseline");
    eprintln!("  --readme FILE    with --report-md: splice the trajectory table between the ets-bench:trajectory markers in FILE");
    ExitCode::FAILURE
}

fn read_json(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    serde_json::from_str(&text).map_err(|e| e.to_string())
}

/// The `(threads, fast, streaming, scale)` key of a report or baseline
/// entry.
fn config_key(v: &Value) -> (u64, bool, bool, String) {
    let fast = v.get("fast").and_then(Value::as_bool).unwrap_or(false);
    (
        v.get("threads").and_then(Value::as_u64).unwrap_or(0),
        fast,
        // Reports before the streaming pipeline carry no flag; they were
        // all batch.
        v.get("streaming").and_then(Value::as_bool).unwrap_or(false),
        // Reports before the --scale knob carry no scale field; their
        // world size was implied by the fast flag.
        v.get("scale")
            .and_then(Value::as_str)
            .unwrap_or(if fast { "fast" } else { "default" })
            .to_owned(),
    )
}

/// Stage timings of a report or baseline entry as `(name, seconds)`.
/// Skipped stages (a `skipped` reason instead of `seconds`) are excluded
/// here — see [`skipped_stages`].
fn stage_seconds(v: &Value) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    if let Some(stages) = v.get("stages").and_then(Value::as_array) {
        for s in stages {
            let name = s.get("stage").and_then(Value::as_str);
            let secs = s.get("seconds").and_then(Value::as_f64);
            if s.get("skipped").is_some() {
                continue;
            }
            if let (Some(name), Some(secs)) = (name, secs) {
                out.push((name.to_owned(), secs));
            }
        }
    }
    out
}

/// Stages a report explicitly skipped, as `(name, reason)`.
fn skipped_stages(v: &Value) -> Vec<(String, String)> {
    let mut out = Vec::new();
    if let Some(stages) = v.get("stages").and_then(Value::as_array) {
        for s in stages {
            let name = s.get("stage").and_then(Value::as_str);
            let why = s.get("skipped").and_then(Value::as_str);
            if let (Some(name), Some(why)) = (name, why) {
                out.push((name.to_owned(), why.to_owned()));
            }
        }
    }
    out
}

fn check(bench: &Value, baseline_path: &str) -> ExitCode {
    let baseline = match read_json(baseline_path) {
        Ok(v) => v,
        Err(e) => {
            eprintln!(
                "[ets-bench] no baseline at {baseline_path} ({e}); nothing to ratchet against"
            );
            return ExitCode::SUCCESS;
        }
    };
    let key = config_key(bench);
    let entries = baseline
        .get("entries")
        .and_then(Value::as_array)
        .cloned()
        .unwrap_or_default();
    let Some(base) = entries.iter().find(|e| config_key(e) == key) else {
        eprintln!(
            "[ets-bench] baseline has no entry for threads={} fast={} streaming={} scale={}; run --update-baseline to ratchet this configuration",
            key.0, key.1, key.2, key.3
        );
        return ExitCode::SUCCESS;
    };
    let base_stages = stage_seconds(base);
    let mut failed = false;
    let mut checked = 0;
    for (name, why) in skipped_stages(bench) {
        eprintln!("[ets-bench] stage {name}: skipped ({why}); not ratcheted");
    }
    for (name, secs) in stage_seconds(bench) {
        let Some((_, base_secs)) = base_stages.iter().find(|(n, _)| *n == name) else {
            eprintln!("[ets-bench] stage {name}: {secs:.3}s (new stage, no baseline)");
            continue;
        };
        checked += 1;
        let allowed = f64::max(base_secs * (1.0 + REL_TOLERANCE), base_secs + ABS_TOLERANCE);
        if secs > allowed {
            eprintln!(
                "[ets-bench] REGRESSION stage {name}: {secs:.3}s vs baseline {base_secs:.3}s (allowed {allowed:.3}s)"
            );
            failed = true;
        } else {
            eprintln!("[ets-bench] ok stage {name}: {secs:.3}s vs baseline {base_secs:.3}s");
        }
    }
    if checked == 0 {
        eprintln!("[ets-bench] no overlapping stages between report and baseline");
    }
    if failed {
        eprintln!(
            "[ets-bench] FAIL: stage(s) regressed beyond {:.0}% + {ABS_TOLERANCE}s against {}",
            REL_TOLERANCE * 100.0,
            baseline
                .get("commit")
                .and_then(Value::as_str)
                .unwrap_or("unknown")
        );
        ExitCode::FAILURE
    } else {
        eprintln!("[ets-bench] ratchet holds ({checked} stages checked)");
        ExitCode::SUCCESS
    }
}

fn update(bench: &Value, baseline_path: &str, commit: &str) -> ExitCode {
    let prior = read_json(baseline_path).ok();
    let mut entries = prior
        .as_ref()
        .and_then(|b| b.get("entries").and_then(Value::as_array).cloned())
        .unwrap_or_default();
    let mut history = prior
        .as_ref()
        .and_then(|b| b.get("history").and_then(Value::as_array).cloned())
        .unwrap_or_default();
    let key = config_key(bench);
    let total = bench.get("total_seconds").cloned().unwrap_or(Value::Null);
    let stages = bench.get("stages").cloned().unwrap_or(Value::Null);
    let entry = json!({
        "threads": key.0,
        "fast": key.1,
        "streaming": key.2,
        "scale": key.3,
        "total_seconds": total.clone(),
        "stages": stages.clone(),
    });
    // The ratchet entry for this configuration is replaced; the history
    // records every update ever made, so the file doubles as the repo's
    // performance trajectory.
    history.push(json!({
        "commit": commit,
        "threads": key.0,
        "fast": key.1,
        "streaming": key.2,
        "scale": key.3,
        "total_seconds": total,
        "stages": stages,
    }));
    match entries.iter_mut().find(|e| config_key(e) == key) {
        Some(slot) => *slot = entry,
        None => entries.push(entry),
    }
    let value = json!({ "commit": commit, "entries": entries, "history": history });
    let text = serde_json::to_string_pretty(&value).expect("serializable") + "\n";
    match std::fs::write(baseline_path, text) {
        Ok(()) => {
            eprintln!(
                "[ets-bench] ratcheted {} for threads={} fast={} streaming={} scale={} at {commit}",
                baseline_path, key.0, key.1, key.2, key.3
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("[ets-bench] cannot write {baseline_path}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The `(mix, phase, connections, requests_per_conn, target_rps)` key of
/// one serving-benchmark phase. `mix` lives at the report top level, so
/// it is passed alongside the phase object; baseline entries carry it
/// inline.
fn serve_key(mix: &str, phase: &Value) -> (String, String, u64, u64, String) {
    let num = |k: &str| phase.get(k).and_then(Value::as_u64).unwrap_or(0);
    let rps = phase
        .get("target_rps")
        .and_then(Value::as_f64)
        .unwrap_or(0.0);
    (
        phase
            .get("mix")
            .and_then(Value::as_str)
            .unwrap_or(mix)
            .to_owned(),
        phase
            .get("phase")
            .and_then(Value::as_str)
            .unwrap_or("?")
            .to_owned(),
        num("connections"),
        num("requests_per_conn"),
        format!("{rps:.1}"),
    )
}

/// The five Table 5 taxonomy keys a serve report must carry.
const TABLE5_KEYS: [&str; 5] = [
    "no_error",
    "bounce",
    "timeout",
    "network_error",
    "other_error",
];

/// Structural and correctness validation of a `bench_serve.json` report:
/// these gate hard with no noise headroom.
fn validate_serve(bench: &Value) -> Vec<String> {
    let mut errs = Vec::new();
    if bench.get("schema").and_then(Value::as_str) != Some("ets.bench_serve.v1") {
        errs.push("schema is not ets.bench_serve.v1".to_owned());
    }
    let phases = bench
        .get("phases")
        .and_then(Value::as_array)
        .cloned()
        .unwrap_or_default();
    if phases.is_empty() {
        errs.push("report has no phases".to_owned());
    }
    for p in &phases {
        let name = p.get("phase").and_then(Value::as_str).unwrap_or("?");
        let observed = p.get("taxonomy").and_then(|t| t.get("observed"));
        match observed.and_then(Value::as_object) {
            Some(map) => {
                for k in TABLE5_KEYS {
                    if !map.contains_key(k) {
                        errs.push(format!("phase {name}: taxonomy row {k} missing"));
                    }
                }
            }
            None => errs.push(format!("phase {name}: no taxonomy.observed object")),
        }
        if p.get("lost_workers").and_then(Value::as_u64).unwrap_or(0) > 0 {
            errs.push(format!("phase {name}: lost worker threads"));
        }
        if p.get("stop_rules")
            .and_then(|s| s.get("pass"))
            .and_then(Value::as_bool)
            != Some(true)
        {
            errs.push(format!("phase {name}: stop rules did not pass"));
        }
    }
    errs
}

/// Latency quantile of a serve phase in milliseconds.
fn serve_quantile(phase: &Value, key: &str) -> Option<f64> {
    phase
        .get("latency")
        .and_then(|l| l.get(key))
        .and_then(Value::as_f64)
}

fn check_serve(bench: &Value, baseline_path: &str) -> ExitCode {
    let structural = validate_serve(bench);
    for e in &structural {
        eprintln!("[ets-bench] serve report invalid: {e}");
    }
    if !structural.is_empty() {
        return ExitCode::FAILURE;
    }
    let mix = bench.get("mix").and_then(Value::as_str).unwrap_or("?");
    let phases = bench
        .get("phases")
        .and_then(Value::as_array)
        .cloned()
        .unwrap_or_default();
    let baseline = match read_json(baseline_path) {
        Ok(v) => v,
        Err(e) => {
            eprintln!(
                "[ets-bench] no serve baseline at {baseline_path} ({e}); nothing to ratchet against"
            );
            return ExitCode::SUCCESS;
        }
    };
    let entries = baseline
        .get("entries")
        .and_then(Value::as_array)
        .cloned()
        .unwrap_or_default();
    let mut failed = false;
    let mut checked = 0;
    for p in &phases {
        let key = serve_key(mix, p);
        let Some(base) = entries.iter().find(|e| serve_key(mix, e) == key) else {
            eprintln!(
                "[ets-bench] serve baseline has no entry for mix={} phase={} connections={} requests={} rps={}; run --update-serve-baseline to ratchet it",
                key.0, key.1, key.2, key.3, key.4
            );
            continue;
        };
        checked += 1;
        let rps = p.get("achieved_rps").and_then(Value::as_f64).unwrap_or(0.0);
        let base_rps = base
            .get("achieved_rps")
            .and_then(Value::as_f64)
            .unwrap_or(0.0);
        let rps_floor = base_rps * (1.0 - SERVE_RPS_SHORTFALL);
        if rps < rps_floor {
            eprintln!(
                "[ets-bench] REGRESSION serve {}: achieved {rps:.0} rps vs baseline {base_rps:.0} (floor {rps_floor:.0})",
                key.1
            );
            failed = true;
        } else {
            eprintln!(
                "[ets-bench] ok serve {}: {rps:.0} rps vs baseline {base_rps:.0}",
                key.1
            );
        }
        for q in ["p50_ms", "p99_ms", "p999_ms"] {
            let (Some(fresh), Some(base_q)) = (serve_quantile(p, q), serve_quantile(base, q))
            else {
                continue;
            };
            let allowed = f64::max(base_q * (1.0 + SERVE_LAT_REL), base_q + SERVE_LAT_ABS_MS);
            if fresh > allowed {
                eprintln!(
                    "[ets-bench] REGRESSION serve {} {q}: {fresh:.2} ms vs baseline {base_q:.2} ms (allowed {allowed:.2})",
                    key.1
                );
                failed = true;
            } else {
                eprintln!(
                    "[ets-bench] ok serve {} {q}: {fresh:.2} ms vs baseline {base_q:.2} ms",
                    key.1
                );
            }
        }
    }
    if checked == 0 {
        eprintln!("[ets-bench] no serve phase overlaps the baseline");
    }
    if failed {
        eprintln!("[ets-bench] FAIL: serving path regressed against {baseline_path}");
        ExitCode::FAILURE
    } else {
        eprintln!("[ets-bench] serve ratchet holds ({checked} phases checked)");
        ExitCode::SUCCESS
    }
}

fn update_serve(bench: &Value, baseline_path: &str, commit: &str) -> ExitCode {
    let structural = validate_serve(bench);
    for e in &structural {
        eprintln!("[ets-bench] serve report invalid: {e}");
    }
    if !structural.is_empty() {
        return ExitCode::FAILURE;
    }
    let mix = bench.get("mix").and_then(Value::as_str).unwrap_or("?");
    let phases = bench
        .get("phases")
        .and_then(Value::as_array)
        .cloned()
        .unwrap_or_default();
    let prior = read_json(baseline_path).ok();
    let mut entries = prior
        .as_ref()
        .and_then(|b| b.get("entries").and_then(Value::as_array).cloned())
        .unwrap_or_default();
    let mut history = prior
        .as_ref()
        .and_then(|b| b.get("history").and_then(Value::as_array).cloned())
        .unwrap_or_default();
    for p in &phases {
        let key = serve_key(mix, p);
        let mut entry = p.clone();
        if let Value::Object(map) = &mut entry {
            map.insert("mix".to_owned(), json!(key.0));
        }
        match entries.iter_mut().find(|e| serve_key(mix, e) == key) {
            Some(slot) => *slot = entry,
            None => entries.push(entry),
        }
    }
    history.push(json!({
        "commit": commit,
        "mix": mix,
        "seed": bench.get("seed").cloned().unwrap_or(Value::Null),
        "phases": phases,
    }));
    let value = json!({ "commit": commit, "entries": entries, "history": history });
    let text = serde_json::to_string_pretty(&value).expect("serializable") + "\n";
    match std::fs::write(baseline_path, text) {
        Ok(()) => {
            eprintln!(
                "[ets-bench] ratcheted {baseline_path}: {} phase entr{} at {commit}",
                phases.len(),
                if phases.len() == 1 { "y" } else { "ies" }
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("[ets-bench] cannot write {baseline_path}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Markers between which [`report_md`] splices the trajectory table.
const TRAJ_BEGIN: &str = "<!-- ets-bench:trajectory -->";
const TRAJ_END: &str = "<!-- /ets-bench:trajectory -->";

/// Renders the baseline's `history` as a Markdown speedup-trajectory
/// table; prints it, and splices it into `readme` when given. Rows with
/// a `snapshot_load` stage derive a speedup against the most recent
/// fresh `world_build` at the same scale.
fn report_md(baseline_path: &str, readme: Option<&str>) -> ExitCode {
    let baseline = match read_json(baseline_path) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("[ets-bench] cannot read {baseline_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let history = baseline
        .get("history")
        .and_then(Value::as_array)
        .cloned()
        .unwrap_or_default();
    let mut table = String::from(
        "| commit | scale | threads | world_build (s) | snapshot_load (s) | load speedup | total (s) |\n\
         |---|---|---|---|---|---|---|\n",
    );
    let fmt = |v: Option<f64>| match v {
        Some(s) => format!("{s:.3}"),
        None => "—".to_owned(),
    };
    let mut last_build: std::collections::HashMap<String, f64> = std::collections::HashMap::new();
    let mut rows = 0;
    for h in &history {
        let key = config_key(h);
        let stages = stage_seconds(h);
        let get = |name: &str| stages.iter().find(|(n, _)| n == name).map(|(_, s)| *s);
        let build = get("world_build");
        let load = get("snapshot_load");
        if let Some(b) = build {
            last_build.insert(key.3.clone(), b);
        }
        let speedup = match (load, last_build.get(&key.3)) {
            (Some(l), Some(b)) if l > 0.0 => format!("{:.1}x", b / l),
            _ => "—".to_owned(),
        };
        let commit = h.get("commit").and_then(Value::as_str).unwrap_or("unknown");
        let short: String = commit.chars().take(9).collect();
        let total = h.get("total_seconds").and_then(Value::as_f64);
        table.push_str(&format!(
            "| {short} | {} | {} | {} | {} | {speedup} | {} |\n",
            key.3,
            key.0,
            fmt(build),
            fmt(load),
            fmt(total)
        ));
        rows += 1;
    }
    if rows == 0 {
        table.push_str("| *(no history yet)* | | | | | | |\n");
    }
    print!("{table}");
    let Some(readme_path) = readme else {
        return ExitCode::SUCCESS;
    };
    let text = match std::fs::read_to_string(readme_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("[ets-bench] cannot read {readme_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (Some(begin), Some(end)) = (text.find(TRAJ_BEGIN), text.find(TRAJ_END)) else {
        eprintln!("[ets-bench] {readme_path} has no {TRAJ_BEGIN} / {TRAJ_END} markers");
        return ExitCode::FAILURE;
    };
    if end < begin {
        eprintln!("[ets-bench] {readme_path}: trajectory markers are out of order");
        return ExitCode::FAILURE;
    }
    let spliced = format!(
        "{}{}\n{}{}",
        &text[..begin],
        TRAJ_BEGIN,
        table,
        &text[end..]
    );
    match std::fs::write(readme_path, spliced) {
        Ok(()) => {
            eprintln!("[ets-bench] spliced trajectory table into {readme_path}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("[ets-bench] cannot write {readme_path}: {e}");
            ExitCode::FAILURE
        }
    }
}
