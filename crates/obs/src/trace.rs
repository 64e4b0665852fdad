//! The global trace sink and its exporters.
//!
//! While tracing is enabled, closed spans accumulate in an in-memory
//! sink; [`export`] then writes three sibling artifacts:
//!
//! * `<path>` — Chrome trace format (an object with `traceEvents` of
//!   `ph: "X"` complete events), loadable in `chrome://tracing` or
//!   [Perfetto](https://ui.perfetto.dev);
//! * `<base>.jsonl` — one JSON object per line: every span, then every
//!   gauge, stage timing and counter (histograms are only in the
//!   metrics snapshot below);
//! * `<base>.metrics.json` — the deterministic counter/histogram
//!   snapshot ([`crate::metrics::snapshot_json`]), byte-identical across
//!   thread counts.
//!
//! (`<base>` is `<path>` minus a trailing `.json`, so `--trace
//! trace.json` yields `trace.json`, `trace.jsonl`, `trace.metrics.json`.)
//!
//! Span timestamps are wall-clock microseconds from [`crate::clock`] —
//! nondeterministic by nature, which is why they live here and never in
//! `results/*.json`.

use crate::filter::{Filter, Level};
use crate::{json, metrics};
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard};

/// One closed span.
#[derive(Debug, Clone)]
pub struct SpanEvent {
    /// Unique span id (never 0).
    pub id: u64,
    /// Parent span id, 0 for roots.
    pub parent: u64,
    /// Dotted span name, e.g. `funnel.layer3`.
    pub name: String,
    /// Level the span was opened at.
    pub level: Level,
    /// Trace thread label: 0 = main thread, worker index + 1 in fan-outs.
    pub tid: u64,
    /// Start, microseconds since the process clock epoch.
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
    /// Numeric attachments (e.g. `items` processed by a worker).
    pub args: Vec<(&'static str, u64)>,
}

struct State {
    filter: Filter,
    events: Vec<SpanEvent>,
}

/// Fast-path gate checked on every span entry.
static ENABLED: AtomicBool = AtomicBool::new(false);

static STATE: Mutex<State> = Mutex::new(State {
    filter: Filter::off(),
    events: Vec::new(),
});

fn lock() -> MutexGuard<'static, State> {
    STATE.lock().unwrap_or_else(|p| p.into_inner())
}

/// Enables tracing under `filter`. Returns `false` (and stays disabled)
/// when the filter can never record anything.
pub fn enable(filter: Filter) -> bool {
    let mut s = lock();
    if filter.is_off() {
        ENABLED.store(false, Ordering::Relaxed);
        return false;
    }
    s.filter = filter;
    ENABLED.store(true, Ordering::Relaxed);
    true
}

/// Disables tracing and clears any buffered events.
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
    let mut s = lock();
    s.filter = Filter::off();
    s.events.clear();
}

/// Whether tracing is currently enabled.
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Whether a span named `name` at `level` should be recorded now.
pub(crate) fn should_record(name: &str, level: Level) -> bool {
    if !ENABLED.load(Ordering::Relaxed) {
        return false;
    }
    lock().filter.enabled(name, level)
}

/// Buffers one closed span.
pub(crate) fn push(event: SpanEvent) {
    lock().events.push(event);
}

/// Removes and returns all buffered spans, ordered by start time then id.
pub fn drain() -> Vec<SpanEvent> {
    let mut events = std::mem::take(&mut lock().events);
    events.sort_by_key(|e| (e.start_us, e.id));
    events
}

/// The three artifact paths derived from a `--trace` path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExportPaths {
    /// Chrome-trace-format file (the path as given).
    pub chrome: String,
    /// JSONL structured event log.
    pub jsonl: String,
    /// Deterministic counter/histogram snapshot.
    pub metrics: String,
}

/// Derives the sibling artifact paths for a `--trace` path.
pub fn artifact_paths(path: &str) -> ExportPaths {
    let base = path.strip_suffix(".json").unwrap_or(path);
    ExportPaths {
        chrome: path.to_owned(),
        jsonl: format!("{base}.jsonl"),
        metrics: format!("{base}.metrics.json"),
    }
}

/// Drains the sink and writes the three trace artifacts, creating parent
/// directories as needed.
pub fn export(path: &str) -> io::Result<ExportPaths> {
    let paths = artifact_paths(path);
    if let Some(parent) = Path::new(path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let events = drain();
    std::fs::write(&paths.chrome, chrome_trace(&events))?;
    std::fs::write(&paths.jsonl, jsonl_log(&events))?;
    std::fs::write(&paths.metrics, metrics::snapshot_json())?;
    Ok(paths)
}

/// Renders events in Chrome trace format.
pub fn chrome_trace(events: &[SpanEvent]) -> String {
    let mut out = String::from("{\"traceEvents\": [\n");
    out.push_str(
        "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 0, \
         \"args\": {\"name\": \"ets pipeline\"}}",
    );
    for e in events {
        out.push_str(",\n{\"name\": ");
        json::write_str(&mut out, &e.name);
        out.push_str(", \"cat\": ");
        json::write_str(&mut out, e.level.as_str());
        out.push_str(&format!(
            ", \"ph\": \"X\", \"ts\": {}, \"dur\": {}, \"pid\": 1, \"tid\": {}",
            e.start_us, e.dur_us, e.tid
        ));
        out.push_str(&format!(
            ", \"args\": {{\"id\": {}, \"parent\": {}",
            e.id, e.parent
        ));
        for (k, v) in &e.args {
            out.push_str(", ");
            json::write_str(&mut out, k);
            out.push_str(&format!(": {v}"));
        }
        out.push_str("}}");
    }
    out.push_str("\n], \"displayTimeUnit\": \"ms\"}\n");
    out
}

/// Renders the JSONL structured log: spans first (by start time), then
/// gauges, stage timings and counters. Histograms are not logged here;
/// `<base>.metrics.json` holds them.
pub fn jsonl_log(events: &[SpanEvent]) -> String {
    let mut out = String::new();
    for e in events {
        out.push_str("{\"type\": \"span\", \"id\": ");
        out.push_str(&e.id.to_string());
        out.push_str(&format!(", \"parent\": {}, \"name\": ", e.parent));
        json::write_str(&mut out, &e.name);
        out.push_str(", \"level\": ");
        json::write_str(&mut out, e.level.as_str());
        out.push_str(&format!(
            ", \"tid\": {}, \"ts_us\": {}, \"dur_us\": {}, \"args\": {{",
            e.tid, e.start_us, e.dur_us
        ));
        for (i, (k, v)) in e.args.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            json::write_str(&mut out, k);
            out.push_str(&format!(": {v}"));
        }
        out.push_str("}}\n");
    }
    for (name, value) in metrics::gauges() {
        out.push_str("{\"type\": \"gauge\", \"name\": ");
        json::write_str(&mut out, &name);
        out.push_str(", \"value\": ");
        json::write_f64(&mut out, value);
        out.push_str("}\n");
    }
    for (name, secs) in metrics::stage_timeline() {
        out.push_str("{\"type\": \"stage\", \"name\": ");
        json::write_str(&mut out, &name);
        out.push_str(", \"seconds\": ");
        json::write_f64(&mut out, secs);
        out.push_str("}\n");
    }
    for (name, value) in metrics::counters() {
        out.push_str("{\"type\": \"counter\", \"name\": ");
        json::write_str(&mut out, &name);
        out.push_str(&format!(", \"value\": {value}}}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn export_round_trips_through_serde_json() {
        let _guard = crate::test_lock();
        metrics::reset();
        disable();
        enable(Filter::all());
        {
            let mut outer = crate::span::enter("test.export.outer");
            outer.arg("items", 3);
            let _inner = crate::span::enter("test.export.inner");
            metrics::counter_add("test.export.count", 7);
            metrics::gauge_set("test.export.rate", 1.5);
            metrics::histogram_record("test.export.h", &[1, 2], 2);
            metrics::stage_record("test_export_stage", 0.25);
        }
        let dir = std::env::temp_dir().join(format!("ets-obs-test-{}", std::process::id()));
        let path = dir.join("trace.json");
        let paths = export(path.to_str().unwrap()).unwrap();
        disable();

        // Chrome trace: parses, and holds both spans as "X" events.
        let chrome = std::fs::read_to_string(&paths.chrome).unwrap();
        let chrome: serde_json::Value = serde_json::from_str(&chrome).unwrap();
        let te = chrome.get("traceEvents").unwrap().as_array().unwrap();
        let names: Vec<&str> = te
            .iter()
            .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"))
            .filter_map(|e| e.get("name").and_then(|n| n.as_str()))
            .collect();
        assert!(names.contains(&"test.export.outer"));
        assert!(names.contains(&"test.export.inner"));

        // JSONL: every line parses; span parents link up; metrics lines
        // are present.
        let jsonl = std::fs::read_to_string(&paths.jsonl).unwrap();
        let lines: Vec<serde_json::Value> = jsonl
            .lines()
            .map(|l| serde_json::from_str(l).unwrap())
            .collect();
        let span_of = |name: &str| {
            lines
                .iter()
                .find(|l| {
                    l.get("type").and_then(|t| t.as_str()) == Some("span")
                        && l.get("name").and_then(|n| n.as_str()) == Some(name)
                })
                .unwrap()
        };
        let outer = span_of("test.export.outer");
        let inner = span_of("test.export.inner");
        assert_eq!(
            inner.get("parent").and_then(|v| v.as_u64()),
            outer.get("id").and_then(|v| v.as_u64())
        );
        assert_eq!(
            outer
                .get("args")
                .and_then(|a| a.get("items"))
                .and_then(|v| v.as_u64()),
            Some(3)
        );
        assert!(lines.iter().any(|l| {
            l.get("type").and_then(|t| t.as_str()) == Some("counter")
                && l.get("name").and_then(|n| n.as_str()) == Some("test.export.count")
                && l.get("value").and_then(|v| v.as_u64()) == Some(7)
        }));
        assert!(lines.iter().any(|l| {
            l.get("type").and_then(|t| t.as_str()) == Some("gauge")
                && l.get("value").and_then(|v| v.as_f64()) == Some(1.5)
        }));
        assert!(lines.iter().any(|l| {
            l.get("type").and_then(|t| t.as_str()) == Some("stage")
                && l.get("name").and_then(|n| n.as_str()) == Some("test_export_stage")
        }));

        // Metrics snapshot: parses, has the counter, and excludes gauges.
        let snap = std::fs::read_to_string(&paths.metrics).unwrap();
        let snap_v: serde_json::Value = serde_json::from_str(&snap).unwrap();
        assert_eq!(
            snap_v
                .get("counters")
                .and_then(|c| c.get("test.export.count"))
                .and_then(|v| v.as_u64()),
            Some(7)
        );
        assert!(!snap.contains("test.export.rate"));
        metrics::reset();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn artifact_paths_strip_a_json_suffix_only() {
        let p = artifact_paths("out/trace.json");
        assert_eq!(p.jsonl, "out/trace.jsonl");
        assert_eq!(p.metrics, "out/trace.metrics.json");
        let p = artifact_paths("out/mytrace");
        assert_eq!(p.chrome, "out/mytrace");
        assert_eq!(p.jsonl, "out/mytrace.jsonl");
        assert_eq!(p.metrics, "out/mytrace.metrics.json");
    }

    #[test]
    fn enable_refuses_an_off_filter() {
        let _guard = crate::test_lock();
        disable();
        assert!(!enable(Filter::off()));
        assert!(!is_enabled());
    }
}
