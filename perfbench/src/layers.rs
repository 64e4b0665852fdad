//! The traced run's span bookkeeping.
//!
//! The benchmark wraps each call into a layer in an `ets_obs` span named
//! `layer.<name>`, opened from the benchmark's own code; the program's
//! existing spans nest inside and count toward the layer that called
//! them. A layer's self time is its span's duration minus the part its
//! `layer.*` child spans cover, so the root span's self time is the
//! residual: wall time the named layers do not explain. The spans are
//! exported in the same Chrome-trace and JSONL formats `repro --trace`
//! writes, so both open side by side in Perfetto.

use ets_obs::trace::{self, SpanEvent};
use ets_obs::Filter;
use std::collections::BTreeMap;

/// Opens a `layer.<name>` span; it closes when the guard drops.
pub fn span(name: &str) -> ets_obs::SpanGuard {
    ets_obs::span::enter(&format!("layer.{name}"))
}

/// Runs `f` inside a `layer.<name>` span.
pub fn call<T>(name: &str, f: impl FnOnce() -> T) -> T {
    let _span = span(name);
    f()
}

/// Starts recording spans (every level, so the program's debug and
/// worker spans land in the same file).
pub fn start() {
    trace::enable(Filter::all());
}

/// Per-layer totals of one traced stretch, keyed by the layer name
/// without its `layer.` prefix.
pub struct LayerTimes {
    /// Σ span duration, seconds.
    total: BTreeMap<String, f64>,
    /// Σ self time (duration minus `layer.*` children), seconds.
    self_time: BTreeMap<String, f64>,
}

impl LayerTimes {
    pub fn total(&self, layer: &str) -> f64 {
        self.total.get(layer).copied().unwrap_or(0.0)
    }

    pub fn self_time(&self, layer: &str) -> f64 {
        self.self_time.get(layer).copied().unwrap_or(0.0)
    }
}

/// Stops recording, writes the trace artifacts for this run, and sums
/// the `layer.*` spans. Returns the totals and the Chrome-trace path.
pub fn finish(workload: &str, seed: u64) -> (LayerTimes, String) {
    let events = trace::drain();
    trace::disable();
    let times = layer_times(&events);
    let base = crate::measure::out_dir().join(format!("trace-{workload}-{seed}"));
    let chrome = format!("{}.json", base.display());
    let jsonl = format!("{}.jsonl", base.display());
    let written = std::fs::write(&chrome, trace::chrome_trace(&events))
        .and_then(|()| std::fs::write(&jsonl, trace::jsonl_log(&events)));
    if let Err(e) = written {
        eprintln!("perfbench: cannot write trace {chrome}: {e}");
    }
    (times, chrome)
}

fn layer_times(events: &[SpanEvent]) -> LayerTimes {
    let secs = |us: u64| us as f64 / 1e6;
    let mut child_us: BTreeMap<u64, u64> = BTreeMap::new();
    for e in events.iter().filter(|e| e.name.starts_with("layer.")) {
        *child_us.entry(e.parent).or_insert(0) += e.dur_us;
    }
    let mut total = BTreeMap::new();
    let mut self_time = BTreeMap::new();
    for e in events {
        let Some(layer) = e.name.strip_prefix("layer.") else {
            continue;
        };
        let own = e
            .dur_us
            .saturating_sub(child_us.get(&e.id).copied().unwrap_or(0));
        *total.entry(layer.to_owned()).or_insert(0.0) += secs(e.dur_us);
        *self_time.entry(layer.to_owned()).or_insert(0.0) += secs(own);
    }
    LayerTimes { total, self_time }
}
