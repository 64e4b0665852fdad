//! The global metrics registry: monotonic counters, gauges, fixed-bucket
//! histograms, and the ordered stage-timing timeline.
//!
//! The registry is split along the repository's determinism boundary:
//!
//! * **Counters and histograms** hold *workload* quantities (emails
//!   classified, funnel layer drops, DL-1 fan-out sizes). Increments are
//!   commutative, so even when they happen inside `ets-parallel` fan-out
//!   closures the final values are a pure function of `(seed, scale)` —
//!   [`snapshot_json`] is asserted byte-identical across thread counts.
//! * **Gauges and stage timings** may hold wall-clock-derived values
//!   (emails/sec, seconds per stage). They are excluded from the
//!   deterministic snapshot and only flow into the JSONL trace log and
//!   live telemetry.
//!
//! Counters and histograms record through the per-thread sharded backend
//! (`crate::sharded`): the hot path is a thread-local lookup plus one
//! relaxed `fetch_add`, and readers merge shards commutatively, so the
//! contention of the old single global mutex is gone while the snapshot
//! stays thread-count-invariant. Gauges and the stage timeline are cold
//! (once per stage / per tick) and stay behind one mutex.

use crate::json;
use crate::sharded;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Mutex, MutexGuard};

pub use crate::sharded::retire_local;

/// A fixed-bucket histogram: `counts[i]` is the number of recorded
/// values `<= bounds[i]`, with one overflow bucket at the end.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// Inclusive upper bounds, ascending.
    pub bounds: Vec<u64>,
    /// Per-bucket counts; `len == bounds.len() + 1`.
    pub counts: Vec<u64>,
}

impl Histogram {
    /// Total number of recorded values.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }
}

#[derive(Debug)]
struct Inner {
    gauges: BTreeMap<String, f64>,
    /// `(stage name, wall-clock seconds)` in run order — the `stage`
    /// lines of the JSONL trace log.
    stages: Vec<(String, f64)>,
}

static REGISTRY: Mutex<Inner> = Mutex::new(Inner {
    gauges: BTreeMap::new(),
    stages: Vec::new(),
});

/// Histogram names already warned about, so a hot-path bounds conflict
/// logs once instead of once per record.
static BOUNDS_WARNED: Mutex<BTreeSet<String>> = Mutex::new(BTreeSet::new());

/// Poison only means a panicking thread held the guard mid-update; the
/// panic still propagates to the test/process, so recovering here never
/// masks a failure.
fn lock() -> MutexGuard<'static, Inner> {
    REGISTRY.lock().unwrap_or_else(|p| p.into_inner())
}

/// Adds `delta` to the named monotonic counter (created at zero).
pub fn counter_add(name: &str, delta: u64) {
    sharded::counter_add(name, delta);
}

/// Current value of a counter (zero when never touched).
pub fn counter_value(name: &str) -> u64 {
    sharded::counter_value(name)
}

/// All counters, sorted by name.
pub fn counters() -> Vec<(String, u64)> {
    sharded::merged_counters().into_iter().collect()
}

/// Sets the named gauge (last write wins). Gauges may carry wall-clock
/// derived values and are excluded from the deterministic snapshot. An
/// existing gauge is updated in place, so only the first set of a name
/// allocates its key.
pub fn gauge_set(name: &str, value: f64) {
    let mut inner = lock();
    match inner.gauges.get_mut(name) {
        Some(slot) => *slot = value,
        None => {
            inner.gauges.insert(name.to_owned(), value);
        }
    }
}

/// Current gauges, sorted by name.
pub fn gauges() -> Vec<(String, f64)> {
    lock().gauges.iter().map(|(k, v)| (k.clone(), *v)).collect()
}

/// Gauges with the given dotted prefix, with `prefix.` stripped, sorted
/// by name.
pub fn gauges_with_prefix(prefix: &str) -> Vec<(String, f64)> {
    lock()
        .gauges
        .iter()
        .filter_map(|(k, v)| {
            k.strip_prefix(prefix)
                .and_then(|rest| rest.strip_prefix('.'))
                .map(|rest| (rest.to_owned(), *v))
        })
        .collect()
}

/// Records one value into the named fixed-bucket histogram. The bucket
/// bounds are fixed by the first call; later calls must pass the same
/// bounds. A violation drops the value, bumps the
/// `obs.histogram_bounds_conflict` counter, and logs one warning per
/// metric name (never panics inside a measurement run).
pub fn histogram_record(name: &str, bounds: &[u64], value: u64) {
    if let Err(canonical) = sharded::histogram_record(name, bounds, value) {
        counter_add("obs.histogram_bounds_conflict", 1);
        warn_bounds_conflict(name, &canonical, bounds);
    }
}

/// Logs the bounds-conflict diagnostic, rate-limited to once per metric
/// name. Returns whether this call was the one that logged.
fn warn_bounds_conflict(name: &str, registered: &[u64], passed: &[u64]) -> bool {
    let mut warned = BOUNDS_WARNED.lock().unwrap_or_else(|p| p.into_inner());
    if !warned.insert(name.to_owned()) {
        return false;
    }
    eprintln!(
        "[ets-obs] warn: histogram {name:?} bounds conflict: registered {registered:?} \
         but caller passed {passed:?}; value dropped \
         (counted in obs.histogram_bounds_conflict; warning once per metric)"
    );
    true
}

/// A copy of the named histogram, if recorded.
pub fn histogram(name: &str) -> Option<Histogram> {
    sharded::merged_histogram(name).map(|(bounds, counts)| Histogram { bounds, counts })
}

/// Appends one entry to the stage-timing timeline.
pub fn stage_record(name: &str, seconds: f64) {
    lock().stages.push((name.to_owned(), seconds));
}

/// The stage-timing timeline, in run order.
pub fn stage_timeline() -> Vec<(String, f64)> {
    lock().stages.clone()
}

/// Runs `f` as a named pipeline stage: wraps it in a `stage.<name>` span,
/// appends its wall-clock duration to the timeline, and returns the
/// result together with the measured seconds.
pub fn time_stage<T>(name: &str, f: impl FnOnce() -> T) -> (T, f64) {
    let _span = crate::span::enter(&format!("stage.{name}"));
    let sw = crate::clock::Stopwatch::start();
    let out = f();
    let secs = sw.elapsed_secs();
    stage_record(name, secs);
    (out, secs)
}

/// Like [`time_stage`], but the stage lands on the timeline only when
/// `f` returns `Ok` — a failed attempt (e.g. a rejected snapshot load
/// that falls back to a fresh build) must not masquerade as a completed
/// pipeline stage in the trace log. The span and the measured seconds
/// are produced either way.
pub fn time_stage_result<T, E>(
    name: &str,
    f: impl FnOnce() -> Result<T, E>,
) -> (Result<T, E>, f64) {
    let _span = crate::span::enter(&format!("stage.{name}"));
    let sw = crate::clock::Stopwatch::start();
    let out = f();
    let secs = sw.elapsed_secs();
    if out.is_ok() {
        stage_record(name, secs);
    }
    (out, secs)
}

/// The deterministic snapshot: counters and histograms only, sorted by
/// name, rendered to JSON. Byte-identical across thread counts for a
/// given `(seed, scale)` workload.
pub fn snapshot_json() -> String {
    let merged = sharded::merged_counters();
    let mut out = String::from("{\n  \"counters\": {");
    for (i, (name, value)) in merged.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str("    ");
        json::write_str(&mut out, name);
        out.push_str(": ");
        out.push_str(&value.to_string());
    }
    out.push_str("\n  },\n  \"histograms\": {");
    for (i, (name, (bounds, counts))) in sharded::merged_histograms().iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str("    ");
        json::write_str(&mut out, name);
        out.push_str(": {\"bounds\": ");
        json::write_u64_array(&mut out, bounds);
        out.push_str(", \"counts\": ");
        json::write_u64_array(&mut out, counts);
        out.push('}');
    }
    out.push_str("\n  }\n}\n");
    out
}

/// Clears every metric and the stage timeline (tests only — production
/// code records for the life of the process).
pub fn reset() {
    sharded::reset();
    let mut r = lock();
    r.gauges.clear();
    r.stages.clear();
    drop(r);
    BOUNDS_WARNED
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The registry is process-global; tests that read whole snapshots
    /// serialize on the workspace-wide obs test lock.
    fn locked<T>(f: impl FnOnce() -> T) -> T {
        let _guard = crate::test_lock();
        reset();
        let out = f();
        reset();
        out
    }

    #[test]
    fn counters_accumulate() {
        locked(|| {
            counter_add("t.a", 2);
            counter_add("t.a", 3);
            assert_eq!(counter_value("t.a"), 5);
            assert_eq!(counter_value("t.untouched"), 0);
        });
    }

    #[test]
    fn gauge_set_keeps_the_last_value() {
        locked(|| {
            gauge_set("t.g", 1.0);
            gauge_set("t.g", 2.5);
            gauge_set("t.other", 7.0);
            assert_eq!(
                gauges_with_prefix("t"),
                vec![("g".to_owned(), 2.5), ("other".to_owned(), 7.0)]
            );
        });
    }

    #[test]
    fn histogram_buckets_by_inclusive_upper_bound() {
        locked(|| {
            let bounds = [1, 4, 16];
            for v in [0, 1, 2, 4, 5, 100] {
                histogram_record("t.h", &bounds, v);
            }
            let h = histogram("t.h").unwrap();
            assert_eq!(h.counts, vec![2, 2, 1, 1]);
            assert_eq!(h.total(), 6);
        });
    }

    #[test]
    fn histogram_bounds_conflict_is_counted_not_fatal() {
        locked(|| {
            histogram_record("t.h2", &[1, 2], 1);
            histogram_record("t.h2", &[1, 3], 1);
            assert_eq!(counter_value("obs.histogram_bounds_conflict"), 1);
            assert_eq!(histogram("t.h2").unwrap().total(), 1);
        });
    }

    #[test]
    fn bounds_conflict_warns_once_per_metric() {
        locked(|| {
            histogram_record("t.warn", &[1, 2], 1);
            // First conflicting record logs; the repeat is rate-limited.
            assert!(warn_bounds_conflict("t.warn", &[1, 2], &[9]));
            assert!(!warn_bounds_conflict("t.warn", &[1, 2], &[9]));
            // A different metric gets its own one-shot warning.
            assert!(warn_bounds_conflict("t.warn2", &[1], &[2]));
            // And the real record path flows through the same limiter.
            histogram_record("t.warn", &[1, 9], 1);
            assert_eq!(counter_value("obs.histogram_bounds_conflict"), 1);
        });
    }

    #[test]
    fn counts_from_other_threads_merge_into_reads() {
        locked(|| {
            counter_add("t.cross", 1);
            std::thread::scope(|scope| {
                for _ in 0..4 {
                    scope.spawn(|| {
                        counter_add("t.cross", 10);
                        histogram_record("t.cross_h", &[8], 3);
                    });
                }
            });
            assert_eq!(counter_value("t.cross"), 41);
            assert_eq!(histogram("t.cross_h").unwrap().total(), 4);
            // The scoped threads have exited, so their shards are
            // already retired; an explicit retire of this thread's
            // shard must not change any merged value.
            retire_local();
            assert_eq!(counter_value("t.cross"), 41);
        });
    }

    #[test]
    fn contended_counters_lose_no_updates() {
        const THREADS: u64 = 8;
        const OPS: u64 = 50_000;
        const NAMES: [&str; 4] = ["t.hot.a", "t.hot.b", "t.hot.c", "t.hot.d"];
        locked(|| {
            std::thread::scope(|scope| {
                for _ in 0..THREADS {
                    scope.spawn(|| {
                        for i in 0..OPS {
                            counter_add(NAMES[(i % 4) as usize], 1);
                        }
                        retire_local();
                    });
                }
            });
            for name in NAMES {
                assert_eq!(counter_value(name), THREADS * OPS / 4, "{name}");
            }
        });
    }

    #[test]
    fn snapshot_is_sorted_and_stable() {
        locked(|| {
            counter_add("z.last", 1);
            counter_add("a.first", 2);
            histogram_record("m.h", &[10], 3);
            gauge_set("wallclock.rate", 123.4);
            let a = snapshot_json();
            let b = snapshot_json();
            assert_eq!(a, b);
            let first = a.find("a.first").unwrap();
            let last = a.find("z.last").unwrap();
            assert!(first < last);
            // Gauges are wall-clock territory: never in the snapshot.
            assert!(!a.contains("wallclock.rate"));
        });
    }

    #[test]
    fn time_stage_appends_to_timeline() {
        locked(|| {
            let (out, secs) = time_stage("unit_test_stage", || 41 + 1);
            assert_eq!(out, 42);
            assert!(secs >= 0.0);
            let tl = stage_timeline();
            assert_eq!(tl.len(), 1);
            assert_eq!(tl[0].0, "unit_test_stage");
        });
    }
}
