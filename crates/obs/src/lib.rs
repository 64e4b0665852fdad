//! `ets-obs` — dependency-free observability for the measurement
//! pipeline: hierarchical spans, a global metrics registry, a JSONL
//! structured event log, and Chrome-trace export.
//!
//! A multi-stage, multi-threaded measurement run needs per-stage
//! accounting — *where did the funnel drop these emails, which worker
//! ran long* — but this repository's defining invariant is that
//! `results/*.json` is a pure function of `(seed, scale)`. The crate
//! therefore splits observability along that determinism boundary:
//!
//! * [`metrics`] counters and fixed-bucket histograms hold workload
//!   quantities whose updates commute, so their final values (and the
//!   [`metrics::snapshot_json`] rendering) are byte-identical across
//!   thread counts. Gauges and stage timings may carry wall-clock
//!   values and stay out of the snapshot.
//! * [`mod@span`] spans carry wall-clock timestamps and live only in trace
//!   artifacts (`trace.json` / `trace.jsonl`), written by [`trace`].
//! * [`latency`] log-linear histograms hold wall-clock durations with
//!   p50/p99/p999 quantile extraction; like gauges they are excluded
//!   from the deterministic snapshot and surface through the live
//!   [`serve`] introspection endpoints (`/metrics`, `/snapshot.json`,
//!   `/healthz`).
//! * [`clock`] is the single module allowed to read the wall clock —
//!   `ets-lint`'s `nondeterministic-source` rule allowlists exactly
//!   `crates/obs/src/clock.rs` and denies `Instant::now` everywhere
//!   else, including the rest of this crate.
//!
//! Tracing is **off by default**: every span entry point is a no-op
//! behind one relaxed atomic load until [`trace::enable`] is called
//! (the `repro --trace <file>` flag, filtered by the `ETS_TRACE`
//! env var — see [`filter`]).
//!
//! ```
//! let _stage = ets_obs::span!("funnel.layer2");
//! ets_obs::metrics::counter_add("funnel.emails", 128);
//! ```

#![forbid(unsafe_code)]

pub mod clock;
pub mod filter;
mod json;
pub mod latency;
pub mod metrics;
pub mod serve;
mod sharded;
pub mod span;
pub mod trace;

pub use filter::{Filter, Level};
pub use span::SpanGuard;

/// Serializes tests that touch the process-global registry/sink.
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|p| p.into_inner())
}
