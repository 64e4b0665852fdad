//! The **only** module in the workspace (outside the benchmark harness)
//! that may read the wall clock.
//!
//! The determinism contract of this repository is that every value in
//! `results/*.json` is a pure function of `(seed, scale)`. Wall-clock
//! readings obviously are not, so they are quarantined here: everything
//! else in `ets-obs` consumes the `u64` microsecond values this module
//! hands out, and those values only ever flow into trace artifacts
//! (`trace.json`, `trace.jsonl`) and live telemetry, never into result
//! figures. `ets-lint`'s `nondeterministic-source` rule allowlists
//! exactly this file — `Instant::now` anywhere else in the workspace,
//! including elsewhere in `ets-obs`, is a deny-tier finding.

use std::sync::OnceLock;
use std::time::Instant;

/// Process-wide epoch: the first clock read. All trace timestamps are
/// microseconds since this instant, which is what the Chrome trace
/// format's `ts` field expects (relative, monotonic, µs).
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Microseconds since the first call to any function in this module.
/// Monotonic and cheap; the first call returns 0.
pub fn monotonic_micros() -> u64 {
    let epoch = EPOCH.get_or_init(Instant::now);
    epoch.elapsed().as_micros() as u64
}

/// A started stopwatch, for stage-level timing.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch(Instant);

impl Stopwatch {
    /// Starts a stopwatch now.
    pub fn start() -> Stopwatch {
        // Touch the epoch so a run's first timed stage still reports
        // trace timestamps relative to a sensible zero.
        let _ = EPOCH.get_or_init(Instant::now);
        Stopwatch(Instant::now())
    }

    /// Seconds elapsed since [`Stopwatch::start`].
    pub fn elapsed_secs(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotonic_micros_is_monotonic() {
        let a = monotonic_micros();
        let b = monotonic_micros();
        assert!(b >= a);
    }

    #[test]
    fn stopwatch_measures_nonnegative_time() {
        let sw = Stopwatch::start();
        assert!(sw.elapsed_secs() >= 0.0);
    }
}
