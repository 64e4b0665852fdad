//! Peak-memory accounting for the streaming pipeline (the `MemGauge`).
//!
//! The repository's crate-hygiene rule (`#![forbid(unsafe_code)]` in
//! every crate root) rules out a counting `GlobalAlloc` — allocator
//! hooks are unsafe by definition — so this gauge tracks **logical live
//! bytes** instead: pipeline stages register payload bytes when a work
//! unit enters the engine ([`add`]) and release them when it is handed
//! off downstream ([`sub`]); a CAS loop maintains the high-water mark
//! ([`peak`]). That measures exactly the quantity the bounded-memory
//! claim is about — bytes of email payload the pipeline holds in flight
//! — without allocator-slack noise.
//!
//! Like the gauges in [`crate::metrics`], these values are scheduling
//! territory: the peak depends on thread interleaving, so it flows into
//! gauges and the trace log only, never into deterministic snapshots.

use std::sync::atomic::{AtomicU64, Ordering};

static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

/// Registers `bytes` of payload entering the pipeline, raising the peak
/// watermark if the new live total exceeds it.
pub fn add(bytes: u64) {
    let now = LIVE.fetch_add(bytes, Ordering::AcqRel) + bytes;
    let mut peak = PEAK.load(Ordering::Acquire);
    while now > peak {
        match PEAK.compare_exchange_weak(peak, now, Ordering::AcqRel, Ordering::Acquire) {
            Ok(_) => break,
            Err(observed) => peak = observed,
        }
    }
}

/// Releases `bytes` of payload handed off downstream (saturating at 0).
pub fn sub(bytes: u64) {
    // Saturate rather than wrap: an unbalanced release is a caller bug,
    // but a gauge must never explode to 2^64.
    let _ = LIVE.fetch_update(Ordering::AcqRel, Ordering::Acquire, |v| {
        Some(v.saturating_sub(bytes))
    });
}

/// Payload bytes currently in flight.
pub fn live() -> u64 {
    LIVE.load(Ordering::Acquire)
}

/// The high-water mark of [`live`] since the last [`reset_peak`].
pub fn peak() -> u64 {
    PEAK.load(Ordering::Acquire)
}

/// Restarts the peak watermark at the current live total — call at a
/// stage boundary to measure that stage's own peak.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Ordering::Acquire), Ordering::Release);
}

/// Zeroes both counters (tests only).
pub fn reset() {
    LIVE.store(0, Ordering::Release);
    PEAK.store(0, Ordering::Release);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn watermark_tracks_high_water() {
        let _guard = crate::test_lock();
        reset();
        add(100);
        add(50);
        assert_eq!(live(), 150);
        assert_eq!(peak(), 150);
        sub(120);
        assert_eq!(live(), 30);
        assert_eq!(peak(), 150, "peak survives release");
        reset_peak();
        assert_eq!(peak(), 30);
        add(10);
        assert_eq!(peak(), 40);
        sub(1000);
        assert_eq!(live(), 0, "release saturates at zero");
        reset();
    }

    #[test]
    fn concurrent_adds_never_lose_bytes() {
        let _guard = crate::test_lock();
        reset();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..10_000 {
                        add(3);
                        sub(3);
                    }
                });
            }
        });
        assert_eq!(live(), 0);
        assert!(peak() >= 3);
        reset();
    }
}
