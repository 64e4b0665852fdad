//! # ets-bench
//!
//! Criterion benchmarks for the email-typosquatting reproduction: the
//! string metrics and typo generation that §5.1 runs over millions of
//! candidates, the DNS/SMTP codecs, the classification funnel, the
//! DESIGN.md ablations, and end-to-end experiment regeneration.
//!
//! Run with `cargo bench --workspace`. Shared fixtures live here so the
//! individual bench targets stay small. The crate's binary, `ets-bench`,
//! is the perf ratchet CI runs over both planes' reports.

#![forbid(unsafe_code)]

use ets_collector::infra::{CollectedEmail, CollectionInfra};
use ets_collector::traffic::{TrafficConfig, TrafficGenerator};

/// A small fixed traffic capture shared by the funnel benches.
pub fn bench_collection(seed: u64) -> (CollectionInfra, Vec<CollectedEmail>) {
    let infra = CollectionInfra::build();
    let config = TrafficConfig {
        seed,
        spam_scale: 1.0 / 40_000.0,
        ..TrafficConfig::default()
    };
    let emails = TrafficGenerator::new(&infra, config)
        .generate()
        .into_iter()
        .map(|e| e.collected)
        .collect();
    (infra, emails)
}

/// Representative domain pairs for the distance benches.
pub const DISTANCE_PAIRS: [(&str, &str); 6] = [
    ("gmail", "gmial"),
    ("outlook", "outlo0k"),
    ("hotmail", "hovmail"),
    ("verizon", "evrizon"),
    ("comcast", "comcawst"),
    ("tenminutemail", "tenminutemial"),
];
