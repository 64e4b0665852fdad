//! The live serving telemetry plane, end to end.
//!
//! Three layers under test:
//!
//! * **Recording** — the sharded thread-local counter/histogram
//!   recorders in `ets-obs` must merge commutatively: the deterministic
//!   `snapshot_json()` is byte-identical whether a workload is recorded
//!   serially or fanned out over 2 or 8 workers (property-based).
//! * **Quantiles** — the log-linear [`LatencyHistogram`] must bracket a
//!   naive sorted-percentile oracle on arbitrary workloads, including
//!   the overflow bucket and the empty histogram, and merging split
//!   recordings must equal recording everything into one histogram.
//! * **Exposition** — a real `SmtpServer` with telemetry enabled,
//!   driven through all five Table 5 outcomes over loopback TCP by
//!   `ets-loadgen`'s scenario runner, must serve a grammatically valid
//!   Prometheus `/metrics` scrape with the full outcome counter family
//!   and latency quantiles, a parseable `/snapshot.json`, and `/healthz`.

use ets_loadgen::runner::{execute, RunConfig};
use ets_loadgen::scenario::Scenario;
use ets_obs::latency::LatencyHistogram;
use ets_obs::metrics;
use ets_smtp::fault::DeliveryOutcome;
use ets_smtp::server::{ServerOptions, SmtpServer};
use ets_smtp::session::ServerPolicy;
use ets_smtp::telemetry::{outcome_label, TelemetryConfig};
use proptest::prelude::*;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Mutex;
use std::time::Duration;

/// The metric registry is process-global; tests must not interleave.
static LOCK: Mutex<()> = Mutex::new(());

// ---------------------------------------------------------------------
// Layer 1: sharded recording merges bit-identically to serial.
// ---------------------------------------------------------------------

/// Records one synthetic workload through the fan-out: every item bumps
/// a keyed counter and a keyed histogram from whatever worker thread it
/// lands on.
fn record_workload(items: &[(u8, u64)]) {
    const BOUNDS: &[u64] = &[10, 50, 100, 500];
    ets_parallel::par_map(items, |_, (key, value)| {
        metrics::counter_add(&format!("tp.counter.{}", key % 4), *value);
        metrics::histogram_record(&format!("tp.hist.{}", key % 3), BOUNDS, *value);
    });
}

proptest! {
    #[test]
    fn sharded_merge_is_bit_identical_to_serial(
        keys in proptest::collection::vec(any::<u8>(), 1..80),
        vals in proptest::collection::vec(1u64..1000, 1..80),
    ) {
        let items: Vec<(u8, u64)> = keys
            .iter()
            .zip(vals.iter())
            .map(|(&k, &v)| (k, v))
            .collect();
        let _guard = LOCK.lock().unwrap_or_else(|p| p.into_inner());
        ets_parallel::set_threads(1);
        metrics::reset();
        record_workload(&items);
        let serial = metrics::snapshot_json();
        for threads in [2usize, 8] {
            ets_parallel::set_threads(threads);
            metrics::reset();
            record_workload(&items);
            let sharded = metrics::snapshot_json();
            prop_assert!(
                sharded == serial,
                "snapshot diverged at {} threads:\n{}\nvs serial:\n{}",
                threads, sharded, serial
            );
        }
        ets_parallel::set_threads(0);
    }

    // -----------------------------------------------------------------
    // Layer 1b: latency quantiles bracket a sorted oracle.
    // -----------------------------------------------------------------

    #[test]
    fn quantiles_bracket_the_sorted_oracle(
        values in proptest::collection::vec(0u64..5_000_000, 1..200),
        q in 0.0f64..1.0,
    ) {
        let mut h = LatencyHistogram::new();
        for &v in &values {
            h.record(v);
        }
        let mut sorted = values.clone();
        sorted.sort_unstable();
        // The oracle: the same nearest-rank definition the histogram
        // uses, computed exactly on the sorted values.
        let rank = ((q * sorted.len() as f64).ceil() as u64)
            .clamp(1, sorted.len() as u64);
        let oracle = sorted[(rank - 1) as usize];
        let (lo, hi) = h.quantile_range(q).expect("non-empty");
        prop_assert!(
            lo <= oracle && oracle <= hi,
            "oracle {} outside bucket [{}, {}] at q={}", oracle, lo, hi, q
        );
        // The point estimate stays within the log-linear relative-error
        // envelope (1/16), and never exceeds the observed max.
        let est = h.quantile(q).expect("non-empty");
        prop_assert!(est <= h.max());
        prop_assert!(
            est as f64 >= oracle as f64 * (1.0 - 1.0 / 16.0) - 1.0,
            "estimate {} too far below oracle {}", est, oracle
        );
    }

    #[test]
    fn merging_split_recordings_equals_one_histogram(
        values in proptest::collection::vec(0u64..10_000_000, 0..120),
        split in 0usize..120,
    ) {
        let split = split.min(values.len());
        let mut whole = LatencyHistogram::new();
        for &v in &values {
            whole.record(v);
        }
        let mut left = LatencyHistogram::new();
        let mut right = LatencyHistogram::new();
        for &v in &values[..split] {
            left.record(v);
        }
        for &v in &values[split..] {
            right.record(v);
        }
        left.merge(&right);
        prop_assert_eq!(left.count(), whole.count());
        prop_assert_eq!(left.sum(), whole.sum());
        prop_assert_eq!(left.max(), whole.max());
        for q in [0.0, 0.5, 0.99, 0.999, 1.0] {
            prop_assert_eq!(left.quantile(q), whole.quantile(q));
        }
    }
}

#[test]
fn quantile_edge_cases() {
    // Empty histogram: no quantiles.
    let h = LatencyHistogram::new();
    assert_eq!(h.quantile(0.5), None);
    assert_eq!(h.quantile_range(0.99), None);

    // Values beyond 2^40 land in the overflow bucket, where the
    // histogram reports the exact observed max instead of a bucket
    // bound.
    let mut h = LatencyHistogram::new();
    let big = (1u64 << 50) + 12345;
    h.record(big);
    h.record(7);
    assert_eq!(h.quantile(1.0), Some(big));
    assert_eq!(h.quantile(0.25), Some(7));
}

// ---------------------------------------------------------------------
// Layer 3: live exposition over a real SMTP serving workload.
// ---------------------------------------------------------------------

/// Issues one `HTTP/1.1` GET against `addr` and returns (status line,
/// headers, body).
fn http_get(addr: &str, path: &str) -> (String, String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect telemetry");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    write!(stream, "GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").expect("request");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("response");
    let (head, body) = raw.split_once("\r\n\r\n").expect("header terminator");
    let (status, headers) = head.split_once("\r\n").unwrap_or((head, ""));
    (status.to_owned(), headers.to_owned(), body.to_owned())
}

/// Validates the Prometheus text exposition grammar: every line is a
/// comment (`# HELP` / `# TYPE`) or `name[{labels}] value` where the
/// name is `[a-zA-Z_:][a-zA-Z0-9_:]*` and the value parses as a float.
fn assert_exposition_grammar(body: &str) {
    for line in body.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix("# ") {
            assert!(
                comment.starts_with("TYPE ") || comment.starts_with("HELP "),
                "bad comment line: {line:?}"
            );
            continue;
        }
        let (series, value) = line.rsplit_once(' ').unwrap_or_else(|| {
            panic!("sample line without value: {line:?}");
        });
        value
            .parse::<f64>()
            .unwrap_or_else(|_| panic!("unparseable value in {line:?}"));
        let name = series.split('{').next().unwrap_or(series);
        assert!(!name.is_empty(), "empty metric name in {line:?}");
        let mut chars = name.chars();
        let first = chars.next().unwrap();
        assert!(
            first.is_ascii_alphabetic() || first == '_' || first == ':',
            "bad metric name start in {line:?}"
        );
        assert!(
            chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
            "bad metric name in {line:?}"
        );
        if let Some(rest) = series.strip_prefix(name) {
            if !rest.is_empty() {
                assert!(
                    rest.starts_with('{') && rest.ends_with('}'),
                    "bad label block in {line:?}"
                );
            }
        }
    }
}

/// Drives one session that a correct server resolves to `row`: the
/// loadgen scenario whose expected outcome is that Table 5 row.
fn drive_row(addr: &str, cfg: &RunConfig, row: DeliveryOutcome) {
    let scenario = Scenario::ALL
        .into_iter()
        .find(|s| s.expected_outcome() == row)
        .expect("every Table 5 row has a scenario");
    execute(addr, scenario, 0, 0, cfg);
}

#[test]
fn live_scrape_shows_outcomes_and_quantiles() {
    let _guard = LOCK.lock().unwrap_or_else(|p| p.into_inner());
    metrics::reset();
    let read_timeout = Duration::from_millis(300);
    let server = SmtpServer::bind_with(
        "127.0.0.1:0",
        ServerPolicy::catch_all("mx.gmial.com", &["gmial.com".to_owned()]),
        ServerOptions {
            read_timeout,
            telemetry: TelemetryConfig {
                sample_every: 1,
                ring_capacity: 16,
            },
            ..ServerOptions::default()
        },
    )
    .expect("bind smtp");
    let telemetry = ets_obs::serve::serve_with(
        "127.0.0.1:0",
        ets_obs::serve::ServeOptions {
            tick: Duration::from_millis(50),
        },
    )
    .expect("bind telemetry");
    let tele_addr = telemetry.addr().to_string();
    let smtp_addr = server.addr().to_string();
    let cfg = RunConfig::smoke(read_timeout);

    for row in DeliveryOutcome::ALL {
        drive_row(&smtp_addr, &cfg, row);
    }
    // Let the handler threads resolve their observers.
    std::thread::sleep(Duration::from_millis(400));

    let (status, _, body) = http_get(&tele_addr, "/healthz");
    assert!(status.contains("200"), "{status}");
    assert_eq!(body, "ok\n");

    // Handler threads resolve their observers asynchronously and the
    // scrape cache refreshes on a tick, so poll until the full outcome
    // family is visible (bounded by a deadline) rather than racing a
    // fixed sleep.
    let outcome_value = |body: &str, row: DeliveryOutcome| -> f64 {
        let series = format!("smtp_session_outcome_{} ", outcome_label(row));
        body.lines()
            .find(|l| l.starts_with(&series))
            .and_then(|l| l.rsplit_once(' '))
            .and_then(|(_, v)| v.parse().ok())
            .unwrap_or(0.0)
    };
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    let (headers, body) = loop {
        let (status, headers, body) = http_get(&tele_addr, "/metrics");
        assert!(status.contains("200"), "{status}");
        let missing: Vec<DeliveryOutcome> = DeliveryOutcome::ALL
            .into_iter()
            .filter(|&row| outcome_value(&body, row) < 1.0)
            .collect();
        if missing.is_empty() {
            break (headers, body);
        }
        assert!(
            std::time::Instant::now() < deadline,
            "outcome family incomplete after 30s (missing {missing:?}):\n{body}"
        );
        // Some rows depend on client-side timing the scheduler can break
        // under parallel-test CPU load (e.g. the chatter client's FIN
        // arriving after the server's read timeout demotes OtherError to
        // Timeout), so re-drive whatever is still missing instead of
        // sleeping and hoping: every assertion is `>= 1`, extra sessions
        // only raise counts.
        for row in missing {
            drive_row(&smtp_addr, &cfg, row);
        }
        std::thread::sleep(Duration::from_millis(100));
    };
    assert!(
        headers.contains("text/plain"),
        "missing exposition content type: {headers}"
    );
    assert_exposition_grammar(&body);
    for q in ["0.5", "0.99", "0.999"] {
        assert!(
            body.contains(&format!("smtp_session_us{{quantile=\"{q}\"}}")),
            "missing session latency quantile {q} in:\n{body}"
        );
    }

    let (status, _, body) = http_get(&tele_addr, "/snapshot.json");
    assert!(status.contains("200"), "{status}");
    let snapshot: serde_json::Value = serde_json::from_str(&body).expect("snapshot parses");
    let timeouts = snapshot
        .get("counters")
        .and_then(|c| c.get("smtp.session_outcome.timeout"))
        .and_then(|v| v.as_u64())
        .unwrap_or(0);
    assert!(timeouts >= 1, "snapshot missing timeout outcome:\n{body}");
    let sessions = snapshot
        .get("sections")
        .and_then(|s| s.get("smtp_sessions"))
        .and_then(|r| r.as_array())
        .map_or(0, Vec::len);
    assert!(sessions > 0, "ring empty with sample_every=1:\n{body}");

    let (status, _, _) = http_get(&tele_addr, "/nope");
    assert!(status.contains("404"), "{status}");

    drop(server);
    drop(telemetry);
}
