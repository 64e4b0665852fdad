//! The wall-clock half of the harness: sockets, pacing, worker threads.
//!
//! Time comes from [`ets_obs::clock::monotonic_micros`], in
//! microseconds; `ets-loadgen` never reads the clock itself. Everything
//! this module measures flows into the pure [`crate::stats`]
//! accumulators so the analysis and report layers stay deterministic.
//!
//! [`drive`] plays a workload at any SMTP listener: the in-process
//! phase ([`run_phase`]) and `ets-loadgen --target ADDR` both call it.
//!
//! ## Open vs closed loop
//!
//! With `target_rps > 0` the run is *open-loop*: request `k` of
//! connection slot `c` has an absolute scheduled start of
//! `t0 + (k·connections + c) / rps`, and latency is measured from that
//! scheduled start even when the harness falls behind — so server-side
//! queueing delay is charged to the server rather than silently absorbed
//! by the load generator (the coordinated-omission correction). With
//! `target_rps == 0` the run is *closed-loop*: each slot issues its next
//! request the moment the previous one completes, and latency is
//! measured from the actual start.

use crate::scenario::{build_email, conn_rng, Scenario, ScenarioMix};
use crate::stats::{outcome_index, PhaseStats};
use ets_obs::clock::monotonic_micros;
use ets_obs::latency;
use ets_obs::metrics;
use ets_smtp::client::ClientOutcome;
use ets_smtp::fault::DeliveryOutcome;
use ets_smtp::net_client::{send_email, RawSession, SendError};
use ets_smtp::server::{ServerOptions, SmtpServer};
use ets_smtp::session::ServerPolicy;
use ets_smtp::telemetry::TelemetryConfig;
use std::io::ErrorKind;
use std::time::Duration;

/// What the load generator does: the workload half of a phase.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Concurrent connection slots (each runs its requests in series).
    pub connections: usize,
    /// Requests (= SMTP sessions) per slot.
    pub requests_per_conn: usize,
    /// Open-loop target rate across all slots; `0.0` selects closed loop.
    pub target_rps: f64,
    /// Scenario mix to draw from.
    pub mix: ScenarioMix,
    /// Run seed: fixes every scenario draw and message body.
    pub seed: u64,
    /// Client-side socket timeout.
    pub client_timeout: Duration,
    /// How long a slowloris connection stalls (must exceed the server's
    /// read timeout for the scenario to land in the Timeout row).
    pub stall: Duration,
    /// The server's catch-all domain, used to address deliveries.
    pub local_domain: String,
}

impl RunConfig {
    /// A small smoke-test configuration against a server whose read
    /// timeout is `server_read_timeout`.
    pub fn smoke(server_read_timeout: Duration) -> RunConfig {
        RunConfig {
            connections: 4,
            requests_per_conn: 8,
            target_rps: 0.0,
            mix: ScenarioMix::paper(),
            seed: 42,
            client_timeout: Duration::from_secs(5),
            stall: server_read_timeout + Duration::from_millis(80),
            local_domain: "gmial.com".to_owned(),
        }
    }
}

/// How the in-process server under test is built.
#[derive(Debug, Clone)]
pub struct ServerSpec {
    /// Server options; the read timeout is kept short so slowloris rows
    /// finish quickly.
    pub options: ServerOptions,
    /// Server hostname for the banner.
    pub hostname: String,
    /// Catch-all domain.
    pub domain: String,
}

impl Default for ServerSpec {
    /// The default worker pool with a 150 ms read timeout and 1-in-64
    /// session sampling, accepting mail for `gmial.com`.
    fn default() -> ServerSpec {
        ServerSpec {
            options: ServerOptions {
                read_timeout: Duration::from_millis(150),
                telemetry: TelemetryConfig {
                    sample_every: 64,
                    ..TelemetryConfig::default()
                },
                ..ServerOptions::default()
            },
            hostname: "mx.gmial.com".to_owned(),
            domain: "gmial.com".to_owned(),
        }
    }
}

/// Everything measured about one executed phase.
#[derive(Debug, Clone)]
pub struct PhaseResult {
    /// Phase label (`pool`, `target`, …) used in reports and metrics.
    pub phase: String,
    /// The merged accumulators.
    pub stats: PhaseStats,
    /// Emails the server actually handed to its owner channel; `None`
    /// when the server runs in another process and its owner channel is
    /// out of reach.
    pub delivered: Option<u64>,
    /// Wall-clock duration of the phase.
    pub elapsed_secs: f64,
    /// `requests / elapsed` — the rate actually sustained.
    pub achieved_rps: f64,
    /// The open-loop target (0 for closed loop).
    pub target_rps: f64,
    /// Connection slots used.
    pub connections: usize,
    /// Requests per slot.
    pub requests_per_conn: usize,
    /// Worker threads that died instead of reporting (always 0 in a
    /// healthy run).
    pub lost_workers: u64,
}

/// Binds an in-process server per `spec`, [`drive`]s the workload at
/// it while a drainer thread keeps the bounded owner channel flowing,
/// and shuts the server down. `delivered` counts every message the
/// server handed to its owner, and is also published as the
/// `loadgen.<phase>.delivered` counter.
pub fn run_phase(phase: &str, cfg: &RunConfig, spec: &ServerSpec) -> std::io::Result<PhaseResult> {
    let policy = ServerPolicy::catch_all(&spec.hostname, std::slice::from_ref(&spec.domain));
    let server = SmtpServer::bind_with("127.0.0.1:0", policy, spec.options.clone())?;
    let addr = server.addr().to_string();
    let rx = server.received().clone();
    // The drainer's blocking iteration ends once shutdown has joined
    // every session and dropped the last sender.
    let drainer = std::thread::spawn(move || rx.iter().count() as u64);
    let mut result = drive(phase, cfg, &addr);
    let late = server.shutdown().len() as u64;
    let drained = drainer
        .join()
        .map_err(|_| std::io::Error::other("owner-channel drainer panicked"))?;
    let delivered = late + drained;
    metrics::counter_add(&format!("loadgen.{phase}.delivered"), delivered);
    result.delivered = Some(delivered);
    Ok(result)
}

/// Drives the workload in `cfg` at the SMTP listener on `addr` and
/// returns what the clients observed (`delivered` is `None`: only the
/// server's owner knows it). The latency distribution is published to
/// the `ets-obs` latency plane as `loadgen.<phase>.request_us` and the
/// observed outcomes as `loadgen.<phase>.outcome.*` counters.
pub fn drive(phase: &str, cfg: &RunConfig, addr: &str) -> PhaseResult {
    let recorder = latency::recorder(&format!("loadgen.{phase}.request_us"));
    let t0 = monotonic_micros();
    let mut handles = Vec::with_capacity(cfg.connections);
    for c in 0..cfg.connections {
        let addr = addr.to_owned();
        let cfg = cfg.clone();
        let recorder = recorder.clone();
        handles.push(std::thread::spawn(move || {
            let mut rng = conn_rng(cfg.seed, c as u64);
            let mut stats = PhaseStats::new();
            for k in 0..cfg.requests_per_conn {
                let scenario = cfg.mix.draw(&mut rng);
                let lat_start = if cfg.target_rps > 0.0 {
                    let offset = (k * cfg.connections + c) as f64 * 1e6 / cfg.target_rps;
                    let sched = t0 + offset as u64;
                    let now = monotonic_micros();
                    if sched > now {
                        std::thread::sleep(Duration::from_micros(sched - now));
                    }
                    sched
                } else {
                    monotonic_micros()
                };
                let observed = execute(&addr, scenario, c as u64, k as u64, &cfg);
                let micros = monotonic_micros().saturating_sub(lat_start);
                recorder.record(micros);
                stats.record(scenario, observed, micros);
            }
            stats
        }));
    }

    let mut stats = PhaseStats::new();
    let mut lost_workers = 0u64;
    for h in handles {
        match h.join() {
            Ok(s) => stats.merge(&s),
            Err(_) => lost_workers += 1,
        }
    }
    let elapsed_secs = monotonic_micros().saturating_sub(t0) as f64 / 1e6;

    for (i, o) in DeliveryOutcome::ALL.iter().enumerate() {
        metrics::counter_add(&format!("loadgen.{phase}.outcome.{o:?}"), stats.observed[i]);
    }

    let achieved_rps = if elapsed_secs > 0.0 {
        stats.requests as f64 / elapsed_secs
    } else {
        0.0
    };
    PhaseResult {
        phase: phase.to_owned(),
        stats,
        delivered: None,
        elapsed_secs,
        achieved_rps,
        target_rps: cfg.target_rps,
        connections: cfg.connections,
        requests_per_conn: cfg.requests_per_conn,
        lost_workers,
    }
}

/// Executes one request (one full SMTP session) as `scenario` against
/// `addr` and classifies what the client observed into the Table 5
/// taxonomy; a correct server yields `scenario.expected_outcome()`.
/// `conn` and `req` only shape the message content.
pub fn execute(
    addr: &str,
    scenario: Scenario,
    conn: u64,
    req: u64,
    cfg: &RunConfig,
) -> DeliveryOutcome {
    match scenario {
        s if s.is_delivery() => match build_email(s, conn, req, &cfg.local_domain) {
            Some(email) => classify_send(send_email(
                addr,
                email,
                "loadgen.example",
                false,
                cfg.client_timeout,
            )),
            None => DeliveryOutcome::OtherError,
        },
        Scenario::Malformed => malformed(addr, cfg),
        Scenario::Slowloris => slowloris(addr, cfg),
        Scenario::SilentDrop => silent_drop(addr, cfg),
        // `is_delivery` covered every other variant above.
        _ => DeliveryOutcome::OtherError,
    }
}

/// Table 5 classification of a full delivery attempt.
fn classify_send(result: Result<ClientOutcome, SendError>) -> DeliveryOutcome {
    match result {
        Ok(ClientOutcome::Accepted) => DeliveryOutcome::NoError,
        Ok(ClientOutcome::Rejected { .. }) => DeliveryOutcome::Bounce,
        Ok(ClientOutcome::TransientFailure { .. }) => DeliveryOutcome::OtherError,
        Err(e) => classify_transport(&e),
    }
}

/// Table 5 classification of a transport-level failure.
fn classify_transport(e: &SendError) -> DeliveryOutcome {
    match e {
        SendError::Io(io) => match io.kind() {
            ErrorKind::TimedOut | ErrorKind::WouldBlock => DeliveryOutcome::Timeout,
            _ => DeliveryOutcome::NetworkError,
        },
        SendError::ProtocolGarbage(_) | SendError::ConnectionClosed => DeliveryOutcome::OtherError,
    }
}

/// Greets, then speaks garbage that never forms a transaction. A correct
/// server answers each junk line with a 5xx and keeps the session —
/// classified `OtherError`.
fn malformed(addr: &str, cfg: &RunConfig) -> DeliveryOutcome {
    let mut s = match RawSession::connect(addr, cfg.client_timeout) {
        Ok(s) => s,
        Err(e) => return classify_transport(&e),
    };
    if let Err(e) = s.read_code() {
        return classify_transport(&e);
    }
    for junk in [b"XYZZY plugh\r\n".as_slice(), b"MAIL WITHOUT COLON\r\n"] {
        if let Err(e) = s.write_raw(junk) {
            return classify_transport(&e);
        }
        match s.read_code() {
            Ok(_) => {}
            Err(e) => return classify_transport(&e),
        }
    }
    DeliveryOutcome::OtherError
}

/// Greets, then stalls past the server's read timeout. A correct server
/// answers with a 421 courtesy reply (or just closes) — both classify
/// as `Timeout`.
fn slowloris(addr: &str, cfg: &RunConfig) -> DeliveryOutcome {
    let mut s = match RawSession::connect(addr, cfg.client_timeout) {
        Ok(s) => s,
        Err(e) => return classify_transport(&e),
    };
    if let Err(e) = s.read_code() {
        return classify_transport(&e);
    }
    std::thread::sleep(cfg.stall);
    match s.read_code() {
        Ok(421) => DeliveryOutcome::Timeout,
        Ok(_) => DeliveryOutcome::OtherError,
        Err(SendError::ConnectionClosed) => DeliveryOutcome::Timeout,
        Err(SendError::Io(io)) => match io.kind() {
            ErrorKind::TimedOut | ErrorKind::WouldBlock => DeliveryOutcome::Timeout,
            _ => DeliveryOutcome::NetworkError,
        },
        Err(_) => DeliveryOutcome::OtherError,
    }
}

/// Connects and vanishes without a word — the client *is* the network
/// error, so the observed outcome is `NetworkError` by construction
/// once the connection opened.
fn silent_drop(addr: &str, cfg: &RunConfig) -> DeliveryOutcome {
    match RawSession::connect(addr, cfg.client_timeout) {
        Ok(s) => {
            drop(s);
            DeliveryOutcome::NetworkError
        }
        Err(e) => classify_transport(&e),
    }
}

/// Sanity accessor used by reports: the observed count for one outcome.
pub fn observed(stats: &PhaseStats, o: DeliveryOutcome) -> u64 {
    stats.observed[outcome_index(o)]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_cfg() -> (RunConfig, ServerSpec) {
        let mut spec = ServerSpec::default();
        spec.options.read_timeout = Duration::from_millis(60);
        spec.options.workers = 8;
        spec.options.conn_queue = 64;
        let mut cfg = RunConfig::smoke(spec.options.read_timeout);
        cfg.connections = 6;
        cfg.requests_per_conn = 10;
        (cfg, spec)
    }

    #[test]
    fn smoke_run_covers_all_outcomes_and_loses_nothing() {
        let (cfg, spec) = fast_cfg();
        let r = run_phase("test_pool", &cfg, &spec).unwrap();
        assert_eq!(r.stats.requests, 60);
        assert_eq!(r.lost_workers, 0);
        assert_eq!(r.stats.mismatches, 0, "observed: {:?}", r.stats.observed);
        // The paper mix draws every scenario class across 60 requests
        // with this seed; all five Table 5 rows must be populated.
        for (i, o) in DeliveryOutcome::ALL.iter().enumerate() {
            assert!(r.stats.observed[i] > 0, "empty taxonomy row {o}");
        }
        // Every accepted delivery reached the owner channel.
        assert_eq!(
            r.delivered,
            Some(observed(&r.stats, DeliveryOutcome::NoError))
        );
        assert!(r.achieved_rps > 0.0);
        assert_eq!(r.stats.latency.count(), 60);
    }

    #[test]
    fn open_loop_pacing_spreads_the_run() {
        let (mut cfg, spec) = fast_cfg();
        cfg.mix = ScenarioMix::delivery_only();
        cfg.connections = 2;
        cfg.requests_per_conn = 5;
        cfg.target_rps = 50.0; // 10 requests at 50/s ≈ 0.2 s floor
        let r = run_phase("test_paced", &cfg, &spec).unwrap();
        assert!(
            r.elapsed_secs >= 0.15,
            "open loop finished too fast: {}",
            r.elapsed_secs
        );
        assert!(r.achieved_rps <= 75.0, "rps {}", r.achieved_rps);
    }
}
