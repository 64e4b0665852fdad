//! Live serving telemetry for the TCP SMTP server.
//!
//! Session timing reads [`ets_obs::clock::monotonic_micros`] once per
//! phase boundary; `ets-smtp` itself never touches the wall clock.
//! Everything recorded here is *serving-side* observability (latency
//! quantiles, in-flight gauges, per-session samples): it never feeds
//! `results/*.json`, so the determinism boundary of the analytical
//! pipeline is untouched.
//!
//! Per session the observer records:
//!
//! * phase latencies into [`ets_obs::latency`] log-linear histograms —
//!   accept→banner (`smtp.banner_us`), per-command parse+reply
//!   (`smtp.command_us`), catch-all policy decisions on `RCPT`
//!   (`smtp.policy_us`), `DATA` payload handling (`smtp.data_us`), and
//!   whole-session duration (`smtp.session_us`);
//! * workload counters — connections, commands, reply classes, accepted
//!   messages, rejected recipients, payload bytes — plus a taxonomy
//!   family `smtp.session_outcome.*` keyed to the five Table 5
//!   [`DeliveryOutcome`] rows (all five are pre-registered at zero so a
//!   scrape always sees the full family);
//! * in-flight gauges (`smtp.open_connections`, plus the two bounded
//!   back-pressure stages: `smtp.accept_queue_depth` for the worker
//!   pool's connection queue and `smtp.owner_queue_depth` for the
//!   bounded delivery channel);
//! * a 1-in-N sampled full-session trace into a bounded ring buffer,
//!   exposed as the `smtp_sessions` section of `/snapshot.json`.

use crate::fault::DeliveryOutcome;
use ets_obs::clock::monotonic_micros;
use ets_obs::latency::{self, AtomicLatencyHistogram};
use ets_obs::metrics;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Telemetry tuning knobs, part of the server's
/// [`ServerOptions`](crate::server::ServerOptions).
#[derive(Debug, Clone)]
pub struct TelemetryConfig {
    /// Sample every Nth session into the trace ring (`0` disables
    /// sampling entirely).
    pub sample_every: u64,
    /// Bounded capacity of the sampled-session ring buffer.
    pub ring_capacity: usize,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            sample_every: 16,
            ring_capacity: 256,
        }
    }
}

/// Upper bound on per-sample phase entries, so a chatty session cannot
/// grow a sample without limit.
const MAX_SAMPLE_PHASES: usize = 32;

/// One sampled session for the `/snapshot.json` trace ring.
#[derive(Debug, Clone)]
pub struct SessionSample {
    /// Session start, microseconds since the process clock epoch.
    pub start_us: u64,
    /// Whole-session wall time in microseconds.
    pub total_us: u64,
    /// Commands handled.
    pub commands: u32,
    /// Messages accepted.
    pub accepted: u32,
    /// The Table 5 taxonomy row this session resolved to.
    pub outcome: DeliveryOutcome,
    /// `(phase label, microseconds)` in session order, truncated at
    /// `MAX_SAMPLE_PHASES` entries.
    pub phases: Vec<(&'static str, u64)>,
}

/// The serving telemetry plane: shared latency recorders, in-flight
/// gauges, and the sampled-session ring. One instance per
/// [`SmtpServer`](crate::server::SmtpServer), shared with every
/// connection handler.
pub struct SmtpTelemetry {
    session_us: Arc<AtomicLatencyHistogram>,
    banner_us: Arc<AtomicLatencyHistogram>,
    command_us: Arc<AtomicLatencyHistogram>,
    data_us: Arc<AtomicLatencyHistogram>,
    policy_us: Arc<AtomicLatencyHistogram>,
    open: AtomicU64,
    sessions: AtomicU64,
    sample_every: u64,
    ring_capacity: usize,
    ring: Arc<Mutex<VecDeque<SessionSample>>>,
}

/// The `smtp.session_outcome.<label>` counter of one taxonomy row,
/// spelled out so that closing a session formats nothing.
fn outcome_counter(outcome: DeliveryOutcome) -> &'static str {
    match outcome {
        DeliveryOutcome::NoError => "smtp.session_outcome.no_error",
        DeliveryOutcome::Bounce => "smtp.session_outcome.bounce",
        DeliveryOutcome::Timeout => "smtp.session_outcome.timeout",
        DeliveryOutcome::NetworkError => "smtp.session_outcome.network_error",
        DeliveryOutcome::OtherError => "smtp.session_outcome.other_error",
    }
}

/// The Prometheus-friendly label of one taxonomy row.
pub fn outcome_label(outcome: DeliveryOutcome) -> &'static str {
    let counter = outcome_counter(outcome);
    counter
        .strip_prefix("smtp.session_outcome.")
        .unwrap_or(counter)
}

/// The `smtp.replies.<class>xx` counters, indexed by reply class − 2.
const REPLY_COUNTERS: [&str; 4] = [
    "smtp.replies.2xx",
    "smtp.replies.3xx",
    "smtp.replies.4xx",
    "smtp.replies.5xx",
];

impl SmtpTelemetry {
    /// Builds the plane, pre-registers the full Table 5 counter family,
    /// and publishes the sampled-session ring as the `smtp_sessions`
    /// section of `/snapshot.json`.
    pub fn new(config: &TelemetryConfig) -> Arc<SmtpTelemetry> {
        for outcome in DeliveryOutcome::ALL {
            metrics::counter_add(outcome_counter(outcome), 0);
        }
        metrics::counter_add("smtp.connections", 0);
        metrics::counter_add("smtp.commands", 0);
        let ring = Arc::new(Mutex::new(VecDeque::new()));
        let section_ring = ring.clone();
        ets_obs::serve::register_section("smtp_sessions", move || {
            render_ring(&section_ring.lock())
        });
        Arc::new(SmtpTelemetry {
            session_us: latency::recorder("smtp.session_us"),
            banner_us: latency::recorder("smtp.banner_us"),
            command_us: latency::recorder("smtp.command_us"),
            data_us: latency::recorder("smtp.data_us"),
            policy_us: latency::recorder("smtp.policy_us"),
            open: AtomicU64::new(0),
            sessions: AtomicU64::new(0),
            sample_every: config.sample_every,
            ring_capacity: config.ring_capacity,
            ring,
        })
    }

    /// Called by the accept loop on every accepted connection; `depth`
    /// is the bounded connection queue's backlog at accept time. When
    /// this gauge rides near the configured queue depth, the next
    /// back-pressure stage is the kernel accept backlog.
    pub fn accept_queue_depth(&self, depth: usize) {
        metrics::gauge_set("smtp.accept_queue_depth", depth as f64);
    }

    /// Called by a session handler as it queues a completed transaction;
    /// `depth` is the bounded owner channel's backlog at that instant. A
    /// reading near the configured capacity means a slow `drain`er is
    /// about to stall producers.
    pub fn owner_queue_depth(&self, depth: usize) {
        metrics::gauge_set("smtp.owner_queue_depth", depth as f64);
    }

    /// Opens a per-session observer. Counts the connection and bumps
    /// the in-flight gauge; the observer's `finish`/`Drop` closes it.
    pub fn session_start(self: &Arc<Self>) -> SessionObserver {
        metrics::counter_add("smtp.connections", 1);
        let open = self.open.fetch_add(1, Ordering::Relaxed) + 1;
        metrics::gauge_set("smtp.open_connections", open as f64);
        let now = monotonic_micros();
        SessionObserver {
            telemetry: self.clone(),
            start_us: now,
            last_us: now,
            phases: Vec::new(),
            commands: 0,
            accepted: 0,
            rejected_rcpts: 0,
            framing_errors: 0,
            finished: false,
        }
    }

    /// A copy of the sampled-session ring, oldest first.
    pub fn samples(&self) -> Vec<SessionSample> {
        self.ring.lock().iter().cloned().collect()
    }

    fn note_closed(&self) {
        let open = self.open.fetch_sub(1, Ordering::Relaxed).saturating_sub(1);
        metrics::gauge_set("smtp.open_connections", open as f64);
    }

    fn finish_session(&self, observer: &mut SessionObserver, err: Option<&io::Error>) {
        let total_us = monotonic_micros().saturating_sub(observer.start_us);
        self.session_us.record(total_us);
        let outcome = observer.classify(err);
        metrics::counter_add(outcome_counter(outcome), 1);
        self.note_closed();
        let idx = self.sessions.fetch_add(1, Ordering::Relaxed);
        if self.sample_every > 0 && idx.is_multiple_of(self.sample_every) {
            let sample = SessionSample {
                start_us: observer.start_us,
                total_us,
                commands: observer.commands,
                accepted: observer.accepted,
                outcome,
                phases: std::mem::take(&mut observer.phases),
            };
            let mut ring = self.ring.lock();
            ring.push_back(sample);
            while ring.len() > self.ring_capacity {
                ring.pop_front();
            }
        }
    }
}

/// Per-session phase timer and outcome classifier, created by
/// [`SmtpTelemetry::session_start`] and driven by the connection
/// handler.
pub struct SessionObserver {
    telemetry: Arc<SmtpTelemetry>,
    /// Session start, microseconds on the `ets_obs::clock` epoch.
    start_us: u64,
    /// The previous phase boundary, same clock.
    last_us: u64,
    phases: Vec<(&'static str, u64)>,
    commands: u32,
    accepted: u32,
    rejected_rcpts: u32,
    framing_errors: u32,
    finished: bool,
}

impl SessionObserver {
    /// Duration since the previous phase boundary; advances the
    /// boundary with the same clock read.
    fn phase_us(&mut self) -> u64 {
        let now = monotonic_micros();
        let us = now.saturating_sub(self.last_us);
        self.last_us = now;
        us
    }

    fn push_phase(&mut self, label: &'static str, us: u64) {
        if self.phases.len() < MAX_SAMPLE_PHASES {
            self.phases.push((label, us));
        }
    }

    /// The greeting banner went out: closes the accept→banner phase.
    pub fn banner_sent(&mut self) {
        let us = self.phase_us();
        self.telemetry.banner_us.record(us);
        self.push_phase("accept_to_banner", us);
    }

    /// One command line was parsed and replied to with `code`.
    /// `is_rcpt` marks catch-all policy decisions, which get their own
    /// latency series.
    pub fn command(&mut self, is_rcpt: bool, code: u16) {
        let us = self.phase_us();
        self.commands += 1;
        self.telemetry.command_us.record(us);
        metrics::counter_add("smtp.commands", 1);
        metrics::counter_add(REPLY_COUNTERS[usize::from(code / 100).clamp(2, 5) - 2], 1);
        if is_rcpt {
            self.telemetry.policy_us.record(us);
            self.push_phase("policy", us);
            if code >= 400 {
                self.rejected_rcpts += 1;
                metrics::counter_add("smtp.rcpt_rejected", 1);
            }
        } else {
            self.push_phase("command", us);
        }
    }

    /// A `DATA` payload of `bytes` was processed; `accepted` means the
    /// message was queued for the owner.
    pub fn data_done(&mut self, bytes: usize, accepted: bool) {
        let us = self.phase_us();
        self.telemetry.data_us.record(us);
        self.push_phase("data", us);
        metrics::counter_add("smtp.bytes_in", bytes as u64);
        if accepted {
            self.accepted += 1;
            metrics::counter_add("smtp.messages_accepted", 1);
        }
    }

    /// The codec rejected a frame (oversized line, bad DATA framing).
    pub fn framing_error(&mut self) {
        self.framing_errors += 1;
        metrics::counter_add("smtp.framing_errors", 1);
    }

    /// Closes the session: records whole-session latency, resolves the
    /// Table 5 taxonomy row, and (1-in-N) samples the session into the
    /// trace ring.
    pub fn finish(mut self, err: Option<&io::Error>) {
        self.finished = true;
        let telemetry = self.telemetry.clone();
        telemetry.finish_session(&mut self, err);
    }

    /// Maps the session's fate onto the five Table 5 rows. A resolved
    /// transaction wins over later connection noise: an accepted
    /// message is `NoError` and a rejected recipient is `Bounce` even
    /// if the peer then slams the socket (a client that fires `QUIT`
    /// and closes without reading the `221` RSTs the final write).
    /// Otherwise IO timeouts are `Timeout` and other IO failures
    /// `NetworkError`; a connection that never spoke is `NetworkError`
    /// too (scanner connect-and-drop); anything else — framing garbage,
    /// command chatter without a transaction — is `OtherError`.
    fn classify(&self, err: Option<&io::Error>) -> DeliveryOutcome {
        if self.accepted > 0 {
            return DeliveryOutcome::NoError;
        }
        if self.rejected_rcpts > 0 {
            return DeliveryOutcome::Bounce;
        }
        if let Some(e) = err {
            return match e.kind() {
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => DeliveryOutcome::Timeout,
                _ => DeliveryOutcome::NetworkError,
            };
        }
        if self.framing_errors == 0 && self.commands == 0 {
            DeliveryOutcome::NetworkError
        } else {
            DeliveryOutcome::OtherError
        }
    }
}

impl Drop for SessionObserver {
    fn drop(&mut self) {
        // A handler that panicked (or dropped the observer without
        // `finish`) must still release the in-flight gauge.
        if !self.finished {
            self.finished = true;
            self.telemetry.note_closed();
        }
    }
}

/// Renders the sampled-session ring as a JSON array (oldest first).
fn render_ring(ring: &VecDeque<SessionSample>) -> String {
    let mut out = String::from("[");
    for (i, s) in ring.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!(
            "{{\"start_us\": {}, \"total_us\": {}, \"commands\": {}, \
             \"accepted\": {}, \"outcome\": \"{}\", \"phases\": [",
            s.start_us,
            s.total_us,
            s.commands,
            s.accepted,
            outcome_label(s.outcome)
        ));
        for (j, (label, us)) in s.phases.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("[\"{label}\", {us}]"));
        }
        out.push_str("]}");
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh() -> Arc<SmtpTelemetry> {
        SmtpTelemetry::new(&TelemetryConfig {
            sample_every: 1,
            ring_capacity: 4,
        })
    }

    #[test]
    fn accepted_session_is_no_error() {
        let t = fresh();
        let mut obs = t.session_start();
        obs.banner_sent();
        obs.command(false, 250);
        obs.command(true, 250);
        obs.data_done(100, true);
        assert_eq!(obs.classify(None), DeliveryOutcome::NoError);
        obs.finish(None);
        let samples = t.samples();
        assert_eq!(samples.len(), 1);
        assert_eq!(samples[0].outcome, DeliveryOutcome::NoError);
        assert_eq!(samples[0].accepted, 1);
    }

    #[test]
    fn taxonomy_covers_all_five_rows() {
        let t = fresh();
        // Bounce: RCPT rejected, nothing accepted.
        let mut obs = t.session_start();
        obs.command(true, 550);
        assert_eq!(obs.classify(None), DeliveryOutcome::Bounce);
        drop(obs);
        // Timeout and NetworkError from the IO error kind.
        let obs = t.session_start();
        let timeout = io::Error::new(io::ErrorKind::TimedOut, "stalled");
        assert_eq!(obs.classify(Some(&timeout)), DeliveryOutcome::Timeout);
        let reset = io::Error::new(io::ErrorKind::ConnectionReset, "gone");
        assert_eq!(obs.classify(Some(&reset)), DeliveryOutcome::NetworkError);
        drop(obs);
        // A resolved transaction wins over late connection noise (the
        // peer RST-ing after QUIT must not demote the outcome).
        let mut obs = t.session_start();
        obs.data_done(10, true);
        assert_eq!(obs.classify(Some(&reset)), DeliveryOutcome::NoError);
        drop(obs);
        let mut obs = t.session_start();
        obs.command(true, 550);
        assert_eq!(obs.classify(Some(&reset)), DeliveryOutcome::Bounce);
        drop(obs);
        // Silent connect-and-drop: NetworkError.
        let obs = t.session_start();
        assert_eq!(obs.classify(None), DeliveryOutcome::NetworkError);
        drop(obs);
        // Garbage without a transaction: OtherError.
        let mut obs = t.session_start();
        obs.framing_error();
        assert_eq!(obs.classify(None), DeliveryOutcome::OtherError);
        drop(obs);
    }

    #[test]
    fn counter_names_are_the_formatted_ones() {
        let labels = DeliveryOutcome::ALL.map(outcome_label);
        assert_eq!(
            labels,
            [
                "no_error",
                "bounce",
                "timeout",
                "network_error",
                "other_error"
            ]
        );
        for outcome in DeliveryOutcome::ALL {
            let name = format!("smtp.session_outcome.{}", outcome_label(outcome));
            assert_eq!(outcome_counter(outcome), name);
        }
        for (i, name) in REPLY_COUNTERS.iter().enumerate() {
            assert_eq!(*name, format!("smtp.replies.{}xx", i + 2));
        }
    }

    #[test]
    fn ring_is_bounded() {
        let t = fresh();
        for _ in 0..10 {
            let obs = t.session_start();
            obs.finish(None);
        }
        assert!(t.samples().len() <= 4);
    }

    #[test]
    fn open_gauge_recovers_on_drop_without_finish() {
        let t = fresh();
        let obs = t.session_start();
        assert_eq!(t.open.load(Ordering::Relaxed), 1);
        drop(obs);
        assert_eq!(t.open.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn ring_renders_as_json() {
        let t = fresh();
        let mut obs = t.session_start();
        obs.banner_sent();
        obs.finish(None);
        let body = render_ring(&t.ring.lock());
        assert!(body.starts_with('['), "{body}");
        assert!(body.contains("\"accept_to_banner\""), "{body}");
        assert!(body.contains("\"outcome\""), "{body}");
    }
}
