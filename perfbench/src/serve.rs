//! `serve`: the catch-all SMTP server under the study's own traffic.
//!
//! `SmtpServer::bind_with` runs with default options and accepts mail
//! for the 76 study domains, as the paper's collection server did. Two
//! client threads in this process drive it closed loop over loopback,
//! one connection each at a time: an SMTP connection is a lock-step
//! dialogue and the sending MTA waits for every reply. Each request is
//! one `send_email` of an email replayed from the study's seeded
//! `TrafficGenerator`, rendered with `Message::to_wire`; recipients at a
//! study domain are accepted, every other recipient is a relay attempt
//! bounced at RCPT. A blocking consumer drains the owner channel.
//!
//! Checks: each session's Table 5 outcome matches the one its recipient
//! domain implies, and the owner receives exactly the accepted messages.
//! The generator check marks a run invalid when a client thread itself
//! was CPU-saturated, instead of charging that run to the server.

use crate::layers;
use crate::measure::{self, Fingerprint, Report};
use ets_collector::infra::CollectionInfra;
use ets_collector::time::STUDY_DAYS;
use ets_collector::traffic::TrafficGenerator;
use ets_obs::latency;
use ets_obs::metrics;
use ets_smtp::client::{ClientOutcome, Email, Phase};
use ets_smtp::codec;
use ets_smtp::net_client::{send_email, RawSession, SendError};
use ets_smtp::server::{ServerOptions, SmtpServer};
use ets_smtp::session::{ReceivedEmail, ServerPolicy};
use std::hash::Hasher;
use std::net::SocketAddr;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Load-generating threads, each with at most one open connection.
pub const CLIENTS: usize = 2;
/// Emails in the replay corpus; clients cycle through it.
const CORPUS: usize = 24_000;
/// Replay every 7th simulated day, so the corpus spans the study period.
const DAY_STRIDE: usize = 7;
/// Client socket timeout; no healthy loopback session comes near it.
const TIMEOUT: Duration = Duration::from_secs(5);
/// A client thread busier than this share of its wall time was
/// generating load at its limit, so the run measures the generator.
const SATURATED_CPU_FRAC: f64 = 0.9;
/// Set-ups per run. One takes ~0.15 s, short enough that a burst of
/// noise from outside the benchmark can cover it, so `setup_s` is the
/// median of more of them than in the batch workloads.
const SETUP_REPEATS: usize = 9;
const HOSTNAME: &str = "mx.collector.example";
const HELO: &str = "mta.perfbench.example";

/// One replayed email and what a correct catch-all does with it.
struct Replay {
    email: Email,
    /// Recipient at a study domain (or a subdomain of one).
    accept: bool,
    /// Fingerprint of recipient and content, matched at the owner.
    key: u64,
}

fn message_key(rcpt: &str, data: &str) -> u64 {
    let mut f = Fingerprint::new();
    f.write(rcpt.as_bytes());
    f.write(b"\n");
    f.write(data.as_bytes());
    f.finish()
}

/// The content the owner should receive for `data`: what the server's
/// codec makes of the dot-stuffed payload the client sends (line ends
/// become CRLF, the terminator and the final line end are dropped).
fn delivered_content(data: &str) -> String {
    let wire = codec::stuff(data);
    codec::unstuff(wire.strip_suffix(".\r\n").unwrap_or(&wire))
}

fn received_key(m: &ReceivedEmail) -> u64 {
    let rcpt = m
        .rcpt_to
        .first()
        .map(ToString::to_string)
        .unwrap_or_default();
    message_key(&rcpt, &m.data)
}

/// The catch-all rule the paper's Postfix applied: the recipient domain
/// is a study domain or a subdomain of one.
fn at_study_domain(domains: &[String], rcpt_domain: &str) -> bool {
    domains.iter().any(|d| {
        rcpt_domain == d
            || rcpt_domain
                .strip_suffix(d.as_str())
                .is_some_and(|head| head.ends_with('.'))
    })
}

/// The replay corpus from the study's seeded generator, and the study
/// domains the server accepts mail for.
fn corpus(seed: u64) -> (Vec<Replay>, Vec<String>) {
    let infra = CollectionInfra::build();
    let domains: Vec<String> = infra
        .domains
        .iter()
        .map(|d| d.domain().as_str().to_owned())
        .collect();
    let gen = TrafficGenerator::new(&infra, crate::study::traffic_config(seed));
    let setup = gen.setup();
    let mut out = Vec::with_capacity(CORPUS);
    for day in (0..STUDY_DAYS as usize).step_by(DAY_STRIDE) {
        for generated in gen.day(&setup, day) {
            let c = generated.collected;
            let data = c.message.to_wire();
            let accept = at_study_domain(&domains, c.rcpt_to.domain());
            let key = message_key(&c.rcpt_to.to_string(), &delivered_content(&data));
            out.push(Replay {
                email: Email::new(c.mail_from, vec![c.rcpt_to], data),
                accept,
                key,
            });
        }
        if out.len() >= CORPUS {
            break;
        }
    }
    (out, domains)
}

/// Builds the corpus and binds the server: everything before the first
/// session can start.
fn setup(seed: u64) -> (Vec<Replay>, SmtpServer) {
    let (replays, domains) = corpus(seed);
    let policy = ServerPolicy::catch_all(HOSTNAME, &domains);
    let server = SmtpServer::bind_with("127.0.0.1:0", policy, ServerOptions::default())
        .expect("binding a loopback port");
    (replays, server)
}

/// A blocking drain of the owner channel, standing in for the
/// collection pipeline; it ends when the server drops its senders.
fn consume(server: &SmtpServer) -> JoinHandle<Vec<u64>> {
    let rx = server.received().clone();
    thread::spawn(move || rx.iter().map(|m| received_key(&m)).collect())
}

/// What one client thread saw.
#[derive(Default)]
struct ClientLog {
    /// Session latency, connect to outcome, microseconds.
    session_us: Vec<f64>,
    /// When each session ended, seconds after the drive started.
    session_end_s: Vec<f64>,
    /// Client-observed phase round trips (RawSession replays only).
    banner_us: Vec<f64>,
    command_us: Vec<f64>,
    data_us: Vec<f64>,
    /// Sessions whose outcome differed from the expected one.
    mismatched: u64,
    /// Keys of the messages the server accepted.
    accepted: Vec<u64>,
    cpu_s: f64,
    wall_s: f64,
    /// Largest accept-queue and owner-queue depth gauges seen.
    accept_queue_max: f64,
    owner_queue_max: f64,
}

impl ClientLog {
    fn cpu_frac(&self) -> f64 {
        self.cpu_s / self.wall_s.max(f64::MIN_POSITIVE)
    }
}

fn micros(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e6
}

/// Runs `session` for replays `client`, `client + CLIENTS`, … (cycling
/// the corpus) on `CLIENTS` threads for `window`, one session at a
/// time per thread. `session` returns whether the message was accepted,
/// or `None` for any other outcome.
fn drive(
    replays: &[Replay],
    window: Duration,
    sample_gauges: bool,
    session: impl Fn(&Replay, &mut ClientLog) -> Option<bool> + Sync,
) -> Vec<ClientLog> {
    let begin = Instant::now();
    let deadline = begin + window;
    thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|client| {
                let session = &session;
                scope.spawn(move || {
                    let mut log = ClientLog::default();
                    let (cpu0, start) = (measure::thread_cpu_secs(), Instant::now());
                    let mut i = client;
                    while Instant::now() < deadline {
                        let replay = &replays[i % replays.len()];
                        let t0 = Instant::now();
                        let outcome = session(replay, &mut log);
                        log.session_us.push(micros(t0));
                        log.session_end_s.push(begin.elapsed().as_secs_f64());
                        match outcome {
                            Some(true) if replay.accept => log.accepted.push(replay.key),
                            Some(false) if !replay.accept => {}
                            _ => log.mismatched += 1,
                        }
                        if sample_gauges {
                            for (name, v) in metrics::gauges_with_prefix("smtp") {
                                match name.as_str() {
                                    "accept_queue_depth" => {
                                        log.accept_queue_max = log.accept_queue_max.max(v)
                                    }
                                    "owner_queue_depth" => {
                                        log.owner_queue_max = log.owner_queue_max.max(v)
                                    }
                                    _ => {}
                                }
                            }
                        }
                        i += CLIENTS;
                    }
                    log.cpu_s = measure::thread_cpu_secs() - cpu0;
                    log.wall_s = start.elapsed().as_secs_f64();
                    log
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    })
}

/// One `send_email` session: `Some(true)` accepted, `Some(false)`
/// bounced at RCPT, `None` anything else.
fn send(addr: &str, replay: &Replay) -> Option<bool> {
    let email = replay.email.clone();
    match send_email(addr, email, HELO, false, TIMEOUT) {
        Ok(ClientOutcome::Accepted) => Some(true),
        Ok(ClientOutcome::Rejected {
            code: 550,
            phase: Phase::RcptTo,
        }) => Some(false),
        _ => None,
    }
}

/// One session over `RawSession`, timing each round trip: connect to
/// banner, each command to its reply, DATA body and dot to the 250.
/// Each phase runs in a `layer.*` span (recorded only while tracing).
fn replay_raw(addr: &str, replay: &Replay, log: &mut ClientLog) -> Result<bool, SendError> {
    let _session = layers::span("serve.session");
    let t0 = Instant::now();
    let mut s = {
        let _span = layers::span("client.banner");
        let mut s = RawSession::connect(addr, TIMEOUT)?;
        expect_code(s.read_code()?, 220)?;
        s
    };
    log.banner_us.push(micros(t0));
    let mut command = |s: &mut RawSession, line: String| -> Result<u16, SendError> {
        let _span = layers::span("client.command");
        let t = Instant::now();
        s.write_raw(line.as_bytes())?;
        let code = s.read_code()?;
        log.command_us.push(micros(t));
        Ok(code)
    };
    expect_code(command(&mut s, format!("EHLO {HELO}\r\n"))?, 250)?;
    let from = replay
        .email
        .mail_from
        .as_ref()
        .map(ToString::to_string)
        .unwrap_or_default();
    expect_code(command(&mut s, format!("MAIL FROM:<{from}>\r\n"))?, 250)?;
    let rcpt = &replay.email.rcpt_to[0];
    let accepted = match command(&mut s, format!("RCPT TO:<{rcpt}>\r\n"))? {
        250 => true,
        550 => false,
        other => return Err(SendError::ProtocolGarbage(format!("RCPT got {other}"))),
    };
    if accepted {
        expect_code(command(&mut s, "DATA\r\n".to_owned())?, 354)?;
        let _span = layers::span("client.data");
        let t = Instant::now();
        s.write_raw(codec::stuff(&replay.email.data).as_bytes())?;
        expect_code(s.read_code()?, 250)?;
        log.data_us.push(micros(t));
    }
    // Like `send_email`: QUIT without waiting for the 221.
    s.write_raw(b"QUIT\r\n")?;
    Ok(accepted)
}

fn expect_code(got: u16, want: u16) -> Result<(), SendError> {
    if got == want {
        Ok(())
    } else {
        Err(SendError::ProtocolGarbage(format!(
            "expected {want}, got {got}"
        )))
    }
}

/// Checks outcomes and the owner hand-off, and applies the generator
/// check.
fn check(report: &mut Report, logs: &[ClientLog], received: Vec<u64>) {
    let sessions: usize = logs.iter().map(|l| l.session_us.len()).sum();
    let mismatched: u64 = logs.iter().map(|l| l.mismatched).sum();
    let mut sent: Vec<u64> = logs
        .iter()
        .flat_map(|l| l.accepted.iter().copied())
        .collect();
    let mut got = received;
    sent.sort_unstable();
    got.sort_unstable();
    // Multiset difference: messages accepted but never handed to the
    // owner, plus messages the owner got that no client saw accepted.
    let (mut i, mut j, mut unmatched) = (0, 0, 0u64);
    while i < sent.len() || j < got.len() {
        match (sent.get(i), got.get(j)) {
            (Some(a), Some(b)) if a == b => (i, j) = (i + 1, j + 1),
            (Some(a), Some(b)) if a < b => (i, unmatched) = (i + 1, unmatched + 1),
            (Some(_), None) => (i, unmatched) = (i + 1, unmatched + 1),
            _ => (j, unmatched) = (j + 1, unmatched + 1),
        }
    }
    report.check(sessions as u64, mismatched + unmatched);
    report.note(format!(
        "checked: {sessions} sessions, {mismatched} with an unexpected Table 5 outcome; \
         owner received {} messages for {} accepted, {unmatched} unmatched",
        got.len(),
        sent.len()
    ));
    let busiest = logs.iter().map(ClientLog::cpu_frac).fold(0.0, f64::max);
    report.note(format!(
        "generator: busiest client thread used {:.3} of its wall time on CPU (limit {SATURATED_CPU_FRAC})",
        busiest
    ));
    if busiest > SATURATED_CPU_FRAC {
        report.invalidate(format!(
            "load generator saturated: a client thread was on CPU {:.0}% of its wall time",
            busiest * 100.0
        ));
    }
}

fn loopback_note(report: &mut Report, addr: SocketAddr) {
    assert!(
        addr.ip().is_loopback(),
        "the server must listen on loopback"
    );
    report.note(format!(
        "traffic crossed loopback to {addr}: {CLIENTS} client threads, closed loop, one connection per session"
    ));
}

fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Session statistics of one second of the measured window.
struct Slice {
    sessions: usize,
    rate: f64,
    p50_us: f64,
    p90_us: f64,
    p99_us: f64,
}

/// Splits the window into one-second slices by session end time, so a
/// burst of noise from outside the benchmark moves one slice, not the
/// run's medians.
fn slice_stats(logs: &[ClientLog], window: Duration) -> Vec<Slice> {
    let k = window.as_secs().max(1) as usize;
    let width = window.as_secs_f64() / k as f64;
    let mut buckets: Vec<Vec<f64>> = vec![Vec::new(); k];
    for log in logs {
        for (us, end) in log.session_us.iter().zip(&log.session_end_s) {
            buckets[((end / width) as usize).min(k - 1)].push(*us);
        }
    }
    buckets
        .into_iter()
        .map(|b| {
            let b = sorted(b);
            Slice {
                sessions: b.len(),
                rate: b.len() as f64 / width,
                p50_us: measure::quantile(&b, 0.5),
                p90_us: measure::quantile(&b, 0.9),
                p99_us: measure::quantile(&b, 0.99),
            }
        })
        .collect()
}

pub fn run(seed: u64, budget: Duration) -> Report {
    let mut report = Report::new();
    let ((replays, server), setup_s) = measure::repeat_setup(SETUP_REPEATS, || setup(seed));
    report.set(
        "setup_s",
        setup_s,
        format!(
            "replay corpus ({} emails) + SmtpServer::bind_with, median of {SETUP_REPEATS}",
            replays.len()
        ),
    );
    let addr = server.addr();
    loopback_note(&mut report, addr);
    let consumer = consume(&server);
    let target = addr.to_string();
    measure::reset_peak_rss();
    let logs = drive(&replays, budget, false, |r, _| send(&target, r));
    report.set(
        "peak_rss_mb",
        measure::peak_rss_mb(),
        "peak RSS during the measured window",
    );
    let mut received = server
        .shutdown()
        .iter()
        .map(received_key)
        .collect::<Vec<_>>();
    received.extend(consumer.join().expect("owner consumer"));

    let slices = slice_stats(&logs, budget);
    let n: usize = logs.iter().map(|l| l.session_us.len()).sum();
    let k = slices.len();
    let per_slice =
        |f: fn(&Slice) -> f64| measure::median(&slices.iter().map(f).collect::<Vec<_>>());
    report.set(
        "items_per_s",
        per_slice(|s| s.rate),
        format!("sessions_per_s: median over {k} one-second slices; {n} sessions in all"),
    );
    report.set(
        "p50_ms",
        per_slice(|s| s.p50_us) / 1e3,
        format!("session latency, connect to outcome: median over {k} slices of each slice's p50"),
    );
    let fewest = slices.iter().map(|s| s.sessions).min().unwrap_or(0);
    report.alias(
        "p90_ms",
        per_slice(|s| s.p90_us) / 1e3,
        "ms",
        &format!("median over {k} slices of each slice's p90; each slice has >= {fewest} sessions"),
    );
    report.alias(
        "sessions_per_s",
        per_slice(|s| s.rate),
        "1/s",
        "items_per_s",
    );
    report.alias(
        "p99_ms",
        per_slice(|s| s.p99_us) / 1e3,
        "ms",
        &format!(
            "median over {k} slices of each slice's p99, >= {} samples above it",
            fewest / 100
        ),
    );
    report.note(format!(
        "sessions per second in each slice: {}",
        slices
            .iter()
            .map(|s| format!("{:.0}", s.rate))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    check(&mut report, &logs, received);
    report
}

/// The traced run: the same replay through `RawSession`, which times
/// each round trip, first with tracing off (the client phase numbers),
/// then with a span around every phase (the overhead). The `smtp.*`
/// series are the server's own recorders, read through `ets_obs`.
pub fn traced(seed: u64, budget: Duration) -> Report {
    let mut report = Report::new();
    // Fresh recorders: the server registers its `smtp.*` histograms on
    // bind, so they hold exactly this run's sessions.
    latency::reset();
    let counter = metrics::counter_value;
    let names = [
        "smtp.commands",
        "smtp.rcpt_rejected",
        "smtp.bytes_in",
        "smtp.messages_accepted",
    ];
    let before: Vec<u64> = names.iter().map(|n| counter(n)).collect();
    let (replays, server) = setup(seed);
    let addr = server.addr();
    loopback_note(&mut report, addr);
    let consumer = consume(&server);
    let target = addr.to_string();
    let raw = |r: &Replay, log: &mut ClientLog| replay_raw(&target, r, log).ok();

    let untraced = drive(&replays, budget * 2 / 3, true, raw);
    layers::start();
    let traced = drive(&replays, budget / 3, false, raw);
    let (_, path) = layers::finish("serve", seed);
    let mut received = server
        .shutdown()
        .iter()
        .map(received_key)
        .collect::<Vec<_>>();
    received.extend(consumer.join().expect("owner consumer"));

    let merged = |f: fn(&ClientLog) -> &Vec<f64>, logs: &[ClientLog]| -> Vec<f64> {
        sorted(logs.iter().flat_map(|l| f(l).iter().copied()).collect())
    };
    let session = merged(|l| &l.session_us, &untraced);
    let banner = merged(|l| &l.banner_us, &untraced);
    let command = merged(|l| &l.command_us, &untraced);
    let data = merged(|l| &l.data_us, &untraced);
    let q = measure::quantile;
    let n = |v: &[f64]| format!("client round trips, n={}", v.len());
    report.set(
        "client.banner_us.p50",
        q(&banner, 0.5),
        format!("connect to 220, {}", n(&banner)),
    );
    report.set(
        "client.banner_us.p99",
        q(&banner, 0.99),
        format!("connect to 220, {}", n(&banner)),
    );
    report.set(
        "client.command_us.p50",
        q(&command, 0.5),
        format!("EHLO/MAIL/RCPT/DATA to reply, {}", n(&command)),
    );
    report.set(
        "client.command_us.p99",
        q(&command, 0.99),
        format!("EHLO/MAIL/RCPT/DATA to reply, {}", n(&command)),
    );
    report.set(
        "client.data_us.p50",
        q(&data, 0.5),
        format!("body + dot to 250, {}", n(&data)),
    );
    report.set(
        "client.data_us.p99",
        q(&data, 0.99),
        format!("body + dot to 250, {}", n(&data)),
    );
    let client_p50 = q(&session, 0.5);
    report.set(
        "client.session_us.p50",
        client_p50,
        format!("connect to outcome, {}", n(&session)),
    );
    report.set(
        "client.session_us.p99",
        q(&session, 0.99),
        format!("connect to outcome, {}", n(&session)),
    );

    let histograms = latency::snapshots();
    let server_q = |name: &str, quantile: f64| -> (f64, u64) {
        histograms
            .iter()
            .find(|(n, _)| n == name)
            .map_or((0.0, 0), |(_, h)| {
                (h.quantile(quantile).unwrap_or(0) as f64, h.count())
            })
    };
    for (metric, series, quantile) in [
        ("smtp.banner_us.p50", "smtp.banner_us", 0.5),
        ("smtp.banner_us.p99", "smtp.banner_us", 0.99),
        ("smtp.command_us.p50", "smtp.command_us", 0.5),
        ("smtp.command_us.p99", "smtp.command_us", 0.99),
        ("smtp.policy_us.p50", "smtp.policy_us", 0.5),
        ("smtp.policy_us.p99", "smtp.policy_us", 0.99),
        ("smtp.data_us.p50", "smtp.data_us", 0.5),
        ("smtp.data_us.p99", "smtp.data_us", 0.99),
        ("smtp.session_us.p50", "smtp.session_us", 0.5),
        ("smtp.session_us.p99", "smtp.session_us", 0.99),
    ] {
        let (v, count) = server_q(series, quantile);
        report.set(
            metric,
            v,
            format!("server recorder {series}, n={count}, both client passes"),
        );
    }
    let server_p50 = server_q("smtp.session_us", 0.5).0;
    report.set(
        "serve.residual_us",
        client_p50 - server_p50,
        "residual: client.session_us.p50 - smtp.session_us.p50 (connect, kernel, client)",
    );
    for (name, b) in names.iter().zip(&before) {
        report.set(
            name,
            (counter(name) - b) as f64,
            format!("{name} counter, both client passes"),
        );
    }
    let max_of = |f: fn(&ClientLog) -> f64| untraced.iter().map(f).fold(0.0, f64::max);
    report.set(
        "pool.accept_queue_depth_max",
        max_of(|l| l.accept_queue_max),
        "largest smtp.accept_queue_depth gauge seen after a session",
    );
    report.set(
        "owner.queue_depth_max",
        max_of(|l| l.owner_queue_max),
        "largest smtp.owner_queue_depth gauge seen after a session",
    );
    report.set(
        "client.cpu_frac",
        max_of(ClientLog::cpu_frac),
        "busiest client thread: CPU / wall",
    );
    let traced_session = merged(|l| &l.session_us, &traced);
    report.set(
        "trace.overhead_s",
        (q(&traced_session, 0.5) - client_p50) / 1e6,
        format!(
            "traced minus untraced client session p50, n={}",
            traced_session.len()
        ),
    );
    report.note(format!("trace written to {path}"));
    let all: Vec<ClientLog> = untraced.into_iter().chain(traced).collect();
    check(&mut report, &all, received);
    report
}
