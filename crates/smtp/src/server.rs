//! The TCP server driver.
//!
//! Runs [`ServerSession`] state machines over real `std::net` sockets.
//! Accepted connections feed a bounded queue drained by a fixed pool of
//! worker threads (the crossbeam channel is MPMC, so the pool needs no
//! extra dispatcher), and completed transactions flow to the owner over
//! a bounded delivery channel. Both bounds push back: a full connection
//! queue stalls `accept` into the kernel backlog, and a full owner
//! channel stalls the session that produced the message — so a slow
//! consumer degrades throughput instead of growing unbounded heap state.
//! This is the "Postfix on the main collection server" of Figure 1,
//! scaled down to a loopback fixture that `ets-loadgen` drives at paper
//! scale.

use crate::codec::{Frame, LineCodec};
use crate::reply::Reply;
use crate::session::{ReceivedEmail, ServerAction, ServerPolicy, ServerSession};
use crate::telemetry::{SessionObserver, SmtpTelemetry, TelemetryConfig};
use crossbeam::channel::{bounded, Receiver, Sender};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Tuning knobs for [`SmtpServer::bind_with`].
#[derive(Debug, Clone)]
pub struct ServerOptions {
    /// Per-connection read timeout; a stalled client resolves to the
    /// Table 5 `Timeout` outcome when it expires.
    pub read_timeout: Duration,
    /// Telemetry sampling configuration.
    pub telemetry: TelemetryConfig,
    /// Session worker threads (clamped to at least 1). Sessions are
    /// IO-bound on socket reads, so the default is twice the available
    /// cores, bounded away from degenerate extremes.
    pub workers: usize,
    /// Depth of the connection queue between `accept` and the workers
    /// (clamped to at least 1). With every worker busy and the queue
    /// full, the accept loop itself blocks, so back-pressure reaches the
    /// kernel accept backlog instead of growing heap state.
    pub conn_queue: usize,
    /// Owner-channel capacity: completed transactions waiting for
    /// [`SmtpServer::drain`]/[`SmtpServer::received`]. A full channel
    /// blocks the session that produced the message, which holds its
    /// pool worker, which fills the connection queue, which finally
    /// stalls `accept` — the back-pressure chain the
    /// `smtp.accept_queue_depth` / `smtp.owner_queue_depth` gauges
    /// expose.
    pub owner_queue: usize,
}

impl Default for ServerOptions {
    fn default() -> Self {
        let cores = std::thread::available_parallelism().map_or(4, usize::from);
        ServerOptions {
            read_timeout: Duration::from_secs(30),
            telemetry: TelemetryConfig::default(),
            workers: (cores * 2).clamp(4, 64),
            conn_queue: 256,
            owner_queue: 1024,
        }
    }
}

/// A running SMTP server bound to a local address.
pub struct SmtpServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    rx: Receiver<ReceivedEmail>,
    telemetry: Arc<SmtpTelemetry>,
    /// Messages drained while `stop` was unwinding sessions (the owner
    /// channel must keep flowing during shutdown or a blocked session
    /// would deadlock the join).
    stash: Vec<ReceivedEmail>,
}

impl SmtpServer {
    /// Binds to `addr` (use port 0 for an ephemeral port) and starts
    /// accepting connections with the given policy. Every session of the
    /// server shares the one policy.
    pub fn bind(addr: &str, policy: impl Into<Arc<ServerPolicy>>) -> std::io::Result<SmtpServer> {
        SmtpServer::bind_with(addr, policy, ServerOptions::default())
    }

    /// Like [`SmtpServer::bind`], with explicit timeout, telemetry and
    /// pool options.
    pub fn bind_with(
        addr: &str,
        policy: impl Into<Arc<ServerPolicy>>,
        options: ServerOptions,
    ) -> std::io::Result<SmtpServer> {
        let policy = policy.into();
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        // The owner channel is bounded: a slow drainer stalls producers
        // instead of growing an unbounded backlog, and the stall
        // propagates worker → connection queue → accept loop.
        let (tx, rx) = bounded(options.owner_queue.max(1));
        let telemetry = SmtpTelemetry::new(&options.telemetry);
        let flag = shutdown.clone();
        let tm = telemetry.clone();
        let accept_thread =
            std::thread::spawn(move || accept_loop(listener, policy, tx, flag, tm, &options));
        Ok(SmtpServer {
            addr: local,
            shutdown,
            accept_thread: Some(accept_thread),
            rx,
            telemetry,
            stash: Vec::new(),
        })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's telemetry plane (latency recorders, session ring).
    pub fn telemetry(&self) -> &Arc<SmtpTelemetry> {
        &self.telemetry
    }

    /// Receiver of accepted messages.
    pub fn received(&self) -> &Receiver<ReceivedEmail> {
        &self.rx
    }

    /// Collects messages already accepted, without blocking.
    pub fn drain(&self) -> Vec<ReceivedEmail> {
        self.rx.try_iter().collect()
    }

    /// Signals shutdown, drains queued connections to completion, joins
    /// the pool, and returns every accepted message still in flight.
    pub fn shutdown(mut self) -> Vec<ReceivedEmail> {
        self.stop();
        let mut out = std::mem::take(&mut self.stash);
        out.extend(self.rx.try_iter());
        out
    }

    fn stop(&mut self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Wake the accept loop with a dummy connection.
        // ets-lint: allow(swallowed-error): the connect exists only to
        // unblock `accept`; if it fails the listener is already gone.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept_thread.take() {
            // Keep the owner channel flowing while sessions wind down: a
            // producer blocked on a full channel must not deadlock the
            // join. Everything drained here is returned by `shutdown`.
            while !h.is_finished() {
                self.stash.extend(self.rx.try_iter());
                std::thread::sleep(Duration::from_millis(1));
            }
            let _ = h.join();
        }
    }
}

impl Drop for SmtpServer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// A bounded connection queue fans accepted sockets out to
/// `options.workers` long-lived session threads.
fn accept_loop(
    listener: TcpListener,
    policy: Arc<ServerPolicy>,
    tx: Sender<ReceivedEmail>,
    shutdown: Arc<AtomicBool>,
    telemetry: Arc<SmtpTelemetry>,
    options: &ServerOptions,
) {
    let read_timeout = options.read_timeout;
    let (conn_tx, conn_rx) = bounded::<TcpStream>(options.conn_queue.max(1));
    let workers = options.workers.max(1);
    let mut pool = Vec::with_capacity(workers);
    for _ in 0..workers {
        let conn_rx = conn_rx.clone();
        let tx = tx.clone();
        let policy = Arc::clone(&policy);
        let tm = telemetry.clone();
        pool.push(std::thread::spawn(move || {
            // `iter()` drains the queue to empty even after the accept
            // loop drops its sender: queued connections are served on
            // shutdown, never dropped.
            for stream in conn_rx.iter() {
                serve_connection(stream, &policy, &tx, read_timeout, &tm);
            }
        }));
    }
    drop(conn_rx);
    for stream in listener.incoming() {
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        telemetry.accept_queue_depth(conn_tx.len());
        // A blocking send is the back-pressure: with the queue full and
        // every worker busy, `accept` stalls right here and the kernel
        // backlog absorbs the burst. Err means the workers are gone,
        // which only happens on teardown.
        if conn_tx.send(stream).is_err() {
            break;
        }
    }
    drop(conn_tx);
    for h in pool {
        let _ = h.join();
    }
}

/// Runs one accepted socket through a full observed session.
fn serve_connection(
    stream: TcpStream,
    policy: &Arc<ServerPolicy>,
    tx: &Sender<ReceivedEmail>,
    read_timeout: Duration,
    telemetry: &Arc<SmtpTelemetry>,
) {
    let mut observer = telemetry.session_start();
    // A broken client connection only ends that session: the error feeds
    // the Table 5 outcome taxonomy and the harness observes delivery via
    // the owner channel.
    let result = handle_connection(stream, policy, tx, read_timeout, &mut observer, telemetry);
    observer.finish(result.as_ref().err());
}

/// What one framing step resolved to. `Frame`s borrow the codec's
/// scratch buffer, so the session's owned `ServerAction` is extracted
/// first and acted on after the borrow ends.
enum Step {
    Act {
        action: ServerAction,
        /// `Some(bytes)` for a DATA payload, `None` for a command line
        /// (`is_rcpt` rides along for the policy-latency series).
        data_bytes: Option<usize>,
        is_rcpt: bool,
    },
    NeedBytes,
    FramingError,
}

fn handle_connection(
    mut stream: TcpStream,
    policy: &Arc<ServerPolicy>,
    tx: &Sender<ReceivedEmail>,
    read_timeout: Duration,
    observer: &mut SessionObserver,
    telemetry: &Arc<SmtpTelemetry>,
) -> std::io::Result<()> {
    stream.set_read_timeout(Some(read_timeout))?;
    stream.set_nodelay(true)?;
    let mut session = ServerSession::new(Arc::clone(policy));
    let mut framer = LineCodec::new();
    // Replies are rendered into one reusable buffer and written with a
    // single syscall; the per-reply `to_string` + split writes of the
    // pre-loadgen driver were a measurable hot-path cost.
    let mut reply_buf = String::with_capacity(64);
    write_reply(&mut stream, &mut reply_buf, &session.greeting())?;
    observer.banner_sent();
    let mut buf = [0u8; 4096];
    loop {
        // Drain complete frames before reading more bytes.
        loop {
            let step = match framer.next_frame() {
                Ok(Some(Frame::Line(line))) => {
                    let is_rcpt = line
                        .get(..4)
                        .is_some_and(|p| p.eq_ignore_ascii_case("RCPT"));
                    Step::Act {
                        action: session.on_line(line),
                        data_bytes: None,
                        is_rcpt,
                    }
                }
                Ok(Some(Frame::Data(payload))) => Step::Act {
                    data_bytes: Some(payload.len()),
                    action: session.on_data(payload),
                    is_rcpt: false,
                },
                Ok(None) => Step::NeedBytes,
                Err(_) => Step::FramingError,
            };
            match step {
                Step::Act {
                    action,
                    data_bytes,
                    is_rcpt,
                } => {
                    write_reply(&mut stream, &mut reply_buf, &action.reply)?;
                    match data_bytes {
                        Some(bytes) => observer.data_done(bytes, action.event.is_some()),
                        None => observer.command(is_rcpt, action.reply.code),
                    }
                    if action.enter_data {
                        framer.enter_data_mode();
                    }
                    if let Some(e) = action.event {
                        telemetry.owner_queue_depth(tx.len());
                        // A full owner channel blocks here — back-pressure
                        // by design. Err means the owner is gone (server
                        // dropped mid-session); the session just ends.
                        if tx.send(e).is_err() {
                            return Ok(());
                        }
                    }
                    if action.close {
                        return Ok(());
                    }
                }
                Step::NeedBytes => break,
                Step::FramingError => {
                    observer.framing_error();
                    write_reply(&mut stream, &mut reply_buf, &Reply::line_too_long())?;
                    return Ok(());
                }
            }
        }
        let n = match stream.read(&mut buf) {
            Ok(n) => n,
            Err(e) => {
                if matches!(
                    e.kind(),
                    io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock
                ) {
                    // ets-lint: allow(swallowed-error): courtesy 421 on an
                    // already-stalled connection (RFC 5321 §4.2.4.1); the
                    // Timeout outcome is decided whether or not the client
                    // hears it.
                    let _ = write_reply(&mut stream, &mut reply_buf, &Reply::idle_timeout());
                }
                return Err(e);
            }
        };
        if n == 0 {
            return Ok(()); // client hung up
        }
        framer.feed(&buf[..n]);
    }
}

/// Renders `code SP text CRLF` into `buf` (no `fmt` machinery, no
/// allocation) and writes it with one `write_all`.
fn write_reply(stream: &mut TcpStream, buf: &mut String, reply: &Reply) -> std::io::Result<()> {
    buf.clear();
    let code = reply.code.clamp(200, 599);
    buf.push((b'0' + (code / 100) as u8) as char);
    buf.push((b'0' + (code / 10 % 10) as u8) as char);
    buf.push((b'0' + (code % 10) as u8) as char);
    buf.push(' ');
    buf.push_str(&reply.text);
    buf.push_str("\r\n");
    stream.write_all(buf.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{ClientOutcome, Email};
    use crate::net_client::{send_email, RawSession};

    fn policy() -> ServerPolicy {
        ServerPolicy::catch_all("mx.gmial.com", &["gmial.com".to_owned()])
    }

    fn email(to: &str, body: &str) -> Email {
        Email::new(
            Some("alice@gmail.com".parse().unwrap()),
            vec![to.parse().unwrap()],
            format!("Subject: loopback\r\n\r\n{body}"),
        )
    }

    fn pool_options(workers: usize, conn_queue: usize, owner_queue: usize) -> ServerOptions {
        ServerOptions {
            workers,
            conn_queue,
            owner_queue,
            ..ServerOptions::default()
        }
    }

    #[test]
    fn default_options_keep_the_pool_geometry() {
        let cores = std::thread::available_parallelism().map_or(4, usize::from);
        let o = ServerOptions::default();
        assert_eq!(o.workers, (cores * 2).clamp(4, 64));
        assert_eq!((o.conn_queue, o.owner_queue), (256, 1024));
        assert_eq!(o.read_timeout, Duration::from_secs(30));
        assert_eq!(o.telemetry.sample_every, 16);
    }

    #[test]
    fn sessions_of_one_server_share_one_policy() {
        // With both workers holding a live session, the policy has six
        // owners: this test, the accept loop, two workers, two sessions.
        // A session that copied the policy would own a fresh one instead.
        let shared = Arc::new(policy());
        let server =
            SmtpServer::bind_with("127.0.0.1:0", Arc::clone(&shared), pool_options(2, 4, 16))
                .unwrap();
        let addr = server.addr().to_string();
        let mut held = Vec::new();
        for _ in 0..2 {
            let mut raw = RawSession::connect(&addr, Duration::from_secs(5)).unwrap();
            assert_eq!(raw.read_code().unwrap(), 220); // its session exists
            held.push(raw);
        }
        assert_eq!(Arc::strong_count(&shared), 6);
        for mut raw in held {
            raw.write_raw(b"QUIT\r\n").unwrap();
        }
        assert!(server.shutdown().is_empty());
        assert_eq!(Arc::strong_count(&shared), 1);
    }

    #[test]
    fn loopback_delivery() {
        let server = SmtpServer::bind("127.0.0.1:0", policy()).unwrap();
        let outcome = send_email(
            &server.addr().to_string(),
            email("bob@gmial.com", "over real TCP"),
            "client.example",
            false,
            Duration::from_secs(5),
        )
        .unwrap();
        assert_eq!(outcome, ClientOutcome::Accepted);
        let received = server.shutdown();
        assert_eq!(received.len(), 1);
        assert_eq!(received[0].rcpt_to[0].to_string(), "bob@gmial.com");
        assert!(received[0].data.contains("over real TCP"));
    }

    #[test]
    fn loopback_starttls() {
        let server = SmtpServer::bind("127.0.0.1:0", policy()).unwrap();
        let outcome = send_email(
            &server.addr().to_string(),
            email("bob@gmial.com", "tls please"),
            "client.example",
            true,
            Duration::from_secs(5),
        )
        .unwrap();
        assert_eq!(outcome, ClientOutcome::Accepted);
        let received = server.shutdown();
        assert!(received[0].tls);
    }

    #[test]
    fn loopback_rejection() {
        let server = SmtpServer::bind("127.0.0.1:0", policy()).unwrap();
        let outcome = send_email(
            &server.addr().to_string(),
            email("someone@unrelated.com", "should bounce"),
            "client.example",
            false,
            Duration::from_secs(5),
        )
        .unwrap();
        assert!(matches!(outcome, ClientOutcome::Rejected { code: 550, .. }));
        assert!(server.shutdown().is_empty());
    }

    #[test]
    fn several_sequential_deliveries() {
        let server = SmtpServer::bind("127.0.0.1:0", policy()).unwrap();
        for i in 0..5 {
            let o = send_email(
                &server.addr().to_string(),
                email(&format!("user{i}@gmial.com"), "msg"),
                "c.example",
                false,
                Duration::from_secs(5),
            )
            .unwrap();
            assert_eq!(o, ClientOutcome::Accepted);
        }
        assert_eq!(server.shutdown().len(), 5);
    }

    #[test]
    fn concurrent_deliveries() {
        let server = SmtpServer::bind("127.0.0.1:0", policy()).unwrap();
        let addr = server.addr().to_string();
        let mut handles = Vec::new();
        for i in 0..8 {
            let addr = addr.clone();
            handles.push(std::thread::spawn(move || {
                send_email(
                    &addr,
                    email(&format!("c{i}@gmial.com"), "concurrent"),
                    "c.example",
                    false,
                    Duration::from_secs(5),
                )
                .unwrap()
            }));
        }
        for h in handles {
            assert_eq!(h.join().unwrap(), ClientOutcome::Accepted);
        }
        assert_eq!(server.shutdown().len(), 8);
    }

    #[test]
    fn pool_saturation_loses_no_connections() {
        // 2 workers, a 1-deep queue, 12 concurrent clients: the accept
        // loop must block (back-pressure into the kernel backlog) rather
        // than drop anything, and every delivery must land.
        let server =
            SmtpServer::bind_with("127.0.0.1:0", policy(), pool_options(2, 1, 1024)).unwrap();
        let addr = server.addr().to_string();
        let mut handles = Vec::new();
        for i in 0..12 {
            let addr = addr.clone();
            handles.push(std::thread::spawn(move || {
                send_email(
                    &addr,
                    email(&format!("sat{i}@gmial.com"), "saturated"),
                    "c.example",
                    false,
                    Duration::from_secs(20),
                )
                .unwrap()
            }));
        }
        for h in handles {
            assert_eq!(h.join().unwrap(), ClientOutcome::Accepted);
        }
        assert_eq!(server.shutdown().len(), 12);
    }

    #[test]
    fn pool_drains_queued_connections_on_shutdown() {
        // A single worker held busy by a raw session while more clients
        // queue up; shutdown must serve every queued connection before
        // returning (graceful drain), not abandon them.
        let server =
            SmtpServer::bind_with("127.0.0.1:0", policy(), pool_options(1, 16, 1024)).unwrap();
        let addr = server.addr().to_string();
        let mut hold = RawSession::connect(&addr, Duration::from_secs(10)).unwrap();
        assert_eq!(hold.read_code().unwrap(), 220); // we own the worker now
        let mut handles = Vec::new();
        for i in 0..4 {
            let addr = addr.clone();
            handles.push(std::thread::spawn(move || {
                send_email(
                    &addr,
                    email(&format!("q{i}@gmial.com"), "queued"),
                    "c.example",
                    false,
                    Duration::from_secs(20),
                )
                .unwrap()
            }));
        }
        // Let the accept loop queue the four connections.
        std::thread::sleep(Duration::from_millis(300));
        // Release the worker, then immediately shut down.
        hold.write_raw(b"QUIT\r\n").unwrap();
        drop(hold);
        let received = server.shutdown();
        for h in handles {
            assert_eq!(h.join().unwrap(), ClientOutcome::Accepted);
        }
        assert_eq!(received.len(), 4, "queued connections were dropped");
    }

    #[test]
    fn bounded_owner_channel_backpressure_loses_nothing() {
        // Owner queue of 1: producers block until the owner drains, and
        // every message still arrives exactly once.
        let server = SmtpServer::bind_with("127.0.0.1:0", policy(), pool_options(4, 8, 1)).unwrap();
        let addr = server.addr().to_string();
        let mut handles = Vec::new();
        for i in 0..3 {
            let addr = addr.clone();
            handles.push(std::thread::spawn(move || {
                send_email(
                    &addr,
                    email(&format!("bp{i}@gmial.com"), "pressured"),
                    "c.example",
                    false,
                    Duration::from_secs(20),
                )
                .unwrap()
            }));
        }
        let mut drained = Vec::new();
        for _ in 0..2_000 {
            drained.extend(server.drain());
            if drained.len() == 3 {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(drained.len(), 3);
        for h in handles {
            assert_eq!(h.join().unwrap(), ClientOutcome::Accepted);
        }
        assert!(server.shutdown().is_empty());
    }

    #[test]
    fn pipelined_commands_in_one_segment() {
        // A client may push several commands in one TCP write; the framer
        // must process them in order against the session.
        let server = SmtpServer::bind("127.0.0.1:0", policy()).unwrap();
        let mut raw =
            RawSession::connect(&server.addr().to_string(), Duration::from_secs(5)).unwrap();
        assert_eq!(raw.read_code().unwrap(), 220); // banner
        raw.write_raw(
            b"EHLO burst.example\r\nMAIL FROM:<a@b.com>\r\nRCPT TO:<u@gmial.com>\r\nDATA\r\n",
        )
        .unwrap();
        let mut codes = Vec::new();
        for _ in 0..4 {
            codes.push(raw.read_code().unwrap());
        }
        assert_eq!(codes, vec![250, 250, 250, 354]);
        raw.write_raw(b"pipelined body\r\n.\r\nQUIT\r\n").unwrap();
        assert_eq!(raw.read_code().unwrap(), 250);
        let received = server.shutdown();
        assert_eq!(received.len(), 1);
        assert_eq!(received[0].data, "pipelined body");
    }

    #[test]
    fn client_hangup_mid_transaction_loses_nothing() {
        let server = SmtpServer::bind("127.0.0.1:0", policy()).unwrap();
        let mut raw =
            RawSession::connect(&server.addr().to_string(), Duration::from_secs(5)).unwrap();
        raw.write_raw(
            b"EHLO x\r\nMAIL FROM:<a@b.com>\r\nRCPT TO:<u@gmial.com>\r\nDATA\r\nhalf a mess",
        )
        .unwrap();
        drop(raw); // vanish before the terminator
        let received = server.shutdown();
        assert!(received.is_empty(), "partial DATA must not be accepted");
    }

    #[test]
    fn shutdown_is_idempotent_via_drop() {
        let server = SmtpServer::bind("127.0.0.1:0", policy()).unwrap();
        let addr = server.addr();
        drop(server);
        // After drop the port should refuse (eventually) — at minimum a
        // fresh bind to the same port must succeed.
        let rebound = TcpListener::bind(addr);
        assert!(rebound.is_ok());
    }
}
