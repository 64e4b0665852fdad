//! The in-memory driver: a client session wired straight to a server
//! session.
//!
//! This is how the large-scale campaigns run — delivering ~30,000 honey
//! emails to 7,269 simulated servers takes milliseconds because no sockets
//! are involved, yet every protocol line is exchanged exactly as it would
//! be on the wire.

use crate::client::{ClientAction, ClientOutcome, ClientSession, Email};
use crate::codec;
use crate::fault::DeliveryOutcome;
use crate::session::{ReceivedEmail, ServerAction, ServerPolicy, ServerSession};

/// The full result of one in-memory delivery.
#[derive(Debug)]
pub struct PipeResult {
    /// The client's view of the outcome.
    pub client: ClientOutcome,
    /// Messages the server accepted.
    pub received: Vec<ReceivedEmail>,
    /// Complete protocol transcript: (from_client, line).
    pub transcript: Vec<(bool, String)>,
}

impl PipeResult {
    /// Collapses the client outcome into a Table-5 category.
    pub fn delivery_outcome(&self) -> DeliveryOutcome {
        match &self.client {
            ClientOutcome::Accepted => DeliveryOutcome::NoError,
            ClientOutcome::Rejected { .. } => DeliveryOutcome::Bounce,
            ClientOutcome::TransientFailure { .. } => DeliveryOutcome::OtherError,
        }
    }
}

/// Errors the in-memory transport can surface (mirroring socket failures).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PipeError {
    /// The (simulated) connection never opened.
    ConnectionRefused,
    /// The (simulated) peer went silent.
    Timeout,
    /// The server closed mid-transaction (e.g. broken STARTTLS).
    ConnectionClosed,
}

impl std::fmt::Display for PipeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipeError::ConnectionRefused => write!(f, "connection refused"),
            PipeError::Timeout => write!(f, "timed out"),
            PipeError::ConnectionClosed => write!(f, "connection closed by peer"),
        }
    }
}

impl std::error::Error for PipeError {}

/// Delivers one message from a fresh client session to a fresh server
/// session built from `policy`.
pub fn deliver(
    email: Email,
    helo_name: &str,
    use_starttls: bool,
    policy: ServerPolicy,
) -> Result<PipeResult, PipeError> {
    let mut server = ServerSession::new(policy);
    let mut client = ClientSession::new(email, helo_name, use_starttls);
    let mut transcript: Vec<(bool, String)> = Vec::new();
    let mut received = Vec::new();

    let mut reply = server.greeting();
    transcript.push((false, reply.to_string()));
    // Bound the exchange defensively; a correct exchange is ~10 steps.
    for _ in 0..64 {
        let action = client.on_reply(&reply);
        match action {
            ClientAction::SendLine(line) => {
                transcript.push((true, line.clone()));
                let sa: ServerAction = server.on_line(&line);
                transcript.push((false, sa.reply.to_string()));
                if let Some(e) = sa.event {
                    received.push(e);
                }
                let closing = sa.close;
                reply = sa.reply;
                if closing && !client.is_done() {
                    // Server hung up mid-session. Let the client interpret
                    // the final reply first if it is a failure; otherwise
                    // surface a closed connection.
                    if reply.is_permanent_failure() || reply.is_transient_failure() {
                        continue;
                    }
                    return Err(PipeError::ConnectionClosed);
                }
            }
            ClientAction::SendData(stuffed) => {
                transcript.push((true, format!("<{} bytes of DATA>", stuffed.len())));
                // Run the payload through the real codec so in-memory
                // delivery has byte-identical framing semantics to TCP.
                let mut framer = codec::LineCodec::new();
                framer.enter_data_mode();
                framer.feed(stuffed.as_bytes());
                let payload = match framer.next_frame() {
                    Ok(Some(codec::Frame::Data(p))) => p,
                    _ => return Err(PipeError::ConnectionClosed),
                };
                let sa = server.on_data(payload);
                transcript.push((false, sa.reply.to_string()));
                if let Some(e) = sa.event {
                    received.push(e);
                }
                reply = sa.reply;
            }
            ClientAction::Finished(outcome) => {
                // Polite QUIT.
                let sa = server.on_line("QUIT");
                transcript.push((true, "QUIT".to_owned()));
                transcript.push((false, sa.reply.to_string()));
                return Ok(PipeResult {
                    client: outcome,
                    received,
                    transcript,
                });
            }
        }
    }
    Err(PipeError::Timeout)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ets_mail::MessageBuilder;

    fn probe_email(to: &str) -> Email {
        let msg = MessageBuilder::new()
            .from("probe@research.example")
            .unwrap()
            .to(to)
            .unwrap()
            .subject("test")
            .body("connectivity test")
            .build();
        Email::new(
            Some("probe@research.example".parse().unwrap()),
            vec![to.parse().unwrap()],
            msg.to_wire(),
        )
    }

    #[test]
    fn accepted_delivery_end_to_end() {
        let policy = ServerPolicy::catch_all("mx.gmial.com", &["gmial.com".to_owned()]);
        let r = deliver(probe_email("alice@gmial.com"), "vps.example", false, policy).unwrap();
        assert_eq!(r.client, ClientOutcome::Accepted);
        assert_eq!(r.delivery_outcome(), DeliveryOutcome::NoError);
        assert_eq!(r.received.len(), 1);
        let e = &r.received[0];
        assert_eq!(e.rcpt_to[0].to_string(), "alice@gmial.com");
        let parsed = ets_mail::Message::parse(&e.data).unwrap();
        assert_eq!(parsed.subject(), "test");
    }

    #[test]
    fn starttls_delivery() {
        let policy = ServerPolicy::catch_all("mx.gmial.com", &["gmial.com".to_owned()]);
        let r = deliver(probe_email("a@gmial.com"), "vps", true, policy).unwrap();
        assert_eq!(r.client, ClientOutcome::Accepted);
        assert!(r.received[0].tls);
        let lines: Vec<&str> = r
            .transcript
            .iter()
            .filter(|(fc, _)| *fc)
            .map(|(_, l)| l.as_str())
            .collect();
        assert!(lines.contains(&"STARTTLS"));
        // two EHLOs: before and after TLS
        assert_eq!(lines.iter().filter(|l| l.starts_with("EHLO")).count(), 2);
    }

    #[test]
    fn bounce_is_reported() {
        let policy = ServerPolicy::bouncing("mx.dead.com");
        let r = deliver(probe_email("a@dead.com"), "vps", false, policy).unwrap();
        assert_eq!(r.delivery_outcome(), DeliveryOutcome::Bounce);
        assert!(r.received.is_empty());
    }

    #[test]
    fn broken_starttls_surfaces_closed_connection() {
        let mut policy = ServerPolicy::catch_all("mx.x.com", &[]);
        policy.broken_starttls = true;
        let r = deliver(probe_email("a@x.com"), "vps", true, policy).unwrap();
        // 454 is transient → OtherError in Table 5 terms.
        assert_eq!(r.delivery_outcome(), DeliveryOutcome::OtherError);
    }

    #[test]
    fn transcript_is_complete() {
        let policy = ServerPolicy::catch_all("mx.gmial.com", &["gmial.com".to_owned()]);
        let r = deliver(probe_email("a@gmial.com"), "vps", false, policy).unwrap();
        let server_lines = r.transcript.iter().filter(|(fc, _)| !fc).count();
        let client_lines = r.transcript.iter().filter(|(fc, _)| *fc).count();
        // banner + 5 replies + QUIT reply vs EHLO MAIL RCPT DATA payload QUIT
        assert!(server_lines >= 6, "{:?}", r.transcript);
        assert!(client_lines >= 5);
        assert!(r.transcript[0].1.starts_with("220"));
    }

    #[test]
    fn dotted_content_survives_transport() {
        let policy = ServerPolicy::catch_all("mx.t.com", &[]);
        let mut email = probe_email("a@t.com");
        email.data = "Subject: dots\r\n\r\n.leading dot line\r\n..two dots".to_owned();
        let r = deliver(email, "vps", false, policy).unwrap();
        assert!(r.received[0].data.contains(".leading dot line"));
        assert!(r.received[0].data.contains("..two dots"));
    }
}
