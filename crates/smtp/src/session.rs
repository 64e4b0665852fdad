//! The server-side SMTP state machine (sans-io).
//!
//! Mirrors the study's Postfix configuration: a catch-all server that
//! accepts any recipient at any subdomain of its domains — "the username
//! and the domain name can thus both be random strings" (§4.2.2) — never
//! relays, and hands every accepted message to the collection pipeline.

use crate::command::{Command, CommandParseError};
use crate::reply::Reply;
use ets_mail::EmailAddress;
use std::sync::Arc;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerPolicy {
    /// Hostname announced in the greeting.
    pub hostname: String,
    /// Accept any recipient (Postfix catch-all). When `false`, recipients
    /// must match `local_domains`.
    pub catch_all: bool,
    /// Domains considered local; with `catch_all` any subdomain of these
    /// also matches. Empty + `catch_all` accepts absolutely anything.
    pub local_domains: Vec<String>,
    /// Whether EHLO advertises and STARTTLS is accepted.
    pub supports_starttls: bool,
    /// Table 4's "STARTTLS with errors": advertise but fail the upgrade.
    pub broken_starttls: bool,
    /// Reject every RCPT with 550 (the bounce population of Table 5).
    pub reject_all_rcpt: bool,
}

impl ServerPolicy {
    /// The study's collection-server policy for a set of typo domains.
    pub fn catch_all(hostname: &str, domains: &[String]) -> Self {
        ServerPolicy {
            hostname: hostname.to_owned(),
            catch_all: true,
            local_domains: domains.to_vec(),
            supports_starttls: true,
            broken_starttls: false,
            reject_all_rcpt: false,
        }
    }

    /// A bouncing server (every recipient rejected).
    pub fn bouncing(hostname: &str) -> Self {
        ServerPolicy {
            hostname: hostname.to_owned(),
            catch_all: true,
            local_domains: Vec::new(),
            supports_starttls: false,
            broken_starttls: false,
            reject_all_rcpt: true,
        }
    }

    fn accepts_rcpt(&self, addr: &EmailAddress) -> bool {
        if self.reject_all_rcpt {
            return false;
        }
        if self.local_domains.is_empty() {
            return self.catch_all;
        }
        let d = addr.domain();
        self.local_domains.iter().any(|ld| {
            d == ld
                || (self.catch_all && d.ends_with(ld.as_str()) && {
                    let prefix_len = d.len() - ld.len();
                    prefix_len > 0 && d.as_bytes()[prefix_len - 1] == b'.'
                })
        })
    }
}

/// A fully received message, as the envelope saw it.
#[derive(Debug, Clone, PartialEq)]
pub struct ReceivedEmail {
    /// The HELO/EHLO name the client announced.
    pub client_helo: String,
    /// Envelope sender (`None` for bounce messages).
    pub mail_from: Option<EmailAddress>,
    /// Envelope recipients (at least one).
    pub rcpt_to: Vec<EmailAddress>,
    /// Raw message content (headers + body), dot-unstuffed.
    pub data: String,
    /// Whether STARTTLS was negotiated before the transaction.
    pub tls: bool,
}

/// What the driver should do after feeding the session one input.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerAction {
    /// Reply to transmit.
    pub reply: Reply,
    /// A completed message, if this input finished a transaction.
    pub event: Option<ReceivedEmail>,
    /// Switch the codec to DATA framing before reading further.
    pub enter_data: bool,
    /// Close the connection after transmitting the reply.
    pub close: bool,
    /// Reset the transport (TLS renegotiation point). The in-memory pipe
    /// treats this as a no-op flag.
    pub restart_tls: bool,
}

impl ServerAction {
    fn reply(reply: Reply) -> Self {
        ServerAction {
            reply,
            event: None,
            enter_data: false,
            close: false,
            restart_tls: false,
        }
    }
}

/// Returns `Some(true)` for EHLO lines, `Some(false)` for HELO, `None`
/// otherwise (used to decide whether to advertise extensions).
fn cmd_kind(line: &str) -> Option<bool> {
    let verb = line.split_whitespace().next()?;
    if verb.eq_ignore_ascii_case("EHLO") {
        Some(true)
    } else if verb.eq_ignore_ascii_case("HELO") {
        Some(false)
    } else {
        None
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Start,
    Greeted,
    MailGiven,
    RcptGiven,
    InData,
}

/// The server session state machine. Feed it command lines with
/// [`ServerSession::on_line`] and the DATA payload with
/// [`ServerSession::on_data`].
#[derive(Debug)]
pub struct ServerSession {
    policy: Arc<ServerPolicy>,
    state: State,
    helo: String,
    mail_from: Option<EmailAddress>,
    rcpt_to: Vec<EmailAddress>,
    tls: bool,
}

impl ServerSession {
    /// Creates a session; the driver should send [`ServerSession::greeting`]
    /// immediately. A server passes one `Arc` that all its sessions
    /// share, so a connection costs no copy of the policy; a
    /// `ServerPolicy` by value is wrapped for this session alone.
    pub fn new(policy: impl Into<Arc<ServerPolicy>>) -> Self {
        ServerSession {
            policy: policy.into(),
            state: State::Start,
            helo: String::new(),
            mail_from: None,
            rcpt_to: Vec::new(),
            tls: false,
        }
    }

    /// The 220 greeting.
    pub fn greeting(&self) -> Reply {
        Reply::service_ready(&self.policy.hostname)
    }

    /// Whether TLS has been negotiated.
    pub fn tls_active(&self) -> bool {
        self.tls
    }

    /// Feeds one command line.
    pub fn on_line(&mut self, line: &str) -> ServerAction {
        debug_assert_ne!(self.state, State::InData, "feed DATA via on_data");
        let cmd = match Command::parse(line) {
            Ok(c) => c,
            Err(CommandParseError::UnknownVerb(_)) => {
                return ServerAction::reply(Reply::not_implemented())
            }
            Err(CommandParseError::BadArgument(_)) => {
                return ServerAction::reply(Reply::syntax_error())
            }
        };
        match cmd {
            Command::Helo(name) | Command::Ehlo(name) => {
                // RFC 5321: only EHLO replies advertise extensions.
                let is_ehlo = matches!(cmd_kind(line), Some(true));
                self.helo = name;
                self.reset_transaction();
                self.state = State::Greeted;
                let text = if is_ehlo && self.policy.supports_starttls {
                    format!("{} greets you; STARTTLS", self.policy.hostname)
                } else {
                    format!("{} greets you", self.policy.hostname)
                };
                ServerAction::reply(Reply::new(250, &text))
            }
            Command::StartTls => {
                if !self.policy.supports_starttls {
                    ServerAction::reply(Reply::not_implemented())
                } else if self.policy.broken_starttls {
                    // Table 4's "Supp. STARTTLS with errors": the upgrade
                    // handshake fails and the connection dies.
                    let mut a = ServerAction::reply(Reply::fixed(454, "TLS not available"));
                    a.close = true;
                    a
                } else if self.tls {
                    ServerAction::reply(Reply::bad_sequence())
                } else {
                    self.tls = true;
                    self.state = State::Start; // RFC 3207: forget everything
                    self.reset_transaction();
                    let mut a = ServerAction::reply(Reply::fixed(220, "Ready to start TLS"));
                    a.restart_tls = true;
                    a
                }
            }
            Command::MailFrom(path) => {
                if self.state != State::Greeted {
                    return ServerAction::reply(Reply::bad_sequence());
                }
                self.mail_from = path;
                self.state = State::MailGiven;
                ServerAction::reply(Reply::ok())
            }
            Command::RcptTo(addr) => {
                if !matches!(self.state, State::MailGiven | State::RcptGiven) {
                    return ServerAction::reply(Reply::bad_sequence());
                }
                if !self.policy.accepts_rcpt(&addr) {
                    return ServerAction::reply(Reply::mailbox_unavailable());
                }
                self.rcpt_to.push(addr);
                self.state = State::RcptGiven;
                ServerAction::reply(Reply::ok())
            }
            Command::Data => {
                if self.state != State::RcptGiven {
                    return ServerAction::reply(Reply::bad_sequence());
                }
                self.state = State::InData;
                let mut a = ServerAction::reply(Reply::start_data());
                a.enter_data = true;
                a
            }
            Command::Rset => {
                self.reset_transaction();
                if self.state != State::Start {
                    self.state = State::Greeted;
                }
                ServerAction::reply(Reply::ok())
            }
            Command::Noop => ServerAction::reply(Reply::ok()),
            Command::Quit => {
                let mut a = ServerAction::reply(Reply::closing());
                a.close = true;
                a
            }
        }
    }

    /// Feeds the complete DATA payload (already unstuffed by the codec).
    pub fn on_data(&mut self, payload: &str) -> ServerAction {
        assert_eq!(self.state, State::InData, "on_data outside DATA");
        let event = ReceivedEmail {
            client_helo: self.helo.clone(),
            mail_from: self.mail_from.take(),
            rcpt_to: std::mem::take(&mut self.rcpt_to),
            data: payload.to_owned(),
            tls: self.tls,
        };
        self.state = State::Greeted;
        let mut a = ServerAction::reply(Reply::queued());
        a.event = Some(event);
        a
    }

    fn reset_transaction(&mut self) {
        self.mail_from = None;
        self.rcpt_to.clear();
        if matches!(self.state, State::MailGiven | State::RcptGiven) {
            self.state = State::Greeted;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn catch_all() -> ServerSession {
        ServerSession::new(ServerPolicy::catch_all(
            "mx.gmial.com",
            &["gmial.com".to_owned()],
        ))
    }

    fn run_transaction(s: &mut ServerSession, rcpt: &str) -> (Vec<u16>, Option<ReceivedEmail>) {
        let mut codes = Vec::new();
        let mut event = None;
        for line in [
            "EHLO sender.example".to_owned(),
            "MAIL FROM:<alice@gmail.com>".to_owned(),
            format!("RCPT TO:<{rcpt}>"),
            "DATA".to_owned(),
        ] {
            let a = s.on_line(&line);
            codes.push(a.reply.code);
            if a.enter_data {
                let da = s.on_data("Subject: x\r\n\r\nhello");
                codes.push(da.reply.code);
                event = da.event;
            }
        }
        (codes, event)
    }

    #[test]
    fn happy_path_catch_all() {
        let mut s = catch_all();
        assert_eq!(s.greeting().code, 220);
        let (codes, event) = run_transaction(&mut s, "anything.random@gmial.com");
        assert_eq!(codes, vec![250, 250, 250, 354, 250]);
        let e = event.unwrap();
        assert_eq!(e.client_helo, "sender.example");
        assert_eq!(e.mail_from.unwrap().domain(), "gmail.com");
        assert_eq!(e.rcpt_to[0].local(), "anything.random");
        assert!(e.data.contains("hello"));
    }

    #[test]
    fn sessions_share_the_policy_they_are_given() {
        let policy = Arc::new(ServerPolicy::catch_all("mx.gmial.com", &[]));
        let a = ServerSession::new(Arc::clone(&policy));
        let b = ServerSession::new(Arc::clone(&policy));
        assert!(Arc::ptr_eq(&a.policy, &policy));
        assert!(Arc::ptr_eq(&b.policy, &policy));
    }

    #[test]
    fn subdomain_recipients_accepted() {
        // Wildcard behavior: any subdomain of a local domain.
        let mut s = catch_all();
        let (codes, event) = run_transaction(&mut s, "user@smtp.gmial.com");
        assert_eq!(codes, vec![250, 250, 250, 354, 250]);
        assert!(event.is_some());
    }

    #[test]
    fn foreign_recipients_rejected_no_open_relay() {
        let mut s = catch_all();
        let (codes, event) = run_transaction(&mut s, "victim@gmail.com");
        assert_eq!(codes[2], 550, "must not relay for foreign domains");
        assert!(event.is_none());
    }

    #[test]
    fn lookalike_domain_without_dot_boundary_rejected() {
        let mut s = catch_all();
        let (codes, _) = run_transaction(&mut s, "user@notgmial.com");
        assert_eq!(codes[2], 550);
    }

    #[test]
    fn empty_local_domains_accepts_everything() {
        let mut s = ServerSession::new(ServerPolicy::catch_all("mx.x.com", &[]));
        let (codes, event) = run_transaction(&mut s, "any@where.at.all.com");
        assert_eq!(codes, vec![250, 250, 250, 354, 250]);
        assert!(event.is_some());
    }

    #[test]
    fn bouncing_server_rejects() {
        let mut s = ServerSession::new(ServerPolicy::bouncing("mx.bounce.com"));
        let (codes, event) = run_transaction(&mut s, "a@b.com");
        assert_eq!(codes[2], 550);
        assert!(event.is_none());
    }

    #[test]
    fn command_sequencing_enforced() {
        let mut s = catch_all();
        assert_eq!(s.on_line("MAIL FROM:<a@b.com>").reply.code, 503);
        assert_eq!(s.on_line("DATA").reply.code, 503);
        s.on_line("EHLO x.com");
        assert_eq!(s.on_line("RCPT TO:<a@gmial.com>").reply.code, 503);
        assert_eq!(s.on_line("DATA").reply.code, 503);
    }

    #[test]
    fn null_sender_accepted() {
        let mut s = catch_all();
        s.on_line("EHLO x.com");
        assert_eq!(s.on_line("MAIL FROM:<>").reply.code, 250);
        assert_eq!(s.on_line("RCPT TO:<u@gmial.com>").reply.code, 250);
        let a = s.on_line("DATA");
        assert!(a.enter_data);
        let da = s.on_data("bounce body");
        assert_eq!(da.event.unwrap().mail_from, None);
    }

    #[test]
    fn multiple_recipients() {
        let mut s = catch_all();
        s.on_line("EHLO x.com");
        s.on_line("MAIL FROM:<a@b.com>");
        assert_eq!(s.on_line("RCPT TO:<u1@gmial.com>").reply.code, 250);
        assert_eq!(s.on_line("RCPT TO:<u2@sub.gmial.com>").reply.code, 250);
        s.on_line("DATA");
        let e = s.on_data("x").event.unwrap();
        assert_eq!(e.rcpt_to.len(), 2);
    }

    #[test]
    fn rset_clears_transaction() {
        let mut s = catch_all();
        s.on_line("EHLO x.com");
        s.on_line("MAIL FROM:<a@b.com>");
        s.on_line("RCPT TO:<u@gmial.com>");
        assert_eq!(s.on_line("RSET").reply.code, 250);
        // Must start over with MAIL.
        assert_eq!(s.on_line("DATA").reply.code, 503);
        assert_eq!(s.on_line("MAIL FROM:<c@d.com>").reply.code, 250);
    }

    #[test]
    fn starttls_flow() {
        let mut s = catch_all();
        s.on_line("EHLO x.com");
        let a = s.on_line("STARTTLS");
        assert_eq!(a.reply.code, 220);
        assert!(a.restart_tls);
        assert!(s.tls_active());
        // State was reset: MAIL before EHLO is rejected.
        assert_eq!(s.on_line("MAIL FROM:<a@b.com>").reply.code, 503);
        s.on_line("EHLO x.com");
        s.on_line("MAIL FROM:<a@b.com>");
        s.on_line("RCPT TO:<u@gmial.com>");
        s.on_line("DATA");
        assert!(s.on_data("x").event.unwrap().tls);
        // Double STARTTLS rejected.
        assert_eq!(s.on_line("STARTTLS").reply.code, 503);
    }

    #[test]
    fn broken_starttls_closes() {
        let mut policy = ServerPolicy::catch_all("mx.x.com", &[]);
        policy.broken_starttls = true;
        let mut s = ServerSession::new(policy);
        s.on_line("EHLO x.com");
        let a = s.on_line("STARTTLS");
        assert_eq!(a.reply.code, 454);
        assert!(a.close);
    }

    #[test]
    fn starttls_unsupported() {
        let mut policy = ServerPolicy::catch_all("mx.x.com", &[]);
        policy.supports_starttls = false;
        let mut s = ServerSession::new(policy);
        s.on_line("EHLO x.com");
        assert_eq!(s.on_line("STARTTLS").reply.code, 502);
    }

    #[test]
    fn unknown_and_bad_commands() {
        let mut s = catch_all();
        assert_eq!(s.on_line("FROBNICATE").reply.code, 502);
        assert_eq!(s.on_line("MAIL FRM:<a@b.com>").reply.code, 500);
        assert_eq!(s.on_line("NOOP").reply.code, 250);
    }

    #[test]
    fn quit_closes() {
        let mut s = catch_all();
        let a = s.on_line("QUIT");
        assert_eq!(a.reply.code, 221);
        assert!(a.close);
    }
}
