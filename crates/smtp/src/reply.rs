//! SMTP replies (RFC 5321 §4.2).

use std::borrow::Cow;
use std::fmt;

/// A server reply: three-digit code plus text.
///
/// The fixed protocol replies (`250 OK`, `354 …`, `550 …`) carry
/// `Cow::Borrowed` static text, so the per-command serving hot path
/// allocates nothing; only dynamic texts (greeting banners, parsed
/// replies) own their string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reply {
    /// The reply code (e.g. 250).
    pub code: u16,
    /// Human-readable text (single line in this subset).
    pub text: Cow<'static, str>,
}

impl Reply {
    /// Creates a reply with owned (dynamic) text.
    pub fn new(code: u16, text: &str) -> Self {
        Reply {
            code,
            text: Cow::Owned(text.to_owned()),
        }
    }

    /// Creates a reply with static text — zero-allocation, `const`.
    pub const fn fixed(code: u16, text: &'static str) -> Self {
        Reply {
            code,
            text: Cow::Borrowed(text),
        }
    }

    /// `220` service ready greeting.
    pub fn service_ready(host: &str) -> Self {
        Reply::new(220, &format!("{host} ESMTP ready"))
    }

    /// `250 OK`.
    pub const fn ok() -> Self {
        Reply::fixed(250, "OK")
    }

    /// `250` transaction queued.
    pub const fn queued() -> Self {
        Reply::fixed(250, "OK: queued")
    }

    /// `221` closing.
    pub const fn closing() -> Self {
        Reply::fixed(221, "Bye")
    }

    /// `354` start mail input.
    pub const fn start_data() -> Self {
        Reply::fixed(354, "End data with <CR><LF>.<CR><LF>")
    }

    /// `550` mailbox unavailable (the bounce of Table 5).
    pub const fn mailbox_unavailable() -> Self {
        Reply::fixed(550, "No such user here")
    }

    /// `503` bad sequence of commands.
    pub const fn bad_sequence() -> Self {
        Reply::fixed(503, "Bad sequence of commands")
    }

    /// `500` syntax error.
    pub const fn syntax_error() -> Self {
        Reply::fixed(500, "Syntax error")
    }

    /// `500` framing rejection (oversized line / bad DATA framing).
    pub const fn line_too_long() -> Self {
        Reply::fixed(500, "Line too long")
    }

    /// `502` command not implemented.
    pub const fn not_implemented() -> Self {
        Reply::fixed(502, "Command not implemented")
    }

    /// `421` service not available (used when shedding load / faulting).
    pub const fn unavailable() -> Self {
        Reply::fixed(421, "Service not available")
    }

    /// `421` idle-timeout courtesy close (RFC 5321 §4.2.4.1).
    pub const fn idle_timeout() -> Self {
        Reply::fixed(421, "4.4.2 idle timeout, closing")
    }

    /// Positive completion (2xx).
    pub fn is_positive(&self) -> bool {
        (200..300).contains(&self.code)
    }

    /// Positive intermediate (3xx — continue with data).
    pub fn is_intermediate(&self) -> bool {
        (300..400).contains(&self.code)
    }

    /// Transient negative (4xx).
    pub fn is_transient_failure(&self) -> bool {
        (400..500).contains(&self.code)
    }

    /// Permanent negative (5xx).
    pub fn is_permanent_failure(&self) -> bool {
        (500..600).contains(&self.code)
    }

    /// Parses a single-line reply (`250 OK`). Any line a peer can send
    /// returns `None` rather than panicking: the code is sliced with
    /// `str::get`, so a multi-byte character in the first three bytes
    /// is just not a code.
    pub fn parse(line: &str) -> Option<Reply> {
        let line = line.trim_end_matches(['\r', '\n']);
        let code: u16 = line.get(..3)?.parse().ok()?;
        if !(200..600).contains(&code) {
            return None;
        }
        let rest = line.get(3..)?;
        let text = rest.strip_prefix([' ', '-']).unwrap_or(rest);
        Some(Reply::new(code, text))
    }
}

impl fmt::Display for Reply {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.code, self.text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn categories() {
        assert!(Reply::ok().is_positive());
        assert!(Reply::start_data().is_intermediate());
        assert!(Reply::unavailable().is_transient_failure());
        assert!(Reply::mailbox_unavailable().is_permanent_failure());
        assert!(!Reply::ok().is_permanent_failure());
    }

    #[test]
    fn display_and_parse_round_trip() {
        for r in [
            Reply::service_ready("mx.gmial.com"),
            Reply::ok(),
            Reply::start_data(),
            Reply::mailbox_unavailable(),
        ] {
            let line = r.to_string();
            assert_eq!(Reply::parse(&line).unwrap(), r);
        }
    }

    #[test]
    fn fixed_replies_borrow_static_text() {
        for r in [
            Reply::ok(),
            Reply::queued(),
            Reply::closing(),
            Reply::start_data(),
            Reply::mailbox_unavailable(),
            Reply::bad_sequence(),
            Reply::syntax_error(),
            Reply::line_too_long(),
            Reply::not_implemented(),
            Reply::unavailable(),
            Reply::idle_timeout(),
        ] {
            assert!(matches!(r.text, Cow::Borrowed(_)), "{r}");
        }
    }

    #[test]
    fn parse_tolerates_crlf_and_dash() {
        assert_eq!(Reply::parse("250 OK\r\n").unwrap(), Reply::ok());
        assert_eq!(Reply::parse("250-PIPELINING").unwrap().code, 250);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Reply::parse("").is_none());
        assert!(Reply::parse("ab").is_none());
        assert!(Reply::parse("999 nope").is_none());
        assert!(Reply::parse("abc hello").is_none());
        assert!(Reply::parse("100 too low").is_none());
        assert!(Reply::parse("22é ok").is_none());
        assert!(Reply::parse("é").is_none());
    }

    proptest::proptest! {
        #[test]
        fn parse_never_panics(
            code in "[0-9é€😀]{0,4}",
            rest in "[ a-z0-9é€😀\r\n-]{0,6}",
            any_line: String,
        ) {
            for line in [format!("{code}{rest}"), any_line] {
                if let Some(r) = Reply::parse(&line) {
                    proptest::prop_assert!((200..600).contains(&r.code), "{line:?}");
                }
            }
        }
    }
}
