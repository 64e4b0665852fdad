//! Case-insensitive header names and an order-preserving header map.
//!
//! Layer 1 and Layer 4 of the classification funnel inspect specific
//! headers (`From`, `Sender`, `Reply-To`, `Return-Path`,
//! `List-Unsubscribe`, ...), so the map supports repeated fields and
//! preserves insertion order, like real RFC 5322 header blocks.

use serde::{DeError, Deserialize, Serialize, Value};
use std::borrow::Cow;
use std::fmt;

/// A header field name; compares and hashes case-insensitively but
/// remembers the spelling it was created with. A name spelled exactly
/// like one of [`names`] borrows that constant instead of allocating.
#[derive(Debug, Clone)]
pub struct HeaderName(Cow<'static, str>);

impl HeaderName {
    /// Creates a header name. Panics if the name contains characters
    /// outside RFC 5322 `ftext` (printable ASCII except `:`).
    pub fn new(name: &str) -> Self {
        assert!(valid_name(name), "invalid header name {name:?}");
        HeaderName::spelled(name)
    }

    /// Creates a header name, returning `None` instead of panicking on an
    /// invalid one — the form the parser uses on untrusted input.
    pub fn try_new(name: &str) -> Option<Self> {
        valid_name(name).then(|| HeaderName::spelled(name))
    }

    /// `name` as spelled: borrowed when it is one of [`names`], owned
    /// otherwise (another case of a known name included).
    fn spelled(name: &str) -> Self {
        HeaderName(match names::ALL.iter().find(|known| **known == name) {
            Some(known) => Cow::Borrowed(known),
            None => Cow::Owned(name.to_owned()),
        })
    }

    /// The original spelling.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

fn valid_name(name: &str) -> bool {
    !name.is_empty() && name.bytes().all(|b| (33..=126).contains(&b) && b != b':')
}

impl PartialEq for HeaderName {
    fn eq(&self, other: &Self) -> bool {
        self.0.eq_ignore_ascii_case(&other.0)
    }
}
impl Eq for HeaderName {}

impl PartialEq<&str> for HeaderName {
    fn eq(&self, other: &&str) -> bool {
        self.0.eq_ignore_ascii_case(other)
    }
}

impl std::hash::Hash for HeaderName {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        for b in self.0.bytes() {
            state.write_u8(b.to_ascii_lowercase());
        }
    }
}

impl fmt::Display for HeaderName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for HeaderName {
    fn from(s: &str) -> Self {
        HeaderName::new(s)
    }
}

/// The spelling, as a plain string.
impl Serialize for HeaderName {
    fn to_value(&self) -> Value {
        Value::String(self.as_str().to_owned())
    }
}

/// Any string, as spelled, without re-validating it.
impl Deserialize for HeaderName {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(HeaderName::spelled(&String::from_value(v)?))
    }
}

/// Well-known header names used throughout the pipeline.
pub mod names {
    /// `From`
    pub const FROM: &str = "From";
    /// `To`
    pub const TO: &str = "To";
    /// `Sender`
    pub const SENDER: &str = "Sender";
    /// `Reply-To`
    pub const REPLY_TO: &str = "Reply-To";
    /// `Return-Path`
    pub const RETURN_PATH: &str = "Return-Path";
    /// `Subject`
    pub const SUBJECT: &str = "Subject";
    /// `Date`
    pub const DATE: &str = "Date";
    /// `Message-ID`
    pub const MESSAGE_ID: &str = "Message-ID";
    /// `List-Unsubscribe`
    pub const LIST_UNSUBSCRIBE: &str = "List-Unsubscribe";
    /// `Received`
    pub const RECEIVED: &str = "Received";
    /// `Content-Type`
    pub const CONTENT_TYPE: &str = "Content-Type";
    /// `Content-Transfer-Encoding`
    pub const CONTENT_TRANSFER_ENCODING: &str = "Content-Transfer-Encoding";
    /// `Content-Disposition`
    pub const CONTENT_DISPOSITION: &str = "Content-Disposition";
    /// `MIME-Version`
    pub const MIME_VERSION: &str = "MIME-Version";
    /// `X-Spam-Flag` (added by the pipeline, mirroring SpamAssassin)
    pub const X_SPAM_FLAG: &str = "X-Spam-Flag";

    /// Every name above: the spellings a [`HeaderName`](super::HeaderName)
    /// borrows instead of allocating.
    pub(super) const ALL: [&str; 15] = [
        FROM,
        TO,
        SENDER,
        REPLY_TO,
        RETURN_PATH,
        SUBJECT,
        DATE,
        MESSAGE_ID,
        LIST_UNSUBSCRIBE,
        RECEIVED,
        CONTENT_TYPE,
        CONTENT_TRANSFER_ENCODING,
        CONTENT_DISPOSITION,
        MIME_VERSION,
        X_SPAM_FLAG,
    ];
}

/// An insertion-ordered multimap of header fields.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct HeaderMap {
    fields: Vec<(HeaderName, String)>,
}

impl HeaderMap {
    /// Creates an empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a field (keeps existing fields with the same name).
    pub fn append(&mut self, name: impl Into<HeaderName>, value: impl Into<String>) {
        self.fields
            .push((name.into(), sanitize_value(value.into())));
    }

    /// Replaces every field of `name` with a single value.
    pub fn set(&mut self, name: impl Into<HeaderName>, value: impl Into<String>) {
        let name = name.into();
        self.fields.retain(|(n, _)| *n != name);
        self.fields.push((name, sanitize_value(value.into())));
    }

    /// First value of `name`, if present.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.fields
            .iter()
            .find(|(n, _)| n == &name)
            .map(|(_, v)| v.as_str())
    }

    /// All values of `name`, in insertion order.
    pub fn get_all<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a str> + 'a {
        self.fields
            .iter()
            .filter(move |(n, _)| n == &name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether any field named `name` exists.
    pub fn contains(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    /// Removes every field of `name`, returning how many were removed.
    pub fn remove(&mut self, name: &str) -> usize {
        let before = self.fields.len();
        self.fields.retain(|(n, _)| n != &name);
        before - self.fields.len()
    }

    /// All fields in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&HeaderName, &str)> {
        self.fields.iter().map(|(n, v)| (n, v.as_str()))
    }

    /// Number of fields (counting repeats).
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// True when no fields are present.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Serializes as an RFC 5322 header block (no trailing blank line).
    pub fn to_wire(&self) -> String {
        let mut out = String::new();
        for (n, v) in &self.fields {
            out.push_str(n.as_str());
            out.push_str(": ");
            out.push_str(v);
            out.push_str("\r\n");
        }
        out
    }

    /// Parses a header block (everything before the first blank line),
    /// unfolding continuation lines (leading whitespace).
    pub fn parse(block: &str) -> Result<HeaderMap, HeaderParseError> {
        let mut map = HeaderMap::new();
        let mut current: Option<(HeaderName, String)> = None;
        for raw_line in block.split("\r\n").flat_map(|l| l.split('\n')) {
            if raw_line.is_empty() {
                continue;
            }
            if raw_line.starts_with(' ') || raw_line.starts_with('\t') {
                match current.as_mut() {
                    Some((_, v)) => {
                        v.push(' ');
                        v.push_str(raw_line.trim());
                    }
                    None => return Err(HeaderParseError::DanglingContinuation),
                }
                continue;
            }
            if let Some((n, v)) = current.take() {
                map.fields.push((n, v));
            }
            let colon = raw_line
                .find(':')
                .ok_or_else(|| HeaderParseError::MissingColon(raw_line.to_owned()))?;
            let (name, value) = raw_line.split_at(colon);
            let name = name.trim();
            let header_name = HeaderName::try_new(name)
                .ok_or_else(|| HeaderParseError::BadName(name.to_owned()))?;
            current = Some((header_name, value[1..].trim().to_owned()));
        }
        if let Some((n, v)) = current.take() {
            map.fields.push((n, v));
        }
        Ok(map)
    }
}

fn sanitize_value(mut v: String) -> String {
    // Header injection defense: values must not contain raw CR/LF.
    if v.contains('\r') || v.contains('\n') {
        v = v.replace(['\r', '\n'], " ");
    }
    v
}

/// Errors from [`HeaderMap::parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HeaderParseError {
    /// A continuation line appeared before any field.
    DanglingContinuation,
    /// A line had no `:` separator.
    MissingColon(String),
    /// A field name was empty or contained spaces.
    BadName(String),
}

impl fmt::Display for HeaderParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HeaderParseError::DanglingContinuation => {
                write!(f, "continuation line before any header field")
            }
            HeaderParseError::MissingColon(l) => write!(f, "header line without colon: {l:?}"),
            HeaderParseError::BadName(n) => write!(f, "bad header name {n:?}"),
        }
    }
}

impl std::error::Error for HeaderParseError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_compare_case_insensitively() {
        assert_eq!(HeaderName::new("From"), HeaderName::new("FROM"));
        assert_eq!(HeaderName::new("reply-to"), "Reply-To");
    }

    #[test]
    fn known_spellings_borrow_the_constants() {
        assert!(matches!(HeaderName::new("From").0, Cow::Borrowed(_)));
        assert!(matches!(HeaderName::new("FROM").0, Cow::Owned(_)));
        assert!(matches!(HeaderName::new("x-custom").0, Cow::Owned(_)));
    }

    #[test]
    fn spellings_survive_wire_and_json() {
        for spelling in ["From", "FROM", "x-custom"] {
            let mut h = HeaderMap::new();
            h.append(spelling, "v");
            let parsed = HeaderMap::parse(&h.to_wire()).unwrap();
            let (name, _) = parsed.iter().next().unwrap();
            assert_eq!(name.as_str(), spelling);
            assert_eq!(format!("{name:?}"), format!("HeaderName({spelling:?})"));
            let value = name.to_value();
            assert_eq!(value, Value::String(spelling.to_owned()));
            assert_eq!(HeaderName::from_value(&value).unwrap().as_str(), spelling);
        }
    }

    #[test]
    #[should_panic(expected = "invalid header name")]
    fn names_reject_colon() {
        HeaderName::new("From:");
    }

    #[test]
    fn map_basic_ops() {
        let mut h = HeaderMap::new();
        h.append("From", "a@x.com");
        h.append("Received", "hop1");
        h.append("Received", "hop2");
        assert_eq!(h.get("from"), Some("a@x.com"));
        assert_eq!(h.get_all("RECEIVED").count(), 2);
        assert!(h.contains("received"));
        h.set("From", "b@x.com");
        assert_eq!(h.get_all("From").count(), 1);
        assert_eq!(h.get("From"), Some("b@x.com"));
        assert_eq!(h.remove("Received"), 2);
        assert_eq!(h.len(), 1);
    }

    #[test]
    fn wire_round_trip() {
        let mut h = HeaderMap::new();
        h.append("From", "Alice <alice@gmail.com>");
        h.append("To", "bob@gmial.com");
        h.append("Subject", "visa documents attached");
        let wire = h.to_wire();
        let parsed = HeaderMap::parse(&wire).unwrap();
        assert_eq!(parsed, h);
    }

    #[test]
    fn parse_unfolds_continuations() {
        let block = "Subject: a very\r\n  long subject\r\nTo: x@y.com\r\n";
        let h = HeaderMap::parse(block).unwrap();
        assert_eq!(h.get("Subject"), Some("a very long subject"));
        assert_eq!(h.get("To"), Some("x@y.com"));
    }

    #[test]
    fn parse_accepts_bare_lf() {
        let h = HeaderMap::parse("A: 1\nB: 2\n").unwrap();
        assert_eq!(h.get("A"), Some("1"));
        assert_eq!(h.get("B"), Some("2"));
    }

    #[test]
    fn parse_errors() {
        assert_eq!(
            HeaderMap::parse(" leading continuation"),
            Err(HeaderParseError::DanglingContinuation)
        );
        assert!(matches!(
            HeaderMap::parse("no colon here"),
            Err(HeaderParseError::MissingColon(_))
        ));
    }

    #[test]
    fn header_injection_is_neutralized() {
        let mut h = HeaderMap::new();
        h.append("Subject", "hi\r\nBcc: victim@example.com");
        let wire = h.to_wire();
        let parsed = HeaderMap::parse(&wire).unwrap();
        assert_eq!(parsed.len(), 1);
        assert!(parsed.get("Bcc").is_none());
    }

    #[test]
    fn empty_map_wire_is_empty() {
        assert_eq!(HeaderMap::new().to_wire(), "");
        assert!(HeaderMap::parse("").unwrap().is_empty());
    }
}
