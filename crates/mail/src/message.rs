//! The message type: headers + text body + attachments.

use crate::address::EmailAddress;
use crate::header::{names, HeaderMap};
use crate::mime;
use serde::{Deserialize, Serialize};

/// A file attached to a message.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Attachment {
    /// File name as given in `Content-Disposition` (e.g. `resume.docx`).
    pub filename: String,
    /// MIME content type (e.g. `application/pdf`).
    pub content_type: String,
    /// Raw bytes.
    pub data: Vec<u8>,
}

impl Attachment {
    /// Creates an attachment.
    pub fn new(filename: &str, content_type: &str, data: Vec<u8>) -> Self {
        Attachment {
            filename: filename.to_owned(),
            content_type: content_type.to_owned(),
            data,
        }
    }

    /// Lower-cased file extension, if any (`resume.DOCX` → `docx`).
    ///
    /// Figure 7 tallies these; Layer 2 drops `zip`/`rar` outright.
    pub fn extension(&self) -> Option<String> {
        self.extension_as_written().map(str::to_ascii_lowercase)
    }

    /// The file extension in its original case.
    fn extension_as_written(&self) -> Option<&str> {
        let name = self.filename.rsplit('/').next().unwrap_or(&self.filename);
        let (stem, ext) = name.rsplit_once('.')?;
        if stem.is_empty() || ext.is_empty() {
            return None;
        }
        Some(ext)
    }

    /// A stable content hash (FNV-1a, 64-bit) used to key VirusTotal-style
    /// lookups in the simulated malware oracle.
    pub fn content_hash(&self) -> u64 {
        let mut h: u64 = 0xcbf29ce484222325;
        for &b in &self.data {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        h
    }
}

/// An email message: a header block, a plain-text body, and zero or more
/// attachments. Serialized as RFC 5322 + MIME multipart when attachments
/// are present.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Message {
    /// Header fields.
    pub headers: HeaderMap,
    /// The text body (the part the scrubber and bag-of-words filter see).
    pub body: String,
    /// Attachments.
    pub attachments: Vec<Attachment>,
}

impl Message {
    /// Creates an empty message.
    pub fn new() -> Self {
        Message {
            headers: HeaderMap::new(),
            body: String::new(),
            attachments: Vec::new(),
        }
    }

    /// Parses the first address in the given header field.
    fn address_header(&self, name: &str) -> Option<EmailAddress> {
        let v = self.headers.get(name)?;
        // Take the first comma-separated mailbox that parses.
        v.split(',').find_map(|part| EmailAddress::parse(part).ok())
    }

    /// The `From:` address.
    pub fn from_addr(&self) -> Option<EmailAddress> {
        self.address_header(names::FROM)
    }

    /// The `To:` address (first mailbox).
    pub fn to_addr(&self) -> Option<EmailAddress> {
        self.address_header(names::TO)
    }

    /// The `Sender:` address.
    pub fn sender_addr(&self) -> Option<EmailAddress> {
        self.address_header(names::SENDER)
    }

    /// The `Reply-To:` address.
    pub fn reply_to_addr(&self) -> Option<EmailAddress> {
        self.address_header(names::REPLY_TO)
    }

    /// The `Return-Path:` address.
    pub fn return_path_addr(&self) -> Option<EmailAddress> {
        self.address_header(names::RETURN_PATH)
    }

    /// The subject, or empty string.
    pub fn subject(&self) -> &str {
        self.headers.get(names::SUBJECT).unwrap_or("")
    }

    /// Approximate heap bytes this message holds: header names/values,
    /// body text, attachment names and data. The message's share of
    /// `ets-collector`'s `CollectedEmail::approx_heap_bytes`, which
    /// perfbench's `study` workload reports as `traffic.bytes`; an
    /// estimate (container overhead is ignored), but a faithful proxy
    /// for how the payload scales.
    pub fn approx_heap_bytes(&self) -> u64 {
        let headers: u64 = self
            .headers
            .iter()
            .map(|(n, v)| (n.as_str().len() + v.len()) as u64)
            .sum();
        let attachments: u64 = self
            .attachments
            .iter()
            .map(|a| (a.filename.len() + a.content_type.len() + a.data.len()) as u64)
            .sum();
        headers + self.body.len() as u64 + attachments
    }

    /// Serializes to wire format (RFC 5322; MIME multipart when attachments
    /// are present).
    pub fn to_wire(&self) -> String {
        mime::serialize(self)
    }

    /// Parses a wire-format message.
    pub fn parse(wire: &str) -> Result<Message, mime::MimeError> {
        mime::parse(wire)
    }

    /// Total size of body plus attachments, in bytes.
    pub fn content_size(&self) -> usize {
        self.body.len() + self.attachments.iter().map(|a| a.data.len()).sum::<usize>()
    }

    /// Whether any attachment has one of the given (lower-case)
    /// extensions, in any case (`OFFER.ZIP` has `zip`).
    pub fn has_attachment_ext(&self, exts: &[&str]) -> bool {
        self.attachments
            .iter()
            .filter_map(Attachment::extension_as_written)
            .any(|e| exts.iter().any(|x| x.eq_ignore_ascii_case(e)))
    }
}

impl Default for Message {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Message {
        let mut m = Message::new();
        m.headers.append("From", "Alice <alice@gmail.com>");
        m.headers.append("To", "bob@gmial.com");
        m.headers.append("Subject", "hotel booking");
        m.body = "Book us 3 rooms.\nThanks, Alice".to_owned();
        m.attachments.push(Attachment::new(
            "itinerary.pdf",
            "application/pdf",
            b"%PDF-1.4 fake".to_vec(),
        ));
        m
    }

    #[test]
    fn address_accessors() {
        let m = sample();
        assert_eq!(m.from_addr().unwrap().domain(), "gmail.com");
        assert_eq!(m.to_addr().unwrap().domain(), "gmial.com");
        assert!(m.sender_addr().is_none());
        assert_eq!(m.subject(), "hotel booking");
    }

    #[test]
    fn first_parseable_mailbox_wins() {
        let mut m = Message::new();
        m.headers
            .append("To", "not-an-address, bob@x.com, carol@y.com");
        assert_eq!(m.to_addr().unwrap().local(), "bob");
    }

    #[test]
    fn attachment_extension() {
        assert_eq!(
            Attachment::new("CV.DocX", "x/y", vec![])
                .extension()
                .as_deref(),
            Some("docx")
        );
        assert_eq!(Attachment::new("noext", "x/y", vec![]).extension(), None);
        assert_eq!(Attachment::new(".hidden", "x/y", vec![]).extension(), None);
        assert_eq!(
            Attachment::new("a.tar.gz", "x/y", vec![])
                .extension()
                .as_deref(),
            Some("gz")
        );
    }

    #[test]
    fn attachment_ext_query() {
        let m = sample();
        assert!(m.has_attachment_ext(&["pdf", "doc"]));
        assert!(!m.has_attachment_ext(&["zip", "rar"]));
    }

    /// The allocating form `has_attachment_ext` replaced.
    fn has_attachment_ext_legacy(m: &Message, exts: &[&str]) -> bool {
        m.attachments
            .iter()
            .filter_map(Attachment::extension)
            .any(|e| exts.contains(&e.as_str()))
    }

    #[test]
    fn attachment_ext_query_matches_the_allocating_form() {
        let queries: [&[&str]; 4] = [
            &["zip", "rar"],
            &["exe", "scr", "js", "docm", "xlsm"],
            &["gz", "tar"],
            &["hidden", "noext", ""],
        ];
        for filename in [
            "OFFER.ZIP",
            "offer.zip",
            "Report.Rar",
            "a.ZiP",
            "CV.DocM",
            "noext",
            ".hidden",
            "dir/a.tar.gz",
            "dir.v2/noext",
            "trailing.",
        ] {
            let mut m = Message::new();
            m.attachments
                .push(Attachment::new(filename, "x/y", Vec::new()));
            for exts in queries {
                assert_eq!(
                    m.has_attachment_ext(exts),
                    has_attachment_ext_legacy(&m, exts),
                    "{filename} {exts:?}"
                );
            }
        }
    }

    #[test]
    fn content_hash_distinguishes() {
        let a = Attachment::new("a", "x/y", b"hello".to_vec());
        let b = Attachment::new("a", "x/y", b"hellp".to_vec());
        assert_ne!(a.content_hash(), b.content_hash());
        assert_eq!(a.content_hash(), a.content_hash());
    }

    #[test]
    fn content_size() {
        let m = sample();
        assert_eq!(m.content_size(), m.body.len() + 13);
    }
}
