//! The end-to-end processing pipeline of Figure 2: one entry point that
//! takes a raw received email through tokenization, text extraction,
//! sensitive-information filtering, and encryption into storage records.
//!
//! ```text
//! raw wire message
//!   → tokenize (header / body / attachments)
//!   → extract text from each attachment (incl. simulated OCR)
//!   → scrub every text (HIPAA identifier list, digits zeroed)
//!   → encrypt each part under the offline key
//!   → metadata + sealed parts
//! ```

use crate::crypto::{self, Key, Sealed};
use crate::extract;
use crate::scrub::{self, SensitiveKind};
use ets_mail::Message;
use serde::{Deserialize, Serialize};

/// Metadata kept in the clear (what the paper's logs retained).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StoredMeta {
    /// Storage id (drives the encryption nonce; unique per record).
    pub record_id: u64,
    /// Sender domain (the address itself is scrubbed).
    pub sender_domain: Option<String>,
    /// Recipient domain.
    pub recipient_domain: Option<String>,
    /// Subject length in characters (the subject text is encrypted).
    pub subject_len: usize,
    /// Attachment filenames' extensions.
    pub attachment_exts: Vec<String>,
    /// Sensitive identifier kinds found anywhere in the email.
    pub sensitive_kinds: Vec<SensitiveKind>,
    /// Content hashes of attachments (for VirusTotal-style lookups).
    pub attachment_hashes: Vec<u64>,
}

/// One fully processed email: clear metadata plus sealed parts.
#[derive(Debug)]
pub struct StoredEmail {
    /// Clear metadata.
    pub meta: StoredMeta,
    /// Encrypted header block.
    pub header: Sealed,
    /// Encrypted scrubbed body.
    pub body: Sealed,
    /// Encrypted scrubbed attachment texts (index-aligned with
    /// `meta.attachment_exts`; unsupported formats store an empty text).
    pub attachments: Vec<Sealed>,
}

/// The pipeline: a storage key plus a record counter.
#[derive(Debug)]
pub struct Pipeline {
    key: Key,
    next_id: u64,
}

impl Pipeline {
    /// Creates a pipeline sealing under `key` (kept on removable storage
    /// in the study; never on the collection server).
    pub fn new(key: Key) -> Self {
        Pipeline { key, next_id: 1 }
    }

    /// Processes one parsed message into a storage record.
    pub fn process(&mut self, msg: &Message) -> StoredEmail {
        let record_id = self.next_id;
        self.next_id += 1;

        // Tokenize: header block, body, attachments.
        let header_text = msg.headers.to_wire();
        let body_scrubbed = scrub::scrub(&msg.body);
        let mut sensitive: Vec<SensitiveKind> = body_scrubbed.kinds();

        let mut attachment_parts = Vec::with_capacity(msg.attachments.len());
        let mut exts = Vec::with_capacity(msg.attachments.len());
        let mut hashes = Vec::with_capacity(msg.attachments.len());
        for (i, a) in msg.attachments.iter().enumerate() {
            exts.push(a.extension().unwrap_or_default());
            hashes.push(a.content_hash());
            let extraction = extract::extract(a);
            let scrubbed = scrub::scrub(extraction.text().unwrap_or(""));
            for k in scrubbed.kinds() {
                if !sensitive.contains(&k) {
                    sensitive.push(k);
                }
            }
            attachment_parts.push(crypto::seal(
                &self.key,
                part_id(record_id, 2 + i as u64),
                scrubbed.text.as_bytes(),
            ));
        }
        sensitive.sort();

        // Headers may themselves carry addresses: scrub before sealing.
        let header_scrubbed = scrub::scrub(&header_text);

        StoredEmail {
            meta: StoredMeta {
                record_id,
                sender_domain: msg.from_addr().map(|a| a.domain().to_owned()),
                recipient_domain: msg.to_addr().map(|a| a.domain().to_owned()),
                subject_len: msg.subject().chars().count(),
                attachment_exts: exts,
                sensitive_kinds: sensitive,
                attachment_hashes: hashes,
            },
            header: crypto::seal(
                &self.key,
                part_id(record_id, 0),
                header_scrubbed.text.as_bytes(),
            ),
            body: crypto::seal(
                &self.key,
                part_id(record_id, 1),
                body_scrubbed.text.as_bytes(),
            ),
            attachments: attachment_parts,
        }
    }

    /// Decrypts a stored part with the offline key (analysis-time only).
    pub fn open(&self, sealed: &Sealed) -> Result<String, crypto::OpenError> {
        let bytes = crypto::open(&self.key, sealed)?;
        Ok(String::from_utf8_lossy(&bytes).into_owned())
    }
}

/// Derives a unique per-part record id: the email id in the high bits,
/// the part index in the low bits — nonces never collide.
fn part_id(record_id: u64, part: u64) -> u64 {
    (record_id << 8) | (part & 0xFF)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract::build;
    use ets_mail::MessageBuilder;

    fn pipeline() -> Pipeline {
        Pipeline::new([0x11; 32])
    }

    fn sample() -> Message {
        MessageBuilder::new()
            .from("john@business.example")
            .unwrap()
            .to("alice@gmial.com")
            .unwrap()
            .subject("travel receipts")
            .body("Amex 371385129301004 Exp 06/03\nsee attachments")
            .attach(
                "visa.pdf",
                "application/pdf",
                build::pdf("visa.pdf", "passport data, SSN 078-05-1120").data,
            )
            .attach(
                "photo.jpg",
                "image/jpeg",
                build::image("photo.jpg", "").data,
            )
            .build()
    }

    #[test]
    fn metadata_is_clear_and_content_sealed() {
        let mut p = pipeline();
        let stored = p.process(&sample());
        assert_eq!(
            stored.meta.sender_domain.as_deref(),
            Some("business.example")
        );
        assert_eq!(stored.meta.recipient_domain.as_deref(), Some("gmial.com"));
        assert_eq!(stored.meta.attachment_exts, vec!["pdf", "jpg"]);
        assert_eq!(stored.meta.subject_len, "travel receipts".len());
        // Sensitive kinds from body AND attachment text.
        assert!(stored
            .meta
            .sensitive_kinds
            .contains(&SensitiveKind::CreditCard));
        assert!(stored.meta.sensitive_kinds.contains(&SensitiveKind::Ssn));
        // Ciphertext does not contain the card number.
        let as_text = String::from_utf8_lossy(&stored.body.ciphertext);
        assert!(!as_text.contains("371385129301004"));
    }

    #[test]
    fn sealed_parts_decrypt_to_scrubbed_text() {
        let mut p = pipeline();
        let stored = p.process(&sample());
        let body = p.open(&stored.body).unwrap();
        assert!(body.contains("*_|R|_*americanexpress*"));
        assert!(!body.contains("371385129301004"));
        let att = p.open(&stored.attachments[0]).unwrap();
        assert!(att.contains("*_|R|_*ssn*"));
        // image with no OCR text stores empty
        assert_eq!(p.open(&stored.attachments[1]).unwrap(), "");
    }

    #[test]
    fn header_addresses_are_scrubbed() {
        let mut p = pipeline();
        let stored = p.process(&sample());
        let header = p.open(&stored.header).unwrap();
        assert!(!header.contains("john@business.example"));
        assert!(header.contains("*_|R|_*email*"));
    }

    #[test]
    fn record_ids_and_nonces_are_unique() {
        let mut p = pipeline();
        let a = p.process(&sample());
        let b = p.process(&sample());
        assert_ne!(a.meta.record_id, b.meta.record_id);
        assert_ne!(a.body.nonce, b.body.nonce);
        assert_ne!(a.header.nonce, a.body.nonce);
        assert_ne!(a.body.nonce, a.attachments[0].nonce);
    }

    #[test]
    fn wrong_key_cannot_open() {
        let mut p = pipeline();
        let stored = p.process(&sample());
        let other = Pipeline::new([0x22; 32]);
        assert!(other.open(&stored.body).is_err());
    }

    #[test]
    fn attachment_hashes_support_oracle_lookup() {
        let mut p = pipeline();
        let stored = p.process(&sample());
        assert_eq!(stored.meta.attachment_hashes.len(), 2);
        let oracle = ets_ecosystem_oracle_stub(stored.meta.attachment_hashes[0]);
        // the hash is stable across processing runs
        let again = pipeline().process(&sample());
        assert_eq!(stored.meta.attachment_hashes, again.meta.attachment_hashes);
        let _ = oracle;
    }

    // ets-collector cannot depend on ets-ecosystem (dependency direction);
    // this stub just documents that the hash is the lookup key.
    fn ets_ecosystem_oracle_stub(hash: u64) -> u64 {
        hash
    }
}
