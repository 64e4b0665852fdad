//! # ets-dns
//!
//! The DNS substrate of the email-typosquatting reproduction.
//!
//! The study leans on DNS in very specific ways — wildcard MX records so a
//! typo domain catches mail for any subdomain (Table 1), the RFC 5321 rule
//! that a missing MX record falls back to the A record, MX/A scans over
//! millions of candidate typo domains (§5.1), and WHOIS records for
//! registrant clustering — and this crate implements all of them over an
//! in-memory authority rather than the live Internet:
//!
//! * [`name`] — fully-qualified names with wildcard labels.
//! * [`record`] — A / NS / MX / TXT / SOA / CNAME resource records.
//! * [`zone`] — authoritative zones with RFC 4592 wildcard matching.
//! * [`wire`] — the RFC 1035 message codec, including name compression.
//! * [`resolver`] — lookups against any [`ZoneSource`], plus the
//!   RFC 5321 MX-with-A-fallback resolution used by every SMTP client.
//! * [`server`] — a UDP driver serving the resolver over real sockets.
//! * [`registry`] — the registration database: who owns which domain,
//!   through which registrar, behind which privacy proxy.
//! * [`whois`] — WHOIS records with the six fields the clustering of
//!   §5.1 matches on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod name;
pub mod record;
pub mod registry;
pub mod resolver;
pub mod server;
pub mod whois;
pub mod wire;
pub mod zone;

pub use name::Fqdn;
pub use record::{RecordData, RecordType, ResourceRecord};
pub use registry::{Registration, Registry};
pub use resolver::{MailRoute, MailTarget, Resolver, ZoneSource};
pub use whois::{PrivacyProxy, WhoisRecord};
pub use zone::Zone;
