//! WHOIS records.
//!
//! §5.1 clusters registrants on six WHOIS fields — registrant name,
//! organization, email address, phone number, fax number, and mail
//! address — declaring two domains same-owner when at least four fields
//! match. Much of real WHOIS data is fake, missing, or hidden behind a
//! privacy proxy, all of which this model represents.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// The six matchable WHOIS fields; any may be absent.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WhoisRecord {
    /// Registrant name (often fake — "Mickey Mouse" still clusters).
    pub registrant_name: Option<String>,
    /// Organization.
    pub organization: Option<String>,
    /// Contact email.
    pub email: Option<String>,
    /// Phone number.
    pub phone: Option<String>,
    /// Fax number.
    pub fax: Option<String>,
    /// Postal address.
    pub mail_address: Option<String>,
}

impl WhoisRecord {
    /// A fully-populated record.
    pub fn full(name: &str, org: &str, email: &str, phone: &str, fax: &str, address: &str) -> Self {
        WhoisRecord {
            registrant_name: Some(name.to_owned()),
            organization: Some(org.to_owned()),
            email: Some(email.to_owned()),
            phone: Some(phone.to_owned()),
            fax: Some(fax.to_owned()),
            mail_address: Some(address.to_owned()),
        }
    }

    /// The record a privacy proxy service exposes: proxy boilerplate in
    /// every field. All proxied domains share these strings, which is why
    /// §5.2 *excludes* proxy-protected registrants from clustering.
    pub fn privacy_proxy(service: &str) -> Self {
        WhoisRecord {
            registrant_name: Some(format!("{service} privacy customer")),
            organization: Some(service.to_owned()),
            email: Some(format!("contact@{service}")),
            phone: Some("+1.0000000000".to_owned()),
            fax: None,
            mail_address: Some(format!("c/o {service}, PO Box 0")),
        }
    }

    /// Number of populated fields.
    pub fn populated_fields(&self) -> usize {
        [
            &self.registrant_name,
            &self.organization,
            &self.email,
            &self.phone,
            &self.fax,
            &self.mail_address,
        ]
        .iter()
        .filter(|f| f.is_some())
        .count()
    }

    /// Number of fields that are populated in *both* records and equal
    /// (case-insensitive, trimmed).
    pub fn matching_fields(&self, other: &WhoisRecord) -> usize {
        fn eq(a: &Option<String>, b: &Option<String>) -> bool {
            match (a, b) {
                (Some(x), Some(y)) => x.trim().eq_ignore_ascii_case(y.trim()),
                _ => false,
            }
        }
        [
            eq(&self.registrant_name, &other.registrant_name),
            eq(&self.organization, &other.organization),
            eq(&self.email, &other.email),
            eq(&self.phone, &other.phone),
            eq(&self.fax, &other.fax),
            eq(&self.mail_address, &other.mail_address),
        ]
        .iter()
        .filter(|&&m| m)
        .count()
    }

    /// The §5.1 rule: same entity when at least `threshold` (the paper
    /// uses 4) of the six fields match. Records with fewer than `threshold`
    /// populated fields can never cluster.
    pub fn same_entity(&self, other: &WhoisRecord, threshold: usize) -> bool {
        self.matching_fields(other) >= threshold
    }
}

/// A privacy-proxy service: its name and the one record it publishes in
/// place of every customer's. Registrations behind the same service
/// share one instance, so a public WHOIS query of any of them returns
/// that record instead of building a copy.
#[derive(Clone, PartialEq, Eq)]
pub struct PrivacyProxy {
    service: String,
    record: Arc<WhoisRecord>,
}

impl PrivacyProxy {
    /// The proxy `service` and the [`WhoisRecord::privacy_proxy`] record
    /// it publishes.
    pub fn new(service: &str) -> Self {
        PrivacyProxy {
            service: service.to_owned(),
            record: Arc::new(WhoisRecord::privacy_proxy(service)),
        }
    }

    /// The record the service publishes for every customer.
    pub(crate) fn record(&self) -> &Arc<WhoisRecord> {
        &self.record
    }
}

/// Prints the service name alone, quoted: the record is a function of
/// it.
impl fmt::Debug for PrivacyProxy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.service, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alice() -> WhoisRecord {
        WhoisRecord::full(
            "Alice Ng",
            "Typo Holdings LLC",
            "alice@typoholdings.example",
            "+1.5551234567",
            "+1.5551234568",
            "1 Main St, Springfield",
        )
    }

    #[test]
    fn full_record_matches_itself() {
        let a = alice();
        assert_eq!(a.matching_fields(&a), 6);
        assert!(a.same_entity(&a, 4));
        assert_eq!(a.populated_fields(), 6);
    }

    #[test]
    fn four_of_six_clusters() {
        let a = alice();
        let mut b = alice();
        b.registrant_name = Some("A. Ng".to_owned()); // differs
        b.fax = None; // missing
        assert_eq!(a.matching_fields(&b), 4);
        assert!(a.same_entity(&b, 4));
        b.phone = Some("+1.9990000000".to_owned()); // now only 3 match
        assert!(!a.same_entity(&b, 4));
    }

    #[test]
    fn missing_fields_do_not_match() {
        let mut a = alice();
        let mut b = alice();
        a.email = None;
        b.email = None;
        // both missing — not a match
        assert_eq!(a.matching_fields(&b), 5);
    }

    #[test]
    fn comparison_ignores_case_and_whitespace() {
        let a = alice();
        let mut b = alice();
        b.organization = Some("  TYPO HOLDINGS llc ".to_owned());
        assert_eq!(a.matching_fields(&b), 6);
    }

    #[test]
    fn proxy_records_look_alike() {
        let p1 = WhoisRecord::privacy_proxy("whoisguard.example");
        let p2 = WhoisRecord::privacy_proxy("whoisguard.example");
        // This is exactly why the paper excludes proxies: every customer of
        // the same proxy would falsely cluster.
        assert!(p1.same_entity(&p2, 4));
    }

    #[test]
    fn proxy_publishes_its_record_and_prints_its_name() {
        let proxy = PrivacyProxy::new("whoisguard.example");
        assert_eq!(
            **proxy.record(),
            WhoisRecord::privacy_proxy("whoisguard.example")
        );
        assert_eq!(format!("{proxy:?}"), r#""whoisguard.example""#);
        assert!(Arc::ptr_eq(proxy.clone().record(), proxy.record()));
    }

    #[test]
    fn sparse_records_never_cluster() {
        let sparse = WhoisRecord {
            registrant_name: Some("Bob".to_owned()),
            email: Some("bob@x.com".to_owned()),
            ..Default::default()
        };
        assert_eq!(sparse.populated_fields(), 2);
        assert!(!sparse.same_entity(&sparse.clone(), 4));
    }
}
