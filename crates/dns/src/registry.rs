//! The registration database.
//!
//! Holds, for every registered domain: its WHOIS record (possibly behind a
//! privacy proxy), its registrar, its name servers, and its authoritative
//! zone. This is the substrate §5 scans: generate gtypos, ask the registry
//! which are registered (ctypos), resolve their MX/A records, fetch WHOIS,
//! and read the `.com` zone file for name-server statistics. A
//! [`Registry`] stores its rows; a view that derives them on lookup can
//! stand in for it behind the same [`ZoneSource`] trait.

use crate::name::Fqdn;
use crate::resolver::ZoneSource;
use crate::whois::{PrivacyProxy, WhoisRecord};
use crate::zone::Zone;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::Arc;

/// One domain registration.
#[derive(Debug, Clone, PartialEq)]
pub struct Registration {
    /// The registered domain.
    pub domain: Fqdn,
    /// Registrar identifier (e.g. `reg-7`), one of a fixed set of names.
    pub registrar: &'static str,
    /// True WHOIS data of the owner (may be partly fake/missing), shared:
    /// the registrations of one owner may hold one record.
    pub whois: Arc<WhoisRecord>,
    /// Privacy proxy service, if the owner hides behind one.
    pub privacy_proxy: Option<Arc<PrivacyProxy>>,
    /// Name-server host names serving the domain.
    pub nameservers: Vec<Fqdn>,
    /// Registration day (simulation days since epoch).
    pub created_day: u32,
}

impl Registration {
    /// The WHOIS record a public query returns: the proxy's record when
    /// the registration is proxied, the owner's record otherwise. Either
    /// is shared, so the call costs one refcount increment.
    pub fn public_whois(&self) -> Arc<WhoisRecord> {
        match &self.privacy_proxy {
            Some(proxy) => Arc::clone(proxy.record()),
            None => Arc::clone(&self.whois),
        }
    }

    /// Whether the registration is privacy-proxied.
    pub fn is_private(&self) -> bool {
        self.privacy_proxy.is_some()
    }
}

/// The registry: registrations plus the authoritative zones behind them.
///
/// Thread-safe: the scanning experiments fan out across worker threads.
#[derive(Debug, Default, Clone)]
pub struct Registry {
    inner: Arc<RwLock<RegistryInner>>,
}

/// One domain's registry row: the registration plus its published zone,
/// so a registration can never exist without its zone slot (or the
/// reverse) and a lookup of either is one probe.
#[derive(Debug)]
struct RegistryEntry {
    registration: Registration,
    zone: Option<Zone>,
}

#[derive(Debug, Default)]
struct RegistryInner {
    domains: HashMap<Fqdn, RegistryEntry>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a domain with its zone. Returns `false` (and changes
    /// nothing) if the domain was already taken.
    pub fn register(&self, registration: Registration, zone: Option<Zone>) -> bool {
        let mut inner = self.inner.write();
        match inner.domains.entry(registration.domain.clone()) {
            std::collections::hash_map::Entry::Occupied(_) => false,
            std::collections::hash_map::Entry::Vacant(slot) => {
                if let Some(z) = &zone {
                    assert!(
                        z.origin == registration.domain,
                        "zone origin {} does not match registration {}",
                        z.origin,
                        registration.domain
                    );
                }
                slot.insert(RegistryEntry { registration, zone });
                true
            }
        }
    }

    /// Whether a domain is registered.
    pub fn is_registered(&self, domain: &Fqdn) -> bool {
        self.inner.read().domains.contains_key(domain)
    }

    /// The registration of a domain.
    pub fn registration(&self, domain: &Fqdn) -> Option<Registration> {
        self.inner
            .read()
            .domains
            .get(domain)
            .map(|e| e.registration.clone())
    }

    /// The authoritative zone for a domain, if one is published.
    pub fn zone(&self, domain: &Fqdn) -> Option<Zone> {
        self.inner
            .read()
            .domains
            .get(domain)
            .and_then(|e| e.zone.clone())
    }

    /// Number of registrations.
    pub fn len(&self) -> usize {
        self.inner.read().domains.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The zone-file view used by §5.1's name-server analysis: one
    /// `(domain, nameserver)` row per NS delegation, sorted.
    pub fn zone_file(&self) -> Vec<(Fqdn, Fqdn)> {
        let inner = self.inner.read();
        let mut rows: Vec<(Fqdn, Fqdn)> = Vec::new();
        for (domain, e) in &inner.domains {
            for ns in &e.registration.nameservers {
                rows.push((domain.clone(), ns.clone()));
            }
        }
        rows.sort();
        rows
    }
}

impl ZoneSource for Registry {
    fn zone(&self, domain: &Fqdn) -> Option<Zone> {
        Registry::zone(self, domain)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn n(s: &str) -> Fqdn {
        s.parse().unwrap()
    }

    fn reg(domain: &str, private: bool) -> Registration {
        Registration {
            domain: n(domain),
            registrar: "reg-1",
            whois: Arc::new(WhoisRecord::full(
                "Owner",
                "Org",
                "o@x.com",
                "+1.5550000000",
                "",
                "addr",
            )),
            privacy_proxy: private.then(|| Arc::new(PrivacyProxy::new("proxy.example"))),
            nameservers: vec![n("ns1.host.example"), n("ns2.host.example")],
            created_day: 100,
        }
    }

    #[test]
    fn register_and_lookup() {
        let r = Registry::new();
        assert!(r.register(reg("gmial.com", false), None));
        assert!(r.is_registered(&n("gmial.com")));
        assert!(!r.is_registered(&n("gmaill.com")));
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn double_registration_fails() {
        let r = Registry::new();
        assert!(r.register(reg("gmial.com", false), None));
        assert!(!r.register(reg("gmial.com", true), None));
        assert!(!r.registration(&n("gmial.com")).unwrap().is_private());
    }

    #[test]
    fn whois_respects_privacy_proxy() {
        let r = Registry::new();
        r.register(reg("hidden.com", true), None);
        r.register(reg("open.com", false), None);
        let hidden = r.registration(&n("hidden.com")).unwrap().public_whois();
        assert_eq!(hidden.organization.as_deref(), Some("proxy.example"));
        let open = r.registration(&n("open.com")).unwrap().public_whois();
        assert_eq!(open.registrant_name.as_deref(), Some("Owner"));
    }

    #[test]
    fn zone_file_lists_delegations() {
        let r = Registry::new();
        r.register(reg("a.com", false), None);
        r.register(reg("b.com", false), None);
        let rows = r.zone_file();
        assert_eq!(rows.len(), 4); // 2 domains × 2 NS
        assert!(rows.iter().all(|(_, ns)| ns.to_string().starts_with("ns")));
    }

    #[test]
    fn registry_is_shared_across_clones() {
        let r = Registry::new();
        let r2 = r.clone();
        r.register(reg("shared.com", false), None);
        assert!(r2.is_registered(&n("shared.com")));
    }

    #[test]
    #[should_panic(expected = "does not match registration")]
    fn mismatched_zone_panics() {
        let r = Registry::new();
        let z = Zone::parked(&n("other.com"), Ipv4Addr::new(1, 1, 1, 1), 300);
        r.register(reg("mine.com", false), Some(z));
    }
}
