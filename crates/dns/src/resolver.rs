//! Resolution against a set of zones, including RFC 5321 mail routing.
//!
//! The resolver answers A/MX/NS/TXT queries from the zones a
//! [`ZoneSource`] publishes — a [`Registry`](crate::Registry), or any
//! view that derives its zones on lookup — and implements the
//! mail-specific rule of RFC 5321 §5.1 that the study's scan relies on:
//! *"in the absence of an MX record, the A record of the domain name
//! should be used as the mail server's address"* (an "implicit MX").
//!
//! [`Resolver::resolve_mail`] resolves every exchange's address, as a
//! sender needs; [`Resolver::mail_route`] stops at the route, which is
//! all the §5 census reads (Table 4: whether mail has a route; Figure 8:
//! the most preferred exchange), and so derives one zone per domain.

use crate::name::Fqdn;
use crate::record::{RecordData, RecordType};
use crate::wire::{DnsMessage, Rcode};
use crate::zone::Zone;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::net::Ipv4Addr;
use std::sync::Arc;

/// Where a [`Resolver`] reads zones from.
pub trait ZoneSource: Send + Sync + fmt::Debug {
    /// The authoritative zone published at exactly `domain`, if any.
    fn zone(&self, domain: &Fqdn) -> Option<Zone>;
}

/// Where mail for a domain should be delivered.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum MailTarget {
    /// Explicit MX records, sorted by preference (then name, for
    /// determinism); each resolved to an address when possible.
    Mx(Vec<MxTarget>),
    /// No MX record; RFC 5321 implicit MX via the A record.
    ImplicitA(Ipv4Addr),
    /// Neither MX nor A — the domain cannot receive mail
    /// (Table 4's "No MX or A record found").
    Unreachable,
    /// The domain is not registered at all.
    NxDomain,
}

/// Where mail for a domain is routed: a [`MailTarget`] without the
/// exchange addresses, and with only the exchange a sender tries first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MailRoute {
    /// Explicit MX records: the most preferred exchange (lowest
    /// preference, then name).
    Mx(Fqdn),
    /// No MX record; RFC 5321 implicit MX via the A record.
    ImplicitA(Ipv4Addr),
    /// Neither MX nor A.
    Unreachable,
    /// The domain is not registered at all.
    NxDomain,
}

/// One resolved MX target.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MxTarget {
    /// Preference (lower first).
    pub preference: u16,
    /// Exchange host name.
    pub exchange: Fqdn,
    /// The exchange's address, if its A record resolves.
    pub address: Option<Ipv4Addr>,
}

/// A resolver bound to a zone source.
#[derive(Debug, Clone)]
pub struct Resolver {
    zones: Arc<dyn ZoneSource>,
}

impl Resolver {
    /// Creates a resolver over `zones`.
    pub fn new(zones: impl ZoneSource + 'static) -> Self {
        Resolver {
            zones: Arc::new(zones),
        }
    }

    /// The registrable zone a name falls under, if registered.
    fn zone_for(&self, name: &Fqdn) -> Option<Zone> {
        // Walk up: the zone cut in this simulation is always at the
        // registrable (two-label) boundary, but checking each ancestor
        // keeps deeper delegations possible.
        let mut cur = name.clone();
        loop {
            if let Some(z) = self.zones.zone(&cur) {
                return Some(z);
            }
            if cur.label_count() <= 2 {
                return None;
            }
            cur = cur.parent();
        }
    }

    /// Looks up all records of `rtype` at `name`. `None` means NXDOMAIN
    /// (no zone); an empty vec means the zone exists but has no data.
    pub fn lookup(&self, name: &Fqdn, rtype: RecordType) -> Option<Vec<RecordData>> {
        let zone = self.zone_for(name)?;
        Some(zone.lookup(name, rtype).map(|r| r.data.clone()).collect())
    }

    /// Resolves the A record of `name` (first address).
    pub fn resolve_a(&self, name: &Fqdn) -> Option<Ipv4Addr> {
        first_a(&self.zone_for(name)?, name)
    }

    /// RFC 5321 mail routing for `domain`.
    pub fn resolve_mail(&self, domain: &Fqdn) -> MailTarget {
        let Some(zone) = self.zone_for(domain) else {
            return MailTarget::NxDomain;
        };
        let mut mxs: Vec<MxTarget> = zone
            .lookup(domain, RecordType::Mx)
            .filter_map(|r| match &r.data {
                RecordData::Mx {
                    preference,
                    exchange,
                } => Some(MxTarget {
                    preference: *preference,
                    address: self.resolve_a(exchange),
                    exchange: exchange.clone(),
                }),
                _ => None,
            })
            .collect();
        if mxs.is_empty() {
            return match first_a(&zone, domain) {
                Some(ip) => MailTarget::ImplicitA(ip),
                None => MailTarget::Unreachable,
            };
        }
        mxs.sort_by(|a, b| {
            a.preference
                .cmp(&b.preference)
                .then_with(|| a.exchange.cmp(&b.exchange))
        });
        MailTarget::Mx(mxs)
    }

    /// The route [`Resolver::resolve_mail`] finds for `domain`, without
    /// resolving any exchange: one zone lookup, no collected records.
    pub fn mail_route(&self, domain: &Fqdn) -> MailRoute {
        let Some(zone) = self.zone_for(domain) else {
            return MailRoute::NxDomain;
        };
        let best = zone
            .lookup(domain, RecordType::Mx)
            .filter_map(|r| match &r.data {
                RecordData::Mx {
                    preference,
                    exchange,
                } => Some((*preference, exchange)),
                _ => None,
            })
            .min();
        match best {
            Some((_, exchange)) => MailRoute::Mx(exchange.clone()),
            None => match first_a(&zone, domain) {
                Some(ip) => MailRoute::ImplicitA(ip),
                None => MailRoute::Unreachable,
            },
        }
    }

    /// The best delivery address for `domain`, if any: first MX with an
    /// address, else the implicit A.
    pub fn mail_address(&self, domain: &Fqdn) -> Option<Ipv4Addr> {
        match self.resolve_mail(domain) {
            MailTarget::Mx(mxs) => mxs.into_iter().find_map(|m| m.address),
            MailTarget::ImplicitA(ip) => Some(ip),
            _ => None,
        }
    }

    /// The mail-exchange *domain* used for the concentration analyses
    /// (Table 6 / Figure 8): the registrable suffix of the first MX host,
    /// or of the domain itself under implicit-A routing, or `None` when
    /// unreachable. When the first MX host has no registrable suffix the
    /// host name itself is returned.
    pub fn mx_domain(&self, domain: &Fqdn) -> Option<Fqdn> {
        let host = match self.mail_route(domain) {
            MailRoute::Mx(exchange) => exchange,
            MailRoute::ImplicitA(_) => domain.clone(),
            MailRoute::Unreachable | MailRoute::NxDomain => return None,
        };
        Some(host.registrable().unwrap_or(host))
    }

    /// Serves a wire-format query, the way the simulated authoritative
    /// server answers the scanner.
    pub fn serve(&self, query: &DnsMessage) -> DnsMessage {
        let Some(q) = query.questions.first() else {
            return DnsMessage::response_to(query, Rcode::FormErr);
        };
        match self.lookup(&q.name, q.qtype) {
            None => DnsMessage::response_to(query, Rcode::NxDomain),
            Some(records) => {
                let mut resp = DnsMessage::response_to(query, Rcode::NoError);
                for data in records {
                    resp.answers.push(crate::record::ResourceRecord {
                        name: q.name.clone(),
                        ttl: 300,
                        data,
                    });
                }
                resp
            }
        }
    }
}

/// The first A record `zone` holds for `name`.
fn first_a(zone: &Zone, name: &Fqdn) -> Option<Ipv4Addr> {
    zone.lookup(name, RecordType::A).find_map(|r| match r.data {
        RecordData::A(ip) => Some(ip),
        _ => None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::ResourceRecord;
    use crate::registry::{Registration, Registry};
    use crate::whois::WhoisRecord;

    fn n(s: &str) -> Fqdn {
        s.parse().unwrap()
    }

    fn setup() -> (Registry, Resolver) {
        let registry = Registry::new();
        let reg = |d: &str| Registration {
            domain: n(d),
            registrar: "r",
            whois: WhoisRecord::default().into(),
            privacy_proxy: None,
            nameservers: vec![n("ns1.x.com")],
            created_day: 0,
        };
        // catch-all typo domain
        registry.register(
            reg("gmial.com"),
            Some(Zone::catch_all(
                &n("gmial.com"),
                Ipv4Addr::new(10, 0, 0, 1),
                300,
            )),
        );
        // parked: A only
        registry.register(
            reg("parked.com"),
            Some(Zone::parked(
                &n("parked.com"),
                Ipv4Addr::new(10, 0, 0, 2),
                300,
            )),
        );
        // hosted mail via external MX; the MX host itself registered with an A
        registry.register(
            reg("hosted.com"),
            Some(Zone::hosted_mail(
                &n("hosted.com"),
                &n("mx1.b-io.co"),
                None,
                300,
            )),
        );
        registry.register(reg("b-io.co"), {
            let mut z = Zone::new(n("b-io.co"));
            z.add(crate::record::ResourceRecord::a(
                "mx1.b-io.co",
                300,
                Ipv4Addr::new(10, 0, 0, 3),
            ));
            Some(z)
        });
        // registered, no zone at all ("no info")
        registry.register(reg("noinfo.com"), None);
        let resolver = Resolver::new(registry.clone());
        (registry, resolver)
    }

    #[test]
    fn explicit_mx_wins() {
        let (_, r) = setup();
        match r.resolve_mail(&n("gmial.com")) {
            MailTarget::Mx(mxs) => {
                assert_eq!(mxs.len(), 1);
                assert_eq!(mxs[0].exchange, n("gmial.com"));
                assert_eq!(mxs[0].address, Some(Ipv4Addr::new(10, 0, 0, 1)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn wildcard_subdomain_mail_routes() {
        let (_, r) = setup();
        // smtp typo: mail sent to any subdomain of the typo domain
        match r.resolve_mail(&n("smtp.gmial.com")) {
            MailTarget::Mx(mxs) => assert_eq!(mxs[0].address, Some(Ipv4Addr::new(10, 0, 0, 1))),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn implicit_a_fallback() {
        let (_, r) = setup();
        assert_eq!(
            r.resolve_mail(&n("parked.com")),
            MailTarget::ImplicitA(Ipv4Addr::new(10, 0, 0, 2))
        );
        assert_eq!(
            r.mail_address(&n("parked.com")),
            Some(Ipv4Addr::new(10, 0, 0, 2))
        );
    }

    #[test]
    fn nxdomain_and_unreachable() {
        let (_, r) = setup();
        assert_eq!(r.resolve_mail(&n("unregistered.com")), MailTarget::NxDomain);
        // registered with no zone: looks like NXDOMAIN to the resolver
        assert_eq!(r.resolve_mail(&n("noinfo.com")), MailTarget::NxDomain);
    }

    #[test]
    fn unreachable_when_zone_has_neither() {
        let registry = Registry::new();
        registry.register(
            Registration {
                domain: n("empty.com"),
                registrar: "r",
                whois: WhoisRecord::default().into(),
                privacy_proxy: None,
                nameservers: vec![],
                created_day: 0,
            },
            Some(Zone::new(n("empty.com"))),
        );
        let r = Resolver::new(registry);
        assert_eq!(r.resolve_mail(&n("empty.com")), MailTarget::Unreachable);
    }

    #[test]
    fn hosted_mail_resolves_through_provider() {
        let (_, r) = setup();
        match r.resolve_mail(&n("hosted.com")) {
            MailTarget::Mx(mxs) => {
                assert_eq!(mxs[0].exchange, n("mx1.b-io.co"));
                assert_eq!(mxs[0].address, Some(Ipv4Addr::new(10, 0, 0, 3)));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(r.mx_domain(&n("hosted.com")), Some(n("b-io.co")));
        assert_eq!(r.mx_domain(&n("parked.com")), Some(n("parked.com")));
        assert_eq!(r.mx_domain(&n("unregistered.com")), None);
    }

    #[test]
    fn mx_sorting_by_preference() {
        let registry = Registry::new();
        let mut z = Zone::new(n("multi.com"));
        z.add(crate::record::ResourceRecord::mx(
            "multi.com",
            300,
            20,
            "backup.multi.com",
        ));
        z.add(crate::record::ResourceRecord::mx(
            "multi.com",
            300,
            10,
            "primary.multi.com",
        ));
        z.add(crate::record::ResourceRecord::a(
            "primary.multi.com",
            300,
            Ipv4Addr::new(1, 1, 1, 1),
        ));
        registry.register(
            Registration {
                domain: n("multi.com"),
                registrar: "r",
                whois: WhoisRecord::default().into(),
                privacy_proxy: None,
                nameservers: vec![],
                created_day: 0,
            },
            Some(z),
        );
        let r = Resolver::new(registry);
        match r.resolve_mail(&n("multi.com")) {
            MailTarget::Mx(mxs) => {
                assert_eq!(mxs[0].exchange, n("primary.multi.com"));
                assert_eq!(mxs[1].exchange, n("backup.multi.com"));
                assert_eq!(mxs[1].address, None);
                assert_eq!(
                    r.mail_address(&n("multi.com")),
                    Some(Ipv4Addr::new(1, 1, 1, 1))
                );
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    /// `resolve_mail` with the addresses dropped and only the first
    /// exchange kept.
    fn route_of(target: MailTarget) -> MailRoute {
        match target {
            MailTarget::Mx(mxs) => MailRoute::Mx(mxs[0].exchange.clone()),
            MailTarget::ImplicitA(ip) => MailRoute::ImplicitA(ip),
            MailTarget::Unreachable => MailRoute::Unreachable,
            MailTarget::NxDomain => MailRoute::NxDomain,
        }
    }

    /// `mx_domain` as it read `resolve_mail`.
    fn mx_domain_of(target: MailTarget, domain: &Fqdn) -> Option<Fqdn> {
        match target {
            MailTarget::Mx(mxs) => {
                let first = mxs.first()?;
                Some(
                    first
                        .exchange
                        .registrable()
                        .unwrap_or_else(|| first.exchange.clone()),
                )
            }
            MailTarget::ImplicitA(_) => {
                Some(domain.registrable().unwrap_or_else(|| domain.clone()))
            }
            _ => None,
        }
    }

    fn registration(domain: &Fqdn) -> Registration {
        Registration {
            domain: domain.clone(),
            registrar: "r",
            whois: WhoisRecord::default().into(),
            privacy_proxy: None,
            nameservers: vec![],
            created_day: 0,
        }
    }

    proptest::proptest! {
        /// Over random registries — catch-all, parked, hosted, empty and
        /// lame zones, and zones of several MX records with tied
        /// preferences, in-zone and wildcard exchanges — `mail_route` is
        /// `resolve_mail` without the addresses, and `mx_domain` reads
        /// the same provider from either, at the apex, below it, and for
        /// names nobody registered.
        #[test]
        fn mail_route_is_resolve_mail_without_addresses(
            kinds in proptest::collection::vec(0usize..6, 1..10),
            prefs in proptest::collection::vec(0u16..3, 40..41),
            hosts in proptest::collection::vec(0usize..6, 40..41),
            apex_a in proptest::collection::vec(0u8..3, 10..11),
        ) {
            let registry = Registry::new();
            // Providers: one whose exchange has an address, one whose
            // zone is empty; `p2.net` is not registered.
            let p0 = n("p0.net");
            let mut z0 = Zone::new(p0.clone());
            z0.add(ResourceRecord::a("mx1.p0.net", 300, Ipv4Addr::new(10, 9, 0, 1)));
            registry.register(registration(&p0), Some(z0));
            let p1 = n("p1.net");
            registry.register(registration(&p1), Some(Zone::new(p1.clone())));
            let mut next = 0;
            for (i, &kind) in kinds.iter().enumerate() {
                let d = n(&format!("d{i}.com"));
                let ip = Ipv4Addr::new(10, 0, i as u8, 1);
                let exchange = |h: usize| match h {
                    0..=2 => n(&format!("mx1.p{h}.net")),
                    3 => d.child("mail").expect("valid"),
                    _ => d.clone(),
                };
                let zone = match kind {
                    0 => Some(Zone::catch_all(&d, ip, 300)),
                    1 => Some(Zone::parked(&d, ip, 300)),
                    2 => Some(Zone::hosted_mail(
                        &d,
                        &exchange(hosts[i] % 3),
                        (apex_a[i] == 0).then_some(ip),
                        300,
                    )),
                    3 => Some(Zone::new(d.clone())),
                    4 => None,
                    _ => {
                        let mut z = Zone::new(d.clone());
                        for _ in 0..=(hosts[i] % 4) {
                            let owner = if prefs[next] == 2 { d.wildcard() } else { d.clone() };
                            z.add(ResourceRecord::new(
                                owner,
                                300,
                                RecordData::Mx {
                                    preference: prefs[next],
                                    exchange: exchange(hosts[next]),
                                },
                            ));
                            next += 1;
                        }
                        let mail = d.child("mail").expect("valid");
                        z.add(ResourceRecord::new(mail, 300, RecordData::A(ip)));
                        if apex_a[i] != 2 {
                            z.add(ResourceRecord::new(d.clone(), 300, RecordData::A(ip)));
                        }
                        Some(z)
                    }
                };
                registry.register(registration(&d), zone);
            }
            let r = Resolver::new(registry);
            for i in 0..kinds.len() {
                for q in [
                    format!("d{i}.com"),
                    format!("www.d{i}.com"),
                    format!("a.mail.d{i}.com"),
                    format!("mail.d{i}.com"),
                    format!("nope{i}.org"),
                ] {
                    let q = n(&q);
                    let target = r.resolve_mail(&q);
                    proptest::prop_assert!(
                        r.mail_route(&q) == route_of(target.clone()),
                        "{q}: {:?} vs {target:?}",
                        r.mail_route(&q)
                    );
                    proptest::prop_assert!(
                        r.mx_domain(&q) == mx_domain_of(target, &q),
                        "{q}: {:?}",
                        r.mx_domain(&q)
                    );
                }
            }
        }
    }

    #[test]
    fn wire_level_service() {
        let (_, r) = setup();
        let q = DnsMessage::query(77, n("gmial.com"), RecordType::Mx);
        let resp = r.serve(&q);
        assert_eq!(resp.id, 77);
        assert!(resp.is_response);
        assert_eq!(resp.rcode, Rcode::NoError);
        assert_eq!(resp.answers.len(), 1);
        let nx = r.serve(&DnsMessage::query(78, n("nope.com"), RecordType::A));
        assert_eq!(nx.rcode, Rcode::NxDomain);
        // full wire round trip
        let wire = crate::wire::encode(&resp);
        assert_eq!(crate::wire::decode(&wire).unwrap(), resp);
    }
}
