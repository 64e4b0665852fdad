//! Authoritative zones with wildcard matching.

use crate::name::Fqdn;
use crate::record::{RecordData, RecordType, ResourceRecord};
use serde::{Deserialize, Serialize};
use std::net::Ipv4Addr;

/// An authoritative zone: an origin plus its records.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Zone {
    /// The zone apex (e.g. `exampel.com`).
    pub origin: Fqdn,
    records: Vec<ResourceRecord>,
}

impl Zone {
    /// Creates an empty zone.
    pub fn new(origin: Fqdn) -> Self {
        Zone {
            origin,
            records: Vec::new(),
        }
    }

    /// Adds a record. Panics if the owner name is outside the zone.
    pub fn add(&mut self, record: ResourceRecord) {
        // A wildcard `*.x` passes the suffix test for zone `x` directly,
        // so no separate parent() step is needed.
        assert!(
            record.name.is_within(&self.origin),
            "record owner {} outside zone {}",
            record.name,
            self.origin
        );
        self.records.push(record);
    }

    /// All records.
    pub fn records(&self) -> &[ResourceRecord] {
        &self.records
    }

    /// The records of `rtype` for `qname`, in zone order, applying RFC
    /// 4592 wildcard semantics: exact matches win; only if *no* record of
    /// any type exists at the exact name do wildcard owners apply.
    pub fn lookup<'z, 'q>(
        &'z self,
        qname: &'q Fqdn,
        rtype: RecordType,
    ) -> impl Iterator<Item = &'z ResourceRecord> + 'q
    where
        'z: 'q,
    {
        let exact_any = self
            .records
            .iter()
            .any(|r| !r.name.is_wildcard() && &r.name == qname);
        self.records.iter().filter(move |r| {
            let owner = if exact_any {
                !r.name.is_wildcard() && &r.name == qname
            } else {
                r.name.is_wildcard() && r.name.matches(qname)
            };
            owner && r.record_type() == rtype
        })
    }

    /// Whether `qname` belongs to this zone.
    pub fn contains(&self, qname: &Fqdn) -> bool {
        qname.is_within(&self.origin)
    }

    /// Builds the study's standard typo-domain zone (Table 1): wildcard and
    /// apex MX pointing at the apex, wildcard and apex A pointing at the
    /// collection VPS.
    pub fn catch_all(origin: &Fqdn, vps_addr: Ipv4Addr, ttl: u32) -> Zone {
        // Built from name *values*: this runs once per ctypo registration,
        // so no record takes the string/re-parse round trip.
        let mut z = Zone::new(origin.clone());
        let wildcard = origin.wildcard();
        let mx = |exchange: Fqdn| RecordData::Mx {
            preference: 1,
            exchange,
        };
        z.add(ResourceRecord::new(
            wildcard.clone(),
            ttl,
            mx(origin.clone()),
        ));
        z.add(ResourceRecord::new(origin.clone(), ttl, mx(origin.clone())));
        z.add(ResourceRecord::new(wildcard, ttl, RecordData::A(vps_addr)));
        z.add(ResourceRecord::new(
            origin.clone(),
            ttl,
            RecordData::A(vps_addr),
        ));
        z
    }

    /// Builds a web-parking zone: A record only, no MX (the "registered but
    /// cannot receive email" population of Table 4).
    pub fn parked(origin: &Fqdn, addr: Ipv4Addr, ttl: u32) -> Zone {
        let mut z = Zone::new(origin.clone());
        z.add(ResourceRecord::new(
            origin.clone(),
            ttl,
            RecordData::A(addr),
        ));
        z
    }

    /// Builds a zone whose MX points at an external mail hosting provider
    /// (the concentrated mail servers of Figure 8 / Table 6).
    pub fn hosted_mail(
        origin: &Fqdn,
        mx_host: &Fqdn,
        web_addr: Option<Ipv4Addr>,
        ttl: u32,
    ) -> Zone {
        let mut z = Zone::new(origin.clone());
        z.add(ResourceRecord::new(
            origin.clone(),
            ttl,
            RecordData::Mx {
                preference: 10,
                exchange: mx_host.clone(),
            },
        ));
        if let Some(a) = web_addr {
            z.add(ResourceRecord::new(origin.clone(), ttl, RecordData::A(a)));
        }
        z
    }
}

/// Formats a zone as the Table-1 style settings listing.
pub fn table1_listing(zone: &Zone) -> String {
    let mut out = String::from("FQDN TTL TYPE priority record\n");
    for r in zone.records() {
        out.push_str(&r.presentation());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::RecordData;

    fn n(s: &str) -> Fqdn {
        s.parse().unwrap()
    }

    #[test]
    fn catch_all_matches_table1() {
        let z = Zone::catch_all(&n("exampel.com"), Ipv4Addr::new(1, 1, 1, 1), 300);
        assert_eq!(z.records().len(), 4);
        let listing = table1_listing(&z);
        assert!(listing.contains("*.exampel.com. 300 MX 1 exampel.com."));
        assert!(listing.contains("exampel.com. 300 A NA 1.1.1.1"));
    }

    #[test]
    fn apex_lookup_uses_exact_records() {
        let z = Zone::catch_all(&n("exampel.com"), Ipv4Addr::new(1, 1, 1, 1), 300);
        let mx: Vec<_> = z.lookup(&n("exampel.com"), RecordType::Mx).collect();
        assert_eq!(mx.len(), 1);
        assert!(!mx[0].name.is_wildcard());
    }

    #[test]
    fn subdomain_lookup_uses_wildcard() {
        let z = Zone::catch_all(&n("exampel.com"), Ipv4Addr::new(1, 1, 1, 1), 300);
        // Any subdomain, any depth: the study collects typos sent to any
        // subdomain of its registered domains.
        for sub in [
            "smtp.exampel.com",
            "mail.smtp.exampel.com",
            "xyz.exampel.com",
        ] {
            let mx: Vec<_> = z.lookup(&n(sub), RecordType::Mx).collect();
            assert_eq!(mx.len(), 1, "{sub}");
            assert!(mx[0].name.is_wildcard());
            assert_eq!(z.lookup(&n(sub), RecordType::A).count(), 1, "{sub}");
        }
    }

    #[test]
    fn exact_node_shadows_wildcard() {
        // RFC 4592: a record of any type at the exact name blocks wildcard
        // synthesis for all types.
        let mut z = Zone::catch_all(&n("exampel.com"), Ipv4Addr::new(1, 1, 1, 1), 300);
        z.add(ResourceRecord::a(
            "www.exampel.com",
            300,
            Ipv4Addr::new(2, 2, 2, 2),
        ));
        let www = n("www.exampel.com");
        assert!(
            z.lookup(&www, RecordType::Mx).next().is_none(),
            "exact A node must shadow the wildcard MX"
        );
        let a: Vec<_> = z.lookup(&www, RecordType::A).collect();
        assert_eq!(a.len(), 1);
        assert_eq!(a[0].data, RecordData::A(Ipv4Addr::new(2, 2, 2, 2)));
    }

    #[test]
    fn parked_zone_has_no_mx() {
        let z = Zone::parked(&n("parked.com"), Ipv4Addr::new(9, 9, 9, 9), 300);
        assert_eq!(z.lookup(&n("parked.com"), RecordType::Mx).count(), 0);
        assert_eq!(z.lookup(&n("parked.com"), RecordType::A).count(), 1);
    }

    #[test]
    fn hosted_mail_zone() {
        let z = Zone::hosted_mail(&n("typo.com"), &n("mx1.b-io.co"), None, 300);
        let mx: Vec<_> = z.lookup(&n("typo.com"), RecordType::Mx).collect();
        assert_eq!(mx.len(), 1);
        match &mx[0].data {
            RecordData::Mx { exchange, .. } => assert_eq!(exchange, &n("mx1.b-io.co")),
            _ => panic!("not MX"),
        }
        assert_eq!(z.lookup(&n("typo.com"), RecordType::A).count(), 0);
    }

    #[test]
    #[should_panic(expected = "outside zone")]
    fn foreign_record_rejected() {
        let mut z = Zone::new(n("a.com"));
        z.add(ResourceRecord::a("b.com", 300, Ipv4Addr::new(1, 1, 1, 1)));
    }

    #[test]
    fn contains_checks_suffix() {
        let z = Zone::new(n("exampel.com"));
        assert!(z.contains(&n("exampel.com")));
        assert!(z.contains(&n("deep.sub.exampel.com")));
        assert!(!z.contains(&n("example.com")));
    }
}
