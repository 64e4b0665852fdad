//! The collection infrastructure of §4.2 (Figure 1).
//!
//! 76 typo domains, each assigned its own virtual private server (a
//! one-to-one domain → IP mapping, because SMTP-typo senders never name
//! the domain — only the IP identifies which typo was made), wildcard
//! MX/A zones per Table 1, and a central collection server running the
//! catch-all policy. Collection windows differ per domain (outages), so
//! analysis normalizes by actual collection days.

use crate::time::{SimDate, STUDY_DAYS};
use ets_core::taxonomy::{CollectionPurpose, StudyDomain};
use ets_core::typogen::{self, TypoCandidate};
use ets_core::DomainName;
use ets_dns::registry::{Registration, Registry};
use ets_dns::whois::WhoisRecord;
use ets_dns::zone::Zone;
use ets_dns::Fqdn;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::sync::Arc;

/// The 27 provider-typo domains of Figure 5, with their targets.
pub const PROVIDER_TYPOS: [(&str, &str); 27] = [
    ("ohtlook.com", "outlook.com"),
    ("outlo0k.com", "outlook.com"),
    ("hovmail.com", "hotmail.com"),
    ("gmaiql.com", "gmail.com"),
    ("outmook.com", "outlook.com"),
    ("ho6mail.com", "hotmail.com"),
    ("ouulook.com", "outlook.com"),
    ("oetlook.com", "outlook.com"),
    ("ouvlook.com", "outlook.com"),
    ("o7tlook.com", "outlook.com"),
    ("zohomil.com", "zohomail.com"),
    ("verizo0n.com", "verizon.com"),
    ("comcasu.com", "comcast.com"),
    ("comcas5.com", "comcast.com"),
    ("comaast.com", "comcast.com"),
    ("coicast.com", "comcast.com"),
    ("ou6look.com", "outlook.com"),
    ("verhzon.com", "verizon.com"),
    ("comcawst.com", "comcast.com"),
    ("comca3t.com", "comcast.com"),
    ("evrizon.com", "verizon.com"),
    ("gmai-l.com", "gmail.com"),
    ("ve5izon.com", "verizon.com"),
    ("vebizon.com", "verizon.com"),
    ("vepizon.com", "verizon.com"),
    ("vermzon.com", "verizon.com"),
    ("zohomial.com", "zohomail.com"),
];

/// Disposable-address and bulk-sender typos (the other 4 receiver-typo
/// domains; 27 + 4 = the 31 of §4.4.2).
pub const SPECIAL_TYPOS: [(&str, &str, CollectionPurpose); 4] = [
    ("yopail.com", "yopmail.com", CollectionPurpose::Disposable),
    (
        "10minutemil.com",
        "10minutemail.com",
        CollectionPurpose::Disposable,
    ),
    (
        "mailchomp.com",
        "mailchimp.com",
        CollectionPurpose::BulkSender,
    ),
    (
        "sendgrit.com",
        "sendgrid.com",
        CollectionPurpose::BulkSender,
    ),
];

/// SMTP-typo domains: typos of ISP SMTP host names (AT&T, Comcast, Cox,
/// TWC, Verizon), big providers' SMTP subdomains, and the financial
/// domains (PayPal, Chase). 45 domains; 31 + 45 = 76 total.
pub const SMTP_TYPOS: [(&str, &str); 45] = [
    ("smtpverizon.net", "smtp.verizon.net"),
    ("smtpverison.net", "smtp.verizon.net"),
    ("smttpverizon.net", "smtp.verizon.net"),
    ("smtpverizzon.net", "smtp.verizon.net"),
    ("smtpveriizon.net", "smtp.verizon.net"),
    ("mx4hotmail.com", "mx4.hotmail.com"),
    ("mx3hotmail.com", "mx3.hotmail.com"),
    ("mx1hotmail.com", "mx1.hotmail.com"),
    ("smtphotmial.com", "smtp.hotmail.com"),
    ("smtpgmial.com", "smtp.gmail.com"),
    ("smtpgmaill.com", "smtp.gmail.com"),
    ("smtpgnail.com", "smtp.gmail.com"),
    ("smtpatt.net", "smtp.att.net"),
    ("smtpattt.net", "smtp.att.net"),
    ("smtpat.net", "smtp.att.net"),
    ("smtpcomcast.net", "smtp.comcast.net"),
    ("smtpcomcas.net", "smtp.comcast.net"),
    ("smtpconcast.net", "smtp.comcast.net"),
    ("smtpcomcats.net", "smtp.comcast.net"),
    ("smtpcox.net", "smtp.cox.net"),
    ("smtpcoxx.net", "smtp.cox.net"),
    ("smtpc0x.net", "smtp.cox.net"),
    ("smtptwc.com", "smtp.twc.com"),
    ("smtptw.com", "smtp.twc.com"),
    ("smtp2wc.com", "smtp.twc.com"),
    ("mailverizon.net", "mail.verizon.net"),
    ("mailveriz0n.net", "mail.verizon.net"),
    ("mailcomcast.net", "mail.comcast.net"),
    ("mailcocast.net", "mail.comcast.net"),
    ("mailatt.net", "mail.att.net"),
    ("mailat.net", "mail.att.net"),
    ("mailcox.net", "mail.cox.net"),
    ("mailc0x.net", "mail.cox.net"),
    ("mailtwc.com", "mail.twc.com"),
    ("mai1twc.com", "mail.twc.com"),
    ("outgoingverizon.net", "outgoing.verizon.net"),
    ("outgoingverizin.net", "outgoing.verizon.net"),
    ("smtppaypal.com", "smtp.paypal.com"),
    ("smtppaypa1.com", "smtp.paypal.com"),
    ("smtppayal.com", "smtp.paypal.com"),
    ("smtpchase.com", "smtp.chase.com"),
    ("smtpchace.com", "smtp.chase.com"),
    ("smtpchas.com", "smtp.chase.com"),
    ("smtpchasse.com", "smtp.chase.com"),
    ("smtpchhase.com", "smtp.chase.com"),
];

/// One collected email with its envelope metadata.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CollectedEmail {
    /// Which study domain received it.
    pub domain: DomainName,
    /// The VPS IP it arrived on (distinguishes SMTP typos).
    pub vps_ip: Ipv4Addr,
    /// Arrival day.
    pub date: SimDate,
    /// HELO name the client announced.
    pub client_helo: String,
    /// Envelope sender.
    pub mail_from: Option<ets_mail::EmailAddress>,
    /// Envelope recipient.
    pub rcpt_to: ets_mail::EmailAddress,
    /// The parsed message.
    pub message: ets_mail::Message,
    /// Whether this arrived as an SMTP relay submission (the sender was
    /// *using* us as their outgoing server) rather than inbound delivery.
    pub smtp_submission: bool,
}

impl CollectedEmail {
    /// Approximate heap bytes of this record's payload (envelope strings
    /// plus the message): the payload a stream holds per email in
    /// flight, which perfbench's `study` workload reports as
    /// `traffic.bytes`.
    pub fn approx_heap_bytes(&self) -> u64 {
        let envelope = self.client_helo.len()
            + self.domain.as_str().len()
            + self
                .mail_from
                .as_ref()
                .map_or(0, |a| a.local().len() + a.domain().len())
            + self.rcpt_to.local().len()
            + self.rcpt_to.domain().len();
        envelope as u64 + self.message.approx_heap_bytes()
    }
}

/// The assembled infrastructure.
#[derive(Debug)]
pub struct CollectionInfra {
    /// The 76 study domains.
    pub domains: Vec<StudyDomain>,
    /// domain → dedicated VPS address.
    pub vps_map: HashMap<DomainName, Ipv4Addr>,
    /// domain → days actually collected (outages subtracted).
    pub collection_days: HashMap<DomainName, u32>,
    /// Global outage windows (start day, length) — Figures 3/4 gaps.
    pub outages: Vec<(u32, u32)>,
    /// The registry holding the study registrations.
    pub registry: Registry,
    /// domain → index into `domains`, so the per-email
    /// [`CollectionInfra::study_domain`] lookup is a hash probe instead of
    /// a scan over all 76 records.
    domain_index: HashMap<DomainName, usize>,
}

impl CollectionInfra {
    /// Builds the full 76-domain infrastructure, registering every domain
    /// with its Table-1 zone.
    pub fn build() -> CollectionInfra {
        let mut domains = Vec::new();
        for (typo, target) in PROVIDER_TYPOS {
            domains.push(study_domain(typo, target, CollectionPurpose::Provider));
        }
        for (typo, target, purpose) in SPECIAL_TYPOS {
            domains.push(study_domain(typo, target, purpose));
        }
        for (typo, target) in SMTP_TYPOS {
            let purpose = if target.contains("paypal") || target.contains("chase") {
                CollectionPurpose::Financial
            } else {
                CollectionPurpose::SmtpServer
            };
            domains.push(study_domain(typo, target, purpose));
        }
        assert_eq!(domains.len(), 76, "the study registered 76 domains");

        let registry = Registry::new();
        // The research group registered every study domain under one
        // identity.
        let whois = Arc::new(WhoisRecord::full(
            "Research Group",
            "University",
            "research@university.example",
            "+1.4120000000",
            "",
            "5000 Forbes Ave",
        ));
        let mut vps_map = HashMap::new();
        let mut collection_days = HashMap::new();
        // The two major gaps visible in Figures 3/4 (infrastructure
        // overwhelmed by spam): late July and most of October.
        let outages: Vec<(u32, u32)> = vec![(52, 9), (125, 24)];
        let outage_days: u32 = outages.iter().map(|(_, l)| l).sum();
        for (i, d) in domains.iter().enumerate() {
            let ip = Ipv4Addr::new(198, 51, (i / 250) as u8, (i % 250 + 1) as u8);
            let fq = Fqdn::from_domain(d.domain());
            registry.register(
                Registration {
                    domain: fq.clone(),
                    registrar: "study-registrar",
                    whois: Arc::clone(&whois),
                    privacy_proxy: None,
                    nameservers: vec!["ns1.university.example".parse().expect("valid")],
                    created_day: 0,
                },
                Some(Zone::catch_all(&fq, ip, 300)),
            );
            vps_map.insert(d.domain().clone(), ip);
            // Minor per-domain jitter in collection coverage.
            let jitter = (i as u32 * 7) % 5;
            collection_days.insert(d.domain().clone(), STUDY_DAYS - outage_days - jitter);
        }
        let domain_index = domains
            .iter()
            .enumerate()
            .map(|(i, d)| (d.domain().clone(), i))
            .collect();
        CollectionInfra {
            domains,
            vps_map,
            collection_days,
            outages,
            registry,
            domain_index,
        }
    }

    /// Whether `day` falls inside an outage (no collection).
    pub fn in_outage(&self, day: SimDate) -> bool {
        self.outages
            .iter()
            .any(|&(start, len)| day.day() >= start && day.day() < start + len)
    }

    /// The study domain record for a domain name.
    pub fn study_domain(&self, domain: &DomainName) -> Option<&StudyDomain> {
        self.domain_index.get(domain).map(|&i| &self.domains[i])
    }

    /// Receiver-typo domains (the 31).
    pub fn receiver_domains(&self) -> impl Iterator<Item = &StudyDomain> {
        self.domains.iter().filter(|d| {
            matches!(
                d.purpose,
                CollectionPurpose::Provider
                    | CollectionPurpose::Disposable
                    | CollectionPurpose::BulkSender
            )
        })
    }

    /// SMTP-typo domains (the 45).
    pub fn smtp_domains(&self) -> impl Iterator<Item = &StudyDomain> {
        self.domains.iter().filter(|d| {
            matches!(
                d.purpose,
                CollectionPurpose::SmtpServer | CollectionPurpose::Financial
            )
        })
    }

    /// Identifies the study domain owning a VPS address.
    ///
    /// `min` instead of `find`: the map is injective by construction, but
    /// `find` over a hash map would tie-break by hash order if it ever
    /// stopped being so.
    pub fn domain_for_ip(&self, ip: Ipv4Addr) -> Option<&DomainName> {
        self.vps_map
            .iter()
            .filter(|(_, &v)| v == ip)
            .map(|(d, _)| d)
            .min()
    }
}

/// Builds a [`StudyDomain`] from a typo/target pair, computing the real
/// mistake metadata via the typo generator when the pair is DL-1, and
/// synthesizing doppelganger metadata for missing-dot names.
fn study_domain(typo: &str, target: &str, purpose: CollectionPurpose) -> StudyDomain {
    let typo_d: DomainName = typo.parse().expect("static study domain");
    let target_d: DomainName = target.parse().expect("static target");
    // Classify the typo against the registrable target directly (gives the
    // exact kind/position/visual metadata that searching the generated
    // DL-1 candidate set would, without generating it).
    let candidate = typogen::classify_dl1(&target_d.registrable(), &typo_d)
        .or_else(|| {
            // Doppelganger (smtp.verizon.net → smtpverizon.net) or deeper
            // mistake: synthesize metadata from the flattened subdomain.
            let dg = typogen::generate_doppelgangers(std::slice::from_ref(&target_d));
            dg.into_iter().find(|c| c.domain == typo_d)
        })
        .unwrap_or_else(|| TypoCandidate {
            domain: typo_d.clone(),
            target: target_d.clone(),
            kind: ets_core::MistakeKind::Substitution,
            position: 0,
            fat_finger: false,
            visual: ets_core::distance::visual(target_d.sld(), typo_d.sld()),
        });
    StudyDomain { candidate, purpose }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exactly_76_domains() {
        let infra = CollectionInfra::build();
        assert_eq!(infra.domains.len(), 76);
        assert_eq!(infra.receiver_domains().count(), 31);
        assert_eq!(infra.smtp_domains().count(), 45);
        assert_eq!(infra.registry.len(), 76);
    }

    #[test]
    fn one_to_one_vps_mapping() {
        let infra = CollectionInfra::build();
        let mut ips: Vec<Ipv4Addr> = infra.vps_map.values().copied().collect();
        ips.sort();
        ips.dedup();
        assert_eq!(ips.len(), 76, "VPS addresses must be unique");
        // reverse lookup works
        let d = infra.domains[0].domain().clone();
        let ip = infra.vps_map[&d];
        assert_eq!(infra.domain_for_ip(ip), Some(&d));
    }

    #[test]
    fn zones_are_catch_all() {
        let infra = CollectionInfra::build();
        let resolver = ets_dns::Resolver::new(infra.registry.clone());
        let fq: Fqdn = "random.subdomain.gmaiql.com".parse().unwrap();
        let addr = resolver
            .mail_address(&fq)
            .expect("wildcard MX must resolve");
        assert_eq!(addr, infra.vps_map[&"gmaiql.com".parse().unwrap()]);
    }

    #[test]
    fn provider_typos_have_real_metadata() {
        let infra = CollectionInfra::build();
        let outlo0k = infra.study_domain(&"outlo0k.com".parse().unwrap()).unwrap();
        assert_eq!(outlo0k.candidate.kind, ets_core::MistakeKind::Substitution);
        assert!(outlo0k.candidate.fat_finger);
        assert!(outlo0k.candidate.visual < 0.2);
        let gmial = infra.study_domain(&"gmai-l.com".parse().unwrap()).unwrap();
        assert_eq!(gmial.candidate.target.as_str(), "gmail.com");
    }

    #[test]
    fn smtp_typos_are_doppelgangers_or_deeper() {
        let infra = CollectionInfra::build();
        let d = infra
            .study_domain(&"smtpverizon.net".parse().unwrap())
            .unwrap();
        assert_eq!(d.candidate.target.as_str(), "smtp.verizon.net");
        assert_eq!(d.purpose, CollectionPurpose::SmtpServer);
        let fin = infra
            .study_domain(&"smtpchase.com".parse().unwrap())
            .unwrap();
        assert_eq!(fin.purpose, CollectionPurpose::Financial);
    }

    #[test]
    fn outages_carve_the_study_window() {
        let infra = CollectionInfra::build();
        assert!(infra.in_outage(SimDate(53)));
        assert!(infra.in_outage(SimDate(130)));
        assert!(!infra.in_outage(SimDate(0)));
        assert!(!infra.in_outage(SimDate(200)));
        for d in &infra.domains {
            let days = infra.collection_days[d.domain()];
            assert!(days > 180 && days < STUDY_DAYS, "{}: {days}", d.domain());
        }
    }

    #[test]
    fn expected_kinds_are_purpose_driven() {
        let infra = CollectionInfra::build();
        let smtp = infra
            .study_domain(&"mx4hotmail.com".parse().unwrap())
            .unwrap();
        assert_eq!(
            smtp.expected_kinds(),
            &[ets_core::taxonomy::EmailTypoKind::Smtp]
        );
    }
}
