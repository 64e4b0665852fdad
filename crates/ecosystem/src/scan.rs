//! The SMTP-support census (Table 4).
//!
//! §5.1: for every ctypo, collect MX and A records; per RFC 5321 fall back
//! to the A record when no MX exists; then check (zmap-style) whether the
//! resulting address actually runs an SMTP listener and how STARTTLS
//! behaves. Table 4's six rows fall out of this decision tree.

use crate::population::{SmtpProfile, World};
use ets_dns::resolver::{MailRoute, Resolver};
use ets_dns::Fqdn;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Table 4's support categories.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum SmtpSupport {
    /// No MX or A record found.
    NoMxOrA,
    /// DNS yielded no information (lame delegation / no response).
    NoInfo,
    /// Records exist but nothing listens on SMTP ports.
    NoEmailSupport,
    /// SMTP works, STARTTLS not offered.
    EmailNoStarttls,
    /// STARTTLS offered but fails.
    StarttlsWithErrors,
    /// STARTTLS works.
    StarttlsOk,
}

impl SmtpSupport {
    /// All categories in Table 4 row order.
    pub const ALL: [SmtpSupport; 6] = [
        SmtpSupport::NoMxOrA,
        SmtpSupport::NoInfo,
        SmtpSupport::NoEmailSupport,
        SmtpSupport::EmailNoStarttls,
        SmtpSupport::StarttlsWithErrors,
        SmtpSupport::StarttlsOk,
    ];

    /// Stable snake-case key used for metric names (`scan.<key>`).
    pub fn key(self) -> &'static str {
        match self {
            SmtpSupport::NoMxOrA => "no_mx_or_a",
            SmtpSupport::NoInfo => "no_info",
            SmtpSupport::NoEmailSupport => "no_email_support",
            SmtpSupport::EmailNoStarttls => "email_no_starttls",
            SmtpSupport::StarttlsWithErrors => "starttls_with_errors",
            SmtpSupport::StarttlsOk => "starttls_ok",
        }
    }
}

impl fmt::Display for SmtpSupport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SmtpSupport::NoMxOrA => "No MX or A record found",
            SmtpSupport::NoInfo => "No info",
            SmtpSupport::NoEmailSupport => "No email supp.",
            SmtpSupport::EmailNoStarttls => "Supp. email, no STARTTLS",
            SmtpSupport::StarttlsWithErrors => "Supp. STARTTLS with errors",
            SmtpSupport::StarttlsOk => "Supp. STARTTLS w/o errors",
        };
        f.write_str(s)
    }
}

/// Census result over a population.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SupportCensus {
    /// Count per category, Table 4 row order.
    pub counts: [usize; 6],
}

impl SupportCensus {
    /// Total domains scanned.
    pub fn total(&self) -> usize {
        self.counts.iter().sum()
    }

    /// Percentage of the whole population per category.
    pub fn percent_total(&self, cat: SmtpSupport) -> f64 {
        let i = SmtpSupport::ALL.iter().position(|c| *c == cat).unwrap();
        100.0 * self.counts[i] as f64 / self.total().max(1) as f64
    }

    /// Percentage among domains that *did* yield DNS information
    /// (Table 4's "% analyzed" column excludes the "No info" row).
    pub fn percent_analyzed(&self, cat: SmtpSupport) -> f64 {
        let i = SmtpSupport::ALL.iter().position(|c| *c == cat).unwrap();
        let no_info = self.counts[1];
        let analyzed = self.total() - no_info;
        if cat == SmtpSupport::NoInfo {
            return f64::NAN;
        }
        100.0 * self.counts[i] as f64 / analyzed.max(1) as f64
    }

    /// Fraction of domains capable of receiving email (the paper's 43.3%).
    pub fn supports_email_share(&self) -> f64 {
        let s = self.counts[3] + self.counts[4] + self.counts[5];
        s as f64 / self.total().max(1) as f64
    }

    /// Table-4 formatted rows: (label, count, % total, % analyzed).
    pub fn rows(&self) -> Vec<(String, usize, f64, String)> {
        SmtpSupport::ALL
            .iter()
            .enumerate()
            .map(|(i, cat)| {
                let pa = self.percent_analyzed(*cat);
                let pa_s = if pa.is_nan() {
                    "-".to_owned()
                } else {
                    format!("{pa:.1}")
                };
                (
                    cat.to_string(),
                    self.counts[i],
                    self.percent_total(*cat),
                    pa_s,
                )
            })
            .collect()
    }
}

/// Classifies one ctypo into its Table-4 category.
///
/// Convenience wrapper that builds a throwaway resolver; bulk callers
/// should build one [`World::resolver`] and use
/// [`classify_with_resolver`].
pub fn classify_domain(
    world: &World,
    domain: &Fqdn,
    smtp: SmtpProfile,
    has_zone: bool,
) -> SmtpSupport {
    classify_with_resolver(&world.resolver(), domain, smtp, has_zone)
}

/// Classifies one ctypo into its Table-4 category using an existing
/// resolver.
pub fn classify_with_resolver(
    resolver: &Resolver,
    domain: &Fqdn,
    smtp: SmtpProfile,
    has_zone: bool,
) -> SmtpSupport {
    if !has_zone {
        return SmtpSupport::NoInfo;
    }
    match resolver.mail_route(domain) {
        MailRoute::NxDomain | MailRoute::Unreachable => SmtpSupport::NoMxOrA,
        MailRoute::Mx(_) | MailRoute::ImplicitA(_) => match smtp {
            SmtpProfile::NoListener | SmtpProfile::SilentTimeout | SmtpProfile::ConnectionReset => {
                SmtpSupport::NoEmailSupport
            }
            SmtpProfile::PlainOnly | SmtpProfile::BounceAll => SmtpSupport::EmailNoStarttls,
            SmtpProfile::StarttlsBroken => SmtpSupport::StarttlsWithErrors,
            SmtpProfile::StarttlsOk => SmtpSupport::StarttlsOk,
        },
    }
}

/// Runs the census over every ctypo in the world.
pub fn scan_world(world: &World) -> SupportCensus {
    let mut scan_span = ets_obs::span!("scan.census");
    scan_span.arg("domains", world.ctypos.len() as u64);
    let mut counts = [0usize; 6];
    let resolver = world.resolver();
    let names = world.ctypos.names();
    for (id, row) in names.ids().zip(world.ctypos.rows()) {
        let fq = Fqdn::from_interned(names, id);
        let draw = &row.meta.draw;
        let cat = classify_with_resolver(&resolver, &fq, draw.smtp, draw.has_zone);
        let i = SmtpSupport::ALL.iter().position(|x| *x == cat).unwrap();
        counts[i] += 1;
    }
    ets_obs::metrics::counter_add("scan.domains", world.ctypos.len() as u64);
    for (cat, &count) in SmtpSupport::ALL.iter().zip(counts.iter()) {
        if count > 0 {
            ets_obs::metrics::counter_add(&format!("scan.{}", cat.key()), count as u64);
        }
    }
    SupportCensus { counts }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::population::PopulationConfig;

    #[test]
    fn census_covers_every_domain() {
        let w = World::build(PopulationConfig::tiny(4));
        let census = scan_world(&w);
        assert_eq!(census.total(), w.ctypos.len());
    }

    #[test]
    fn all_categories_populated_in_larger_world() {
        let w = World::build(PopulationConfig {
            n_targets: 200,
            ..PopulationConfig::tiny(12)
        });
        let census = scan_world(&w);
        for (i, c) in census.counts.iter().enumerate() {
            assert!(*c > 0, "category {i} empty: {:?}", census.counts);
        }
    }

    #[test]
    fn table4_shape_holds() {
        // Paper: 43.3% support SMTP; 34.4% no info; 22.3% cannot receive.
        // Shape goals: a large email-capable share, a large no-info share,
        // and STARTTLS-ok as the single biggest capable category.
        let w = World::build(PopulationConfig {
            n_targets: 300,
            ..PopulationConfig::tiny(13)
        });
        let census = scan_world(&w);
        let email_share = census.supports_email_share();
        assert!(
            email_share > 0.15 && email_share < 0.7,
            "email share {email_share}"
        );
        let no_info = census.percent_total(SmtpSupport::NoInfo);
        assert!(no_info > 20.0 && no_info < 50.0, "no-info {no_info}%");
        // STARTTLS-ok beats plain-only among capable domains.
        assert!(
            census.percent_total(SmtpSupport::StarttlsOk)
                > census.percent_total(SmtpSupport::EmailNoStarttls) * 0.8
        );
    }

    #[test]
    fn rows_format() {
        let w = World::build(PopulationConfig::tiny(4));
        let census = scan_world(&w);
        let rows = census.rows();
        assert_eq!(rows.len(), 6);
        assert_eq!(rows[1].3, "-", "No-info row has no %-analyzed");
        let pct_sum: f64 = rows.iter().map(|r| r.2).sum();
        assert!((pct_sum - 100.0).abs() < 1e-6);
    }

    #[test]
    fn lame_delegation_is_no_info() {
        let w = World::build(PopulationConfig::tiny(4));
        let lame = w.ctypos.iter().find(|c| !c.has_zone).unwrap();
        let cat = classify_domain(
            &w,
            &Fqdn::from_domain(&lame.candidate.domain),
            lame.smtp,
            lame.has_zone,
        );
        assert_eq!(cat, SmtpSupport::NoInfo);
    }
}
