//! Name-server suspicion analysis (§5.2).
//!
//! "A number of name servers are used by a significantly higher ratio of
//! typosquatting domains compared to benign domains. In general, the
//! average ratio ... is about 4% ... The candidate typosquatting ratio of
//! all .com domains is as high as 89% for one such name server."
//!
//! Input: the zone-file view (domain → NS rows) plus the set of domains
//! identified as candidate typos. Output: per-NS ratios and the suspicious
//! tail.

use ets_dns::Fqdn;
use std::collections::{HashMap, HashSet};

/// Statistics for one name server.
#[derive(Debug, Clone, PartialEq)]
pub struct NsStats {
    /// The name-server host.
    pub nameserver: Fqdn,
    /// Domains it serves that are candidate typos.
    pub ctypo_count: usize,
    /// Total domains it serves.
    pub total_count: usize,
}

impl NsStats {
    /// Fraction of served domains that are candidate typos.
    pub fn typo_ratio(&self) -> f64 {
        if self.total_count == 0 {
            0.0
        } else {
            self.ctypo_count as f64 / self.total_count as f64
        }
    }
}

/// The full analysis result.
#[derive(Debug, Clone)]
pub struct NsAnalysis {
    /// Per-NS stats, sorted by typo ratio descending.
    pub stats: Vec<NsStats>,
    /// The overall (domain-weighted) average typo ratio.
    pub average_ratio: f64,
}

impl NsAnalysis {
    /// Runs the analysis over zone-file rows, marking domains present in
    /// `ctypos` as candidate typos. Name servers serving fewer than
    /// `min_domains` domains are ignored (tiny denominators make ratios
    /// meaningless).
    ///
    /// Duplicate delegation rows count once: the rows are deduplicated
    /// by sorting references to them, which for a zone file (already
    /// sorted) is one linear pass.
    pub fn run(
        zone_file: &[(Fqdn, Fqdn)],
        ctypos: &HashSet<Fqdn>,
        min_domains: usize,
    ) -> NsAnalysis {
        let mut rows: Vec<&(Fqdn, Fqdn)> = zone_file.iter().collect();
        rows.sort();
        rows.dedup();
        let mut per_ns: HashMap<&Fqdn, (usize, usize)> = HashMap::new();
        for (domain, ns) in rows {
            let entry = per_ns.entry(ns).or_insert((0, 0));
            entry.1 += 1;
            if ctypos.contains(domain) {
                entry.0 += 1;
            }
        }
        let mut stats: Vec<NsStats> = per_ns
            .into_iter()
            .filter(|(_, (_, total))| *total >= min_domains)
            .map(|(nameserver, (ctypo_count, total_count))| NsStats {
                nameserver: nameserver.clone(),
                ctypo_count,
                total_count,
            })
            .collect();
        stats.sort_by(|a, b| {
            b.typo_ratio()
                .total_cmp(&a.typo_ratio())
                .then_with(|| a.nameserver.cmp(&b.nameserver))
        });
        let (c, t) = stats.iter().fold((0usize, 0usize), |(c, t), s| {
            (c + s.ctypo_count, t + s.total_count)
        });
        NsAnalysis {
            stats,
            average_ratio: if t == 0 { 0.0 } else { c as f64 / t as f64 },
        }
    }

    /// Like [`NsAnalysis::run`], but with a per-NS *background* customer
    /// base added to the denominators: the wild study measured each name
    /// server against the full `.com` zone file, most of which is benign
    /// mass a small simulation does not materialize domain-by-domain.
    pub fn run_with_background(
        zone_file: &[(Fqdn, Fqdn)],
        ctypos: &HashSet<Fqdn>,
        background: &[(Fqdn, usize)],
        min_domains: usize,
    ) -> NsAnalysis {
        let mut a = NsAnalysis::run(zone_file, ctypos, 0);
        for (ns, extra) in background {
            match a.stats.iter_mut().find(|s| &s.nameserver == ns) {
                Some(s) => s.total_count += extra,
                None => a.stats.push(NsStats {
                    nameserver: ns.clone(),
                    ctypo_count: 0,
                    total_count: *extra,
                }),
            }
        }
        a.stats.retain(|s| s.total_count >= min_domains);
        a.stats.sort_by(|x, y| {
            y.typo_ratio()
                .total_cmp(&x.typo_ratio())
                .then_with(|| x.nameserver.cmp(&y.nameserver))
        });
        let (c, t) = a.stats.iter().fold((0usize, 0usize), |(c, t), s| {
            (c + s.ctypo_count, t + s.total_count)
        });
        a.average_ratio = if t == 0 { 0.0 } else { c as f64 / t as f64 };
        a
    }

    /// Name servers whose typo ratio exceeds `factor` times the average
    /// (§5.2 calls out a 5–10× band).
    pub fn suspicious(&self, factor: f64) -> Vec<&NsStats> {
        let threshold = self.average_ratio * factor;
        self.stats
            .iter()
            .filter(|s| s.typo_ratio() > threshold)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::population::{PopulationConfig, World};

    fn n(s: &str) -> Fqdn {
        s.parse().unwrap()
    }

    #[test]
    fn hand_built_ratios() {
        let rows = vec![
            (n("typo1.com"), n("ns1.dirty.example")),
            (n("typo2.com"), n("ns1.dirty.example")),
            (n("site1.com"), n("ns1.dirty.example")),
            (n("site2.com"), n("ns1.clean.example")),
            (n("site3.com"), n("ns1.clean.example")),
            (n("typo3.com"), n("ns1.clean.example")),
        ];
        let ctypos: HashSet<Fqdn> = [n("typo1.com"), n("typo2.com"), n("typo3.com")]
            .into_iter()
            .collect();
        let a = NsAnalysis::run(&rows, &ctypos, 1);
        assert_eq!(a.stats[0].nameserver, n("ns1.dirty.example"));
        assert!((a.stats[0].typo_ratio() - 2.0 / 3.0).abs() < 1e-12);
        assert!((a.average_ratio - 0.5).abs() < 1e-12);
    }

    #[test]
    fn duplicates_counted_once() {
        let rows = vec![
            (n("typo1.com"), n("ns1.x.example")),
            (n("typo1.com"), n("ns1.x.example")),
        ];
        let ctypos: HashSet<Fqdn> = [n("typo1.com")].into_iter().collect();
        let a = NsAnalysis::run(&rows, &ctypos, 1);
        assert_eq!(a.stats[0].total_count, 1);
    }

    #[test]
    fn min_domains_filters_tiny_ns() {
        let rows = vec![
            (n("typo1.com"), n("ns1.tiny.example")),
            (n("a.com"), n("ns1.big.example")),
            (n("b.com"), n("ns1.big.example")),
            (n("c.com"), n("ns1.big.example")),
        ];
        let ctypos: HashSet<Fqdn> = [n("typo1.com")].into_iter().collect();
        let a = NsAnalysis::run(&rows, &ctypos, 2);
        assert_eq!(a.stats.len(), 1);
        assert_eq!(a.stats[0].nameserver, n("ns1.big.example"));
    }

    #[test]
    fn synthetic_world_has_cesspools() {
        let w = World::build(PopulationConfig::tiny(9));
        let zone_file = w.registry.zone_file();
        let ctypos: HashSet<Fqdn> = w
            .ctypos
            .iter()
            .map(|c| Fqdn::from_domain(&c.candidate.domain))
            .collect();
        let a = NsAnalysis::run(&zone_file, &ctypos, 5);
        // The cesspool NS providers should sit at the top with ratios far
        // above average.
        let sus = a.suspicious(1.2);
        assert!(!sus.is_empty(), "no suspicious NS found");
        let top = &a.stats[0];
        assert!(
            top.nameserver.to_string().contains("cheap-dns"),
            "top suspicious NS is {} (ratio {:.2}, avg {:.2})",
            top.nameserver,
            top.typo_ratio(),
            a.average_ratio
        );
        assert!(top.typo_ratio() > a.average_ratio);
    }

    #[test]
    fn background_dilutes_clean_providers() {
        let rows = vec![
            (n("typo1.com"), n("ns1.dirty.example")),
            (n("typo2.com"), n("ns1.dirty.example")),
            (n("typo3.com"), n("ns1.clean.example")),
        ];
        let ctypos: HashSet<Fqdn> = [n("typo1.com"), n("typo2.com"), n("typo3.com")]
            .into_iter()
            .collect();
        let background = vec![
            (n("ns1.clean.example"), 997usize),
            (n("ns1.dirty.example"), 2usize),
        ];
        let a = NsAnalysis::run_with_background(&rows, &ctypos, &background, 1);
        let dirty = a
            .stats
            .iter()
            .find(|s| s.nameserver == n("ns1.dirty.example"))
            .unwrap();
        let clean = a
            .stats
            .iter()
            .find(|s| s.nameserver == n("ns1.clean.example"))
            .unwrap();
        assert!((dirty.typo_ratio() - 0.5).abs() < 1e-12);
        assert!(clean.typo_ratio() < 0.01);
        assert!(a.average_ratio < 0.05, "avg {}", a.average_ratio);
        assert_eq!(a.stats[0].nameserver, n("ns1.dirty.example"));
    }

    /// The analysis as it was before deduplication sorted: a `HashSet`
    /// of cloned `(domain, nameserver)` rows, which any row order gets
    /// right.
    fn run_with_seen_set(
        zone_file: &[(Fqdn, Fqdn)],
        ctypos: &HashSet<Fqdn>,
        min_domains: usize,
    ) -> NsAnalysis {
        let mut per_ns: HashMap<Fqdn, (usize, usize)> = HashMap::new();
        let mut seen: HashSet<(Fqdn, Fqdn)> = HashSet::new();
        for (domain, ns) in zone_file {
            if !seen.insert((domain.clone(), ns.clone())) {
                continue;
            }
            let entry = per_ns.entry(ns.clone()).or_insert((0, 0));
            entry.1 += 1;
            if ctypos.contains(domain) {
                entry.0 += 1;
            }
        }
        let mut stats: Vec<NsStats> = per_ns
            .into_iter()
            .filter(|(_, (_, total))| *total >= min_domains)
            .map(|(nameserver, (ctypo_count, total_count))| NsStats {
                nameserver,
                ctypo_count,
                total_count,
            })
            .collect();
        stats.sort_by(|a, b| {
            b.typo_ratio()
                .total_cmp(&a.typo_ratio())
                .then_with(|| a.nameserver.cmp(&b.nameserver))
        });
        let (c, t) = stats.iter().fold((0usize, 0usize), |(c, t), s| {
            (c + s.ctypo_count, t + s.total_count)
        });
        NsAnalysis {
            stats,
            average_ratio: if t == 0 { 0.0 } else { c as f64 / t as f64 },
        }
    }

    proptest::proptest! {
        /// Sorting out duplicates counts what the seen-set did, on rows
        /// in any order: a domain repeated under one name server, a
        /// domain delegated to several, and ctypos among them.
        #[test]
        fn sorted_dedup_matches_seen_set(
            domains in proptest::collection::vec(0usize..12, 0..80),
            servers in proptest::collection::vec(0usize..4, 80..81),
            typo_mask: u16,
            min_domains in 0usize..4,
        ) {
            let rows: Vec<(Fqdn, Fqdn)> = domains
                .iter()
                .zip(&servers)
                .map(|(&d, &s)| (n(&format!("site{d}.com")), n(&format!("ns{s}.host-{s}.example"))))
                .collect();
            let ctypos: HashSet<Fqdn> = (0..12)
                .filter(|d| typo_mask & (1 << d) != 0)
                .map(|d| n(&format!("site{d}.com")))
                .collect();
            let got = NsAnalysis::run(&rows, &ctypos, min_domains);
            let want = run_with_seen_set(&rows, &ctypos, min_domains);
            proptest::prop_assert_eq!(&got.stats, &want.stats);
            proptest::prop_assert_eq!(got.average_ratio.to_bits(), want.average_ratio.to_bits());
        }
    }

    #[test]
    fn empty_inputs() {
        let a = NsAnalysis::run(&[], &HashSet::new(), 1);
        assert!(a.stats.is_empty());
        assert_eq!(a.average_ratio, 0.0);
        assert!(a.suspicious(5.0).is_empty());
    }
}
