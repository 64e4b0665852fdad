//! Popularity lists standing in for Alexa rankings.
//!
//! The study uses Alexa in three ways: to pick target domains (top of the
//! email category), to estimate per-domain email volume (monthly unique
//! visitors, hypothesis H3/§6.1), and to estimate the *relative* traffic of
//! already-registered typo domains (Figure 9). This module models a ranked
//! list whose traffic follows a Zipf law — the canonical fit for web
//! popularity — with a deterministic rank → traffic mapping so every
//! experiment is reproducible.

use crate::domain::DomainName;
use std::collections::HashMap;

/// One entry of a popularity list.
#[derive(Debug, Clone, PartialEq)]
pub struct RankedDomain {
    /// The domain.
    pub domain: DomainName,
    /// 1-based rank (1 = most popular).
    pub rank: usize,
    /// Estimated monthly unique visitors.
    pub monthly_visitors: f64,
}

/// A ranked popularity list with Zipf-distributed traffic.
#[derive(Debug, Clone)]
pub struct PopularityList {
    entries: Vec<RankedDomain>,
    index: HashMap<DomainName, usize>,
    /// Zipf exponent used to derive traffic from rank.
    pub exponent: f64,
    /// Traffic of rank 1.
    pub top_traffic: f64,
}

impl PopularityList {
    /// Builds a list from domains in rank order, assigning Zipf traffic
    /// `top_traffic / rank^exponent`.
    ///
    /// The conventional exponent for web traffic is close to 1; the default
    /// constructors use 0.9 so the tail is slightly fatter, matching the
    /// long tail of typosquatting targets the paper observes.
    pub fn from_ranked(domains: Vec<DomainName>, top_traffic: f64, exponent: f64) -> Self {
        let entries: Vec<RankedDomain> = domains
            .into_iter()
            .enumerate()
            .map(|(i, domain)| RankedDomain {
                domain,
                rank: i + 1,
                monthly_visitors: top_traffic / ((i + 1) as f64).powf(exponent),
            })
            .collect();
        let index = entries
            .iter()
            .enumerate()
            .map(|(i, e)| (e.domain.clone(), i))
            .collect();
        PopularityList {
            entries,
            index,
            exponent,
            top_traffic,
        }
    }

    /// The number of listed domains.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Entries in rank order.
    pub fn iter(&self) -> impl Iterator<Item = &RankedDomain> {
        self.entries.iter()
    }

    /// The top `n` entries.
    pub fn top(&self, n: usize) -> &[RankedDomain] {
        &self.entries[..n.min(self.entries.len())]
    }

    /// Looks a domain up by name.
    pub fn get(&self, domain: &DomainName) -> Option<&RankedDomain> {
        self.index.get(domain).map(|&i| &self.entries[i])
    }

    /// Rank of a domain, if listed.
    pub fn rank_of(&self, domain: &DomainName) -> Option<usize> {
        self.get(domain).map(|e| e.rank)
    }

    /// Monthly visitors of a domain, if listed.
    pub fn traffic_of(&self, domain: &DomainName) -> Option<f64> {
        self.get(domain).map(|e| e.monthly_visitors)
    }

    /// Estimated *yearly email volume* of a listed domain, under hypothesis
    /// H3 (email volume proportional to active users): each monthly unique
    /// visitor of a webmail domain is assumed to receive `emails_per_visitor`
    /// emails per month.
    pub fn yearly_email_volume(&self, domain: &DomainName, emails_per_visitor: f64) -> Option<f64> {
        self.traffic_of(domain)
            .map(|t| t * emails_per_visitor * 12.0)
    }
}

/// The study's top email providers and ISPs (§4.2.1), in a plausible
/// email-category popularity order. These anchor every simulated list.
pub fn study_targets() -> Vec<DomainName> {
    [
        "gmail.com",
        "hotmail.com",
        "outlook.com",
        "yahoo.com",
        "aol.com",
        "comcast.net",
        "verizon.net",
        "mail.com",
        "icloud.com",
        "zohomail.com",
        "gmx.com",
        "mailchimp.com",
        "att.net",
        "cox.net",
        "twc.com",
        "rediffmail.com",
        "hushmail.com",
        "yopmail.com",
        "10minutemail.com",
        "sendgrid.com",
        "paypal.com",
        "chase.com",
    ]
    .iter()
    .map(|s| s.parse().expect("static names are valid"))
    .collect()
}

/// The names of a synthetic "top N" list, most popular first: the study
/// targets, padded with generated filler domains (`site<k>.com`).
pub fn synthetic_targets(n: usize) -> Vec<DomainName> {
    let mut domains = study_targets();
    domains.truncate(n);
    let mut k = 0usize;
    while domains.len() < n {
        let name = format!("site{k}.com");
        domains.push(name.parse().expect("generated names are valid"));
        k += 1;
    }
    domains
}

/// Builds a synthetic "top N" list: [`synthetic_targets`] with Zipf
/// traffic attached.
pub fn synthetic_top(n: usize) -> PopularityList {
    PopularityList::from_ranked(synthetic_targets(n), 5.0e8, 0.9)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_traffic_is_monotone() {
        let list = synthetic_top(100);
        let traffics: Vec<f64> = list.iter().map(|e| e.monthly_visitors).collect();
        for w in traffics.windows(2) {
            assert!(w[0] >= w[1]);
        }
        assert_eq!(list.top(1)[0].monthly_visitors, 5.0e8);
    }

    #[test]
    fn lookup_by_name() {
        let list = synthetic_top(50);
        let gmail: DomainName = "gmail.com".parse().unwrap();
        assert_eq!(list.rank_of(&gmail), Some(1));
        assert!(list.traffic_of(&gmail).unwrap() > 0.0);
        let missing: DomainName = "nonexistent.example".parse().unwrap();
        assert_eq!(list.rank_of(&missing), None);
    }

    #[test]
    fn top_slice_bounds() {
        let list = synthetic_top(10);
        assert_eq!(list.top(3).len(), 3);
        assert_eq!(list.top(100).len(), 10);
    }

    #[test]
    fn study_targets_are_ranked_first() {
        let list = synthetic_top(1000);
        let targets = study_targets();
        for (i, t) in targets.iter().enumerate() {
            assert_eq!(list.rank_of(t), Some(i + 1));
        }
        assert_eq!(list.len(), 1000);
    }

    #[test]
    fn email_volume_scales_with_traffic() {
        let list = synthetic_top(50);
        let gmail: DomainName = "gmail.com".parse().unwrap();
        let yahoo: DomainName = "yahoo.com".parse().unwrap();
        let vg = list.yearly_email_volume(&gmail, 30.0).unwrap();
        let vy = list.yearly_email_volume(&yahoo, 30.0).unwrap();
        assert!(vg > vy);
        // 12 months × 30 emails/visitor
        assert!((vg - list.traffic_of(&gmail).unwrap() * 360.0).abs() < 1.0);
    }

    #[test]
    fn zipf_exponent_respected() {
        let list = synthetic_top(100);
        let t1 = list.top(1)[0].monthly_visitors;
        let t10 = list.iter().nth(9).unwrap().monthly_visitors;
        let ratio = t1 / t10;
        assert!((ratio - 10f64.powf(0.9)).abs() < 1e-6);
    }
}
