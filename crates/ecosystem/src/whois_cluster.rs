//! Registrant clustering from WHOIS records (§5.1).
//!
//! Two domains belong to the same entity when at least four of the six
//! WHOIS fields match (after Halvorson et al.). Privacy-proxied domains
//! and records with fewer than four populated fields are excluded — proxy
//! boilerplate would falsely merge every proxy customer.
//!
//! The pairwise rule is made near-linear by bucketing: each record is
//! normalized once into a signature of per-field value ids, identical
//! signatures collapse to one representative, and since a 4-of-6 match
//! requires at least one *specific* field pair to agree, representatives
//! are indexed by each populated field value and only bucket-mates are
//! compared. Union-find merges matches into clusters.

use ets_dns::whois::WhoisRecord;
use ets_dns::Fqdn;
use ets_parallel::par_map;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::Arc;

/// The paper's threshold: four of six fields.
pub const MATCH_THRESHOLD: usize = 4;

/// One input row: a domain and its *public* WHOIS view.
#[derive(Debug, Clone)]
pub struct WhoisRow {
    /// The domain.
    pub domain: Fqdn,
    /// Public WHOIS record, as [`ets_dns::Registration::public_whois`]
    /// shares it: rows of one owner may hold the same record.
    pub whois: Arc<WhoisRecord>,
    /// Whether the registration sits behind a privacy proxy.
    pub private: bool,
}

/// A cluster of domains attributed to one entity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cluster {
    /// Domains in the cluster, sorted.
    pub domains: Vec<Fqdn>,
}

impl Cluster {
    /// Portfolio size.
    pub fn len(&self) -> usize {
        self.domains.len()
    }

    /// Whether the cluster is empty (never produced by the clusterer).
    pub fn is_empty(&self) -> bool {
        self.domains.is_empty()
    }
}

/// Disjoint-set forest with path compression and union by size.
#[derive(Debug)]
pub struct UnionFind {
    parent: Vec<usize>,
    size: Vec<usize>,
}

impl UnionFind {
    /// `n` singleton sets.
    pub fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n).collect(),
            size: vec![1; n],
        }
    }

    /// Representative of `x`'s set.
    pub fn find(&mut self, x: usize) -> usize {
        let mut root = x;
        while self.parent[root] != root {
            root = self.parent[root];
        }
        let mut cur = x;
        while self.parent[cur] != root {
            let next = self.parent[cur];
            self.parent[cur] = root;
            cur = next;
        }
        root
    }

    /// Merges the sets of `a` and `b`; returns false if already merged.
    pub fn union(&mut self, a: usize, b: usize) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        let (big, small) = if self.size[ra] >= self.size[rb] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[small] = big;
        self.size[big] += self.size[small];
        true
    }
}

/// Clusters rows by the 4-of-6 rule, excluding proxies and sparse records.
/// Returns clusters sorted by size, largest first.
///
/// Each distinct eligible record is normalized once (trimmed,
/// ASCII-lowercased), and every field value becomes a dense per-field
/// id, so a row's signature is six integers. Rows that share one record
/// (the same `Arc`) reuse its signature, which normalizing the record
/// again would only reproduce. Rows with an identical signature
/// necessarily match — eligibility guarantees ≥ 4 populated fields — so
/// they are unioned into the first row carrying that signature before
/// any comparison. The distinct signatures are then bucketed by each
/// populated field value and compared all-pairs within each bucket. Any
/// matching pair shares at least one field value, hence some bucket, so
/// the clustering equals full pairwise comparison.
///
/// Pair evaluation runs data-parallel per bucket; it reads only the
/// signatures, so the matching-pair set — and the final partition — is
/// identical for any thread count. Ids, representatives and buckets are
/// all assigned in row order, never in `HashMap` order.
pub fn cluster_registrants(rows: &[WhoisRow]) -> Vec<Cluster> {
    let mut cluster_span = ets_obs::span!("whois.cluster");
    cluster_span.arg("rows", rows.len() as u64);
    ets_obs::metrics::counter_add("whois.rows", rows.len() as u64);
    // Eligible rows only.
    let eligible: Vec<&WhoisRow> = rows
        .iter()
        .filter(|r| !r.private && r.whois.populated_fields() >= MATCH_THRESHOLD)
        .collect();
    ets_obs::metrics::counter_add("whois.eligible", eligible.len() as u64);
    let mut uf = UnionFind::new(eligible.len());

    // Normalize each shared record once, in row order, so every id is
    // assigned where a per-row pass would assign it; collapse identical
    // signatures into their first row.
    let mut ids = FieldIds::default();
    let mut memo: HashMap<*const WhoisRecord, Signature> = HashMap::new();
    let signatures: Vec<Signature> = eligible
        .iter()
        .map(|r| {
            *memo
                .entry(Arc::as_ptr(&r.whois))
                .or_insert_with(|| ids.signature(&r.whois))
        })
        .collect();
    let mut first: HashMap<Signature, usize> = HashMap::new();
    let mut reps: Vec<usize> = Vec::new();
    for (i, sig) in signatures.iter().enumerate() {
        match first.entry(*sig) {
            Entry::Occupied(e) => {
                uf.union(*e.get(), i);
            }
            Entry::Vacant(e) => {
                e.insert(i);
                reps.push(i);
            }
        }
    }

    // Bucket the representatives by (field, value id); compare within.
    let mut buckets: Vec<Vec<Vec<usize>>> = ids
        .per_field
        .iter()
        .map(|f| vec![Vec::new(); f.len()])
        .collect();
    for &r in &reps {
        for (fi, &id) in signatures[r].iter().enumerate() {
            if id != ABSENT {
                buckets[fi][id as usize].push(r);
            }
        }
    }
    let bucket_list: Vec<&[usize]> = buckets
        .iter()
        .flatten()
        .filter(|members| members.len() >= 2)
        .map(Vec::as_slice)
        .collect();
    let matched: Vec<Vec<(usize, usize)>> = par_map(&bucket_list, |_, members| {
        let mut pairs: Vec<(usize, usize)> = Vec::new();
        for (i, &a) in members.iter().enumerate() {
            for &b in &members[i + 1..] {
                if matching_fields(&signatures[a], &signatures[b]) >= MATCH_THRESHOLD {
                    pairs.push((a, b));
                }
            }
        }
        pairs
    });
    for pairs in matched {
        for (a, b) in pairs {
            uf.union(a, b);
        }
    }

    let mut groups: Vec<Vec<Fqdn>> = vec![Vec::new(); eligible.len()];
    for (local, row) in eligible.iter().enumerate() {
        let root = uf.find(local);
        groups[root].push(row.domain.clone());
    }
    let mut clusters: Vec<Cluster> = groups
        .into_iter()
        .filter(|domains| !domains.is_empty())
        .map(|mut domains| {
            domains.sort();
            Cluster { domains }
        })
        .collect();
    clusters.sort_by(|a, b| {
        b.len()
            .cmp(&a.len())
            .then_with(|| a.domains.cmp(&b.domains))
    });
    clusters
}

/// A row's six normalized field values as per-field ids ([`ABSENT`] for
/// an empty field), in [`fields`] order.
type Signature = [u32; 6];

/// The id of an empty field; never equal to a populated one.
const ABSENT: u32 = u32::MAX;

/// Dense ids of normalized field values, one table per field, assigned
/// in order of first appearance.
#[derive(Default)]
struct FieldIds {
    per_field: [HashMap<String, u32>; 6],
    buf: String,
}

impl FieldIds {
    /// Normalizes `w`'s fields (trimmed, ASCII-lowercased, the equality
    /// `WhoisRecord::matching_fields` uses) and maps each to its id.
    fn signature(&mut self, w: &WhoisRecord) -> Signature {
        let mut sig = [ABSENT; 6];
        for (fi, field) in fields(w).into_iter().enumerate() {
            let Some(v) = field else { continue };
            self.buf.clear();
            self.buf.push_str(v.trim());
            self.buf.make_ascii_lowercase();
            let table = &mut self.per_field[fi];
            let next = table.len() as u32;
            sig[fi] = match table.get(self.buf.as_str()) {
                Some(&id) => id,
                None => {
                    table.insert(self.buf.clone(), next);
                    next
                }
            };
        }
        sig
    }
}

/// Fields populated in both signatures and equal.
fn matching_fields(a: &Signature, b: &Signature) -> usize {
    a.iter()
        .zip(b)
        .filter(|&(x, y)| *x != ABSENT && x == y)
        .count()
}

fn fields(w: &WhoisRecord) -> [Option<&String>; 6] {
    [
        w.registrant_name.as_ref(),
        w.organization.as_ref(),
        w.email.as_ref(),
        w.phone.as_ref(),
        w.fax.as_ref(),
        w.mail_address.as_ref(),
    ]
}

/// The cumulative-ownership curve of Figure 8: for clusters sorted largest
/// first, the cumulative fraction of domains owned by the top `i+1`
/// clusters at index `i`.
pub fn cumulative_ownership(clusters: &[Cluster]) -> Vec<f64> {
    let total: usize = clusters.iter().map(Cluster::len).sum();
    if total == 0 {
        return Vec::new();
    }
    let mut acc = 0usize;
    clusters
        .iter()
        .map(|c| {
            acc += c.len();
            acc as f64 / total as f64
        })
        .collect()
}

/// Smallest fraction of registrants owning at least `share` of domains
/// (§5.2: "2.3% of all of the registrants own the majority").
pub fn registrant_fraction_owning(clusters: &[Cluster], share: f64) -> f64 {
    let curve = cumulative_ownership(clusters);
    if curve.is_empty() {
        return 0.0;
    }
    let n = curve.len() as f64;
    for (i, &c) in curve.iter().enumerate() {
        if c >= share {
            return (i + 1) as f64 / n;
        }
    }
    1.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(s: &str) -> Fqdn {
        s.parse().unwrap()
    }

    fn row(domain: &str, whois: WhoisRecord, private: bool) -> WhoisRow {
        WhoisRow {
            domain: n(domain),
            whois: Arc::new(whois),
            private,
        }
    }

    fn identity(i: usize) -> WhoisRecord {
        WhoisRecord::full(
            &format!("Owner {i}"),
            &format!("Org {i}"),
            &format!("o{i}@x.com"),
            &format!("+1.55500000{i:02}"),
            &format!("+1.55600000{i:02}"),
            &format!("{i} Main St"),
        )
    }

    #[test]
    fn same_identity_clusters() {
        let rows = vec![
            row("a.com", identity(1), false),
            row("b.com", identity(1), false),
            row("c.com", identity(2), false),
        ];
        let clusters = cluster_registrants(&rows);
        assert_eq!(clusters.len(), 2);
        assert_eq!(clusters[0].len(), 2);
        assert_eq!(clusters[0].domains, vec![n("a.com"), n("b.com")]);
    }

    #[test]
    fn partial_match_of_four_clusters() {
        let mut w2 = identity(5);
        w2.registrant_name = Some("Different Name".to_owned());
        w2.fax = None; // 4 fields still match
        let rows = vec![row("a.com", identity(5), false), row("b.com", w2, false)];
        let clusters = cluster_registrants(&rows);
        assert_eq!(clusters.len(), 1);
        assert_eq!(clusters[0].len(), 2);
    }

    #[test]
    fn three_matches_do_not_cluster() {
        let mut w2 = identity(5);
        w2.registrant_name = Some("X".to_owned());
        w2.organization = Some("Y".to_owned());
        w2.fax = None;
        let rows = vec![row("a.com", identity(5), false), row("b.com", w2, false)];
        let clusters = cluster_registrants(&rows);
        assert_eq!(clusters.len(), 2);
    }

    #[test]
    fn private_rows_excluded() {
        let rows = vec![
            row("a.com", identity(1), true),
            row("b.com", identity(1), true),
            row("c.com", identity(2), false),
        ];
        let clusters = cluster_registrants(&rows);
        // only c.com is eligible
        assert_eq!(clusters.len(), 1);
        assert_eq!(clusters[0].domains, vec![n("c.com")]);
    }

    #[test]
    fn sparse_records_excluded() {
        let sparse = WhoisRecord {
            registrant_name: Some("Bob".into()),
            email: Some("b@x.com".into()),
            ..Default::default()
        };
        let rows = vec![
            row("a.com", sparse.clone(), false),
            row("b.com", sparse, false),
        ];
        assert!(cluster_registrants(&rows).is_empty());
    }

    #[test]
    fn transitive_clustering() {
        // A matches B on fields 1-4; B matches C on fields 3-6; A and C
        // match on only 2 — union-find still merges all three.
        let a = identity(9);
        let mut b = identity(9);
        let mut c = identity(9);
        b.registrant_name = Some("B Name".into());
        b.organization = Some("B Org".into());
        c.registrant_name = Some("B Name".into());
        c.organization = Some("B Org".into());
        c.email = Some("c@x.com".into());
        c.phone = Some("+1.999".into());
        // a∩b: email, phone, fax, addr = 4 ✓; b∩c: name, org, fax, addr = 4 ✓
        // a∩c: fax, addr = 2
        assert_eq!(a.matching_fields(&b), 4);
        assert_eq!(b.matching_fields(&c), 4);
        assert_eq!(a.matching_fields(&c), 2);
        let rows = vec![
            row("a.com", a, false),
            row("b.com", b, false),
            row("c.com", c, false),
        ];
        let clusters = cluster_registrants(&rows);
        assert_eq!(clusters.len(), 1);
        assert_eq!(clusters[0].len(), 3);
    }

    #[test]
    fn nonadjacent_bucket_members_cluster() {
        // Regression: b.com and d.com match each other on 4 fields, but in
        // every shared-field bucket they are separated by spoiler rows that
        // match neither, so the old anchor+adjacent-windows passes never
        // compared them. Exact within-bucket comparison must merge them.
        let rec = |name: &str,
                   org: &str,
                   email: Option<&str>,
                   phone: Option<&str>,
                   fax: Option<&str>,
                   addr: Option<&str>| WhoisRecord {
            registrant_name: Some(name.to_owned()),
            organization: Some(org.to_owned()),
            email: email.map(str::to_owned),
            phone: phone.map(str::to_owned),
            fax: fax.map(str::to_owned),
            mail_address: addr.map(str::to_owned),
        };
        let b = rec("B", "OB", Some("x@x"), Some("p"), Some("f"), Some("a"));
        let d = rec("D", "OD", Some("x@x"), Some("p"), Some("f"), Some("a"));
        assert_eq!(b.matching_fields(&d), 4);
        let rows = vec![
            row(
                "se-a.com",
                rec("sea", "osea", Some("x@x"), Some("psea"), None, None),
                false,
            ),
            row(
                "sp-a.com",
                rec("spa", "ospa", Some("espa"), Some("p"), None, None),
                false,
            ),
            row(
                "sf-a.com",
                rec("sfa", "osfa", Some("esfa"), None, Some("f"), None),
                false,
            ),
            row(
                "sa-a.com",
                rec("saa", "osaa", Some("esaa"), None, None, Some("a")),
                false,
            ),
            row("b.com", b, false),
            row(
                "se-b.com",
                rec("seb", "oseb", Some("x@x"), Some("pseb"), None, None),
                false,
            ),
            row(
                "sp-b.com",
                rec("spb", "ospb", Some("espb"), Some("p"), None, None),
                false,
            ),
            row(
                "sf-b.com",
                rec("sfb", "osfb", Some("esfb"), None, Some("f"), None),
                false,
            ),
            row(
                "sa-b.com",
                rec("sab", "osab", Some("esab"), None, None, Some("a")),
                false,
            ),
            row("d.com", d, false),
        ];
        let clusters = cluster_registrants(&rows);
        assert_eq!(clusters.len(), 9, "{clusters:?}");
        assert_eq!(clusters[0].domains, vec![n("b.com"), n("d.com")]);
    }

    /// Field values the oracle rows draw from: blanks, and three values
    /// spelled several ways, so exact duplicates, 4-of-6 matches, 3-of-6
    /// near misses and sparse rows all occur.
    const POOL: [Option<&str>; 8] = [
        None,
        None,
        Some("Alpha"),
        Some(" alpha "),
        Some("ALPHA"),
        Some("Beta"),
        Some("beta "),
        Some("Gamma"),
    ];

    /// One row per code: three bits per field pick from [`POOL`], one in
    /// eight rows is private, and one in four repeats an earlier row's
    /// record under its own domain — half of those as the same shared
    /// record, as `public_whois` hands out an owner's, and half as an
    /// equal record in a fresh `Arc`, so the signature memo sees both.
    fn pool_rows(codes: &[u32]) -> Vec<WhoisRow> {
        let mut rows: Vec<WhoisRow> = Vec::new();
        for (i, &code) in codes.iter().enumerate() {
            let pick = |fi: u32| POOL[(code >> (3 * fi)) as usize & 7].map(str::to_owned);
            let whois = if (code >> 30) == 0 && i > 0 {
                let earlier = &rows[(code >> 21) as usize % i].whois;
                if (code >> 29) & 1 == 0 {
                    Arc::clone(earlier)
                } else {
                    Arc::new(WhoisRecord::clone(earlier))
                }
            } else {
                Arc::new(WhoisRecord {
                    registrant_name: pick(0),
                    organization: pick(1),
                    email: pick(2),
                    phone: pick(3),
                    fax: pick(4),
                    mail_address: pick(5),
                })
            };
            rows.push(WhoisRow {
                domain: n(&format!("d{i}.com")),
                whois,
                private: (code >> 18) & 7 == 0,
            });
        }
        rows
    }

    /// The 4-of-6 rule applied to every eligible pair, as sorted clusters.
    fn all_pairs_oracle(rows: &[WhoisRow]) -> Vec<Vec<Fqdn>> {
        let eligible: Vec<&WhoisRow> = rows
            .iter()
            .filter(|r| !r.private && r.whois.populated_fields() >= MATCH_THRESHOLD)
            .collect();
        let mut uf = UnionFind::new(eligible.len());
        for i in 0..eligible.len() {
            for j in i + 1..eligible.len() {
                if eligible[i]
                    .whois
                    .same_entity(&eligible[j].whois, MATCH_THRESHOLD)
                {
                    uf.union(i, j);
                }
            }
        }
        let mut groups: Vec<Vec<Fqdn>> = vec![Vec::new(); eligible.len()];
        for (i, r) in eligible.iter().enumerate() {
            groups[uf.find(i)].push(r.domain.clone());
        }
        let mut clusters: Vec<Vec<Fqdn>> = groups.into_iter().filter(|g| !g.is_empty()).collect();
        clusters.iter_mut().for_each(|g| g.sort());
        clusters.sort();
        clusters
    }

    proptest::proptest! {
        /// Bucketed clustering over collapsed signatures equals the
        /// naive all-pairs union-find.
        #[test]
        fn clustering_matches_all_pairs_oracle(
            codes in proptest::collection::vec(proptest::prelude::any::<u32>(), 0..48)
        ) {
            let rows = pool_rows(&codes);
            let mut got: Vec<Vec<Fqdn>> =
                cluster_registrants(&rows).into_iter().map(|c| c.domains).collect();
            got.sort();
            proptest::prop_assert_eq!(got, all_pairs_oracle(&rows));
        }
    }

    #[test]
    fn cumulative_curve() {
        let clusters = vec![
            Cluster {
                domains: vec![n("a.com"), n("b.com"), n("c.com")],
            },
            Cluster {
                domains: vec![n("d.com")],
            },
        ];
        let curve = cumulative_ownership(&clusters);
        assert_eq!(curve, vec![0.75, 1.0]);
        assert!((registrant_fraction_owning(&clusters, 0.5) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn union_find_behaves() {
        let mut uf = UnionFind::new(5);
        assert!(uf.union(0, 1));
        assert!(uf.union(1, 2));
        assert!(!uf.union(0, 2));
        assert_eq!(uf.find(2), uf.find(0));
        assert_ne!(uf.find(3), uf.find(0));
    }

    #[test]
    fn empty_input() {
        assert!(cluster_registrants(&[]).is_empty());
        assert!(cumulative_ownership(&[]).is_empty());
    }
}
