//! Reverse DL-1 index: "which targets is domain *d* a typo of?" in
//! O(len) per query.
//!
//! SymSpell-style deletion-neighborhood keying. Every string `x` is keyed
//! by the FNV hashes of `x` itself and of each of its single-deletion
//! variants (all hashed over `tld ++ 0xFF ++ variant` so TLDs never mix).
//! If `DL(s, t) ≤ 1`, the deletion neighborhoods of `s` and `t`
//! intersect — a deletion of `s` hits `t`'s own key, an addition hits
//! `s`'s own key, and substitutions/transpositions share the variant with
//! the changed region deleted. So a query hashes its O(len) neighborhood,
//! unions the matching buckets, and verifies each candidate exactly; hash
//! collisions only ever cost an extra verification, never a wrong answer,
//! which keeps results deterministic.
//!
//! Targets are stored in a [`DomainInterner`] (one arena, dense ids), so
//! verification compares borrowed arena slices without allocating; the
//! keys themselves are computed incrementally from FNV prefix states
//! without materializing any deletion variant.

use crate::distance;
use crate::domain::DomainName;
use crate::intern::{fnv1a, DomainInterner, FNV_OFFSET};
use crate::typogen::{self, TypoCandidate};
use std::collections::HashMap;

/// Reverse index over a fixed target list.
#[derive(Debug, Default, Clone)]
pub struct ReverseDl1Index {
    /// Interned targets; dense id order == input order (after dedup).
    targets: DomainInterner,
    /// Neighborhood-key hash → target indices (ascending per bucket).
    buckets: HashMap<u64, Vec<u32>>,
}

/// Calls `f` with the neighborhood key of `sld` itself and of each of its
/// single-deletion variants, computed incrementally (no allocation).
fn for_each_key(sld: &[u8], tld: &[u8], mut f: impl FnMut(u64)) {
    let mut base = fnv1a(FNV_OFFSET, tld);
    base = fnv1a(base, &[0xFF]);
    f(fnv1a(base, sld));
    // `prefix` is the FNV state after absorbing sld[..i]; the variant
    // deleting position i hashes as prefix ++ sld[i+1..].
    let mut prefix = base;
    for i in 0..sld.len() {
        f(fnv1a(prefix, &sld[i + 1..]));
        prefix = fnv1a(prefix, &sld[i..i + 1]);
    }
}

/// Below this many (distinct) targets the key-computation fan-out costs
/// more than it saves; the paper-scale builds that matter are far above.
const PARALLEL_KEY_THRESHOLD: usize = 4096;

/// The deduplicated neighborhood-key set of one target, sorted. Pure —
/// safe to compute shard-parallel.
fn target_key_set(t: &DomainName) -> Vec<u64> {
    let mut keys = Vec::with_capacity(t.sld().len() + 1);
    for_each_key(t.sld().as_bytes(), t.tld().as_bytes(), |key| keys.push(key));
    keys.sort_unstable();
    keys.dedup();
    keys
}

impl ReverseDl1Index {
    /// Builds the index over `targets`. Duplicate names are collapsed;
    /// indices returned by [`ReverseDl1Index::matches`] refer to the
    /// deduplicated first-occurrence order.
    ///
    /// Sharded at scale: interning/dedup is a cheap sequential pass, the
    /// per-target key sets are computed data-parallel (they are pure
    /// functions of the name), and the bucket merge is sequential in
    /// dense-id order — so each bucket's id list is ascending exactly as
    /// the sequential build produced, at any thread count.
    pub fn build(targets: &[DomainName]) -> ReverseDl1Index {
        let mut index = ReverseDl1Index {
            targets: DomainInterner::with_capacity(targets.len(), 12),
            buckets: HashMap::new(),
        };
        // Phase 1: intern + dedup in first-occurrence order, remembering
        // each kept target's position in the input slice.
        let mut kept: Vec<usize> = Vec::with_capacity(targets.len());
        for (i, t) in targets.iter().enumerate() {
            let before = index.targets.len();
            index.targets.intern(t);
            if index.targets.len() != before {
                kept.push(i);
            }
        }
        // Phase 2: per-target key sets. The historical sequential loop's
        // `bucket.last() != Some(&k)` guard could only ever fire on the
        // target currently being keyed (dense ids ascend strictly across
        // targets), i.e. it collapsed every repeated key *within one
        // target* — the semantic unit is the per-target key SET, which
        // sort+dedup computes shard-locally.
        let key_sets: Vec<Vec<u64>> = if kept.len() >= PARALLEL_KEY_THRESHOLD {
            ets_parallel::par_map(&kept, |_, &i| target_key_set(&targets[i]))
        } else {
            kept.iter().map(|&i| target_key_set(&targets[i])).collect()
        };
        // Phase 3: sequential merge in dense-id order.
        for (k, keys) in key_sets.iter().enumerate() {
            for &key in keys {
                index.buckets.entry(key).or_default().push(k as u32);
            }
        }
        index
    }

    /// Number of (distinct) indexed targets.
    pub fn len(&self) -> usize {
        self.targets.len()
    }

    /// Whether the index holds no targets.
    pub fn is_empty(&self) -> bool {
        self.targets.is_empty()
    }

    /// The indexed target at `index`, materialized.
    pub fn target(&self, index: usize) -> Option<DomainName> {
        self.targets.id_at(index).map(|id| self.targets.domain(id))
    }

    /// Unverified bucket union for `domain`'s neighborhood, ascending and
    /// deduplicated.
    fn candidate_indices(&self, domain: &DomainName) -> Vec<u32> {
        let mut ids: Vec<u32> = Vec::new();
        for_each_key(domain.sld().as_bytes(), domain.tld().as_bytes(), |key| {
            if let Some(bucket) = self.buckets.get(&key) {
                ids.extend_from_slice(bucket);
            }
        });
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Indices of all targets `domain` is at DL distance exactly one from
    /// (same TLD), ascending. Every candidate is verified exactly, so the
    /// result is independent of hash behavior.
    pub fn matches(&self, domain: &DomainName) -> Vec<usize> {
        self.candidate_indices(domain)
            .into_iter()
            .filter_map(|k| {
                let id = self.targets.id_at(k as usize)?;
                let verified = self.targets.tld(id) == domain.tld()
                    && distance::is_dl1(self.targets.sld(id), domain.sld());
                verified.then_some(k as usize)
            })
            .collect()
    }

    /// Whether `domain` is a DL-1 typo of any indexed target.
    pub fn is_typo(&self, domain: &DomainName) -> bool {
        let mut hit = false;
        for_each_key(domain.sld().as_bytes(), domain.tld().as_bytes(), |key| {
            if hit {
                return;
            }
            if let Some(bucket) = self.buckets.get(&key) {
                hit = bucket.iter().any(|&k| {
                    self.targets.id_at(k as usize).is_some_and(|id| {
                        self.targets.tld(id) == domain.tld()
                            && distance::is_dl1(self.targets.sld(id), domain.sld())
                    })
                });
            }
        });
        hit
    }

    /// Full candidate records explaining `domain`: one
    /// [`TypoCandidate`] per matching target, in ascending target order —
    /// exactly what searching each target's [`typogen::generate_dl1`]
    /// output for `domain` would return, without regenerating anything.
    pub fn explain(&self, domain: &DomainName) -> Vec<TypoCandidate> {
        self.candidate_indices(domain)
            .into_iter()
            .filter_map(|k| {
                let id = self.targets.id_at(k as usize)?;
                typogen::classify_dl1(&self.targets.domain(id), domain)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(s: &str) -> DomainName {
        s.parse().unwrap()
    }

    fn targets() -> Vec<DomainName> {
        [
            "gmail.com",
            "outlook.com",
            "hotmail.com",
            "gmal.com",
            "x.org",
        ]
        .iter()
        .map(|s| d(s))
        .collect()
    }

    #[test]
    fn finds_all_generated_typos() {
        let ts = targets();
        let index = ReverseDl1Index::build(&ts);
        for (k, t) in ts.iter().enumerate() {
            for cand in typogen::generate_dl1(t) {
                let m = index.matches(&cand.domain);
                assert!(m.contains(&k), "{} should match target {}", cand.domain, t);
                assert!(index.is_typo(&cand.domain));
            }
        }
    }

    #[test]
    fn rejects_non_typos() {
        let index = ReverseDl1Index::build(&targets());
        for name in ["outlook.com", "yahoo.com", "gmial.net", "gm.com"] {
            // outlook.com is a target itself (distance 0 — not a typo),
            // gmial.net has the wrong TLD, the others are at distance ≥ 2
            // from everything indexed.
            assert!(index.matches(&d(name)).is_empty(), "{name}");
            assert!(!index.is_typo(&d(name)), "{name}");
        }
        // gmail.com is a target, but it is also a DL-1 deletion typo of
        // the *other* target gmal.com — the index reports pure distance.
        assert_eq!(index.matches(&d("gmail.com")), vec![3]);
    }

    #[test]
    fn matches_brute_force_scan() {
        let ts = targets();
        let index = ReverseDl1Index::build(&ts);
        let queries = [
            "gmil.com",
            "gmal.com",
            "outlo0k.com",
            "hotmial.com",
            "y.org",
            "gmaal.com",
        ];
        for q in queries {
            let q = d(q);
            let brute: Vec<usize> = ts
                .iter()
                .enumerate()
                .filter(|(_, t)| {
                    t.tld() == q.tld() && distance::damerau_levenshtein(t.sld(), q.sld()) == 1
                })
                .map(|(k, _)| k)
                .collect();
            assert_eq!(index.matches(&q), brute, "{q}");
        }
    }

    #[test]
    fn explain_matches_generator_search() {
        let ts = targets();
        let index = ReverseDl1Index::build(&ts);
        let q = d("gmil.com"); // deletion typo of gmail.com AND substitution of gmal.com
        let explained = index.explain(&q);
        let expected: Vec<TypoCandidate> = ts
            .iter()
            .filter_map(|t| typogen::generate_dl1(t).into_iter().find(|c| c.domain == q))
            .collect();
        assert_eq!(explained, expected);
        assert_eq!(explained.len(), 2);
    }

    #[test]
    fn duplicate_targets_collapse() {
        let ts = vec![d("gmail.com"), d("gmail.com"), d("aol.com")];
        let index = ReverseDl1Index::build(&ts);
        assert_eq!(index.len(), 2);
        assert_eq!(index.matches(&d("gmial.com")), vec![0]);
        assert_eq!(index.target(1), Some(d("aol.com")));
    }

    /// The historical sequential build, kept verbatim as the oracle for
    /// the sharded one.
    fn build_sequential_reference(targets: &[DomainName]) -> ReverseDl1Index {
        let mut index = ReverseDl1Index {
            targets: DomainInterner::with_capacity(targets.len(), 12),
            buckets: HashMap::new(),
        };
        for t in targets {
            let before = index.targets.len();
            let id = index.targets.intern(t);
            if index.targets.len() == before {
                continue; // duplicate target
            }
            let k = id.index() as u32;
            for_each_key(t.sld().as_bytes(), t.tld().as_bytes(), |key| {
                let bucket = index.buckets.entry(key).or_default();
                if bucket.last() != Some(&k) {
                    bucket.push(k);
                }
            });
        }
        index
    }

    #[test]
    fn sharded_build_matches_sequential_reference() {
        // Enough targets to cross PARALLEL_KEY_THRESHOLD, with repeated
        // characters (key runs), duplicates, and mixed TLDs.
        let mut ts: Vec<DomainName> = (0..PARALLEL_KEY_THRESHOLD + 500)
            .map(|i| {
                let tld = if i % 3 == 0 { "com" } else { "org" };
                d(&format!("aabb{i}oo.{tld}"))
            })
            .collect();
        ts.push(d("aabb7oo.org")); // duplicate of an earlier entry
        let reference = build_sequential_reference(&ts);
        for threads in [1, 2, 8] {
            ets_parallel::set_threads(threads);
            let sharded = ReverseDl1Index::build(&ts);
            ets_parallel::set_threads(0);
            assert_eq!(sharded.targets.len(), reference.targets.len());
            assert_eq!(
                sharded.buckets, reference.buckets,
                "buckets differ at {threads} threads"
            );
        }
    }

    #[test]
    fn single_char_targets_work() {
        let index = ReverseDl1Index::build(&[d("x.org")]);
        assert_eq!(index.matches(&d("y.org")), vec![0]); // substitution
        assert_eq!(index.matches(&d("xy.org")), vec![0]); // addition
        assert!(index.matches(&d("y.com")).is_empty()); // wrong tld
    }
}
