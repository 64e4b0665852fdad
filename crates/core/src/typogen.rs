//! Typo candidate generation ("gtypos").
//!
//! Generates every Damerau-Levenshtein-distance-one variant of a target
//! domain's second-level label, tagged with the mistake type (addition,
//! deletion, substitution, transposition — Figure 9's categories), the
//! position of the mistake, whether the variant is also at fat-finger
//! distance one, and its visual distance from the target.
//!
//! The gtypo set of the Alexa top-10,000 contains millions of candidates
//! (§4.2.1). The engine is byte-level and allocation-free per candidate:
//! [`for_each_dl1`] builds variants in one reusable scratch buffer,
//! deduplicates analytically (a variant is emitted only at the canonical
//! run-start position of its operation, which provably reproduces the
//! `HashSet<String>` first-wins order of a string-based generator),
//! decides fat-finger membership per operation from the `const` keyboard
//! table instead of running a DP per candidate, and runs the
//! visual-distance DP only for the variants the caller asks about.
//! [`TypoTable`] scores every variant into a struct-of-arrays table;
//! [`generate_dl1`] remains as a thin wrapper that materializes the table
//! into the classic `Vec<TypoCandidate>`. The string-based generator
//! (per-candidate `String`, `HashSet` dedup, fat-finger DP per candidate)
//! is the oracle `tests/typo_equivalence.rs` checks the engine against.

use crate::distance;
use crate::domain::{DomainName, MAX_LABEL_LEN, MAX_NAME_LEN};
use crate::keyboard;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::fmt;

/// The four DL-1 typing-mistake types of Figure 9.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum MistakeKind {
    /// One extra character typed (`gmail` → `gmaiql`).
    Addition,
    /// One character omitted (`zohomail` → `zohomil`).
    Deletion,
    /// One character replaced (`hotmail` → `hovmail`).
    Substitution,
    /// Two neighboring characters swapped (`gmail` → `gmial`).
    Transposition,
}

impl MistakeKind {
    /// All four kinds, in Figure 9's display order.
    pub const ALL: [MistakeKind; 4] = [
        MistakeKind::Addition,
        MistakeKind::Transposition,
        MistakeKind::Deletion,
        MistakeKind::Substitution,
    ];
}

impl fmt::Display for MistakeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MistakeKind::Addition => "addition",
            MistakeKind::Deletion => "deletion",
            MistakeKind::Substitution => "substitution",
            MistakeKind::Transposition => "transposition",
        };
        f.write_str(s)
    }
}

/// A generated typo candidate of some target domain.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TypoCandidate {
    /// The typo domain itself.
    pub domain: DomainName,
    /// The target it was generated from.
    pub target: DomainName,
    /// Which of the four DL-1 mistakes produced it.
    pub kind: MistakeKind,
    /// Zero-based position of the mistake within the second-level label.
    pub position: usize,
    /// Whether the candidate is also at fat-finger distance one.
    pub fat_finger: bool,
    /// Visual distance from the target (unnormalized; see
    /// [`crate::distance::visual`]).
    pub visual: f64,
}

impl TypoCandidate {
    /// Visual distance normalized by target SLD length, the feature the
    /// Section-6 regression consumes.
    pub fn visual_normalized(&self) -> f64 {
        self.visual / self.target.sld().len() as f64
    }
}

/// Struct-of-arrays result of the byte-level DL-1 engine: one target, all
/// its typo variants' labels in a single string arena plus parallel
/// per-candidate columns. Iterating the columns costs no allocation;
/// [`TypoTable::candidate`] materializes a classic [`TypoCandidate`] on
/// demand.
#[derive(Debug, Clone)]
pub struct TypoTable {
    target: DomainName,
    /// Variant SLDs concatenated; variant `i` spans `ends[i-1]..ends[i]`.
    slds: String,
    ends: Vec<u32>,
    kinds: Vec<MistakeKind>,
    positions: Vec<u32>,
    fat_finger: Vec<bool>,
    visual: Vec<f64>,
}

impl TypoTable {
    /// Generates all distinct DL-1 variants of `target`'s second-level
    /// label, in [`for_each_dl1`]'s canonical order, scoring every one.
    /// Candidate order, attribution, and scores are identical to the
    /// string-based generator that `tests/typo_equivalence.rs` keeps as
    /// its oracle.
    pub fn generate(target: &DomainName) -> TypoTable {
        let n = target.sld().len();
        let cap = dl1_upper_bound(n, keyboard::ALPHABET.len());
        let mut table = TypoTable {
            target: target.clone(),
            slds: String::with_capacity(cap * (n + 1)),
            ends: Vec::with_capacity(cap),
            kinds: Vec::with_capacity(cap),
            positions: Vec::with_capacity(cap),
            fat_finger: Vec::with_capacity(cap),
            visual: Vec::with_capacity(cap),
        };
        for_each_dl1(target, |mut v| {
            table.visual.push(v.visual());
            table.slds.push_str(v.sld());
            table.ends.push(table.slds.len() as u32);
            table.kinds.push(v.kind);
            table.positions.push(v.position as u32);
            table.fat_finger.push(v.fat_finger);
        });
        table
    }

    /// Number of candidates.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether the table holds no candidates.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// The target the table was generated from.
    pub fn target(&self) -> &DomainName {
        &self.target
    }

    /// The variant second-level label of candidate `i` (borrowed from the
    /// arena, no allocation).
    pub fn sld(&self, i: usize) -> &str {
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        &self.slds[start..self.ends[i] as usize]
    }

    /// Mistake kind of candidate `i`.
    pub fn kind(&self, i: usize) -> MistakeKind {
        self.kinds[i]
    }

    /// Mistake position of candidate `i` within the label.
    pub fn position(&self, i: usize) -> usize {
        self.positions[i] as usize
    }

    /// Whether candidate `i` is also at fat-finger distance one.
    pub fn fat_finger(&self, i: usize) -> bool {
        self.fat_finger[i]
    }

    /// Unnormalized visual distance of candidate `i` from the target.
    pub fn visual(&self, i: usize) -> f64 {
        self.visual[i]
    }

    /// Visual distance of candidate `i` normalized by target SLD length
    /// (the Section-6 regression feature).
    pub fn visual_normalized(&self, i: usize) -> f64 {
        self.visual[i] / self.target.sld().len() as f64
    }

    /// Materializes candidate `i` as an owned [`TypoCandidate`]
    /// (one name allocation, no re-parse).
    pub fn candidate(&self, i: usize) -> TypoCandidate {
        materialize(
            &self.target,
            self.sld(i),
            self.kinds[i],
            self.positions[i] as usize,
            self.fat_finger[i],
            self.visual[i],
        )
    }

    /// Materializes every candidate in order.
    pub fn into_candidates(self) -> Vec<TypoCandidate> {
        (0..self.len()).map(|i| self.candidate(i)).collect()
    }

    /// Iterates materialized candidates in order.
    pub fn iter(&self) -> impl Iterator<Item = TypoCandidate> + '_ {
        (0..self.len()).map(|i| self.candidate(i))
    }
}

/// The domain name of variant label `sld` of `target`: the label under
/// the target's TLD (one allocation, no re-parse).
fn variant_domain(target: &DomainName, sld: &str) -> DomainName {
    let tld = target.tld();
    let mut name = String::with_capacity(sld.len() + 1 + tld.len());
    name.push_str(sld);
    name.push('.');
    name.push_str(tld);
    DomainName::from_validated_parts(name, sld.len())
}

/// Builds the owned [`TypoCandidate`] for variant label `sld` of `target`
/// (one name allocation, no re-parse).
fn materialize(
    target: &DomainName,
    sld: &str,
    kind: MistakeKind,
    position: usize,
    fat_finger: bool,
    visual: f64,
) -> TypoCandidate {
    TypoCandidate {
        domain: variant_domain(target, sld),
        target: target.clone(),
        kind,
        position,
        fat_finger,
        visual,
    }
}

/// One DL-1 variant of a target, as [`for_each_dl1`] yields it. The
/// label, kind, position and fat-finger flag come free with the
/// enumeration; the visual distance is the one O(n·m) step, so it runs
/// only when [`Dl1Variant::visual`] is first called. The label borrows
/// the enumeration's scratch buffer and lives only for the callback.
pub struct Dl1Variant<'a> {
    target: &'a DomainName,
    target_sld: &'a [u8],
    sld: &'a [u8],
    kind: MistakeKind,
    position: usize,
    fat_finger: bool,
    visual: Option<f64>,
    scratch: &'a mut distance::VisualScratch,
}

impl Dl1Variant<'_> {
    /// The variant second-level label.
    pub fn sld(&self) -> &str {
        std::str::from_utf8(self.sld).expect("domain labels are ASCII")
    }

    /// Which of the four DL-1 mistakes produced the variant.
    pub fn kind(&self) -> MistakeKind {
        self.kind
    }

    /// Zero-based (canonical) position of the mistake within the label.
    pub fn position(&self) -> usize {
        self.position
    }

    /// Whether the variant is also at fat-finger distance one.
    pub fn fat_finger(&self) -> bool {
        self.fat_finger
    }

    /// Unnormalized visual distance from the target. The first call runs
    /// the visual DP in the enumeration's shared scratch; later calls
    /// return the memoized score.
    pub fn visual(&mut self) -> f64 {
        if let Some(v) = self.visual {
            return v;
        }
        let v = distance::visual_rows(self.target_sld, self.sld, self.scratch);
        self.visual = Some(v);
        v
    }

    /// Visual distance normalized by target SLD length (the Section-6
    /// regression feature).
    pub fn visual_normalized(&mut self) -> f64 {
        self.visual() / self.target_sld.len() as f64
    }

    /// The variant's own domain name, without the copy of the target
    /// that [`Dl1Variant::candidate`] makes (one allocation, no re-parse).
    pub fn domain(&self) -> DomainName {
        variant_domain(self.target, self.sld())
    }

    /// Materializes the variant as an owned [`TypoCandidate`], scoring it
    /// if it has not been scored yet.
    pub fn candidate(&mut self) -> TypoCandidate {
        let visual = self.visual();
        materialize(
            self.target,
            self.sld(),
            self.kind,
            self.position,
            self.fat_finger,
            visual,
        )
    }
}

/// Calls `f` once for every distinct DL-1 variant of `target`'s
/// second-level label, keeping the TLD fixed: deletions, then
/// transpositions, then substitutions, then additions, each
/// position-ascending with the alphabet in `a..z 0..9 -` order, keeping
/// only the canonical (smallest-position) representative of each
/// distinct string. This is the one enumeration of the crate:
/// [`TypoTable::generate`] scores and stores every variant, while a
/// caller that discards most variants reads the free columns first and
/// asks for [`Dl1Variant::visual`] only on the ones it keeps.
///
/// ```
/// use ets_core::typogen::for_each_dl1;
/// let mut labels = Vec::new();
/// for_each_dl1(&"gmail.com".parse().unwrap(), |v| labels.push(v.sld().to_owned()));
/// assert!(labels.iter().any(|l| l == "gmial"));
/// assert!(labels.iter().all(|l| l != "gmail"));
/// ```
pub fn for_each_dl1(target: &DomainName, mut f: impl FnMut(Dl1Variant<'_>)) {
    let s = target.sld().as_bytes();
    let n = s.len();
    let tld_len = target.tld().len();
    let mut scratch = distance::VisualScratch::default();
    let mut buf: Vec<u8> = Vec::with_capacity(n + 1);
    let mut emit = |sld: &[u8], kind: MistakeKind, position: usize, fat_finger: bool| {
        f(Dl1Variant {
            target,
            target_sld: s,
            sld,
            kind,
            position,
            fat_finger,
            visual: None,
            scratch: &mut scratch,
        })
    };

    // Deletions. Deleting any character of a run yields the same
    // string, so only the run start is emitted (the first-wins
    // winner); a single-character label would leave an empty label.
    if n >= 2 {
        for i in 0..n {
            if i > 0 && s[i] == s[i - 1] {
                continue;
            }
            let first = if i == 0 { s[1] } else { s[0] };
            let last = if i == n - 1 { s[n - 2] } else { s[n - 1] };
            if first == b'-' || last == b'-' {
                continue;
            }
            buf.clear();
            buf.extend_from_slice(&s[..i]);
            buf.extend_from_slice(&s[i + 1..]);
            emit(&buf, MistakeKind::Deletion, i, true);
        }
    }
    // Transpositions of distinct neighbors. Distinct transpositions
    // never collide with each other or any other kind (they differ
    // from the label in exactly two positions).
    for i in 0..n.saturating_sub(1) {
        if s[i] == s[i + 1] {
            continue;
        }
        if (i == 0 && s[1] == b'-') || (i + 2 == n && s[i] == b'-') {
            continue;
        }
        buf.clear();
        buf.extend_from_slice(s);
        buf.swap(i, i + 1);
        emit(&buf, MistakeKind::Transposition, i, true);
    }
    // Substitutions: all (position, char ≠ current) pairs are
    // distinct strings; fat-finger iff the keys are adjacent.
    for i in 0..n {
        for &c in &keyboard::ALPHABET {
            if c == s[i] {
                continue;
            }
            if c == b'-' && (i == 0 || i == n - 1) {
                continue;
            }
            buf.clear();
            buf.extend_from_slice(s);
            buf[i] = c;
            let ff = keyboard::adjacent_bytes(s[i], c);
            emit(&buf, MistakeKind::Substitution, i, ff);
        }
    }
    // Additions (insert before position i, 0..=n). Inserting `c`
    // anywhere along a run of `c` yields the same string; the run
    // start is canonical. The domain parser rejects variants whose
    // label or full name exceeds the RFC limits, so gate on those.
    if n < MAX_LABEL_LEN && (n + 1) + 1 + tld_len <= MAX_NAME_LEN {
        for i in 0..=n {
            for &c in &keyboard::ALPHABET {
                if i > 0 && s[i - 1] == c {
                    continue;
                }
                if c == b'-' && (i == 0 || i == n) {
                    continue;
                }
                // Fat-finger: the stray key equals or neighbors an
                // intended character beside the insertion point.
                let near = |x: u8| c == x || keyboard::adjacent_bytes(c, x);
                let ff = (i > 0 && near(s[i - 1])) || (i < n && near(s[i]));
                buf.clear();
                buf.extend_from_slice(&s[..i]);
                buf.push(c);
                buf.extend_from_slice(&s[i..]);
                emit(&buf, MistakeKind::Addition, i, ff);
            }
        }
    }
}

/// Generates all distinct DL-1 typo candidates of `target`'s second-level
/// label, keeping the TLD fixed.
///
/// Candidates equal to the target, syntactically invalid (leading/trailing
/// hyphen), or duplicating another candidate are skipped; when several
/// operations produce the same string, the earliest in the order
/// deletion → transposition → substitution → addition at the smallest
/// position wins (deletions and transpositions are the most frequent
/// mistakes per Figure 9, so ties attribute to the likelier cause).
///
/// This is a thin wrapper over the byte-level [`TypoTable`] engine.
///
/// ```
/// use ets_core::typogen::generate_dl1;
/// let typos = generate_dl1(&"gmail.com".parse().unwrap());
/// assert!(typos.iter().any(|t| t.domain.as_str() == "gmial.com"));
/// assert!(typos.iter().all(|t| t.domain.as_str() != "gmail.com"));
/// ```
pub fn generate_dl1(target: &DomainName) -> Vec<TypoCandidate> {
    TypoTable::generate(target).into_candidates()
}

/// Classifies `typo` as a DL-1 variant of `target`, returning the same
/// [`TypoCandidate`] (kind, canonical position, fat-finger flag, visual
/// score) that [`generate_dl1`] would have produced for it, or `None`
/// when `typo` is not at DL distance exactly one from `target` with the
/// same TLD.
///
/// This is the verification half of the reverse DL-1 index
/// ([`crate::revindex::ReverseDl1Index`]): instead of regenerating a
/// target's full candidate set and searching it, a single O(len)
/// comparison recovers the candidate record.
///
/// ```
/// use ets_core::typogen::{classify_dl1, MistakeKind};
/// let target = "gmail.com".parse().unwrap();
/// let typo = "gmial.com".parse().unwrap();
/// let cand = classify_dl1(&target, &typo).unwrap();
/// assert_eq!(cand.kind, MistakeKind::Transposition);
/// assert_eq!(cand.position, 2);
/// assert!(classify_dl1(&target, &"gmx.com".parse().unwrap()).is_none());
/// ```
pub fn classify_dl1(target: &DomainName, typo: &DomainName) -> Option<TypoCandidate> {
    if target.tld() != typo.tld() {
        return None;
    }
    let s = target.sld().as_bytes();
    let t = typo.sld().as_bytes();
    let (kind, position) = classify_slds(s, t)?;
    let fat_finger = match kind {
        MistakeKind::Deletion | MistakeKind::Transposition => true,
        MistakeKind::Substitution => keyboard::adjacent_bytes(s[position], t[position]),
        MistakeKind::Addition => {
            let c = t[position];
            let near = |x: u8| c == x || keyboard::adjacent_bytes(c, x);
            (position > 0 && near(s[position - 1])) || (position < s.len() && near(s[position]))
        }
    };
    let mut scratch = distance::VisualScratch::default();
    let visual = distance::visual_rows(s, t, &mut scratch);
    Some(TypoCandidate {
        domain: typo.clone(),
        target: target.clone(),
        kind,
        position,
        fat_finger,
        visual,
    })
}

/// Byte-level DL-1 classification of `t` against `s`: the mistake kind
/// and the *canonical* position (the run-start the generator attributes
/// duplicates to), or `None` if the labels are not at DL distance one.
fn classify_slds(s: &[u8], t: &[u8]) -> Option<(MistakeKind, usize)> {
    let n = s.len();
    let m = t.len();
    if m == n {
        let i = (0..n).find(|&i| s[i] != t[i])?;
        let j = (0..n).rfind(|&j| s[j] != t[j]).expect("some diff exists");
        if i == j {
            return Some((MistakeKind::Substitution, i));
        }
        if j == i + 1 && s[i] == t[j] && s[j] == t[i] {
            return Some((MistakeKind::Transposition, i));
        }
        None
    } else if m + 1 == n {
        // t is s with s[i] deleted, where i is the first difference.
        let i = (0..m).find(|&i| s[i] != t[i]).unwrap_or(m);
        if s[i + 1..] != t[i..] {
            return None;
        }
        // Canonicalize to the run start of the deleted character.
        let mut p = i;
        while p > 0 && s[p - 1] == s[i] {
            p -= 1;
        }
        Some((MistakeKind::Deletion, p))
    } else if m == n + 1 {
        // t is s with t[i] inserted, where i is the first difference.
        let i = (0..n).find(|&i| s[i] != t[i]).unwrap_or(n);
        if t[i + 1..] != s[i..] {
            return None;
        }
        // Canonicalize to the run start of the inserted character.
        let c = t[i];
        let mut p = i;
        while p > 0 && t[p - 1] == c {
            p -= 1;
        }
        Some((MistakeKind::Addition, p))
    } else {
        None
    }
}

/// Count of DL-1 candidates of a label of length `n` over an alphabet of
/// size `a`, before deduplication: `n` deletions + `n-1` transpositions +
/// `n(a-1)` substitutions + `(n+1)a` additions.
pub fn dl1_upper_bound(label_len: usize, alphabet_size: usize) -> usize {
    let n = label_len;
    let a = alphabet_size;
    n + n.saturating_sub(1) + n * (a - 1) + (n + 1) * a
}

/// Doppelganger ("missing dot") typos of a set of subdomains, per the Godai
/// white paper discussed in §2: `ca.ibm.com` → `caibm.com`.
pub fn generate_doppelgangers(subdomains: &[DomainName]) -> Vec<TypoCandidate> {
    let mut out = Vec::new();
    let mut seen = HashSet::new();
    for s in subdomains {
        if let Some(d) = s.doppelganger() {
            if seen.insert(d.clone()) {
                let visual = 0.35; // a missing dot is a thin-glyph deletion
                out.push(TypoCandidate {
                    domain: d,
                    target: s.clone(),
                    kind: MistakeKind::Deletion,
                    position: s.labels().next().map(str::len).unwrap_or(0),
                    fat_finger: true,
                    visual,
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(s: &str) -> DomainName {
        s.parse().unwrap()
    }

    #[test]
    fn all_candidates_are_dl1() {
        let t = d("gmail.com");
        for cand in generate_dl1(&t) {
            assert_eq!(
                distance::damerau_levenshtein(t.sld(), cand.domain.sld()),
                1,
                "{} not DL-1 of gmail",
                cand.domain
            );
            assert_eq!(cand.domain.tld(), "com");
        }
    }

    #[test]
    fn no_duplicates_and_no_target() {
        let t = d("gmail.com");
        let typos = generate_dl1(&t);
        let mut set = HashSet::new();
        for c in &typos {
            assert!(set.insert(c.domain.as_str()), "duplicate {}", c.domain);
            assert_ne!(c.domain, t);
        }
    }

    #[test]
    fn classify_recovers_generated_candidates() {
        for name in ["gmail.com", "aa.org", "a-b.net"] {
            let t = d(name);
            for cand in generate_dl1(&t) {
                let back = classify_dl1(&t, &cand.domain).expect("DL-1 by construction");
                assert_eq!(back, cand, "{name} -> {}", cand.domain);
            }
        }
    }

    #[test]
    fn classify_rejects_non_dl1() {
        let t = d("gmail.com");
        assert!(classify_dl1(&t, &d("gmail.com")).is_none()); // equal
        assert!(classify_dl1(&t, &d("gmx.com")).is_none()); // DL 3
        assert!(classify_dl1(&t, &d("gmial.net")).is_none()); // tld differs
    }

    #[test]
    fn contains_paper_examples() {
        let typos = generate_dl1(&d("gmail.com"));
        let names: HashSet<&str> = typos.iter().map(|t| t.domain.as_str()).collect();
        for expect in [
            "gmial.com",
            "gmaiql.com",
            "gmai-l.com",
            "gmil.com",
            "gnail.com",
        ] {
            assert!(names.contains(expect), "missing {expect}");
        }
        let typos = generate_dl1(&d("outlook.com"));
        let names: HashSet<&str> = typos.iter().map(|t| t.domain.as_str()).collect();
        for expect in [
            "outlo0k.com",
            "ohtlook.com",
            "outmook.com",
            "o7tlook.com",
            "outloook.com",
        ] {
            assert!(names.contains(expect), "missing {expect}");
        }
    }

    #[test]
    fn kinds_are_attributed() {
        let typos = generate_dl1(&d("gmail.com"));
        let find = |name: &str| typos.iter().find(|t| t.domain.as_str() == name).unwrap();
        assert_eq!(find("gmial.com").kind, MistakeKind::Transposition);
        assert_eq!(find("gmil.com").kind, MistakeKind::Deletion);
        assert_eq!(find("gmqil.com").kind, MistakeKind::Substitution);
        assert_eq!(find("gmaiql.com").kind, MistakeKind::Addition);
    }

    #[test]
    fn hyphen_edges_excluded() {
        let typos = generate_dl1(&d("gmail.com"));
        for c in &typos {
            assert!(!c.domain.sld().starts_with('-'));
            assert!(!c.domain.sld().ends_with('-'));
        }
    }

    #[test]
    fn candidate_count_close_to_upper_bound() {
        // 37-character alphabet; dedup removes only a handful (doubled
        // letters, hyphen-edge cases).
        let t = d("gmail.com");
        let ub = dl1_upper_bound(5, 37);
        let got = generate_dl1(&t).len();
        assert!(got <= ub);
        assert!(got > ub * 8 / 10, "got {got}, ub {ub}");
    }

    #[test]
    fn single_char_label() {
        let typos = generate_dl1(&d("x.org"));
        assert!(!typos.is_empty());
        for c in &typos {
            assert_eq!(distance::damerau_levenshtein("x", c.domain.sld()), 1);
        }
        // no transpositions possible, deletion would be empty
        assert!(typos.iter().all(|c| c.kind != MistakeKind::Transposition));
        assert!(typos.iter().all(|c| c.kind != MistakeKind::Deletion));
    }

    #[test]
    fn table_columns_match_candidates() {
        let t = d("outlook.com");
        let table = TypoTable::generate(&t);
        let cands = generate_dl1(&t);
        assert_eq!(table.len(), cands.len());
        for (i, c) in cands.iter().enumerate() {
            assert_eq!(table.sld(i), c.domain.sld());
            assert_eq!(table.kind(i), c.kind);
            assert_eq!(table.position(i), c.position);
            assert_eq!(table.fat_finger(i), c.fat_finger);
            assert_eq!(table.visual(i).to_bits(), c.visual.to_bits());
            assert_eq!(
                table.visual_normalized(i).to_bits(),
                c.visual_normalized().to_bits()
            );
            assert_eq!(table.candidate(i), *c);
        }
        assert_eq!(table.iter().collect::<Vec<_>>(), cands);
    }

    #[test]
    fn visitor_scores_on_demand() {
        let t = d("outlook.com");
        let table = TypoTable::generate(&t);
        let mut i = 0;
        for_each_dl1(&t, |mut v| {
            assert_eq!(v.sld(), table.sld(i));
            assert_eq!(v.kind(), table.kind(i));
            assert_eq!(v.position(), table.position(i));
            assert_eq!(v.fat_finger(), table.fat_finger(i));
            // Only every third variant is scored; the rest never run the DP.
            if i % 3 == 0 {
                assert_eq!(v.visual().to_bits(), table.visual(i).to_bits());
                assert_eq!(v.candidate(), table.candidate(i));
            }
            i += 1;
        });
        assert_eq!(i, table.len());
    }

    #[test]
    fn doppelgangers() {
        let subs = [d("ca.ibm.com"), d("smtp.gmail.com"), d("mail.google.com")];
        let dg = generate_doppelgangers(&subs);
        let names: Vec<&str> = dg.iter().map(|t| t.domain.as_str()).collect();
        assert_eq!(names, vec!["caibm.com", "smtpgmail.com", "mailgoogle.com"]);
    }

    #[test]
    fn visual_normalization() {
        let t = d("outlook.com");
        let typos = generate_dl1(&t);
        let c = typos
            .iter()
            .find(|c| c.domain.as_str() == "outlo0k.com")
            .unwrap();
        assert!((c.visual_normalized() - c.visual / 7.0).abs() < 1e-12);
    }
}
