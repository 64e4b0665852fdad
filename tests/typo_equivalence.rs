//! Equivalence properties for the byte-level typo engine, the rolling-row
//! distance kernels, and the reverse DL-1 index: each optimized path must
//! agree *exactly* (bitwise, for the f64 metrics) with a naive oracle on
//! fixed edge cases and arbitrary inputs.
//!
//! The oracles below are the textbook forms the kernels replaced: full
//! `char` DP matrices and the string-based DL-1 generator. They share no
//! lookup table with the kernels: adjacency comes from the row-geometry
//! scan, confusability from a walk of the look-alike pair list, glyph
//! weights from a `match`.

use ets_core::typogen::{self, TypoTable};
use ets_core::{alexa, distance, keyboard};
use ets_core::{DomainName, MistakeKind, ReverseDl1Index, TypoCandidate};
use proptest::prelude::*;
use std::collections::HashSet;

/// Arbitrary valid SLDs: no hyphen at either edge, length 1–14.
fn sld() -> impl Strategy<Value = String> {
    "[a-z0-9-]{1,14}".prop_filter("no hyphen edges", |s| {
        !s.starts_with('-') && !s.ends_with('-')
    })
}

/// Arbitrary text beyond domain labels: uppercase ASCII (the byte path)
/// and non-ASCII up to 4-byte chars (the `char` path).
fn text() -> impl Strategy<Value = String> {
    "[a-zA-Z0-9\\-éü€😀 ]{0,12}"
}

fn domain(sld: &str, tld: &str) -> DomainName {
    format!("{sld}.{tld}")
        .parse()
        .expect("strategy yields valid slds")
}

// ----------------------------------------------------------------- oracles

/// Full-matrix `char` DL distance: no affix trimming, no early outs.
fn damerau_levenshtein_legacy(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    dl_matrix(&a, &b)
}

#[allow(clippy::needless_range_loop)] // DP matrix init reads clearer indexed
fn dl_matrix(a: &[char], b: &[char]) -> usize {
    let (n, m) = (a.len(), b.len());
    if n == 0 {
        return m;
    }
    if m == 0 {
        return n;
    }
    let w = m + 1;
    let mut d = vec![0usize; (n + 1) * w];
    for i in 0..=n {
        d[i * w] = i;
    }
    for j in 0..=m {
        d[j] = j;
    }
    for i in 1..=n {
        for j in 1..=m {
            let cost = usize::from(a[i - 1] != b[j - 1]);
            let mut best = (d[(i - 1) * w + j] + 1) // deletion
                .min(d[i * w + j - 1] + 1) // insertion
                .min(d[(i - 1) * w + j - 1] + cost); // substitution / match
            if i > 1 && j > 1 && a[i - 1] == b[j - 2] && a[i - 2] == b[j - 1] {
                best = best.min(d[(i - 2) * w + j - 2] + 1); // transposition
            }
            d[i * w + j] = best;
        }
    }
    d[n * w + m]
}

const INF: usize = usize::MAX / 4;

/// Full-matrix `char` fat-finger distance.
fn fat_finger_legacy(a: &str, b: &str) -> Option<usize> {
    let av: Vec<char> = a.chars().collect();
    let bv: Vec<char> = b.chars().collect();
    let d = dl_matrix_ff(&av, &bv);
    if d > av.len() + bv.len() {
        None
    } else {
        Some(d)
    }
}

/// Fat-finger DL matrix: substitutions require adjacency between the
/// intended and the typed character; insertions require the inserted
/// character to be adjacent to a neighboring intended character.
fn dl_matrix_ff(a: &[char], b: &[char]) -> usize {
    let (n, m) = (a.len(), b.len());
    if n == 0 || m == 0 {
        return if n == m { 0 } else { INF };
    }
    let w = m + 1;
    let mut d = vec![INF; (n + 1) * w];
    d[0] = 0;
    for i in 1..=n {
        d[i * w] = i; // deletions always allowed
    }
    for j in 1..=m {
        if (b[j - 1] == a[0] || adjacent_by_scan(b[j - 1], a[0])) && d[j - 1] < INF {
            d[j] = d[j - 1] + 1;
        }
    }
    for i in 1..=n {
        for j in 1..=m {
            let mut best = INF;
            if d[(i - 1) * w + j] < INF {
                best = best.min(d[(i - 1) * w + j] + 1);
            }
            if d[i * w + j - 1] < INF {
                let near = |x: char| b[j - 1] == x || adjacent_by_scan(b[j - 1], x);
                if near(a[i - 1]) || (i < n && near(a[i])) {
                    best = best.min(d[i * w + j - 1] + 1);
                }
            }
            if d[(i - 1) * w + j - 1] < INF {
                if a[i - 1] == b[j - 1] {
                    best = best.min(d[(i - 1) * w + j - 1]);
                } else if adjacent_by_scan(a[i - 1], b[j - 1]) {
                    best = best.min(d[(i - 1) * w + j - 1] + 1);
                }
            }
            if i > 1
                && j > 1
                && a[i - 1] == b[j - 2]
                && a[i - 2] == b[j - 1]
                && d[(i - 2) * w + j - 2] < INF
            {
                best = best.min(d[(i - 2) * w + j - 2] + 1);
            }
            d[i * w + j] = best;
        }
    }
    d[n * w + m]
}

/// Reference adjacency via the public row-geometry scan ([`key_pos`]),
/// independent of the const table.
///
/// [`key_pos`]: ets_core::keyboard::key_pos
fn adjacent_by_scan(a: char, b: char) -> bool {
    let (Some(pa), Some(pb)) = (keyboard::key_pos(a), keyboard::key_pos(b)) else {
        return false;
    };
    if pa.row == pb.row {
        return pa.col.abs_diff(pb.col) == 1;
    }
    if pa.row.abs_diff(pb.row) != 1 {
        return false;
    }
    let (upper, lower) = if pa.row < pb.row { (pa, pb) } else { (pb, pa) };
    lower.col == upper.col || lower.col + 1 == upper.col
}

/// Confusability by walking the look-alike pair list on every call.
fn char_confusability_legacy(intended: char, typed: char) -> f64 {
    let (a, b) = (intended.to_ascii_lowercase(), typed.to_ascii_lowercase());
    if a == b {
        return 0.0;
    }
    if a.is_ascii() && b.is_ascii() {
        for &(x, y, v) in distance::LOOKALIKES {
            let (x, y) = (x as char, y as char);
            if (a == x && b == y) || (a == y && b == x) {
                return v;
            }
        }
    }
    let digit_a = a.is_ascii_digit();
    let digit_b = b.is_ascii_digit();
    match (digit_a, digit_b) {
        (false, false) if a != '-' && b != '-' => 0.8,
        (true, true) => 0.7,
        (true, false) | (false, true) => 0.9,
        _ => 0.6,
    }
}

fn glyph_prominence(c: char) -> f64 {
    match c {
        'i' | 'l' | '1' | 'j' | '.' | '-' => 0.35,
        't' | 'f' | 'r' => 0.55,
        'm' | 'w' => 0.9,
        _ => 0.7,
    }
}

/// Full-matrix `char` visual distance.
fn visual_legacy(target: &str, typo: &str) -> f64 {
    let a: Vec<char> = target.chars().collect();
    let b: Vec<char> = typo.chars().collect();
    visual_cost(&a, &b)
}

fn visual_cost(a: &[char], b: &[char]) -> f64 {
    let (n, m) = (a.len(), b.len());
    let w = m + 1;
    let mut d = vec![f64::INFINITY; (n + 1) * w];
    d[0] = 0.0;
    for i in 1..=n {
        d[i * w] = d[(i - 1) * w] + glyph_prominence(a[i - 1]);
    }
    for j in 1..=m {
        d[j] = d[j - 1] + glyph_prominence(b[j - 1]);
    }
    for i in 1..=n {
        for j in 1..=m {
            let del = d[(i - 1) * w + j] + glyph_prominence(a[i - 1]);
            let ins = d[i * w + j - 1] + glyph_prominence(b[j - 1]);
            let sub_cost = if a[i - 1] == b[j - 1] {
                0.0
            } else {
                char_confusability_legacy(a[i - 1], b[j - 1])
            };
            let sub = d[(i - 1) * w + j - 1] + sub_cost;
            let mut best = del.min(ins).min(sub);
            if i > 1
                && j > 1
                && a[i - 1] == b[j - 2]
                && a[i - 2] == b[j - 1]
                && a[i - 1] != a[i - 2]
            {
                best = best.min(d[(i - 2) * w + j - 2] + 0.3);
            }
            d[i * w + j] = best;
        }
    }
    d[n * w + m]
}

/// The string-based DL-1 generator: per-candidate `String` allocation,
/// `HashSet` first-wins dedup, per-candidate fat-finger and visual DPs.
fn generate_dl1_legacy(target: &DomainName) -> Vec<TypoCandidate> {
    let sld: Vec<char> = target.sld().chars().collect();
    let n = sld.len();
    let mut seen: HashSet<String> = HashSet::new();
    seen.insert(target.sld().to_owned());
    let mut out = Vec::new();

    let mut push = |variant: String, kind: MistakeKind, position: usize, out: &mut Vec<_>| {
        if variant.starts_with('-') || variant.ends_with('-') || variant.is_empty() {
            return;
        }
        if seen.contains(&variant) {
            return;
        }
        let Ok(domain) = target.with_sld(&variant) else {
            seen.insert(variant);
            return;
        };
        let fat_finger = fat_finger_legacy(target.sld(), &variant) == Some(1);
        let visual = visual_legacy(target.sld(), &variant);
        seen.insert(variant);
        out.push(TypoCandidate {
            domain,
            target: target.clone(),
            kind,
            position,
            fat_finger,
            visual,
        });
    };

    // Deletions.
    for i in 0..n {
        let mut v = String::with_capacity(n - 1);
        v.extend(sld.iter().take(i));
        v.extend(sld.iter().skip(i + 1));
        push(v, MistakeKind::Deletion, i, &mut out);
    }
    // Transpositions of neighbors.
    for i in 0..n.saturating_sub(1) {
        if sld[i] == sld[i + 1] {
            continue;
        }
        let mut v: Vec<char> = sld.clone();
        v.swap(i, i + 1);
        push(
            v.into_iter().collect(),
            MistakeKind::Transposition,
            i,
            &mut out,
        );
    }
    // Substitutions.
    for i in 0..n {
        for c in keyboard::alphabet() {
            if c == sld[i] {
                continue;
            }
            let mut v: Vec<char> = sld.clone();
            v[i] = c;
            push(
                v.into_iter().collect(),
                MistakeKind::Substitution,
                i,
                &mut out,
            );
        }
    }
    // Additions (insert before position i, 0..=n).
    for i in 0..=n {
        for c in keyboard::alphabet() {
            let mut v = String::with_capacity(n + 1);
            v.extend(sld.iter().take(i));
            v.push(c);
            v.extend(sld.iter().skip(i));
            push(v, MistakeKind::Addition, i, &mut out);
        }
    }
    out
}

/// A candidate list with each visual score as raw bits, so list equality
/// is bitwise.
fn bitwise(cands: &[TypoCandidate]) -> Vec<(&str, MistakeKind, usize, bool, u64)> {
    cands
        .iter()
        .map(|c| {
            let visual = c.visual.to_bits();
            (c.domain.as_str(), c.kind, c.position, c.fat_finger, visual)
        })
        .collect()
}

// ------------------------------------------------------------- fixed cases

/// Labels where affix trimming meets transpositions.
const DL_EDGE_PAIRS: [(&str, &str); 9] = [
    ("aab", "aba"),
    ("aba", "aab"),
    ("baa", "aba"),
    ("abab", "baba"),
    ("xxabyy", "xxbayy"),
    ("aaaa", "aaa"),
    ("abcde", "abcde"),
    ("ab", "ba"),
    ("a", ""),
];

/// Fat-finger pairs: adjacent and distant keys, empty sides.
const FF_EDGE_PAIRS: [(&str, &str); 8] = [
    ("outlook", "outlo0k"),
    ("outlook", "xoutlook"),
    ("gmail", "gmaxil"),
    ("gmail", "gmaiql"),
    ("verizon", "vexizon"),
    ("", "a"),
    ("a", ""),
    ("ab", "ba"),
];

/// Visual pairs: look-alikes, glaring substitutions, empty sides.
const VISUAL_EDGE_PAIRS: [(&str, &str); 7] = [
    ("outlook", "outlo0k"),
    ("outlook", "outmook"),
    ("gmail", "gmial"),
    ("gmail", ""),
    ("", "gmail"),
    ("paypal", "paypa1"),
    ("verizon", "evrizon"),
];

/// Generator targets: doubled letters, single-char and hyphenated labels,
/// then the synthetic popularity list's head.
fn generator_targets() -> Vec<DomainName> {
    let mut targets: Vec<DomainName> = [
        "gmail.com",
        "outlook.com",
        "aa.org",
        "x.org",
        "a-b.net",
        "zzzaaa.com",
    ]
    .iter()
    .map(|s| s.parse().expect("valid name"))
    .collect();
    targets.extend(alexa::synthetic_targets(150));
    targets
}

// ------------------------------------------------------------------- checks

/// The byte-level table engine emits exactly the oracle generator's
/// candidate list: same domains, kinds, positions, fat-finger flags,
/// and bitwise-identical visual scores, in the same order — on the fixed
/// targets and on sampled labels.
#[test]
fn table_engine_matches_legacy() {
    for target in generator_targets() {
        let legacy = generate_dl1_legacy(&target);
        let new = typogen::generate_dl1(&target);
        assert_eq!(bitwise(&legacy), bitwise(&new), "{target}");
    }
    table_engine_matches_legacy_sampled();
}

/// The rolling-row DL kernel (with affix trimming) agrees with the
/// full-matrix oracle — on the edge pairs, on sampled labels, and on
/// small alphabets, where the repeated characters exercise the
/// transposition-across-trim cases.
#[test]
fn dl_matches_legacy() {
    for (a, b) in DL_EDGE_PAIRS {
        assert_eq!(
            distance::damerau_levenshtein(a, b),
            damerau_levenshtein_legacy(a, b),
            "{a} vs {b}"
        );
    }
    dl_matches_legacy_sampled();
}

/// The rolling-row fat-finger kernel agrees with the full-matrix oracle.
#[test]
fn fat_finger_matches_legacy() {
    for (a, b) in FF_EDGE_PAIRS {
        assert_eq!(
            distance::fat_finger(a, b),
            fat_finger_legacy(a, b),
            "{a} vs {b}"
        );
    }
    fat_finger_matches_legacy_sampled();
}

/// The rolling-row visual kernel is bitwise-identical to the full-matrix
/// oracle.
#[test]
fn visual_matches_legacy_bitwise() {
    for (a, b) in VISUAL_EDGE_PAIRS {
        assert_eq!(
            distance::visual(a, b).to_bits(),
            visual_legacy(a, b).to_bits(),
            "{a} vs {b}"
        );
    }
    visual_matches_legacy_bitwise_sampled();
}

proptest! {
    fn table_engine_matches_legacy_sampled(s in sld()) {
        let target = domain(&s, "com");
        let legacy = generate_dl1_legacy(&target);
        let new = typogen::generate_dl1(&target);
        prop_assert_eq!(bitwise(&legacy), bitwise(&new));
    }

    fn dl_matches_legacy_sampled(a in sld(), b in sld(), x in "[ab]{0,6}", y in "[ab]{0,6}") {
        prop_assert_eq!(
            distance::damerau_levenshtein(&a, &b),
            damerau_levenshtein_legacy(&a, &b)
        );
        prop_assert_eq!(
            distance::damerau_levenshtein(&x, &y),
            damerau_levenshtein_legacy(&x, &y)
        );
    }

    fn fat_finger_matches_legacy_sampled(a in sld(), b in sld()) {
        prop_assert_eq!(distance::fat_finger(&a, &b), fat_finger_legacy(&a, &b));
        prop_assert_eq!(
            distance::is_ff1(&a, &b),
            fat_finger_legacy(&a, &b) == Some(1)
        );
    }

    fn visual_matches_legacy_bitwise_sampled(a in sld(), b in sld()) {
        prop_assert_eq!(
            distance::visual(&a, &b).to_bits(),
            visual_legacy(&a, &b).to_bits()
        );
    }

    /// All three metrics match the oracles on arbitrary text: uppercase
    /// ASCII runs the byte kernels, anything else the `char` kernels.
    /// `char_confusability` matches the pair-list walk on every char pair
    /// drawn, and on each drawn char against itself, a digit, `-` and a
    /// letter.
    #[test]
    fn metrics_match_oracles_on_any_text(a in text(), b in text()) {
        prop_assert_eq!(
            distance::damerau_levenshtein(&a, &b),
            damerau_levenshtein_legacy(&a, &b)
        );
        prop_assert_eq!(distance::fat_finger(&a, &b), fat_finger_legacy(&a, &b));
        prop_assert_eq!(
            distance::visual(&a, &b).to_bits(),
            visual_legacy(&a, &b).to_bits()
        );
        for x in a.chars() {
            for y in b.chars().chain([x, '7', '-', 'q']) {
                prop_assert_eq!(
                    distance::char_confusability(x, y).to_bits(),
                    char_confusability_legacy(x, y).to_bits()
                );
                prop_assert_eq!(
                    distance::char_confusability(y, x).to_bits(),
                    char_confusability_legacy(y, x).to_bits()
                );
            }
        }
    }

    /// `classify_dl1` recovers every generated candidate's full record and
    /// rejects the target itself.
    #[test]
    fn classify_roundtrips_generated(s in sld()) {
        let target = domain(&s, "net");
        for cand in typogen::generate_dl1(&target) {
            let got = typogen::classify_dl1(&target, &cand.domain);
            prop_assert_eq!(got.as_ref(), Some(&cand));
        }
        prop_assert!(typogen::classify_dl1(&target, &target).is_none());
    }

    /// The reverse index returns exactly the brute-force scan's target
    /// set for arbitrary queries over an arbitrary target list.
    #[test]
    fn revindex_matches_brute_force(
        slds in proptest::collection::vec(sld(), 1..8),
        q in sld(),
    ) {
        let mut slds = slds;
        slds.dedup();
        let targets: Vec<DomainName> = slds.iter().map(|s| domain(s, "com")).collect();
        let index = ReverseDl1Index::build(&targets);
        let query = domain(&q, "com");
        let brute: Vec<usize> = targets
            .iter()
            .enumerate()
            .filter(|(_, t)| distance::damerau_levenshtein(t.sld(), query.sld()) == 1)
            .map(|(k, _)| k)
            .collect();
        prop_assert_eq!(index.matches(&query), brute.clone());
        prop_assert_eq!(index.is_typo(&query), !brute.is_empty());
    }
}

/// Table-driven equivalence of the const keyboard, confusability and
/// glyph tables against their scan-based definitions, over the whole
/// ASCII range.
#[test]
fn const_tables_match_scans() {
    for a in 0u8..128 {
        assert_eq!(
            distance::GLYPH[a as usize].to_bits(),
            glyph_prominence(a as char).to_bits(),
            "glyph {a}"
        );
        for b in 0u8..128 {
            assert_eq!(
                keyboard::ADJACENCY[a as usize][b as usize],
                adjacent_by_scan(a as char, b as char),
                "adjacency {a} vs {b}"
            );
            assert_eq!(
                distance::CONFUSABILITY[a as usize][b as usize].to_bits(),
                char_confusability_legacy(a as char, b as char).to_bits(),
                "confusability {a} vs {b}"
            );
        }
    }
}

/// The tables' symmetry, spot-checked at runtime too (the build asserts
/// it at compile time).
#[test]
fn adjacency_table_symmetric() {
    for a in 0usize..128 {
        for b in 0usize..128 {
            assert_eq!(keyboard::ADJACENCY[a][b], keyboard::ADJACENCY[b][a]);
        }
    }
}

/// The reverse index explains a query exactly as searching each target's
/// generated candidate list would.
#[test]
fn explain_equals_generator_search() {
    let targets: Vec<DomainName> = ["gmail.com", "gmal.com", "outlook.com", "a.com"]
        .iter()
        .map(|s| s.parse().unwrap())
        .collect();
    let index = ReverseDl1Index::build(&targets);
    for t in &targets {
        for cand in typogen::generate_dl1(t) {
            let explained = index.explain(&cand.domain);
            let expected: Vec<_> = targets
                .iter()
                .filter_map(|x| {
                    typogen::generate_dl1(x)
                        .into_iter()
                        .find(|c| c.domain == cand.domain)
                })
                .collect();
            assert_eq!(explained, expected, "query {}", cand.domain);
        }
    }
}

/// The table's column accessors agree with the records it materializes.
#[test]
fn table_columns_agree_with_candidates() {
    let target: DomainName = "hotmail.com".parse().unwrap();
    let table = TypoTable::generate(&target);
    let cands = typogen::generate_dl1(&target);
    assert_eq!(table.len(), cands.len());
    for (i, c) in cands.iter().enumerate() {
        assert_eq!(table.sld(i), c.domain.sld());
        assert_eq!(table.kind(i), c.kind);
        assert_eq!(table.position(i), c.position);
        assert_eq!(table.fat_finger(i), c.fat_finger);
        assert_eq!(table.visual(i).to_bits(), c.visual.to_bits());
        assert_eq!(table.candidate(i), *c);
    }
}
