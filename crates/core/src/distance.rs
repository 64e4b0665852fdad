//! Distance metrics between domain names.
//!
//! Three metrics from the paper's Section 3:
//!
//! * [`damerau_levenshtein`] — minimum number of insertions, deletions,
//!   substitutions, or transpositions of adjacent characters (the "DL"
//!   distance; typosquatting papers conventionally use DL-1).
//! * [`fat_finger`] — Moore & Edelman's restriction of DL where every
//!   operation must involve characters adjacent on a QWERTY keyboard
//!   (an FF-1 typo is always a DL-1 typo).
//! * [`visual`] — a heuristic measuring how different a mistyped string
//!   *looks*, built from per-character confusability weights (`o`/`0` and
//!   `l`/`1` are nearly invisible; `g`/`h` is glaring).
//!
//! Each metric is one rolling-row DP, generic over the crate-private
//! `Symbol` trait. Domain labels are ASCII, so the hot paths run it on
//! bytes, where every keyboard or glyph question is one load from the
//! `const` [`keyboard::ADJACENCY`], [`GLYPH`] and [`CONFUSABILITY`]
//! tables; any other input runs the same recurrence on `char`s. The
//! equivalence suite `tests/typo_equivalence.rs` holds the textbook
//! full-matrix forms and checks every kernel against them, bitwise for
//! the visual distance, on ASCII and non-ASCII input.

use crate::keyboard;

/// A character the distance kernels compare: a byte of an ASCII label or
/// a `char` of anything else. The `char` impl hands ASCII to the byte
/// tables, so both impls agree wherever both apply.
pub(crate) trait Symbol: Copy + Eq {
    /// Whether the two keys are QWERTY neighbors.
    fn adjacent(self, other: Self) -> bool;
    /// Visual weight of the glyph when it is inserted or deleted.
    fn glyph(self) -> f64;
    /// Visual cost of typing `typed` where `self` was intended.
    fn confusability(self, typed: Self) -> f64;
}

impl Symbol for u8 {
    #[inline]
    fn adjacent(self, other: u8) -> bool {
        keyboard::adjacent_bytes(self, other)
    }

    #[inline]
    fn glyph(self) -> f64 {
        GLYPH[self as usize]
    }

    #[inline]
    fn confusability(self, typed: u8) -> f64 {
        CONFUSABILITY[self as usize][typed as usize]
    }
}

impl Symbol for char {
    fn adjacent(self, other: char) -> bool {
        keyboard::adjacent(self, other)
    }

    fn glyph(self) -> f64 {
        if self.is_ascii() {
            (self as u8).glyph()
        } else {
            0.7
        }
    }

    fn confusability(self, typed: char) -> f64 {
        if self.is_ascii() && typed.is_ascii() {
            return (self as u8).confusability(typed as u8);
        }
        // A non-ASCII glyph is in no look-alike pair; the class rules of
        // `confusability_scan` decide.
        if self == typed {
            0.0
        } else if self.is_ascii_digit() || typed.is_ascii_digit() {
            0.9
        } else if self == '-' || typed == '-' {
            0.6
        } else {
            0.8
        }
    }
}

fn chars(s: &str) -> Vec<char> {
    s.chars().collect()
}

/// Damerau-Levenshtein distance (restricted edit distance with adjacent
/// transpositions), computed over the full strings.
///
/// This is the "optimal string alignment" variant used throughout the
/// typosquatting literature: a substring may not be edited more than once,
/// which is exactly the regime of single typing mistakes that DL-1 captures.
///
/// ```
/// use ets_core::distance::damerau_levenshtein;
/// assert_eq!(damerau_levenshtein("gmail", "gmial"), 1); // transposition
/// assert_eq!(damerau_levenshtein("gmail", "gmal"), 1);  // deletion
/// assert_eq!(damerau_levenshtein("gmail", "gmaiql"), 1); // addition
/// assert_eq!(damerau_levenshtein("gmail", "gmaik"), 1); // substitution
/// assert_eq!(damerau_levenshtein("gmail", "gmail"), 0);
/// ```
pub fn damerau_levenshtein(a: &str, b: &str) -> usize {
    if a.is_ascii() && b.is_ascii() {
        dl_rows(a.as_bytes(), b.as_bytes())
    } else {
        dl_rows(&chars(a), &chars(b))
    }
}

/// Fat-finger distance: like [`damerau_levenshtein`], but substitutions and
/// insertions only count as a single operation when the characters involved
/// are QWERTY-adjacent; otherwise that alignment is forbidden (treated as
/// unreachable, cost ∞ for the restricted operation).
///
/// Deletions and transpositions are always allowed (deleting a character or
/// swapping two neighbors is a fat-finger slip regardless of geometry),
/// matching Moore & Edelman's definition where the *typed* stray character
/// must be adjacent to an intended one. An inserted character equal to a
/// neighboring intended character is also allowed: double-pressing a key is
/// the canonical fat-finger insertion (`outlook` → `outloook`).
///
/// Returns `None` when `b` cannot be produced from `a` by *any* sequence
/// of fat-finger operations. Note that a non-FF-1 string may still have a
/// finite fat-finger distance greater than one via a chain of allowed
/// operations (e.g. a deletion plus an adjacent insertion); use
/// [`is_ff1`] when testing the single-mistake regime the paper studies.
///
/// ```
/// use ets_core::distance::fat_finger;
/// assert_eq!(fat_finger("outlook", "outlo0k"), Some(1));  // 0 adjacent to o
/// assert_eq!(fat_finger("outlook", "outloook"), Some(1)); // doubled key
/// assert_eq!(fat_finger("gmail", "gmial"), Some(1));      // transposition
/// assert_ne!(fat_finger("verizon", "vexizon"), Some(1));  // x not near r
/// ```
pub fn fat_finger(a: &str, b: &str) -> Option<usize> {
    let d = if a.is_ascii() && b.is_ascii() {
        fat_finger_rows(a.as_bytes(), b.as_bytes())
    } else {
        fat_finger_rows(&chars(a), &chars(b))
    };
    (d < INF).then_some(d)
}

/// True when `typo` is at fat-finger distance exactly one from `target`.
pub fn is_ff1(target: &str, typo: &str) -> bool {
    fat_finger(target, typo) == Some(1)
}

/// True when `typo` is at Damerau-Levenshtein distance exactly one from
/// `target`.
pub fn is_dl1(target: &str, typo: &str) -> bool {
    damerau_levenshtein(target, typo) == 1
}

/// The DL recurrence: trims the common prefix/suffix, then runs three
/// rolling rows over what remains. Trimming preserves the OSA distance
/// (a transposition never spans a matched boundary character
/// profitably).
fn dl_rows<S: Symbol>(a: &[S], b: &[S]) -> usize {
    let mut lo = 0;
    let (mut ahi, mut bhi) = (a.len(), b.len());
    while lo < ahi && lo < bhi && a[lo] == b[lo] {
        lo += 1;
    }
    while ahi > lo && bhi > lo && a[ahi - 1] == b[bhi - 1] {
        ahi -= 1;
        bhi -= 1;
    }
    let a = &a[lo..ahi];
    let b = &b[lo..bhi];
    let (n, m) = (a.len(), b.len());
    if n == 0 {
        return m;
    }
    if m == 0 {
        return n;
    }
    let mut prev2 = vec![0usize; m + 1];
    let mut prev: Vec<usize> = (0..=m).collect();
    let mut cur = vec![0usize; m + 1];
    for i in 1..=n {
        cur[0] = i;
        for j in 1..=m {
            let cost = usize::from(a[i - 1] != b[j - 1]);
            let mut best = (prev[j] + 1) // deletion
                .min(cur[j - 1] + 1) // insertion
                .min(prev[j - 1] + cost); // substitution / match
            if i > 1 && j > 1 && a[i - 1] == b[j - 2] && a[i - 2] == b[j - 1] {
                best = best.min(prev2[j - 2] + 1); // transposition
            }
            cur[j] = best;
        }
        std::mem::swap(&mut prev2, &mut prev);
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[m]
}

/// Unreachable-alignment sentinel for the fat-finger DP.
const INF: usize = usize::MAX / 4;

/// The fat-finger recurrence over three rolling rows: substitutions
/// require adjacency between the intended and the typed character;
/// insertions require the inserted character to be adjacent to (or a
/// double-press of) a neighboring intended character. No affix trimming:
/// insertion legality depends on the neighboring *intended* characters,
/// which trimming would remove.
fn fat_finger_rows<S: Symbol>(a: &[S], b: &[S]) -> usize {
    let (n, m) = (a.len(), b.len());
    if n == 0 || m == 0 {
        // With an empty reference there is nothing for an inserted
        // character to be adjacent to.
        return if n == m { 0 } else { INF };
    }
    let mut prev2 = vec![INF; m + 1];
    let mut prev = vec![INF; m + 1];
    let mut cur = vec![INF; m + 1];
    prev[0] = 0;
    for j in 1..=m {
        // Leading insertions: inserted b[j-1] must neighbor (or equal —
        // doubled keypress) the first intended character a[0].
        if (b[j - 1] == a[0] || b[j - 1].adjacent(a[0])) && prev[j - 1] < INF {
            prev[j] = prev[j - 1] + 1;
        }
    }
    for i in 1..=n {
        cur[0] = i; // deletions always allowed
        for j in 1..=m {
            let mut best = INF;
            // deletion of a[i-1]
            if prev[j] < INF {
                best = best.min(prev[j] + 1);
            }
            // insertion of b[j-1]: the stray key must be adjacent to (or a
            // double-press of) an intended character next to the insertion
            // point.
            if cur[j - 1] < INF {
                let near = |x: S| b[j - 1] == x || b[j - 1].adjacent(x);
                if near(a[i - 1]) || (i < n && near(a[i])) {
                    best = best.min(cur[j - 1] + 1);
                }
            }
            // match / substitution
            if prev[j - 1] < INF {
                if a[i - 1] == b[j - 1] {
                    best = best.min(prev[j - 1]);
                } else if a[i - 1].adjacent(b[j - 1]) {
                    best = best.min(prev[j - 1] + 1);
                }
            }
            // transposition
            if i > 1 && j > 1 && a[i - 1] == b[j - 2] && a[i - 2] == b[j - 1] && prev2[j - 2] < INF
            {
                best = best.min(prev2[j - 2] + 1);
            }
            cur[j] = best;
        }
        std::mem::swap(&mut prev2, &mut prev);
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[m]
}

/// Near-identical glyph pairs (byte form, lowercase) with their
/// confusability: the pair list [`CONFUSABILITY`] is built from.
pub const LOOKALIKES: &[(u8, u8, f64)] = &[
    (b'o', b'0', 0.05),
    (b'l', b'1', 0.05),
    (b'i', b'1', 0.10),
    (b'i', b'l', 0.10),
    (b'i', b'j', 0.25),
    (b'm', b'n', 0.25),
    (b'u', b'v', 0.25),
    (b'v', b'w', 0.30),
    (b'u', b'w', 0.40),
    (b'c', b'e', 0.40),
    (b'e', b'o', 0.45),
    (b'c', b'o', 0.40),
    (b'g', b'q', 0.35),
    (b'b', b'd', 0.45),
    (b'p', b'q', 0.45),
    (b'h', b'n', 0.40),
    (b'f', b't', 0.45),
    (b's', b'5', 0.30),
    (b'b', b'8', 0.35),
    (b'g', b'9', 0.40),
    (b'z', b'2', 0.40),
    (b'a', b'4', 0.50),
    (b't', b'7', 0.50),
    (b'e', b'3', 0.40),
];

/// Confusability of one ASCII byte pair, used to fill [`CONFUSABILITY`].
const fn confusability_scan(a: u8, b: u8) -> f64 {
    let a = a.to_ascii_lowercase();
    let b = b.to_ascii_lowercase();
    if a == b {
        return 0.0;
    }
    let mut k = 0;
    while k < LOOKALIKES.len() {
        let (x, y, v) = LOOKALIKES[k];
        if (a == x && b == y) || (a == y && b == x) {
            return v;
        }
        k += 1;
    }
    let digit_a = a.is_ascii_digit();
    let digit_b = b.is_ascii_digit();
    match (digit_a, digit_b) {
        // Letter for letter: moderately visible.
        (false, false) if a != b'-' && b != b'-' => 0.8,
        // Digit for digit.
        (true, true) => 0.7,
        // Letter/digit with no glyph similarity: glaring.
        (true, false) | (false, true) => 0.9,
        // Hyphen involved: a dash in a name is conspicuous but thin.
        _ => 0.6,
    }
}

const fn build_confusability() -> [[f64; 128]; 128] {
    let mut table = [[0.0f64; 128]; 128];
    let mut a = 0;
    while a < 128 {
        let mut b = 0;
        while b < 128 {
            table[a][b] = confusability_scan(a as u8, b as u8);
            b += 1;
        }
        a += 1;
    }
    table
}

/// Precomputed [`char_confusability`] for every pair of ASCII bytes.
/// Entries are the exact literals of the pair list and class rules, so a
/// lookup is bit-identical to walking [`LOOKALIKES`] per call. A `static`
/// rather than a `const` so the 128 KiB table is built exactly once,
/// here, instead of at every use site.
#[allow(long_running_const_eval)] // 16k-cell table; finite by construction
pub static CONFUSABILITY: [[f64; 128]; 128] = build_confusability();

/// Visual confusability of substituting `typed` for `intended`, in `[0, 1]`:
/// `0.0` means the substitution is essentially invisible, `1.0` maximally
/// conspicuous.
///
/// The heuristic encodes the paper's observation that letter/digit
/// look-alikes (`o`/`0`, `l`/`1`) are far more likely to go unnoticed than
/// two different letters, and that some letter pairs (`i`/`l`, `m`/`n`,
/// `u`/`v`) are themselves easily confused.
pub fn char_confusability(intended: char, typed: char) -> f64 {
    intended.confusability(typed)
}

/// Glyph prominence of one ASCII byte, used to fill [`GLYPH`].
const fn glyph_scan(c: u8) -> f64 {
    match c {
        b'i' | b'l' | b'1' | b'j' | b'.' | b'-' => 0.35,
        b't' | b'f' | b'r' => 0.55,
        b'm' | b'w' => 0.9,
        _ => 0.7,
    }
}

const fn build_glyph() -> [f64; 128] {
    let mut table = [0.0f64; 128];
    let mut c = 0;
    while c < 128 {
        table[c] = glyph_scan(c as u8);
        c += 1;
    }
    table
}

/// Precomputed glyph prominence per ASCII byte (how much visual weight a
/// character carries when inserted or deleted).
pub const GLYPH: [f64; 128] = build_glyph();

/// Visual distance between a target name and a candidate typo.
///
/// Aligns the two strings with a DL trace and sums per-operation visual
/// weights: substitutions use [`char_confusability`]; transpositions of two
/// characters are mildly visible (0.3); a deletion is weighted by how much
/// the string shrinks visually (thin glyphs like `i`, `l` barely register);
/// an addition weighs like the inserted glyph's prominence. The result is
/// *not* normalized; the Section-6 regression normalizes by target length.
///
/// ```
/// use ets_core::distance::visual;
/// // outlo0k looks much closer to outlook than outmook does
/// assert!(visual("outlook", "outlo0k") < visual("outlook", "outmook"));
/// ```
pub fn visual(target: &str, typo: &str) -> f64 {
    let mut scratch = VisualScratch::default();
    if target.is_ascii() && typo.is_ascii() {
        visual_rows(target.as_bytes(), typo.as_bytes(), &mut scratch)
    } else {
        visual_rows(&chars(target), &chars(typo), &mut scratch)
    }
}

/// Reusable rolling rows for [`visual_rows`], so the typo engine scores
/// thousands of candidates without reallocating.
#[derive(Default)]
pub(crate) struct VisualScratch {
    prev2: Vec<f64>,
    prev: Vec<f64>,
    cur: Vec<f64>,
}

/// The visual recurrence over three rolling rows. Each cell adds the same
/// terms in the same order as the full-matrix form, so the result is
/// bit-identical to it; only the storage differs.
pub(crate) fn visual_rows<S: Symbol>(a: &[S], b: &[S], s: &mut VisualScratch) -> f64 {
    let (n, m) = (a.len(), b.len());
    let w = m + 1;
    s.prev2.clear();
    s.prev2.resize(w, f64::INFINITY);
    s.prev.clear();
    s.prev.resize(w, f64::INFINITY);
    s.cur.clear();
    s.cur.resize(w, f64::INFINITY);
    s.prev[0] = 0.0;
    for j in 1..=m {
        s.prev[j] = s.prev[j - 1] + b[j - 1].glyph();
    }
    let mut col0 = 0.0;
    for i in 1..=n {
        col0 += a[i - 1].glyph();
        s.cur[0] = col0;
        for j in 1..=m {
            let del = s.prev[j] + a[i - 1].glyph();
            let ins = s.cur[j - 1] + b[j - 1].glyph();
            let sub_cost = if a[i - 1] == b[j - 1] {
                0.0
            } else {
                a[i - 1].confusability(b[j - 1])
            };
            let sub = s.prev[j - 1] + sub_cost;
            let mut best = del.min(ins).min(sub);
            if i > 1
                && j > 1
                && a[i - 1] == b[j - 2]
                && a[i - 2] == b[j - 1]
                && a[i - 1] != a[i - 2]
            {
                best = best.min(s.prev2[j - 2] + 0.3);
            }
            s.cur[j] = best;
        }
        std::mem::swap(&mut s.prev2, &mut s.prev);
        std::mem::swap(&mut s.prev, &mut s.cur);
    }
    s.prev[m]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dl_identity() {
        assert_eq!(damerau_levenshtein("gmail", "gmail"), 0);
        assert_eq!(damerau_levenshtein("", ""), 0);
    }

    #[test]
    fn dl_empty() {
        assert_eq!(damerau_levenshtein("", "abc"), 3);
        assert_eq!(damerau_levenshtein("abc", ""), 3);
    }

    #[test]
    fn dl_single_ops() {
        assert_eq!(damerau_levenshtein("hotmail", "hotmial"), 1); // transposition
        assert_eq!(damerau_levenshtein("hotmail", "hotmal"), 1); // deletion
        assert_eq!(damerau_levenshtein("hotmail", "hotmaill"), 1); // addition
        assert_eq!(damerau_levenshtein("hotmail", "hovmail"), 1); // substitution
    }

    #[test]
    fn dl_counts_multiple_ops() {
        assert_eq!(damerau_levenshtein("gmail", "gmx"), 3);
        assert_eq!(damerau_levenshtein("verizon", "horizon"), 2);
    }

    #[test]
    fn dl_transposition_not_two_substitutions() {
        assert_eq!(damerau_levenshtein("ab", "ba"), 1);
        assert_eq!(damerau_levenshtein("abcd", "acbd"), 1);
    }

    #[test]
    fn ff_implies_dl() {
        // Every FF-1 pair must be DL-1 (the paper states this implication).
        let pairs = [
            ("outlook", "outlo0k"),
            ("outlook", "ohtlook"),
            ("outlook", "outloook"),
            ("hotmail", "ho6mail"),
            ("verizon", "ve5izon"),
        ];
        for (t, typo) in pairs {
            assert_eq!(fat_finger(t, typo), Some(1), "{t} -> {typo}");
            assert_eq!(damerau_levenshtein(t, typo), 1, "{t} -> {typo}");
        }
    }

    #[test]
    fn ff_rejects_distant_keys() {
        assert_ne!(fat_finger("verizon", "vexizon"), Some(1)); // r vs x
        assert_eq!(fat_finger("gmail", "gmqil"), Some(1)); // a vs q adjacent
        assert_eq!(fat_finger("gmail", "gmzil"), Some(1)); // a vs z adjacent
        assert_ne!(fat_finger("gmail", "gmpil"), Some(1)); // a vs p distant
    }

    #[test]
    fn ff_deletion_always_allowed() {
        assert_eq!(fat_finger("yopmail", "yopail"), Some(1));
        assert_eq!(fat_finger("zohomail", "zohomil"), Some(1));
    }

    #[test]
    fn ff_transposition_always_allowed() {
        assert_eq!(fat_finger("zohomail", "zohomial"), Some(1));
    }

    #[test]
    fn ff_insertion_needs_adjacency() {
        // k is adjacent to both i and l, so inserting it between them is FF-1.
        assert_eq!(fat_finger("gmail", "gmaikl"), Some(1));
        // Inserting x between a and i: x neighbors z,c,s,d — none of a/i/l,
        // so the single-insertion route is forbidden and the cheapest
        // fat-finger route needs several operations.
        assert!(fat_finger("gmail", "gmaxil").is_none_or(|d| d > 1));
        // gmaiql (a domain the paper registered) is DL-1 but NOT FF-1:
        // q neighbors neither i nor l.
        assert_eq!(damerau_levenshtein("gmail", "gmaiql"), 1);
        assert!(!is_ff1("gmail", "gmaiql"));
    }

    #[test]
    fn ff_double_press_insertion() {
        assert_eq!(fat_finger("outlook", "outloook"), Some(1));
        assert_eq!(fat_finger("gmail", "ggmail"), Some(1));
        assert_eq!(fat_finger("gmail", "gmaill"), Some(1));
    }

    #[test]
    fn ff_identity_is_zero() {
        assert_eq!(fat_finger("comcast", "comcast"), Some(0));
    }

    #[test]
    fn visual_lookalikes_are_cheap() {
        assert!(visual("outlook", "outlo0k") < 0.2);
        assert!(visual("paypal", "paypa1") < 0.2);
    }

    #[test]
    fn visual_orders_paper_examples() {
        // §4.4.2: for a target, low-visual-distance FF-1 typos win.
        assert!(visual("outlook", "outlo0k") < visual("outlook", "outmook"));
        assert!(visual("verizon", "evrizon") < visual("verizon", "vebizon") + 0.5);
        assert!(visual("gmail", "gmial") < visual("gmail", "qmail"));
    }

    #[test]
    fn visual_zero_iff_equal() {
        assert_eq!(visual("gmail", "gmail"), 0.0);
        assert!(visual("gmail", "gmial") > 0.0);
    }

    #[test]
    fn visual_deletion_weights_glyph() {
        // Deleting thin 'i' is less visible than deleting wide 'm'.
        assert!(visual("gmail", "gmal") < visual("gmail", "gail"));
    }

    #[test]
    fn confusability_symmetric() {
        for a in crate::keyboard::alphabet() {
            for b in crate::keyboard::alphabet() {
                assert_eq!(
                    char_confusability(a, b),
                    char_confusability(b, a),
                    "{a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn confusability_bounds() {
        for a in crate::keyboard::alphabet() {
            for b in crate::keyboard::alphabet() {
                let v = char_confusability(a, b);
                assert!((0.0..=1.0).contains(&v));
                if a == b {
                    assert_eq!(v, 0.0);
                } else {
                    assert!(v > 0.0);
                }
            }
        }
    }
}
