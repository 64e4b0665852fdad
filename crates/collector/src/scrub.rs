//! The sensitive-information filter (§4.2.2, Table 2, Figure 6).
//!
//! Flags and removes personal identifiers before anything is stored,
//! using the HIPAA identifier list as the baseline. Each identifier type
//! has a dedicated recognizer (credit cards are Luhn-validated and
//! brand-classified; SSNs/EINs/phones/dates are shape-matched; VINs obey
//! the 17-character alphabet; passwords/usernames key on context words).
//! Matches are replaced by `*_|R|_*<label>*<zeroed>*_|R|_*` markers — the
//! exact format of the paper's Figure 2 example — and, as an added
//! precaution, every remaining digit in the text is zeroed.

//!
//! The keyword-cued recognizers (passwords/usernames, zip cues, broad id
//! numbers) scan through compiled `ets-scan` automata: one case-folding
//! pass locates every cue, and the expensive per-candidate validators
//! only run near real hits — no `to_ascii_lowercase` copy of the text or
//! of each candidate's context window. The pre-automaton recognizers are
//! retained behind [`scrub_legacy`], the oracle of the equivalence suite
//! `tests/scan_equivalence.rs`; they share the private shape, keyword and
//! cue tables with [`scrub`], so they live beside them.

use ets_scan::{contains_fold, PatternSet};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::OnceLock;

/// The identifier types of Table 2 / Figure 6.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum SensitiveKind {
    /// Payment card number (any brand).
    CreditCard,
    /// Social Security number.
    Ssn,
    /// Employer identification number.
    Ein,
    /// Password disclosed in text.
    Password,
    /// Vehicle identification number.
    Vin,
    /// Username/login disclosed in text.
    Username,
    /// ZIP code.
    Zip,
    /// Broad identification numbers (account, member, case ids).
    IdNumber,
    /// Email address.
    Email,
    /// Phone number.
    Phone,
    /// Calendar date.
    Date,
}

impl SensitiveKind {
    /// All kinds, Table-2 row order.
    pub const ALL: [SensitiveKind; 11] = [
        SensitiveKind::CreditCard,
        SensitiveKind::Ssn,
        SensitiveKind::Ein,
        SensitiveKind::Password,
        SensitiveKind::Vin,
        SensitiveKind::Username,
        SensitiveKind::Zip,
        SensitiveKind::IdNumber,
        SensitiveKind::Email,
        SensitiveKind::Phone,
        SensitiveKind::Date,
    ];

    /// Table-2 row label.
    pub fn label(self) -> &'static str {
        match self {
            SensitiveKind::CreditCard => "Credit card number",
            SensitiveKind::Ssn => "Social Security number",
            SensitiveKind::Ein => "Employer id. number",
            SensitiveKind::Password => "Password",
            SensitiveKind::Vin => "Vehicle id. number",
            SensitiveKind::Username => "Username",
            SensitiveKind::Zip => "Zip",
            SensitiveKind::IdNumber => "Identification number",
            SensitiveKind::Email => "Email address",
            SensitiveKind::Phone => "Phone number",
            SensitiveKind::Date => "Date",
        }
    }
}

impl fmt::Display for SensitiveKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Card brands (Figure 6 tallies these separately).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CardBrand {
    /// Visa (prefix 4).
    Visa,
    /// Mastercard (51–55, 2221–2720).
    Mastercard,
    /// American Express (34, 37).
    Amex,
    /// Diners Club (300–305, 36, 38).
    DinersClub,
    /// JCB (3528–3589).
    Jcb,
    /// Discover (6011, 65).
    Discover,
    /// Valid Luhn but unrecognized prefix.
    Other,
}

impl CardBrand {
    /// Marker label used in the replacement text.
    pub fn marker(self) -> &'static str {
        match self {
            CardBrand::Visa => "visa",
            CardBrand::Mastercard => "mastercard",
            CardBrand::Amex => "americanexpress",
            CardBrand::DinersClub => "dinersclub",
            CardBrand::Jcb => "jcb",
            CardBrand::Discover => "discover",
            CardBrand::Other => "card",
        }
    }

    fn classify(digits: &[u8]) -> CardBrand {
        let p2 = digits[0] as u32 * 10 + digits[1] as u32;
        let p3 = p2 * 10 + digits[2] as u32;
        let p4 = p3 * 10 + digits[3] as u32;
        match () {
            _ if digits[0] == 4 => CardBrand::Visa,
            _ if (51..=55).contains(&p2) || (2221..=2720).contains(&p4) => CardBrand::Mastercard,
            _ if p2 == 34 || p2 == 37 => CardBrand::Amex,
            _ if (300..=305).contains(&p3) || p2 == 36 || p2 == 38 => CardBrand::DinersClub,
            _ if (3528..=3589).contains(&p4) => CardBrand::Jcb,
            _ if p4 == 6011 || p2 == 65 => CardBrand::Discover,
            _ => CardBrand::Other,
        }
    }
}

/// One match found in the text.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Finding {
    /// What was found.
    pub kind: SensitiveKind,
    /// Byte range in the original text.
    pub start: usize,
    /// End of the byte range (exclusive).
    pub end: usize,
    /// Card brand, for credit cards.
    pub brand: Option<CardBrand>,
}

/// The scrubbed output.
#[derive(Debug, Clone, PartialEq)]
pub struct ScrubResult {
    /// Sanitized text: matches replaced by markers, all digits zeroed.
    pub text: String,
    /// What was found (kinds + original spans).
    pub findings: Vec<Finding>,
}

impl ScrubResult {
    /// Whether anything of `kind` was found.
    pub fn has(&self, kind: SensitiveKind) -> bool {
        self.findings.iter().any(|f| f.kind == kind)
    }

    /// Distinct kinds found.
    pub fn kinds(&self) -> Vec<SensitiveKind> {
        let mut v: Vec<SensitiveKind> = self.findings.iter().map(|f| f.kind).collect();
        v.sort();
        v.dedup();
        v
    }
}

/// Scrubs a text: finds every identifier, replaces spans with markers,
/// zeroes remaining digits.
pub fn scrub(text: &str) -> ScrubResult {
    let mut findings = Vec::new();
    find_credit_cards(text, &mut findings);
    find_shapes_fused(text, &mut findings);
    find_vins(text, &mut findings);
    find_emails(text, &mut findings);
    find_context_tokens(text, &mut findings);
    find_zips(text, &mut findings);
    find_id_numbers(text, &mut findings);
    assemble(text, findings)
}

/// The pre-`ets-scan` scrubber: identical recognizer lineup, but the
/// keyword-cued recognizers lowercase the text (and each candidate's
/// context window) and rescan per keyword. Retained as the oracle of the
/// equivalence suite; output is byte-identical with [`scrub`].
pub fn scrub_legacy(text: &str) -> ScrubResult {
    let mut findings = Vec::new();
    find_credit_cards(text, &mut findings);
    find_shape(text, "###-##-####", SensitiveKind::Ssn, &mut findings);
    find_shape(text, "##-#######", SensitiveKind::Ein, &mut findings);
    find_phones(text, &mut findings);
    find_dates(text, &mut findings);
    find_vins(text, &mut findings);
    find_emails(text, &mut findings);
    find_context_tokens_rescan(text, &mut findings);
    find_zips_rescan(text, &mut findings);
    find_id_numbers_rescan(text, &mut findings);
    assemble(text, findings)
}

/// Overlap resolution and text rebuild, shared by both scrub paths.
fn assemble(text: &str, findings: Vec<Finding>) -> ScrubResult {
    // Resolve overlaps: earlier recognizers above have higher priority;
    // stable-sort by (start, priority as inserted) and drop overlaps.
    let mut accepted: Vec<Finding> = Vec::new();
    let mut order: Vec<(usize, Finding)> = findings.into_iter().enumerate().collect();
    order.sort_by_key(|(i, f)| (f.start, *i));
    for (_, f) in order {
        if accepted
            .iter()
            .all(|a| f.end <= a.start || f.start >= a.end)
        {
            accepted.push(f);
        }
    }
    accepted.sort_by_key(|f| f.start);

    // Rebuild the text, appending in place (no per-segment strings).
    let mut out = String::with_capacity(text.len());
    let mut cursor = 0usize;
    for f in &accepted {
        push_zero_digits(&mut out, &text[cursor..f.start]);
        let label = match (f.kind, f.brand) {
            (SensitiveKind::CreditCard, Some(b)) => b.marker(),
            (k, _) => marker_label(k),
        };
        out.push_str("*_|R|_*");
        out.push_str(label);
        out.push('*');
        push_zero_and_mask(&mut out, &text[f.start..f.end]);
        out.push_str("*_|R|_*");
        cursor = f.end;
    }
    push_zero_digits(&mut out, &text[cursor..]);
    ScrubResult {
        text: out,
        findings: accepted,
    }
}

fn marker_label(k: SensitiveKind) -> &'static str {
    match k {
        SensitiveKind::CreditCard => "card",
        SensitiveKind::Ssn => "ssn",
        SensitiveKind::Ein => "ein",
        SensitiveKind::Password => "password",
        SensitiveKind::Vin => "vin",
        SensitiveKind::Username => "username",
        SensitiveKind::Zip => "zip",
        SensitiveKind::IdNumber => "idnumber",
        SensitiveKind::Email => "email",
        SensitiveKind::Phone => "phone",
        SensitiveKind::Date => "date",
    }
}

fn push_zero_digits(out: &mut String, s: &str) {
    for c in s.chars() {
        out.push(if c.is_ascii_digit() { '0' } else { c });
    }
}

/// Zeroes digits and masks letters (used inside markers so even
/// non-numeric identifiers are unrecoverable).
fn push_zero_and_mask(out: &mut String, s: &str) {
    for c in s.chars() {
        out.push(if c.is_ascii_digit() {
            '0'
        } else if c.is_ascii_alphabetic() {
            'x'
        } else {
            c
        });
    }
}

fn is_boundary(bytes: &[u8], idx: usize) -> bool {
    if idx == 0 || idx >= bytes.len() {
        return true;
    }
    !bytes[idx].is_ascii_alphanumeric() || !bytes[idx - 1].is_ascii_alphanumeric()
}

/// Luhn checksum over a digit sequence.
pub fn luhn_valid(digits: &[u8]) -> bool {
    if digits.is_empty() {
        return false;
    }
    let mut sum = 0u32;
    for (i, &d) in digits.iter().rev().enumerate() {
        let mut v = d as u32;
        if i % 2 == 1 {
            v *= 2;
            if v > 9 {
                v -= 9;
            }
        }
        sum += v;
    }
    sum.is_multiple_of(10)
}

fn find_credit_cards(text: &str, out: &mut Vec<Finding>) {
    let bytes = text.as_bytes();
    let mut i = 0usize;
    while i < bytes.len() {
        if !bytes[i].is_ascii_digit() || !is_boundary(bytes, i) {
            i += 1;
            continue;
        }
        // Collect up to 19 digits allowing single spaces/dashes between
        // groups.
        let mut digits: Vec<u8> = Vec::with_capacity(19);
        let mut j = i;
        let mut last_digit_end = i;
        while j < bytes.len() && digits.len() < 19 {
            let c = bytes[j];
            if c.is_ascii_digit() {
                digits.push(c - b'0');
                j += 1;
                last_digit_end = j;
            } else if (c == b' ' || c == b'-')
                && j + 1 < bytes.len()
                && bytes[j + 1].is_ascii_digit()
                && !digits.is_empty()
            {
                j += 1;
            } else {
                break;
            }
        }
        // Must end at a boundary (not run into more digits).
        let clean_end = last_digit_end >= bytes.len() || !bytes[last_digit_end].is_ascii_digit();
        if digits.len() >= 13 && clean_end && luhn_valid(&digits) {
            out.push(Finding {
                kind: SensitiveKind::CreditCard,
                start: i,
                end: last_digit_end,
                brand: Some(CardBrand::classify(&digits)),
            });
            i = last_digit_end;
        } else {
            // skip this digit run entirely
            while i < bytes.len() && bytes[i].is_ascii_digit() {
                i += 1;
            }
        }
    }
}

/// Matches a literal shape where `#` is a digit and other characters match
/// themselves, requiring word boundaries at both ends.
fn find_shape(text: &str, shape: &str, kind: SensitiveKind, out: &mut Vec<Finding>) {
    let bytes = text.as_bytes();
    let pat = shape.as_bytes();
    if bytes.len() < pat.len() {
        return;
    }
    for start in 0..=bytes.len() - pat.len() {
        if !is_boundary(bytes, start) {
            continue;
        }
        let end = start + pat.len();
        if !is_boundary(bytes, end) {
            continue;
        }
        let m = pat.iter().enumerate().all(|(k, &p)| {
            let b = bytes[start + k];
            if p == b'#' {
                b.is_ascii_digit()
            } else {
                b == p
            }
        });
        if m {
            out.push(Finding {
                kind,
                start,
                end,
                brand: None,
            });
        }
    }
}

fn find_phones(text: &str, out: &mut Vec<Finding>) {
    // Shapes seen in the corpora, most specific first.
    for shape in [
        "+#.##########",
        "(###) ###-####",
        "(###)###-####",
        "###-###-####",
        "###.###.####",
        "+# ### ### ####",
    ] {
        find_shape(text, shape, SensitiveKind::Phone, out);
    }
}

fn find_dates(text: &str, out: &mut Vec<Finding>) {
    for shape in [
        "####-##-##",
        "##/##/####",
        "#/##/####",
        "##/#/####",
        "##/##/##",
        "##/##",
    ] {
        find_shape(text, shape, SensitiveKind::Date, out);
    }
}

/// The 14 fixed shapes of the SSN/EIN/phone/date recognizers, in legacy
/// scan order. The index is the overlap-resolution priority: `assemble`
/// breaks span ties by insertion order, so the fused scanner must replay
/// findings grouped by shape exactly as the per-shape loops inserted
/// them.
const SHAPES: [(&str, SensitiveKind); 14] = [
    ("###-##-####", SensitiveKind::Ssn),
    ("##-#######", SensitiveKind::Ein),
    ("+#.##########", SensitiveKind::Phone),
    ("(###) ###-####", SensitiveKind::Phone),
    ("(###)###-####", SensitiveKind::Phone),
    ("###-###-####", SensitiveKind::Phone),
    ("###.###.####", SensitiveKind::Phone),
    ("+# ### ### ####", SensitiveKind::Phone),
    ("####-##-##", SensitiveKind::Date),
    ("##/##/####", SensitiveKind::Date),
    ("#/##/####", SensitiveKind::Date),
    ("##/#/####", SensitiveKind::Date),
    ("##/##/##", SensitiveKind::Date),
    ("##/##", SensitiveKind::Date),
];

/// `SHAPES` indices grouped by first byte, the dispatch key: almost every
/// text position starts with none of digit/`(`/`+` and falls through
/// after a single class test, so one pass replaces fourteen.
const DIGIT_SHAPES: [u8; 10] = [0, 1, 5, 6, 8, 9, 10, 11, 12, 13];
const PAREN_SHAPES: [u8; 2] = [3, 4];
const PLUS_SHAPES: [u8; 2] = [2, 7];

/// All fourteen shape recognizers in a single left-to-right pass,
/// byte-identical to running [`find_shape`] once per shape (the loop
/// [`scrub_legacy`] still runs). Matches are collected as
/// `(shape, start)` and stable-replayed in that order to reproduce the
/// legacy insertion sequence.
fn find_shapes_fused(text: &str, out: &mut Vec<Finding>) {
    let bytes = text.as_bytes();
    let mut hits: Vec<(u8, usize)> = Vec::new();
    let try_shapes = |candidates: &[u8], start: usize, hits: &mut Vec<(u8, usize)>| {
        for &si in candidates {
            let pat = SHAPES[si as usize].0.as_bytes();
            let end = start + pat.len();
            if end > bytes.len() || !is_boundary(bytes, end) {
                continue;
            }
            let m = pat.iter().enumerate().all(|(k, &p)| {
                let b = bytes[start + k];
                if p == b'#' {
                    b.is_ascii_digit()
                } else {
                    b == p
                }
            });
            if m {
                hits.push((si, start));
            }
        }
    };
    for start in 0..bytes.len() {
        let candidates: &[u8] = match bytes[start] {
            b'0'..=b'9' => &DIGIT_SHAPES,
            b'(' => &PAREN_SHAPES,
            b'+' => &PLUS_SHAPES,
            _ => continue,
        };
        if !is_boundary(bytes, start) {
            continue;
        }
        try_shapes(candidates, start, &mut hits);
    }
    // Scanning left to right yields ascending starts per shape, so this
    // sort is exactly "group by shape, keep position order".
    hits.sort_unstable();
    for (si, start) in hits {
        let (shape, kind) = SHAPES[si as usize];
        out.push(Finding {
            kind,
            start,
            end: start + shape.len(),
            brand: None,
        });
    }
}

fn find_vins(text: &str, out: &mut Vec<Finding>) {
    let bytes = text.as_bytes();
    if bytes.len() < 17 {
        return;
    }
    for start in 0..=bytes.len() - 17 {
        if !is_boundary(bytes, start) || !is_boundary(bytes, start + 17) {
            continue;
        }
        let slice = &bytes[start..start + 17];
        let valid = slice.iter().all(|&c| {
            (c.is_ascii_digit() || c.is_ascii_uppercase()) && !matches!(c, b'I' | b'O' | b'Q')
        });
        if !valid {
            continue;
        }
        let n_digits = slice.iter().filter(|c| c.is_ascii_digit()).count();
        let n_alpha = 17 - n_digits;
        // Real VINs mix letters and digits heavily.
        if n_digits >= 5 && n_alpha >= 4 {
            out.push(Finding {
                kind: SensitiveKind::Vin,
                start,
                end: start + 17,
                brand: None,
            });
        }
    }
}

fn find_emails(text: &str, out: &mut Vec<Finding>) {
    let bytes = text.as_bytes();
    for (i, &b) in bytes.iter().enumerate() {
        if b != b'@' {
            continue;
        }
        // Expand left over local-part chars.
        let mut s = i;
        while s > 0 {
            let c = bytes[s - 1];
            if c.is_ascii_alphanumeric() || matches!(c, b'.' | b'_' | b'-' | b'+') {
                s -= 1;
            } else {
                break;
            }
        }
        // Expand right over domain chars.
        let mut e = i + 1;
        while e < bytes.len() {
            let c = bytes[e];
            if c.is_ascii_alphanumeric() || matches!(c, b'.' | b'-') {
                e += 1;
            } else {
                break;
            }
        }
        // Trim trailing dots (sentence punctuation).
        while e > i + 1 && bytes[e - 1] == b'.' {
            e -= 1;
        }
        if s < i && e > i + 1 && text[i + 1..e].contains('.') {
            out.push(Finding {
                kind: SensitiveKind::Email,
                start: s,
                end: e,
                brand: None,
            });
        }
    }
}

/// Credential context keywords, in legacy scan order (password cues
/// before username cues — insertion order is overlap-resolution
/// priority, so the compiled set must replay it exactly).
const CONTEXT_KEYWORDS: [(&str, SensitiveKind); 10] = [
    ("password:", SensitiveKind::Password),
    ("password is", SensitiveKind::Password),
    ("pass:", SensitiveKind::Password),
    ("pwd:", SensitiveKind::Password),
    ("passwd:", SensitiveKind::Password),
    ("username:", SensitiveKind::Username),
    ("user name:", SensitiveKind::Username),
    ("login:", SensitiveKind::Username),
    ("user id:", SensitiveKind::Username),
    ("username is", SensitiveKind::Username),
];

fn context_cue_set() -> &'static PatternSet<SensitiveKind> {
    static SET: OnceLock<PatternSet<SensitiveKind>> = OnceLock::new();
    SET.get_or_init(|| PatternSet::compile(&CONTEXT_KEYWORDS))
}

/// Id-number cue keywords (searched in the window before a digit run).
const ID_CUES: [&str; 9] = [
    "account", "member", "case", "id", "no.", "no:", "number", "#", "ref",
];

fn id_cue_set() -> &'static PatternSet<()> {
    static SET: OnceLock<PatternSet<()>> = OnceLock::new();
    SET.get_or_init(|| {
        let tagged: Vec<(&str, ())> = ID_CUES.iter().map(|c| (*c, ())).collect();
        PatternSet::compile(&tagged)
    })
}

fn zip_cue_set() -> &'static PatternSet<()> {
    static SET: OnceLock<PatternSet<()>> = OnceLock::new();
    SET.get_or_init(|| PatternSet::compile(&[("zip", ())]))
}

/// Context-keyword recognizers for passwords and usernames: one automaton
/// pass finds every cue; matches replay in (keyword, position) order so
/// findings are inserted exactly as the legacy per-keyword loop did.
fn find_context_tokens(text: &str, out: &mut Vec<Finding>) {
    let set = context_cue_set();
    let mut cues: Vec<(usize, usize)> = set.find_all(text).map(|m| (m.pattern, m.end)).collect();
    if cues.is_empty() {
        return;
    }
    cues.sort_unstable();
    for (pattern, kw_end) in cues {
        let kind = set.tag(pattern);
        // The secret is the next non-space token.
        let rest = &text[kw_end..];
        let token_start_rel = rest.len() - rest.trim_start().len();
        let token_start = kw_end + token_start_rel;
        let token: &str = rest
            .trim_start()
            .split(|c: char| c.is_whitespace() || c == ',' || c == ';')
            .next()
            .unwrap_or("");
        let token = token.trim_end_matches(['.', ')', '"', '\'']);
        if !token.is_empty() && token.len() >= 3 {
            out.push(Finding {
                kind,
                start: token_start,
                end: token_start + token.len(),
                brand: None,
            });
        }
    }
}

/// The pre-`ets-scan` credential recognizer (lowercase text, rescan per
/// keyword), retained for [`scrub_legacy`].
fn find_context_tokens_rescan(text: &str, out: &mut Vec<Finding>) {
    let lower = text.to_ascii_lowercase();
    for (kw, kind) in CONTEXT_KEYWORDS {
        let mut from = 0usize;
        while let Some(pos) = lower[from..].find(kw) {
            let kw_end = from + pos + kw.len();
            // The secret is the next non-space token.
            let rest = &text[kw_end..];
            let token_start_rel = rest.len() - rest.trim_start().len();
            let token_start = kw_end + token_start_rel;
            let token: &str = rest
                .trim_start()
                .split(|c: char| c.is_whitespace() || c == ',' || c == ';')
                .next()
                .unwrap_or("");
            let token = token.trim_end_matches(['.', ')', '"', '\'']);
            if !token.is_empty() && token.len() >= 3 {
                out.push(Finding {
                    kind,
                    start: token_start,
                    end: token_start + token.len(),
                    brand: None,
                });
            }
            from = kw_end;
        }
    }
}

fn find_zips(text: &str, out: &mut Vec<Finding>) {
    // A bare 5-digit token; to limit false positives require either
    // ZIP+4 shape or a nearby address-ish cue (comma-space before, or the
    // words zip / [A-Z]{2} state code immediately before).
    let bytes = text.as_bytes();
    find_shape(text, "#####-####", SensitiveKind::Zip, out);
    if bytes.len() < 5 {
        return;
    }
    // One automaton pass decides whether a "zip" cue can fire anywhere;
    // candidates then fold their prefix window byte-by-byte instead of
    // allocating a lowercased copy per 5-digit run.
    let has_zip_cue = zip_cue_set().any_match(text);
    for start in 0..=bytes.len() - 5 {
        if !is_boundary(bytes, start) || !is_boundary(bytes, start + 5) {
            continue;
        }
        if !bytes[start..start + 5].iter().all(u8::is_ascii_digit) {
            continue;
        }
        // cue: preceding two uppercase letters + space ("PA 15213") or the
        // word "zip" within the preceding 8 chars.
        let prefix = text
            .get(start.saturating_sub(8)..start)
            .or_else(|| text.get(start.saturating_sub(9)..start))
            .or_else(|| text.get(start.saturating_sub(10)..start))
            .unwrap_or("");
        let state_cue = prefix
            .trim_end()
            .chars()
            .rev()
            .take(2)
            .all(|c| c.is_ascii_uppercase())
            && prefix.trim_end().len() >= 2;
        let zip_cue = has_zip_cue && contains_fold(prefix, "zip");
        if state_cue || zip_cue {
            out.push(Finding {
                kind: SensitiveKind::Zip,
                start,
                end: start + 5,
                brand: None,
            });
        }
    }
}

/// The pre-`ets-scan` ZIP recognizer (lowercase allocation per candidate
/// prefix), retained for [`scrub_legacy`].
fn find_zips_rescan(text: &str, out: &mut Vec<Finding>) {
    let bytes = text.as_bytes();
    find_shape(text, "#####-####", SensitiveKind::Zip, out);
    if bytes.len() < 5 {
        return;
    }
    for start in 0..=bytes.len() - 5 {
        if !is_boundary(bytes, start) || !is_boundary(bytes, start + 5) {
            continue;
        }
        if !bytes[start..start + 5].iter().all(u8::is_ascii_digit) {
            continue;
        }
        let prefix = text
            .get(start.saturating_sub(8)..start)
            .or_else(|| text.get(start.saturating_sub(9)..start))
            .or_else(|| text.get(start.saturating_sub(10)..start))
            .unwrap_or("");
        let state_cue = prefix
            .trim_end()
            .chars()
            .rev()
            .take(2)
            .all(|c| c.is_ascii_uppercase())
            && prefix.trim_end().len() >= 2;
        let zip_cue = prefix.to_ascii_lowercase().contains("zip");
        if state_cue || zip_cue {
            out.push(Finding {
                kind: SensitiveKind::Zip,
                start,
                end: start + 5,
                brand: None,
            });
        }
    }
}

/// Broad identification numbers: digit runs of 6–12 near id-ish keywords
/// (account, member, case, id, no., #) — the paper notes this recognizer
/// is deliberately broad and correspondingly noisy.
fn find_id_numbers(text: &str, out: &mut Vec<Finding>) {
    // If no cue keyword occurs anywhere in the text, no prefix window can
    // contain one: one early automaton pass (early exit on first hit)
    // replaces the per-call lowercase allocation entirely.
    if !id_cue_set().any_match(text) {
        return;
    }
    let bytes = text.as_bytes();
    let mut i = 0usize;
    while i < bytes.len() {
        if !bytes[i].is_ascii_digit() || !is_boundary(bytes, i) {
            i += 1;
            continue;
        }
        let mut j = i;
        while j < bytes.len() && bytes[j].is_ascii_digit() {
            j += 1;
        }
        let len = j - i;
        if (6..=12).contains(&len) && is_boundary(bytes, j) {
            // ASCII folding preserves byte offsets and char boundaries, so
            // windows into the raw text equal the legacy windows into the
            // lowercased copy; the case-folded automaton supplies the
            // case-insensitive `contains`.
            let prefix = text
                .get(i.saturating_sub(16)..i)
                .or_else(|| text.get(i.saturating_sub(17)..i))
                .or_else(|| text.get(i.saturating_sub(18)..i))
                .unwrap_or("");
            if id_cue_set().any_match(prefix) {
                out.push(Finding {
                    kind: SensitiveKind::IdNumber,
                    start: i,
                    end: j,
                    brand: None,
                });
            }
        }
        i = j;
    }
}

/// The pre-`ets-scan` id-number recognizer (lowercase the whole text,
/// nine `contains` probes per digit run), retained for [`scrub_legacy`].
fn find_id_numbers_rescan(text: &str, out: &mut Vec<Finding>) {
    let lower = text.to_ascii_lowercase();
    let bytes = text.as_bytes();
    let mut i = 0usize;
    while i < bytes.len() {
        if !bytes[i].is_ascii_digit() || !is_boundary(bytes, i) {
            i += 1;
            continue;
        }
        let mut j = i;
        while j < bytes.len() && bytes[j].is_ascii_digit() {
            j += 1;
        }
        let len = j - i;
        if (6..=12).contains(&len) && is_boundary(bytes, j) {
            let prefix = lower
                .get(i.saturating_sub(16)..i)
                .or_else(|| lower.get(i.saturating_sub(17)..i))
                .or_else(|| lower.get(i.saturating_sub(18)..i))
                .unwrap_or("");
            let cue = ID_CUES.iter().any(|k| prefix.contains(k));
            if cue {
                out.push(Finding {
                    kind: SensitiveKind::IdNumber,
                    start: i,
                    end: j,
                    brand: None,
                });
            }
        }
        i = j;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn luhn_known_values() {
        // The paper's Figure 2 Amex number.
        let digits: Vec<u8> = "371385129301004".bytes().map(|b| b - b'0').collect();
        assert!(luhn_valid(&digits));
        // Classic test number.
        let visa: Vec<u8> = "4111111111111111".bytes().map(|b| b - b'0').collect();
        assert!(luhn_valid(&visa));
        let mut bad = visa.clone();
        bad[15] = (bad[15] + 1) % 10;
        assert!(!luhn_valid(&bad));
    }

    #[test]
    fn figure2_example_is_reproduced() {
        // The paper's running example: an Amex number and an expiry date.
        let input = "Amex 371385129301004 Exp 06/03\nBook us 3 rooms and make sure that we can have 2 beds in one of the rooms.";
        let r = scrub(input);
        assert!(r.has(SensitiveKind::CreditCard));
        assert!(r
            .text
            .contains("*_|R|_*americanexpress*000000000000000*_|R|_*"));
        assert!(r.has(SensitiveKind::Date), "Exp 06/03 is a ##/## date");
        // every digit zeroed
        assert!(r.text.contains("Book us 0 rooms"));
        assert!(r.text.contains("0 beds"));
        assert!(!r.text.contains("371385129301004"));
    }

    #[test]
    fn card_brands_classified() {
        let cases = [
            ("4111111111111111", CardBrand::Visa),
            ("5500005555555559", CardBrand::Mastercard),
            ("371385129301004", CardBrand::Amex),
            ("30569309025904", CardBrand::DinersClub),
            ("3530111333300000", CardBrand::Jcb),
            ("6011000990139424", CardBrand::Discover),
        ];
        for (num, brand) in cases {
            let r = scrub(&format!("card {num} ok"));
            let f = r
                .findings
                .iter()
                .find(|f| f.kind == SensitiveKind::CreditCard)
                .unwrap_or_else(|| panic!("{num} not detected"));
            assert_eq!(f.brand, Some(brand), "{num}");
        }
    }

    #[test]
    fn card_with_separators() {
        let r = scrub("pay with 4111 1111 1111 1111 please");
        assert!(r.has(SensitiveKind::CreditCard));
        assert!(!r.text.contains("1111"));
    }

    #[test]
    fn non_luhn_digit_runs_are_not_cards() {
        let r = scrub("tracking 4111111111111112 code");
        assert!(!r.has(SensitiveKind::CreditCard));
        // but digits are still zeroed
        assert!(r.text.contains("0000000000000000"));
    }

    #[test]
    fn ssn_and_ein() {
        let r = scrub("SSN 078-05-1120 and EIN 12-3456789.");
        assert!(r.has(SensitiveKind::Ssn));
        assert!(r.has(SensitiveKind::Ein));
        assert!(!r.text.contains("078-05-1120"));
    }

    #[test]
    fn ssn_requires_boundaries() {
        let r = scrub("id X078-05-11209 maybe");
        assert!(!r.has(SensitiveKind::Ssn));
    }

    #[test]
    fn phones_and_dates() {
        let r = scrub("call (412) 555-1234 before 12/25/2016 or 2016-12-25");
        assert!(r.has(SensitiveKind::Phone));
        assert_eq!(
            r.findings
                .iter()
                .filter(|f| f.kind == SensitiveKind::Date)
                .count(),
            2
        );
    }

    #[test]
    fn vin_detection() {
        let r = scrub("my car vin 1HGCM82633A004352 got towed");
        assert!(r.has(SensitiveKind::Vin));
        // lowercase or I/O/Q sequences are not VINs
        let r2 = scrub("token 1hgcm82633a004352 here");
        assert!(!r2.has(SensitiveKind::Vin));
    }

    #[test]
    fn email_detection_and_removal() {
        let r = scrub("write to alice.liddell+work@example.co.uk.");
        assert!(r.has(SensitiveKind::Email));
        assert!(!r.text.contains("alice.liddell"));
        assert!(r.text.contains("*_|R|_*email*"));
    }

    #[test]
    fn password_and_username_context() {
        let r = scrub("Your username: jdoe42 and password: hunter2! ok");
        assert!(r.has(SensitiveKind::Username));
        assert!(r.has(SensitiveKind::Password));
        assert!(!r.text.contains("hunter2"));
        assert!(!r.text.contains("jdoe42"));
    }

    #[test]
    fn zip_needs_cue() {
        assert!(scrub("Pittsburgh, PA 15213").has(SensitiveKind::Zip));
        assert!(scrub("zip 15213").has(SensitiveKind::Zip));
        assert!(scrub("15213-1234 plus four").has(SensitiveKind::Zip));
        assert!(!scrub("order 15213 shipped").has(SensitiveKind::Zip));
    }

    #[test]
    fn id_numbers_are_broad() {
        assert!(scrub("account no. 88273641").has(SensitiveKind::IdNumber));
        assert!(scrub("Member ID 123456").has(SensitiveKind::IdNumber));
        assert!(!scrub("launched in 123456 units").has(SensitiveKind::IdNumber));
    }

    #[test]
    fn overlap_resolution_prefers_cards() {
        // A card number could also look like an id number near "account".
        let r = scrub("account 4111111111111111");
        assert!(r.has(SensitiveKind::CreditCard));
        assert!(!r.has(SensitiveKind::IdNumber));
    }

    #[test]
    fn clean_text_untouched_except_digits() {
        let r = scrub("hello world, nothing here");
        assert!(r.findings.is_empty());
        assert_eq!(r.text, "hello world, nothing here");
    }

    #[test]
    fn all_digits_zeroed_after_scrub() {
        let r = scrub("meeting at 3pm with 12 people, card 4111111111111111");
        assert!(r
            .text
            .chars()
            .filter(|c| c.is_ascii_digit())
            .all(|c| c == '0'));
    }

    #[test]
    fn empty_input() {
        let r = scrub("");
        assert!(r.findings.is_empty());
        assert_eq!(r.text, "");
    }
}
