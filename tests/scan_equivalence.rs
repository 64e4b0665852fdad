//! Equivalence properties for the `ets-scan` automaton and the collector
//! layers that moved onto it: the compiled case-folding pattern matcher
//! must agree exactly with a byte-level naive scan on arbitrary inputs,
//! and the spam scorer and sensitive-info scrubber must return outputs
//! byte-identical with their retained legacy paths — including on
//! case-folding and overlapping-pattern edge cases.

use ets_collector::corpus::{self, SpamDataset};
use ets_collector::scrub;
use ets_collector::spamscore::SpamScorer;
use ets_mail::Message;
use ets_scan::{contains_fold, PatternSet, TokenStream};
use proptest::prelude::*;

/// Patterns: short mixed-case strings over the bytes the rule tables
/// use, including punctuation cues and repeated letters (so shared
/// prefixes, nested patterns, and self-overlaps all occur).
fn pattern() -> impl Strategy<Value = String> {
    "[a-cA-C!$:# ]{1,5}"
}

/// Haystacks: longer texts over a wider alphabet, with digits, newlines
/// and multi-byte characters mixed in.
fn haystack() -> impl Strategy<Value = String> {
    "[a-cA-C0-9!$:# .,;\nü€]{0,60}"
}

/// The reference matcher: fold both sides with `to_ascii_lowercase`
/// semantics and compare byte windows. Returns `(pattern, start, end)`
/// triples in the automaton's documented order — increasing end, and at
/// equal end longest pattern first, then compile order.
fn naive_matches(patterns: &[String], text: &str) -> Vec<(usize, usize, usize)> {
    let fold = |s: &str| {
        s.bytes()
            .map(|b| b.to_ascii_lowercase())
            .collect::<Vec<u8>>()
    };
    let hay = fold(text);
    let mut out: Vec<(usize, usize, usize)> = Vec::new();
    for (pi, p) in patterns.iter().enumerate() {
        let needle = fold(p);
        if needle.len() > hay.len() {
            continue;
        }
        for start in 0..=hay.len() - needle.len() {
            if hay[start..start + needle.len()] == needle[..] {
                out.push((pi, start, start + needle.len()));
            }
        }
    }
    out.sort_by(|a, b| {
        (a.2, std::cmp::Reverse(a.2 - a.1), a.0).cmp(&(b.2, std::cmp::Reverse(b.2 - b.1), b.0))
    });
    out
}

proptest! {
    /// `find_all` emits exactly the naive scan's matches — same pattern
    /// indices, same byte offsets, same order.
    #[test]
    fn find_all_matches_naive_scan(
        patterns in proptest::collection::vec(pattern(), 1..6),
        text in haystack(),
    ) {
        let tagged: Vec<(&str, usize)> =
            patterns.iter().map(String::as_str).zip(0..).collect();
        let set = PatternSet::compile(&tagged);
        let got: Vec<(usize, usize, usize)> =
            set.find_all(&text).map(|m| (m.pattern, m.start, m.end)).collect();
        prop_assert_eq!(got, naive_matches(&patterns, &text));
    }

    /// `any_match` agrees with the lowercase-and-`contains` probe it
    /// replaces, for every pattern in the set.
    #[test]
    fn any_match_matches_contains(
        patterns in proptest::collection::vec(pattern(), 1..6),
        text in haystack(),
    ) {
        let tagged: Vec<(&str, usize)> =
            patterns.iter().map(String::as_str).zip(0..).collect();
        let set = PatternSet::compile(&tagged);
        let lower = text.to_ascii_lowercase();
        let reference = patterns
            .iter()
            .any(|p| lower.contains(&p.to_ascii_lowercase()));
        prop_assert_eq!(set.any_match(&text), reference);
    }

    /// `weighted_score` equals the legacy shape — sum the weight of each
    /// distinct pattern that occurs anywhere, in table order — bitwise.
    #[test]
    fn weighted_score_matches_contains_sum(
        patterns in proptest::collection::vec(pattern(), 1..6),
        a in haystack(),
        b in haystack(),
    ) {
        let tagged: Vec<(&str, f64)> = patterns
            .iter()
            .enumerate()
            .map(|(i, p)| (p.as_str(), i as f64 * 0.7 + 0.3))
            .collect();
        let set = PatternSet::compile(&tagged);
        let (la, lb) = (a.to_ascii_lowercase(), b.to_ascii_lowercase());
        let mut reference = 0.0f64;
        let mut hits = 0usize;
        for (p, w) in &tagged {
            let q = p.to_ascii_lowercase();
            if la.contains(&q) || lb.contains(&q) {
                reference += w;
                hits += 1;
            }
        }
        let got = set.weighted_score(&[&a, &b]);
        prop_assert_eq!(got.0.to_bits(), reference.to_bits());
        prop_assert_eq!(got.1, hits);
    }

    /// `contains_fold` equals allocate-lowercase-then-contains.
    #[test]
    fn contains_fold_matches_lowercase_contains(
        needle in "[a-c!$: ]{1,4}",
        text in haystack(),
    ) {
        prop_assert_eq!(
            contains_fold(&text, &needle),
            text.to_ascii_lowercase().contains(&needle)
        );
    }

    /// The zero-copy tokenizer equals the char-predicate split it
    /// replaced in the funnel's bag-of-words.
    #[test]
    fn token_stream_matches_split(text in haystack()) {
        let via_stream: Vec<&str> = TokenStream::alnum(&text).map(|t| t.text).collect();
        let via_split: Vec<&str> = text
            .split(|c: char| !c.is_ascii_alphanumeric())
            .filter(|w| !w.is_empty())
            .collect();
        prop_assert_eq!(via_stream, via_split);
    }
}

/// Subject/body fragments that steer generated emails through every rule
/// body: spam tokens (nested and overlapping), cue punctuation, URLs,
/// credential keywords, digit runs with and without id cues.
const FRAGMENTS: [&str; 18] = [
    "FREE money now",
    "click here!! urgent!!",
    "Viagra viagra VIAGRA",
    "$$$ winner $$$",
    "http://a.example http://b.example https://c.example",
    "re: re: your order",
    "password: hunter42",
    "user name: alice77.",
    "account 12345678 please",
    "ref #9876543 attached",
    "PA 15213",
    "zip 90210",
    "no. 123456",
    "call 412-268-3000 on 06/03/2021",
    "<b><i><u>html</u></i></b> <p>heavy</p> <br> <hr> <div>x</div>",
    "wire transfer to the prince, act now",
    "plain business text with nothing special",
    "usd 500 urgent",
];

fn scan_corpus(picks: &[usize]) -> String {
    let mut text = String::new();
    for &p in picks {
        text.push_str(FRAGMENTS[p]);
        text.push(' ');
    }
    text
}

proptest! {
    /// The single-pass spam scorer returns the same fired-rule list and a
    /// bitwise-identical score as the legacy lowercase-and-rescan scorer,
    /// on arbitrary fragment mixes in subject and body.
    #[test]
    fn spam_scorer_matches_legacy(
        subj_picks in proptest::collection::vec(0..FRAGMENTS.len(), 0..3),
        body_picks in proptest::collection::vec(0..FRAGMENTS.len(), 0..8),
        reply in proptest::collection::vec(0..2usize, 1..2),
    ) {
        let mut m = Message::new();
        m.headers.append("Subject", scan_corpus(&subj_picks).trim_end());
        if reply[0] == 1 {
            m.headers.append("In-Reply-To", "<x@y>");
        }
        m.body = scan_corpus(&body_picks);
        let scorer = SpamScorer::new();
        let new = scorer.score(&m);
        let legacy = scorer.score_legacy(&m);
        prop_assert_eq!(new.score.to_bits(), legacy.score.to_bits());
        prop_assert_eq!(new.rules, legacy.rules);
    }

    /// The automaton-cued scrubber produces byte-identical output —
    /// same sanitized text, same findings in the same order — as the
    /// legacy scrubber, on arbitrary fragment mixes.
    #[test]
    fn scrub_matches_legacy(
        picks in proptest::collection::vec(0..FRAGMENTS.len(), 0..8),
        filler in haystack(),
    ) {
        let mut text = scan_corpus(&picks);
        text.push_str(&filler);
        let new = scrub::scrub(&text);
        let legacy = scrub::scrub_legacy(&text);
        prop_assert_eq!(new.text, legacy.text);
        prop_assert_eq!(new.findings, legacy.findings);
    }
}

/// Hand-picked case-folding and overlap edges for the scrub paths:
/// mixed-case cues, cues split across candidate windows, overlapping
/// recognizer spans.
#[test]
fn scrub_edge_cases_match_legacy() {
    let cases = [
        "",
        "PASSWORD: SECRET99 and USER NAME: BOB77",
        "Password is swordfish; username is neo.",
        "ZIP 15213 PA 15213-3890",
        "ACCOUNT 123456789012 Ref #123456",
        "pass:x pass:abc pwd:12 passwd:longersecret",
        "no.123456 no:654321 number 111111 id 222222",
        "password: password: nested",
        "zipzip 12345 zip 12345",
        "AA 11111 aa 11111",
        "übermember 9999999",
    ];
    for text in cases {
        let new = scrub::scrub(text);
        let legacy = scrub::scrub_legacy(text);
        assert_eq!(new.text, legacy.text, "text for {text:?}");
        assert_eq!(new.findings, legacy.findings, "findings for {text:?}");
    }
}

/// Both collector layers match their legacy paths on whole generated
/// corpora: a spam-heavy set (rule-rich messages) and a ham-heavy set
/// with sensitive identifiers in some bodies.
#[test]
fn corpora_score_and_scrub_match_legacy() {
    let mut emails = corpus::spam_dataset(SpamDataset::Trec, 600, 0xBEEF);
    emails.extend(corpus::enron_like(600, 0.1, 0xFEED));
    let scorer = SpamScorer::new();
    for (i, e) in emails.iter().enumerate() {
        let new = scorer.score(&e.message);
        let legacy = scorer.score_legacy(&e.message);
        assert_eq!(new.rules, legacy.rules, "rules of email {i}");
        assert_eq!(
            new.score.to_bits(),
            legacy.score.to_bits(),
            "score of email {i}"
        );
        let new = scrub::scrub(&e.message.body);
        let legacy = scrub::scrub_legacy(&e.message.body);
        assert_eq!(new.text, legacy.text, "scrubbed text of email {i}");
        assert_eq!(new.findings, legacy.findings, "findings of email {i}");
    }
}

/// Overlapping and nested patterns resolve identically to the naive scan
/// — the classic "ushers" family plus self-overlapping cues.
#[test]
fn overlapping_pattern_edges() {
    let patterns = ["he", "she", "his", "hers", "ushers", "$$", "$$$"];
    let tagged: Vec<(&str, usize)> = patterns.iter().copied().zip(0..).collect();
    let set = PatternSet::compile(&tagged);
    for text in ["ushers", "USHERS say she", "$$$$", "$$$$$", "hehehe"] {
        let got: Vec<(usize, usize, usize)> = set
            .find_all(text)
            .map(|m| (m.pattern, m.start, m.end))
            .collect();
        let patterns_owned: Vec<String> = patterns.iter().map(|s| s.to_string()).collect();
        assert_eq!(got, naive_matches(&patterns_owned, text), "text {text:?}");
    }
}
