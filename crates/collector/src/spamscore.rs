//! The SpamAssassin stand-in (Layer 2, Table 3).
//!
//! A rule-plus-token scorer run in "local mode": no network tests, a
//! default threshold of 5.0, high precision and mediocre recall — the
//! profile Table 3 measures (precision ≈ 0.97–0.98, recall 0.23–0.87
//! depending on the corpus).
//!
//! The production path compiles the token table and the cue strings into
//! one `ets-scan` automaton (built once per process) and scores each
//! message in a single pass over the raw subject and body — no
//! `to_ascii_lowercase` copies, no per-pattern `contains` rescans. The
//! pre-automaton scorer is retained as [`SpamScorer::score_legacy`], the
//! oracle of the equivalence suite `tests/scan_equivalence.rs`; the two
//! paths produce byte-identical [`SpamScore`]s (same rules, same fire order,
//! bitwise equal totals).
//!
//! [`SpamScorer::score`] has no all-caps-subject rule: the oracle's
//! `SUBJ_ALL_CAPS` tests the already-lowercased subject for uppercase
//! letters and never fires, and the committed Table 3 results were
//! measured without it.

use ets_mail::{EmailAddress, Message};
use ets_scan::PatternSet;
use std::sync::OnceLock;

/// The default local-mode threshold.
pub const DEFAULT_THRESHOLD: f64 = 5.0;

/// One fired rule.
#[derive(Debug, Clone, PartialEq)]
pub struct FiredRule {
    /// Rule identifier.
    pub name: &'static str,
    /// Score contribution.
    pub score: f64,
}

/// A scoring verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct SpamScore {
    /// Total score.
    pub score: f64,
    /// Rules that fired.
    pub rules: Vec<FiredRule>,
    /// Threshold used.
    pub threshold: f64,
}

impl SpamScore {
    /// Whether the message is classified spam.
    pub fn is_spam(&self) -> bool {
        self.score >= self.threshold
    }
}

/// The scorer. Stateless; configuration is the threshold.
#[derive(Debug, Clone)]
pub struct SpamScorer {
    /// Classification threshold (default 5.0).
    pub threshold: f64,
}

impl Default for SpamScorer {
    fn default() -> Self {
        SpamScorer {
            threshold: DEFAULT_THRESHOLD,
        }
    }
}

/// Token weights: the body vocabulary that pushes a message spamward.
/// Scores are tuned so a typical spam fires several rules past 5.0 while
/// business ham rarely crosses 2.0.
const SPAM_TOKENS: &[(&str, f64)] = &[
    ("viagra", 3.0),
    ("cialis", 3.0),
    ("pharmacy", 1.8),
    ("pills", 1.4),
    ("lottery", 2.2),
    ("winner", 1.2),
    ("congratulations", 0.8),
    ("prize", 1.4),
    ("claim", 0.7),
    ("urgent", 0.9),
    ("wire transfer", 1.6),
    ("western union", 2.0),
    ("inheritance", 1.8),
    ("prince", 1.0),
    ("beneficiary", 1.6),
    ("million dollars", 2.0),
    ("investment opportunity", 1.6),
    ("100% free", 1.8),
    ("risk free", 1.4),
    ("no obligation", 1.2),
    ("act now", 1.3),
    ("limited time", 1.1),
    ("click here", 1.2),
    ("click below", 1.0),
    ("unsubscribe here", 0.4),
    ("cheap meds", 2.4),
    ("weight loss", 1.4),
    ("casino", 1.6),
    ("betting", 1.0),
    ("hot singles", 2.6),
    ("adult", 0.8),
    ("xxx", 1.4),
    ("replica watches", 2.6),
    ("luxury brands", 1.2),
    ("work from home", 1.6),
    ("earn extra cash", 1.8),
    ("make money fast", 2.2),
    ("refinance", 1.0),
    ("low interest", 0.9),
    ("crypto doubler", 2.8),
    ("bitcoin giveaway", 2.8),
    ("dear friend", 1.2),
    ("dear customer", 0.6),
    ("verify your account", 1.5),
    ("suspended account", 1.5),
    ("confirm your password", 1.8),
];

/// Non-token cue strings the rule bodies test for, indexed by the
/// `CUE_*` constants. Compiled into the same automaton as
/// [`SPAM_TOKENS`] so one pass yields every count the rules need.
const CUES: [&str; 10] = [
    "re:", "!", "free", "$$$", "http://", "https://", "urgent", "usd", "$", "<",
];
const CUE_RE: usize = 0;
const CUE_BANG: usize = 1;
const CUE_FREE: usize = 2;
const CUE_DOLLAR3: usize = 3;
const CUE_HTTP: usize = 4;
const CUE_HTTPS: usize = 5;
const CUE_URGENT: usize = 6;
const CUE_USD: usize = 7;
const CUE_DOLLAR: usize = 8;
const CUE_LT: usize = 9;

const N_TOKENS: usize = SPAM_TOKENS.len();
const N_PATTERNS: usize = N_TOKENS + CUES.len();

/// The compiled rule automaton: [`SPAM_TOKENS`] (tags carry the token
/// weights) followed by [`CUES`] (weight 0), built once per process.
fn compiled_rules() -> &'static PatternSet<f64> {
    static SET: OnceLock<PatternSet<f64>> = OnceLock::new();
    SET.get_or_init(|| {
        let mut patterns: Vec<(&str, f64)> = SPAM_TOKENS.to_vec();
        patterns.extend(CUES.iter().map(|c| (*c, 0.0)));
        PatternSet::compile(&patterns)
    })
}

impl SpamScorer {
    /// Creates a scorer with the default threshold.
    pub fn new() -> Self {
        Self::default()
    }

    /// Scores a message: one automaton pass over the subject and one
    /// over the body, then the same rule bodies (in the same fire order)
    /// as the legacy scorer, driven off the per-pattern occurrence
    /// counts. Verdicts are byte-identical with
    /// [`SpamScorer::score_legacy`].
    pub fn score(&self, msg: &Message) -> SpamScore {
        self.score_with_from(msg, msg.from_addr().as_ref())
    }

    /// [`SpamScorer::score`] with `msg`'s `From` address already parsed,
    /// so a caller that needs it too parses it once.
    pub(crate) fn score_with_from(&self, msg: &Message, from: Option<&EmailAddress>) -> SpamScore {
        let mut rules: Vec<FiredRule> = Vec::new();
        let mut fire = |name: &'static str, score: f64| rules.push(FiredRule { name, score });

        let set = compiled_rules();
        let subject = msg.subject();
        let body = msg.body.as_str();
        let mut subj_hits = [0u32; N_PATTERNS];
        for m in set.find_all(subject) {
            subj_hits[m.pattern] += 1;
        }
        let mut body_hits = [0u32; N_PATTERNS];
        for m in set.find_all(body) {
            body_hits[m.pattern] += 1;
        }
        let cue = |hits: &[u32; N_PATTERNS], c: usize| hits[N_TOKENS + c];

        // Header rules.
        if from.is_none() {
            fire("MISSING_OR_BAD_FROM", 1.2);
        }
        if !msg.headers.contains("Message-ID") {
            fire("MISSING_MSGID", 0.8);
        }
        if !msg.headers.contains("Date") {
            fire("MISSING_DATE", 0.6);
        }
        if let (Some(from), Some(reply)) = (from, msg.reply_to_addr()) {
            if from.registrable_domain() != reply.registrable_domain() {
                fire("REPLYTO_DIFFERS", 0.7);
            }
        }

        // Subject rules.
        if !subject.is_empty() {
            if cue(&subj_hits, CUE_RE) > 0 && !msg.headers.contains("In-Reply-To") {
                fire("FAKE_REPLY", 0.8);
            }
            if cue(&subj_hits, CUE_BANG) >= 2 {
                fire("SUBJ_EXCLAIM", 0.9);
            }
            if cue(&subj_hits, CUE_FREE) > 0 || cue(&subj_hits, CUE_DOLLAR3) > 0 {
                fire("SUBJ_FREE", 1.0);
            }
        }

        // Body token rules (each token counted once; weights summed in
        // table order so the f64 total matches the legacy loop bitwise).
        let mut token_score = 0.0;
        let mut token_hits = 0;
        for (i, (_tok, w)) in SPAM_TOKENS.iter().enumerate() {
            if body_hits[i] > 0 || subj_hits[i] > 0 {
                token_score += w;
                token_hits += 1;
            }
        }
        if token_hits > 0 {
            fire("BODY_SPAM_TOKENS", token_score);
        }

        // URL density.
        let urls = cue(&body_hits, CUE_HTTP) + cue(&body_hits, CUE_HTTPS);
        if urls >= 3 {
            fire("MANY_URLS", 1.2);
        }
        if cue(&body_hits, CUE_HTTP) > 0 && body.split_whitespace().count() < 12 {
            fire("URL_ONLY_BODY", 1.6);
        }

        // Money amounts with urgency.
        if (cue(&body_hits, CUE_DOLLAR) > 0 || cue(&body_hits, CUE_USD) > 0)
            && cue(&body_hits, CUE_URGENT) > 0
        {
            fire("MONEY_URGENT", 1.3);
        }

        // Attachment rules.
        if msg.has_attachment_ext(&["zip", "rar"]) {
            fire("ARCHIVE_ATTACH", 2.2);
        }
        if msg.has_attachment_ext(&["exe", "scr", "js", "docm", "xlsm"]) {
            fire("EXEC_ATTACH", 2.8);
        }

        // HTML-heavy body with little text.
        if cue(&body_hits, CUE_LT) >= 10 && body.len() < 2000 {
            fire("HTML_HEAVY", 0.9);
        }

        let score = rules.iter().map(|r| r.score).sum();
        SpamScore {
            score,
            rules,
            threshold: self.threshold,
        }
    }

    /// The pre-`ets-scan` scorer: lowercases subject and body, then runs
    /// one `contains` scan per pattern. Retained verbatim, dead
    /// `SUBJ_ALL_CAPS` rule included, as the oracle of the equivalence
    /// suite (`tests/scan_equivalence.rs`); it reads the private token
    /// and cue tables, so it lives beside them.
    pub fn score_legacy(&self, msg: &Message) -> SpamScore {
        let mut rules: Vec<FiredRule> = Vec::new();
        let mut fire = |name: &'static str, score: f64| rules.push(FiredRule { name, score });

        let subject = msg.subject().to_ascii_lowercase();
        let body = msg.body.to_ascii_lowercase();

        // Header rules.
        if msg.from_addr().is_none() {
            fire("MISSING_OR_BAD_FROM", 1.2);
        }
        if !msg.headers.contains("Message-ID") {
            fire("MISSING_MSGID", 0.8);
        }
        if !msg.headers.contains("Date") {
            fire("MISSING_DATE", 0.6);
        }
        if let (Some(from), Some(reply)) = (msg.from_addr(), msg.reply_to_addr()) {
            if from.registrable_domain() != reply.registrable_domain() {
                fire("REPLYTO_DIFFERS", 0.7);
            }
        }

        // Subject rules.
        if !subject.is_empty() {
            let letters: Vec<char> = subject
                .chars()
                .filter(|c| c.is_ascii_alphabetic())
                .collect();
            if letters.len() >= 8 && letters.iter().all(|c| c.is_ascii_uppercase()) {
                fire("SUBJ_ALL_CAPS", 1.4);
            }
            if subject.contains("re:") && !msg.headers.contains("In-Reply-To") {
                fire("FAKE_REPLY", 0.8);
            }
            if subject.contains('!') && subject.matches('!').count() >= 2 {
                fire("SUBJ_EXCLAIM", 0.9);
            }
            if subject.contains("free") || subject.contains("$$$") {
                fire("SUBJ_FREE", 1.0);
            }
        }

        // Body token rules (each token counted once).
        let mut token_score = 0.0;
        let mut token_hits = 0;
        for (tok, w) in SPAM_TOKENS {
            if body.contains(tok) || subject.contains(tok) {
                token_score += w;
                token_hits += 1;
            }
        }
        if token_hits > 0 {
            fire("BODY_SPAM_TOKENS", token_score);
        }

        // URL density.
        let urls = body.matches("http://").count() + body.matches("https://").count();
        if urls >= 3 {
            fire("MANY_URLS", 1.2);
        }
        if body.contains("http://") && body.split_whitespace().count() < 12 {
            fire("URL_ONLY_BODY", 1.6);
        }

        // Money amounts with urgency.
        if (body.contains('$') || body.contains("usd")) && body.contains("urgent") {
            fire("MONEY_URGENT", 1.3);
        }

        // Attachment rules.
        if msg.has_attachment_ext(&["zip", "rar"]) {
            fire("ARCHIVE_ATTACH", 2.2);
        }
        if msg.has_attachment_ext(&["exe", "scr", "js", "docm", "xlsm"]) {
            fire("EXEC_ATTACH", 2.8);
        }

        // HTML-heavy body with little text.
        let tags = body.matches('<').count();
        if tags >= 10 && body.len() < 2000 {
            fire("HTML_HEAVY", 0.9);
        }

        let score = rules.iter().map(|r| r.score).sum();
        SpamScore {
            score,
            rules,
            threshold: self.threshold,
        }
    }

    /// Convenience: classify directly.
    pub fn is_spam(&self, msg: &Message) -> bool {
        self.score(msg).is_spam()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ets_mail::MessageBuilder;

    fn ham() -> Message {
        MessageBuilder::new()
            .from("alice@gmail.com")
            .unwrap()
            .to("bob@partner.com")
            .unwrap()
            .subject("Q3 planning meeting")
            .date("Mon, 4 Jun 2016 10:00:00 +0000")
            .message_id("<abc@gmail.com>")
            .body("Hi Bob,\n\nCan we move the Q3 planning meeting to Thursday? I attached the agenda.\n\nBest,\nAlice")
            .build()
    }

    fn blatant_spam() -> Message {
        MessageBuilder::new()
            .raw_from("winner dept")
            .subject("CONGRATULATIONS WINNER!!!")
            .body("Dear friend, you are the lottery WINNER of one million dollars. Act now, claim your prize, click here http://scam.example http://scam2.example http://scam3.example")
            .build()
    }

    #[test]
    fn ham_scores_low() {
        let s = SpamScorer::new().score(&ham());
        assert!(!s.is_spam(), "ham fired {:?}", s.rules);
        assert!(s.score < 2.0);
    }

    #[test]
    fn blatant_spam_scores_high() {
        let s = SpamScorer::new().score(&blatant_spam());
        assert!(s.is_spam(), "only scored {} {:?}", s.score, s.rules);
        assert!(s.score > 7.0);
    }

    #[test]
    fn subtle_spam_is_missed() {
        // The recall gap of Table 3: a terse, clean-looking spam slips by.
        let subtle = MessageBuilder::new()
            .from("newsletter@deals.example")
            .unwrap()
            .to("victim@gmial.com")
            .unwrap()
            .subject("your order update")
            .date("x")
            .message_id("<m@deals.example>")
            .body(
                "Hello, your package details have changed. See attached note for the new schedule.",
            )
            .build();
        assert!(!SpamScorer::new().is_spam(&subtle));
    }

    #[test]
    fn archive_attachment_is_heavy_signal() {
        let mut m = ham();
        m.attachments.push(ets_mail::Attachment::new(
            "invoice.zip",
            "application/zip",
            vec![0x50, 0x4b],
        ));
        let s = SpamScorer::new().score(&m);
        assert!(s.rules.iter().any(|r| r.name == "ARCHIVE_ATTACH"));
    }

    #[test]
    fn rules_sum_to_score() {
        let s = SpamScorer::new().score(&blatant_spam());
        let sum: f64 = s.rules.iter().map(|r| r.score).sum();
        assert!((sum - s.score).abs() < 1e-9);
    }

    #[test]
    fn threshold_is_respected() {
        let lenient = SpamScorer { threshold: 100.0 };
        assert!(!lenient.is_spam(&blatant_spam()));
        let strict = SpamScorer { threshold: 0.5 };
        assert!(strict.is_spam(&blatant_spam()));
    }

    #[test]
    fn scan_path_matches_legacy_exactly() {
        let mut messages = vec![ham(), blatant_spam(), Message::new()];
        let mut zip = ham();
        zip.attachments.push(ets_mail::Attachment::new(
            "invoice.zip",
            "application/zip",
            vec![0x50, 0x4b],
        ));
        messages.push(zip);
        let scorer = SpamScorer::new();
        for m in &messages {
            let new = scorer.score(m);
            let legacy = scorer.score_legacy(m);
            assert_eq!(new.rules, legacy.rules);
            assert_eq!(new.score.to_bits(), legacy.score.to_bits());
        }
    }

    #[test]
    fn empty_message_not_spam() {
        let m = Message::new();
        let s = SpamScorer::new().score(&m);
        // fires missing-headers rules but stays under threshold
        assert!(!s.is_spam(), "{:?}", s.rules);
    }
}
