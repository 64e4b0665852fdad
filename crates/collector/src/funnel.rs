//! The five-layer spam/typo classification funnel (§4.3).
//!
//! Each email marked spam at a layer is not considered further:
//!
//! 1. **Header sanity** — the relaying VPS must match the domain, the
//!    sender must not claim to be one of our domains (we never send), and
//!    a receiver-candidate's recipient must be at one of our domains.
//! 2. **Spam scorer** — the SpamAssassin stand-in, plus the hard rule
//!    that ZIP/RAR attachments are spam.
//! 3. **Collaborative filtering** — any sender who ever sent us spam is
//!    spam everywhere; any bag-of-words (>20 words) seen on a spam email
//!    flags every email with the same bag.
//! 4. **Reflection detection** — unsubscribe headers, bounce senders,
//!    disagreeing From/Reply-To/Return-Path, list-mail body phrases,
//!    system-user senders.
//! 5. **Frequency filtering** — recipient address seen ≥ 20 times, or
//!    sender address / body seen ≥ 10 times, cannot be a unique human
//!    mistake.
//!
//! Emails whose envelope recipient is *not* at a study domain arrived as
//! relay submissions: they are SMTP-typo candidates and skip Layer 5's
//! receiver-specific reasoning (though their frequency statistics are
//! still reported — the paper's 415–5,970/year range comes from exactly
//! this ambiguity).

use crate::infra::{CollectedEmail, CollectionInfra};
use crate::spamscore::SpamScorer;
use ets_mail::EmailAddress;
use ets_parallel::{par_fold, par_map};
use ets_scan::{PatternSet, TokenStream};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};
use std::sync::OnceLock;

/// Layer 5 (§4.3): a recipient address seen this many times is too
/// common to be a unique human mistake.
const RECIPIENT_FREQ: usize = 20;
/// Layer 5 (§4.3): the sender-address threshold.
const SENDER_FREQ: usize = 10;
/// Layer 5 (§4.3): the body-content threshold. Relay submissions, which
/// skip the receiver thresholds, are filtered at four times it.
const CONTENT_FREQ: usize = 10;
/// Layer 3 (§4.3): a body's bag of words flags other emails only when it
/// has more than this many distinct words.
const BOW_MIN_WORDS: usize = 20;

/// Final classification of one email.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FunnelVerdict {
    /// Spam caught by header sanity (Layer 1).
    SpamHeader,
    /// Spam caught by the scorer or archive rule (Layer 2).
    SpamScore,
    /// Spam caught collaboratively (Layer 3).
    SpamCollaborative,
    /// Automated reflection-typo mail (Layer 4).
    Reflection,
    /// Filtered by frequency (Layer 5) — too common to be a unique typo.
    FrequencyFiltered,
    /// A surviving receiver typo.
    ReceiverTypo,
    /// A surviving SMTP typo.
    SmtpTypo,
}

impl FunnelVerdict {
    /// Whether the verdict is one of the three spam layers.
    pub fn is_spam(self) -> bool {
        matches!(
            self,
            FunnelVerdict::SpamHeader | FunnelVerdict::SpamScore | FunnelVerdict::SpamCollaborative
        )
    }

    /// Whether the email survived all five layers as a true typo.
    pub fn is_true_typo(self) -> bool {
        matches!(self, FunnelVerdict::ReceiverTypo | FunnelVerdict::SmtpTypo)
    }

    /// Stable snake-case key used for metric names (`funnel.verdict.<key>`).
    pub fn key(self) -> &'static str {
        match self {
            FunnelVerdict::SpamHeader => "spam_header",
            FunnelVerdict::SpamScore => "spam_score",
            FunnelVerdict::SpamCollaborative => "spam_collaborative",
            FunnelVerdict::Reflection => "reflection",
            FunnelVerdict::FrequencyFiltered => "frequency_filtered",
            FunnelVerdict::ReceiverTypo => "receiver_typo",
            FunnelVerdict::SmtpTypo => "smtp_typo",
        }
    }
}

/// Compact per-email evidence: everything the corpus-level layers (3
/// and 5) need from one email, extracted by a single pure pass.
///
/// Feature extraction is the embarrassingly parallel part of
/// classification; feeding identical feature sequences to
/// [`Funnel::finish`] yields identical verdicts however the extraction
/// was sharded, which is what lets the streaming pipeline match the
/// batch oracle byte for byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EmailFeatures {
    /// Layers 1–2 verdict (purely per-email); `None` for survivors.
    pub verdict12: Option<FunnelVerdict>,
    /// FNV of the envelope sender (layer-3 blacklist, layer-5 table).
    pub sender: Option<u64>,
    /// Bag-of-words fingerprint (layer-3 collaborative content).
    pub bag: Option<u64>,
    /// FNV of the envelope recipient (layer-5 table).
    pub rcpt_key: u64,
    /// FNV of the trimmed body (layer-5 table).
    pub body_hash: u64,
    /// Layer-4 reflection predicate, evaluated on layer-1/2 survivors
    /// (spam is the bulk of traffic and never reaches layer 4).
    pub reflection: bool,
    /// Recipient at a study domain → receiver-candidate thresholds.
    pub rcpt_ours: bool,
    /// Body bytes the scan layers covered (`funnel.scan.bytes` share).
    pub body_bytes: u64,
}

/// Mergeable cross-email state: the layer-5 frequency tables.
///
/// Counts accumulate by addition, which commutes — per-shard accumulators
/// merged under any epoch grouping equal the tables one sequential pass
/// would build, so sharding never changes a frequency verdict.
#[derive(Debug, Clone, Default)]
pub struct FunnelState {
    rcpt_freq: HashMap<u64, u32>,
    sender_freq: HashMap<u64, u32>,
    body_freq: HashMap<u64, u32>,
}

impl FunnelState {
    /// Empty tables.
    pub fn new() -> FunnelState {
        FunnelState::default()
    }

    /// Counts one email's keys.
    pub fn absorb(&mut self, f: &EmailFeatures) {
        *self.rcpt_freq.entry(f.rcpt_key).or_insert(0) += 1;
        if let Some(s) = f.sender {
            *self.sender_freq.entry(s).or_insert(0) += 1;
        }
        *self.body_freq.entry(f.body_hash).or_insert(0) += 1;
    }

    /// Adds another shard's counts into this accumulator. Keyed integer
    /// addition commutes, so iterating the source tables in hash order
    /// is safe — ets-lint recognizes the entry-fold shape and exempts
    /// these loops from `unordered-iteration`.
    pub fn merge(&mut self, part: FunnelState) {
        for (k, v) in part.rcpt_freq {
            *self.rcpt_freq.entry(k).or_insert(0) += v;
        }
        for (k, v) in part.sender_freq {
            *self.sender_freq.entry(k).or_insert(0) += v;
        }
        for (k, v) in part.body_freq {
            *self.body_freq.entry(k).or_insert(0) += v;
        }
    }

    /// Emails absorbed so far (every email counts once in the body table).
    pub fn emails(&self) -> u64 {
        // ets-lint: allow(unordered-iteration): u64 sum is commutative.
        self.body_freq.values().map(|&v| v as u64).sum()
    }
}

/// One epoch's worth of extracted evidence: per-email features in
/// arrival order plus the epoch's frequency accumulator — the unit of
/// work a streaming shard hands back for deterministic epoch-merge.
#[derive(Debug, Default)]
pub struct FeatureBatch {
    /// Per-email features, in epoch order.
    pub feats: Vec<EmailFeatures>,
    /// Frequency counts for exactly `feats`.
    pub freq: FunnelState,
}

/// The funnel, bound to the study infrastructure.
pub struct Funnel<'a> {
    infra: &'a CollectionInfra,
    scorer: SpamScorer,
    /// Study-domain names for O(1) "at one of ours?" checks. Every study
    /// domain is a two-label registrable, so membership of an address's
    /// [`registrable_domain`](EmailAddress::registrable_domain) (its last
    /// two labels) is exactly the suffix scan it replaces (the label
    /// boundary is the dot we split at).
    study_set: HashSet<String>,
}

impl<'a> Funnel<'a> {
    /// Creates a funnel with the paper's thresholds.
    pub fn new(infra: &'a CollectionInfra) -> Self {
        let study_set = infra
            .domains
            .iter()
            .map(|d| d.domain().as_str().to_owned())
            .collect();
        Funnel {
            infra,
            scorer: SpamScorer::new(),
            study_set,
        }
    }

    /// Whether the recipient is at (a subdomain of) a study domain.
    fn rcpt_is_ours(&self, email: &CollectedEmail) -> bool {
        self.study_set.contains(email.rcpt_to.registrable_domain())
    }

    /// Layer 1: header sanity, given the parsed header `From`. Returns
    /// `true` when spam.
    fn layer1_spam(&self, email: &CollectedEmail, from: Option<&EmailAddress>) -> bool {
        // The relaying VPS must be the one assigned to the domain.
        match self.infra.vps_map.get(&email.domain) {
            Some(&ip) if ip == email.vps_ip => {}
            _ => return true,
        }
        // The sender must not be one of our domains: we never send email,
        // and spammers love posing as the recipient's domain.
        if let Some(sender) = email.mail_from.as_ref() {
            if self.study_set.contains(sender.registrable_domain()) {
                return true;
            }
        }
        // Header From posing as us (or any subdomain of us) is equally
        // disqualifying.
        if let Some(from) = from {
            let fd = from.domain();
            let o = email.domain.as_str();
            if fd == o || (fd.ends_with(o) && fd.as_bytes()[fd.len() - o.len() - 1] == b'.') {
                return true;
            }
        }
        false
    }

    /// Layer 2: spam scorer + archive rule, given the parsed header
    /// `From`. Returns `true` when spam.
    fn layer2_spam(&self, email: &CollectedEmail, from: Option<&EmailAddress>) -> bool {
        if email.message.has_attachment_ext(&["zip", "rar"]) {
            return true;
        }
        self.scorer.score_with_from(&email.message, from).is_spam()
    }

    /// Extracts one email's [`EmailFeatures`] — a pure per-email function
    /// of the email alone, so extraction can run on any shard in any
    /// order. Layers 1–2 are decided here; the layer-4 predicate is
    /// evaluated only for their survivors. The header `From` is parsed
    /// once, for all three.
    pub fn features(&self, email: &CollectedEmail) -> EmailFeatures {
        let from = email.message.from_addr();
        let from = from.as_ref();
        let verdict12 = if self.layer1_spam(email, from) {
            Some(FunnelVerdict::SpamHeader)
        } else if self.layer2_spam(email, from) {
            Some(FunnelVerdict::SpamScore)
        } else {
            None
        };
        EmailFeatures {
            verdict12,
            // Sender identity is the FNV of the canonical `local@domain`
            // rendering — the same keying scheme the body table uses.
            sender: email.mail_from.as_ref().map(|a| fnv(a.as_str().as_bytes())),
            bag: bag_of_words(&email.message.body),
            rcpt_key: fnv(email.rcpt_to.as_str().as_bytes()),
            body_hash: fnv(email.message.body.trim().as_bytes()),
            reflection: verdict12.is_none() && reflection_with_from(email, from),
            rcpt_ours: self.rcpt_is_ours(email),
            body_bytes: email.message.body.len() as u64,
        }
    }

    /// Extracts one epoch's features plus its shard-local frequency
    /// accumulator — the streaming work unit. Emails must be passed in
    /// epoch order.
    pub fn feature_batch<'e>(
        &self,
        emails: impl IntoIterator<Item = &'e CollectedEmail>,
    ) -> FeatureBatch {
        let mut batch = FeatureBatch::default();
        for email in emails {
            let f = self.features(email);
            batch.freq.absorb(&f);
            batch.feats.push(f);
        }
        batch
    }

    /// Runs the corpus-level layers (3, 4, 5) over extracted features.
    ///
    /// `feats` must be in canonical arrival order and `freq` must hold
    /// exactly their counts. Each layer-3 fixpoint iteration is a pure
    /// function of the verdict state at its start (the spam sender/bag
    /// tables build by parallel fold — set union is order-insensitive —
    /// then survivors re-flag in a parallel map); layers 4 and 5 only
    /// read per-email flags and `freq`. Verdicts are therefore a pure
    /// function of the feature sequence — independent of thread count
    /// and of how extraction was sharded into epochs.
    pub fn finish(&self, feats: &[EmailFeatures], freq: &FunnelState) -> Vec<FunnelVerdict> {
        let n = feats.len();
        let mut finish_span = ets_obs::span!("funnel.finish");
        finish_span.arg("emails", n as u64);
        let mut verdicts: Vec<Option<FunnelVerdict>> = feats.iter().map(|f| f.verdict12).collect();

        // Layer 3 — collect spam senders and spam bags, then propagate
        // until fixpoint (a newly flagged email contributes its
        // sender/bag too; one extra sweep suffices in practice, but loop
        // to be exact).
        let mut layer3 = ets_obs::span!("funnel.layer3", ets_obs::Level::Debug);
        let mut layer3_rounds = 0u64;
        loop {
            layer3_rounds += 1;
            let (spam_senders, spam_bags) = par_fold(
                &verdicts,
                || (HashSet::<u64>::new(), HashSet::<u64>::new()),
                |acc, i, v| {
                    if matches!(v, Some(v) if v.is_spam()) {
                        if let Some(s) = feats[i].sender {
                            acc.0.insert(s);
                        }
                        if let Some(b) = feats[i].bag {
                            acc.1.insert(b);
                        }
                    }
                },
                |acc, part| {
                    acc.0.extend(part.0);
                    acc.1.extend(part.1);
                },
            );
            let newly_spam: Vec<bool> = par_map(&verdicts, |i, v| {
                if v.is_some() {
                    return false;
                }
                let sender_hit = feats[i]
                    .sender
                    .map(|s| spam_senders.contains(&s))
                    .unwrap_or(false);
                let bag_hit = feats[i]
                    .bag
                    .map(|b| spam_bags.contains(&b))
                    .unwrap_or(false);
                sender_hit || bag_hit
            });
            let mut changed = false;
            for (i, &hit) in newly_spam.iter().enumerate() {
                if hit {
                    verdicts[i] = Some(FunnelVerdict::SpamCollaborative);
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        layer3.arg("rounds", layer3_rounds);
        ets_obs::metrics::counter_add("funnel.layer3.rounds", layer3_rounds);
        drop(layer3);

        // Layer 4 on survivors: the predicate was evaluated at feature
        // time; here it only applies to emails layer 3 left standing.
        let layer4 = ets_obs::span!("funnel.layer4", ets_obs::Level::Debug);
        for (i, f) in feats.iter().enumerate() {
            if verdicts[i].is_none() && f.reflection {
                verdicts[i] = Some(FunnelVerdict::Reflection);
            }
        }
        drop(layer4);

        // Layer 5 — frequency thresholds against the corpus-wide tables.
        let layer5 = ets_obs::span!("funnel.layer5", ets_obs::Level::Debug);
        let finals: Vec<Option<FunnelVerdict>> = par_map(feats, |i, f| {
            if verdicts[i].is_some() {
                return None;
            }
            if f.rcpt_ours {
                let too_frequent = freq.rcpt_freq[&f.rcpt_key] as usize >= RECIPIENT_FREQ
                    || f.sender
                        .map(|s| freq.sender_freq[&s] as usize >= SENDER_FREQ)
                        .unwrap_or(false)
                    || freq.body_freq[&f.body_hash] as usize >= CONTENT_FREQ;
                Some(if too_frequent {
                    FunnelVerdict::FrequencyFiltered
                } else {
                    FunnelVerdict::ReceiverTypo
                })
            } else {
                // Relay submission: an SMTP-typo candidate. A single user
                // legitimately repeats, so the receiver thresholds do not
                // disqualify it (§4.3: Layer 5 exempts SMTP typos); but
                // machine-frequency bodies are still filtered.
                let automated = freq.body_freq[&f.body_hash] as usize >= CONTENT_FREQ * 4;
                Some(if automated {
                    FunnelVerdict::FrequencyFiltered
                } else {
                    FunnelVerdict::SmtpTypo
                })
            }
        });
        for (i, f) in finals.into_iter().enumerate() {
            if let Some(v) = f {
                verdicts[i] = Some(v);
            }
        }
        drop(layer5);
        debug_assert_eq!(verdicts.len(), n);
        let verdicts: Vec<FunnelVerdict> = verdicts
            .into_iter()
            .map(|v| v.expect("all classified"))
            .collect();
        // Verdict tallies are pure workload quantities — identical across
        // thread counts, so they belong in the deterministic registry.
        let mut tally = [0u64; 7];
        for v in &verdicts {
            tally[*v as usize] += 1;
        }
        for (v, &count) in [
            FunnelVerdict::SpamHeader,
            FunnelVerdict::SpamScore,
            FunnelVerdict::SpamCollaborative,
            FunnelVerdict::Reflection,
            FunnelVerdict::FrequencyFiltered,
            FunnelVerdict::ReceiverTypo,
            FunnelVerdict::SmtpTypo,
        ]
        .iter()
        .zip(tally.iter())
        {
            if count > 0 {
                ets_obs::metrics::counter_add(&format!("funnel.verdict.{}", v.key()), count);
            }
        }
        verdicts
    }

    /// Classifies a whole collection: the batch oracle.
    ///
    /// Features extract in one data-parallel pass, the frequency tables
    /// build by parallel fold of per-chunk accumulators merged by
    /// addition, and [`Funnel::finish`] runs the corpus-level layers.
    /// Output is identical for any thread count — and identical to the
    /// streaming path, which extracts the same features epoch by epoch
    /// and merges the same accumulators before the same `finish`.
    pub fn classify_all(&self, emails: &[CollectedEmail]) -> Vec<FunnelVerdict> {
        let n = emails.len();
        let mut funnel_span = ets_obs::span!("funnel.classify");
        funnel_span.arg("emails", n as u64);
        ets_obs::metrics::counter_add("funnel.emails", n as u64);
        let features_span = ets_obs::span!("funnel.features", ets_obs::Level::Debug);
        let feats: Vec<EmailFeatures> = par_map(emails, |_, e| self.features(e));
        drop(features_span);
        // Bytes the single-pass scan layers (2 and 4) cover — a pure
        // workload quantity, so it belongs in the commutative registry.
        let scan_bytes: u64 = feats.iter().map(|f| f.body_bytes).sum();
        ets_obs::metrics::counter_add("funnel.scan.bytes", scan_bytes);
        let freq = par_fold(
            &feats,
            FunnelState::new,
            |acc, _, f| acc.absorb(f),
            |acc, part| acc.merge(part),
        );
        self.finish(&feats, &freq)
    }
}

/// Layer-4 list-mail body phrases (§4.3).
const REFLECTION_PHRASES: [&str; 5] = [
    "unsubscribe",
    "remove yourself",
    "to stop receiving",
    "manage your subscription",
    "you are receiving this because",
];

/// Layer-4 sender-header cues.
const HEADER_CUES: [&str; 2] = ["bounce", "unsubscribe"];

fn reflection_phrase_set() -> &'static PatternSet<()> {
    static SET: OnceLock<PatternSet<()>> = OnceLock::new();
    SET.get_or_init(|| {
        let tagged: Vec<(&str, ())> = REFLECTION_PHRASES.iter().map(|p| (*p, ())).collect();
        PatternSet::compile(&tagged)
    })
}

fn header_cue_set() -> &'static PatternSet<()> {
    static SET: OnceLock<PatternSet<()>> = OnceLock::new();
    SET.get_or_init(|| {
        let tagged: Vec<(&str, ())> = HEADER_CUES.iter().map(|p| (*p, ())).collect();
        PatternSet::compile(&tagged)
    })
}

/// The Layer-4 reflection predicate: unsubscribe headers, bounce
/// senders, disagreeing From/Reply-To/Return-Path, list-mail body
/// phrases, system-user senders. Phrase and header-cue checks run on
/// compiled `ets-scan` sets — one case-folding pass per text, no
/// lowercased copies. The lowercase-and-`contains` form it replaced is
/// the oracle of this module's unit tests.
pub fn reflection_mail(email: &CollectedEmail) -> bool {
    reflection_with_from(email, email.message.from_addr().as_ref())
}

/// [`reflection_mail`] with the header `From` already parsed.
fn reflection_with_from(email: &CollectedEmail, from: Option<&EmailAddress>) -> bool {
    let m = &email.message;
    if m.headers.contains("List-Unsubscribe") {
        return true;
    }
    for h in ["Sender", "From", "Reply-To"] {
        if let Some(v) = m.headers.get(h) {
            if header_cue_set().any_match(v) {
                return true;
            }
        }
    }
    // Any two of From / Reply-To / Return-Path disagreeing, byte for
    // byte: the local part's case counts here, unlike in `==`.
    let (reply_to, return_path) = (m.reply_to_addr(), m.return_path_addr());
    let mut addrs = [from, reply_to.as_ref(), return_path.as_ref()]
        .into_iter()
        .flatten();
    if let Some(first) = addrs.next() {
        if addrs.any(|a| a.as_str() != first.as_str()) {
            return true;
        }
    }
    // Body phrases.
    if reflection_phrase_set().any_match(&m.body) {
        return true;
    }
    // System-user senders.
    if let Some(sender) = from.or(email.mail_from.as_ref()) {
        if sender.is_system_user() {
            return true;
        }
    }
    false
}

/// Order-insensitive bag-of-words fingerprint, `None` unless the body
/// has more than [`BOW_MIN_WORDS`] distinct words.
fn bag_of_words(body: &str) -> Option<u64> {
    let mut words: Vec<&str> = TokenStream::alnum(body).map(|t| t.text).collect();
    words.sort_unstable();
    words.dedup();
    if words.len() <= BOW_MIN_WORDS {
        return None;
    }
    let mut h: u64 = 0xcbf29ce484222325;
    for w in words {
        for b in w.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        h ^= 0xFF;
        h = h.wrapping_mul(0x100000001b3);
    }
    Some(h)
}

fn fnv(data: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::{TrafficConfig, TrafficGenerator, TrueKind};

    /// The pre-`ets-scan` Layer-4 predicate (lowercase-then-`contains` per
    /// phrase): the oracle of `reflection_scan_path_matches_legacy`.
    fn reflection_mail_legacy(email: &CollectedEmail) -> bool {
        let m = &email.message;
        if m.headers.contains("List-Unsubscribe") {
            return true;
        }
        for h in ["Sender", "From", "Reply-To"] {
            if let Some(v) = m.headers.get(h) {
                let v = v.to_ascii_lowercase();
                if v.contains("bounce") || v.contains("unsubscribe") {
                    return true;
                }
            }
        }
        // Any two of From / Reply-To / Return-Path disagreeing.
        let addrs: Vec<String> = [m.from_addr(), m.reply_to_addr(), m.return_path_addr()]
            .into_iter()
            .flatten()
            .map(|a| a.to_string())
            .collect();
        if addrs.len() >= 2 && addrs.iter().any(|a| a != &addrs[0]) {
            return true;
        }
        // Body phrases.
        let body = m.body.to_ascii_lowercase();
        for phrase in REFLECTION_PHRASES {
            if body.contains(phrase) {
                return true;
            }
        }
        // System-user senders.
        if let Some(from) = m.from_addr().or_else(|| email.mail_from.clone()) {
            if from.is_system_user() {
                return true;
            }
        }
        false
    }

    /// `Funnel::features` as it was before the header `From` was parsed
    /// once: each layer parses `From` itself, layer 2 runs the legacy
    /// scorer and layer 4 is [`reflection_mail_legacy`]. The oracle of the
    /// `features_match_the_oracle_*` tests.
    fn features_oracle(funnel: &Funnel<'_>, email: &CollectedEmail) -> EmailFeatures {
        let layer1 = || {
            match funnel.infra.vps_map.get(&email.domain) {
                Some(&ip) if ip == email.vps_ip => {}
                _ => return true,
            }
            if let Some(sender) = email.mail_from.as_ref() {
                if funnel.study_set.contains(sender.registrable_domain()) {
                    return true;
                }
            }
            if let Some(from) = email.message.from_addr() {
                let fd = from.domain();
                let o = email.domain.as_str();
                if fd == o || (fd.ends_with(o) && fd.as_bytes()[fd.len() - o.len() - 1] == b'.') {
                    return true;
                }
            }
            false
        };
        let layer2 = || {
            email.message.has_attachment_ext(&["zip", "rar"])
                || funnel.scorer.score_legacy(&email.message).is_spam()
        };
        let verdict12 = if layer1() {
            Some(FunnelVerdict::SpamHeader)
        } else if layer2() {
            Some(FunnelVerdict::SpamScore)
        } else {
            None
        };
        EmailFeatures {
            verdict12,
            sender: email
                .mail_from
                .as_ref()
                .map(|a| fnv(a.to_string().as_bytes())),
            bag: bag_of_words(&email.message.body),
            rcpt_key: fnv(email.rcpt_to.to_string().as_bytes()),
            body_hash: fnv(email.message.body.trim().as_bytes()),
            reflection: verdict12.is_none() && reflection_mail_legacy(email),
            rcpt_ours: funnel
                .study_set
                .contains(email.rcpt_to.registrable_domain()),
            body_bytes: email.message.body.len() as u64,
        }
    }

    #[test]
    fn features_match_the_oracle_on_generated_traffic() {
        let infra = CollectionInfra::build();
        let funnel = Funnel::new(&infra);
        for seed in 11..=15 {
            let gen = TrafficGenerator::new(&infra, TrafficConfig::test_scale(seed));
            for e in gen.generate() {
                assert_eq!(
                    funnel.features(&e.collected),
                    features_oracle(&funnel, &e.collected),
                    "seed {seed}: {:?}",
                    e.collected.message.headers
                );
            }
        }
    }

    #[test]
    fn features_match_the_oracle_on_edge_cases() {
        let infra = CollectionInfra::build();
        let funnel = Funnel::new(&infra);
        let domain: ets_core::DomainName = "gmaiql.com".parse().unwrap();
        let email = |mail_from: &str, message: ets_mail::MessageBuilder| CollectedEmail {
            domain: domain.clone(),
            vps_ip: infra.vps_map[&domain],
            date: crate::time::SimDate(0),
            client_helo: "mail.friend.example".to_owned(),
            mail_from: Some(mail_from.parse().unwrap()),
            rcpt_to: "victim@gmaiql.com".parse().unwrap(),
            message: message.build(),
            smtp_submission: false,
        };
        // Passes layers 1 and 2 and shows layer 4 no cue of its own.
        let plain = || {
            ets_mail::MessageBuilder::new()
                .raw_to("victim@gmaiql.com")
                .subject("lunch")
                .date("Thu, 9 Jun 2016 00:00:00 +0000")
                .message_id("<m1@friend.example>")
                .body("see you at noon")
        };
        let cases = [
            (
                "a From forging the study domain",
                email("bob@friend.example", plain().raw_from("admin@gmaiql.com")),
                Some(FunnelVerdict::SpamHeader),
                false,
            ),
            (
                "From and Reply-To differing only in the local part's case",
                email(
                    "bob@friend.example",
                    plain()
                        .raw_from("Bob@friend.example")
                        .reply_to("bob@friend.example"),
                ),
                None,
                true,
            ),
            (
                "no From, a system-user envelope sender",
                email("Postmaster+x@friend.example", plain()),
                None,
                true,
            ),
            (
                "an upper-case archive extension",
                email(
                    "bob@friend.example",
                    plain().raw_from("bob@friend.example").attach(
                        "OFFER.ZIP",
                        "application/zip",
                        vec![0x50, 0x4b],
                    ),
                ),
                Some(FunnelVerdict::SpamScore),
                false,
            ),
            (
                "an unparsable From, a system-user envelope sender",
                email("noreply@friend.example", plain().raw_from("<<<forged>>>")),
                None,
                true,
            ),
        ];
        for (what, email, verdict12, reflection) in &cases {
            let f = funnel.features(email);
            assert_eq!(f, features_oracle(&funnel, email), "{what}");
            assert_eq!(
                (f.verdict12, f.reflection),
                (*verdict12, *reflection),
                "{what}"
            );
        }
    }

    fn run(seed: u64) -> (Vec<crate::traffic::GenEmail>, Vec<FunnelVerdict>) {
        let infra = CollectionInfra::build();
        let gen = TrafficGenerator::new(&infra, TrafficConfig::test_scale(seed));
        let emails = gen.generate();
        let funnel = Funnel::new(&infra);
        let collected: Vec<_> = emails.iter().map(|e| e.collected.clone()).collect();
        let verdicts = funnel.classify_all(&collected);
        (emails, verdicts)
    }

    #[test]
    fn funnel_recall_on_spam_is_high() {
        let (emails, verdicts) = run(11);
        let mut spam_caught = 0usize;
        let mut spam_total = 0usize;
        for (e, v) in emails.iter().zip(&verdicts) {
            if e.truth == TrueKind::Spam {
                spam_total += 1;
                if !v.is_true_typo() {
                    spam_caught += 1;
                }
            }
        }
        let recall = spam_caught as f64 / spam_total as f64;
        assert!(
            recall > 0.95,
            "funnel let {} of {spam_total} spam through",
            spam_total - spam_caught
        );
    }

    #[test]
    fn true_receiver_typos_mostly_survive() {
        let (emails, verdicts) = run(12);
        let mut survived = 0usize;
        let mut total = 0usize;
        for (e, v) in emails.iter().zip(&verdicts) {
            if e.truth == TrueKind::Receiver {
                total += 1;
                if *v == FunnelVerdict::ReceiverTypo {
                    survived += 1;
                }
            }
        }
        assert!(total > 1000);
        let rate = survived as f64 / total as f64;
        // The paper's own manual validation put precision/recall around
        // 80%; the funnel inevitably loses some real typos to Layer 4/5.
        assert!(rate > 0.6, "only {survived}/{total} receiver typos survive");
    }

    #[test]
    fn reflections_are_detected_as_reflections() {
        let (emails, verdicts) = run(13);
        let mut as_reflection = 0usize;
        let mut total = 0usize;
        for (e, v) in emails.iter().zip(&verdicts) {
            if e.truth == TrueKind::Reflection {
                total += 1;
                if *v == FunnelVerdict::Reflection {
                    as_reflection += 1;
                }
            }
        }
        assert!(total > 300);
        assert!(
            as_reflection as f64 / total as f64 > 0.9,
            "{as_reflection}/{total}"
        );
    }

    #[test]
    fn smtp_typos_classified_as_smtp() {
        let (emails, verdicts) = run(14);
        let mut good = 0usize;
        let mut total = 0usize;
        for (e, v) in emails.iter().zip(&verdicts) {
            if e.truth == TrueKind::SmtpTypo {
                total += 1;
                if *v == FunnelVerdict::SmtpTypo {
                    good += 1;
                }
            }
        }
        assert!(total > 30, "total {total}");
        assert!(good as f64 / total as f64 > 0.7, "{good}/{total}");
    }

    #[test]
    fn layer1_catches_forged_senders() {
        let infra = CollectionInfra::build();
        let funnel = Funnel::new(&infra);
        let domain: ets_core::DomainName = "gmaiql.com".parse().unwrap();
        let msg = ets_mail::MessageBuilder::new()
            .raw_from("admin@gmaiql.com")
            .raw_to("victim@gmaiql.com")
            .subject("hello")
            .body("totally legitimate")
            .build();
        let email = CollectedEmail {
            domain: domain.clone(),
            vps_ip: infra.vps_map[&domain],
            date: crate::time::SimDate(0),
            client_helo: "x".to_owned(),
            mail_from: Some("admin@gmaiql.com".parse().unwrap()),
            rcpt_to: "victim@gmaiql.com".parse().unwrap(),
            message: msg,
            smtp_submission: false,
        };
        assert_eq!(funnel.classify_all(&[email])[0], FunnelVerdict::SpamHeader);
    }

    #[test]
    fn layer1_catches_vps_mismatch() {
        let infra = CollectionInfra::build();
        let funnel = Funnel::new(&infra);
        let domain: ets_core::DomainName = "gmaiql.com".parse().unwrap();
        let other: ets_core::DomainName = "hovmail.com".parse().unwrap();
        let email = CollectedEmail {
            domain: domain.clone(),
            vps_ip: infra.vps_map[&other], // wrong VPS
            date: crate::time::SimDate(0),
            client_helo: "x".to_owned(),
            mail_from: Some("someone@elsewhere.example".parse().unwrap()),
            rcpt_to: "victim@gmaiql.com".parse().unwrap(),
            message: ets_mail::Message::new(),
            smtp_submission: false,
        };
        assert_eq!(funnel.classify_all(&[email])[0], FunnelVerdict::SpamHeader);
    }

    #[test]
    fn collaborative_filter_propagates_sender() {
        let infra = CollectionInfra::build();
        let funnel = Funnel::new(&infra);
        let domain: ets_core::DomainName = "gmaiql.com".parse().unwrap();
        let mk = |body: &str, subject: &str| CollectedEmail {
            domain: domain.clone(),
            vps_ip: infra.vps_map[&domain],
            date: crate::time::SimDate(0),
            client_helo: "mail.bulk.example".to_owned(),
            mail_from: Some("spammer@bulk.example".parse().unwrap()),
            rcpt_to: "victim@gmaiql.com".parse().unwrap(),
            message: ets_mail::MessageBuilder::new()
                .raw_from("spammer@bulk.example")
                .raw_to("victim@gmaiql.com")
                .subject(subject)
                .body(body)
                .build(),
            smtp_submission: false,
        };
        // First email: blatant spam (Layer 2). Second: innocuous body from
        // the same sender — Layer 3 must catch it.
        let emails = vec![
            mk(
                "viagra cialis pharmacy lottery winner act now click here http://a http://b http://c",
                "FREE!!!",
            ),
            mk("just checking in about the meeting", "hello"),
        ];
        let v = funnel.classify_all(&emails);
        assert_eq!(v[0], FunnelVerdict::SpamScore);
        assert_eq!(v[1], FunnelVerdict::SpamCollaborative);
    }

    #[test]
    fn reflection_scan_path_matches_legacy() {
        let (emails, _) = run(15);
        for e in &emails {
            assert_eq!(
                reflection_mail(&e.collected),
                reflection_mail_legacy(&e.collected),
                "layer-4 paths disagree on {:?}",
                e.collected.message.headers.get("Subject")
            );
        }
    }

    #[test]
    fn bag_of_words_is_order_insensitive() {
        let words: Vec<String> = (0..25).map(|i| format!("word{i}")).collect();
        let a = words.join(" ");
        let b: String = words.iter().rev().cloned().collect::<Vec<_>>().join(" ");
        assert_eq!(bag_of_words(&a), bag_of_words(&b));
        assert!(bag_of_words("short body").is_none());
        assert_ne!(bag_of_words(&a), bag_of_words(&format!("{a} extraword")));
    }

    #[test]
    fn frequency_filter_catches_repeated_recipient() {
        let infra = CollectionInfra::build();
        let funnel = Funnel::new(&infra);
        let domain: ets_core::DomainName = "gmaiql.com".parse().unwrap();
        let mut emails = Vec::new();
        for i in 0..25u32 {
            let msg = ets_mail::MessageBuilder::new()
                .raw_from(&format!("sender{i}@site{i}.example"))
                .raw_to("same.person@gmaiql.com")
                .subject(&format!("note {i}"))
                .body(&format!(
                    "unique body number {i} with several distinct words here"
                ))
                .build();
            emails.push(CollectedEmail {
                domain: domain.clone(),
                vps_ip: infra.vps_map[&domain],
                date: crate::time::SimDate(i % 200),
                client_helo: format!("mail{i}.example"),
                mail_from: Some(format!("sender{i}@site{i}.example").parse().unwrap()),
                rcpt_to: "same.person@gmaiql.com".parse().unwrap(),
                message: msg,
                smtp_submission: false,
            });
        }
        let v = funnel.classify_all(&emails);
        assert!(v.iter().all(|&x| x == FunnelVerdict::FrequencyFiltered));
    }
}
