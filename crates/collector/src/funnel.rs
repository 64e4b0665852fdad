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
use ets_parallel::par_map;
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
/// classification; identical feature sequences yield identical verdicts
/// however the extraction was sharded, which is what lets the streaming
/// pipeline match the batch oracle byte for byte.
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

    /// Layer 5's verdict on a survivor that layers 3 and 4 left standing.
    fn layer5(&self, s: &Survivor) -> FunnelVerdict {
        if s.rcpt_ours {
            let too_frequent = self.rcpt_freq[&s.rcpt_key] as usize >= RECIPIENT_FREQ
                || s.sender()
                    .is_some_and(|k| self.sender_freq[&k] as usize >= SENDER_FREQ)
                || self.body_freq[&s.body_hash] as usize >= CONTENT_FREQ;
            if too_frequent {
                FunnelVerdict::FrequencyFiltered
            } else {
                FunnelVerdict::ReceiverTypo
            }
        } else {
            // Relay submission: an SMTP-typo candidate. A single user
            // legitimately repeats, so the receiver thresholds do not
            // disqualify it (§4.3: Layer 5 exempts SMTP typos); but
            // machine-frequency bodies are still filtered.
            if self.body_freq[&s.body_hash] as usize >= CONTENT_FREQ * 4 {
                FunnelVerdict::FrequencyFiltered
            } else {
                FunnelVerdict::SmtpTypo
            }
        }
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

/// What layers 3–5 read of a layer-1/2 survivor: the fields of its
/// [`EmailFeatures`] but the verdict and the byte count, in 40 bytes
/// where the features take 64.
#[derive(Debug, Clone, Copy)]
struct Survivor {
    /// The sender key; meaningful only when `has_sender`.
    sender: u64,
    /// The bag-of-words key; meaningful only when `has_bag`.
    bag: u64,
    rcpt_key: u64,
    body_hash: u64,
    has_sender: bool,
    has_bag: bool,
    reflection: bool,
    rcpt_ours: bool,
}

impl Survivor {
    /// The record of an email layers 1–2 let through; `None` for spam.
    fn of(f: &EmailFeatures) -> Option<Survivor> {
        f.verdict12.is_none().then(|| Survivor {
            sender: f.sender.unwrap_or(0),
            bag: f.bag.unwrap_or(0),
            rcpt_key: f.rcpt_key,
            body_hash: f.body_hash,
            has_sender: f.sender.is_some(),
            has_bag: f.bag.is_some(),
            reflection: f.reflection,
            rcpt_ours: f.rcpt_ours,
        })
    }

    fn sender(&self) -> Option<u64> {
        self.has_sender.then_some(self.sender)
    }

    fn bag(&self) -> Option<u64> {
        self.has_bag.then_some(self.bag)
    }
}

/// Layer 3's evidence: every sender and bag-of-words seen on spam so
/// far. Both grow by set union, so the order keys arrive in never
/// matters.
#[derive(Debug, Default)]
struct SpamKeys {
    senders: HashSet<u64>,
    bags: HashSet<u64>,
}

impl SpamKeys {
    /// Adds a spam email's keys.
    fn insert(&mut self, sender: Option<u64>, bag: Option<u64>) {
        self.senders.extend(sender);
        self.bags.extend(bag);
    }

    /// Whether a survivor's sender or bag has been seen on spam.
    fn flags(&self, s: &Survivor) -> bool {
        s.sender().is_some_and(|k| self.senders.contains(&k))
            || s.bag().is_some_and(|k| self.bags.contains(&k))
    }

    /// Layer 3 to its fixpoint over the survivors. Each round flags, in
    /// a parallel map, every survivor not yet flagged whose sender or
    /// bag is a spam key, then adds the keys of the survivors it flagged.
    /// Returns each survivor's layer-3 verdict and the rounds run; the
    /// last round flags nothing.
    fn propagate(&mut self, survivors: &[Survivor]) -> (Vec<Option<FunnelVerdict>>, u64) {
        let mut verdicts = vec![None; survivors.len()];
        let mut rounds = 0u64;
        loop {
            rounds += 1;
            let hits: Vec<bool> = par_map(survivors, |i, s| verdicts[i].is_none() && self.flags(s));
            let mut changed = false;
            for ((v, s), hit) in verdicts.iter_mut().zip(survivors).zip(hits) {
                if hit {
                    *v = Some(FunnelVerdict::SpamCollaborative);
                    self.insert(s.sender(), s.bag());
                    changed = true;
                }
            }
            if !changed {
                return (verdicts, rounds);
            }
        }
    }
}

/// What the funnel keeps of the emails it has absorbed, until
/// [`Funnel::finish`]: only what layers 3–5 can still read or change.
///
/// Per email that is its layer-1/2 verdict, one byte. A layer-1/2 spam
/// email adds its sender and bag to the layer-3 spam sets; a survivor
/// adds a 40-byte [`Survivor`] record; and the layer-5 frequency tables
/// count every email.
#[derive(Debug, Default)]
pub(crate) struct Retained {
    /// Each email's layer-1/2 verdict in arrival order; `None` for a
    /// survivor.
    verdicts: Vec<Option<FunnelVerdict>>,
    /// The survivors' records in arrival order: the `None` entries of
    /// `verdicts`, in turn, so no index is kept.
    survivors: Vec<Survivor>,
    /// The senders and bags of layer-1/2 spam.
    spam: SpamKeys,
    /// The layer-5 frequency tables over every email.
    freq: FunnelState,
}

impl Retained {
    /// Absorbs one epoch's features, which must arrive in stream order.
    pub(crate) fn absorb(&mut self, batch: FeatureBatch) {
        for f in batch.feats.iter().filter(|f| f.verdict12.is_some()) {
            self.spam.insert(f.sender, f.bag);
        }
        let verdicts = batch.feats.iter().map(|f| f.verdict12);
        let survivors = batch.feats.iter().filter_map(Survivor::of);
        // `stream_map` commits epochs in canonical order, so the
        // verdict column and the survivor records grow in stream order.
        // The pragma on the first append covers its own line and the next.
        self.verdicts.extend(verdicts); // ets-lint: allow(non-commutative-merge): see above
        self.survivors.extend(survivors);
        self.freq.merge(batch.freq);
    }

    /// Emails absorbed so far.
    pub(crate) fn emails(&self) -> usize {
        self.verdicts.len()
    }
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

    /// Runs the corpus-level layers (3, 4, 5) over what `kept` retained.
    ///
    /// Layer 3 starts from the layer-1/2 spam keys and propagates to a
    /// fixpoint over the survivors alone ([`SpamKeys::propagate`]); set
    /// union is order-insensitive, and each round is a pure function of
    /// the verdicts at its start. Layers 4 and 5 read only per-survivor
    /// flags and the frequency tables. Verdicts are therefore a pure
    /// function of the feature sequence — independent of thread count and
    /// of how extraction was sharded into epochs.
    pub(crate) fn finish(&self, kept: Retained) -> Vec<FunnelVerdict> {
        let Retained {
            verdicts,
            survivors,
            mut spam,
            freq,
        } = kept;
        let n = verdicts.len();
        let mut finish_span = ets_obs::span!("funnel.finish");
        finish_span.arg("emails", n as u64);
        finish_span.arg("survivors", survivors.len() as u64);

        // Layer 3 — a spam sender or bag flags every survivor that shares
        // it, and a newly flagged survivor's keys flag further ones.
        // `decided` holds each survivor's verdict from layers 3–4 so far.
        let mut layer3 = ets_obs::span!("funnel.layer3", ets_obs::Level::Debug);
        let (mut decided, layer3_rounds) = spam.propagate(&survivors);
        layer3.arg("rounds", layer3_rounds);
        ets_obs::metrics::counter_add("funnel.layer3.rounds", layer3_rounds);
        drop(layer3);

        // Layer 4 on survivors: the predicate was evaluated at feature
        // time; here it only applies to emails layer 3 left standing.
        let layer4 = ets_obs::span!("funnel.layer4", ets_obs::Level::Debug);
        for (v, s) in decided.iter_mut().zip(&survivors) {
            if v.is_none() && s.reflection {
                *v = Some(FunnelVerdict::Reflection);
            }
        }
        drop(layer4);

        // Layer 5 — frequency thresholds against the corpus-wide tables.
        let layer5 = ets_obs::span!("funnel.layer5", ets_obs::Level::Debug);
        let finals: Vec<FunnelVerdict> = par_map(&survivors, |i, s| {
            decided[i].unwrap_or_else(|| freq.layer5(s))
        });
        drop(layer5);

        // Each `None` of the layer-1/2 column is the next survivor.
        let mut finals = finals.into_iter();
        let verdicts: Vec<FunnelVerdict> = verdicts
            .into_iter()
            .filter_map(|v| v.or_else(|| finals.next()))
            .collect();
        debug_assert_eq!(verdicts.len(), n);
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
    /// Features extract in one data-parallel pass and the frequency
    /// tables count them in one sequential pass. The collection is then
    /// absorbed as one epoch into the same retained state the stream
    /// fills, and the same `finish` runs the corpus-level layers. Output
    /// is identical for any thread count — and identical to the
    /// streaming path, which extracts the same features epoch by epoch.
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
        let mut freq = FunnelState::new();
        for f in &feats {
            freq.absorb(f);
        }
        let mut kept = Retained::default();
        kept.absorb(FeatureBatch { feats, freq });
        self.finish(kept)
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
///
/// A body of at most that many tokens cannot have more distinct words,
/// so it is dismissed before anything is collected. The rest sort by
/// their first 8 bytes read as a big-endian number, then by the whole
/// text. That is the words' own order (a token never holds a zero byte,
/// so the padding of a shorter word sorts first, as a prefix does), so
/// the fingerprint hashes the same sequence a plain sort would give.
fn bag_of_words(body: &str) -> Option<u64> {
    // Fewer than `BOW_MIN_WORDS + 1` tokens: no bag.
    TokenStream::alnum(body).nth(BOW_MIN_WORDS)?;
    let mut words: Vec<(u64, &str)> = TokenStream::alnum(body)
        .map(|t| (prefix_key(t.text), t.text))
        .collect();
    words.sort_unstable();
    words.dedup();
    if words.len() <= BOW_MIN_WORDS {
        return None;
    }
    let mut h: u64 = 0xcbf29ce484222325;
    for (_, w) in words {
        for b in w.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        h ^= 0xFF;
        h = h.wrapping_mul(0x100000001b3);
    }
    Some(h)
}

/// A word's first 8 bytes as a big-endian number, zero-padded.
fn prefix_key(word: &str) -> u64 {
    let mut buf = [0u8; 8];
    let n = word.len().min(8);
    buf[..n].copy_from_slice(&word.as_bytes()[..n]);
    u64::from_be_bytes(buf)
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
    use crate::stream::{stream_collect, StreamFunnel};
    use crate::traffic::{GenEmail, TrafficConfig, TrafficGenerator, TrueKind};

    /// The traffic perfbench's `study` workload streams: the default
    /// configuration at spam scale 1/300, seed 1 (216,580 emails).
    fn study_config() -> TrafficConfig {
        TrafficConfig {
            seed: 1,
            spam_scale: 1.0 / 300.0,
            ..TrafficConfig::default()
        }
    }

    /// `Funnel::finish` as it was when the funnel kept every email's
    /// features until the end: verbatim, but a free function that also
    /// returns the rounds it adds to `funnel.layer3.rounds`, and whose
    /// layer-3 spam sets are one sequential set union, not a parallel
    /// fold. The oracle of the
    /// `layers_3_to_5_match_the_full_feature_oracle_*` tests.
    fn finish_oracle(feats: &[EmailFeatures], freq: &FunnelState) -> (Vec<FunnelVerdict>, u64) {
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
            let (mut spam_senders, mut spam_bags) = (HashSet::new(), HashSet::new());
            for (i, v) in verdicts.iter().enumerate() {
                if matches!(v, Some(v) if v.is_spam()) {
                    if let Some(s) = feats[i].sender {
                        spam_senders.insert(s);
                    }
                    if let Some(b) = feats[i].bag {
                        spam_bags.insert(b);
                    }
                }
            }
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
        (verdicts, layer3_rounds)
    }

    /// Holds the layers 3–5 of `classify_all` and of `streamed`, the
    /// `StreamFunnel::finish` verdicts of the same emails, to
    /// [`finish_oracle`]. The rounds compared are those the layer-3
    /// fixpoint adds to `funnel.layer3.rounds`, taken from the state both
    /// paths absorb into: the counter itself is process-wide, and other
    /// tests move it concurrently. Returns the oracle's verdicts and
    /// rounds.
    fn assert_layers_match_oracle(
        funnel: &Funnel<'_>,
        emails: &[CollectedEmail],
        streamed: &[FunnelVerdict],
        what: &str,
    ) -> (Vec<FunnelVerdict>, u64) {
        let feats: Vec<EmailFeatures> = emails.iter().map(|e| funnel.features(e)).collect();
        let mut freq = FunnelState::new();
        feats.iter().for_each(|f| freq.absorb(f));
        let (want, want_rounds) = finish_oracle(&feats, &freq);
        assert_eq!(funnel.classify_all(emails), want, "{what}: classify_all");
        assert_eq!(streamed, want, "{what}: StreamFunnel::finish");
        let mut kept = Retained::default();
        kept.absorb(FeatureBatch { feats, freq });
        let (_, rounds) = kept.spam.propagate(&kept.survivors);
        assert_eq!(rounds, want_rounds, "{what}: layer-3 rounds");
        (want, want_rounds)
    }

    /// [`assert_layers_match_oracle`] on one generated collection, with
    /// `stream_collect` as the streamed path.
    fn assert_collection_matches_oracle(config: TrafficConfig) {
        let infra = CollectionInfra::build();
        let funnel = Funnel::new(&infra);
        let gen = TrafficGenerator::new(&infra, config.clone());
        let emails: Vec<CollectedEmail> = gen.generate().into_iter().map(|e| e.collected).collect();
        let streamed = stream_collect(&gen, &funnel, &mut |_: GenEmail| {}).finish();
        let what = format!("seed {} spam scale {}", config.seed, config.spam_scale);
        assert_layers_match_oracle(&funnel, &emails, &streamed, &what);
    }

    #[test]
    fn layers_3_to_5_match_the_full_feature_oracle_at_test_scale() {
        // Seeds 11-15 and the `repro --fast` collection.
        for seed in [11, 12, 13, 14, 15, 20160604] {
            assert_collection_matches_oracle(TrafficConfig::test_scale(seed));
        }
    }

    #[test]
    fn layers_3_to_5_match_the_full_feature_oracle_on_the_study_workload() {
        assert_collection_matches_oracle(study_config());
    }

    #[test]
    fn layers_3_to_5_match_the_full_feature_oracle_over_three_rounds() {
        let infra = CollectionInfra::build();
        let funnel = Funnel::new(&infra);
        let domain: ets_core::DomainName = "gmaiql.com".parse().unwrap();
        let mk = |sender: &str, subject: &str, body: &str| CollectedEmail {
            domain: domain.clone(),
            vps_ip: infra.vps_map[&domain],
            date: crate::time::SimDate(0),
            client_helo: "mail.example".to_owned(),
            mail_from: Some(sender.parse().unwrap()),
            rcpt_to: "victim@gmaiql.com".parse().unwrap(),
            message: ets_mail::MessageBuilder::new()
                .raw_from(sender)
                .raw_to("victim@gmaiql.com")
                .subject(subject)
                .body(body)
                .build(),
            smtp_submission: false,
        };
        let words = "we met at the conference last week and talked about the garden \
                     project your sister mentioned the new library hours and the bus \
                     route to the harbor market on friday";
        let shuffled: Vec<&str> = words.split_whitespace().rev().collect();
        let emails = [
            // Layer-2 spam: its sender is a spam key from the start.
            mk(
                "spammer@bulk.example",
                "FREE!!!",
                "viagra cialis pharmacy lottery winner act now click here http://a http://b http://c",
            ),
            // Round 1 flags it by its sender; its bag becomes a spam key.
            mk("spammer@bulk.example", "notes", words),
            // Round 2 flags it by that bag; round 3 flags nothing.
            mk("friend@other.example", "re: notes", &shuffled.join(" ")),
            // Never flagged.
            mk("colleague@third.example", "lunch", "see you at noon"),
        ];
        let feats: Vec<EmailFeatures> = emails.iter().map(|e| funnel.features(e)).collect();
        assert_eq!(feats[0].verdict12, Some(FunnelVerdict::SpamScore));
        assert!(feats[1..].iter().all(|f| f.verdict12.is_none()));
        assert!(feats[1].bag.is_some() && feats[1].bag == feats[2].bag);
        let mut stream = StreamFunnel::new(&funnel);
        for e in &emails {
            stream.push(e);
        }
        let (verdicts, rounds) =
            assert_layers_match_oracle(&funnel, &emails, &stream.finish(), "three rounds");
        assert_eq!(rounds, 3);
        assert_eq!(verdicts[1..3], [FunnelVerdict::SpamCollaborative; 2]);
        assert!(!verdicts[3].is_spam());
    }

    #[test]
    fn survivor_record_is_40_bytes() {
        assert_eq!(std::mem::size_of::<Survivor>(), 40);
        assert_eq!(std::mem::size_of::<Option<FunnelVerdict>>(), 1);
    }

    /// `bag_of_words` as it was before it dismissed short bodies early
    /// and sorted by prefix key: collect every token, sort, dedup. The
    /// oracle of the `bag_of_words_matches_the_oracle_*` tests.
    fn bag_of_words_oracle(body: &str) -> Option<u64> {
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

    #[test]
    fn bag_of_words_matches_the_oracle_on_generated_traffic() {
        let infra = CollectionInfra::build();
        let configs = (11..=15).map(TrafficConfig::test_scale);
        for config in configs.chain([study_config()]) {
            let gen = TrafficGenerator::new(&infra, config.clone());
            let setup = gen.setup();
            let (mut bodies, mut bags) = (0usize, 0usize);
            for day in 0..crate::time::STUDY_DAYS as usize {
                for e in gen.day(&setup, day) {
                    let body = &e.collected.message.body;
                    let bag = bag_of_words(body);
                    assert_eq!(
                        bag,
                        bag_of_words_oracle(body),
                        "seed {}: {body:?}",
                        config.seed
                    );
                    bodies += 1;
                    bags += usize::from(bag.is_some());
                }
            }
            assert!(
                0 < bags && bags < bodies,
                "seed {}: {bags} of {bodies}",
                config.seed
            );
        }
    }

    #[test]
    fn bag_of_words_matches_the_oracle_on_edge_cases() {
        let distinct = |n: usize| -> Vec<String> { (0..n).map(|i| format!("w{i}")).collect() };
        let exactly_20 = distinct(20).join(" ");
        let exactly_21 = distinct(21).join(" ");
        // 21 and 30 tokens whose duplicates leave 20 distinct words.
        let dup_21 = format!("{exactly_20} w7");
        let dup_30 = format!("{exactly_20} {}", distinct(10).join(" "));
        // Words that share their first 8 bytes, and words that are a
        // prefix of another, in both orders.
        let shared: Vec<String> = ["", "a", "b", "0", "9", "A", "aa", "ab", "z", "Z"]
            .iter()
            .flat_map(|tail| [format!("abcdefgh{tail}"), format!("abcdefg{tail}")])
            .collect();
        let shared_fwd = shared.join(" ");
        let shared_rev = shared.iter().rev().cloned().collect::<Vec<_>>().join("\t");
        let prefixes = "a ab abc abcd abcde abcdef abcdefg abcdefgh abcdefghi abcdefghij \
                        b ba bab baba babab bababa bababab babababa bababab9 A B Z 0 00 000";
        // Non-ASCII letters and punctuation split tokens.
        let non_ascii =
            "naïve café—résumé coöperate über straße ﬁnance \u{a0}nbsp\u{3000}ideographic \
                         emoji🙂here tab\tnew\nline crlf\r\nend zero\u{0}byte jalapeño piñata \
                         façade smörgåsbord Ελληνικά слово 漢字 mixed½half";
        let cases: [(&str, &str); 9] = [
            ("exactly 20 distinct tokens", &exactly_20),
            ("exactly 21 distinct tokens", &exactly_21),
            ("21 tokens, 20 distinct", &dup_21),
            ("30 tokens, 20 distinct", &dup_30),
            ("shared 8-byte prefixes", &shared_fwd),
            ("shared 8-byte prefixes, reversed", &shared_rev),
            ("prefix words", prefixes),
            ("non-ASCII separators", non_ascii),
            ("empty", ""),
        ];
        for (what, body) in cases {
            assert_eq!(bag_of_words(body), bag_of_words_oracle(body), "{what}");
        }
        assert!(bag_of_words(&exactly_20).is_none());
        assert!(bag_of_words(&exactly_21).is_some());
        assert!(bag_of_words(&dup_21).is_none() && bag_of_words(&dup_30).is_none());
        assert_eq!(bag_of_words(&shared_fwd), bag_of_words(&shared_rev));
        assert!(bag_of_words(prefixes).is_some() && bag_of_words(non_ascii).is_some());
    }

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
