//! The workload generator.
//!
//! Produces the seven months of email the study collected, with ground
//! truth attached to every message so the funnel's precision and recall
//! are measurable:
//!
//! * **spam** — campaign-structured (repeated senders and bodies, forged
//!   headers, archive attachments), drowning everything else by orders of
//!   magnitude;
//! * **receiver typos** — unique humans mistyping a recipient domain,
//!   with volumes driven by the Section-6 typing-error model (popular
//!   targets and low-visual-distance typos dominate, Figure 5);
//! * **reflection typos** — service mail (unsubscribe headers, bounce
//!   senders) chasing a mistyped signup address, skewed toward the
//!   disposable-address typo domains;
//! * **SMTP typos** — rare, bursty: one user's outgoing mail arrives at
//!   an SMTP-typo VPS until the user fixes their client (70% single
//!   email, 90% within a week — §4.4.2's persistence numbers).
//!
//! Spam volume is generated at `spam_scale` of the paper's magnitude
//! (118.9M/year does not fit in a unit test); analyses multiply spam-side
//! counts back by `1/spam_scale` when reporting paper-scale projections.
//! True-typo traffic is generated at full scale so the rare-event
//! statistics stay intact.

use crate::extract::build;
use crate::infra::{CollectedEmail, CollectionInfra};
use crate::scrub::SensitiveKind;
use crate::time::{SimDate, STUDY_DAYS};
use ets_core::taxonomy::CollectionPurpose;
use ets_core::typing::TypingModel;
use ets_mail::{EmailAddress, MessageBuilder};
use ets_parallel::{derive_rng, domain as stream, par_map_index};
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Ground truth for one generated email.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TrueKind {
    /// Spam (of any flavour).
    Spam,
    /// A genuine receiver typo.
    Receiver,
    /// A genuine reflection typo.
    Reflection,
    /// A genuine SMTP typo (outgoing mail intercepted).
    SmtpTypo,
}

/// A generated email with its ground truth.
#[derive(Debug, Clone)]
pub struct GenEmail {
    /// The collected email as the infrastructure saw it.
    pub collected: CollectedEmail,
    /// What it really is.
    pub truth: TrueKind,
    /// Sensitive identifier kinds genuinely present in its text.
    pub sensitive: Vec<SensitiveKind>,
}

/// Generator configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrafficConfig {
    /// RNG seed.
    pub seed: u64,
    /// Fraction of the paper's spam volume to actually generate.
    pub spam_scale: f64,
    /// Fraction of the paper's true-typo volume to generate (1.0 for
    /// experiments; smaller in quick tests).
    pub typo_scale: f64,
    /// Yearly receiver-typo emails across all domains (paper: ≈4,800 of
    /// the 6,041 receiver+reflection).
    pub receiver_per_year: f64,
    /// Yearly reflection-typo emails (paper: ≈1,200).
    pub reflection_per_year: f64,
    /// Yearly *true* SMTP-typo users (each sends 1–6 emails).
    pub smtp_users_per_year: f64,
    /// Yearly receiver typos arriving at SMTP-typo domains (the paper's
    /// unexplained ≈700/year).
    pub mystery_receiver_per_year: f64,
    /// Exponent sharpening the per-domain receiver-typo weights: real
    /// typo traffic is heavier-tailed than the raw typing model predicts
    /// (two domains took the majority in Figure 5).
    pub concentration: f64,
    /// The paper's total yearly email volume (used to size spam).
    pub paper_total_per_year: f64,
    /// Share of the total that targets SMTP-typo domains (the paper saw
    /// 102.7M of 118.9M there).
    pub smtp_candidate_share: f64,
}

impl Default for TrafficConfig {
    fn default() -> Self {
        TrafficConfig {
            seed: 0x2016_0604,
            spam_scale: 1.0 / 1000.0,
            typo_scale: 1.0,
            receiver_per_year: 4_800.0,
            reflection_per_year: 1_200.0,
            smtp_users_per_year: 260.0,
            mystery_receiver_per_year: 700.0,
            concentration: 2.2,
            paper_total_per_year: 118_894_960.0,
            smtp_candidate_share: 102_661_230.0 / 118_894_960.0,
        }
    }
}

impl TrafficConfig {
    /// A fast configuration for unit tests.
    pub fn test_scale(seed: u64) -> Self {
        TrafficConfig {
            seed,
            spam_scale: 1.0 / 20_000.0,
            ..Default::default()
        }
    }
}

/// The generator.
pub struct TrafficGenerator<'a> {
    infra: &'a CollectionInfra,
    config: TrafficConfig,
    model: TypingModel,
}

/// Weights for Figure 7's attachment extension distribution among true
/// typo emails (extension, relative weight).
const TYPO_ATTACH_EXTS: [(&str, f64); 14] = [
    ("pdf", 45.0),
    ("docx", 16.0),
    ("jpg", 11.0),
    ("doc", 3.3),
    ("jpeg", 3.0),
    ("xlsx", 1.5),
    ("png", 1.0),
    ("xls", 1.1),
    ("txt", 0.5),
    ("html", 0.3),
    ("ics", 0.4),
    ("rtf", 0.2),
    ("pptx", 0.3),
    ("docm", 0.1),
];

/// One-off generation tables, fixed for the whole study period: spam
/// campaigns, SMTP-typo users, receiver weights, and the domain lists.
/// Built once from the `TRAFFIC_SETUP` RNG streams, then shared by every
/// per-day unit — so day streams never shift when the setup's draw count
/// changes, and a streaming consumer pays setup cost exactly once.
pub struct TrafficSetup<'a> {
    weights: Vec<(ets_core::DomainName, f64)>,
    campaigns: Vec<SpamCampaign>,
    smtp_users: Vec<SmtpUser>,
    smtp_domains: Vec<&'a ets_core::taxonomy::StudyDomain>,
    rcv_domains: Vec<&'a ets_core::taxonomy::StudyDomain>,
    smtp_names: Vec<ets_core::DomainName>,
}

/// Bucket bounds for the per-day batch-size histogram
/// (`traffic.day_batch`) — shared by [`TrafficGenerator::generate`] and
/// the streaming driver so both record into the same buckets.
pub(crate) const DAY_BATCH_BOUNDS: [u64; 7] = [0, 8, 16, 32, 64, 128, 256];

impl<'a> TrafficGenerator<'a> {
    /// Creates a generator over the study infrastructure.
    pub fn new(infra: &'a CollectionInfra, config: TrafficConfig) -> Self {
        TrafficGenerator {
            infra,
            config,
            model: TypingModel::default(),
        }
    }

    /// Builds the one-off generation tables from their dedicated
    /// `TRAFFIC_SETUP` streams. Pure: two generators with the same
    /// config build identical setups.
    pub fn setup(&self) -> TrafficSetup<'a> {
        let weights = self.receiver_weights();
        let mut campaign_rng = derive_rng(self.config.seed, stream::TRAFFIC_SETUP, 0);
        let campaigns = self.make_campaigns(&mut campaign_rng);
        let mut users_rng = derive_rng(self.config.seed, stream::TRAFFIC_SETUP, 1);
        let smtp_users = self.make_smtp_users(&mut users_rng);
        // Domain lists are fixed for the whole study period; collect them
        // once here instead of once per simulated day (draws no RNG, so
        // day streams are unaffected).
        let smtp_domains: Vec<&ets_core::taxonomy::StudyDomain> =
            self.infra.smtp_domains().collect();
        let rcv_domains: Vec<&ets_core::taxonomy::StudyDomain> =
            self.infra.receiver_domains().collect();
        let smtp_names: Vec<ets_core::DomainName> =
            smtp_domains.iter().map(|d| d.domain().clone()).collect();
        TrafficSetup {
            weights,
            campaigns,
            smtp_users,
            smtp_domains,
            rcv_domains,
            smtp_names,
        }
    }

    /// Generates one simulated day's batch, in canonical order.
    ///
    /// A pure function of `(config, setup, day)`: the day draws from its
    /// own RNG stream derived from `(seed, TRAFFIC_DAY, day)`, so any
    /// caller — the [`generate`](Self::generate) fan-out, a streaming
    /// shard, a live replay — produces identical bytes for the same day.
    /// Outage days are empty.
    pub fn day(&self, setup: &TrafficSetup<'a>, day: usize) -> Vec<GenEmail> {
        let date = SimDate(day as u32);
        if self.infra.in_outage(date) {
            return Vec::new();
        }
        let mut rng = derive_rng(self.config.seed, stream::TRAFFIC_DAY, day as u64);
        let mut out = Vec::new();
        self.spam_for_day(
            date,
            &setup.campaigns,
            &setup.smtp_domains,
            &setup.rcv_domains,
            &mut rng,
            &mut out,
        );
        self.receiver_for_day(date, &setup.weights, &mut rng, &mut out);
        self.reflection_for_day(date, &mut rng, &mut out);
        self.smtp_for_day(date, &setup.smtp_users, &mut rng, &mut out);
        self.machine_smtp_for_day(date, &setup.smtp_names, &mut rng, &mut out);
        self.mystery_for_day(date, &setup.smtp_names, &mut rng, &mut out);
        out
    }

    /// Generates the whole study period as one materialized batch.
    ///
    /// Days run data-parallel over [`TrafficGenerator::day`] and per-day
    /// batches are concatenated in calendar order, so the output is
    /// byte-identical for any thread count — and element-identical to
    /// the emails [`stream_collect`](crate::stream::stream_collect) hands
    /// its sink, which makes this the streaming pipeline's oracle.
    pub fn generate(&self) -> Vec<GenEmail> {
        let mut gen_span = ets_obs::span!("traffic.generate");
        let setup = self.setup();
        let per_day: Vec<Vec<GenEmail>> =
            par_map_index(STUDY_DAYS as usize, |day| self.day(&setup, day));
        // Per-day batch sizes are derived from per-day RNG streams, so the
        // histogram is identical regardless of how days were scheduled.
        for batch in &per_day {
            ets_obs::metrics::histogram_record(
                "traffic.day_batch",
                &DAY_BATCH_BOUNDS,
                batch.len() as u64,
            );
        }
        let mut out = Vec::with_capacity(per_day.iter().map(Vec::len).sum());
        for mut batch in per_day {
            out.append(&mut batch);
        }
        ets_obs::metrics::counter_add("traffic.emails", out.len() as u64);
        gen_span.arg("emails", out.len() as u64);
        out
    }

    /// Per-domain yearly receiver-typo weights from the typing model,
    /// normalized to `receiver_per_year`.
    pub fn receiver_weights(&self) -> Vec<(ets_core::DomainName, f64)> {
        // Target "email volumes" in arbitrary units; only ratios matter.
        let volume = |target: &str| -> f64 {
            match target {
                "gmail.com" => 10.0,
                "hotmail.com" => 6.0,
                "outlook.com" => 5.5,
                "yahoo.com" => 5.0,
                "comcast.com" => 0.18,
                "verizon.com" => 0.15,
                "zohomail.com" => 0.05,
                "yopmail.com" => 0.04,
                "10minutemail.com" => 0.02,
                "mailchimp.com" => 0.05,
                "sendgrid.com" => 0.04,
                _ => 0.05,
            }
        };
        let mut raw: Vec<(ets_core::DomainName, f64)> = self
            .infra
            .receiver_domains()
            .map(|d| {
                let v = volume(d.candidate.target.as_str());
                let w = self
                    .model
                    .expected_emails(v * 1e9, &d.candidate)
                    .powf(self.config.concentration);
                (d.domain().clone(), w)
            })
            .collect();
        let total: f64 = raw.iter().map(|(_, w)| w).sum();
        let scale = self.config.receiver_per_year / total.max(1e-12);
        for (_, w) in &mut raw {
            *w *= scale;
        }
        raw
    }

    fn poisson(&self, rng: &mut ChaCha8Rng, lambda: f64) -> usize {
        poisson(rng, lambda)
    }

    // --- spam ----------------------------------------------------------

    fn make_campaigns(&self, rng: &mut ChaCha8Rng) -> Vec<SpamCampaign> {
        let n = 40;
        (0..n).map(|i| SpamCampaign::random(i, rng)).collect()
    }

    fn spam_for_day(
        &self,
        date: SimDate,
        campaigns: &[SpamCampaign],
        smtp_domains: &[&ets_core::taxonomy::StudyDomain],
        rcv_domains: &[&ets_core::taxonomy::StudyDomain],
        rng: &mut ChaCha8Rng,
        out: &mut Vec<GenEmail>,
    ) {
        let daily_total = self.config.paper_total_per_year / 365.0 * self.config.spam_scale;
        let smtp_share = self.config.smtp_candidate_share;
        let n = self.poisson(rng, daily_total);
        for _ in 0..n {
            let to_smtp = rng.gen_bool(smtp_share);
            let domain = if to_smtp {
                smtp_domains[rng.gen_range(0..smtp_domains.len())]
            } else {
                rcv_domains[rng.gen_range(0..rcv_domains.len())]
            };
            let campaign = &campaigns[rng.gen_range(0..campaigns.len())];
            let relay_probe = to_smtp && rng.gen_bool(0.98);
            out.push(campaign.emit(domain.domain(), self.infra, date, relay_probe, rng));
        }
    }

    // --- receiver typos --------------------------------------------------

    fn receiver_for_day(
        &self,
        date: SimDate,
        weights: &[(ets_core::DomainName, f64)],
        rng: &mut ChaCha8Rng,
        out: &mut Vec<GenEmail>,
    ) {
        for (domain, yearly) in weights {
            let lambda = yearly / 365.0 * self.config.typo_scale;
            for _ in 0..self.poisson(rng, lambda) {
                out.push(self.one_receiver_typo(domain, date, rng, TrueKind::Receiver));
            }
        }
    }

    fn one_receiver_typo(
        &self,
        domain: &ets_core::DomainName,
        date: SimDate,
        rng: &mut ChaCha8Rng,
        truth: TrueKind,
    ) -> GenEmail {
        let corpus = crate::corpus::enron_like(1, 0.10, rng.gen());
        let labeled = corpus.into_iter().next().expect("one email");
        let mut msg = labeled.message;
        let sender = msg.from_addr().expect("ham has From");
        // Rewrite To: the human meant <local>@target but typed the typo
        // domain.
        let local = format!(
            "{}{}",
            pick(
                rng,
                &["alice", "bob", "carol", "dan", "erin", "frank", "grace", "heidi"]
            ),
            rng.gen_range(0..1000)
        );
        let to = EmailAddress::new(&local, domain.as_str()).expect("valid recipient");
        msg.headers.set("To", to.as_str());
        // The ham corpus occasionally carries its own notes.txt; Figure 7's
        // distribution is drawn explicitly below instead.
        msg.attachments.clear();
        if rng.gen_bool(0.15) {
            let (ext, filename, text) = self.typo_attachment(rng);
            let att = match ext {
                "pdf" => build::pdf(&filename, &text),
                "doc" => build::doc(&filename, &text),
                "docx" | "xlsx" | "pptx" | "docm" | "xls" => build::ooxml(&filename, &text),
                "jpg" | "jpeg" | "png" | "gif" => build::image(&filename, &text),
                _ => build::txt(&filename, &text),
            };
            msg.attachments.push(att);
        }
        GenEmail {
            collected: CollectedEmail {
                domain: domain.clone(),
                vps_ip: self.infra.vps_map[domain],
                date,
                client_helo: format!("mail-out.{}", sender.domain()),
                mail_from: Some(sender),
                rcpt_to: to,
                message: msg,
                smtp_submission: false,
            },
            truth,
            sensitive: labeled.sensitive,
        }
    }

    fn typo_attachment(&self, rng: &mut ChaCha8Rng) -> (&'static str, String, String) {
        let total: f64 = TYPO_ATTACH_EXTS.iter().map(|(_, w)| w).sum();
        let mut pick_w = rng.gen::<f64>() * total;
        let mut ext = "pdf";
        for (e, w) in TYPO_ATTACH_EXTS {
            if pick_w < w {
                ext = e;
                break;
            }
            pick_w -= w;
        }
        let stem = pick(
            rng,
            &[
                "resume",
                "visa-application",
                "scan",
                "invoice",
                "medical-record",
                "itinerary",
                "contract",
                "registration",
            ],
        );
        let text = match stem {
            "resume" => "curriculum vitae, references available".to_owned(),
            "visa-application" => "passport and visa application enclosed".to_owned(),
            "medical-record" => "patient record follow-up".to_owned(),
            _ => "see attached document".to_owned(),
        };
        (ext, format!("{stem}.{ext}"), text)
    }

    // --- reflection typos ------------------------------------------------

    fn reflection_for_day(&self, date: SimDate, rng: &mut ChaCha8Rng, out: &mut Vec<GenEmail>) {
        // Disposable-address typo domains get a 3× share (§4.2.1's
        // hypothesis, confirmed by yopmail's heavy signal in Figure 6).
        let domains: Vec<(&ets_core::taxonomy::StudyDomain, f64)> = self
            .infra
            .receiver_domains()
            .map(|d| {
                let w = match d.purpose {
                    CollectionPurpose::Disposable => 3.0,
                    CollectionPurpose::BulkSender => 1.5,
                    _ => 1.0,
                };
                (d, w)
            })
            .collect();
        let total_w: f64 = domains.iter().map(|(_, w)| w).sum();
        let lambda = self.config.reflection_per_year / 365.0 * self.config.typo_scale;
        for _ in 0..self.poisson(rng, lambda) {
            let mut pick_w = rng.gen::<f64>() * total_w;
            let mut chosen = domains[0].0;
            for (d, w) in &domains {
                if pick_w < *w {
                    chosen = d;
                    break;
                }
                pick_w -= w;
            }
            out.push(self.one_reflection(chosen.domain(), date, rng));
        }
    }

    fn one_reflection(
        &self,
        domain: &ets_core::DomainName,
        date: SimDate,
        rng: &mut ChaCha8Rng,
    ) -> GenEmail {
        let service = pick(
            rng,
            &[
                "jobboard",
                "webshop",
                "newsletter",
                "socialnet",
                "travelsite",
                "bank-alerts",
            ],
        );
        let local = format!("user{}", rng.gen_range(0..500));
        let to = EmailAddress::new(&local, domain.as_str()).expect("valid");
        let mut sensitive = Vec::new();
        let mut body = format!(
            "Welcome to {service}! Your account is ready.\nIf you did not sign up, unsubscribe here: https://{service}.example/unsub\n"
        );
        if rng.gen_bool(0.3) {
            body.push_str(&format!("username: {local}\n"));
            sensitive.push(SensitiveKind::Username);
        }
        if rng.gen_bool(0.15) {
            body.push_str(&format!("password: {}\n", random_token(rng, 8)));
            sensitive.push(SensitiveKind::Password);
        }
        let msg = MessageBuilder::new()
            .raw_from(&format!("{service} <noreply@{service}.example>"))
            .raw_to(to.as_str())
            .reply_to(&format!("bounce+{local}@{service}.example"))
            .return_path(&format!("bounce@{service}.example"))
            .subject(&format!("Welcome to {service}"))
            .date("Thu, 9 Jun 2016 00:00:00 +0000")
            .message_id(&format!("<r{}@{service}.example>", rng.gen::<u64>()))
            .list_unsubscribe(&format!("<https://{service}.example/unsub>"))
            .body(&body)
            .build();
        GenEmail {
            collected: CollectedEmail {
                domain: domain.clone(),
                vps_ip: self.infra.vps_map[domain],
                date,
                client_helo: format!("out.{service}.example"),
                mail_from: Some(
                    EmailAddress::new("bounce", &format!("{service}.example")).expect("valid"),
                ),
                rcpt_to: to,
                message: msg,
                smtp_submission: false,
            },
            truth: TrueKind::Reflection,
            sensitive,
        }
    }

    // --- SMTP typos --------------------------------------------------------

    fn make_smtp_users(&self, rng: &mut ChaCha8Rng) -> Vec<SmtpUser> {
        let expected =
            self.config.smtp_users_per_year * STUDY_DAYS as f64 / 365.0 * self.config.typo_scale;
        let n = poisson(rng, expected);
        let domains: Vec<ets_core::DomainName> = self
            .infra
            .smtp_domains()
            .map(|d| d.domain().clone())
            .collect();
        (0..n)
            .map(|i| {
                let domain = domains[rng.gen_range(0..domains.len())].clone();
                let start = rng.gen_range(0..STUDY_DAYS);
                // Persistence: 70% one email; most of the rest within a
                // day or a week; a heavy tail up to ~200 days.
                let (n_emails, span_days) = match rng.gen_range(0..100) {
                    0..=69 => (1u32, 0u32),
                    70..=82 => (rng.gen_range(2..4), rng.gen_range(0..1)),
                    83..=89 => (rng.gen_range(2..5), rng.gen_range(1..7)),
                    90..=97 => (rng.gen_range(2..6), rng.gen_range(7..30)),
                    _ => (rng.gen_range(3..8), rng.gen_range(30..209)),
                };
                SmtpUser {
                    id: i,
                    domain,
                    start,
                    n_emails,
                    span_days,
                }
            })
            .collect()
    }

    fn smtp_for_day(
        &self,
        date: SimDate,
        users: &[SmtpUser],
        rng: &mut ChaCha8Rng,
        out: &mut Vec<GenEmail>,
    ) {
        for u in users {
            for k in 0..u.n_emails {
                let send_day = if u.n_emails == 1 {
                    u.start
                } else {
                    u.start + (u.span_days * k) / (u.n_emails - 1).max(1)
                };
                if send_day != date.day() {
                    continue;
                }
                let sender = EmailAddress::new(
                    &format!("customer{}", u.id),
                    &format!("homeisp{}.example", u.id % 50),
                )
                .expect("generated sender is valid");
                let to = EmailAddress::new(
                    pick(rng, &["friend", "boss", "mom", "accountant"]),
                    pick(rng, &["gmail.com", "yahoo.com", "hotmail.com"]),
                )
                .expect("valid");
                let corpus = crate::corpus::enron_like(1, 0.3, rng.gen());
                let labeled = corpus.into_iter().next().expect("one");
                let mut msg = labeled.message;
                msg.headers.set("From", sender.as_str());
                msg.headers.set("To", to.as_str());
                out.push(GenEmail {
                    collected: CollectedEmail {
                        domain: u.domain.clone(),
                        vps_ip: self.infra.vps_map[&u.domain],
                        date,
                        client_helo: format!("[192.0.2.{}]", u.id % 250 + 1),
                        mail_from: Some(sender),
                        rcpt_to: to,
                        message: msg,
                        smtp_submission: true,
                    },
                    truth: TrueKind::SmtpTypo,
                    sensitive: labeled.sensitive,
                });
            }
        }
    }

    // --- automated agents relaying through SMTP-typo domains ---------------

    /// Misconfigured devices and cron jobs that picked up an SMTP-typo
    /// hostname and keep relaying machine mail through it. The paper
    /// found 5,147/yr detected as automated plus 5,555/yr frequency
    /// filtered among SMTP-typo candidates — these are that population.
    fn machine_smtp_for_day(
        &self,
        date: SimDate,
        domains: &[ets_core::DomainName],
        rng: &mut ChaCha8Rng,
        out: &mut Vec<GenEmail>,
    ) {
        // ~8 persistent devices, each a few messages/day: ≈10.5k/yr total.
        for agent in 0..8u32 {
            let lambda = 1.9 * self.config.typo_scale;
            for _ in 0..self.poisson(rng, lambda) {
                let domain = domains[(agent as usize * 7) % domains.len()].clone();
                let sender =
                    EmailAddress::new(&format!("nagios{agent}"), &format!("device{agent}.example"))
                        .expect("valid");
                let to = EmailAddress::new("ops", "monitoring.example").expect("valid");
                let msg = MessageBuilder::new()
                    .raw_from(sender.as_str())
                    .raw_to(to.as_str())
                    .subject(&format!("status report device {agent}"))
                    .body(&format!(
                        "automated status report from device {agent}: all services nominal"
                    ))
                    .build();
                out.push(GenEmail {
                    collected: CollectedEmail {
                        domain: domain.clone(),
                        vps_ip: self.infra.vps_map[&domain],
                        date,
                        client_helo: format!("device{agent}.example"),
                        mail_from: Some(sender),
                        rcpt_to: to,
                        message: msg,
                        smtp_submission: true,
                    },
                    truth: TrueKind::Spam,
                    sensitive: Vec::new(),
                });
            }
        }
    }

    // --- the mystery receiver typos on SMTP domains ------------------------

    fn mystery_for_day(
        &self,
        date: SimDate,
        domains: &[ets_core::DomainName],
        rng: &mut ChaCha8Rng,
        out: &mut Vec<GenEmail>,
    ) {
        let lambda = self.config.mystery_receiver_per_year / 365.0 * self.config.typo_scale;
        for _ in 0..self.poisson(rng, lambda) {
            let domain = domains[rng.gen_range(0..domains.len())].clone();
            let mut e = self.one_receiver_typo(&domain, date, rng, TrueKind::Receiver);
            e.collected.smtp_submission = false;
            out.push(e);
        }
    }
}

#[derive(Debug, Clone)]
struct SmtpUser {
    id: usize,
    domain: ets_core::DomainName,
    start: u32,
    n_emails: u32,
    span_days: u32,
}

/// One spam campaign: a fixed sender/body reused across many sends (the
/// structure Layers 3 and 5 key on). A slice of each campaign's volume is
/// "subtle" — an innocuous-looking body from the same sender that only the
/// collaborative layer can connect to the campaign.
#[derive(Debug, Clone)]
struct SpamCampaign {
    /// Parsed once here; every email clones it.
    sender: EmailAddress,
    subject: String,
    body: String,
    subtle_body: String,
    subtle_share: f64,
    forge_recipient_domain: bool,
    attach_archive: bool,
    helo: String,
}

impl SpamCampaign {
    fn random(i: usize, rng: &mut ChaCha8Rng) -> SpamCampaign {
        let blatant = crate::corpus::BLATANT_BODIES_FOR_CAMPAIGNS;
        let body = blatant[rng.gen_range(0..blatant.len())];
        SpamCampaign {
            sender: spam_sender(&format!("promo{}@bulk{}.example", i, rng.gen_range(0..20))),
            subject: pick(
                rng,
                &[
                    "FREE PRIZE WAITING!!!",
                    "you won the lottery",
                    "cheap meds today",
                    "URGENT: verify your account",
                    "hot singles near you",
                ],
            )
            .to_owned(),
            body: format!("{body} ref {}", i),
            subtle_body: format!(
                "Hello, please find the requested update in order {} attached to this note.",
                i * 37
            ),
            subtle_share: 0.12,
            forge_recipient_domain: rng.gen_bool(0.15),
            attach_archive: rng.gen_bool(0.2),
            helo: format!("spam-cannon-{}.example", rng.gen_range(0..10)),
        }
    }

    fn emit(
        &self,
        domain: &ets_core::DomainName,
        infra: &CollectionInfra,
        date: SimDate,
        relay_probe: bool,
        rng: &mut ChaCha8Rng,
    ) -> GenEmail {
        // Spam hitting the SMTP-typo domains is mostly open-relay abuse:
        // the envelope recipient is a foreign victim, which is what makes
        // the paper's 102.7M/yr "SMTP typo candidates".
        let to = if relay_probe {
            EmailAddress::new(
                &format!("victim{}", rng.gen_range(0..100_000)),
                pick(rng, &["gmail.com", "yahoo.com", "corporate.example"]),
            )
            .expect("valid")
        } else {
            EmailAddress::new(
                &format!("user{}", rng.gen_range(0..100_000)),
                domain.as_str(),
            )
            .expect("valid")
        };
        let from = if self.forge_recipient_domain {
            // Spammers pose as the recipient's own domain (Layer 1 catches
            // this: we never send mail).
            spam_sender(&format!("admin@{domain}"))
        } else {
            self.sender.clone()
        };
        // The subtle slice: same sender, clean-looking body — invisible to
        // Layer 2, caught by Layer 3's sender blacklist once any sibling
        // email is flagged.
        let subtle = rng.gen_bool(self.subtle_share);
        let mut b = MessageBuilder::new()
            .raw_from(from.as_str())
            .raw_to(to.as_str())
            .subject(if subtle {
                "quick update"
            } else {
                &self.subject
            })
            .body(if subtle {
                &self.subtle_body
            } else {
                &self.body
            });
        if self.attach_archive && !subtle {
            b = b.attach(
                "offer.zip",
                "application/zip",
                build::archive("offer.zip", b"payload").data,
            );
        }
        GenEmail {
            collected: CollectedEmail {
                domain: domain.clone(),
                vps_ip: infra.vps_map[domain],
                date,
                client_helo: self.helo.clone(),
                mail_from: Some(from),
                rcpt_to: to,
                message: b.build(),
                smtp_submission: relay_probe,
            },
            truth: TrueKind::Spam,
            sensitive: Vec::new(),
        }
    }
}

/// A spam campaign's sender address, or a fixed bulk address should the
/// generated one not parse.
fn spam_sender(addr: &str) -> EmailAddress {
    EmailAddress::parse(addr).unwrap_or_else(|_| "x@bulk.example".parse().expect("valid"))
}

fn pick<'x, T: ?Sized>(rng: &mut ChaCha8Rng, items: &'x [&'x T]) -> &'x T {
    items[rng.gen_range(0..items.len())]
}

fn random_token(rng: &mut ChaCha8Rng, len: usize) -> String {
    (0..len)
        .map(|_| (b'a' + rng.gen_range(0..26)) as char)
        .collect()
}

/// Poisson sampling: Knuth for small λ, normal approximation above 30.
pub fn poisson(rng: &mut ChaCha8Rng, lambda: f64) -> usize {
    if lambda <= 0.0 {
        return 0;
    }
    if lambda > 30.0 {
        // Normal approximation with continuity correction.
        let u1: f64 = rng.gen::<f64>().max(1e-12);
        let u2: f64 = rng.gen();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        return (lambda + lambda.sqrt() * z).round().max(0.0) as usize;
    }
    let l = (-lambda).exp();
    let mut k = 0usize;
    let mut p = 1.0;
    loop {
        p *= rng.gen::<f64>();
        if p <= l {
            return k;
        }
        k += 1;
        if k > 10_000 {
            return k; // defensive
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn generate(seed: u64) -> (CollectionInfra, Vec<GenEmail>) {
        let infra = CollectionInfra::build();
        let gen = TrafficGenerator::new(&infra, TrafficConfig::test_scale(seed));
        let emails = gen.generate();
        (infra, emails)
    }

    #[test]
    fn deterministic() {
        let (_, a) = generate(1);
        let (_, b) = generate(1);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b).take(50) {
            assert_eq!(x.collected.rcpt_to, y.collected.rcpt_to);
            assert_eq!(x.truth, y.truth);
        }
    }

    #[test]
    fn spam_dominates() {
        let (_, emails) = generate(2);
        let spam = emails.iter().filter(|e| e.truth == TrueKind::Spam).count();
        let other = emails.len() - spam;
        assert!(
            spam > other / 2 + other / 4,
            "spam {spam} vs other {other} (scaled down 20000×, typos at full scale)"
        );
        assert!(spam > 1000, "spam {spam}");
    }

    #[test]
    fn receiver_typos_concentrate_on_few_domains() {
        let (infra, emails) = generate(3);
        // Figure 5 covers the receiver-purpose domains; the "mystery"
        // receiver typos on SMTP-purpose domains are excluded there.
        let receiver_domains: std::collections::HashSet<&str> = infra
            .receiver_domains()
            .map(|d| d.domain().as_str())
            .collect();
        let mut counts: std::collections::HashMap<&str, usize> = Default::default();
        for e in &emails {
            if e.truth == TrueKind::Receiver
                && receiver_domains.contains(e.collected.domain.as_str())
            {
                *counts.entry(e.collected.domain.as_str()).or_insert(0) += 1;
            }
        }
        let mut sizes: Vec<usize> = counts.values().copied().collect();
        sizes.sort_unstable_by(|a, b| b.cmp(a));
        let total: usize = sizes.iter().sum();
        assert!(total > 1_500, "receiver typos {total}");
        let top2: usize = sizes.iter().take(2).sum();
        assert!(
            top2 * 100 / total >= 45,
            "Figure 5 shape: top-2 domains have {}/{}",
            top2,
            total
        );
        let top12: usize = sizes.iter().take(12).sum();
        assert!(top12 * 100 / total >= 92, "top-12 share {}/{total}", top12);
        // §4.4.2: the best domain is a low-visual-distance FF-1 typo of a
        // top provider.
        let (best, _) = counts.iter().max_by_key(|(_, &c)| c).unwrap();
        assert!(
            ["outlo0k.com", "ohtlook.com", "ho6mail.com"].contains(best),
            "top domain {best}"
        );
    }

    #[test]
    fn smtp_typos_are_bursty_and_sparse() {
        let (infra, emails) = generate(4);
        let smtp: Vec<&GenEmail> = emails
            .iter()
            .filter(|e| e.truth == TrueKind::SmtpTypo)
            .collect();
        assert!(!smtp.is_empty());
        // An order of magnitude fewer than receiver typos (§4.4.2).
        let receiver = emails
            .iter()
            .filter(|e| e.truth == TrueKind::Receiver)
            .count();
        assert!(
            smtp.len() * 4 < receiver,
            "smtp {} vs receiver {receiver}",
            smtp.len()
        );
        // They land on SMTP-typo domains, flagged as submissions.
        for e in &smtp {
            assert!(e.collected.smtp_submission);
            let sd = infra.study_domain(&e.collected.domain).unwrap();
            assert!(matches!(
                sd.purpose,
                CollectionPurpose::SmtpServer | CollectionPurpose::Financial
            ));
            // Outgoing mail: recipient is NOT one of our domains.
            assert!(infra
                .study_domain(&e.collected.rcpt_to.domain().parse().unwrap())
                .is_none());
        }
    }

    #[test]
    fn reflections_favor_disposable_domains() {
        let (infra, emails) = generate(5);
        let mut disposable = 0usize;
        let mut provider = 0usize;
        let mut n_disposable_domains = 0usize;
        let mut n_provider_domains = 0usize;
        for d in infra.receiver_domains() {
            match d.purpose {
                CollectionPurpose::Disposable => n_disposable_domains += 1,
                CollectionPurpose::Provider => n_provider_domains += 1,
                _ => {}
            }
        }
        for e in &emails {
            if e.truth != TrueKind::Reflection {
                continue;
            }
            let sd = infra.study_domain(&e.collected.domain).unwrap();
            match sd.purpose {
                CollectionPurpose::Disposable => disposable += 1,
                CollectionPurpose::Provider => provider += 1,
                _ => {}
            }
        }
        let per_disposable = disposable as f64 / n_disposable_domains as f64;
        let per_provider = provider as f64 / n_provider_domains as f64;
        assert!(
            per_disposable > per_provider * 1.5,
            "disposable {per_disposable:.1}/domain vs provider {per_provider:.1}/domain"
        );
    }

    #[test]
    fn reflection_mail_is_machine_shaped() {
        let (_, emails) = generate(6);
        let r = emails
            .iter()
            .find(|e| e.truth == TrueKind::Reflection)
            .expect("reflections exist");
        let m = &r.collected.message;
        assert!(m.headers.contains("List-Unsubscribe"));
        assert!(m.body.to_ascii_lowercase().contains("unsubscribe"));
    }

    #[test]
    fn outage_days_are_silent() {
        let (infra, emails) = generate(7);
        for e in &emails {
            assert!(!infra.in_outage(e.collected.date), "email on outage day");
        }
    }

    #[test]
    fn poisson_mean_is_right() {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        for lambda in [0.5, 3.0, 20.0, 200.0] {
            let n = 3000;
            let total: usize = (0..n).map(|_| poisson(&mut rng, lambda)).sum();
            let mean = total as f64 / n as f64;
            assert!(
                (mean - lambda).abs() < lambda.max(1.0) * 0.1,
                "λ={lambda}: mean {mean}"
            );
        }
        assert_eq!(poisson(&mut rng, 0.0), 0);
    }

    #[test]
    fn spam_campaigns_repeat_bodies() {
        let (_, emails) = generate(8);
        let mut body_counts: std::collections::HashMap<&str, usize> = Default::default();
        for e in &emails {
            if e.truth == TrueKind::Spam {
                *body_counts
                    .entry(e.collected.message.body.as_str())
                    .or_insert(0) += 1;
            }
        }
        let max = body_counts.values().max().copied().unwrap_or(0);
        assert!(max > 20, "campaign bodies must repeat, max {max}");
    }
}

#[cfg(test)]
mod weight_probe {
    use super::*;
    #[test]
    #[ignore]
    fn print_weights() {
        let infra = crate::infra::CollectionInfra::build();
        let gen = TrafficGenerator::new(&infra, TrafficConfig::default());
        let mut w = gen.receiver_weights();
        w.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
        let total: f64 = w.iter().map(|(_, x)| x).sum();
        let mut acc = 0.0;
        for (d, x) in &w {
            acc += x;
            println!("{d} {x:.1} {:.3}", acc / total);
        }
    }
}
