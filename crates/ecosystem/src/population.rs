//! The synthetic Internet population.
//!
//! Builds a deterministic world with the statistical skeleton the paper
//! measured in the wild:
//!
//! * ranked targets ([`alexa::synthetic_targets`]), each spawning DL-1
//!   gtypos;
//! * a registration process in which gtypos of popular targets with low
//!   visual distance are far likelier to be taken (ctypos);
//! * registrants drawn from archetypes — bulk domain sellers,
//!   mail-hosting typosquatters, small-time squatters, defensive
//!   registrars, benign collisions — with Zipf-sized portfolios
//!   (2.3% of registrants own the majority of domains, Figure 8);
//! * mail hosting concentrated on a few provider MX domains (Table 6);
//! * a minority of "cesspool" name servers carrying a typo ratio far
//!   above the ~4% baseline (§5.2);
//! * per-host SMTP behaviour (listening ports, STARTTLS health, whether
//!   anyone ever reads the mailbox) that the scans and honey campaigns
//!   observe.

use ets_core::alexa;
use ets_core::taxonomy::DomainClass;
use ets_core::typogen::{self, TypoCandidate};
use ets_core::{DomainInterner, DomainName, MistakeKind};
use ets_dns::record::{RecordData, ResourceRecord};
use ets_dns::registry::Registration;
use ets_dns::resolver::{Resolver, ZoneSource};
use ets_dns::whois::{PrivacyProxy, WhoisRecord};
use ets_dns::zone::Zone;
use ets_dns::Fqdn;
use ets_parallel::{derive_rng, domain as stream, par_map, par_map_index};
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize, Value};
use std::fmt;
use std::net::Ipv4Addr;
use std::sync::Arc;

/// Registrant archetypes observed in §5.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RegistrantArchetype {
    /// Companies holding large portfolios for resale; SMTP usually on
    /// (parking providers enable it by default).
    DomainSeller,
    /// Registrants operating SMTP on most of their many typo domains —
    /// the suspicious population of §5.2.
    MailTyposquatter,
    /// Small-time squatters with a handful of domains, often web-only.
    SmallSquatter,
    /// The target's own organization (defensive registrations).
    Defensive,
    /// Legitimate sites that merely happen to be lexically close.
    BenignCollision,
}

/// How a host answers SMTP connections (feeds Table 4 and Table 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SmtpProfile {
    /// No listener on ports 25/465/587.
    NoListener,
    /// Listens, accepts, plain only.
    PlainOnly,
    /// Listens, advertises STARTTLS, upgrade fails.
    StarttlsBroken,
    /// Listens, STARTTLS works.
    StarttlsOk,
    /// Listens but times out before the banner.
    SilentTimeout,
    /// TCP connection resets (network error).
    ConnectionReset,
    /// Listens and rejects every recipient.
    BounceAll,
}

/// One registered candidate typo domain, with ground truth the analyses
/// must *recover*, never read directly. [`World::ctypos`] derives one on
/// access from the registry's columns.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CtypoInfo {
    /// The generated candidate (domain, target, mistake metadata).
    pub candidate: TypoCandidate,
    /// Ground-truth owner id (index into [`World::registrants`]).
    pub owner: usize,
    /// Ground-truth classification.
    pub class: DomainClass,
    /// Whether WHOIS hides behind a privacy proxy.
    pub private: bool,
    /// SMTP behaviour of the host serving this domain.
    pub smtp: SmtpProfile,
    /// Whether a DNS zone is published at all ("No info" rows of Table 4
    /// come from registered names whose delegation is lame).
    pub has_zone: bool,
}

/// A registrant with a portfolio.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Registrant {
    /// Stable id (index).
    pub id: usize,
    /// Archetype.
    pub archetype: RegistrantArchetype,
    /// The registrant's true WHOIS identity.
    pub whois: WhoisRecord,
    /// Whether this registrant hides behind a privacy proxy.
    pub private: bool,
    /// Name-server provider index used for the portfolio.
    pub ns_provider: usize,
    /// Mail-hosting MX domain index (None = self-hosted or none).
    pub mx_provider: Option<usize>,
    /// Probability this registrant actually reads captured mail
    /// (§7: nearly always ~0; a handful of actors are curious).
    pub reads_mail: f64,
}

/// Configuration of the synthetic world.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PopulationConfig {
    /// Number of target domains (Alexa top-N).
    pub n_targets: usize,
    /// RNG seed (every world with the same config is identical).
    pub seed: u64,
    /// Base probability that a gtypo of the #1 target is registered.
    pub base_registration_rate: f64,
    /// How quickly registration probability decays with target rank.
    pub rank_decay: f64,
    /// Fraction of ctypos that are defensive registrations.
    pub defensive_share: f64,
    /// Fraction of ctypos that are benign collisions.
    pub benign_share: f64,
    /// Share of registrants using privacy proxies.
    pub privacy_share: f64,
    /// Number of distinct non-proxy registrant identities.
    pub n_registrants: usize,
    /// Number of name-server providers (first `n_cesspool_ns` are dirty).
    pub n_ns_providers: usize,
    /// How many of the NS providers cater to typosquatters.
    pub n_cesspool_ns: usize,
}

impl Default for PopulationConfig {
    fn default() -> Self {
        PopulationConfig {
            n_targets: 1_000,
            seed: 20161105, // the paper's ctypo snapshot date (Nov 5, 2016)
            base_registration_rate: 1.3,
            rank_decay: 0.35,
            defensive_share: 0.04,
            benign_share: 0.06,
            privacy_share: 0.44, // Table 5: 22,341 of 50,995 private
            n_registrants: 600,
            n_ns_providers: 40,
            n_cesspool_ns: 4,
        }
    }
}

impl PopulationConfig {
    /// A small world for unit tests (fast to build).
    pub fn tiny(seed: u64) -> Self {
        PopulationConfig {
            n_targets: 60,
            n_registrants: 80,
            seed,
            ..Default::default()
        }
    }

    /// A world scaled to `n_targets` (the `--scale` presets: 1k, 100k,
    /// 1M). The registrant population grows with the target universe so
    /// portfolio sizes keep the paper's heavy tail, but stays exactly at
    /// the historical default below 30k targets so every previously
    /// committed result remains byte-identical.
    pub fn at_scale(n_targets: usize, seed: u64) -> Self {
        let default_registrants = PopulationConfig::default().n_registrants;
        let n_registrants = if n_targets <= 30_000 {
            default_registrants
        } else {
            (n_targets / 50).max(default_registrants)
        };
        PopulationConfig {
            n_targets,
            n_registrants,
            seed,
            ..Default::default()
        }
    }
}

/// The Table-6 mail-hosting provider domains, most private, plus the two
/// public Google rows.
pub const MX_PROVIDERS: [(&str, bool, f64); 10] = [
    ("b-io.co", true, 0.436),
    ("h-email.net", true, 0.185),
    ("mb5p.com", true, 0.101),
    ("m1bp.com", true, 0.087),
    ("mb1p.com", true, 0.077),
    ("hostedmxserver.com", true, 0.031),
    ("hope-mail.com", true, 0.024),
    ("m2bp.com", true, 0.013),
    ("google.com", false, 0.008),
    ("googlemail.com", false, 0.005),
];

/// Number of mid-tier mail hosts beyond the Table-6 head: smaller hosted
/// providers that carry the middle of Figure 8's curve but whose hosted
/// domains rarely accept probe mail.
pub const MID_TIER_MX: usize = 40;

/// The assembled world.
#[derive(Debug)]
pub struct World {
    /// The registry: a read-only view that derives every registration
    /// and zone on lookup from the ctypo columns and `config`.
    pub registry: RegistryView,
    /// The target domains, most popular first.
    pub targets: Vec<DomainName>,
    /// All registered candidate typo domains, sorted by name: a view
    /// over the registry's columns.
    pub ctypos: Ctypos,
    /// The registrant population (ground truth).
    pub registrants: Vec<Registrant>,
    /// Name-server provider host names (`ns1.<provider>`), index-aligned
    /// with `Registrant::ns_provider`.
    pub ns_providers: Vec<Fqdn>,
    /// Mail-provider MX domains, index-aligned with
    /// `Registrant::mx_provider`.
    pub mx_providers: Vec<Fqdn>,
    /// Per-NS-provider background customer base: unrelated benign domains
    /// that exist in .com but are not individually materialized here.
    /// Used by the §5.2 name-server ratios (the live study saw each NS
    /// against the whole zone file).
    pub ns_customer_base: Vec<(Fqdn, usize)>,
    /// Config used to build this world.
    pub config: PopulationConfig,
}

/// Transient-payload budget for one gtypo band (bytes). The band loop
/// shrinks or grows the per-band target count so the pending
/// registrations held between compute and commit stay near this bound,
/// which is what lets a 1M-target world build without materializing its
/// whole candidate set at once.
const BAND_BUDGET_BYTES: usize = 256 << 20;

/// First band size (targets); adapted between bands from measured payload.
const INITIAL_BAND_TARGETS: usize = 4096;
/// Band-size clamp: never shrink below this many targets per band.
const MIN_BAND_TARGETS: usize = 16;
/// Band-size clamp: never grow beyond this many targets per band.
const MAX_BAND_TARGETS: usize = 65_536;
/// Bucket bounds for the `world.band_pending_bytes` histogram (1 MiB to
/// 256 MiB, ×4 steps).
const BAND_BYTES_BOUNDS: [u64; 5] = [1 << 20, 1 << 22, 1 << 24, 1 << 26, 1 << 28];

impl World {
    /// Builds the world deterministically from a config.
    ///
    /// Every sampled unit — a registrant, a filler site, a background
    /// customer, a target's gtypo band, an NS customer base — draws from
    /// its own RNG stream derived from `(config.seed, stream, unit id)`,
    /// so the expensive phases run data-parallel and the result is
    /// byte-identical for any thread count. First-registration-wins is a
    /// name check: a gtypo winner is kept only if no filler, background
    /// customer, or earlier winner in canonical (target-rank, generation)
    /// order holds its name, so cross-target name collisions resolve the
    /// same way every run. Nothing is committed anywhere: the registry
    /// derives every row on lookup (see [`RegistryView`]).
    ///
    /// The gtypo phase is **sharded**: targets are processed in
    /// rank-ordered bands, each band fanned out over the worker pool and
    /// checked before the next band starts, so the transient pending
    /// payload stays near a fixed budget (`BAND_BUDGET_BYTES`)
    /// regardless of scale. Band geometry adapts only to deterministic
    /// payload-byte counts (never to wall clock or thread count), and
    /// per-unit RNG streams depend only on target rank — so any banding
    /// produces byte-identical worlds.
    pub fn build(config: PopulationConfig) -> World {
        Self::build_banded(config, BAND_BUDGET_BYTES, INITIAL_BAND_TARGETS)
    }

    fn build_banded(
        config: PopulationConfig,
        band_budget_bytes: usize,
        initial_band: usize,
    ) -> World {
        let mut build_span = ets_obs::span!("world.build");
        build_span.arg("n_targets", config.n_targets as u64);
        let targets = alexa::synthetic_targets(config.n_targets);
        ets_obs::metrics::counter_add("world.targets", targets.len() as u64);
        let ns_providers = make_ns_providers(&config);
        let mx_providers = make_mx_providers();

        // --- registrants with Zipf-sized portfolios -------------------
        let registrant_span = ets_obs::span!("world.registrants", ets_obs::Level::Debug);
        let registrants = make_registrants(&config);
        drop(registrant_span);

        let mut columns = Columns::new(
            &config,
            &targets,
            &registrants,
            &ns_providers,
            &mx_providers,
        );

        // --- the registration process over gtypos ----------------------
        // Portfolio assignment: Zipf over registrants (registrant 0 has
        // the biggest appetite).
        let appetite: Vec<f64> = (0..config.n_registrants)
            .map(|i| 1.0 / ((i + 1) as f64).powf(0.7))
            .collect();
        let roll = GtypoRoll {
            config: &config,
            appetite_total: appetite.iter().sum(),
            appetite: &appetite,
            registrants: &registrants,
        };

        // The registration probability decays monotonically with rank, so
        // every target past the cutoff would return an empty band without
        // consuming a single draw — skip them without even deriving their
        // streams.
        let active_targets = (0..targets.len())
            .find(|&rank0| target_registration_p(&config, rank0) < 0.01)
            .unwrap_or(targets.len());

        // Parallel compute per band: each target draws its gtypo band
        // from its own stream, and going band by band bounds the pending
        // payload to roughly one band. Between bands, winners whose name
        // a filler or background customer holds are dropped.
        let pending_span = ets_obs::span!("world.ctypo_pending", ets_obs::Level::Debug);
        let mut winners: Vec<PendingCtypo> = Vec::new();
        let mut pending_total: u64 = 0;
        let mut band = initial_band.clamp(MIN_BAND_TARGETS, MAX_BAND_TARGETS);
        let mut start = 0;
        while start < active_targets {
            let end = (start + band).min(active_targets);
            let pending: Vec<Vec<PendingCtypo>> = par_map(&targets[start..end], |i, target| {
                roll.target(start + i, target)
            });
            // The band's transient payload feeds the budget histogram, a
            // pure function of (seed, scale, budget), and the band
            // adaptation below.
            let band_bytes: u64 = pending
                .iter()
                .flat_map(|b| b.iter())
                .map(PendingCtypo::approx_bytes)
                .sum();
            ets_obs::metrics::histogram_record(
                "world.band_pending_bytes",
                &BAND_BYTES_BOUNDS,
                band_bytes,
            );
            for batch in pending {
                pending_total += batch.len() as u64;
                winners.extend(
                    batch
                        .into_iter()
                        .filter(|p| columns.row(p.name.as_str()).is_none()),
                );
            }
            ets_obs::metrics::counter_add("world.bands", 1);
            start = end;
            // Adapt the band to the budget: halve when over, grow when
            // well under. Driven only by the deterministic payload bytes,
            // so the band schedule (and the world) never depends on
            // threads or timing.
            if band_bytes as usize > band_budget_bytes {
                band = (band / 2).max(MIN_BAND_TARGETS);
            } else if (band_bytes as usize) < band_budget_bytes / 4 {
                band = (band * 2).min(MAX_BAND_TARGETS);
            }
        }
        ets_obs::metrics::counter_add("world.ctypo_pending", pending_total);
        drop(pending_span);
        let commit_span = ets_obs::span!("world.commit", ets_obs::Level::Debug);
        // Sort a permutation, not the winners: `sort_by` is stable, so
        // equal names stay in canonical (rank, generation) order and the
        // dedup keeps the earliest winner; then each kept name is interned
        // and its row copied, in name order.
        let name = |i: u32| &winners[i as usize].name;
        let mut order: Vec<u32> = (0..winners.len() as u32).collect();
        order.sort_by(|&a, &b| name(a).cmp(name(b)));
        order.dedup_by(|later, earlier| name(*later) == name(*earlier));
        columns.reserve_ctypos(order.len());
        for &i in &order {
            let winner = &winners[i as usize];
            columns.push_ctypo(&winner.name, winner.row);
        }
        drop(order);
        drop(winners);
        drop(commit_span);
        Self::finish(
            config,
            columns,
            targets,
            registrants,
            ns_providers,
            mx_providers,
        )
    }

    /// Rebuilds a world from snapshot records: every derivable phase
    /// (targets, registrants, filler and background rows, NS customer
    /// bases) is recomputed from `config`'s RNG streams exactly as a
    /// fresh build would, and the records are decoded straight into the
    /// ctypo columns (a row each, the names interned) — no registration
    /// roll is ever re-drawn, which is why the result is byte-identical
    /// to the build that produced the snapshot.
    /// Records arrive in the world's sorted ctypo order. Any
    /// inconsistency (out-of-range index, unparsable name, unregistered
    /// class, unsorted or duplicated records, a name a filler or
    /// background customer holds) is an error, never a panic: the caller
    /// falls back to a fresh build.
    pub(crate) fn from_snapshot_records(
        config: PopulationConfig,
        records: Vec<CtypoRecord>,
    ) -> Result<World, String> {
        let mut load_span = ets_obs::span!("world.snapshot_rebuild");
        load_span.arg("n_targets", config.n_targets as u64);
        let targets = alexa::synthetic_targets(config.n_targets);
        ets_obs::metrics::counter_add("world.targets", targets.len() as u64);
        let ns_providers = make_ns_providers(&config);
        let mx_providers = make_mx_providers();
        let registrants = make_registrants(&config);
        let mut columns = Columns::new(
            &config,
            &targets,
            &registrants,
            &ns_providers,
            &mx_providers,
        );

        let decoded = par_map(&records, |_, rec| columns.decode(rec));
        drop(records);
        columns.reserve_ctypos(decoded.len());
        for row in decoded {
            let (name, row) = row?;
            if columns.last_ctypo_name() >= Some(name.as_str()) {
                return Err("snapshot records not in sorted order".to_owned());
            }
            columns.push_ctypo(&name, row);
        }
        Ok(Self::finish(
            config,
            columns,
            targets,
            registrants,
            ns_providers,
            mx_providers,
        ))
    }

    /// The shared tail of a fresh build and a snapshot rebuild: the
    /// `world.ctypos` counter, the views over the columns, whose ctypos
    /// are already sorted and unique, and the NS customer bases.
    fn finish(
        config: PopulationConfig,
        columns: Columns,
        targets: Vec<DomainName>,
        registrants: Vec<Registrant>,
        ns_providers: Vec<Fqdn>,
        mx_providers: Vec<Fqdn>,
    ) -> World {
        let n_ctypos = columns.ctypos.len();
        ets_obs::metrics::counter_add("world.ctypos", n_ctypos as u64);
        let ns_customer_base: Vec<(Fqdn, usize)> = ns_providers
            .iter()
            .enumerate()
            .map(|(pi, ns)| {
                let mut rng = derive_rng(config.seed, stream::POPULATION_NS_BASE, pi as u64);
                // Clean providers' customer base scales with world size so
                // the §5.2 average ratio stays in the low single digits at
                // any simulation scale.
                let base = if pi < config.n_cesspool_ns {
                    rng.gen_range(100..400)
                } else {
                    let per_provider = (n_ctypos / config.n_ns_providers.max(1)).max(50);
                    rng.gen_range(per_provider * 10..per_provider * 40)
                };
                (ns.clone(), base)
            })
            .collect();
        let columns = Arc::new(columns);
        World {
            registry: RegistryView(Arc::clone(&columns)),
            targets,
            ctypos: Ctypos(columns),
            registrants,
            ns_providers,
            mx_providers,
            ns_customer_base,
            config,
        }
    }

    /// Resolver over this world's registry.
    pub fn resolver(&self) -> Resolver {
        Resolver::new(self.registry.clone())
    }

    /// Ctypos that are true typosquatting domains (ground truth),
    /// derived only for the rows of that class.
    pub fn true_typosquats(&self) -> impl Iterator<Item = CtypoInfo> + '_ {
        let c = &*self.ctypos.0;
        (0..c.ctypos.len())
            .filter(|&i| c.ctypos[i].class == DomainClass::Typosquatting)
            .filter_map(|i| c.ctypo_info(i))
    }

    /// The SMTP behaviour profile of a domain, if it is a known ctypo.
    pub fn smtp_profile(&self, domain: &DomainName) -> Option<SmtpProfile> {
        Some(self.ctypo_row(domain)?.meta.draw.smtp)
    }

    /// The registrant who owns a ctypo (ground truth), if any.
    pub fn owner_of(&self, domain: &DomainName) -> Option<&Registrant> {
        self.registrants
            .get(widen_owner(self.ctypo_row(domain)?.owner))
    }

    /// The row of ctypo `domain`, if it is one.
    fn ctypo_row(&self, domain: &DomainName) -> Option<&CtypoRow> {
        let id = self.ctypos.names().lookup(domain.as_str())?;
        self.ctypos.rows().get(id.index())
    }
}

/// The world's registry, as a read-only view. Nothing is stored per
/// registration: a lookup finds the row a name belongs to — a ctypo, a
/// filler (a target itself), or a name-server provider's background
/// customer `biz-{provider}-{customer}.com` — and derives its
/// [`Registration`] and [`Zone`] from the world's columns and config,
/// with the same pure functions the build draws them with. Clones share
/// one `Arc`.
#[derive(Debug, Clone)]
pub struct RegistryView(Arc<Columns>);

impl RegistryView {
    /// Whether `domain` is registered.
    pub fn is_registered(&self, domain: &Fqdn) -> bool {
        self.0.row(domain.as_str()).is_some()
    }

    /// The registration of `domain`, derived on lookup.
    pub fn registration(&self, domain: &Fqdn) -> Option<Registration> {
        let row = self.0.row(domain.as_str())?;
        self.0.registration(row, domain)
    }

    /// The authoritative zone published for `domain`, derived on lookup.
    pub fn zone(&self, domain: &Fqdn) -> Option<Zone> {
        let row = self.0.row(domain.as_str())?;
        self.0.zone(row, domain)
    }

    /// The zone-file view used by §5.1's name-server analysis: one
    /// `(domain, nameserver)` row per registration, sorted. Fillers are
    /// walked in rank order, background customers in `(provider,
    /// customer)` order and ctypos in name order before the sort; each
    /// interned name is copied once, straight from its interner.
    pub fn zone_file(&self) -> Vec<(Fqdn, Fqdn)> {
        let c = &*self.0;
        let mut rows: Vec<(Fqdn, Fqdn)> =
            Vec::with_capacity(c.targets.len() + c.ctypos.len() + 30 * c.ns_providers.len());
        for id in c.targets.ids() {
            let ns = &c.ns_providers[id.index() % c.config.n_ns_providers.max(1)];
            rows.push((Fqdn::from_interned(&c.targets, id), ns.clone()));
        }
        for (pi, ns) in c.ns_providers.iter().enumerate() {
            for j in 0..benign_customers(&c.config, pi) {
                // A filler of the same name registered first.
                let name = background_name(pi, j);
                if c.targets.lookup(&name).is_none() {
                    rows.push((name.parse().expect("generated names are valid"), ns.clone()));
                }
            }
        }
        for (id, row) in c.ctypo_names.ids().zip(&c.ctypos) {
            let ns = &c.ns_providers[row.meta.draw.ns as usize];
            rows.push((Fqdn::from_interned(&c.ctypo_names, id), ns.clone()));
        }
        // Every name appears once, so ordering by name alone is the
        // `(domain, nameserver)` order. The ctypo block, most of the
        // rows, arrives sorted but for the few names where byte order
        // and label order disagree; the stable sort finds such runs and
        // merges them.
        rows.sort_by(|a, b| a.0.cmp(&b.0));
        rows
    }
}

impl ZoneSource for RegistryView {
    fn zone(&self, domain: &Fqdn) -> Option<Zone> {
        RegistryView::zone(self, domain)
    }
}

/// The world's registered ctypos, sorted by name, as a read-only view.
/// Nothing is stored per ctypo beyond the registry's columns — one
/// interned name and one row each — so [`Ctypos::iter`] derives every
/// [`CtypoInfo`] on access, its name and its target's name copied out
/// of the interners. It shares the registry view's `Arc`; it serializes
/// and prints as the list of derived rows.
#[derive(Clone)]
pub struct Ctypos(Arc<Columns>);

impl Ctypos {
    /// Number of ctypos.
    pub fn len(&self) -> usize {
        self.0.ctypos.len()
    }

    /// Whether the world has no ctypos.
    pub fn is_empty(&self) -> bool {
        self.0.ctypos.is_empty()
    }

    /// Every ctypo, derived in name order.
    pub fn iter(&self) -> CtypoIter<'_> {
        CtypoIter {
            columns: &self.0,
            next: 0..self.0.ctypos.len(),
        }
    }

    /// The ctypo names, interned in sorted order: `id.index()` is the
    /// position in [`Ctypos::rows`].
    pub(crate) fn names(&self) -> &DomainInterner {
        &self.0.ctypo_names
    }

    /// Per-ctypo columns, id-aligned with [`Ctypos::names`]: with the
    /// names, everything the snapshot persists.
    pub(crate) fn rows(&self) -> &[CtypoRow] {
        &self.0.ctypos
    }
}

impl<'a> IntoIterator for &'a Ctypos {
    type Item = CtypoInfo;
    type IntoIter = CtypoIter<'a>;

    fn into_iter(self) -> CtypoIter<'a> {
        self.iter()
    }
}

impl fmt::Debug for Ctypos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self).finish()
    }
}

impl Serialize for Ctypos {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(|c| c.to_value()).collect())
    }
}

/// Iterator over [`Ctypos`], deriving one [`CtypoInfo`] per step.
pub struct CtypoIter<'a> {
    columns: &'a Columns,
    next: std::ops::Range<usize>,
}

impl Iterator for CtypoIter<'_> {
    type Item = CtypoInfo;

    fn next(&mut self) -> Option<CtypoInfo> {
        self.columns.ctypo_info(self.next.next()?)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.next.size_hint()
    }
}

/// What [`RegistryView`] derives its rows from: the config, the names,
/// and the per-ctypo columns.
#[derive(Debug)]
struct Columns {
    config: PopulationConfig,
    /// Target names interned in rank order: `id.index()` is the
    /// zero-based rank.
    targets: DomainInterner,
    /// Each registrant's WHOIS record, index-aligned with
    /// [`World::registrants`]: an owner's typosquatting registrations
    /// all share it.
    owner_whois: Vec<Arc<WhoisRecord>>,
    /// The privacy proxy every proxied ctypo hides behind: one service
    /// and the one record it publishes, shared by all of them.
    proxy: Arc<PrivacyProxy>,
    /// Name-server provider hosts, index-aligned with
    /// [`CtypoDraw::ns`].
    ns_providers: Vec<Fqdn>,
    /// Hosted-mail MX hosts, index-aligned with [`CtypoDraw::mx`].
    mx_hosts: Vec<Fqdn>,
    /// Ctypo names interned in sorted order: `id.index()` is the
    /// position in [`World::ctypos`] and in `ctypos`.
    ctypo_names: DomainInterner,
    /// Per-ctypo columns, id-aligned with `ctypo_names`.
    ctypos: Vec<CtypoRow>,
}

/// Everything one ctypo holds besides its name: the candidate's
/// generation columns, the ground truth, and the draws its registration
/// and zone derive from. With the interned names, these rows are the
/// world's entire non-derivable state — exactly what the snapshot
/// persists (everything else is a pure function of the config).
#[derive(Debug, Clone, Copy)]
pub(crate) struct CtypoRow {
    /// Ground-truth class.
    pub(crate) class: DomainClass,
    /// Ground-truth owner, narrowed (see [`narrow_owner`]).
    pub(crate) owner: u32,
    /// Mistake kind of the candidate.
    pub(crate) kind: MistakeKind,
    /// Mistake position within the SLD.
    pub(crate) position: u32,
    /// Fat-finger adjacency flag.
    pub(crate) fat_finger: bool,
    /// Unnormalized visual distance (bit-exact).
    pub(crate) visual: f64,
    /// The target rank and the registration's draws.
    pub(crate) meta: CtypoMeta,
}

/// Narrows a ground-truth owner to a row's `u32`: registrant ids are
/// far below the top of the range, where the defensive and benign
/// sentinels (`usize::MAX` and `usize::MAX - 1`) keep the top two values.
fn narrow_owner(owner: usize) -> u32 {
    if owner == usize::MAX {
        u32::MAX
    } else if owner == usize::MAX - 1 {
        u32::MAX - 1
    } else {
        owner as u32
    }
}

/// The ground-truth owner a row's `u32` stands for.
fn widen_owner(v: u32) -> usize {
    if v == u32::MAX {
        usize::MAX
    } else if v == u32::MAX - 1 {
        usize::MAX - 1
    } else {
        v as usize
    }
}

/// The row a registered name belongs to.
#[derive(Debug, Clone, Copy)]
enum Row {
    /// Index into the ctypo columns.
    Ctypo(usize),
    /// Zero-based rank of the target.
    Filler(usize),
    /// `(provider, customer)` of a background customer.
    Background(usize, usize),
}

impl Columns {
    /// The columns of a world with no ctypos yet: fillers and background
    /// customers only.
    fn new(
        config: &PopulationConfig,
        targets: &[DomainName],
        registrants: &[Registrant],
        ns_providers: &[Fqdn],
        mx_providers: &[Fqdn],
    ) -> Columns {
        let mut target_names = DomainInterner::with_capacity(targets.len(), 16);
        for t in targets {
            target_names.intern(t);
        }
        Columns {
            config: config.clone(),
            targets: target_names,
            owner_whois: registrants
                .iter()
                .map(|r| Arc::new(r.whois.clone()))
                .collect(),
            proxy: Arc::new(PrivacyProxy::new(PROXY_SERVICE)),
            ns_providers: ns_providers.to_vec(),
            mx_hosts: mx_hosts_of(mx_providers),
            ctypo_names: DomainInterner::new(),
            ctypos: Vec::new(),
        }
    }

    /// Makes room for `n` ctypos in columns that hold none yet.
    fn reserve_ctypos(&mut self, n: usize) {
        self.ctypo_names = DomainInterner::with_capacity(n, 16);
        self.ctypos.reserve_exact(n);
    }

    /// Appends one ctypo. Names must arrive sorted and unique: a name's
    /// id is its row's position.
    fn push_ctypo(&mut self, name: &DomainName, row: CtypoRow) {
        self.ctypo_names.intern(name);
        self.ctypos.push(row);
    }

    /// The name of the last ctypo appended, if any.
    fn last_ctypo_name(&self) -> Option<&str> {
        let last = self.ctypo_names.len().checked_sub(1)?;
        Some(self.ctypo_names.name(self.ctypo_names.id_at(last)?))
    }

    /// The ground truth of ctypo `i`, derived from its name and row;
    /// `None` past the last ctypo.
    fn ctypo_info(&self, i: usize) -> Option<CtypoInfo> {
        let row = self.ctypos.get(i)?;
        let target = self.targets.id_at(row.meta.target_rank as usize)?;
        Some(CtypoInfo {
            candidate: TypoCandidate {
                domain: self.ctypo_names.domain(self.ctypo_names.id_at(i)?),
                target: self.targets.domain(target),
                kind: row.kind,
                position: row.position as usize,
                fat_finger: row.fat_finger,
                visual: row.visual,
            },
            owner: widen_owner(row.owner),
            class: row.class,
            private: row.meta.draw.private,
            smtp: row.meta.draw.smtp,
            has_zone: row.meta.draw.has_zone,
        })
    }

    /// The row holding `name`, if any. The build and the reload keep
    /// ctypo names apart from every filler and background name, so at
    /// most one source matches; a background name a filler also holds
    /// is the filler's, as it was registered first.
    fn row(&self, name: &str) -> Option<Row> {
        if let Some(id) = self.ctypo_names.lookup(name) {
            return Some(Row::Ctypo(id.index()));
        }
        if let Some(id) = self.targets.lookup(name) {
            return Some(Row::Filler(id.index()));
        }
        let (pi, j) = background_unit(&self.config, name)?;
        Some(Row::Background(pi, j))
    }

    fn registration(&self, row: Row, domain: &Fqdn) -> Option<Registration> {
        let config = &self.config;
        match row {
            Row::Ctypo(i) => {
                let c = &self.ctypos[i];
                let target = self.targets.id_at(c.meta.target_rank as usize)?;
                self.ctypo_registration(
                    domain.clone(),
                    self.targets.name(target),
                    c.class,
                    widen_owner(c.owner),
                    &c.meta.draw,
                )
            }
            Row::Filler(rank) => {
                let mut rng = derive_rng(config.seed, stream::POPULATION_BACKGROUND, rank as u64);
                let ns = &self.ns_providers[rank % config.n_ns_providers.max(1)];
                Some(legit_registration(
                    domain.clone(),
                    synth_whois(1_000_000 + rank, &mut rng),
                    ns,
                ))
            }
            Row::Background(pi, j) => {
                // Background units share the filler stream domain, offset
                // far past any filler rank so unit ids never collide.
                let unit = (1u64 << 32) | (pi as u64 * 1000 + j as u64);
                let mut rng = derive_rng(config.seed, stream::POPULATION_BACKGROUND, unit);
                Some(legit_registration(
                    domain.clone(),
                    synth_whois(4_000_000 + pi * 1000 + j, &mut rng),
                    &self.ns_providers[pi],
                ))
            }
        }
    }

    /// The registration half of a ctypo row: registrar, WHOIS, proxy
    /// and name server are a pure function of the name, the target's
    /// name, the ground-truth class and owner, and the draws (registrar,
    /// WHOIS ids and IPs are `owner_hash`-derived). A typosquatting
    /// registration shares its owner's record, and a proxied one the
    /// proxy. `None` only for the unregistered class.
    fn ctypo_registration(
        &self,
        domain: Fqdn,
        target: &str,
        class: DomainClass,
        owner: usize,
        draw: &CtypoDraw,
    ) -> Option<Registration> {
        let domain_hash = owner_hash(domain.as_str());
        let whois = match class {
            DomainClass::Defensive => Arc::new(synth_whois_masked(
                2_000_000 + (owner_hash(target) % 100_000) as usize,
                draw.whois_mask,
            )),
            DomainClass::BenignCollision => Arc::new(synth_whois_masked(
                3_000_000 + (domain_hash % 100_000) as usize,
                draw.whois_mask,
            )),
            DomainClass::Typosquatting => Arc::clone(&self.owner_whois[owner]),
            DomainClass::Unregistered => return None,
        };
        // The ten registrar identities, preformatted: `format!` per
        // registration showed up in the snapshot-load profile.
        const REGISTRARS: [&str; 10] = [
            "registrar-0",
            "registrar-1",
            "registrar-2",
            "registrar-3",
            "registrar-4",
            "registrar-5",
            "registrar-6",
            "registrar-7",
            "registrar-8",
            "registrar-9",
        ];
        Some(Registration {
            domain,
            registrar: REGISTRARS[(domain_hash % 10) as usize],
            whois,
            privacy_proxy: draw.private.then(|| Arc::clone(&self.proxy)),
            nameservers: vec![self.ns_providers[draw.ns as usize].clone()],
            created_day: draw.created_day as u32,
        })
    }

    fn zone(&self, row: Row, domain: &Fqdn) -> Option<Zone> {
        match row {
            Row::Ctypo(i) => ctypo_zone(domain, &self.ctypos[i].meta.draw, &self.mx_hosts),
            Row::Filler(rank) => {
                let rank = rank as u64;
                let mx = domain.child("mx").expect("target names take an mx child");
                let mut zone = Zone::hosted_mail(domain, &mx, Some(ip_for(rank, 1)), 300);
                zone.add(ResourceRecord::new(mx, 300, RecordData::A(ip_for(rank, 2))));
                Some(zone)
            }
            Row::Background(pi, j) => {
                Some(Zone::parked(domain, ip_for((pi * 1000 + j) as u64, 9), 300))
            }
        }
    }

    /// Decodes one snapshot record into its name and row, checking
    /// every index against the world it claims to belong to.
    fn decode(&self, rec: &CtypoRecord) -> Result<(DomainName, CtypoRow), String> {
        let row = rec.row;
        let rank = row.meta.target_rank as usize;
        let target = self
            .targets
            .id_at(rank)
            .ok_or_else(|| format!("target rank {rank} out of range"))?;
        let domain = DomainName::from_sld_tld(&rec.sld, self.targets.tld(target))
            .map_err(|e| format!("bad ctypo name {:?}: {e}", rec.sld))?;
        match row.class {
            DomainClass::Unregistered => return Err("unregistered class in snapshot".to_owned()),
            DomainClass::Typosquatting if row.owner as usize >= self.owner_whois.len() => {
                return Err(format!("owner {} out of range", row.owner));
            }
            _ => {}
        }
        let draw = &row.meta.draw;
        if (draw.ns as usize) >= self.ns_providers.len() {
            return Err(format!("ns provider {} out of range", draw.ns));
        }
        if let Some(mi) = draw.mx {
            if (mi as usize) >= self.mx_hosts.len() {
                return Err(format!("mx provider {mi} out of range"));
            }
        }
        if self.row(domain.as_str()).is_some() {
            return Err(format!(
                "snapshot ctypo {domain} collides with an existing registration"
            ));
        }
        Ok((domain, row))
    }
}

/// Number of background customers of name-server provider `pi`: §5.2's
/// ratios only make sense against each provider's ordinary customer
/// base, and clean providers host many unrelated businesses where
/// cesspools host few.
fn benign_customers(config: &PopulationConfig, pi: usize) -> usize {
    if pi < config.n_cesspool_ns {
        4
    } else {
        30
    }
}

/// The name of background customer `j` of provider `pi`.
fn background_name(pi: usize, j: usize) -> String {
    format!("biz-{pi}-{j}.com")
}

/// The `(provider, customer)` unit `name` is the background name of, if
/// any under `config`.
fn background_unit(config: &PopulationConfig, name: &str) -> Option<(usize, usize)> {
    let (pi, j) = name
        .strip_prefix("biz-")?
        .strip_suffix(".com")?
        .split_once('-')?;
    let (pi, j) = (pi.parse().ok()?, j.parse().ok()?);
    // The round trip rejects non-canonical spellings such as `biz-01-2`.
    let listed = pi < config.n_ns_providers && j < benign_customers(config, pi);
    (listed && background_name(pi, j) == name).then_some((pi, j))
}

/// A filler's or background customer's registration: a legitimate
/// registrar, no proxy, registered on day 0.
fn legit_registration(domain: Fqdn, whois: WhoisRecord, ns: &Fqdn) -> Registration {
    Registration {
        domain,
        registrar: "registrar-legit",
        whois: Arc::new(whois),
        privacy_proxy: None,
        nameservers: vec![ns.clone()],
        created_day: 0,
    }
}

/// The complete record of every RNG roll one ctypo registration
/// consumed, in stream order. [`Columns::ctypo_registration`] and
/// [`ctypo_zone`] turn a draw into the actual registration and zone
/// *purely*, which is what makes the snapshot a faithful stand-in for a
/// fresh build: persist the draws, re-run the pure part on lookup.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct CtypoDraw {
    /// WHOIS field-drop bits (see `WHOIS_DROP_*`); unused for
    /// typosquatting registrations, which reuse the registrant's record.
    pub(crate) whois_mask: u8,
    /// Privacy-proxy roll (typosquatting: the registrant's flag).
    pub(crate) private: bool,
    /// Name-server provider index.
    pub(crate) ns: u16,
    /// Mail-provider index, `None` when self-hosted or mail-less.
    pub(crate) mx: Option<u16>,
    /// SMTP behaviour roll.
    pub(crate) smtp: SmtpProfile,
    /// Whether a zone is published at all (lame delegation when false).
    pub(crate) has_zone: bool,
    /// The parked-vs-empty roll; only drawn (and only meaningful) for
    /// zones with no MX and no SMTP listener.
    pub(crate) parked: bool,
    /// Registration day roll (0..3650).
    pub(crate) created_day: u16,
}

/// Per-ctypo registration metadata: the target rank plus the draws.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct CtypoMeta {
    /// Zero-based rank of the target this ctypo was generated from.
    pub(crate) target_rank: u32,
    /// The registration's RNG draws.
    pub(crate) draw: CtypoDraw,
}

/// One persisted ctypo as read from a snapshot, not yet checked: its
/// SLD (the TLD is the target's) and its row.
#[derive(Debug, Clone)]
pub(crate) struct CtypoRecord {
    /// Second-level label of the ctypo domain.
    pub(crate) sld: String,
    /// Everything else the ctypo holds.
    pub(crate) row: CtypoRow,
}

/// What the registration roll over one target's gtypos reads besides the
/// target's own RNG stream.
struct GtypoRoll<'a> {
    config: &'a PopulationConfig,
    /// Zipf portfolio appetite per registrant, and its sum.
    appetite: &'a [f64],
    appetite_total: f64,
    registrants: &'a [Registrant],
}

impl GtypoRoll<'_> {
    /// Rolls every gtypo of the target at zero-based `rank0` from the
    /// target's own stream and records the winners' draws.
    ///
    /// Roll first, score later: each variant rolls against its
    /// visual-free bound, and only a variant that passes runs the visual
    /// DP for the exact roll on the same draw (see [`roll_bounded`]).
    /// Domain names are materialized only for the winners.
    fn target(&self, rank0: usize, target: &DomainName) -> Vec<PendingCtypo> {
        let config = self.config;
        let mut rng = derive_rng(config.seed, stream::POPULATION_TARGET, rank0 as u64);
        let p_target = target_registration_p(config, rank0);
        let mut out = Vec::new();
        let (mut gtypos, mut scored) = (0u64, 0u64);
        typogen::for_each_dl1(target, |mut v| {
            gtypos += 1;
            let (ff, kind) = (v.fat_finger(), v.kind());
            let bound = registration_bound(p_target, ff, kind);
            let won = roll_bounded(&mut rng, bound, || {
                scored += 1;
                registration_p(p_target, visual_base(v.visual_normalized()), ff, kind)
            });
            if !won {
                return;
            }
            // Who takes it?
            let class_roll: f64 = rng.gen();
            let (class, owner) = if class_roll < config.defensive_share {
                (DomainClass::Defensive, usize::MAX)
            } else if class_roll < config.defensive_share + config.benign_share {
                (DomainClass::BenignCollision, usize::MAX - 1)
            } else {
                let mut pick = rng.gen::<f64>() * self.appetite_total;
                let mut owner = config.n_registrants - 1;
                for (i, a) in self.appetite.iter().enumerate() {
                    if pick < *a {
                        owner = i;
                        break;
                    }
                    pick -= *a;
                }
                (DomainClass::Typosquatting, owner)
            };
            let Some(draw) = draw_ctypo(
                self.registrants,
                config.n_ns_providers,
                class,
                owner,
                &mut rng,
            ) else {
                return;
            };
            out.push(PendingCtypo {
                name: v.domain(),
                row: CtypoRow {
                    class,
                    owner: narrow_owner(owner),
                    kind,
                    position: v.position() as u32,
                    fat_finger: ff,
                    visual: v.visual(),
                    meta: CtypoMeta {
                        target_rank: rank0 as u32,
                        draw,
                    },
                },
            });
        });
        ets_obs::metrics::counter_add("world.gtypos", gtypos);
        ets_obs::metrics::counter_add("world.gtypos_scored", scored);
        out
    }
}

/// A gtypo winner rolled during the parallel compute phase; kept (or
/// dropped on a name collision) sequentially.
struct PendingCtypo {
    /// The winner's domain name, the one string it holds.
    name: DomainName,
    /// The row the commit copies into the columns.
    row: CtypoRow,
}

impl PendingCtypo {
    /// Deterministic estimate of this pending winner's payload bytes (the
    /// row plus its name). Drives the band-size adaptation and the
    /// `world.band_pending_bytes` histogram; precision matters less than
    /// being a pure function of the data.
    fn approx_bytes(&self) -> u64 {
        (std::mem::size_of::<PendingCtypo>() + self.name.as_str().len()) as u64
    }
}

/// Registration probability for the target at zero-based `rank0` —
/// monotonically decreasing in rank, so the first rank below the 0.01
/// cutoff bounds the active target set.
fn target_registration_p(config: &PopulationConfig, rank0: usize) -> f64 {
    config.base_registration_rate / ((rank0 + 1) as f64).powf(config.rank_decay)
}

/// Registration probability of one gtypo of a target registered at
/// `p_target`. Low visual distance (`base`, see [`visual_base`]) and
/// fat-finger adjacency make a typo attractive; deletions and
/// transpositions too (Figure 9).
fn registration_p(p_target: f64, base: f64, fat_finger: bool, kind: MistakeKind) -> f64 {
    let ff = if fat_finger { 1.5 } else { 1.0 };
    let kind = match kind {
        MistakeKind::Deletion => 1.4,
        MistakeKind::Transposition => 1.3,
        MistakeKind::Substitution => 1.0,
        MistakeKind::Addition => 0.8,
    };
    let attractiveness = (base * ff * kind).min(2.0);
    (p_target * attractiveness * 0.35).min(0.95)
}

/// The visual term of [`registration_p`] for a normalized visual
/// distance; never above 1.
fn visual_base(visual_normalized: f64) -> f64 {
    (1.0 - visual_normalized).clamp(0.05, 1.0)
}

/// [`registration_p`] with the visual term at its maximum of 1: an upper
/// bound that needs no visual DP. It holds bit for bit, because IEEE
/// multiplication by a non-negative factor and `min` are monotone, so
/// `base <= 1` gives `registration_p(.., base, ..) <= bound`.
fn registration_bound(p_target: f64, fat_finger: bool, kind: MistakeKind) -> f64 {
    registration_p(p_target, 1.0, fat_finger, kind)
}

/// `rng.gen_bool(exact())`, with `exact` evaluated only when a roll
/// against `bound` passes; `bound` must be at least `exact()`. The stream
/// and the outcome are those of the exact roll: `gen_bool` draws one
/// `next_u64` whatever its probability and returns `unit < p`, so a draw
/// that fails `bound` fails `exact()` too, and a draw that passes is
/// rewound and rolled again against `exact()`.
fn roll_bounded(rng: &mut ChaCha8Rng, bound: f64, exact: impl FnOnce() -> f64) -> bool {
    let before = rng.clone();
    if !rng.gen_bool(bound) {
        return false;
    }
    *rng = before;
    rng.gen_bool(exact())
}

/// Name-server provider host names (first `n_cesspool_ns` are dirty).
fn make_ns_providers(config: &PopulationConfig) -> Vec<Fqdn> {
    (0..config.n_ns_providers)
        .map(|i| {
            let name = if i < config.n_cesspool_ns {
                format!("ns1.cheap-dns-{i}.example")
            } else {
                format!("ns1.provider-{i}.example")
            };
            name.parse().expect("generated ns names are valid")
        })
        .collect()
}

/// The Table-6 provider MX domains plus the mid-tier hosts.
fn make_mx_providers() -> Vec<Fqdn> {
    MX_PROVIDERS
        .iter()
        .map(|(d, _, _)| d.parse::<Fqdn>().expect("static"))
        .chain(
            (0..MID_TIER_MX).map(|i| format!("mailhost-{i}.example").parse().expect("generated")),
        )
        .collect()
}

/// The registrant population, one derived stream per id.
fn make_registrants(config: &PopulationConfig) -> Vec<Registrant> {
    par_map_index(config.n_registrants, |id| {
        let mut rng = derive_rng(config.seed, stream::POPULATION_REGISTRANT, id as u64);
        let archetype = match id {
            0..=2 => RegistrantArchetype::DomainSeller,
            3..=13 => RegistrantArchetype::MailTyposquatter,
            _ => RegistrantArchetype::SmallSquatter,
        };
        let private = rng.gen_bool(config.privacy_share);
        // Typosquatters favor the cesspool name servers.
        let ns_provider = match archetype {
            RegistrantArchetype::MailTyposquatter | RegistrantArchetype::DomainSeller
                if rng.gen_bool(0.7) =>
            {
                rng.gen_range(0..config.n_cesspool_ns.max(1))
            }
            _ => rng.gen_range(0..config.n_ns_providers),
        };
        // Mail hosting: weighted pick over the Table-6 providers.
        let mx_provider = match archetype {
            RegistrantArchetype::MailTyposquatter | RegistrantArchetype::DomainSeller => {
                Some(pick_mx_provider(&mut rng))
            }
            RegistrantArchetype::SmallSquatter if rng.gen_bool(0.55) => {
                Some(pick_mx_provider(&mut rng))
            }
            _ => None,
        };
        let reads_mail = if rng.gen_bool(0.002) { 0.5 } else { 0.0 };
        Registrant {
            id,
            archetype,
            whois: synth_whois(id, &mut rng),
            private,
            ns_provider,
            mx_provider,
            reads_mail,
        }
    })
}

/// Consumes a ctypo registration's RNG rolls — and nothing else. The
/// draw order is load-bearing: it must match what the historical
/// `prepare_ctypo` consumed per class, or every world built since the
/// seed commit changes. Returns `None` only for the unregistered class
/// (no rolls consumed).
fn draw_ctypo(
    registrants: &[Registrant],
    n_ns_providers: usize,
    class: DomainClass,
    owner: usize,
    rng: &mut ChaCha8Rng,
) -> Option<CtypoDraw> {
    let (whois_mask, private, ns, mx, smtp) = match class {
        DomainClass::Defensive => {
            // Defensive registrations point at the owner, park the web
            // host, and rarely run mail.
            (
                whois_field_mask(rng),
                false,
                (n_ns_providers - 1) as u16,
                None,
                SmtpProfile::NoListener,
            )
        }
        DomainClass::BenignCollision => {
            let mask = whois_field_mask(rng);
            let private = rng.gen_bool(0.2);
            let ns = rng.gen_range(0..n_ns_providers) as u16;
            let mx = rng.gen_bool(0.3).then_some(BENIGN_MX_PROVIDER as u16);
            let smtp = if rng.gen_bool(0.5) {
                SmtpProfile::StarttlsOk
            } else {
                SmtpProfile::NoListener
            };
            (mask, private, ns, mx, smtp)
        }
        DomainClass::Typosquatting => {
            let r = &registrants[owner];
            let top_tier = r
                .mx_provider
                .map(|i| i < MX_PROVIDERS.len())
                .unwrap_or(false);
            let smtp = sample_smtp_profile(r.archetype, r.mx_provider.is_some(), top_tier, rng);
            (
                0,
                r.private,
                r.ns_provider as u16,
                r.mx_provider.map(|i| i as u16),
                smtp,
            )
        }
        DomainClass::Unregistered => return None,
    };
    // Lame delegation (Table 4 "No info"): registered, but no zone answers.
    let has_zone = !rng.gen_bool(0.34);
    // The parked-vs-empty roll happens only inside the no-MX/no-listener
    // zone arm — short-circuiting keeps the stream position identical.
    let parked = has_zone && mx.is_none() && smtp == SmtpProfile::NoListener && rng.gen_bool(0.6);
    let created_day = rng.gen_range(0..3650u32) as u16;
    Some(CtypoDraw {
        whois_mask,
        private,
        ns,
        mx,
        smtp,
        has_zone,
        parked,
        created_day,
    })
}

/// The zone half of a ctypo row: a pure function of the name and the
/// draws. `None` for a lame delegation.
fn ctypo_zone(domain: &Fqdn, draw: &CtypoDraw, mx_hosts: &[Fqdn]) -> Option<Zone> {
    if !draw.has_zone {
        return None;
    }
    let domain_hash = owner_hash(domain.as_str());
    Some(match draw.mx {
        None if draw.smtp == SmtpProfile::NoListener => {
            // Web-only parking or nothing at all.
            if draw.parked {
                Zone::parked(domain, ip_for(domain_hash, 3), 300)
            } else {
                Zone::new(domain.clone()) // neither MX nor A
            }
        }
        Some(mi) => Zone::hosted_mail(
            domain,
            &mx_hosts[mi as usize],
            Some(ip_for(domain_hash, 4)),
            300,
        ),
        None => Zone::catch_all(domain, ip_for(domain_hash, 5), 300),
    })
}

fn sample_smtp_profile(
    archetype: RegistrantArchetype,
    has_mx: bool,
    top_tier: bool,
    rng: &mut ChaCha8Rng,
) -> SmtpProfile {
    if has_mx && !top_tier {
        // Mid-tier hosted: MX resolves, but the host is mostly parked
        // infrastructure that rarely accepts (the paper's probe saw the
        // accepting population concentrate on eight private hosts).
        let roll: f64 = rng.gen();
        return if roll < 0.38 {
            SmtpProfile::SilentTimeout
        } else if roll < 0.60 {
            SmtpProfile::ConnectionReset
        } else if roll < 0.88 {
            SmtpProfile::BounceAll
        } else if roll < 0.93 {
            SmtpProfile::StarttlsOk
        } else if roll < 0.98 {
            SmtpProfile::StarttlsBroken
        } else {
            SmtpProfile::PlainOnly
        };
    }
    if !has_mx {
        // Self-hosted or web-only: mostly dead ports, echoing Table 5's
        // dominance of timeouts and network errors.
        let roll: f64 = rng.gen();
        return if roll < 0.45 {
            SmtpProfile::SilentTimeout
        } else if roll < 0.75 {
            SmtpProfile::ConnectionReset
        } else if roll < 0.85 {
            SmtpProfile::NoListener
        } else if roll < 0.93 {
            SmtpProfile::BounceAll
        } else {
            SmtpProfile::PlainOnly
        };
    }
    match archetype {
        RegistrantArchetype::MailTyposquatter | RegistrantArchetype::DomainSeller => {
            let roll: f64 = rng.gen();
            if roll < 0.62 {
                SmtpProfile::StarttlsOk
            } else if roll < 0.72 {
                SmtpProfile::StarttlsBroken
            } else if roll < 0.74 {
                SmtpProfile::PlainOnly
            } else if roll < 0.86 {
                SmtpProfile::BounceAll
            } else {
                SmtpProfile::SilentTimeout
            }
        }
        _ => {
            if rng.gen_bool(0.5) {
                SmtpProfile::StarttlsOk
            } else {
                SmtpProfile::BounceAll
            }
        }
    }
}

fn pick_mx_provider(rng: &mut ChaCha8Rng) -> usize {
    // 35% of hosted portfolios sit on the mid-tier hosts (the middle of
    // Figure 8's curve); the rest concentrate on the Table-6 head.
    if rng.gen_bool(0.35) {
        return MX_PROVIDERS.len() + rng.gen_range(0..MID_TIER_MX);
    }
    let total: f64 = MX_PROVIDERS.iter().map(|(_, _, w)| w).sum();
    let mut pick = rng.gen::<f64>() * total;
    for (i, (_, _, w)) in MX_PROVIDERS.iter().enumerate() {
        if pick < *w {
            return i;
        }
        pick -= w;
    }
    MX_PROVIDERS.len() - 1
}

/// MX-provider index used by benign collisions that host mail
/// (google.com in the Table-6 list).
const BENIGN_MX_PROVIDER: usize = 8;

/// The privacy-proxy service every proxied registration hides behind.
const PROXY_SERVICE: &str = "privacy-guard.example";

/// WHOIS field-drop bit: no fax on file.
const WHOIS_DROP_FAX: u8 = 1;
/// WHOIS field-drop bit: no organization on file.
const WHOIS_DROP_ORG: u8 = 2;
/// WHOIS field-drop bit: no phone, mail address, or fax — the records
/// that can never cluster.
const WHOIS_DROP_CONTACT: u8 = 4;

/// Rolls which WHOIS fields a record leaves blank. Exactly the three
/// `gen_bool` draws the historical `synth_whois` consumed, in order.
fn whois_field_mask(rng: &mut ChaCha8Rng) -> u8 {
    let mut mask = 0;
    if rng.gen_bool(0.15) {
        mask |= WHOIS_DROP_FAX;
    }
    if rng.gen_bool(0.1) {
        mask |= WHOIS_DROP_ORG;
    }
    if rng.gen_bool(0.05) {
        mask |= WHOIS_DROP_CONTACT;
    }
    mask
}

/// Builds the synthetic WHOIS record for `id` with the given field-drop
/// mask — the pure half of `synth_whois`, reused by derived ctypo rows.
fn synth_whois_masked(id: usize, mask: u8) -> WhoisRecord {
    // Most registrants fill most fields (with plausibly fake data); some
    // leave fields blank so they can never cluster.
    let mut w = WhoisRecord::full(
        &format!("Registrant {id}"),
        &format!("Org {}", id % 97),
        &format!("contact{id}@mail.example"),
        &format!("+1.555{:07}", id % 10_000_000),
        &format!("+1.556{:07}", id % 10_000_000),
        &format!("{} Main Street, Springfield", id % 9_999),
    );
    if mask & WHOIS_DROP_FAX != 0 {
        w.fax = None;
    }
    if mask & WHOIS_DROP_ORG != 0 {
        w.organization = None;
    }
    if mask & WHOIS_DROP_CONTACT != 0 {
        w.phone = None;
        w.mail_address = None;
        w.fax = None;
    }
    w
}

fn synth_whois(id: usize, rng: &mut ChaCha8Rng) -> WhoisRecord {
    let mask = whois_field_mask(rng);
    synth_whois_masked(id, mask)
}

fn owner_hash(d: impl std::fmt::Display) -> u64 {
    // FNV-1a folded straight off the `Display` stream: same bytes (and so
    // the same hash) as hashing `d.to_string()`, without the allocation —
    // this runs on every derived ctypo registration and zone.
    struct Fnv(u64);
    impl std::fmt::Write for Fnv {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            for b in s.bytes() {
                self.0 ^= b as u64;
                self.0 = self.0.wrapping_mul(0x100000001b3);
            }
            Ok(())
        }
    }
    let mut h = Fnv(0xcbf29ce484222325);
    use std::fmt::Write as _;
    // `Fnv::write_str` never errors, so the write cannot fail.
    let _ = write!(h, "{d}");
    h.0
}

/// Hosted-mail MX targets: one `mx1` child per provider, built once per
/// world instead of re-deriving the child name per ctypo.
fn mx_hosts_of(mx_providers: &[Fqdn]) -> Vec<Fqdn> {
    mx_providers
        .iter()
        .map(|p| p.child("mx1").expect("provider names are valid"))
        .collect()
}

fn ip_for(seed: u64, salt: u64) -> Ipv4Addr {
    let h = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(salt);
    Ipv4Addr::new(10, (h >> 16) as u8, (h >> 8) as u8, (h as u8).max(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ets_dns::Registry;
    use proptest::prelude::*;
    use std::collections::HashMap;

    fn tiny_world() -> World {
        World::build(PopulationConfig::tiny(7))
    }

    #[test]
    fn world_is_deterministic() {
        let a = World::build(PopulationConfig::tiny(7));
        let b = World::build(PopulationConfig::tiny(7));
        assert_eq!(a.ctypos.len(), b.ctypos.len());
        for (x, y) in a.ctypos.iter().zip(&b.ctypos) {
            assert_eq!(x.candidate.domain, y.candidate.domain);
            assert_eq!(x.owner, y.owner);
            assert_eq!(x.smtp, y.smtp);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = World::build(PopulationConfig::tiny(7));
        let b = World::build(PopulationConfig::tiny(8));
        let a_names: Vec<_> = a
            .ctypos
            .iter()
            .map(|c| c.candidate.domain.as_str().to_owned())
            .collect();
        let b_names: Vec<_> = b
            .ctypos
            .iter()
            .map(|c| c.candidate.domain.as_str().to_owned())
            .collect();
        assert_ne!(a_names, b_names);
    }

    #[test]
    fn ctypos_are_registered_and_dl1() {
        let w = tiny_world();
        assert!(w.ctypos.len() > 100, "got {}", w.ctypos.len());
        for c in w.ctypos.iter().take(200) {
            assert!(w
                .registry
                .is_registered(&Fqdn::from_domain(&c.candidate.domain)));
            assert_eq!(
                ets_core::distance::damerau_levenshtein(
                    c.candidate.target.sld(),
                    c.candidate.domain.sld()
                ),
                1
            );
        }
    }

    #[test]
    fn popular_targets_attract_more_ctypos() {
        let w = tiny_world();
        let count_for =
            |t: &DomainName| w.ctypos.iter().filter(|c| &c.candidate.target == t).count();
        let top = count_for(&w.targets[0]);
        let bottom = count_for(&w.targets[w.targets.len() - 1]);
        assert!(
            top > bottom,
            "top target has {top} ctypos, bottom has {bottom}"
        );
    }

    #[test]
    fn ownership_is_heavy_tailed() {
        let w = World::build(PopulationConfig {
            n_targets: 120,
            ..PopulationConfig::tiny(3)
        });
        let mut counts: HashMap<usize, usize> = HashMap::new();
        for c in w.true_typosquats() {
            *counts.entry(c.owner).or_insert(0) += 1;
        }
        let mut sizes: Vec<usize> = counts.values().copied().collect();
        sizes.sort_unstable_by(|a, b| b.cmp(a));
        let total: usize = sizes.iter().sum();
        let top14: usize = sizes.iter().take(14).sum();
        // Figure 8: the top registrants own a large share.
        assert!(
            top14 as f64 / total as f64 > 0.2,
            "top-14 share {}",
            top14 as f64 / total as f64
        );
    }

    #[test]
    fn privacy_share_is_plausible() {
        let w = tiny_world();
        let private = w.ctypos.iter().filter(|c| c.private).count();
        let share = private as f64 / w.ctypos.len() as f64;
        assert!(share > 0.2 && share < 0.7, "privacy share {share}");
    }

    #[test]
    fn defensive_and_benign_exist() {
        let w = World::build(PopulationConfig {
            n_targets: 150,
            ..PopulationConfig::tiny(11)
        });
        assert!(w.ctypos.iter().any(|c| c.class == DomainClass::Defensive));
        assert!(w
            .ctypos
            .iter()
            .any(|c| c.class == DomainClass::BenignCollision));
        assert!(w.true_typosquats().count() > w.ctypos.len() / 2);
    }

    #[test]
    fn hosted_mail_resolves_to_provider() {
        let w = tiny_world();
        let resolver = w.resolver();
        let hosted: Vec<CtypoInfo> = w
            .ctypos
            .iter()
            .filter(|c| c.has_zone && matches!(c.smtp, SmtpProfile::StarttlsOk))
            .take(20)
            .collect();
        assert!(!hosted.is_empty());
        let provider_names: Vec<String> = w.mx_providers.iter().map(|p| p.to_string()).collect();
        let mut saw_provider = false;
        for c in hosted {
            if let Some(mx) = resolver.mx_domain(&Fqdn::from_domain(&c.candidate.domain)) {
                if provider_names.contains(&mx.to_string()) {
                    saw_provider = true;
                }
            }
        }
        assert!(
            saw_provider,
            "no hosted ctypo resolved to a Table-6 provider"
        );
    }

    #[test]
    fn owner_sentinels_survive_narrowing() {
        for o in [0usize, 1, 599, usize::MAX - 1, usize::MAX] {
            assert_eq!(widen_owner(narrow_owner(o)), o);
        }
    }

    #[test]
    fn owner_lookup_round_trips() {
        let w = tiny_world();
        let squat = w.true_typosquats().next().unwrap();
        let owner = w.owner_of(&squat.candidate.domain).unwrap();
        assert_eq!(owner.id, squat.owner);
    }

    /// The registry hands out shared WHOIS records: one per typosquatting
    /// owner and one for the proxy, never a copy per ctypo.
    #[test]
    fn registrations_share_their_records() {
        let w = tiny_world();
        let mut by_owner: HashMap<usize, Arc<WhoisRecord>> = HashMap::new();
        let mut proxy_record: Option<Arc<WhoisRecord>> = None;
        let (mut typosquats, mut proxied) = (0, 0);
        for c in &w.ctypos {
            let fq = Fqdn::from_domain(&c.candidate.domain);
            let reg = w.registry.registration(&fq).expect("ctypo registered");
            let public = reg.public_whois();
            assert_eq!(reg.is_private(), c.private, "{fq}");
            if c.private {
                proxied += 1;
                let shared = proxy_record.get_or_insert_with(|| Arc::clone(&public));
                assert!(Arc::ptr_eq(shared, &public), "{fq}: a copy of the proxy");
            }
            if c.class != DomainClass::Typosquatting {
                continue;
            }
            typosquats += 1;
            let shared = by_owner
                .entry(c.owner)
                .or_insert_with(|| Arc::clone(&public));
            assert!(Arc::ptr_eq(shared, &public), "{fq}: a copy of the owner's");
            if !c.private {
                assert_eq!(*public, w.registrants[c.owner].whois, "{fq}");
            }
        }
        assert_eq!(
            proxy_record.as_deref(),
            Some(&WhoisRecord::privacy_proxy("privacy-guard.example"))
        );
        assert!(proxied > 1, "{proxied} proxied ctypos");
        assert!(
            by_owner.len() < typosquats,
            "{typosquats} typosquats, {} owners",
            by_owner.len()
        );
    }

    #[test]
    fn lame_delegations_exist() {
        let w = tiny_world();
        let lame = w.ctypos.iter().filter(|c| !c.has_zone).count();
        let share = lame as f64 / w.ctypos.len() as f64;
        assert!(share > 0.2 && share < 0.5, "lame share {share}");
        // And they really have no zone in the registry.
        let c = w.ctypos.iter().find(|c| !c.has_zone).unwrap();
        assert!(w
            .registry
            .zone(&Fqdn::from_domain(&c.candidate.domain))
            .is_none());
    }

    /// Everything a downstream analysis can observe about the world:
    /// ctypos, registrants, registrations and zones of every ctypo, NS
    /// customer bases, and the snapshot metadata column.
    fn world_fingerprint(w: &World) -> String {
        let mut regs = String::new();
        for c in &w.ctypos {
            let fq = Fqdn::from_domain(&c.candidate.domain);
            let r = w.registry.registration(&fq).expect("ctypo registered");
            regs.push_str(&format!("{r:?}\n"));
            if let Some(z) = w.registry.zone(&fq) {
                regs.push_str(&format!("{z:?}\n"));
            }
        }
        format!(
            "{}\n{}\n{:?}\n{:?}\n{regs}",
            serde_json::to_string(&w.ctypos).expect("serializable"),
            serde_json::to_string(&w.registrants).expect("serializable"),
            w.ns_customer_base,
            w.ctypos.rows().iter().map(|r| r.meta).collect::<Vec<_>>(),
        )
    }

    #[test]
    fn banded_build_is_band_schedule_invariant() {
        let reference = world_fingerprint(&World::build(PopulationConfig::tiny(7)));
        // A 1-byte budget collapses bands to MIN_BAND_TARGETS after the
        // first adaptation; an unbounded budget doubles them to the max.
        // Both extremes (and an awkward initial band) must produce a
        // byte-identical world.
        for (budget, initial) in [(1, 16), (usize::MAX, 7), (64 << 10, 33)] {
            let banded = World::build_banded(PopulationConfig::tiny(7), budget, initial);
            assert_eq!(
                world_fingerprint(&banded),
                reference,
                "band schedule (budget {budget}, initial {initial}) changed the world"
            );
        }
    }

    /// Every other world test compares a build with itself, so a change
    /// that shifts the draw order in every build alike passes them all.
    /// This pins the tiny world to the FNV-1a hash of its fingerprint as
    /// the score-every-candidate build produced it.
    #[test]
    fn tiny_world_is_pinned() {
        let fingerprint = world_fingerprint(&tiny_world());
        assert_eq!(owner_hash(&fingerprint), 0xf7bc_16b2_5f30_e39f);
    }

    /// Valid labels over the generator's alphabet: no hyphen at either edge.
    fn label() -> impl Strategy<Value = String> {
        "[a-z0-9-]{1,20}".prop_filter("no hyphen edges", |s| {
            !s.starts_with('-') && !s.ends_with('-')
        })
    }

    proptest! {
        /// The visual-free bound the build rolls first is never below the
        /// exact registration probability of any candidate, bit for bit
        /// (the values are non-negative, so bit order is value order).
        #[test]
        fn registration_bound_dominates_exact_p(
            sld in label(),
            top in 0usize..40,
            rank in 0usize..2_000_000,
        ) {
            let config = PopulationConfig::default();
            let target: DomainName = format!("{sld}.com").parse().expect("valid label");
            for rank0 in [top, rank] {
                let p_target = target_registration_p(&config, rank0);
                let mut worst = None;
                typogen::for_each_dl1(&target, |mut v| {
                    let (ff, kind) = (v.fat_finger(), v.kind());
                    let p = registration_p(p_target, visual_base(v.visual_normalized()), ff, kind);
                    let bound = registration_bound(p_target, ff, kind);
                    if !(p >= 0.0 && p.to_bits() <= bound.to_bits()) && worst.is_none() {
                        worst = Some((v.sld().to_owned(), p, bound));
                    }
                });
                prop_assert!(worst.is_none(), "rank {rank0}: {worst:?}");
            }
        }

        /// Rolling the bound first leaves both the outcome and the stream
        /// exactly where a plain `gen_bool(p)` would.
        #[test]
        fn bounded_roll_is_the_exact_roll(seed: u64, a in 0.0f64..0.95, b in 0.0f64..0.95) {
            let (p, bound) = (a.min(b), a.max(b));
            let mut bounded = ChaCha8Rng::seed_from_u64(seed);
            let mut exact = bounded.clone();
            for _ in 0..64 {
                prop_assert_eq!(roll_bounded(&mut bounded, bound, || p), exact.gen_bool(p));
            }
            prop_assert_eq!(bounded.next_u64(), exact.next_u64());
        }
    }

    #[test]
    fn snapshot_roundtrip_is_byte_identical() {
        let world = World::build(PopulationConfig::tiny(11));
        let reloaded = crate::snapshot::roundtrip_in_memory(&world).expect("roundtrip");
        assert_eq!(world_fingerprint(&reloaded), world_fingerprint(&world));
    }

    // --- the committed registry: oracle of the derived view ------------

    /// A ctypo's registration and zone, materialized through both halves
    /// of the derivation over `columns`' registrants and providers.
    fn materialize_ctypo(p: &PendingCtypo, columns: &Columns) -> (Registration, Option<Zone>) {
        let fq = Fqdn::from_domain(&p.name);
        let row = &p.row;
        let target = columns
            .targets
            .id_at(row.meta.target_rank as usize)
            .expect("rolled ranks are targets");
        let registration = columns
            .ctypo_registration(
                fq.clone(),
                columns.targets.name(target),
                row.class,
                widen_owner(row.owner),
                &row.meta.draw,
            )
            .expect("rolled classes register");
        (
            registration,
            ctypo_zone(&fq, &row.meta.draw, &columns.mx_hosts),
        )
    }

    /// Commits the filler sites (the targets themselves) in rank order,
    /// then each name-server provider's background customers; the
    /// registry drops a name already taken.
    fn register_background(
        config: &PopulationConfig,
        registry: &Registry,
        targets: &[DomainName],
        ns_providers: &[Fqdn],
    ) {
        for (rank, t) in targets.iter().enumerate() {
            let mut rng = derive_rng(config.seed, stream::POPULATION_BACKGROUND, rank as u64);
            let fq = Fqdn::from_domain(t);
            let mut zone = Zone::hosted_mail(
                &fq,
                &fq.child("mx").expect("valid"),
                Some(ip_for(rank as u64, 1)),
                300,
            );
            zone.add(ResourceRecord::a(
                &format!("mx.{fq}"),
                300,
                ip_for(rank as u64, 2),
            ));
            let registration = Registration {
                domain: fq,
                registrar: "registrar-legit",
                whois: Arc::new(synth_whois(1_000_000 + rank, &mut rng)),
                privacy_proxy: None,
                nameservers: vec![ns_providers[rank % config.n_ns_providers.max(1)].clone()],
                created_day: 0,
            };
            registry.register(registration, Some(zone));
        }
        for (pi, ns) in ns_providers.iter().enumerate() {
            let benign_customers = if pi < config.n_cesspool_ns { 4 } else { 30 };
            for j in 0..benign_customers {
                let unit = (1u64 << 32) | (pi as u64 * 1000 + j as u64);
                let mut rng = derive_rng(config.seed, stream::POPULATION_BACKGROUND, unit);
                let name: Fqdn = format!("biz-{pi}-{j}.com").parse().expect("valid");
                let registration = Registration {
                    domain: name.clone(),
                    registrar: "registrar-legit",
                    whois: Arc::new(synth_whois(4_000_000 + pi * 1000 + j, &mut rng)),
                    privacy_proxy: None,
                    nameservers: vec![ns.clone()],
                    created_day: 0,
                };
                let zone = Zone::parked(&name, ip_for((pi * 1000 + j) as u64, 9), 300);
                registry.register(registration, Some(zone));
            }
        }
    }

    /// The materialize-and-commit build: a registry holding every
    /// filler, background and ctypo row of `config`'s world, committed in
    /// canonical order, and the number of gtypo winners its
    /// first-registration-wins rejected.
    fn committed_oracle(config: &PopulationConfig) -> (Registry, usize) {
        let targets = alexa::synthetic_targets(config.n_targets);
        let registry = Registry::new();
        let ns_providers = make_ns_providers(config);
        let registrants = make_registrants(config);
        let columns = Columns::new(
            config,
            &targets,
            &registrants,
            &ns_providers,
            &make_mx_providers(),
        );
        register_background(config, &registry, &targets, &ns_providers);
        let appetite: Vec<f64> = (0..config.n_registrants)
            .map(|i| 1.0 / ((i + 1) as f64).powf(0.7))
            .collect();
        let roll = GtypoRoll {
            config,
            appetite_total: appetite.iter().sum(),
            appetite: &appetite,
            registrants: &registrants,
        };
        let mut rejected = 0;
        for (rank0, target) in targets.iter().enumerate() {
            if target_registration_p(config, rank0) < 0.01 {
                break;
            }
            for p in roll.target(rank0, target) {
                let (registration, zone) = materialize_ctypo(&p, &columns);
                if !registry.register(registration, zone) {
                    rejected += 1;
                }
            }
        }
        (registry, rejected)
    }

    /// Asserts `view` equals `oracle` on every registered name and on
    /// the zone file.
    fn assert_rows_match(view: &RegistryView, oracle: &Registry, label: &str) {
        let zone_file = oracle.zone_file();
        assert!(view.zone_file() == zone_file, "{label}: zone files differ");
        for (name, _) in &zone_file {
            assert!(view.is_registered(name), "{label}: {name}");
            assert_eq!(
                view.registration(name),
                oracle.registration(name),
                "{label}: {name}"
            );
            assert_eq!(view.zone(name), oracle.zone(name), "{label}: {name}");
        }
    }

    /// Asserts a world's derived registry equals the committed oracle:
    /// every row, the zone file, lookups that miss, and mail resolution
    /// and routing of every ctypo and filler.
    fn assert_world_matches(w: &World, oracle: &Registry, label: &str) {
        assert_rows_match(&w.registry, oracle, label);
        let mut lost = None;
        typogen::for_each_dl1(&w.targets[0], |mut v| {
            let fq = Fqdn::from_domain(&v.candidate().domain);
            if lost.is_none() && !oracle.is_registered(&fq) {
                lost = Some(fq);
            }
        });
        let misses = lost
            .into_iter()
            .chain(w.targets.iter().map(|t| {
                Fqdn::from_domain(t)
                    .child("mx")
                    .expect("target names take an mx child")
            }))
            .chain(
                w.mx_providers
                    .iter()
                    .map(|p| p.child("mx1").expect("valid")),
            );
        let mut n_misses = 0;
        for name in misses {
            n_misses += 1;
            assert!(!oracle.is_registered(&name), "{label}: {name}");
            assert!(!w.registry.is_registered(&name), "{label}: {name}");
            assert_eq!(w.registry.registration(&name), None, "{label}: {name}");
        }
        assert_eq!(n_misses, 1 + w.targets.len() + w.mx_providers.len());
        let (derived, committed) = (w.resolver(), Resolver::new(oracle.clone()));
        let ctypos = w.ctypos.iter().map(|c| c.candidate.domain);
        for d in ctypos.chain(w.targets.iter().cloned()) {
            let fq = Fqdn::from_domain(&d);
            assert_eq!(
                derived.resolve_mail(&fq),
                committed.resolve_mail(&fq),
                "{label}: {fq}"
            );
            assert_eq!(
                derived.mail_route(&fq),
                committed.mail_route(&fq),
                "{label}: {fq}"
            );
            assert_eq!(
                derived.mx_domain(&fq),
                committed.mx_domain(&fq),
                "{label}: {fq}"
            );
        }
    }

    #[test]
    fn derived_view_matches_committed_oracle() {
        let configs = [
            PopulationConfig::tiny(7),
            PopulationConfig::tiny(11),
            PopulationConfig::tiny(20170401),
            PopulationConfig::at_scale(2_000, 5),
        ];
        for config in configs {
            let (oracle, rejected) = committed_oracle(&config);
            if config.n_targets == 2_000 {
                // `site1.com` is a typo of `site12.com`, among others: a
                // filler takes a name a winner rolled.
                assert!(rejected > 0, "no winner lost its name");
            }
            for threads in [1, 4] {
                ets_parallel::set_threads(threads);
                let fresh = World::build(config.clone());
                let label = format!("seed {} threads {threads}", config.seed);
                assert_world_matches(&fresh, &oracle, &format!("{label} fresh"));
                let reloaded = crate::snapshot::roundtrip_in_memory(&fresh).expect("roundtrip");
                assert_world_matches(&reloaded, &oracle, &format!("{label} reloaded"));
            }
        }
        ets_parallel::set_threads(0);
    }

    /// No synthetic target is named like a background customer, so this
    /// plants one: the filler, registered first, keeps the name, and the
    /// background row it shadows is listed nowhere.
    #[test]
    fn filler_shadows_its_background_namesake() {
        let config = PopulationConfig::tiny(7);
        let mut targets = alexa::synthetic_targets(config.n_targets);
        targets[30] = "biz-0-0.com".parse().expect("valid");
        let ns_providers = make_ns_providers(&config);
        let oracle = Registry::new();
        register_background(&config, &oracle, &targets, &ns_providers);
        let registrants = make_registrants(&config);
        let view = RegistryView(Arc::new(Columns::new(
            &config,
            &targets,
            &registrants,
            &ns_providers,
            &make_mx_providers(),
        )));
        assert_rows_match(&view, &oracle, "planted biz-0-0.com");
        let shadowed: Fqdn = "biz-0-0.com".parse().expect("valid");
        let row = view.registration(&shadowed).expect("the filler's");
        assert_eq!(
            row.whois.registrant_name.as_deref(),
            Some("Registrant 1000030")
        );
    }

    #[test]
    fn at_scale_matches_default_at_seed_scales() {
        // Scales at or below the paper-default 30k keep the default
        // registrant population, so existing seeds stay byte-identical.
        let base = PopulationConfig {
            seed: 7,
            ..Default::default()
        };
        let scaled = PopulationConfig::at_scale(base.n_targets, 7);
        assert_eq!(
            serde_json::to_string(&scaled).expect("serializable"),
            serde_json::to_string(&base).expect("serializable"),
        );
        let big = PopulationConfig::at_scale(1_000_000, 7);
        assert_eq!(big.n_targets, 1_000_000);
        assert!(big.n_registrants > base.n_registrants);
    }
}
