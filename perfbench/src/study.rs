//! `study`: the §4 collection. Traffic generation, feature extraction
//! and scan, and `ets-parallel` streaming under load, with neither the
//! world nor sockets involved.
//!
//! One operation is a whole study period: `stream_collect` over every
//! simulated day, then `StreamFunnel::finish`. Its verdicts are checked
//! against the batch oracle, `Funnel::classify_all` over `generate()`,
//! outside the timed region.

use crate::layers;
use crate::measure::{self, Report, SETUP_REPEATS};
use ets_collector::funnel::{Funnel, FunnelVerdict};
use ets_collector::infra::{CollectedEmail, CollectionInfra};
use ets_collector::stream::{stream_collect, StreamFunnel};
use ets_collector::time::STUDY_DAYS;
use ets_collector::traffic::{GenEmail, TrafficConfig, TrafficGenerator};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Spam generated per paper email: large enough that one study period
/// streams ~0.4M emails, so fan-out has work to amortize.
pub const SPAM_SCALE: f64 = 1.0 / 300.0;

/// The default traffic configuration with the benchmark's spam scale.
pub fn traffic_config(seed: u64) -> TrafficConfig {
    TrafficConfig {
        seed,
        spam_scale: SPAM_SCALE,
        ..TrafficConfig::default()
    }
}

/// One study period through the streaming pipeline: the verdicts and
/// the number of emails the sink received.
fn collect_once(gen: &TrafficGenerator<'_>, funnel: &Funnel<'_>) -> (Vec<FunnelVerdict>, u64) {
    let mut emails = 0u64;
    let mut sink = |email: GenEmail| {
        black_box(&email);
        emails += 1;
    };
    let state = stream_collect(gen, funnel, &mut sink);
    (state.finish(), emails)
}

/// One set-up: the infrastructure, generator and funnel, and one
/// warm-up pass that lets the allocator and caches settle before
/// timing. The generator and funnel borrow the infrastructure, so the
/// caller makes the ones it keeps again; they cost microseconds.
fn setup_once(seed: u64) -> CollectionInfra {
    let infra = CollectionInfra::build();
    let gen = TrafficGenerator::new(&infra, traffic_config(seed));
    black_box(collect_once(&gen, &Funnel::new(&infra)));
    infra
}

/// The set-up, [`SETUP_REPEATS`] times: the last infrastructure and the
/// median set-up time.
fn setup(seed: u64) -> (CollectionInfra, f64) {
    measure::repeat_setup(SETUP_REPEATS, || setup_once(seed))
}

/// Compares each pass's verdicts with the reference: one attempted
/// check per email, one failure per differing or missing verdict.
fn check(report: &mut Report, reference: &[FunnelVerdict], passes: &[Vec<FunnelVerdict>]) {
    for verdicts in passes {
        let differing = verdicts
            .iter()
            .zip(reference)
            .filter(|(a, b)| a != b)
            .count();
        let missing = verdicts.len().abs_diff(reference.len());
        report.check(reference.len() as u64, (differing + missing) as u64);
    }
}

pub fn run(seed: u64, budget: Duration) -> Report {
    let mut report = Report::new();
    let rss = measure::first_peak_rss(|| setup_once(seed));
    let (infra, setup_s) = setup(seed);
    let gen = TrafficGenerator::new(&infra, traffic_config(seed));
    let funnel = Funnel::new(&infra);
    let threads = ets_parallel::threads();
    report.set(
        "setup_s",
        setup_s,
        format!(
            "CollectionInfra + TrafficGenerator + Funnel + warm-up pass, median of {SETUP_REPEATS}"
        ),
    );

    let mut passes = Vec::new();
    let mut emails = 0u64;
    let secs = measure::repeat_for(
        budget,
        || collect_once(&gen, &funnel),
        |(verdicts, n)| {
            passes.push(verdicts);
            emails = n;
        },
    );
    measure::set_batch_metrics(&mut report, &secs, rss, emails, "emails", "study pass");
    report.alias(
        "emails_per_s",
        emails as f64 / measure::median(&secs),
        "1/s",
        "items_per_s",
    );
    report.note(format!(
        "spam scale 1/{:.0}; passes at {threads} threads, peak_rss_mb of the set-up and one pass at 1 thread",
        1.0 / SPAM_SCALE
    ));

    let collected: Vec<CollectedEmail> = gen.generate().into_iter().map(|e| e.collected).collect();
    check(&mut report, &funnel.classify_all(&collected), &passes);
    report.note("checked: every pass's verdicts equal Funnel::classify_all over generate()");
    report
}

/// The traced run: the end-to-end pass at the benchmark's thread count
/// with tracing off, the layers called one after another at one thread
/// (the baseline behind `parallel.speedup`), then the end-to-end pass
/// again with tracing on.
pub fn traced(seed: u64, budget: Duration) -> Report {
    let mut report = Report::new();
    let (infra, _) = setup(seed);
    let gen = TrafficGenerator::new(&infra, traffic_config(seed));
    let funnel = Funnel::new(&infra);
    let threads = ets_parallel::threads();
    let mut passes = Vec::new();
    let untraced = measure::repeat_for(
        budget / 3,
        || collect_once(&gen, &funnel),
        |(v, _)| passes.push(v),
    );

    layers::start();
    ets_parallel::set_threads(1);
    let seq_start = Instant::now();
    let (mut emails, mut bytes, mut scan_bytes) = (0u64, 0u64, 0u64);
    let root = layers::span("study");
    let traffic = layers::call("traffic.setup", || gen.setup());
    let mut state = StreamFunnel::new(&funnel);
    for day in 0..STUDY_DAYS as usize {
        let batch = layers::call("traffic.day", || gen.day(&traffic, day));
        emails += batch.len() as u64;
        bytes += batch
            .iter()
            .map(|e| e.collected.approx_heap_bytes())
            .sum::<u64>();
        let feats = layers::call("funnel.features", || {
            funnel.feature_batch(batch.iter().map(|e| &e.collected))
        });
        scan_bytes += feats.feats.iter().map(|f| f.body_bytes).sum::<u64>();
        layers::call("funnel.absorb", || state.absorb(feats));
    }
    let sequential = layers::call("funnel.finish", || state.finish());
    drop(root);
    let seq_s = seq_start.elapsed().as_secs_f64();
    ets_parallel::set_threads(threads);

    let traced = measure::repeat_for(
        budget / 3,
        || {
            let _span = layers::span("e2e.pass");
            collect_once(&gen, &funnel)
        },
        |(v, _)| passes.push(v),
    );
    let (layer, path) = layers::finish("study", seed);

    let e2e_s = measure::median(&untraced);
    report.set(
        "traffic.setup_s",
        layer.self_time("traffic.setup"),
        "TrafficGenerator::setup",
    );
    report.set(
        "traffic.day_s",
        layer.self_time("traffic.day"),
        "Σ TrafficGenerator::day",
    );
    report.set("traffic.days", f64::from(STUDY_DAYS), "simulated days");
    report.set("traffic.emails", emails as f64, "emails generated");
    report.set(
        "traffic.bytes",
        bytes as f64,
        "Σ CollectedEmail::approx_heap_bytes",
    );
    report.set(
        "funnel.features_s",
        layer.self_time("funnel.features"),
        "Σ Funnel::feature_batch, ets-scan included",
    );
    report.set(
        "funnel.scan_bytes",
        scan_bytes as f64,
        "Σ body bytes the scan layers covered",
    );
    report.set(
        "funnel.absorb_s",
        layer.self_time("funnel.absorb"),
        "Σ StreamFunnel::absorb",
    );
    report.set(
        "funnel.finish_s",
        layer.self_time("funnel.finish"),
        "StreamFunnel::finish, layers 3-5",
    );
    let true_typos = sequential.iter().filter(|v| v.is_true_typo()).count();
    report.set(
        "funnel.true_typos",
        true_typos as f64,
        "verdicts that pass every layer",
    );
    report.set(
        "study.residual_s",
        layer.self_time("study"),
        "residual: sequential wall the layers above do not explain",
    );
    report.set(
        "parallel.seq_s",
        seq_s,
        "layer-by-layer study pass at 1 thread",
    );
    report.set(
        "parallel.e2e_s",
        e2e_s,
        format!(
            "median end-to-end pass at {threads} threads, tracing off, n={}",
            untraced.len()
        ),
    );
    report.set(
        "parallel.speedup",
        seq_s / e2e_s,
        "parallel.seq_s / parallel.e2e_s",
    );
    report.set(
        "trace.overhead_s",
        measure::median(&traced) - e2e_s,
        format!(
            "median traced pass (n={}) minus parallel.e2e_s",
            traced.len()
        ),
    );
    report.note(format!("trace written to {path}"));

    check(&mut report, &sequential, &passes);
    report.note("checked: every end-to-end pass equals the sequential layer-by-layer verdicts");
    report
}
