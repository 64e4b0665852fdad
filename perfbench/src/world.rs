//! `world`: the §5 substrate at a fixed scale. One operation is the
//! sequence `World::build` → `snapshot::save` → `snapshot::load` →
//! census, where the census is the four §5 analyses over the loaded
//! world. The write path (build and save) runs next to the read path
//! (load), so a gain in one that costs the other shows up in the whole.
//!
//! Checks: every loaded world's ctypo list equals a fresh build's, and
//! the census over the loaded world equals the census over the fresh one.

use crate::layers;
use crate::measure::{self, Fingerprint, Report, SETUP_REPEATS};
use ets_core::{ReverseDl1Index, TypoTable};
use ets_dns::Fqdn;
use ets_ecosystem::mxconc::MxConcentration;
use ets_ecosystem::nameserver::NsAnalysis;
use ets_ecosystem::population::{PopulationConfig, World};
use ets_ecosystem::scan::{scan_world, SupportCensus};
use ets_ecosystem::snapshot;
use ets_ecosystem::whois_cluster::{self, Cluster, WhoisRow};
use std::collections::HashSet;
use std::hash::{Hash, Hasher};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Popularity targets in the benchmark world.
pub const TARGETS: usize = 5_000;

fn config(seed: u64) -> PopulationConfig {
    PopulationConfig::at_scale(TARGETS, seed)
}

fn snapshot_path(seed: u64) -> PathBuf {
    measure::out_dir().join(format!("world-{seed}.snap"))
}

/// Deletes the snapshot the run wrote; one left behind is harmless,
/// since every run overwrites it.
fn remove(path: &Path) {
    if let Err(e) = std::fs::remove_file(path) {
        eprintln!("perfbench: cannot remove {}: {e}", path.display());
    }
}

/// The write path: a fresh build, saved. A failed save is reported as
/// the operation's failure, not a crash.
fn build_and_save(config: &PopulationConfig, path: &Path) -> (World, bool) {
    let world = World::build(config.clone());
    let saved = snapshot::save(&world, path);
    if let Err(e) = &saved {
        eprintln!("perfbench: snapshot save failed: {e}");
    }
    (world, saved.is_ok())
}

fn load(config: &PopulationConfig, path: &Path) -> Option<World> {
    snapshot::load(path, config)
        .map_err(|e| eprintln!("perfbench: snapshot load failed: {e}"))
        .ok()
}

/// Fingerprint of a world's ctypo list: every field of every ctypo, in
/// order.
fn ctypo_fingerprint(world: &World) -> u64 {
    let mut f = Fingerprint::new();
    for c in &world.ctypos {
        let t = &c.candidate;
        (
            &t.domain,
            &t.target,
            t.kind,
            t.position,
            t.fat_finger,
            t.visual.to_bits(),
        )
            .hash(&mut f);
        (c.owner, c.class, c.private, c.smtp as u8, c.has_zone).hash(&mut f);
    }
    f.finish()
}

/// The census inputs every analysis reads: one FQDN per ctypo.
fn ctypo_fqdns(world: &World) -> Vec<Fqdn> {
    world
        .ctypos
        .iter()
        .map(|c| Fqdn::from_domain(&c.candidate.domain))
        .collect()
}

fn mx_concentration(world: &World, domains: &[Fqdn]) -> MxConcentration {
    MxConcentration::measure(&world.resolver(), domains.iter())
}

fn whois_clusters(world: &World, domains: &[Fqdn]) -> Vec<Cluster> {
    let rows: Vec<WhoisRow> = domains
        .iter()
        .filter_map(|fq| {
            let reg = world.registry.registration(fq)?;
            Some(WhoisRow {
                domain: fq.clone(),
                whois: reg.public_whois(),
                private: reg.is_private(),
            })
        })
        .collect();
    whois_cluster::cluster_registrants(&rows)
}

fn nameservers(world: &World, domains: &[Fqdn]) -> (NsAnalysis, usize) {
    let zone_file = world.registry.zone_file();
    let ctypos: HashSet<Fqdn> = domains.iter().cloned().collect();
    let ns = NsAnalysis::run_with_background(&zone_file, &ctypos, &world.ns_customer_base, 10);
    (ns, zone_file.len())
}

/// The outputs of the four §5 analyses.
type Census = (SupportCensus, MxConcentration, Vec<Cluster>, NsAnalysis);

/// The four §5 analyses, as `repro`'s table4 and fig8 run them.
fn census(world: &World) -> Census {
    let domains = ctypo_fqdns(world);
    let support = scan_world(world);
    let mx = mx_concentration(world, &domains);
    let clusters = whois_clusters(world, &domains);
    let (ns, _) = nameservers(world, &domains);
    (support, mx, clusters, ns)
}

/// The phase times of one operation, seconds, and what it produced.
struct Pass {
    build_s: f64,
    load_s: f64,
    census_s: f64,
    /// The loaded world and the census over it; `None` when the save
    /// or the load failed.
    out: Option<(World, Census)>,
}

/// One operation: a cold `repro --snapshot` (build, save), then a warm
/// one (load) and the census over the loaded world. The built world is
/// dropped before the load, as it is when the two runs are separate.
fn sequence(config: &PopulationConfig, path: &Path) -> Pass {
    let ((world, saved), build_s) = measure::timed(|| build_and_save(config, path));
    drop(world);
    let (loaded, load_s) = measure::timed(|| saved.then(|| load(config, path)).flatten());
    let (out, census_s) = measure::timed(|| {
        loaded.map(|w| {
            let c = census(&w);
            (w, c)
        })
    });
    Pass {
        build_s,
        load_s,
        census_s,
        out,
    }
}

/// Fingerprints of a loaded world's ctypo list and of its census.
fn pass_prints(out: &(World, Census)) -> (u64, u64) {
    (ctypo_fingerprint(&out.0), Fingerprint::of_debug(&out.1))
}

pub fn run(seed: u64, budget: Duration) -> Report {
    let mut report = Report::new();
    let config = config(seed);
    let path = snapshot_path(seed);
    let rss = measure::first_peak_rss(|| sequence(&config, &path));
    // The set-up is one warm-up operation, so the allocator and caches
    // settle before timing, as in `study`.
    let ((), setup_s) = measure::repeat_setup(SETUP_REPEATS, || {
        drop(sequence(&config, &path));
        measure::trim_heap();
    });
    report.set(
        "setup_s",
        setup_s,
        format!(
            "PopulationConfig + warm-up build, save, load and census, median of {SETUP_REPEATS}"
        ),
    );

    let mut prints = Vec::new();
    let mut phases = [Vec::new(), Vec::new(), Vec::new()];
    let mut ctypos = 0u64;
    let secs = measure::repeat_for(
        budget,
        || sequence(&config, &path),
        |pass| {
            for (v, s) in phases
                .iter_mut()
                .zip([pass.build_s, pass.load_s, pass.census_s])
            {
                v.push(s);
            }
            if let Some(out) = &pass.out {
                ctypos = out.0.ctypos.len() as u64;
            }
            prints.push(pass.out.as_ref().map(pass_prints));
            // A process loads its snapshot into a fresh heap: each
            // operation starts from a trimmed one.
            drop(pass);
            measure::trim_heap();
        },
    );
    measure::set_batch_metrics(
        &mut report,
        &secs,
        rss,
        ctypos,
        "ctypos",
        "build+save+load+census",
    );
    for (name, v) in ["build_s", "load_s", "census_s"].iter().zip(&phases) {
        report.alias(
            name,
            measure::median(v),
            "s",
            "median phase of the operation",
        );
    }
    report.note(format!(
        "World::build + snapshot::save, snapshot::load, then scan_world + MxConcentration + \
         WHOIS clustering + NsAnalysis; {TARGETS} targets, {ctypos} ctypos"
    ));

    let fresh = World::build(config);
    let reference = Some((
        ctypo_fingerprint(&fresh),
        Fingerprint::of_debug(&census(&fresh)),
    ));
    let failed = prints.iter().filter(|p| **p != reference).count();
    report.check(prints.len() as u64, failed as u64);
    report.note("checked: each loaded world's ctypo list and census equal a fresh build's");
    remove(&path);
    report
}

/// Targets whose gtypo band `World::build` actually draws: registration
/// probability decays with rank and the build skips every target past
/// the first one below 1%. Mirrors the config fields the build reads.
fn active_targets(config: &PopulationConfig) -> usize {
    (0..config.n_targets)
        .find(|&rank0| {
            config.base_registration_rate / ((rank0 + 1) as f64).powf(config.rank_decay) < 0.01
        })
        .unwrap_or(config.n_targets)
}

/// The traced run: the operation at the benchmark's thread count with
/// tracing off, then the world's layers called one after another at one
/// thread (the baseline behind `parallel.speedup`), then the operation
/// again with tracing on. `typogen`, `revindex` and `store.open` re-run
/// parts of `World::build` and `snapshot::load` outside the sequence, to
/// attribute them.
pub fn traced(seed: u64) -> Report {
    let mut report = Report::new();
    let config = config(seed);
    let path = snapshot_path(seed);
    let threads = ets_parallel::threads();
    let counter = ets_obs::metrics::counter_value;
    let op = || {
        let secs = measure::timed(|| sequence(&config, &path)).1;
        measure::trim_heap();
        secs
    };
    let untraced: Vec<f64> = (0..SETUP_REPEATS).map(|_| op()).collect();

    layers::start();
    ets_parallel::set_threads(1);
    let root = layers::span("world");
    let (pending0, ctypos0) = (counter("world.ctypo_pending"), counter("world.ctypos"));
    let fresh = layers::call("world.build", || World::build(config.clone()));
    let pending = counter("world.ctypo_pending") - pending0;
    let built = counter("world.ctypos") - ctypos0;
    let saved = layers::call("snapshot.save", || snapshot::save(&fresh, &path).is_ok());
    let loaded = layers::call("snapshot.load", || load(&config, &path))
        .expect("the snapshot just written loads");
    let census_root = layers::span("census");
    let domains = layers::call("census.inputs", || ctypo_fqdns(&loaded));
    let support = layers::call("scan", || scan_world(&loaded));
    let mx = layers::call("mxconc", || mx_concentration(&loaded, &domains));
    let clusters = layers::call("whois", || whois_clusters(&loaded, &domains));
    let (ns, zone_rows) = layers::call("nameserver", || nameservers(&loaded, &domains));
    drop(census_root);
    drop(root);
    let active = active_targets(&config);
    let candidates: usize = layers::call("typogen", || {
        fresh.targets[..active]
            .iter()
            .map(|t| TypoTable::generate(t).len())
            .sum()
    });
    let index = layers::call("revindex", || ReverseDl1Index::build(&fresh.targets));
    let opened = layers::call("store.open", || ets_store::Snapshot::open(&path).is_ok());
    ets_parallel::set_threads(threads);
    let traced: Vec<f64> = (0..SETUP_REPEATS)
        .map(|_| {
            let _span = layers::span("e2e.op");
            op()
        })
        .collect();
    let (layer, trace_path) = layers::finish("world", seed);

    let build_s = layer.total("world.build");
    let load_s = layer.total("snapshot.load");
    let seq_s = layer.total("world");
    let residual = layer.self_time("world") + layer.self_time("census");
    let n = loaded.ctypos.len() as f64;
    report.set(
        "typogen.s",
        layer.total("typogen"),
        "Σ TypoTable::generate over the build's active targets",
    );
    report.set("typogen.targets", active as f64, "active targets");
    report.set("typogen.candidates", candidates as f64, "Σ TypoTable::len");
    report.set(
        "revindex.build_s",
        layer.total("revindex"),
        "ReverseDl1Index::build over the targets",
    );
    report.set(
        "revindex.entries",
        index.len() as f64,
        "ReverseDl1Index::len",
    );
    report.set("world.build_s", build_s, "World::build at 1 thread");
    report.set(
        "world.ctypo_pending",
        pending as f64,
        "world.ctypo_pending counter: registrations rolled",
    );
    report.set(
        "world.ctypos",
        built as f64,
        "world.ctypos counter: registrations committed",
    );
    report.set(
        "world.commit_ratio",
        built as f64 / pending.max(1) as f64,
        "world.ctypos / world.ctypo_pending",
    );
    report.set(
        "world.residual_s",
        residual,
        "residual: sequential wall the build, save, load and the census layers do not explain",
    );
    let bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
    report.set(
        "snapshot.save_s",
        layer.total("snapshot.save"),
        "snapshot::save",
    );
    report.set("snapshot.bytes", bytes as f64, "snapshot file size");
    report.set(
        "store.open_s",
        layer.total("store.open"),
        "ets_store::Snapshot::open: read + checksums",
    );
    report.set("snapshot.load_s", load_s, "snapshot::load at 1 thread");
    report.set(
        "snapshot.rebuild_s",
        load_s - layer.total("store.open"),
        "snapshot.load_s - store.open_s",
    );
    report.set(
        "snapshot.load_us_per_ctypo",
        load_s * 1e6 / n,
        format!("snapshot.load_s per ctypo, {n} ctypos"),
    );
    report.set("scan.census_s", layer.total("scan"), "scan_world");
    report.set("scan.domains", support.total() as f64, "domains classified");
    report.set(
        "mxconc.s",
        layer.total("mxconc"),
        "MxConcentration::measure with its resolver",
    );
    report.set(
        "mxconc.providers",
        mx.providers.len() as f64,
        "mail providers seen",
    );
    report.set(
        "whois.cluster_s",
        layer.total("whois"),
        "WHOIS rows + cluster_registrants",
    );
    report.set(
        "whois.clusters",
        clusters.len() as f64,
        "registrant clusters",
    );
    report.set(
        "nameserver.s",
        layer.total("nameserver"),
        "zone file + NsAnalysis::run_with_background",
    );
    report.set("nameserver.zone_rows", zone_rows as f64, "zone-file rows");
    let e2e_s = measure::median(&untraced);
    report.set(
        "parallel.seq_s",
        seq_s,
        "build, save, load and census layer by layer at 1 thread",
    );
    report.set(
        "parallel.e2e_s",
        e2e_s,
        format!(
            "median operation at {threads} threads, tracing off, n={}",
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
            "median traced operation (n={}) minus parallel.e2e_s",
            traced.len()
        ),
    );
    report.note(format!("trace written to {trace_path}"));

    let loaded_ok = ctypo_fingerprint(&loaded) == ctypo_fingerprint(&fresh);
    let census_ok = Fingerprint::of_debug(&(support, mx, clusters, ns))
        == Fingerprint::of_debug(&census(&fresh));
    let ok = [saved, opened, loaded_ok, census_ok];
    report.check(ok.len() as u64, ok.iter().filter(|x| !**x).count() as u64);
    report.note(
        "checked: save, open, the loaded ctypo list and its census against the fresh world's",
    );
    remove(&path);
    report
}
