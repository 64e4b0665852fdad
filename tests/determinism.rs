//! Seed-stable determinism of the parallel pipeline stages.
//!
//! The execution layer's contract is that `--threads 1` and `--threads N`
//! produce byte-identical output: every parallel unit draws from its own
//! derived RNG stream and results reassemble in canonical order, so
//! nothing can depend on scheduling. These tests run each pipeline stage
//! sequentially and with several worker counts and compare serialized
//! output verbatim.

use ets_collector::funnel::Funnel;
use ets_collector::infra::CollectionInfra;
use ets_collector::traffic::{TrafficConfig, TrafficGenerator};
use ets_core::TypoTable;
use ets_dns::Fqdn;
use ets_ecosystem::population::{PopulationConfig, World};
use ets_ecosystem::whois_cluster::{self, WhoisRow};
use std::sync::Mutex;

/// `set_threads` is process-global; tests must not interleave.
static LOCK: Mutex<()> = Mutex::new(());

/// Runs `f` once per worker count and asserts all outputs are equal.
fn assert_thread_invariant<T: PartialEq + std::fmt::Debug>(label: &str, mut f: impl FnMut() -> T) {
    ets_parallel::set_threads(1);
    let sequential = f();
    for threads in [2, 3, 8] {
        ets_parallel::set_threads(threads);
        let parallel = f();
        assert!(
            parallel == sequential,
            "{label}: output with {threads} threads differs from sequential"
        );
    }
    ets_parallel::set_threads(0);
}

fn world_fingerprint(w: &World) -> String {
    // CtypoInfo and Registrant serialize; the registry is exercised via
    // the registration records of every ctypo.
    let mut regs = String::new();
    for c in &w.ctypos {
        let fq = Fqdn::from_domain(&c.candidate.domain);
        let r = w.registry.registration(&fq).expect("ctypo registered");
        regs.push_str(&format!("{r:?}\n"));
    }
    format!(
        "{}\n{}\n{:?}\n{regs}",
        serde_json::to_string(&w.ctypos).expect("serializable"),
        serde_json::to_string(&w.registrants).expect("serializable"),
        w.ns_customer_base,
    )
}

/// The build's roll counters over one `World::build`: candidates
/// enumerated, visual DPs run, registrations rolled. Every test here
/// holds `LOCK`, so no other build moves them meanwhile.
fn roll_counts(f: impl FnOnce() -> World) -> (World, [u64; 3]) {
    let names = ["world.gtypos", "world.gtypos_scored", "world.ctypo_pending"];
    let before = names.map(ets_obs::metrics::counter_value);
    let world = f();
    let after = names.map(ets_obs::metrics::counter_value);
    (world, [0, 1, 2].map(|i| after[i] - before[i]))
}

#[test]
fn world_build_is_thread_invariant() {
    let _guard = LOCK.lock().unwrap();
    let config = PopulationConfig::tiny(42);
    assert_thread_invariant("World::build", || {
        let (world, counts) = roll_counts(|| World::build(config.clone()));
        (world_fingerprint(&world), counts)
    });
    // Roll first, score later: only candidates that pass the visual-free
    // bound run the visual DP, and only those can register.
    let (world, [gtypos, scored, pending]) = roll_counts(|| World::build(config));
    assert!(
        pending <= scored && scored < gtypos,
        "{pending} {scored} {gtypos}"
    );
    assert!(pending >= world.ctypos.len() as u64);
    // Every target of the tiny world is active, so the build enumerates
    // exactly the eager generator's candidates.
    let eager: usize = world
        .targets
        .iter()
        .map(|t| TypoTable::generate(t).len())
        .sum();
    assert_eq!(gtypos, eager as u64);
}

#[test]
fn traffic_generation_is_thread_invariant() {
    let _guard = LOCK.lock().unwrap();
    let infra = CollectionInfra::build();
    assert_thread_invariant("TrafficGenerator::generate", || {
        let gen = TrafficGenerator::new(&infra, TrafficConfig::test_scale(42));
        gen.generate()
            .iter()
            .map(|e| format!("{:?}|{:?}|{:?}\n", e.collected, e.truth, e.sensitive))
            .collect::<String>()
    });
}

#[test]
fn funnel_classification_is_thread_invariant() {
    let _guard = LOCK.lock().unwrap();
    let infra = CollectionInfra::build();
    ets_parallel::set_threads(0);
    let collected: Vec<_> = TrafficGenerator::new(&infra, TrafficConfig::test_scale(43))
        .generate()
        .into_iter()
        .map(|e| e.collected)
        .collect();
    let funnel = Funnel::new(&infra);
    assert_thread_invariant("Funnel::classify_all", || funnel.classify_all(&collected));
}

#[test]
fn whois_clustering_is_thread_invariant() {
    let _guard = LOCK.lock().unwrap();
    ets_parallel::set_threads(0);
    let world = World::build(PopulationConfig::tiny(44));
    let rows: Vec<WhoisRow> = world
        .ctypos
        .iter()
        .map(|c| {
            let fq = Fqdn::from_domain(&c.candidate.domain);
            let reg = world.registry.registration(&fq).expect("registered");
            WhoisRow {
                domain: fq,
                whois: reg.public_whois(),
                private: reg.is_private(),
            }
        })
        .collect();
    assert_thread_invariant("cluster_registrants", || {
        whois_cluster::cluster_registrants(&rows)
    });
}
