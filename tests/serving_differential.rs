//! Serving differential suite: the load harness must never leak
//! nondeterminism into the analytical plane.
//!
//! `ets-loadgen` shares a process with the analytical pipeline in two
//! ways: the `ets-obs` registries (latency plane, counters, gauges) and
//! the `ets-parallel` worker pool. This suite pins the two contracts the
//! serving benchmark depends on:
//!
//! * the scenario *plan* (which connection does what) is byte-identical
//!   at 1, 2, and 8 worker threads — scheduling can reorder execution
//!   but never the workload definition;
//! * analytical results rendered to JSON are byte-identical whether they
//!   are computed on a quiet process or while a telemetry-attached
//!   loadgen storm hammers an in-process SMTP server, again across
//!   thread counts — the CI gate for "deterministic `results/*.json`
//!   stay byte-identical with the load harness attached".
//!
//! Thread count is process-global, so tests serialize on one lock.

use ets_collector::funnel::Funnel;
use ets_collector::infra::{CollectedEmail, CollectionInfra};
use ets_collector::traffic::{TrafficConfig, TrafficGenerator};
use ets_loadgen::runner::{run_phase, RunConfig, ServerSpec};
use ets_loadgen::scenario::{plan, render_plan, ScenarioMix};
use serde_json::json;
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

/// Serializes tests that touch the global thread count or obs registries.
fn lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

/// One analytical "results file" rendered in memory: the funnel verdict
/// and sensitive-hit profile of a deterministic collected corpus, keyed
/// and serialized exactly like the `results/*.json` writers (sorted
/// JSON object, trailing newline).
fn analytical_results_json() -> String {
    let infra = CollectionInfra::build();
    let collected: Vec<CollectedEmail> =
        TrafficGenerator::new(&infra, TrafficConfig::test_scale(77))
            .generate()
            .into_iter()
            .map(|e| e.collected)
            .collect();
    let verdicts = Funnel::new(&infra).classify_all(&collected);
    let mut by_verdict = std::collections::BTreeMap::<String, u64>::new();
    for v in &verdicts {
        *by_verdict.entry(format!("{v:?}")).or_insert(0) += 1;
    }
    let pairs: Vec<serde_json::Value> = by_verdict
        .iter()
        .map(|(k, n)| json!({ "verdict": k, "count": n }))
        .collect();
    let doc = json!({
        "emails": collected.len(),
        "verdicts": pairs,
    });
    serde_json::to_string_pretty(&doc).expect("serializable") + "\n"
}

/// A small paper-mix storm against an in-process worker-pool server.
fn storm_cfg() -> (RunConfig, ServerSpec) {
    let mut spec = ServerSpec::default();
    spec.options.read_timeout = Duration::from_millis(60);
    let mut cfg = RunConfig::smoke(spec.options.read_timeout);
    cfg.connections = 4;
    cfg.requests_per_conn = 12;
    (cfg, spec)
}

#[test]
fn scenario_plan_is_byte_identical_across_thread_counts() {
    let _g = lock();
    let mix = ScenarioMix::paper();
    ets_parallel::set_threads(1);
    let baseline = render_plan(&plan(&mix, 42, 32, 8));
    for threads in [2usize, 8] {
        ets_parallel::set_threads(threads);
        let p = render_plan(&plan(&mix, 42, 32, 8));
        assert_eq!(p, baseline, "scenario plan diverged at {threads} threads");
    }
    ets_parallel::set_threads(0);
}

#[test]
fn load_and_telemetry_do_not_perturb_analytical_results() {
    let _g = lock();
    ets_parallel::set_threads(1);
    let quiet = analytical_results_json();

    // Attach the full serving telemetry plane for the duration.
    let telemetry = ets_obs::serve::serve("127.0.0.1:0").expect("telemetry binds");

    for threads in [1usize, 2, 8] {
        ets_parallel::set_threads(threads);
        let (cfg, spec) = storm_cfg();
        let phase = format!("diff_t{threads}");
        let storm = {
            let phase = phase.clone();
            std::thread::spawn(move || run_phase(&phase, &cfg, &spec))
        };
        // Render the analytical results *while* the storm runs.
        let under_load = analytical_results_json();
        let result = storm
            .join()
            .expect("storm thread lives")
            .expect("storm phase runs");
        assert_eq!(
            under_load, quiet,
            "analytical results diverged under load at {threads} threads"
        );
        assert_eq!(result.lost_workers, 0);
        assert_eq!(result.stats.requests, 48);
        // The storm really did flow through the shared latency plane.
        let recorded = ets_obs::latency::snapshots()
            .into_iter()
            .find(|(name, _)| name == &format!("loadgen.{phase}.request_us"))
            .map(|(_, h)| h.count());
        assert_eq!(recorded, Some(48), "latency plane missed the storm");
    }

    // And once more after the storms, on a quiet process again.
    ets_parallel::set_threads(1);
    assert_eq!(analytical_results_json(), quiet);
    drop(telemetry);
    ets_parallel::set_threads(0);
}

#[test]
fn repeated_storms_yield_identical_taxonomy() {
    let _g = lock();
    // Same seed + config ⇒ the observed outcome taxonomy is identical
    // run over run even though wall-clock latencies differ.
    let (cfg, spec) = storm_cfg();
    let a = run_phase("diff_repeat_a", &cfg, &spec).expect("phase a");
    let b = run_phase("diff_repeat_b", &cfg, &spec).expect("phase b");
    assert_eq!(a.stats.observed, b.stats.observed);
    assert_eq!(a.stats.expected, b.stats.expected);
    assert_eq!(a.stats.per_scenario, b.stats.per_scenario);
    assert_eq!(a.stats.mismatches, 0);
    assert_eq!(b.stats.mismatches, 0);
    assert_eq!(a.delivered, b.delivered);
}
