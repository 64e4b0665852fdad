//! Renders the `bench_serve.json` report that `ets-loadgen --out` writes.
//!
//! The report is pure serialization: every number comes from the
//! [`crate::runner::PhaseResult`]s, keys are sorted (the vendored
//! `serde_json` object is a `BTreeMap`), and outcome/scenario tables are
//! emitted in fixed Table 5 / mix order — so the same run data always
//! produces the same bytes, which is what lets the bench ratchet diff
//! reports across commits.

use crate::runner::PhaseResult;
use crate::scenario::Scenario;
use crate::stats::{PhaseStats, StopRules};
use ets_smtp::fault::DeliveryOutcome;
use serde_json::{json, Value};

/// Stable snake_case key for a Table 5 outcome.
pub fn outcome_key(o: DeliveryOutcome) -> &'static str {
    match o {
        DeliveryOutcome::NoError => "no_error",
        DeliveryOutcome::Bounce => "bounce",
        DeliveryOutcome::Timeout => "timeout",
        DeliveryOutcome::NetworkError => "network_error",
        DeliveryOutcome::OtherError => "other_error",
    }
}

fn taxonomy_value(counts: &[u64; 5]) -> Value {
    object_from_pairs(
        DeliveryOutcome::ALL
            .iter()
            .enumerate()
            .map(|(i, o)| (outcome_key(*o).to_owned(), json!(counts[i])))
            .collect(),
    )
}

fn object_from_pairs(pairs: Vec<(String, Value)>) -> Value {
    let mut v = json!({});
    if let Value::Object(map) = &mut v {
        for (k, val) in pairs {
            map.insert(k, val);
        }
    }
    v
}

/// The latency block for one phase, in milliseconds.
fn latency_value(stats: &PhaseStats) -> Value {
    json!({
        "p50_ms": stats.quantile_ms(0.50),
        "p90_ms": stats.quantile_ms(0.90),
        "p99_ms": stats.quantile_ms(0.99),
        "p999_ms": stats.quantile_ms(0.999),
        "mean_ms": stats.latency.mean() as f64 / 1_000.0,
        "max_ms": stats.latency.max() as f64 / 1_000.0,
    })
}

/// One phase as a JSON object, including its stop-rule verdict.
pub fn phase_value(r: &PhaseResult, rules: &StopRules) -> Value {
    let violations = rules.violations(&r.stats);
    let per_scenario = object_from_pairs(
        Scenario::ALL
            .iter()
            .enumerate()
            .map(|(i, s)| (s.name().to_owned(), json!(r.stats.per_scenario[i])))
            .collect(),
    );
    json!({
        "phase": r.phase,
        "connections": r.connections,
        "requests_per_conn": r.requests_per_conn,
        "requests": r.stats.requests,
        "elapsed_secs": r.elapsed_secs,
        "target_rps": r.target_rps,
        "achieved_rps": r.achieved_rps,
        "delivered": r.delivered,
        "lost_workers": r.lost_workers,
        "latency": latency_value(&r.stats),
        "taxonomy": {
            "observed": taxonomy_value(&r.stats.observed),
            "expected": taxonomy_value(&r.stats.expected),
            "mismatches": r.stats.mismatches,
            "failure_rate": r.stats.failure_rate(),
        },
        "per_scenario": per_scenario,
        "stop_rules": {
            "pass": violations.is_empty(),
            "violations": violations,
        },
    })
}

/// The full `bench_serve.json` document, `phases` ordered as run.
pub fn render(mix_name: &str, seed: u64, phases: &[PhaseResult], rules: &StopRules) -> Value {
    let phase_values: Vec<Value> = phases.iter().map(|r| phase_value(r, rules)).collect();
    json!({
        "schema": "ets.bench_serve.v1",
        "mix": mix_name,
        "seed": seed,
        "stop_rules": {
            "max_failure_rate": rules.max_failure_rate,
            "max_p50_ms": rules.max_p50_ms,
            "max_p99_ms": rules.max_p99_ms,
        },
        "phases": phase_values,
    })
}

/// Pretty-prints with a trailing newline — the workspace result-file
/// convention.
pub fn to_pretty_string(value: &Value) -> String {
    match serde_json::to_string_pretty(value) {
        Ok(s) => s + "\n",
        Err(_) => String::from("{}\n"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;
    use ets_smtp::fault::DeliveryOutcome;

    fn fake_result(phase: &str, base_latency: u64, delivered: Option<u64>) -> PhaseResult {
        let mut stats = PhaseStats::new();
        for i in 0..100u64 {
            let s = Scenario::ALL[(i % 8) as usize];
            stats.record(s, s.expected_outcome(), base_latency + i * 10);
        }
        PhaseResult {
            phase: phase.to_owned(),
            stats,
            delivered,
            elapsed_secs: 2.0,
            achieved_rps: 50.0,
            target_rps: 0.0,
            connections: 8,
            requests_per_conn: 13,
            lost_workers: 0,
        }
    }

    #[test]
    fn report_is_deterministic_and_covers_taxonomy() {
        let phases = vec![
            fake_result("pool", 1_000, Some(50)),
            fake_result("target", 9_000, None),
        ];
        let rules = StopRules::default();
        let a = to_pretty_string(&render("paper", 42, &phases, &rules));
        let b = to_pretty_string(&render("paper", 42, &phases, &rules));
        assert_eq!(a, b);
        // A target phase's owner channel is out of reach: `null`.
        let target = phase_value(&phases[1], &rules);
        assert_eq!(target.get("delivered"), Some(&Value::Null));
        for o in DeliveryOutcome::ALL {
            assert!(a.contains(outcome_key(o)), "missing {o:?} row");
        }
        for s in Scenario::ALL {
            assert!(a.contains(s.name()), "missing scenario {s:?}");
        }
        assert!(a.ends_with('\n'));
    }

    #[test]
    fn stop_rule_violations_surface_in_the_phase_block() {
        let phases = [fake_result("pool", 500, Some(50))];
        let strict = StopRules {
            max_failure_rate: 0.0,
            max_p50_ms: 0.001,
            max_p99_ms: 0.001,
        };
        let v = phase_value(&phases[0], &strict);
        let pass = v.get("stop_rules").and_then(|s| s.get("pass"));
        assert_eq!(pass, Some(&json!(false)));
    }
}
