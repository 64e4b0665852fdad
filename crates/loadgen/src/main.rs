//! `ets-loadgen` — drive a workload at the SMTP serving path and, with
//! `--out PATH`, write its `bench_serve.json` report to `PATH`.
//!
//! ```text
//! ets-loadgen [--target ADDR] [--mix paper|delivery|faults]
//!             [--connections N] [--requests N] [--rps X] [--seed N]
//!             [--read-timeout-ms N] [--client-timeout-ms N]
//!             [--max-failure-rate F] [--max-p50-ms F] [--max-p99-ms F]
//!             [--out PATH] [--check]
//! ```
//!
//! * `--target ADDR` — drive an SMTP server that is already listening
//!   on `ADDR` (e.g. a standalone `ets-smtp`) instead of the default
//!   in-process worker pool. The report's phase is then `target` and
//!   its `delivered` is `null`: the owner channel lives in the other
//!   process. The server must accept mail for `gmial.com`.
//! * `--mix` — scenario mix: `paper` (delivery-dominated with a protocol
//!   fault tail covering every Table 5 row), `delivery`, or `faults`.
//! * `--connections` / `--requests` — concurrency slots × sessions each.
//! * `--rps` — open-loop target rate across all slots; `0` = closed loop.
//!   A negative or non-finite rate is a usage error.
//! * `--read-timeout-ms` — the server's read timeout: set on the
//!   in-process server, and with `--target` it must match the target's,
//!   since slowloris requests stall just past it.
//! * `--max-*` — stop rules; with `--check` any violation fails the run.
//! * `--out PATH` — write the JSON report there; without it the run
//!   prints its summary and writes no file.

#![forbid(unsafe_code)]

use ets_loadgen::report;
use ets_loadgen::runner::{drive, run_phase, RunConfig, ServerSpec};
use ets_loadgen::scenario::ScenarioMix;
use ets_loadgen::stats::StopRules;
use std::process::ExitCode;
use std::time::Duration;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut target: Option<String> = None;
    let mut mix = ScenarioMix::paper();
    let mut connections: usize = 64;
    let mut requests: usize = 16;
    let mut rps: f64 = 0.0;
    let mut seed: u64 = 42;
    let mut spec = ServerSpec::default();
    let mut client_timeout_ms: u64 = 5_000;
    let mut rules = StopRules::default();
    let mut out: Option<String> = None;
    let mut check = false;

    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--target" => match it.next() {
                Some(addr) => target = Some(addr.clone()),
                None => return usage("--target needs an address"),
            },
            "--mix" => match it.next().and_then(|v| ScenarioMix::by_name(v)) {
                Some(m) => mix = m,
                None => return usage("--mix needs paper|delivery|faults"),
            },
            "--connections" => match it.next().and_then(|s| s.parse().ok()) {
                Some(n) if n > 0 => connections = n,
                _ => return usage("--connections needs a positive integer"),
            },
            "--requests" => match it.next().and_then(|s| s.parse().ok()) {
                Some(n) if n > 0 => requests = n,
                _ => return usage("--requests needs a positive integer"),
            },
            "--rps" => match it.next().and_then(|s| s.parse::<f64>().ok()) {
                Some(x) if x.is_finite() && x.is_sign_positive() => rps = x,
                _ => return usage("--rps needs a finite number, 0 or more"),
            },
            "--seed" => match it.next().and_then(|s| s.parse().ok()) {
                Some(n) => seed = n,
                None => return usage("--seed needs an integer"),
            },
            "--read-timeout-ms" => match it.next().and_then(|s| s.parse().ok()) {
                Some(n) => spec.options.read_timeout = Duration::from_millis(n),
                None => return usage("--read-timeout-ms needs an integer"),
            },
            "--client-timeout-ms" => match it.next().and_then(|s| s.parse().ok()) {
                Some(n) => client_timeout_ms = n,
                None => return usage("--client-timeout-ms needs an integer"),
            },
            "--max-failure-rate" => match it.next().and_then(|s| s.parse().ok()) {
                Some(f) => rules.max_failure_rate = f,
                None => return usage("--max-failure-rate needs a number"),
            },
            "--max-p50-ms" => match it.next().and_then(|s| s.parse().ok()) {
                Some(f) => rules.max_p50_ms = f,
                None => return usage("--max-p50-ms needs a number"),
            },
            "--max-p99-ms" => match it.next().and_then(|s| s.parse().ok()) {
                Some(f) => rules.max_p99_ms = f,
                None => return usage("--max-p99-ms needs a number"),
            },
            "--out" => match it.next() {
                Some(p) => out = Some(p.clone()),
                None => return usage("--out needs a path"),
            },
            "--check" => check = true,
            other => return usage(&format!("unknown argument {other:?}")),
        }
    }

    let cfg = RunConfig {
        connections,
        requests_per_conn: requests,
        target_rps: rps,
        mix: mix.clone(),
        seed,
        client_timeout: Duration::from_millis(client_timeout_ms),
        stall: spec.options.read_timeout + Duration::from_millis(80),
        local_domain: spec.domain.clone(),
    };

    let phase = if target.is_some() { "target" } else { "pool" };
    eprintln!(
        "phase {phase}: {connections} connections x {requests} requests, mix {} (rps target {rps})",
        mix.name
    );
    let r = match &target {
        Some(addr) => drive(phase, &cfg, addr),
        None => match run_phase(phase, &cfg, &spec) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("phase {phase} failed: {e}");
                return ExitCode::FAILURE;
            }
        },
    };
    eprintln!(
        "  {:.0} rps achieved, p50 {:.2} ms, p99 {:.2} ms, {} mismatches, {} delivered",
        r.achieved_rps,
        r.stats.quantile_ms(0.50),
        r.stats.quantile_ms(0.99),
        r.stats.mismatches,
        r.delivered.map_or("unknown".to_owned(), |d| d.to_string()),
    );

    if let Some(out) = &out {
        let doc = report::render(mix.name, seed, std::slice::from_ref(&r), &rules);
        let text = report::to_pretty_string(&doc);
        if let Some(dir) = std::path::Path::new(out).parent() {
            if !dir.as_os_str().is_empty() {
                if let Err(e) = std::fs::create_dir_all(dir) {
                    eprintln!("cannot create {}: {e}", dir.display());
                    return ExitCode::FAILURE;
                }
            }
        }
        if let Err(e) = std::fs::write(out, &text) {
            eprintln!("cannot write {out}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {out}");
    }

    let violations = rules.violations(&r.stats);
    for v in &violations {
        eprintln!("stop rule [{phase}]: {v}");
    }
    if r.lost_workers > 0 {
        eprintln!(
            "stop rule [{phase}]: {} worker threads died",
            r.lost_workers
        );
    }
    if check && (!violations.is_empty() || r.lost_workers > 0) {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn usage(err: &str) -> ExitCode {
    eprintln!("error: {err}");
    eprintln!(
        "usage: ets-loadgen [--target ADDR] [--mix paper|delivery|faults] [--connections N] \
         [--requests N] [--rps X] [--seed N] [--read-timeout-ms N] [--client-timeout-ms N] \
         [--max-failure-rate F] [--max-p50-ms F] [--max-p99-ms F] [--out PATH] [--check]"
    );
    ExitCode::FAILURE
}
