//! `repro` — regenerates every table and figure of *Email Typosquatting*
//! (Szurdi & Christin, IMC 2017) from the simulated substrate.
//!
//! ```text
//! repro <experiment> [--seed N] [--out DIR] [--fast] [--scale N]
//!                    [--snapshot FILE] [--threads N] [--trace FILE]
//!                    [--telemetry ADDR]
//!
//! experiments:
//!   table1      DNS settings of a typo domain
//!   table2      sensitive-info scrubber precision/sensitivity
//!   table3      spam-scorer evaluation on four datasets
//!   table4      SMTP support census of ctypo domains
//!   table5      honey-probe outcome counts
//!   table6      MX usage of accepting domains
//!   fig3        daily receiver-typo series
//!   fig4        daily SMTP-typo series
//!   fig5        cumulative receiver typos per domain
//!   fig6        sensitive-info heatmap
//!   fig7        attachment extensions
//!   fig8        ctypo concentration by mail server / registrant
//!   fig9        relative popularity by mistake type
//!   volumes     §4.4.1 headline volumes
//!   regression  §6 projection model
//!   honey       §7 honey-token campaign
//!   snapshot    build (or load) the world substrate only — use with
//!               `--snapshot FILE` to warm a snapshot cache
//!   all         everything above
//! ```
//!
//! Flags:
//!
//! * `--seed N` — base RNG seed (default 20160604).
//! * `--out DIR` — output directory for JSON records (default `results/`,
//!   created when the first record is written, so `snapshot`, which
//!   writes none, leaves none behind).
//! * `--fast` — reduced-scale mode for quick runs.
//! * `--scale N` — world scale: number of popularity targets. Accepts the
//!   presets `1k`, `100k`, `1m` or any integer; overrides `--fast` for
//!   the world (the collection run is unaffected). Results at a given
//!   scale are byte-identical for any thread count.
//! * `--snapshot FILE` — persistent world snapshot. When `FILE` holds a
//!   snapshot built from the same `(seed, scale, format version)`, the
//!   world is reloaded from it near-zero-copy: the run times a
//!   `snapshot_load` stage and no `world_build`. On any mismatch or
//!   corruption the reason is logged, the world is rebuilt, and `FILE` is
//!   refreshed. Loaded and fresh worlds are byte-identical.
//! * `--threads N` — worker count for the parallel pipeline stages;
//!   results are byte-identical for any value (0 = one per core).
//! * `--telemetry ADDR` — serve live introspection over HTTP on `ADDR`
//!   while the run executes: `/metrics` (Prometheus text), `/snapshot.json`
//!   and `/healthz`. Telemetry reads the merged metric shards and records
//!   only gauges of its own, so it never changes `results/*.json`.
//! * `--trace FILE` — write a Chrome-trace span file to `FILE` (open in
//!   Perfetto / `chrome://tracing`), a JSONL event log next to it, and a
//!   deterministic metrics snapshot. The `ETS_TRACE` environment variable
//!   filters spans (`off`, `info`, `debug`, `trace`, or per-module
//!   directives like `funnel=trace,parallel=off`); it defaults to
//!   `trace` (everything) when `--trace` is given. Tracing never changes
//!   the `results/*.json` outputs.
//!
//! Each experiment prints the paper-shaped rows and writes a JSON record
//! under `--out` (default `results/`), which holds result records only;
//! a record that cannot be written, or an output directory that cannot
//! be created, fails the run. The collection run
//! always streams: traffic is generated, feature-extracted and
//! classified day by day, a bounded window of days in flight
//! (`ets_collector::stream`).
//! The run's timings live in the `--trace` JSONL log (`stage` lines, the
//! `run.*` gauges that key them, `lab.*` counters), which `ets-bench
//! --check` ratchets.

#![forbid(unsafe_code)]

mod lab;
mod report;
mod section4;
mod section5;
mod section6;
mod section7;

use std::process::ExitCode;

/// An experiment entry: name plus runner.
type Experiment = (&'static str, fn(&lab::Lab));

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut experiment: Option<String> = None;
    let mut seed: u64 = 2016_0604;
    let mut out_dir = "results".to_owned();
    let mut fast = false;
    let mut scale: Option<usize> = None;
    let mut snapshot: Option<String> = None;
    let mut trace_path: Option<String> = None;
    let mut telemetry_addr: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seed" => match it.next().and_then(|s| s.parse().ok()) {
                Some(s) => seed = s,
                None => return usage("--seed needs an integer"),
            },
            "--out" => match it.next() {
                Some(d) => out_dir = d.clone(),
                None => return usage("--out needs a directory"),
            },
            "--scale" => match it.next().and_then(|s| parse_scale(s)) {
                Some(n) => scale = Some(n),
                None => return usage("--scale needs 1k, 100k, 1m, or a positive integer"),
            },
            "--snapshot" => match it.next() {
                Some(p) => snapshot = Some(p.clone()),
                None => return usage("--snapshot needs a file path"),
            },
            "--threads" => match it.next().and_then(|s| s.parse().ok()) {
                // Worker count for the parallel pipeline stages; results
                // are byte-identical for any value (0 = one per core).
                Some(n) => ets_parallel::set_threads(n),
                None => return usage("--threads needs an integer"),
            },
            "--trace" => match it.next() {
                Some(p) => trace_path = Some(p.clone()),
                None => return usage("--trace needs a file path"),
            },
            "--telemetry" => match it.next() {
                Some(addr) => telemetry_addr = Some(addr.clone()),
                None => return usage("--telemetry needs a bind address"),
            },
            "--fast" => fast = true,
            other if experiment.is_none() && !other.starts_with('-') => {
                experiment = Some(other.to_owned());
            }
            other => return usage(&format!("unknown argument {other:?}")),
        }
    }
    let Some(experiment) = experiment else {
        return usage("no experiment given");
    };
    if trace_path.is_some() {
        // ETS_TRACE filters the recorded spans; absent means everything.
        // ETS_TRACE=off disables span recording (the metrics snapshot is
        // still written at export).
        let filter = match std::env::var("ETS_TRACE") {
            Ok(spec) => match ets_obs::Filter::parse(&spec) {
                Ok(f) => f,
                Err(e) => return usage(&format!("bad ETS_TRACE: {e}")),
            },
            Err(_) => ets_obs::Filter::all(),
        };
        ets_obs::trace::enable(filter);
    }
    // Live introspection listener (`/metrics`, `/snapshot.json`,
    // `/healthz`). It reads merged counters and records only gauges, so
    // enabling it never perturbs the deterministic results/*.json.
    let _telemetry_server = match &telemetry_addr {
        Some(addr) => match ets_obs::serve::serve(addr) {
            Ok(srv) => {
                eprintln!("[telemetry] serving on http://{}", srv.addr());
                Some(srv)
            }
            Err(e) => {
                eprintln!("cannot bind telemetry {addr}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };
    // The run's identity, which keys its trace log for the ratchet. As
    // gauges, they stay out of the deterministic metrics snapshot.
    ets_obs::metrics::gauge_set("run.threads", ets_parallel::threads() as f64);
    ets_obs::metrics::gauge_set("run.fast", if fast { 1.0 } else { 0.0 });
    if let Some(n) = scale {
        ets_obs::metrics::gauge_set("run.scale", n as f64);
    }
    let mut ctx = lab::Lab::new(seed, fast, out_dir);
    ctx.scale = scale;
    ctx.snapshot = snapshot;
    let ctx = ctx;
    let known: Vec<Experiment> = vec![
        ("table1", section4::table1),
        ("table2", section4::table2),
        ("table3", section4::table3),
        ("table4", section5::table4),
        ("table5", section7::table5),
        ("table6", section7::table6),
        ("fig3", section4::fig3),
        ("fig4", section4::fig4),
        ("fig5", section4::fig5),
        ("fig6", section4::fig6),
        ("fig7", section4::fig7),
        ("fig8", section5::fig8),
        ("fig9", section6::fig9),
        ("volumes", section4::volumes),
        ("regression", section6::regression),
        ("honey", section7::honey),
    ];
    match experiment.as_str() {
        "snapshot" => {
            // World substrate only: load-or-build (and persist, when
            // `--snapshot` is given). Warms a snapshot cache without
            // running any analysis.
            let world = ctx.world();
            println!(
                "world: {} targets, {} ctypos",
                world.targets.len(),
                world.ctypos.len()
            );
        }
        "all" => {
            for (name, f) in &known {
                println!("\n=== {name} ===");
                f(&ctx);
            }
        }
        name => match known.iter().find(|(n, _)| *n == name) {
            Some((_, f)) => f(&ctx),
            None => return usage(&format!("unknown experiment {name:?}")),
        },
    }
    if let Some(path) = &trace_path {
        match ets_obs::trace::export(path) {
            Ok(paths) => eprintln!(
                "[trace] wrote {} (Perfetto), {} (JSONL), {} (metrics)",
                paths.chrome, paths.jsonl, paths.metrics
            ),
            Err(e) => {
                eprintln!("cannot write trace {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if ctx.write_failed() {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Parses a `--scale` value: the presets `1k`/`100k`/`1m` (any integer
/// with a `k`/`m` suffix, really) or a raw positive integer.
fn parse_scale(s: &str) -> Option<usize> {
    let lower = s.to_ascii_lowercase();
    let n = if let Some(prefix) = lower.strip_suffix('k') {
        prefix.parse::<usize>().ok()?.checked_mul(1_000)?
    } else if let Some(prefix) = lower.strip_suffix('m') {
        prefix.parse::<usize>().ok()?.checked_mul(1_000_000)?
    } else {
        lower.parse::<usize>().ok()?
    };
    (n > 0).then_some(n)
}

fn usage(err: &str) -> ExitCode {
    eprintln!("error: {err}");
    eprintln!(
        "usage: repro <table1|table2|table3|table4|table5|table6|fig3..fig9|volumes|regression|honey|snapshot|all> [--seed N] [--out DIR] [--fast] [--scale N] [--snapshot FILE] [--threads N] [--trace FILE] [--telemetry ADDR]"
    );
    eprintln!("  --seed N      base RNG seed (default 20160604)");
    eprintln!(
        "  --out DIR     output directory for JSON records (default results/, created with the first record)"
    );
    eprintln!("  --fast        reduced-scale mode for quick runs");
    eprintln!("  --scale N     world scale in targets (1k, 100k, 1m, or any integer); overrides --fast for the world");
    eprintln!("  --snapshot FILE  load the world from FILE when it matches (seed, scale, format); else build fresh and save there");
    eprintln!("  --threads N   parallel worker count; results are byte-identical for any value (0 = one per core)");
    eprintln!("  --telemetry ADDR  serve live /metrics, /snapshot.json and /healthz on ADDR during the run (never changes results/*.json)");
    eprintln!("  --trace FILE  write Chrome-trace spans to FILE plus a .jsonl event log and .metrics.json snapshot");
    eprintln!(
        "                (filter spans with ETS_TRACE, e.g. ETS_TRACE=funnel=trace,parallel=off)"
    );
    ExitCode::FAILURE
}
