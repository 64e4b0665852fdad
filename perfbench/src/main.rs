//! `ets-perfbench`: the repository's benchmark, end to end and by layer.
//!
//! ```text
//! ets-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each invocation runs one workload in this one process, measures it
//! for about `--seconds`, checks its outputs, prints every metric by
//! name with its unit, and ends with one JSON line:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! `--trace 0` reports the end-to-end metrics with tracing off;
//! `--trace 1` is the separate traced run that reports the per-layer
//! metrics and writes a Chrome trace. The benchmark reaches every layer
//! only through its public functions. See `perfbench/README.md`.

mod layers;
mod measure;
mod serve;
mod study;
mod world;

use std::time::Duration;

/// Workers of the `ets-parallel` pool: the benchmark machine's core
/// count, fixed so results do not follow the host.
const POOL_THREADS: usize = 2;

const USAGE: &str = "usage: ets-perfbench --workload <study|world|serve> \
                     --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()? != 0),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?.max(1),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("ets-perfbench: {e}\n{USAGE}");
        std::process::exit(2);
    });
    ets_parallel::set_threads(POOL_THREADS);
    let budget = Duration::from_secs(args.seconds);
    let (seed, trace) = (args.seed, args.trace);
    let report = match args.workload.as_str() {
        "study" if trace => study::traced(seed, budget),
        "study" => study::run(seed, budget),
        "world" if trace => world::traced(seed),
        "world" => world::run(seed, budget),
        "serve" if trace => serve::traced(seed, budget),
        "serve" => serve::run(seed, budget),
        other => {
            eprintln!("ets-perfbench: unknown workload {other}\n{USAGE}");
            std::process::exit(2);
        }
    };
    report.print(&args.workload, trace);
}
