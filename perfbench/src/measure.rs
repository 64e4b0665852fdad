//! Measurement plumbing shared by every workload: timers, order
//! statistics, process counters read from `/proc`, output fingerprints,
//! and the report printed at the end of a run.

use std::collections::BTreeMap;
use std::fmt;
use std::hash::Hasher;
use std::time::{Duration, Instant};

/// How many times a batch workload repeats its set-up; `setup_s` is the
/// median, so one slow first touch does not decide it.
pub const SETUP_REPEATS: usize = 3;

/// The end-to-end metrics every workload reports with tracing off:
/// `(name, unit)`. What "item" and "operation" mean per workload is
/// documented in `perfbench/README.md`.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("items_per_s", "1/s"),
    ("p50_ms", "ms"),
];

/// The per-layer metrics a traced run reports: `(name, unit)`. A layer
/// the workload does not touch reads 0, and the human-readable lines
/// list it as not on this workload.
pub const PER_LAYER: [(&str, &str); 65] = [
    // ets-parallel and the tracer itself
    ("parallel.seq_s", "s"),
    ("parallel.e2e_s", "s"),
    ("parallel.speedup", "x"),
    ("trace.overhead_s", "s"),
    // ets-collector::traffic
    ("traffic.setup_s", "s"),
    ("traffic.day_s", "s"),
    ("traffic.days", "count"),
    ("traffic.emails", "count"),
    ("traffic.bytes", "bytes"),
    // ets-collector::funnel + ets-scan
    ("funnel.features_s", "s"),
    ("funnel.scan_bytes", "bytes"),
    ("funnel.absorb_s", "s"),
    ("funnel.finish_s", "s"),
    ("funnel.true_typos", "count"),
    ("study.residual_s", "s"),
    // ets-core::typogen and ::revindex
    ("typogen.s", "s"),
    ("typogen.targets", "count"),
    ("typogen.candidates", "count"),
    ("revindex.build_s", "s"),
    ("revindex.entries", "count"),
    // ets-ecosystem::population
    ("world.build_s", "s"),
    ("world.ctypo_pending", "count"),
    ("world.ctypos", "count"),
    ("world.commit_ratio", "ratio"),
    ("world.residual_s", "s"),
    // ets-ecosystem::snapshot and ets-store
    ("snapshot.save_s", "s"),
    ("snapshot.bytes", "bytes"),
    ("store.open_s", "s"),
    ("snapshot.load_s", "s"),
    ("snapshot.rebuild_s", "s"),
    ("snapshot.load_us_per_ctypo", "us"),
    // ets-ecosystem::{scan,mxconc,whois_cluster,nameserver}
    ("scan.census_s", "s"),
    ("scan.domains", "count"),
    ("mxconc.s", "s"),
    ("mxconc.providers", "count"),
    ("whois.cluster_s", "s"),
    ("whois.clusters", "count"),
    ("nameserver.s", "s"),
    ("nameserver.zone_rows", "count"),
    // ets-smtp::server (accept + pool)
    ("client.banner_us.p50", "us"),
    ("client.banner_us.p99", "us"),
    ("smtp.banner_us.p50", "us"),
    ("smtp.banner_us.p99", "us"),
    ("pool.accept_queue_depth_max", "count"),
    // ets-smtp::session
    ("client.command_us.p50", "us"),
    ("client.command_us.p99", "us"),
    ("smtp.command_us.p50", "us"),
    ("smtp.command_us.p99", "us"),
    ("smtp.policy_us.p50", "us"),
    ("smtp.policy_us.p99", "us"),
    ("smtp.commands", "count"),
    ("smtp.rcpt_rejected", "count"),
    // ets-smtp::codec + owner hand-off
    ("client.data_us.p50", "us"),
    ("client.data_us.p99", "us"),
    ("smtp.data_us.p50", "us"),
    ("smtp.data_us.p99", "us"),
    ("smtp.bytes_in", "bytes"),
    ("smtp.messages_accepted", "count"),
    ("owner.queue_depth_max", "count"),
    // ets-smtp::telemetry and the load generator
    ("client.session_us.p50", "us"),
    ("client.session_us.p99", "us"),
    ("smtp.session_us.p50", "us"),
    ("smtp.session_us.p99", "us"),
    ("serve.residual_us", "us"),
    ("client.cpu_frac", "ratio"),
];

/// The outcome of one run: work attempted and failed, the metrics, and
/// the human-readable lines printed before the JSON result.
pub struct Report {
    attempted: u64,
    failed: u64,
    /// Why the run cannot be charged to the system under test (for
    /// example a saturated load generator); makes `correct` false.
    invalid: Option<String>,
    values: BTreeMap<&'static str, f64>,
    lines: Vec<String>,
}

impl Report {
    pub fn new() -> Report {
        Report {
            attempted: 0,
            failed: 0,
            invalid: None,
            values: BTreeMap::new(),
            lines: Vec::new(),
        }
    }

    /// Records `failed` output mismatches out of `attempted` checked
    /// operations.
    pub fn check(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    pub fn invalidate(&mut self, why: String) {
        self.invalid = Some(why);
    }

    /// Sets a metric (it must be one of [`END_TO_END`] or [`PER_LAYER`])
    /// and prints it with a note on what it counts.
    pub fn set(&mut self, name: &'static str, value: f64, note: impl fmt::Display) {
        let unit = unit_of(name).unwrap_or_else(|| panic!("metric {name} is not declared"));
        self.lines
            .push(format!("  {name:<28} {value:>16.6} {unit:<6} {note}"));
        self.values.insert(name, value);
    }

    /// Prints a metric under the name the workload's users know it by,
    /// beside the end-to-end metric it is reported as.
    pub fn alias(&mut self, name: &str, value: f64, unit: &str, of: &str) {
        self.lines
            .push(format!("  {name:<28} {value:>16.6} {unit:<6} (= {of})"));
    }

    /// A free-form line of context (sample counts, checks, paths).
    pub fn note(&mut self, line: impl Into<String>) {
        self.lines.push(format!("  # {}", line.into()));
    }

    /// Prints the human-readable lines, then the JSON result as the last
    /// line of standard output.
    pub fn print(&self, workload: &str, traced: bool) {
        let declared: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
        println!(
            "perfbench {workload} ({})",
            if traced {
                "traced, per layer"
            } else {
                "end to end"
            }
        );
        for line in &self.lines {
            println!("{line}");
        }
        let absent: Vec<&str> = declared
            .iter()
            .map(|(name, _)| *name)
            .filter(|name| !self.values.contains_key(name))
            .collect();
        if !absent.is_empty() {
            println!(
                "  # not on this workload, reported as 0: {}",
                absent.join(", ")
            );
        }
        let failed_frac = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "  failed_frac = {failed_frac} ({} failed of {} attempted)",
            self.failed, self.attempted
        );
        if let Some(why) = &self.invalid {
            println!("  INVALID RUN: {why}");
        }
        let mut metrics = Vec::new();
        let mut finite = true;
        for (name, unit) in declared {
            let value = self.values.get(name).copied().unwrap_or(0.0);
            finite &= value.is_finite();
            let value = if value.is_finite() { value } else { 0.0 };
            metrics.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            ));
        }
        let correct = self.failed == 0 && self.attempted > 0 && self.invalid.is_none() && finite;
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
    }
}

fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

/// Renders a finite float as a JSON number with every digit of Rust's
/// shortest round-trip form (`1.25`, `3e-7`; both are valid JSON).
fn json_number(v: f64) -> String {
    format!("{v:?}")
}

/// Runs `f`, returning its result and wall seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Runs a set-up `f` `times` times; returns the last result and the
/// median wall time. An earlier result is dropped after the next call's
/// timing ends.
pub fn repeat_setup<T>(times: usize, mut f: impl FnMut() -> T) -> (T, f64) {
    let mut secs = Vec::new();
    let mut last = None;
    for _ in 0..times {
        let (out, s) = timed(&mut f);
        secs.push(s);
        last = Some(out);
    }
    (last.expect("a set-up runs at least once"), median(&secs))
}

/// Calls `op` until `budget` of wall time has passed (at least once)
/// and returns the wall seconds of each call. Each result goes to
/// `after`, untimed, before the next call: checks run there and large
/// outputs are dropped there, so at most one is alive at a time.
pub fn repeat_for<T>(
    budget: Duration,
    mut op: impl FnMut() -> T,
    mut after: impl FnMut(T),
) -> Vec<f64> {
    let start = Instant::now();
    let mut secs = Vec::new();
    while secs.is_empty() || start.elapsed() < budget {
        let (out, s) = timed(&mut op);
        secs.push(s);
        after(out);
    }
    secs
}

/// Peak RSS of the process's first operation, MiB: `op` runs once, at
/// one `ets-parallel` thread, before any other work, and the result is
/// the process's `VmHWM` after it. One thread and a fresh heap give
/// every run of a seed the same allocation sequence. At two threads the
/// peak follows the scheduler: the allocator's per-thread arenas and the
/// stream's reorder backlog spread it by 14-25% between runs.
pub fn first_peak_rss<T>(op: impl FnOnce() -> T) -> f64 {
    let threads = ets_parallel::threads();
    ets_parallel::set_threads(1);
    drop(op());
    ets_parallel::set_threads(threads);
    let mb = peak_rss_mb();
    trim_heap();
    mb
}

/// The median of `xs` (the mean of the two middle values for an even
/// count); 0 for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank quantile of an ascending slice; 0 for an empty slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sets the end-to-end metrics of a batch workload: `peak_rss_mb`,
/// `items_per_s` (items per operation over the median operation time)
/// and the median operation wall time. A run holds 10 to 30 operations,
/// too few for a tail percentile with ten samples beyond it, so the
/// tail is printed, not reported as a metric.
pub fn set_batch_metrics(
    report: &mut Report,
    secs: &[f64],
    peak_rss_mb: f64,
    items_per_op: u64,
    item: &str,
    op: &str,
) {
    let n = secs.len();
    let mut sorted = secs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let p50 = median(&sorted);
    report.set(
        "peak_rss_mb",
        peak_rss_mb,
        format!("process VmHWM after its first {op}, run untimed at 1 thread before the set-up"),
    );
    report.set(
        "items_per_s",
        items_per_op as f64 / p50,
        format!("{items_per_op} {item} per {op} / median {op} wall time"),
    );
    report.set("p50_ms", p50 * 1e3, format!("median {op} wall time, n={n}"));
    report.note(format!(
        "slowest {op}: {:.3} ms; every {op} in ms: {}",
        sorted[n - 1] * 1e3,
        secs.iter()
            .map(|s| format!("{:.1}", s * 1e3))
            .collect::<Vec<_>>()
            .join(" ")
    ));
}

extern "C" {
    /// glibc: returns free heap memory of every arena to the kernel.
    fn malloc_trim(pad: usize) -> i32;
}

/// Returns free heap memory of every allocator arena to the kernel.
pub fn trim_heap() {
    // SAFETY: `malloc_trim` takes a plain integer, touches only the
    // allocator's own state under its locks, and may be called from any
    // thread at any time.
    unsafe {
        malloc_trim(0);
    }
}

/// Resets the kernel's peak-RSS mark (`VmHWM`) to the current RSS, so
/// the next [`peak_rss_mb`] covers only what runs in between. Free heap
/// memory is returned to the kernel first, so a measurement does not
/// depend on how much an earlier operation left cached in the
/// allocator. Where `/proc/self/clear_refs` is not writable the mark
/// keeps the process peak.
pub fn reset_peak_rss() {
    trim_heap();
    if let Err(e) = std::fs::write("/proc/self/clear_refs", "5") {
        eprintln!("perfbench: cannot reset VmHWM ({e}); peak RSS covers the whole process");
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// CPU seconds (user + system) consumed so far by the calling thread,
/// from `/proc/thread-self/stat` (the calling thread's
/// `/proc/self/task/<tid>/stat`). Linux reports them in `USER_HZ` ticks,
/// which is 100 on every architecture the kernel exposes to user space.
pub fn thread_cpu_secs() -> f64 {
    const USER_HZ: f64 = 100.0;
    let stat = std::fs::read_to_string("/proc/thread-self/stat").unwrap_or_default();
    // The command name may hold spaces; the fields after it are plain.
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map_or(Vec::new(), |(_, rest)| rest.split_whitespace().collect());
    // After ")": state is field 3 of stat(5), utime 14 and stime 15.
    let ticks = |i: usize| {
        fields
            .get(i - 3)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(14) + ticks(15)) / USER_HZ
}

/// Where the benchmark writes snapshots and traces: beside the build,
/// under `$CARGO_TARGET_DIR` (or `perfbench/target`), so a run writes
/// only inside its checkout.
pub fn out_dir() -> std::path::PathBuf {
    let base = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "perfbench/target".into());
    let dir = std::path::PathBuf::from(base).join("perfbench");
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("perfbench: cannot create {}: {e}", dir.display());
        std::process::exit(2);
    }
    dir
}

/// FNV-1a over everything written to it, as text or bytes: the
/// fingerprint the checks use to compare large outputs without keeping
/// two copies alive.
pub struct Fingerprint(u64);

impl Fingerprint {
    pub fn new() -> Fingerprint {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }

    /// Fingerprint of one value's `Debug` rendering.
    pub fn of_debug(value: &impl fmt::Debug) -> u64 {
        let mut f = Fingerprint::new();
        fmt::write(&mut f, format_args!("{value:?}")).expect("fingerprinting never fails");
        f.finish()
    }
}

impl Hasher for Fingerprint {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

impl fmt::Write for Fingerprint {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        Hasher::write(self, s.as_bytes());
        Ok(())
    }
}
