//! Deterministic data-parallel execution layer.
//!
//! The measurement pipeline is embarrassingly parallel at every stage —
//! per-target typo generation, per-day traffic synthesis, per-email
//! funnel passes, per-bucket WHOIS comparisons — but naive parallelism
//! destroys reproducibility: a shared RNG consumed in scheduler order
//! makes output depend on thread interleaving.
//!
//! This crate provides the two pieces that make parallel runs
//! **byte-identical to sequential runs**:
//!
//! 1. *Ordered* parallel maps ([`par_map`], [`par_map_index`]) built on
//!    `std::thread::scope`. Work is split into contiguous chunks pulled
//!    from an atomic cursor (dynamic load balance), but results are
//!    reassembled in input order, so the output is a pure function of
//!    the input regardless of thread count or scheduling.
//! 2. Per-unit RNG streams ([`derive_rng`]): every parallel unit (a
//!    target, a day, an email, a bucket) gets its own `ChaCha8Rng` seeded
//!    from `(base_seed, domain, unit)`. No draw ever crosses a unit
//!    boundary, so decomposing a loop cannot change what any unit draws.
//!
//! For results too large to hold all at once, [`stream_map`] is the
//! streaming analogue: it maps the indices `0..n` on a worker pool that
//! claims indices within a bounded window, and the worker that computed
//! each result hands it to a `commit` closure under the stream's lock,
//! one at a time and in index order, so `commit` observes exactly the
//! order a single-threaded loop would produce — same bytes, bounded
//! memory, and each result freed on the thread that allocated it.
//!
//! The worker count is a process-wide setting ([`set_threads`]), wired to
//! the `repro` driver's `--threads` flag. `threads() == 1` executes
//! inline with zero thread overhead — `--threads 1` and `--threads N`
//! produce identical bytes, which `tests/determinism.rs` asserts.
//!
//! Every fan-out is observable through `ets-obs`: the call opens a
//! `parallel.par_map` / `parallel.stream` span (a child of whatever
//! span the caller had open) and each worker thread opens a
//! `parallel.worker` child span carrying its worker index and items
//! processed. Deterministic workload counters
//! (`parallel.<kind>.{calls,items}`) fire identically on the inline and
//! parallel paths, so the metrics snapshot never depends on the thread
//! count; the spans themselves are wall-clock artifacts and only exist
//! when tracing is enabled (`repro --trace`).

#![forbid(unsafe_code)]

mod stream;

pub use stream::stream_map;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Stream-domain tags, one per independent RNG consumer. Units in
/// different domains never share a stream even when their ids collide.
pub mod domain {
    /// Per-target candidate/registration sampling in `World::build`.
    pub const POPULATION_TARGET: u64 = 0x01;
    /// Registrant archetype synthesis in `World::build`.
    pub const POPULATION_REGISTRANT: u64 = 0x02;
    /// Filler-site and benign-background registration.
    pub const POPULATION_BACKGROUND: u64 = 0x03;
    /// Per-provider NS customer-base sizing.
    pub const POPULATION_NS_BASE: u64 = 0x04;
    /// Per-day traffic synthesis in `TrafficGenerator::generate`.
    pub const TRAFFIC_DAY: u64 = 0x10;
    /// One-off traffic setup (campaign and SMTP-user tables).
    pub const TRAFFIC_SETUP: u64 = 0x11;
    /// Honeypot behaviour sampling.
    pub const HONEYPOT: u64 = 0x20;
}

static THREADS: AtomicUsize = AtomicUsize::new(0);

/// Sets the worker count for all subsequent parallel calls.
/// `0` (the default) means one worker per available core.
pub fn set_threads(n: usize) {
    THREADS.store(n, Ordering::Relaxed);
}

/// The effective worker count.
pub fn threads() -> usize {
    match THREADS.load(Ordering::Relaxed) {
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        n => n,
    }
}

/// Derives an independent `ChaCha8Rng` stream for one parallel unit.
///
/// The 256-bit seed is expanded from `(base_seed, domain, unit)` with a
/// splitmix64 chain, so streams for distinct units are statistically
/// independent and a unit's stream depends only on its identity — never
/// on how many units ran before it or on which thread.
pub fn derive_rng(base_seed: u64, domain: u64, unit: u64) -> ChaCha8Rng {
    fn mix(mut z: u64) -> u64 {
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    let h = mix(mix(mix(base_seed) ^ domain) ^ unit);
    let mut seed = [0u8; 32];
    for (i, chunk) in seed.chunks_mut(8).enumerate() {
        chunk.copy_from_slice(&mix(h ^ (i as u64 + 1)).to_le_bytes());
    }
    ChaCha8Rng::from_seed(seed)
}

/// Upper bound on chunks per worker: small enough to keep bookkeeping
/// cheap, large enough to balance skewed workloads. [`stream_map`]
/// derives its claim window from it too.
const CHUNKS_PER_WORKER: usize = 8;

/// Records the deterministic fan-out metrics and opens the fan-out span.
///
/// The counters fire identically on the inline (`threads() == 1`) and
/// parallel paths — they count *workload*, not scheduling — so the
/// metrics snapshot stays byte-identical across thread counts. The
/// per-worker child spans below are scheduling-dependent by nature and
/// live only in trace artifacts.
fn fanout_span(kind: &str, items: usize, workers: usize) -> ets_obs::SpanGuard {
    ets_obs::metrics::counter_add(&format!("parallel.{kind}.calls"), 1);
    ets_obs::metrics::counter_add(&format!("parallel.{kind}.items"), items as u64);
    let mut span = ets_obs::span::enter_at(&format!("parallel.{kind}"), ets_obs::Level::Debug);
    span.arg("items", items as u64);
    span.arg("workers", workers as u64);
    span
}

fn chunk_size(len: usize, workers: usize) -> usize {
    len.div_ceil(workers * CHUNKS_PER_WORKER).max(1)
}

/// Maps `f` over `items` in parallel, returning results in input order.
///
/// `f` receives the item's index alongside the item so callers can derive
/// per-unit RNG streams. The result is identical for any thread count.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let workers = threads();
    let fan = fanout_span("par_map", items.len(), workers);
    if workers <= 1 || items.len() < 2 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let parent = fan.id();
    let chunk = chunk_size(items.len(), workers);
    let n_chunks = items.len().div_ceil(chunk);
    let cursor = AtomicUsize::new(0);
    let done: Mutex<Vec<(usize, Vec<R>)>> = Mutex::new(Vec::with_capacity(n_chunks));
    std::thread::scope(|scope| {
        let (cursor, done, f, items) = (&cursor, &done, &f, items);
        for w in 0..workers.min(n_chunks) {
            scope.spawn(move || {
                let mut span = ets_obs::span::worker("parallel.worker", parent, w);
                let mut items_done = 0u64;
                loop {
                    let c = cursor.fetch_add(1, Ordering::Relaxed);
                    if c >= n_chunks {
                        break;
                    }
                    let start = c * chunk;
                    let end = (start + chunk).min(items.len());
                    let out: Vec<R> = items[start..end]
                        .iter()
                        .enumerate()
                        .map(|(k, t)| f(start + k, t))
                        .collect();
                    items_done += (end - start) as u64;
                    // Poison only means another worker panicked mid-push;
                    // the panic propagates through the scope join
                    // regardless, so recovering the guard here never masks
                    // a failure.
                    done.lock()
                        .unwrap_or_else(|p| p.into_inner())
                        .push((c, out));
                }
                span.arg("items", items_done);
                // Fold this worker's metric shard into the global
                // retired state *inside* the scope, so counter reads
                // immediately after the join are complete without
                // leaning on TLS-destructor ordering.
                ets_obs::metrics::retire_local();
            });
        }
    });
    let mut parts = done.into_inner().unwrap_or_else(|p| p.into_inner());
    parts.sort_unstable_by_key(|(c, _)| *c);
    let mut result = Vec::with_capacity(items.len());
    for (_, mut part) in parts {
        result.append(&mut part);
    }
    result
}

/// Runs `f` once per index in `0..n` in parallel, collecting results in
/// index order. Convenience wrapper over [`par_map`] for loops that are
/// indexed rather than slice-driven (e.g. simulated days).
pub fn par_map_index<R, F>(n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let indices: Vec<usize> = (0..n).collect();
    par_map(&indices, |_, &i| f(i))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    /// Serializes the crate's tests that touch process-global state: the
    /// thread count and the metric registry. The `stream` tests take the
    /// same lock, so a `par_map` test bumping `parallel.par_map.*` never
    /// lands inside a stream counter snapshot.
    /// A test that panics while holding it must not cascade into the
    /// others, hence the poison recovery.
    pub(crate) fn lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|p| p.into_inner())
    }

    #[test]
    fn par_map_preserves_order() {
        let _guard = lock();
        let items: Vec<u64> = (0..10_000).collect();
        for threads in [1, 2, 7] {
            set_threads(threads);
            let out = par_map(&items, |i, &x| x * 2 + i as u64);
            assert_eq!(out.len(), items.len());
            assert!(out.iter().enumerate().all(|(i, &v)| v == 3 * i as u64));
        }
        set_threads(0);
    }

    #[test]
    fn derived_streams_are_stable_and_distinct() {
        let draw = |base, dom, unit| {
            let mut rng = derive_rng(base, dom, unit);
            (0..8).map(|_| rng.gen::<u64>()).collect::<Vec<_>>()
        };
        assert_eq!(draw(1, 2, 3), draw(1, 2, 3));
        assert_ne!(draw(1, 2, 3), draw(1, 2, 4));
        assert_ne!(draw(1, 2, 3), draw(1, 3, 3));
        assert_ne!(draw(1, 2, 3), draw(2, 2, 3));
    }

    #[test]
    fn empty_and_single_inputs() {
        let _guard = lock();
        set_threads(4);
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(&empty, |_, &x| x).is_empty());
        assert_eq!(par_map(&[7u32], |_, &x| x + 1), vec![8]);
        set_threads(0);
    }

    #[test]
    fn fanout_emits_parented_worker_spans_when_traced() {
        let _guard = lock();
        ets_obs::trace::disable();
        ets_obs::metrics::reset();
        ets_obs::trace::enable(ets_obs::Filter::all());
        set_threads(4);
        let items: Vec<u64> = (0..100).collect();
        let out = par_map(&items, |_, &x| x + 1);
        set_threads(0);
        let events = ets_obs::trace::drain();
        ets_obs::trace::disable();
        assert_eq!(out.len(), 100);
        let fan = events
            .iter()
            .find(|e| e.name == "parallel.par_map")
            .expect("fan-out span recorded");
        let workers: Vec<_> = events
            .iter()
            .filter(|e| e.name == "parallel.worker")
            .collect();
        assert!(!workers.is_empty());
        assert!(workers.iter().all(|w| w.parent == fan.id && w.tid > 0));
        // The workers' item counts partition the input exactly.
        let total: u64 = workers
            .iter()
            .flat_map(|w| w.args.iter())
            .filter(|(k, _)| *k == "items")
            .map(|(_, v)| *v)
            .sum();
        assert_eq!(total, items.len() as u64);
        assert_eq!(
            ets_obs::metrics::counter_value("parallel.par_map.items"),
            items.len() as u64
        );
        ets_obs::metrics::reset();
    }

    #[test]
    fn fanout_counters_are_thread_count_invariant() {
        let _guard = lock();
        let items: Vec<u64> = (0..257).collect();
        let snapshot_for = |threads: usize| {
            ets_obs::metrics::reset();
            set_threads(threads);
            let _ = par_map(&items, |_, &x| x);
            set_threads(0);
            ets_obs::metrics::snapshot_json()
        };
        let one = snapshot_for(1);
        for threads in [2, 8] {
            assert_eq!(one, snapshot_for(threads), "threads={threads}");
        }
        ets_obs::metrics::reset();
    }

    #[test]
    fn par_map_index_runs_every_index() {
        let _guard = lock();
        set_threads(3);
        let out = par_map_index(257, |i| i * i);
        set_threads(0);
        assert_eq!(out.len(), 257);
        assert!(out.iter().enumerate().all(|(i, &v)| v == i * i));
    }
}
