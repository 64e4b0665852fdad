//! Streaming-vs-batch differential suite.
//!
//! The streaming pipeline (`ets_collector::stream`) claims byte-identical
//! output to the batch collect-then-classify oracle at any thread count
//! and any epoch grouping — plus bounded in-flight payload memory. This
//! suite holds each claim against the oracle:
//!
//! * full email + verdict equality across a thread {1, 2, 8} sweep, and
//!   at 1 and 4 threads on exactly the collection `repro --fast` runs;
//! * a proptest that absorbs the corpus in arbitrary epoch groupings and
//!   demands the verdicts never move;
//! * a peak-memory assertion: with a discarding sink, the payload in
//!   `stream_map`'s claim window stays far below the materialized corpus
//!   size.
//!
//! The thread count and the mem gauge are process-global, so every test
//! serializes on one file-local lock and restores the default.

use ets_collector::funnel::{Funnel, FunnelVerdict};
use ets_collector::infra::{CollectedEmail, CollectionInfra};
use ets_collector::stream::{stream_collect, StreamFunnel};
use ets_collector::traffic::{GenEmail, TrafficConfig, TrafficGenerator};
use proptest::prelude::*;
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Serializes tests that touch the process-global thread count or mem
/// gauge.
fn lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

/// The shared oracle: one batch run of the generator and funnel at test
/// scale. Built once — the corpus and verdicts are deterministic, so
/// every test compares against the same baseline.
fn oracle() -> &'static (CollectionInfra, Vec<CollectedEmail>, Vec<FunnelVerdict>) {
    static ORACLE: OnceLock<(CollectionInfra, Vec<CollectedEmail>, Vec<FunnelVerdict>)> =
        OnceLock::new();
    ORACLE.get_or_init(|| {
        let infra = CollectionInfra::build();
        let collected: Vec<CollectedEmail> =
            TrafficGenerator::new(&infra, TrafficConfig::test_scale(77))
                .generate()
                .into_iter()
                .map(|e| e.collected)
                .collect();
        let verdicts = Funnel::new(&infra).classify_all(&collected);
        (infra, collected, verdicts)
    })
}

#[test]
fn stream_equals_batch_across_threads() {
    let _g = lock();
    let (infra, batch_emails, batch_verdicts) = oracle();
    for threads in [1usize, 2, 8] {
        ets_parallel::set_threads(threads);
        let gen = TrafficGenerator::new(infra, TrafficConfig::test_scale(77));
        let funnel = Funnel::new(infra);
        let mut streamed: Vec<CollectedEmail> = Vec::new();
        let mut sink = |e: GenEmail| streamed.push(e.collected);
        let state = stream_collect(&gen, &funnel, &mut sink);
        let verdicts = state.finish();
        assert_eq!(
            &streamed, batch_emails,
            "emails diverged at threads={threads}"
        );
        assert_eq!(
            &verdicts, batch_verdicts,
            "verdicts diverged at threads={threads}"
        );
    }
    ets_parallel::set_threads(0);
}

/// `repro --fast` collects `TrafficConfig::test_scale` at the default
/// seed, 20160604, and every result file is a function of those emails,
/// their verdicts and the world. Streaming them at 1 and 4 threads must
/// reproduce the batch oracle exactly.
#[test]
fn repro_fast_collection_equals_batch_oracle() {
    let _g = lock();
    ets_parallel::set_threads(0);
    let infra = CollectionInfra::build();
    let config = TrafficConfig::test_scale(20160604);
    let gen = TrafficGenerator::new(&infra, config);
    let funnel = Funnel::new(&infra);
    let batch: Vec<CollectedEmail> = gen.generate().into_iter().map(|e| e.collected).collect();
    let batch_verdicts = funnel.classify_all(&batch);
    for threads in [1usize, 4] {
        ets_parallel::set_threads(threads);
        let mut streamed: Vec<CollectedEmail> = Vec::new();
        let mut sink = |e: GenEmail| streamed.push(e.collected);
        let verdicts = stream_collect(&gen, &funnel, &mut sink).finish();
        assert_eq!(streamed, batch, "emails diverged at threads={threads}");
        assert_eq!(
            verdicts, batch_verdicts,
            "verdicts diverged at threads={threads}"
        );
    }
    ets_parallel::set_threads(0);
}

#[test]
fn in_flight_memory_stays_bounded() {
    let _g = lock();
    let (infra, batch_emails, _) = oracle();
    let corpus_bytes: u64 = batch_emails.iter().map(|e| e.approx_heap_bytes()).sum();
    assert!(corpus_bytes > 0);
    ets_parallel::set_threads(2);
    ets_obs::mem::reset();
    let gen = TrafficGenerator::new(infra, TrafficConfig::test_scale(77));
    let funnel = Funnel::new(infra);
    // Discarding sink: nothing downstream retains the emails, so the mem
    // gauge sees only what the pipeline itself keeps in flight.
    let mut sink = |_e: GenEmail| {};
    let state = stream_collect(&gen, &funnel, &mut sink);
    assert_eq!(state.emails(), batch_emails.len());
    let peak = ets_obs::mem::peak();
    assert!(peak > 0, "workers never registered payload bytes");
    assert!(
        peak < corpus_bytes / 4,
        "peak in-flight {peak} not bounded vs corpus {corpus_bytes}"
    );
    assert_eq!(ets_obs::mem::live(), 0, "commit leaked payload bytes");
    ets_parallel::set_threads(0);
}

proptest! {
    /// Absorbing the corpus in any epoch grouping — single emails, uneven
    /// chunks, one big batch — yields the oracle's verdicts exactly: the
    /// funnel's cross-email state is a pure commutative merge.
    #[test]
    fn epoch_grouping_never_changes_verdicts(
        raw_cuts in proptest::collection::vec(0..2000usize, 0..12),
    ) {
        let _g = lock();
        ets_parallel::set_threads(0);
        let (infra, batch_emails, batch_verdicts) = oracle();
        let funnel = Funnel::new(infra);
        let n = batch_emails.len();
        let mut cuts = raw_cuts;
        cuts.iter_mut().for_each(|c| *c %= n + 1);
        cuts.sort_unstable();
        cuts.dedup();
        let mut state = StreamFunnel::new(&funnel);
        let mut prev = 0usize;
        for cut in cuts.into_iter().chain(std::iter::once(n)) {
            if cut > prev {
                state.absorb(funnel.feature_batch(batch_emails[prev..cut].iter()));
                prev = cut;
            }
        }
        prop_assert_eq!(state.emails(), n);
        prop_assert_eq!(&state.finish(), batch_verdicts);
    }
}
