//! The streaming collection path: traffic → features → funnel, with the
//! emails themselves held only while in flight.
//!
//! This is the collection path `repro` runs. The batch form —
//! [`TrafficGenerator::generate`] then [`Funnel::classify_all`] —
//! materializes the whole study period before the funnel runs, an
//! O(total-emails) memory term that caps the study size; it stays as the
//! oracle. This module runs the same computation as a stream over
//! simulated days: each day is one work unit fanned out through
//! [`ets_parallel::stream_map`] (a claim window, in-order commit), and
//! the commit side — running strictly sequentially, in calendar order —
//! absorbs the day's [`FeatureBatch`] into an incremental
//! [`StreamFunnel`] and hands the day's emails to the caller's sink.
//!
//! Determinism argument, layer by layer: a day's emails are a pure
//! function of `(config, day)` (per-day RNG streams); feature extraction
//! is a pure per-email function; `stream_map` commits day batches in
//! calendar order, so the sink and the feature sequence match the
//! batch oracle exactly; and the funnel's cross-email state grows by
//! counting and set union, so epoch grouping cannot change a frequency
//! count or a spam key. Layers 3–5 then see identical inputs —
//! identical verdicts, identical bytes downstream, at any thread count.
//! `tests/streaming_differential.rs` holds this equivalence against the
//! oracle, including at exactly the collection `repro --fast` runs.
//!
//! Peak payload memory is O(workers × day-batch): at most
//! `stream_map`'s claim window of 8 days per worker is in flight, and a
//! committed day's emails go to the sink. What the funnel keeps until
//! [`StreamFunnel::finish`] still grows with the study: a verdict byte
//! per email, a 40-byte record per survivor of layers 1–2, the layer-3
//! spam sender and bag sets, and the layer-5 frequency tables. The
//! largest of these is the recipient table: at the `study` benchmark's
//! seed 1 (216,580 emails) it holds 169,466 keys, about 4.5 MB.
//! `tests/funnel_heap.rs` bounds the whole heap peak per email at 1 and
//! 2 threads.

use crate::funnel::{FeatureBatch, Funnel, FunnelVerdict, Retained};
use crate::time::STUDY_DAYS;
use crate::traffic::{GenEmail, TrafficGenerator, DAY_BATCH_BOUNDS};

/// The incremental funnel: absorbs per-epoch [`FeatureBatch`]es in
/// canonical order, keeping only what layers 3–5 can still read, and
/// runs those layers once the stream ends. Absorbing N single-email
/// batches, one batch of N, or any epoch grouping in between yields
/// identical verdicts — the property the proptest in
/// `tests/streaming_differential.rs` exercises.
pub struct StreamFunnel<'f, 'a> {
    funnel: &'f Funnel<'a>,
    kept: Retained,
}

impl<'f, 'a> StreamFunnel<'f, 'a> {
    /// An empty incremental funnel.
    pub fn new(funnel: &'f Funnel<'a>) -> StreamFunnel<'f, 'a> {
        StreamFunnel {
            funnel,
            kept: Retained::default(),
        }
    }

    /// Absorbs one epoch's features and counts, in stream order.
    pub fn absorb(&mut self, batch: FeatureBatch) {
        ets_obs::metrics::counter_add("funnel.emails", batch.feats.len() as u64);
        // Bytes the single-pass scan layers (2 and 4) cover — a pure
        // workload quantity, so it belongs in the commutative registry.
        let scan_bytes: u64 = batch.feats.iter().map(|f| f.body_bytes).sum();
        ets_obs::metrics::counter_add("funnel.scan.bytes", scan_bytes);
        self.kept.absorb(batch);
    }

    /// Emails absorbed so far.
    pub fn emails(&self) -> usize {
        self.kept.emails()
    }

    /// Runs layers 3–5 over everything absorbed, consuming the state.
    pub fn finish(self) -> Vec<FunnelVerdict> {
        self.funnel.finish(self.kept)
    }
}

/// Streams the whole study period: generates each day's traffic on a
/// worker, extracts its [`FeatureBatch`] there too, then commits days in
/// calendar order — absorbing features into the returned [`StreamFunnel`]
/// and handing emails to `sink`. Call [`StreamFunnel::finish`] on the
/// result for the verdicts.
///
/// Byte-identical to `generate()` + `classify_all()` at any thread count.
/// Peak payload memory is bounded by the claim window, not the study
/// size; the funnel's retained state is not (see the module docs).
pub fn stream_collect<'f, 'a>(
    gen: &TrafficGenerator<'a>,
    funnel: &'f Funnel<'a>,
    sink: &mut impl FnMut(GenEmail),
) -> StreamFunnel<'f, 'a> {
    let mut span = ets_obs::span!("stream.collect");
    let setup = gen.setup();
    let mut state = StreamFunnel::new(funnel);
    let mut total = 0u64;
    ets_parallel::stream_map(
        STUDY_DAYS as usize,
        |day| {
            let emails = gen.day(&setup, day);
            let batch = funnel.feature_batch(emails.iter().map(|e| &e.collected));
            (emails, batch)
        },
        |_, (emails, batch)| {
            // Same workload metrics as `generate`, recorded at commit time
            // so they land in calendar order.
            ets_obs::metrics::histogram_record(
                "traffic.day_batch",
                &DAY_BATCH_BOUNDS,
                emails.len() as u64,
            );
            total += emails.len() as u64;
            state.absorb(batch);
            for email in emails {
                sink(email);
            }
        },
    );
    ets_obs::metrics::counter_add("traffic.emails", total);
    span.arg("emails", total);
    state
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::infra::{CollectedEmail, CollectionInfra};
    use crate::traffic::TrafficConfig;

    #[test]
    fn streaming_matches_batch_oracle() {
        let infra = CollectionInfra::build();
        let config = TrafficConfig::test_scale(21);
        let gen = TrafficGenerator::new(&infra, config.clone());
        let funnel = Funnel::new(&infra);

        let batch_emails = gen.generate();
        let batch_collected: Vec<CollectedEmail> =
            batch_emails.iter().map(|e| e.collected.clone()).collect();
        let batch_verdicts = funnel.classify_all(&batch_collected);

        let mut streamed: Vec<GenEmail> = Vec::new();
        let mut sink = |e: GenEmail| streamed.push(e);
        let state = stream_collect(&gen, &funnel, &mut sink);
        assert_eq!(state.emails(), batch_collected.len());
        let stream_verdicts = state.finish();

        assert_eq!(stream_verdicts, batch_verdicts);
        assert_eq!(streamed.len(), batch_emails.len());
        for (a, b) in batch_emails.iter().zip(&streamed) {
            assert_eq!(a.collected, b.collected);
            assert_eq!(a.truth, b.truth);
        }
    }

    #[test]
    fn single_email_batches_match_classify_all() {
        let infra = CollectionInfra::build();
        let gen = TrafficGenerator::new(&infra, TrafficConfig::test_scale(22));
        let funnel = Funnel::new(&infra);
        let collected: Vec<CollectedEmail> = gen
            .generate()
            .into_iter()
            .take(400)
            .map(|e| e.collected)
            .collect();
        let mut state = StreamFunnel::new(&funnel);
        for e in &collected {
            state.absorb(funnel.feature_batch([e]));
        }
        assert_eq!(state.finish(), funnel.classify_all(&collected));
    }
}
