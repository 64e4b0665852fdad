//! Heap budget of the streaming collection: how high the heap climbs,
//! per email, while a study period streams through `stream_collect` and
//! the funnel's `finish`.
//!
//! Between absorbing an email and `finish`, the funnel keeps only what
//! layers 3–5 can still read: the email's layer-1/2 verdict (one byte),
//! a 40-byte record if it survived layers 1–2, its keys in the layer-3
//! spam sets if it did not, and its counts in the layer-5 frequency
//! tables. A funnel that keeps every email's 64-byte `EmailFeatures`
//! until `finish` fails the bound.
//!
//! At 2 threads the same stream also holds the days `stream_map`'s
//! claim window has in flight, up to 16, each a day's emails and their
//! features, queued on the worker that generated them until that
//! worker commits them in turn. A stream that kept each committed day's
//! emails until it returned would hold the whole corpus, and fails the
//! 2-thread bound.
//!
//! The counting allocator below sees every allocation of this test
//! binary, so the two streams run one after the other in one test. With
//! one worker thread the bytes requested repeat exactly from run to run,
//! so that bound needs headroom only for changes to the code, not for
//! noise; at 2 threads the peak depends on how many days are in flight.

use email_typosquatting::collector::traffic::GenEmail;
use email_typosquatting::collector::{
    stream_collect, CollectionInfra, Funnel, TrafficConfig, TrafficGenerator,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// Heap peak of one streamed study period per email at 1 thread, bytes:
/// the default traffic at seed 1 (spam scale 1/1000, 69,733 emails).
/// Measured at 67 B, and at 143 B with every email's features kept until
/// `finish`.
const PEAK_BYTES_PER_EMAIL: usize = 84;

/// The same at 2 threads. Measured at 70–93 B over 30 release runs
/// with each day committed by the worker that generated it (73–136 B
/// when the calling thread committed every day), and at 887 B with
/// every committed day's emails kept until `stream_collect` returns.
const PEAK_BYTES_PER_EMAIL_2_THREADS: usize = 200;

/// Bytes currently allocated, and the most allocated at once since
/// [`reset_peak`].
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// The system allocator, counting the bytes each call requests.
struct Counting;

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the counters only observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            if new_size >= layout.size() {
                grow(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Relaxed);
            }
        }
        p
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

fn reset_peak() {
    PEAK.store(LIVE.load(Relaxed), Relaxed);
}

#[test]
fn funnel_heap_stays_within_budget() {
    let infra = CollectionInfra::build();
    let config = TrafficConfig {
        seed: 1,
        ..TrafficConfig::default()
    };
    let gen = TrafficGenerator::new(&infra, config);
    let funnel = Funnel::new(&infra);
    for (threads, bound) in [
        (1, PEAK_BYTES_PER_EMAIL),
        (2, PEAK_BYTES_PER_EMAIL_2_THREADS),
    ] {
        ets_parallel::set_threads(threads);
        let base = LIVE.load(Relaxed);
        reset_peak();
        // A discarding sink: what stays is what the funnel keeps.
        let state = stream_collect(&gen, &funnel, &mut |_: GenEmail| {});
        let n = state.emails();
        let verdicts = state.finish();
        let peak = PEAK.load(Relaxed) - base;
        assert_eq!(verdicts.len(), n);
        assert!(
            peak / n <= bound,
            "{n} emails at {threads} threads: heap peak {} B per email, over {bound} B",
            peak / n
        );
    }
}
