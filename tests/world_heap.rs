//! Heap budget of the world: what a built world and its snapshot reload
//! hold per ctypo, and how high the build's heap climbs on the way.
//!
//! The world keeps each ctypo once, as an interned name and one row of
//! columns; `World::ctypos` derives every `CtypoInfo` on access instead
//! of storing it. A store of owned rows beside the columns (a 104-byte
//! `CtypoInfo` with two owned names per ctypo) fails both bounds.
//!
//! The counting allocator below sees every allocation of this test
//! binary. With one worker thread the bytes requested repeat exactly
//! from run to run, so the bounds need headroom only for changes to the
//! code, not for noise.

use email_typosquatting::ecosystem::population::{PopulationConfig, World};
use email_typosquatting::ecosystem::snapshot;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// Targets in the measured world: 84,242 ctypos, built in a few seconds
/// by a debug build.
const TARGETS: usize = 5_000;

/// Live heap per ctypo of a built or reloaded world, bytes. Measured at
/// 89 B with the columns alone, and at 209 B with a row store beside
/// them.
const LIVE_BYTES_PER_CTYPO: usize = 110;

/// Heap peak of the build per ctypo of the world it returns, bytes.
/// Measured at 218 B, and at 433 B with a row store beside the columns.
const BUILD_PEAK_BYTES_PER_CTYPO: usize = 265;

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
fn world_heap_stays_within_budget() {
    ets_parallel::set_threads(1);
    let config = PopulationConfig::at_scale(TARGETS, 20160604);
    let base = LIVE.load(Relaxed);
    reset_peak();
    let world = World::build(config);
    let build_peak = PEAK.load(Relaxed) - base;
    let built = LIVE.load(Relaxed) - base;
    let n = world.ctypos.len();
    let reloaded = snapshot::roundtrip_in_memory(&world).expect("snapshot round trip");
    drop(world);
    let reloaded_live = LIVE.load(Relaxed) - base;
    assert_eq!(reloaded.ctypos.len(), n);
    let checks = [
        ("built world, live", built, LIVE_BYTES_PER_CTYPO),
        ("reload, live", reloaded_live, LIVE_BYTES_PER_CTYPO),
        ("build, peak", build_peak, BUILD_PEAK_BYTES_PER_CTYPO),
    ];
    let over: Vec<String> = checks
        .iter()
        .filter(|(_, bytes, bound)| bytes / n > *bound)
        .map(|(what, bytes, bound)| format!("{what}: {} B per ctypo, over {bound} B", bytes / n))
        .collect();
    assert!(over.is_empty(), "{n} ctypos: {over:#?}");
}
