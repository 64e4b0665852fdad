//! Streaming fan-out with deterministic in-order commit.
//!
//! The batch combinators in the crate root hold every result until the
//! last one is done — fine for a table of targets, too much for a study
//! period of email. This module provides the streaming analogue:
//! [`stream_map`] maps the indices `0..n` on a worker pool and hands
//! each result to a sequential `commit` closure **in index order**. The
//! commit closure therefore observes exactly the sequence a
//! single-threaded loop would produce — the property every downstream
//! consumer (incremental funnel state, storage pipeline, metrics) relies
//! on for byte-identical output at any thread count.
//!
//! Memory is bounded by a claim window: a worker never claims an index
//! more than `CHUNKS_PER_WORKER × workers` past the next one to commit,
//! so at most that many results are claimed but not yet committed,
//! however long the stream.

use std::collections::BTreeMap;
use std::sync::{Condvar, Mutex, MutexGuard};

/// What the workers and the committer share, under one lock.
struct State<R> {
    /// The next index a worker claims.
    claimed: usize,
    /// The next index the committer takes; claims stay below
    /// `taken + window`.
    taken: usize,
    /// Finished results waiting for their turn, by index.
    done: BTreeMap<usize, R>,
    /// A worker or the committer unwound: everyone stops.
    failed: bool,
}

struct Shared<R> {
    state: Mutex<State<R>>,
    /// Signalled when `taken` advances or the stream fails.
    room: Condvar,
    /// Signalled when a result lands in `done` or the stream fails.
    ready: Condvar,
}

impl<R> Shared<R> {
    /// `f` and `commit` run unlocked and nothing under the lock can
    /// panic, so every update leaves the state valid and a poisoned
    /// guard is safe to recover; any panic propagates through the scope
    /// join regardless.
    fn lock(&self) -> MutexGuard<'_, State<R>> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// The next index once it fits the window; `None` when every index
    /// is claimed or the stream failed.
    fn claim(&self, n: usize, window: usize) -> Option<usize> {
        let mut s = self.lock();
        loop {
            if s.failed || s.claimed >= n {
                return None;
            }
            if s.claimed < s.taken + window {
                s.claimed += 1;
                return Some(s.claimed - 1);
            }
            s = self.room.wait(s).unwrap_or_else(|p| p.into_inner());
        }
    }

    /// Blocks until result `i` is done and takes it, opening one more
    /// slot of the window; `None` once the stream failed.
    fn take(&self, i: usize) -> Option<R> {
        let mut s = self.lock();
        let result = loop {
            if s.failed {
                return None;
            }
            if let Some(r) = s.done.remove(&i) {
                break r;
            }
            s = self.ready.wait(s).unwrap_or_else(|p| p.into_inner());
        };
        s.taken = i + 1;
        drop(s);
        self.room.notify_all();
        Some(result)
    }
}

/// Fails the stream if its thread unwinds, waking every waiter so the
/// scope joins and re-raises the panic instead of hanging.
struct FailOnUnwind<'s, R>(&'s Shared<R>);

impl<R> Drop for FailOnUnwind<'_, R> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.lock().failed = true;
            self.0.room.notify_all();
            self.0.ready.notify_all();
        }
    }
}

/// Maps `f` over the indices `0..n` in parallel with sequential,
/// in-order commit — the streaming analogue of
/// [`par_map_index`](crate::par_map_index).
///
/// [`threads()`](crate::threads) workers claim indices in order and
/// apply `f` (the index lets callers derive per-unit RNG streams); the
/// calling thread hands each result to `commit` in index order. A worker
/// waits rather than claim an index `CHUNKS_PER_WORKER × threads()` or
/// more past the next one to commit, which bounds the results held at
/// once. `commit` runs strictly sequentially on the caller's thread, so
/// it may hold `&mut` state without synchronization. A panic in `f` or
/// in `commit` stops the workers and propagates to the caller.
///
/// With `threads() <= 1` everything runs inline on the caller's thread,
/// and the deterministic workload counters
/// (`parallel.stream.{calls,items}`) fire identically on both paths, so
/// metrics snapshots never depend on the thread count.
pub fn stream_map<R, F, C>(n: usize, f: F, mut commit: C)
where
    R: Send,
    F: Fn(usize) -> R + Sync,
    C: FnMut(usize, R),
{
    let workers = crate::threads();
    let window = crate::CHUNKS_PER_WORKER * workers;
    let span = crate::fanout_span("stream", n, workers);
    if workers <= 1 {
        for i in 0..n {
            commit(i, f(i));
        }
        return;
    }
    let parent = span.id();
    let shared = Shared {
        state: Mutex::new(State {
            claimed: 0,
            taken: 0,
            done: BTreeMap::new(),
            failed: false,
        }),
        room: Condvar::new(),
        ready: Condvar::new(),
    };
    std::thread::scope(|scope| {
        let (shared, f) = (&shared, &f);
        for w in 0..workers.min(n) {
            scope.spawn(move || {
                let _fail = FailOnUnwind(shared);
                let mut span = ets_obs::span::worker("parallel.worker", parent, w);
                let mut items_done = 0u64;
                while let Some(i) = shared.claim(n, window) {
                    let result = f(i);
                    items_done += 1;
                    shared.lock().done.insert(i, result);
                    shared.ready.notify_one();
                }
                span.arg("items", items_done);
                // Fold this worker's metric shard before the scope
                // joins (see par_map in lib.rs).
                ets_obs::metrics::retire_local();
            });
        }
        let _fail = FailOnUnwind(shared);
        for i in 0..n {
            // `None`: a worker panicked, and the scope join re-raises it.
            let Some(result) = shared.take(i) else { return };
            commit(i, result);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::lock;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    fn collect_stream(threads: usize, n: usize) -> Vec<(usize, u64)> {
        crate::set_threads(threads);
        let mut out = Vec::new();
        stream_map(n, |i| i as u64 * 4, |i, r| out.push((i, r)));
        crate::set_threads(0);
        out
    }

    #[test]
    fn commits_in_order_at_any_thread_count() {
        let _guard = lock();
        let expected = collect_stream(1, 1000);
        assert!(expected
            .iter()
            .enumerate()
            .all(|(i, &(s, v))| { s == i && v == 4 * i as u64 }));
        for threads in [2, 3, 8] {
            assert_eq!(collect_stream(threads, 1000), expected, "threads={threads}");
        }
    }

    #[test]
    fn empty_and_single_streams() {
        let _guard = lock();
        assert!(collect_stream(4, 0).is_empty());
        assert_eq!(collect_stream(4, 1), vec![(0, 0)]);
    }

    #[test]
    fn stream_counters_are_thread_count_invariant() {
        let _guard = lock();
        let snapshot_for = |threads: usize| {
            ets_obs::metrics::reset();
            let _ = collect_stream(threads, 257);
            ets_obs::metrics::snapshot_json()
        };
        let one = snapshot_for(1);
        for threads in [2, 8] {
            assert_eq!(one, snapshot_for(threads), "threads={threads}");
        }
        assert!(one.contains("parallel.stream.items"));
        ets_obs::metrics::reset();
    }

    #[test]
    fn claims_stay_within_the_window() {
        let _guard = lock();
        for threads in [2, 3, 8] {
            crate::set_threads(threads);
            let committed = AtomicUsize::new(0);
            let max_ahead = AtomicUsize::new(0);
            stream_map(
                2_000,
                |i| {
                    let ahead = i - committed.load(Ordering::SeqCst);
                    max_ahead.fetch_max(ahead, Ordering::SeqCst);
                },
                |_, ()| {
                    committed.fetch_add(1, Ordering::SeqCst);
                },
            );
            crate::set_threads(0);
            let max = max_ahead.into_inner();
            assert!(
                max <= crate::CHUNKS_PER_WORKER * threads,
                "threads={threads}: claimed {max} past the last commit"
            );
        }
    }

    #[test]
    fn commit_sees_sequential_mutable_state() {
        let _guard = lock();
        crate::set_threads(6);
        // A running checksum is order-sensitive: any out-of-order commit
        // changes the result.
        let mut acc = 0u64;
        stream_map(
            5_000,
            |i| (i as u64).wrapping_mul(0x9E37_79B9),
            |_, r| acc = acc.rotate_left(7) ^ r,
        );
        crate::set_threads(0);
        let mut want = 0u64;
        for x in 0..5_000u64 {
            want = want.rotate_left(7) ^ x.wrapping_mul(0x9E37_79B9);
        }
        assert_eq!(acc, want);
    }

    /// Runs `stream_map` at 2 threads on a helper thread and reports
    /// whether it panicked; a hang fails the test after 10 s instead of
    /// stalling the suite.
    fn panics_at_two_threads(f: fn(usize) -> usize, commit: fn(usize, usize)) -> bool {
        let _guard = lock();
        crate::set_threads(2);
        let (tx, rx) = std::sync::mpsc::channel();
        let helper = std::thread::spawn(move || {
            let outcome = catch_unwind(AssertUnwindSafe(|| stream_map(100, f, commit)));
            let _ = tx.send(outcome.is_err());
        });
        let panicked = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("stream_map hung instead of propagating the panic");
        helper.join().expect("catch_unwind holds the panic");
        crate::set_threads(0);
        panicked
    }

    #[test]
    fn a_panicking_worker_propagates() {
        let f = |i: usize| {
            assert_ne!(i, 5, "worker fails at item 5");
            i
        };
        assert!(panics_at_two_threads(f, |_, _| {}));
    }

    #[test]
    fn a_panicking_commit_propagates() {
        let commit = |i: usize, _: usize| assert_ne!(i, 5, "commit fails at item 5");
        assert!(panics_at_two_threads(|i| i, commit));
    }
}
