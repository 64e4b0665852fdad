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
//! The worker that computed a result also commits it. Each worker
//! queues its results in claim order, and under the stream's one lock
//! it commits its queue's front whenever that index is the next one
//! due, so commits still run one at a time and in index order, and
//! whatever a commit drops is freed on the thread that allocated it. A
//! calling thread that committed everything would free every result
//! across threads, which glibc's per-thread arenas and caches send down
//! their slow path.
//!
//! Memory is bounded by a claim window: a worker never claims an index
//! `CHUNKS_PER_WORKER × workers` or more past the next one to commit,
//! so at most that many results are claimed but not yet committed,
//! however long the stream.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard};

/// What the workers share, under one lock.
struct State<C> {
    /// The next index a worker claims.
    claimed: usize,
    /// The next index to commit; claims stay below `next + window`.
    next: usize,
    /// A worker unwound: everyone stops.
    failed: bool,
    /// The caller's commit, run only under the lock.
    commit: C,
}

struct Shared<C> {
    state: Mutex<State<C>>,
    /// Signalled when `next` advances or the stream fails.
    turn: Condvar,
}

impl<C> Shared<C> {
    /// Only `commit` can panic under the lock. The index it was
    /// committing unwinds with its worker, so no other worker can commit
    /// before that worker's guard sets `failed`: a poisoned guard is
    /// safe to recover, and the panic propagates through the scope join.
    fn lock(&self) -> MutexGuard<'_, State<C>> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Runs one worker until every index is claimed and its own results
    /// are committed, or the stream failed: commits its queue's front
    /// while that index is due, else claims the next index once it fits
    /// the window and computes it unlocked, else waits for `next` to
    /// advance. Returns the number of indices it computed.
    fn work<R>(&self, n: usize, window: usize, f: &impl Fn(usize) -> R) -> u64
    where
        C: FnMut(usize, R),
    {
        let mut queue: VecDeque<(usize, R)> = VecDeque::new();
        let mut computed = 0u64;
        let mut s = self.lock();
        while !s.failed {
            let due = s.next;
            if queue.front().is_some_and(|&(i, _)| i == due) {
                if let Some((i, result)) = queue.pop_front() {
                    (s.commit)(i, result);
                    s.next += 1;
                    self.turn.notify_all();
                }
            } else if s.claimed < n.min(due + window) {
                let i = s.claimed;
                s.claimed += 1;
                drop(s);
                queue.push_back((i, f(i)));
                computed += 1;
                s = self.lock();
            } else if queue.is_empty() && s.claimed == n {
                break;
            } else {
                s = self.turn.wait(s).unwrap_or_else(|p| p.into_inner());
            }
        }
        computed
    }
}

/// Fails the stream if its worker unwinds, waking every waiter so the
/// scope joins and re-raises the panic instead of hanging.
struct FailOnUnwind<'s, C>(&'s Shared<C>);

impl<C> Drop for FailOnUnwind<'_, C> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.lock().failed = true;
            self.0.turn.notify_all();
        }
    }
}

/// Maps `f` over the indices `0..n` in parallel with sequential,
/// in-order commit — the streaming analogue of
/// [`par_map_index`](crate::par_map_index).
///
/// [`threads()`](crate::threads) workers claim indices in order and
/// apply `f` (the index lets callers derive per-unit RNG streams). Each
/// result is handed to `commit` in index order by the worker that
/// computed it, under the stream's lock, so commits run strictly one at
/// a time and `commit` may hold `&mut` state without synchronization;
/// it must be `Send` because it runs on the workers, while results
/// never leave the thread that made them. A worker waits rather than
/// claim an index `CHUNKS_PER_WORKER × threads()` or more past the next
/// one to commit, which bounds the results held at once. The calling
/// thread only spawns and joins the workers. A panic in `f` or in
/// `commit` stops the workers and propagates to the caller.
///
/// With `threads() <= 1` everything runs inline on the caller's thread,
/// and the deterministic workload counters
/// (`parallel.stream.{calls,items}`) fire identically on both paths, so
/// metrics snapshots never depend on the thread count.
pub fn stream_map<R, F, C>(n: usize, f: F, mut commit: C)
where
    F: Fn(usize) -> R + Sync,
    C: FnMut(usize, R) + Send,
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
            next: 0,
            failed: false,
            commit,
        }),
        turn: Condvar::new(),
    };
    std::thread::scope(|scope| {
        let (shared, f) = (&shared, &f);
        for w in 0..workers.min(n) {
            scope.spawn(move || {
                let _fail = FailOnUnwind(shared);
                let mut span = ets_obs::span::worker("parallel.worker", parent, w);
                let computed = shared.work(n, window, f);
                span.arg("items", computed);
                // Fold this worker's metric shard, its commits' included,
                // before the scope joins (see par_map in lib.rs).
                ets_obs::metrics::retire_local();
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::lock;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::rc::Rc;
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

    #[test]
    fn commits_run_on_the_computing_thread() {
        let _guard = lock();
        for threads in [2, 3, 8] {
            crate::set_threads(threads);
            let mut commits = 0;
            stream_map(
                1_000,
                |_| std::thread::current().id(),
                |i, computed_on| {
                    let here = std::thread::current().id();
                    assert_eq!(here, computed_on, "threads={threads}: index {i}");
                    commits += 1;
                },
            );
            crate::set_threads(0);
            assert_eq!(commits, 1_000, "threads={threads}");
        }
    }

    #[test]
    fn results_need_not_be_send() {
        let _guard = lock();
        crate::set_threads(2);
        let mut out = Vec::new();
        stream_map(500, Rc::new, |i, r: Rc<usize>| out.push((i, *r)));
        crate::set_threads(0);
        assert!(out.iter().enumerate().all(|(k, &(i, r))| k == i && i == r));
        assert_eq!(out.len(), 500);
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
