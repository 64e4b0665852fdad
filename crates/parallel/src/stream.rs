//! Streaming fan-out with deterministic reorder-commit.
//!
//! The batch combinators in the crate root materialize their whole input
//! before fanning out — fine for a table of targets, fatal for an
//! open-ended email stream. This module provides the streaming analogue:
//! a producer feeds work units through a [`Bounded`] channel (back
//! pressure, no unbounded buffering), workers map them in parallel, and
//! a sequence-number [`ReorderBuffer`] replays results to a sequential
//! `commit` closure **in input order**. The commit closure therefore
//! observes exactly the sequence a single-threaded loop would produce —
//! the property every downstream consumer (incremental funnel state,
//! storage pipeline, metrics) relies on for byte-identical output at any
//! thread count or channel depth.
//!
//! Memory is bounded by construction: at most `depth` unprocessed items,
//! `workers` in-flight items, and `depth + workers` uncommitted results
//! exist at once, so peak memory is O(workers × depth × unit size)
//! regardless of stream length.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};

/// Process-wide channel depth for [`stream_map`] (work units buffered
/// between the producer and the workers). `0` selects the default.
static STREAM_DEPTH: AtomicUsize = AtomicUsize::new(0);

/// Default channel depth: deep enough to keep workers busy across commit
/// hiccups, shallow enough that a day-sized work unit keeps peak memory
/// far below the materialized batch.
const DEFAULT_STREAM_DEPTH: usize = 64;

/// Sets the channel depth for subsequent [`stream_map`] calls
/// (`0` restores the default). Output never depends on this value —
/// only peak memory and scheduling slack do.
pub fn set_stream_depth(depth: usize) {
    STREAM_DEPTH.store(depth, Ordering::Relaxed);
}

/// The effective channel depth.
pub fn stream_depth() -> usize {
    match STREAM_DEPTH.load(Ordering::Relaxed) {
        0 => DEFAULT_STREAM_DEPTH,
        n => n,
    }
}

struct ChannelState<T> {
    queue: VecDeque<T>,
    closed: bool,
}

/// A bounded MPSC/SPSC channel: `send` blocks while the queue is full
/// (back pressure), `recv` blocks while it is empty, and `close` wakes
/// every waiter so shutdown never hangs.
///
/// Built on `Mutex` + `Condvar` only — the work units here are day-sized
/// batches, so channel overhead is irrelevant and a dependency-free
/// implementation keeps the determinism story auditable.
pub struct Bounded<T> {
    capacity: usize,
    state: Mutex<ChannelState<T>>,
    not_full: Condvar,
    not_empty: Condvar,
}

impl<T> Bounded<T> {
    /// Creates a channel holding at most `capacity` items (min 1).
    pub fn new(capacity: usize) -> Bounded<T> {
        Bounded {
            capacity: capacity.max(1),
            state: Mutex::new(ChannelState {
                queue: VecDeque::new(),
                closed: false,
            }),
            not_full: Condvar::new(),
            not_empty: Condvar::new(),
        }
    }

    /// Poison only means another thread panicked mid-operation; the panic
    /// still propagates through the scope join, so recovering the guard
    /// here never masks a failure.
    fn lock(&self) -> MutexGuard<'_, ChannelState<T>> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Blocks until there is room, then enqueues `item`. Returns `false`
    /// (dropping the item) when the channel closed — the receiving side
    /// is gone and the sender should stop producing.
    pub fn send(&self, item: T) -> bool {
        let mut s = self.lock();
        while s.queue.len() >= self.capacity && !s.closed {
            s = self.not_full.wait(s).unwrap_or_else(|p| p.into_inner());
        }
        if s.closed {
            return false;
        }
        s.queue.push_back(item);
        drop(s);
        self.not_empty.notify_one();
        true
    }

    /// Blocks until an item arrives, returning `None` once the channel is
    /// closed **and** drained.
    pub fn recv(&self) -> Option<T> {
        let mut s = self.lock();
        loop {
            if let Some(item) = s.queue.pop_front() {
                drop(s);
                self.not_full.notify_one();
                return Some(item);
            }
            if s.closed {
                return None;
            }
            s = self.not_empty.wait(s).unwrap_or_else(|p| p.into_inner());
        }
    }

    /// Closes the channel: senders drop further items, receivers drain
    /// what is queued and then see `None`. Idempotent.
    pub fn close(&self) {
        self.lock().closed = true;
        self.not_full.notify_all();
        self.not_empty.notify_all();
    }
}

/// Reassembles out-of-order `(sequence, value)` pairs into the canonical
/// input order: values become ready exactly when every earlier sequence
/// number has been pushed and popped.
pub struct ReorderBuffer<T> {
    next: usize,
    pending: BTreeMap<usize, T>,
}

impl<T> Default for ReorderBuffer<T> {
    fn default() -> Self {
        ReorderBuffer::new()
    }
}

impl<T> ReorderBuffer<T> {
    /// An empty buffer expecting sequence number 0 first.
    pub fn new() -> ReorderBuffer<T> {
        ReorderBuffer {
            next: 0,
            pending: BTreeMap::new(),
        }
    }

    /// Holds a value until its turn comes.
    pub fn push(&mut self, seq: usize, value: T) {
        debug_assert!(seq >= self.next, "sequence {seq} already committed");
        self.pending.insert(seq, value);
    }

    /// The next in-order value, if it has arrived.
    pub fn pop_ready(&mut self) -> Option<(usize, T)> {
        let value = self.pending.remove(&self.next)?;
        let seq = self.next;
        self.next += 1;
        Some((seq, value))
    }

    /// Number of values held out of order.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }
}

/// Closes both pipeline channels when dropped. Normally a no-op (the
/// producer and last worker close them first); if the commit closure
/// panics it unblocks every producer/worker `send` so the thread scope
/// can join and propagate the panic instead of deadlocking.
struct CloseOnDrop<'c, A, B> {
    input: &'c Bounded<A>,
    output: &'c Bounded<B>,
}

impl<A, B> Drop for CloseOnDrop<'_, A, B> {
    fn drop(&mut self) {
        self.input.close();
        self.output.close();
    }
}

/// Streams `items` through a parallel map with sequential, in-order
/// commit — the streaming analogue of [`par_map`](crate::par_map).
///
/// A producer thread pulls from the iterator and feeds a [`Bounded`]
/// channel of depth [`stream_depth()`]; [`threads()`](crate::threads)
/// workers apply `f` (which receives the item's sequence number, so
/// callers can derive per-unit RNG streams); the calling thread replays
/// results through a [`ReorderBuffer`] and hands each to `commit` in
/// input order. `commit` runs strictly sequentially on the caller's
/// thread, so it may hold `&mut` state without synchronization.
///
/// With `threads() <= 1` everything runs inline on the caller's thread —
/// no channels, no producer thread — and the deterministic workload
/// counters (`parallel.stream.{calls,items}`) fire identically on both
/// paths, so metrics snapshots never depend on the thread count.
pub fn stream_map<T, R, I, F, C>(items: I, f: F, mut commit: C)
where
    T: Send,
    R: Send,
    I: IntoIterator<Item = T>,
    I::IntoIter: Send,
    F: Fn(usize, T) -> R + Sync,
    C: FnMut(usize, R),
{
    let workers = crate::threads();
    let depth = stream_depth();
    ets_obs::metrics::counter_add("parallel.stream.calls", 1);
    let mut span = ets_obs::span::enter_at("parallel.stream", ets_obs::Level::Debug);
    span.arg("workers", workers as u64);
    span.arg("depth", depth as u64);
    if workers <= 1 {
        let mut n = 0u64;
        for (seq, item) in items.into_iter().enumerate() {
            commit(seq, f(seq, item));
            n += 1;
        }
        ets_obs::metrics::counter_add("parallel.stream.items", n);
        span.arg("items", n);
        return;
    }
    let parent = span.id();
    // Results may arrive up to `depth + workers` positions early, so the
    // output channel is sized to hold them all: a worker never blocks on
    // a result the committer is not yet allowed to take.
    let input: Bounded<(usize, T)> = Bounded::new(depth);
    let output: Bounded<(usize, R)> = Bounded::new(depth + workers);
    let active = AtomicUsize::new(workers);
    let iter = items.into_iter();
    let mut committed = 0u64;
    std::thread::scope(|scope| {
        let (input, output, f, active) = (&input, &output, &f, &active);
        scope.spawn(move || {
            for pair in iter.enumerate() {
                if !input.send(pair) {
                    break; // committer gone (panic path) — stop producing
                }
            }
            input.close();
        });
        for w in 0..workers {
            scope.spawn(move || {
                let mut span = ets_obs::span::worker("parallel.worker", parent, w);
                let mut items_done = 0u64;
                while let Some((seq, item)) = input.recv() {
                    let result = f(seq, item);
                    items_done += 1;
                    if !output.send((seq, result)) {
                        break;
                    }
                }
                if active.fetch_sub(1, Ordering::AcqRel) == 1 {
                    output.close();
                }
                span.arg("items", items_done);
                // Fold this worker's metric shard before the scope
                // joins (see par_map in lib.rs).
                ets_obs::metrics::retire_local();
            });
        }
        let _guard = CloseOnDrop { input, output };
        let mut buffer = ReorderBuffer::new();
        while let Some((seq, result)) = output.recv() {
            buffer.push(seq, result);
            while let Some((ready, result)) = buffer.pop_ready() {
                commit(ready, result);
                committed += 1;
            }
        }
        debug_assert_eq!(buffer.pending(), 0, "results stranded out of order");
    });
    ets_obs::metrics::counter_add("parallel.stream.items", committed);
    span.arg("items", committed);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::lock;

    fn collect_stream(threads: usize, depth: usize, n: usize) -> Vec<(usize, u64)> {
        crate::set_threads(threads);
        set_stream_depth(depth);
        let mut out = Vec::new();
        stream_map(
            (0..n).map(|i| i as u64),
            |seq, x| x * 3 + seq as u64,
            |seq, r| out.push((seq, r)),
        );
        crate::set_threads(0);
        set_stream_depth(0);
        out
    }

    #[test]
    fn commits_in_order_at_any_thread_count_and_depth() {
        let _guard = lock();
        let expected = collect_stream(1, 0, 1000);
        assert!(expected
            .iter()
            .enumerate()
            .all(|(i, &(s, v))| { s == i && v == 4 * i as u64 }));
        for threads in [2, 3, 8] {
            for depth in [1, 7, 1024] {
                assert_eq!(
                    collect_stream(threads, depth, 1000),
                    expected,
                    "threads={threads} depth={depth}"
                );
            }
        }
    }

    #[test]
    fn empty_and_single_streams() {
        let _guard = lock();
        assert!(collect_stream(4, 2, 0).is_empty());
        assert_eq!(collect_stream(4, 2, 1), vec![(0, 0)]);
    }

    #[test]
    fn stream_counters_are_thread_count_invariant() {
        let _guard = lock();
        let snapshot_for = |threads: usize| {
            ets_obs::metrics::reset();
            let _ = collect_stream(threads, 4, 257);
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
    fn bounded_channel_backpressure_and_close() {
        let ch: Bounded<u32> = Bounded::new(2);
        assert!(ch.send(1));
        assert!(ch.send(2));
        std::thread::scope(|scope| {
            let h = scope.spawn(|| ch.send(3)); // blocks: full
            assert_eq!(ch.recv(), Some(1));
            assert!(h.join().unwrap());
        });
        ch.close();
        assert!(!ch.send(9), "send after close is rejected");
        assert_eq!(ch.recv(), Some(2));
        assert_eq!(ch.recv(), Some(3), "queued items survive close");
        assert_eq!(ch.recv(), None);
    }

    #[test]
    fn reorder_buffer_replays_canonical_order() {
        let mut buf = ReorderBuffer::new();
        buf.push(2, "c");
        buf.push(0, "a");
        assert_eq!(buf.pop_ready(), Some((0, "a")));
        assert_eq!(buf.pop_ready(), None); // 1 missing
        assert_eq!(buf.pending(), 1);
        buf.push(1, "b");
        assert_eq!(buf.pop_ready(), Some((1, "b")));
        assert_eq!(buf.pop_ready(), Some((2, "c")));
        assert_eq!(buf.pop_ready(), None);
    }

    #[test]
    fn commit_sees_sequential_mutable_state() {
        let _guard = lock();
        crate::set_threads(6);
        set_stream_depth(3);
        // A running checksum is order-sensitive: any out-of-order commit
        // changes the result.
        let mut acc = 0u64;
        stream_map(
            0..5_000u64,
            |_, x| x.wrapping_mul(0x9E37_79B9),
            |_, r| acc = acc.rotate_left(7) ^ r,
        );
        crate::set_threads(0);
        set_stream_depth(0);
        let mut want = 0u64;
        for x in 0..5_000u64 {
            want = want.rotate_left(7) ^ x.wrapping_mul(0x9E37_79B9);
        }
        assert_eq!(acc, want);
    }
}
