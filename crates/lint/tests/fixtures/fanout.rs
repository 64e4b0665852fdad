//! Fixture: `shared-mutation-in-fanout` (deny tier).
//! (Not compiled — consumed by crates/lint/tests/fixtures.rs.)

pub fn bad_captured_accumulate(items: &[u32]) -> u32 {
    let mut total = 0;
    par_map(items, |x| {
        total += x; //~ shared-mutation-in-fanout
        x
    });
    total
}

pub fn bad_captured_push(items: &[u32]) -> Vec<u32> {
    let mut out = Vec::new();
    par_map(items, |x| {
        out.push(x + 1); //~ shared-mutation-in-fanout
        x
    });
    out
}

pub fn bad_lock_in_worker(items: &[u32], shared: &Mutex<Vec<u32>>) {
    par_map_index(items.len(), |i| {
        shared.lock().unwrap().push(items[i]); //~ shared-mutation-in-fanout
    });
}

pub fn bad_atomic_rmw(items: &[u32], hits: &AtomicU64) {
    stream_map(
        items.len(),
        |i| {
            hits.fetch_add(1, Ordering::Relaxed); //~ shared-mutation-in-fanout
            items[i]
        },
        |_i, x| drop(x),
    );
}

// Commit closures run one at a time, in index order, on the worker
// that computed the result, under the stream's lock; `&mut` captures
// there are the sanctioned pattern, not a race.
pub fn good_commit_phase_mutation(items: &[u32]) -> Vec<u32> {
    let mut out = Vec::new();
    stream_map(
        items.len(),
        |i| items[i] * 2,
        |_i, v| {
            out.push(v);
        },
    );
    out
}

// In one `stream_map` call the worker is checked and the commit is not.
pub fn bad_stream_worker_beside_good_commit(items: &[u32]) -> u32 {
    let mut seen = Vec::new();
    let mut total = 0;
    stream_map(
        items.len(),
        |i| {
            seen.push(i); //~ shared-mutation-in-fanout
            items[i]
        },
        |_i, x| total += x,
    );
    total
}

// State the worker binds itself is private per-item scratch.
pub fn good_worker_local_state(items: &[u32]) -> Vec<u32> {
    par_map(items, |x| {
        let mut local = Vec::new();
        local.push(x);
        local.sort_unstable();
        local.truncate(1);
        local[0]
    })
}

// A two-parameter worker's nested closure writing the worker's own
// local: the comma in `|i, x|` must not make the nested closure a
// worker of its own.
pub fn good_two_param_worker_nested_local(items: &[u32], v: &[u32]) -> Vec<u32> {
    par_map(items, |i, x| {
        let mut acc = 0;
        v.iter().for_each(|y| acc += y);
        acc + x + i as u32
    })
}

// The same shape writing a captured outer variable still fires.
pub fn bad_two_param_worker_nested_capture(items: &[u32], v: &[u32]) -> u32 {
    let mut total = 0;
    par_map(items, |i, x| {
        v.iter().for_each(|y| total += y); //~ shared-mutation-in-fanout
        x + i as u32
    });
    total
}

pub fn good_pragma(items: &[u32]) -> u32 {
    let mut seen = 0;
    par_map(items, |x| {
        // ets-lint: allow(shared-mutation-in-fanout): fixture-only justification
        seen += 1;
        x + seen
    });
    seen
}
