//! Fixture: `float-reduction-order`.
//! (Not compiled — consumed by crates/lint/tests/fixtures.rs.)

use ets_parallel::{par_map, par_map_index, stream_map};

pub fn bad_accumulate_inside_index_fanout(xs: &[f64]) -> Vec<f64> {
    par_map_index(xs.len(), |i| {
        let mut acc = 0.0f64;
        for &x in &xs[..=i] {
            acc += x * 1.5; //~ float-reduction-order
        }
        acc
    })
}

pub fn bad_sum_inside_fanout(rows: &[Vec<f64>]) -> Vec<f64> {
    par_map(rows, |_i, row| row.iter().sum::<f64>()) //~ float-reduction-order
}

pub fn good_integer_accumulation(xs: &[u64]) -> Vec<u64> {
    par_map_index(xs.len(), |i| {
        let mut acc = 0u64;
        for &x in &xs[..=i] {
            acc += x;
        }
        acc
    })
}

pub fn good_sequential_commit(xs: &[f64]) -> f64 {
    // The sanctioned shape: parallel-compute per-item values, then a
    // sequential reduction outside the fan-out.
    let per_item = par_map(xs, |_i, &x| x * 1.5);
    per_item.iter().sum::<f64>()
}

pub fn good_stream_commit(xs: &[f64]) -> f64 {
    // `stream_map` commits one at a time, in index order, under the
    // stream's lock (each on the worker that computed the result), so a
    // float total there is reduced in one fixed order.
    let mut total = 0.0f64;
    stream_map(xs.len(), |i| xs[i] * 1.5, |_i, x| total += x);
    total
}

pub fn good_pragma(xs: &[f64]) -> Vec<f64> {
    par_map_index(xs.len(), |i| {
        let mut acc = 0.0f64;
        for &x in &xs[..=i] {
            // ets-lint: allow(float-reduction-order): justified suppression fixture
            acc += x * 1.5;
        }
        acc
    })
}
