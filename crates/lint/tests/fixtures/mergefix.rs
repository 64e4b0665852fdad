//! Fixture: `non-commutative-merge` (deny tier).
//! (Not compiled — consumed by crates/lint/tests/fixtures.rs.)

pub struct BadAcc {
    pub total: u64,
    pub sum_ratio: f64,
    pub items: Vec<u32>,
}

impl BadAcc {
    pub fn merge(&mut self, other: BadAcc) {
        self.total += other.total;
        self.total -= 1; //~ non-commutative-merge
        self.sum_ratio += other.sum_ratio * 0.5; //~ non-commutative-merge
        self.items.extend(other.items); //~ non-commutative-merge
    }
}

pub struct GoodAcc {
    pub total: u64,
    pub items: Vec<u32>,
}

impl GoodAcc {
    // Integer addition commutes, and the concatenation is pinned by the
    // deterministic sort before the accumulator leaves the merge.
    pub fn merge(&mut self, other: GoodAcc) {
        self.total += other.total;
        self.items.extend(other.items);
        self.items.sort_unstable();
    }
}

pub struct Hist {
    pub counts: Vec<u64>,
}

impl Hist {
    pub fn absorb(&mut self, other: &Hist) {
        for (i, v) in other.counts.iter().enumerate() {
            self.counts[i] += v;
        }
    }
}

// The contract binds `merge`/`absorb` by name; other fns may rebalance.
pub fn rebalance(acc: &mut BadAcc) {
    acc.total -= 1;
}

pub struct Pinned {
    pub log: Vec<u32>,
}

impl Pinned {
    pub fn absorb(&mut self, epoch: Vec<u32>) {
        // ets-lint: allow(non-commutative-merge): the caller commits epochs in canonical order
        self.log.extend(epoch);
    }
}
