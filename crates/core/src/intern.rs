//! Interned domain table: `u32` symbols over a contiguous byte arena.
//!
//! The measurement pipeline touches the same domain names millions of
//! times — every candidate lookup, ownership query, and funnel pass
//! re-hashes a heap-allocated `String`. [`DomainInterner`] stores each
//! distinct name once in a single arena and hands out a copyable
//! [`DomainId`]; lookups are a hash probe over arena slices (no per-query
//! allocation), and materializing a [`DomainName`] back out skips the
//! full parser via the crate-internal validated-parts fast path.
//!
//! The probe table is one open-addressing `Vec<u32>` of ids. A name's
//! 32-bit key (its FNV-1a hash, halves folded together) picks its home
//! slot by a multiply-shift, and probing walks forward slot by slot
//! until it meets the name or an empty slot. A column keeps every
//! name's key, so a probe compares arena bytes only for an id whose key
//! matches, and growing re-homes ids from the keys without reading the
//! arena. The table doubles before it passes half load, so every probe
//! ends at an empty slot within a few steps, and neither an intern nor
//! a lookup allocates per name.
//!
//! Ids are assigned densely in first-intern order, so an interner doubles
//! as a stable index: `id.index()` addresses parallel side tables (the
//! ecosystem's ctypo records, the reverse DL-1 index's target lists).

use crate::domain::DomainName;

/// Symbol for an interned domain name. Copyable, 4 bytes, ordered by
/// first-intern order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DomainId(u32);

impl DomainId {
    /// The dense index of this id (0-based, first-intern order) for
    /// addressing side tables.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// FNV-1a over a byte slice — the workspace's standard cheap stable hash
/// (same constants as the collector's funnel). Deterministic across runs
/// and platforms.
pub(crate) fn fnv1a(seed: u64, bytes: &[u8]) -> u64 {
    let mut hash = seed;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x100000001b3);
    }
    hash
}

/// FNV-1a offset basis: the seed for a fresh hash.
pub(crate) const FNV_OFFSET: u64 = 0xcbf29ce484222325;

/// Marks a free slot of the probe table. No id reaches it: every name
/// takes at least three arena bytes, and arena offsets are `u32`.
const EMPTY: u32 = u32::MAX;

/// Slots in the smallest non-empty probe table.
const MIN_SLOTS: usize = 16;

/// A name's probe key: its FNV-1a hash with the high half folded into
/// the low half. On its own, the low half depends only on the low bits
/// of the bytes hashed.
fn key(name: &str) -> u32 {
    let hash = fnv1a(FNV_OFFSET, name.as_bytes());
    (hash ^ (hash >> 32)) as u32
}

/// The slot where probing for `key` starts in a table of `slots` slots
/// (a power of two, at least [`MIN_SLOTS`]): the top bits of the key's
/// product with the 64-bit golden ratio.
fn home(key: u32, slots: usize) -> usize {
    (u64::from(key).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - slots.trailing_zeros())) as usize
}

/// An append-only table of distinct domain names backed by one `String`
/// arena.
#[derive(Debug, Default, Clone)]
pub struct DomainInterner {
    /// All names concatenated; name `i` spans `ends[i-1]..ends[i]`.
    arena: String,
    /// End offset of each name in `arena`.
    ends: Vec<u32>,
    /// Per-name offset of the sld/tld separator dot, relative to the
    /// name's start (mirrors `DomainName`'s `sld_end`).
    sld_ends: Vec<u32>,
    /// Per-name probe [`key`].
    keys: Vec<u32>,
    /// Open-addressing probe table: each slot holds an id or [`EMPTY`].
    /// Its length is zero or a power of two more than twice [`len`], so
    /// every probe meets an empty slot.
    ///
    /// [`len`]: DomainInterner::len
    slots: Vec<u32>,
}

impl DomainInterner {
    /// An empty interner.
    pub fn new() -> DomainInterner {
        DomainInterner::default()
    }

    /// An empty interner with room for roughly `names` domains of
    /// `mean_len` bytes each.
    pub fn with_capacity(names: usize, mean_len: usize) -> DomainInterner {
        let mut table = DomainInterner {
            arena: String::with_capacity(names * mean_len),
            ends: Vec::with_capacity(names),
            sld_ends: Vec::with_capacity(names),
            keys: Vec::with_capacity(names),
            slots: Vec::new(),
        };
        table.reserve_slots(names);
        table
    }

    /// Number of distinct names interned.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    fn span(&self, index: usize) -> (usize, usize) {
        let start = if index == 0 {
            0
        } else {
            self.ends[index - 1] as usize
        };
        (start, self.ends[index] as usize)
    }

    /// Grows the probe table, if needed, so that it stays under half
    /// load with `names` names in it, and re-homes every interned id.
    fn reserve_slots(&mut self, names: usize) {
        if names == 0 || names * 2 < self.slots.len() {
            return;
        }
        let len = (names * 2 + 1).next_power_of_two().max(MIN_SLOTS);
        let mut slots = vec![EMPTY; len];
        for (id, &key) in self.keys.iter().enumerate() {
            let mut slot = home(key, len);
            while slots[slot] != EMPTY {
                slot = (slot + 1) & (len - 1);
            }
            slots[slot] = id as u32;
        }
        self.slots = slots;
    }

    /// Probes for `name`, whose key is `key`: its id, or the empty slot
    /// that ends its probe. The table must be non-empty.
    fn probe(&self, name: &str, key: u32) -> Result<DomainId, usize> {
        let mask = self.slots.len() - 1;
        let mut slot = home(key, self.slots.len());
        loop {
            match self.slots[slot] {
                EMPTY => return Err(slot),
                id if self.keys[id as usize] == key && self.name(DomainId(id)) == name => {
                    return Ok(DomainId(id))
                }
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    /// Interns `domain`, returning its (possibly pre-existing) id.
    pub fn intern(&mut self, domain: &DomainName) -> DomainId {
        let name = domain.as_str();
        let key = key(name);
        self.reserve_slots(self.ends.len() + 1);
        let slot = match self.probe(name, key) {
            Ok(id) => return id,
            Err(slot) => slot,
        };
        let id = self.ends.len() as u32;
        let start = self.arena.len();
        self.arena.push_str(name);
        self.ends.push(self.arena.len() as u32);
        let sld_end = name.rfind('.').expect("valid domain has a dot");
        self.sld_ends.push((start + sld_end) as u32);
        self.keys.push(key);
        self.slots[slot] = id;
        DomainId(id)
    }

    /// Looks up an already-interned name without allocating.
    pub fn lookup(&self, name: &str) -> Option<DomainId> {
        if self.slots.is_empty() {
            return None;
        }
        self.probe(name, key(name)).ok()
    }

    /// The full name of `id` as a borrowed arena slice.
    pub fn name(&self, id: DomainId) -> &str {
        let (start, end) = self.span(id.index());
        &self.arena[start..end]
    }

    /// The second-level label of `id` (what typo generation mutates).
    pub fn sld(&self, id: DomainId) -> &str {
        let (start, _) = self.span(id.index());
        let head = &self.arena[start..self.sld_ends[id.index()] as usize];
        match head.rfind('.') {
            Some(i) => &head[i + 1..],
            None => head,
        }
    }

    /// The public suffix of `id`.
    pub fn tld(&self, id: DomainId) -> &str {
        let (_, end) = self.span(id.index());
        &self.arena[self.sld_ends[id.index()] as usize + 1..end]
    }

    /// Materializes `id` as an owned [`DomainName`] via the validated
    /// fast path — no re-parse, one allocation.
    pub fn domain(&self, id: DomainId) -> DomainName {
        let (start, _) = self.span(id.index());
        let name = self.name(id).to_owned();
        let sld_end = self.sld_ends[id.index()] as usize - start;
        DomainName::from_validated_parts(name, sld_end)
    }

    /// Ids in first-intern order.
    pub fn ids(&self) -> impl Iterator<Item = DomainId> {
        (0..self.ends.len() as u32).map(DomainId)
    }

    /// The id at dense `index` (0-based, first-intern order), if any.
    pub fn id_at(&self, index: usize) -> Option<DomainId> {
        (index < self.ends.len()).then_some(DomainId(index as u32))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn d(s: &str) -> DomainName {
        s.parse().expect("valid")
    }

    #[test]
    fn intern_is_idempotent_and_dense() {
        let mut table = DomainInterner::new();
        let a = table.intern(&d("gmail.com"));
        let b = table.intern(&d("outlook.com"));
        let a2 = table.intern(&d("gmail.com"));
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(a.index(), 0);
        assert_eq!(b.index(), 1);
        assert_eq!(table.len(), 2);
    }

    #[test]
    fn accessors_match_domain_name() {
        let mut table = DomainInterner::new();
        for name in ["gmail.com", "smtp.verizon.net", "a-b.org"] {
            let dom = d(name);
            let id = table.intern(&dom);
            assert_eq!(table.name(id), dom.as_str());
            assert_eq!(table.sld(id), dom.sld());
            assert_eq!(table.tld(id), dom.tld());
            assert_eq!(table.domain(id), dom);
        }
    }

    #[test]
    fn lookup_finds_only_interned() {
        let mut table = DomainInterner::new();
        let id = table.intern(&d("hotmail.com"));
        assert_eq!(table.lookup("hotmail.com"), Some(id));
        assert_eq!(table.lookup("hotmai1.com"), None);
    }

    #[test]
    fn ids_iterate_in_intern_order() {
        let mut table = DomainInterner::new();
        let names = ["x.com", "y.com", "z.com"];
        for name in names {
            table.intern(&d(name));
        }
        let round_trip: Vec<String> = table.ids().map(|id| table.name(id).to_owned()).collect();
        assert_eq!(round_trip, names);
    }

    #[test]
    fn default_table_is_empty_and_misses() {
        let table = DomainInterner::default();
        assert!(table.is_empty());
        assert_eq!(table.lookup("gmail.com"), None);
        assert_eq!(table.lookup(""), None);
        assert_eq!(table.ids().count(), 0);
        assert_eq!(table.id_at(0), None);
    }

    /// Two names whose probe keys are equal share a home slot and pass
    /// the key check, so only the byte comparison tells them apart.
    #[test]
    fn equal_keys_stay_distinct_names() {
        let (a, b) = ("k23059.com", "k128544.com");
        assert_eq!(key(a), key(b));
        let mut table = DomainInterner::new();
        let ia = table.intern(&d(a));
        assert_eq!(table.lookup(b), None);
        let ib = table.intern(&d(b));
        assert_ne!(ia, ib);
        assert_eq!(table.lookup(a), Some(ia));
        assert_eq!(table.lookup(b), Some(ib));
        assert_eq!(table.name(ib), b);
    }

    proptest::proptest! {
        /// Interning and lookups agree with a `HashMap` oracle. Names
        /// come from a small alphabet, so draws repeat; up to 240
        /// distinct names take a table from empty (or presized) through
        /// several doublings; probes mix hits and misses.
        #[test]
        fn interner_matches_hashmap_oracle(
            slds in proptest::collection::vec("[a-c]{1,4}", 0..400),
            tlds in proptest::collection::vec("[cn]o", 400..401),
            probes in proptest::collection::vec("[a-d]{1,4}\\.[cnx]o", 0..60),
            presized: bool,
        ) {
            let mut table = if presized {
                DomainInterner::with_capacity(slds.len(), 7)
            } else {
                DomainInterner::default()
            };
            let mut oracle: HashMap<String, u32> = HashMap::new();
            let mut first_order: Vec<String> = Vec::new();
            for (sld, tld) in slds.iter().zip(&tlds) {
                let name = format!("{sld}.{tld}");
                let next = oracle.len() as u32;
                let want = *oracle.entry(name.clone()).or_insert_with(|| {
                    first_order.push(name.clone());
                    next
                });
                let id = table.intern(&d(&name));
                proptest::prop_assert!(id.index() as u32 == want, "{name}: {id:?} != {want}");
            }
            proptest::prop_assert_eq!(table.len(), oracle.len());
            for (name, &id) in &oracle {
                let found = table.lookup(name).map(|i| i.index() as u32);
                proptest::prop_assert!(found == Some(id), "{name}: {found:?} != {id}");
                proptest::prop_assert_eq!(table.name(DomainId(id)), name.as_str());
            }
            for probe in &probes {
                let found = table.lookup(probe).map(|i| i.index() as u32);
                let want = oracle.get(probe).copied();
                proptest::prop_assert!(found == want, "{probe}: {found:?} != {want:?}");
            }
            let dense: Vec<&str> = table.ids().map(|id| table.name(id)).collect();
            proptest::prop_assert_eq!(dense, first_order.iter().map(String::as_str).collect::<Vec<_>>());
        }
    }
}
