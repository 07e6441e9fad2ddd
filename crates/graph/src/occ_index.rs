//! The occurrence join engine substrate: head-vertex posting lists over
//! [`OccurrenceStore`] rows and epoch-stamped scratch tables.
//!
//! Stage I's occurrence-level joins (path concatenation and overlap merge)
//! and Stage II's extension enumeration are the mining hot loops.  This
//! module provides the structures that make their per-row work
//! allocation-free:
//!
//! * [`PrefixIndex`] — posting lists over row ids, grouped by
//!   `(transaction, head vertex)` under a dense key and laid out by one
//!   stable counting sort ([`GroupSorter`]), with the global row order
//!   preserved inside every list.  A lookup is two array reads; a join at a
//!   wider overlap filters the head list by the next overlap vertices.
//! * [`VertexMarks`] / [`VertexSlots`] — dense epoch-stamped tables over data
//!   vertex ids.  Resetting is an epoch bump (O(1)), so per-row distinctness
//!   and reverse-image probes are O(k) array accesses with no clearing cost
//!   and no per-row heap allocation.
//! * [`KeyMarks`] — a hashed epoch-stamped set of composite `u128` keys:
//!   the support kernels' column accumulator and the extension probes'
//!   dedup.
//! * [`JoinScratch`] — the per-worker bundle of reusable buffers the join
//!   bodies thread through their row loop.
//!
//! The design follows the order-preserving-index idea of dynamic query
//! evaluation (Berkholz et al.; Koch & Olteanu): precompute an index whose
//! iteration order equals the naive nested-loop order, then answer each
//! per-row probe in constant time.  Byte-identical output across thread
//! counts falls out of the order preservation.

use crate::graph::VertexId;
use crate::hash::hash_u128;
use crate::occurrence::OccurrenceStore;

/// A dense epoch-stamped vertex set: `O(1)` insert/test over data vertex ids,
/// `O(1)` reset (epoch bump), zero per-reset clearing and — after warm-up —
/// zero allocation.
#[derive(Debug, Clone)]
pub struct VertexMarks {
    /// Current epoch; starts at 1 so zero-initialized stamps are unmarked.
    epoch: u32,
    stamp: Vec<u32>,
}

impl Default for VertexMarks {
    fn default() -> Self {
        VertexMarks { epoch: 1, stamp: Vec::new() }
    }
}

impl VertexMarks {
    /// Creates an empty mark table (grows on demand).
    pub fn new() -> Self {
        VertexMarks::default()
    }

    /// Starts a fresh empty set: O(1) except on epoch wrap-around.
    #[inline]
    pub fn reset(&mut self) {
        if self.epoch == u32::MAX {
            self.stamp.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
    }

    /// Inserts `v`; returns `true` when it was not in the set yet.
    #[inline]
    pub fn mark(&mut self, v: VertexId) -> bool {
        let i = v.index();
        if i >= self.stamp.len() {
            self.stamp.resize((i + 1).next_power_of_two(), 0);
        }
        if self.stamp[i] == self.epoch {
            false
        } else {
            self.stamp[i] = self.epoch;
            true
        }
    }

    /// True when `v` is in the set.
    #[inline]
    pub fn is_marked(&self, v: VertexId) -> bool {
        self.stamp.get(v.index()).is_some_and(|&s| s == self.epoch)
    }
}

/// A dense epoch-stamped map from data vertex id to a `u32` value (the
/// reverse image-of table of an embedding row): `O(1)` set/get, `O(1)` reset.
#[derive(Debug, Default, Clone)]
pub struct VertexSlots {
    marks: VertexMarks,
    value: Vec<u32>,
}

impl VertexSlots {
    /// Creates an empty map (grows on demand).
    pub fn new() -> Self {
        VertexSlots::default()
    }

    /// Starts a fresh empty map.
    #[inline]
    pub fn reset(&mut self) {
        self.marks.reset();
    }

    /// Maps `v` to `value` (last write wins within an epoch).
    #[inline]
    pub fn set(&mut self, v: VertexId, value: u32) {
        self.marks.mark(v);
        let i = v.index();
        if i >= self.value.len() {
            self.value.resize(self.marks.stamp.len(), 0);
        }
        self.value[i] = value;
    }

    /// The value `v` maps to in the current epoch, if any.
    #[inline]
    pub fn get(&self, v: VertexId) -> Option<u32> {
        if self.marks.is_marked(v) {
            Some(self.value[v.index()])
        } else {
            None
        }
    }
}

/// Reusable stable counting-sort grouping: turns a `group id per item` map
/// into CSR-style `(offsets, order)` posting lists whose per-group order is
/// the original item order.
///
/// This is the grouping kernel behind [`PrefixIndex::build`] and the
/// Stage-II extension table: both need "all items of group g, in
/// first-to-last discovery order" without building one `Vec` per group.  The
/// counts buffer is reused across calls, so steady-state grouping allocates
/// only when the output vectors grow.
#[derive(Debug, Default)]
pub struct GroupSorter {
    counts: Vec<u32>,
}

impl GroupSorter {
    /// Creates an empty sorter (buffers grow on first use, then stay).
    pub fn new() -> Self {
        GroupSorter::default()
    }

    /// Groups `0..group_of_item.len()` by `group_of_item[i] < ngroups`.
    ///
    /// On return `offsets` holds `ngroups + 1` exclusive prefix sums and
    /// `order[offsets[g]..offsets[g + 1]]` lists the items of group `g` in
    /// ascending item order (the sort is stable).  Both outputs are
    /// overwritten, not appended to.
    ///
    /// This is a two-pass histogram+scatter kernel: pass one builds the
    /// per-group histogram (and validates every group id), pass two scatters
    /// item indices through per-group cursors.  All buffers are sized up
    /// front — the inner loops perform no `Vec` growth and no bounds-checked
    /// pushes.
    ///
    /// # Panics
    /// Panics when there are more items than `u32` item ids, or when a group
    /// id is `>= ngroups`.
    pub fn group_into(
        &mut self,
        group_of_item: &[u32],
        ngroups: usize,
        offsets: &mut Vec<u32>,
        order: &mut Vec<u32>,
    ) {
        let items = u32::try_from(group_of_item.len()).expect("item count overflows the u32 item ids");
        order.resize(group_of_item.len(), 0);
        self.histogram(group_of_item, ngroups, offsets);
        for (&g, i) in group_of_item.iter().zip(0..items) {
            // SAFETY: `histogram` panicked unless every `g < ngroups`, the
            // cursor for group `g` stays below `offsets[g + 1] <= len`, and
            // `order` was resized to `len` above.
            unsafe {
                let cursor = self.counts.get_unchecked_mut(g as usize);
                *order.get_unchecked_mut(*cursor as usize) = i;
                *cursor += 1;
            }
        }
    }

    /// Like [`GroupSorter::group_into`], but scatters a `Copy` payload per
    /// item directly into grouped position instead of emitting item indices —
    /// one pass of data movement replaces the order-then-gather indirection
    /// when the caller only needs the grouped payloads.
    ///
    /// `payload.len()` must equal `group_of_item.len()`; per-group payload
    /// order is the original item order (stable).
    pub fn scatter_by_group<T: Copy + Default>(
        &mut self,
        group_of_item: &[u32],
        payload: &[T],
        ngroups: usize,
        offsets: &mut Vec<u32>,
        out: &mut Vec<T>,
    ) {
        assert_eq!(group_of_item.len(), payload.len());
        out.resize(payload.len(), T::default());
        self.histogram(group_of_item, ngroups, offsets);
        for (&g, &value) in group_of_item.iter().zip(payload) {
            // SAFETY: same invariants as the scatter in `group_into`.
            unsafe {
                let cursor = self.counts.get_unchecked_mut(g as usize);
                *out.get_unchecked_mut(*cursor as usize) = value;
                *cursor += 1;
            }
        }
    }

    /// Pass one of the kernel: histogram into `counts` (bounds-checked, so a
    /// group id `>= ngroups` panics here rather than corrupting the scatter),
    /// exclusive prefix sums into `offsets` (written by index into a resized
    /// buffer, no per-group push), and `counts` rewound into write cursors.
    fn histogram(&mut self, group_of_item: &[u32], ngroups: usize, offsets: &mut Vec<u32>) {
        self.counts.clear();
        self.counts.resize(ngroups, 0);
        for &g in group_of_item {
            self.counts[g as usize] += 1;
        }
        offsets.resize(ngroups + 1, 0);
        let mut acc = 0u32;
        for (slot, &c) in offsets[..ngroups].iter_mut().zip(&self.counts) {
            *slot = acc;
            acc += c;
        }
        offsets[ngroups] = acc;
        // reuse the counts buffer as the write cursor of each group
        self.counts.copy_from_slice(&offsets[..ngroups]);
    }
}

/// Posting lists over the rows of one [`OccurrenceStore`], grouped by
/// `(transaction, head vertex)` and stored densely — the level-carried join
/// index of the Stage-I ladder.
///
/// Row `i` of transaction `t` gets the key `base[t] + row[0]`, where `base`
/// holds the exclusive prefix sums over transactions of `max head + 1`; one
/// stable counting sort ([`GroupSorter::group_into`]) over those keys lays
/// the posting lists out, so every list keeps the global row order and a
/// lookup is two array reads.  The index is independent of any overlap
/// width: a join at overlap `k` reads the head list of its probing row's
/// suffix start and skips the partners whose next `k − 1` vertices differ,
/// which leaves exactly the naive `(transaction, k-prefix)` group in the same
/// order (property-tested in `crates/graph/tests/occ_index_properties.rs`).
/// All arenas are owned, so a warm rebuild of the same shape allocates
/// nothing (pinned in `tests/alloc_hot_loops.rs` via the ladder-level
/// rebuild).
#[derive(Debug, Default)]
pub struct PrefixIndex {
    /// `base[t]..base[t + 1]` is transaction `t`'s key range (one key per
    /// head vertex id up to its largest head); largest transaction + 2
    /// entries, none for an empty store.
    base: Vec<u32>,
    /// Dense key per row of the last built store.
    key_of_row: Vec<u32>,
    /// Start offset of each key's posting list (`keys + 1` entries).
    offsets: Vec<u32>,
    /// Row ids, grouped by key, global row order inside each key.
    postings: Vec<u32>,
    /// Reused counting-sort kernel for the posting scatter.
    sorter: GroupSorter,
}

impl PrefixIndex {
    /// Creates an empty index (arenas grow on first build, then stay).
    pub fn new() -> Self {
        PrefixIndex::default()
    }

    /// (Re)builds the index over `store`, grouping rows by transaction and
    /// head vertex.  Posting lists keep global row order.  Warm rebuilds of
    /// the same shape allocate nothing.
    ///
    /// # Panics
    /// Panics when the dense key space (the sum over transactions of their
    /// largest head vertex id + 1) does not fit in `u32`.
    pub fn build(&mut self, store: &OccurrenceStore) {
        let rows = store.len();
        // per-transaction key span (largest head + 1), then exclusive prefix
        // sums over it in place
        self.base.clear();
        for i in 0..rows {
            let t = store.transaction(i);
            if t + 1 >= self.base.len() {
                self.base.resize(t + 2, 0);
            }
            let span = store.row(i)[0].0.checked_add(1).expect("head vertex id overflows the key space");
            self.base[t] = self.base[t].max(span);
        }
        let mut acc = 0u32;
        for slot in &mut self.base {
            let span = *slot;
            *slot = acc;
            acc = acc.checked_add(span).expect("(transaction, head) key space exceeds u32");
        }
        self.key_of_row.clear();
        self.key_of_row.extend((0..rows).map(|i| self.base[store.transaction(i)] + store.row(i)[0].0));
        self.sorter.group_into(&self.key_of_row, acc as usize, &mut self.offsets, &mut self.postings);
    }

    /// The posting list (row ids in global row order) of the rows of
    /// `transaction` whose head is `head`; empty for an unknown transaction
    /// or a head past that transaction's range.
    #[inline]
    pub fn postings(&self, transaction: usize, head: VertexId) -> &[u32] {
        let (Some(&lo), Some(&hi)) = (self.base.get(transaction), self.base.get(transaction + 1)) else {
            return &[];
        };
        if head.0 >= hi - lo {
            return &[];
        }
        let key = (lo + head.0) as usize;
        &self.postings[self.offsets[key] as usize..self.offsets[key + 1] as usize]
    }
}

/// A dense epoch-stamped set of `u128` keys (open addressing, linear
/// probing over [`hash_u128`] buckets): `O(1)` insert/test, `O(1)` reset via
/// epoch bump, zero allocation after warm-up.
///
/// It answers for composite keys what [`VertexMarks`] answers for data
/// vertices — "was this key seen in the current epoch", e.g. the `(attach
/// vertex, vertex label, edge label)` triple of a candidate extension or the
/// `(transaction, image)` pair of a minimum-image column — so per-row probe
/// deduplication never touches an ordered container.
#[derive(Debug, Clone)]
pub struct KeyMarks {
    /// Current epoch; starts at 1 so zero-initialized stamps are unmarked.
    epoch: u32,
    stamp: Vec<u32>,
    key: Vec<u128>,
    /// Keys inserted in the current epoch (drives the load-factor growth).
    live: usize,
}

impl Default for KeyMarks {
    fn default() -> Self {
        KeyMarks { epoch: 1, stamp: Vec::new(), key: Vec::new(), live: 0 }
    }
}

impl KeyMarks {
    /// Creates an empty table (it grows on demand).
    pub fn new() -> Self {
        KeyMarks::default()
    }

    /// Starts a fresh empty table: O(1) except on epoch wrap-around.
    pub fn reset(&mut self) {
        if self.epoch == u32::MAX {
            self.stamp.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.live = 0;
    }

    #[inline]
    fn slot(stamp: &[u32], key: &[u128], epoch: u32, k: u128) -> (usize, bool) {
        // the table length is a power of two
        let mask = stamp.len() - 1;
        let mut i = hash_u128(k) as usize & mask;
        loop {
            if stamp[i] != epoch {
                return (i, false);
            }
            if key[i] == k {
                return (i, true);
            }
            i = (i + 1) & mask;
        }
    }

    /// Inserts `k`; returns `true` when it was not in the set yet.
    #[inline]
    pub fn insert(&mut self, k: u128) -> bool {
        if self.stamp.is_empty() || self.live * 8 >= self.stamp.len() * 7 {
            self.grow();
        }
        let (i, present) = Self::slot(&self.stamp, &self.key, self.epoch, k);
        if present {
            return false;
        }
        self.stamp[i] = self.epoch;
        self.key[i] = k;
        self.live += 1;
        true
    }

    /// True when `k` is in the set.
    pub fn contains(&self, k: u128) -> bool {
        !self.stamp.is_empty() && Self::slot(&self.stamp, &self.key, self.epoch, k).1
    }

    /// Doubles the table, re-inserting the current epoch's entries (growth
    /// can strike mid-epoch, so live entries must survive the rehash).
    fn grow(&mut self) {
        let cap = (self.stamp.len() * 2).max(64);
        let old_stamp = std::mem::replace(&mut self.stamp, vec![0; cap]);
        let old_key = std::mem::replace(&mut self.key, vec![0; cap]);
        for (s, k) in old_stamp.into_iter().zip(old_key) {
            if s == self.epoch {
                let (i, present) = Self::slot(&self.stamp, &self.key, self.epoch, k);
                debug_assert!(!present, "rehash re-inserts distinct keys");
                self.stamp[i] = self.epoch;
                self.key[i] = k;
            }
        }
    }
}

/// Per-worker scratch for the occurrence joins: one epoch-mark table plus a
/// reusable row buffer.  Everything is cleared by `O(1)` resets, so a
/// join body that rejects a row touches no allocator at all.
#[derive(Debug, Default)]
pub struct JoinScratch {
    /// Distinctness / membership marks over data vertex ids.
    pub marks: VertexMarks,
    /// Reusable combined-row buffer.
    pub row: Vec<VertexId>,
}

impl JoinScratch {
    /// Creates an empty scratch (buffers grow on first use, then stay).
    pub fn new() -> Self {
        JoinScratch::default()
    }
}

/// True when all vertices of `vs` are distinct — `O(|vs|)` probes against the
/// scratch mark table, no allocation, no sort.
pub fn all_distinct_marked(vs: &[VertexId], marks: &mut VertexMarks) -> bool {
    marks.reset();
    vs.iter().all(|&v| marks.mark(v))
}

/// True when simple directed rows `a` and `b`, whose last and first
/// `overlap` vertices coincide, share no vertex outside that overlap — i.e.
/// `a ++ b[overlap..]` is simple.  `O(|a| + |b|)` probes, no allocation.
pub fn disjoint_except_shared_marked(
    a: &[VertexId],
    b: &[VertexId],
    overlap: usize,
    marks: &mut VertexMarks,
) -> bool {
    debug_assert_eq!(a[a.len() - overlap..], b[..overlap]);
    marks.reset();
    for &v in a {
        marks.mark(v);
    }
    b[overlap..].iter().all(|&v| !marks.is_marked(v))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(ids: &[u32]) -> Vec<VertexId> {
        ids.iter().map(|&i| VertexId(i)).collect()
    }

    fn store() -> OccurrenceStore {
        let mut s = OccurrenceStore::new(3);
        s.push_row(0, &v(&[0, 1, 2]));
        s.push_row(0, &v(&[0, 1, 3]));
        s.push_row(1, &v(&[0, 1, 2]));
        s.push_row(0, &v(&[2, 1, 0]));
        s.push_row(0, &v(&[0, 2, 4]));
        s
    }

    #[test]
    fn postings_group_by_head_in_row_order() {
        let s = store();
        let mut idx = PrefixIndex::new();
        idx.build(&s);
        assert_eq!(idx.postings(0, VertexId(0)), &[0, 1, 4]);
        assert_eq!(idx.postings(1, VertexId(0)), &[2]);
        assert_eq!(idx.postings(0, VertexId(2)), &[3]);
        // a head inside the transaction's range that no row starts at
        assert!(idx.postings(0, VertexId(1)).is_empty());
        // a head past the range, and unknown transactions
        assert!(idx.postings(0, VertexId(9)).is_empty());
        assert!(idx.postings(1, VertexId(2)).is_empty());
        assert!(idx.postings(7, VertexId(0)).is_empty());
    }

    #[test]
    fn empty_store_indexes_fine() {
        let mut idx = PrefixIndex::new();
        idx.build(&OccurrenceStore::new(4));
        assert!(idx.postings(0, VertexId(0)).is_empty());
    }

    #[test]
    #[should_panic(expected = "key space exceeds u32")]
    fn oversized_key_space_panics() {
        let mut s = OccurrenceStore::new(2);
        s.push_row(0, &v(&[u32::MAX - 1, 0]));
        s.push_row(1, &v(&[u32::MAX - 1, 0]));
        PrefixIndex::new().build(&s);
    }

    #[test]
    fn marks_reset_is_cheap_and_correct() {
        let mut m = VertexMarks::new();
        assert!(m.mark(VertexId(3)));
        assert!(!m.mark(VertexId(3)));
        assert!(m.is_marked(VertexId(3)));
        assert!(!m.is_marked(VertexId(4)));
        m.reset();
        assert!(!m.is_marked(VertexId(3)));
        assert!(m.mark(VertexId(3)));
    }

    #[test]
    fn marks_survive_epoch_wraparound() {
        let mut m = VertexMarks::new();
        m.mark(VertexId(1));
        m.epoch = u32::MAX - 1;
        // the stale stamp of vertex 1 must not leak into the next epochs
        m.reset();
        assert!(!m.is_marked(VertexId(1)));
        m.mark(VertexId(2));
        m.reset(); // wraps
        assert!(!m.is_marked(VertexId(1)));
        assert!(!m.is_marked(VertexId(2)));
        assert!(m.mark(VertexId(2)));
    }

    #[test]
    fn slots_map_and_reset() {
        let mut s = VertexSlots::new();
        s.set(VertexId(5), 2);
        s.set(VertexId(0), 7);
        assert_eq!(s.get(VertexId(5)), Some(2));
        assert_eq!(s.get(VertexId(0)), Some(7));
        assert_eq!(s.get(VertexId(1)), None);
        s.set(VertexId(5), 9);
        assert_eq!(s.get(VertexId(5)), Some(9));
        s.reset();
        assert_eq!(s.get(VertexId(5)), None);
    }

    #[test]
    fn group_sorter_is_stable_and_reusable() {
        let mut sorter = GroupSorter::new();
        let mut offsets = Vec::new();
        let mut order = Vec::new();
        sorter.group_into(&[1, 0, 1, 2, 0, 1], 3, &mut offsets, &mut order);
        assert_eq!(offsets, vec![0, 2, 5, 6]);
        assert_eq!(&order[0..2], &[1, 4]);
        assert_eq!(&order[2..5], &[0, 2, 5]);
        assert_eq!(&order[5..6], &[3]);
        // reuse with a different shape overwrites the outputs
        sorter.group_into(&[0, 0], 1, &mut offsets, &mut order);
        assert_eq!(offsets, vec![0, 2]);
        assert_eq!(order, vec![0, 1]);
        sorter.group_into(&[], 0, &mut offsets, &mut order);
        assert_eq!(offsets, vec![0]);
        assert!(order.is_empty());
    }

    #[test]
    fn group_sorter_scatters_payloads_in_stable_order() {
        let mut sorter = GroupSorter::new();
        let mut offsets = Vec::new();
        let mut out = Vec::new();
        let groups = [1u32, 0, 1, 2, 0, 1];
        let payload = [10u32, 11, 12, 13, 14, 15];
        sorter.scatter_by_group(&groups, &payload, 3, &mut offsets, &mut out);
        assert_eq!(offsets, vec![0, 2, 5, 6]);
        assert_eq!(out, vec![11, 14, 10, 12, 15, 13]);
        // reuse with a different shape overwrites the outputs
        sorter.scatter_by_group(&[0, 0], &[7u32, 8], 1, &mut offsets, &mut out);
        assert_eq!(offsets, vec![0, 2]);
        assert_eq!(out, vec![7, 8]);
        sorter.scatter_by_group::<u32>(&[], &[], 0, &mut offsets, &mut out);
        assert_eq!(offsets, vec![0]);
        assert!(out.is_empty());
    }

    #[test]
    fn key_marks_insert_reset_and_grow() {
        let mut m = KeyMarks::new();
        assert!(!m.contains(7));
        assert!(m.insert(7));
        assert!(!m.insert(7));
        assert!(m.contains(7));
        m.reset();
        assert!(!m.contains(7));
        assert!(m.insert(7));
        // push the table through several growths within one epoch
        m.reset();
        for k in 0..500u128 {
            assert!(m.insert(k * 0x1_0000_0001));
        }
        for k in 0..500u128 {
            assert!(!m.insert(k * 0x1_0000_0001), "key {k} must still be present after growth");
        }
        assert!(!m.contains(999 * 0x1_0000_0001));
    }

    #[test]
    fn key_marks_survive_epoch_wraparound() {
        let mut m = KeyMarks::new();
        m.insert(1);
        m.epoch = u32::MAX - 1;
        m.reset();
        assert!(!m.contains(1));
        m.insert(2);
        m.reset(); // wraps
        assert!(!m.contains(1));
        assert!(!m.contains(2));
        assert!(m.insert(2));
    }

    #[test]
    fn distinctness_helpers() {
        let mut marks = VertexMarks::new();
        assert!(all_distinct_marked(&v(&[0, 1, 2]), &mut marks));
        assert!(!all_distinct_marked(&v(&[0, 1, 0]), &mut marks));
        assert!(disjoint_except_shared_marked(&v(&[0, 1, 2]), &v(&[2, 3, 4]), 1, &mut marks));
        assert!(!disjoint_except_shared_marked(&v(&[0, 1, 2]), &v(&[2, 1, 5]), 1, &mut marks));
        assert!(disjoint_except_shared_marked(&v(&[0, 1, 2]), &v(&[1, 2, 3]), 2, &mut marks));
        assert!(!disjoint_except_shared_marked(&v(&[0, 1, 2]), &v(&[1, 2, 0]), 2, &mut marks));
    }
}
