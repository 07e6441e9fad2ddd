//! The occurrence join engine substrate: endpoint-indexed posting lists over
//! [`OccurrenceStore`] rows and epoch-stamped scratch tables.
//!
//! Stage I's occurrence-level joins (path concatenation and overlap merge)
//! and Stage II's extension enumeration are the mining hot loops.  This
//! module provides the two structures that make their per-row work
//! allocation-free:
//!
//! * [`OccurrenceIndex`] — CSR-style posting lists over row ids, grouped by
//!   `(transaction, vertex prefix)` in **first-occurrence order**, with the
//!   global row order preserved inside every group.  One build replaces the
//!   per-join `HashMap<(usize, Vec<VertexId>), Vec<u32>>` (which allocated a
//!   boxed key and a posting vector per distinct endpoint): the prefix keys
//!   are borrowed straight from the store's flat arena and the posting lists
//!   live in one contiguous buffer filled by a stable counting sort.
//! * [`VertexMarks`] / [`VertexSlots`] — dense epoch-stamped tables over data
//!   vertex ids.  Resetting is an epoch bump (O(1)), so per-row distinctness
//!   and reverse-image probes are O(k) array accesses with no clearing cost
//!   and no per-row heap allocation.
//! * [`JoinScratch`] — the per-worker bundle of reusable buffers the join
//!   bodies thread through their row loop.
//!
//! The design follows the order-preserving-index idea of dynamic query
//! evaluation (Berkholz et al.; Koch & Olteanu): precompute an index whose
//! iteration order equals the naive nested-loop order, then answer each
//! per-row probe in constant time.  Byte-identical output across thread
//! counts falls out of the order preservation.

use crate::graph::VertexId;
use crate::label::Label;
use crate::occurrence::OccurrenceStore;
use std::collections::HashMap;

/// CSR-style posting lists over the rows of one [`OccurrenceStore`], grouped
/// by `(transaction, row prefix of a fixed length)`.
///
/// Groups are numbered in first-occurrence order and every posting list keeps
/// the global row order, so iterating a group visits exactly the rows the
/// naive `HashMap<(transaction, prefix), Vec<row>>` grouping would, in the
/// same order.
#[derive(Debug)]
pub struct OccurrenceIndex<'a> {
    /// Prefix length (in vertices) the rows are grouped by.
    prefix_len: usize,
    /// Group id per distinct `(transaction, prefix)`, keyed by slices
    /// borrowed from the store arena (no key cloning).
    groups: HashMap<(u32, &'a [VertexId]), u32>,
    /// Start offset of each group's posting list (`groups + 1` entries).
    offsets: Vec<u32>,
    /// Row ids, grouped by group id, global row order inside each group.
    postings: Vec<u32>,
}

impl<'a> OccurrenceIndex<'a> {
    /// Builds the index grouping the store's rows by transaction and their
    /// first `prefix_len` vertices.
    ///
    /// # Panics
    /// Panics when `prefix_len` is zero or exceeds the store arity (for a
    /// non-empty store).
    pub fn by_prefix(store: &'a OccurrenceStore, prefix_len: usize) -> Self {
        if !store.is_empty() {
            assert!(
                prefix_len >= 1 && prefix_len <= store.arity(),
                "prefix length {prefix_len} out of range for arity {}",
                store.arity()
            );
        }
        let rows = store.len();
        let mut groups: HashMap<(u32, &'a [VertexId]), u32> = HashMap::with_capacity(rows);
        let mut group_of_row: Vec<u32> = Vec::with_capacity(rows);
        let mut ngroups = 0u32;
        for i in 0..rows {
            let key = (store.transaction(i) as u32, &store.row(i)[..prefix_len]);
            let g = *groups.entry(key).or_insert_with(|| {
                let g = ngroups;
                ngroups += 1;
                g
            });
            group_of_row.push(g);
        }
        let mut offsets = Vec::new();
        let mut postings = Vec::new();
        GroupSorter::new().group_into(&group_of_row, ngroups as usize, &mut offsets, &mut postings);
        OccurrenceIndex { prefix_len, groups, offsets, postings }
    }

    /// Prefix length the index groups by.
    #[inline]
    pub fn prefix_len(&self) -> usize {
        self.prefix_len
    }

    /// Number of distinct `(transaction, prefix)` groups.
    #[inline]
    pub fn group_count(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// The posting list (row ids in global row order) of `(transaction,
    /// key)`; empty when the group does not exist.  `key` can be any vertex
    /// slice of the index's prefix length — typically a suffix of another row
    /// — and is only borrowed for the lookup.
    #[inline]
    pub fn postings(&self, transaction: usize, key: &[VertexId]) -> &[u32] {
        debug_assert_eq!(key.len(), self.prefix_len, "lookup key length mismatch");
        match self.groups.get(&(transaction as u32, key)) {
            Some(&g) => {
                let (lo, hi) = (self.offsets[g as usize] as usize, self.offsets[g as usize + 1] as usize);
                &self.postings[lo..hi]
            }
            None => &[],
        }
    }
}

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
/// This is the grouping kernel behind [`OccurrenceIndex::by_prefix`] and the
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
    pub fn group_into(
        &mut self,
        group_of_item: &[u32],
        ngroups: usize,
        offsets: &mut Vec<u32>,
        order: &mut Vec<u32>,
    ) {
        order.resize(group_of_item.len(), 0);
        self.histogram(group_of_item, ngroups, offsets);
        for (i, &g) in group_of_item.iter().enumerate() {
            // SAFETY: `histogram` panicked unless every `g < ngroups`, the
            // cursor for group `g` stays below `offsets[g + 1] <= len`, and
            // `order` was resized to `len` above.
            unsafe {
                let cursor = self.counts.get_unchecked_mut(g as usize);
                *order.get_unchecked_mut(*cursor as usize) = i as u32;
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

/// An **owned** prefix-grouped posting index over [`OccurrenceStore`] rows —
/// the level-carried sibling of [`OccurrenceIndex`].
///
/// Where [`OccurrenceIndex`] borrows its keys from the store (and therefore
/// must be rebuilt from a fresh `HashMap` every time the store it borrows
/// from is replaced), `PrefixIndex` owns all of its arenas: group lookup runs
/// on an epoch-stamped open-addressing table keyed by a multiply-fold hash of
/// `(transaction, prefix)` with collisions verified against each group's
/// **representative row** in the store, so a warm rebuild over a new store
/// touches no allocator at all (pinned in `tests/alloc_hot_loops.rs` via the
/// ladder-level rebuild).  Group ids are assigned in first-occurrence scan
/// order and every posting list keeps the global row order — the same
/// iteration contract as [`OccurrenceIndex::by_prefix`], property-tested
/// byte-identical in `crates/graph/tests/occ_index_properties.rs`.
#[derive(Debug, Default)]
pub struct PrefixIndex {
    /// Prefix length (in vertices) the rows are grouped by.
    prefix_len: usize,
    /// Epoch of the open-addressing table (starts at 1 like [`KeyMarks`]).
    epoch: u32,
    /// Per-slot epoch stamp of the lookup table.
    stamp: Vec<u32>,
    /// Per-slot group id of the lookup table.
    slot_group: Vec<u32>,
    /// Representative (first) row id per group — the collision verifier.
    first_row: Vec<u32>,
    /// Transaction per group (saves re-reading the store on verify).
    group_txn: Vec<u32>,
    /// Group id per row of the last built store.
    group_of_row: Vec<u32>,
    /// Start offset of each group's posting list (`groups + 1` entries).
    offsets: Vec<u32>,
    /// Row ids, grouped by group id, global row order inside each group.
    postings: Vec<u32>,
    /// Reused counting-sort kernel for the posting scatter.
    sorter: GroupSorter,
}

impl PrefixIndex {
    /// Creates an empty index (arenas grow on first build, then stay).
    pub fn new() -> Self {
        PrefixIndex { epoch: 1, ..Default::default() }
    }

    /// Multiply-fold hash of a `(transaction, prefix)` key.
    #[inline]
    fn hash_key(transaction: u32, prefix: &[VertexId]) -> u64 {
        let mut h = (transaction as u64).wrapping_add(0x9e37_79b9_7f4a_7c15);
        for &v in prefix {
            h = (h ^ v.0 as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        }
        h ^ (h >> 32)
    }

    /// (Re)builds the index over `store`, grouping rows by transaction and
    /// their first `prefix_len` vertices.  Group numbering is
    /// first-occurrence scan order, posting lists keep global row order.
    /// Warm rebuilds (table already sized for the row count) allocate
    /// nothing.
    ///
    /// # Panics
    /// Panics when `prefix_len` is zero or exceeds the store arity (for a
    /// non-empty store).
    pub fn build(&mut self, store: &OccurrenceStore, prefix_len: usize) {
        if !store.is_empty() {
            assert!(
                prefix_len >= 1 && prefix_len <= store.arity(),
                "prefix length {prefix_len} out of range for arity {}",
                store.arity()
            );
        }
        self.prefix_len = prefix_len;
        let rows = store.len();
        // size the lookup table for the worst case (every row its own group)
        // up front, so the insert loop never rehashes mid-build
        let cap = (rows * 2).next_power_of_two().max(64);
        if self.stamp.len() < cap {
            self.stamp.clear();
            self.stamp.resize(cap, 0);
            self.slot_group.resize(cap, 0);
            self.epoch = 1;
        } else if self.epoch == u32::MAX {
            self.stamp.fill(0);
            self.epoch = 1;
        } else {
            self.epoch += 1;
        }
        self.first_row.clear();
        self.group_txn.clear();
        self.group_of_row.clear();
        let mask = self.stamp.len() - 1;
        for i in 0..rows {
            let t = store.transaction(i) as u32;
            let prefix = &store.row(i)[..prefix_len];
            let mut s = (Self::hash_key(t, prefix) as usize) & mask;
            let g = loop {
                if self.stamp[s] != self.epoch {
                    // first occurrence of this (transaction, prefix)
                    let g = self.first_row.len() as u32;
                    self.stamp[s] = self.epoch;
                    self.slot_group[s] = g;
                    self.first_row.push(i as u32);
                    self.group_txn.push(t);
                    break g;
                }
                let g = self.slot_group[s];
                if self.group_txn[g as usize] == t
                    && &store.row(self.first_row[g as usize] as usize)[..prefix_len] == prefix
                {
                    break g;
                }
                s = (s + 1) & mask;
            };
            self.group_of_row.push(g);
        }
        self.sorter.group_into(
            &self.group_of_row,
            self.first_row.len(),
            &mut self.offsets,
            &mut self.postings,
        );
    }

    /// Prefix length the index groups by.
    #[inline]
    pub fn prefix_len(&self) -> usize {
        self.prefix_len
    }

    /// Number of distinct `(transaction, prefix)` groups.
    #[inline]
    pub fn group_count(&self) -> usize {
        self.first_row.len()
    }

    /// The posting list (row ids in global row order) of `(transaction,
    /// key)` in `store` — which must be the store the index was built over;
    /// empty when the group does not exist.  `key` can be any vertex slice of
    /// the index's prefix length, typically a suffix of another row.
    #[inline]
    pub fn postings<'s>(
        &'s self,
        store: &OccurrenceStore,
        transaction: usize,
        key: &[VertexId],
    ) -> &'s [u32] {
        debug_assert_eq!(key.len(), self.prefix_len, "lookup key length mismatch");
        if self.stamp.is_empty() {
            return &[];
        }
        let t = transaction as u32;
        let mask = self.stamp.len() - 1;
        let mut s = (Self::hash_key(t, key) as usize) & mask;
        loop {
            if self.stamp[s] != self.epoch {
                return &[];
            }
            let g = self.slot_group[s] as usize;
            if self.group_txn[g] == t && &store.row(self.first_row[g] as usize)[..self.prefix_len] == key {
                let (lo, hi) = (self.offsets[g] as usize, self.offsets[g + 1] as usize);
                return &self.postings[lo..hi];
            }
            s = (s + 1) & mask;
        }
    }
}

/// A dense epoch-stamped `u64 → u32` memo table (open addressing, linear
/// probing): `O(1)` get/insert, `O(1)` reset via epoch bump, zero allocation
/// after warm-up.
///
/// This is the Stage-I joins' **pattern-pair memo**: every directed
/// occurrence row's label sequence is fully determined by its source
/// `(pattern, direction)`, so all join products of one source pair share one
/// canonical key — the memo caches `(packed source pair) → (pattern slot,
/// orientation)` so only the *first* product of a pair pays label assembly,
/// canonicalization and the interning hash; every later product is routed to
/// its slot by one probe of this table.
#[derive(Debug, Clone)]
pub struct PairMemo {
    /// Current epoch; starts at 1 so zero-initialized stamps are unmarked.
    epoch: u32,
    stamp: Vec<u32>,
    key: Vec<u64>,
    value: Vec<u32>,
    /// Entries inserted in the current epoch (drives load-factor growth).
    live: usize,
}

impl Default for PairMemo {
    fn default() -> Self {
        PairMemo { epoch: 1, stamp: Vec::new(), key: Vec::new(), value: Vec::new(), live: 0 }
    }
}

impl PairMemo {
    /// Creates an empty memo (the table grows on demand).
    pub fn new() -> Self {
        PairMemo::default()
    }

    /// Starts a fresh empty memo: O(1) except on epoch wrap-around.
    pub fn reset(&mut self) {
        if self.epoch == u32::MAX {
            self.stamp.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.live = 0;
    }

    #[inline]
    fn slot(stamp: &[u32], key: &[u64], epoch: u32, k: u64) -> (usize, bool) {
        let mask = stamp.len() - 1;
        let h = k.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let mut i = (h >> 32) as usize & mask;
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

    /// The memoized value of `k` in the current epoch, if any.
    #[inline]
    pub fn get(&self, k: u64) -> Option<u32> {
        if self.stamp.is_empty() {
            return None;
        }
        let (i, present) = Self::slot(&self.stamp, &self.key, self.epoch, k);
        present.then(|| self.value[i])
    }

    /// Memoizes `k → value` (first write wins within an epoch).
    pub fn insert(&mut self, k: u64, value: u32) {
        if self.stamp.is_empty() || self.live * 8 >= self.stamp.len() * 7 {
            self.grow();
        }
        let (i, present) = Self::slot(&self.stamp, &self.key, self.epoch, k);
        if present {
            return;
        }
        self.stamp[i] = self.epoch;
        self.key[i] = k;
        self.value[i] = value;
        self.live += 1;
    }

    /// Doubles the table, re-inserting the current epoch's entries.
    fn grow(&mut self) {
        let cap = (self.stamp.len() * 2).max(64);
        let old_stamp = std::mem::replace(&mut self.stamp, vec![0; cap]);
        let old_key = std::mem::replace(&mut self.key, vec![0; cap]);
        let old_value = std::mem::replace(&mut self.value, vec![0; cap]);
        for ((s, k), v) in old_stamp.into_iter().zip(old_key).zip(old_value) {
            if s == self.epoch {
                let (i, present) = Self::slot(&self.stamp, &self.key, self.epoch, k);
                debug_assert!(!present, "rehash re-inserts distinct keys");
                self.stamp[i] = self.epoch;
                self.key[i] = k;
                self.value[i] = v;
            }
        }
    }
}

/// A dense epoch-stamped set of `u128` keys (open addressing, linear
/// probing): `O(1)` insert/test, `O(1)` reset via epoch bump, zero
/// allocation after warm-up.
///
/// Where [`VertexMarks`] answers "was this *data vertex* seen in the current
/// row", `KeyMarks` answers the same question for composite keys — e.g. the
/// `(attach vertex, vertex label, edge label)` triple of a candidate
/// extension, packed into one `u128` — so per-row probe deduplication never
/// touches an ordered container.
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
    /// Creates an empty set (the table grows on demand).
    pub fn new() -> Self {
        KeyMarks::default()
    }

    /// Starts a fresh empty set: O(1) except on epoch wrap-around.
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
        // multiply-fold hash of both halves; the table length is a power of two
        let mask = stamp.len() - 1;
        let h = ((k as u64) ^ (k >> 64) as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let mut i = (h >> 32) as usize & mask;
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
        if self.stamp.is_empty() {
            return false;
        }
        Self::slot(&self.stamp, &self.key, self.epoch, k).1
    }

    /// Doubles the table, re-inserting the current epoch's keys (growth can
    /// strike mid-epoch, so live entries must survive the rehash).
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

/// Per-worker scratch for the occurrence joins: one epoch-mark table plus
/// reusable row/label buffers.  Everything is cleared by `O(1)` resets, so a
/// join body that rejects a row touches no allocator at all.
#[derive(Debug, Default)]
pub struct JoinScratch {
    /// Distinctness / membership marks over data vertex ids.
    pub marks: VertexMarks,
    /// Reusable combined-row buffer.
    pub row: Vec<VertexId>,
    /// Reusable vertex-label buffer of the combined row.
    pub vertex_labels: Vec<Label>,
    /// Reusable edge-label buffer of the combined row.
    pub edge_labels: Vec<Label>,
    /// Pattern-pair interning memo for the Stage-I join kernels.
    pub pair_memo: PairMemo,
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
    fn postings_group_by_prefix_in_row_order() {
        let s = store();
        let idx = OccurrenceIndex::by_prefix(&s, 2);
        assert_eq!(idx.prefix_len(), 2);
        assert_eq!(idx.group_count(), 4);
        assert_eq!(idx.postings(0, &v(&[0, 1])), &[0, 1]);
        assert_eq!(idx.postings(1, &v(&[0, 1])), &[2]);
        assert_eq!(idx.postings(0, &v(&[2, 1])), &[3]);
        assert_eq!(idx.postings(0, &v(&[0, 2])), &[4]);
        assert!(idx.postings(0, &v(&[9, 9])).is_empty());
        assert!(idx.postings(7, &v(&[0, 1])).is_empty());
    }

    #[test]
    fn head_index_is_a_length_one_prefix() {
        let s = store();
        let idx = OccurrenceIndex::by_prefix(&s, 1);
        assert_eq!(idx.postings(0, &v(&[0])), &[0, 1, 4]);
        assert_eq!(idx.postings(0, &v(&[2])), &[3]);
        // a lookup key borrowed from another row's suffix works
        let row = s.row(3);
        assert_eq!(idx.postings(0, &row[2..]), &[0, 1, 4]);
    }

    #[test]
    fn empty_store_indexes_fine() {
        let s = OccurrenceStore::new(4);
        let idx = OccurrenceIndex::by_prefix(&s, 2);
        assert_eq!(idx.group_count(), 0);
        assert!(idx.postings(0, &v(&[0, 1])).is_empty());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn oversized_prefix_panics() {
        let s = store();
        let _ = OccurrenceIndex::by_prefix(&s, 4);
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
