//! Frequent simple-path patterns — the minimal constraint-satisfying
//! patterns of the skinny constraint.
//!
//! A [`PathPattern`] is a labeled path (vertex label sequence plus edge label
//! sequence) together with the list of its occurrences in the data.  Patterns
//! are stored in a canonical orientation (the smaller of the forward and
//! reversed label sequences) so each undirected path pattern has exactly one
//! representation, and each undirected occurrence is stored exactly once.

use serde::{Deserialize, Serialize};
use skinny_graph::hash::spread;
use skinny_graph::{FxHasher, GraphView, Label, LabeledGraph, OccurrenceStore, SupportMeasure, VertexId};

/// True when the reversed orientation of `(vertex_labels, edge_labels)` is
/// strictly smaller than the forward one — the canonical-orientation test,
/// computed by paired iteration without materializing the reversal.
fn reversed_is_smaller(vertex_labels: &[Label], edge_labels: &[Label]) -> bool {
    use std::cmp::Ordering;
    match vertex_labels.iter().rev().cmp(vertex_labels.iter()) {
        Ordering::Less => true,
        Ordering::Greater => false,
        Ordering::Equal => edge_labels.iter().rev().cmp(edge_labels.iter()) == Ordering::Less,
    }
}

/// The canonical identity of a labeled path: vertex labels and edge labels in
/// canonical orientation.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct PathKey {
    /// Vertex labels along the path (length = edges + 1).
    pub vertex_labels: Vec<Label>,
    /// Edge labels along the path (length = edges).
    pub edge_labels: Vec<Label>,
}

impl PathKey {
    /// Builds the canonical key from a directed label sequence, returning the
    /// key and whether the sequence had to be reversed to reach canonical
    /// orientation.
    pub fn canonical(mut vertex_labels: Vec<Label>, mut edge_labels: Vec<Label>) -> (PathKey, bool) {
        let reversed = reversed_is_smaller(&vertex_labels, &edge_labels);
        if reversed {
            vertex_labels.reverse();
            edge_labels.reverse();
        }
        (PathKey { vertex_labels, edge_labels }, reversed)
    }

    /// Path length in edges.
    pub fn len(&self) -> usize {
        self.edge_labels.len()
    }

    /// True for the degenerate empty key.
    pub fn is_empty(&self) -> bool {
        self.vertex_labels.is_empty()
    }

    /// True when the key reads the same forwards and backwards, in which case
    /// occurrences additionally need an id-based orientation rule.
    pub fn is_palindromic(&self) -> bool {
        self.vertex_labels.iter().rev().eq(self.vertex_labels.iter())
            && self.edge_labels.iter().rev().eq(self.edge_labels.iter())
    }
}

/// A frequent simple-path pattern with its occurrences.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PathPattern {
    /// Canonical identity of the path.
    pub key: PathKey,
    /// Occurrences in columnar layout, one row per undirected occurrence in
    /// the data; the vertex sequence of each row reads in the key's canonical
    /// orientation (palindromic keys use the smaller vertex-id sequence).
    pub embeddings: OccurrenceStore,
}

impl PathPattern {
    /// Creates an empty pattern for a key.
    pub fn new(key: PathKey) -> Self {
        let arity = key.vertex_labels.len();
        PathPattern { key, embeddings: OccurrenceStore::new(arity) }
    }

    /// Path length in edges.
    pub fn len(&self) -> usize {
        self.key.len()
    }

    /// True for a pattern with no occurrence recorded.
    pub fn is_empty(&self) -> bool {
        self.embeddings.is_empty()
    }

    /// Support of the pattern under the chosen measure.
    pub fn support(&self, measure: SupportMeasure) -> usize {
        self.embeddings.support(measure)
    }

    /// Adds an occurrence given as a *directed* vertex sequence in
    /// transaction `t` whose labels follow `reversed == false` forward /
    /// `reversed == true` backward relative to the canonical key.  The
    /// occurrence is re-oriented into canonical form before storage.
    pub fn add_occurrence(&mut self, t: usize, vertices: Vec<VertexId>, reversed: bool) {
        self.add_occurrence_slice(t, &vertices, reversed);
    }

    /// [`PathPattern::add_occurrence`] over a borrowed vertex slice — the hot
    /// joins' form: any required re-orientation happens while writing into
    /// the columnar arena, so no intermediate `Vec` is ever allocated.
    pub fn add_occurrence_slice(&mut self, t: usize, vertices: &[VertexId], reversed: bool) {
        let flip = if self.key.is_palindromic() {
            // palindromic pattern: both orientations match the key, pick the
            // id-smaller one so each undirected occurrence is stored once
            vertices.iter().rev().lt(vertices.iter())
        } else {
            reversed
        };
        if flip {
            self.embeddings.push_row_reversed(t, vertices);
        } else {
            self.embeddings.push_row(t, vertices);
        }
    }

    /// Removes exact duplicate occurrences (same transaction and vertex
    /// sequence).
    pub fn dedup(&mut self) {
        self.embeddings.dedup_exact();
    }

    /// [`PathPattern::dedup`] with caller-provided (reused) scratch buffers.
    pub fn dedup_with(&mut self, scratch: &mut skinny_graph::SupportScratch) {
        self.embeddings.dedup_exact_with(scratch);
    }

    /// Materializes the pattern as a standalone path-shaped [`LabeledGraph`]
    /// whose vertices `0..=len` carry the canonical labels in order.
    pub fn to_graph(&self) -> LabeledGraph {
        let mut g = LabeledGraph::with_capacity(self.key.vertex_labels.len());
        for &l in &self.key.vertex_labels {
            g.add_vertex(l);
        }
        for (i, &el) in self.key.edge_labels.iter().enumerate() {
            g.add_edge(VertexId(i as u32), VertexId(i as u32 + 1), el)
                .expect("sequential path edges are always valid");
        }
        g
    }

    /// Builds the canonical key and orientation flag for a directed
    /// occurrence read off any graph view.
    pub fn key_of_occurrence<G: GraphView>(graph: &G, vertices: &[VertexId]) -> (PathKey, bool) {
        let vlabels: Vec<Label> = vertices.iter().map(|&v| graph.label(v)).collect();
        let elabels: Vec<Label> = vertices
            .windows(2)
            .map(|w| graph.edge_label(w[0], w[1]).unwrap_or(Label::DEFAULT_EDGE))
            .collect();
        PathKey::canonical(vlabels, elabels)
    }
}

/// The raw [`FxHasher`] state of a label sequence: the vertex labels, then
/// the edge labels.  Over a canonical key it is the key's hash in every
/// Stage-I table; the ladder join composes the same value from per-parent
/// piece hashes without walking the labels.
pub(crate) fn label_hash(vertex_labels: &[Label], edge_labels: &[Label]) -> u64 {
    let mut h = FxHasher::default();
    for l in vertex_labels.iter().chain(edge_labels) {
        h.add(u64::from(l.0));
    }
    h.raw()
}

/// The dense id of the slot appended after `len` existing ones.
///
/// # Panics
/// Panics when `len` reaches `u32::MAX`: a [`KeyTable`] bucket stores the
/// id plus one in 32 bits, so a larger table would alias slots.
pub(crate) fn slot_id(len: usize) -> u32 {
    u32::try_from(len).ok().filter(|&id| id < u32::MAX).expect("pattern slot id overflows the u32 key table")
}

/// The one flat hashed key table of Stage I: an open-addressing index from
/// 64-bit key hashes to dense slot ids.
///
/// Each bucket is one `u64`: the top 32 bits of the [`spread`] hash and
/// `slot + 1` (zero marks an empty bucket).  Probing is linear from the
/// bucket the hash's top bits select; the table doubles at half load and
/// re-places every bucket from its own stored bits, so growing never
/// re-hashes a key and no bucket owns a heap allocation.  Key equality is
/// the caller's: a probe offers every slot whose stored bits match to an
/// `eq` closure, so the keys themselves can live anywhere — owned
/// [`PathKey`]s in a [`PatternTable`], or, in the ladder join, the parents'
/// label sequences a product slot is read off.
#[derive(Debug, Clone, Default)]
pub(crate) struct KeyTable {
    buckets: Vec<u64>,
    len: usize,
}

impl KeyTable {
    /// The bucket a stored tag starts probing at in a table of `2^bits`.
    #[inline]
    fn start(tag: u32, bits: u32) -> usize {
        (tag as usize) >> (32 - bits)
    }

    /// The slot of the key hashing to `hash` for which `eq` holds, or —
    /// when there is none — `next`, inserted; the flag is `true` for an
    /// insert.  The caller appends slot `next` exactly when it is inserted.
    #[inline]
    pub(crate) fn intern(&mut self, hash: u64, next: u32, mut eq: impl FnMut(u32) -> bool) -> (u32, bool) {
        if (self.len + 1) * 2 > self.buckets.len() {
            self.grow();
        }
        let tag = (spread(hash) >> 32) as u32;
        let mask = self.buckets.len() - 1;
        let mut i = Self::start(tag, self.buckets.len().trailing_zeros());
        loop {
            let bucket = self.buckets[i];
            if bucket == 0 {
                self.buckets[i] = (u64::from(tag) << 32) | u64::from(next + 1);
                self.len += 1;
                return (next, true);
            }
            if (bucket >> 32) as u32 == tag && eq(bucket as u32 - 1) {
                return (bucket as u32 - 1, false);
            }
            i = (i + 1) & mask;
        }
    }

    /// Doubles the bucket array, re-placing each bucket by its stored tag.
    fn grow(&mut self) {
        let cap = (self.buckets.len() * 2).max(16);
        let old = std::mem::replace(&mut self.buckets, vec![0; cap]);
        let (bits, mask) = (cap.trailing_zeros(), cap - 1);
        for bucket in old.into_iter().filter(|&b| b != 0) {
            let mut i = Self::start((bucket >> 32) as u32, bits);
            while self.buckets[i] != 0 {
                i = (i + 1) & mask;
            }
            self.buckets[i] = bucket;
        }
    }

    /// Heap footprint of the buckets in bytes.
    fn heap_bytes(&self) -> usize {
        self.buckets.capacity() * std::mem::size_of::<u64>()
    }
}

/// An interning pattern table — the level-1 accumulator of Stage I (the
/// seed walk, its shard merge and the maintained table of
/// `StageOne`).
///
/// Patterns occupy dense slots in **sequential first-occurrence order**,
/// indexed by a `KeyTable` over the key's label hash: a lookup over *borrowed*
/// label slices is one hash and one probe, a full label comparison confirms
/// the slot, and only a *new* pattern allocates (its key and its store).
/// Merging another table moves its patterns in, rows and keys alike.
#[derive(Debug, Clone, Default)]
pub struct PatternTable {
    /// Patterns in first-occurrence order.
    slots: Vec<PathPattern>,
    /// Key hash → slot index.
    lookup: KeyTable,
}

impl PatternTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        PatternTable::default()
    }

    /// Number of distinct patterns interned.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when no pattern has been interned.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The slot index of the canonical key given as borrowed label slices,
    /// and whether it is new — in which case the caller pushes its pattern.
    fn locate(&mut self, vertex_labels: &[Label], edge_labels: &[Label]) -> (usize, bool) {
        let slots = &self.slots;
        let (i, new) =
            self.lookup.intern(label_hash(vertex_labels, edge_labels), slot_id(slots.len()), |i| {
                let key = &slots[i as usize].key;
                key.vertex_labels == vertex_labels && key.edge_labels == edge_labels
            });
        (i as usize, new)
    }

    /// The pattern slot of the canonical key given as borrowed label slices,
    /// created empty on first occurrence (the only point that allocates).
    pub fn slot_for(&mut self, vertex_labels: &[Label], edge_labels: &[Label]) -> &mut PathPattern {
        let (i, new) = self.locate(vertex_labels, edge_labels);
        if new {
            self.slots.push(PathPattern::new(PathKey {
                vertex_labels: vertex_labels.to_vec(),
                edge_labels: edge_labels.to_vec(),
            }));
        }
        &mut self.slots[i]
    }

    /// Interns `pattern` by its key: an unseen key moves the whole pattern
    /// in as a new slot (no key copy), a known key with rows combines the
    /// pattern's rows into its slot with `combine`.
    fn absorb(&mut self, pattern: PathPattern, combine: fn(&mut OccurrenceStore, OccurrenceStore)) {
        let (i, new) = self.locate(&pattern.key.vertex_labels, &pattern.key.edge_labels);
        if new {
            self.slots.push(pattern);
            return;
        }
        let slot = &mut self.slots[i];
        if slot.embeddings.is_empty() {
            *slot = pattern;
        } else {
            combine(&mut slot.embeddings, pattern.embeddings);
        }
    }

    /// Merges `other` into this table **in `other`'s slot order**, appending
    /// occurrence lists of shared patterns — the parallel joins' chunk-order
    /// merge, which keeps every pattern's occurrence order identical to the
    /// sequential run.
    pub fn merge(&mut self, other: PatternTable) {
        for pattern in other.slots {
            self.absorb(pattern, OccurrenceStore::append);
        }
    }

    /// Clears every slot's occurrence rows while keeping the interned keys,
    /// slot order and lookup structure — a warm accumulator for repeated
    /// shard merges over same-shaped corpora.  Re-merging partials whose
    /// keys are already interned performs no heap allocation (pinned in
    /// `tests/alloc_hot_loops.rs`).
    pub fn reset_rows(&mut self) {
        for slot in &mut self.slots {
            let arity = slot.key.vertex_labels.len();
            slot.embeddings.reset(arity);
        }
    }

    /// Consumes the table, returning the patterns in first-occurrence order.
    pub fn into_patterns(self) -> Vec<PathPattern> {
        self.slots
    }

    /// Clones only the slots whose support reaches `sigma`, in
    /// first-occurrence order, leaving the table intact.  This is the σ-
    /// filter hoisted in front of the clone: every support measure counts
    /// *distinct* images, so the duplicate rows finalization later drops
    /// never change a slot's verdict, and the slots skipped here are exactly
    /// those the post-clone filter would discard.  It keeps each read of the
    /// maintained level-1 table (per refresh or index update) proportional
    /// to the frequent set, not to the corpus: the σ-pruned kernel rejects
    /// the (many) sparse slots on their row count alone.
    pub fn clone_frequent(&self, sigma: usize, support: SupportMeasure) -> Vec<PathPattern> {
        let mut scratch = skinny_graph::SupportScratch::new();
        self.slots
            .iter()
            .filter(|p| p.embeddings.support_pruned(support, sigma, &mut scratch) >= sigma)
            .cloned()
            .collect()
    }

    /// Drops every occurrence row of the transactions in `drop` (ascending,
    /// deduplicated), preserving slot order and each slot's remaining row
    /// order.  Slots whose occurrence list becomes empty stay interned
    /// (their rows may come back on a later refresh), so the slot/lookup
    /// structure never changes.  The maintained tables hold each slot's rows
    /// in transaction order, so slots without a dropped transaction are
    /// rejected by binary search without touching a row (see
    /// [`OccurrenceStore::remove_transactions_sorted`]).
    pub fn remove_transactions(&mut self, drop: &[u32]) {
        for slot in &mut self.slots {
            slot.embeddings.remove_transactions_sorted(drop);
        }
    }

    /// Merges a re-seeded partial into the maintained table, restoring each
    /// shared slot's **sequential row order** by transaction-sorted
    /// two-pointer merge (see [`OccurrenceStore::merge_by_transaction`]).
    /// Both tables must hold rows in nondecreasing transaction order per
    /// slot, which holds for tables produced by transaction-ascending seeding.
    pub fn merge_by_transaction(&mut self, other: PatternTable) {
        for pattern in other.slots {
            self.absorb(pattern, OccurrenceStore::merge_by_transaction);
        }
    }

    /// Heap footprint of the table in bytes: every slot's key labels and
    /// occurrence arena plus the key table's buckets (capacity-based,
    /// mirroring `CsrSnapshot::heap_bytes`).
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        let slots: usize = self
            .slots
            .iter()
            .map(|p| {
                p.key.vertex_labels.capacity() * size_of::<Label>()
                    + p.key.edge_labels.capacity() * size_of::<Label>()
                    + p.embeddings.heap_bytes()
            })
            .sum();
        slots + self.slots.capacity() * size_of::<PathPattern>() + self.lookup.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l(x: u32) -> Label {
        Label(x)
    }

    #[test]
    fn canonical_key_picks_smaller_orientation() {
        let (key, reversed) = PathKey::canonical(vec![l(3), l(1), l(0)], vec![l(0), l(0)]);
        assert!(reversed);
        assert_eq!(key.vertex_labels, vec![l(0), l(1), l(3)]);
        let (key2, reversed2) = PathKey::canonical(vec![l(0), l(1), l(3)], vec![l(0), l(0)]);
        assert!(!reversed2);
        assert_eq!(key, key2);
    }

    #[test]
    fn canonical_key_considers_edge_labels() {
        // vertex labels palindromic, edge labels break the tie
        let (key, reversed) = PathKey::canonical(vec![l(0), l(1), l(0)], vec![l(5), l(2)]);
        assert!(reversed);
        assert_eq!(key.edge_labels, vec![l(2), l(5)]);
    }

    #[test]
    fn palindromic_detection() {
        let (key, _) = PathKey::canonical(vec![l(0), l(1), l(0)], vec![l(2), l(2)]);
        assert!(key.is_palindromic());
        let (key, _) = PathKey::canonical(vec![l(0), l(1), l(2)], vec![l(0), l(0)]);
        assert!(!key.is_palindromic());
        assert_eq!(key.len(), 2);
        assert!(!key.is_empty());
    }

    #[test]
    fn add_occurrence_reorients() {
        let (key, _) = PathKey::canonical(vec![l(0), l(1), l(2)], vec![l(0), l(0)]);
        let mut p = PathPattern::new(key);
        // a reversed occurrence gets flipped into canonical orientation
        p.add_occurrence(0, vec![VertexId(9), VertexId(5), VertexId(3)], true);
        assert_eq!(p.embeddings.row(0), &[VertexId(3), VertexId(5), VertexId(9)]);
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn palindromic_occurrences_stored_once() {
        let (key, _) = PathKey::canonical(vec![l(1), l(1)], vec![l(0)]);
        assert!(key.is_palindromic());
        let mut p = PathPattern::new(key);
        p.add_occurrence(0, vec![VertexId(4), VertexId(2)], false);
        p.add_occurrence(0, vec![VertexId(2), VertexId(4)], false);
        p.dedup();
        assert_eq!(p.embeddings.len(), 1);
        assert_eq!(p.embeddings.row(0), &[VertexId(2), VertexId(4)]);
    }

    #[test]
    fn support_measures_delegate() {
        let (key, _) = PathKey::canonical(vec![l(0), l(1)], vec![l(0)]);
        let mut p = PathPattern::new(key);
        p.add_occurrence(0, vec![VertexId(0), VertexId(1)], false);
        p.add_occurrence(1, vec![VertexId(2), VertexId(3)], false);
        assert_eq!(p.embeddings.len(), 2);
        assert_eq!(p.embeddings.to_embedding_set().distinct_vertex_sets(), 2);
        assert_eq!(p.support(SupportMeasure::MinimumImage), 2);
        assert_eq!(p.support(SupportMeasure::Transactions), 2);
        assert!(!p.is_empty());
    }

    #[test]
    fn to_graph_builds_a_path() {
        let (key, _) = PathKey::canonical(vec![l(0), l(1), l(2)], vec![l(7), l(8)]);
        let p = PathPattern::new(key);
        let g = p.to_graph();
        assert_eq!(g.vertex_count(), 3);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.label(VertexId(1)), l(1));
        assert_eq!(g.edge_label(VertexId(0), VertexId(1)), Some(l(7)));
        assert_eq!(g.edge_label(VertexId(1), VertexId(2)), Some(l(8)));
    }

    #[test]
    fn retain_and_merge_by_transaction_restore_sequential_row_order() {
        // Build a table with rows from transactions 0,1,2 in one slot.
        let vl = [l(0), l(1)];
        let el = [l(0)];
        let mut table = PatternTable::new();
        for (t, base) in [(0usize, 0u32), (1, 10), (2, 20)] {
            table.slot_for(&vl, &el).add_occurrence(t, vec![VertexId(base), VertexId(base + 1)], false);
        }
        // Dirty transaction 1: drop its rows, re-seed them, stitch back.
        table.remove_transactions(&[1]);
        assert_eq!(table.slots[0].embeddings.len(), 2);
        let mut partial = PatternTable::new();
        partial.slot_for(&vl, &el).add_occurrence(1, vec![VertexId(77), VertexId(78)], false);
        // A brand-new pattern appearing only in the dirty transaction.
        partial.slot_for(&[l(5), l(5)], &el).add_occurrence(1, vec![VertexId(3), VertexId(4)], false);
        table.merge_by_transaction(partial);
        // Shared slot rows are back in ascending transaction order.
        let rows: Vec<usize> = table.slots[0].embeddings.iter().map(|r| r.transaction).collect();
        assert_eq!(rows, vec![0, 1, 2]);
        assert_eq!(table.slots[0].embeddings.row(1), &[VertexId(77), VertexId(78)]);
        // New pattern got its own slot; empty slots stay interned.
        assert_eq!(table.len(), 2);
        table.remove_transactions(&[0, 1]);
        assert_eq!(table.len(), 2);
        let rows: Vec<usize> = table.slots[0].embeddings.iter().map(|r| r.transaction).collect();
        assert_eq!(rows, vec![2]);
        assert!(table.slots[1].is_empty());
        assert!(table.heap_bytes() > 0);
    }

    #[test]
    fn key_of_occurrence_reads_data_labels() {
        let g = LabeledGraph::from_parts(&[l(5), l(1), l(3)], [(0u32, 1u32, l(9)), (1, 2, l(4))]).unwrap();
        let (key, reversed) = PathPattern::key_of_occurrence(&g, &[VertexId(0), VertexId(1), VertexId(2)]);
        // forward labels [5,1,3]; reversed [3,1,5] is smaller
        assert!(reversed);
        assert_eq!(key.vertex_labels, vec![l(3), l(1), l(5)]);
        assert_eq!(key.edge_labels, vec![l(4), l(9)]);
    }

    #[test]
    fn key_table_tells_colliding_keys_apart_and_keeps_slots_through_growth() {
        // 300 distinct keys over 5 hashes: only `eq` separates them
        let keys: Vec<u64> = (0..300).map(|k| k * 7919).collect();
        let mut table = KeyTable::default();
        for (i, &k) in keys.iter().enumerate() {
            let (slot, new) = table.intern(k % 5, slot_id(i), |s| keys[s as usize] == k);
            assert_eq!((slot, new), (i as u32, true));
        }
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(
                table.intern(k % 5, slot_id(keys.len()), |s| keys[s as usize] == k),
                (i as u32, false)
            );
        }
        assert!(table.heap_bytes() >= 2 * keys.len() * 8, "the table stays at most half full");
    }

    #[test]
    fn label_hash_is_a_function_of_the_label_sequence() {
        let h = label_hash(&[l(1), l(2)], &[l(3)]);
        assert_eq!(h, label_hash(&[l(1), l(2)], &[l(3)]));
        assert_ne!(h, label_hash(&[l(1), l(3)], &[l(2)]));
        assert_ne!(label_hash(&[l(0), l(0)], &[l(0)]), label_hash(&[l(0)], &[]));
    }

    #[test]
    #[should_panic(expected = "overflows the u32 key table")]
    fn slot_id_past_u32_panics_instead_of_wrapping() {
        assert_eq!(slot_id(u32::MAX as usize - 1), u32::MAX - 1);
        slot_id(u32::MAX as usize);
    }
}
