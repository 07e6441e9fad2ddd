//! Columnar occurrence storage — the structure-of-arrays replacement for
//! `Vec<Embedding>` on the mining hot paths.
//!
//! An [`OccurrenceStore`] holds every occurrence of one pattern as rows of a
//! single flat vertex arena plus a parallel transaction column.  All rows of
//! a store share one arity (the pattern's vertex count), so row `i` is the
//! arena slice `[i * arity, (i + 1) * arity)` — no per-occurrence heap
//! allocation, no pointer chasing, and extension joins append
//! `parent row + new vertex` straight into the child's arena
//! ([`OccurrenceStore::push_row_extended`]).
//!
//! The store provides the same support measures as [`EmbeddingSet`] —
//! minimum image (MNI) and transaction count — with identical semantics
//! (property-tested against `find_embeddings`), plus conversions in both
//! directions for the cold reporting path.

use crate::embedding::{Embedding, EmbeddingSet, SupportMeasure};
use crate::graph::VertexId;
use crate::occ_index::{KeyMarks, VertexMarks};
use serde::{Deserialize, Serialize};

/// Reusable buffers for the support kernel
/// ([`OccurrenceStore::support_pruned`]) and the sort-based row dedup
/// ([`OccurrenceStore::dedup_exact_with`]): one scratch per worker keeps
/// every evaluation on flat reused arrays and an epoch-stamped table — no
/// per-row `Vec` keys, no fresh hash sets, and (after warm-up) no allocation
/// at all.
#[derive(Debug, Default, Clone)]
pub struct SupportScratch {
    /// Keep flag of each row in the exact-duplicate removal.
    lens: Vec<u32>,
    /// Row order buffer for the duplicate removal; distinct-transaction
    /// buffer for the transaction count.
    rows: Vec<u32>,
    /// Epoch-stamped `(transaction, image)` accumulator for the
    /// minimum-image column scans.
    key_marks: KeyMarks,
}

impl SupportScratch {
    /// Creates an empty scratch (buffers grow on first use, then stay).
    pub fn new() -> Self {
        SupportScratch::default()
    }
}

/// The stored `u32` id of transaction `t`.  A wrapping cast would merge the
/// rows of transactions `t` and `t + 2³²` and miscount their support.
#[inline]
fn transaction_id(t: usize) -> u32 {
    u32::try_from(t).expect("transaction index overflows the u32 transaction column")
}

/// The `u32` id of row `i` in the index sorts and rank tables.
///
/// # Panics
/// Panics when `i` does not fit in `u32`, so a store past 2³² rows fails
/// instead of aliasing row ids.
fn row_id(i: usize) -> u32 {
    u32::try_from(i).expect("row index overflows the u32 row id")
}

/// All occurrences of one pattern, in columnar (SoA) layout.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct OccurrenceStore {
    /// Vertices per row (the pattern's vertex count).
    arity: usize,
    /// Flat vertex column: row `i` is `arena[i * arity..(i + 1) * arity]`.
    arena: Vec<VertexId>,
    /// Transaction of each row.
    transactions: Vec<u32>,
}

/// One borrowed row of an [`OccurrenceStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OccRow<'a> {
    /// Transaction index of the occurrence.
    pub transaction: usize,
    /// Data-graph vertex per pattern vertex, indexed by pattern vertex id.
    pub vertices: &'a [VertexId],
}

impl OccRow<'_> {
    /// The data vertex that pattern vertex `p` maps to.
    #[inline]
    pub fn image(&self, p: usize) -> VertexId {
        self.vertices[p]
    }

    /// True if the occurrence uses data vertex `v`.
    #[inline]
    pub fn uses(&self, v: VertexId) -> bool {
        self.vertices.contains(&v)
    }

    /// Materializes the row as an owned [`Embedding`] (cold paths only).
    pub fn to_embedding(&self) -> Embedding {
        Embedding::in_transaction(self.vertices.to_vec(), self.transaction)
    }
}

impl OccurrenceStore {
    /// Creates an empty store for rows of `arity` vertices.
    pub fn new(arity: usize) -> Self {
        OccurrenceStore { arity, arena: Vec::new(), transactions: Vec::new() }
    }

    /// Creates an empty store with room for `rows` occurrences.
    pub fn with_capacity(arity: usize, rows: usize) -> Self {
        OccurrenceStore {
            arity,
            arena: Vec::with_capacity(arity * rows),
            transactions: Vec::with_capacity(rows),
        }
    }

    /// Empties the store and switches it to rows of `arity` vertices,
    /// keeping the allocated buffers — the reset step when one store is
    /// reused as a per-worker scratch across many gathers.
    pub fn reset(&mut self, arity: usize) {
        self.arity = arity;
        self.arena.clear();
        self.transactions.clear();
    }

    /// Ensures room for `rows` additional occurrences, so a caller that
    /// knows its output size up front (e.g. a gather over an index's
    /// posting list) fills the store without incremental growth.
    pub fn reserve_rows(&mut self, rows: usize) {
        self.arena.reserve(self.arity * rows);
        self.transactions.reserve(rows);
    }

    /// Vertices per row.
    #[inline]
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of occurrences stored.
    #[inline]
    pub fn len(&self) -> usize {
        self.transactions.len()
    }

    /// True when no occurrence is stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.transactions.is_empty()
    }

    /// Appends one occurrence.
    ///
    /// # Panics
    /// Panics when `vertices.len()` differs from the store arity, or when
    /// `transaction` does not fit the `u32` transaction column.
    pub fn push_row(&mut self, transaction: usize, vertices: &[VertexId]) {
        assert_eq!(vertices.len(), self.arity, "occurrence arity mismatch");
        self.arena.extend_from_slice(vertices);
        self.transactions.push(transaction_id(transaction));
    }

    /// Appends `base` (a parent-pattern row of `arity - 1` vertices) extended
    /// with `extra` — the arena-based extension join step: the child row is
    /// written directly into the flat column with no intermediate `Vec`.
    ///
    /// # Panics
    /// Panics when `transaction` does not fit the `u32` transaction column.
    pub fn push_row_extended(&mut self, transaction: usize, base: &[VertexId], extra: VertexId) {
        debug_assert_eq!(base.len() + 1, self.arity, "extended occurrence arity mismatch");
        self.arena.extend_from_slice(base);
        self.arena.push(extra);
        self.transactions.push(transaction_id(transaction));
    }

    /// Appends one occurrence with its vertex sequence reversed — the
    /// re-orientation step of the canonical-form joins, written directly into
    /// the arena with no intermediate `Vec`.
    ///
    /// # Panics
    /// Panics when `vertices.len()` differs from the store arity, or when
    /// `transaction` does not fit the `u32` transaction column.
    pub fn push_row_reversed(&mut self, transaction: usize, vertices: &[VertexId]) {
        assert_eq!(vertices.len(), self.arity, "occurrence arity mismatch");
        self.arena.extend(vertices.iter().rev().copied());
        self.transactions.push(transaction_id(transaction));
    }

    /// The vertex slice of row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &[VertexId] {
        &self.arena[i * self.arity..(i + 1) * self.arity]
    }

    /// The transaction of row `i`.
    #[inline]
    pub fn transaction(&self, i: usize) -> usize {
        self.transactions[i] as usize
    }

    /// Borrowed view of row `i`.
    #[inline]
    pub fn get(&self, i: usize) -> OccRow<'_> {
        OccRow { transaction: self.transaction(i), vertices: self.row(i) }
    }

    /// Iterates over the rows in insertion order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = OccRow<'_>> {
        (0..self.len()).map(move |i| self.get(i))
    }

    /// Appends all rows of `other`, preserving their order (the parallel
    /// joins' ordered partial-result merge).
    ///
    /// # Panics
    /// Panics on arity mismatch unless either store is empty.
    pub fn append(&mut self, other: OccurrenceStore) {
        if other.is_empty() {
            return;
        }
        if self.is_empty() {
            *self = other;
            return;
        }
        assert_eq!(self.arity, other.arity, "appending stores of different arity");
        self.arena.extend_from_slice(&other.arena);
        self.transactions.extend_from_slice(&other.transactions);
    }

    /// Merges `other`'s rows into this store so the result is ordered by
    /// nondecreasing transaction (stable: on ties, this store's rows come
    /// first).  Both inputs must already be transaction-ordered — the
    /// invariant of every Stage-I seed store, whose rows are appended while
    /// walking transactions in ascending order.
    ///
    /// This is the incremental Stage-I *stitch*: after a dirty transaction's
    /// old rows are retained out and its fresh rows re-seeded, this merge
    /// restores exactly the row order a from-scratch sequential seed pass
    /// would have produced (each transaction's rows are contiguous, and a
    /// transaction is never partially dirty).
    ///
    /// # Panics
    /// Panics on arity mismatch unless either store is empty.
    pub fn merge_by_transaction(&mut self, other: OccurrenceStore) {
        if other.is_empty() {
            return;
        }
        if self.is_empty() {
            *self = other;
            return;
        }
        assert_eq!(self.arity, other.arity, "merging stores of different arity");
        debug_assert!(self.transactions.windows(2).all(|w| w[0] <= w[1]));
        debug_assert!(other.transactions.windows(2).all(|w| w[0] <= w[1]));
        // fast path: strictly appending rows of later transactions
        if self.transactions.last() <= other.transactions.first() {
            self.arena.extend_from_slice(&other.arena);
            self.transactions.extend_from_slice(&other.transactions);
            return;
        }
        let mut out = OccurrenceStore::with_capacity(self.arity, self.len() + other.len());
        let (mut i, mut j) = (0usize, 0usize);
        while i < self.len() && j < other.len() {
            if self.transactions[i] <= other.transactions[j] {
                out.push_row(self.transaction(i), self.row(i));
                i += 1;
            } else {
                out.push_row(other.transaction(j), other.row(j));
                j += 1;
            }
        }
        for r in i..self.len() {
            out.push_row(self.transaction(r), self.row(r));
        }
        for r in j..other.len() {
            out.push_row(other.transaction(r), other.row(r));
        }
        *self = out;
    }

    /// Collects the distinct transactions with at least one row into `out`
    /// (cleared first), ascending — the occurrence-side key of the
    /// per-transaction row index the incremental Stage-II reuse check walks.
    pub fn distinct_transactions_into(&self, out: &mut Vec<u32>) {
        out.clear();
        out.extend_from_slice(&self.transactions);
        out.sort_unstable();
        out.dedup();
    }

    /// Heap bytes held by this store's columns (allocated capacities),
    /// mirroring [`crate::csr::CsrSnapshot::heap_bytes`] — the
    /// maintained-state memory counter of the incremental bench section.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.arena.capacity() * size_of::<VertexId>() + self.transactions.capacity() * size_of::<u32>()
    }

    /// Keeps only the first `rows` occurrences.
    pub fn truncate(&mut self, rows: usize) {
        if rows < self.len() {
            self.arena.truncate(rows * self.arity);
            self.transactions.truncate(rows);
        }
    }

    /// Keeps the rows whose index satisfies `keep`, compacting the arena in
    /// place and preserving order.
    pub fn retain_rows(&mut self, mut keep: impl FnMut(OccRow<'_>) -> bool) {
        let arity = self.arity;
        let mut write = 0usize;
        for read in 0..self.len() {
            if keep(self.get(read)) {
                if write != read {
                    self.arena.copy_within(read * arity..(read + 1) * arity, write * arity);
                    self.transactions[write] = self.transactions[read];
                }
                write += 1;
            }
        }
        self.truncate(write);
    }

    /// Removes every row whose transaction appears in `drop` (ascending,
    /// deduplicated), assuming this store's rows are in nondecreasing
    /// transaction order — the maintained Stage-I tables' invariant.
    ///
    /// Unlike [`OccurrenceStore::retain_rows`] with a membership predicate,
    /// this never touches a row when no dropped transaction is present: a
    /// binary search per dropped transaction rejects the store up front, and
    /// when rows do go, whole contiguous transaction runs move with one
    /// `copy_within` each.  With a single-transaction delta, the incremental
    /// miner's retain pass over the maintained table costs a lookup per
    /// slot instead of a predicate call per row.
    pub fn remove_transactions_sorted(&mut self, drop: &[u32]) {
        debug_assert!(self.transactions.windows(2).all(|w| w[0] <= w[1]));
        debug_assert!(drop.windows(2).all(|w| w[0] < w[1]));
        if drop.iter().all(|t| self.transactions.binary_search(t).is_err()) {
            return;
        }
        let arity = self.arity;
        let (mut write, mut read) = (0usize, 0usize);
        let n = self.transactions.len();
        while read < n {
            let t = self.transactions[read];
            let run = read + self.transactions[read..].partition_point(|&x| x == t);
            if drop.binary_search(&t).is_err() {
                if write != read {
                    self.arena.copy_within(read * arity..run * arity, write * arity);
                    self.transactions.copy_within(read..run, write);
                }
                write += run - read;
            }
            read = run;
        }
        self.truncate(write);
    }

    /// Removes rows that are exactly equal (same transaction and vertex
    /// sequence) to an earlier row.
    pub fn dedup_exact(&mut self) {
        self.dedup_exact_with(&mut SupportScratch::new())
    }

    /// [`OccurrenceStore::dedup_exact`] with caller-provided scratch: an
    /// index sort brings duplicates together, so no per-row key `Vec` is
    /// ever allocated.  The first copy (in row order) of every duplicate
    /// group survives, exactly as the hash-set formulation kept it.
    pub fn dedup_exact_with(&mut self, scratch: &mut SupportScratch) {
        if self.is_empty() {
            return;
        }
        let arity = self.arity;
        let SupportScratch { rows, lens, .. } = scratch;
        rows.clear();
        rows.extend(0..row_id(self.len()));
        lens.clear();
        lens.resize(self.len(), 1);
        {
            let arena = &self.arena;
            let txs = &self.transactions;
            let row_of = |i: u32| &arena[i as usize * arity..(i as usize + 1) * arity];
            rows.sort_unstable_by(|&a, &b| {
                txs[a as usize]
                    .cmp(&txs[b as usize])
                    .then_with(|| row_of(a).cmp(row_of(b)))
                    .then_with(|| a.cmp(&b))
            });
            for w in rows.windows(2) {
                if txs[w[0] as usize] == txs[w[1] as usize] && row_of(w[0]) == row_of(w[1]) {
                    // duplicate of an earlier (smaller row id) copy
                    lens[w[1] as usize] = 0;
                }
            }
        }
        let mut i = 0usize;
        self.retain_rows(|_| {
            let keep = lens[i] == 1;
            i += 1;
            keep
        });
    }

    /// Puts the rows into ascending `(transaction, vertex sequence)` order
    /// and removes exact duplicates, so the result depends only on the set
    /// of rows and not on the order they were pushed in.
    pub fn sort_dedup_with(&mut self, scratch: &mut SupportScratch) {
        let arity = self.arity;
        let rows = &mut scratch.rows;
        rows.clear();
        rows.extend(0..row_id(self.len()));
        let row_of = |i: u32| &self.arena[i as usize * arity..(i as usize + 1) * arity];
        let key = |i: u32| (self.transactions[i as usize], row_of(i));
        rows.sort_unstable_by(|&a, &b| key(a).cmp(&key(b)));
        rows.dedup_by(|b, a| key(*a) == key(*b));
        let mut sorted = OccurrenceStore::with_capacity(arity, rows.len());
        for &i in rows.iter() {
            sorted.push_row(self.transactions[i as usize] as usize, row_of(i));
        }
        *self = sorted;
    }

    /// Support under the chosen measure — identical semantics to
    /// [`EmbeddingSet::support`].
    pub fn support(&self, measure: SupportMeasure) -> usize {
        self.support_with(measure, &mut SupportScratch::new())
    }

    /// [`OccurrenceStore::support`] with caller-provided scratch buffers:
    /// the exact value, as [`OccurrenceStore::support_pruned`] at `sigma = 0`.
    pub fn support_with(&self, measure: SupportMeasure, scratch: &mut SupportScratch) -> usize {
        self.support_pruned(measure, 0, scratch)
    }

    /// Support under `measure` with a frequency-threshold early exit — the
    /// one support kernel of the store, shared by the Stage-I σ-filter and
    /// (at `sigma = 0`) every exact read; the direct-store sibling of
    /// [`SupportBatch::support_extended_pruned`].
    ///
    /// The returned value equals the exact support whenever that support is
    /// at least `sigma`; below `sigma` the evaluation stops at the first
    /// certificate and only promises to return *some* value `< sigma`, so a
    /// caller's `support < sigma` test decides identically to the exact
    /// evaluation (property-tested against [`EmbeddingSet::support`] across
    /// both measures in `crates/graph/tests`):
    ///
    /// * every measure's support is bounded by the row count, so a store
    ///   with fewer than `sigma` rows is rejected without touching a single
    ///   vertex — the dominant reject shape of the join kernels, where the
    ///   row cap fires before the per-pattern dedup is even attempted;
    /// * a minimum-image evaluation counts each column with epoch marks and
    ///   a running minimum that starts at the row count: each column scan
    ///   breaks the moment its distinct count reaches the minimum so far (it
    ///   provably cannot lower it), and the whole evaluation bails after the
    ///   first column that drops below `sigma`.
    pub fn support_pruned(
        &self,
        measure: SupportMeasure,
        sigma: usize,
        scratch: &mut SupportScratch,
    ) -> usize {
        if self.len() < sigma {
            return self.len();
        }
        match measure {
            SupportMeasure::MinimumImage => self.mni_support_pruned(sigma, scratch),
            SupportMeasure::Transactions => {
                self.distinct_transactions_into(&mut scratch.rows);
                scratch.rows.len()
            }
        }
    }

    /// σ-pruned minimum-image count: exact whenever the result reaches
    /// `sigma`, early-exit below it.  `min` starts at the row count because
    /// no column's distinct `(transaction, image)` count can exceed it.
    fn mni_support_pruned(&self, sigma: usize, scratch: &mut SupportScratch) -> usize {
        let mut min = self.len();
        for p in 0..self.arity {
            scratch.key_marks.reset();
            let mut distinct = 0usize;
            for i in 0..self.len() {
                let key = ((self.transactions[i] as u128) << 32) | self.arena[i * self.arity + p].0 as u128;
                if scratch.key_marks.insert(key) {
                    distinct += 1;
                    if distinct >= min {
                        // the column cannot lower the minimum any more
                        break;
                    }
                }
            }
            min = min.min(distinct);
            if min < sigma {
                return min;
            }
        }
        min
    }

    /// Materializes the store as an [`EmbeddingSet`] (cold reporting path).
    pub fn to_embedding_set(&self) -> EmbeddingSet {
        EmbeddingSet::from_vec(self.iter().map(|r| r.to_embedding()).collect())
    }

    /// Builds a store from an [`EmbeddingSet`] whose embeddings all have
    /// `arity` vertices.
    ///
    /// # Panics
    /// Panics when an embedding's arity differs.
    pub fn from_embedding_set(arity: usize, set: &EmbeddingSet) -> Self {
        let mut store = OccurrenceStore::with_capacity(arity, set.len());
        for e in set.iter() {
            store.push_row(e.transaction, &e.vertices);
        }
        store
    }
}

/// Batched support evaluation across **sibling candidates sharing one parent
/// store**: the per-column `(transaction, image)` sorts every candidate used
/// to redo over its own gathered rows for MNI are hoisted into a one-time
/// *rank-assignment pass over the parent*, after which each candidate is
/// scored by linear passes over its supporting entries with epoch-stamped
/// per-candidate accumulators — no child store is ever materialized for a
/// support decision, so the reject path performs no gather at all.
///
/// [`SupportBatch::support_extended_pruned`] at `sigma = 0` returns exactly
/// the value of gathering `entries` into a child store ([`parent row` +
/// optional new vertex] per entry) and measuring it with
/// [`EmbeddingSet::support`], for both measures (property-tested in the
/// mining crate); at any `sigma` its `support < sigma` verdict is the exact
/// one.
///
/// Candidate entry lists are additionally **frontier-compressed**: entry row
/// ids arrive ascending, so they collapse into delta-1 runs `(start, len)`
/// and every row-indexed pass (parent columns, transactions) walks those
/// runs sequentially through the 4-byte rank columns instead of re-reading
/// the 8-byte entry pairs per column — the reject path touches a fraction
/// of the memory the gather-and-measure path did.
///
/// The rank tables are built lazily and reused until
/// [`SupportBatch::invalidate`] marks the parent stale; all buffers are
/// reused across parents (steady-state allocation-free).
#[derive(Debug, Default, Clone)]
pub struct SupportBatch {
    /// True when the rank tables serve the current parent.
    prepared: bool,
    /// Shape of the prepared parent, to size the rank columns.
    rows: usize,
    arity: usize,
    /// MNI: dense rank of `(transaction, image)` per row, one column of
    /// `rows` ranks per pattern vertex (flattened `arity × rows`).
    col_rank: Vec<u32>,
    /// `(transaction, image, row)` sort buffer for rank assignment.
    rank_keys: Vec<(u32, VertexId, u32)>,
    /// Compressed row frontier of one candidate: delta-1 runs `(start, len)`
    /// over its (ascending, deduplicated) entry row ids.
    runs: Vec<(u32, u32)>,
    /// Dense per-candidate accumulator over rank ids.
    marks: VertexMarks,
    /// Composite per-candidate accumulator (e.g. `(transaction, vertex)`).
    key_marks: KeyMarks,
}

impl SupportBatch {
    /// Creates an empty batch evaluator (buffers grow on first use).
    pub fn new() -> Self {
        SupportBatch::default()
    }

    /// Marks the rank tables stale.  Must be called whenever the parent
    /// store the entries refer to changes (e.g. a new pattern's table was
    /// built); the next evaluation re-prepares against the new parent.
    #[inline]
    pub fn invalidate(&mut self) {
        self.prepared = false;
    }

    /// Support of the child pattern whose occurrences are `parent` row `row`
    /// (extended with vertex `w` when `adds_vertex`) for each `(row, w)` in
    /// `entries`, with a frequency-threshold early exit: the returned value
    /// equals the child's exact support whenever that support is at least
    /// `sigma` (always, at `sigma = 0`); when it is below `sigma` the
    /// evaluation stops at the first certificate and only promises to
    /// return *some* value `< sigma`.  A caller's `support < sigma` test
    /// therefore decides identically to the exact evaluation — which is all
    /// the grow engine's frequency gate needs — at a fraction of the reject
    /// cost:
    ///
    /// * a candidate whose entries touch fewer than `sigma` distinct parent
    ///   rows (the dominant reject shape: one row extended by many
    ///   attachment vertices) is rejected after the frontier pass alone,
    ///   since every parent-side column's distinct count is bounded by the
    ///   distinct row count;
    /// * a minimum-image reject stops at the first column whose distinct
    ///   count falls below `sigma` instead of walking all `arity + 1`
    ///   columns.
    ///
    /// Entry row ids must be ascending (duplicates allowed), the order the
    /// extension index stores them in.
    pub fn support_extended_pruned(
        &mut self,
        parent: &OccurrenceStore,
        measure: SupportMeasure,
        entries: &[(u32, VertexId)],
        adds_vertex: bool,
        sigma: usize,
    ) -> usize {
        if entries.is_empty() {
            return 0;
        }
        self.compress_frontier(entries);
        let distinct_rows: usize = self.runs.iter().map(|&(_, len)| len as usize).sum();
        if distinct_rows < sigma {
            return distinct_rows;
        }
        if measure == SupportMeasure::Transactions {
            // distinct transactions over the already-compressed runs
            self.key_marks.reset();
            let mut distinct = 0usize;
            for &(start, len) in &self.runs {
                for r in start..start + len {
                    if self.key_marks.insert(parent.transactions[r as usize] as u128) {
                        distinct += 1;
                    }
                }
            }
            return distinct;
        }
        self.ensure_prepared(parent);
        // `min` starts at the distinct-row count because no column can
        // exceed it, which lets every column scan stop the moment its
        // running count reaches the minimum so far — the column then
        // provably cannot lower the minimum, so the final value stays exact
        let mut min = distinct_rows;
        for p in 0..self.arity {
            let col = &self.col_rank[p * self.rows..(p + 1) * self.rows];
            self.marks.reset();
            let mut distinct = 0usize;
            'col: for &(start, len) in &self.runs {
                for r in start..start + len {
                    if self.marks.mark(VertexId(col[r as usize])) {
                        distinct += 1;
                        if distinct >= min {
                            break 'col;
                        }
                    }
                }
            }
            min = min.min(distinct);
            if min < sigma {
                return min;
            }
        }
        if adds_vertex {
            // the new-vertex column: distinct (transaction, w) pairs
            self.key_marks.reset();
            let mut distinct = 0usize;
            for &(row, w) in entries {
                let key = ((parent.transactions[row as usize] as u128) << 32) | w.0 as u128;
                if self.key_marks.insert(key) {
                    distinct += 1;
                    if distinct >= min {
                        break;
                    }
                }
            }
            min = min.min(distinct);
        }
        min
    }

    /// Builds the MNI rank tables, unless they are already prepared for
    /// this parent shape.
    fn ensure_prepared(&mut self, parent: &OccurrenceStore) {
        if self.prepared && self.rows == parent.len() && self.arity == parent.arity {
            return;
        }
        self.rows = parent.len();
        self.arity = parent.arity;
        self.prepare_column_ranks(parent);
        self.prepared = true;
    }

    /// One pass over the parent per column: dense ranks of `(transaction,
    /// image)`, shared by every sibling candidate's MNI evaluation.
    fn prepare_column_ranks(&mut self, parent: &OccurrenceStore) {
        let (rows, arity) = (self.rows, self.arity);
        self.col_rank.clear();
        self.col_rank.resize(arity * rows, 0);
        for p in 0..arity {
            self.rank_keys.clear();
            self.rank_keys.extend((0..row_id(rows)).map(|i| {
                let r = i as usize;
                (parent.transactions[r], parent.arena[r * arity + p], i)
            }));
            self.rank_keys.sort_unstable();
            let col = &mut self.col_rank[p * rows..(p + 1) * rows];
            let mut rank = 0u32;
            for j in 0..rows {
                if j > 0
                    && (self.rank_keys[j].0, self.rank_keys[j].1)
                        != (self.rank_keys[j - 1].0, self.rank_keys[j - 1].1)
                {
                    rank += 1;
                }
                col[self.rank_keys[j].2 as usize] = rank;
            }
        }
    }

    /// Compresses a candidate's (ascending) entry row ids into delta-1 runs.
    fn compress_frontier(&mut self, entries: &[(u32, VertexId)]) {
        self.runs.clear();
        let mut start = entries[0].0;
        let mut last = start;
        let mut len = 1u32;
        for &(row, _) in &entries[1..] {
            debug_assert!(row >= last, "entry rows must be ascending");
            if row == last {
                continue;
            }
            if row == last + 1 {
                len += 1;
            } else {
                self.runs.push((start, len));
                start = row;
                len = 1;
            }
            last = row;
        }
        self.runs.push((start, len));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(ids: &[u32]) -> Vec<VertexId> {
        ids.iter().map(|&i| VertexId(i)).collect()
    }

    fn store() -> OccurrenceStore {
        let mut s = OccurrenceStore::new(2);
        s.push_row(0, &v(&[0, 1]));
        s.push_row(0, &v(&[1, 0]));
        s.push_row(1, &v(&[2, 3]));
        s
    }

    #[test]
    fn rows_and_accessors() {
        let s = store();
        assert_eq!(s.arity(), 2);
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
        assert_eq!(s.row(1), &v(&[1, 0])[..]);
        assert_eq!(s.transaction(2), 1);
        let r = s.get(0);
        assert_eq!(r.image(1), VertexId(1));
        assert!(r.uses(VertexId(0)));
        assert!(!r.uses(VertexId(5)));
        assert_eq!(s.iter().count(), 3);
    }

    #[test]
    fn support_measures_match_embedding_set() {
        let s = store();
        let es = s.to_embedding_set();
        for m in MEASURES {
            assert_eq!(s.support(m), es.support(m), "measure {m:?}");
        }
        assert_eq!(es.len(), 3);
        assert_eq!(es.distinct_vertex_sets(), 2);
        assert_eq!(s.support(SupportMeasure::Transactions), 2);
    }

    #[test]
    fn empty_store_supports_are_zero() {
        let s = OccurrenceStore::new(3);
        assert_eq!(s.support(SupportMeasure::MinimumImage), 0);
        assert_eq!(s.to_embedding_set().distinct_vertex_sets(), 0);
        assert_eq!(s.support(SupportMeasure::Transactions), 0);
    }

    #[test]
    fn extension_join_appends_flat() {
        let parent = store();
        let mut child = OccurrenceStore::new(3);
        for r in parent.iter() {
            child.push_row_extended(r.transaction, r.vertices, VertexId(9));
        }
        assert_eq!(child.len(), 3);
        assert_eq!(child.row(0), &v(&[0, 1, 9])[..]);
        assert_eq!(child.transaction(2), 1);
    }

    #[test]
    fn merge_by_transaction_restores_sequential_order() {
        // clean rows of transactions {0, 2}, dirty re-seed of transaction 1:
        // the merge interleaves exactly as a sequential 0,1,2 walk would
        let mut clean = OccurrenceStore::new(2);
        clean.push_row(0, &v(&[0, 1]));
        clean.push_row(0, &v(&[1, 2]));
        clean.push_row(2, &v(&[4, 5]));
        let mut dirty = OccurrenceStore::new(2);
        dirty.push_row(1, &v(&[7, 8]));
        dirty.push_row(1, &v(&[8, 9]));
        clean.merge_by_transaction(dirty);
        let txs: Vec<usize> = clean.iter().map(|r| r.transaction).collect();
        assert_eq!(txs, vec![0, 0, 1, 1, 2]);
        assert_eq!(clean.row(2), &v(&[7, 8])[..]);
        assert_eq!(clean.row(4), &v(&[4, 5])[..]);

        // appending later transactions takes the fast path, same result
        let mut base = OccurrenceStore::new(2);
        base.push_row(0, &v(&[0, 1]));
        let mut tail = OccurrenceStore::new(2);
        tail.push_row(3, &v(&[2, 3]));
        base.merge_by_transaction(tail);
        assert_eq!(base.len(), 2);
        assert_eq!(base.transaction(1), 3);

        // either side empty is a no-op / adoption
        let mut empty = OccurrenceStore::new(2);
        empty.merge_by_transaction(base.clone());
        assert_eq!(empty, base);
        base.merge_by_transaction(OccurrenceStore::new(2));
        assert_eq!(base.len(), 2);
    }

    #[test]
    fn distinct_transactions_and_heap_bytes() {
        let s = store();
        let mut txs = Vec::new();
        s.distinct_transactions_into(&mut txs);
        assert_eq!(txs, vec![0, 1]);
        assert!(s.heap_bytes() >= 3 * 2 * std::mem::size_of::<VertexId>() + 3 * 4);
        assert!(OccurrenceStore::new(2).heap_bytes() == 0);
    }

    #[test]
    fn dedup_and_retain() {
        let mut s = OccurrenceStore::new(2);
        s.push_row(0, &v(&[0, 1]));
        s.push_row(0, &v(&[0, 1]));
        s.push_row(0, &v(&[1, 0]));
        s.dedup_exact();
        assert_eq!(s.len(), 2);
        assert_eq!(s.row(1), &v(&[1, 0])[..]);
        s.retain_rows(|r| r.vertices[0] == VertexId(0));
        assert_eq!(s.len(), 1);
        assert_eq!(s.row(0), &v(&[0, 1])[..]);
    }

    #[test]
    fn remove_transactions_sorted_matches_retain() {
        let build = || {
            let mut s = OccurrenceStore::new(2);
            for (t, a, b) in [(0, 0, 1), (0, 1, 2), (1, 3, 4), (2, 5, 6), (2, 6, 7), (4, 8, 9)] {
                s.push_row(t, &v(&[a, b]));
            }
            s
        };
        for drop in [vec![], vec![1u32], vec![0, 2], vec![4], vec![3], vec![0, 1, 2, 4]] {
            let mut fast = build();
            fast.remove_transactions_sorted(&drop);
            let mut slow = build();
            slow.retain_rows(|r| drop.binary_search(&(r.transaction as u32)).is_err());
            assert_eq!(fast, slow, "drop set {drop:?}");
        }
    }

    #[test]
    fn append_and_truncate() {
        let mut a = store();
        let b = store();
        a.append(b);
        assert_eq!(a.len(), 6);
        assert_eq!(a.row(3), &v(&[0, 1])[..]);
        a.truncate(2);
        assert_eq!(a.len(), 2);
        let mut empty = OccurrenceStore::new(7);
        empty.append(a.clone());
        assert_eq!(empty.arity(), 2);
        assert_eq!(empty.len(), 2);
        a.append(OccurrenceStore::new(9));
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn embedding_set_roundtrip() {
        let s = store();
        let back = OccurrenceStore::from_embedding_set(2, &s.to_embedding_set());
        assert_eq!(s, back);
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn arity_mismatch_panics() {
        let mut s = OccurrenceStore::new(2);
        s.push_row(0, &v(&[0, 1, 2]));
    }

    const MEASURES: [SupportMeasure; 2] = [SupportMeasure::MinimumImage, SupportMeasure::Transactions];

    /// Gathers `entries` over `parent` the way the extension index does.
    fn gather(parent: &OccurrenceStore, entries: &[(u32, VertexId)], adds_vertex: bool) -> OccurrenceStore {
        let mut child = OccurrenceStore::new(parent.arity() + usize::from(adds_vertex));
        for &(row, w) in entries {
            if adds_vertex {
                child.push_row_extended(parent.transaction(row as usize), parent.row(row as usize), w);
            } else {
                child.push_row(parent.transaction(row as usize), parent.row(row as usize));
            }
        }
        child
    }

    /// Measures the gathered child through [`EmbeddingSet::support`] — the
    /// independent reference the batch must match.
    fn gather_and_measure(
        parent: &OccurrenceStore,
        entries: &[(u32, VertexId)],
        adds_vertex: bool,
        measure: SupportMeasure,
    ) -> usize {
        gather(parent, entries, adds_vertex).to_embedding_set().support(measure)
    }

    #[test]
    fn batched_support_matches_gather_and_measure() {
        let mut parent = OccurrenceStore::new(2);
        parent.push_row(0, &v(&[0, 1]));
        parent.push_row(0, &v(&[1, 2]));
        parent.push_row(1, &v(&[0, 1]));
        parent.push_row(1, &v(&[3, 4]));
        parent.push_row(2, &v(&[3, 4]));
        // ascending rows with a duplicate row, a gap, and shared new vertices
        let entries: Vec<(u32, VertexId)> =
            vec![(0, VertexId(7)), (0, VertexId(8)), (2, VertexId(7)), (4, VertexId(9))];
        let closing: Vec<(u32, VertexId)> = vec![(1, VertexId(0)), (3, VertexId(0)), (4, VertexId(0))];
        let mut batch = SupportBatch::new();
        for measure in MEASURES {
            for (list, adds_vertex) in [(&entries, true), (&closing, false)] {
                let exact = gather_and_measure(&parent, list, adds_vertex, measure);
                batch.invalidate();
                assert_eq!(
                    batch.support_extended_pruned(&parent, measure, list, adds_vertex, 0),
                    exact,
                    "σ = 0 is exact, adds_vertex {adds_vertex}, measure {measure:?}"
                );
                for sigma in 1..=exact + 1 {
                    let got = batch.support_extended_pruned(&parent, measure, list, adds_vertex, sigma);
                    assert_eq!(got < sigma, exact < sigma, "σ {sigma}, measure {measure:?}");
                    if exact >= sigma {
                        assert_eq!(got, exact, "σ {sigma}, measure {measure:?}");
                    }
                }
            }
            assert_eq!(batch.support_extended_pruned(&parent, measure, &[], true, 0), 0);
        }
    }

    #[test]
    fn batched_support_matches_gather_when_children_share_a_vertex_set() {
        // rows {8, 9} + w = 10 and {8, 10} + w = 9 produce the SAME child
        // vertex set {8, 9, 10} from different parents
        let mut parent = OccurrenceStore::new(2);
        parent.push_row(0, &v(&[8, 9]));
        parent.push_row(0, &v(&[8, 10]));
        let entries: Vec<(u32, VertexId)> = vec![(0, VertexId(10)), (1, VertexId(9))];
        assert_eq!(gather(&parent, &entries, true).to_embedding_set().distinct_vertex_sets(), 1);
        let mut batch = SupportBatch::new();
        for measure in MEASURES {
            batch.invalidate();
            let got = batch.support_extended_pruned(&parent, measure, &entries, true, 0);
            assert_eq!(got, 1, "measure {measure:?}");
            assert_eq!(got, gather_and_measure(&parent, &entries, true, measure));
        }
    }

    #[test]
    fn batch_reuse_across_parents_requires_invalidate() {
        let mut a = OccurrenceStore::new(1);
        a.push_row(0, &v(&[0]));
        a.push_row(0, &v(&[1]));
        let mut b = OccurrenceStore::new(1);
        b.push_row(0, &v(&[5]));
        b.push_row(1, &v(&[5]));
        let entries: Vec<(u32, VertexId)> = vec![(0, VertexId(9)), (1, VertexId(9))];
        let mut batch = SupportBatch::new();
        // child rows (tx 0, [0, 9]) and (tx 0, [1, 9]): the shared new
        // vertex caps the minimum image at 1
        assert_eq!(batch.support_extended_pruned(&a, SupportMeasure::MinimumImage, &entries, true, 0), 1);
        batch.invalidate();
        // child rows (tx 0, [5, 9]) and (tx 1, [5, 9]): distinct
        // transactions keep every column at 2
        assert_eq!(batch.support_extended_pruned(&b, SupportMeasure::MinimumImage, &entries, true, 0), 2);
    }

    #[test]
    #[should_panic(expected = "overflows the u32 transaction column")]
    fn transaction_past_u32_panics_instead_of_wrapping() {
        let mut s = OccurrenceStore::new(2);
        s.push_row(u32::MAX as usize + 1, &v(&[0, 1]));
    }

    #[test]
    #[should_panic(expected = "overflows the u32 row id")]
    fn row_past_u32_panics_instead_of_wrapping() {
        assert_eq!(row_id(u32::MAX as usize), u32::MAX);
        row_id(u32::MAX as usize + 1);
    }
}
