//! Stage II's extension-indexed grow engine: one sweep over a pattern's
//! embeddings builds an **inverted index** `candidate extension → supporting
//! (occurrence row, attachment data vertex)` so that every candidate is
//! answered from the index instead of re-scanning the whole embedding list.
//!
//! The previous engine enumerated candidates with one embedding sweep and
//! then re-walked **all** rows once more *per candidate* inside
//! `extend_embeddings_with` — `O(#candidates × #rows)` data work per grown
//! pattern, with the structural constraint check paid after the data-side
//! work.  [`ExtensionTable`] turns that inside out, following the
//! delta-indexed evaluation idea of dynamic query answering (Berkholz et
//! al., "Answering FO+MOD queries under updates"): precompute once, answer
//! each candidate in output-proportional time.
//!
//! * The **incidence count** of a candidate (its number of index entries)
//!   equals the exact row count of the extended pattern, which upper-bounds
//!   every support measure — candidates with fewer than `sigma` entries are
//!   pruned before any structural or data work.
//! * The structure-only constraint check (`check_extension`) runs **before**
//!   embedding materialization, so structurally invalid extensions never
//!   touch the data.
//! * [`ExtensionTable::gather`] materializes a surviving candidate's
//!   occurrence store as a pure gather over exactly its supporting rows —
//!   no graph access at all, since each entry already carries the attachment
//!   data vertex verified during the sweep.
//!
//! # Determinism contract
//!
//! The engine must be byte-identical to the reference path
//! (`LevelGrow::candidate_extensions_reference` + full re-scan) for any
//! thread count:
//!
//! * **Candidate order** — candidates are interned in first-occurrence order
//!   by the finalize pass and then iterated in the sorted [`Extension`] key
//!   order, exactly the order the reference `BTreeSet` yields.
//! * **Row order** — entries of one candidate are stored in ascending
//!   `(row, attachment vertex)` order.  The sweep visits rows ascending and
//!   each row's neighbors in ascending-id order, as the reference re-scan
//!   does, so gathered child stores equal its output byte for byte
//!   (asserted by the `ext_index_properties` suite).
//! * **Oversized attachment runs** — a new outside vertex adjacent to more
//!   than [`FULL_SUBSET_DEGREE`] pattern images only generates its *full*
//!   attachment set as a candidate (as in the reference enumeration), but a
//!   subset candidate generated from another row must still gather such a
//!   row.  Those rare runs are kept in a sidecar and merged into the
//!   matching candidates' entry lists at build time, preserving the
//!   `(row, vertex)` order.
//!
//! # Data movement
//!
//! The sweep is a flat per-row pass that only *emits*: every neighbor probe
//! packs its candidate descriptor into a `u128` key and appends
//! `(key, row, attach)` to two parallel reused buffers (keys SoA, entries
//! SoA) — no hash probes, no grouping, no branching on candidate identity
//! inside the neighbor loop.  All grouping is deferred to the finalize step:
//! one linear interning pass over the packed keys assigns dense group ids,
//! and a single [`skinny_graph::GroupSorter`] histogram+scatter invocation
//! moves every `(row, attach)` entry straight into its grouped position.
//! Everything is allocation-free in steady state: interning uses
//! rebuilt-in-place hash maps and all buffers are reused across patterns.

use crate::grown::{Extension, GrownPattern};
use skinny_graph::{
    CsrSnapshot, FxBuild, GroupSorter, KeyMarks, Label, OccurrenceStore, VertexId, VertexSlots,
};
use std::collections::HashMap;

/// Attachment degree up to which *all* multi-edge subsets are enumerated;
/// beyond it only the full attachment set is tried (2^k subsets would
/// dominate the runtime, and high-degree attachments are virtually always
/// reachable through their sub-attachments).
pub const FULL_SUBSET_DEGREE: usize = 6;

/// One supporting entry of a candidate: the occurrence row id and, for
/// new-vertex candidates, the attachment data vertex that extends it.
pub type ExtEntry = (u32, VertexId);

/// The inverted candidate index of one grown pattern: every candidate
/// extension of the pattern, each with the ordered list of supporting
/// `(row, attachment vertex)` entries.
///
/// Built by [`ExtensionScratch::build`]; all buffers are reused across
/// patterns.
#[derive(Debug, Default)]
pub struct ExtensionTable {
    /// Candidates by intern id (first-occurrence order during the sweep).
    cands: Vec<Extension>,
    /// Intern ids in sorted [`Extension`] key order — the iteration order.
    sorted: Vec<u32>,
    /// Entry ranges per intern id (`cands.len() + 1` exclusive prefix sums).
    offsets: Vec<u32>,
    /// Supporting entries, grouped by intern id, `(row, vertex)` ascending
    /// inside every group.
    entries: Vec<ExtEntry>,
}

impl ExtensionTable {
    /// Number of candidate extensions.
    #[inline]
    pub fn candidate_count(&self) -> usize {
        self.sorted.len()
    }

    /// The `i`-th candidate in sorted extension-key order.
    #[inline]
    pub fn extension(&self, i: usize) -> &Extension {
        &self.cands[self.sorted[i] as usize]
    }

    /// Supporting entries of the `i`-th candidate, ascending `(row, vertex)`.
    #[inline]
    pub fn entries(&self, i: usize) -> &[ExtEntry] {
        let c = self.sorted[i] as usize;
        &self.entries[self.offsets[c] as usize..self.offsets[c + 1] as usize]
    }

    /// Free support upper bound of the `i`-th candidate: its incidence count
    /// is the exact row count of the extended pattern, and every support
    /// measure is bounded by the row count.
    #[inline]
    pub fn support_upper_bound(&self, i: usize) -> usize {
        self.entries(i).len()
    }

    /// Materializes the extended pattern's occurrence store for the `i`-th
    /// candidate by gathering its supporting rows from `parent` — in
    /// ascending row order, byte-identical to the reference full re-scan.
    pub fn gather(&self, i: usize, parent: &OccurrenceStore) -> OccurrenceStore {
        let mut out = OccurrenceStore::new(0);
        self.gather_into(i, parent, &mut out);
        out
    }

    /// [`ExtensionTable::gather`] into a caller-provided store, reusing its
    /// buffers: the grow engine gathers every candidate into one per-worker
    /// scratch store and takes ownership only for admitted children, so a
    /// support-rejected candidate costs no allocation at all.
    pub fn gather_into(&self, i: usize, parent: &OccurrenceStore, out: &mut OccurrenceStore) {
        let entries = self.entries(i);
        match self.extension(i) {
            Extension::NewVertex { .. } | Extension::NewVertexMulti { .. } => {
                out.reset(parent.arity() + 1);
                out.reserve_rows(entries.len());
                for &(row, w) in entries {
                    out.push_row_extended(parent.transaction(row as usize), parent.row(row as usize), w);
                }
            }
            Extension::ClosingEdge { .. } => {
                out.reset(parent.arity());
                out.reserve_rows(entries.len());
                for &(row, _) in entries {
                    out.push_row(parent.transaction(row as usize), parent.row(row as usize));
                }
            }
        }
    }
}

/// Per-worker scratch of the extension-indexed engine: the rebuilt-in-place
/// [`ExtensionTable`] plus every sweep buffer, reused across all the
/// patterns (and clusters) a worker grows.
#[derive(Debug, Default)]
pub struct ExtensionScratch {
    /// The index of the most recently built pattern.
    pub table: ExtensionTable,
    /// Reverse image table (data vertex → pattern vertex) of one embedding.
    pub(crate) images: VertexSlots,
    /// Flat attachment-edge buffer `(outside vertex, pattern vertex, label)`.
    pub(crate) attachments: Vec<(VertexId, u32, Label)>,
    /// Deduplicated attachment edges of one outside vertex.
    pub(crate) run_edges: Vec<(u32, Label)>,
    /// Reusable subset buffer for multi-edge attachments.
    pub(crate) subset: Vec<(u32, Label)>,
    /// Per-row probe-dedup marks for the reference enumeration.
    pub(crate) probe_marks: KeyMarks,
    /// Interning map of the fixed-size candidate kinds, keyed by their
    /// packed descriptor; populated by the flat finalize pass over
    /// [`ExtensionScratch::keys`], drained into the table afterwards.
    intern_fixed: HashMap<u128, u32, FxBuild>,
    /// Interning map of the multi-edge candidates (their key owns the edge
    /// list); drained into the table at finalize.
    intern_multi: HashMap<Extension, u32, FxBuild>,
    /// Packed candidate key per sweep item, in discovery order (SoA column
    /// parallel to [`ExtensionScratch::entry_of_item`]): the sweep only
    /// emits into these two buffers, deferring all grouping to finalize.
    keys: Vec<u128>,
    /// `(row, attachment vertex)` per sweep item, in discovery order.
    entry_of_item: Vec<ExtEntry>,
    /// Oversized attachment runs `(row, vertex, vertex label, edge range)`.
    over_runs: Vec<(u32, VertexId, Label, u32, u32)>,
    /// Edge storage of the oversized runs.
    over_edges: Vec<(u32, Label)>,
    /// Extra entries owed to subset candidates by oversized runs.
    extras: Vec<(u32, u32, VertexId)>,
    /// Dense group id per item, fed to the histogram+scatter kernel.
    group_of_item: Vec<u32>,
    /// The histogram+scatter grouping kernel.
    sorter: GroupSorter,
    /// Pattern adjacency bitset (`n × words` of 64 bits), rebuilt per
    /// pattern: answers the closing-edge `has_edge` probe of the sweep's
    /// inner loop with one load and mask instead of a binary search.
    adj_bits: Vec<u64>,
    /// Per-pattern-vertex `level < delta` flags, hoisted out of the
    /// neighbor loop (the flag depends only on the pattern vertex).
    allow_new: Vec<bool>,
    /// Copy of the applied extension's entry list during a
    /// [`ExtensionScratch::refilter`] (the table's own storage is rewritten
    /// underneath it).
    applied: Vec<ExtEntry>,
    /// Old-row → new-row range map of a refilter.
    row_map: Vec<(u32, u32)>,
    /// Double buffer for the refiltered entry storage.
    entries2: Vec<ExtEntry>,
    /// Double buffer for the refiltered offsets.
    offsets2: Vec<u32>,
    /// Per-candidate entry count of a build, then its table id (`u32::MAX`
    /// for a candidate below σ).
    live: Vec<u32>,
}

impl ExtensionScratch {
    /// Creates an empty scratch (buffers grow on first use, then stay).
    pub fn new() -> Self {
        ExtensionScratch::default()
    }

    /// Sweeps `pattern`'s embeddings once and (re)builds
    /// [`ExtensionScratch::table`]: every candidate extension of `pattern`
    /// in the data with at least `sigma` supporting entries, inverted to its
    /// supporting rows, and returns how many candidates fell below `sigma`.
    /// The kept candidates and their order equal the reference
    /// enumeration's `BTreeSet` filtered to `≥ sigma` entries (all of it at
    /// `sigma ≤ 1`); the entry lists equal the reference re-scan output.
    ///
    /// A dropped candidate is never built into the table, scattered or
    /// sorted.  That is sound for the whole life of the table, refilters
    /// included: an entry count is the child's exact row count, which bounds
    /// its support under every measure, so the candidate is infrequent now.
    /// A [`ExtensionScratch::refilter`] can raise a candidate's entry count —
    /// one old row fans out to every advanced row derived from it — but the
    /// child of the advanced pattern still takes its images of the original
    /// pattern vertices, and its transactions, from those fewer than `sigma`
    /// old rows, so its minimum-image and transaction support stay below
    /// `sigma` and the evaluation would reject it as infrequent.
    pub fn build(&mut self, pattern: &GrownPattern, data: &CsrSnapshot, delta: u32, sigma: usize) -> usize {
        self.intern_fixed.clear();
        self.intern_multi.clear();
        self.keys.clear();
        self.entry_of_item.clear();
        self.over_runs.clear();
        self.over_edges.clear();
        // pattern-side precomputation, hoisted out of the row loop: the
        // adjacency bitset answers the closing-edge `has_edge` probe with one
        // load and mask, and `allow_new` folds the per-vertex level check
        let n = pattern.graph.vertex_count();
        let words = n.div_ceil(64);
        self.adj_bits.clear();
        self.adj_bits.resize(n * words, 0);
        for p in 0..n {
            for &(q, _) in pattern.graph.neighbor_slice(VertexId(p as u32)) {
                self.adj_bits[p * words + (q.0 as usize >> 6)] |= 1u64 << (q.0 & 63);
            }
        }
        self.allow_new.clear();
        self.allow_new.extend(pattern.level.iter().map(|&lvl| lvl < delta));
        self.sweep(pattern, data);
        self.finalize(sigma)
    }

    /// Rewrites the table's entry lists after the pattern it indexes is
    /// advanced by applying its `i`-th candidate (closure-jump greedy
    /// advance): the advanced pattern's rows are exactly the gather of that
    /// candidate's entry list, so every other candidate's new entry list is
    /// its old one mapped through the old-row → new-row expansion — minus
    /// the pairs whose attachment vertex the advance consumed as the new
    /// vertex's image in that row.  No graph is touched; the candidate set
    /// and its sorted order are left as they are (candidates the advanced
    /// pattern can no longer admit keep entries and are rejected by the
    /// evaluation exactly as the reference re-scan would reject them, and
    /// the advanced pattern's *new* candidates are irrelevant — a pass only
    /// serves its start enumeration, and the next pass rebuilds).
    ///
    /// `parent_rows` is the row count of the store the table was built
    /// against.
    pub fn refilter(&mut self, i: usize, parent_rows: usize) {
        let table = &mut self.table;
        let c_applied = table.sorted[i] as usize;
        let adds_vertex = !matches!(table.cands[c_applied], Extension::ClosingEdge { .. });
        self.applied.clear();
        self.applied.extend_from_slice(
            &table.entries[table.offsets[c_applied] as usize..table.offsets[c_applied + 1] as usize],
        );
        // old row -> contiguous new-row range (the gather emits one new row
        // per applied entry, in entry order, so ranges are consecutive)
        self.row_map.clear();
        self.row_map.resize(parent_rows, (0, 0));
        for (k, &(r, _)) in self.applied.iter().enumerate() {
            let slot = &mut self.row_map[r as usize];
            if slot.0 == slot.1 {
                slot.0 = k as u32;
            }
            slot.1 = k as u32 + 1;
        }
        self.entries2.clear();
        self.offsets2.clear();
        self.offsets2.push(0);
        for c in 0..table.cands.len() {
            let (lo, hi) = (table.offsets[c] as usize, table.offsets[c + 1] as usize);
            // only vertex-adding candidates exclude the new image: a closing
            // edge's validity reads existing images only
            let excl = adds_vertex && !matches!(table.cands[c], Extension::ClosingEdge { .. });
            let mut a = lo;
            while a < hi {
                let r = table.entries[a].0;
                let mut b = a + 1;
                while b < hi && table.entries[b].0 == r {
                    b += 1;
                }
                let (rlo, rhi) = self.row_map[r as usize];
                for k in rlo..rhi {
                    let img = self.applied[k as usize].1;
                    for &(_, w) in &table.entries[a..b] {
                        if excl && w == img {
                            continue;
                        }
                        self.entries2.push((k, w));
                    }
                }
                a = b;
            }
            self.offsets2.push(self.entries2.len() as u32);
        }
        std::mem::swap(&mut table.entries, &mut self.entries2);
        std::mem::swap(&mut table.offsets, &mut self.offsets2);
    }

    /// The per-row emission sweep of [`ExtensionScratch::build`].
    fn sweep(&mut self, pattern: &GrownPattern, data: &CsrSnapshot) {
        let n = pattern.graph.vertex_count() as u32;
        let words = (n as usize).div_ceil(64);
        for (r, e) in pattern.embeddings.iter().enumerate() {
            let r = r as u32;
            let g = data.graph(e.transaction);
            self.images.reset();
            for (p, &d) in e.vertices.iter().enumerate() {
                self.images.set(d, p as u32);
            }
            self.attachments.clear();
            for p in 0..n {
                let image = e.image(p as usize);
                let allow_new = self.allow_new[p as usize];
                let adj_row = &self.adj_bits[p as usize * words..(p as usize + 1) * words];
                for (w, el) in g.neighbors_at(image) {
                    match self.images.get(w) {
                        Some(q) => {
                            // a potential closing edge between pattern
                            // vertices p and q, discovered once per row from
                            // its smaller endpoint
                            if q <= p || adj_row[q as usize >> 6] & (1u64 << (q & 63)) != 0 {
                                continue;
                            }
                            self.keys.push(pack_fixed(TAG_CLOSING_EDGE, p, q, el.0));
                            self.entry_of_item.push((r, w));
                        }
                        None => {
                            // a potential new twig vertex attached at p
                            if !allow_new {
                                continue;
                            }
                            let vl = g.label(w);
                            self.keys.push(pack_fixed(TAG_NEW_VERTEX, p, vl.0, el.0));
                            self.entry_of_item.push((r, w));
                            self.attachments.push((w, p, el));
                        }
                    }
                }
            }
            // multi-edge attachments: subsets (size >= 2) of each outside
            // vertex's attachment edge set, read off the sorted flat buffer
            // one same-vertex run at a time
            self.attachments.sort_unstable();
            let mut start = 0usize;
            while start < self.attachments.len() {
                let w = self.attachments[start].0;
                let mut end = start + 1;
                while end < self.attachments.len() && self.attachments[end].0 == w {
                    end += 1;
                }
                self.run_edges.clear();
                for &(_, p, el) in &self.attachments[start..end] {
                    if self.run_edges.last() != Some(&(p, el)) {
                        self.run_edges.push((p, el));
                    }
                }
                start = end;
                let k = self.run_edges.len();
                if k < 2 {
                    continue;
                }
                let vertex_label = g.label(w);
                if k <= FULL_SUBSET_DEGREE {
                    for mask in 1u32..(1 << k) {
                        if mask.count_ones() < 2 {
                            continue;
                        }
                        self.subset.clear();
                        self.subset
                            .extend((0..k).filter(|i| mask & (1 << i) != 0).map(|i| self.run_edges[i]));
                        let m = intern_multi(&mut self.intern_multi, vertex_label, &mut self.subset);
                        self.keys.push(pack_fixed(TAG_MULTI, m, 0, 0));
                        self.entry_of_item.push((r, w));
                    }
                } else {
                    self.subset.clear();
                    self.subset.extend_from_slice(&self.run_edges);
                    let m = intern_multi(&mut self.intern_multi, vertex_label, &mut self.subset);
                    self.keys.push(pack_fixed(TAG_MULTI, m, 0, 0));
                    self.entry_of_item.push((r, w));
                    // sidecar: subset candidates from other rows must still
                    // gather this row (the reference re-scan would)
                    let lo = self.over_edges.len() as u32;
                    self.over_edges.extend_from_slice(&self.run_edges);
                    self.over_runs.push((r, w, vertex_label, lo, self.over_edges.len() as u32));
                }
            }
        }
    }

    /// Interns the packed sweep keys into dense group ids, settles the
    /// oversized-run extras, drops the groups with fewer than `sigma` items,
    /// drains the surviving candidates into the table and scatters their
    /// items into per-candidate entry lists with one grouping-kernel pass;
    /// returns the number of dropped candidates.
    fn finalize(&mut self, sigma: usize) -> usize {
        // Flat interning pass over the packed keys (the sweep deferred all
        // grouping): fixed-size candidates get first-occurrence ids 0..F,
        // multi candidates were already interned per run and are re-based to
        // F..F+M in a branch-predictable fixup pass.
        self.group_of_item.clear();
        self.group_of_item.reserve(self.keys.len());
        // consecutive items frequently repeat a key (several same-label
        // neighbors at the same attachment point emit identical descriptors
        // back to back), so a one-slot cache short-circuits the hash probe;
        // the sentinel's tag field (`u32::MAX`) matches no real key
        let mut prev_key = !0u128;
        let mut prev_group = 0u32;
        for &key in &self.keys {
            let g = if key == prev_key {
                prev_group
            } else if (key >> 96) as u32 == TAG_MULTI {
                MULTI_BIT | (key >> 64) as u32
            } else {
                let next = self.intern_fixed.len() as u32;
                *self.intern_fixed.entry(key).or_insert(next)
            };
            prev_key = key;
            prev_group = g;
            self.group_of_item.push(g);
        }
        let nfixed = self.intern_fixed.len() as u32;
        for g in &mut self.group_of_item {
            if *g & MULTI_BIT != 0 {
                *g = nfixed + (*g & !MULTI_BIT);
            }
        }
        let ncands = (nfixed as usize) + self.intern_multi.len();
        // oversized runs: every strict-subset multi candidate of a run owes
        // that run's row an entry (rare — most sweeps record none)
        self.extras.clear();
        if !self.over_runs.is_empty() {
            for (ext, &m) in &self.intern_multi {
                let Extension::NewVertexMulti { vertex_label, edges } = ext else {
                    continue;
                };
                for &(row, w, vl, lo, hi) in &self.over_runs {
                    if vl != *vertex_label || edges.len() >= (hi - lo) as usize {
                        continue;
                    }
                    if is_sorted_subset(edges, &self.over_edges[lo as usize..hi as usize]) {
                        self.extras.push((nfixed + m, row, w));
                    }
                }
            }
            for &(c, row, w) in &self.extras {
                self.group_of_item.push(c);
                self.entry_of_item.push((row, w));
            }
        }
        // σ bound before building: `live[c]` becomes candidate c's id in the
        // table, or `u32::MAX` when its entry count is below σ (every
        // candidate has an item, so at σ ≤ 1 this is the identity)
        self.live.clear();
        self.live.resize(ncands, 0);
        for &g in &self.group_of_item {
            self.live[g as usize] += 1;
        }
        let mut nlive = 0;
        for c in &mut self.live {
            *c = if *c as usize >= sigma {
                nlive += 1;
                nlive as u32 - 1
            } else {
                u32::MAX
            };
        }
        if nlive < ncands {
            let mut kept = 0;
            for k in 0..self.group_of_item.len() {
                let g = self.live[self.group_of_item[k] as usize];
                if g != u32::MAX {
                    self.group_of_item[kept] = g;
                    self.entry_of_item[kept] = self.entry_of_item[k];
                    kept += 1;
                }
            }
            self.group_of_item.truncate(kept);
            self.entry_of_item.truncate(kept);
            for extra in &mut self.extras {
                extra.0 = self.live[extra.0 as usize];
            }
            self.extras.retain(|extra| extra.0 != u32::MAX);
        }
        let table = &mut self.table;
        table.cands.clear();
        table.cands.resize(nlive, Extension::ClosingEdge { u: 0, v: 0, edge_label: Label(0) });
        for (key, c) in self.intern_fixed.drain() {
            if let Some(cand) = table.cands.get_mut(self.live[c as usize] as usize) {
                *cand = unpack_fixed(key);
            }
        }
        for (ext, m) in self.intern_multi.drain() {
            if let Some(cand) = table.cands.get_mut(self.live[(nfixed + m) as usize] as usize) {
                *cand = ext;
            }
        }
        // One histogram+scatter pass moves every (row, vertex) entry straight
        // into its grouped position — no order indirection, no per-entry push.
        self.sorter.scatter_by_group(
            &self.group_of_item,
            &self.entry_of_item,
            nlive,
            &mut table.offsets,
            &mut table.entries,
        );
        // extras were appended out of order; restore the ascending
        // (row, vertex) contract for the candidates they touched
        if !self.extras.is_empty() {
            self.group_of_item.clear();
            self.group_of_item.extend(self.extras.iter().map(|&(c, _, _)| c));
            self.group_of_item.sort_unstable();
            self.group_of_item.dedup();
            for &c in &self.group_of_item {
                let (lo, hi) = (table.offsets[c as usize] as usize, table.offsets[c as usize + 1] as usize);
                table.entries[lo..hi].sort_unstable();
            }
        }
        table.sorted.clear();
        table.sorted.extend(0..nlive as u32);
        let cands = &table.cands;
        table.sorted.sort_unstable_by(|&a, &b| cands[a as usize].cmp(&cands[b as usize]));
        ncands - nlive
    }
}

/// Packed-key tag of a [`Extension::NewVertex`] candidate.
const TAG_NEW_VERTEX: u32 = 0;
/// Packed-key tag of a [`Extension::ClosingEdge`] candidate.
const TAG_CLOSING_EDGE: u32 = 1;
/// Packed-key tag of an already-interned [`Extension::NewVertexMulti`]
/// candidate: the key's second word carries the multi intern id, so the
/// finalize pass resolves it without a hash probe.
const TAG_MULTI: u32 = 2;
/// Provisional-group marker for multi candidates during the finalize
/// interning pass (re-based past the fixed candidates once their count is
/// known).
const MULTI_BIT: u32 = 1 << 31;

/// Packs a fixed-size candidate descriptor into one interning key.
#[inline]
fn pack_fixed(tag: u32, a: u32, b: u32, c: u32) -> u128 {
    ((tag as u128) << 96) | ((a as u128) << 64) | ((b as u128) << 32) | c as u128
}

/// Reconstructs the [`Extension`] a packed key describes.
fn unpack_fixed(key: u128) -> Extension {
    let (tag, a, b, c) = ((key >> 96) as u32, (key >> 64) as u32, (key >> 32) as u32, key as u32);
    match tag {
        TAG_NEW_VERTEX => Extension::NewVertex { attach: a, vertex_label: Label(b), edge_label: Label(c) },
        _ => Extension::ClosingEdge { u: a, v: b, edge_label: Label(c) },
    }
}

/// Interns a multi-edge candidate built from the reusable subset buffer,
/// moving the buffer into the map only when the candidate is new: a repeat
/// probe (the common case — every supporting row re-derives the candidate)
/// hands the buffer straight back without touching the allocator.  Ids are
/// multi-local (0-based); finalize re-bases them past the fixed candidates.
fn intern_multi(
    map: &mut HashMap<Extension, u32, FxBuild>,
    vertex_label: Label,
    subset: &mut Vec<(u32, Label)>,
) -> u32 {
    let probe = Extension::NewVertexMulti { vertex_label, edges: std::mem::take(subset) };
    if let Some(&c) = map.get(&probe) {
        if let Extension::NewVertexMulti { edges, .. } = probe {
            *subset = edges;
        }
        c
    } else {
        let c = map.len() as u32;
        map.insert(probe, c);
        c
    }
}

/// True when sorted `needle` is a subset of sorted `haystack` (linear merge).
fn is_sorted_subset(needle: &[(u32, Label)], haystack: &[(u32, Label)]) -> bool {
    let mut it = haystack.iter();
    'outer: for x in needle {
        for y in it.by_ref() {
            if y == x {
                continue 'outer;
            }
            if y > x {
                return false;
            }
        }
        return false;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path_pattern::{PathKey, PathPattern};
    use skinny_graph::LabeledGraph;

    fn l(x: u32) -> Label {
        Label(x)
    }

    /// Two copies of a length-3 backbone a-b-c-d with a twig on b; copy 1
    /// additionally closes the chord (0, 2).
    fn data_graph() -> LabeledGraph {
        let mut g = LabeledGraph::from_unlabeled_edges(
            &[l(0), l(1), l(2), l(3), l(9), l(0), l(1), l(2), l(3), l(9)],
            [(0, 1), (1, 2), (2, 3), (1, 4), (5, 6), (6, 7), (7, 8), (6, 9)],
        )
        .unwrap();
        g.add_unlabeled_edge(VertexId(0), VertexId(2)).unwrap();
        g
    }

    fn seed_pattern() -> GrownPattern {
        let (key, _) = PathKey::canonical(vec![l(0), l(1), l(2), l(3)], vec![l(0); 3]);
        let mut p = PathPattern::new(key);
        p.add_occurrence(0, vec![VertexId(0), VertexId(1), VertexId(2), VertexId(3)], false);
        p.add_occurrence(0, vec![VertexId(5), VertexId(6), VertexId(7), VertexId(8)], false);
        GrownPattern::from_path_pattern(&p)
    }

    #[test]
    fn table_inverts_candidates_to_rows() {
        let g = data_graph();
        let data = CsrSnapshot::from_graph(&g);
        let pattern = seed_pattern();
        let mut scratch = ExtensionScratch::new();
        scratch.build(&pattern, &data, 2, 0);
        let table = &scratch.table;
        // candidates: the twig NewVertex (both rows) and the chord closing
        // edge (row 0 only)
        assert_eq!(table.candidate_count(), 2);
        // sorted order: NewVertex variants precede ClosingEdge
        let twig = table.extension(0);
        assert!(matches!(twig, Extension::NewVertex { attach: 1, .. }), "got {twig:?}");
        assert_eq!(table.entries(0), &[(0, VertexId(4)), (1, VertexId(9))]);
        assert_eq!(table.support_upper_bound(0), 2);
        let chord = table.extension(1);
        assert!(matches!(chord, Extension::ClosingEdge { u: 0, v: 2, .. }), "got {chord:?}");
        assert_eq!(table.entries(1).len(), 1);
        assert_eq!(table.entries(1)[0].0, 0);
    }

    #[test]
    fn gather_equals_reference_rescan() {
        let g = data_graph();
        let data = CsrSnapshot::from_graph(&g);
        let pattern = seed_pattern();
        let mut scratch = ExtensionScratch::new();
        scratch.build(&pattern, &data, 2, 0);
        for i in 0..scratch.table.candidate_count() {
            let ext = scratch.table.extension(i).clone();
            let gathered = scratch.table.gather(i, &pattern.embeddings);
            let rescanned = pattern.extend_embeddings(&data, &ext);
            assert_eq!(gathered, rescanned, "candidate {ext:?}");
        }
    }

    #[test]
    fn delta_zero_suppresses_new_vertex_candidates() {
        let g = data_graph();
        let data = CsrSnapshot::from_graph(&g);
        let pattern = seed_pattern();
        let mut scratch = ExtensionScratch::new();
        scratch.build(&pattern, &data, 0, 0);
        assert_eq!(scratch.table.candidate_count(), 1);
        assert!(matches!(scratch.table.extension(0), Extension::ClosingEdge { .. }));
        // scratch reuse: rebuilding with delta 2 restores the twig
        scratch.build(&pattern, &data, 2, 0);
        assert_eq!(scratch.table.candidate_count(), 2);
    }

    #[test]
    fn oversized_run_still_feeds_subset_candidates() {
        // row 0: hub H adjacent to all 8 backbone vertices of a length-7
        // path (an oversized run, k = 8 > FULL_SUBSET_DEGREE);
        // row 1: hub adjacent to backbone vertices 0 and 1 only (a small
        // run generating the {0, 1} subset candidate).  The subset
        // candidate must gather BOTH rows.
        let mut labels: Vec<Label> = (0..8).map(l).collect();
        labels.push(l(7)); // hub of copy 1, label 7
        let mut edges: Vec<(u32, u32)> = (0..7).map(|i| (i, i + 1)).collect();
        for i in 0..8 {
            edges.push((i, 8));
        }
        let base = labels.len() as u32;
        labels.extend((0..8).map(l));
        labels.push(l(7)); // hub of copy 2
        edges.extend((0..7).map(|i| (base + i, base + i + 1)));
        edges.push((base, base + 8));
        edges.push((base + 1, base + 8));
        let g = LabeledGraph::from_unlabeled_edges(&labels, edges).unwrap();
        let data = CsrSnapshot::from_graph(&g);
        let (key, _) = PathKey::canonical((0..8).map(l).collect(), vec![l(0); 7]);
        let mut p = PathPattern::new(key);
        p.add_occurrence(0, (0..8).map(VertexId).collect(), false);
        p.add_occurrence(0, (base..base + 8).map(VertexId).collect(), false);
        let pattern = GrownPattern::from_path_pattern(&p);
        let mut scratch = ExtensionScratch::new();
        scratch.build(&pattern, &data, 2, 0);
        let table = &scratch.table;
        let mut checked_subset = false;
        for i in 0..table.candidate_count() {
            let ext = table.extension(i).clone();
            if let Extension::NewVertexMulti { ref edges, .. } = ext {
                if edges.len() == 2 && edges[0].0 == 0 && edges[1].0 == 1 {
                    // generated by row 1's small run, supported by both rows
                    assert_eq!(
                        table.entries(i).iter().map(|&(r, _)| r).collect::<Vec<_>>(),
                        vec![0, 1],
                        "oversized run of row 0 must feed the subset candidate"
                    );
                    checked_subset = true;
                }
            }
            let gathered = table.gather(i, &pattern.embeddings);
            let rescanned = pattern.extend_embeddings(&data, &ext);
            assert_eq!(gathered, rescanned, "candidate {ext:?}");
        }
        assert!(checked_subset, "the {{0, 1}} subset candidate must exist");
    }

    #[test]
    fn sorted_subset_helper() {
        let e = |p: u32| (p, Label(0));
        assert!(is_sorted_subset(&[e(1), e(3)], &[e(0), e(1), e(2), e(3)]));
        assert!(!is_sorted_subset(&[e(1), e(4)], &[e(0), e(1), e(2), e(3)]));
        assert!(is_sorted_subset(&[], &[e(0)]));
        assert!(!is_sorted_subset(&[e(0)], &[]));
    }
}
