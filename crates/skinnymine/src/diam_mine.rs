//! Stage I — **DiamMine**: mining all frequent simple paths of a given
//! length (the canonical diameters, i.e. the minimal constraint-satisfying
//! patterns of the skinny constraint).
//!
//! Following §3.2 and Algorithm 2 of the paper, the miner proceeds in two
//! steps:
//!
//! 1. frequent paths of length `2^0, 2^1, …, 2^k` (`2^k <= l`) are obtained
//!    by *concatenating* two frequent paths of the previous power of two at a
//!    shared end vertex;
//! 2. frequent paths of a non-power-of-two length `l` are obtained by
//!    *merging* two frequent length-`2^k` paths that overlap in exactly
//!    `2^{k+1} - l` edges (the prefix containing the head and the suffix
//!    containing the tail).
//!
//! All joins run at the occurrence (embedding) level, so no subgraph
//! isomorphism search is ever needed — this is what makes the stage "direct".
//!
//! The miner reads the CSR snapshot of its input (frozen once at
//! construction unless the input already is one): the seed step walks the
//! snapshot's `(label, edge label, label)` triple index instead of scanning
//! every edge, and the occurrence joins read both orientations of every
//! stored path straight out of a flat columnar arena without
//! cloning vertex vectors.
//!
//! Beyond paths, Stage I seeds the frequent odd cycles `C_{2l+1}` — the
//! minimal *non-path* constraint-satisfying patterns that Stage II cannot
//! reach from path seeds (e.g. C₅ for `l = 2`).  [`DiamMine::cycles_from_arcs`]
//! pairs the mined `l`-paths into cycles; [`DiamMine::cycles_from_paths`]
//! closes mined `2l`-paths instead (see [`crate::cycle`] for when each runs).
//!
//! The ladder joins run on three raw-speed kernels (mirroring the grow
//! engine's):
//!
//! * **level-carried arenas** — each finalized level is wrapped in a
//!   [`LadderLevel`] whose directed-occurrence store, `(pattern, direction)`
//!   row sources and owned [`PrefixIndex`] are built once per level (one
//!   pass + one scatter) and re-probed by every join that consumes the
//!   level, instead of a per-join rebuild of borrowed-key hash maps;
//! * a **pattern-pair memo** — a directed row's label sequence is fully
//!   determined by its source `(pattern, direction)`, so all products of one
//!   source pair share one canonical key: only the first product pays label
//!   assembly (graph-free, straight from the parents' keys),
//!   canonicalization and the interning hash, every later product is routed
//!   by one probe of an epoch-stamped memo;
//! * a **σ-pruned finalize** — a product pattern with fewer raw rows than σ
//!   is rejected before its occurrence dedup is even attempted (support is
//!   bounded by the row count under every measure), and survivors are
//!   filtered by [`OccurrenceStore::support_pruned`], exact whenever the
//!   result reaches σ.
//!
//! All three preserve the sequential emission order exactly, so mined output
//! stays byte-identical to the retained reference kernels
//! ([`DiamMine::concat_double_reference`] /
//! [`DiamMine::merge_to_length_reference`]) for every thread count.

use crate::cycle::{CyclePattern, CycleTable};
use crate::data::MiningData;
use crate::level_grow::phase_ticks;
use crate::path_pattern::{PathKey, PathPattern, PatternTable};
use crate::stats::{JoinPhaseStats, MiningStats};
use skinny_graph::{
    all_distinct_marked, disjoint_except_shared_marked, CsrGraph, CsrSnapshot, JoinScratch, Label,
    OccurrenceStore, PrefixIndex, SupportMeasure, SupportScratch, VertexId,
};
use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};
use std::time::{Duration, Instant};

/// Minimum transaction count before Stage-I seed enumeration shards the
/// transaction walk across pool workers — below this the per-task dispatch
/// overhead exceeds the walk itself.
const MIN_PARALLEL_TXNS: usize = 64;

/// Stage-I miner for frequent simple paths (and cycle seeds).
#[derive(Debug, Clone)]
pub struct DiamMine<'a> {
    snapshot: Cow<'a, CsrSnapshot>,
    sigma: usize,
    support: SupportMeasure,
    threads: usize,
    /// When set, [`DiamMine::frequent_edges`] returns this pre-computed
    /// finalized level-1 set instead of scanning the data — the incremental
    /// miner's injection point for its maintained seed table.  Every higher
    /// ladder level is a pure function of level 1, so the whole doubling
    /// ladder flows unchanged from the injected set.
    level1_override: Option<Vec<PathPattern>>,
}

/// Collects both directed orientations of every stored path occurrence of
/// every pattern into one columnar [`OccurrenceStore`] (pattern order, then
/// occurrence order, forward row before reversed row).  The join indexes
/// refer to rows by index — no per-occurrence allocation.
fn directed_occurrences(patterns: &[PathPattern]) -> OccurrenceStore {
    let arity = patterns[0].key.vertex_labels.len();
    let rows: usize = patterns.iter().map(|p| p.embeddings.len()).sum();
    let mut occs = OccurrenceStore::with_capacity(arity, 2 * rows);
    let mut reversed = Vec::with_capacity(arity);
    for p in patterns {
        for occ in p.embeddings.iter() {
            occs.push_row(occ.transaction, occ.vertices);
            reversed.clear();
            reversed.extend(occ.vertices.iter().rev().copied());
            occs.push_row(occ.transaction, &reversed);
        }
    }
    occs
}

/// The owned join arenas of one ladder level: the directed-occurrence store
/// (forward row then reversed row per occurrence, pattern-major), the packed
/// `(pattern index << 1) | direction` source of every directed row, and the
/// carried [`PrefixIndex`] the consuming join probes.  All three rebuild in
/// place with zero allocations once warm.
#[derive(Debug, Default)]
struct LevelArenas {
    occs: OccurrenceStore,
    source: Vec<u32>,
    index: PrefixIndex,
}

impl LevelArenas {
    /// One pass over the finalized patterns filling the directed store and
    /// row sources, then one scatter building the prefix index — the carried
    /// replacement for the per-join `directed_occurrences` + hash-map index
    /// rebuild.  Row order is byte-identical to [`directed_occurrences`].
    fn rebuild(&mut self, patterns: &[PathPattern], prefix_len: usize) {
        let arity = patterns.first().map_or(0, |p| p.key.vertex_labels.len());
        let rows: usize = patterns.iter().map(|p| p.embeddings.len()).sum();
        self.occs.reset(arity);
        self.occs.reserve_rows(2 * rows);
        self.source.clear();
        self.source.reserve(2 * rows);
        for (pi, p) in patterns.iter().enumerate() {
            let src = (pi as u32) << 1;
            for occ in p.embeddings.iter() {
                self.occs.push_row(occ.transaction, occ.vertices);
                self.source.push(src);
                self.occs.push_row_reversed(occ.transaction, occ.vertices);
                self.source.push(src | 1);
            }
        }
        self.index.build(&self.occs, prefix_len);
    }

    /// Rebuilds only the prefix index over the carried rows — the path taken
    /// when the same level is consumed at a different overlap width (e.g. a
    /// concat followed by merges to several targets).
    fn reindex(&mut self, prefix_len: usize) {
        self.index.build(&self.occs, prefix_len);
    }
}

/// One finalized level of the Stage-I doubling ladder, carried between
/// joins: the level's patterns plus lazily-materialized join arenas (the
/// directed occurrence rows, their `(pattern, direction)` sources, and the
/// owned prefix index the next join probes).
///
/// Carrying the level means `l → 2l` pays one pass + one scatter over the
/// finalized rows instead of a from-scratch posting rebuild per join, and a
/// warm [`LadderLevel::rebuild`] reuses every arena without touching the
/// allocator (pinned in `tests/alloc_hot_loops.rs`).
#[derive(Debug, Default)]
pub struct LadderLevel {
    patterns: Vec<PathPattern>,
    arenas: LevelArenas,
    arenas_built: bool,
}

impl LadderLevel {
    /// Wraps finalized `patterns` without building the join arenas — they
    /// are built on first use, so a ladder's top level (which no further
    /// join consumes) never pays for them.
    pub fn lazy(patterns: Vec<PathPattern>) -> Self {
        LadderLevel { patterns, arenas: LevelArenas::default(), arenas_built: false }
    }

    /// Builds a level over `patterns` with its join arenas materialized
    /// eagerly at the given index prefix length.
    pub fn from_patterns(patterns: Vec<PathPattern>, prefix_len: usize) -> Self {
        let mut level = LadderLevel::lazy(patterns);
        level.ensure_prefix(prefix_len);
        level
    }

    /// Replaces the level's patterns and rebuilds the join arenas in place;
    /// a warm rebuild of the same shape performs zero allocations.
    pub fn rebuild(&mut self, patterns: Vec<PathPattern>, prefix_len: usize) {
        self.patterns = patterns;
        self.arenas.rebuild(&self.patterns, prefix_len);
        self.arenas_built = true;
    }

    /// The level's finalized patterns.
    pub fn patterns(&self) -> &[PathPattern] {
        &self.patterns
    }

    /// Consumes the level, returning its patterns.
    pub fn into_patterns(self) -> Vec<PathPattern> {
        self.patterns
    }

    /// Ensures the arenas exist and the carried index groups by
    /// `prefix_len` vertices: a full single-pass build when the arenas were
    /// never materialized, an index-only rebuild over the carried rows when
    /// only the prefix width changed, nothing when already correct.
    fn ensure_prefix(&mut self, prefix_len: usize) {
        if !self.arenas_built {
            self.arenas.rebuild(&self.patterns, prefix_len);
            self.arenas_built = true;
        } else if self.arenas.index.prefix_len() != prefix_len {
            self.arenas.reindex(prefix_len);
        }
    }
}

/// Per-chunk join phase-tick accumulators, settled into wall-clock
/// durations once per chunk against the chunk's own `(Instant, ticks)`
/// calibration window — the ladder sibling of the grow engine's
/// `PhaseTicks`.
#[derive(Debug, Default, Clone, Copy)]
struct JoinTicks {
    probe: u64,
    gather: u64,
    intern: u64,
}

impl JoinTicks {
    /// Settles the accumulated ticks into `phases` using the chunk's own
    /// calibration window: `wall` wall-clock elapsed over `ticks` raw ticks.
    fn settle(self, phases: &mut JoinPhaseStats, wall: Duration, ticks: u64) {
        let per = wall.as_secs_f64() / ticks.max(1) as f64;
        let d = |t: u64| Duration::from_secs_f64(t as f64 * per);
        phases.probe += d(self.probe);
        phases.gather += d(self.gather);
        phases.intern += d(self.intern);
    }
}

/// Chained phase-boundary sample: adds the ticks since `last` to `bucket`
/// and advances `last`, so each boundary is read once.
#[inline]
fn bump(last: &mut u64, bucket: &mut u64) {
    let now = phase_ticks();
    *bucket += now.wrapping_sub(*last);
    *last = now;
}

/// Appends the label sequences of one directed parent row (its pattern's
/// canonical key read in `rev` orientation), skipping the first `skip_v`
/// vertex labels and `skip_e` edge labels — the graph-free label assembly of
/// the pattern-pair memo's miss path.
#[inline]
fn push_directed_labels(
    key: &PathKey,
    rev: bool,
    skip_v: usize,
    skip_e: usize,
    vertex_labels: &mut Vec<Label>,
    edge_labels: &mut Vec<Label>,
) {
    if rev {
        vertex_labels.extend(key.vertex_labels.iter().rev().skip(skip_v));
        edge_labels.extend(key.edge_labels.iter().rev().skip(skip_e));
    } else {
        vertex_labels.extend_from_slice(&key.vertex_labels[skip_v..]);
        edge_labels.extend_from_slice(&key.edge_labels[skip_e..]);
    }
}

/// Routes the assembled product row in `scratch.row` to its pattern slot via
/// the pattern-pair memo: a directed row's labels are fully determined by
/// its packed source, so all products of the source pair `(src_a, src_b)`
/// share one `(slot, orientation)`.  Only the first product assembles the
/// directed labels (from the parents' keys — no graph lookups),
/// canonicalizes them and pays the interning hash; later products are one
/// memo probe plus the row append.
///
/// A stored row's labels equal its pattern's canonical key read in the
/// row's direction (palindromic keys read the same both ways), so the memo
/// value is exactly what per-product `key_of_occurrence` + `slot_for`
/// would have produced — emission order is unchanged.
#[inline]
#[allow(clippy::too_many_arguments)] // a free fn on the join hot path; the args are the join row
fn intern_product(
    patterns: &[PathPattern],
    table: &mut PatternTable,
    scratch: &mut JoinScratch,
    t: usize,
    src_a: u32,
    src_b: u32,
    skip_v: usize,
    skip_e: usize,
) {
    let memo_key = ((src_a as u64) << 32) | src_b as u64;
    let packed = match scratch.pair_memo.get(memo_key) {
        Some(p) => p,
        None => {
            scratch.vertex_labels.clear();
            scratch.edge_labels.clear();
            let a = &patterns[(src_a >> 1) as usize].key;
            let b = &patterns[(src_b >> 1) as usize].key;
            push_directed_labels(
                a,
                src_a & 1 == 1,
                0,
                0,
                &mut scratch.vertex_labels,
                &mut scratch.edge_labels,
            );
            push_directed_labels(
                b,
                src_b & 1 == 1,
                skip_v,
                skip_e,
                &mut scratch.vertex_labels,
                &mut scratch.edge_labels,
            );
            let reversed =
                PathPattern::canonicalize_labels(&mut scratch.vertex_labels, &mut scratch.edge_labels);
            // the palindromic bit rides in the memo so the per-row store
            // below never re-derives it from the key's label vectors
            let palindromic = scratch.vertex_labels.iter().rev().eq(scratch.vertex_labels.iter())
                && scratch.edge_labels.iter().rev().eq(scratch.edge_labels.iter());
            let slot = table.slot_index_for(&scratch.vertex_labels, &scratch.edge_labels);
            let packed = (slot << 2) | ((palindromic as u32) << 1) | reversed as u32;
            scratch.pair_memo.insert(memo_key, packed);
            packed
        }
    };
    let embeddings = &mut table.slot_mut(packed >> 2).embeddings;
    let flip = if packed & 2 != 0 {
        // palindromic pattern: both orientations match the key, pick the
        // id-smaller one so each undirected occurrence is stored once
        scratch.row.iter().rev().lt(scratch.row.iter())
    } else {
        packed & 1 == 1
    };
    if flip {
        embeddings.push_row_reversed(t, &scratch.row);
    } else {
        embeddings.push_row(t, &scratch.row);
    }
}

impl<'a> DiamMine<'a> {
    /// Creates a Stage-I miner over `data` with support threshold `sigma`
    /// under the given support measure.  Adjacency-list input is frozen into
    /// a CSR snapshot here, once; snapshot input is borrowed.
    pub fn new(data: MiningData<'a>, sigma: usize, support: SupportMeasure) -> Self {
        DiamMine { snapshot: data.to_snapshot(), sigma, support, threads: 1, level1_override: None }
    }

    /// The graph of transaction `t`.
    #[inline]
    fn graph(&self, t: usize) -> &CsrGraph {
        self.snapshot.graph(t)
    }

    /// Sets the number of worker threads used by the occurrence-level joins
    /// (1 = sequential).  The mined patterns and their occurrence order are
    /// identical for every thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Injects a pre-computed finalized level-1 pattern set: subsequent
    /// [`DiamMine::frequent_edges`] calls return a clone of `level1` instead
    /// of scanning the data.  `level1` must be exactly what
    /// `frequent_edges()` would compute (deduped, σ-filtered, key-sorted with
    /// sequential occurrence order) — the incremental miner guarantees this
    /// by maintaining the unfiltered table under transaction deltas and
    /// finalizing it per refresh.
    pub fn with_frequent_edges(mut self, level1: Vec<PathPattern>) -> Self {
        self.level1_override = Some(level1);
        self
    }

    /// All frequent paths of length exactly 1 (frequent edges) — the seed set
    /// `S_0` of Algorithm 2.
    ///
    /// The walk visits the CSR edge-triple index, one bucket per candidate
    /// path key.
    ///
    /// With more than `MIN_PARALLEL_TXNS` transactions and `threads > 1`
    /// the transaction walk is sharded across pool workers: each chunk
    /// accumulates its own [`PatternTable`] and the partials merge in chunk
    /// (= transaction) order, so slot order equals sequential
    /// first-occurrence order and every pattern's posting list keeps the
    /// sequential transaction order — the same argument that keeps the
    /// occurrence joins byte-identical.
    pub fn frequent_edges(&self) -> Vec<PathPattern> {
        self.frequent_edges_with_stats(&mut MiningStats::default())
    }

    /// [`DiamMine::frequent_edges`] recording the σ-filter's timing and
    /// pruning counters into `stats`.
    pub fn frequent_edges_with_stats(&self, stats: &mut MiningStats) -> Vec<PathPattern> {
        if let Some(level1) = &self.level1_override {
            return level1.clone();
        }
        self.finalize_with_stats(self.level1_table().into_patterns(), stats)
    }

    /// The **unfiltered** level-1 pattern table: every length-1 occurrence
    /// accumulated in sequential transaction order, before dedup and the
    /// σ-filter.  This is the state the incremental miner maintains under
    /// transaction deltas ([`DiamMine::frequent_edges`] =
    /// finalize(level1_table())); each slot's rows are in nondecreasing
    /// transaction order with each transaction's rows contiguous, which is
    /// what makes per-transaction retain + re-seed + transaction-ordered
    /// stitch reproduce this table exactly.
    pub fn level1_table(&self) -> PatternTable {
        let txns = self.snapshot.len();
        if self.threads <= 1 || txns < MIN_PARALLEL_TXNS {
            let mut table = PatternTable::new();
            self.seed_transactions(0..txns, &mut table);
            table
        } else {
            let ranges = skinny_pool::chunk_ranges(txns, self.threads, 4);
            let partials = skinny_pool::run_indexed(self.threads, ranges.len(), |c| {
                let mut local = PatternTable::new();
                self.seed_transactions(ranges[c].clone(), &mut local);
                local
            });
            let mut merged = PatternTable::new();
            for partial in partials {
                merged.merge(partial);
            }
            merged
        }
    }

    /// Seed enumeration over one contiguous transaction shard, accumulating
    /// into `table` — the per-task body of [`DiamMine::frequent_edges`], and
    /// the incremental miner's per-dirty-transaction re-seed (`t..t + 1`).
    pub(crate) fn seed_transactions(&self, range: std::ops::Range<usize>, table: &mut PatternTable) {
        for t in range {
            for ((la, el, lb), bucket) in self.graph(t).edge_triples() {
                let pattern = table.slot_for(&[la, lb], &[el]);
                for &(u, v) in bucket {
                    pattern.add_occurrence_slice(t, &[u, v], false);
                }
            }
        }
    }

    /// The frequent length-1 path of one specific `(label, edge label,
    /// label)` triple, together with the number of edge records visited to
    /// enumerate it.
    ///
    /// The walk visits exactly the triple's index bucket in every
    /// transaction, so the visit count equals the triple's occurrence count.
    /// The index-walk regression test asserts it: Stage-I seed enumeration
    /// must never fall back to a full edge scan per label triple.
    pub fn frequent_edges_for_triple(&self, la: Label, el: Label, lb: Label) -> (Option<PathPattern>, u64) {
        let (key, _) = PathKey::canonical(vec![la, lb], vec![el]);
        let mut pattern = PathPattern::new(key.clone());
        let mut visited = 0u64;
        for (t, csr) in self.snapshot.iter() {
            let bucket = csr.triple_edges(la, el, lb);
            visited += bucket.len() as u64;
            for &(u, v) in bucket {
                pattern.add_occurrence(t, vec![u, v], false);
            }
        }
        pattern.dedup();
        if pattern.support(self.support) >= self.sigma {
            (Some(pattern), visited)
        } else {
            (None, visited)
        }
    }

    /// Concatenates frequent paths of length `n` into candidate paths of
    /// length `2n` by joining occurrences at a shared end vertex
    /// (`CheckConcat` of Algorithm 2).
    ///
    /// The join probes the level's carried [`PrefixIndex`] over
    /// `(transaction, head vertex)`, per-row disjointness is an epoch-marked
    /// probe, products are routed to their pattern slot by the pattern-pair
    /// memo (graph-free), and the σ-filter runs the pruned evaluator — a
    /// rejected row pair touches no allocator.
    pub fn concat_double(&self, current: &[PathPattern]) -> Vec<PathPattern> {
        if current.is_empty() {
            return Vec::new();
        }
        let mut arenas = LevelArenas::default();
        arenas.rebuild(current, 1);
        self.concat_join(current, &arenas, &mut MiningStats::default())
    }

    /// The concat join over a level's carried arenas: probe the prefix-1
    /// index, check disjointness, gather the combined row, intern via the
    /// pattern-pair memo, then σ-filter with the pruned evaluator.
    fn concat_join(
        &self,
        patterns: &[PathPattern],
        arenas: &LevelArenas,
        stats: &mut MiningStats,
    ) -> Vec<PathPattern> {
        debug_assert_eq!(arenas.index.prefix_len(), 1);
        let (occs, source, index) = (&arenas.occs, &arenas.source, &arenas.index);
        let (table, phases) = self.join_occurrences(occs.len(), |range, table, scratch| {
            let wall = Instant::now();
            let t0 = phase_ticks();
            scratch.pair_memo.reset();
            let mut tk = JoinTicks::default();
            let mut last = t0;
            for i in range {
                let a = occs.row(i);
                let t = occs.transaction(i);
                let tail = &a[a.len() - 1..];
                let postings = index.postings(occs, t, tail);
                bump(&mut last, &mut tk.probe);
                for &bi in postings {
                    let bi = bi as usize;
                    // Mirror pruning: the directed row set is closed under
                    // reversal with partner row `k ^ 1`, so the product of
                    // (i, bi) is rediscovered — reversed — as (bi^1, i^1) and
                    // both intern to the same stored row.  Emit only the
                    // loop-order-earlier twin: the duplicate the exact dedup
                    // used to remove is never materialized, and the kept
                    // row's first-occurrence position is unchanged.
                    if (bi ^ 1, i ^ 1) < (i, bi) {
                        continue;
                    }
                    let b = occs.row(bi);
                    if !disjoint_except_shared_marked(a, b, &mut scratch.marks) {
                        bump(&mut last, &mut tk.probe);
                        continue;
                    }
                    bump(&mut last, &mut tk.probe);
                    scratch.row.clear();
                    scratch.row.extend_from_slice(a);
                    scratch.row.extend_from_slice(&b[1..]);
                    bump(&mut last, &mut tk.gather);
                    intern_product(patterns, table, scratch, t, source[i], source[bi], 1, 0);
                    bump(&mut last, &mut tk.intern);
                }
            }
            let mut phases = JoinPhaseStats::default();
            tk.settle(&mut phases, wall.elapsed(), phase_ticks().wrapping_sub(t0));
            phases
        });
        stats.join_phases.merge(&phases);
        self.finalize_joined(table.into_patterns(), stats)
    }

    /// Merges frequent paths of length `n` into candidate paths of length
    /// `target` (`n < target < 2n`) by overlapping a suffix of one occurrence
    /// with a prefix of another (`CheckMergeHead` / `CheckMergeTail` of
    /// Algorithm 2).
    ///
    /// Like [`DiamMine::concat_double`], the join probes a carried
    /// [`PrefixIndex`] — here over `(transaction, overlap prefix)`, with the
    /// lookup key borrowed straight from the probing row's suffix — interns
    /// products through the pattern-pair memo, and σ-filters with the pruned
    /// evaluator.
    pub fn merge_to_length(&self, base: &[PathPattern], target: usize) -> Vec<PathPattern> {
        if base.is_empty() {
            return Vec::new();
        }
        let n = base[0].len();
        assert!(target > n && target < 2 * n, "merge target must satisfy n < target < 2n");
        let mut arenas = LevelArenas::default();
        arenas.rebuild(base, 2 * n - target + 1);
        self.merge_join(base, &arenas, target, &mut MiningStats::default())
    }

    /// The merge join over a level's carried arenas (index prefix =
    /// overlap width): probe, gather, simplicity check, memo intern, pruned
    /// σ-filter.
    fn merge_join(
        &self,
        patterns: &[PathPattern],
        arenas: &LevelArenas,
        target: usize,
        stats: &mut MiningStats,
    ) -> Vec<PathPattern> {
        let n = patterns[0].len();
        let overlap_vertices = 2 * n - target + 1;
        debug_assert_eq!(arenas.index.prefix_len(), overlap_vertices);
        let (occs, source, index) = (&arenas.occs, &arenas.source, &arenas.index);
        let (table, phases) = self.join_occurrences(occs.len(), |range, table, scratch| {
            let wall = Instant::now();
            let t0 = phase_ticks();
            scratch.pair_memo.reset();
            let mut tk = JoinTicks::default();
            let mut last = t0;
            for i in range {
                let a = occs.row(i);
                let t = occs.transaction(i);
                let suffix = &a[a.len() - overlap_vertices..];
                let postings = index.postings(occs, t, suffix);
                bump(&mut last, &mut tk.probe);
                for &bi in postings {
                    let bi = bi as usize;
                    // Mirror pruning, exactly as in the concat join: the
                    // reversed rediscovery (bi^1, i^1) stores the same row,
                    // so only the loop-order-earlier twin is emitted.
                    if (bi ^ 1, i ^ 1) < (i, bi) {
                        continue;
                    }
                    let b = occs.row(bi);
                    scratch.row.clear();
                    scratch.row.extend_from_slice(a);
                    scratch.row.extend_from_slice(&b[overlap_vertices..]);
                    bump(&mut last, &mut tk.gather);
                    if !all_distinct_marked(&scratch.row, &mut scratch.marks) {
                        bump(&mut last, &mut tk.probe);
                        continue;
                    }
                    bump(&mut last, &mut tk.probe);
                    intern_product(
                        patterns,
                        table,
                        scratch,
                        t,
                        source[i],
                        source[bi],
                        overlap_vertices,
                        overlap_vertices - 1,
                    );
                    bump(&mut last, &mut tk.intern);
                }
            }
            let mut phases = JoinPhaseStats::default();
            tk.settle(&mut phases, wall.elapsed(), phase_ticks().wrapping_sub(t0));
            phases
        });
        stats.join_phases.merge(&phases);
        self.finalize_joined(table.into_patterns(), stats)
    }

    /// Reference (pre-engine) implementation of [`DiamMine::concat_double`]:
    /// the per-join `HashMap<(transaction, endpoint), Vec<row>>` build with
    /// per-row key cloning that the occurrence index replaced.  Sequential;
    /// kept as the parity oracle of the ladder tests.  Output is
    /// byte-identical to the indexed engine.
    #[doc(hidden)]
    pub fn concat_double_reference(&self, current: &[PathPattern]) -> Vec<PathPattern> {
        if current.is_empty() {
            return Vec::new();
        }
        let occs = directed_occurrences(current);
        let mut by_head: HashMap<(usize, VertexId), Vec<u32>> = HashMap::new();
        for i in 0..occs.len() {
            by_head.entry((occs.transaction(i), occs.row(i)[0])).or_default().push(i as u32);
        }
        let mut by_key: HashMap<PathKey, PathPattern> = HashMap::new();
        for i in 0..occs.len() {
            let a = occs.row(i);
            let t = occs.transaction(i);
            let tail = *a.last().expect("occurrence is nonempty");
            let Some(candidates) = by_head.get(&(t, tail)) else { continue };
            for &bi in candidates {
                let b = occs.row(bi as usize);
                if !disjoint_except_shared(a, b) {
                    continue;
                }
                let mut combined = a.to_vec();
                combined.extend_from_slice(&b[1..]);
                let (key, reversed) = PathPattern::key_of_occurrence(self.graph(t), &combined);
                by_key
                    .entry(key.clone())
                    .or_insert_with(|| PathPattern::new(key))
                    .add_occurrence(t, combined, reversed);
            }
        }
        self.finalize_reference(by_key)
    }

    /// Reference (pre-engine) implementation of
    /// [`DiamMine::merge_to_length`]; see
    /// [`DiamMine::concat_double_reference`].
    #[doc(hidden)]
    pub fn merge_to_length_reference(&self, base: &[PathPattern], target: usize) -> Vec<PathPattern> {
        if base.is_empty() {
            return Vec::new();
        }
        let n = base[0].len();
        assert!(target > n && target < 2 * n, "merge target must satisfy n < target < 2n");
        let overlap_vertices = 2 * n - target + 1;
        let occs = directed_occurrences(base);
        let mut by_prefix: HashMap<(usize, Vec<VertexId>), Vec<u32>> = HashMap::new();
        for i in 0..occs.len() {
            let prefix = occs.row(i)[..overlap_vertices].to_vec();
            by_prefix.entry((occs.transaction(i), prefix)).or_default().push(i as u32);
        }
        let mut by_key: HashMap<PathKey, PathPattern> = HashMap::new();
        for i in 0..occs.len() {
            let a = occs.row(i);
            let t = occs.transaction(i);
            let suffix = a[a.len() - overlap_vertices..].to_vec();
            let Some(candidates) = by_prefix.get(&(t, suffix)) else { continue };
            for &bi in candidates {
                let b = occs.row(bi as usize);
                let mut combined = a.to_vec();
                combined.extend_from_slice(&b[overlap_vertices..]);
                if combined.len() != target + 1 || !all_distinct(&combined) {
                    continue;
                }
                let (key, reversed) = PathPattern::key_of_occurrence(self.graph(t), &combined);
                by_key
                    .entry(key.clone())
                    .or_insert_with(|| PathPattern::new(key))
                    .add_occurrence(t, combined, reversed);
            }
        }
        self.finalize_reference(by_key)
    }

    /// Runs the per-chunk join body over all `rows` directed rows,
    /// sequentially with one accumulator table when `threads == 1`, or on
    /// the work-stealing pool over contiguous row chunks otherwise (the
    /// sharded ladder level: each chunk of the base rows accumulates its own
    /// [`PatternTable`] plus phase breakdown).  The body resets the
    /// pattern-pair memo per chunk because memoized slot indices are local to
    /// the chunk's table.
    ///
    /// The per-chunk partial tables are merged **in chunk order**, so every
    /// pattern's occurrence list ends up in the exact order the sequential
    /// loop would have produced — Stage I is deterministic for any thread
    /// count.  The per-chunk phase breakdowns are summed in chunk order too
    /// (summed CPU time across workers, the [`JoinPhaseStats`] convention).
    fn join_occurrences<F>(&self, rows: usize, body: F) -> (PatternTable, JoinPhaseStats)
    where
        F: Fn(std::ops::Range<usize>, &mut PatternTable, &mut JoinScratch) -> JoinPhaseStats + Sync,
    {
        let partials = self.shard_rows(rows, |range, scratch| {
            let mut local = PatternTable::new();
            let phases = body(range, &mut local, scratch);
            (local, phases)
        });
        let mut merged = PatternTable::new();
        let mut phases = JoinPhaseStats::default();
        for (partial, chunk_phases) in partials {
            merged.merge(partial);
            phases.merge(&chunk_phases);
        }
        (merged, phases)
    }

    /// Runs `body` over all `rows` probing rows and returns the per-chunk
    /// outputs in chunk order: one chunk when `threads == 1` or the join is
    /// small, contiguous row chunks on the work-stealing pool otherwise.
    /// Every worker reuses one [`JoinScratch`] across all the chunks it
    /// executes or steals.
    fn shard_rows<T, F>(&self, rows: usize, body: F) -> Vec<T>
    where
        T: Send,
        F: Fn(std::ops::Range<usize>, &mut JoinScratch) -> T + Sync,
    {
        // Parallelism only pays once there is real join work per chunk: the
        // pool spawns scoped workers per run (~half a millisecond at 8
        // workers), and a few-thousand-row join finishes faster than that
        // sequentially — measured on the incremental-maintenance corpora,
        // where small per-refresh ladders at 8 threads spent more time
        // spawning workers than joining.
        const MIN_PARALLEL_OCCS: usize = 4096;
        if self.threads <= 1 || rows < MIN_PARALLEL_OCCS {
            return vec![body(0..rows, &mut JoinScratch::new())];
        }
        let ranges = skinny_pool::chunk_ranges(rows, self.threads, 4);
        skinny_pool::run_with(self.threads, ranges.len(), JoinScratch::new, |scratch, c| {
            body(ranges[c].clone(), scratch)
        })
    }

    /// Extends a carried ladder (`levels[i]` = frequent paths of length
    /// `2^i`) up to exponent `max_exp`, seeding level 0 from
    /// [`DiamMine::frequent_edges`] when the ladder is empty.  Each new
    /// level is produced by one concat join probing the previous level's
    /// carried arenas; exhausted levels stay as empty placeholders.
    fn extend_ladder(&self, levels: &mut Vec<LadderLevel>, max_exp: usize, stats: &mut MiningStats) {
        if levels.is_empty() {
            levels.push(LadderLevel::lazy(self.frequent_edges_with_stats(stats)));
        }
        while levels.len() <= max_exp {
            let prev_idx = levels.len() - 1;
            if levels[prev_idx].patterns.is_empty() {
                levels.push(LadderLevel::default());
                continue;
            }
            let wall = Instant::now();
            levels[prev_idx].ensure_prefix(1);
            stats.join_phases.intern += wall.elapsed();
            let prev = &levels[prev_idx];
            let next = self.concat_join(&prev.patterns, &prev.arenas, stats);
            levels.push(LadderLevel::lazy(next));
        }
    }

    /// Mines length `l` from a carried ladder, extending it as needed: a
    /// power-of-two length is the ladder level itself, any other length is
    /// one merge join probing level `⌊log2 l⌋`'s carried rows at the overlap
    /// width (an index-only rebuild when the level was last probed at a
    /// different width).
    fn mine_length(
        &self,
        levels: &mut Vec<LadderLevel>,
        l: usize,
        stats: &mut MiningStats,
    ) -> Vec<PathPattern> {
        let k = floor_log2(l);
        self.extend_ladder(levels, k, stats);
        let n = 1usize << k;
        if l == n {
            return levels[k].patterns.clone();
        }
        if levels[k].patterns.is_empty() {
            return Vec::new();
        }
        let overlap_vertices = 2 * n - l + 1;
        let wall = Instant::now();
        levels[k].ensure_prefix(overlap_vertices);
        stats.join_phases.intern += wall.elapsed();
        let level = &levels[k];
        self.merge_join(&level.patterns, &level.arenas, l, stats)
    }

    /// Frequent paths of every power-of-two length `2^0 .. 2^max_exp`,
    /// indexed by exponent.  Stops early (with empty trailing levels) once a
    /// level yields no frequent path.
    pub fn powers_up_to(&self, max_exp: usize) -> Vec<Vec<PathPattern>> {
        let mut levels = Vec::new();
        self.extend_ladder(&mut levels, max_exp, &mut MiningStats::default());
        levels.into_iter().map(LadderLevel::into_patterns).collect()
    }

    /// All frequent simple paths of length exactly `l` (`DiamMine` in
    /// Algorithm 2).
    pub fn mine_exact(&self, l: usize) -> Vec<PathPattern> {
        self.mine_exact_with_stats(l, &mut MiningStats::default())
    }

    /// [`DiamMine::mine_exact`] recording join phase timings and pruning
    /// counters into `stats`.
    pub fn mine_exact_with_stats(&self, l: usize, stats: &mut MiningStats) -> Vec<PathPattern> {
        if l == 0 {
            return Vec::new();
        }
        let mut levels = Vec::new();
        self.mine_length(&mut levels, l, stats)
    }

    /// [`DiamMine::mine_exact`] for several lengths at once, sharing one
    /// carried power-of-two doubling ladder across all of them instead of
    /// rebuilding it per length (the ladder up to `2^k <= max(lengths)`
    /// dominates the cost when the lengths are close together).
    pub fn mine_exact_many(&self, lengths: &[usize]) -> BTreeMap<usize, Vec<PathPattern>> {
        self.mine_exact_many_with_stats(lengths, &mut MiningStats::default())
    }

    /// [`DiamMine::mine_exact_many`] recording join phase timings and
    /// pruning counters into `stats`.
    pub fn mine_exact_many_with_stats(
        &self,
        lengths: &[usize],
        stats: &mut MiningStats,
    ) -> BTreeMap<usize, Vec<PathPattern>> {
        let mut out = BTreeMap::new();
        let mut levels = Vec::new();
        for &l in lengths {
            if l == 0 || out.contains_key(&l) {
                continue;
            }
            out.insert(l, self.mine_length(&mut levels, l, stats));
        }
        out
    }

    /// All frequent odd cycles `C_{2l+1}` whose canonical diameter has length
    /// `l` — the minimal **non-path** constraint-satisfying patterns of the
    /// skinny constraint (e.g. C₅ for `l = 2`: every one-edge or one-vertex
    /// reduction violates the constraint, so Definition-8 completeness needs
    /// these as Stage-II seeds).
    ///
    /// This is the **oracle** route: it mines every frequent path of length
    /// `2l` with a ladder of its own and keeps the occurrences whose
    /// endpoints are adjacent ([`DiamMine::cycles_from_paths`]).  It relies
    /// on the cycle's `2l`-sub-paths being frequent rather than its
    /// `l`-arcs, and pays for the whole `2l` ladder to do so.  The miner
    /// seeds from [`DiamMine::cycles_from_arcs`] under anti-monotone
    /// measures; the property tests hold the two routes byte-identical.
    pub fn frequent_cycles(&self, l: usize) -> Vec<CyclePattern> {
        if l == 0 {
            return Vec::new();
        }
        let paths = self.mine_exact(2 * l);
        self.cycles_from_paths(&paths, l)
    }

    /// Derives the frequent `C_{2l+1}` cycles from an already-mined set of
    /// frequent paths of length `2l`: an occurrence closes into a cycle when
    /// its endpoints are adjacent in its transaction.
    ///
    /// This is the **index** route.  The minimal-pattern index stores the
    /// `2l`-paths anyway, so the closing check is all it pays.  The miner
    /// also takes it for measures that are not anti-monotone, and it backs
    /// the [`DiamMine::frequent_cycles`] oracle.  Rows and patterns come out
    /// in the same canonical order as [`DiamMine::cycles_from_arcs`].
    pub fn cycles_from_paths(&self, paths_2l: &[PathPattern], l: usize) -> Vec<CyclePattern> {
        let mut table = CycleTable::default();
        for p in paths_2l {
            debug_assert_eq!(p.len(), 2 * l, "cycle seeds need paths of length 2l");
            for occ in p.embeddings.iter() {
                let t = occ.transaction;
                let view = self.graph(t);
                let head = occ.vertices[0];
                let tail = *occ.vertices.last().expect("path occurrence is nonempty");
                let Some(closing) = view.edge_label(head, tail) else { continue };
                let (key, canonical_vertices) = CyclePattern::canonicalize(view, occ.vertices, closing);
                table.push(key, t, &canonical_vertices);
            }
        }
        table.finish(self.support, self.sigma)
    }

    /// Derives the frequent `C_{2l+1}` cycles from the frequent paths of
    /// length `l` — the **arc** route, which needs no path longer than `l`.
    ///
    /// Every `C_{2l+1}` occurrence splits at its minimum vertex `v` into two
    /// `l`-arcs that start at `v`, share no other vertex, and whose far ends
    /// are joined by the closing data edge.  The kernel builds the prefix-1
    /// index over `(transaction, head)` of both orientations of every
    /// `l`-path occurrence, keeps only the directed rows whose head is the
    /// row's minimum vertex, and pairs rows `i < j` of the same posting
    /// list, so each cycle occurrence is produced exactly once.  A pair pays
    /// the closing-edge lookup first, then the epoch-marked disjointness
    /// check, then canonicalization; the shared accumulator σ-filters.
    /// Chunks of the probing rows run on the pool as in the ladder joins.
    ///
    /// Complete only under an **anti-monotone** measure
    /// ([`SupportMeasure::is_anti_monotone`]): both arcs are sub-patterns of
    /// the cycle, so the cycle being frequent makes both arc patterns
    /// frequent, and `paths_l` then holds every occurrence of them.  For any
    /// such measure the result is byte-identical to
    /// [`DiamMine::cycles_from_paths`] over the `2l`-paths.
    pub fn cycles_from_arcs(&self, paths_l: &[PathPattern], l: usize) -> Vec<CyclePattern> {
        if paths_l.is_empty() || l == 0 {
            return Vec::new();
        }
        debug_assert!(paths_l.iter().all(|p| p.len() == l), "cycle arcs need paths of length l");
        let mut arenas = LevelArenas::default();
        arenas.rebuild(paths_l, 1);
        let (occs, index) = (&arenas.occs, &arenas.index);
        // a directed row can be an arc only when its head is its minimum
        let apex_row = |i: usize| {
            let row = occs.row(i);
            row[1..].iter().all(|&v| v > row[0])
        };
        let partials = self.shard_rows(occs.len(), |range, scratch| {
            let mut table = CycleTable::default();
            for i in range {
                if !apex_row(i) {
                    continue;
                }
                let a = occs.row(i);
                let t = occs.transaction(i);
                let view = self.graph(t);
                let postings = index.postings(occs, t, &a[..1]);
                // posting lists keep global row order: only partners after i
                let later = &postings[postings.partition_point(|&j| j as usize <= i)..];
                for &j in later {
                    let j = j as usize;
                    if !apex_row(j) {
                        continue;
                    }
                    let b = occs.row(j);
                    let Some(closing) = view.edge_label(a[l], b[l]) else { continue };
                    // the cycle as a path b[l] .. b[1], v, a[1] .. a[l] whose
                    // endpoints the closing edge joins
                    scratch.row.clear();
                    scratch.row.extend(b[1..].iter().rev());
                    scratch.row.extend_from_slice(a);
                    if !all_distinct_marked(&scratch.row, &mut scratch.marks) {
                        continue;
                    }
                    let (key, vertices) = CyclePattern::canonicalize(view, &scratch.row, closing);
                    table.push(key, t, &vertices);
                }
            }
            table
        });
        let mut table = CycleTable::default();
        for partial in partials {
            table.merge(partial);
        }
        table.finish(self.support, self.sigma)
    }

    /// All frequent simple paths for every length in `[lo, hi]`
    /// (`hi = None` means "until no frequent path of that length exists",
    /// implementing the "length at least l" adaptation).
    pub fn mine_range(&self, lo: usize, hi: Option<usize>) -> BTreeMap<usize, Vec<PathPattern>> {
        self.mine_range_with_stats(lo, hi, &mut MiningStats::default())
    }

    /// [`DiamMine::mine_range`] recording join phase timings and pruning
    /// counters into `stats`.  One carried doubling ladder is shared across
    /// the whole length sweep, so consecutive lengths under the same
    /// power-of-two level pay only their merge join (plus an index-only
    /// re-prefix), never a ladder rebuild.
    pub fn mine_range_with_stats(
        &self,
        lo: usize,
        hi: Option<usize>,
        stats: &mut MiningStats,
    ) -> BTreeMap<usize, Vec<PathPattern>> {
        let mut out = BTreeMap::new();
        if lo == 0 {
            return out;
        }
        let mut levels = Vec::new();
        let mut l = lo;
        loop {
            if let Some(hi) = hi {
                if l > hi {
                    break;
                }
            }
            let paths = self.mine_length(&mut levels, l, stats);
            let empty = paths.is_empty();
            if !empty {
                out.insert(l, paths);
            }
            // Frequent path lengths are downward closed: once a length yields
            // nothing, longer lengths cannot yield anything either.
            if empty {
                break;
            }
            l += 1;
        }
        out
    }

    /// Filters candidates by support and removes duplicate occurrences.
    /// Output order is key-sorted, so it is independent of the input's slot
    /// order — which is why the incremental miner's maintained table (whose
    /// slot order is historical first-occurrence order, not the current
    /// corpus's) finalizes to the exact from-scratch result.
    pub(crate) fn finalize(&self, patterns: Vec<PathPattern>) -> Vec<PathPattern> {
        self.finalize_with_stats(patterns, &mut MiningStats::default())
    }

    /// [`DiamMine::finalize`] with σ-pruned support evaluation: a pattern
    /// whose raw row count is already below σ is rejected before paying
    /// dedup (support under every measure is bounded by the row count, and
    /// dedup only removes rows), and surviving patterns are measured with
    /// [`OccurrenceStore::support_pruned`], which is exact whenever the
    /// result is ≥ σ — so the kept set, and therefore the output bytes, are
    /// identical to the exact evaluator's.
    fn finalize_with_stats(&self, patterns: Vec<PathPattern>, stats: &mut MiningStats) -> Vec<PathPattern> {
        self.finalize_pruned(patterns, stats, true)
    }

    /// [`DiamMine::finalize_with_stats`] for the mirror-pruned join kernels:
    /// the join never materializes the reversed rediscovery of a product row,
    /// and within one pattern slot two distinct surviving source pairs cannot
    /// store equal rows (equal rows + one slot force equal directed labels,
    /// and the per-pattern stores the arenas were built from are themselves
    /// deduplicated), so the exact-duplicate scan is skipped outright.
    fn finalize_joined(&self, patterns: Vec<PathPattern>, stats: &mut MiningStats) -> Vec<PathPattern> {
        self.finalize_pruned(patterns, stats, false)
    }

    fn finalize_pruned(
        &self,
        patterns: Vec<PathPattern>,
        stats: &mut MiningStats,
        dedup: bool,
    ) -> Vec<PathPattern> {
        let wall = Instant::now();
        let mut scratch = SupportScratch::new();
        let mut rows_pruned = 0u64;
        let mut rejected = 0u64;
        let mut out: Vec<PathPattern> = patterns
            .into_iter()
            .filter_map(|mut p| {
                if p.embeddings.len() < self.sigma {
                    rows_pruned += p.embeddings.len() as u64;
                    rejected += 1;
                    return None;
                }
                if dedup {
                    p.dedup_with(&mut scratch);
                }
                if p.embeddings.support_pruned(self.support, self.sigma, &mut scratch) < self.sigma {
                    rejected += 1;
                    return None;
                }
                Some(p)
            })
            .collect();
        out.sort_by(|a, b| a.key.cmp(&b.key));
        stats.join_phases.support += wall.elapsed();
        stats.join_rows_pruned += rows_pruned;
        stats.join_products_rejected_sigma += rejected;
        out
    }

    /// Exact (unpruned) finalize: the reference evaluator the pruned path is
    /// verdict-checked against in tests and benchmarks.
    fn finalize_exact(&self, patterns: Vec<PathPattern>) -> Vec<PathPattern> {
        let mut scratch = SupportScratch::new();
        let mut out: Vec<PathPattern> = patterns
            .into_iter()
            .filter_map(|mut p| {
                p.dedup_with(&mut scratch);
                (p.embeddings.support_with(self.support, &mut scratch) >= self.sigma).then_some(p)
            })
            .collect();
        out.sort_by(|a, b| a.key.cmp(&b.key));
        out
    }

    /// [`DiamMine::finalize_exact`] over the reference joins' hash-map
    /// accumulator.
    fn finalize_reference(&self, by_key: HashMap<PathKey, PathPattern>) -> Vec<PathPattern> {
        self.finalize_exact(by_key.into_values().collect())
    }
}

/// Largest `k` with `2^k <= l` (`l >= 1`).
pub fn floor_log2(l: usize) -> usize {
    (usize::BITS - 1 - l.leading_zeros()) as usize
}

/// True when `a` and `b` share only the junction vertex `a.last() == b[0]`.
fn disjoint_except_shared(a: &[VertexId], b: &[VertexId]) -> bool {
    debug_assert_eq!(a.last(), b.first());
    for (i, x) in b.iter().enumerate() {
        if i == 0 {
            continue;
        }
        if a.contains(x) {
            return false;
        }
    }
    // b itself must be simple by construction; a likewise
    true
}

/// True when all vertices of a sequence are distinct.
fn all_distinct(vs: &[VertexId]) -> bool {
    let mut sorted = vs.to_vec();
    sorted.sort();
    sorted.windows(2).all(|w| w[0] != w[1])
}

#[cfg(test)]
mod tests {
    use super::*;
    use skinny_graph::{Label, LabeledGraph};

    fn l(x: u32) -> Label {
        Label(x)
    }

    /// Two disjoint copies of the labeled path a-b-c-d-e (labels 0..4),
    /// giving every sub-path support 2 under distinct-vertex-set counting.
    fn two_path_copies() -> LabeledGraph {
        let labels = vec![l(0), l(1), l(2), l(3), l(4), l(0), l(1), l(2), l(3), l(4)];
        LabeledGraph::from_unlabeled_edges(
            &labels,
            [(0, 1), (1, 2), (2, 3), (3, 4), (5, 6), (6, 7), (7, 8), (8, 9)],
        )
        .unwrap()
    }

    fn miner(g: &LabeledGraph, sigma: usize) -> DiamMine<'_> {
        DiamMine::new(MiningData::Single(g), sigma, SupportMeasure::DistinctVertexSets)
    }

    #[test]
    fn floor_log2_values() {
        assert_eq!(floor_log2(1), 0);
        assert_eq!(floor_log2(2), 1);
        assert_eq!(floor_log2(3), 1);
        assert_eq!(floor_log2(4), 2);
        assert_eq!(floor_log2(15), 3);
        assert_eq!(floor_log2(16), 4);
    }

    #[test]
    fn frequent_edges_found_with_support() {
        let g = two_path_copies();
        let edges = miner(&g, 2).frequent_edges();
        // edge patterns: (0,1), (1,2), (2,3), (3,4) each with 2 occurrences
        assert_eq!(edges.len(), 4);
        for e in &edges {
            assert_eq!(e.len(), 1);
            assert_eq!(e.support(SupportMeasure::DistinctVertexSets), 2);
        }
        // at sigma 3 nothing survives
        assert!(miner(&g, 3).frequent_edges().is_empty());
    }

    /// The length-1 pattern of one label triple found by scanning every
    /// edge of the adjacency-list graph — the oracle for the index walk.
    fn edge_scan(g: &LabeledGraph, key: &PathKey) -> PathPattern {
        let mut pattern = PathPattern::new(key.clone());
        for e in g.edges() {
            let occ = vec![e.u, e.v];
            let (occ_key, reversed) = PathPattern::key_of_occurrence(g, &occ);
            if &occ_key == key {
                pattern.add_occurrence(0, occ, reversed);
            }
        }
        pattern.dedup();
        pattern
    }

    #[test]
    fn csr_seed_walk_matches_edge_scan() {
        let g = two_path_copies();
        let edges = miner(&g, 2).frequent_edges();
        assert_eq!(edges.len(), 4);
        for e in &edges {
            assert_eq!(
                e.embeddings,
                edge_scan(&g, &e.key).embeddings,
                "occurrence stores must be byte-identical"
            );
        }
    }

    #[test]
    fn triple_seed_walk_visits_only_its_bucket() {
        let g = two_path_copies();
        let csr_miner = miner(&g, 2);
        let (p_csr, visited_csr) = csr_miner.frequent_edges_for_triple(l(0), Label::DEFAULT_EDGE, l(1));
        let p_csr = p_csr.expect("a-b edge is frequent");
        assert_eq!(p_csr.embeddings, edge_scan(&g, &p_csr.key).embeddings);
        // the index walk visits exactly the triple's 2 edges of the 8 — this
        // is the regression guard against reintroducing a full edge scan per
        // label triple
        assert_eq!(visited_csr, 2);
        // an absent triple costs zero index-walk work
        let (none, visited_none) = csr_miner.frequent_edges_for_triple(l(0), l(9), l(1));
        assert!(none.is_none());
        assert_eq!(visited_none, 0);
    }

    #[test]
    fn concat_doubles_length() {
        let g = two_path_copies();
        let m = miner(&g, 2);
        let len1 = m.frequent_edges();
        let len2 = m.concat_double(&len1);
        // length-2 paths: (0,1,2), (1,2,3), (2,3,4) each support 2
        assert_eq!(len2.len(), 3);
        for p in &len2 {
            assert_eq!(p.len(), 2);
            assert_eq!(p.support(SupportMeasure::DistinctVertexSets), 2);
        }
        let len4 = m.concat_double(&len2);
        // length-4 path: only (0,1,2,3,4)
        assert_eq!(len4.len(), 1);
        assert_eq!(len4[0].len(), 4);
        assert_eq!(len4[0].key.vertex_labels, vec![l(0), l(1), l(2), l(3), l(4)]);
    }

    #[test]
    fn mine_exact_power_of_two() {
        let g = two_path_copies();
        let paths = miner(&g, 2).mine_exact(4);
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].len(), 4);
        assert_eq!(paths[0].support(SupportMeasure::DistinctVertexSets), 2);
    }

    #[test]
    fn mine_exact_non_power_of_two_uses_merge() {
        let g = two_path_copies();
        let m = miner(&g, 2);
        // length 3 = merge of two length-2 paths overlapping in 1 edge
        let paths = m.mine_exact(3);
        // length-3 paths: (0..3) and (1..4)
        assert_eq!(paths.len(), 2);
        for p in &paths {
            assert_eq!(p.len(), 3);
            assert_eq!(p.support(SupportMeasure::DistinctVertexSets), 2);
        }
    }

    #[test]
    fn mine_exact_length_one_and_zero() {
        let g = two_path_copies();
        let m = miner(&g, 2);
        assert_eq!(m.mine_exact(1).len(), 4);
        assert!(m.mine_exact(0).is_empty());
    }

    #[test]
    fn mine_exact_longer_than_any_path_is_empty() {
        let g = two_path_copies();
        assert!(miner(&g, 2).mine_exact(5).is_empty());
        assert!(miner(&g, 2).mine_exact(9).is_empty());
    }

    #[test]
    fn merge_results_match_direct_enumeration_on_cycle() {
        // a 6-cycle with all-equal labels: every path of length 3 is an
        // occurrence of the single all-zero label path pattern; there are 6
        // undirected paths of length 3 (one per starting edge... exactly 6).
        let g =
            LabeledGraph::from_unlabeled_edges(&[l(0); 6], [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)])
                .unwrap();
        let m = miner(&g, 1);
        let len3 = m.mine_exact(3);
        assert_eq!(len3.len(), 1);
        assert_eq!(len3[0].embeddings.len(), 6);
        // length 5: 6 undirected occurrences as well
        let len5 = m.mine_exact(5);
        assert_eq!(len5.len(), 1);
        assert_eq!(len5[0].len(), 5);
        assert_eq!(len5[0].embeddings.len(), 6);
        // length 6 would need 7 distinct vertices: impossible in a 6-cycle
        assert!(m.mine_exact(6).is_empty());
    }

    #[test]
    fn frequent_cycles_found_on_pentagon_pair() {
        // two disjoint all-same-label 5-cycles: C5 is the minimal non-path
        // pattern for l = 2
        let mut edges = Vec::new();
        for base in [0u32, 5] {
            for i in 0..5 {
                edges.push((base + i, base + (i + 1) % 5));
            }
        }
        let g = LabeledGraph::from_unlabeled_edges(&[l(0); 10], edges).unwrap();
        let m = miner(&g, 2);
        let cycles = m.frequent_cycles(2);
        assert_eq!(cycles.len(), 1);
        let c5 = &cycles[0];
        assert_eq!(c5.cycle_len(), 5);
        // each pentagon contributes one undirected C5 occurrence
        assert_eq!(c5.embeddings.len(), 2);
        assert_eq!(c5.support(SupportMeasure::DistinctVertexSets), 2);
        // no C3 in this data
        assert!(m.frequent_cycles(1).is_empty());
    }

    #[test]
    fn mine_range_stops_when_exhausted() {
        let g = two_path_copies();
        let m = miner(&g, 2);
        let ranged = m.mine_range(2, None);
        let lengths: Vec<usize> = ranged.keys().copied().collect();
        assert_eq!(lengths, vec![2, 3, 4]);
        let bounded = m.mine_range(1, Some(2));
        assert_eq!(bounded.keys().copied().collect::<Vec<_>>(), vec![1, 2]);
        assert!(m.mine_range(0, None).is_empty());
    }

    #[test]
    fn indexed_joins_match_reference_joins_byte_identically() {
        // a 6-cycle plus the two-copy fixture: palindromic patterns,
        // branching and merges all in play
        for g in [
            two_path_copies(),
            LabeledGraph::from_unlabeled_edges(&[l(0); 6], [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)])
                .unwrap(),
        ] {
            let m = miner(&g, 1);
            let len1 = m.frequent_edges();
            let len2 = m.concat_double(&len1);
            let len2_ref = m.concat_double_reference(&len1);
            assert_eq!(len2.len(), len2_ref.len());
            for (a, b) in len2.iter().zip(&len2_ref) {
                assert_eq!(a.key, b.key);
                assert_eq!(a.embeddings, b.embeddings, "concat occurrence stores must be byte-identical");
            }
            if len2.is_empty() {
                continue;
            }
            let len3 = m.merge_to_length(&len2, 3);
            let len3_ref = m.merge_to_length_reference(&len2_ref, 3);
            assert_eq!(len3.len(), len3_ref.len());
            for (a, b) in len3.iter().zip(&len3_ref) {
                assert_eq!(a.key, b.key);
                assert_eq!(a.embeddings, b.embeddings, "merge occurrence stores must be byte-identical");
            }
        }
    }

    #[test]
    fn transaction_setting_counts_transactions() {
        use skinny_graph::GraphDatabase;
        let t0 = LabeledGraph::from_unlabeled_edges(&[l(0), l(1), l(2)], [(0, 1), (1, 2)]).unwrap();
        let t1 = t0.clone();
        let t2 = LabeledGraph::from_unlabeled_edges(&[l(0), l(1)], [(0, 1)]).unwrap();
        let db = GraphDatabase::from_graphs(vec![t0, t1, t2]);
        let m = DiamMine::new(MiningData::Transactions(&db), 2, SupportMeasure::Transactions);
        let edges = m.frequent_edges();
        // edge (0,1) appears in 3 transactions, edge (1,2) in 2
        assert_eq!(edges.len(), 2);
        let len2 = m.mine_exact(2);
        assert_eq!(len2.len(), 1);
        assert_eq!(len2[0].support(SupportMeasure::Transactions), 2);
    }

    #[test]
    fn level1_override_reproduces_the_full_ladder() {
        let g = two_path_copies();
        let m = miner(&g, 2);
        // finalize(level1_table()) is exactly frequent_edges()
        let direct = m.frequent_edges();
        let via_table = m.finalize(m.level1_table().into_patterns());
        assert_eq!(direct.len(), via_table.len());
        for (a, b) in direct.iter().zip(&via_table) {
            assert_eq!(a.key, b.key);
            assert_eq!(a.embeddings, b.embeddings);
        }
        // injecting that set reproduces every ladder level byte-identically
        let injected = miner(&g, 2).with_frequent_edges(direct.clone());
        assert_eq!(injected.frequent_edges().len(), direct.len());
        for l in 1..=4usize {
            let base = m.mine_exact(l);
            let inj = injected.mine_exact(l);
            assert_eq!(base.len(), inj.len(), "length {l}");
            for (a, b) in base.iter().zip(&inj) {
                assert_eq!(a.key, b.key);
                assert_eq!(a.embeddings, b.embeddings, "length {l} occurrence stores differ");
            }
        }
    }

    #[test]
    fn branching_structure_counts_all_simple_paths() {
        // star-ish: center 0 with neighbors 1,2,3 (all label 1, center label 0);
        // paths of length 2 through the center: {1,0,2}, {1,0,3}, {2,0,3}
        let g =
            LabeledGraph::from_unlabeled_edges(&[l(0), l(1), l(1), l(1)], [(0, 1), (0, 2), (0, 3)]).unwrap();
        let m = miner(&g, 1);
        let len2 = m.mine_exact(2);
        assert_eq!(len2.len(), 1);
        assert_eq!(len2[0].key.vertex_labels, vec![l(1), l(0), l(1)]);
        assert_eq!(len2[0].embeddings.len(), 3);
    }
}
