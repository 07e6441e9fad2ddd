//! Stage I — **DiamMine**: mining all frequent simple paths of a given
//! length (the canonical diameters, i.e. the minimal constraint-satisfying
//! patterns of the skinny constraint).
//!
//! Following §3.2 and Algorithm 2 of the paper, a path of length `target`
//! is joined from two frequent paths of length `n` (`n < target <= 2n`)
//! whose occurrences overlap in `k = 2n − target + 1` vertices: the last `k`
//! vertices of one occurrence are the first `k` of the other.  Algorithm 2
//! names two joins, and both are this one join at a different overlap:
//!
//! 1. frequent paths of length `2^0, 2^1, …, 2^p` (`2^p <= l`) *concatenate*
//!    two frequent paths of the previous power of two at a shared end vertex
//!    (`CheckConcat`, `k = 1`);
//! 2. frequent paths of a non-power-of-two length `l` *merge* two frequent
//!    length-`2^p` paths that overlap in `2^{p+1} − l` edges (`CheckMerge`,
//!    `k = 2^{p+1} − l + 1`).
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
//! Every ladder level is produced by one join, [`DiamMine::merge_to_length`]
//! at its overlap, running on three kernels:
//!
//! * **level-carried arenas** — each finalized level is wrapped in a
//!   [`LadderLevel`] whose directed-occurrence store, `(pattern, direction)`
//!   row sources and owned [`PrefixIndex`] over `(transaction, head vertex)`
//!   are built once per level (one pass + one counting sort) and probed by
//!   every join that consumes the level at any overlap width: a join reads
//!   the head list of its probing row's overlap start and skips partners
//!   whose next overlap vertices differ;
//! * **product slots in one flat hashed key table** — a directed row's
//!   labels are its pattern's canonical key read in the row's direction,
//!   so a product's label sequence, either way round, is two contiguous
//!   slices of a per-join table of directed parent labels
//!   (`ProductLabels`).  A product is routed by one orientation test on
//!   those slices, a key hash composed in `O(1)` from per-parent piece
//!   hashes ([`skinny_graph::FxHasher`] composes over concatenation) and
//!   one probe of a `KeyTable`.  A slot is that hash plus its first source
//!   pair `(src_a, src_b, reversed)`: opening one copies no label and
//!   allocates nothing, two slots compare by reading the parents' labels,
//!   and the chunk slots fold into global ones by their carried hash;
//! * **count, then gather** — Algorithm 2 joins at the occurrence level and
//!   only then checks support; here the probe pass gathers no row.  It
//!   routes each valid product to its pattern slot, raises that slot's σ
//!   bound and records the product as `(row, partner, route)`.  The bound
//!   counts rows, or under [`SupportMeasure::Transactions`] one per run of a
//!   slot's products in one transaction.  The gather pass then builds the
//!   owned [`PathKey`] and store of each slot whose bound reaches σ, and
//!   materializes only those slots' products, and the σ-filter
//!   measures those with [`OccurrenceStore::support_pruned`].  Skipping a slot is sound because
//!   a slot's bound is never smaller than its support: each product becomes
//!   exactly one stored row, support never exceeds the row count under any
//!   measure, a transaction's products count at least once wherever they
//!   land, and summing per-chunk bounds can only overcount a transaction
//!   that a chunk boundary splits.  On the 1 → 2 join of a large
//!   transaction corpus almost every slot dies this way, so almost no row
//!   is ever gathered.
//!
//! All three preserve the sequential emission order exactly, so mined output
//! stays byte-identical to the retained reference kernels
//! ([`DiamMine::concat_double_reference`] /
//! [`DiamMine::merge_to_length_reference`]) for every thread count.

use crate::cycle::{CyclePattern, CycleTable};
use crate::data::MiningData;
use crate::path_pattern::{label_hash, slot_id, KeyTable, PathKey, PathPattern, PatternTable};
use crate::stats::{JoinPhaseStats, MiningStats};
use skinny_graph::hash::pow;
use skinny_graph::{
    all_distinct_marked, disjoint_except_shared_marked, CsrGraph, CsrSnapshot, FxHasher, JoinScratch, Label,
    OccurrenceStore, PrefixIndex, SupportMeasure, SupportScratch, VertexId,
};
use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

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
    /// finalized level-1 set instead of scanning the data — the injection
    /// point of the maintained Stage-I state's level-1 table.  Every higher
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
/// carried head-vertex [`PrefixIndex`] every consuming join probes.  All
/// three rebuild in place with zero allocations once warm.
#[derive(Debug, Default)]
struct LevelArenas {
    occs: OccurrenceStore,
    source: Vec<u32>,
    index: PrefixIndex,
}

impl LevelArenas {
    /// One pass over the finalized patterns filling the directed store and
    /// row sources, then one counting sort building the head index — the
    /// carried replacement for the per-join `directed_occurrences` +
    /// hash-map index rebuild.  Row order is byte-identical to
    /// [`directed_occurrences`].
    fn rebuild(&mut self, patterns: &[PathPattern]) {
        let arity = patterns.first().map_or(0, |p| p.key.vertex_labels.len());
        let rows: usize = patterns.iter().map(|p| p.embeddings.len()).sum();
        self.occs.reset(arity);
        self.occs.reserve_rows(2 * rows);
        self.source.clear();
        self.source.reserve(2 * rows);
        for (pi, p) in patterns.iter().enumerate() {
            let src = u32::try_from(pi << 1).expect("pattern index overflows the u32 row source");
            for occ in p.embeddings.iter() {
                self.occs.push_row(occ.transaction, occ.vertices);
                self.source.push(src);
                self.occs.push_row_reversed(occ.transaction, occ.vertices);
                self.source.push(src | 1);
            }
        }
        self.index.build(&self.occs);
    }
}

/// One finalized level of the Stage-I doubling ladder, carried between
/// joins: the level's patterns plus lazily-materialized join arenas (the
/// directed occurrence rows, their `(pattern, direction)` sources, and the
/// owned head index every join of the level probes).
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
    /// eagerly.
    pub fn from_patterns(patterns: Vec<PathPattern>) -> Self {
        let mut level = LadderLevel::lazy(patterns);
        level.ensure_arenas();
        level
    }

    /// Replaces the level's patterns and rebuilds the join arenas in place;
    /// a warm rebuild of the same shape performs zero allocations.
    pub fn rebuild(&mut self, patterns: Vec<PathPattern>) {
        self.patterns = patterns;
        self.arenas.rebuild(&self.patterns);
        self.arenas_built = true;
    }

    /// The level's finalized patterns.
    pub fn patterns(&self) -> &[PathPattern] {
        &self.patterns
    }

    /// Builds the arenas on first use; every later join at any overlap
    /// width probes the same ones.
    fn ensure_arenas(&mut self) {
        if !self.arenas_built {
            self.arenas.rebuild(&self.patterns);
            self.arenas_built = true;
        }
    }
}

/// One valid join product recorded by the probe pass: the probing row, its
/// partner row and the product's packed chunk-local route
/// `(slot << 1) | reversed`.
#[derive(Debug, Clone, Copy)]
struct Product {
    row: u32,
    partner: u32,
    route: u32,
}

/// A product slot as the probe pass and the fold hold it: the [`label_hash`]
/// of its canonical key and the first source pair that produced it, with
/// that pair's orientation.  The key itself is never built here: its labels
/// are read off the parents' keys ([`ProductLabels`]) to compare slots, and
/// materialized only for a slot whose σ bound reaches σ.
#[derive(Debug, Clone, Copy)]
struct SlotSeed {
    hash: u64,
    src_a: u32,
    src_b: u32,
    reversed: bool,
}

/// What the probe pass hands the fold for one chunk of probing rows: the
/// chunk's product slots in first-product order with the key table over
/// them, each slot's σ bound, the recorded products in loop order and the
/// chunk's phase breakdown.
#[derive(Debug, Default)]
struct ProbedChunk {
    seeds: Vec<SlotSeed>,
    table: KeyTable,
    bound: Vec<usize>,
    products: Vec<Product>,
    phases: JoinPhaseStats,
}

/// One orientation of a product's label sequence, each label kind spelled
/// as two contiguous slices.
#[derive(Debug, Clone, Copy)]
struct Spelling<'l> {
    vertex: [&'l [Label]; 2],
    edge: [&'l [Label]; 2],
}

impl Spelling<'_> {
    /// Lexicographic order on (vertex labels, edge labels) — the order
    /// [`PathKey::canonical`] minimizes.
    fn cmp(&self, other: &Spelling<'_>) -> std::cmp::Ordering {
        fn chain([x, y]: [&[Label]; 2]) -> impl Iterator<Item = &Label> {
            x.iter().chain(y)
        }
        chain(self.vertex).cmp(chain(other.vertex)).then_with(|| chain(self.edge).cmp(chain(other.edge)))
    }
}

/// Unseeded [`FxHasher`] sums of the label pieces of one directed row
/// source that product sequences are concatenated from.
#[derive(Debug, Clone, Copy)]
struct PieceHashes {
    vertex: u64,
    edge: u64,
    /// The part a partner contributes: the vertex labels past the overlap
    /// and the edge labels past its `overlap − 1` edges (`m` of each).
    vertex_tail: u64,
    edge_tail: u64,
    /// The first `m` vertex and edge labels — the reversal of source
    /// `s ^ 1`'s partner part.
    vertex_head: u64,
    edge_head: u64,
}

/// The unseeded [`FxHasher`] sum of `labels`.
fn piece_hash(labels: &[Label]) -> u64 {
    let mut h = FxHasher::with_state(0);
    for l in labels {
        h.add(u64::from(l.0));
    }
    h.raw()
}

/// The parents' label pieces of one ladder join at one overlap width, by
/// packed row source `(pattern << 1) | direction`.
///
/// A directed row's labels are its pattern's canonical key read in the
/// row's direction, and source `s ^ 1` is source `s` reversed.  With `n`
/// the parent length and `m = n + 1 − overlap` the vertices (and edges) a
/// partner contributes, the product of sources `(a, b)` therefore spells
/// `vertex(a) ++ vertex(b)[overlap..]` / `edge(a) ++ edge(b)[overlap − 1..]`
/// forward and `vertex(b ^ 1)[..m] ++ vertex(a ^ 1)` /
/// `edge(b ^ 1)[..m] ++ edge(a ^ 1)` backward: two contiguous slices per
/// label kind either way, so orienting, comparing and materializing a
/// product key walks no graph and copies nothing, and the per-source piece
/// hashes compose the key's [`label_hash`] in `O(1)`.
#[derive(Debug)]
struct ProductLabels {
    vertex: Vec<Label>,
    edge: Vec<Label>,
    pieces: Vec<PieceHashes>,
    n: usize,
    overlap: usize,
    m: usize,
    /// `K^m`, `K^(n + 1)`, `K^n` and `K^(n + m)` (the product's edge count).
    pow_m: u64,
    pow_n1: u64,
    pow_n: u64,
    pow_e: u64,
    /// The seeded hasher's state term after the product's `n + 1 + m`
    /// vertex labels.
    seed_v: u64,
}

impl ProductLabels {
    /// Spells both directions of every pattern of a nonempty level and
    /// hashes their pieces for a join at `overlap`.
    fn new(patterns: &[PathPattern], overlap: usize) -> Self {
        let n = patterns[0].len();
        let m = n + 1 - overlap;
        let mut out = ProductLabels {
            vertex: Vec::with_capacity(2 * patterns.len() * (n + 1)),
            edge: Vec::with_capacity(2 * patterns.len() * n),
            pieces: Vec::with_capacity(2 * patterns.len()),
            n,
            overlap,
            m,
            pow_m: pow(m),
            pow_n1: pow(n + 1),
            pow_n: pow(n),
            pow_e: pow(n + m),
            seed_v: FxHasher::seeded(n + 1 + m),
        };
        for p in patterns {
            for reversed in [false, true] {
                let (v0, e0) = (out.vertex.len(), out.edge.len());
                if reversed {
                    out.vertex.extend(p.key.vertex_labels.iter().rev());
                    out.edge.extend(p.key.edge_labels.iter().rev());
                } else {
                    out.vertex.extend_from_slice(&p.key.vertex_labels);
                    out.edge.extend_from_slice(&p.key.edge_labels);
                }
                let (v, e) = (&out.vertex[v0..], &out.edge[e0..]);
                out.pieces.push(PieceHashes {
                    vertex: piece_hash(v),
                    edge: piece_hash(e),
                    vertex_tail: piece_hash(&v[overlap..]),
                    edge_tail: piece_hash(&e[overlap - 1..]),
                    vertex_head: piece_hash(&v[..m]),
                    edge_head: piece_hash(&e[..m]),
                });
            }
        }
        out
    }

    #[inline]
    fn vertex(&self, s: u32) -> &[Label] {
        let w = self.n + 1;
        &self.vertex[s as usize * w..(s as usize + 1) * w]
    }

    #[inline]
    fn edge(&self, s: u32) -> &[Label] {
        &self.edge[s as usize * self.n..(s as usize + 1) * self.n]
    }

    /// The product of sources `(a, b)` spelled forward, or backward when
    /// `reversed`.
    #[inline]
    fn spell(&self, a: u32, b: u32, reversed: bool) -> Spelling<'_> {
        if reversed {
            let (a, b) = (a ^ 1, b ^ 1);
            Spelling {
                vertex: [&self.vertex(b)[..self.m], self.vertex(a)],
                edge: [&self.edge(b)[..self.m], self.edge(a)],
            }
        } else {
            Spelling {
                vertex: [self.vertex(a), &self.vertex(b)[self.overlap..]],
                edge: [self.edge(a), &self.edge(b)[self.overlap - 1..]],
            }
        }
    }

    /// The canonical orientation of the product of `(a, b)` — `true` when
    /// the backward spelling is strictly smaller — and the [`label_hash`]
    /// of that canonical key, composed from the piece hashes.
    #[inline]
    fn route(&self, a: u32, b: u32) -> (bool, u64) {
        // the end labels decide almost every orientation; only a tie there
        // walks the spellings
        let (head, tail) = (self.vertex(a)[0], self.vertex(b ^ 1)[0]);
        let reversed = match tail.cmp(&head) {
            std::cmp::Ordering::Equal => self.spell(a, b, true).cmp(&self.spell(a, b, false)).is_lt(),
            order => order.is_lt(),
        };
        let (v, e) = if reversed {
            let (pa, pb) = (&self.pieces[(a ^ 1) as usize], &self.pieces[(b ^ 1) as usize]);
            (
                pb.vertex_head.wrapping_mul(self.pow_n1).wrapping_add(pa.vertex),
                pb.edge_head.wrapping_mul(self.pow_n).wrapping_add(pa.edge),
            )
        } else {
            let (pa, pb) = (&self.pieces[a as usize], &self.pieces[b as usize]);
            (
                pa.vertex.wrapping_mul(self.pow_m).wrapping_add(pb.vertex_tail),
                pa.edge.wrapping_mul(self.pow_m).wrapping_add(pb.edge_tail),
            )
        };
        (reversed, self.seed_v.wrapping_add(v).wrapping_mul(self.pow_e).wrapping_add(e))
    }

    /// True when the canonical key of `seed` is the canonical key of the
    /// product of `(a, b)` in orientation `reversed`.
    #[inline]
    fn same_key(&self, seed: &SlotSeed, a: u32, b: u32, reversed: bool) -> bool {
        if (seed.src_a, seed.src_b, seed.reversed) == (a, b, reversed) {
            return true;
        }
        let (x, y) = (self.spell(seed.src_a, seed.src_b, seed.reversed), self.spell(a, b, reversed));
        if seed.reversed == reversed {
            // equal orientations split at equal points: compare slice-wise
            x.vertex == y.vertex && x.edge == y.edge
        } else {
            x.cmp(&y).is_eq()
        }
    }

    /// The owned canonical key of `seed` — built only for live slots.
    fn key(&self, seed: &SlotSeed) -> PathKey {
        let spelled = self.spell(seed.src_a, seed.src_b, seed.reversed);
        let key = PathKey { vertex_labels: spelled.vertex.concat(), edge_labels: spelled.edge.concat() };
        debug_assert_eq!(label_hash(&key.vertex_labels, &key.edge_labels), seed.hash);
        key
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
    /// sequential occurrence order) — the maintained Stage-I state of the
    /// index and the incremental miner guarantees this by maintaining the
    /// unfiltered table under transaction deltas and finalizing it per
    /// update.
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
        self.finalize(self.level1_table().into_patterns(), stats, true)
    }

    /// The **unfiltered** level-1 pattern table: every length-1 occurrence
    /// accumulated in sequential transaction order, before dedup and the
    /// σ-filter.  This is the state the index and the incremental miner
    /// maintain under transaction deltas ([`DiamMine::frequent_edges`] =
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
    /// the per-dirty-transaction re-seed (`t..t + 1`) of a Stage-I update.
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

    /// Joins frequent paths of length `n` into candidate paths of length
    /// `target` (`n < target <= 2n`): a directed occurrence whose last
    /// `k = 2n − target + 1` vertices are another's first `k` extends by the
    /// other's remaining vertices.  At `target = 2n` the overlap is one shared
    /// end vertex (`CheckConcat` of Algorithm 2); below it the occurrences
    /// overlap in a suffix/prefix (`CheckMergeHead` / `CheckMergeTail`).
    ///
    /// The join probes a [`PrefixIndex`] over `(transaction, head vertex)`
    /// at the first vertex of the probing row's `k`-suffix and skips the
    /// partners whose next `k − 1` vertices differ from the suffix's, so it
    /// visits exactly the `(transaction, k-prefix)` group in global row
    /// order.  Per-row disjointness is an epoch-marked probe, products are
    /// routed to their slot by one hashed probe over the parents' labels
    /// (graph-free), only products of slots whose σ bound reaches σ are
    /// gathered, and the
    /// σ-filter runs the pruned evaluator — a rejected row pair touches no
    /// allocator.
    pub fn merge_to_length(&self, base: &[PathPattern], target: usize) -> Vec<PathPattern> {
        if base.is_empty() {
            return Vec::new();
        }
        let n = base[0].len();
        assert!(target > n && target <= 2 * n, "join target must satisfy n < target <= 2n");
        let mut arenas = LevelArenas::default();
        arenas.rebuild(base);
        self.merge_join(base, &arenas, target, &mut MiningStats::default())
    }

    /// The ladder join over a level's carried arenas: count, then gather.
    ///
    /// **Count.** The probe pass (sharded over the probing rows) runs the
    /// head probe, the mirror rule, the overlap filter and the disjointness
    /// check, routes each valid product to its chunk-local slot, bumps that
    /// slot's σ bound and records the product as `(row, partner, route)`;
    /// it gathers no row.  The chunk slots then fold, in chunk order, into
    /// the first chunk's, whose bounds become the chunk bounds summed.
    ///
    /// **Gather.** The slots whose bound reaches σ get their owned key and
    /// store, in slot order; one sequential walk over the recorded
    /// products, in chunk order and then product order — exactly the
    /// sequential loop's row order — skips every product of a dead slot and
    /// gathers the others into their slot's store in canonical orientation.
    /// The live slots then go through [`DiamMine::finalize`].
    fn merge_join(
        &self,
        patterns: &[PathPattern],
        arenas: &LevelArenas,
        target: usize,
        stats: &mut MiningStats,
    ) -> Vec<PathPattern> {
        let overlap = 2 * patterns[0].len() - target + 1;
        let (occs, source, index) = (&arenas.occs, &arenas.source, &arenas.index);
        let count_transactions = matches!(self.support, SupportMeasure::Transactions);
        let wall = Instant::now();
        let labels = ProductLabels::new(patterns, overlap);
        stats.join_phases.intern += wall.elapsed();
        let chunks = self.shard_rows(occs.len(), |range, scratch| {
            let wall = Instant::now();
            let mut chunk = ProbedChunk::default();
            // the transaction of each slot's last counted product
            let mut last_txn: Vec<usize> = Vec::new();
            for i in range {
                let row = u32::try_from(i).expect("directed row id overflows the u32 product record");
                let a = occs.row(i);
                let t = occs.transaction(i);
                let j = a.len() - overlap;
                for &partner in index.postings(t, a[j]) {
                    let bi = partner as usize;
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
                    // the head list holds every row starting at a[j]; only
                    // those continuing with the rest of a's suffix overlap
                    let b = occs.row(bi);
                    if b[1..overlap] != a[j + 1..] {
                        continue;
                    }
                    // both rows are simple, so the product is simple exactly
                    // when b's remainder avoids a
                    if !disjoint_except_shared_marked(a, b, overlap, &mut scratch.marks) {
                        continue;
                    }
                    let (src_a, src_b) = (source[i], source[bi]);
                    let (reversed, hash) = labels.route(src_a, src_b);
                    let seeds = &chunk.seeds;
                    let (slot, new) = chunk.table.intern(hash, slot_id(seeds.len()), |s| {
                        let seed = &seeds[s as usize];
                        seed.hash == hash && labels.same_key(seed, src_a, src_b, reversed)
                    });
                    if new {
                        chunk.seeds.push(SlotSeed { hash, src_a, src_b, reversed });
                        chunk.bound.push(0);
                        last_txn.push(usize::MAX);
                    }
                    // Each product becomes one stored row, so the row count
                    // bounds every measure; under `Transactions` a slot
                    // counts a transaction once per run of its products,
                    // which is never fewer than its distinct transactions.
                    let s = slot as usize;
                    if !count_transactions || last_txn[s] != t {
                        chunk.bound[s] += 1;
                        last_txn[s] = t;
                    }
                    let route =
                        slot.checked_mul(2).expect("pattern slot index overflows the packed u32 route");
                    chunk.products.push(Product { row, partner, route: route | reversed as u32 });
                }
            }
            chunk.phases.probe = wall.elapsed();
            chunk
        });

        // Fold the chunk slots, in chunk order, into the first chunk's table:
        // a later chunk's slot finds its global slot by its carried hash and
        // a label comparison, and only a slot no earlier chunk holds is
        // appended.  A single chunk (every sequential join) folds nothing.
        let wall = Instant::now();
        let mut chunks = chunks.into_iter();
        let first = chunks.next().expect("the probe pass yields at least one chunk");
        stats.join_phases.merge(&first.phases);
        let (mut seeds, mut bound, mut table) = (first.seeds, first.bound, first.table);
        let mut routed = vec![(None, first.products)];
        for chunk in chunks {
            stats.join_phases.merge(&chunk.phases);
            let to_global: Vec<u32> = chunk
                .seeds
                .iter()
                .zip(&chunk.bound)
                .map(|(seed, &b)| {
                    let (g, new) = table.intern(seed.hash, slot_id(seeds.len()), |g| {
                        let held = &seeds[g as usize];
                        held.hash == seed.hash && labels.same_key(held, seed.src_a, seed.src_b, seed.reversed)
                    });
                    if new {
                        seeds.push(*seed);
                        bound.push(0);
                    }
                    // a transaction split across chunks counts once per
                    // chunk: the sum can only overcount
                    bound[g as usize] += b;
                    g
                })
                .collect();
            routed.push((Some(to_global), chunk.products));
        }
        stats.join_phases.intern += wall.elapsed();

        // build the keys and stores of the live slots, then gather their
        // products in chunk order, then product order
        let wall = Instant::now();
        let mut live = Vec::new();
        let live_of: Vec<u32> = seeds
            .iter()
            .zip(&bound)
            .map(|(seed, &b)| {
                if b < self.sigma {
                    return u32::MAX;
                }
                live.push(PathPattern::new(labels.key(seed)));
                slot_id(live.len() - 1)
            })
            .collect();
        let mut skipped = 0u64;
        let mut row = Vec::new();
        for (to_global, products) in routed {
            for p in products {
                let slot = p.route >> 1;
                let g = to_global.as_ref().map_or(slot, |m: &Vec<u32>| m[slot as usize]);
                let Some(pattern) = live.get_mut(live_of[g as usize] as usize) else {
                    skipped += 1;
                    continue;
                };
                let (i, bi) = (p.row as usize, p.partner as usize);
                row.clear();
                row.extend_from_slice(occs.row(i));
                row.extend_from_slice(&occs.row(bi)[overlap..]);
                pattern.add_occurrence_slice(occs.transaction(i), &row, p.route & 1 == 1);
            }
        }
        stats.join_rows_pruned += skipped;
        stats.join_products_rejected_sigma += (seeds.len() - live.len()) as u64;
        stats.join_phases.gather += wall.elapsed();
        self.finalize(live, stats, false)
    }

    /// Reference (pre-engine) implementation of [`DiamMine::merge_to_length`]
    /// at `target = 2n`: the per-join `HashMap<(transaction, endpoint),
    /// Vec<row>>` build with per-row key cloning that the occurrence index
    /// replaced.  Sequential; kept as the parity oracle of the ladder tests.
    /// Output is byte-identical to the indexed engine.
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
        self.finalize_exact(by_key.into_values().collect())
    }

    /// Reference (pre-engine) implementation of
    /// [`DiamMine::merge_to_length`] below `target = 2n`; see
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
        self.finalize_exact(by_key.into_values().collect())
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
    /// level is one join at overlap 1 probing the previous level's carried
    /// arenas; exhausted levels stay as empty placeholders.
    fn extend_ladder(&self, levels: &mut Vec<LadderLevel>, max_exp: usize, stats: &mut MiningStats) {
        if levels.is_empty() {
            levels.push(LadderLevel::lazy(self.frequent_edges_with_stats(stats)));
        }
        while levels.len() <= max_exp {
            let prev = levels.last_mut().expect("the ladder is seeded");
            let next = if prev.patterns.is_empty() {
                Vec::new()
            } else {
                let target = 2 * prev.patterns[0].len();
                self.join_level(prev, target, stats)
            };
            levels.push(LadderLevel::lazy(next));
        }
    }

    /// Mines length `l` from a carried ladder, extending it as needed: a
    /// power-of-two length is the ladder level itself, any other length is
    /// one join probing level `⌊log2 l⌋`'s carried rows at the overlap width.
    fn mine_length(
        &self,
        levels: &mut Vec<LadderLevel>,
        l: usize,
        stats: &mut MiningStats,
    ) -> Vec<PathPattern> {
        let k = floor_log2(l);
        self.extend_ladder(levels, k, stats);
        if l == 1 << k {
            return levels[k].patterns.clone();
        }
        if levels[k].patterns.is_empty() {
            return Vec::new();
        }
        self.join_level(&mut levels[k], l, stats)
    }

    /// One ladder step: joins the nonempty `level` into paths of length
    /// `target`, first building its carried arenas when the level was never
    /// joined (every later join of the level, at any overlap width, reuses
    /// them).  That preparation is timed as interning.
    fn join_level(
        &self,
        level: &mut LadderLevel,
        target: usize,
        stats: &mut MiningStats,
    ) -> Vec<PathPattern> {
        let wall = Instant::now();
        level.ensure_arenas();
        stats.join_phases.intern += wall.elapsed();
        self.merge_join(&level.patterns, &level.arenas, target, stats)
    }

    /// All frequent simple paths of length exactly `l` (`DiamMine` in
    /// Algorithm 2).
    pub fn mine_exact(&self, l: usize) -> Vec<PathPattern> {
        if l == 0 {
            return Vec::new();
        }
        self.mine_length(&mut Vec::new(), l, &mut MiningStats::default())
    }

    /// [`DiamMine::mine_exact`] for several lengths at once, sharing one
    /// carried power-of-two doubling ladder across all of them instead of
    /// rebuilding it per length (the ladder up to `2^k <= max(lengths)`
    /// dominates the cost when the lengths are close together), and
    /// recording join phase timings and pruning counters into `stats`.
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
    /// endpoints are adjacent ([`DiamMine::cycles_from_paths`]), paying for
    /// the whole `2l` ladder to do so.  The miner pairs `l`-arcs instead
    /// ([`DiamMine::cycles_from_arcs`]) unless it mined the `2l`-paths
    /// anyway; the property tests hold the two routes byte-identical.
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
    /// This is the **closing** route of the shared seed rule: whenever the
    /// mined length range already holds the `2l`-paths (as an index built
    /// with `max_len = None` does for every `l`), the closing check is all a
    /// cycle costs.  It also backs the [`DiamMine::frequent_cycles`] oracle.
    /// Rows and patterns come out in the same canonical order as
    /// [`DiamMine::cycles_from_arcs`].
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
    /// are joined by the closing data edge.  The kernel builds the head
    /// index over `(transaction, head)` of both orientations of every
    /// `l`-path occurrence, keeps only the directed rows whose head is the
    /// row's minimum vertex, and pairs rows `i < j` of the same posting
    /// list, so each cycle occurrence is produced exactly once.  A pair pays
    /// the closing-edge lookup first, then the epoch-marked disjointness
    /// check, then canonicalization; the shared accumulator σ-filters.
    /// Chunks of the probing rows run on the pool as in the ladder joins.
    ///
    /// Complete because every [`SupportMeasure`] is anti-monotone: both arcs
    /// are sub-patterns of the cycle, so the cycle being frequent makes both
    /// arc patterns frequent, and `paths_l` then holds every occurrence of
    /// them.  For either measure the result is byte-identical to
    /// [`DiamMine::cycles_from_paths`] over the `2l`-paths.
    pub fn cycles_from_arcs(&self, paths_l: &[PathPattern], l: usize) -> Vec<CyclePattern> {
        if paths_l.is_empty() || l == 0 {
            return Vec::new();
        }
        debug_assert!(paths_l.iter().all(|p| p.len() == l), "cycle arcs need paths of length l");
        let mut arenas = LevelArenas::default();
        arenas.rebuild(paths_l);
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
                let postings = index.postings(t, a[0]);
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
    /// power-of-two level pay only their merge join over the level's carried
    /// arenas, never a ladder rebuild or an index rebuild.
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

    /// Filters candidates by support and sorts them by key.  Output order is
    /// key-sorted, so it is independent of the input's slot order — which is
    /// why the maintained level-1 table (whose slot order is historical
    /// first-occurrence order, not the current corpus's) finalizes to the
    /// exact from-scratch result.
    ///
    /// The support evaluation is σ-pruned: a pattern whose raw row count is
    /// already below σ is rejected before paying dedup (support under every
    /// measure is bounded by the row count, and dedup only removes rows),
    /// and surviving patterns are measured with
    /// [`OccurrenceStore::support_pruned`], which is exact whenever the
    /// result is ≥ σ — so the kept set, and therefore the output bytes, are
    /// identical to an exact evaluation's.
    ///
    /// `dedup` removes duplicate occurrences first.  The mirror-pruned join
    /// passes `false`: it never materializes the reversed rediscovery of a
    /// product row, and within one pattern slot two distinct surviving
    /// source pairs cannot store equal rows (equal rows + one slot force
    /// equal directed labels, and the per-pattern stores the arenas were
    /// built from are themselves deduplicated).
    pub(crate) fn finalize(
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

    /// Finalize of the reference joins: every pattern is deduplicated and
    /// measured in full (the support kernel at σ = 0), with none of
    /// [`DiamMine::finalize`]'s row-count pre-checks.  The kernel itself is
    /// checked against [`skinny_graph::EmbeddingSet::support`] in the
    /// substrate's property tests.
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
    use skinny_graph::{GraphDatabase, Label, LabeledGraph};

    fn l(x: u32) -> Label {
        Label(x)
    }

    /// Two disjoint copies of the labeled path a-b-c-d-e (labels 0..4),
    /// giving every sub-path MNI support 2 and two distinct vertex sets.
    fn two_path_copies() -> LabeledGraph {
        let labels = vec![l(0), l(1), l(2), l(3), l(4), l(0), l(1), l(2), l(3), l(4)];
        LabeledGraph::from_unlabeled_edges(
            &labels,
            [(0, 1), (1, 2), (2, 3), (3, 4), (5, 6), (6, 7), (7, 8), (8, 9)],
        )
        .unwrap()
    }

    fn miner(g: &LabeledGraph, sigma: usize) -> DiamMine<'_> {
        DiamMine::new(MiningData::Single(g), sigma, SupportMeasure::MinimumImage)
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
            assert_eq!(e.embeddings.to_embedding_set().distinct_vertex_sets(), 2);
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
    fn concat_doubles_length() {
        let g = two_path_copies();
        let m = miner(&g, 2);
        let len1 = m.frequent_edges();
        let len2 = m.merge_to_length(&len1, 2);
        // length-2 paths: (0,1,2), (1,2,3), (2,3,4) each support 2
        assert_eq!(len2.len(), 3);
        for p in &len2 {
            assert_eq!(p.len(), 2);
            assert_eq!(p.embeddings.to_embedding_set().distinct_vertex_sets(), 2);
        }
        let len4 = m.merge_to_length(&len2, 4);
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
        assert_eq!(paths[0].embeddings.to_embedding_set().distinct_vertex_sets(), 2);
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
            assert_eq!(p.embeddings.to_embedding_set().distinct_vertex_sets(), 2);
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
        assert_eq!(c5.embeddings.to_embedding_set().distinct_vertex_sets(), 2);
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

    /// Asserts two mined levels are byte-identical, pattern by pattern.
    fn assert_same_level(indexed: &[PathPattern], reference: &[PathPattern], what: &str) {
        assert_eq!(indexed.len(), reference.len(), "{what}: pattern count");
        for (a, b) in indexed.iter().zip(reference) {
            assert_eq!(a.key, b.key, "{what}: keys");
            assert_eq!(a.embeddings, b.embeddings, "{what}: occurrence stores must be byte-identical");
        }
    }

    #[test]
    fn indexed_joins_match_reference_joins_byte_identically() {
        let star =
            LabeledGraph::from_unlabeled_edges(&[l(0), l(1), l(1), l(1)], [(0, 1), (0, 2), (0, 3)]).unwrap();
        // a one-label spider with three legs of length 2: the head list of
        // the centre holds rows whose second vertices differ, so every merge
        // at overlap >= 2 must reject partners through the overlap filter
        let spider =
            LabeledGraph::from_unlabeled_edges(&[l(0); 7], [(0, 1), (1, 4), (0, 2), (2, 5), (0, 3), (3, 6)])
                .unwrap();
        // a 6-cycle plus the two-copy fixture: palindromic patterns and
        // merges at every overlap in play
        for g in [
            two_path_copies(),
            LabeledGraph::from_unlabeled_edges(&[l(0); 6], [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)])
                .unwrap(),
            star,
            spider,
        ] {
            let m = miner(&g, 1);
            let len1 = m.frequent_edges();
            let len2 = m.merge_to_length(&len1, 2);
            let len2_ref = m.concat_double_reference(&len1);
            assert_same_level(&len2, &len2_ref, "concat 1 -> 2");
            if len2.is_empty() {
                continue;
            }
            // overlap 2
            let len3 = m.merge_to_length(&len2, 3);
            assert_same_level(&len3, &m.merge_to_length_reference(&len2_ref, 3), "merge 2 -> 3");
            let len4 = m.merge_to_length(&len2, 4);
            assert_same_level(&len4, &m.concat_double_reference(&len2_ref), "concat 2 -> 4");
            if len4.is_empty() {
                continue;
            }
            // overlaps 4, 3 and 2 over one level
            for target in 5..8 {
                let merged = m.merge_to_length(&len4, target);
                let reference = m.merge_to_length_reference(&len4, target);
                assert_same_level(&merged, &reference, &format!("merge 4 -> {target}"));
            }
        }
    }

    /// `txns` transactions, each a star — centre 0 (label 0), leaves 1–4
    /// (label 1), each leaf `k` with a label-4 pendant `k + 4` — plus a
    /// label-2 vertex 9 and a label-3 vertex 10.  Vertex 9 hangs on the
    /// centre in the transactions of `on_centre_2` and on a lone label-0
    /// vertex 11 elsewhere; vertex 10 likewise with `on_centre_3` and vertex
    /// 12.  Every transaction thus holds the same four level-1 patterns with
    /// the same occurrence counts, so in the level-1 arena the 8 directed
    /// (0, 1) rows of transaction `t` are rows `8t..8t + 8`, and the
    /// products of the (1, 0, 2) and (1, 0, 3) slots are probed from its odd
    /// (reversed) rows.
    fn straddle_database(txns: usize, on_centre_2: &[usize], on_centre_3: &[usize]) -> GraphDatabase {
        let labels = [0, 1, 1, 1, 1, 4, 4, 4, 4, 2, 3, 0, 0].map(l);
        GraphDatabase::from_graphs(
            (0..txns)
                .map(|t| {
                    let mut edges = vec![(0, 1), (0, 2), (0, 3), (0, 4), (1, 5), (2, 6), (3, 7), (4, 8)];
                    edges.push((if on_centre_2.contains(&t) { 0 } else { 11 }, 9));
                    edges.push((if on_centre_3.contains(&t) { 0 } else { 12 }, 10));
                    LabeledGraph::from_unlabeled_edges(&labels, edges).unwrap()
                })
                .collect(),
        )
    }

    #[test]
    fn multi_chunk_joins_match_single_chunk_and_reference() {
        const TXNS: usize = 250;
        const SIGMA: usize = 4;
        // level-1 directed rows per transaction: 8 of (0,1), 2 of (0,2),
        // 2 of (0,3) and 8 of (1,4)
        let rows = 20 * TXNS;
        assert!(rows >= 4096, "the level-1 join must shard into chunks");
        // transactions whose probing rows 8t+1 .. 8t+7 a chunk start cuts
        // apart at 8 threads (`shard_rows` makes 4 chunks per thread)
        let straddlers: Vec<usize> = skinny_pool::chunk_ranges(rows, 8, 4)
            .iter()
            .map(|r| r.start)
            .filter(|&b| b < 8 * TXNS && (2..8).contains(&(b % 8)))
            .map(|b| b / 8)
            .collect();
        assert!(straddlers.len() >= 7, "{straddlers:?}");
        // (1,0,2) in σ − 1 transactions and (1,0,3) in σ, every one of
        // them split across two chunks at 8 threads
        let db = straddle_database(TXNS, &straddlers[..3], &straddlers[3..7]);
        let data = MiningData::Transactions(&db);
        let at = |threads: usize| {
            DiamMine::new(data.clone(), SIGMA, SupportMeasure::Transactions).with_threads(threads)
        };

        let serial = at(1).mine_range(1, Some(4));
        assert_eq!(serial.keys().copied().collect::<Vec<_>>(), vec![1, 2, 3, 4]);
        for threads in [2, 8] {
            let sharded = at(threads).mine_range(1, Some(4));
            assert_eq!(sharded.len(), serial.len());
            for (len, level) in &serial {
                assert_same_level(&sharded[len], level, &format!("length {len} at {threads} threads"));
            }
        }
        let m = at(8);
        let len2_ref = m.concat_double_reference(&serial[&1]);
        assert_same_level(&serial[&2], &len2_ref, "concat 1 -> 2");
        assert_same_level(&serial[&3], &m.merge_to_length_reference(&len2_ref, 3), "merge 2 -> 3");
        assert_same_level(&serial[&4], &m.concat_double_reference(&len2_ref), "concat 2 -> 4");
        let with = |label: u32| serial[&2].iter().filter(|p| p.key.vertex_labels.contains(&l(label))).count();
        assert_eq!((with(2), with(3)), (0, 1), "support σ − 1 is rejected, support σ is kept");

        // one chunk bounds (1,0,2) at its true support and never gathers
        // its 3 × 4 products; 32 chunks count each of its transactions
        // twice, so it is gathered and the support check rejects it
        let stats_at = |threads: usize| {
            let mut stats = MiningStats::default();
            at(threads).mine_exact_many_with_stats(&[2], &mut stats);
            (stats.join_rows_pruned, stats.join_products_rejected_sigma)
        };
        assert_eq!(stats_at(1), (12, 1));
        assert_eq!(stats_at(8), (0, 1));
    }

    #[test]
    fn transaction_setting_counts_transactions() {
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
        let via_table = m.finalize(m.level1_table().into_patterns(), &mut MiningStats::default(), true);
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
