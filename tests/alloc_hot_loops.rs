//! Allocation accounting of the mining hot loops.
//!
//! The occurrence join engine's contract is that the per-row work of Stage
//! I's concat/merge joins and Stage II's extension enumeration performs
//! **zero heap allocation on the reject path**: a scanned row that produces
//! no output touches only epoch-stamped marks and reused buffers.  Total
//! allocation per join call is therefore proportional to *emitted patterns*
//! (plus a small constant for the index build and scratch), never to
//! *scanned rows*.
//!
//! This binary installs a counting `#[global_allocator]` and drives the
//! three hot loops over fixtures with hundreds of scanned rows and zero (or
//! one) emitted patterns, asserting the allocation-event count stays far
//! below the scanned-row count.  Each fixture graph is frozen into a CSR
//! snapshot once, outside the counted region, and the snapshot is what the
//! loops read — the form every production run mines.  Everything runs
//! inside one `#[test]` so no concurrent test thread can pollute the
//! counter.

use skinny_graph::{
    CanonSet, CsrSnapshot, GroupSorter, Label, LabeledGraph, SnapshotBuilder, SupportBatch, SupportMeasure,
    SupportScratch, VertexId, VertexMarks,
};
use skinnymine::diam_mine::LadderLevel;
use skinnymine::{
    DiamMine, Extension, ExtensionScratch, GrownPattern, IncrementalMiner, MinimalPatternIndex, MiningData,
    PatternTable, ReportMode, SkinnyMineConfig, StructScratch,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Counts allocation events (alloc + realloc) on top of the system allocator.
struct CountingAlloc;

static ALLOC_EVENTS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

fn alloc_events() -> u64 {
    ALLOC_EVENTS.load(Ordering::Relaxed)
}

fn counted<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = alloc_events();
    let value = f();
    (alloc_events() - before, value)
}

fn l(x: u32) -> Label {
    Label(x)
}

/// A perfect matching: `n` disjoint edges, all vertices label 0.  Every
/// concat candidate pair is the edge and its own reversal, so the join scans
/// `2n` directed rows, probes `2n` candidate pairs and emits nothing.
fn matching_graph(n: u32) -> LabeledGraph {
    let labels = vec![l(0); 2 * n as usize];
    let edges: Vec<(u32, u32)> = (0..n).map(|i| (2 * i, 2 * i + 1)).collect();
    LabeledGraph::from_unlabeled_edges(&labels, edges).unwrap()
}

/// `n` disjoint triangles, all label 0.  Length-2 paths abound, but merging
/// two of them into a length-3 path always revisits a vertex, so the merge
/// join scans and probes hundreds of rows and emits nothing.
fn triangles_graph(n: u32) -> LabeledGraph {
    let labels = vec![l(0); 3 * n as usize];
    let mut edges = Vec::new();
    for i in 0..n {
        let b = 3 * i;
        edges.extend([(b, b + 1), (b + 1, b + 2), (b, b + 2)]);
    }
    LabeledGraph::from_unlabeled_edges(&labels, edges).unwrap()
}

/// `n` disjoint labeled paths a–b–c: concat emits exactly one pattern from
/// `4n` scanned directed rows.
fn labeled_paths_graph(n: u32) -> LabeledGraph {
    let mut labels = Vec::new();
    let mut edges = Vec::new();
    for i in 0..n {
        let b = 3 * i;
        labels.extend([l(0), l(1), l(2)]);
        edges.extend([(b, b + 1), (b + 1, b + 2)]);
    }
    LabeledGraph::from_unlabeled_edges(&labels, edges).unwrap()
}

/// `copies` components `i`–centre–`j` for every leaf-label pair
/// `1 <= i <= j <= 4`, the centre labeled 0: each of the 4 centre-leaf edge
/// patterns has minimum image support `4 * copies`, each of the 10
/// length-2 patterns exactly `copies` occurrences.
fn leaf_pairs_graph(copies: u32) -> LabeledGraph {
    let mut labels = Vec::new();
    let mut edges = Vec::new();
    for i in 1..=4 {
        for j in i..=4 {
            for _ in 0..copies {
                let c = labels.len() as u32;
                labels.extend([l(0), l(i), l(j)]);
                edges.extend([(c, c + 1), (c, c + 2)]);
            }
        }
    }
    LabeledGraph::from_unlabeled_edges(&labels, edges).unwrap()
}

/// One component `i`–centre–`j` for every leaf-label pair
/// `1 <= i < j <= leaves`, the centre labeled 0: each centre-leaf edge
/// pattern occurs `leaves − 1` times, and each of the `leaves · (leaves −
/// 1) / 2` length-2 patterns exactly once.
fn distinct_pairs_graph(leaves: u32) -> LabeledGraph {
    let mut labels = Vec::new();
    let mut edges = Vec::new();
    for i in 1..=leaves {
        for j in i + 1..=leaves {
            let c = labels.len() as u32;
            labels.extend([l(0), l(i), l(j)]);
            edges.extend([(c, c + 1), (c, c + 2)]);
        }
    }
    LabeledGraph::from_unlabeled_edges(&labels, edges).unwrap()
}

#[test]
fn hot_loops_allocate_per_pattern_not_per_row() {
    // ---- Stage I concat: reject path ------------------------------------
    let snapshot = CsrSnapshot::from_graph(&matching_graph(300));
    let dm = DiamMine::new(MiningData::Snapshot(&snapshot), 1, SupportMeasure::MinimumImage);
    let len1 = dm.frequent_edges();
    assert_eq!(len1.len(), 1);
    let scanned_rows = 2 * len1[0].embeddings.len() as u64; // both orientations
    assert_eq!(scanned_rows, 600);
    let _warmup = dm.merge_to_length(&len1, 2);
    let (concat_allocs, len2) = counted(|| dm.merge_to_length(&len1, 2));
    assert!(len2.is_empty(), "a matching has no length-2 path");
    assert!(
        concat_allocs < scanned_rows / 4,
        "concat reject path allocated {concat_allocs} times for {scanned_rows} scanned rows — \
         the reject path must not allocate per row"
    );

    // ---- Stage I merge: reject path -------------------------------------
    let snapshot = CsrSnapshot::from_graph(&triangles_graph(200));
    let dm = DiamMine::new(MiningData::Snapshot(&snapshot), 1, SupportMeasure::MinimumImage);
    let len2 = dm.merge_to_length(&dm.frequent_edges(), 2);
    assert_eq!(len2.len(), 1, "all length-2 paths share the all-zero label pattern");
    let scanned_rows = 2 * len2[0].embeddings.len() as u64;
    assert!(scanned_rows >= 1000, "fixture must scan many rows, got {scanned_rows}");
    let _warmup = dm.merge_to_length(&len2, 3);
    let (merge_allocs, len3) = counted(|| dm.merge_to_length(&len2, 3));
    assert!(len3.is_empty(), "a length-3 path needs 4 distinct vertices — impossible in a triangle");
    assert!(
        merge_allocs < scanned_rows / 4,
        "merge reject path allocated {merge_allocs} times for {scanned_rows} scanned rows — \
         the reject path must not allocate per row"
    );

    // ---- Stage I join: dead-slot path ----------------------------------
    // every product slot's σ bound is below σ, so the gather pass skips
    // every recorded product: the warm join allocates for its arenas, its
    // scratch, its slot keys and its product record only, never per
    // gathered row
    {
        const COPIES: u32 = 200;
        let snapshot = CsrSnapshot::from_graph(&leaf_pairs_graph(COPIES));
        let dm =
            DiamMine::new(MiningData::Snapshot(&snapshot), COPIES as usize + 1, SupportMeasure::MinimumImage);
        let len1 = dm.frequent_edges();
        assert_eq!(len1.len(), 4, "every centre-leaf edge pattern is frequent");
        let scanned_rows: u64 = 2 * rows_of(&len1);
        let products = 10 * COPIES as u64; // one per component, mirror twin pruned
        let _warmup = dm.merge_to_length(&len1, 2);
        let (dead_allocs, len2) = counted(|| dm.merge_to_length(&len1, 2));
        assert!(len2.is_empty(), "every length-2 pattern has {COPIES} occurrences, one short of σ");
        assert!(
            dead_allocs < 160,
            "dead-slot join allocated {dead_allocs} times for {scanned_rows} scanned rows and {products} \
             skipped products — skipped products must not allocate"
        );
        let mut stats = skinnymine::MiningStats::default();
        dm.mine_exact_many_with_stats(&[2], &mut stats);
        assert_eq!(stats.join_rows_pruned, products, "every skipped product counts as a pruned row");
        assert_eq!(stats.join_products_rejected_sigma, 10, "every dead slot counts as a rejected product");
    }

    // ---- Stage I join: many distinct dead slots ------------------------
    // hundreds of distinct product patterns, each one occurrence short of
    // σ: a dead slot is a hash probe and a few words in flat arrays, so a
    // warm join allocates a small constant number of times, never per slot
    {
        const LEAVES: u32 = 30;
        let snapshot = CsrSnapshot::from_graph(&distinct_pairs_graph(LEAVES));
        let dm = DiamMine::new(MiningData::Snapshot(&snapshot), 2, SupportMeasure::MinimumImage);
        let len1 = dm.frequent_edges();
        assert_eq!(len1.len(), LEAVES as usize, "every centre-leaf edge pattern is frequent");
        let slots = u64::from(LEAVES * (LEAVES - 1) / 2);
        let _warmup = dm.merge_to_length(&len1, 2);
        let (dead_allocs, len2) = counted(|| dm.merge_to_length(&len1, 2));
        assert!(len2.is_empty(), "every length-2 pattern occurs once, below σ = 2");
        assert!(
            dead_allocs < 80,
            "a join with {slots} distinct dead slots allocated {dead_allocs} times — \
             a slot below σ must not allocate"
        );
        let mut stats = skinnymine::MiningStats::default();
        dm.mine_exact_many_with_stats(&[2], &mut stats);
        assert_eq!(stats.join_products_rejected_sigma, slots, "every pattern is its own dead slot");
    }

    // ---- Stage I ladder level: warm arena rebuild is allocation-free ----
    // the level-carried join index's steady state (same level shape, fresh
    // patterns — as on every incremental refresh of a maintained ladder):
    // once the directed-row arena, source column and head index have seen
    // the shape, a rebuild must not touch the heap
    let mut level = LadderLevel::from_patterns(len2.clone());
    let next_patterns = len2.clone(); // the handoff itself is a move
    let (level_allocs, ()) = counted(|| level.rebuild(next_patterns));
    assert_eq!(level.patterns().len(), 1);
    assert_eq!(
        level_allocs, 0,
        "warm ladder-level rebuild allocated {level_allocs} times for {scanned_rows} directed \
         rows — arena, source column and head index must all be reused"
    );

    // ---- Stage I σ-pruned support: warm evaluation is allocation-free ---
    // both verdicts of the pruned evaluator — the bail below σ and the
    // exact value at or above it — must run entirely in the epoch-stamped
    // scratch once it has seen the row count
    let store = &len2[0].embeddings;
    let mut support_scratch = SupportScratch::new();
    let exact = store.support_pruned(SupportMeasure::MinimumImage, 0, &mut support_scratch);
    assert!(exact >= 1);
    let _warm = store.support_pruned(SupportMeasure::MinimumImage, exact + 1, &mut support_scratch);
    let (pruned_support_allocs, ()) = counted(|| {
        let rejected = store.support_pruned(SupportMeasure::MinimumImage, exact + 1, &mut support_scratch);
        assert!(rejected < exact + 1);
        let accepted = store.support_pruned(SupportMeasure::MinimumImage, exact, &mut support_scratch);
        assert_eq!(accepted, exact);
    });
    assert_eq!(
        pruned_support_allocs,
        0,
        "warm σ-pruned support allocated {pruned_support_allocs} times over {} rows — \
         the epoch-marked counting must reuse the scratch entirely",
        store.len()
    );

    // ---- Stage II extension enumeration: reject path --------------------
    let data = CsrSnapshot::from_graph(&matching_graph(300));
    let dm = DiamMine::new(MiningData::Snapshot(&data), 1, SupportMeasure::MinimumImage);
    let len1 = dm.frequent_edges();
    let pattern = GrownPattern::from_path_pattern(&len1[0]);
    let rows = pattern.embeddings.len() as u64;
    assert_eq!(rows, 300);
    // no vertex labeled 9 exists: every neighbor probe of every row rejects
    let ext = Extension::NewVertex { attach: 0, vertex_label: l(9), edge_label: Label::DEFAULT_EDGE };
    let mut marks = VertexMarks::new();
    let _warmup = pattern.extend_embeddings_with(&data, &ext, &mut marks);
    let (ext_allocs, extended) = counted(|| pattern.extend_embeddings_with(&data, &ext, &mut marks));
    assert!(extended.is_empty());
    assert!(
        ext_allocs < 32,
        "extension reject path allocated {ext_allocs} times for {rows} scanned rows — \
         with warm marks it must allocate at most a handful of times"
    );

    // ---- Stage II extension table: the inverted-index sweep -------------
    // 200 rows feed one candidate; a warm rebuild (the gather engine's
    // per-pattern work, and the entire reject path when the candidate is
    // bound-pruned below sigma) must allocate per candidate, never per row
    let data = CsrSnapshot::from_graph(&labeled_paths_graph(200));
    let dm = DiamMine::new(MiningData::Snapshot(&data), 1, SupportMeasure::MinimumImage);
    let len1 = dm.frequent_edges();
    let pattern = GrownPattern::from_path_pattern(&len1[0]);
    let rows = pattern.embeddings.len() as u64;
    assert_eq!(rows, 200);
    let mut ext_scratch = ExtensionScratch::new();
    ext_scratch.build(&pattern, &data, 2, 0);
    let (build_allocs, _) = counted(|| ext_scratch.build(&pattern, &data, 2, 0));
    assert_eq!(ext_scratch.table.candidate_count(), 1);
    assert_eq!(ext_scratch.table.support_upper_bound(0), rows as usize);
    assert!(
        build_allocs < 32,
        "extension-table build allocated {build_allocs} times for {rows} swept rows — \
         the warm sweep must not allocate per row"
    );
    // gathering the surviving candidate materializes exactly its rows: one
    // pre-sized store per candidate, no per-row growth
    let (gather_allocs, gathered) = counted(|| ext_scratch.table.gather(0, &pattern.embeddings));
    assert_eq!(gathered.len(), rows as usize);
    assert!(
        gather_allocs < 8,
        "gather allocated {gather_allocs} times for {rows} gathered rows — \
         the store must be pre-sized from the incidence count"
    );

    // ---- Stage II batched support: warm pass is allocation-free ---------
    // the batched evaluator's steady state: per-parent rank tables and all
    // per-candidate scratch reach full size during warm-up, after which a
    // fresh prepare (invalidate + re-prepare, as on every table rebuild)
    // plus candidate scoring — for both measures — allocates nothing
    let measures = [SupportMeasure::Transactions, SupportMeasure::MinimumImage];
    let entries = ext_scratch.table.entries(0);
    // a single data graph is one transaction; MNI sees the 200 disjoint
    // embeddings
    let expected = |measure| if measure == SupportMeasure::Transactions { 1 } else { rows as usize };
    let mut batch = SupportBatch::new();
    for measure in measures {
        batch.invalidate();
        assert_eq!(
            batch.support_extended_pruned(&pattern.embeddings, measure, entries, true, 0),
            expected(measure)
        );
    }
    let (batch_allocs, ()) = counted(|| {
        for measure in measures {
            batch.invalidate();
            assert_eq!(
                batch.support_extended_pruned(&pattern.embeddings, measure, entries, true, 0),
                expected(measure)
            );
        }
    });
    assert_eq!(
        batch_allocs, 0,
        "warm batched support allocated {batch_allocs} times across 2 measures × {rows} rows — \
         rank tables and scoring scratch must be fully reused"
    );
    // the early exits share every buffer with the σ = 0 evaluation above:
    // warm evaluation at any threshold allocates nothing either
    let (pruned_allocs, ()) = counted(|| {
        for measure in measures {
            batch.invalidate();
            for sigma in [1usize, rows as usize + 1] {
                let sup = batch.support_extended_pruned(&pattern.embeddings, measure, entries, true, sigma);
                if sigma <= expected(measure) {
                    assert_eq!(sup, expected(measure));
                } else {
                    assert!(sup < sigma);
                }
            }
        }
    });
    assert_eq!(
        pruned_allocs, 0,
        "warm pruned support allocated {pruned_allocs} times — \
         it must reuse the σ = 0 evaluation's buffers"
    );

    // ---- Stage II table refilter: warm advance is allocation-free -------
    // a closure-jump greedy advance refilters the table through the applied
    // candidate's row expansion; with warm double buffers the rewrite must
    // not allocate (the engine refilters once per advance, deep in the hot
    // loop)
    ext_scratch.build(&pattern, &data, 2, 0);
    ext_scratch.refilter(0, pattern.embeddings.len());
    ext_scratch.build(&pattern, &data, 2, 0);
    let (refilter_allocs, ()) = counted(|| ext_scratch.refilter(0, pattern.embeddings.len()));
    assert_eq!(ext_scratch.table.candidate_count(), 1);
    assert!(
        refilter_allocs == 0,
        "warm table refilter allocated {refilter_allocs} times for {rows} remapped rows — \
         the entry rewrite must reuse its double buffers"
    );

    // ---- GroupSorter kernel: warm histogram+scatter is allocation-free --
    // the grouping kernel under the extension table: once its buffers have
    // seen the problem size, both the index-emitting and payload-scattering
    // forms must allocate nothing
    let mut sorter = GroupSorter::new();
    let kernel_items = 512u32;
    let kernel_groups = 7usize;
    let group_of_item: Vec<u32> = (0..kernel_items).map(|i| i % kernel_groups as u32).collect();
    let payload: Vec<u32> = (0..kernel_items).collect();
    let (mut offsets, mut order, mut scattered) = (Vec::new(), Vec::new(), Vec::new());
    sorter.group_into(&group_of_item, kernel_groups, &mut offsets, &mut order);
    sorter.scatter_by_group(&group_of_item, &payload, kernel_groups, &mut offsets, &mut scattered);
    let (sorter_allocs, ()) = counted(|| {
        sorter.group_into(&group_of_item, kernel_groups, &mut offsets, &mut order);
        sorter.scatter_by_group(&group_of_item, &payload, kernel_groups, &mut offsets, &mut scattered);
    });
    assert_eq!(order.len(), kernel_items as usize);
    assert_eq!(scattered.len(), kernel_items as usize);
    assert_eq!(
        sorter_allocs, 0,
        "warm GroupSorter kernel allocated {sorter_allocs} times for {kernel_items} items — \
         the histogram/scatter passes must reuse every buffer"
    );

    // ---- Stage II canonical dedup: fingerprint-reject path --------------
    // a child whose fingerprint collides with an interned pattern is the
    // dedup reject path; with the entry keys materialized (warm), each
    // further duplicate pays one fingerprint plus one scratch-computed key
    // and performs zero heap allocation
    let a = LabeledGraph::from_unlabeled_edges(
        &[l(0), l(1), l(2), l(3), l(4), l(9)],
        [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5)],
    )
    .unwrap();
    // an isomorphic copy with permuted vertex ids
    let b = LabeledGraph::from_unlabeled_edges(
        &[l(9), l(4), l(3), l(2), l(1), l(0)],
        [(5, 4), (4, 3), (3, 2), (2, 1), (3, 0)],
    )
    .unwrap();
    let mut canon = CanonSet::new();
    assert!(canon.insert(&a).is_some());
    // warm-up: the first collision materializes the memoized entry key
    assert!(canon.insert(&b).is_none());
    assert!(canon.insert(&b).is_none());
    let rejects = 200u64;
    let (canon_allocs, ()) = counted(|| {
        for _ in 0..rejects {
            assert!(canon.insert(&b).is_none());
        }
    });
    assert!(
        canon_allocs == 0,
        "canonical-dedup fingerprint-reject path allocated {canon_allocs} times for {rejects} \
         duplicate rejections — the warm funnel must not allocate at all"
    );

    // ---- Stage II structural build: candidate-reject reuse --------------
    // rebuilding a candidate's structural extension into warm per-worker
    // scratch must stay allocation-free apart from the extended graph's
    // single new adjacency entry
    let snapshot = CsrSnapshot::from_graph(&labeled_paths_graph(1));
    let dm = DiamMine::new(MiningData::Snapshot(&snapshot), 1, SupportMeasure::MinimumImage);
    let pattern = GrownPattern::from_path_pattern(&dm.frequent_edges()[0]);
    let ext = Extension::NewVertex { attach: 0, vertex_label: l(9), edge_label: Label::DEFAULT_EDGE };
    let chord = Extension::ClosingEdge { u: 0, v: 1, edge_label: Label::DEFAULT_EDGE };
    let _ = chord; // (a length-1 path has no non-adjacent pair to close)
    let mut struct_scratch = StructScratch::new();
    pattern.apply_structure_with(&ext, &mut struct_scratch);
    let builds = 200u64;
    let (struct_allocs, ()) = counted(|| {
        for _ in 0..builds {
            pattern.apply_structure_with(&ext, &mut struct_scratch);
        }
    });
    assert_eq!(struct_scratch.structure.new_vertex, Some(VertexId(2)));
    assert!(
        struct_allocs <= 2 * builds,
        "scratch structural build allocated {struct_allocs} times for {builds} rebuilds — \
         only the new vertex's adjacency entry may allocate"
    );

    // ---- ingest: warm arena re-freeze is allocation-free ----------------
    // the snapshot builder's steady state (repeated freezes of same-shaped
    // transactions, as in the sharded corpus build): once the arenas and
    // output columns have seen the transaction shape, rebuilding in place
    // must not touch the heap at all
    let g = labeled_paths_graph(50);
    let mut snapshot_builder = SnapshotBuilder::new();
    let mut frozen = snapshot_builder.build(&g);
    let (freeze_allocs, ()) = counted(|| snapshot_builder.build_into(&g, &mut frozen));
    assert_eq!(frozen.vertex_count(), g.vertex_count());
    assert_eq!(
        freeze_allocs, 0,
        "warm snapshot re-freeze allocated {freeze_allocs} times — \
         the counting-sort build must reuse its arenas and output columns"
    );

    // ---- incremental maintenance: a no-op refresh is allocation-free ----
    // with nothing dirty, `refresh` must hand back the maintained result
    // without touching the heap — the steady state of a serving deployment
    // polling an unchanged database
    let db = skinny_graph::GraphDatabase::from_graphs(vec![labeled_paths_graph(10)]);
    let config = SkinnyMineConfig::new(2, 2, 1).with_report(ReportMode::All);
    let mut incremental = IncrementalMiner::new(config, db).expect("a valid database mines");
    let polls = 200u64;
    let (noop_refresh_allocs, ()) = counted(|| {
        for _ in 0..polls {
            incremental.refresh().expect("a no-op refresh succeeds");
        }
    });
    assert!(!incremental.result().patterns.is_empty());
    assert_eq!(
        noop_refresh_allocs, 0,
        "no-op incremental refresh allocated {noop_refresh_allocs} times for {polls} polls — \
         an empty dirty set must short-circuit without touching the heap"
    );

    // ---- Stage I shard merge: warm merge is allocation-free -------------
    // the sharded seed enumeration's ordered merge: once the accumulator
    // holds a shard's keys, merging a same-keyed partial (whose rows were
    // built on a worker) moves each pattern into its empty slot without
    // allocating — the steady state of every chunk after the first
    let shard_partial = || {
        let mut partial = PatternTable::new();
        for t in 0..20usize {
            let p = partial.slot_for(&[l(0), l(1)], &[Label::DEFAULT_EDGE]);
            p.add_occurrence_slice(t, &[VertexId(0), VertexId(1)], false);
            let q = partial.slot_for(&[l(1), l(2)], &[Label::DEFAULT_EDGE]);
            q.add_occurrence_slice(t, &[VertexId(1), VertexId(2)], false);
        }
        partial
    };
    let mut accumulator = PatternTable::new();
    accumulator.merge(shard_partial()); // inserts the keys
    accumulator.reset_rows(); // back to the pre-merge steady state
    let next_chunk = shard_partial();
    let (shard_merge_allocs, ()) = counted(|| accumulator.merge(next_chunk));
    assert_eq!(accumulator.len(), 2);
    assert_eq!(
        shard_merge_allocs, 0,
        "warm shard merge allocated {shard_merge_allocs} times — \
         merging a partial into known keys must move rows, not copy them"
    );

    // ---- accept path: allocation tracks emitted patterns ----------------
    let snapshot = CsrSnapshot::from_graph(&labeled_paths_graph(200));
    let dm = DiamMine::new(MiningData::Snapshot(&snapshot), 1, SupportMeasure::MinimumImage);
    let len1 = dm.frequent_edges();
    assert_eq!(len1.len(), 2);
    let scanned_rows = 2 * rows_of(&len1);
    let _warmup = dm.merge_to_length(&len1, 2);
    let (accept_allocs, len2) = counted(|| dm.merge_to_length(&len1, 2));
    assert_eq!(len2.len(), 1, "one length-2 pattern emitted");
    assert_eq!(len2[0].embeddings.len(), 200);
    assert!(
        accept_allocs < scanned_rows / 4,
        "concat accept path allocated {accept_allocs} times for {scanned_rows} scanned rows and \
         1 emitted pattern — occurrence rows must amortize into the arena"
    );

    // ---- Serving cache hit: zero allocations, zero deep clones ----------
    // the index's hit path is a canonical-key copy (all-Copy fields), a
    // sharded-map probe, an atomic recency bump and an Arc pointer-copy;
    // none of it may touch the heap — this is the pin on the old
    // `MiningResult::clone(cached)` deep-clone-per-hit bug
    let g = labeled_paths_graph(50);
    let index = MinimalPatternIndex::build(&g, 1, SupportMeasure::MinimumImage, None);
    let config = SkinnyMineConfig::new(2, 2, 1).with_report(ReportMode::All);
    let first = index.request(&config).expect("request succeeds");
    assert!(!first.patterns.is_empty());
    let hits = 200u64;
    let (hit_allocs, last) = counted(|| {
        let mut last = index.request(&config).expect("request succeeds");
        for _ in 1..hits {
            last = index.request(&config).expect("request succeeds");
        }
        last
    });
    assert!(Arc::ptr_eq(&first, &last), "every hit must return the one cached allocation");
    assert_eq!(index.serving_stats().hits, hits, "every counted request must be a cache hit");
    assert_eq!(
        hit_allocs, 0,
        "serving cache hits allocated {hit_allocs} times for {hits} hits — \
         a hit must be a pointer-copy, never a deep clone"
    );
}

fn rows_of(paths: &[skinnymine::PathPattern]) -> u64 {
    paths.iter().map(|p| p.embeddings.len() as u64).sum()
}
