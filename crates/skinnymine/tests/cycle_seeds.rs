//! Regression test for frequent-cycle seeding (ROADMAP open item):
//! genuinely minimal **non-path** patterns exist — C₅ for `l = 2` is
//! `(2, δ)`-skinny for `δ >= 1`, and every one-edge or one-vertex reduction
//! violates the constraint — so Definition-8 completeness requires Stage I
//! to seed the frequent odd cycles `C_{2l+1}` directly: Stage II can never
//! reach them from path seeds, because each intermediate pattern breaks the
//! canonical-diameter invariant.

use skinny_graph::{CsrSnapshot, GraphDatabase, Label, LabeledGraph, SupportMeasure};
use skinnymine::{
    satisfies_skinny_spec, IncrementalMiner, MinimalPatternIndex, MiningData, ReportMode, SkinnyMine,
    SkinnyMineConfig,
};

fn l(x: u32) -> Label {
    Label(x)
}

/// Two disjoint all-same-label pentagons plus two disjoint 3-paths of a
/// different label (so path clusters exist alongside the cycle clusters).
fn pentagon_data() -> LabeledGraph {
    let mut labels = vec![l(7); 10];
    let mut edges: Vec<(u32, u32)> = Vec::new();
    for base in [0u32, 5] {
        for i in 0..5 {
            edges.push((base + i, base + (i + 1) % 5));
        }
    }
    for _ in 0..2 {
        let base = labels.len() as u32;
        labels.extend([l(1), l(2), l(3)]);
        edges.push((base, base + 1));
        edges.push((base + 1, base + 2));
    }
    LabeledGraph::from_unlabeled_edges(&labels, edges).unwrap()
}

fn is_c5(p: &skinnymine::SkinnyPattern) -> bool {
    p.vertex_count() == 5 && p.edge_count() == 5
}

#[test]
fn c5_is_mined_for_l2_and_missed_without_cycle_seeds() {
    let g = pentagon_data();
    let config = SkinnyMineConfig::new(2, 1, 2).with_report(ReportMode::All);
    let result = SkinnyMine::new(config.clone()).mine(&g).unwrap();
    let c5 = result.patterns.iter().find(|p| is_c5(p)).expect("C5 must be seeded and reported");
    assert_eq!(c5.diameter_len, 2);
    assert_eq!(c5.skinniness, 1);
    assert_eq!(c5.support, 2);
    // the reported pattern genuinely satisfies the (2, 1) skinny spec with
    // its designated canonical diameter
    assert!(satisfies_skinny_spec(&c5.graph, 2, 1, &c5.diameter_labels));
    // every vertex of a C5 has degree 2
    assert!(c5.graph.vertices().all(|v| c5.graph.degree(v) == 2));
    // its occurrences are genuine and land on the two pentagons
    for e in c5.embeddings.iter() {
        assert!(e.is_valid(&c5.graph, &g));
    }
    assert_eq!(c5.embeddings.distinct_vertex_sets(), 2);

    // without cycle seeding the same request misses the pattern entirely —
    // this is the completeness gap the seeding closes
    let crippled = SkinnyMine::new(config.with_cycle_seeds(false)).mine(&g).unwrap();
    assert!(
        !crippled.patterns.iter().any(is_c5),
        "C5 must be unreachable from path seeds; if this fires, the regression test fixture is wrong"
    );
}

#[test]
fn c5_cluster_is_input_form_invariant() {
    let g = pentagon_data();
    let miner = SkinnyMine::new(SkinnyMineConfig::new(2, 1, 2).with_report(ReportMode::All));
    let adjacency = miner.mine(&g).unwrap();
    let snapshot = CsrSnapshot::from_graph(&g);
    let frozen = miner.mine_data(MiningData::Snapshot(&snapshot)).unwrap();
    assert!(adjacency.patterns.iter().any(is_c5));
    assert_eq!(format!("{:?}", adjacency.patterns), format!("{:?}", frozen.patterns));
}

#[test]
fn index_serves_cycle_seeds() {
    let g = pentagon_data();
    let idx = MinimalPatternIndex::build(&g, 2, SupportMeasure::MinimumImage, None);
    // the C5 seed is pre-derived at build time
    assert_eq!(idx.minimal_cycles(2).len(), 1);
    assert_eq!(idx.minimal_cycles(2)[0].cycle_len(), 5);
    assert!(idx.minimal_cycles(3).is_empty());
    let result = idx.request_exact(2, 1, ReportMode::All).unwrap();
    assert!(result.patterns.iter().any(is_c5), "index request must report the C5 pattern");
    // and the served result matches direct mining exactly
    let direct = SkinnyMine::new(
        SkinnyMineConfig::new(2, 1, 2)
            .with_report(ReportMode::All)
            .with_length(skinnymine::LengthConstraint::Exactly(2)),
    )
    .mine(&g)
    .unwrap();
    assert_eq!(result.patterns.len(), direct.patterns.len());
}

#[test]
fn c3_is_mined_for_l1() {
    // two disjoint triangles: C3 is the minimal non-path pattern for l = 1
    let g = LabeledGraph::from_unlabeled_edges(&[l(0); 6], [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        .unwrap();
    let config = SkinnyMineConfig::new(1, 1, 2).with_report(ReportMode::All);
    let result = SkinnyMine::new(config).mine(&g).unwrap();
    let c3 = result
        .patterns
        .iter()
        .find(|p| p.vertex_count() == 3 && p.edge_count() == 3)
        .expect("C3 must be seeded and reported");
    assert_eq!(c3.diameter_len, 1);
    // the reported cluster grows the triangle from the edge, one row per
    // triangle edge: each pattern vertex maps to two vertices per triangle
    assert_eq!(c3.support, 4);
    assert_eq!(c3.embeddings.distinct_vertex_sets(), 2);
    assert!(c3.embeddings.iter().all(|e| e.is_valid(&c3.graph, &g)));
}

/// `copies` disjoint one-label cycles of `len` vertices.
fn disjoint_cycles(len: u32, copies: u32) -> LabeledGraph {
    let edges = (0..copies).flat_map(|c| (0..len).map(move |i| (c * len + i, c * len + (i + 1) % len)));
    LabeledGraph::from_unlabeled_edges(&vec![l(0); (len * copies) as usize], edges).unwrap()
}

/// `C_{2l+1}` is `(l, ⌈l/2⌉)`-skinny, so a δ below that never reports it:
/// the triangle at `l = 1, δ = 0` and C₇ at `l = 3, δ = 1`.  The cycle
/// seeds still run, and every entry point — direct mine, index request and
/// incremental refresh — returns exactly what it returns without them.
#[test]
fn cycles_wider_than_delta_are_not_reported() {
    for (len, l, delta) in [(3u32, 1usize, 0u32), (7, 3, 1)] {
        let g = disjoint_cycles(len, 2);
        let config = SkinnyMineConfig::new(l, delta, 2)
            .with_support_measure(SupportMeasure::MinimumImage)
            .with_report(ReportMode::All);
        let debug = |patterns: &[skinnymine::SkinnyPattern]| {
            assert!(patterns.iter().all(|p| p.skinniness <= delta), "l = {l}, delta = {delta}: {patterns:?}");
            format!("{patterns:?}")
        };
        let direct = SkinnyMine::new(config.clone()).mine(&g).unwrap();
        let without = SkinnyMine::new(config.clone().with_cycle_seeds(false)).mine(&g).unwrap();
        assert_eq!(debug(&direct.patterns), debug(&without.patterns), "direct mine, l = {l}");

        let index = MinimalPatternIndex::build(&g, 2, SupportMeasure::MinimumImage, None);
        assert_eq!(index.minimal_cycles(l).len(), 1, "the C_{{2l+1}} seed exists at l = {l}");
        let served = index.request(&config).unwrap();
        assert_eq!(debug(&served.patterns), debug(&without.patterns), "index request, l = {l}");

        // one cycle per transaction, counted by transactions
        let db = GraphDatabase::from_graphs(vec![disjoint_cycles(len, 1), disjoint_cycles(len, 1)]);
        let config = config.with_support_measure(SupportMeasure::Transactions);
        let mut miner = IncrementalMiner::new(config.clone(), db.clone()).unwrap();
        miner.database_mut().replace_transaction(0, disjoint_cycles(len, 1)).unwrap();
        let refreshed = miner.refresh().unwrap();
        let without = SkinnyMine::new(config.with_cycle_seeds(false)).mine_database(&db).unwrap();
        assert_eq!(debug(&refreshed.patterns), debug(&without.patterns), "refresh, l = {l}");
    }
}

// ---------------------------------------------------------------------------
// The arc route against the 2l-path oracle, entry-point identity, and the
// cross-cluster dedup funnel against its oracle.
// ---------------------------------------------------------------------------

mod routes {
    use proptest::prelude::*;
    use skinny_graph::{analyze, fingerprint, GraphDatabase, Label, LabeledGraph, SupportMeasure, VertexId};
    use skinnymine::{
        duplicate_pattern_indices, duplicate_pattern_indices_reference, DiamMine, MinimalPatternIndex,
        MiningData, ReportMode, SkinnyMine, SkinnyMineConfig, SkinnyPattern,
    };

    /// Strategy: one small dense graph over at most two vertex labels and
    /// two edge labels, so short odd cycles are common and label-equal
    /// cycle symmetries occur.
    fn any_graph() -> impl Strategy<Value = LabeledGraph> {
        (4..10usize).prop_flat_map(|n| {
            let labels = proptest::collection::vec(0..2u32, n);
            let edges = proptest::collection::vec((0..n, 0..n, 0..2u32), n..(3 * n));
            (labels, edges).prop_map(|(labels, edges)| {
                let mut g = LabeledGraph::new();
                for l in labels {
                    g.add_vertex(Label(l));
                }
                for (u, v, el) in edges {
                    let (u, v) = (VertexId(u as u32), VertexId(v as u32));
                    if u == v || g.has_edge(u, v) {
                        continue;
                    }
                    g.add_edge(u, v, Label(el)).expect("vertices exist and the edge is new");
                }
                g
            })
        })
    }

    fn any_database(txns: std::ops::RangeInclusive<usize>) -> impl Strategy<Value = GraphDatabase> {
        proptest::collection::vec(any_graph(), txns).prop_map(GraphDatabase::from_graphs)
    }

    const ARC_MEASURES: [SupportMeasure; 2] = [SupportMeasure::MinimumImage, SupportMeasure::Transactions];

    /// The arc route over the mined `l`-paths against the `2l`-path oracle,
    /// compared on `Debug` bytes (keys, rows and row order).
    fn assert_arcs_match_oracle(data: MiningData<'_>, sigma: usize, l: usize) -> Result<(), TestCaseError> {
        for measure in ARC_MEASURES {
            let oracle = format!("{:?}", DiamMine::new(data.clone(), sigma, measure).frequent_cycles(l));
            for threads in [1usize, 2, 8] {
                let dm = DiamMine::new(data.clone(), sigma, measure).with_threads(threads);
                let arcs = dm.cycles_from_arcs(&dm.mine_exact(l), l);
                prop_assert_eq!(
                    &format!("{arcs:?}"),
                    &oracle,
                    "{:?}, l = {}, sigma = {}, {} threads",
                    measure,
                    l,
                    sigma,
                    threads
                );
            }
        }
        Ok(())
    }

    /// A direct mine and a request to an index built up to `max_len` of the
    /// same configuration give the same patterns, compared on each pattern's
    /// `Debug` bytes, and every pattern is genuinely `l`-long and δ-skinny.
    /// The comparison ignores the reported order: the index's final sort
    /// breaks fewer ties than the direct miner's, a known drift the
    /// benchmark's traced index request still mirrors.
    fn assert_index_matches_direct(
        db: &GraphDatabase,
        config: &SkinnyMineConfig,
        max_len: Option<usize>,
    ) -> Result<(), TestCaseError> {
        let sorted_debug = |patterns: &[skinnymine::SkinnyPattern]| {
            let mut out: Vec<String> = patterns.iter().map(|p| format!("{p:?}")).collect();
            out.sort();
            out
        };
        let direct = SkinnyMine::new(config.clone()).mine_database(db).unwrap();
        for p in &direct.patterns {
            prop_assert!(p.skinniness <= config.delta, "{:?}: {:?}", config, p);
            let shape = analyze(&p.graph).unwrap();
            prop_assert!(shape.is_l_long_delta_skinny(p.diameter_len, config.delta), "{:?}: {:?}", config, p);
        }
        let index = MinimalPatternIndex::build_for_database(db, config.sigma, config.support, max_len);
        let served = index.request(config).unwrap();
        prop_assert_eq!(
            sorted_debug(&served.patterns),
            sorted_debug(&direct.patterns),
            "{:?}, index max_len {:?}",
            config,
            max_len
        );
        Ok(())
    }

    /// `g` with its vertex ids reversed: an isomorphic copy whose vertex
    /// and edge order differ from the original's.
    fn reversed_vertices(g: &LabeledGraph) -> LabeledGraph {
        let n = g.vertex_count() as u32;
        let flip = |v: VertexId| VertexId(n - 1 - v.0);
        let mut out = LabeledGraph::new();
        for v in (0..n).rev() {
            out.add_vertex(g.label(VertexId(v)));
        }
        for e in g.edges() {
            out.add_edge(flip(e.u), flip(e.v), e.label).expect("the copy of a simple graph is simple");
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The cross-cluster dedup funnel drops exactly the indices its
        /// reference drops.  The input is a mined result followed by a
        /// reversed copy of itself whose graphs are vertex-permuted and whose
        /// memoized keys are cleared, so every copy is an isomorphic
        /// duplicate that the funnel finds through a shared fingerprint
        /// bucket and a freshly computed key.
        #[test]
        fn dedup_funnel_matches_reference(g in any_graph(), sigma in 1..3usize, l in 1..=3usize) {
            let config = SkinnyMineConfig::new(l, 1, sigma).with_report(ReportMode::All);
            let mined = SkinnyMine::new(config).mine(&g).unwrap().patterns;
            let copies = mined.iter().rev().map(|p| {
                let graph = reversed_vertices(&p.graph);
                SkinnyPattern { canon_fingerprint: fingerprint(&graph), canon_key: None, graph, ..p.clone() }
            });
            let patterns: Vec<SkinnyPattern> = mined.iter().cloned().chain(copies).collect();
            let (funnel, _) = duplicate_pattern_indices(&patterns);
            prop_assert_eq!(&funnel, &duplicate_pattern_indices_reference(&patterns));
            // every copy duplicates an earlier original
            let copy_indices: Vec<usize> = (mined.len()..patterns.len()).collect();
            prop_assert!(funnel.ends_with(&copy_indices), "{:?}", funnel);
        }

        #[test]
        fn arc_route_matches_oracle_on_single_graphs(g in any_graph(), sigma in 1..3usize, l in 1..=4usize) {
            assert_arcs_match_oracle(MiningData::Single(&g), sigma, l)?;
        }

        #[test]
        fn arc_route_matches_oracle_on_databases(db in any_database(1..=4), sigma in 1..4usize, l in 1..=4usize) {
            assert_arcs_match_oracle(MiningData::Transactions(&db), sigma, l)?;
        }

        /// Both measures through both public entry points with cycle seeds
        /// on: the direct mine of `l` alone pairs arcs, against an index
        /// built up to `max_len` ∈ {unbounded, `l`, `2l`}, which closes its
        /// stored `2l`-paths where it holds them and pairs arcs past its
        /// bound.
        #[test]
        fn direct_mine_with_cycle_seeds_matches_index(
            db in any_database(1..=3),
            sigma in 1..3usize,
            l in 1..=3usize,
            measure in 0..2usize,
            bound in 0..3usize,
        ) {
            let measure = [SupportMeasure::MinimumImage, SupportMeasure::Transactions][measure];
            let config = SkinnyMineConfig::new(l, 1, sigma)
                .with_support_measure(measure)
                .with_report(ReportMode::All);
            let max_len = [None, Some(l), Some(2 * l)][bound];
            assert_index_matches_direct(&db, &config, max_len)?;
        }
    }

    /// A graph large enough that the arc kernel shards its rows on the pool
    /// at `l = 3` (the sequential cutoff is 4096 directed rows): one vertex
    /// label and a ring with chords, so odd cycles close at every length.
    #[test]
    fn sharded_arc_route_matches_oracle() {
        let n = 112u32;
        let mut edges: Vec<(u32, u32)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        edges.extend((0..n).map(|i| (i, (i + 2) % n)));
        edges.extend((0..n).step_by(2).map(|i| (i, (i + 7) % n)));
        let g = LabeledGraph::from_unlabeled_edges(&vec![Label(0); n as usize], edges).unwrap();
        for l in 1..=3usize {
            let dm = DiamMine::new(MiningData::Single(&g), 2, SupportMeasure::MinimumImage);
            let oracle = dm.frequent_cycles(l);
            assert!(!oracle.is_empty(), "the fixture must close cycles at l = {l}");
            let paths = dm.mine_exact(l);
            let rows: usize = paths.iter().map(|p| p.embeddings.len()).sum();
            assert!(l < 3 || 2 * rows >= 4096, "l = 3 must shard: {rows} rows");
            let sharded = dm.clone().with_threads(2);
            assert_eq!(
                format!("{:?}", sharded.cycles_from_arcs(&paths, l)),
                format!("{oracle:?}"),
                "l = {l}"
            );
        }
    }
}
