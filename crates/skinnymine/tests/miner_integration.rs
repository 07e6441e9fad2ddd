//! Integration tests of the skinnymine crate against brute-force enumeration
//! built directly on the graph substrate: the mined pattern set must equal
//! the set of frequent l-long δ-skinny subgraphs found by exhaustively
//! checking every connected subgraph of small inputs.

use proptest::prelude::*;
use skinny_graph::{
    analyze, canonical_key, find_embeddings, DfsCode, Edge, Label, LabeledGraph, SubIsoOptions,
    SupportMeasure, VertexId,
};
use skinnymine::{IncrementalMiner, MinimalPatternIndex, ReportMode, SkinnyMine, SkinnyMineConfig};
use std::collections::HashSet;

/// Brute force: enumerate every connected edge-subset subgraph of `graph`
/// (up to `max_edges` edges), keep those that are frequent l-long δ-skinny
/// patterns, and return their canonical keys.
fn brute_force_skinny(
    graph: &LabeledGraph,
    l: usize,
    delta: u32,
    sigma: usize,
    measure: SupportMeasure,
    max_edges: usize,
) -> HashSet<DfsCode> {
    let edges: Vec<Edge> = graph.edges().collect();
    let mut found: HashSet<DfsCode> = HashSet::new();
    // enumerate connected sub-edge-sets by growing from each edge (BFS over
    // subsets represented as sorted index vectors)
    let mut seen_subsets: HashSet<Vec<usize>> = HashSet::new();
    let mut queue: Vec<Vec<usize>> = (0..edges.len()).map(|i| vec![i]).collect();
    for s in &queue {
        seen_subsets.insert(s.clone());
    }
    while let Some(subset) = queue.pop() {
        let subset_edges: Vec<Edge> = subset.iter().map(|&i| edges[i]).collect();
        let (sub, _) = graph.edge_subgraph(&subset_edges);
        if skinny_graph::is_connected(&sub) {
            if let Ok(a) = analyze(&sub) {
                if a.is_l_long_delta_skinny(l, delta) {
                    let support = find_embeddings(&sub, graph, SubIsoOptions::default()).support(measure);
                    if support >= sigma {
                        found.insert(canonical_key(&sub));
                    }
                }
            }
            // grow the subset with adjacent edges
            if subset.len() < max_edges {
                let verts: HashSet<VertexId> = subset_edges.iter().flat_map(|e| [e.u, e.v]).collect();
                for (i, e) in edges.iter().enumerate() {
                    if subset.contains(&i) {
                        continue;
                    }
                    if verts.contains(&e.u) || verts.contains(&e.v) {
                        let mut next = subset.clone();
                        next.push(i);
                        next.sort();
                        if seen_subsets.insert(next.clone()) {
                            queue.push(next);
                        }
                    }
                }
            }
        }
    }
    found
}

/// A small deterministic data set with rich structure: two copies of a
/// backbone with twigs, plus noise edges.
fn structured_graph() -> LabeledGraph {
    let mut labels = Vec::new();
    let mut edges: Vec<(u32, u32)> = Vec::new();
    for _ in 0..2 {
        let base = labels.len() as u32;
        labels.extend([0u32, 1, 2, 3].map(Label));
        edges.extend([(base, base + 1), (base + 1, base + 2), (base + 2, base + 3)]);
        labels.push(Label(7));
        edges.push((base + 1, labels.len() as u32 - 1));
        labels.push(Label(8));
        edges.push((base + 2, labels.len() as u32 - 1));
    }
    // noise: an extra triangle with fresh labels
    let base = labels.len() as u32;
    labels.extend([20u32, 21, 22].map(Label));
    edges.extend([(base, base + 1), (base + 1, base + 2), (base, base + 2)]);
    LabeledGraph::from_unlabeled_edges(&labels, edges).unwrap()
}

#[test]
fn matches_brute_force_on_structured_graph() {
    let graph = structured_graph();
    for (l, delta) in [(3usize, 1u32), (3, 2), (2, 1)] {
        let measure = SupportMeasure::MinimumImage;
        let expected = brute_force_skinny(&graph, l, delta, 2, measure, 9);
        let config =
            SkinnyMineConfig::new(l, delta, 2).with_support_measure(measure).with_report(ReportMode::All);
        let result = SkinnyMine::new(config).mine(&graph).unwrap();
        let got: HashSet<DfsCode> = result.patterns.iter().map(|p| canonical_key(&p.graph)).collect();
        assert_eq!(got.len(), result.patterns.len(), "duplicate patterns reported for l={l}, delta={delta}");
        assert_eq!(got, expected, "pattern sets differ for l={l}, delta={delta}");
    }
}

/// The one-label star K₁,₆ at l = 2, δ = 0, σ = 1 under MNI: the direct
/// mine, a request to an index and an incremental miner all find the
/// 2-path, and agree on every pattern's `Debug` bytes (compared sorted,
/// because the index breaks fewer ordering ties than the direct miner).
#[test]
fn mni_star_mines_the_two_path_at_every_entry_point() {
    let star = LabeledGraph::from_unlabeled_edges(&[Label(0); 7], (1..7).map(|leaf| (0, leaf))).unwrap();
    let db = skinny_graph::GraphDatabase::from_graphs(vec![star.clone()]);
    let config = SkinnyMineConfig::new(2, 0, 1).with_report(ReportMode::All);
    let sorted_debug = |patterns: &[skinnymine::SkinnyPattern]| {
        let mut out: Vec<String> = patterns.iter().map(|p| format!("{p:?}")).collect();
        out.sort();
        out
    };
    let direct = SkinnyMine::new(config.clone()).mine(&star).unwrap();
    assert_eq!(direct.patterns.len(), 1);
    let path = &direct.patterns[0];
    assert_eq!((path.diameter_len, path.vertex_count(), path.edge_count()), (2, 3, 2));
    let index = MinimalPatternIndex::build(&star, 1, SupportMeasure::MinimumImage, None);
    let served = index.request(&config).unwrap();
    assert_eq!(sorted_debug(&served.patterns), sorted_debug(&direct.patterns), "index request");
    let incremental = IncrementalMiner::new(config, db).unwrap();
    assert_eq!(sorted_debug(&incremental.result().patterns), sorted_debug(&direct.patterns), "incremental");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// On random connected graphs, SkinnyMine (complete output) equals brute
    /// force enumeration for small l and δ.
    #[test]
    fn matches_brute_force_on_random_graphs(
        n in 4usize..8,
        extra in proptest::collection::vec((0usize..8, 0usize..8), 0..4),
        label_seed in 0u32..3,
    ) {
        // spanning tree + extra edges, labels cycling over a small alphabet
        let mut g = LabeledGraph::new();
        for i in 0..n {
            g.add_vertex(Label(((i as u32) + label_seed) % 3));
        }
        for i in 1..n {
            let _ = g.add_unlabeled_edge(VertexId(i as u32), VertexId(((i - 1) / 2) as u32));
        }
        for (a, b) in extra {
            if a != b && a < n && b < n {
                let _ = g.add_unlabeled_edge(VertexId(a as u32), VertexId(b as u32));
            }
        }
        let measure = SupportMeasure::MinimumImage;
        let (l, delta, sigma) = (2usize, 1u32, 1usize);
        let expected = brute_force_skinny(&g, l, delta, sigma, measure, 7);
        let config = SkinnyMineConfig::new(l, delta, sigma)
            .with_support_measure(measure)
            .with_report(ReportMode::All);
        let result = SkinnyMine::new(config).mine(&g).expect("mining succeeds");
        let got: HashSet<DfsCode> = result.patterns.iter().map(|p| canonical_key(&p.graph)).collect();
        prop_assert_eq!(got, expected);
    }
}
