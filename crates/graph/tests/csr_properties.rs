//! Property-based parity tests of the columnar snapshot layer:
//!
//! * [`CsrGraph`] must answer every query — labels, degrees, neighbor sets,
//!   edge lookups, label partition, triple index, BFS distances — exactly
//!   like the [`LabeledGraph`] it was built from;
//! * [`OccurrenceStore`] must compute every support measure exactly like the
//!   `Vec<Embedding>`-based [`EmbeddingSet`] produced by `find_embeddings`.

use proptest::prelude::*;
use skinny_graph::{
    bfs_distances, find_embeddings, CsrGraph, CsrSnapshot, EmbeddingSet, GraphDatabase, GraphView, Label,
    LabeledGraph, OccurrenceStore, SnapshotBuilder, SubIsoOptions, SupportMeasure, VertexId,
};

/// Strategy: a random labeled graph with labeled edges (not necessarily
/// connected).
fn any_graph(max_vertices: usize, max_labels: u32) -> impl Strategy<Value = LabeledGraph> {
    (1..=max_vertices).prop_flat_map(move |n| {
        let labels = proptest::collection::vec(0..max_labels, n);
        let edges = proptest::collection::vec((0..n, 0..n, 0..max_labels), 0..=2 * n);
        (labels, edges).prop_map(|(labels, edges)| {
            let mut g = LabeledGraph::new();
            for l in &labels {
                g.add_vertex(Label(*l));
            }
            for (a, b, el) in edges {
                if a != b {
                    let _ = g.add_edge(VertexId(a as u32), VertexId(b as u32), Label(el));
                }
            }
            g
        })
    })
}

/// Strategy: a small connected pattern (path of 1..=3 edges with random
/// labels) to embed into the data graph.
fn small_pattern(max_labels: u32) -> impl Strategy<Value = LabeledGraph> {
    (2..=4usize).prop_flat_map(move |n| {
        let labels = proptest::collection::vec(0..max_labels, n);
        let elabels = proptest::collection::vec(0..max_labels, n - 1);
        (labels, elabels).prop_map(|(labels, elabels)| {
            let labels: Vec<Label> = labels.into_iter().map(Label).collect();
            let edges: Vec<(u32, u32, Label)> =
                elabels.into_iter().enumerate().map(|(i, el)| (i as u32, i as u32 + 1, Label(el))).collect();
            LabeledGraph::from_parts(&labels, edges).expect("sequential path is valid")
        })
    })
}

const MEASURES: [SupportMeasure; 2] = [SupportMeasure::MinimumImage, SupportMeasure::Transactions];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Structural parity: vertex/edge counts, labels, degrees and the exact
    /// neighbor sequences agree between the representations.
    #[test]
    fn csr_matches_adjacency_structure(g in any_graph(14, 4)) {
        let c = CsrGraph::from_graph(&g);
        prop_assert!(c.parity_with(&g));
        prop_assert_eq!(c.vertex_count(), g.vertex_count());
        prop_assert_eq!(c.edge_count(), g.edge_count());
        for v in g.vertices() {
            prop_assert_eq!(c.label(v), g.label(v));
            prop_assert_eq!(c.degree(v), g.degree(v));
            let csr_n: Vec<_> = c.neighbors_at(v).collect();
            let adj_n: Vec<_> = g.neighbors(v).collect();
            prop_assert_eq!(csr_n, adj_n);
            for w in g.vertices() {
                prop_assert_eq!(c.has_edge(v, w), g.has_edge(v, w));
                prop_assert_eq!(c.edge_label(v, w), g.edge_label(v, w));
            }
        }
        // the generic edge iterator yields the same scan on both
        let csr_edges: Vec<_> = GraphView::edges(&c).collect();
        let adj_edges: Vec<_> = g.edges().collect();
        prop_assert_eq!(csr_edges, adj_edges);
    }

    /// The label partition lists exactly the vertices of each label, and the
    /// triple index buckets exactly the edges of each canonical triple.
    #[test]
    fn csr_partitions_are_exact(g in any_graph(14, 4)) {
        let c = CsrGraph::from_graph(&g);
        for &l in c.distinct_vertex_labels() {
            let expect = g.vertices_with_label(l);
            prop_assert_eq!(c.vertices_with_label(l), expect.as_slice());
        }
        let mut bucketed = 0usize;
        for (key, bucket) in c.edge_triples() {
            bucketed += bucket.len();
            for &(u, v) in bucket {
                prop_assert!(g.has_edge(u, v));
                prop_assert_eq!(g.edge_label(u, v), Some(key.1));
                prop_assert_eq!((g.label(u), g.label(v)), (key.0, key.2));
            }
            // the bucket holds every edge of its triple
            let expect = g
                .edges()
                .filter(|e| {
                    let (a, b) = (g.label(e.u).min(g.label(e.v)), g.label(e.u).max(g.label(e.v)));
                    (a, e.label, b) == key
                })
                .count();
            prop_assert_eq!(bucket.len(), expect);
        }
        prop_assert_eq!(bucketed, g.edge_count());
    }

    /// BFS distances agree between representations from every source.
    #[test]
    fn csr_matches_adjacency_distances(g in any_graph(12, 3)) {
        let c = CsrGraph::from_graph(&g);
        for v in g.vertices() {
            prop_assert_eq!(bfs_distances(&c, v), bfs_distances(&g, v));
        }
    }

    /// `find_embeddings` enumerates identical embeddings against either
    /// representation, and the columnar store computes every support measure
    /// exactly like the embedding-set form.
    #[test]
    fn occurrence_store_support_parity(g in any_graph(12, 3), p in small_pattern(3)) {
        let c = CsrGraph::from_graph(&g);
        let via_adj = find_embeddings(&p, &g, SubIsoOptions::default());
        let via_csr = find_embeddings(&p, &c, SubIsoOptions::default());
        prop_assert_eq!(&via_adj.embeddings, &via_csr.embeddings);
        let store = OccurrenceStore::from_embedding_set(p.vertex_count(), &via_adj);
        prop_assert_eq!(store.len(), via_adj.len());
        for m in MEASURES {
            prop_assert_eq!(store.support(m), via_adj.support(m), "measure {:?}", m);
        }
        prop_assert_eq!(store.to_embedding_set().distinct_vertex_sets(), via_adj.distinct_vertex_sets());
    }

    /// The one-pass counting-sort arena build emits the same columns as the
    /// retained sort-based reference build, for fresh and warm builders
    /// alike: every column, label partition and triple bucket is compared
    /// through `CsrGraph`'s derived equality.
    #[test]
    fn arena_build_matches_reference_build(
        db in proptest::collection::vec(any_graph(12, 4), 0..12),
    ) {
        let mut builder = SnapshotBuilder::new();
        let seed_graph = LabeledGraph::from_parts(&[Label(0), Label(1)], [(0, 1, Label(0))]).unwrap();
        let mut warm = CsrGraph::from_graph(&seed_graph);
        for g in &db {
            let reference = CsrGraph::from_graph_reference(g);
            prop_assert_eq!(&CsrGraph::from_graph(g), &reference);
            // the same builder across all graphs: no state carry-over
            prop_assert_eq!(&builder.build(g), &reference);
            // warm in-place rebuild into previously used columns
            builder.build_into(g, &mut warm);
            prop_assert_eq!(&warm, &reference);
        }
    }

    /// Sharded parallel snapshot construction is byte-identical to the
    /// serial build for every worker count, on arbitrary transaction
    /// databases (chunk stitching must preserve transaction order and every
    /// per-transaction column).
    #[test]
    fn parallel_snapshot_build_is_byte_identical(
        db in proptest::collection::vec(any_graph(12, 4), 0..12),
    ) {
        let db = GraphDatabase::from_graphs(db);
        let serial = CsrSnapshot::from_database(&db);
        for threads in [1usize, 2, 8] {
            let sharded = CsrSnapshot::from_database_with_threads(&db, threads);
            prop_assert_eq!(&sharded, &serial, "threads {}", threads);
        }
    }

    /// Support parity also holds across transactions (the measures that are
    /// transaction-aware must see the same `(transaction, row)` pairs).
    #[test]
    fn occurrence_store_transaction_support_parity(
        g in any_graph(10, 3),
        h in any_graph(10, 3),
        p in small_pattern(3),
    ) {
        let db = GraphDatabase::from_graphs(vec![g, h]);
        let set: EmbeddingSet = db.find_all_embeddings(&p, None);
        let store = OccurrenceStore::from_embedding_set(p.vertex_count(), &set);
        for m in MEASURES {
            prop_assert_eq!(store.support(m), set.support(m), "measure {:?}", m);
        }
        // row-level round trip
        prop_assert_eq!(&store.to_embedding_set().embeddings, &set.embeddings);
    }
}
