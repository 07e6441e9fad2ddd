//! Shared pattern-growth machinery used by the reconstructed baselines:
//! patterns carrying their embedding lists, one-edge candidate enumeration
//! and embedding-preserving extension.
//!
//! This is the unconstrained counterpart of SkinnyMine's LevelGrow — the
//! "enumerate-and-check" building block every traditional miner is built on.

use skinny_graph::{Embedding, EmbeddingSet, GraphDatabase, Label, LabeledGraph, SupportMeasure, VertexId};
use std::collections::{BTreeSet, HashMap};

/// A unified read-only view over the two mining settings (kept local to the
/// baselines crate so it does not depend on the skinnymine crate).
#[derive(Debug, Clone, Copy)]
pub enum Data<'a> {
    /// Single-graph setting.
    Single(&'a LabeledGraph),
    /// Graph-transaction setting.
    Database(&'a GraphDatabase),
}

impl<'a> Data<'a> {
    /// The graph of transaction `t` (transaction 0 in the single setting).
    pub fn graph(&self, t: usize) -> &'a LabeledGraph {
        match self {
            Data::Single(g) => g,
            Data::Database(db) => &db[t],
        }
    }

    /// Iterates over `(transaction, graph)` pairs (a small enum iterator, no
    /// boxed trait object on the enumeration path).
    pub fn transactions(&self) -> DataIter<'a> {
        match self {
            Data::Single(g) => DataIter { data: Data::Single(g), next: 0 },
            Data::Database(db) => DataIter { data: Data::Database(db), next: 0 },
        }
    }

    /// Number of transactions.
    pub fn len(&self) -> usize {
        match self {
            Data::Single(_) => 1,
            Data::Database(db) => db.len(),
        }
    }

    /// True when the data holds no transaction.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The support measure appropriate for the setting: minimum-image-based
    /// (MNI) support in the single-graph setting — the anti-monotone measure
    /// standard for single-graph mining — and transaction count otherwise.
    pub fn default_measure(&self) -> SupportMeasure {
        match self {
            Data::Single(_) => SupportMeasure::MinimumImage,
            Data::Database(_) => SupportMeasure::Transactions,
        }
    }

    /// Total vertex count.
    pub fn total_vertices(&self) -> usize {
        self.transactions().map(|(_, g)| g.vertex_count()).sum()
    }
}

/// Concrete iterator behind [`Data::transactions`].
#[derive(Debug, Clone)]
pub struct DataIter<'a> {
    data: Data<'a>,
    next: usize,
}

impl<'a> Iterator for DataIter<'a> {
    type Item = (usize, &'a LabeledGraph);

    fn next(&mut self) -> Option<(usize, &'a LabeledGraph)> {
        if self.next >= self.data.len() {
            return None;
        }
        let t = self.next;
        self.next = t + 1;
        Some((t, self.data.graph(t)))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.data.len() - self.next;
        (n, Some(n))
    }
}

impl ExactSizeIterator for DataIter<'_> {}

/// A one-edge extension descriptor (shared vocabulary with SkinnyMine's
/// `Extension`, re-declared here to keep the crates independent).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Growth {
    /// Attach a new vertex with `vertex_label` to pattern vertex `attach`.
    NewVertex {
        /// Existing pattern vertex.
        attach: u32,
        /// Label of the new vertex.
        vertex_label: Label,
        /// Label of the connecting edge.
        edge_label: Label,
    },
    /// Close an edge between existing pattern vertices `u < v`.
    ClosingEdge {
        /// Smaller endpoint.
        u: u32,
        /// Larger endpoint.
        v: u32,
        /// Edge label.
        edge_label: Label,
    },
}

/// A pattern together with all its embeddings.
#[derive(Debug, Clone)]
pub struct EmbeddedPattern {
    /// The pattern graph.
    pub graph: LabeledGraph,
    /// All embeddings (pattern vertex `i` maps to `vertices[i]`).
    pub embeddings: EmbeddingSet,
}

impl EmbeddedPattern {
    /// All frequent single-edge patterns of the data with their embeddings,
    /// keyed by `(label(u) <= label(v), edge label)`.
    pub fn frequent_edges(data: Data<'_>, sigma: usize, measure: SupportMeasure) -> Vec<EmbeddedPattern> {
        let mut by_key: HashMap<(Label, Label, Label), EmbeddingSet> = HashMap::new();
        for (t, g) in data.transactions() {
            for e in g.edges() {
                let (lu, lv) = (g.label(e.u), g.label(e.v));
                let (a, b, first, second) = if lu <= lv { (lu, lv, e.u, e.v) } else { (lv, lu, e.v, e.u) };
                by_key
                    .entry((a, e.label, b))
                    .or_default()
                    .push(Embedding::in_transaction(vec![first, second], t));
            }
        }
        let mut out = Vec::new();
        let mut keys: Vec<_> = by_key.keys().copied().collect();
        keys.sort();
        for key in keys {
            let embeddings = by_key.remove(&key).expect("key collected above");
            if embeddings.support(measure) < sigma {
                continue;
            }
            let (a, el, b) = key;
            let graph = LabeledGraph::from_parts(&[a, b], [(0u32, 1u32, el)])
                .expect("a two-vertex edge pattern is always valid");
            out.push(EmbeddedPattern { graph, embeddings });
        }
        out
    }

    /// Support of the pattern.
    pub fn support(&self, measure: SupportMeasure) -> usize {
        self.embeddings.support(measure)
    }

    /// Enumerates every one-edge growth candidate suggested by the data
    /// around the pattern's embeddings.
    pub fn candidates(&self, data: Data<'_>) -> BTreeSet<Growth> {
        let mut out = BTreeSet::new();
        let n = self.graph.vertex_count() as u32;
        for e in self.embeddings.iter() {
            let g = data.graph(e.transaction);
            let image_of: HashMap<VertexId, u32> =
                e.vertices.iter().enumerate().map(|(p, &d)| (d, p as u32)).collect();
            for p in 0..n {
                let image = e.vertices[p as usize];
                for (w, el) in g.neighbors(image) {
                    match image_of.get(&w) {
                        Some(&q) => {
                            if q > p && !self.graph.has_edge(VertexId(p), VertexId(q)) {
                                out.insert(Growth::ClosingEdge { u: p, v: q, edge_label: el });
                            }
                        }
                        None => {
                            out.insert(Growth::NewVertex {
                                attach: p,
                                vertex_label: g.label(w),
                                edge_label: el,
                            });
                        }
                    }
                }
            }
        }
        out
    }

    /// Applies a growth step, recomputing the embedding list incrementally.
    /// Returns `None` when no embedding survives.
    pub fn apply(&self, data: Data<'_>, growth: Growth) -> Option<EmbeddedPattern> {
        let mut graph = self.graph.clone();
        let mut embeddings = EmbeddingSet::new();
        match growth {
            Growth::NewVertex { attach, vertex_label, edge_label } => {
                let nv = graph.add_vertex(vertex_label);
                graph.add_edge(VertexId(attach), nv, edge_label).ok()?;
                for e in self.embeddings.iter() {
                    let g = data.graph(e.transaction);
                    let image = e.vertices[attach as usize];
                    for (w, el) in g.neighbors(image) {
                        if el == edge_label && g.label(w) == vertex_label && !e.uses(w) {
                            embeddings.push(e.extended(w));
                        }
                    }
                }
            }
            Growth::ClosingEdge { u, v, edge_label } => {
                graph.add_edge(VertexId(u), VertexId(v), edge_label).ok()?;
                for e in self.embeddings.iter() {
                    let g = data.graph(e.transaction);
                    if g.edge_label(e.vertices[u as usize], e.vertices[v as usize]) == Some(edge_label) {
                        embeddings.push(e.clone());
                    }
                }
            }
        }
        if embeddings.is_empty() {
            return None;
        }
        Some(EmbeddedPattern { graph, embeddings })
    }

    /// Pattern diameter (for diameter-bounded miners such as SpiderMine).
    pub fn diameter(&self) -> usize {
        skinny_graph::diameter(&self.graph).map(|d| d as usize).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l(x: u32) -> Label {
        Label(x)
    }

    /// Two triangles a-b-c plus a pendant d on one of them.
    fn graph() -> LabeledGraph {
        LabeledGraph::from_unlabeled_edges(
            &[l(0), l(1), l(2), l(0), l(1), l(2), l(5)],
            [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 6)],
        )
        .unwrap()
    }

    #[test]
    fn frequent_edges_respect_sigma() {
        let g = graph();
        let data = Data::Single(&g);
        let edges = EmbeddedPattern::frequent_edges(data, 2, SupportMeasure::MinimumImage);
        // a-b, b-c, a-c appear twice; a-d once
        assert_eq!(edges.len(), 3);
        let all = EmbeddedPattern::frequent_edges(data, 1, SupportMeasure::MinimumImage);
        assert_eq!(all.len(), 4);
    }

    #[test]
    fn candidates_and_apply_grow_triangle() {
        let g = graph();
        let data = Data::Single(&g);
        let edges = EmbeddedPattern::frequent_edges(data, 2, SupportMeasure::MinimumImage);
        // take the a-b edge pattern and grow it
        let ab = edges
            .iter()
            .find(|p| p.graph.label(VertexId(0)) == l(0) && p.graph.label(VertexId(1)) == l(1))
            .unwrap();
        let cands = ab.candidates(data);
        assert!(!cands.is_empty());
        // growing with the label-2 vertex attached to the label-1 end keeps support 2
        let grow = cands
            .iter()
            .copied()
            .find(|c| matches!(c, Growth::NewVertex { vertex_label, .. } if *vertex_label == l(2)))
            .unwrap();
        let grown = ab.apply(data, grow).unwrap();
        assert_eq!(grown.graph.vertex_count(), 3);
        assert!(grown.embeddings.distinct_vertex_sets() >= 2);
        // closing the triangle keeps support 2
        let close =
            grown.candidates(data).into_iter().find(|c| matches!(c, Growth::ClosingEdge { .. })).unwrap();
        let triangle = grown.apply(data, close).unwrap();
        assert_eq!(triangle.graph.edge_count(), 3);
        assert_eq!(triangle.embeddings.distinct_vertex_sets(), 2);
        assert_eq!(triangle.diameter(), 1);
    }

    #[test]
    fn apply_returns_none_when_no_embedding_survives() {
        let g = graph();
        let data = Data::Single(&g);
        let edges = EmbeddedPattern::frequent_edges(data, 1, SupportMeasure::MinimumImage);
        let ad = edges.iter().find(|p| p.graph.labels().contains(&l(5))).unwrap();
        // no vertex labeled 7 exists anywhere
        let bogus = Growth::NewVertex { attach: 0, vertex_label: l(7), edge_label: Label::DEFAULT_EDGE };
        assert!(ad.apply(data, bogus).is_none());
    }

    #[test]
    fn transaction_data_counts_transactions() {
        let g = graph();
        let db = GraphDatabase::from_graphs(vec![g.clone(), g]);
        let data = Data::Database(&db);
        assert_eq!(data.default_measure(), SupportMeasure::Transactions);
        assert_eq!(Data::Single(&db[0]).default_measure(), SupportMeasure::MinimumImage);
        let edges = EmbeddedPattern::frequent_edges(data, 2, SupportMeasure::Transactions);
        // all four distinct edge patterns appear in both transactions
        assert_eq!(edges.len(), 4);
        assert_eq!(data.total_vertices(), 14);
    }
}
