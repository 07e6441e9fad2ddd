//! Result types of a SkinnyMine run.

use serde::{Deserialize, Serialize};
use skinny_graph::{DfsCode, EmbeddingSet, Label, LabeledGraph};

use crate::stats::MiningStats;

/// One mined l-long δ-skinny pattern.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SkinnyPattern {
    /// The pattern graph.  Vertices `0..=diameter_len` are the canonical
    /// diameter in order.
    pub graph: LabeledGraph,
    /// Length of the canonical diameter in edges.
    pub diameter_len: usize,
    /// Vertex-label sequence of the canonical diameter (canonical
    /// orientation) — the cluster the pattern belongs to.
    pub diameter_labels: Vec<Label>,
    /// The pattern's skinniness: maximum vertex level.
    pub skinniness: u32,
    /// Support under the measure the run was configured with.
    pub support: usize,
    /// Embeddings of the pattern in the data: the first 10,000 in growth
    /// order, or all of them when there are fewer.  [`SkinnyPattern::support`]
    /// is measured before the cap, over every embedding.
    pub embeddings: EmbeddingSet,
    /// True when no frequent constraint-satisfying one-edge extension has the
    /// same support.
    pub closed: bool,
    /// True when no frequent constraint-satisfying one-edge extension exists.
    pub maximal: bool,
    /// Order-invariant canonical fingerprint of the pattern graph
    /// ([`skinny_graph::fingerprint`]): equal for isomorphic graphs, so
    /// unequal fingerprints prove non-isomorphism.  Cross-cluster dedup
    /// buckets on this instead of recomputing signatures.
    pub canon_fingerprint: u64,
    /// The memoized minimum-DFS canonical key, carried over from the grow
    /// stage **iff** its dedup funnel already had to compute it (fingerprint
    /// collision); `None` means no key was ever needed — the saving the
    /// canonical-form subsystem exists for.  Deterministic for a
    /// deterministic growth order.
    pub canon_key: Option<DfsCode>,
}

impl SkinnyPattern {
    /// Number of vertices of the pattern.
    pub fn vertex_count(&self) -> usize {
        self.graph.vertex_count()
    }

    /// Number of edges of the pattern (the paper's pattern size `|P|`).
    pub fn edge_count(&self) -> usize {
        self.graph.edge_count()
    }

    /// One-line description used by examples and the experiment harness.
    pub fn describe(&self) -> String {
        format!(
            "{}-long {}-skinny pattern: |V|={}, |E|={}, support={}{}{}",
            self.diameter_len,
            self.skinniness,
            self.vertex_count(),
            self.edge_count(),
            self.support,
            if self.closed { ", closed" } else { "" },
            if self.maximal { ", maximal" } else { "" },
        )
    }
}

/// The full output of a SkinnyMine run.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct MiningResult {
    /// The reported patterns.
    pub patterns: Vec<SkinnyPattern>,
    /// Runtime statistics.
    pub stats: MiningStats,
}

impl MiningResult {
    /// Number of reported patterns.
    pub fn len(&self) -> usize {
        self.patterns.len()
    }

    /// True when no pattern was reported.
    pub fn is_empty(&self) -> bool {
        self.patterns.is_empty()
    }

    /// Histogram of pattern sizes by vertex count — the quantity plotted in
    /// Figures 4–10 of the paper.
    pub fn size_histogram(&self) -> std::collections::BTreeMap<usize, usize> {
        let mut hist = std::collections::BTreeMap::new();
        for p in &self.patterns {
            *hist.entry(p.vertex_count()).or_insert(0) += 1;
        }
        hist
    }

    /// The largest pattern by edge count, if any (Figure 19).
    pub fn largest_pattern(&self) -> Option<&SkinnyPattern> {
        self.patterns.iter().max_by_key(|p| p.edge_count())
    }

    /// Patterns with at least `min_vertices` vertices.
    pub fn patterns_at_least(&self, min_vertices: usize) -> Vec<&SkinnyPattern> {
        self.patterns.iter().filter(|p| p.vertex_count() >= min_vertices).collect()
    }

    /// Distribution of diameter lengths among reported patterns.
    pub fn diameter_histogram(&self) -> std::collections::BTreeMap<usize, usize> {
        let mut hist = std::collections::BTreeMap::new();
        for p in &self.patterns {
            *hist.entry(p.diameter_len).or_insert(0) += 1;
        }
        hist
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skinny_graph::{Embedding, VertexId};

    fn pattern(n_vertices: usize, diameter: usize, support: usize) -> SkinnyPattern {
        let labels = vec![Label(0); n_vertices];
        let edges: Vec<(u32, u32)> = (0..n_vertices as u32 - 1).map(|i| (i, i + 1)).collect();
        let graph = LabeledGraph::from_unlabeled_edges(&labels, edges).unwrap();
        let canon_fingerprint = skinny_graph::fingerprint(&graph);
        SkinnyPattern {
            graph,
            diameter_len: diameter,
            diameter_labels: vec![Label(0); diameter + 1],
            skinniness: 0,
            support,
            embeddings: EmbeddingSet::from_vec(vec![Embedding::new(vec![VertexId(0)])]),
            closed: true,
            maximal: false,
            canon_fingerprint,
            canon_key: None,
        }
    }

    #[test]
    fn describe_mentions_shape() {
        let p = pattern(5, 4, 3);
        let d = p.describe();
        assert!(d.contains("4-long"));
        assert!(d.contains("|V|=5"));
        assert!(d.contains("support=3"));
        assert!(d.contains("closed"));
        assert!(!d.contains("maximal"));
    }

    #[test]
    fn histograms() {
        let result = MiningResult {
            patterns: vec![pattern(3, 2, 2), pattern(3, 2, 2), pattern(5, 4, 2)],
            stats: MiningStats::default(),
        };
        let hist = result.size_histogram();
        assert_eq!(hist.get(&3), Some(&2));
        assert_eq!(hist.get(&5), Some(&1));
        let dh = result.diameter_histogram();
        assert_eq!(dh.get(&2), Some(&2));
        assert_eq!(result.largest_pattern().unwrap().vertex_count(), 5);
        assert_eq!(result.patterns_at_least(4).len(), 1);
        assert_eq!(result.len(), 3);
        assert!(!result.is_empty());
    }

    #[test]
    fn empty_result() {
        let r = MiningResult::default();
        assert!(r.is_empty());
        assert!(r.largest_pattern().is_none());
        assert!(r.size_histogram().is_empty());
    }
}
