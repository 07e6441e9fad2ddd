//! Embeddings of patterns in data graphs and support measures.
//!
//! An embedding `e_P` of a pattern `P` in a graph `G` is a subgraph of `G`
//! isomorphic to `P`; we represent it as the vertex mapping
//! `pattern vertex i  ->  data vertex e.vertices[i]`.  The set of all
//! embeddings of `P` is `E[P]`, and the paper's single-graph problem asks for
//! `|E[P]| >= σ`.
//!
//! Several ways of counting `|E[P]|` are in common use; [`SupportMeasure`]
//! captures the ones needed for the reproduction.

use crate::graph::{LabeledGraph, VertexId};
use serde::{Deserialize, Serialize};
use std::collections::HashSet;

/// One embedding of a pattern: `vertices[i]` is the data-graph vertex that
/// pattern vertex `i` maps to.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Embedding {
    /// Data-graph vertex per pattern vertex, indexed by pattern vertex id.
    pub vertices: Vec<VertexId>,
    /// Transaction index (0 for the single-graph setting).
    pub transaction: usize,
}

impl Embedding {
    /// Creates an embedding in the single-graph setting (transaction 0).
    pub fn new(vertices: Vec<VertexId>) -> Self {
        Embedding { vertices, transaction: 0 }
    }

    /// Creates an embedding inside a specific transaction graph.
    pub fn in_transaction(vertices: Vec<VertexId>, transaction: usize) -> Self {
        Embedding { vertices, transaction }
    }

    /// The data vertex that pattern vertex `p` maps to.
    #[inline]
    pub fn image(&self, p: usize) -> VertexId {
        self.vertices[p]
    }

    /// Number of pattern vertices covered.
    #[inline]
    pub fn len(&self) -> usize {
        self.vertices.len()
    }

    /// True for the empty embedding.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.vertices.is_empty()
    }

    /// True if the embedding uses data vertex `v`.
    pub fn uses(&self, v: VertexId) -> bool {
        self.vertices.contains(&v)
    }

    /// The set of data vertices used, sorted — the "vertex set image" of the
    /// embedding, used to collapse automorphic duplicates.
    pub fn vertex_set(&self) -> Vec<VertexId> {
        let mut vs = self.vertices.clone();
        vs.sort();
        vs.dedup();
        vs
    }

    /// Extends the embedding with the image of one more pattern vertex.
    pub fn extended(&self, v: VertexId) -> Embedding {
        let mut vs = self.vertices.clone();
        vs.push(v);
        Embedding { vertices: vs, transaction: self.transaction }
    }

    /// Checks that this embedding is a genuine occurrence of `pattern` in
    /// `data`: labels match and every pattern edge maps to a data edge.
    /// Used by tests and verification, not by the hot mining path.
    pub fn is_valid(&self, pattern: &LabeledGraph, data: &LabeledGraph) -> bool {
        if self.vertices.len() != pattern.vertex_count() {
            return false;
        }
        // injectivity
        let distinct: HashSet<VertexId> = self.vertices.iter().copied().collect();
        if distinct.len() != self.vertices.len() {
            return false;
        }
        for p in pattern.vertices() {
            let d = self.vertices[p.index()];
            if d.index() >= data.vertex_count() || data.label(d) != pattern.label(p) {
                return false;
            }
        }
        for e in pattern.edges() {
            let du = self.vertices[e.u.index()];
            let dv = self.vertices[e.v.index()];
            if !data.has_edge(du, dv) {
                return false;
            }
            if data.edge_label(du, dv) != Some(e.label) {
                return false;
            }
        }
        true
    }
}

/// How `|E[P]| >= σ` is interpreted.  Both measures are anti-monotone: a
/// pattern's support never exceeds the support of any of its sub-patterns,
/// so every sub-pattern of a frequent pattern is frequent too, which both
/// mining stages rely on.  The raw embedding count
/// ([`EmbeddingSet::len`]) and the distinct vertex-set count
/// ([`EmbeddingSet::distinct_vertex_sets`]) are not anti-monotone and are
/// plain methods, not measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum SupportMeasure {
    /// Minimum-image-based support (MNI): the minimum, over pattern vertices,
    /// of the number of distinct data vertices that vertex maps to.  The
    /// default, and the single-graph measure SkinnyMine mines under.
    ///
    /// MNI is anti-monotone over the full embedding set, where every
    /// automorphic image of a symmetric pattern is an embedding.  The miners
    /// store a symmetric occurrence once, so the MNI they compute can rise
    /// from a symmetric pattern to a super-pattern.  In the graph
    /// `a(0)–b(0), a–c(1), b–d(1)` the stored `0–0` edge has MNI 1 and the
    /// `0–0–1` path has MNI 2.
    #[default]
    MinimumImage,
    /// Transaction support: number of distinct transactions containing at
    /// least one embedding (graph-transaction setting).
    Transactions,
}

/// The embeddings of one pattern, together with support computation.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct EmbeddingSet {
    /// All embeddings found.
    pub embeddings: Vec<Embedding>,
}

impl EmbeddingSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a set from a vector of embeddings.
    pub fn from_vec(embeddings: Vec<Embedding>) -> Self {
        EmbeddingSet { embeddings }
    }

    /// Adds an embedding.
    pub fn push(&mut self, e: Embedding) {
        self.embeddings.push(e);
    }

    /// Appends all embeddings of `other`, preserving their order (used by the
    /// parallel joins' ordered partial-result merge).
    pub fn append(&mut self, other: EmbeddingSet) {
        self.embeddings.extend(other.embeddings);
    }

    /// Number of raw embeddings.
    pub fn len(&self) -> usize {
        self.embeddings.len()
    }

    /// True when there is no embedding.
    pub fn is_empty(&self) -> bool {
        self.embeddings.is_empty()
    }

    /// Iterates over the embeddings.
    pub fn iter(&self) -> impl Iterator<Item = &Embedding> {
        self.embeddings.iter()
    }

    /// Number of distinct `(transaction, vertex set)` images.
    pub fn distinct_vertex_sets(&self) -> usize {
        let mut seen: HashSet<(usize, Vec<VertexId>)> = HashSet::with_capacity(self.embeddings.len());
        for e in &self.embeddings {
            seen.insert((e.transaction, e.vertex_set()));
        }
        seen.len()
    }

    /// Minimum-image-based (MNI) support.
    pub fn mni_support(&self) -> usize {
        if self.embeddings.is_empty() {
            return 0;
        }
        let k = self.embeddings[0].len();
        let mut min = usize::MAX;
        for p in 0..k {
            let distinct: HashSet<(usize, VertexId)> =
                self.embeddings.iter().map(|e| (e.transaction, e.image(p))).collect();
            min = min.min(distinct.len());
        }
        min
    }

    /// Number of distinct transactions with at least one embedding.
    pub fn transaction_support(&self) -> usize {
        let distinct: HashSet<usize> = self.embeddings.iter().map(|e| e.transaction).collect();
        distinct.len()
    }

    /// Support under the chosen measure.
    pub fn support(&self, measure: SupportMeasure) -> usize {
        match measure {
            SupportMeasure::MinimumImage => self.mni_support(),
            SupportMeasure::Transactions => self.transaction_support(),
        }
    }

    /// Deduplicates embeddings that are exactly equal (same mapping and
    /// transaction).
    pub fn dedup_exact(&mut self) {
        let mut seen = HashSet::with_capacity(self.embeddings.len());
        self.embeddings.retain(|e| seen.insert((e.transaction, e.vertices.clone())));
    }

    /// Keeps one embedding per distinct `(transaction, vertex set)` image,
    /// collapsing automorphic duplicates.
    pub fn dedup_by_vertex_set(&mut self) {
        let mut seen: HashSet<(usize, Vec<VertexId>)> = HashSet::with_capacity(self.embeddings.len());
        self.embeddings.retain(|e| seen.insert((e.transaction, e.vertex_set())));
    }
}

impl FromIterator<Embedding> for EmbeddingSet {
    fn from_iter<T: IntoIterator<Item = Embedding>>(iter: T) -> Self {
        EmbeddingSet { embeddings: iter.into_iter().collect() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label::Label;

    fn v(ids: &[u32]) -> Vec<VertexId> {
        ids.iter().map(|&i| VertexId(i)).collect()
    }

    #[test]
    fn embedding_basic_accessors() {
        let e = Embedding::new(v(&[3, 5, 7]));
        assert_eq!(e.len(), 3);
        assert!(!e.is_empty());
        assert_eq!(e.image(1), VertexId(5));
        assert!(e.uses(VertexId(7)));
        assert!(!e.uses(VertexId(4)));
        assert_eq!(e.transaction, 0);
        let t = Embedding::in_transaction(v(&[0]), 4);
        assert_eq!(t.transaction, 4);
    }

    #[test]
    fn vertex_set_sorted_dedup() {
        let e = Embedding::new(v(&[9, 2, 5]));
        assert_eq!(e.vertex_set(), v(&[2, 5, 9]));
    }

    #[test]
    fn extended_appends() {
        let e = Embedding::in_transaction(v(&[1]), 2);
        let f = e.extended(VertexId(8));
        assert_eq!(f.vertices, v(&[1, 8]));
        assert_eq!(f.transaction, 2);
    }

    #[test]
    fn validity_check() {
        // data: triangle 0(a)-1(b)-2(a); pattern: edge a-b
        let data =
            LabeledGraph::from_unlabeled_edges(&[Label(0), Label(1), Label(0)], [(0, 1), (1, 2), (0, 2)])
                .unwrap();
        let pattern = LabeledGraph::from_unlabeled_edges(&[Label(0), Label(1)], [(0, 1)]).unwrap();
        assert!(Embedding::new(v(&[0, 1])).is_valid(&pattern, &data));
        assert!(Embedding::new(v(&[2, 1])).is_valid(&pattern, &data));
        // wrong label
        assert!(!Embedding::new(v(&[1, 0])).is_valid(&pattern, &data));
        // missing edge: pattern edge maps to non-edge
        let pattern2 = LabeledGraph::from_unlabeled_edges(&[Label(0), Label(0)], [(0, 1)]).unwrap();
        assert!(Embedding::new(v(&[0, 2])).is_valid(&pattern2, &data));
        // non-injective
        assert!(!Embedding::new(v(&[0, 0])).is_valid(&pattern2, &data));
        // wrong arity
        assert!(!Embedding::new(v(&[0])).is_valid(&pattern, &data));
    }

    #[test]
    fn support_measures() {
        // pattern with 2 vertices; embeddings {0,1} both orders (automorphic)
        let mut set = EmbeddingSet::new();
        set.push(Embedding::new(v(&[0, 1])));
        set.push(Embedding::new(v(&[1, 0])));
        set.push(Embedding::new(v(&[2, 3])));
        assert_eq!(set.len(), 3);
        assert_eq!(set.distinct_vertex_sets(), 2);
        // vertex 0 of the pattern maps to {0,1,2} -> 3 ; vertex 1 maps to {1,0,3} -> 3
        assert_eq!(set.support(SupportMeasure::MinimumImage), 3);
        assert_eq!(set.support(SupportMeasure::Transactions), 1);
    }

    #[test]
    fn transaction_support_counts_distinct_transactions() {
        let mut set = EmbeddingSet::new();
        set.push(Embedding::in_transaction(v(&[0, 1]), 0));
        set.push(Embedding::in_transaction(v(&[0, 1]), 0));
        set.push(Embedding::in_transaction(v(&[4, 5]), 3));
        assert_eq!(set.transaction_support(), 2);
    }

    #[test]
    fn mni_support_of_empty_set_is_zero() {
        assert_eq!(EmbeddingSet::new().mni_support(), 0);
        assert_eq!(EmbeddingSet::new().support(SupportMeasure::MinimumImage), 0);
    }

    #[test]
    fn dedup_exact_and_by_vertex_set() {
        let mut set = EmbeddingSet::from_vec(vec![
            Embedding::new(v(&[0, 1])),
            Embedding::new(v(&[0, 1])),
            Embedding::new(v(&[1, 0])),
        ]);
        set.dedup_exact();
        assert_eq!(set.len(), 2);
        set.dedup_by_vertex_set();
        assert_eq!(set.len(), 1);
    }

    #[test]
    fn default_measure_is_minimum_image() {
        assert_eq!(SupportMeasure::default(), SupportMeasure::MinimumImage);
    }

    #[test]
    fn from_iterator_collects() {
        let set: EmbeddingSet = vec![Embedding::new(v(&[1]))].into_iter().collect();
        assert_eq!(set.len(), 1);
    }
}
