//! The core undirected labeled graph type.
//!
//! Graphs in the paper are undirected, vertex-labeled (optionally
//! edge-labeled) simple graphs.  [`LabeledGraph`] stores vertex labels and a
//! sorted adjacency list per vertex; it is used both for the (potentially
//! large) data graph and for (small) patterns.

use crate::error::{GraphError, GraphResult};
use crate::label::Label;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A vertex identifier: an index into the graph's vertex array.
///
/// The paper calls these "physical vertex IDs"; they participate in the total
/// path order of Definition 3 as the tie breaker among lexicographically
/// equal paths.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct VertexId(pub u32);

impl VertexId {
    /// Returns the vertex id as a usize index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for VertexId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// The id of the vertex appended to a graph holding `len` vertices.
///
/// # Panics
/// Panics when `len` does not fit in `u32`, so a graph past 2³² vertices
/// fails instead of aliasing vertex ids.
fn vertex_id(len: usize) -> u32 {
    u32::try_from(len).expect("vertex count overflows the u32 vertex id")
}

impl From<u32> for VertexId {
    fn from(v: u32) -> Self {
        VertexId(v)
    }
}

impl From<usize> for VertexId {
    fn from(v: usize) -> Self {
        VertexId(v as u32)
    }
}

/// An undirected edge together with its label.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Edge {
    /// Smaller endpoint (edges are normalized so that `u <= v`).
    pub u: VertexId,
    /// Larger endpoint.
    pub v: VertexId,
    /// Edge label ([`Label::DEFAULT_EDGE`] for unlabeled graphs).
    pub label: Label,
}

impl Edge {
    /// Creates a normalized edge with endpoints ordered `u <= v`.
    pub fn new(a: VertexId, b: VertexId, label: Label) -> Self {
        if a <= b {
            Edge { u: a, v: b, label }
        } else {
            Edge { u: b, v: a, label }
        }
    }

    /// Returns the endpoint different from `x`, or `None` if `x` is not an
    /// endpoint.
    pub fn other(&self, x: VertexId) -> Option<VertexId> {
        if x == self.u {
            Some(self.v)
        } else if x == self.v {
            Some(self.u)
        } else {
            None
        }
    }
}

/// An undirected, vertex-labeled, optionally edge-labeled simple graph.
///
/// Multi-edges and self loops are rejected.  Adjacency lists are kept sorted
/// by `(neighbor id)` so iteration order is deterministic.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LabeledGraph {
    labels: Vec<Label>,
    adj: Vec<Vec<(VertexId, Label)>>,
    edge_count: usize,
    name: Option<String>,
}

impl LabeledGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty graph with capacity reserved for `n` vertices.
    pub fn with_capacity(n: usize) -> Self {
        LabeledGraph { labels: Vec::with_capacity(n), adj: Vec::with_capacity(n), edge_count: 0, name: None }
    }

    /// Builds a graph from a vertex label slice and an edge list in one call.
    ///
    /// Edges are `(u, v, edge_label)` triples over indices into `labels`.
    pub fn from_parts<E>(labels: &[Label], edges: E) -> GraphResult<Self>
    where
        E: IntoIterator<Item = (u32, u32, Label)>,
    {
        let mut g = LabeledGraph::with_capacity(labels.len());
        for &l in labels {
            g.add_vertex(l);
        }
        for (u, v, el) in edges {
            g.add_edge(VertexId(u), VertexId(v), el)?;
        }
        Ok(g)
    }

    /// Builds an unlabeled-edge graph from vertex labels and `(u, v)` pairs.
    pub fn from_unlabeled_edges<E>(labels: &[Label], edges: E) -> GraphResult<Self>
    where
        E: IntoIterator<Item = (u32, u32)>,
    {
        Self::from_parts(labels, edges.into_iter().map(|(u, v)| (u, v, Label::DEFAULT_EDGE)))
    }

    /// Makes `self` a copy of `other`, reusing every buffer this graph
    /// already owns (including the per-vertex adjacency vectors).  The
    /// grow engines rebuild candidate pattern graphs into per-worker
    /// scratch with this, so a rejected candidate never allocates.
    pub fn clone_from_graph(&mut self, other: &LabeledGraph) {
        self.labels.clone_from(&other.labels);
        self.adj.clone_from(&other.adj);
        self.edge_count = other.edge_count;
        self.name.clone_from(&other.name);
    }

    /// Sets a human readable name (graph id) used in diagnostics.
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = Some(name.into());
    }

    /// Returns the graph name, if set.
    pub fn name(&self) -> Option<&str> {
        self.name.as_deref()
    }

    /// Adds a vertex with label `label` and returns its id.
    pub fn add_vertex(&mut self, label: Label) -> VertexId {
        let id = VertexId(vertex_id(self.labels.len()));
        self.labels.push(label);
        self.adj.push(Vec::new());
        id
    }

    /// Adds an undirected edge with the default edge label.
    pub fn add_unlabeled_edge(&mut self, u: VertexId, v: VertexId) -> GraphResult<()> {
        self.add_edge(u, v, Label::DEFAULT_EDGE)
    }

    /// Adds an undirected edge `(u, v)` with label `label`.
    ///
    /// Returns an error on out-of-bounds endpoints, self loops and duplicate
    /// edges.
    pub fn add_edge(&mut self, u: VertexId, v: VertexId, label: Label) -> GraphResult<()> {
        self.check_vertex(u)?;
        self.check_vertex(v)?;
        if u == v {
            return Err(GraphError::SelfLoop { vertex: u.0 });
        }
        if self.has_edge(u, v) {
            return Err(GraphError::DuplicateEdge { u: u.0, v: v.0 });
        }
        self.insert_sorted(u, v, label);
        self.insert_sorted(v, u, label);
        self.edge_count += 1;
        Ok(())
    }

    fn insert_sorted(&mut self, from: VertexId, to: VertexId, label: Label) {
        let list = &mut self.adj[from.index()];
        let pos = list.partition_point(|&(n, _)| n < to);
        list.insert(pos, (to, label));
    }

    /// Removes the undirected edge `(u, v)`, returning its label.
    ///
    /// Returns an error on out-of-bounds endpoints or when the edge does not
    /// exist.  Vertex ids are stable across removals.
    pub fn remove_edge(&mut self, u: VertexId, v: VertexId) -> GraphResult<Label> {
        self.check_vertex(u)?;
        self.check_vertex(v)?;
        let Ok(pos_u) = self.adj[u.index()].binary_search_by_key(&v, |&(n, _)| n) else {
            return Err(GraphError::EdgeNotFound { u: u.0, v: v.0 });
        };
        let (_, label) = self.adj[u.index()].remove(pos_u);
        let pos_v = self.adj[v.index()]
            .binary_search_by_key(&u, |&(n, _)| n)
            .expect("undirected adjacency lists are symmetric");
        self.adj[v.index()].remove(pos_v);
        self.edge_count -= 1;
        Ok(label)
    }

    /// Removes every edge incident to `v`, leaving it an isolated vertex.
    ///
    /// This is the update path's "vertex delete": vertex ids stay dense and
    /// stable (the label remains), only the incident edges disappear.
    /// Returns the number of removed edges.
    pub fn isolate_vertex(&mut self, v: VertexId) -> GraphResult<usize> {
        self.check_vertex(v)?;
        let incident = std::mem::take(&mut self.adj[v.index()]);
        for &(w, _) in &incident {
            let pos = self.adj[w.index()]
                .binary_search_by_key(&v, |&(n, _)| n)
                .expect("undirected adjacency lists are symmetric");
            self.adj[w.index()].remove(pos);
        }
        self.edge_count -= incident.len();
        Ok(incident.len())
    }

    fn check_vertex(&self, v: VertexId) -> GraphResult<()> {
        if v.index() < self.labels.len() {
            Ok(())
        } else {
            Err(GraphError::VertexOutOfBounds { vertex: v.0, len: self.labels.len() })
        }
    }

    /// Number of vertices `|V(G)|`.
    #[inline]
    pub fn vertex_count(&self) -> usize {
        self.labels.len()
    }

    /// Number of edges `|E(G)|`. Following the paper's convention, this is
    /// also the graph "size" `|G|`.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// True when the graph has no vertices.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Returns the vertex label of `v`.
    ///
    /// # Panics
    /// Panics if `v` is out of bounds (all ids handed out by this graph are
    /// valid; only externally forged ids can panic).
    #[inline]
    pub fn label(&self, v: VertexId) -> Label {
        self.labels[v.index()]
    }

    /// Returns the vertex label of `v` or `None` if out of bounds.
    pub fn label_checked(&self, v: VertexId) -> Option<Label> {
        self.labels.get(v.index()).copied()
    }

    /// Returns the slice of all vertex labels, indexed by vertex id.
    pub fn labels(&self) -> &[Label] {
        &self.labels
    }

    /// Degree of vertex `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        self.adj[v.index()].len()
    }

    /// Maximum degree over all vertices, or 0 for the empty graph.
    pub fn max_degree(&self) -> usize {
        self.adj.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Average degree `2|E| / |V|`, or 0.0 for the empty graph.
    pub fn average_degree(&self) -> f64 {
        if self.labels.is_empty() {
            0.0
        } else {
            2.0 * self.edge_count as f64 / self.labels.len() as f64
        }
    }

    /// Iterates over `(neighbor, edge_label)` pairs of `v` in ascending
    /// neighbor-id order.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> impl Iterator<Item = (VertexId, Label)> + '_ {
        self.adj[v.index()].iter().copied()
    }

    /// The sorted `(neighbor, edge_label)` slice of `v` — the borrow the
    /// [`GraphView`](crate::view::GraphView) implementation hands out.
    #[inline]
    pub fn neighbor_slice(&self, v: VertexId) -> &[(VertexId, Label)] {
        &self.adj[v.index()]
    }

    /// Iterates over neighbor ids of `v` (without edge labels).
    #[inline]
    pub fn neighbor_ids(&self, v: VertexId) -> impl Iterator<Item = VertexId> + '_ {
        self.adj[v.index()].iter().map(|&(n, _)| n)
    }

    /// True if the edge `(u, v)` exists.
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        if u.index() >= self.adj.len() || v.index() >= self.adj.len() {
            return false;
        }
        self.adj[u.index()].binary_search_by_key(&v, |&(n, _)| n).is_ok()
    }

    /// Returns the label of edge `(u, v)` if it exists.
    pub fn edge_label(&self, u: VertexId, v: VertexId) -> Option<Label> {
        if u.index() >= self.adj.len() {
            return None;
        }
        self.adj[u.index()].binary_search_by_key(&v, |&(n, _)| n).ok().map(|i| self.adj[u.index()][i].1)
    }

    /// Iterates over all vertex ids `0..|V|`.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        (0..self.labels.len() as u32).map(VertexId)
    }

    /// Iterates over all edges, each reported once with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = Edge> + '_ {
        self.vertices().flat_map(move |u| {
            self.neighbors(u).filter(move |&(v, _)| u < v).map(move |(v, label)| Edge { u, v, label })
        })
    }

    /// Returns all vertices carrying label `l`.
    pub fn vertices_with_label(&self, l: Label) -> Vec<VertexId> {
        self.vertices().filter(|&v| self.label(v) == l).collect()
    }

    /// Returns the set of distinct vertex labels present, sorted.
    pub fn distinct_vertex_labels(&self) -> Vec<Label> {
        let mut ls = self.labels.clone();
        ls.sort();
        ls.dedup();
        ls
    }

    /// Builds the induced subgraph on `vertices`, returning the subgraph and
    /// the mapping from new vertex ids to the original ids (`new -> old`).
    pub fn induced_subgraph(&self, vertices: &[VertexId]) -> (LabeledGraph, Vec<VertexId>) {
        let mut sub = LabeledGraph::with_capacity(vertices.len());
        let mut old_of_new = Vec::with_capacity(vertices.len());
        let mut new_of_old = vec![None; self.vertex_count()];
        for &v in vertices {
            let nv = sub.add_vertex(self.label(v));
            new_of_old[v.index()] = Some(nv);
            old_of_new.push(v);
        }
        for &v in vertices {
            let nv = new_of_old[v.index()].expect("just inserted");
            for (w, el) in self.neighbors(v) {
                if let Some(nw) = new_of_old.get(w.index()).copied().flatten() {
                    if nv < nw {
                        sub.add_edge(nv, nw, el).expect("induced subgraph edge must be valid");
                    }
                }
            }
        }
        (sub, old_of_new)
    }

    /// Builds the subgraph consisting of exactly the given edges (and their
    /// endpoints). Returns the subgraph and the `new -> old` vertex map.
    pub fn edge_subgraph(&self, edges: &[Edge]) -> (LabeledGraph, Vec<VertexId>) {
        let mut verts: Vec<VertexId> = edges.iter().flat_map(|e| [e.u, e.v]).collect();
        verts.sort();
        verts.dedup();
        let mut sub = LabeledGraph::with_capacity(verts.len());
        let mut new_of_old = vec![None; self.vertex_count()];
        for &v in &verts {
            let nv = sub.add_vertex(self.label(v));
            new_of_old[v.index()] = Some(nv);
        }
        for e in edges {
            let nu = new_of_old[e.u.index()].expect("endpoint inserted");
            let nv = new_of_old[e.v.index()].expect("endpoint inserted");
            if !sub.has_edge(nu, nv) {
                sub.add_edge(nu, nv, e.label).expect("edge subgraph edge must be valid");
            }
        }
        (sub, verts)
    }

    /// A stable multiset signature of `(vertex labels, edge label triples)`
    /// useful as a cheap pre-filter before running full isomorphism checks.
    pub fn signature(&self) -> GraphSignature {
        let mut vlabels = self.labels.clone();
        vlabels.sort();
        let mut elabels: Vec<(Label, Label, Label)> = self
            .edges()
            .map(|e| {
                let (a, b) = {
                    let la = self.label(e.u);
                    let lb = self.label(e.v);
                    if la <= lb {
                        (la, lb)
                    } else {
                        (lb, la)
                    }
                };
                (a, e.label, b)
            })
            .collect();
        elabels.sort();
        GraphSignature { vertex_labels: vlabels, edge_triples: elabels }
    }
}

/// A label-multiset signature used as an isomorphism-invariant pre-filter:
/// isomorphic graphs always have equal signatures.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct GraphSignature {
    /// Sorted multiset of vertex labels.
    pub vertex_labels: Vec<Label>,
    /// Sorted multiset of `(min endpoint label, edge label, max endpoint label)` triples.
    pub edge_triples: Vec<(Label, Label, Label)>,
}

impl fmt::Display for LabeledGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "LabeledGraph{}: |V|={}, |E|={}",
            self.name.as_deref().map(|n| format!(" '{n}'")).unwrap_or_default(),
            self.vertex_count(),
            self.edge_count()
        )?;
        for v in self.vertices() {
            write!(f, "  {}({})", v.0, self.label(v))?;
            let ns: Vec<String> = self.neighbor_ids(v).map(|n| n.0.to_string()).collect();
            writeln!(f, " -> [{}]", ns.join(", "))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tri() -> LabeledGraph {
        LabeledGraph::from_unlabeled_edges(&[Label(0), Label(1), Label(2)], [(0, 1), (1, 2), (0, 2)]).unwrap()
    }

    #[test]
    fn add_vertices_and_edges() {
        let g = tri();
        assert_eq!(g.vertex_count(), 3);
        assert_eq!(g.edge_count(), 3);
        assert!(g.has_edge(VertexId(0), VertexId(1)));
        assert!(g.has_edge(VertexId(1), VertexId(0)));
        assert!(!g.has_edge(VertexId(0), VertexId(0)));
    }

    #[test]
    fn degree_and_average_degree() {
        let g = tri();
        assert_eq!(g.degree(VertexId(0)), 2);
        assert_eq!(g.max_degree(), 2);
        assert!((g.average_degree() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn duplicate_edge_rejected() {
        let mut g = tri();
        let err = g.add_edge(VertexId(0), VertexId(1), Label::DEFAULT_EDGE).unwrap_err();
        assert_eq!(err, GraphError::DuplicateEdge { u: 0, v: 1 });
        // also reject the reversed direction
        let err = g.add_edge(VertexId(1), VertexId(0), Label::DEFAULT_EDGE).unwrap_err();
        assert_eq!(err, GraphError::DuplicateEdge { u: 1, v: 0 });
    }

    #[test]
    fn self_loop_rejected() {
        let mut g = tri();
        let err = g.add_edge(VertexId(2), VertexId(2), Label::DEFAULT_EDGE).unwrap_err();
        assert_eq!(err, GraphError::SelfLoop { vertex: 2 });
    }

    #[test]
    fn out_of_bounds_rejected() {
        let mut g = tri();
        let err = g.add_edge(VertexId(0), VertexId(9), Label::DEFAULT_EDGE).unwrap_err();
        assert!(matches!(err, GraphError::VertexOutOfBounds { vertex: 9, .. }));
    }

    #[test]
    fn neighbors_sorted() {
        let mut g = LabeledGraph::new();
        let a = g.add_vertex(Label(0));
        let b = g.add_vertex(Label(0));
        let c = g.add_vertex(Label(0));
        let d = g.add_vertex(Label(0));
        g.add_unlabeled_edge(a, d).unwrap();
        g.add_unlabeled_edge(a, b).unwrap();
        g.add_unlabeled_edge(a, c).unwrap();
        let ns: Vec<u32> = g.neighbor_ids(a).map(|v| v.0).collect();
        assert_eq!(ns, vec![1, 2, 3]);
    }

    #[test]
    fn edges_reported_once() {
        let g = tri();
        let edges: Vec<(u32, u32)> = g.edges().map(|e| (e.u.0, e.v.0)).collect();
        assert_eq!(edges, vec![(0, 1), (0, 2), (1, 2)]);
    }

    #[test]
    fn edge_labels_stored() {
        let g = LabeledGraph::from_parts(&[Label(0), Label(1)], [(0u32, 1u32, Label(7))]).unwrap();
        assert_eq!(g.edge_label(VertexId(0), VertexId(1)), Some(Label(7)));
        assert_eq!(g.edge_label(VertexId(1), VertexId(0)), Some(Label(7)));
        assert_eq!(g.edge_label(VertexId(0), VertexId(0)), None);
    }

    #[test]
    fn vertices_with_label() {
        let g = tri();
        assert_eq!(g.vertices_with_label(Label(1)), vec![VertexId(1)]);
        assert!(g.vertices_with_label(Label(9)).is_empty());
    }

    #[test]
    fn induced_subgraph_keeps_internal_edges() {
        let g = tri();
        let (sub, map) = g.induced_subgraph(&[VertexId(0), VertexId(2)]);
        assert_eq!(sub.vertex_count(), 2);
        assert_eq!(sub.edge_count(), 1);
        assert_eq!(map, vec![VertexId(0), VertexId(2)]);
        assert_eq!(sub.label(VertexId(1)), Label(2));
    }

    #[test]
    fn edge_subgraph_builds_path() {
        let g = tri();
        let (sub, verts) = g.edge_subgraph(&[
            Edge::new(VertexId(0), VertexId(1), Label::DEFAULT_EDGE),
            Edge::new(VertexId(1), VertexId(2), Label::DEFAULT_EDGE),
        ]);
        assert_eq!(sub.vertex_count(), 3);
        assert_eq!(sub.edge_count(), 2);
        assert_eq!(verts, vec![VertexId(0), VertexId(1), VertexId(2)]);
    }

    #[test]
    fn signature_is_isomorphism_invariant_for_relabeling() {
        // same triangle with vertices in a different order
        let g1 = tri();
        let g2 =
            LabeledGraph::from_unlabeled_edges(&[Label(2), Label(0), Label(1)], [(0, 1), (1, 2), (0, 2)])
                .unwrap();
        assert_eq!(g1.signature(), g2.signature());
    }

    #[test]
    fn distinct_labels_sorted() {
        let g = LabeledGraph::from_unlabeled_edges(&[Label(5), Label(1), Label(5)], [(0, 1)]).unwrap();
        assert_eq!(g.distinct_vertex_labels(), vec![Label(1), Label(5)]);
    }

    #[test]
    fn display_contains_counts() {
        let mut g = tri();
        g.set_name("triangle");
        let s = g.to_string();
        assert!(s.contains("|V|=3"));
        assert!(s.contains("triangle"));
    }

    #[test]
    fn remove_edge_deletes_both_directions() {
        let mut g = tri();
        assert_eq!(g.remove_edge(VertexId(1), VertexId(0)).unwrap(), Label::DEFAULT_EDGE);
        assert_eq!(g.edge_count(), 2);
        assert!(!g.has_edge(VertexId(0), VertexId(1)));
        assert!(!g.has_edge(VertexId(1), VertexId(0)));
        assert!(g.has_edge(VertexId(0), VertexId(2)));
        // removing again fails
        assert_eq!(
            g.remove_edge(VertexId(0), VertexId(1)).unwrap_err(),
            GraphError::EdgeNotFound { u: 0, v: 1 }
        );
        assert!(matches!(
            g.remove_edge(VertexId(0), VertexId(9)).unwrap_err(),
            GraphError::VertexOutOfBounds { vertex: 9, .. }
        ));
        // an add/remove round trip restores the graph exactly
        let before = tri();
        let mut g = tri();
        g.remove_edge(VertexId(0), VertexId(2)).unwrap();
        g.add_edge(VertexId(0), VertexId(2), Label::DEFAULT_EDGE).unwrap();
        assert_eq!(g, before);
    }

    #[test]
    fn isolate_vertex_strips_incident_edges_only() {
        let mut g = tri();
        assert_eq!(g.isolate_vertex(VertexId(1)).unwrap(), 2);
        assert_eq!(g.vertex_count(), 3, "vertex ids stay dense");
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.degree(VertexId(1)), 0);
        assert!(g.has_edge(VertexId(0), VertexId(2)));
        assert_eq!(g.label(VertexId(1)), Label(1), "the tombstone keeps its label");
        // idempotent on an already-isolated vertex
        assert_eq!(g.isolate_vertex(VertexId(1)).unwrap(), 0);
        assert!(g.isolate_vertex(VertexId(9)).is_err());
    }

    #[test]
    fn edge_other_endpoint() {
        let e = Edge::new(VertexId(3), VertexId(1), Label(0));
        assert_eq!(e.u, VertexId(1));
        assert_eq!(e.v, VertexId(3));
        assert_eq!(e.other(VertexId(1)), Some(VertexId(3)));
        assert_eq!(e.other(VertexId(3)), Some(VertexId(1)));
        assert_eq!(e.other(VertexId(7)), None);
    }

    #[test]
    #[should_panic(expected = "overflows the u32 vertex id")]
    fn vertex_past_u32_panics_instead_of_wrapping() {
        assert_eq!(vertex_id(u32::MAX as usize), u32::MAX);
        vertex_id(u32::MAX as usize + 1);
    }
}
