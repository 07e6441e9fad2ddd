//! The read-only graph abstraction shared by every mining consumer.
//!
//! [`GraphView`] is the trait both graph forms implement:
//!
//! * [`LabeledGraph`] — the mutable adjacency-list form used during
//!   construction and for patterns;
//! * [`CsrGraph`](crate::csr::CsrGraph) — the immutable columnar snapshot every mining pass and
//!   the minimal-pattern index sweep.
//!
//! Algorithms that only *read* a graph (subgraph isomorphism, BFS,
//! canonical diameters, occurrence validation) are generic over
//! `GraphView`, so the same monomorphized code runs against data snapshots
//! and pattern graphs alike.

use crate::graph::{Edge, LabeledGraph, VertexId};
use crate::label::Label;

/// A read-only view of an undirected, vertex- and edge-labeled simple graph.
///
/// Implementations must report neighbors in ascending neighbor-id order; a
/// snapshot frozen from a graph then sweeps exactly like the graph itself,
/// which the miners' byte-identity guarantees rest on.
pub trait GraphView {
    /// Number of vertices `|V|`.
    fn vertex_count(&self) -> usize;

    /// Number of edges `|E|`.
    fn edge_count(&self) -> usize;

    /// Label of vertex `v`.
    ///
    /// # Panics
    /// May panic when `v` is out of bounds.
    fn label(&self, v: VertexId) -> Label;

    /// Degree of vertex `v`.
    fn degree(&self, v: VertexId) -> usize;

    /// Iterates over `(neighbor, edge label)` pairs of `v` in ascending
    /// neighbor-id order.
    fn neighbors(&self, v: VertexId) -> Neighbors<'_>;

    /// True when the edge `(u, v)` exists (out-of-bounds endpoints yield
    /// `false`).
    fn has_edge(&self, u: VertexId, v: VertexId) -> bool;

    /// Label of edge `(u, v)`, or `None` when absent.
    fn edge_label(&self, u: VertexId, v: VertexId) -> Option<Label>;

    /// Iterates over all vertex ids `0..|V|`.
    fn vertices(&self) -> Vertices {
        Vertices { next: 0, end: self.vertex_count() as u32 }
    }

    /// Iterates over all edges, each reported once with `u < v`, in the scan
    /// order `(u ascending, v ascending)` shared by both graph forms.
    fn edges(&self) -> EdgesIter<'_, Self>
    where
        Self: Sized,
    {
        EdgesIter { graph: self, vertex: 0, inner: None }
    }
}

/// Iterator over `(neighbor, edge label)` pairs — the concrete type behind
/// [`GraphView::neighbors`], covering both storage layouts.
#[derive(Debug, Clone)]
pub enum Neighbors<'a> {
    /// Adjacency-list layout: one `(neighbor, label)` pair per entry.
    Adjacency(std::slice::Iter<'a, (VertexId, Label)>),
    /// CSR layout: parallel neighbor and edge-label columns.
    Columns {
        /// Neighbor column slice.
        ids: &'a [VertexId],
        /// Edge-label column slice, same length as `ids`.
        labels: &'a [Label],
        /// Cursor into both columns.
        at: usize,
    },
}

impl Iterator for Neighbors<'_> {
    type Item = (VertexId, Label);

    #[inline]
    fn next(&mut self) -> Option<(VertexId, Label)> {
        match self {
            Neighbors::Adjacency(it) => it.next().copied(),
            Neighbors::Columns { ids, labels, at } => {
                let i = *at;
                if i < ids.len() {
                    *at = i + 1;
                    Some((ids[i], labels[i]))
                } else {
                    None
                }
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = match self {
            Neighbors::Adjacency(it) => it.len(),
            Neighbors::Columns { ids, at, .. } => ids.len() - at,
        };
        (n, Some(n))
    }
}

impl ExactSizeIterator for Neighbors<'_> {}

/// Iterator over all vertex ids of a view.
#[derive(Debug, Clone)]
pub struct Vertices {
    next: u32,
    end: u32,
}

impl Iterator for Vertices {
    type Item = VertexId;

    #[inline]
    fn next(&mut self) -> Option<VertexId> {
        if self.next < self.end {
            let v = VertexId(self.next);
            self.next += 1;
            Some(v)
        } else {
            None
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = (self.end - self.next) as usize;
        (n, Some(n))
    }
}

impl ExactSizeIterator for Vertices {}

/// Iterator over all edges of a view (each once, `u < v`), in the shared
/// scan order.
#[derive(Debug)]
pub struct EdgesIter<'a, G: GraphView> {
    graph: &'a G,
    vertex: u32,
    inner: Option<Neighbors<'a>>,
}

impl<G: GraphView> Iterator for EdgesIter<'_, G> {
    type Item = Edge;

    fn next(&mut self) -> Option<Edge> {
        loop {
            if let Some(inner) = &mut self.inner {
                let u = VertexId(self.vertex);
                for (v, label) in inner.by_ref() {
                    if u < v {
                        return Some(Edge { u, v, label });
                    }
                }
                self.inner = None;
                self.vertex += 1;
            }
            if (self.vertex as usize) >= self.graph.vertex_count() {
                return None;
            }
            self.inner = Some(self.graph.neighbors(VertexId(self.vertex)));
        }
    }
}

impl<G: GraphView + ?Sized> GraphView for &G {
    #[inline]
    fn vertex_count(&self) -> usize {
        (**self).vertex_count()
    }

    #[inline]
    fn edge_count(&self) -> usize {
        (**self).edge_count()
    }

    #[inline]
    fn label(&self, v: VertexId) -> Label {
        (**self).label(v)
    }

    #[inline]
    fn degree(&self, v: VertexId) -> usize {
        (**self).degree(v)
    }

    #[inline]
    fn neighbors(&self, v: VertexId) -> Neighbors<'_> {
        (**self).neighbors(v)
    }

    #[inline]
    fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        (**self).has_edge(u, v)
    }

    #[inline]
    fn edge_label(&self, u: VertexId, v: VertexId) -> Option<Label> {
        (**self).edge_label(u, v)
    }
}

impl GraphView for LabeledGraph {
    #[inline]
    fn vertex_count(&self) -> usize {
        LabeledGraph::vertex_count(self)
    }

    #[inline]
    fn edge_count(&self) -> usize {
        LabeledGraph::edge_count(self)
    }

    #[inline]
    fn label(&self, v: VertexId) -> Label {
        LabeledGraph::label(self, v)
    }

    #[inline]
    fn degree(&self, v: VertexId) -> usize {
        LabeledGraph::degree(self, v)
    }

    #[inline]
    fn neighbors(&self, v: VertexId) -> Neighbors<'_> {
        Neighbors::Adjacency(self.neighbor_slice(v).iter())
    }

    #[inline]
    fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        LabeledGraph::has_edge(self, u, v)
    }

    #[inline]
    fn edge_label(&self, u: VertexId, v: VertexId) -> Option<Label> {
        LabeledGraph::edge_label(self, u, v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph() -> LabeledGraph {
        LabeledGraph::from_parts(
            &[Label(0), Label(1), Label(0), Label(2)],
            [(0u32, 1u32, Label(5)), (1, 2, Label(6)), (0, 2, Label(5)), (2, 3, Label(7))],
        )
        .unwrap()
    }

    #[test]
    fn trait_edges_match_inherent_edges() {
        let g = graph();
        let via_trait: Vec<Edge> = GraphView::edges(&g).collect();
        let via_inherent: Vec<Edge> = g.edges().collect();
        assert_eq!(via_trait, via_inherent);
    }

    #[test]
    fn vertices_iterator_is_exact() {
        let g = graph();
        let vs: Vec<VertexId> = GraphView::vertices(&g).collect();
        assert_eq!(vs.len(), 4);
        assert_eq!(GraphView::vertices(&g).len(), 4);
        assert_eq!(vs[3], VertexId(3));
    }

    #[test]
    fn neighbors_size_hint() {
        let g = graph();
        let it = GraphView::neighbors(&g, VertexId(2));
        assert_eq!(it.len(), 3);
    }
}
