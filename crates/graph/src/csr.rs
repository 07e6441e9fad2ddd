//! Immutable columnar graph snapshots (CSR) with label-partitioned access
//! structures.
//!
//! [`CsrGraph`] freezes a [`LabeledGraph`] into a compressed-sparse-row
//! layout — one offsets column plus flat neighbor / edge-label columns — and
//! precomputes two label-partitioned indexes on top of it:
//!
//! * a **vertex partition by label**: all vertices carrying a given label as
//!   one contiguous slice ([`CsrGraph::vertices_with_label`]);
//! * an **edge-triple index**: the edges of each canonical
//!   `(min endpoint label, edge label, max endpoint label)` triple as one
//!   contiguous bucket, walked in ascending key order by
//!   [`CsrGraph::edge_triples`].  Stage-I seed enumeration walks these
//!   buckets instead of scanning every edge.
//!
//! The snapshot is built once per transaction (see [`CsrSnapshot`]) and every
//! downstream pass — seed enumeration, occurrence joins, index serving — is a
//! flat columnar sweep over it.  Both structures preserve the adjacency
//! list's deterministic orders: neighbors ascend by id, and each triple
//! bucket lists its edges in the global `(u asc, v asc)` scan order, so
//! mining output is byte-identical to the adjacency-list path.
//!
//! Construction itself is a **one-pass counting-sort build**
//! ([`SnapshotBuilder`]): the label partition and the triple index are laid
//! out via histogram → prefix-sum → stable scatter over the vertex/edge scan
//! order instead of sorting materialized `(key, payload)` pairs, all columns
//! are written into reusable arenas (a warm re-freeze performs **zero** heap
//! allocations), and [`CsrSnapshot::from_database_with_threads`] shards the
//! per-transaction builds across pool workers with an index-addressed stitch
//! that is byte-identical to the serial build by construction.  The original
//! sort-based build is retained as [`CsrGraph::from_graph_reference`], the
//! parity oracle.

use crate::error::GraphResult;
use crate::graph::{LabeledGraph, VertexId};
use crate::label::Label;
use crate::transaction::GraphDatabase;
use crate::view::{GraphView, Neighbors};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// The canonical `(min endpoint label, edge label, max endpoint label)` key
/// of an undirected labeled edge.
pub type EdgeTriple = (Label, Label, Label);

/// An immutable CSR snapshot of a [`LabeledGraph`].
///
/// Construction preserves vertex ids, so a `CsrGraph` answers exactly the
/// same queries as the graph it was built from — verified structurally by
/// [`CsrGraph::parity_with`] and property-tested against the adjacency form.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CsrGraph {
    /// `offsets[v]..offsets[v + 1]` indexes `neighbors` / `edge_labels`.
    offsets: Vec<u32>,
    /// Neighbor column, ascending within each vertex's slice.
    neighbors: Vec<VertexId>,
    /// Edge-label column, parallel to `neighbors`.
    edge_labels: Vec<Label>,
    /// Vertex-label column, indexed by vertex id.
    vertex_labels: Vec<Label>,
    /// Distinct vertex labels, ascending.
    partition_labels: Vec<Label>,
    /// `partition_offsets[i]..partition_offsets[i + 1]` indexes
    /// `partition_vertices` for `partition_labels[i]`.
    partition_offsets: Vec<u32>,
    /// Vertices grouped by label, ascending ids within each group.
    partition_vertices: Vec<VertexId>,
    /// Distinct canonical edge triples, ascending.
    triple_keys: Vec<EdgeTriple>,
    /// `triple_offsets[i]..triple_offsets[i + 1]` indexes `triple_endpoints`
    /// for `triple_keys[i]`.
    triple_offsets: Vec<u32>,
    /// Edge endpoints grouped by triple, oriented label-ascending (ties by
    /// vertex id); bucket-internal order is the global edge scan order.
    triple_endpoints: Vec<(VertexId, VertexId)>,
    /// Number of undirected edges.
    edge_count: usize,
}

impl CsrGraph {
    /// Builds the snapshot of `g`, preserving vertex ids and neighbor order.
    ///
    /// This is the one-pass counting-sort build; callers freezing many
    /// graphs should hold a [`SnapshotBuilder`] and reuse its scratch.
    pub fn from_graph(g: &LabeledGraph) -> Self {
        SnapshotBuilder::new().build(g)
    }

    /// An empty snapshot shell for [`SnapshotBuilder::build_into`] to fill.
    fn empty() -> Self {
        CsrGraph {
            offsets: Vec::new(),
            neighbors: Vec::new(),
            edge_labels: Vec::new(),
            vertex_labels: Vec::new(),
            partition_labels: Vec::new(),
            partition_offsets: Vec::new(),
            partition_vertices: Vec::new(),
            triple_keys: Vec::new(),
            triple_offsets: Vec::new(),
            triple_endpoints: Vec::new(),
            edge_count: 0,
        }
    }

    /// The retained sort-based build: materializes `(label, id)` and
    /// `(triple, endpoints)` pairs and groups them with stable sorts.
    ///
    /// Byte-identical to [`CsrGraph::from_graph`] (property-tested); kept as
    /// the parity oracle.
    pub fn from_graph_reference(g: &LabeledGraph) -> Self {
        let n = g.vertex_count();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut neighbors = Vec::with_capacity(2 * g.edge_count());
        let mut edge_labels = Vec::with_capacity(2 * g.edge_count());
        offsets.push(0u32);
        for v in g.vertices() {
            for (w, el) in g.neighbors(v) {
                neighbors.push(w);
                edge_labels.push(el);
            }
            offsets.push(neighbors.len() as u32);
        }

        // vertex partition: stable grouping by (label, id)
        let mut by_label: Vec<(Label, VertexId)> = g.vertices().map(|v| (g.label(v), v)).collect();
        by_label.sort();
        let mut partition_labels = Vec::new();
        let mut partition_offsets = vec![0u32];
        let mut partition_vertices = Vec::with_capacity(n);
        for (l, v) in by_label {
            if partition_labels.last() != Some(&l) {
                if !partition_labels.is_empty() {
                    partition_offsets.push(partition_vertices.len() as u32);
                }
                partition_labels.push(l);
            }
            partition_vertices.push(v);
        }
        partition_offsets.push(partition_vertices.len() as u32);
        if partition_labels.is_empty() {
            partition_offsets = vec![0];
        }

        // edge-triple index: group the global edge scan by canonical triple
        // with a stable sort, so each bucket preserves the scan order
        let mut keyed: Vec<(EdgeTriple, (VertexId, VertexId))> = g
            .edges()
            .map(|e| {
                let (lu, lv) = (g.label(e.u), g.label(e.v));
                if lu <= lv {
                    ((lu, e.label, lv), (e.u, e.v))
                } else {
                    ((lv, e.label, lu), (e.v, e.u))
                }
            })
            .collect();
        keyed.sort_by_key(|&(key, _)| key);
        let mut triple_keys = Vec::new();
        let mut triple_offsets = vec![0u32];
        let mut triple_endpoints = Vec::with_capacity(keyed.len());
        for (key, endpoints) in keyed {
            if triple_keys.last() != Some(&key) {
                if !triple_keys.is_empty() {
                    triple_offsets.push(triple_endpoints.len() as u32);
                }
                triple_keys.push(key);
            }
            triple_endpoints.push(endpoints);
        }
        triple_offsets.push(triple_endpoints.len() as u32);
        if triple_keys.is_empty() {
            triple_offsets = vec![0];
        }

        CsrGraph {
            offsets,
            neighbors,
            edge_labels,
            vertex_labels: g.labels().to_vec(),
            partition_labels,
            partition_offsets,
            partition_vertices,
            triple_keys,
            triple_offsets,
            triple_endpoints,
            edge_count: g.edge_count(),
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn vertex_count(&self) -> usize {
        self.vertex_labels.len()
    }

    /// Number of undirected edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Label of vertex `v`.
    #[inline]
    pub fn label(&self, v: VertexId) -> Label {
        self.vertex_labels[v.index()]
    }

    /// The vertex-label column, indexed by vertex id.
    pub fn labels(&self) -> &[Label] {
        &self.vertex_labels
    }

    /// Degree of vertex `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        let i = v.index();
        (self.offsets[i + 1] - self.offsets[i]) as usize
    }

    #[inline]
    fn neighbor_range(&self, v: VertexId) -> std::ops::Range<usize> {
        let i = v.index();
        self.offsets[i] as usize..self.offsets[i + 1] as usize
    }

    /// The sorted neighbor-id column slice of `v`.
    #[inline]
    pub fn neighbor_ids(&self, v: VertexId) -> &[VertexId] {
        &self.neighbors[self.neighbor_range(v)]
    }

    /// `(neighbor, edge label)` iterator over `v`'s slice, tied to the full
    /// borrow lifetime (the [`GraphView`] method can only tie it to `&self`).
    #[inline]
    pub fn neighbors_at(&self, v: VertexId) -> Neighbors<'_> {
        let r = self.neighbor_range(v);
        Neighbors::Columns { ids: &self.neighbors[r.clone()], labels: &self.edge_labels[r], at: 0 }
    }

    /// True when the edge `(u, v)` exists.
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.edge_slot(u, v).is_some()
    }

    /// Label of edge `(u, v)`, or `None` when absent.
    pub fn edge_label(&self, u: VertexId, v: VertexId) -> Option<Label> {
        self.edge_slot(u, v).map(|slot| self.edge_labels[slot])
    }

    /// Binary search for `v` in `u`'s sorted neighbor slice, returning the
    /// flat column index.
    #[inline]
    fn edge_slot(&self, u: VertexId, v: VertexId) -> Option<usize> {
        if u.index() >= self.vertex_count() || v.index() >= self.vertex_count() {
            return None;
        }
        let r = self.neighbor_range(u);
        self.neighbors[r.clone()].binary_search(&v).ok().map(|i| r.start + i)
    }

    /// All vertices carrying label `l`, as a contiguous ascending slice of
    /// the label partition (empty when the label is absent).
    pub fn vertices_with_label(&self, l: Label) -> &[VertexId] {
        match self.partition_labels.binary_search(&l) {
            Ok(i) => {
                &self.partition_vertices
                    [self.partition_offsets[i] as usize..self.partition_offsets[i + 1] as usize]
            }
            Err(_) => &[],
        }
    }

    /// Distinct vertex labels present, ascending.
    pub fn distinct_vertex_labels(&self) -> &[Label] {
        &self.partition_labels
    }

    /// Distinct canonical edge triples present, ascending.
    pub fn edge_triple_keys(&self) -> &[EdgeTriple] {
        &self.triple_keys
    }

    /// Iterates over `(triple key, edge bucket)` pairs in ascending key
    /// order — the Stage-I seed walk.
    ///
    /// Each bucket entry is an edge's endpoints oriented so the first
    /// carries the smaller label (ties broken by vertex id, i.e. `u < v`),
    /// and each bucket preserves the global `(u asc, v asc)` edge scan order.
    pub fn edge_triples(&self) -> impl Iterator<Item = (EdgeTriple, &[(VertexId, VertexId)])> + '_ {
        self.triple_keys.iter().enumerate().map(move |(i, &key)| {
            let bucket =
                &self.triple_endpoints[self.triple_offsets[i] as usize..self.triple_offsets[i + 1] as usize];
            (key, bucket)
        })
    }

    /// Heap bytes held by this snapshot's column arenas (allocated
    /// capacities, not just occupied lengths) — the ingest benchmark's
    /// bytes-in-arenas counter.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.offsets.capacity() * size_of::<u32>()
            + self.neighbors.capacity() * size_of::<VertexId>()
            + self.edge_labels.capacity() * size_of::<Label>()
            + self.vertex_labels.capacity() * size_of::<Label>()
            + self.partition_labels.capacity() * size_of::<Label>()
            + self.partition_offsets.capacity() * size_of::<u32>()
            + self.partition_vertices.capacity() * size_of::<VertexId>()
            + self.triple_keys.capacity() * size_of::<EdgeTriple>()
            + self.triple_offsets.capacity() * size_of::<u32>()
            + self.triple_endpoints.capacity() * size_of::<(VertexId, VertexId)>()
    }

    /// Structural parity check against an adjacency-list graph: same labels,
    /// same neighbor slices, same edge count.  Test/verification helper.
    pub fn parity_with(&self, g: &LabeledGraph) -> bool {
        if self.vertex_count() != g.vertex_count() || self.edge_count() != g.edge_count() {
            return false;
        }
        if self.labels() != g.labels() {
            return false;
        }
        g.vertices().all(|v| self.neighbors_at(v).eq(g.neighbors(v)))
    }
}

impl GraphView for CsrGraph {
    #[inline]
    fn vertex_count(&self) -> usize {
        CsrGraph::vertex_count(self)
    }

    #[inline]
    fn edge_count(&self) -> usize {
        CsrGraph::edge_count(self)
    }

    #[inline]
    fn label(&self, v: VertexId) -> Label {
        CsrGraph::label(self, v)
    }

    #[inline]
    fn degree(&self, v: VertexId) -> usize {
        CsrGraph::degree(self, v)
    }

    #[inline]
    fn neighbors(&self, v: VertexId) -> Neighbors<'_> {
        self.neighbors_at(v)
    }

    #[inline]
    fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        CsrGraph::has_edge(self, u, v)
    }

    #[inline]
    fn edge_label(&self, u: VertexId, v: VertexId) -> Option<Label> {
        CsrGraph::edge_label(self, u, v)
    }
}

/// Reusable scratch for the one-pass counting-sort CSR build.
///
/// The build never sorts materialized `(key, payload)` pairs: the label
/// partition and the triple index are laid out by collecting the distinct
/// keys into a small sorted scratch (one `Vec::insert` per *distinct* key,
/// one binary search per element), prefix-summing the per-key counts into
/// the offsets column, and scattering elements through per-key cursors in
/// their original scan order — a stable counting sort, so every column is
/// byte-identical to the sort-based reference build.
///
/// All intermediate state lives in this builder and all output columns are
/// written with `clear` + `extend`/indexed stores, so freezing many
/// transactions through one builder (or re-freezing into an existing
/// [`CsrGraph`] via [`SnapshotBuilder::build_into`]) reaches a steady state
/// with **zero** heap allocations per graph — pinned by the counting
/// allocator in `tests/alloc_hot_loops.rs`.
#[derive(Debug, Clone, Default)]
pub struct SnapshotBuilder {
    /// Distinct vertex labels of the current graph, ascending.
    labels: Vec<Label>,
    /// Per-label element counts, then (after the prefix sum) scatter cursors.
    label_cursors: Vec<u32>,
    /// Distinct canonical edge triples of the current graph, ascending.
    triples: Vec<EdgeTriple>,
    /// Per-triple element counts, then scatter cursors.
    triple_cursors: Vec<u32>,
}

impl SnapshotBuilder {
    /// A builder with empty scratch.
    pub fn new() -> Self {
        SnapshotBuilder::default()
    }

    /// Builds the snapshot of `g` into a fresh [`CsrGraph`].
    pub fn build(&mut self, g: &LabeledGraph) -> CsrGraph {
        let mut out = CsrGraph::empty();
        self.build_into(g, &mut out);
        out
    }

    /// Rebuilds `out` in place as the snapshot of `g`, reusing both the
    /// builder's counting scratch and `out`'s column arenas.
    pub fn build_into(&mut self, g: &LabeledGraph, out: &mut CsrGraph) {
        let n = g.vertex_count();

        // adjacency columns: already one pass in (vertex, neighbor) order
        out.offsets.clear();
        out.neighbors.clear();
        out.edge_labels.clear();
        out.offsets.reserve(n + 1);
        out.neighbors.reserve(2 * g.edge_count());
        out.edge_labels.reserve(2 * g.edge_count());
        out.offsets.push(0u32);
        for v in g.vertices() {
            for (w, el) in g.neighbors(v) {
                out.neighbors.push(w);
                out.edge_labels.push(el);
            }
            out.offsets.push(out.neighbors.len() as u32);
        }
        out.vertex_labels.clear();
        out.vertex_labels.extend_from_slice(g.labels());
        out.edge_count = g.edge_count();

        // vertex partition: count per distinct label, prefix-sum, then
        // scatter vertices in ascending-id order — a stable counting sort
        // equal to grouping a stable sort by (label, id)
        self.labels.clear();
        self.label_cursors.clear();
        for &l in g.labels() {
            match self.labels.binary_search(&l) {
                Ok(i) => self.label_cursors[i] += 1,
                Err(i) => {
                    self.labels.insert(i, l);
                    self.label_cursors.insert(i, 1);
                }
            }
        }
        out.partition_labels.clear();
        out.partition_labels.extend_from_slice(&self.labels);
        out.partition_offsets.clear();
        out.partition_offsets.reserve(self.labels.len() + 1);
        out.partition_offsets.push(0u32);
        let mut total = 0u32;
        for c in self.label_cursors.iter_mut() {
            let count = *c;
            *c = total; // cursor = the group's first slot
            total += count;
            out.partition_offsets.push(total);
        }
        out.partition_vertices.clear();
        out.partition_vertices.resize(n, VertexId(0));
        for v in g.vertices() {
            let i = self
                .labels
                .binary_search(&g.label(v))
                .expect("every vertex label was collected in the counting pass");
            out.partition_vertices[self.label_cursors[i] as usize] = v;
            self.label_cursors[i] += 1;
        }

        // triple index: same counting sort over the global edge scan, with
        // endpoints oriented label-ascending (ties by vertex id)
        self.triples.clear();
        self.triple_cursors.clear();
        for e in g.edges() {
            let (lu, lv) = (g.label(e.u), g.label(e.v));
            let key = if lu <= lv { (lu, e.label, lv) } else { (lv, e.label, lu) };
            match self.triples.binary_search(&key) {
                Ok(i) => self.triple_cursors[i] += 1,
                Err(i) => {
                    self.triples.insert(i, key);
                    self.triple_cursors.insert(i, 1);
                }
            }
        }
        out.triple_keys.clear();
        out.triple_keys.extend_from_slice(&self.triples);
        out.triple_offsets.clear();
        out.triple_offsets.reserve(self.triples.len() + 1);
        out.triple_offsets.push(0u32);
        let mut total = 0u32;
        for c in self.triple_cursors.iter_mut() {
            let count = *c;
            *c = total;
            total += count;
            out.triple_offsets.push(total);
        }
        out.triple_endpoints.clear();
        out.triple_endpoints.resize(g.edge_count(), (VertexId(0), VertexId(0)));
        for e in g.edges() {
            let (lu, lv) = (g.label(e.u), g.label(e.v));
            let (key, endpoints) =
                if lu <= lv { ((lu, e.label, lv), (e.u, e.v)) } else { ((lv, e.label, lu), (e.v, e.u)) };
            let i = self
                .triples
                .binary_search(&key)
                .expect("every edge triple was collected in the counting pass");
            out.triple_endpoints[self.triple_cursors[i] as usize] = endpoints;
            self.triple_cursors[i] += 1;
        }
    }
}

/// A per-transaction collection of CSR snapshots: the frozen form of a data
/// graph or graph database, built once per mining transaction and then
/// served read-only to any number of concurrent requests.
///
/// The snapshot records which *setting* it was built from (single graph vs
/// graph-transaction database), so representation-independent answers (e.g.
/// "is this the transaction setting?") survive the freeze — a one-transaction
/// database frozen into a snapshot still reports as transactional.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CsrSnapshot {
    graphs: Vec<CsrGraph>,
    transactional: bool,
}

impl CsrSnapshot {
    /// Snapshot of a single data graph (one transaction).
    pub fn from_graph(g: &LabeledGraph) -> Self {
        CsrSnapshot { graphs: vec![CsrGraph::from_graph(g)], transactional: false }
    }

    /// Snapshot of every transaction of a database, in transaction order.
    pub fn from_database(db: &GraphDatabase) -> Self {
        Self::from_database_with_threads(db, 1)
    }

    /// Snapshot of every transaction of a database, built per-shard on
    /// `threads` pool workers.
    ///
    /// Transactions are chunked with [`skinny_pool::chunk_ranges`], each
    /// worker freezes its shard through its own reused [`SnapshotBuilder`]
    /// arena, and the shards are stitched back in chunk (= transaction)
    /// order.  Every transaction's snapshot depends only on that
    /// transaction's graph, so the result is **byte-identical** to the
    /// serial build for every thread count (property-tested in
    /// `crates/graph/tests/csr_properties.rs`).
    pub fn from_database_with_threads(db: &GraphDatabase, threads: usize) -> Self {
        let n = db.len();
        let graphs = if threads <= 1 || n < 2 {
            let mut builder = SnapshotBuilder::new();
            db.iter().map(|(_, g)| builder.build(g)).collect()
        } else {
            let ranges = skinny_pool::chunk_ranges(n, threads, 4);
            let chunks: Vec<Vec<CsrGraph>> =
                skinny_pool::run_with(threads, ranges.len(), SnapshotBuilder::new, |builder, c| {
                    ranges[c].clone().map(|t| builder.build(&db[t])).collect()
                });
            let mut graphs = Vec::with_capacity(n);
            for chunk in chunks {
                graphs.extend(chunk);
            }
            graphs
        };
        CsrSnapshot { graphs, transactional: true }
    }

    /// True when the snapshot was built from a graph-transaction database
    /// (regardless of how many transactions it holds).
    pub fn is_transactional(&self) -> bool {
        self.transactional
    }

    /// Number of transactions.
    pub fn len(&self) -> usize {
        self.graphs.len()
    }

    /// True when the snapshot holds no transaction.
    pub fn is_empty(&self) -> bool {
        self.graphs.is_empty()
    }

    /// The snapshot of transaction `t`.
    ///
    /// # Panics
    /// Panics when `t` is out of range.
    #[inline]
    pub fn graph(&self, t: usize) -> &CsrGraph {
        &self.graphs[t]
    }

    /// Iterates over `(transaction index, snapshot)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &CsrGraph)> {
        self.graphs.iter().enumerate()
    }

    /// Total heap bytes held by the per-transaction column arenas
    /// ([`CsrGraph::heap_bytes`] summed over transactions).
    pub fn heap_bytes(&self) -> usize {
        self.graphs.iter().map(CsrGraph::heap_bytes).sum()
    }

    /// Re-freezes transaction `t` in place from `g` through `builder`'s warm
    /// arena path ([`SnapshotBuilder::build_into`]): the existing
    /// [`CsrGraph`]'s columns are reused, so a same-shaped refresh performs
    /// zero heap allocations.  This is the incremental update path — only
    /// dirty transactions are re-frozen, everything else keeps its columns
    /// untouched.
    ///
    /// # Panics
    /// Panics when `t` is out of range.
    pub fn refreeze_transaction(&mut self, t: usize, g: &LabeledGraph, builder: &mut SnapshotBuilder) {
        builder.build_into(g, &mut self.graphs[t]);
    }

    /// Appends the snapshot of a newly added transaction, returning its
    /// index.  Only meaningful for transactional snapshots (appending to a
    /// single-graph snapshot would change the setting, so this panics there).
    pub fn push_transaction(&mut self, g: &LabeledGraph, builder: &mut SnapshotBuilder) -> usize {
        assert!(self.transactional, "cannot append a transaction to a single-graph snapshot");
        self.graphs.push(builder.build(g));
        self.graphs.len() - 1
    }

    /// Brings a transactional snapshot of `db` back in line after the
    /// transactions in `dirty` (drained by [`GraphDatabase::take_dirty`])
    /// changed: each one already in the snapshot is re-frozen in place
    /// ([`CsrSnapshot::refreeze_transaction`]), each new one is appended.
    /// `dirty` ascends, so appended transactions arrive in index order.
    /// Errors when a dirty index lies outside `db`.
    pub fn refreeze_dirty(
        &mut self,
        db: &GraphDatabase,
        dirty: &BTreeSet<usize>,
        builder: &mut SnapshotBuilder,
    ) -> GraphResult<()> {
        for &t in dirty {
            let g = db.get(t)?;
            if t < self.len() {
                self.refreeze_transaction(t, g, builder);
            } else {
                let appended = self.push_transaction(g, builder);
                debug_assert_eq!(appended, t, "appended transactions arrive in index order");
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l(x: u32) -> Label {
        Label(x)
    }

    fn graph() -> LabeledGraph {
        // labels: 0(a) 1(b) 2(a) 3(c); edges with two labels
        LabeledGraph::from_parts(
            &[l(0), l(1), l(0), l(2)],
            [(0u32, 1u32, l(5)), (1, 2, l(5)), (0, 2, l(6)), (2, 3, l(5))],
        )
        .unwrap()
    }

    #[test]
    fn snapshot_preserves_structure() {
        let g = graph();
        let c = CsrGraph::from_graph(&g);
        assert!(c.parity_with(&g));
        assert_eq!(c.vertex_count(), 4);
        assert_eq!(c.edge_count(), 4);
        assert_eq!(c.degree(VertexId(2)), 3);
        assert_eq!(c.label(VertexId(3)), l(2));
        assert!(c.has_edge(VertexId(0), VertexId(2)));
        assert!(!c.has_edge(VertexId(0), VertexId(3)));
        assert!(!c.has_edge(VertexId(0), VertexId(9)));
        assert_eq!(c.edge_label(VertexId(0), VertexId(2)), Some(l(6)));
        assert_eq!(c.edge_label(VertexId(1), VertexId(3)), None);
    }

    #[test]
    fn label_partition_groups_vertices() {
        let c = CsrGraph::from_graph(&graph());
        assert_eq!(c.vertices_with_label(l(0)), &[VertexId(0), VertexId(2)]);
        assert_eq!(c.vertices_with_label(l(1)), &[VertexId(1)]);
        assert_eq!(c.vertices_with_label(l(9)), &[] as &[VertexId]);
        assert_eq!(c.distinct_vertex_labels(), &[l(0), l(1), l(2)]);
    }

    #[test]
    fn triple_index_buckets_edges() {
        let g = graph();
        let c = CsrGraph::from_graph(&g);
        // triples: (a,5,b) x2 [(0,1),(2,1)], (a,6,a) x1 [(0,2)], (a,5,c) x1 [(2,3)]
        assert_eq!(c.edge_triple_keys().len(), 3);
        // buckets partition the edge set
        let total: usize = c.edge_triples().map(|(_, bucket)| bucket.len()).sum();
        assert_eq!(total, c.edge_count());
    }

    #[test]
    fn triple_bucket_orientation_is_label_ascending() {
        let g = graph();
        let c = CsrGraph::from_graph(&g);
        for (key, bucket) in c.edge_triples() {
            for &(u, v) in bucket {
                assert_eq!((c.label(u), c.label(v)), (key.0, key.2));
                if key.0 == key.2 {
                    assert!(u < v);
                }
            }
        }
    }

    #[test]
    fn empty_graph_snapshot() {
        let g = LabeledGraph::new();
        let c = CsrGraph::from_graph(&g);
        assert_eq!(c.vertex_count(), 0);
        assert_eq!(c.edge_count(), 0);
        assert!(c.distinct_vertex_labels().is_empty());
        assert!(c.edge_triple_keys().is_empty());
        assert!(c.parity_with(&g));
    }

    #[test]
    fn counting_sort_build_matches_reference() {
        let g = graph();
        assert_eq!(CsrGraph::from_graph(&g), CsrGraph::from_graph_reference(&g));
        let empty = LabeledGraph::new();
        assert_eq!(CsrGraph::from_graph(&empty), CsrGraph::from_graph_reference(&empty));
        // unlabeled-edge single-label graph: one partition group, one triple
        let path = LabeledGraph::from_unlabeled_edges(&[l(7), l(7), l(7)], [(0u32, 1u32), (1, 2)]).unwrap();
        assert_eq!(CsrGraph::from_graph(&path), CsrGraph::from_graph_reference(&path));
    }

    #[test]
    fn builder_reuse_and_in_place_rebuild() {
        let g = graph();
        let h = LabeledGraph::from_unlabeled_edges(&[l(3), l(4)], [(0u32, 1u32)]).unwrap();
        let mut builder = SnapshotBuilder::new();
        // the scratch carries no state between graphs
        assert_eq!(builder.build(&g), CsrGraph::from_graph_reference(&g));
        assert_eq!(builder.build(&h), CsrGraph::from_graph_reference(&h));
        // in-place rebuild overwrites every column
        let mut out = builder.build(&h);
        builder.build_into(&g, &mut out);
        assert_eq!(out, CsrGraph::from_graph_reference(&g));
        assert!(out.heap_bytes() > 0);
    }

    #[test]
    fn parallel_database_build_matches_serial() {
        let g = graph();
        let h = LabeledGraph::from_unlabeled_edges(&[l(3), l(4), l(3)], [(0u32, 1u32), (1, 2)]).unwrap();
        let graphs: Vec<LabeledGraph> =
            (0..13).map(|i| if i % 3 == 0 { g.clone() } else { h.clone() }).collect();
        let db = GraphDatabase::from_graphs(graphs);
        let serial = CsrSnapshot::from_database(&db);
        for threads in [1, 2, 8] {
            assert_eq!(CsrSnapshot::from_database_with_threads(&db, threads), serial);
        }
        assert!(serial.heap_bytes() > 0);
    }

    #[test]
    fn refreeze_matches_full_rebuild() {
        let g = graph();
        let h = LabeledGraph::from_unlabeled_edges(&[l(3), l(4), l(3)], [(0u32, 1u32), (1, 2)]).unwrap();
        let mut db = GraphDatabase::from_graphs(vec![g.clone(), h.clone(), g.clone()]);
        let mut snapshot = CsrSnapshot::from_database(&db);
        let mut builder = SnapshotBuilder::new();

        // mutate transaction 1 and re-freeze only it
        db.add_edge_in(1, VertexId(0), VertexId(2), l(9)).unwrap();
        snapshot.refreeze_transaction(1, &db[1], &mut builder);
        assert_eq!(snapshot, CsrSnapshot::from_database(&db), "dirty refreeze must equal a full rebuild");

        // append a transaction
        let t = db.add_transaction(h.clone());
        let idx = snapshot.push_transaction(&db[t], &mut builder);
        assert_eq!(idx, t);
        assert_eq!(snapshot, CsrSnapshot::from_database(&db));

        // tombstone a transaction to empty and re-freeze it
        db.remove_transaction(0).unwrap();
        snapshot.refreeze_transaction(0, &db[0], &mut builder);
        assert_eq!(snapshot.graph(0).vertex_count(), 0);
        assert_eq!(snapshot, CsrSnapshot::from_database(&db));

        // a whole drained dirty set at once: an in-place edit and an append
        db.clear_dirty();
        db.add_edge_in(2, VertexId(1), VertexId(3), l(9)).unwrap();
        db.add_transaction(g.clone());
        let dirty = db.take_dirty();
        snapshot.refreeze_dirty(&db, &dirty, &mut builder).unwrap();
        assert_eq!(snapshot, CsrSnapshot::from_database(&db));
        let outside = BTreeSet::from([db.len()]);
        assert!(snapshot.refreeze_dirty(&db, &outside, &mut builder).is_err());
    }

    #[test]
    #[should_panic(expected = "single-graph snapshot")]
    fn push_transaction_rejects_single_graph_setting() {
        let g = graph();
        let mut s = CsrSnapshot::from_graph(&g);
        let mut builder = SnapshotBuilder::new();
        s.push_transaction(&g, &mut builder);
    }

    #[test]
    fn snapshot_collection() {
        let g = graph();
        let s = CsrSnapshot::from_graph(&g);
        assert_eq!(s.len(), 1);
        assert!(!s.is_empty());
        assert!(!s.is_transactional());
        assert!(s.graph(0).parity_with(&g));
        let db = GraphDatabase::from_graphs(vec![g.clone(), g.clone()]);
        let s2 = CsrSnapshot::from_database(&db);
        assert_eq!(s2.len(), 2);
        assert!(s2.is_transactional());
        // the setting survives the freeze even for a one-transaction database
        let one = GraphDatabase::from_graphs(vec![g.clone()]);
        assert!(CsrSnapshot::from_database(&one).is_transactional());
        assert_eq!(s2.iter().count(), 2);
        assert!(s2.iter().all(|(_, c)| c.parity_with(&g)));
    }
}
