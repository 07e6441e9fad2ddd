//! Patterns under growth in Stage II, with their canonical diameter, the
//! per-vertex `D_H` / `D_T` distance indices and their embedding lists.

use crate::cycle::CyclePattern;
use crate::ext_index::ExtensionScratch;
use crate::path_pattern::PathPattern;
use serde::{Deserialize, Serialize};
use skinny_graph::{
    CanonId, CanonSet, CsrSnapshot, DistMatrix, Label, LabeledGraph, OccurrenceStore, SupportBatch,
    SupportMeasure, SupportScratch, VertexId, VertexMarks,
};

/// Per-worker scratch for Stage-II growth, reused across every cluster a
/// worker grows: the extension-index build state (epoch-stamped tables over
/// data vertex ids, flat reusable buffers, the rebuilt-in-place
/// [`crate::ext_index::ExtensionTable`]), the row-mark and support-sort
/// buffers of candidate evaluation, the canonical-form dedup funnel and the
/// reused structural-extension target.  Everything resets in O(1), so
/// per-row work in the grow hot loop performs zero heap allocation.
#[derive(Debug, Default)]
pub struct GrowScratch {
    /// Extension enumeration state: the inverted candidate index and every
    /// sweep buffer (shared by the indexed and reference enumerations).
    pub ext: ExtensionScratch,
    /// Membership marks of the current occurrence row's vertices.
    pub row_marks: VertexMarks,
    /// Support-evaluation sort buffers (reference path and worklist
    /// re-evaluation).
    pub support: SupportScratch,
    /// Batched support evaluator of the indexed path: per-parent rank tables
    /// shared by all sibling candidates, invalidated on every table rebuild.
    pub batch: SupportBatch,
    /// Reused gather target: admitted children materialize here and take
    /// the store with them (the batched support path rejects candidates
    /// without gathering at all).
    pub gather: OccurrenceStore,
    /// Per-cluster canonical-form dedup funnel over the worklist patterns
    /// (fingerprint first, memoized min-DFS keys only on collision).
    pub canon: CanonSet,
    /// Second funnel for closure-jump reporting dedup (closed patterns).
    pub canon_reported: CanonSet,
    /// Reused structural-extension target: every candidate's extended graph
    /// and distance indices are built here, and only admitted children copy
    /// them out.
    pub structure: StructScratch,
}

/// Reusable buffers of [`GrownPattern::apply_structure_with`]: the
/// structural-extension target plus the new-vertex distance row.  Rebuilt in
/// place per candidate, so a rejected candidate performs (almost) no heap
/// allocation — where [`GrownPattern::apply_structure`] allocated a fresh
/// graph clone and distance matrix every time.
#[derive(Debug, Default)]
pub struct StructScratch {
    /// The rebuilt-in-place structural extension.
    pub structure: StructuralExtension,
    /// Reused distance row of the new vertex.
    row: Vec<u32>,
}

impl StructScratch {
    /// Creates an empty scratch (buffers grow on first use, then stay).
    pub fn new() -> Self {
        StructScratch::default()
    }
}

impl GrowScratch {
    /// Creates an empty scratch (buffers grow on first use, then stay).
    pub fn new() -> Self {
        GrowScratch::default()
    }
}

/// A one-step extension of a grown pattern.
///
/// The derived ordering (new-vertex extensions before closing edges, then by
/// field values) is the canonical extension order used to organize the
/// growth: it plays the role of `P_anchor` in Algorithm 3.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Extension {
    /// Attach a brand-new vertex with label `vertex_label` to the existing
    /// pattern vertex `attach` via an edge labeled `edge_label`.
    NewVertex {
        /// Existing pattern vertex the new vertex attaches to.
        attach: u32,
        /// Label of the new vertex.
        vertex_label: Label,
        /// Label of the new edge.
        edge_label: Label,
    },
    /// Attach a brand-new vertex with label `vertex_label` through **two or
    /// more** edges at once.
    ///
    /// This reaches patterns whose every single-edge intermediate violates
    /// the canonical-diameter invariant — e.g. a 4-cycle grown from its
    /// diameter path: the closing vertex is adjacent to both path endpoints,
    /// and attaching it through either single edge first would lengthen the
    /// diameter.  Removing the vertex with all its edges is the reverse
    /// operation, so these patterns still reduce to the cluster's minimal
    /// path.
    NewVertexMulti {
        /// Label of the new vertex.
        vertex_label: Label,
        /// Attachment edges `(pattern vertex, edge label)`, sorted ascending,
        /// at least two of them.
        edges: Vec<(u32, Label)>,
    },
    /// Add an edge between two existing, currently non-adjacent pattern
    /// vertices `u < v`.
    ClosingEdge {
        /// Smaller pattern vertex id.
        u: u32,
        /// Larger pattern vertex id.
        v: u32,
        /// Label of the new edge.
        edge_label: Label,
    },
}

/// A pattern being grown from a canonical diameter.
///
/// Invariants maintained by construction:
/// * pattern vertices `0..=diameter_len` are the canonical diameter in order
///   (vertex 0 = head `v_H`, vertex `diameter_len` = tail `v_T`);
/// * `dist_head[v]` / `dist_tail[v]` are the exact shortest distances from
///   `v` to the head / tail within the pattern graph;
/// * `level[v]` is the distance from `v` to the canonical diameter
///   (Definition 5);
/// * `embeddings` contains every occurrence of the pattern in the data
///   (pattern vertex `p` maps to `embedding.vertices[p]`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GrownPattern {
    /// The pattern graph.
    pub graph: LabeledGraph,
    /// Length of the canonical diameter in edges.
    pub diameter_len: usize,
    /// Shortest distance from each pattern vertex to the head `v_H`.
    pub dist_head: Vec<u32>,
    /// Shortest distance from each pattern vertex to the tail `v_T`.
    pub dist_tail: Vec<u32>,
    /// Level (distance to the canonical diameter) of each pattern vertex.
    pub level: Vec<u32>,
    /// Exact all-pairs shortest distances within the pattern graph,
    /// maintained incrementally across extensions (a single added edge or
    /// vertex admits a closed-form O(n²) update), so constraint checks never
    /// re-run BFS.
    pub dists: DistMatrix,
    /// All occurrences of the pattern in the data, in columnar layout
    /// (pattern vertex `p` maps to `row[p]`).
    pub embeddings: OccurrenceStore,
    /// The extension that produced this pattern, if any (`P_anchor`).
    pub anchor: Option<Extension>,
    /// The pattern's interned canonical id in the grower's per-cluster
    /// [`CanonSet`], assigned when the pattern is admitted to the worklist —
    /// the handle through which the memoized fingerprint/key are reused
    /// instead of recomputed.
    pub canon: Option<CanonId>,
}

impl GrownPattern {
    /// Builds the level-0 pattern of a cluster: the canonical diameter path
    /// itself, with one embedding per stored path occurrence.
    pub fn from_path_pattern(path: &PathPattern) -> Self {
        let graph = path.to_graph();
        let l = path.len();
        let n = graph.vertex_count();
        let dist_head: Vec<u32> = (0..n as u32).collect();
        let dist_tail: Vec<u32> = (0..n as u32).map(|i| l as u32 - i).collect();
        let level = vec![0u32; n];
        let dists = DistMatrix::from_rows(
            &(0..n)
                .map(|i| (0..n).map(|j| (i as i64 - j as i64).unsigned_abs() as u32).collect())
                .collect::<Vec<_>>(),
        );
        let embeddings = path.embeddings.clone();
        GrownPattern {
            graph,
            diameter_len: l,
            dist_head,
            dist_tail,
            level,
            dists,
            embeddings,
            anchor: None,
            canon: None,
        }
    }

    /// Builds the level-0 pattern of a cycle cluster: the odd cycle
    /// `C_{2l+1}` relabeled so that its **canonical diameter** (Definition 4)
    /// occupies pattern vertices `0..=l` in order — the invariant every
    /// grown pattern maintains — with the remaining cycle vertices following
    /// in ascending original order.  Occurrence rows are permuted the same
    /// way.
    pub fn from_cycle(cycle: &CyclePattern) -> Self {
        let raw = cycle.to_graph();
        let m = raw.vertex_count();
        let cd = skinny_graph::canonical_diameter(&raw).expect("a cycle is connected");
        let l = cd.len();
        debug_assert_eq!(l, m / 2, "C_{{2l+1}} has diameter l");
        // permutation old id -> new id: diameter path first, rest ascending
        let mut new_of_old = vec![u32::MAX; m];
        for (new_id, &old) in cd.vertices().iter().enumerate() {
            new_of_old[old.index()] = new_id as u32;
        }
        let mut next = l as u32 + 1;
        for slot in new_of_old.iter_mut() {
            if *slot == u32::MAX {
                *slot = next;
                next += 1;
            }
        }
        let mut old_of_new = vec![0usize; m];
        for (old, &new_id) in new_of_old.iter().enumerate() {
            old_of_new[new_id as usize] = old;
        }
        let mut graph = LabeledGraph::with_capacity(m);
        for &old in &old_of_new {
            graph.add_vertex(raw.label(VertexId(old as u32)));
        }
        for e in raw.edges() {
            let (u, v) = (new_of_old[e.u.index()], new_of_old[e.v.index()]);
            graph
                .add_edge(VertexId(u), VertexId(v), e.label)
                .expect("relabeling a simple cycle keeps edges valid");
        }
        let dists = DistMatrix::all_pairs(&graph);
        let dist_head = dists.row(0).to_vec();
        let dist_tail = dists.row(l).to_vec();
        let level: Vec<u32> =
            (0..m).map(|x| (0..=l).map(|p| dists.get(x, p)).min().expect("diameter is nonempty")).collect();
        let mut embeddings = OccurrenceStore::with_capacity(m, cycle.embeddings.len());
        let mut permuted = vec![VertexId(0); m];
        for occ in cycle.embeddings.iter() {
            for (new_id, &old) in old_of_new.iter().enumerate() {
                permuted[new_id] = occ.vertices[old];
            }
            embeddings.push_row(occ.transaction, &permuted);
        }
        GrownPattern {
            graph,
            diameter_len: l,
            dist_head,
            dist_tail,
            level,
            dists,
            embeddings,
            anchor: None,
            canon: None,
        }
    }

    /// Pattern vertex id of the diameter head `v_H`.
    #[inline]
    pub fn head(&self) -> VertexId {
        VertexId(0)
    }

    /// Pattern vertex id of the diameter tail `v_T`.
    #[inline]
    pub fn tail(&self) -> VertexId {
        VertexId(self.diameter_len as u32)
    }

    /// The diameter length `D(P)`.
    #[inline]
    pub fn diameter(&self) -> u32 {
        self.diameter_len as u32
    }

    /// Label sequence of the canonical diameter.
    pub fn diameter_labels(&self) -> Vec<Label> {
        (0..=self.diameter_len).map(|i| self.graph.label(VertexId(i as u32))).collect()
    }

    /// Maximum level over all vertices — the pattern's skinniness so far.
    pub fn max_level(&self) -> u32 {
        self.level.iter().copied().max().unwrap_or(0)
    }

    /// Support of the pattern under `measure`.
    pub fn support(&self, measure: SupportMeasure) -> usize {
        self.embeddings.support(measure)
    }

    /// Number of edges of the pattern.
    pub fn edge_count(&self) -> usize {
        self.graph.edge_count()
    }

    /// Number of vertices of the pattern.
    pub fn vertex_count(&self) -> usize {
        self.graph.vertex_count()
    }

    /// Applies `ext` structurally: returns the new pattern graph, the updated
    /// distance/level vectors and the id of the new vertex (for
    /// [`Extension::NewVertex`]).  Embeddings are *not* computed here — see
    /// [`GrownPattern::extend_embeddings`].
    ///
    /// This freshly-allocating form is retained as the parity oracle of
    /// [`GrownPattern::apply_structure_with`], which the grow engines use
    /// (per-worker scratch, no allocation on the candidate-reject path).
    pub fn apply_structure(&self, ext: &Extension) -> StructuralExtension {
        let mut graph = self.graph.clone();
        let n = self.dists.len();
        let new_vertex;
        let dists = match *ext {
            Extension::NewVertex { attach, vertex_label, edge_label } => {
                let nv = graph.add_vertex(vertex_label);
                graph
                    .add_edge(VertexId(attach), nv, edge_label)
                    .expect("attaching a fresh vertex cannot duplicate an edge");
                new_vertex = Some(nv);
                // a degree-1 vertex cannot shorten any existing distance
                let row: Vec<u32> = self.dists.row(attach as usize).iter().map(|&x| x + 1).collect();
                self.dists.with_new_vertex(&row)
            }
            Extension::NewVertexMulti { vertex_label, ref edges } => {
                let nv = graph.add_vertex(vertex_label);
                for &(attach, edge_label) in edges {
                    graph
                        .add_edge(VertexId(attach), nv, edge_label)
                        .expect("attaching a fresh vertex cannot duplicate an edge");
                }
                new_vertex = Some(nv);
                // the new vertex's distances go through its nearest
                // attachment; existing pairs may then shortcut through it
                // (a shortest path visits the new vertex at most once, so
                // this closed form is exact)
                let row: Vec<u32> = (0..n)
                    .map(|x| {
                        edges
                            .iter()
                            .map(|&(a, _)| self.dists.get(a as usize, x))
                            .min()
                            .expect("multi attachments have at least one edge")
                            + 1
                    })
                    .collect();
                let mut dists = self.dists.with_new_vertex(&row);
                for x in 0..n {
                    for y in (x + 1)..n {
                        let via = row[x] + row[y];
                        if via < dists.get(x, y) {
                            dists.set(x, y, via);
                        }
                    }
                }
                dists
            }
            Extension::ClosingEdge { u, v, edge_label } => {
                graph
                    .add_edge(VertexId(u), VertexId(v), edge_label)
                    .expect("closing-edge candidates are generated only for non-adjacent pairs");
                new_vertex = None;
                // a shortest path uses the new edge at most once, so every
                // pair's new distance is the old one or a route through the
                // edge, measured with pre-insertion segment distances
                let (u, v) = (u as usize, v as usize);
                let mut dists = self.dists.clone();
                let row_u = self.dists.row(u);
                let row_v = self.dists.row(v);
                for x in 0..n {
                    for y in (x + 1)..n {
                        let via = (row_u[x] + 1 + row_v[y]).min(row_v[x] + 1 + row_u[y]);
                        if via < dists.get(x, y) {
                            dists.set(x, y, via);
                        }
                    }
                }
                dists
            }
        };
        // head/tail distances and levels are projections of the exact
        // all-pairs table
        let m = dists.len();
        let dist_head = dists.row(0).to_vec();
        let dist_tail = dists.row(self.diameter_len).to_vec();
        let level: Vec<u32> = (0..m)
            .map(|x| {
                (0..=self.diameter_len).map(|p| dists.get(x, p)).min().expect("diameter path is nonempty")
            })
            .collect();
        StructuralExtension { graph, dist_head, dist_tail, level, dists, new_vertex }
    }

    /// [`GrownPattern::apply_structure`] into per-worker scratch buffers:
    /// the extended graph is rebuilt in place
    /// ([`LabeledGraph::clone_from_graph`]) and the exact all-pairs table is
    /// extended by the incremental single-vertex / single-edge closed forms
    /// ([`DistMatrix::extend_with_vertex_into`],
    /// [`DistMatrix::relax_closing_edge_from`],
    /// [`DistMatrix::relax_through_vertex`]) — no fresh graph clone, no
    /// matrix allocation, no `all_pairs` BFS rebuild.  Produces exactly the
    /// structure [`GrownPattern::apply_structure`] (retained as the
    /// reference and parity oracle) returns; the engines call this per
    /// candidate and copy the scratch out only for admitted children.
    pub fn apply_structure_with(&self, ext: &Extension, scratch: &mut StructScratch) {
        let StructScratch { structure: out, row } = scratch;
        out.graph.clone_from_graph(&self.graph);
        let n = self.dists.len();
        match *ext {
            Extension::NewVertex { attach, vertex_label, edge_label } => {
                let nv = out.graph.add_vertex(vertex_label);
                out.graph
                    .add_edge(VertexId(attach), nv, edge_label)
                    .expect("attaching a fresh vertex cannot duplicate an edge");
                out.new_vertex = Some(nv);
                // a degree-1 vertex cannot shorten any existing distance
                row.clear();
                row.extend(self.dists.row(attach as usize).iter().map(|&x| x + 1));
                self.dists.extend_with_vertex_into(row, &mut out.dists);
            }
            Extension::NewVertexMulti { vertex_label, ref edges } => {
                let nv = out.graph.add_vertex(vertex_label);
                for &(attach, edge_label) in edges {
                    out.graph
                        .add_edge(VertexId(attach), nv, edge_label)
                        .expect("attaching a fresh vertex cannot duplicate an edge");
                }
                out.new_vertex = Some(nv);
                // the new vertex's distances go through its nearest
                // attachment; existing pairs may then shortcut through it
                row.clear();
                row.extend((0..n).map(|x| {
                    edges
                        .iter()
                        .map(|&(a, _)| self.dists.get(a as usize, x))
                        .min()
                        .expect("multi attachments have at least one edge")
                        + 1
                }));
                self.dists.extend_with_vertex_into(row, &mut out.dists);
                out.dists.relax_through_vertex(n);
            }
            Extension::ClosingEdge { u, v, edge_label } => {
                out.graph
                    .add_edge(VertexId(u), VertexId(v), edge_label)
                    .expect("closing-edge candidates are generated only for non-adjacent pairs");
                out.new_vertex = None;
                self.dists.clone_into_matrix(&mut out.dists);
                out.dists.relax_closing_edge_from(&self.dists, u as usize, v as usize);
            }
        }
        // head/tail distances and levels are projections of the exact
        // all-pairs table
        let m = out.dists.len();
        out.dist_head.clear();
        out.dist_head.extend_from_slice(out.dists.row(0));
        out.dist_tail.clear();
        out.dist_tail.extend_from_slice(out.dists.row(self.diameter_len));
        out.level.clear();
        for x in 0..m {
            let lv = (0..=self.diameter_len)
                .map(|p| out.dists.get(x, p))
                .min()
                .expect("diameter path is nonempty");
            out.level.push(lv);
        }
    }

    /// Computes the occurrences of the extended pattern from this pattern's
    /// occurrences (the "direct" part: no subgraph isomorphism search).
    ///
    /// * For a new-vertex extension, every occurrence row is expanded by
    ///   every unused data neighbor of the attachment image carrying the
    ///   right vertex and edge labels (one parent row may yield several);
    ///   each child row is appended straight into the output arena.
    /// * For a closing edge, rows that do not have the required data edge are
    ///   dropped.
    pub fn extend_embeddings(&self, data: &CsrSnapshot, ext: &Extension) -> OccurrenceStore {
        self.extend_embeddings_with(data, ext, &mut VertexMarks::new())
    }

    /// [`GrownPattern::extend_embeddings`] with a caller-provided epoch-mark
    /// table: each parent row's vertices are marked once, so the used-vertex
    /// test per candidate neighbor is an O(1) probe instead of an O(arity)
    /// scan, and a rejected neighbor performs no allocation at all.
    pub fn extend_embeddings_with(
        &self,
        data: &CsrSnapshot,
        ext: &Extension,
        row_marks: &mut VertexMarks,
    ) -> OccurrenceStore {
        let parent_arity = self.embeddings.arity();
        match *ext {
            Extension::NewVertex { attach, vertex_label, edge_label } => {
                let mut out = OccurrenceStore::new(parent_arity + 1);
                for e in self.embeddings.iter() {
                    row_marks.reset();
                    for &v in e.vertices {
                        row_marks.mark(v);
                    }
                    let g = data.graph(e.transaction);
                    let image = e.image(attach as usize);
                    for (w, el) in g.neighbors_at(image) {
                        if el != edge_label {
                            continue;
                        }
                        if g.label(w) != vertex_label {
                            continue;
                        }
                        if row_marks.is_marked(w) {
                            continue;
                        }
                        out.push_row_extended(e.transaction, e.vertices, w);
                    }
                }
                out
            }
            Extension::NewVertexMulti { vertex_label, ref edges } => {
                // candidates are the suitable neighbors of the first
                // attachment image; each must carry *every* required edge
                let mut out = OccurrenceStore::new(parent_arity + 1);
                let (a0, el0) = edges[0];
                for e in self.embeddings.iter() {
                    row_marks.reset();
                    for &v in e.vertices {
                        row_marks.mark(v);
                    }
                    let g = data.graph(e.transaction);
                    let image0 = e.image(a0 as usize);
                    for (w, el) in g.neighbors_at(image0) {
                        if el != el0 {
                            continue;
                        }
                        if g.label(w) != vertex_label {
                            continue;
                        }
                        if row_marks.is_marked(w) {
                            continue;
                        }
                        let all_present = edges[1..]
                            .iter()
                            .all(|&(a, ell)| g.edge_label(e.image(a as usize), w) == Some(ell));
                        if all_present {
                            out.push_row_extended(e.transaction, e.vertices, w);
                        }
                    }
                }
                out
            }
            Extension::ClosingEdge { u, v, edge_label } => {
                let mut out = OccurrenceStore::new(parent_arity);
                for e in self.embeddings.iter() {
                    let du = e.image(u as usize);
                    let dv = e.image(v as usize);
                    if data.graph(e.transaction).edge_label(du, dv) == Some(edge_label) {
                        out.push_row(e.transaction, e.vertices);
                    }
                }
                out
            }
        }
    }

    /// Assembles the extended pattern from the structural extension and the
    /// already-computed occurrences.
    pub fn assemble(
        &self,
        ext: Extension,
        structure: StructuralExtension,
        embeddings: OccurrenceStore,
    ) -> GrownPattern {
        GrownPattern {
            graph: structure.graph,
            diameter_len: self.diameter_len,
            dist_head: structure.dist_head,
            dist_tail: structure.dist_tail,
            level: structure.level,
            dists: structure.dists,
            embeddings,
            anchor: Some(ext),
            canon: None,
        }
    }

    /// Recomputes `dist_head`, `dist_tail`, `level` and the all-pairs table
    /// from scratch and compares with the maintained indices.
    /// Test/verification helper.
    pub fn indices_consistent(&self) -> bool {
        let dh = skinny_graph::bfs_distances(&self.graph, self.head());
        let dt = skinny_graph::bfs_distances(&self.graph, self.tail());
        if dh != self.dist_head || dt != self.dist_tail {
            return false;
        }
        if DistMatrix::all_pairs(&self.graph) != self.dists {
            return false;
        }
        let diameter_path =
            skinny_graph::Path::new_unchecked((0..=self.diameter_len as u32).map(VertexId).collect());
        let lv = skinny_graph::distances_to_path(&self.graph, &diameter_path);
        lv == self.level
    }
}

/// Result of applying an extension structurally.
#[derive(Debug, Clone, Default)]
pub struct StructuralExtension {
    /// Extended pattern graph.
    pub graph: LabeledGraph,
    /// Updated head distances.
    pub dist_head: Vec<u32>,
    /// Updated tail distances.
    pub dist_tail: Vec<u32>,
    /// Updated levels.
    pub level: Vec<u32>,
    /// Updated exact all-pairs distances.
    pub dists: DistMatrix,
    /// The freshly added vertex for new-vertex extensions.
    pub new_vertex: Option<VertexId>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path_pattern::PathKey;

    fn l(x: u32) -> Label {
        Label(x)
    }

    /// Data graph: two copies of a length-3 backbone a-b-c-d with a twig on b.
    fn data_graph() -> LabeledGraph {
        // copy 1: 0(a) 1(b) 2(c) 3(d), twig 4(t) on 1
        // copy 2: 5(a) 6(b) 7(c) 8(d), twig 9(t) on 6
        LabeledGraph::from_unlabeled_edges(
            &[l(0), l(1), l(2), l(3), l(9), l(0), l(1), l(2), l(3), l(9)],
            [(0, 1), (1, 2), (2, 3), (1, 4), (5, 6), (6, 7), (7, 8), (6, 9)],
        )
        .unwrap()
    }

    fn seed_pattern(g: &LabeledGraph) -> GrownPattern {
        // canonical diameter path a-b-c-d with two occurrences
        let (key, _) = PathKey::canonical(vec![l(0), l(1), l(2), l(3)], vec![l(0); 3]);
        let mut p = PathPattern::new(key);
        p.add_occurrence(0, vec![VertexId(0), VertexId(1), VertexId(2), VertexId(3)], false);
        p.add_occurrence(0, vec![VertexId(5), VertexId(6), VertexId(7), VertexId(8)], false);
        let _ = g;
        GrownPattern::from_path_pattern(&p)
    }

    #[test]
    fn from_path_pattern_initializes_indices() {
        let g = data_graph();
        let p = seed_pattern(&g);
        assert_eq!(p.diameter_len, 3);
        assert_eq!(p.dist_head, vec![0, 1, 2, 3]);
        assert_eq!(p.dist_tail, vec![3, 2, 1, 0]);
        assert_eq!(p.level, vec![0, 0, 0, 0]);
        assert_eq!(p.head(), VertexId(0));
        assert_eq!(p.tail(), VertexId(3));
        assert_eq!(p.max_level(), 0);
        assert_eq!(p.support(SupportMeasure::DistinctVertexSets), 2);
        assert_eq!(p.diameter_labels(), vec![l(0), l(1), l(2), l(3)]);
        assert!(p.indices_consistent());
    }

    #[test]
    fn new_vertex_extension_updates_structure_and_embeddings() {
        let g = data_graph();
        let data = CsrSnapshot::from_graph(&g);
        let p = seed_pattern(&g);
        let ext = Extension::NewVertex { attach: 1, vertex_label: l(9), edge_label: Label::DEFAULT_EDGE };
        let st = p.apply_structure(&ext);
        assert_eq!(st.graph.vertex_count(), 5);
        assert_eq!(st.dist_head[4], 2);
        assert_eq!(st.dist_tail[4], 3);
        assert_eq!(st.level[4], 1);
        assert_eq!(st.new_vertex, Some(VertexId(4)));

        let em = p.extend_embeddings(&data, &ext);
        // both occurrences have a label-9 twig on their 'b' vertex
        assert_eq!(em.len(), 2);
        let child = p.assemble(ext.clone(), st, em);
        assert_eq!(child.vertex_count(), 5);
        assert_eq!(child.max_level(), 1);
        assert_eq!(child.anchor, Some(ext));
        assert!(child.indices_consistent());
        assert!(child.embeddings.iter().all(|e| e.to_embedding().is_valid(&child.graph, &g)));
    }

    #[test]
    fn new_vertex_extension_with_absent_label_yields_no_embedding() {
        let g = data_graph();
        let data = CsrSnapshot::from_graph(&g);
        let p = seed_pattern(&g);
        let ext = Extension::NewVertex { attach: 2, vertex_label: l(9), edge_label: Label::DEFAULT_EDGE };
        // 'c' vertices have no label-9 neighbor
        assert!(p.extend_embeddings(&data, &ext).is_empty());
    }

    #[test]
    fn closing_edge_filters_embeddings() {
        // add the data edge (0, 2) in copy 1 only, then a pattern closing edge
        // between diameter positions 0 and 2 keeps just that occurrence
        let mut g = data_graph();
        g.add_unlabeled_edge(VertexId(0), VertexId(2)).unwrap();
        let data = CsrSnapshot::from_graph(&g);
        let p = seed_pattern(&g);
        let ext = Extension::ClosingEdge { u: 0, v: 2, edge_label: Label::DEFAULT_EDGE };
        let em = p.extend_embeddings(&data, &ext);
        assert_eq!(em.len(), 1);
        assert_eq!(em.row(0)[0], VertexId(0));
        let st = p.apply_structure(&ext);
        // the chord shortens the head-to-position-2 distance
        assert_eq!(st.dist_head[2], 1);
        // and the head-tail distance drops to 2: the canonical diameter is broken
        assert_eq!(st.dist_head[3], 2);
    }

    #[test]
    fn apply_structure_with_matches_reference() {
        let g = data_graph();
        let p = seed_pattern(&g);
        let exts = [
            Extension::NewVertex { attach: 1, vertex_label: l(9), edge_label: Label::DEFAULT_EDGE },
            Extension::NewVertexMulti {
                vertex_label: l(9),
                edges: vec![(0, Label::DEFAULT_EDGE), (2, Label::DEFAULT_EDGE)],
            },
            Extension::ClosingEdge { u: 0, v: 2, edge_label: Label::DEFAULT_EDGE },
        ];
        let mut scratch = StructScratch::new();
        for ext in &exts {
            let reference = p.apply_structure(ext);
            // rebuild twice into the same scratch: the second pass exercises
            // warm-buffer reuse
            p.apply_structure_with(ext, &mut scratch);
            p.apply_structure_with(ext, &mut scratch);
            let got = &scratch.structure;
            assert_eq!(got.graph, reference.graph, "{ext:?}");
            assert_eq!(got.dist_head, reference.dist_head, "{ext:?}");
            assert_eq!(got.dist_tail, reference.dist_tail, "{ext:?}");
            assert_eq!(got.level, reference.level, "{ext:?}");
            assert_eq!(got.dists, reference.dists, "{ext:?}");
            assert_eq!(got.new_vertex, reference.new_vertex, "{ext:?}");
        }
    }

    #[test]
    fn extension_ordering_new_vertex_before_closing_edge() {
        let nv = Extension::NewVertex { attach: 5, vertex_label: l(9), edge_label: l(0) };
        let ce = Extension::ClosingEdge { u: 0, v: 1, edge_label: l(0) };
        assert!(nv < ce);
        let nv2 = Extension::NewVertex { attach: 5, vertex_label: l(10), edge_label: l(0) };
        assert!(nv < nv2);
        let ce2 = Extension::ClosingEdge { u: 0, v: 2, edge_label: l(0) };
        assert!(ce < ce2);
    }

    #[test]
    fn from_cycle_places_canonical_diameter_first() {
        use crate::cycle::CyclePattern;
        // data: one pentagon with distinct labels
        let g = LabeledGraph::from_unlabeled_edges(
            &[l(3), l(1), l(4), l(1), l(5)],
            [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)],
        )
        .unwrap();
        let occ: Vec<VertexId> = (0..5).map(VertexId).collect();
        let (key, verts) = CyclePattern::canonicalize(&g, &occ, Label::DEFAULT_EDGE);
        let mut cp = CyclePattern::new(key);
        cp.push_occurrence(0, &verts);
        let p = GrownPattern::from_cycle(&cp);
        assert_eq!(p.diameter_len, 2);
        assert_eq!(p.vertex_count(), 5);
        assert_eq!(p.edge_count(), 5);
        // invariant: vertices 0..=2 are the canonical diameter in order, and
        // all maintained indices are exact
        assert!(p.indices_consistent());
        assert_eq!(p.max_level(), 1);
        // the pattern graph is the pentagon and the single occurrence is valid
        assert!(skinny_graph::are_isomorphic(&p.graph, &g));
        assert!(p.embeddings.iter().all(|e| e.to_embedding().is_valid(&p.graph, &g)));
        // the designated diameter really is the canonical one
        assert!(crate::constraints::verify_canonical_diameter(&p.graph, 2, &p.diameter_labels()));
    }

    #[test]
    fn indices_consistent_detects_corruption() {
        let g = data_graph();
        let mut p = seed_pattern(&g);
        assert!(p.indices_consistent());
        p.dist_head[2] = 9;
        assert!(!p.indices_consistent());
    }
}
