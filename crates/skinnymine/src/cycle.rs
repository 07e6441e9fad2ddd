//! Frequent odd-cycle seed patterns `C_{2l+1}` — the minimal **non-path**
//! constraint-satisfying patterns of the skinny constraint.
//!
//! For diameter length `l`, the odd cycle on `2l + 1` vertices has diameter
//! exactly `l`, and every one-edge or one-vertex reduction changes that
//! diameter — so `C_{2l+1}`, which is `(l, ⌈l/2⌉)`-skinny, is a genuinely
//! minimal pattern of the `(l, δ)` constraint for `δ >= ⌈l/2⌉` (e.g. C₅ for
//! `l = 2`, `δ >= 1`), and Stage II can never
//! reach it by growing a path seed: each intermediate would violate the
//! canonical-diameter invariant.  Definition-8 completeness on adversarial
//! inputs therefore needs these cycles seeded directly.
//!
//! Stage I derives them on one of two routes.  Both feed one shared
//! accumulator that sorts rows and patterns canonically, so both produce
//! the same bytes:
//!
//! * **arcs** — [`DiamMine::cycles_from_arcs`](crate::diam_mine::DiamMine::cycles_from_arcs)
//!   pairs the already-mined length-`l` paths.  Every occurrence splits at
//!   its minimum vertex into two `l`-arcs that start there, share nothing
//!   else, and whose far ends are joined by the closing edge.  Both arcs are
//!   sub-patterns of the cycle, so under either (anti-monotone) measure,
//!   [`SupportMeasure::MinimumImage`] or [`SupportMeasure::Transactions`],
//!   they are frequent whenever the cycle is.  This is the route whenever
//!   the `2l`-paths were not mined.
//! * **`2l`-paths** — [`DiamMine::cycles_from_paths`](crate::diam_mine::DiamMine::cycles_from_paths)
//!   checks which frequent length-`2l` paths close into a cycle.  The
//!   seed rule uses it whenever the mined length range holds those paths
//!   anyway (as an unbounded minimal-pattern index does), and
//!   [`DiamMine::frequent_cycles`](crate::diam_mine::DiamMine::frequent_cycles)
//!   keeps it as the test oracle.
//!
//! Stage II grows a cycle cluster like a path cluster but reports only the
//! patterns within δ, so a cycle wider than δ seeds growth without being
//! reported itself.
//!
//! A labeled cycle has `2m` symmetries (`m` rotations × 2 directions);
//! [`CyclePattern::canonicalize`] quotients them out so each undirected cycle
//! occurrence is stored exactly once under one canonical key, and
//! [`CyclePattern::dedup`] puts the rows in one canonical order whatever the
//! discovery order was.

use serde::{Deserialize, Serialize};
use skinny_graph::{
    GraphView, Label, LabeledGraph, OccurrenceStore, SupportMeasure, SupportScratch, VertexId,
};
use std::collections::HashMap;

/// The canonical identity of a labeled cycle: vertex labels in cyclic order
/// plus edge labels, minimized over all rotations and reflections.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct CycleKey {
    /// Vertex labels around the cycle (length = cycle length `m`).
    pub vertex_labels: Vec<Label>,
    /// Edge labels around the cycle: `edge_labels[i]` labels the edge between
    /// cyclic positions `i` and `(i + 1) mod m`.
    pub edge_labels: Vec<Label>,
}

impl CycleKey {
    /// Cycle length in edges (= vertices).
    pub fn len(&self) -> usize {
        self.vertex_labels.len()
    }

    /// True for the degenerate empty key.
    pub fn is_empty(&self) -> bool {
        self.vertex_labels.is_empty()
    }

    /// The diameter length `l` of the odd cycle `C_{2l+1}` this key
    /// describes.
    pub fn diameter_len(&self) -> usize {
        self.len() / 2
    }

    /// A cheap order-sensitive 64-bit fingerprint of the canonical label
    /// sequences, using the same deterministic mixer as the graph-level
    /// canonical fingerprints ([`skinny_graph::canon::mix`]).  Equal keys
    /// always collide; cycle accumulation buckets on this and compares full
    /// keys only inside a bucket — the cycle-side instance of the
    /// fingerprint → full-key funnel.
    pub fn fingerprint(&self) -> u64 {
        let mut h = skinny_graph::canon::mix(self.vertex_labels.len() as u64);
        for &l in &self.vertex_labels {
            h = skinny_graph::canon::mix(h.rotate_left(1) ^ l.0 as u64);
        }
        for &l in &self.edge_labels {
            h = skinny_graph::canon::mix(h.rotate_left(3) ^ l.0 as u64);
        }
        h
    }
}

/// A frequent cycle pattern with its occurrences in columnar layout.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CyclePattern {
    /// Canonical identity of the cycle.
    pub key: CycleKey,
    /// Occurrences, one row per undirected cycle occurrence; row vertices
    /// follow the key's canonical cyclic orientation.
    pub embeddings: OccurrenceStore,
}

impl CyclePattern {
    /// Creates an empty pattern for a key.
    pub fn new(key: CycleKey) -> Self {
        let arity = key.vertex_labels.len();
        CyclePattern { key, embeddings: OccurrenceStore::new(arity) }
    }

    /// Cycle length in edges (= vertices).
    pub fn cycle_len(&self) -> usize {
        self.key.len()
    }

    /// The diameter length `l` of this `C_{2l+1}` seed.
    pub fn diameter_len(&self) -> usize {
        self.key.diameter_len()
    }

    /// Support of the pattern under the chosen measure.
    pub fn support(&self, measure: SupportMeasure) -> usize {
        self.embeddings.support(measure)
    }

    /// Adds a canonicalized occurrence (as produced by
    /// [`CyclePattern::canonicalize`]).
    pub fn push_occurrence(&mut self, t: usize, vertices: &[VertexId]) {
        self.embeddings.push_row(t, vertices);
    }

    /// Sorts the occurrences into `(transaction, canonical vertices)` order
    /// and removes exact duplicates.  The `2l`-path route discovers the same
    /// undirected cycle once per length-`2l` sub-path (there are `2l + 1` of
    /// them) and canonicalization maps all of those discoveries to one row;
    /// the sort makes the stored rows independent of discovery order, so
    /// every route yields the same bytes.
    pub fn dedup(&mut self) {
        self.embeddings.sort_dedup_with(&mut SupportScratch::new());
    }

    /// Canonicalizes one cycle occurrence given as a directed *path* vertex
    /// sequence `v_0 … v_{m-1}` (in path order) whose endpoints are joined by
    /// a data edge labeled `closing`.
    ///
    /// Returns the canonical [`CycleKey`] (label sequences minimized over all
    /// `2m` rotations/reflections) and the occurrence's vertex sequence
    /// rewritten into that canonical cyclic orientation (ties among
    /// label-equal symmetries broken by the smaller vertex-id sequence, so
    /// every symmetry of the same undirected occurrence maps to one row).
    pub fn canonicalize<G: GraphView>(
        view: &G,
        path_vertices: &[VertexId],
        closing: Label,
    ) -> (CycleKey, Vec<VertexId>) {
        let m = path_vertices.len();
        debug_assert!(m >= 3, "a cycle needs at least 3 vertices");
        let vlabels: Vec<Label> = path_vertices.iter().map(|&v| view.label(v)).collect();
        let mut elabels: Vec<Label> = path_vertices
            .windows(2)
            .map(|w| view.edge_label(w[0], w[1]).unwrap_or(Label::DEFAULT_EDGE))
            .collect();
        elabels.push(closing);

        let mut best: Option<(Vec<Label>, Vec<Label>, Vec<VertexId>)> = None;
        let mut cand_v = Vec::with_capacity(m);
        let mut cand_e = Vec::with_capacity(m);
        let mut cand_ids = Vec::with_capacity(m);
        for rot in 0..m {
            for dir in [1isize, -1] {
                cand_v.clear();
                cand_e.clear();
                cand_ids.clear();
                for j in 0..m {
                    let pos = (rot as isize + dir * j as isize).rem_euclid(m as isize) as usize;
                    cand_v.push(vlabels[pos]);
                    cand_ids.push(path_vertices[pos]);
                    // edge between cyclic positions j and j+1 of the candidate
                    let edge_pos =
                        if dir == 1 { pos } else { (pos as isize - 1).rem_euclid(m as isize) as usize };
                    cand_e.push(elabels[edge_pos]);
                }
                let better = match &best {
                    None => true,
                    Some((bv, be, bids)) => (&cand_v, &cand_e, &cand_ids) < (bv, be, bids),
                };
                if better {
                    best = Some((cand_v.clone(), cand_e.clone(), cand_ids.clone()));
                }
            }
        }
        let (vertex_labels, edge_labels, vertices) = best.expect("m >= 3 yields candidates");
        (CycleKey { vertex_labels, edge_labels }, vertices)
    }

    /// Materializes the pattern as a standalone cycle-shaped
    /// [`LabeledGraph`] whose vertices `0..m` carry the canonical labels in
    /// cyclic order, with edges `(i, i+1)` and `(m-1, 0)`.
    pub fn to_graph(&self) -> LabeledGraph {
        let m = self.cycle_len();
        let mut g = LabeledGraph::with_capacity(m);
        for &l in &self.key.vertex_labels {
            g.add_vertex(l);
        }
        for i in 0..m {
            let j = (i + 1) % m;
            g.add_edge(VertexId(i as u32), VertexId(j as u32), self.key.edge_labels[i])
                .expect("cycle edges are always valid");
        }
        g
    }
}

/// The accumulator every cycle route feeds: canonicalized occurrences are
/// routed to their pattern by the cheap [`CycleKey::fingerprint`], full keys
/// are compared only inside a fingerprint bucket, and
/// [`CycleTable::finish`] puts rows and patterns into canonical order before
/// the σ-filter.  Output therefore depends only on the set of occurrences
/// pushed, never on the order or the shard they arrived from.
#[derive(Debug, Default)]
pub(crate) struct CycleTable {
    patterns: Vec<CyclePattern>,
    by_fp: HashMap<u64, Vec<u32>>,
}

impl CycleTable {
    /// The pattern slot of `key`, created empty on first sight.
    fn slot(&mut self, key: CycleKey) -> &mut CyclePattern {
        let patterns = &mut self.patterns;
        let bucket = self.by_fp.entry(key.fingerprint()).or_default();
        let idx = match bucket.iter().copied().find(|&i| patterns[i as usize].key == key) {
            Some(i) => i,
            None => {
                let i = patterns.len() as u32;
                patterns.push(CyclePattern::new(key));
                bucket.push(i);
                i
            }
        };
        &mut patterns[idx as usize]
    }

    /// Adds one canonicalized occurrence (as produced by
    /// [`CyclePattern::canonicalize`]).
    pub(crate) fn push(&mut self, key: CycleKey, t: usize, vertices: &[VertexId]) {
        self.slot(key).push_occurrence(t, vertices);
    }

    /// Moves every occurrence of `other` into this table (the merge of
    /// per-shard partial tables).
    pub(crate) fn merge(&mut self, other: CycleTable) {
        for p in other.patterns {
            self.slot(p.key).embeddings.append(p.embeddings);
        }
    }

    /// Sorts and deduplicates each pattern's rows, keeps the patterns whose
    /// support reaches `sigma` (rejecting on the row count before any sort,
    /// then through the σ-pruned evaluator), and returns them key-sorted.
    pub(crate) fn finish(self, measure: SupportMeasure, sigma: usize) -> Vec<CyclePattern> {
        let mut scratch = SupportScratch::new();
        let mut out: Vec<CyclePattern> = self
            .patterns
            .into_iter()
            .filter_map(|mut c| {
                if c.embeddings.len() < sigma {
                    return None;
                }
                c.embeddings.sort_dedup_with(&mut scratch);
                (c.embeddings.support_pruned(measure, sigma, &mut scratch) >= sigma).then_some(c)
            })
            .collect();
        out.sort_by(|a, b| a.key.cmp(&b.key));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l(x: u32) -> Label {
        Label(x)
    }

    /// An unlabeled-edge pentagon with the given vertex labels.
    fn pentagon(labels: [u32; 5]) -> LabeledGraph {
        let labels: Vec<Label> = labels.iter().map(|&x| l(x)).collect();
        LabeledGraph::from_unlabeled_edges(&labels, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]).unwrap()
    }

    fn v(ids: &[u32]) -> Vec<VertexId> {
        ids.iter().map(|&i| VertexId(i)).collect()
    }

    #[test]
    fn canonicalize_is_symmetry_invariant() {
        let g = pentagon([3, 1, 4, 1, 5]);
        // every rotation/reflection of the same undirected pentagon, given as
        // a path (closing edge between first and last), canonicalizes to the
        // same key and the same stored vertex sequence
        let symmetries: Vec<Vec<VertexId>> = (0..5)
            .flat_map(|rot| {
                [1isize, -1].map(|dir| {
                    (0..5)
                        .map(|j| VertexId(((rot as isize + dir * j).rem_euclid(5)) as u32))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let (key0, verts0) = CyclePattern::canonicalize(&g, &symmetries[0], Label::DEFAULT_EDGE);
        for s in &symmetries[1..] {
            let (key, verts) = CyclePattern::canonicalize(&g, s, Label::DEFAULT_EDGE);
            assert_eq!(key, key0);
            assert_eq!(verts, verts0);
        }
        // the canonical label sequence is minimal among the symmetries:
        // starting points labeled 1 are positions 1 and 3; walking from
        // position 1 towards position 0 reads [1, 3, 5, 1, 4]
        assert_eq!(key0.vertex_labels, vec![l(1), l(3), l(5), l(1), l(4)]);
        assert_eq!(key0.len(), 5);
        assert_eq!(key0.diameter_len(), 2);
    }

    #[test]
    fn canonicalize_ties_break_by_vertex_ids() {
        // all-equal labels: every symmetry matches, the id-smallest sequence
        // must win so dedup collapses all discoveries
        let g = pentagon([7, 7, 7, 7, 7]);
        let (_, verts) = CyclePattern::canonicalize(&g, &v(&[2, 3, 4, 0, 1]), Label::DEFAULT_EDGE);
        assert_eq!(verts[0], VertexId(0));
        let (_, verts2) = CyclePattern::canonicalize(&g, &v(&[4, 3, 2, 1, 0]), Label::DEFAULT_EDGE);
        assert_eq!(verts, verts2);
    }

    #[test]
    fn pattern_accumulates_and_dedups() {
        let g = pentagon([0, 0, 0, 0, 0]);
        let (key, verts) = CyclePattern::canonicalize(&g, &v(&[0, 1, 2, 3, 4]), Label::DEFAULT_EDGE);
        let mut p = CyclePattern::new(key.clone());
        p.push_occurrence(0, &verts);
        let (_, verts_again) = CyclePattern::canonicalize(&g, &v(&[1, 2, 3, 4, 0]), Label::DEFAULT_EDGE);
        p.push_occurrence(0, &verts_again);
        p.dedup();
        assert_eq!(p.embeddings.len(), 1);
        assert_eq!(p.cycle_len(), 5);
        assert_eq!(p.diameter_len(), 2);
        assert_eq!(p.embeddings.to_embedding_set().distinct_vertex_sets(), 1);
    }

    #[test]
    fn discovery_order_does_not_change_the_pattern() {
        // two all-equal-label pentagons, each discovered once per symmetry
        let mut edges = Vec::new();
        for base in [0u32, 5] {
            edges.extend((0..5).map(|i| (base + i, base + (i + 1) % 5)));
        }
        let g = LabeledGraph::from_unlabeled_edges(&[l(7); 10], edges).unwrap();
        let mut discoveries: Vec<Vec<VertexId>> = Vec::new();
        for base in [0isize, 5] {
            for rot in 0..5isize {
                for dir in [1isize, -1] {
                    discoveries.push(
                        (0..5).map(|j| VertexId((base + (rot + dir * j).rem_euclid(5)) as u32)).collect(),
                    );
                }
            }
        }
        let accumulate = |order: &mut dyn Iterator<Item = &Vec<VertexId>>| {
            let mut table = CycleTable::default();
            for path in order {
                let (key, verts) = CyclePattern::canonicalize(&g, path, Label::DEFAULT_EDGE);
                table.push(key, 0, &verts);
            }
            table.finish(SupportMeasure::MinimumImage, 1)
        };
        let forward = accumulate(&mut discoveries.iter());
        let backward = accumulate(&mut discoveries.iter().rev());
        assert_eq!(format!("{forward:?}"), format!("{backward:?}"));
        assert_eq!(forward.len(), 1);
        // one row per pentagon, in ascending vertex order
        assert_eq!(forward[0].embeddings.len(), 2);
        assert!(forward[0].embeddings.row(0) < forward[0].embeddings.row(1));
    }

    #[test]
    fn to_graph_builds_the_cycle() {
        let g = pentagon([3, 1, 4, 1, 5]);
        let (key, _) = CyclePattern::canonicalize(&g, &v(&[0, 1, 2, 3, 4]), Label::DEFAULT_EDGE);
        let p = CyclePattern::new(key);
        let cg = p.to_graph();
        assert_eq!(cg.vertex_count(), 5);
        assert_eq!(cg.edge_count(), 5);
        assert!(cg.vertices().all(|x| cg.degree(x) == 2));
        // isomorphic to the original pentagon
        assert!(skinny_graph::are_isomorphic(&cg, &g));
    }
}
