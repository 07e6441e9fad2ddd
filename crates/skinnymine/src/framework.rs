//! The general direct mining framework of Section 5.
//!
//! The framework applies to any graph constraint possessing two properties:
//!
//! * **Reducibility** (Property 1) — there is a non-trivial set of *minimal*
//!   constraint-satisfying patterns: patterns that satisfy the constraint
//!   while none of their sub-patterns does.  These minimal patterns can be
//!   mined directly (Stage 1) and act as the anchors of the search.
//! * **Continuity** (Property 2) — every constraint-satisfying pattern either
//!   is minimal or has a one-edge-smaller sub-pattern that also satisfies the
//!   constraint, so constraint-preserving growth (Stage 2) from the minimal
//!   patterns reaches everything.
//!
//! [`GraphConstraint`] captures a constraint as a predicate; [`Reducible`]
//! and [`Continuous`] mark the two properties and supply the stage
//! implementations.  [`SkinnyConstraint`] is the paper's instantiation;
//! [`MaxDegreeConstraint`] and [`RegularDegreeConstraint`] are the paper's
//! counter-examples (not reducible / not continuous respectively), provided
//! with empirical property checkers used in tests and benchmarks.

use skinny_graph::{analyze, LabeledGraph};

/// A boolean constraint `f_C(P)` over graph patterns.
pub trait GraphConstraint {
    /// Human-readable constraint name.
    fn name(&self) -> &str;

    /// `f_C(P) = 1` — does pattern `P` satisfy the constraint?
    /// Disconnected or empty patterns are conventionally rejected.
    fn satisfied(&self, pattern: &LabeledGraph) -> bool;

    /// True when `P` satisfies the constraint and no proper connected
    /// sub-pattern one growth step smaller does — i.e. `P` is a *minimal
    /// constraint-satisfying pattern*.  A growth step adds either one edge
    /// or one vertex together with its incident edges, so the reductions
    /// checked are the one-edge-removed and one-vertex-removed sub-patterns.
    fn is_minimal(&self, pattern: &LabeledGraph) -> bool {
        if !self.satisfied(pattern) {
            return false;
        }
        one_step_subpatterns(pattern).iter().all(|sub| !self.satisfied(sub))
    }
}

/// Property 1 (Reducibility): the constraint admits minimal satisfying
/// patterns of non-trivial size, and they can be mined directly.
pub trait Reducible: GraphConstraint {
    /// A lower bound on the edge count of every minimal constraint-satisfying
    /// pattern (the `k` of Property 1).
    fn minimal_pattern_size(&self) -> usize;
}

/// Property 2 (Continuity): every satisfying pattern is reachable from a
/// minimal one by single-edge extensions that stay inside the constraint.
pub trait Continuous: GraphConstraint {
    /// Checks the continuity condition for one concrete pattern: either `P`
    /// is minimal, or some connected sub-pattern one growth step smaller
    /// (one edge removed, or one vertex removed with its incident edges —
    /// the reverse of the miner's two extension operations) satisfies the
    /// constraint.
    fn continuity_holds_for(&self, pattern: &LabeledGraph) -> bool {
        if !self.satisfied(pattern) {
            return true; // vacuously
        }
        if self.is_minimal(pattern) {
            return true;
        }
        one_step_subpatterns(pattern).iter().any(|sub| self.satisfied(sub))
    }
}

/// All connected sub-patterns obtained by deleting exactly one edge (and any
/// vertex this isolates).  Used by the default minimality / continuity
/// checks.
pub fn one_edge_subpatterns(pattern: &LabeledGraph) -> Vec<LabeledGraph> {
    let edges: Vec<_> = pattern.edges().collect();
    let mut out = Vec::new();
    for skip in 0..edges.len() {
        let kept: Vec<_> = edges.iter().enumerate().filter(|&(i, _)| i != skip).map(|(_, e)| *e).collect();
        if kept.is_empty() {
            continue;
        }
        let (sub, _) = pattern.edge_subgraph(&kept);
        if skinny_graph::is_connected(&sub) && sub.vertex_count() > 0 {
            out.push(sub);
        }
    }
    out
}

/// All connected sub-patterns obtained by deleting exactly one vertex with
/// its incident edges — the reverse of a vertex(+edges) attachment step.
pub fn one_vertex_subpatterns(pattern: &LabeledGraph) -> Vec<LabeledGraph> {
    let edges: Vec<_> = pattern.edges().collect();
    let mut out = Vec::new();
    for v in pattern.vertices() {
        let kept: Vec<_> = edges.iter().filter(|e| e.u != v && e.v != v).copied().collect();
        if kept.is_empty() {
            continue;
        }
        let (sub, _) = pattern.edge_subgraph(&kept);
        // the removed vertex must actually be gone and the rest connected
        if sub.vertex_count() == pattern.vertex_count() - 1 && skinny_graph::is_connected(&sub) {
            out.push(sub);
        }
    }
    out
}

/// All connected sub-patterns one growth step smaller: the union of the
/// one-edge-removed and one-vertex-removed reductions, matching the miner's
/// two extension operations (closing edge; new vertex with its edges).
pub fn one_step_subpatterns(pattern: &LabeledGraph) -> Vec<LabeledGraph> {
    let mut out = one_edge_subpatterns(pattern);
    out.extend(one_vertex_subpatterns(pattern));
    out
}

// ---------------------------------------------------------------------------
// The skinny constraint (the paper's instantiation)
// ---------------------------------------------------------------------------

/// The l-long δ-skinny constraint (Definition 7).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SkinnyConstraint {
    /// Required canonical diameter length.
    pub l: usize,
    /// Skinniness bound.
    pub delta: u32,
}

impl SkinnyConstraint {
    /// Creates the constraint.
    pub fn new(l: usize, delta: u32) -> Self {
        SkinnyConstraint { l, delta }
    }
}

impl GraphConstraint for SkinnyConstraint {
    fn name(&self) -> &str {
        "l-long delta-skinny"
    }

    fn satisfied(&self, pattern: &LabeledGraph) -> bool {
        match analyze(pattern) {
            Ok(a) => a.is_l_long_delta_skinny(self.l, self.delta),
            Err(_) => false,
        }
    }

    // `is_minimal` intentionally uses the trait's reduction-based default.
    // The paper's Observation 1 ("minimal = the simple paths of length l")
    // holds for almost all patterns, but short cycles realizing the diameter
    // (e.g. C₅ for l = 2) are genuinely irreducible non-paths: removing any
    // edge or any vertex breaks the constraint.  The miner's Stage I seeds
    // these odd cycles `C_{2l+1}` next to the paths (see
    // `SkinnyMineConfig::cycle_seeds`).  The even cycles `C_{2l}` for
    // l >= 3 are minimal as well (an edge removal leaves a path of length
    // 2l - 1, a vertex removal one of length 2l - 2), but Stage I does not
    // seed them, so the miner misses them: an open completeness gap.
}

impl Reducible for SkinnyConstraint {
    fn minimal_pattern_size(&self) -> usize {
        self.l
    }
}

impl Continuous for SkinnyConstraint {}

// ---------------------------------------------------------------------------
// Counter-example constraints from Section 5
// ---------------------------------------------------------------------------

/// "Maximum node degree is at most K" — the paper's example of a constraint
/// that is **not reducible**: its only minimal satisfying patterns are the
/// trivial single edges (or vertices), so Stage 1 cannot narrow the search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MaxDegreeConstraint {
    /// The degree bound K.
    pub k: usize,
}

impl GraphConstraint for MaxDegreeConstraint {
    fn name(&self) -> &str {
        "max-degree"
    }

    fn satisfied(&self, pattern: &LabeledGraph) -> bool {
        pattern.vertex_count() > 0 && skinny_graph::is_connected(pattern) && pattern.max_degree() <= self.k
    }
}

/// "All vertices have the same degree" (regular graphs) — the paper's example
/// of a constraint that is **not continuous**: a cycle satisfies it but no
/// one-edge-smaller sub-pattern does.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RegularDegreeConstraint;

impl GraphConstraint for RegularDegreeConstraint {
    fn name(&self) -> &str {
        "regular-degree"
    }

    fn satisfied(&self, pattern: &LabeledGraph) -> bool {
        if pattern.vertex_count() == 0 || !skinny_graph::is_connected(pattern) {
            return false;
        }
        let mut degrees = pattern.vertices().map(|v| pattern.degree(v));
        let first = degrees.next().unwrap_or(0);
        degrees.all(|d| d == first)
    }
}

/// Empirical reducibility check: does the constraint admit a minimal
/// satisfying pattern with at least `min_edges` edges among the provided
/// sample patterns?  (Property 1 asks for existence; this is the testable
/// finite version used in tests and benchmark reports.)
pub fn reducibility_witness<'a, C: GraphConstraint>(
    constraint: &C,
    samples: impl IntoIterator<Item = &'a LabeledGraph>,
    min_edges: usize,
) -> Option<&'a LabeledGraph> {
    samples.into_iter().find(|p| p.edge_count() >= min_edges && constraint.is_minimal(p))
}

/// Empirical continuity check over a set of sample patterns with respect to a
/// Stage-1 anchor size `anchor_edges` (the size of the minimal patterns mined
/// in Stage 1): returns the satisfying samples that are larger than the
/// anchors yet have no satisfying one-growth-step-smaller sub-pattern —
/// exactly the patterns constraint-preserving growth from the anchors would
/// miss.
pub fn continuity_violations<'a, C: GraphConstraint>(
    constraint: &C,
    samples: impl IntoIterator<Item = &'a LabeledGraph>,
    anchor_edges: usize,
) -> Vec<&'a LabeledGraph> {
    samples
        .into_iter()
        .filter(|p| {
            constraint.satisfied(p)
                && p.edge_count() > anchor_edges
                && !one_step_subpatterns(p).iter().any(|sub| constraint.satisfied(sub))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use skinny_graph::Label;

    fn l(x: u32) -> Label {
        Label(x)
    }

    fn path(n: usize) -> LabeledGraph {
        let labels: Vec<Label> = (0..n as u32 + 1).map(Label).collect();
        let edges: Vec<(u32, u32)> = (0..n as u32).map(|i| (i, i + 1)).collect();
        LabeledGraph::from_unlabeled_edges(&labels, edges).unwrap()
    }

    fn cycle(n: usize) -> LabeledGraph {
        let labels = vec![l(0); n];
        let edges: Vec<(u32, u32)> = (0..n as u32).map(|i| (i, (i + 1) % n as u32)).collect();
        LabeledGraph::from_unlabeled_edges(&labels, edges).unwrap()
    }

    fn path_with_twig() -> LabeledGraph {
        // backbone of length 4 with a twig on the middle vertex
        LabeledGraph::from_unlabeled_edges(
            &[l(0), l(1), l(2), l(3), l(4), l(9)],
            [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5)],
        )
        .unwrap()
    }

    #[test]
    fn skinny_constraint_satisfaction() {
        let c = SkinnyConstraint::new(4, 2);
        assert!(c.satisfied(&path(4)));
        assert!(c.satisfied(&path_with_twig()));
        assert!(!c.satisfied(&path(3)));
        assert!(!c.satisfied(&LabeledGraph::new()));
        assert_eq!(c.name(), "l-long delta-skinny");
    }

    #[test]
    fn skinny_minimal_patterns_are_paths_of_length_l() {
        let c = SkinnyConstraint::new(4, 2);
        assert!(c.is_minimal(&path(4)));
        assert!(!c.is_minimal(&path_with_twig()));
        assert!(!c.is_minimal(&path(3)));
        assert_eq!(c.minimal_pattern_size(), 4);
    }

    #[test]
    fn skinny_constraint_is_continuous_on_samples() {
        let c = SkinnyConstraint::new(4, 2);
        let samples = [path(4), path_with_twig()];
        assert!(continuity_violations(&c, samples.iter(), c.minimal_pattern_size()).is_empty());
        assert!(c.continuity_holds_for(&path_with_twig()));
    }

    #[test]
    fn skinny_constraint_reducibility_witness() {
        let c = SkinnyConstraint::new(4, 2);
        let samples = [path(3), path(4), path_with_twig()];
        let witness = reducibility_witness(&c, samples.iter(), 2);
        assert!(witness.is_some());
        assert_eq!(witness.unwrap().edge_count(), 4);
    }

    #[test]
    fn max_degree_constraint_is_not_reducible() {
        // every single-edge pattern already satisfies max-degree, so no
        // minimal satisfying pattern with >= 2 edges exists
        let c = MaxDegreeConstraint { k: 3 };
        let samples = [path(1), path(2), path(4), path_with_twig(), cycle(4)];
        assert!(reducibility_witness(&c, samples.iter(), 2).is_none());
        // but a single edge is (trivially) minimal
        assert!(reducibility_witness(&c, samples.iter(), 1).is_some());
        assert!(c.satisfied(&path(4)));
        assert!(!c.satisfied(&LabeledGraph::new()));
    }

    #[test]
    fn regular_degree_constraint_is_not_continuous() {
        let c = RegularDegreeConstraint;
        // a cycle is 2-regular; removing any edge yields a path whose interior
        // vertices have degree 2 but endpoints degree 1 -> not regular, so
        // growth from single-edge anchors can never reach a cycle
        let samples = [cycle(4), cycle(5)];
        let violations = continuity_violations(&c, samples.iter(), 1);
        assert_eq!(violations.len(), 2);
        // a single edge is 1-regular, so the anchors themselves do exist
        assert!(c.satisfied(&path(1)));
        assert_eq!(c.name(), "regular-degree");
    }

    #[test]
    fn one_edge_subpatterns_keep_connectivity() {
        let subs = one_edge_subpatterns(&path_with_twig());
        // removing the twig edge keeps the backbone; removing an interior
        // backbone edge disconnects the graph and is skipped; removing an end
        // edge keeps a shorter connected pattern
        assert!(!subs.is_empty());
        for s in &subs {
            assert!(skinny_graph::is_connected(s));
            assert_eq!(s.edge_count(), 4);
        }
    }
}
