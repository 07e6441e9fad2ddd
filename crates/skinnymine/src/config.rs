//! Configuration of a SkinnyMine run.

use serde::{Deserialize, Serialize};
use skinny_graph::SupportMeasure;

/// The diameter-length constraint `l` of an (l, δ)-SPM request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LengthConstraint {
    /// Canonical diameter of length exactly `l`.
    Exactly(usize),
    /// Canonical diameter of length at least `l` (the adaptation mentioned at
    /// the end of §4; used by the Figure 14/15 scalability experiment with
    /// `l >= 4`).  The upper bound is discovered from the data.
    AtLeast(usize),
    /// Canonical diameter length in the closed interval `[lo, hi]` — the
    /// "find all δ-skinny patterns with diameter length between l1 and l2"
    /// request from the introduction.
    Between(usize, usize),
}

impl LengthConstraint {
    /// The smallest diameter length admitted.
    pub fn min_len(&self) -> usize {
        match *self {
            LengthConstraint::Exactly(l) => l,
            LengthConstraint::AtLeast(l) => l,
            LengthConstraint::Between(lo, _) => lo,
        }
    }

    /// The largest diameter length admitted, if bounded.
    pub fn max_len(&self) -> Option<usize> {
        match *self {
            LengthConstraint::Exactly(l) => Some(l),
            LengthConstraint::AtLeast(_) => None,
            LengthConstraint::Between(_, hi) => Some(hi),
        }
    }

    /// True when a diameter of length `l` satisfies the constraint.
    pub fn admits(&self, l: usize) -> bool {
        match *self {
            LengthConstraint::Exactly(want) => l == want,
            LengthConstraint::AtLeast(lo) => l >= lo,
            LengthConstraint::Between(lo, hi) => l >= lo && l <= hi,
        }
    }
}

/// Which patterns are reported in the final result set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ReportMode {
    /// Every frequent l-long δ-skinny pattern encountered (complete output as
    /// in Definition 8).  Beware: output size can be exponential in the size
    /// of large frequent structures.
    All,
    /// Closed patterns only: no frequent constraint-satisfying one-edge
    /// extension has the same support (Algorithm 3 line 12).
    Closed,
    /// Maximal patterns only: no frequent constraint-satisfying one-edge
    /// extension exists at all.
    Maximal,
}

/// How the pattern space of each canonical-diameter cluster is explored.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Exploration {
    /// Enumerate every frequent constraint-satisfying pattern of the cluster
    /// (deduplicated by canonical code).  Complete, but the number of
    /// patterns is exponential in the size of large frequent structures —
    /// use it when the constraint keeps patterns small or when the complete
    /// set (ReportMode::All) is required.
    Exhaustive,
    /// Closure jumping: support-preserving extensions are applied eagerly
    /// ("closed-pattern closure", as in CloseGraph-style miners), and the
    /// search branches only on support-dropping extensions.  This reports the
    /// closed/maximal patterns of each cluster without enumerating the
    /// exponentially many non-closed sub-patterns, and is what the
    /// experiment harness uses for the data sets with large injected
    /// patterns.
    ClosureJump,
}

/// How the canonical-diameter loop invariant is checked on each extension.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ConstraintCheckMode {
    /// The paper's fast local checks (Theorems 1–3) on the `D_H` / `D_T`
    /// indices, falling back to a full canonical-diameter recomputation only
    /// when a Constraint-III trigger fires.
    Fast,
    /// Recompute the canonical diameter of the extended pattern from scratch
    /// after every edge extension (the "naive way" of §3.3).  Used for
    /// verification and as the ablation baseline.
    Exact,
}

/// Configuration of one SkinnyMine run (the `(l, δ)`-SPM problem instance of
/// Definition 8 plus implementation knobs).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SkinnyMineConfig {
    /// Diameter length constraint `l`.
    pub length: LengthConstraint,
    /// Skinniness bound δ: every vertex must lie within distance δ of the
    /// canonical diameter.
    pub delta: u32,
    /// Minimum support threshold σ.
    pub sigma: usize,
    /// How `|E[P]|` is counted.
    pub support: SupportMeasure,
    /// Which patterns are reported.
    pub report: ReportMode,
    /// Whether the bare canonical-diameter paths (the minimal
    /// constraint-satisfying patterns) are included in the result.
    pub include_diameter_paths: bool,
    /// Constraint maintenance strategy.
    pub constraint_check: ConstraintCheckMode,
    /// Cluster exploration strategy.
    pub exploration: Exploration,
    /// Optional cap on the number of reported patterns (None = unlimited).
    pub max_patterns: Option<usize>,
    /// Optional cap on the embeddings tracked per pattern; embeddings beyond
    /// the cap are dropped *after* the support check, so frequency decisions
    /// are unaffected for thresholds `<=` the cap.
    pub max_embeddings_per_pattern: Option<usize>,
    /// Number of worker threads for growing independent canonical-diameter
    /// clusters (1 = sequential).
    pub threads: usize,
    /// Whether Stage I also seeds frequent **odd cycles** `C_{2l+1}` — the
    /// minimal non-path constraint-satisfying patterns (e.g. C₅ for `l = 2`),
    /// which Stage II cannot reach from path seeds.  Required for
    /// Definition-8 completeness on adversarial inputs.  Under an
    /// anti-monotone support measure the cycles are paired from the
    /// `l`-paths Stage I already mined; under `EmbeddingCount` and
    /// `DistinctVertexSets` it costs an extra frequent-path pass at length
    /// `2l` per admitted `l`.
    pub cycle_seeds: bool,
}

impl SkinnyMineConfig {
    /// A configuration mining l-long δ-skinny patterns at support σ with
    /// defaults suitable for the paper's experiments.
    pub fn new(l: usize, delta: u32, sigma: usize) -> Self {
        SkinnyMineConfig {
            length: LengthConstraint::Exactly(l),
            delta,
            sigma,
            support: SupportMeasure::DistinctVertexSets,
            report: ReportMode::Closed,
            include_diameter_paths: true,
            constraint_check: ConstraintCheckMode::Fast,
            exploration: Exploration::Exhaustive,
            max_patterns: None,
            max_embeddings_per_pattern: Some(10_000),
            threads: 1,
            cycle_seeds: true,
        }
    }

    /// Switches to a diameter-length range request.
    pub fn with_length(mut self, length: LengthConstraint) -> Self {
        self.length = length;
        self
    }

    /// Sets the support measure.
    pub fn with_support_measure(mut self, m: SupportMeasure) -> Self {
        self.support = m;
        self
    }

    /// Sets the report mode.
    pub fn with_report(mut self, report: ReportMode) -> Self {
        self.report = report;
        self
    }

    /// Sets the constraint checking mode.
    pub fn with_constraint_check(mut self, mode: ConstraintCheckMode) -> Self {
        self.constraint_check = mode;
        self
    }

    /// Sets the cluster exploration strategy.
    pub fn with_exploration(mut self, exploration: Exploration) -> Self {
        self.exploration = exploration;
        self
    }

    /// Sets the number of worker threads.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Enables or disables frequent-cycle seeding in Stage I.
    pub fn with_cycle_seeds(mut self, cycle_seeds: bool) -> Self {
        self.cycle_seeds = cycle_seeds;
        self
    }

    /// Sets whether the canonical-diameter paths themselves are reported.
    pub fn with_diameter_paths(mut self, include: bool) -> Self {
        self.include_diameter_paths = include;
        self
    }

    /// Sets the cap on reported patterns.
    pub fn with_max_patterns(mut self, cap: Option<usize>) -> Self {
        self.max_patterns = cap;
        self
    }

    /// The canonical serving-cache key of this configuration: the mined
    /// patterns are invariant under thread count by construction (the
    /// determinism suite asserts it), so the key normalizes it away and the
    /// same logical request shares one cache slot — and one in-flight mining
    /// run — however many threads serve it.  The cached result's stats come
    /// from whichever run filled the slot.
    pub fn canonical_request_key(&self) -> SkinnyMineConfig {
        let mut key = self.clone();
        key.threads = 1;
        key
    }

    /// Basic sanity validation of the configuration.
    pub fn validate(&self) -> Result<(), crate::error::MineError> {
        use crate::error::MineError;
        if self.length.min_len() == 0 {
            return Err(MineError::InvalidConfig {
                reason: "diameter length constraint must be at least 1".into(),
            });
        }
        if let LengthConstraint::Between(lo, hi) = self.length {
            if lo > hi {
                return Err(MineError::InvalidConfig {
                    reason: format!("invalid diameter range [{lo}, {hi}]"),
                });
            }
        }
        if self.sigma == 0 {
            return Err(MineError::InvalidConfig { reason: "support threshold must be at least 1".into() });
        }
        if self.threads == 0 {
            return Err(MineError::InvalidConfig { reason: "thread count must be at least 1".into() });
        }
        Ok(())
    }
}

impl Default for SkinnyMineConfig {
    fn default() -> Self {
        SkinnyMineConfig::new(4, 2, 2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn length_constraint_admits() {
        assert!(LengthConstraint::Exactly(5).admits(5));
        assert!(!LengthConstraint::Exactly(5).admits(4));
        assert!(LengthConstraint::AtLeast(4).admits(100));
        assert!(!LengthConstraint::AtLeast(4).admits(3));
        assert!(LengthConstraint::Between(3, 6).admits(3));
        assert!(LengthConstraint::Between(3, 6).admits(6));
        assert!(!LengthConstraint::Between(3, 6).admits(7));
    }

    #[test]
    fn length_constraint_bounds() {
        assert_eq!(LengthConstraint::Exactly(5).min_len(), 5);
        assert_eq!(LengthConstraint::Exactly(5).max_len(), Some(5));
        assert_eq!(LengthConstraint::AtLeast(4).max_len(), None);
        assert_eq!(LengthConstraint::Between(3, 6).min_len(), 3);
        assert_eq!(LengthConstraint::Between(3, 6).max_len(), Some(6));
    }

    #[test]
    fn builder_methods() {
        let c = SkinnyMineConfig::new(6, 2, 3)
            .with_report(ReportMode::All)
            .with_threads(4)
            .with_constraint_check(ConstraintCheckMode::Exact)
            .with_diameter_paths(false)
            .with_max_patterns(Some(10));
        assert_eq!(c.delta, 2);
        assert_eq!(c.sigma, 3);
        assert_eq!(c.report, ReportMode::All);
        assert_eq!(c.threads, 4);
        assert_eq!(c.constraint_check, ConstraintCheckMode::Exact);
        assert!(!c.include_diameter_paths);
        assert_eq!(c.max_patterns, Some(10));
        assert!(c.validate().is_ok());
    }

    #[test]
    fn zero_threads_clamped_by_builder() {
        let c = SkinnyMineConfig::new(4, 2, 2).with_threads(0);
        assert_eq!(c.threads, 1);
    }

    #[test]
    fn validation_rejects_bad_configs() {
        assert!(SkinnyMineConfig::new(0, 2, 2).validate().is_err());
        assert!(SkinnyMineConfig::new(4, 2, 0).validate().is_err());
        let bad_range = SkinnyMineConfig::new(4, 2, 2).with_length(LengthConstraint::Between(6, 3));
        assert!(bad_range.validate().is_err());
        assert!(SkinnyMineConfig::default().validate().is_ok());
    }
}
