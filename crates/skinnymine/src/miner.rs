//! The top-level SkinnyMine driver (Algorithm 1): Stage I (DiamMine) followed
//! by Stage II (LevelGrow) over every canonical-diameter cluster.

use crate::config::SkinnyMineConfig;
use crate::data::MiningData;
use crate::diam_mine::DiamMine;
use crate::error::{MineError, MineResult};
use crate::level_grow::{ClusterOutcome, LevelGrow, Seed};
use crate::result::{MiningResult, SkinnyPattern};
use crate::stage_one::mine_seeds;
use crate::stats::MiningStats;
use skinny_graph::{CsrSnapshot, GraphDatabase, LabeledGraph};
use std::borrow::Cow;
use std::cmp::Ordering;
use std::time::Instant;

/// The SkinnyMine miner.
///
/// ```
/// use skinnymine::{SkinnyMine, SkinnyMineConfig, ReportMode};
/// use skinny_graph::{LabeledGraph, Label};
///
/// // two copies of a 4-long backbone with a twig on the middle vertex
/// let labels: Vec<Label> = [0, 1, 2, 3, 4, 9, 0, 1, 2, 3, 4, 9].iter().map(|&x| Label(x)).collect();
/// let graph = LabeledGraph::from_unlabeled_edges(
///     &labels,
///     [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5), (6, 7), (7, 8), (8, 9), (9, 10), (8, 11)],
/// )
/// .unwrap();
///
/// let config = SkinnyMineConfig::new(4, 2, 2).with_report(ReportMode::All);
/// let result = SkinnyMine::new(config).mine(&graph).unwrap();
/// assert_eq!(result.patterns.len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct SkinnyMine {
    config: SkinnyMineConfig,
}

/// Indices of patterns that duplicate (are isomorphic to) an **earlier**
/// pattern of the slice, decided by the canonical-form funnel: patterns are
/// bucketed by the memoized order-invariant fingerprint every
/// [`SkinnyPattern`] carries (no recomputation, no allocation per pattern),
/// and only multi-member buckets fall through to full canonical keys — the
/// memoized [`SkinnyPattern::canon_key`] a grow worker already paid for is
/// reused, and missing keys are computed once by the scratch-reusing
/// early-abort engine.  Returns ascending indices plus the funnel counters.
pub fn duplicate_pattern_indices(patterns: &[SkinnyPattern]) -> (Vec<usize>, skinny_graph::CanonStats) {
    use std::collections::HashMap;
    let mut buckets: HashMap<u64, Vec<usize>> = HashMap::new();
    for (i, p) in patterns.iter().enumerate() {
        buckets.entry(p.canon_fingerprint).or_default().push(i);
    }
    let mut drop: Vec<usize> = Vec::new();
    let mut scratch = skinny_graph::CanonScratch::new();
    let mut fingerprint_hits = 0u64;
    let mut keys: Vec<skinny_graph::DfsCode> = Vec::new();
    for indices in buckets.values() {
        if indices.len() < 2 {
            continue;
        }
        fingerprint_hits += indices.len() as u64 - 1;
        keys.clear();
        // indices ascend (pushed in iteration order), so the first copy wins
        for &i in indices {
            let key = match &patterns[i].canon_key {
                Some(key) => key.clone(),
                None => skinny_graph::min_dfs_code_with(&patterns[i].graph, &mut scratch),
            };
            if keys.contains(&key) {
                drop.push(i);
            } else {
                keys.push(key);
            }
        }
    }
    drop.sort_unstable();
    let (full_keys, early_aborts) = scratch.counters();
    (drop, skinny_graph::CanonStats { fingerprint_hits, full_keys, early_aborts })
}

/// The original implementation of [`duplicate_pattern_indices`], retained
/// as its parity oracle (`crates/skinnymine/tests/cycle_seeds.rs`): buckets
/// by the allocating sorted-multiset
/// [`skinny_graph::GraphSignature`] and recomputes every canonical key from
/// scratch inside multi-member buckets.
pub fn duplicate_pattern_indices_reference(patterns: &[SkinnyPattern]) -> Vec<usize> {
    use std::collections::{HashMap, HashSet};
    let mut buckets: HashMap<skinny_graph::GraphSignature, Vec<usize>> = HashMap::new();
    for (i, p) in patterns.iter().enumerate() {
        buckets.entry(p.graph.signature()).or_default().push(i);
    }
    let mut drop: Vec<usize> = Vec::new();
    for indices in buckets.values() {
        if indices.len() < 2 {
            continue;
        }
        let mut seen = HashSet::new();
        // indices ascend (pushed in iteration order), so the first copy wins
        for &i in indices {
            if !seen.insert(skinny_graph::canonical_key(&patterns[i].graph)) {
                drop.push(i);
            }
        }
    }
    drop.sort_unstable();
    drop
}

/// Keeps the first copy (in the given order) of every isomorphism class,
/// folding the canonical-funnel work counters into `stats`.  Used when cycle
/// seeds are active, where one pattern can be generated by two clusters.
fn dedup_by_canonical_key(patterns: Vec<SkinnyPattern>, stats: &mut MiningStats) -> Vec<SkinnyPattern> {
    let (drop, canon_stats) = duplicate_pattern_indices(&patterns);
    stats.record_canon(canon_stats);
    if drop.is_empty() {
        return patterns;
    }
    let mut drop_iter = drop.iter().copied().peekable();
    patterns
        .into_iter()
        .enumerate()
        .filter(|(i, _)| {
            if drop_iter.peek() == Some(i) {
                drop_iter.next();
                false
            } else {
                true
            }
        })
        .map(|(_, p)| p)
        .collect()
}

/// The output order of a finished result, passed to [`SkinnyMine::finish`].
pub(crate) type PatternOrder = fn(&SkinnyPattern, &SkinnyPattern) -> Ordering;

/// The output order of direct mining and incremental refresh: largest
/// patterns first (edges, then vertices), then by cluster (diameter
/// labels), then by support.
pub(crate) fn miner_order(a: &SkinnyPattern, b: &SkinnyPattern) -> Ordering {
    b.edge_count()
        .cmp(&a.edge_count())
        .then_with(|| b.vertex_count().cmp(&a.vertex_count()))
        .then_with(|| a.diameter_labels.cmp(&b.diameter_labels))
        .then_with(|| a.support.cmp(&b.support))
}

/// The output order of [`crate::MinimalPatternIndex::request`]: edges, then
/// diameter labels.  It has drifted from [`miner_order`], which also breaks
/// ties on vertex count and support, so an index result can list tied
/// patterns in a different order from direct mining, and under
/// `max_patterns` keep a different subset.  The benchmark's traced index
/// request replays this order, so switching the index to [`miner_order`]
/// must land together with that replay.
pub(crate) fn index_order(a: &SkinnyPattern, b: &SkinnyPattern) -> Ordering {
    b.edge_count().cmp(&a.edge_count()).then_with(|| a.diameter_labels.cmp(&b.diameter_labels))
}

/// Folds per-cluster outcomes, in seed order, into the run stats and one
/// concatenated pattern list.  Owned outcomes hand over their patterns;
/// borrowed ones (the incremental miner's cached clusters) are cloned.
pub(crate) fn fold_outcomes<'o>(
    outcomes: impl IntoIterator<Item = Cow<'o, ClusterOutcome>>,
    stats: &mut MiningStats,
) -> Vec<SkinnyPattern> {
    let mut patterns = Vec::new();
    for outcome in outcomes {
        stats.merge(&outcome.stats);
        stats.level_grow.candidates_examined += outcome.examined;
        match outcome {
            Cow::Owned(outcome) => patterns.extend(outcome.patterns),
            Cow::Borrowed(outcome) => patterns.extend_from_slice(&outcome.patterns),
        }
    }
    patterns
}

impl SkinnyMine {
    /// Creates a miner with the given configuration.
    pub fn new(config: SkinnyMineConfig) -> Self {
        SkinnyMine { config }
    }

    /// The configuration of this miner.
    pub fn config(&self) -> &SkinnyMineConfig {
        &self.config
    }

    /// Mines a single data graph (the paper's Definition 8 setting).
    pub fn mine(&self, graph: &LabeledGraph) -> MineResult<MiningResult> {
        self.mine_data(MiningData::Single(graph))
    }

    /// Mines a graph-transaction database.
    pub fn mine_database(&self, db: &GraphDatabase) -> MineResult<MiningResult> {
        self.mine_data(MiningData::Transactions(db))
    }

    /// Mines either setting, in any input form.
    ///
    /// Adjacency-list input is frozen into an immutable CSR snapshot first
    /// (per-shard on the configured worker count; the snapshot is
    /// byte-identical for every thread count) and every mining pass sweeps
    /// the snapshot's flat columns.  A [`MiningData::Snapshot`] is mined as
    /// is, with byte-identical output.
    pub fn mine_data(&self, data: MiningData<'_>) -> MineResult<MiningResult> {
        self.config.validate()?;
        if data.is_empty() {
            return Err(MineError::InvalidInput { reason: "the input data contains no vertices".into() });
        }
        let mut stats = MiningStats::default();
        let tf = Instant::now();
        let snapshot = data.to_snapshot_with_threads(self.config.threads);
        if !matches!(data, MiningData::Snapshot(_)) {
            stats.freeze_seconds = tf.elapsed().as_secs_f64();
        }

        // ---------------- Stage I: DiamMine ----------------
        let t0 = Instant::now();
        let config = &self.config;
        let dm = DiamMine::new(MiningData::Snapshot(&snapshot), config.sigma, config.support)
            .with_threads(config.threads);
        let (lo, hi) = (config.length.min_len(), config.length.max_len());
        let seeds = mine_seeds(&dm, lo, hi, config.cycle_seeds, &mut stats);
        stats.diam_mine.duration = t0.elapsed();
        stats.diam_mine.patterns_out = seeds.len() as u64;
        stats.clusters = seeds.len() as u64;

        // ---------------- Stage II: LevelGrow ----------------
        let seeds: Vec<Seed<'_>> = seeds.seeds(|_| true).collect();
        let patterns = self.grow_and_finish(&snapshot, &seeds, miner_order, &mut stats);
        Ok(MiningResult { patterns, stats })
    }

    /// Stage II over seeds that are all grown afresh: [`SkinnyMine::grow_outcomes`],
    /// [`fold_outcomes`], then [`SkinnyMine::finish`] in `order`.  Direct
    /// mining and index requests run exactly this; the incremental miner runs
    /// the same three pieces with its cached outcomes mixed into the fold.
    pub(crate) fn grow_and_finish(
        &self,
        snapshot: &CsrSnapshot,
        seeds: &[Seed<'_>],
        order: PatternOrder,
        stats: &mut MiningStats,
    ) -> Vec<SkinnyPattern> {
        let t = Instant::now();
        let outcomes = self.grow_outcomes(snapshot, seeds, stats);
        let patterns = fold_outcomes(outcomes.into_iter().map(Cow::Owned), stats);
        stats.level_grow.duration = t.elapsed();
        let had_cycle_seeds = seeds.iter().any(|s| matches!(s, Seed::Cycle(_)));
        self.finish(patterns, had_cycle_seeds, order, stats)
    }

    /// The deterministic tail of every entry point: cross-cluster dedup
    /// (only when cycle seeds are in play — patterns from distinct *path*
    /// clusters are never isomorphic, but a cycle cluster can reach patterns
    /// a path cluster also reaches), the stable sort in `order`, the
    /// `max_patterns` cap, and the result-shape stats fields.  Running the
    /// identical tail over the same seed-order concatenation is what makes a
    /// maintained result byte-identical to a from-scratch mine.
    pub(crate) fn finish(
        &self,
        mut patterns: Vec<SkinnyPattern>,
        had_cycle_seeds: bool,
        order: PatternOrder,
        stats: &mut MiningStats,
    ) -> Vec<SkinnyPattern> {
        if had_cycle_seeds {
            patterns = dedup_by_canonical_key(patterns, stats);
        }
        patterns.sort_by(order);
        if let Some(cap) = self.config.max_patterns {
            patterns.truncate(cap);
        }
        stats.reported_patterns = patterns.len() as u64;
        stats.largest_pattern_edges = patterns.iter().map(|p| p.edge_count() as u64).max().unwrap_or(0);
        stats.largest_pattern_vertices = patterns.iter().map(|p| p.vertex_count() as u64).max().unwrap_or(0);
        stats.level_grow.patterns_out = patterns.len() as u64;
        patterns
    }

    /// Stage II: grows every seed's cluster and returns the per-seed
    /// [`ClusterOutcome`]s **in seed order** (the one grow schedule of every
    /// entry point; the incremental refresh caches outcomes per cluster).  Outcome stats are *not* folded here — the
    /// caller merges them in seed order, so a refresh that interleaves
    /// cached and fresh outcomes folds identically to a from-scratch run.
    ///
    /// With `threads > 1` and more than one seed the clusters run on a
    /// work-stealing pool: every seed is one task, each worker reuses a
    /// private [`LevelGrow`] plus its grow-engine scratch
    /// ([`crate::grown::GrowScratch`], carrying the rebuilt-in-place
    /// [`crate::ext_index::ExtensionTable`] and every sweep buffer).  Tasks
    /// are dispatched **cost-ordered** — largest seed first by embedding-row
    /// count (ties broken by seed index) — so a giant cluster cannot land at
    /// the tail of the queue and serialize the run.  The schedule only
    /// permutes *execution* order: results are un-permuted back into seed
    /// order, so the outcomes are byte-identical to the sequential loop for
    /// any thread count, while uneven cluster sizes are balanced by
    /// stealing.  Pool counters (tasks, steals, merge wait) are folded into
    /// `stats`.
    pub(crate) fn grow_outcomes(
        &self,
        snapshot: &CsrSnapshot,
        seeds: &[Seed<'_>],
        stats: &mut MiningStats,
    ) -> Vec<ClusterOutcome> {
        let data = MiningData::Snapshot(snapshot);
        if self.config.threads <= 1 || seeds.len() <= 1 {
            let grower = LevelGrow::new(data, &self.config);
            let mut scratch = crate::grown::GrowScratch::new();
            return seeds.iter().map(|&seed| grower.grow_seed_with(seed, &mut scratch)).collect();
        }
        let mut schedule: Vec<u32> = (0..seeds.len() as u32).collect();
        schedule.sort_by_key(|&i| (std::cmp::Reverse(seeds[i as usize].embeddings().len()), i));
        let (outcomes, counters) = skinny_pool::run_with_counters(
            self.config.threads,
            schedule.len(),
            || (LevelGrow::new(data.clone(), &self.config), crate::grown::GrowScratch::new()),
            |(grower, scratch), t| grower.grow_seed_with(seeds[schedule[t] as usize], scratch),
        );
        stats.record_pool(&counters);
        let mut slot_of_seed = vec![0u32; seeds.len()];
        for (t, &i) in schedule.iter().enumerate() {
            slot_of_seed[i as usize] = t as u32;
        }
        let mut outcomes: Vec<Option<_>> = outcomes.into_iter().map(Some).collect();
        slot_of_seed
            .iter()
            .map(|&slot| outcomes[slot as usize].take().expect("every task runs exactly once"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{LengthConstraint, ReportMode};
    use skinny_graph::Label;

    fn l(x: u32) -> Label {
        Label(x)
    }

    /// Two copies of a 4-long backbone with a middle twig, as in the
    /// level-grow tests, plus an extra frequent short path of length 2.
    fn data() -> LabeledGraph {
        let labels = vec![l(0), l(1), l(2), l(3), l(4), l(9), l(0), l(1), l(2), l(3), l(4), l(9)];
        LabeledGraph::from_unlabeled_edges(
            &labels,
            [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5), (6, 7), (7, 8), (8, 9), (9, 10), (8, 11)],
        )
        .unwrap()
    }

    #[test]
    fn end_to_end_single_graph() {
        let g = data();
        let result =
            SkinnyMine::new(SkinnyMineConfig::new(4, 2, 2).with_report(ReportMode::All)).mine(&g).unwrap();
        assert_eq!(result.patterns.len(), 2);
        assert_eq!(result.stats.clusters, 1);
        assert_eq!(result.stats.reported_patterns, 2);
        assert!(result.stats.diam_mine.patterns_out >= 1);
        assert_eq!(result.stats.largest_pattern_vertices, 6);
        // largest pattern is reported first
        assert_eq!(result.patterns[0].vertex_count(), 6);
    }

    #[test]
    fn length_range_request() {
        let g = data();
        let config = SkinnyMineConfig::new(4, 2, 2)
            .with_length(LengthConstraint::Between(3, 4))
            .with_report(ReportMode::All);
        let result = SkinnyMine::new(config).mine(&g).unwrap();
        // clusters for l = 3 (two label paths: 0..3 and 1..4) and l = 4
        assert!(result.stats.clusters >= 3);
        assert!(result.patterns.iter().any(|p| p.diameter_len == 3));
        assert!(result.patterns.iter().any(|p| p.diameter_len == 4));
        // no pattern outside the requested range
        assert!(result.patterns.iter().all(|p| p.diameter_len >= 3 && p.diameter_len <= 4));
    }

    #[test]
    fn at_least_request_stops_at_longest() {
        let g = data();
        let config = SkinnyMineConfig::new(4, 2, 2)
            .with_length(LengthConstraint::AtLeast(4))
            .with_report(ReportMode::All);
        let result = SkinnyMine::new(config).mine(&g).unwrap();
        // the longest frequent path has length 4 (twig chains break label equality)
        assert!(result.patterns.iter().all(|p| p.diameter_len == 4));
        assert!(!result.is_empty());
    }

    #[test]
    fn parallel_matches_sequential() {
        let g = data();
        let base = SkinnyMineConfig::new(4, 2, 2)
            .with_length(LengthConstraint::Between(2, 4))
            .with_report(ReportMode::All);
        let seq = SkinnyMine::new(base.clone()).mine(&g).unwrap();
        let par = SkinnyMine::new(base.with_threads(4)).mine(&g).unwrap();
        assert_eq!(seq.patterns.len(), par.patterns.len());
        let sizes = |r: &MiningResult| {
            let mut v: Vec<(usize, usize)> =
                r.patterns.iter().map(|p| (p.vertex_count(), p.edge_count())).collect();
            v.sort();
            v
        };
        assert_eq!(sizes(&seq), sizes(&par));
    }

    #[test]
    fn transaction_setting_end_to_end() {
        let t = |with_twig: bool| {
            let mut labels = vec![l(0), l(1), l(2), l(3), l(4)];
            let mut edges = vec![(0u32, 1u32), (1, 2), (2, 3), (3, 4)];
            if with_twig {
                labels.push(l(9));
                edges.push((2, 5));
            }
            LabeledGraph::from_unlabeled_edges(&labels, edges).unwrap()
        };
        let db = GraphDatabase::from_graphs(vec![t(true), t(true), t(false)]);
        let config = SkinnyMineConfig::new(4, 2, 2)
            .with_support_measure(skinny_graph::SupportMeasure::Transactions)
            .with_report(ReportMode::All);
        let result = SkinnyMine::new(config).mine_database(&db).unwrap();
        // bare backbone: support 3; backbone+twig: support 2
        assert_eq!(result.patterns.len(), 2);
        let twig = result.patterns.iter().find(|p| p.vertex_count() == 6).unwrap();
        assert_eq!(twig.support, 2);
        let bare = result.patterns.iter().find(|p| p.vertex_count() == 5).unwrap();
        assert_eq!(bare.support, 3);
    }

    #[test]
    fn empty_input_rejected() {
        let g = LabeledGraph::new();
        let err = SkinnyMine::new(SkinnyMineConfig::default()).mine(&g).unwrap_err();
        assert!(matches!(err, MineError::InvalidInput { .. }));
    }

    #[test]
    fn invalid_config_rejected() {
        let g = data();
        let err = SkinnyMine::new(SkinnyMineConfig::new(4, 2, 0)).mine(&g).unwrap_err();
        assert!(matches!(err, MineError::InvalidConfig { .. }));
    }

    #[test]
    fn max_patterns_cap_applies() {
        let g = data();
        let config = SkinnyMineConfig::new(4, 2, 2).with_report(ReportMode::All).with_max_patterns(Some(1));
        let result = SkinnyMine::new(config).mine(&g).unwrap();
        assert_eq!(result.patterns.len(), 1);
        // the cap keeps the largest pattern
        assert_eq!(result.patterns[0].vertex_count(), 6);
    }

    #[test]
    fn no_frequent_path_of_requested_length_gives_empty_result() {
        let g = data();
        let config = SkinnyMineConfig::new(10, 2, 2);
        let result = SkinnyMine::new(config).mine(&g).unwrap();
        assert!(result.is_empty());
        assert_eq!(result.stats.clusters, 0);
    }
}
