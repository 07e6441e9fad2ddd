//! The pre-computed minimal-pattern index of the direct mining framework.
//!
//! In the architectural view of Figure 2, the direct mining framework
//! *pre-computes* all minimal constraint-satisfying patterns (for the skinny
//! constraint: the frequent simple paths), indexes them by the constraint
//! parameter `l` together with their embeddings, and then serves a sequence
//! of mining requests with different `l` (and δ) by fetching the relevant
//! minimal patterns and running only the constraint-preserving growth.
//!
//! [`MinimalPatternIndex`] is that index: build it once per data graph and
//! support threshold, then answer any number of [`MinimalPatternIndex::request`]s
//! without re-running Stage I.

use crate::config::{LengthConstraint, ReportMode, SkinnyMineConfig};
use crate::cycle::CyclePattern;
use crate::data::MiningData;
use crate::diam_mine::DiamMine;
use crate::error::{MineError, MineResult};
use crate::level_grow::Seed;
use crate::miner::{index_order, SkinnyMine};
use crate::path_pattern::PathPattern;
use crate::result::MiningResult;
use crate::serving::{ServeCache, ServingCacheConfig, ServingRequest, ServingResponse};
use crate::stats::{MiningStats, ServingStats};
use skinny_graph::{CsrSnapshot, GraphDatabase, LabeledGraph, SnapshotBuilder, SupportMeasure};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Pre-computed minimal constraint-satisfying patterns — frequent paths
/// indexed by length plus the frequent minimal odd cycles `C_{2l+1}` — with
/// their occurrences.
///
/// The index freezes its data into a [`CsrSnapshot`] **once at build time**;
/// Stage I runs over the snapshot's triple index and every subsequent
/// [`MinimalPatternIndex::request`] is served from the same frozen columns.
/// Only an index built over a transaction database also keeps the database
/// itself, for [`MinimalPatternIndex::update_database`].
///
/// The index is `Sync`: one instance can serve [`MinimalPatternIndex::request`]s
/// from many threads at once through the [`crate::serving`] layer — results
/// are memoized per canonical configuration in a sharded, size-bounded LRU,
/// hits are `Arc` pointer-copies, and concurrent requests for the same
/// uncached configuration coalesce onto a single in-flight mining run (the
/// Figure-2 serving deployment: heavy repeated `l` traffic against one
/// pre-computation).
#[derive(Debug)]
pub struct MinimalPatternIndex {
    /// The owned transaction database an update applies to (`None` for an
    /// index built over a single graph).
    database: Option<GraphDatabase>,
    snapshot: CsrSnapshot,
    sigma: usize,
    support: SupportMeasure,
    by_length: BTreeMap<usize, Vec<PathPattern>>,
    /// Frequent `C_{2l+1}` seeds keyed by diameter length `l`, derivable only
    /// for `2l` within the built path-length range.
    cycles_by_diameter: BTreeMap<usize, Vec<CyclePattern>>,
    /// The `max_len` bound the index was built with, so a database update
    /// can re-run Stage I over exactly the same length range.
    max_len: Option<usize>,
    build_time: std::time::Duration,
    cache: ServeCache,
}

impl Clone for MinimalPatternIndex {
    fn clone(&self) -> Self {
        MinimalPatternIndex {
            database: self.database.clone(),
            snapshot: self.snapshot.clone(),
            sigma: self.sigma,
            support: self.support,
            by_length: self.by_length.clone(),
            cycles_by_diameter: self.cycles_by_diameter.clone(),
            max_len: self.max_len,
            build_time: self.build_time,
            // cached results come along as cheap Arc copies; counters and
            // in-flight state start fresh (they describe the original's
            // traffic, not the clone's)
            cache: self.cache.clone_contents(),
        }
    }
}

impl MinimalPatternIndex {
    /// Builds the index over a single graph for every frequent path length up
    /// to `max_len` (`None` = up to the longest frequent path).
    pub fn build(
        graph: &LabeledGraph,
        sigma: usize,
        support: SupportMeasure,
        max_len: Option<usize>,
    ) -> Self {
        Self::build_with_threads(graph, sigma, support, max_len, 1)
    }

    /// Builds the index over a graph-transaction database.
    pub fn build_for_database(
        db: &GraphDatabase,
        sigma: usize,
        support: SupportMeasure,
        max_len: Option<usize>,
    ) -> Self {
        Self::build_from(MiningData::Transactions(db), Some(db.clone()), sigma, support, max_len, 1)
    }

    /// Builds the index over a single graph with a parallel Stage I.
    pub fn build_with_threads(
        graph: &LabeledGraph,
        sigma: usize,
        support: SupportMeasure,
        max_len: Option<usize>,
        threads: usize,
    ) -> Self {
        Self::build_from(MiningData::Single(graph), None, sigma, support, max_len, threads)
    }

    /// Freezes `data` once (per-shard on the worker pool) and runs Stage I
    /// over the snapshot, which all request serving then sweeps too.
    fn build_from(
        data: MiningData<'_>,
        database: Option<GraphDatabase>,
        sigma: usize,
        support: SupportMeasure,
        max_len: Option<usize>,
        threads: usize,
    ) -> Self {
        let t0 = Instant::now();
        let snapshot = data.to_snapshot_with_threads(threads).into_owned();
        let (by_length, cycles_by_diameter) = Self::stage_one(&snapshot, sigma, support, max_len, threads);
        MinimalPatternIndex {
            database,
            snapshot,
            sigma,
            support,
            by_length,
            cycles_by_diameter,
            max_len,
            build_time: t0.elapsed(),
            cache: ServeCache::new(ServingCacheConfig::default()),
        }
    }

    /// Runs Stage I over the frozen snapshot: the frequent paths of every
    /// length in range, plus the `C_{2l+1}` seeds derived from the stored
    /// length-`2l` paths (lengths beyond the built range cannot be served —
    /// documented on `request`).
    #[allow(clippy::type_complexity)]
    fn stage_one(
        snapshot: &CsrSnapshot,
        sigma: usize,
        support: SupportMeasure,
        max_len: Option<usize>,
        threads: usize,
    ) -> (BTreeMap<usize, Vec<PathPattern>>, BTreeMap<usize, Vec<CyclePattern>>) {
        let dm = DiamMine::new(MiningData::Snapshot(snapshot), sigma, support).with_threads(threads);
        let by_length = dm.mine_range(1, max_len);
        let mut cycles = BTreeMap::new();
        for (&len, paths) in &by_length {
            if len % 2 == 0 {
                let l = len / 2;
                let found = dm.cycles_from_paths(paths, l);
                if !found.is_empty() {
                    cycles.insert(l, found);
                }
            }
        }
        (by_length, cycles)
    }

    /// Replaces the serving cache with a fresh one of the given shape
    /// (shard count and total cost bound).  Cached results and counters are
    /// discarded; intended to be applied right after building.
    pub fn with_cache_config(mut self, config: ServingCacheConfig) -> Self {
        self.cache = ServeCache::new(config);
        self
    }

    /// Support threshold the index was built with.
    pub fn sigma(&self) -> usize {
        self.sigma
    }

    /// Support measure the index was built with.
    pub fn support_measure(&self) -> SupportMeasure {
        self.support
    }

    /// Time spent building the index (the pre-computation cost that is
    /// amortized over all subsequent requests).
    pub fn build_time(&self) -> std::time::Duration {
        self.build_time
    }

    /// Lengths for which at least one frequent path exists, ascending.
    pub fn available_lengths(&self) -> Vec<usize> {
        self.by_length.keys().copied().collect()
    }

    /// The longest frequent path length, if any.
    pub fn max_available_length(&self) -> Option<usize> {
        self.by_length.keys().next_back().copied()
    }

    /// The minimal path patterns (frequent paths) of length exactly `l`.
    pub fn minimal_patterns(&self, l: usize) -> &[PathPattern] {
        self.by_length.get(&l).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The minimal cycle patterns `C_{2l+1}` of diameter length `l`.
    pub fn minimal_cycles(&self, l: usize) -> &[CyclePattern] {
        self.cycles_by_diameter.get(&l).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The CSR snapshot the index serves from.
    pub fn snapshot(&self) -> &CsrSnapshot {
        &self.snapshot
    }

    /// Total number of indexed minimal patterns (paths and cycles).
    pub fn len(&self) -> usize {
        self.by_length.values().map(Vec::len).sum::<usize>()
            + self.cycles_by_diameter.values().map(Vec::len).sum::<usize>()
    }

    /// True when no frequent path was found at all.
    pub fn is_empty(&self) -> bool {
        self.by_length.is_empty()
    }

    /// Serves one mining request: grows the pre-computed minimal patterns of
    /// every admissible length under the request's δ / report settings.
    ///
    /// The request's `sigma` must not be below the index's `sigma` (the index
    /// would be missing minimal patterns otherwise) and the support measure
    /// must match.
    ///
    /// Repeated requests with an identical configuration are answered from
    /// the serving cache as a shared `Arc` handle (a pointer-copy — the
    /// result itself is never deep-cloned), concurrent requests for the
    /// same uncached configuration coalesce onto one in-flight mining run,
    /// and cluster growth of uncached requests runs on the work-stealing
    /// pool when `config.threads > 1`.  Every path returns exactly what a
    /// fresh sequential serve would.
    ///
    /// Growth, fold, dedup and cap are the direct miner's Stage II, but the
    /// result breaks ties in a different order: patterns with equal edge
    /// count and diameter labels are not ordered by vertex count and support
    /// as [`SkinnyMine::mine`] orders them.  The same patterns can therefore
    /// come back in a different order, and under `max_patterns` the index
    /// may keep a different subset.  The fix waits for a benchmark change,
    /// whose traced index request replays this order.
    ///
    /// Cycle seeds (`C_{2l+1}`) are pre-derived at build time from the
    /// stored length-`2l` paths, so an index built with a bounded `max_len`
    /// can only serve them for `2l <= max_len`; build with `max_len = None`
    /// for full Definition-8 completeness at every length.
    pub fn request(&self, config: &SkinnyMineConfig) -> MineResult<Arc<MiningResult>> {
        config.validate()?;
        if config.sigma < self.sigma {
            return Err(MineError::InvalidConfig {
                reason: format!(
                    "request support threshold {} is below the index threshold {}",
                    config.sigma, self.sigma
                ),
            });
        }
        if config.support != self.support {
            return Err(MineError::InvalidConfig {
                reason: "request support measure differs from the index support measure".into(),
            });
        }
        self.cache.get_or_serve(&config.canonical_request_key(), || self.serve_uncached(config))
    }

    /// Serves a typed [`ServingRequest`]: answers the request's full
    /// `(l, δ, σ, report)` configuration through [`MinimalPatternIndex::request`]
    /// (cache, single-flight and all), then applies the label predicates and
    /// top-k as a [`ServingResponse`] view over the shared result — filtered
    /// requests never clone a pattern and never occupy an extra cache slot.
    pub fn serve(&self, request: &ServingRequest) -> MineResult<ServingResponse> {
        request.validate()?;
        let full = self.request(&request.base_config(self.support))?;
        Ok(ServingResponse::select(full, request))
    }

    /// Parses and serves a request in the textual request language (see
    /// [`ServingRequest::parse`] for the grammar).
    pub fn serve_text(&self, text: &str) -> MineResult<ServingResponse> {
        self.serve(&ServingRequest::parse(text)?)
    }

    /// Snapshot of the serving counters (hits, misses, coalesced waiters,
    /// evictions, in-flight gauge) and current cache occupancy.
    pub fn serving_stats(&self) -> ServingStats {
        self.cache.stats()
    }

    /// Drops every cached result (serving counters keep accumulating).
    /// Benchmarks use this to start each traffic scenario cold.
    pub fn purge_cache(&self) {
        self.cache.purge();
    }

    /// The data version stamp the serving cache is at.  Starts at 0 and is
    /// bumped by every [`MinimalPatternIndex::update_database`] that
    /// changed at least one transaction; cached results stamped with an
    /// older version are never served — each is evicted per key on its
    /// next lookup and re-mined against the updated data.
    pub fn data_version(&self) -> u64 {
        self.cache.version()
    }

    /// Evicts the cached result for exactly this configuration (if any),
    /// leaving every other cached entry and its recency untouched.
    /// Returns `true` when an entry was dropped.  The next request for the
    /// configuration re-mines; unrelated traffic keeps hitting.
    pub fn invalidate(&self, config: &SkinnyMineConfig) -> bool {
        self.cache.invalidate(&config.canonical_request_key())
    }

    /// Applies an update to the owned graph-transaction database, then
    /// brings the index back in sync: only the dirty transactions are
    /// re-frozen into the CSR snapshot ([`CsrSnapshot::refreeze_dirty`],
    /// as [`crate::IncrementalMiner::refresh`] does), Stage I re-runs over
    /// the refreshed snapshot, and the data version stamp is bumped so
    /// every result cached before the update is evicted per key on its
    /// next lookup instead of being served stale.
    ///
    /// Use the marking mutators inside `mutate`
    /// ([`GraphDatabase::add_transaction`],
    /// [`GraphDatabase::remove_transaction`],
    /// [`GraphDatabase::add_edge_in`], ...) — they record which
    /// transactions changed, and only those are re-frozen.  Returns the new
    /// data version; a no-op update (nothing marked dirty) leaves the
    /// version, the snapshot and the cache untouched.
    ///
    /// Errors with [`MineError::InvalidInput`] when the index was built
    /// over a single graph ([`MinimalPatternIndex::build`]) — there is no
    /// transaction granularity to update at.
    pub fn update_database(&mut self, mutate: impl FnOnce(&mut GraphDatabase)) -> MineResult<u64> {
        let Some(db) = &mut self.database else {
            return Err(MineError::InvalidInput {
                reason: "update_database requires an index built over a transaction database".into(),
            });
        };
        mutate(db);
        let dirty = db.take_dirty();
        if dirty.is_empty() {
            return Ok(self.cache.version());
        }
        self.snapshot.refreeze_dirty(db, &dirty, &mut SnapshotBuilder::new())?;
        let (by_length, cycles) = Self::stage_one(&self.snapshot, self.sigma, self.support, self.max_len, 1);
        self.by_length = by_length;
        self.cycles_by_diameter = cycles;
        Ok(self.cache.bump_version())
    }

    /// Grows the stored seeds the request admits through the direct
    /// miner's Stage II, finished in [`index_order`].
    fn serve_uncached(&self, config: &SkinnyMineConfig) -> MiningResult {
        let admitted = |l: &usize| config.length.admits(*l);
        let paths = self.by_length.iter().filter(|(l, _)| admitted(l)).flat_map(|(_, p)| p);
        let mut seeds: Vec<Seed<'_>> = paths.map(Seed::Path).collect();
        if config.cycle_seeds {
            let cycles = self.cycles_by_diameter.iter().filter(|(l, _)| admitted(l)).flat_map(|(_, c)| c);
            seeds.extend(cycles.map(Seed::Cycle));
        }
        seeds.retain(|seed| seed.support(config.support) >= config.sigma);
        let mut stats = MiningStats { clusters: seeds.len() as u64, ..MiningStats::default() };
        let miner = SkinnyMine::new(config.clone());
        let patterns = miner.grow_and_finish(&self.snapshot, &seeds, index_order, &mut stats);
        MiningResult { patterns, stats }
    }

    /// Convenience request builder: mine all `l`-long `delta`-skinny patterns
    /// from the index at the index's own support threshold.
    pub fn request_exact(&self, l: usize, delta: u32, report: ReportMode) -> MineResult<Arc<MiningResult>> {
        let config = SkinnyMineConfig::new(l, delta, self.sigma)
            .with_support_measure(self.support)
            .with_report(report)
            .with_length(LengthConstraint::Exactly(l));
        self.request(&config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skinny_graph::Label;

    fn l(x: u32) -> Label {
        Label(x)
    }

    fn data() -> LabeledGraph {
        // two copies of backbone 0..4 with a twig on the middle
        let labels = vec![l(0), l(1), l(2), l(3), l(4), l(9), l(0), l(1), l(2), l(3), l(4), l(9)];
        LabeledGraph::from_unlabeled_edges(
            &labels,
            [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5), (6, 7), (7, 8), (8, 9), (9, 10), (8, 11)],
        )
        .unwrap()
    }

    #[test]
    fn index_contains_all_lengths() {
        let g = data();
        let idx = MinimalPatternIndex::build(&g, 2, SupportMeasure::DistinctVertexSets, None);
        assert_eq!(idx.available_lengths(), vec![1, 2, 3, 4]);
        assert_eq!(idx.max_available_length(), Some(4));
        assert!(!idx.is_empty());
        assert!(idx.len() >= 4);
        assert_eq!(idx.minimal_patterns(4).len(), 1);
        assert!(idx.minimal_patterns(9).is_empty());
        assert_eq!(idx.sigma(), 2);
        assert_eq!(idx.support_measure(), SupportMeasure::DistinctVertexSets);
    }

    #[test]
    fn request_matches_direct_mining() {
        let g = data();
        let idx = MinimalPatternIndex::build(&g, 2, SupportMeasure::DistinctVertexSets, None);
        let config = SkinnyMineConfig::new(4, 2, 2).with_report(ReportMode::All);
        let via_index = idx.request(&config).unwrap();
        let direct = SkinnyMine::new(config).mine(&g).unwrap();
        assert_eq!(via_index.patterns.len(), direct.patterns.len());
        let sizes = |r: &MiningResult| {
            let mut v: Vec<usize> = r.patterns.iter().map(|p| p.edge_count()).collect();
            v.sort();
            v
        };
        assert_eq!(sizes(&via_index), sizes(&direct));
        // the index serves the request without re-running Stage I
        assert_eq!(via_index.stats.diam_mine.duration, std::time::Duration::ZERO);
    }

    #[test]
    fn repeated_requests_with_varied_l() {
        let g = data();
        let idx = MinimalPatternIndex::build(&g, 2, SupportMeasure::DistinctVertexSets, None);
        for l_req in 1..=4 {
            let r = idx.request_exact(l_req, 2, ReportMode::All).unwrap();
            assert!(r.patterns.iter().all(|p| p.diameter_len == l_req));
            assert!(!r.is_empty(), "length {l_req} should yield patterns");
        }
        // a length with no frequent path yields an empty result, not an error
        let r = idx.request_exact(7, 2, ReportMode::All).unwrap();
        assert!(r.is_empty());
    }

    #[test]
    fn request_rejects_lower_sigma_or_other_measure() {
        let g = data();
        let idx = MinimalPatternIndex::build(&g, 2, SupportMeasure::DistinctVertexSets, None);
        let lower_sigma = SkinnyMineConfig::new(4, 2, 1);
        assert!(idx.request(&lower_sigma).is_err());
        let other_measure =
            SkinnyMineConfig::new(4, 2, 2).with_support_measure(SupportMeasure::EmbeddingCount);
        assert!(idx.request(&other_measure).is_err());
        // higher sigma is fine: seeds are re-filtered
        let higher_sigma = SkinnyMineConfig::new(4, 2, 3);
        let r = idx.request(&higher_sigma).unwrap();
        assert!(r.is_empty());
    }

    #[test]
    fn bounded_build_length() {
        let g = data();
        let idx = MinimalPatternIndex::build(&g, 2, SupportMeasure::DistinctVertexSets, Some(2));
        assert_eq!(idx.available_lengths(), vec![1, 2]);
    }

    #[test]
    fn cache_hits_share_one_arc() {
        let g = data();
        let idx = MinimalPatternIndex::build(&g, 2, SupportMeasure::DistinctVertexSets, None);
        let config = SkinnyMineConfig::new(4, 2, 2).with_report(ReportMode::All);
        let first = idx.request(&config).unwrap();
        let second = idx.request(&config).unwrap();
        assert!(Arc::ptr_eq(&first, &second), "a cache hit must be a pointer-copy");
        // the thread count normalizes onto the same slot
        let pooled = idx.request(&config.clone().with_threads(8)).unwrap();
        assert!(Arc::ptr_eq(&first, &pooled));
        let stats = idx.serving_stats();
        assert_eq!((stats.hits, stats.misses, stats.mining_runs), (2, 1, 1));
        assert_eq!(stats.cached_entries, 1);
        assert_eq!(stats.in_flight, 0);
    }

    #[test]
    fn purge_cache_forces_a_fresh_run() {
        let g = data();
        let idx = MinimalPatternIndex::build(&g, 2, SupportMeasure::DistinctVertexSets, None)
            .with_cache_config(ServingCacheConfig::new(2, 64));
        let config = SkinnyMineConfig::new(3, 2, 2).with_report(ReportMode::All);
        idx.request(&config).unwrap();
        idx.purge_cache();
        assert_eq!(idx.serving_stats().cached_entries, 0);
        idx.request(&config).unwrap();
        assert_eq!(idx.serving_stats().mining_runs, 2, "a purged entry is re-mined");
    }

    #[test]
    fn clone_carries_the_warm_cache() {
        let g = data();
        let idx = MinimalPatternIndex::build(&g, 2, SupportMeasure::DistinctVertexSets, None);
        let config = SkinnyMineConfig::new(4, 2, 2).with_report(ReportMode::All);
        let original = idx.request(&config).unwrap();
        let copy = idx.clone();
        let stats = copy.serving_stats();
        assert_eq!(stats.cached_entries, 1, "the clone starts with the warm cache");
        assert_eq!(stats.requests(), 0, "but with its own fresh counters");
        let served = copy.request(&config).unwrap();
        assert!(Arc::ptr_eq(&original, &served), "the clone shares the cached Arc");
        assert_eq!(copy.serving_stats().mining_runs, 0);
    }

    #[test]
    fn typed_requests_are_views_over_the_cached_result() {
        let g = data();
        let idx = MinimalPatternIndex::build(&g, 2, SupportMeasure::DistinctVertexSets, None);
        let all = idx.serve_text("l=2 delta=2 sigma=2 report=all").unwrap();
        assert!(!all.is_empty());
        // label 9 sits on the twig: forbidding it keeps only pure-backbone
        // patterns, requiring it keeps only twig-touching ones — together
        // they partition the full result
        let with_twig = idx.serve_text("l=2 delta=2 sigma=2 report=all require=9").unwrap();
        let without_twig = idx.serve_text("l=2 delta=2 sigma=2 report=all forbid=9").unwrap();
        assert_eq!(with_twig.len() + without_twig.len(), all.len());
        assert!(with_twig.patterns().all(|p| p.graph.labels().contains(&l(9))));
        assert!(without_twig.patterns().all(|p| !p.graph.labels().contains(&l(9))));
        // all three views share the same cached full result — one mining run
        assert!(Arc::ptr_eq(all.full_result(), with_twig.full_result()));
        assert!(Arc::ptr_eq(all.full_result(), without_twig.full_result()));
        assert_eq!(idx.serving_stats().mining_runs, 1);
        // top-k keeps the k highest supports
        let top = idx.serve_text("l=2 delta=2 sigma=2 report=all top=1").unwrap();
        assert_eq!(top.len(), 1);
        let best = top.patterns().next().unwrap().support;
        assert!(all.patterns().all(|p| p.support <= best));
    }

    #[test]
    fn invalidate_evicts_exactly_one_key() {
        let g = data();
        let idx = MinimalPatternIndex::build(&g, 2, SupportMeasure::DistinctVertexSets, None);
        let c3 = SkinnyMineConfig::new(3, 2, 2).with_report(ReportMode::All);
        let c4 = SkinnyMineConfig::new(4, 2, 2).with_report(ReportMode::All);
        idx.request(&c3).unwrap();
        let four = idx.request(&c4).unwrap();
        assert!(idx.invalidate(&c3));
        assert!(!idx.invalidate(&c3), "the key is already gone");
        assert_eq!(idx.serving_stats().cached_entries, 1);
        // the untouched key still hits as the same Arc
        let again = idx.request(&c4).unwrap();
        assert!(Arc::ptr_eq(&four, &again));
        // the invalidated key re-mines
        idx.request(&c3).unwrap();
        let stats = idx.serving_stats();
        assert_eq!(stats.mining_runs, 3);
        assert_eq!(stats.invalidations, 1);
    }

    #[test]
    fn update_database_bumps_the_version_and_serves_fresh_results() {
        let g = data();
        let db = GraphDatabase::from_graphs(vec![g.clone(), g.clone()]);
        let mut idx = MinimalPatternIndex::build_for_database(&db, 2, SupportMeasure::Transactions, None);
        let config = SkinnyMineConfig::new(2, 2, 2)
            .with_support_measure(SupportMeasure::Transactions)
            .with_report(ReportMode::All);
        let before = idx.request(&config).unwrap();
        assert!(!before.patterns.is_empty());
        assert_eq!(idx.data_version(), 0);
        // a no-op update changes nothing: no dirt, no bump, cache warm
        let v = idx.update_database(|_| {}).unwrap();
        assert_eq!(v, 0);
        assert_eq!(idx.serving_stats().cached_entries, 1);
        // drop the second transaction: transaction support halves and no
        // pattern reaches sigma = 2 any more
        let v = idx
            .update_database(|db| {
                db.remove_transaction(1).unwrap();
            })
            .unwrap();
        assert_eq!((v, idx.data_version()), (1, 1));
        // the stale cached entry is evicted per key on lookup and re-mined
        // against the updated data
        let after = idx.request(&config).unwrap();
        assert!(!Arc::ptr_eq(&before, &after), "a stale Arc must never be served");
        assert!(after.patterns.is_empty(), "one transaction cannot reach sigma = 2");
        let stats = idx.serving_stats();
        assert_eq!(stats.invalidations, 1);
        assert_eq!(stats.mining_runs, 2);
        assert_eq!(stats.data_version, 1);
        // the refreshed index answers exactly like one rebuilt from scratch
        let mut updated = db;
        updated.remove_transaction(1).unwrap();
        let rebuilt =
            MinimalPatternIndex::build_for_database(&updated, 2, SupportMeasure::Transactions, None);
        let fresh = rebuilt.request(&config).unwrap();
        assert_eq!(format!("{:?}", after.patterns), format!("{:?}", fresh.patterns));
    }

    #[test]
    fn update_database_tracks_edge_level_dirt() {
        let g = data();
        let db = GraphDatabase::from_graphs(vec![g.clone(), g.clone()]);
        let mut idx = MinimalPatternIndex::build_for_database(&db, 2, SupportMeasure::Transactions, None);
        let config = SkinnyMineConfig::new(1, 2, 2)
            .with_support_measure(SupportMeasure::Transactions)
            .with_report(ReportMode::All);
        let before = idx.request(&config).unwrap();
        // add one edge with a brand-new label pair to both transactions:
        // a new frequent length-1 path appears
        let grow = |db: &mut GraphDatabase| {
            for t in 0..2 {
                let v = db.add_vertex_in(t, l(77)).unwrap();
                db.add_edge_in(t, skinny_graph::VertexId(0), v, l(0)).unwrap();
            }
        };
        idx.update_database(grow).unwrap();
        let after = idx.request(&config).unwrap();
        assert!(after.patterns.len() > before.patterns.len(), "the new edge must be mined");
        let mut updated = db;
        grow(&mut updated);
        let rebuilt =
            MinimalPatternIndex::build_for_database(&updated, 2, SupportMeasure::Transactions, None);
        let fresh = rebuilt.request(&config).unwrap();
        assert_eq!(format!("{:?}", after.patterns), format!("{:?}", fresh.patterns));
    }

    #[test]
    fn update_database_rejects_a_single_graph_index() {
        let g = data();
        let mut idx = MinimalPatternIndex::build(&g, 2, SupportMeasure::DistinctVertexSets, None);
        assert!(idx.update_database(|_| {}).is_err());
    }

    #[test]
    fn database_index() {
        let g = data();
        let db = GraphDatabase::from_graphs(vec![g.clone(), g]);
        let idx = MinimalPatternIndex::build_for_database(&db, 2, SupportMeasure::Transactions, Some(4));
        assert!(idx.available_lengths().contains(&4));
        let r = idx.request_exact(4, 2, ReportMode::All).unwrap();
        assert!(!r.is_empty());
    }
}
