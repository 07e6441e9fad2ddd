//! Incremental maintenance under graph updates — delta-driven re-mining.
//!
//! [`IncrementalMiner`] owns a [`GraphDatabase`] plus everything a
//! from-scratch mine would have computed from it, and keeps the mined
//! [`MiningResult`] up to date under per-transaction mutations without
//! re-mining the whole corpus:
//!
//! 1. **Snapshot delta** — only the dirty transactions' CSR snapshots are
//!    re-frozen, through the zero-alloc [`SnapshotBuilder::build_into`] warm
//!    path (appends use [`CsrSnapshot::push_transaction`]).
//! 2. **Stage-I delta** — length-1 support is additive across transactions:
//!    the miner maintains the **unfiltered** level-1 [`PatternTable`], drops
//!    the dirty transactions' rows, re-seeds exactly those transactions, and
//!    stitches the re-seeded rows back in transaction order
//!    ([`OccurrenceStore::merge_by_transaction`] — every slot's rows are
//!    nondecreasing in transaction because seeding walks transactions in
//!    ascending order, so a two-pointer merge restores the exact sequential
//!    row order).  Finalizing (dedup + σ-filter + key-sort) the maintained
//!    table then yields the exact from-scratch frequent-edge set — including
//!    patterns whose support crossed σ in either direction — and the rest of
//!    the doubling ladder is a pure function of that set, injected via
//!    [`DiamMine::with_frequent_edges`].
//! 3. **Stage-II delta** — every seed's grown [`ClusterOutcome`] is cached.
//!    A cluster is re-grown only when its seed's embeddings changed or any
//!    of its embedding transactions is dirty (checked against the cached
//!    sorted transaction list, not by scanning rows); every other cluster's
//!    mined output is reused verbatim.  Reuse is sound because growth reads
//!    data only inside the transactions of the seed's embedding rows: equal
//!    seed embeddings over exclusively-clean transactions see bit-identical
//!    data, hence produce a bit-identical outcome.
//!
//! The maintained result is **byte-identical** to a from-scratch
//! [`SkinnyMine::mine_database`] after every refresh (property-tested over
//! arbitrary update sequences and thread counts):
//! per-seed outcomes are concatenated in seed order and the identical
//! deterministic tail (cross-cluster dedup iff cycle seeds, stable global
//! sort, `max_patterns` cap) runs over them.

use crate::config::SkinnyMineConfig;
use crate::cycle::CycleKey;
use crate::data::MiningData;
use crate::diam_mine::DiamMine;
use crate::error::{MineError, MineResult};
use crate::level_grow::{ClusterOutcome, Seed};
use crate::miner::SkinnyMine;
use crate::path_pattern::{PathKey, PatternTable};
use crate::result::MiningResult;
use crate::stats::MiningStats;
use skinny_graph::{CsrSnapshot, GraphDatabase, OccurrenceStore, SnapshotBuilder};
use std::collections::{BTreeSet, HashMap};
use std::time::Instant;

/// The canonical identity of a Stage-II seed — the cluster cache key.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum SeedKey {
    /// A path seed's canonical key.
    Path(PathKey),
    /// A cycle seed's canonical key.
    Cycle(CycleKey),
}

impl SeedKey {
    fn of(seed: &Seed) -> SeedKey {
        match seed {
            Seed::Path(p) => SeedKey::Path(p.key.clone()),
            Seed::Cycle(c) => SeedKey::Cycle(c.key.clone()),
        }
    }
}

/// One cached cluster: the seed it was grown from, the sorted distinct
/// transactions of the seed's embeddings (the per-transaction index the
/// dirty-set intersection runs against), and the grown outcome.
#[derive(Debug, Clone)]
struct CachedCluster {
    seed: Seed,
    txns: Vec<u32>,
    outcome: ClusterOutcome,
}

impl CachedCluster {
    fn embeddings(&self) -> &OccurrenceStore {
        match &self.seed {
            Seed::Path(p) => &p.embeddings,
            Seed::Cycle(c) => &c.embeddings,
        }
    }
}

/// True when the sorted transaction list and the dirty set share no element.
fn disjoint(txns: &[u32], dirty: &BTreeSet<usize>) -> bool {
    txns.iter().all(|&t| !dirty.contains(&(t as usize)))
}

/// A miner that owns its database and maintains the mined result under
/// per-transaction updates.
///
/// ```
/// use skinnymine::{IncrementalMiner, SkinnyMineConfig, ReportMode};
/// use skinny_graph::{GraphDatabase, Label, LabeledGraph, VertexId};
///
/// let path = |n: u32| {
///     let labels: Vec<Label> = (0..n).map(Label).collect();
///     let edges: Vec<(u32, u32)> = (0..n - 1).map(|i| (i, i + 1)).collect();
///     LabeledGraph::from_unlabeled_edges(&labels, edges).unwrap()
/// };
/// let db = GraphDatabase::from_graphs(vec![path(5), path(5)]);
/// let config = SkinnyMineConfig::new(4, 2, 2)
///     .with_support_measure(skinny_graph::SupportMeasure::Transactions)
///     .with_report(ReportMode::All);
/// let mut inc = IncrementalMiner::new(config, db).unwrap();
/// assert!(!inc.result().is_empty());
///
/// // dropping one copy pushes the backbone below σ = 2
/// inc.database_mut().remove_transaction(1).unwrap();
/// assert!(inc.refresh().unwrap().is_empty());
/// ```
#[derive(Debug)]
pub struct IncrementalMiner {
    miner: SkinnyMine,
    db: GraphDatabase,
    /// Maintained per-transaction CSR snapshot.
    snapshot: CsrSnapshot,
    /// Warm builder reused by every dirty-transaction re-freeze.
    builder: SnapshotBuilder,
    /// The maintained **unfiltered** level-1 pattern table.
    level1: PatternTable,
    /// Cached grown clusters, keyed by seed identity.
    clusters: HashMap<SeedKey, CachedCluster>,
    /// The result of the last full mine or refresh.
    last: MiningResult,
}

impl IncrementalMiner {
    /// Mines `db` from scratch and takes ownership of it for incremental
    /// maintenance.  Any dirty marks already on `db` are absorbed by the
    /// full mine.
    pub fn new(config: SkinnyMineConfig, mut db: GraphDatabase) -> MineResult<Self> {
        config.validate()?;
        if db.total_vertices() == 0 {
            return Err(MineError::InvalidInput { reason: "the input data contains no vertices".into() });
        }
        db.clear_dirty();
        let miner = SkinnyMine::new(config.clone());
        let builder = SnapshotBuilder::new();
        let mut stats = MiningStats::default();
        let tf = Instant::now();
        let snapshot = CsrSnapshot::from_database_with_threads(&db, config.threads);
        stats.freeze_seconds = tf.elapsed().as_secs_f64();

        // Stage I, keeping the unfiltered level-1 table for maintenance.
        let t0 = Instant::now();
        let dm = DiamMine::new(MiningData::Snapshot(&snapshot), config.sigma, config.support)
            .with_threads(config.threads);
        let level1 = dm.level1_table();
        let finalized = dm.finalize(level1.clone_frequent(config.sigma, config.support));
        let seeds = miner.mine_seeds(&snapshot, Some(finalized), &mut stats);
        stats.diam_mine.duration = t0.elapsed();
        stats.diam_mine.patterns_out = seeds.len() as u64;
        stats.clusters = seeds.len() as u64;

        // Stage II, caching every cluster's outcome.
        let t1 = Instant::now();
        let outcomes = miner.grow_outcomes(&snapshot, &seeds, &mut stats);
        let had_cycle_seeds = seeds.iter().any(|s| matches!(s, Seed::Cycle(_)));
        let mut patterns = Vec::new();
        let mut clusters = HashMap::with_capacity(seeds.len());
        let mut txn_scratch = Vec::new();
        for (seed, outcome) in seeds.into_iter().zip(outcomes) {
            stats.merge(&outcome.stats);
            stats.level_grow.candidates_examined += outcome.examined;
            patterns.extend(outcome.patterns.iter().cloned());
            let mut cached = CachedCluster { txns: Vec::new(), seed, outcome };
            cached.embeddings().distinct_transactions_into(&mut txn_scratch);
            cached.txns = txn_scratch.clone();
            clusters.insert(SeedKey::of(&cached.seed), cached);
        }
        stats.level_grow.duration = t1.elapsed();
        let patterns = miner.finish(patterns, had_cycle_seeds, &mut stats);
        // release the borrow of `snapshot` before moving it into the miner
        drop(dm);

        let last = MiningResult { patterns, stats };
        Ok(IncrementalMiner { miner, db, snapshot, builder, level1, clusters, last })
    }

    /// The owned database.  Mutate it through
    /// [`IncrementalMiner::database_mut`] and call
    /// [`IncrementalMiner::refresh`] to fold the updates into the result.
    pub fn database(&self) -> &GraphDatabase {
        &self.db
    }

    /// Mutable access to the owned database — the update entry point; the
    /// database records which transactions the mutations dirty.
    pub fn database_mut(&mut self) -> &mut GraphDatabase {
        &mut self.db
    }

    /// The result of the last full mine or refresh.
    pub fn result(&self) -> &MiningResult {
        &self.last
    }

    /// The mining configuration.
    pub fn config(&self) -> &SkinnyMineConfig {
        self.miner.config()
    }

    /// Heap bytes held by the maintained state beyond the database itself:
    /// the per-transaction CSR snapshot, the unfiltered level-1 pattern
    /// table, and the cluster cache's seed embeddings and transaction
    /// indexes — the memory price of delta refreshes instead of full
    /// re-mines (reported by the incremental bench section).
    pub fn maintained_bytes(&self) -> usize {
        let snapshot = self.snapshot.heap_bytes();
        let clusters: usize = self
            .clusters
            .values()
            .map(|c| c.embeddings().heap_bytes() + c.txns.capacity() * std::mem::size_of::<u32>())
            .sum();
        snapshot + self.level1.heap_bytes() + clusters
    }

    /// Folds all updates since the last refresh into the maintained result
    /// and returns it.  The result is byte-identical to a from-scratch
    /// [`SkinnyMine::mine_database`] over the current database state.
    ///
    /// With no pending updates this is a no-op returning the cached result —
    /// it performs **zero heap allocations** (pinned in
    /// `tests/alloc_hot_loops.rs`).
    pub fn refresh(&mut self) -> MineResult<&MiningResult> {
        let dirty = self.db.take_dirty();
        if dirty.is_empty() {
            return Ok(&self.last);
        }
        let tm = Instant::now();
        let config = self.miner.config().clone();
        let mut stats = MiningStats::default();

        // 1. Snapshot delta: re-freeze exactly the dirty transactions.
        let tf = Instant::now();
        for &t in &dirty {
            let g = self.db.get(t)?;
            if t < self.snapshot.len() {
                self.snapshot.refreeze_transaction(t, g, &mut self.builder);
            } else {
                // BTreeSet iteration ascends, so appended transactions
                // arrive in index order.
                let appended = self.snapshot.push_transaction(g, &mut self.builder);
                debug_assert_eq!(appended, t);
            }
        }
        stats.freeze_seconds = tf.elapsed().as_secs_f64();
        let snapshot = &self.snapshot;

        // 2. Stage-I delta: retain clean rows, re-seed dirty transactions,
        //    stitch in transaction order, then finalize the maintained table.
        let t0 = Instant::now();
        let dm = DiamMine::new(MiningData::Snapshot(snapshot), config.sigma, config.support)
            .with_threads(config.threads);
        // BTreeSet iteration ascends, matching remove_transactions' contract;
        // slots untouched by the delta are skipped without a row scan.
        let dirty_txns: Vec<u32> = dirty.iter().map(|&t| t as u32).collect();
        self.level1.remove_transactions(&dirty_txns);
        let mut partial = PatternTable::new();
        for &t in &dirty {
            if t < snapshot.len() {
                dm.seed_transactions(t..t + 1, &mut partial);
            }
        }
        self.level1.merge_by_transaction(partial);
        // σ-filter before cloning: the read of the maintained table costs
        // O(frequent set), not O(corpus)
        let finalized = dm.finalize(self.level1.clone_frequent(config.sigma, config.support));
        let seeds = self.miner.mine_seeds(snapshot, Some(finalized), &mut stats);
        stats.diam_mine.duration = t0.elapsed();
        stats.diam_mine.patterns_out = seeds.len() as u64;
        stats.clusters = seeds.len() as u64;

        // 3. Stage-II delta: reuse every cluster whose seed embeddings are
        //    unchanged and touch no dirty transaction; re-grow the rest.
        let t1 = Instant::now();
        let mut reusable = vec![false; seeds.len()];
        let mut regrow: Vec<Seed> = Vec::new();
        for (i, seed) in seeds.iter().enumerate() {
            let embeddings = match seed {
                Seed::Path(p) => &p.embeddings,
                Seed::Cycle(c) => &c.embeddings,
            };
            reusable[i] = self
                .clusters
                .get(&SeedKey::of(seed))
                .is_some_and(|c| disjoint(&c.txns, &dirty) && c.embeddings() == embeddings);
            if !reusable[i] {
                regrow.push(seed.clone());
            }
        }
        let fresh = self.miner.grow_outcomes(snapshot, &regrow, &mut stats);
        let had_cycle_seeds = seeds.iter().any(|s| matches!(s, Seed::Cycle(_)));

        // Fold outcomes in seed order — identical to a from-scratch run —
        // and rebuild the cluster cache for the next refresh.
        let mut fresh = fresh.into_iter();
        let mut patterns = Vec::new();
        let mut clusters = HashMap::with_capacity(seeds.len());
        let mut txn_scratch = Vec::new();
        for (i, seed) in seeds.into_iter().enumerate() {
            let key = SeedKey::of(&seed);
            let cached = if reusable[i] {
                stats.clusters_reused += 1;
                let mut cached = self.clusters.remove(&key).expect("reusable clusters are cached");
                cached.seed = seed;
                cached
            } else {
                stats.clusters_regrown += 1;
                let outcome = fresh.next().expect("one fresh outcome per re-grown seed");
                let mut cached = CachedCluster { seed, txns: Vec::new(), outcome };
                cached.embeddings().distinct_transactions_into(&mut txn_scratch);
                cached.txns = txn_scratch.clone();
                cached
            };
            stats.merge(&cached.outcome.stats);
            stats.level_grow.candidates_examined += cached.outcome.examined;
            patterns.extend(cached.outcome.patterns.iter().cloned());
            clusters.insert(key, cached);
        }
        stats.level_grow.duration = t1.elapsed();
        let patterns = self.miner.finish(patterns, had_cycle_seeds, &mut stats);

        stats.transactions_dirty = dirty.len() as u64;
        stats.maintain_seconds = tm.elapsed().as_secs_f64();
        self.clusters = clusters;
        self.last = MiningResult { patterns, stats };
        Ok(&self.last)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ReportMode;
    use skinny_graph::{Label, LabeledGraph, SupportMeasure, VertexId};

    fn l(x: u32) -> Label {
        Label(x)
    }

    /// A 4-long backbone with a twig on the middle vertex.
    fn backbone(with_twig: bool) -> LabeledGraph {
        let mut labels = vec![l(0), l(1), l(2), l(3), l(4)];
        let mut edges = vec![(0u32, 1u32), (1, 2), (2, 3), (3, 4)];
        if with_twig {
            labels.push(l(9));
            edges.push((2, 5));
        }
        LabeledGraph::from_unlabeled_edges(&labels, edges).unwrap()
    }

    fn config() -> SkinnyMineConfig {
        SkinnyMineConfig::new(4, 2, 2)
            .with_support_measure(SupportMeasure::Transactions)
            .with_report(ReportMode::All)
    }

    /// Full order-sensitive rendering of the reported patterns — graphs,
    /// embeddings, flags and memoized canonical data (the byte-identity
    /// comparand; stats carry timings and are inherently run-dependent).
    fn pattern_bytes(r: &MiningResult) -> String {
        format!("{:?}", r.patterns)
    }

    fn assert_parity(inc: &IncrementalMiner) {
        let full = SkinnyMine::new(inc.config().clone()).mine_database(inc.database()).unwrap();
        assert_eq!(
            pattern_bytes(inc.result()),
            pattern_bytes(&full),
            "maintained result must be byte-identical to a from-scratch mine"
        );
    }

    #[test]
    fn initial_mine_matches_from_scratch() {
        let db = GraphDatabase::from_graphs(vec![backbone(true), backbone(true), backbone(false)]);
        let inc = IncrementalMiner::new(config(), db).unwrap();
        assert_parity(&inc);
        assert_eq!(inc.result().patterns.len(), 2);
    }

    #[test]
    fn refresh_tracks_edge_and_vertex_updates() {
        let db = GraphDatabase::from_graphs(vec![backbone(true), backbone(true), backbone(false)]);
        let mut inc = IncrementalMiner::new(config(), db).unwrap();

        // give transaction 2 a twig too: twig support rises to 3
        let v = inc.database_mut().add_vertex_in(2, l(9)).unwrap();
        inc.database_mut().add_edge_in(2, VertexId(2), v, Label::DEFAULT_EDGE).unwrap();
        let result = inc.refresh().unwrap();
        assert_eq!(result.stats.transactions_dirty, 1);
        let twig = result.patterns.iter().find(|p| p.vertex_count() == 6).unwrap();
        assert_eq!(twig.support, 3);
        assert_parity(&inc);

        // remove it again: back to support 2
        inc.database_mut().remove_vertex_in(2, v).unwrap();
        inc.refresh().unwrap();
        assert_parity(&inc);

        // break a backbone edge in transaction 0: support of the long path
        // drops below σ = 2... but transaction 1 + 2 still carry it
        inc.database_mut().remove_edge_in(0, VertexId(1), VertexId(2)).unwrap();
        inc.refresh().unwrap();
        assert_parity(&inc);
    }

    #[test]
    fn refresh_tracks_transaction_add_and_remove() {
        let db = GraphDatabase::from_graphs(vec![backbone(true), backbone(false)]);
        let mut inc = IncrementalMiner::new(config(), db).unwrap();
        assert_parity(&inc);

        inc.database_mut().add_transaction(backbone(true));
        let result = inc.refresh().unwrap();
        assert!(result.patterns.iter().any(|p| p.vertex_count() == 6 && p.support == 2));
        assert_parity(&inc);

        inc.database_mut().remove_transaction(0).unwrap();
        inc.refresh().unwrap();
        assert_parity(&inc);
    }

    #[test]
    fn clusters_untouched_by_the_delta_are_reused() {
        // two independent label families; updating one must not re-grow the
        // other's clusters
        let shifted = |offset: u32| {
            let labels: Vec<Label> = (0..5).map(|i| l(offset + i)).collect();
            LabeledGraph::from_unlabeled_edges(&labels, [(0u32, 1u32), (1, 2), (2, 3), (3, 4)]).unwrap()
        };
        let db = GraphDatabase::from_graphs(vec![shifted(0), shifted(0), shifted(100), shifted(100)]);
        let mut inc = IncrementalMiner::new(config(), db).unwrap();
        assert_eq!(inc.result().patterns.len(), 2);

        // perturb only the second family
        let v = inc.database_mut().add_vertex_in(3, l(200)).unwrap();
        inc.database_mut().add_edge_in(3, VertexId(2), v, Label::DEFAULT_EDGE).unwrap();
        let result = inc.refresh().unwrap();
        assert_eq!(result.stats.clusters_reused, 1, "family-0 cluster must be reused");
        assert!(result.stats.clusters_regrown >= 1);
        assert_parity(&inc);
    }

    #[test]
    fn maintained_bytes_counts_snapshot_table_and_cluster_cache() {
        let db = GraphDatabase::from_graphs(vec![backbone(true), backbone(true)]);
        let snapshot_bytes = CsrSnapshot::from_database(&db).heap_bytes();
        let inc = IncrementalMiner::new(config(), db).unwrap();
        assert!(snapshot_bytes > 0);
        assert!(
            inc.maintained_bytes() > snapshot_bytes,
            "the level-1 table and the cluster cache come on top of the snapshot"
        );
    }

    #[test]
    fn noop_refresh_returns_last_result() {
        let db = GraphDatabase::from_graphs(vec![backbone(true), backbone(true)]);
        let mut inc = IncrementalMiner::new(config(), db).unwrap();
        let before = pattern_bytes(inc.result());
        let after = pattern_bytes(inc.refresh().unwrap());
        assert_eq!(before, after);
        assert_eq!(inc.result().stats.transactions_dirty, 0);
    }

    #[test]
    fn parity_holds_across_threads() {
        let db = GraphDatabase::from_graphs(vec![backbone(true), backbone(true), backbone(false)]);
        for threads in [1usize, 2, 8] {
            let mut inc = IncrementalMiner::new(config().with_threads(threads), db.clone()).unwrap();
            let w = inc.database_mut().add_vertex_in(2, l(9)).unwrap();
            inc.database_mut().add_edge_in(2, VertexId(2), w, Label::DEFAULT_EDGE).unwrap();
            inc.database_mut().remove_edge_in(0, VertexId(0), VertexId(1)).unwrap();
            inc.refresh().unwrap();
            assert_parity(&inc);
            inc.database_mut().add_transaction(backbone(false));
            inc.refresh().unwrap();
            assert_parity(&inc);
        }
    }

    #[test]
    fn empty_database_rejected() {
        let err = IncrementalMiner::new(config(), GraphDatabase::new()).unwrap_err();
        assert!(matches!(err, MineError::InvalidInput { .. }));
    }
}
