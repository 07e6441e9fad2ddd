//! Incremental maintenance under graph updates — delta-driven re-mining.
//!
//! [`IncrementalMiner`] owns a [`GraphDatabase`] plus everything a
//! from-scratch mine would have computed from it, and keeps the mined
//! [`MiningResult`] up to date under per-transaction mutations without
//! re-mining the whole corpus:
//!
//! 1. **Stage-I delta** — the miner holds the maintained Stage-I state that
//!    [`crate::MinimalPatternIndex`] holds too, and folds each delta in
//!    through the same `StageOne::apply`: only the dirty transactions'
//!    CSR snapshots are re-frozen (through the zero-alloc
//!    [`skinny_graph::SnapshotBuilder::build_into`] warm path; appends use
//!    [`skinny_graph::CsrSnapshot::push_transaction`]), and, since length-1
//!    support is additive across transactions, only their rows of the
//!    **unfiltered** level-1 [`crate::PatternTable`] are dropped, re-seeded
//!    and stitched back in transaction order.  Finalizing the maintained
//!    table yields the exact from-scratch frequent-edge set — including
//!    patterns whose support crossed σ in either direction — and the direct
//!    miner's seed routine (the doubling ladder plus the cycle seeds) runs
//!    on top of it.
//! 2. **Stage-II delta** — every seed's grown [`ClusterOutcome`] is cached.
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
use crate::error::{MineError, MineResult};
use crate::level_grow::{ClusterOutcome, Seed};
use crate::miner::{fold_outcomes, miner_order, SkinnyMine};
use crate::path_pattern::PathKey;
use crate::result::MiningResult;
use crate::stage_one::StageOne;
use crate::stats::MiningStats;
use skinny_graph::{GraphDatabase, OccurrenceStore};
use std::borrow::Cow;
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
    fn of(seed: Seed<'_>) -> SeedKey {
        match seed {
            Seed::Path(p) => SeedKey::Path(p.key.clone()),
            Seed::Cycle(c) => SeedKey::Cycle(c.key.clone()),
        }
    }
}

/// One cached cluster: the embeddings of the seed it was grown from, their
/// sorted distinct transactions (the per-transaction index the dirty-set
/// intersection runs against), and the grown outcome.
#[derive(Debug, Clone)]
struct CachedCluster {
    embeddings: OccurrenceStore,
    txns: Vec<u32>,
    outcome: ClusterOutcome,
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
    /// The maintained snapshot and unfiltered level-1 table.
    stage: StageOne,
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
        let mut stats = MiningStats::default();
        let stage = StageOne::new(
            MiningData::Transactions(&db),
            config.sigma,
            config.support,
            config.threads,
            &mut stats,
        );
        let mut inc = IncrementalMiner {
            miner: SkinnyMine::new(config),
            db,
            stage,
            clusters: HashMap::new(),
            last: MiningResult::default(),
        };
        inc.last = inc.mine_maintained(&BTreeSet::new(), stats);
        Ok(inc)
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
        let clusters: usize = self
            .clusters
            .values()
            .map(|c| c.embeddings.heap_bytes() + c.txns.capacity() * std::mem::size_of::<u32>())
            .sum();
        self.stage.heap_bytes() + clusters
    }

    /// Folds all updates since the last refresh into the maintained result
    /// and returns it.  The result is byte-identical to a from-scratch
    /// [`SkinnyMine::mine_database`] over the current database state.
    ///
    /// With no pending updates this is a no-op returning the cached result —
    /// it performs **zero heap allocations** (pinned in
    /// `tests/alloc_hot_loops.rs`).
    ///
    /// Errors with [`MineError::InvalidInput`] when the database holds no
    /// vertex, as [`SkinnyMine::mine_database`] does.  The pending updates
    /// stay pending, so the next refresh after the database is filled again
    /// folds in every change.
    pub fn refresh(&mut self) -> MineResult<&MiningResult> {
        if self.db.is_clean() {
            return Ok(&self.last);
        }
        if self.db.total_vertices() == 0 {
            return Err(MineError::InvalidInput { reason: "the input data contains no vertices".into() });
        }
        let dirty = self.db.take_dirty();
        let tm = Instant::now();
        let mut stats = MiningStats::default();
        self.stage.apply(&self.db, &dirty, &mut stats)?;
        // the seeds over the maintained level 1, and Stage II reusing the
        // clusters the delta left untouched
        let mut result = self.mine_maintained(&dirty, stats);
        result.stats.transactions_dirty = dirty.len() as u64;
        result.stats.maintain_seconds = tm.elapsed().as_secs_f64();
        self.last = result;
        Ok(&self.last)
    }

    /// The tail shared by [`IncrementalMiner::new`] (with an empty cluster
    /// cache and no dirty transaction) and [`IncrementalMiner::refresh`]:
    /// Stage I from the maintained level-1 table, then Stage II reusing every
    /// cached cluster whose seed embeddings are unchanged and touch no
    /// `dirty` transaction and re-growing the rest, all folded in seed order
    /// and finished exactly as [`SkinnyMine::mine_data`] finishes.  Rebuilds
    /// the cluster cache for the next refresh.
    fn mine_maintained(&mut self, dirty: &BTreeSet<usize>, mut stats: MiningStats) -> MiningResult {
        let IncrementalMiner { miner, stage, clusters, .. } = self;
        let config = miner.config();
        let t0 = Instant::now();
        let (lo, hi) = (config.length.min_len(), config.length.max_len());
        let seed_set = stage.mine_seeds(lo, hi, config.cycle_seeds, &mut stats);
        stats.diam_mine.duration += t0.elapsed();
        stats.diam_mine.patterns_out = seed_set.len() as u64;
        stats.clusters = seed_set.len() as u64;

        let t1 = Instant::now();
        let seeds: Vec<Seed<'_>> = seed_set.seeds(|_| true).collect();
        let keys: Vec<SeedKey> = seeds.iter().map(|&seed| SeedKey::of(seed)).collect();
        let reused: Vec<bool> = seeds
            .iter()
            .zip(&keys)
            .map(|(seed, key)| {
                clusters
                    .get(key)
                    .is_some_and(|c| disjoint(&c.txns, dirty) && &c.embeddings == seed.embeddings())
            })
            .collect();
        let regrow: Vec<Seed<'_>> =
            seeds.iter().zip(&reused).filter(|(_, &reuse)| !reuse).map(|(&seed, _)| seed).collect();
        let fresh = miner.grow_outcomes(stage.snapshot(), &regrow, &mut stats);
        let mut fresh_in_order = fresh.iter();
        let outcomes = keys.iter().zip(&reused).map(|(key, &reuse)| {
            Cow::Borrowed(if reuse {
                &clusters[key].outcome
            } else {
                fresh_in_order.next().expect("one fresh outcome per re-grown seed")
            })
        });
        let patterns = fold_outcomes(outcomes, &mut stats);
        stats.level_grow.duration = t1.elapsed();
        let patterns = miner.finish(patterns, !seed_set.cycles.is_empty(), miner_order, &mut stats);

        // the seeds are no longer borrowed: their embeddings move into the
        // rebuilt cache
        let embeddings = seed_set.paths.into_values().flatten().map(|p| p.embeddings);
        let embeddings = embeddings.chain(seed_set.cycles.into_values().flatten().map(|c| c.embeddings));
        let mut fresh = fresh.into_iter();
        let mut next = HashMap::with_capacity(keys.len());
        let mut txn_scratch = Vec::new();
        for ((key, embeddings), reuse) in keys.into_iter().zip(embeddings).zip(reused) {
            let cached = if reuse {
                stats.clusters_reused += 1;
                clusters.remove(&key).expect("reusable clusters are cached")
            } else {
                stats.clusters_regrown += 1;
                let outcome = fresh.next().expect("one fresh outcome per re-grown seed");
                embeddings.distinct_transactions_into(&mut txn_scratch);
                CachedCluster { embeddings, txns: txn_scratch.clone(), outcome }
            };
            next.insert(key, cached);
        }
        *clusters = next;
        MiningResult { patterns, stats }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ReportMode;
    use skinny_graph::{CsrSnapshot, Label, LabeledGraph, SupportMeasure, VertexId};

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
    fn refresh_of_an_emptied_database_is_rejected_and_keeps_the_updates() {
        let db = GraphDatabase::from_graphs(vec![backbone(true), backbone(true)]);
        let mut inc = IncrementalMiner::new(config(), db).unwrap();
        inc.database_mut().remove_transaction(0).unwrap();
        inc.database_mut().remove_transaction(1).unwrap();
        let direct = SkinnyMine::new(config()).mine_database(inc.database()).unwrap_err();
        assert!(matches!(direct, MineError::InvalidInput { .. }));
        let err = inc.refresh().unwrap_err();
        assert!(
            matches!(err, MineError::InvalidInput { .. }),
            "refresh must reject what mine_database rejects"
        );

        // refilling only transaction 1 must not hide transaction 0's
        // removal: with one backbone left, nothing reaches σ = 2
        inc.database_mut().replace_transaction(1, backbone(true)).unwrap();
        let result = inc.refresh().unwrap();
        assert_eq!(result.stats.transactions_dirty, 2);
        assert!(result.is_empty());
        assert_parity(&inc);
    }

    #[test]
    fn empty_database_rejected() {
        let err = IncrementalMiner::new(config(), GraphDatabase::new()).unwrap_err();
        assert!(matches!(err, MineError::InvalidInput { .. }));
    }
}
