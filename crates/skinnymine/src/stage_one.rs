//! Stage I behind every entry point: one seed routine ([`mine_seeds`]) and
//! one maintained Stage-I state ([`StageOne`]).
//!
//! Direct mining runs [`mine_seeds`] over a fresh level-1 scan.  The
//! minimal-pattern index and the incremental miner each hold a
//! [`StageOne`] — the frozen snapshot, the warm snapshot builder and the
//! **unfiltered** level-1 [`PatternTable`] — fold transaction deltas into it
//! with [`StageOne::apply`], and run the same [`mine_seeds`] over its
//! maintained level 1 ([`StageOne::mine_seeds`]).  An update therefore costs
//! a level-1 delta plus the ladder, never a level-1 scan over clean
//! transactions.

use crate::cycle::CyclePattern;
use crate::data::MiningData;
use crate::diam_mine::DiamMine;
use crate::error::MineResult;
use crate::level_grow::Seed;
use crate::path_pattern::{PathPattern, PatternTable};
use crate::stats::MiningStats;
use skinny_graph::{CsrSnapshot, GraphDatabase, SnapshotBuilder, SupportMeasure};
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

/// Stage I's seeds, owned and keyed by diameter length `l`: the frequent
/// paths of every mined length, and the frequent minimal odd cycles
/// `C_{2l+1}` of every `l` that has any.
#[derive(Debug, Clone)]
pub(crate) struct SeedSet {
    pub(crate) paths: BTreeMap<usize, Vec<PathPattern>>,
    pub(crate) cycles: BTreeMap<usize, Vec<CyclePattern>>,
}

impl SeedSet {
    /// Number of seeds, paths and cycles.
    pub(crate) fn len(&self) -> usize {
        self.paths.values().map(Vec::len).sum::<usize>() + self.cycles.values().map(Vec::len).sum::<usize>()
    }

    /// The seeds of every length `admits` accepts, borrowed in the seed
    /// order every entry point grows and folds in: all paths by ascending
    /// length, then all cycles by ascending `l`.
    pub(crate) fn seeds(&self, admits: impl Fn(usize) -> bool + Copy) -> impl Iterator<Item = Seed<'_>> {
        let paths = self.paths.iter().filter(move |&(&l, _)| admits(l)).flat_map(|(_, p)| p);
        let cycles = self.cycles.iter().filter(move |&(&l, _)| admits(l)).flat_map(|(_, c)| c);
        paths.map(Seed::Path).chain(cycles.map(Seed::Cycle))
    }
}

/// The one seed routine of direct mining, index build and update, and
/// incremental refresh: the frequent paths of every length in `lo..=hi`
/// (`hi = None`: up to the longest frequent path), plus, with
/// `cycle_seeds`, the frequent `C_{2l+1}` of every mined `l` by one rule:
///
/// 1. the mined range holds `2l`: close those stored paths
///    ([`DiamMine::cycles_from_paths`]);
/// 2. `2l` lies inside the range but was not mined: no `2l`-path is
///    frequent, so no `C_{2l+1}` is either;
/// 3. `2l` lies past `hi`: pair the mined `l`-arcs
///    ([`DiamMine::cycles_from_arcs`]).
///
/// Closing and pairing give the same bytes because every
/// [`SupportMeasure`] is anti-monotone.
pub(crate) fn mine_seeds(
    dm: &DiamMine<'_>,
    lo: usize,
    hi: Option<usize>,
    cycle_seeds: bool,
    stats: &mut MiningStats,
) -> SeedSet {
    let paths = dm.mine_range_with_stats(lo, hi, stats);
    let mut cycles = BTreeMap::new();
    if cycle_seeds {
        for (&l, paths_l) in &paths {
            let found = match paths.get(&(2 * l)) {
                Some(paths_2l) => dm.cycles_from_paths(paths_2l, l),
                None if hi.is_some_and(|h| 2 * l > h) => dm.cycles_from_arcs(paths_l, l),
                None => continue,
            };
            if !found.is_empty() {
                cycles.insert(l, found);
            }
        }
    }
    SeedSet { paths, cycles }
}

/// The maintained Stage-I state of the index and the incremental miner.
///
/// Length-1 support is additive across transactions, so the unfiltered
/// level-1 table can be kept exact under per-transaction deltas
/// ([`StageOne::apply`]); finalizing it (dedup, σ-filter, key sort) yields
/// the from-scratch frequent-edge set, and every higher ladder level is a
/// pure function of that set.
#[derive(Debug, Clone)]
pub(crate) struct StageOne {
    /// The frozen data; the level-1 table holds exactly its length-1 rows.
    snapshot: CsrSnapshot,
    /// Warm builder reused by every dirty-transaction re-freeze.
    builder: SnapshotBuilder,
    /// The maintained **unfiltered** level-1 pattern table.
    level1: PatternTable,
    pub(crate) sigma: usize,
    pub(crate) support: SupportMeasure,
    threads: usize,
}

impl StageOne {
    /// Freezes `data` (per-shard on `threads` workers) and seeds its
    /// unfiltered level-1 table, recording the freeze and the scan in
    /// `stats`.
    pub(crate) fn new(
        data: MiningData<'_>,
        sigma: usize,
        support: SupportMeasure,
        threads: usize,
        stats: &mut MiningStats,
    ) -> Self {
        let tf = Instant::now();
        let snapshot = data.to_snapshot_with_threads(threads).into_owned();
        stats.freeze_seconds = tf.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let level1 = DiamMine::new(MiningData::Snapshot(&snapshot), sigma, support)
            .with_threads(threads)
            .level1_table();
        stats.diam_mine.duration = t0.elapsed();
        StageOne { snapshot, builder: SnapshotBuilder::new(), level1, sigma, support, threads }
    }

    pub(crate) fn snapshot(&self) -> &CsrSnapshot {
        &self.snapshot
    }

    fn diam_mine(&self) -> DiamMine<'_> {
        DiamMine::new(MiningData::Snapshot(&self.snapshot), self.sigma, self.support)
            .with_threads(self.threads)
    }

    /// Folds the changes to the `dirty` transactions of `db` in: re-freezes
    /// exactly those transactions ([`CsrSnapshot::refreeze_dirty`]), drops
    /// their level-1 rows, re-seeds them and stitches the rows back in
    /// transaction order ([`PatternTable::merge_by_transaction`]: every
    /// slot's rows are nondecreasing in transaction, so a two-pointer merge
    /// restores the exact sequential row order).  Clean transactions are not
    /// scanned.
    pub(crate) fn apply(
        &mut self,
        db: &GraphDatabase,
        dirty: &BTreeSet<usize>,
        stats: &mut MiningStats,
    ) -> MineResult<()> {
        let tf = Instant::now();
        self.snapshot.refreeze_dirty(db, dirty, &mut self.builder)?;
        stats.freeze_seconds = tf.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let mut partial = PatternTable::new();
        let dm = self.diam_mine();
        for &t in dirty {
            dm.seed_transactions(t..t + 1, &mut partial);
        }
        // BTreeSet iteration ascends, matching remove_transactions' contract;
        // slots untouched by the delta are skipped without a row scan
        let dirty_txns: Vec<u32> = dirty.iter().map(|&t| t as u32).collect();
        self.level1.remove_transactions(&dirty_txns);
        self.level1.merge_by_transaction(partial);
        stats.diam_mine.duration = t0.elapsed();
        Ok(())
    }

    /// [`mine_seeds`] over the maintained level 1.  The σ-filter runs before
    /// the clone, so reading the table costs O(frequent set), not
    /// O(corpus).
    pub(crate) fn mine_seeds(
        &self,
        lo: usize,
        hi: Option<usize>,
        cycle_seeds: bool,
        stats: &mut MiningStats,
    ) -> SeedSet {
        let dm = self.diam_mine();
        let frequent = self.level1.clone_frequent(self.sigma, self.support);
        let level1 = dm.finalize(frequent, &mut MiningStats::default(), true);
        mine_seeds(&dm.with_frequent_edges(level1), lo, hi, cycle_seeds, stats)
    }

    /// Heap bytes of the snapshot and the level-1 table.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.snapshot.heap_bytes() + self.level1.heap_bytes()
    }
}
