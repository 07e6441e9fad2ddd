//! Runtime statistics collected during mining.
//!
//! The paper's scalability experiments (Figures 14–18) report the runtime of
//! the two stages separately; [`MiningStats`] captures those break-downs plus
//! counters that expose how much work the constraint maintenance machinery
//! saved (used by the ablation benchmarks).

use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Statistics of a single mining stage.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct StageStats {
    /// Wall-clock time spent in the stage.
    pub duration: Duration,
    /// Number of candidate patterns examined.
    pub candidates_examined: u64,
    /// Number of frequent patterns produced by the stage.
    pub patterns_out: u64,
}

impl StageStats {
    /// Milliseconds of wall-clock time (convenience for reports).
    pub fn millis(&self) -> f64 {
        self.duration.as_secs_f64() * 1e3
    }
}

/// Wall-clock breakdown of Stage II's candidate-evaluation work, summed
/// across every grown pattern (and merged across workers): candidate
/// enumeration / extension-table build, structural constraint checks,
/// embedding materialization (gather or re-scan) and support evaluation.
///
/// The benchmark's traced runs report these as the grow sub-timings.
/// Collection costs a few monotonic-clock reads per candidate (well under
/// the cheapest candidate's work); the clock reads are chained so each
/// boundary is sampled once.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct GrowPhaseStats {
    /// Enumerating candidate extensions (reference) or building the
    /// extension table (indexed engine).
    pub candidates: Duration,
    /// Structural work per candidate: `apply_structure` + `check_extension`.
    pub check: Duration,
    /// Materializing extended embeddings: row gather (indexed) or full
    /// re-scan (reference).
    pub extend: Duration,
    /// Evaluating the support measure over the extended embeddings.
    pub support: Duration,
    /// Canonical-form dedup of admitted children: fingerprints, and full
    /// min-DFS keys on fingerprint collisions.
    pub canon: Duration,
}

impl GrowPhaseStats {
    /// Accumulates another breakdown into this one.
    ///
    /// The merged buckets report **summed CPU time across workers**, not
    /// max wall-clock: when clusters are grown on more than one thread the
    /// per-worker breakdowns are added, so each bucket (and their total) can
    /// legitimately exceed the stage's wall-clock `level_grow.duration`.
    /// Summing keeps the buckets thread-count-invariant — the same mining
    /// run reports the same sub-timings (up to clock noise) at any `threads`
    /// setting.
    pub fn merge(&mut self, other: &GrowPhaseStats) {
        self.candidates += other.candidates;
        self.check += other.check;
        self.extend += other.extend;
        self.support += other.support;
        self.canon += other.canon;
    }
}

/// Wall-clock breakdown of Stage I's doubling-ladder join work, summed
/// across ladder levels (and merged across workers, same summed-CPU-time
/// convention as [`GrowPhaseStats::merge`]): posting-list probes, product row
/// gathers, pattern-slot interning, and the σ-filter's dedup + support
/// evaluation.
///
/// Collection uses the same chained TSC/monotonic sampling as the grow
/// phases.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct JoinPhaseStats {
    /// Looking up posting lists and testing row-pair disjointness.
    pub probe: Duration,
    /// Assembling and appending product occurrence rows.
    pub gather: Duration,
    /// Routing product rows to pattern slots (pattern-pair memo, label
    /// assembly + canonicalization on memo misses) and building the next
    /// level's carried occurrence index.
    pub intern: Duration,
    /// The σ-filter: per-pattern occurrence dedup plus the pruned support
    /// evaluation.
    pub support: Duration,
}

impl JoinPhaseStats {
    /// Accumulates another breakdown into this one (summed CPU time across
    /// workers — see [`GrowPhaseStats::merge`] for the convention).
    pub fn merge(&mut self, other: &JoinPhaseStats) {
        self.probe += other.probe;
        self.gather += other.gather;
        self.intern += other.intern;
        self.support += other.support;
    }
}

/// Full statistics of a SkinnyMine run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MiningStats {
    /// Seconds spent freezing the input into per-transaction CSR snapshots
    /// before Stage I (0 when the input was already a snapshot) — the
    /// front-of-pipeline ingest cost
    /// the stage timings never see.
    pub freeze_seconds: f64,
    /// Stage I (DiamMine): mining canonical diameters.
    pub diam_mine: StageStats,
    /// Stage II (LevelGrow): growing canonical diameters to skinny patterns.
    pub level_grow: StageStats,
    /// Number of edge-extension constraint checks performed.
    pub constraint_checks: u64,
    /// Extensions rejected by Constraint I (diameter would grow).
    pub rejected_constraint_i: u64,
    /// Extensions rejected by Constraint II (head–tail distance would shrink).
    pub rejected_constraint_ii: u64,
    /// Extensions rejected by Constraint III (smaller canonical diameter created).
    pub rejected_constraint_iii: u64,
    /// Extensions rejected because a vertex would exceed the skinniness
    /// bound δ.
    pub rejected_constraint_skinniness: u64,
    /// Extensions rejected because the extended pattern fell below the
    /// support threshold.
    pub rejected_infrequent: u64,
    /// Extensions pruned by the extension table's free support upper bound
    /// (incidence count `< σ`) before any structural or data work.
    pub pruned_support_bound: u64,
    /// Canonical-dedup inserts whose fingerprint was already interned (the
    /// only inserts that fall through to a full canonical-key comparison).
    pub canon_fingerprint_hits: u64,
    /// Full minimum-DFS-code computations performed by the canonical-form
    /// funnel (one per fingerprint collision, memoized — never recomputed).
    pub canon_full_keys: u64,
    /// Minimum-DFS traversals the early-abort engine pruned before
    /// completion (their code prefix already exceeded the best-so-far).
    pub canon_early_aborts: u64,
    /// Breakdown of Stage II's candidate evaluation (summed CPU time
    /// across workers; see [`GrowPhaseStats::merge`]).
    pub grow_phases: GrowPhaseStats,
    /// Breakdown of Stage I's ladder joins (summed CPU time across workers;
    /// see [`JoinPhaseStats`]).
    pub join_phases: JoinPhaseStats,
    /// Product occurrence rows whose σ-filter work (dedup + support) was
    /// skipped entirely because their pattern's raw row count was already
    /// below σ.
    pub join_rows_pruned: u64,
    /// Join product patterns rejected by the σ-filter (row-cap fast path and
    /// pruned support evaluation combined).
    pub join_products_rejected_sigma: u64,
    /// Work items executed by the worker pool across all parallel regions
    /// (Stage-II cluster growth; one item per seed).
    pub pool_tasks_executed: u64,
    /// Work items obtained by stealing from another worker's queue rather
    /// than from the worker's own deque.
    pub pool_steals: u64,
    /// Seconds between the first worker finishing its queue and the merged
    /// result being ready — the tail-imbalance plus deterministic-merge cost
    /// of the parallel regions, summed across regions.
    pub pool_merge_wait_seconds: f64,
    /// Full canonical-diameter recomputations triggered (Fast mode fallback
    /// or every extension in Exact mode).
    pub full_diameter_recomputations: u64,
    /// Number of distinct canonical-diameter clusters grown.
    pub clusters: u64,
    /// Number of patterns in the reported result.
    pub reported_patterns: u64,
    /// Largest reported pattern size in edges.
    pub largest_pattern_edges: u64,
    /// Largest reported pattern size in vertices.
    pub largest_pattern_vertices: u64,
    /// Transactions re-frozen and re-seeded by the last incremental refresh
    /// (0 for a from-scratch mine).
    pub transactions_dirty: u64,
    /// Clusters the last incremental refresh had to re-grow because their
    /// seed embeddings changed or touched a dirty transaction.
    pub clusters_regrown: u64,
    /// Clusters whose mined output the last incremental refresh reused
    /// verbatim from the previous result.
    pub clusters_reused: u64,
    /// Seconds the last incremental refresh spent maintaining the result
    /// (0 for a from-scratch mine).
    pub maintain_seconds: f64,
}

impl MiningStats {
    /// Total wall-clock time across both stages.
    pub fn total_duration(&self) -> Duration {
        self.diam_mine.duration + self.level_grow.duration
    }

    /// Merges the counters of another stats object into this one (used when
    /// clusters are grown in parallel and per-worker stats are combined).
    pub fn merge(&mut self, other: &MiningStats) {
        self.freeze_seconds += other.freeze_seconds;
        self.constraint_checks += other.constraint_checks;
        self.rejected_constraint_i += other.rejected_constraint_i;
        self.rejected_constraint_ii += other.rejected_constraint_ii;
        self.rejected_constraint_iii += other.rejected_constraint_iii;
        self.rejected_constraint_skinniness += other.rejected_constraint_skinniness;
        self.rejected_infrequent += other.rejected_infrequent;
        self.pruned_support_bound += other.pruned_support_bound;
        self.canon_fingerprint_hits += other.canon_fingerprint_hits;
        self.canon_full_keys += other.canon_full_keys;
        self.canon_early_aborts += other.canon_early_aborts;
        self.grow_phases.merge(&other.grow_phases);
        self.join_phases.merge(&other.join_phases);
        self.join_rows_pruned += other.join_rows_pruned;
        self.join_products_rejected_sigma += other.join_products_rejected_sigma;
        self.pool_tasks_executed += other.pool_tasks_executed;
        self.pool_steals += other.pool_steals;
        self.pool_merge_wait_seconds += other.pool_merge_wait_seconds;
        self.full_diameter_recomputations += other.full_diameter_recomputations;
        self.level_grow.candidates_examined += other.level_grow.candidates_examined;
        self.level_grow.patterns_out += other.level_grow.patterns_out;
        self.transactions_dirty += other.transactions_dirty;
        self.clusters_regrown += other.clusters_regrown;
        self.clusters_reused += other.clusters_reused;
        self.maintain_seconds += other.maintain_seconds;
    }

    /// Folds the canonical-dedup funnel counters of one cluster into the
    /// run-level statistics.
    pub fn record_canon(&mut self, canon: skinny_graph::CanonStats) {
        self.canon_fingerprint_hits += canon.fingerprint_hits;
        self.canon_full_keys += canon.full_keys;
        self.canon_early_aborts += canon.early_aborts;
    }

    /// Folds the counters of one worker-pool run into the run-level
    /// statistics.
    pub fn record_pool(&mut self, counters: &skinny_pool::RunCounters) {
        self.pool_tasks_executed += counters.tasks_executed;
        self.pool_steals += counters.steals;
        self.pool_merge_wait_seconds += counters.merge_wait_seconds;
    }

    /// A one-line human readable summary.
    pub fn summary(&self) -> String {
        format!(
            "freeze {:.1} ms | DiamMine {:.1} ms ({} paths) | joins probe/gather/intern/support {:.1}/{:.1}/{:.1}/{:.1} ms rows-pruned {} σ-rejects {} | LevelGrow {:.1} ms ({} patterns) | checks {} | rejects I/II/III/δ/freq {}/{}/{}/{}/{} | bound-pruned {} | canon fp-hits/keys/aborts {}/{}/{} | recomputes {} | pool tasks/steals {}/{} merge-wait {:.1} ms | incr dirty/regrown/reused {}/{}/{} maintain {:.1} ms",
            self.freeze_seconds * 1e3,
            self.diam_mine.millis(),
            self.diam_mine.patterns_out,
            self.join_phases.probe.as_secs_f64() * 1e3,
            self.join_phases.gather.as_secs_f64() * 1e3,
            self.join_phases.intern.as_secs_f64() * 1e3,
            self.join_phases.support.as_secs_f64() * 1e3,
            self.join_rows_pruned,
            self.join_products_rejected_sigma,
            self.level_grow.millis(),
            self.reported_patterns,
            self.constraint_checks,
            self.rejected_constraint_i,
            self.rejected_constraint_ii,
            self.rejected_constraint_iii,
            self.rejected_constraint_skinniness,
            self.rejected_infrequent,
            self.pruned_support_bound,
            self.canon_fingerprint_hits,
            self.canon_full_keys,
            self.canon_early_aborts,
            self.full_diameter_recomputations,
            self.pool_tasks_executed,
            self.pool_steals,
            self.pool_merge_wait_seconds * 1e3,
            self.transactions_dirty,
            self.clusters_regrown,
            self.clusters_reused,
            self.maintain_seconds * 1e3,
        )
    }
}

/// Snapshot of the serving-layer counters of a
/// [`crate::MinimalPatternIndex`] (the [`MiningStats`]-style view of the
/// Figure-2 deployment: how request traffic hit the cache, coalesced, and
/// evicted).  Counters are monotonic over the index's lifetime except
/// `in_flight` (a gauge) and the two `cached_*` occupancy figures.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServingStats {
    /// Requests answered straight from the cache (an `Arc` pointer-copy).
    pub hits: u64,
    /// Requests that found no cached result and led a mining run.
    pub misses: u64,
    /// Requests that coalesced onto another caller's in-flight mining run
    /// instead of mining themselves.
    pub coalesced_waiters: u64,
    /// Cached results evicted by the bounded LRU.
    pub evictions: u64,
    /// Cached results evicted per key by invalidation: explicit
    /// `invalidate` calls plus stale entries dropped on lookup after a data
    /// version bump.
    pub invalidations: u64,
    /// Mining runs actually executed (single-flight makes this equal to
    /// `misses`: one run per distinct uncached configuration).
    pub mining_runs: u64,
    /// Mining runs in flight right now (gauge).
    pub in_flight: u64,
    /// Results currently cached.
    pub cached_entries: u64,
    /// Total cost (pattern count) currently cached.
    pub cached_cost: u64,
    /// Data version the cache currently serves (bumped on every database
    /// update; results stamped older are served stale never — they are
    /// evicted per key on their next lookup).
    pub data_version: u64,
}

impl ServingStats {
    /// Total requests that reached the cache (hits, leaders, and waiters).
    pub fn requests(&self) -> u64 {
        self.hits + self.misses + self.coalesced_waiters
    }

    /// A one-line human readable summary.
    pub fn summary(&self) -> String {
        format!(
            "serving: {} requests | hits {} | misses {} | coalesced {} | runs {} | evictions {} | invalidated {} | in-flight {} | cached {} entries / cost {} | data v{}",
            self.requests(),
            self.hits,
            self.misses,
            self.coalesced_waiters,
            self.mining_runs,
            self.evictions,
            self.invalidations,
            self.in_flight,
            self.cached_entries,
            self.cached_cost,
            self.data_version,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serving_stats_requests_and_summary() {
        let s = ServingStats {
            hits: 10,
            misses: 3,
            coalesced_waiters: 2,
            evictions: 1,
            mining_runs: 3,
            ..Default::default()
        };
        assert_eq!(s.requests(), 15);
        assert!(s.summary().contains("15 requests"));
        assert!(s.summary().contains("hits 10"));
        assert!(s.summary().contains("coalesced 2"));
    }

    #[test]
    fn total_duration_sums_stages() {
        let mut s = MiningStats::default();
        s.diam_mine.duration = Duration::from_millis(30);
        s.level_grow.duration = Duration::from_millis(70);
        assert_eq!(s.total_duration(), Duration::from_millis(100));
        assert!((s.diam_mine.millis() - 30.0).abs() < 1e-9);
    }

    #[test]
    fn merge_accumulates_counters() {
        let mut a = MiningStats { constraint_checks: 5, rejected_constraint_i: 1, ..Default::default() };
        let b = MiningStats {
            constraint_checks: 7,
            rejected_constraint_ii: 2,
            rejected_constraint_iii: 3,
            rejected_constraint_skinniness: 6,
            rejected_infrequent: 4,
            pruned_support_bound: 9,
            canon_fingerprint_hits: 11,
            canon_full_keys: 12,
            canon_early_aborts: 13,
            full_diameter_recomputations: 1,
            grow_phases: GrowPhaseStats {
                extend: Duration::from_millis(5),
                canon: Duration::from_millis(2),
                ..Default::default()
            },
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.constraint_checks, 12);
        assert_eq!(a.rejected_constraint_i, 1);
        assert_eq!(a.rejected_constraint_ii, 2);
        assert_eq!(a.rejected_constraint_iii, 3);
        assert_eq!(a.rejected_constraint_skinniness, 6);
        assert_eq!(a.rejected_infrequent, 4);
        assert_eq!(a.pruned_support_bound, 9);
        assert_eq!(a.canon_fingerprint_hits, 11);
        assert_eq!(a.canon_full_keys, 12);
        assert_eq!(a.canon_early_aborts, 13);
        assert_eq!(a.full_diameter_recomputations, 1);
        assert_eq!(a.grow_phases.extend, Duration::from_millis(5));
        assert_eq!(a.grow_phases.canon, Duration::from_millis(2));
    }

    #[test]
    fn grow_phase_merge_sums_cpu_time_across_workers() {
        // The merged breakdown is summed CPU time, not max wall-clock: two
        // workers that each spent 70 ms in `support` while the stage's
        // wall-clock was 100 ms report 140 ms of support work.  The sum may
        // exceed the stage duration under >1 thread — by design.
        let per_worker = GrowPhaseStats { support: Duration::from_millis(70), ..Default::default() };
        let mut merged = GrowPhaseStats::default();
        merged.merge(&per_worker);
        merged.merge(&per_worker);
        assert_eq!(merged.support, Duration::from_millis(140));
        let stage_wall_clock = Duration::from_millis(100);
        assert!(merged.support > stage_wall_clock);
    }

    #[test]
    fn record_pool_folds_counters_and_summary_reports_them() {
        let mut s = MiningStats::default();
        s.record_pool(&skinny_pool::RunCounters { tasks_executed: 5, steals: 2, merge_wait_seconds: 0.25 });
        s.record_pool(&skinny_pool::RunCounters { tasks_executed: 3, steals: 1, merge_wait_seconds: 0.5 });
        assert_eq!(s.pool_tasks_executed, 8);
        assert_eq!(s.pool_steals, 3);
        assert!((s.pool_merge_wait_seconds - 0.75).abs() < 1e-12);
        assert!(s.summary().contains("pool tasks/steals 8/3 merge-wait 750.0 ms"));

        let mut merged = MiningStats::default();
        merged.merge(&s);
        merged.merge(&s);
        assert_eq!(merged.pool_tasks_executed, 16);
        assert_eq!(merged.pool_steals, 6);
        assert!((merged.pool_merge_wait_seconds - 1.5).abs() < 1e-12);
    }

    #[test]
    fn record_canon_folds_funnel_counters() {
        let mut s = MiningStats::default();
        s.record_canon(skinny_graph::CanonStats { fingerprint_hits: 3, full_keys: 2, early_aborts: 7 });
        s.record_canon(skinny_graph::CanonStats { fingerprint_hits: 1, full_keys: 0, early_aborts: 1 });
        assert_eq!(s.canon_fingerprint_hits, 4);
        assert_eq!(s.canon_full_keys, 2);
        assert_eq!(s.canon_early_aborts, 8);
        assert!(s.summary().contains("canon fp-hits/keys/aborts 4/2/8"));
    }

    #[test]
    fn join_phase_counters_merge_and_report() {
        let mut a = MiningStats {
            join_rows_pruned: 100,
            join_products_rejected_sigma: 7,
            join_phases: JoinPhaseStats { probe: Duration::from_millis(4), ..Default::default() },
            ..Default::default()
        };
        let b = MiningStats {
            join_rows_pruned: 20,
            join_products_rejected_sigma: 3,
            join_phases: JoinPhaseStats {
                probe: Duration::from_millis(1),
                gather: Duration::from_millis(2),
                intern: Duration::from_millis(3),
                support: Duration::from_millis(5),
            },
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.join_rows_pruned, 120);
        assert_eq!(a.join_products_rejected_sigma, 10);
        assert_eq!(a.join_phases.probe, Duration::from_millis(5));
        assert_eq!(a.join_phases.gather, Duration::from_millis(2));
        assert_eq!(a.join_phases.intern, Duration::from_millis(3));
        assert_eq!(a.join_phases.support, Duration::from_millis(5));
        assert!(a.summary().contains("rows-pruned 120 σ-rejects 10"));
        assert!(a.summary().contains("joins probe/gather/intern/support 5.0/2.0/3.0/5.0 ms"));
    }

    #[test]
    fn summary_contains_counts() {
        let s = MiningStats { reported_patterns: 42, ..Default::default() };
        assert!(s.summary().contains("42 patterns"));
    }

    #[test]
    fn incremental_counters_merge_and_report() {
        let mut a = MiningStats {
            transactions_dirty: 2,
            clusters_regrown: 3,
            clusters_reused: 40,
            maintain_seconds: 0.25,
            ..Default::default()
        };
        let b = MiningStats {
            transactions_dirty: 1,
            clusters_regrown: 1,
            clusters_reused: 2,
            maintain_seconds: 0.5,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.transactions_dirty, 3);
        assert_eq!(a.clusters_regrown, 4);
        assert_eq!(a.clusters_reused, 42);
        assert!((a.maintain_seconds - 0.75).abs() < 1e-12);
        assert!(a.summary().contains("incr dirty/regrown/reused 3/4/42 maintain 750.0 ms"));
    }
}
