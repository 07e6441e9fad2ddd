//! Metric tables, summary statistics and the one-line JSON result.
//!
//! The two tables below are the benchmark's metric contract: an untraced
//! run reports every [`END_TO_END`] metric, a traced run every
//! [`PER_LAYER`] metric (0 where the workload does not exercise that
//! layer).  `BENCHMARK.json` lists the same names and units.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, the same on every workload: the workload's
/// operation is one mine call (`mine-*`), one index request
/// (`serve-zipf`) or one batch refresh (`refresh-stream`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run, named `<module>.<metric>`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("graph.freeze_s", "s"),
    ("graph.freeze_txn_per_s", "1/s"),
    ("diam_mine.seed_s", "s"),
    ("diam_mine.seed_rows", "count"),
    ("diam_mine.ladder_s", "s"),
    ("diam_mine.ladder_paths", "count"),
    ("diam_mine.ladder_rows", "count"),
    ("diam_mine.join_rows_pruned", "count"),
    ("diam_mine.join_products_rejected_sigma", "count"),
    ("diam_mine.join_cpu_s", "s"),
    ("cycle.ladder_s", "s"),
    ("cycle.paths_2l", "count"),
    ("cycle.rows_2l", "count"),
    ("cycle.closing_s", "s"),
    ("cycle.found", "count"),
    ("cycle.yield", "ratio"),
    ("level_grow.grow_s", "s"),
    ("level_grow.clusters", "count"),
    ("level_grow.cluster_p50_us", "us"),
    ("level_grow.cluster_p99_us", "us"),
    ("level_grow.cluster_max_ms", "ms"),
    ("level_grow.examined", "count"),
    ("level_grow.patterns_per_examined", "ratio"),
    ("level_grow.pruned_support_bound", "count"),
    ("level_grow.rejected_constraint_skinniness", "count"),
    ("level_grow.grow_cpu_s", "s"),
    ("miner.finish_s", "s"),
    ("miner.dedup_dropped", "count"),
    ("miner.canon_fingerprint_hits", "count"),
    ("miner.canon_full_keys", "count"),
    ("miner.canon_early_aborts", "count"),
    ("pool.tasks", "count"),
    ("pool.steals", "count"),
    ("pool.merge_wait_s", "s"),
    ("serving.hit_p50_us", "us"),
    ("serving.miss_p50_ms", "ms"),
    ("serving.hit_ratio", "ratio"),
    ("serving.evictions", "count"),
    ("serving.coalesced_waiters", "count"),
    ("serving.mining_runs", "count"),
    ("pattern_index.build_s", "s"),
    ("pattern_index.minimal_patterns", "count"),
    ("incremental.refresh_s.b1", "s"),
    ("incremental.refresh_s.b4", "s"),
    ("incremental.refresh_s.b16", "s"),
    ("incremental.transactions_dirty", "count"),
    ("incremental.clusters_regrown", "count"),
    ("incremental.clusters_reused", "count"),
    ("incremental.reuse_ratio", "ratio"),
    ("incremental.maintained_bytes", "bytes"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
];

/// Lowest accepted `trace.coverage` (layer spans summed ÷ traced wall): a
/// traced pipeline whose spans explain less of its wall time than this is
/// counted as a failed operation.
pub const MIN_TRACE_COVERAGE: f64 = 0.95;

/// Per-layer samples, one map per traced pipeline execution; reported as
/// the per-metric median across executions.
pub type Layers = BTreeMap<&'static str, f64>;

/// The outcome of one benchmark run.
#[derive(Debug, Default)]
pub struct Report {
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<&'static str, f64>,
}

impl Report {
    /// Records one operation; `ok = false` counts it as failed and names
    /// it on standard error.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("failed: {}", what());
        }
    }

    /// Adds the operation counts of another report (a worker thread's).
    pub fn absorb(&mut self, other: &Report) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "metric {name} is not in the metric tables"
        );
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.metrics.insert(name, value);
    }

    /// Sets every metric of `samples` to its median across the samples.
    pub fn set_medians(&mut self, samples: &[Layers]) {
        let mut names: Vec<&'static str> = samples.iter().flat_map(|s| s.keys().copied()).collect();
        names.sort_unstable();
        names.dedup();
        for name in names {
            let values: Vec<f64> = samples.iter().filter_map(|s| s.get(name).copied()).collect();
            self.set(name, median(&values));
        }
    }

    /// The result line: every metric of the run's table, in table order.
    /// End-to-end metrics must all have been measured; a per-layer metric
    /// the workload does not exercise reads 0.
    pub fn to_json(&self, trace: bool) -> String {
        let table = if trace { PER_LAYER } else { END_TO_END };
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed
        );
        for (i, (name, unit)) in table.iter().enumerate() {
            let value = match self.metrics.get(name) {
                Some(&v) => v,
                None if trace => 0.0,
                None => panic!("end-to-end metric {name} was not measured"),
            };
            let sep = if i == 0 { "" } else { ", " };
            write!(out, "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
                .expect("string write");
        }
        out.push_str("}}");
        out
    }
}

/// Median of `values` (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0..=100) of `values` (0 for an empty slice).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Sets the latency and throughput metrics from the per-operation wall
/// times (seconds) of `callers` closed-loop callers.
///
/// The tail is the 95th percentile when at least ten operations lie beyond
/// it, else the highest nearest-rank percentile that still has ten beyond
/// it (never below the median): a run of a few dozen mines has no
/// trustworthy 95th percentile, and its slowest mines only record which
/// seconds the machine was busiest.  Throughput is `callers / mean
/// latency`: the loop's rate with the untimed output checks between
/// operations taken out.
pub fn set_latencies(report: &mut Report, latencies_s: &[f64], callers: usize) {
    let mut sorted = latencies_s.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let tail_rank = ((0.95 * n as f64).ceil() as usize).min(n.saturating_sub(10)).max(n / 2 + 1);
    let busy_s: f64 = sorted.iter().sum();
    report.set("op_p50_ms", median(&sorted) * 1e3);
    report.set("op_tail_ms", sorted[tail_rank - 1] * 1e3);
    report.set("ops_per_s", callers as f64 * n as f64 / busy_s);
}

/// Joins scoped worker threads, sampling the resident-set peak of every
/// quarter second until all of them have finished.
pub fn join_sampling_rss<T>(handles: Vec<std::thread::ScopedJoinHandle<'_, T>>) -> (Vec<T>, Vec<f64>) {
    let mut rss = Vec::new();
    reset_peak_rss();
    loop {
        std::thread::sleep(std::time::Duration::from_millis(250));
        rss.push(peak_rss_mb());
        reset_peak_rss();
        if handles.iter().all(|h| h.is_finished()) {
            break;
        }
    }
    (handles.into_iter().map(|h| h.join().expect("a worker thread panicked")).collect(), rss)
}

/// Restarts the kernel's resident-set high-water mark (`VmHWM`) at the
/// current resident set, so the next [`peak_rss_mb`] covers only what ran
/// in between.
pub fn reset_peak_rss() {
    std::fs::write("/proc/self/clear_refs", "5").expect("/proc/self/clear_refs is writable");
}

/// Peak resident set (`VmHWM`) of this process in MiB since the last
/// [`reset_peak_rss`].
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse().ok())
        .expect("VmHWM is reported");
    kb / 1024.0
}
