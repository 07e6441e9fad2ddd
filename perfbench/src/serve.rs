//! `serve-zipf`: closed-loop clients issuing a seeded Zipf-skewed schedule
//! of real `(l, δ, report)` requests against one `MinimalPatternIndex`
//! whose cost-bounded cache holds about half of the configurations.

use crate::inputs::{fig16_graph, repeated_setup, shuffled_graph, Rng};
use crate::pipeline::{built_index_digests, digest, traced_index_build, traced_index_request};
use crate::report::{join_sampling_rss, median, set_latencies, Layers, Report, MIN_TRACE_COVERAGE};
use crate::Args;
use skinny_graph::SupportMeasure;
use skinnymine::{
    Exploration, MinimalPatternIndex, MiningResult, ReportMode, ServingCacheConfig, ServingStats,
    SkinnyMineConfig,
};
use std::sync::Arc;
use std::time::Instant;

/// Vertex-count divisor of the Figure-16 preset: 500 vertices.  The index
/// is built with no length bound, so Stage I runs to the longest frequent
/// path; at this size a build takes a fraction of a second and the costliest
/// miss tens of milliseconds, so a run holds thousands of requests.
const DIVISOR: usize = 20;
const SIGMA: usize = 2;
const MEASURE: SupportMeasure = SupportMeasure::MinimumImage;
/// Closed-loop clients of the untraced run (each request mines on one
/// thread, so two clients use both cores).
const CLIENTS: usize = 2;
/// Stage-I threads of the index build.
const BUILD_THREADS: usize = 2;
/// Zipf exponent of the request schedule: with the cache holding half the
/// total result cost, about 85% of requests hit, so the median request is
/// a hit and the 95th percentile a miss.
const ZIPF_S: f64 = 1.4;

/// The 20 request configurations, l ∈ 2..=6 × δ ∈ {1, 2} × {Closed,
/// Maximal}, in popularity-rank order: rank `r` is configuration
/// `7r mod 20` of the listing order, so every length is among the hot keys.
fn keys() -> Vec<SkinnyMineConfig> {
    let mut listed = Vec::new();
    for l in 2..=6 {
        for delta in [1, 2] {
            for report in [ReportMode::Closed, ReportMode::Maximal] {
                listed.push(
                    SkinnyMineConfig::new(l, delta, SIGMA)
                        .with_support_measure(MEASURE)
                        .with_report(report)
                        .with_exploration(Exploration::ClosureJump)
                        .with_threads(1),
                );
            }
        }
    }
    (0..listed.len()).map(|r| listed[(7 * r) % listed.len()].clone()).collect()
}

/// A client's request stream: popularity ranks drawn from the Zipf law.
struct Schedule {
    rng: Rng,
    cdf: Vec<f64>,
}

impl Schedule {
    fn new(seed: u64, client: usize, keys: usize) -> Self {
        let weights: Vec<f64> = (1..=keys).map(|r| (r as f64).powf(-ZIPF_S)).collect();
        let total: f64 = weights.iter().sum();
        let cdf = weights
            .iter()
            .scan(0.0, |acc, w| {
                *acc += w / total;
                Some(*acc)
            })
            .collect();
        Schedule { rng: Rng::new(seed ^ Rng::new(client as u64 + 1).next_u64()), cdf }
    }

    fn next(&mut self) -> usize {
        let u = self.rng.next_f64();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// One closed-loop client: requests until `seconds` have passed since
/// `start`; returns its operation counts and latencies.  Each result is
/// checked against the key's expected digest; a result already checked
/// (the same cached `Arc`) is not re-hashed.
fn client(
    index: &MinimalPatternIndex,
    keys: &[SkinnyMineConfig],
    expected: &[u64],
    mut schedule: Schedule,
    start: Instant,
    seconds: f64,
) -> (Report, Vec<f64>) {
    let mut seen: Vec<Option<Arc<MiningResult>>> = vec![None; keys.len()];
    let (mut report, mut latencies) = (Report::default(), Vec::new());
    while start.elapsed().as_secs_f64() < seconds {
        let k = schedule.next();
        let t = Instant::now();
        let result = index.request(&keys[k]);
        latencies.push(t.elapsed().as_secs_f64());
        let ok = match result {
            Ok(r) if seen[k].as_ref().is_some_and(|s| Arc::ptr_eq(s, &r)) => true,
            Ok(r) => {
                let ok = digest(&r.patterns) == expected[k];
                seen[k] = Some(r);
                ok
            }
            Err(_) => false,
        };
        report.op(ok, || format!("request {k}"));
    }
    (report, latencies)
}

/// Runs `CLIENTS` clients for `seconds`; returns every latency, the
/// resident-set peak of each quarter second of the window, and the
/// serving-counter delta.  The counter invariants (hits + misses +
/// coalesced = requests, mining runs = misses) are checked as one more
/// operation.
fn drive(
    index: &MinimalPatternIndex,
    keys: &[SkinnyMineConfig],
    expected: &[u64],
    seed: u64,
    seconds: f64,
    report: &mut Report,
) -> (Vec<f64>, Vec<f64>, ServingStats) {
    let before = index.serving_stats();
    let start = Instant::now();
    let (clients, rss) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let schedule = Schedule::new(seed, c, keys.len());
                scope.spawn(move || client(index, keys, expected, schedule, start, seconds))
            })
            .collect();
        join_sampling_rss(handles)
    });
    let delta = stats_delta(&index.serving_stats(), &before);
    let mut latencies = Vec::new();
    for (r, l) in clients {
        report.absorb(&r);
        latencies.extend(l);
    }
    let consistent = delta.requests() == latencies.len() as u64 && delta.mining_runs == delta.misses;
    report
        .op(consistent, || format!("serving counters for {} requests: {}", latencies.len(), delta.summary()));
    (latencies, rss, delta)
}

fn stats_delta(after: &ServingStats, before: &ServingStats) -> ServingStats {
    ServingStats {
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        coalesced_waiters: after.coalesced_waiters - before.coalesced_waiters,
        evictions: after.evictions - before.evictions,
        mining_runs: after.mining_runs - before.mining_runs,
        ..*after
    }
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let mut build_s = Vec::new();
    let ((graph, index), setup_s) = repeated_setup(|| {
        let graph = shuffled_graph(&fig16_graph(DIVISOR), args.seed);
        let index = MinimalPatternIndex::build_with_threads(&graph, SIGMA, MEASURE, None, BUILD_THREADS);
        build_s.push(index.build_time().as_secs_f64());
        (graph, index)
    });
    report.set("setup_s", setup_s);

    // expected output per key: a fresh, uncached request; its pattern count
    // is the key's cache cost
    let keys = keys();
    let mut expected = Vec::new();
    let mut total_cost = 0u64;
    for key in &keys {
        let r = index.request(key).expect("every key is servable");
        expected.push(digest(&r.patterns));
        total_cost += r.patterns.len().max(1) as u64;
    }
    let index = index.with_cache_config(ServingCacheConfig::new(1, total_cost / 2));

    if !args.trace {
        let (latencies, rss, delta) = drive(&index, &keys, &expected, args.seed, args.seconds, &mut report);
        eprintln!("{}", delta.summary());
        set_latencies(&mut report, &latencies, CLIENTS);
        report.set("peak_rss_mb", median(&rss));
        return report;
    }

    // traced run: the index's Stage I re-executed layer by layer ...
    let mut samples: Vec<Layers> = Vec::new();
    let (digests, traced) = traced_index_build(&graph, SIGMA, MEASURE, BUILD_THREADS);
    let (same, coverage) = (digests == built_index_digests(&index), traced.spans_s / traced.wall_s);
    report.op(same && coverage >= MIN_TRACE_COVERAGE, || {
        format!("traced index build: output identical {same}, coverage {coverage:.3}")
    });
    samples.push(traced.layers);
    // ... the serving counters under the untraced client mix ...
    let half = args.seconds / 2.0;
    let (_, _, delta) = drive(&index, &keys, &expected, args.seed, half, &mut report);
    // ... and one client whose counter deltas classify each request; every
    // miss is replayed through the traced request path
    let mut schedule = Schedule::new(args.seed, CLIENTS, keys.len());
    let (mut hit_s, mut miss_s, mut overhead) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < half || miss_s.is_empty() {
        let k = schedule.next();
        let before = index.serving_stats();
        let t = Instant::now();
        let result = index.request(&keys[k]);
        let s = t.elapsed().as_secs_f64();
        let hit = index.serving_stats().hits > before.hits;
        report.op(result.is_ok_and(|r| digest(&r.patterns) == expected[k]), || format!("request {k}"));
        if hit {
            hit_s.push(s);
            continue;
        }
        miss_s.push(s);
        let traced = traced_index_request(&index, &keys[k]);
        let (same, coverage) = (digest(&traced.patterns) == expected[k], traced.spans_s / traced.wall_s);
        report.op(same && coverage >= MIN_TRACE_COVERAGE, || {
            format!("traced request {k}: output identical {same}, coverage {coverage:.3}")
        });
        overhead.push(traced.wall_s / s);
        samples.push(traced.layers);
    }
    report.set_medians(&samples);
    report.set("trace.overhead", median(&overhead));
    report.set("serving.hit_p50_us", median(&hit_s) * 1e6);
    report.set("serving.miss_p50_ms", median(&miss_s) * 1e3);
    report.set("serving.hit_ratio", delta.hits as f64 / delta.requests().max(1) as f64);
    report.set("serving.evictions", delta.evictions as f64);
    report.set("serving.coalesced_waiters", delta.coalesced_waiters as f64);
    report.set("serving.mining_runs", delta.mining_runs as f64);
    report.set("pattern_index.build_s", median(&build_s));
    report.set("pattern_index.minimal_patterns", index.len() as f64);
    report
}
