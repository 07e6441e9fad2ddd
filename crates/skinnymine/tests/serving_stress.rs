//! Stress tests of the pattern-index serving layer: single-flight under
//! hammering concurrent traffic, byte-identical results across coalesced
//! waiters, and the bounded LRU's refusal to drop the hot working set.
//!
//! The serving counters double as the test oracle: `mining_runs` counts
//! actual `serve_uncached` executions, so `mining_runs == distinct configs`
//! under concurrent identical requests *is* the single-flight guarantee,
//! and `mining_runs == misses` proves no computed result was ever discarded
//! (the pre-single-flight race dropped a freshly computed result whenever
//! another thread inserted first — its `mining_runs` would exceed `misses`).

use skinny_graph::{GraphDatabase, Label, LabeledGraph, SupportMeasure, VertexId};
use skinnymine::{
    LengthConstraint, MinimalPatternIndex, MiningResult, ReportMode, ServingCacheConfig, SkinnyMine,
    SkinnyMineConfig,
};
use std::sync::{Arc, Barrier};

/// Three copies of a 6-long backbone with twigs: frequent paths at every
/// length 1..=6, so requests across distinct `l` all have work to do.
fn data() -> LabeledGraph {
    let mut labels = Vec::new();
    let mut edges: Vec<(u32, u32)> = Vec::new();
    for _ in 0..3 {
        let base = labels.len() as u32;
        labels.extend((0..7u32).map(Label));
        for i in 0..6u32 {
            edges.push((base + i, base + i + 1));
        }
        labels.push(Label(20));
        edges.push((base + 2, labels.len() as u32 - 1));
        labels.push(Label(21));
        edges.push((base + 4, labels.len() as u32 - 1));
    }
    LabeledGraph::from_unlabeled_edges(&labels, edges).unwrap()
}

fn request_config(l: usize) -> SkinnyMineConfig {
    SkinnyMineConfig::new(l, 2, 2).with_length(LengthConstraint::Exactly(l)).with_report(ReportMode::All)
}

fn summary(result: &MiningResult) -> Vec<(usize, usize, usize)> {
    let mut v: Vec<(usize, usize, usize)> =
        result.patterns.iter().map(|p| (p.vertex_count(), p.edge_count(), p.support)).collect();
    v.sort();
    v
}

const THREADS: usize = 8;

/// 8 threads released by a barrier onto one identical uncached request:
/// exactly one mining run happens, and every thread receives the **same
/// allocation** (`Arc::ptr_eq`), whether it led, coalesced, or hit the
/// freshly filled cache.
#[test]
fn concurrent_identical_requests_coalesce_onto_one_mining_run() {
    let g = data();
    let index = MinimalPatternIndex::build(&g, 2, SupportMeasure::MinimumImage, None);
    let config = request_config(4);
    let barrier = Barrier::new(THREADS);
    let results: Vec<Arc<MiningResult>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let (index, config, barrier) = (&index, &config, &barrier);
                scope.spawn(move || {
                    barrier.wait();
                    index.request(config).expect("request succeeds")
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("no panic")).collect()
    });
    for r in &results {
        assert!(Arc::ptr_eq(&results[0], r), "every thread must share the one computed allocation");
    }
    let stats = index.serving_stats();
    assert_eq!(stats.mining_runs, 1, "single-flight: one run for N concurrent identical requests");
    assert_eq!(stats.misses, 1, "exactly one leader");
    assert_eq!(
        stats.requests(),
        THREADS as u64,
        "every request is accounted as a hit, the leader, or a coalesced waiter"
    );
    assert_eq!(stats.in_flight, 0);
}

/// 8 threads hammer 6 distinct configs for several rounds, each thread
/// visiting them in a different rotation: across the whole run there is
/// exactly one mining run per distinct config (no duplicate work), no run's
/// result is discarded (`mining_runs == misses`), every thread observes
/// results identical to a fresh sequential mine, and the cache holds
/// exactly the 6 entries with no evictions.
#[test]
fn hammering_mixed_configs_mines_each_distinct_config_exactly_once() {
    const ROUNDS: usize = 5;
    const LENGTHS: usize = 6;
    let g = data();
    let index = MinimalPatternIndex::build(&g, 2, SupportMeasure::MinimumImage, None);
    let expected: Vec<Vec<(usize, usize, usize)>> = (1..=LENGTHS)
        .map(|l| summary(&SkinnyMine::new(request_config(l)).mine(&g).expect("mining succeeds")))
        .collect();
    let barrier = Barrier::new(THREADS);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let (index, expected, barrier) = (&index, &expected, &barrier);
                scope.spawn(move || {
                    barrier.wait();
                    for round in 0..ROUNDS {
                        for i in 0..LENGTHS {
                            let l = 1 + (i + t) % LENGTHS; // rotated visiting order per thread
                            let got = index.request(&request_config(l)).expect("request succeeds");
                            assert_eq!(
                                summary(&got),
                                expected[l - 1],
                                "thread {t} round {round}: l = {l} differs from a sequential mine"
                            );
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("no panic");
        }
    });
    let stats = index.serving_stats();
    assert_eq!(stats.mining_runs, LENGTHS as u64, "one mining run per distinct config, ever");
    assert_eq!(stats.mining_runs, stats.misses, "no computed result was discarded");
    assert_eq!(stats.requests(), (THREADS * ROUNDS * LENGTHS) as u64);
    assert_eq!(stats.evictions, 0, "the working set fits the default cache bound");
    assert_eq!(stats.cached_entries, LENGTHS as u64);
    assert_eq!(stats.in_flight, 0);
}

/// An invalidator thread hammers per-key eviction of every configuration
/// while 8 reader threads hammer requests for them: every served result is
/// still identical to a fresh sequential mine (an invalidation can race a
/// lookup, never corrupt it), no computed result is discarded
/// (`mining_runs == misses`), and the invalidator actually evicted entries.
#[test]
fn concurrent_invalidation_never_serves_a_wrong_result() {
    const ROUNDS: usize = 25;
    const LENGTHS: usize = 4;
    let g = data();
    let index = MinimalPatternIndex::build(&g, 2, SupportMeasure::MinimumImage, None);
    let expected: Vec<Vec<(usize, usize, usize)>> = (1..=LENGTHS)
        .map(|l| summary(&SkinnyMine::new(request_config(l)).mine(&g).expect("mining succeeds")))
        .collect();
    let barrier = Barrier::new(THREADS + 1);
    let done = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|scope| {
        let (index, barrier, done) = (&index, &barrier, &done);
        scope.spawn(move || {
            barrier.wait();
            // race eviction against the readers for as long as they run,
            // then sweep once more: the readers' final results are cached by
            // then, so the invalidator deterministically evicts something —
            // either here or already during the race
            while !done.load(std::sync::atomic::Ordering::Acquire) {
                for l in 1..=LENGTHS {
                    index.invalidate(&request_config(l));
                }
            }
            for l in 1..=LENGTHS {
                index.invalidate(&request_config(l));
            }
        });
        let readers: Vec<_> = (0..THREADS)
            .map(|t| {
                let expected = &expected;
                scope.spawn(move || {
                    barrier.wait();
                    for round in 0..ROUNDS {
                        for i in 0..LENGTHS {
                            let l = 1 + (i + t) % LENGTHS;
                            let got = index.request(&request_config(l)).expect("request succeeds");
                            assert_eq!(
                                summary(&got),
                                expected[l - 1],
                                "thread {t} round {round}: l = {l} differs from a sequential mine"
                            );
                        }
                    }
                })
            })
            .collect();
        for r in readers {
            r.join().expect("no reader panic");
        }
        done.store(true, std::sync::atomic::Ordering::Release);
    });
    let stats = index.serving_stats();
    assert!(stats.invalidations > 0, "the invalidator must have evicted entries");
    assert_eq!(stats.mining_runs, stats.misses, "no computed result was discarded");
    assert_eq!(stats.in_flight, 0);
}

/// Update-then-serve rounds against a transaction-database index: each
/// round warms the cache with concurrent traffic, mutates one transaction
/// through `update_database` (bumping the data version), and then requires
/// every subsequent request to match an index rebuilt from scratch over the
/// mirrored database — a stale pre-update `Arc` must never be served, and
/// the stale entries drain per key through the invalidation counter.
#[test]
fn database_updates_invalidate_stale_results_between_traffic_bursts() {
    const ROUNDS: usize = 4;
    const LENGTHS: usize = 4;
    let g = data();
    let db = GraphDatabase::from_graphs(vec![g.clone(), g.clone(), g.clone()]);
    let mut index = MinimalPatternIndex::build_for_database(&db, 2, SupportMeasure::Transactions, None);
    let mut mirror = db;
    let config = |l: usize| request_config(l).with_support_measure(SupportMeasure::Transactions);
    for round in 0..ROUNDS {
        // concurrent traffic warms the cache with the current-version results
        let barrier = Barrier::new(THREADS);
        std::thread::scope(|scope| {
            let (index, barrier) = (&index, &barrier);
            for t in 0..THREADS {
                scope.spawn(move || {
                    barrier.wait();
                    for i in 0..LENGTHS {
                        let l = 1 + (i + t) % LENGTHS;
                        index.request(&config(l)).expect("request succeeds");
                    }
                });
            }
        });
        assert_eq!(index.serving_stats().cached_entries, LENGTHS as u64);
        // hang a fresh twig off one transaction; mirror the same mutation
        let t = round % 3;
        let twig = Label(100 + round as u32);
        let grow = |db: &mut GraphDatabase| {
            let v = db.add_vertex_in(t, twig).expect("transaction exists");
            db.add_edge_in(t, VertexId(0), v, Label(0)).expect("vertices exist");
        };
        let version = index.update_database(grow).expect("transactional index");
        assert_eq!(version, round as u64 + 1, "every effective update bumps the version once");
        grow(&mut mirror);
        // after the update every request must match a from-scratch rebuild
        let rebuilt = MinimalPatternIndex::build_for_database(&mirror, 2, SupportMeasure::Transactions, None);
        for l in 1..=LENGTHS {
            let got = index.request(&config(l)).expect("request succeeds");
            let want = rebuilt.request(&config(l)).expect("request succeeds");
            assert_eq!(
                format!("{:?}", got.patterns),
                format!("{:?}", want.patterns),
                "round {round}: l = {l} served a stale or divergent result"
            );
        }
    }
    let stats = index.serving_stats();
    assert_eq!(stats.data_version, ROUNDS as u64);
    assert_eq!(
        stats.invalidations,
        (ROUNDS * LENGTHS) as u64,
        "every warmed entry of every round drains per key after its update"
    );
    assert_eq!(stats.mining_runs, stats.misses, "no computed result was discarded");
    assert_eq!(stats.in_flight, 0);
}

/// Deterministic bounded-LRU behavior through the index: under a tiny cache
/// budget, a stream of unique throwaway keys interleaved with one hot key
/// evicts the throwaways — the hot key stays cached (never re-mined), the
/// cached cost respects the bound, and re-running the identical history
/// yields the identical eviction count.
#[test]
fn bounded_cache_keeps_the_interleaved_hot_key() {
    const UNIQUES: u64 = 50;
    let run = || {
        let g = data();
        let hot = request_config(3);
        let hot_cost =
            SkinnyMine::new(hot.clone()).mine(&g).expect("mining succeeds").patterns.len().max(1) as u64;
        // room for the hot entry plus one throwaway (each unique key serves
        // the same patterns, so every entry costs `hot_cost`), single shard
        // so the eviction history is exactly sequential LRU
        let budget = 2 * hot_cost + 2;
        let index = MinimalPatternIndex::build(&g, 2, SupportMeasure::MinimumImage, None)
            .with_cache_config(ServingCacheConfig::new(1, budget));
        index.request(&hot).expect("request succeeds");
        for uid in 0..UNIQUES {
            // unique cache key, same served patterns: the cap never binds
            let unique = request_config(3).with_max_patterns(Some(1_000_000 + uid as usize));
            index.request(&unique).expect("request succeeds");
            index.request(&hot).expect("request succeeds");
        }
        let stats = index.serving_stats();
        assert_eq!(
            stats.mining_runs,
            1 + UNIQUES,
            "the hot key is mined once; every unique key once; nothing is re-mined"
        );
        assert_eq!(stats.hits, UNIQUES, "every interleaved hot request hits");
        assert!(stats.evictions > 0, "the unique churn must overflow the tiny budget");
        assert!(stats.cached_cost <= budget, "the cache respects its cost bound");
        stats
    };
    let first = run();
    let second = run();
    assert_eq!(first, second, "identical history must produce identical eviction behavior");
}
