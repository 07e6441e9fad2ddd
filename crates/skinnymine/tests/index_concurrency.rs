//! Concurrent serving of the minimal-pattern index: one shared
//! [`MinimalPatternIndex`] answering simultaneous requests with distinct `l`
//! values (the Figure-2 deployment under load) must return exactly what a
//! fresh sequential mine of each request would.

use skinny_graph::{Label, LabeledGraph, SupportMeasure};
use skinnymine::{
    Exploration, LengthConstraint, MinimalPatternIndex, MiningResult, ReportMode, SkinnyMine,
    SkinnyMineConfig,
};

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

#[test]
fn concurrent_distinct_l_requests_match_fresh_sequential_mines() {
    let g = data();
    let index = MinimalPatternIndex::build(&g, 2, SupportMeasure::DistinctVertexSets, None);

    // ground truth: fresh, sequential, index-free mines
    let expected: Vec<Vec<(usize, usize, usize)>> = (1..=6)
        .map(|l| summary(&SkinnyMine::new(request_config(l)).mine(&g).expect("mining succeeds")))
        .collect();

    // the same requests, served concurrently from one shared index, several
    // times each so cached and uncached paths are both exercised
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for round in 0..3 {
            for l in 1..=6usize {
                let index = &index;
                handles.push((
                    l,
                    round,
                    scope.spawn(move || {
                        summary(&index.request(&request_config(l)).expect("request succeeds"))
                    }),
                ));
            }
        }
        for (l, round, handle) in handles {
            let got = handle.join().expect("request thread must not panic");
            assert_eq!(
                got,
                expected[l - 1],
                "concurrent request l = {l} (round {round}) differs from a fresh sequential mine"
            );
        }
    });
}

#[test]
fn cached_and_parallel_serving_agree_with_uncached() {
    let g = data();
    let index = MinimalPatternIndex::build(&g, 2, SupportMeasure::DistinctVertexSets, None);
    let config = request_config(4);
    let first = index.request(&config).expect("request succeeds");
    let cached = index.request(&config).expect("request succeeds");
    // a hit is a pointer-copy of the cached result, not a deep clone
    assert!(std::sync::Arc::ptr_eq(&first, &cached), "cache hits must share the one allocation");
    // the pooled variant shares the cache slot (threads is normalized away)
    let pooled_hit = index.request(&config.clone().with_threads(8)).expect("request succeeds");
    assert!(std::sync::Arc::ptr_eq(&first, &pooled_hit), "normalized keys share one slot");
    // growing the clusters on the pool must not change a byte of the
    // answer: both requests finish in the index order
    index.purge_cache();
    let parallel = index.request(&config.with_threads(8)).expect("request succeeds");
    assert!(!std::sync::Arc::ptr_eq(&first, &parallel), "a purged slot is mined again");
    assert_eq!(index.serving_stats().mining_runs, 2);
    assert_eq!(format!("{:?}", first.patterns), format!("{:?}", parallel.patterns));
}

#[test]
fn parallel_index_build_matches_sequential_build() {
    let g = data();
    let seq = MinimalPatternIndex::build(&g, 2, SupportMeasure::DistinctVertexSets, None);
    let par = MinimalPatternIndex::build_with_threads(&g, 2, SupportMeasure::DistinctVertexSets, None, 8);
    assert_eq!(seq.available_lengths(), par.available_lengths());
    for l in seq.available_lengths() {
        let a: Vec<_> = seq.minimal_patterns(l).iter().map(|p| (&p.key, p.embeddings.len())).collect();
        let b: Vec<_> = par.minimal_patterns(l).iter().map(|p| (&p.key, p.embeddings.len())).collect();
        assert_eq!(a, b, "Stage-I results differ at l = {l}");
    }
}

#[test]
fn closure_requests_served_concurrently() {
    let g = data();
    let index = MinimalPatternIndex::build(&g, 2, SupportMeasure::DistinctVertexSets, None);
    let config = SkinnyMineConfig::new(6, 2, 2)
        .with_length(LengthConstraint::Between(3, 6))
        .with_report(ReportMode::Closed)
        .with_exploration(Exploration::ClosureJump);
    let expected = summary(&index.request(&config).expect("request succeeds"));
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let (index, config) = (&index, &config);
                scope.spawn(move || summary(&index.request(config).expect("request succeeds")))
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().expect("no panic"), expected);
        }
    });
}
