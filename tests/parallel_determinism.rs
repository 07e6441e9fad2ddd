//! Workspace-level determinism guarantee of the parallel mining engine:
//! for any thread count **and for either input form** (the adjacency-list
//! graph or database, or a pre-frozen CSR snapshot of it), `SkinnyMine`
//! must produce **byte-identical** results — same patterns, same order,
//! same embeddings — because Stage I's chunked occurrence joins and Stage
//! II's per-seed cluster growth both merge their partial results in
//! deterministic task order, and every input form is mined as the same
//! snapshot.

use skinny_datagen::{erdos_renyi, inject_patterns, skinny_pattern, ErConfig, SkinnyPatternConfig};
use skinny_graph::{CsrSnapshot, LabeledGraph};
use skinnymine::{
    Exploration, LengthConstraint, MiningData, MiningResult, ReportMode, SkinnyMine, SkinnyMineConfig,
};

/// An Erdős–Rényi background with a known skinny pattern injected twice.
fn injected_er_graph() -> LabeledGraph {
    let background = erdos_renyi(&ErConfig::new(260, 2.0, 40, 7));
    let pattern = skinny_pattern(&SkinnyPatternConfig::new(13, 8, 2, 40, 19));
    inject_patterns(&background, &[(pattern, 2)], 3).graph
}

/// The full, order-sensitive `Debug` rendering of a result's patterns:
/// graphs, cluster identity, support flags, exact embedding lists and
/// memoized canonical data, in reported order.
fn pattern_bytes(result: &MiningResult) -> String {
    format!("{:?}", result.patterns)
}

/// Mines with 1, 2 and 8 threads, from the adjacency-list input (`mine`)
/// and from its pre-frozen snapshot (`mine_frozen`), and holds every run
/// byte-identical to the sequential adjacency-list run.
fn assert_invariant(
    config: &SkinnyMineConfig,
    mine: impl Fn(&SkinnyMine) -> MiningResult,
    mine_frozen: impl Fn(&SkinnyMine) -> MiningResult,
) {
    let baseline = mine(&SkinnyMine::new(config.clone().with_threads(1)));
    assert!(!baseline.is_empty(), "fixture must produce patterns for the comparison to mean anything");
    for threads in [1usize, 2, 8] {
        let miner = SkinnyMine::new(config.clone().with_threads(threads));
        let mut runs = vec![("pre-frozen snapshot", mine_frozen(&miner))];
        if threads > 1 {
            runs.push(("adjacency-list input", mine(&miner)));
        }
        for (input, run) in runs {
            assert_eq!(
                pattern_bytes(&baseline),
                pattern_bytes(&run),
                "threads = {threads}, {input} diverged from the sequential result"
            );
            assert_eq!(baseline.stats.clusters, run.stats.clusters);
            assert_eq!(baseline.stats.reported_patterns, run.stats.reported_patterns);
            assert_eq!(
                baseline.stats.level_grow.candidates_examined, run.stats.level_grow.candidates_examined,
                "threads = {threads}, {input}: ordered merge must reproduce the sequential counters"
            );
        }
    }
}

fn assert_thread_invariant(config: SkinnyMineConfig, graph: &LabeledGraph) {
    let snapshot = CsrSnapshot::from_graph(graph);
    assert_invariant(
        &config,
        |miner| miner.mine(graph).expect("mining succeeds"),
        |miner| miner.mine_data(MiningData::Snapshot(&snapshot)).expect("mining succeeds"),
    );
}

#[test]
fn closure_jump_mining_is_thread_invariant() {
    let graph = injected_er_graph();
    let config = SkinnyMineConfig::new(8, 2, 2)
        .with_length(LengthConstraint::AtLeast(7))
        .with_report(ReportMode::Closed)
        .with_exploration(Exploration::ClosureJump);
    assert_thread_invariant(config, &graph);
}

#[test]
fn exhaustive_mining_is_thread_invariant() {
    let graph = injected_er_graph();
    let config = SkinnyMineConfig::new(7, 1, 2)
        .with_length(LengthConstraint::Between(6, 7))
        .with_report(ReportMode::All);
    assert_thread_invariant(config, &graph);
}

#[test]
fn transaction_setting_is_thread_invariant() {
    let t = |seed: u64| {
        let background = erdos_renyi(&ErConfig::new(120, 2.0, 30, seed));
        let pattern = skinny_pattern(&SkinnyPatternConfig::new(10, 6, 2, 30, 77));
        inject_patterns(&background, &[(pattern, 1)], seed + 1).graph
    };
    let db = skinny_graph::GraphDatabase::from_graphs((0..4).map(|i| t(i as u64)).collect());
    let config = SkinnyMineConfig::new(6, 2, 3)
        .with_support_measure(skinny_graph::SupportMeasure::Transactions)
        .with_report(ReportMode::Closed)
        .with_exploration(Exploration::ClosureJump);
    let snapshot = CsrSnapshot::from_database(&db);
    assert_invariant(
        &config,
        |miner| miner.mine_database(&db).expect("mining succeeds"),
        |miner| miner.mine_data(MiningData::Snapshot(&snapshot)).expect("mining succeeds"),
    );
}
