//! Cross-miner consistency: SkinnyMine's output checked against the
//! reconstructed complete miner (MoSS) and against brute-force enumeration
//! on small inputs, plus the qualitative relationships between the miners
//! that the paper's evaluation is built on.

use skinny_baselines::{GraphMiner, Moss, MossConfig, SpiderMine, SpiderMineConfig, Subdue, SubdueConfig};
use skinny_datagen::{erdos_renyi, inject_patterns, skinny_pattern, ErConfig, SkinnyPatternConfig};
use skinny_graph::{analyze, LabeledGraph, SupportMeasure};
use skinnymine::{GraphConstraint, ReportMode, SkinnyConstraint, SkinnyMine, SkinnyMineConfig};

/// On a small graph, SkinnyMine with ReportMode::All must report exactly the
/// l-long δ-skinny subset of the complete frequent pattern set (as produced
/// by the complete MoSS reconstruction).
#[test]
fn skinnymine_matches_filtered_complete_miner() {
    // two copies of a 5-long backbone with two twigs
    let mut labels = Vec::new();
    let mut edges: Vec<(u32, u32)> = Vec::new();
    for _ in 0..2 {
        let base = labels.len() as u32;
        labels.extend((0..6u32).map(skinny_graph::Label));
        for i in 0..5u32 {
            edges.push((base + i, base + i + 1));
        }
        labels.push(skinny_graph::Label(10));
        edges.push((base + 2, labels.len() as u32 - 1));
        labels.push(skinny_graph::Label(11));
        edges.push((base + 3, labels.len() as u32 - 1));
    }
    let graph = LabeledGraph::from_unlabeled_edges(&labels, edges).unwrap();

    let (l, delta, sigma) = (5usize, 2u32, 2usize);

    // complete miner + constraint filter
    let complete = Moss::new(MossConfig::new(sigma)).mine_single(&graph);
    assert!(complete.completed);
    let constraint = SkinnyConstraint::new(l, delta);
    let mut expected: Vec<(usize, usize)> = complete
        .patterns
        .iter()
        .filter(|p| constraint.satisfied(&p.graph))
        .map(|p| (p.vertex_count(), p.edge_count()))
        .collect();
    expected.sort();

    // direct miner, complete output (same support measure as the baseline)
    let config = SkinnyMineConfig::new(l, delta, sigma)
        .with_support_measure(SupportMeasure::MinimumImage)
        .with_report(ReportMode::All);
    let result = SkinnyMine::new(config).mine(&graph).unwrap();
    let mut got: Vec<(usize, usize)> =
        result.patterns.iter().map(|p| (p.vertex_count(), p.edge_count())).collect();
    got.sort();

    assert_eq!(got, expected, "direct mining must equal enumerate-and-check + filter");
}

/// The headline qualitative claim: on data containing a long skinny pattern,
/// SkinnyMine recovers it while SpiderMine (diameter-bounded) and SUBDUE
/// (small-pattern bias) do not.
#[test]
fn skinnymine_finds_what_baselines_miss() {
    let background = erdos_renyi(&ErConfig::new(500, 2.5, 60, 3));
    let skinny = skinny_pattern(&SkinnyPatternConfig::new(22, 16, 1, 60, 8));
    assert_eq!(analyze(&skinny).unwrap().diameter_length(), 16);
    let data = inject_patterns(&background, &[(skinny.clone(), 2)], 6).graph;

    // SkinnyMine asks for long diameters and recovers a large skinny pattern
    let config = skinnymine::SkinnyMineConfig::new(16, 2, 2)
        .with_length(skinnymine::LengthConstraint::AtLeast(14))
        .with_support_measure(SupportMeasure::MinimumImage)
        .with_report(ReportMode::Closed)
        .with_exploration(skinnymine::Exploration::ClosureJump);
    let skinny_result = SkinnyMine::new(config).mine(&data).unwrap();
    let best_skinny = skinny_result.patterns.iter().map(|p| p.vertex_count()).max().unwrap_or(0);
    assert!(best_skinny >= 17, "SkinnyMine only recovered {best_skinny} vertices of the injected pattern");

    // SpiderMine with its diameter bound cannot output the full skinny pattern
    let spider = SpiderMine::new(SpiderMineConfig::paper_defaults().with_seeds(60)).mine_single(&data);
    let best_spider = spider.patterns.iter().map(|p| p.vertex_count()).max().unwrap_or(0);
    assert!(
        best_spider < skinny.vertex_count(),
        "SpiderMine unexpectedly recovered the full skinny pattern ({best_spider} vertices)"
    );
    for p in &spider.patterns {
        assert!(skinny_graph::diameter(&p.graph).unwrap_or(0) <= 4);
    }

    // SUBDUE reports small substructures
    let subdue = Subdue::new(SubdueConfig { budget: skinny_baselines::Budget::tiny(), ..Default::default() })
        .mine_single(&data);
    let best_subdue = subdue.patterns.iter().map(|p| p.vertex_count()).max().unwrap_or(0);
    assert!(best_subdue < skinny.vertex_count());
}

/// All reported SkinnyMine supports agree with independent subgraph-
/// isomorphism counting (the ground truth from the graph substrate).
#[test]
fn reported_supports_match_subiso_ground_truth() {
    let mut labels = Vec::new();
    let mut edges: Vec<(u32, u32)> = Vec::new();
    for _ in 0..3 {
        let base = labels.len() as u32;
        labels.extend([0u32, 1, 2, 3, 4].map(skinny_graph::Label));
        for i in 0..4u32 {
            edges.push((base + i, base + i + 1));
        }
        labels.push(skinny_graph::Label(9));
        edges.push((base + 2, labels.len() as u32 - 1));
    }
    let graph = LabeledGraph::from_unlabeled_edges(&labels, edges).unwrap();
    let config = SkinnyMineConfig::new(4, 2, 2).with_report(ReportMode::All);
    let result = SkinnyMine::new(config).mine(&graph).unwrap();
    assert!(!result.is_empty());
    for p in &result.patterns {
        let found = skinny_graph::find_embeddings(&p.graph, &graph, Default::default());
        assert_eq!(
            p.support,
            found.support(SupportMeasure::MinimumImage),
            "support mismatch for pattern with {} vertices",
            p.vertex_count()
        );
    }
}
