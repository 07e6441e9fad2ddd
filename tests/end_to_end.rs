//! Cross-crate end-to-end tests: synthetic data generation (skinny-datagen)
//! -> mining (skinnymine) -> verification against the specification
//! (skinny-graph), in both problem settings.

use skinny_datagen::{
    erdos_renyi, generate_dblp, generate_transaction_database, generate_update_stream, generate_weibo,
    generate_xl, inject_patterns, skinny_pattern, DblpConfig, ErConfig, SkinnyPatternConfig,
    TransactionSetting, UpdateStreamSetting, WeiboConfig, XlSetting,
};
use skinny_graph::{analyze, SupportMeasure};
use skinnymine::{Exploration, IncrementalMiner, LengthConstraint, ReportMode, SkinnyMine, SkinnyMineConfig};

/// Injecting a known skinny pattern into a random background and mining with
/// the matching (l, delta) request must recover it.
#[test]
fn recovers_injected_pattern_from_background() {
    let background = erdos_renyi(&ErConfig::new(600, 2.5, 60, 11));
    let pattern = skinny_pattern(&SkinnyPatternConfig::new(24, 14, 2, 60, 21));
    let expected = analyze(&pattern).expect("pattern is connected");
    assert_eq!(expected.diameter_length(), 14);

    let data = inject_patterns(&background, &[(pattern.clone(), 3)], 5).graph;
    let config = SkinnyMineConfig::new(14, 2, 2)
        .with_length(LengthConstraint::AtLeast(12))
        .with_report(ReportMode::Closed)
        .with_exploration(Exploration::ClosureJump);
    let result = SkinnyMine::new(config).mine(&data).expect("mining succeeds");

    assert!(!result.is_empty(), "no pattern mined at all");
    // some reported pattern must cover (most of) the injected one
    let recovered = result.patterns.iter().any(|p| {
        p.diameter_len == 14 && p.vertex_count() * 10 >= pattern.vertex_count() * 8 && p.support >= 3
    });
    assert!(recovered, "the injected 14-long pattern was not recovered");

    // every reported pattern must satisfy the specification and carry valid
    // embeddings
    for p in &result.patterns {
        assert!(
            skinnymine::satisfies_skinny_spec(&p.graph, p.diameter_len, 2, &p.diameter_labels),
            "reported pattern violates the l-long delta-skinny specification"
        );
        for e in p.embeddings.iter() {
            assert!(e.is_valid(&p.graph, &data), "stored embedding is not a real occurrence");
        }
    }
}

/// The transaction setting end to end: patterns planted in a subset of
/// transactions are found with transaction support equal to that subset size.
#[test]
fn transaction_setting_end_to_end() {
    let setting = TransactionSetting {
        transactions: 6,
        vertices: 150,
        degree: 3.0,
        labels: 40,
        skinny_patterns: 2,
        skinny_vertices: 16,
        skinny_diameter: 10,
        skinny_support: 4,
        small_patterns: 5,
        small_vertices: 4,
        small_support: 3,
    };
    let db = generate_transaction_database(&setting, 3);
    assert_eq!(db.len(), 6);

    let config = SkinnyMineConfig::new(10, 2, 3)
        .with_length(LengthConstraint::AtLeast(8))
        .with_support_measure(SupportMeasure::Transactions)
        .with_report(ReportMode::Closed)
        .with_exploration(Exploration::ClosureJump);
    let result = SkinnyMine::new(config).mine_database(&db).expect("mining succeeds");
    assert!(!result.is_empty(), "expected at least one frequent skinny pattern across transactions");
    for p in &result.patterns {
        assert!(p.support >= 3);
        assert!(p.diameter_len >= 8);
        // embeddings must reference the transaction they belong to
        for e in p.embeddings.iter() {
            assert!(e.transaction < db.len());
            assert!(e.is_valid(&p.graph, &db[e.transaction]));
        }
    }
}

/// The simulated DBLP corpus yields long temporal collaboration patterns.
#[test]
fn dblp_case_study_produces_long_patterns() {
    let db = generate_dblp(&DblpConfig { authors: 60, ..Default::default() });
    let config = SkinnyMineConfig::new(20, 2, 5)
        .with_length(LengthConstraint::AtLeast(20))
        .with_support_measure(SupportMeasure::Transactions)
        .with_report(ReportMode::Closed)
        .with_exploration(Exploration::ClosureJump);
    let result = SkinnyMine::new(config).mine_database(&db).expect("mining succeeds");
    assert!(!result.is_empty());
    assert!(result.patterns.iter().all(|p| p.diameter_len >= 20));
    assert!(result.patterns.iter().all(|p| p.support >= 5));
}

/// The simulated Weibo corpus yields long skinny diffusion chains, including
/// chains with follower-interaction twigs (the paper's Figure 24 pattern).
#[test]
fn weibo_case_study_produces_diffusion_chains() {
    let db = generate_weibo(&WeiboConfig { conversations: 60, ..Default::default() });
    let config = SkinnyMineConfig::new(10, 3, 5)
        .with_length(LengthConstraint::AtLeast(10))
        .with_support_measure(SupportMeasure::Transactions)
        .with_report(ReportMode::Closed)
        .with_exploration(Exploration::ClosureJump);
    let result = SkinnyMine::new(config).mine_database(&db).expect("mining succeeds");
    assert!(!result.is_empty());
    // at least one mined pattern has interaction twigs (more vertices than
    // its diameter path alone)
    assert!(
        result.patterns.iter().any(|p| p.vertex_count() > p.diameter_len + 1),
        "expected at least one diffusion chain with interaction twigs"
    );
}

/// The minimal-pattern index serves repeated requests identically to direct
/// mining runs (the Figure-2 deployment), pattern for pattern.  The index
/// sorts ties differently from the direct miner, so the results are compared
/// as sorted `Debug` renderings.
#[test]
fn index_requests_match_direct_runs() {
    let background = erdos_renyi(&ErConfig::new(400, 2.5, 50, 17));
    let pattern = skinny_pattern(&SkinnyPatternConfig::new(14, 8, 2, 50, 23));
    let data = inject_patterns(&background, &[(pattern, 3)], 9).graph;

    let index = skinnymine::MinimalPatternIndex::build(&data, 2, SupportMeasure::MinimumImage, Some(10));
    let sorted_debug = |patterns: &[skinnymine::SkinnyPattern]| {
        let mut out: Vec<String> = patterns.iter().map(|p| format!("{p:?}")).collect();
        out.sort();
        out
    };
    for l in [6usize, 8] {
        let config = SkinnyMineConfig::new(l, 2, 2)
            .with_support_measure(SupportMeasure::MinimumImage)
            .with_report(ReportMode::Closed)
            .with_exploration(Exploration::ClosureJump);
        let via_index = index.request(&config).expect("request matches index");
        let direct = SkinnyMine::new(config).mine(&data).expect("mining succeeds");
        assert!(!direct.is_empty(), "the planted pattern yields patterns at l = {l}");
        assert_eq!(
            sorted_debug(&via_index.patterns),
            sorted_debug(&direct.patterns),
            "index-served result differs from direct mining at l = {l}"
        );
    }
}

/// The down-scaled corpus presets recover their planted patterns: the XL
/// tier (every tenth transaction hosts one pattern) through a direct mine,
/// and both update streams (one pattern per family, planted in every
/// transaction of the family) through the incremental miner's first mine.
#[test]
fn scaled_presets_recover_their_planted_patterns() {
    let xl = XlSetting::scaled(512);
    let db = generate_xl(&xl, 2);
    let sigma = db.len().div_ceil(10);
    let config = SkinnyMineConfig::new(xl.pattern_diameter, 2, sigma)
        .with_length(LengthConstraint::Exactly(xl.pattern_diameter))
        .with_support_measure(SupportMeasure::Transactions)
        .with_report(ReportMode::Closed)
        .with_exploration(Exploration::ClosureJump)
        .with_threads(2);
    let result = SkinnyMine::new(config).mine_database(&db).expect("valid config");
    assert!(!result.patterns.is_empty(), "the planted XL pattern was not recovered");

    for (name, setting) in [
        ("fig16-update", UpdateStreamSetting::fig16().scaled(4)),
        ("xl-update", UpdateStreamSetting::xl().scaled(512)),
    ] {
        let config = SkinnyMineConfig::new(setting.pattern_diameter, 2, setting.planted_support())
            .with_length(LengthConstraint::Exactly(setting.pattern_diameter))
            .with_support_measure(SupportMeasure::Transactions)
            .with_report(ReportMode::Closed)
            .with_exploration(Exploration::ClosureJump)
            .with_cycle_seeds(false)
            .with_threads(2);
        let miner = IncrementalMiner::new(config, generate_update_stream(&setting, 2)).expect("valid corpus");
        assert!(!miner.result().patterns.is_empty(), "the planted {name} patterns were not recovered");
    }
}
