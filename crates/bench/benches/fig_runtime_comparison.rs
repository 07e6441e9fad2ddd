//! Criterion benches for the runtime-comparison figures (Figures 11–13 and
//! the Figure-20 runtime table): SkinnyMine against MoSS, SUBDUE and
//! SpiderMine on fixed-size backgrounds.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use skinny_baselines::{
    Budget, GraphMiner, Moss, MossConfig, SpiderMine, SpiderMineConfig, Subdue, SubdueConfig,
};
use skinny_datagen::ScalabilitySetting;
use skinnymine::{Exploration, LengthConstraint, ReportMode, SkinnyMine, SkinnyMineConfig};

fn skinny_config() -> SkinnyMineConfig {
    SkinnyMineConfig::new(6, 2, 2)
        .with_length(LengthConstraint::AtLeast(6))
        .with_report(ReportMode::Closed)
        .with_exploration(Exploration::ClosureJump)
}

/// Figure 11: SkinnyMine vs MoSS on small sparse graphs.
fn bench_vs_moss(c: &mut Criterion) {
    let setting = ScalabilitySetting::figure11();
    let graph = setting.generate(300, 3);
    let mut group = c.benchmark_group("fig11_vs_moss");
    group.sample_size(10);
    group.bench_function("skinnymine_300", |b| {
        b.iter(|| SkinnyMine::new(skinny_config()).mine(&graph).expect("mining succeeds"))
    });
    group.bench_function("moss_300", |b| {
        let budget = Budget { max_candidates: 100_000, max_duration: std::time::Duration::from_secs(10) };
        b.iter(|| Moss::new(MossConfig::new(2).with_budget(budget)).mine_single(&graph))
    });
    group.finish();
}

/// Figure 12: SkinnyMine vs SUBDUE as the graph grows.
fn bench_vs_subdue(c: &mut Criterion) {
    let setting = ScalabilitySetting::figure12();
    let mut group = c.benchmark_group("fig12_vs_subdue");
    group.sample_size(10);
    for &size in &[500usize, 1000] {
        let graph = setting.generate(size, 11);
        group.bench_with_input(BenchmarkId::new("skinnymine", size), &graph, |b, g| {
            b.iter(|| SkinnyMine::new(skinny_config()).mine(g).expect("mining succeeds"))
        });
        group.bench_with_input(BenchmarkId::new("subdue", size), &graph, |b, g| {
            b.iter(|| {
                Subdue::new(SubdueConfig { budget: Budget::tiny(), ..Default::default() }).mine_single(g)
            })
        });
    }
    group.finish();
}

/// Figure 13 / Figure 20: SkinnyMine vs SpiderMine.
fn bench_vs_spidermine(c: &mut Criterion) {
    let setting = ScalabilitySetting::figure13();
    let graph = setting.generate(1500, 13);
    let mut group = c.benchmark_group("fig13_vs_spidermine");
    group.sample_size(10);
    group.bench_function("skinnymine_1500", |b| {
        b.iter(|| SkinnyMine::new(skinny_config()).mine(&graph).expect("mining succeeds"))
    });
    group.bench_function("spidermine_1500", |b| {
        let config = SpiderMineConfig::paper_defaults().with_k(10).with_seeds(30);
        b.iter(|| SpiderMine::new(config.clone()).mine_single(&graph))
    });
    group.finish();
}

criterion_group!(benches, bench_vs_moss, bench_vs_subdue, bench_vs_spidermine);
criterion_main!(benches);
