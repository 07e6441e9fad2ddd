//! Criterion benches for the scalability figures (Figures 14–15): the two
//! SkinnyMine stages on growing Erdős–Rényi backgrounds with injected skinny
//! patterns, plus an ablation of the constraint-checking mode (fast local
//! D_H/D_T checks vs full canonical-diameter recomputation).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use skinny_datagen::ScalabilitySetting;
use skinny_graph::SupportMeasure;
use skinnymine::{
    ConstraintCheckMode, DiamMine, Exploration, LengthConstraint, MiningData, ReportMode, SkinnyMine,
    SkinnyMineConfig,
};

fn config(check: ConstraintCheckMode) -> SkinnyMineConfig {
    SkinnyMineConfig::new(4, 3, 2)
        .with_length(LengthConstraint::AtLeast(4))
        .with_report(ReportMode::Closed)
        .with_exploration(Exploration::ClosureJump)
        .with_constraint_check(check)
}

/// Figure 14: end-to-end runtime (both stages) as |V| grows.
fn bench_scalability(c: &mut Criterion) {
    let setting = ScalabilitySetting::figure14();
    let mut group = c.benchmark_group("fig14_scalability");
    group.sample_size(10);
    for &size in &[2_000usize, 5_000] {
        let graph = setting.generate(size, 5);
        group.bench_with_input(BenchmarkId::new("skinnymine_end_to_end", size), &graph, |b, g| {
            b.iter(|| SkinnyMine::new(config(ConstraintCheckMode::Fast)).mine(g).expect("mining succeeds"))
        });
        group.bench_with_input(BenchmarkId::new("stage1_diammine_only", size), &graph, |b, g| {
            b.iter(|| DiamMine::new(MiningData::Single(g), 2, SupportMeasure::MinimumImage).mine_exact(4))
        });
    }
    group.finish();
}

/// Ablation: the paper's fast local constraint maintenance vs recomputing
/// the canonical diameter from scratch on every extension (§3.3's "naive
/// way").
fn bench_constraint_check_ablation(c: &mut Criterion) {
    let setting = ScalabilitySetting::figure14();
    let graph = setting.generate(2_000, 5);
    let mut group = c.benchmark_group("ablation_constraint_check");
    group.sample_size(10);
    group.bench_function("fast_local_checks", |b| {
        b.iter(|| SkinnyMine::new(config(ConstraintCheckMode::Fast)).mine(&graph).expect("mining succeeds"))
    });
    group.bench_function("exact_recomputation", |b| {
        b.iter(|| SkinnyMine::new(config(ConstraintCheckMode::Exact)).mine(&graph).expect("mining succeeds"))
    });
    group.finish();
}

criterion_group!(benches, bench_scalability, bench_constraint_check_ablation);
criterion_main!(benches);
