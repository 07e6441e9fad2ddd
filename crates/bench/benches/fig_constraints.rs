//! Criterion benches for the constraint-sweep figures:
//!
//! * Figure 16 — DiamMine runtime as the diameter constraint `l` grows;
//! * Figure 17 — LevelGrow runtime as `l` grows (minimal-pattern index
//!   pre-built, so only Stage II is measured);
//! * Figures 18–19 — LevelGrow runtime as the skinniness bound δ grows.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use skinny_datagen::{erdos_renyi, inject_patterns, skinny_pattern, ErConfig, SkinnyPatternConfig};
use skinny_graph::{LabeledGraph, SupportMeasure};
use skinnymine::{DiamMine, Exploration, MinimalPatternIndex, MiningData, ReportMode, SkinnyMineConfig};

/// The Figure 16/17 style background: few labels so frequent paths abound.
fn fig16_graph() -> LabeledGraph {
    erdos_renyi(&ErConfig::new(1_000, 3.0, 10, 16))
}

/// The Figure 18/19 style data: injected skinny patterns with deep twigs.
fn fig18_graph() -> LabeledGraph {
    let background = erdos_renyi(&ErConfig::new(4_000, 3.0, 100, 18));
    let patterns: Vec<(LabeledGraph, usize)> =
        (0..5).map(|i| (skinny_pattern(&SkinnyPatternConfig::new(40, 16, 5, 100, 100 + i)), 3)).collect();
    inject_patterns(&background, &patterns, 404).graph
}

/// Figure 16: DiamMine runtime vs l.
fn bench_diammine_vs_l(c: &mut Criterion) {
    let graph = fig16_graph();
    let mut group = c.benchmark_group("fig16_diammine_vs_l");
    group.sample_size(10);
    for &l in &[2usize, 4, 6, 8] {
        group.bench_with_input(BenchmarkId::new("diammine", l), &l, |b, &l| {
            b.iter(|| {
                DiamMine::new(MiningData::Single(&graph), 2, SupportMeasure::MinimumImage).mine_exact(l)
            })
        });
    }
    group.finish();
}

/// Figure 17: LevelGrow runtime vs l with a pre-built index.
fn bench_levelgrow_vs_l(c: &mut Criterion) {
    let graph = fig16_graph();
    let index = MinimalPatternIndex::build(&graph, 2, SupportMeasure::MinimumImage, Some(8));
    let mut group = c.benchmark_group("fig17_levelgrow_vs_l");
    group.sample_size(10);
    for &l in &[2usize, 4, 6] {
        group.bench_with_input(BenchmarkId::new("levelgrow", l), &l, |b, &l| {
            let config = SkinnyMineConfig::new(l, 2, 2).with_report(ReportMode::All);
            b.iter(|| index.request(&config).expect("request matches index"))
        });
    }
    group.finish();
}

/// Figures 18-19: LevelGrow runtime vs delta at a fixed diameter constraint.
fn bench_levelgrow_vs_delta(c: &mut Criterion) {
    let graph = fig18_graph();
    let index = MinimalPatternIndex::build(&graph, 2, SupportMeasure::MinimumImage, Some(16));
    let mut group = c.benchmark_group("fig18_levelgrow_vs_delta");
    group.sample_size(10);
    for &delta in &[0u32, 2, 4, 6] {
        group.bench_with_input(BenchmarkId::new("levelgrow_delta", delta), &delta, |b, &delta| {
            let config = SkinnyMineConfig::new(16, delta, 2)
                .with_report(ReportMode::Closed)
                .with_exploration(Exploration::ClosureJump);
            b.iter(|| index.request(&config).expect("request matches index"))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_diammine_vs_l, bench_levelgrow_vs_l, bench_levelgrow_vs_delta);
criterion_main!(benches);
