//! `mine-er` and `mine-xl`: one caller running back-to-back
//! `SkinnyMine::mine_data` calls (closed loop) on a seeded input.

use crate::inputs::{fig16_graph, repeated_setup, shuffled_database, shuffled_graph, PRESET_SEED};
use crate::pipeline::{digest, traced_mine};
use crate::report::{median, peak_rss_mb, reset_peak_rss, set_latencies, Layers, Report, MIN_TRACE_COVERAGE};
use crate::Args;
use skinny_datagen::{generate_xl, XlSetting};
use skinny_graph::{GraphDatabase, LabeledGraph, SupportMeasure};
use skinnymine::{Exploration, MiningData, ReportMode, SkinnyMine, SkinnyMineConfig};
use std::time::Instant;

/// Vertex-count divisor of the Figure-16 Erdős–Rényi preset (10 000
/// vertices at divisor 1): 714 vertices, about one second per mine on two
/// cores, so a run holds tens of mines.
const ER_DIVISOR: usize = 14;
/// Transaction-count divisor of the XL corpus (100 000 at divisor 1).
const XL_DIVISOR: usize = 8;
const THREADS: usize = 2;

enum Input {
    Graph(LabeledGraph),
    Database(GraphDatabase),
}

impl Input {
    fn data(&self) -> MiningData<'_> {
        match self {
            Input::Graph(g) => MiningData::Single(g),
            Input::Database(db) => MiningData::Transactions(db),
        }
    }
}

fn config(input: &Input, xl: bool) -> SkinnyMineConfig {
    if xl {
        let sigma = input.data().transaction_count().div_ceil(10);
        SkinnyMineConfig::new(6, 2, sigma).with_support_measure(SupportMeasure::Transactions)
    } else {
        SkinnyMineConfig::new(6, 2, 2).with_support_measure(SupportMeasure::MinimumImage)
    }
    .with_report(ReportMode::Closed)
    .with_exploration(Exploration::ClosureJump)
    .with_threads(THREADS)
}

pub fn run(args: &Args, xl: bool) -> Report {
    let mut report = Report::default();
    // set-up: the input, and the expected output from a sequential direct
    // mine of it (a generated input alone takes well under a millisecond on
    // `mine-er`, too little to time steadily)
    let ((input, expected), setup_s) = repeated_setup(|| {
        let input = if xl {
            let setting = XlSetting { seed: PRESET_SEED, ..XlSetting::scaled(XL_DIVISOR) };
            Input::Database(shuffled_database(&generate_xl(&setting, THREADS), args.seed))
        } else {
            Input::Graph(shuffled_graph(&fig16_graph(ER_DIVISOR), args.seed))
        };
        let reference = SkinnyMine::new(config(&input, xl).with_threads(1))
            .mine_data(input.data())
            .expect("the reference mine succeeds");
        let expected = digest(&reference.patterns);
        eprintln!("{} patterns, {} clusters", reference.patterns.len(), reference.stats.clusters);
        (input, expected)
    });
    report.set("setup_s", setup_s);
    let config = config(&input, xl);

    let miner = SkinnyMine::new(config.clone());
    let mut rss = Vec::new();
    let mut direct = |report: &mut Report| -> f64 {
        reset_peak_rss();
        let t = Instant::now();
        let result = miner.mine_data(input.data());
        let s = t.elapsed().as_secs_f64();
        rss.push(peak_rss_mb());
        report.op(result.is_ok_and(|r| digest(&r.patterns) == expected), || "direct mine".into());
        s
    };

    let window = Instant::now();
    if !args.trace {
        let mut latencies = Vec::new();
        while window.elapsed().as_secs_f64() < args.seconds || latencies.len() < 3 {
            latencies.push(direct(&mut report));
        }
        set_latencies(&mut report, &latencies, 1);
        report.set("peak_rss_mb", median(&rss));
    } else {
        // alternate direct and traced executions of the same mine
        let (mut direct_s, mut traced_s, mut samples) = (Vec::new(), Vec::new(), Vec::<Layers>::new());
        while window.elapsed().as_secs_f64() < args.seconds || samples.len() < 3 {
            direct_s.push(direct(&mut report));
            let traced = traced_mine(&config, input.data());
            let coverage = traced.spans_s / traced.wall_s;
            let same = digest(&traced.patterns) == expected;
            report.op(same && coverage >= MIN_TRACE_COVERAGE, || {
                format!("traced mine: output identical {same}, coverage {coverage:.3}")
            });
            traced_s.push(traced.wall_s);
            samples.push(traced.layers);
        }
        report.set_medians(&samples);
        report.set("trace.overhead", median(&traced_s) / median(&direct_s));
    }
    report
}
