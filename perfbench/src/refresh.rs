//! `refresh-stream`: two closed-loop callers, each owning an
//! `IncrementalMiner` over its own copy of the fixed update preset, apply
//! seeded streams of transaction replacements in batches of 1, 4 and 16,
//! each followed by `refresh()` and a read of the result.  The seed picks
//! where in the preset's replacement stream each caller starts, and so
//! which transactions are replaced and by what.
//!
//! Two callers keep both cores busy: a single refresh thread on an
//! otherwise idle two-core machine was measured both slower and about three
//! times noisier from run to run than each of two concurrent ones.

use crate::inputs::{repeated_setup, Rng, PRESET_SEED};
use crate::pipeline::{digest, traced_mine};
use crate::report::{join_sampling_rss, median, set_latencies, Layers, Report, MIN_TRACE_COVERAGE};
use crate::Args;
use skinny_datagen::{apply_update, generate_update_stream, UpdateStreamSetting};
use skinny_graph::SupportMeasure;
use skinnymine::{IncrementalMiner, MiningData, SkinnyMine, SkinnyMineConfig};
use std::time::Instant;

/// Transactions replaced between two refreshes, cycled in this order.
const BATCHES: [usize; 3] = [1, 4, 16];
/// Every this many refreshes, and after the last one, a caller checks its
/// maintained result against a direct `mine_database` of its database.
const CHECK_EVERY: usize = 12;
const CALLERS: usize = 2;

/// What one caller measured.
#[derive(Default)]
struct Caller {
    report: Report,
    latencies: Vec<f64>,
    by_batch: [Vec<f64>; 3],
    samples: Vec<Layers>,
    direct_s: Vec<f64>,
    traced_s: Vec<f64>,
    maintained_bytes: usize,
}

/// One caller's closed loop over its own miner until `seconds` have passed
/// since `start`.
fn caller(mut inc: IncrementalMiner, args: &Args, caller: usize, start: Instant) -> Caller {
    let setting = UpdateStreamSetting { seed: PRESET_SEED, ..UpdateStreamSetting::fig16() };
    let config = inc.config().clone();
    let direct = SkinnyMine::new(config.clone());
    let mut out = Caller::default();
    // the maintained result against a direct mine (and, traced, against the
    // traced pipeline) of the current database
    let check = |inc: &IncrementalMiner, out: &mut Caller| -> bool {
        let got = digest(&inc.result().patterns);
        let t = Instant::now();
        let mined = direct.mine_database(inc.database());
        out.direct_s.push(t.elapsed().as_secs_f64());
        let mut ok = mined.is_ok_and(|r| digest(&r.patterns) == got);
        if args.trace {
            let traced = traced_mine(&config, MiningData::Transactions(inc.database()));
            ok &= digest(&traced.patterns) == got && traced.spans_s / traced.wall_s >= MIN_TRACE_COVERAGE;
            out.traced_s.push(traced.wall_s);
            out.samples.push(traced.layers);
        }
        ok
    };
    let mut step = Rng::new(args.seed ^ Rng::new(caller as u64 + 1).next_u64()).next_u64() >> 32;
    let mut checked = false;
    while start.elapsed().as_secs_f64() < args.seconds || out.latencies.len() < BATCHES.len() {
        let b = out.latencies.len() % BATCHES.len();
        for _ in 0..BATCHES[b] {
            apply_update(&setting, inc.database_mut(), step);
            step += 1;
        }
        let t = Instant::now();
        let read = inc.refresh().map(|r| {
            let support: usize = r.patterns.iter().map(|p| p.support).sum();
            std::hint::black_box((r.patterns.len(), support));
            r.stats.clone()
        });
        let s = t.elapsed().as_secs_f64();
        out.latencies.push(s);
        out.by_batch[b].push(s);
        let n = out.latencies.len();
        let Ok(stats) = read else {
            out.report.op(false, || format!("caller {caller} refresh {n}"));
            continue;
        };
        if args.trace {
            let clusters = (stats.clusters_regrown + stats.clusters_reused).max(1);
            out.samples.push(Layers::from([
                ("incremental.transactions_dirty", stats.transactions_dirty as f64),
                ("incremental.clusters_regrown", stats.clusters_regrown as f64),
                ("incremental.clusters_reused", stats.clusters_reused as f64),
                ("incremental.reuse_ratio", stats.clusters_reused as f64 / clusters as f64),
            ]));
        }
        checked = n % CHECK_EVERY == 0;
        let ok = !checked || check(&inc, &mut out);
        out.report.op(ok, || format!("caller {caller} check after refresh {n}"));
    }
    if !checked {
        let ok = check(&inc, &mut out);
        out.report.op(ok, || format!("caller {caller} check of the final state"));
    }
    out.maintained_bytes = inc.maintained_bytes();
    out
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let setting = UpdateStreamSetting { seed: PRESET_SEED, ..UpdateStreamSetting::fig16() };
    let config = SkinnyMineConfig::new(4, 2, 8).with_support_measure(SupportMeasure::Transactions);
    let new_miner = || {
        IncrementalMiner::new(config.clone(), generate_update_stream(&setting, 1))
            .expect("the update corpus mines")
    };
    let (first, setup_s) = repeated_setup(new_miner);
    report.set("setup_s", setup_s);
    let mut miners = vec![first];
    miners.extend((1..CALLERS).map(|_| new_miner()));

    let start = Instant::now();
    let (callers, rss) = std::thread::scope(|scope| {
        let handles: Vec<_> = miners
            .into_iter()
            .enumerate()
            .map(|(c, inc)| scope.spawn(move || caller(inc, args, c, start)))
            .collect();
        join_sampling_rss(handles)
    });
    let mut all = Caller::default();
    for c in callers {
        all.report.absorb(&c.report);
        all.latencies.extend(c.latencies);
        for (into, from) in all.by_batch.iter_mut().zip(c.by_batch) {
            into.extend(from);
        }
        all.samples.extend(c.samples);
        all.direct_s.extend(c.direct_s);
        all.traced_s.extend(c.traced_s);
        all.maintained_bytes = c.maintained_bytes;
    }
    report.absorb(&all.report);

    if !args.trace {
        set_latencies(&mut report, &all.latencies, CALLERS);
        report.set("peak_rss_mb", median(&rss));
        return report;
    }
    report.set_medians(&all.samples);
    let names = ["incremental.refresh_s.b1", "incremental.refresh_s.b4", "incremental.refresh_s.b16"];
    for (name, latencies) in names.into_iter().zip(&all.by_batch) {
        report.set(name, median(latencies));
    }
    report.set("incremental.maintained_bytes", all.maintained_bytes as f64);
    report.set("trace.overhead", median(&all.traced_s) / median(&all.direct_s));
    report
}
