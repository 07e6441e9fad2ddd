//! The traced pipeline: `SkinnyMine::mine_data`, the index's Stage I and the
//! index's uncached request path re-executed as timed calls into each
//! layer's public functions, so one execution yields both the mined output
//! (compared byte for byte against the direct call) and the per-layer
//! numbers.

use crate::report::{percentile, Layers};
use skinny_graph::{CsrSnapshot, LabeledGraph, SupportMeasure};
use skinnymine::cycle::CyclePattern;
use skinnymine::level_grow::ClusterOutcome;
use skinnymine::{
    duplicate_pattern_indices, DiamMine, GrowScratch, LevelGrow, MinimalPatternIndex, MiningData,
    MiningStats, PathPattern, SkinnyMineConfig, SkinnyPattern,
};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// FNV-1a over the `Debug` bytes of a pattern list.  Pattern `Debug`
/// output covers graphs, embeddings, flags and memoized canonical data;
/// run statistics (which carry timings) are deliberately not hashed.
pub fn digest(patterns: &[SkinnyPattern]) -> u64 {
    debug_digest(&patterns)
}

/// FNV-1a over the `Debug` bytes of `value`, streamed through the
/// formatter so no rendering is ever held in memory.
fn debug_digest(value: &impl std::fmt::Debug) -> u64 {
    struct Fnv(u64);
    impl std::fmt::Write for Fnv {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            for b in s.bytes() {
                self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
            Ok(())
        }
    }
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    write!(h, "{value:?}").expect("hashing never fails");
    h.0
}

/// Output order of the final sort: the direct miner breaks ties on vertex
/// count and support, the index's request path does not.
#[derive(Clone, Copy)]
enum Order {
    Miner,
    Index,
}

/// One traced execution: its output and its layer samples.
pub struct Traced {
    pub patterns: Vec<SkinnyPattern>,
    pub layers: Layers,
    /// Wall time of the whole traced execution, seconds.
    pub wall_s: f64,
    /// Sum of the top-level layer spans, seconds.
    pub spans_s: f64,
}

/// A borrowed Stage-I seed.
enum SeedRef<'a> {
    Path(&'a PathPattern),
    Cycle(&'a CyclePattern),
}

impl SeedRef<'_> {
    fn rows(&self) -> usize {
        match self {
            SeedRef::Path(p) => p.embeddings.len(),
            SeedRef::Cycle(c) => c.embeddings.len(),
        }
    }
}

fn rows_of(paths: &[PathPattern]) -> f64 {
    paths.iter().map(|p| p.embeddings.len()).sum::<usize>() as f64
}

/// The top-level spans and counts of one traced execution.
struct Spans {
    wall: Instant,
    layers: Layers,
    spans_s: f64,
}

impl Spans {
    fn start() -> Self {
        Spans { wall: Instant::now(), layers: Layers::new(), spans_s: 0.0 }
    }

    /// Times `f` as the top-level span `name`.
    fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        let s = t.elapsed().as_secs_f64();
        self.spans_s += s;
        *self.layers.entry(name).or_default() += s;
        out
    }

    fn count(&mut self, name: &'static str, value: f64) {
        self.layers.insert(name, value);
    }

    fn finish(self, patterns: Vec<SkinnyPattern>) -> Traced {
        let wall_s = self.wall.elapsed().as_secs_f64();
        let mut layers = self.layers;
        layers.insert("trace.coverage", self.spans_s / wall_s);
        Traced { patterns, layers, wall_s, spans_s: self.spans_s }
    }

    /// Freezes `input` into a CSR snapshot.
    fn freeze<'a>(&mut self, input: &MiningData<'a>, threads: usize) -> std::borrow::Cow<'a, CsrSnapshot> {
        let snapshot = self.time("graph.freeze_s", || input.to_snapshot_with_threads(threads));
        let per_s = input.transaction_count() as f64 / self.layers["graph.freeze_s"];
        self.count("graph.freeze_txn_per_s", per_s);
        snapshot
    }

    /// The level-1 seed, then the path ladder over `lo..=hi` on top of it.
    fn seed_and_ladder<'d>(
        &mut self,
        stage_one: impl Fn() -> DiamMine<'d>,
        lo: usize,
        hi: Option<usize>,
    ) -> BTreeMap<usize, Vec<PathPattern>> {
        let mut stats = MiningStats::default();
        let level1 = self.time("diam_mine.seed_s", || stage_one().frequent_edges_with_stats(&mut stats));
        self.count("diam_mine.seed_rows", rows_of(&level1));
        let mut stats = MiningStats::default();
        let ranged = self.time("diam_mine.ladder_s", || {
            stage_one().with_frequent_edges(level1).mine_range_with_stats(lo, hi, &mut stats)
        });
        self.count("diam_mine.ladder_paths", ranged.values().map(Vec::len).sum::<usize>() as f64);
        self.count("diam_mine.ladder_rows", ranged.values().map(|p| rows_of(p)).sum());
        self.count("diam_mine.join_rows_pruned", stats.join_rows_pruned as f64);
        self.count("diam_mine.join_products_rejected_sigma", stats.join_products_rejected_sigma as f64);
        let j = &stats.join_phases;
        self.count("diam_mine.join_cpu_s", (j.probe + j.gather + j.intern + j.support).as_secs_f64());
        ranged
    }

    /// The cycle closing check: the `C_{2l+1}` of each `(l, 2l-paths)`.
    fn close_cycles<'p>(
        &mut self,
        dm: &DiamMine<'_>,
        pairs: impl Iterator<Item = (usize, &'p [PathPattern])>,
    ) -> Vec<(usize, Vec<CyclePattern>)> {
        let (mut paths_2l, mut rows_2l, mut found) = (0, 0.0, 0);
        let cycles = self.time("cycle.closing_s", || {
            pairs
                .map(|(l, paths)| {
                    paths_2l += paths.len();
                    rows_2l += rows_of(paths);
                    let cycles = dm.cycles_from_paths(paths, l);
                    found += cycles.len();
                    (l, cycles)
                })
                .collect()
        });
        self.count("cycle.paths_2l", paths_2l as f64);
        self.count("cycle.rows_2l", rows_2l);
        self.count("cycle.found", found as f64);
        self.count("cycle.yield", if rows_2l > 0.0 { found as f64 / rows_2l } else { 0.0 });
        cycles
    }
}

/// `SkinnyMine::mine_data` as traced layer calls: freeze, level-1 seed,
/// path ladder, the cycle pass (its own 2l ladder, then the closing check),
/// cost-ordered cluster growth on the pool, and the finish.
pub fn traced_mine(config: &SkinnyMineConfig, input: MiningData<'_>) -> Traced {
    let mut spans = Spans::start();
    let snapshot = spans.freeze(&input, config.threads);
    let data = MiningData::Snapshot(&snapshot);
    let stage_one = || DiamMine::new(data.clone(), config.sigma, config.support).with_threads(config.threads);
    let (lo, hi) = (config.length.min_len(), config.length.max_len());
    let ranged = spans.seed_and_ladder(stage_one, lo, hi);
    let mut cycles = Vec::new();
    if config.cycle_seeds {
        // as in `SkinnyMine::mine_seeds`: 2l paths come from the ladder when
        // in range, else from a second ladder of their own
        let missing: Vec<usize> = ranged
            .keys()
            .map(|&l| 2 * l)
            .filter(|&n| !ranged.contains_key(&n) && hi.is_some_and(|h| n > h))
            .collect();
        let mut stats = MiningStats::default();
        let extra = spans.time("cycle.ladder_s", || {
            if missing.is_empty() {
                BTreeMap::new()
            } else {
                stage_one().mine_exact_many_with_stats(&missing, &mut stats)
            }
        });
        let pairs = ranged.keys().filter_map(|&l| {
            let paths = ranged.get(&(2 * l)).or_else(|| extra.get(&(2 * l)))?;
            Some((l, paths.as_slice()))
        });
        cycles = spans.close_cycles(&stage_one(), pairs);
    }
    // seed order: every path, then every cycle
    let paths = ranged.values().flatten().map(SeedRef::Path);
    let refs: Vec<SeedRef<'_>> =
        paths.chain(cycles.iter().flat_map(|(_, c)| c).map(SeedRef::Cycle)).collect();
    let patterns = grow_and_finish(&mut spans, config, data, &refs, Order::Miner);
    spans.finish(patterns)
}

/// `MinimalPatternIndex::build_with_threads` (Stage I over every length)
/// as traced layer calls: freeze, level-1 seed, path ladder, and the cycle
/// closing check over each even length.  Returns the [`index_digests`] of
/// what it mined, to compare against the built index.
pub fn traced_index_build(
    graph: &LabeledGraph,
    sigma: usize,
    support: SupportMeasure,
    threads: usize,
) -> (Vec<u64>, Traced) {
    let mut spans = Spans::start();
    let snapshot = spans.freeze(&MiningData::Single(graph), threads);
    let data = MiningData::Snapshot(&snapshot);
    let stage_one = || DiamMine::new(data.clone(), sigma, support).with_threads(threads);
    let by_length = spans.seed_and_ladder(stage_one, 1, None);
    let even = by_length.iter().filter(|(len, _)| *len % 2 == 0);
    let cycles: BTreeMap<usize, Vec<CyclePattern>> = spans
        .close_cycles(&stage_one(), even.map(|(len, paths)| (len / 2, paths.as_slice())))
        .into_iter()
        .filter(|(_, c)| !c.is_empty())
        .collect();
    let traced = spans.finish(Vec::new());
    (index_digests(&by_length, &cycles), traced)
}

/// Digests of an index's stored minimal patterns, one per path length and
/// one per cycle diameter, in key order.
fn index_digests(
    paths: &BTreeMap<usize, Vec<PathPattern>>,
    cycles: &BTreeMap<usize, Vec<CyclePattern>>,
) -> Vec<u64> {
    let paths = paths.iter().map(|entry| debug_digest(&entry));
    paths.chain(cycles.iter().map(|entry| debug_digest(&entry))).collect()
}

/// The [`index_digests`] of a built index, read through its public API.
pub fn built_index_digests(index: &MinimalPatternIndex) -> Vec<u64> {
    let lengths = index.available_lengths();
    let paths: BTreeMap<usize, Vec<PathPattern>> =
        lengths.iter().map(|&l| (l, index.minimal_patterns(l).to_vec())).collect();
    let cycles: BTreeMap<usize, Vec<CyclePattern>> = lengths
        .iter()
        .filter(|&&l| !index.minimal_cycles(l).is_empty())
        .map(|&l| (l, index.minimal_cycles(l).to_vec()))
        .collect();
    index_digests(&paths, &cycles)
}

/// `MinimalPatternIndex::request`'s uncached path as traced layer calls:
/// the admissible stored seeds grown cost-ordered on the pool, then the
/// index's finish.
pub fn traced_index_request(index: &MinimalPatternIndex, config: &SkinnyMineConfig) -> Traced {
    let mut spans = Spans::start();
    // seed selection belongs to the request's grow stage
    let refs = spans.time("level_grow.grow_s", || {
        let lengths: Vec<usize> =
            index.available_lengths().into_iter().filter(|&l| config.length.admits(l)).collect();
        let mut refs: Vec<SeedRef<'_>> = lengths
            .iter()
            .flat_map(|&l| index.minimal_patterns(l))
            .filter(|p| p.support(config.support) >= config.sigma)
            .map(SeedRef::Path)
            .collect();
        if config.cycle_seeds {
            refs.extend(
                lengths
                    .iter()
                    .flat_map(|&l| index.minimal_cycles(l))
                    .filter(|c| c.support(config.support) >= config.sigma)
                    .map(SeedRef::Cycle),
            );
        }
        refs
    });
    let data = MiningData::Snapshot(index.snapshot());
    let patterns = grow_and_finish(&mut spans, config, data, &refs, Order::Index);
    spans.finish(patterns)
}

/// Stage II plus the finish.  Growth replays `grow_outcomes`' cost-ordered
/// pool schedule through `skinny_pool::run_with_counters` (largest seed
/// first by embedding rows, ties by seed index), timing every cluster, and
/// folds the outcomes back in seed order; the finish dedups (when cycle
/// seeds took part), sorts and caps.
fn grow_and_finish(
    spans: &mut Spans,
    config: &SkinnyMineConfig,
    data: MiningData<'_>,
    seeds: &[SeedRef<'_>],
    order: Order,
) -> Vec<SkinnyPattern> {
    let mut schedule: Vec<u32> = (0..seeds.len() as u32).collect();
    schedule.sort_by_key(|&i| (std::cmp::Reverse(seeds[i as usize].rows()), i));
    let mut stats = MiningStats::default();
    let (mut patterns, examined, cluster_s, counters) = spans.time("level_grow.grow_s", || {
        let (outcomes, counters) = skinny_pool::run_with_counters(
            config.threads,
            schedule.len(),
            || (LevelGrow::new(data.clone(), config), GrowScratch::new()),
            |(grower, scratch), t| {
                let c = Instant::now();
                let outcome: ClusterOutcome = match seeds[schedule[t] as usize] {
                    SeedRef::Path(p) => grower.grow_cluster_with(p, scratch),
                    SeedRef::Cycle(c) => grower.grow_cycle_cluster_with(c, scratch),
                };
                (outcome, c.elapsed().as_secs_f64())
            },
        );
        let mut by_seed: Vec<Option<(ClusterOutcome, f64)>> = (0..seeds.len()).map(|_| None).collect();
        for (t, out) in outcomes.into_iter().enumerate() {
            by_seed[schedule[t] as usize] = Some(out);
        }
        let (mut patterns, mut examined, mut cluster_s) = (Vec::new(), 0, Vec::new());
        for (outcome, s) in by_seed.into_iter().map(|o| o.expect("every task runs exactly once")) {
            stats.merge(&outcome.stats);
            examined += outcome.examined;
            cluster_s.push(s);
            patterns.extend(outcome.patterns);
        }
        (patterns, examined, cluster_s, counters)
    });
    let grown = patterns.len();
    let had_cycles = seeds.iter().any(|s| matches!(s, SeedRef::Cycle(_)));
    let dropped = spans.time("miner.finish_s", || {
        let mut dropped = 0;
        if had_cycles {
            let (drop, canon) = duplicate_pattern_indices(&patterns);
            stats.record_canon(canon);
            dropped = drop.len();
            let mut keep = vec![true; patterns.len()];
            for i in drop {
                keep[i] = false;
            }
            let mut keep = keep.into_iter();
            patterns.retain(|_| keep.next().expect("one flag per pattern"));
        }
        match order {
            Order::Miner => patterns.sort_by(|a, b| {
                b.edge_count()
                    .cmp(&a.edge_count())
                    .then_with(|| b.vertex_count().cmp(&a.vertex_count()))
                    .then_with(|| a.diameter_labels.cmp(&b.diameter_labels))
                    .then_with(|| a.support.cmp(&b.support))
            }),
            Order::Index => patterns.sort_by(|a, b| {
                b.edge_count().cmp(&a.edge_count()).then_with(|| a.diameter_labels.cmp(&b.diameter_labels))
            }),
        }
        if let Some(cap) = config.max_patterns {
            patterns.truncate(cap);
        }
        dropped
    });
    let examined = examined as f64;
    spans.count("level_grow.clusters", seeds.len() as f64);
    spans.count("level_grow.cluster_p50_us", percentile(&cluster_s, 50.0) * 1e6);
    spans.count("level_grow.cluster_p99_us", percentile(&cluster_s, 99.0) * 1e6);
    spans.count("level_grow.cluster_max_ms", percentile(&cluster_s, 100.0) * 1e3);
    spans.count("level_grow.examined", examined);
    spans.count(
        "level_grow.patterns_per_examined",
        if examined > 0.0 { grown as f64 / examined } else { 0.0 },
    );
    spans.count("level_grow.pruned_support_bound", stats.pruned_support_bound as f64);
    spans.count("level_grow.rejected_constraint_skinniness", stats.rejected_constraint_skinniness as f64);
    let g = &stats.grow_phases;
    spans.count(
        "level_grow.grow_cpu_s",
        (g.candidates + g.check + g.extend + g.support + g.canon).as_secs_f64(),
    );
    spans.count("miner.dedup_dropped", dropped as f64);
    spans.count("miner.canon_fingerprint_hits", stats.canon_fingerprint_hits as f64);
    spans.count("miner.canon_full_keys", stats.canon_full_keys as f64);
    spans.count("miner.canon_early_aborts", stats.canon_early_aborts as f64);
    spans.count("pool.tasks", counters.tasks_executed as f64);
    spans.count("pool.steals", counters.steals as f64);
    spans.count("pool.merge_wait_s", counters.merge_wait_seconds);
    patterns
}
