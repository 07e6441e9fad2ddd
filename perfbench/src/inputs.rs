//! Seeded inputs.  Each mining workload runs on one fixed preset (generated
//! with the presets' own generator seed), presented under a seeded
//! isomorphic relabeling: vertex ids are permuted and vertex labels renamed
//! by a bijection.  Every seed is a different input
//! with the same pattern structure, so the mining work — and the figures —
//! do not drift with the seed the way a freshly drawn random graph does.

use skinny_datagen::{erdos_renyi, splitmix64, ErConfig};
use skinny_graph::{GraphDatabase, Label, LabeledGraph, VertexId};
use std::collections::BTreeMap;
use std::time::Instant;

/// Generator seed of every preset (the experiment harness's default).
pub const PRESET_SEED: u64 = 20130622;

/// The Figure-16 preset graph: Erdős–Rényi background, degree 3, 10 labels,
/// `10 000 / divisor` vertices.
pub fn fig16_graph(divisor: usize) -> LabeledGraph {
    erdos_renyi(&ErConfig::new(10_000 / divisor, 3.0, 10, PRESET_SEED))
}

/// A small deterministic generator over [`splitmix64`].
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(splitmix64(seed))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = splitmix64(self.0);
        self.0
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A uniform permutation of `0..n` (Fisher–Yates).
    fn permutation(&mut self, n: usize) -> Vec<u32> {
        let mut p: Vec<u32> = (0..n as u32).collect();
        for i in (1..n).rev() {
            p.swap(i, (self.next_u64() % (i as u64 + 1)) as usize);
        }
        p
    }
}

/// A bijection on the vertex labels used anywhere in `graphs`.
fn label_bijection<'a>(
    graphs: impl Iterator<Item = &'a LabeledGraph>,
    rng: &mut Rng,
) -> BTreeMap<Label, Label> {
    let mut labels: Vec<Label> = graphs.flat_map(|g| g.labels().iter().copied()).collect();
    labels.sort_unstable();
    labels.dedup();
    let perm = rng.permutation(labels.len());
    labels.iter().zip(&perm).map(|(&from, &to)| (from, labels[to as usize])).collect()
}

/// `g` with vertex `v` renumbered `perm[v]` and labels renamed by `labels`.
fn relabel(g: &LabeledGraph, labels: &BTreeMap<Label, Label>, rng: &mut Rng) -> LabeledGraph {
    let perm = rng.permutation(g.vertex_count());
    let mut by_new = vec![Label(0); g.vertex_count()];
    for (v, &l) in g.labels().iter().enumerate() {
        by_new[perm[v] as usize] = labels[&l];
    }
    let mut out = LabeledGraph::with_capacity(g.vertex_count());
    for l in by_new {
        out.add_vertex(l);
    }
    for e in g.edges() {
        let (u, v) = (VertexId(perm[e.u.index()]), VertexId(perm[e.v.index()]));
        out.add_edge(u, v, e.label).expect("a relabeled edge is as fresh as the original");
    }
    out
}

/// The seed-`seed` relabeling of a single graph.
pub fn shuffled_graph(g: &LabeledGraph, seed: u64) -> LabeledGraph {
    let mut rng = Rng::new(seed);
    let labels = label_bijection(std::iter::once(g), &mut rng);
    relabel(g, &labels, &mut rng)
}

/// The seed-`seed` relabeling of a transaction database: one label
/// bijection for the whole corpus and vertex ids permuted per transaction.
/// Transaction order is kept, so the transaction shards of the parallel
/// passes carry the same work for every seed.
pub fn shuffled_database(db: &GraphDatabase, seed: u64) -> GraphDatabase {
    let mut rng = Rng::new(seed);
    let labels = label_bijection(db.iter().map(|(_, g)| g), &mut rng);
    GraphDatabase::from_graphs(db.iter().map(|(_, g)| relabel(g, &labels, &mut rng)).collect())
}

/// Runs `setup` at least three times and until a second has passed;
/// returns the last result and the median time.
pub fn repeated_setup<T>(mut setup: impl FnMut() -> T) -> (T, f64) {
    let start = Instant::now();
    let mut times = Vec::new();
    loop {
        let t = Instant::now();
        let out = setup();
        times.push(t.elapsed().as_secs_f64());
        if times.len() >= 3 && start.elapsed().as_secs_f64() >= 1.0 {
            return (out, crate::report::median(&times));
        }
    }
}
