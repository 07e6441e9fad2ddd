//! Property-based byte-identity of the incremental maintenance path:
//! after **arbitrary update sequences** — edge/vertex inserts and deletes,
//! wholesale transaction replacement, transaction add and (tombstoning)
//! remove, in arbitrary interleavings — [`IncrementalMiner::refresh`] must
//! produce output byte-identical (`Debug`-formatted patterns, embeddings
//! and all) to a from-scratch [`SkinnyMine`] run over the mutated
//! database, for every thread count in {1, 2, 8}, under both support
//! measures with and without a `max_patterns` cap.  The miner under test is long-lived: one instance
//! absorbs every chunk of the sequence, so maintained Stage-I tables and
//! reused Stage-II clusters are carried across many refreshes, exactly as
//! a serving deployment would.  The same generators drive
//! [`MinimalPatternIndex::update_database`], whose updated index must equal
//! a fresh build over the mutated database.

use proptest::prelude::*;
use skinny_graph::{GraphDatabase, Label, LabeledGraph, SupportMeasure, VertexId};
use skinnymine::{
    IncrementalMiner, LengthConstraint, MinimalPatternIndex, ReportMode, SkinnyMine, SkinnyMineConfig,
};

/// One database update, with raw indices that get reduced modulo the
/// database's current shape at application time, so every generated op is
/// applicable to whatever state the previous ops produced.
#[derive(Debug, Clone)]
enum Op {
    AddEdge { t: usize, u: usize, v: usize, label: u32 },
    RemoveEdge { t: usize, e: usize },
    AddVertex { t: usize, label: u32 },
    RemoveVertex { t: usize, v: usize },
    Replace { t: usize, graph: LabeledGraph },
    AddTransaction { graph: LabeledGraph },
    RemoveTransaction { t: usize },
}

/// A small random labeled graph over few labels, so frequent paths, label
/// collisions and empty frequent sets all occur.
fn any_graph() -> impl Strategy<Value = LabeledGraph> {
    (3..8usize).prop_flat_map(|n| {
        let labels = proptest::collection::vec(0..3u32, n);
        let edges = proptest::collection::vec((0..n, 0..n, 0..2u32), 0..(2 * n));
        (labels, edges).prop_map(|(labels, edges)| {
            let mut g = LabeledGraph::new();
            for l in labels {
                g.add_vertex(Label(l));
            }
            for (u, v, el) in edges {
                let (u, v) = (VertexId(u as u32), VertexId(v as u32));
                if u != v && !g.has_edge(u, v) {
                    g.add_edge(u, v, Label(el)).expect("vertices exist and the edge is new");
                }
            }
            g
        })
    })
}

fn any_op() -> impl Strategy<Value = Op> {
    // (the vendored proptest has no strategy union, so the variant is a
    // generated discriminant over shared raw fields)
    (0..7usize, (0..8usize, 0..16usize, 0..8usize, 0..3u32), any_graph()).prop_map(
        |(kind, (t, a, b, label), graph)| match kind {
            0 => Op::AddEdge { t, u: a, v: b, label: label % 2 },
            1 => Op::RemoveEdge { t, e: a },
            2 => Op::AddVertex { t, label },
            3 => Op::RemoveVertex { t, v: a },
            4 => Op::Replace { t, graph },
            5 => Op::AddTransaction { graph },
            _ => Op::RemoveTransaction { t },
        },
    )
}

/// Applies `op` to `db`, reducing raw indices against the current shape and
/// skipping ops with no valid target (e.g. removing an edge from an edgeless
/// transaction) — the skip is deterministic, so every miner's copy and the
/// oracle's mirror stay identical.
fn apply(db: &mut GraphDatabase, op: &Op) {
    let txns = db.len();
    if txns == 0 {
        if let Op::AddTransaction { graph } = op {
            db.add_transaction(graph.clone());
        }
        return;
    }
    match op {
        Op::AddEdge { t, u, v, label } => {
            let t = t % txns;
            let n = db[t].vertex_count();
            if n >= 2 {
                let (u, v) = (VertexId((u % n) as u32), VertexId((v % n) as u32));
                if u != v && !db[t].has_edge(u, v) {
                    db.add_edge_in(t, u, v, Label(*label)).expect("vertices exist, edge is new");
                }
            }
        }
        Op::RemoveEdge { t, e } => {
            let t = t % txns;
            let edges: Vec<_> = db[t].edges().map(|edge| (edge.u, edge.v)).collect();
            if let Some(&(u, v)) = edges.get(e % edges.len().max(1)) {
                db.remove_edge_in(t, u, v).expect("the edge was just listed");
            }
        }
        Op::AddVertex { t, label } => {
            db.add_vertex_in(t % txns, Label(*label)).expect("transaction exists");
        }
        Op::RemoveVertex { t, v } => {
            let t = t % txns;
            let n = db[t].vertex_count();
            if n > 0 {
                db.remove_vertex_in(t, VertexId((v % n) as u32)).expect("vertex exists");
            }
        }
        Op::Replace { t, graph } => {
            db.replace_transaction(t % txns, graph.clone()).expect("transaction exists");
        }
        Op::AddTransaction { graph } => {
            db.add_transaction(graph.clone());
        }
        Op::RemoveTransaction { t } => {
            db.remove_transaction(t % txns).expect("transaction exists");
        }
    }
}

fn config_for(threads: usize, measure: SupportMeasure, cap: Option<usize>) -> SkinnyMineConfig {
    SkinnyMineConfig::new(3, 2, 2)
        .with_report(ReportMode::All)
        .with_threads(threads)
        .with_support_measure(measure)
        .with_max_patterns(cap)
}

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// Both support measures.
const MEASURES: [SupportMeasure; 2] = [SupportMeasure::Transactions, SupportMeasure::MinimumImage];

/// No cap, or a cap small enough to cut most results.
const CAPS: [Option<usize>; 2] = [None, Some(3)];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Arbitrary update chunks against three long-lived incremental miners
    /// (threads {1, 2, 8}): after every chunk, every miner's refreshed
    /// result is byte-identical to a from-scratch mine of the mutated
    /// database under its own configuration, and all three agree with each
    /// other.
    #[test]
    fn refresh_is_byte_identical_to_full_remine(
        initial in proptest::collection::vec(any_graph(), 1..4),
        chunks in proptest::collection::vec(proptest::collection::vec(any_op(), 1..5), 1..4),
        measure in 0..MEASURES.len(),
        cap in 0..CAPS.len(),
    ) {
        let base = GraphDatabase::from_graphs(initial);
        let mut miners: Vec<IncrementalMiner> = THREAD_COUNTS
            .iter()
            .map(|&threads| {
                let config = config_for(threads, MEASURES[measure], CAPS[cap]);
                IncrementalMiner::new(config, base.clone()).expect("a valid initial database mines")
            })
            .collect();
        let mut mirror = base;
        for (round, chunk) in chunks.iter().enumerate() {
            for op in chunk {
                apply(&mut mirror, op);
                for miner in &mut miners {
                    apply(miner.database_mut(), op);
                }
            }
            if mirror.total_vertices() == 0 {
                // the miners reject vertex-free input; deterministically
                // re-seed one transaction on every copy to keep parity
                // defined when a sequence empties the database
                let mut seed = LabeledGraph::new();
                seed.add_vertex(Label(0));
                mirror.add_transaction(seed.clone());
                for miner in &mut miners {
                    miner.database_mut().add_transaction(seed.clone());
                }
            }
            let oracle: Vec<String> = miners
                .iter()
                .map(|m| {
                    let full = SkinnyMine::new(m.config().clone())
                        .mine_database(&mirror)
                        .expect("a full re-mine of the mutated database succeeds");
                    format!("{:?}", full.patterns)
                })
                .collect();
            for (m, (miner, want)) in miners.iter_mut().zip(&oracle).enumerate() {
                let got = format!("{:?}", miner.refresh().expect("refresh succeeds").patterns);
                prop_assert_eq!(
                    &got, want,
                    "round {}: miner {} (threads {}) diverged from a full re-mine",
                    round, m, miner.config().threads
                );
            }
            let first = format!("{:?}", miners[0].result().patterns);
            for miner in &miners[1..] {
                prop_assert_eq!(
                    &format!("{:?}", miner.result().patterns), &first,
                    "thread counts disagree after round {}", round
                );
            }
        }
    }

    /// Arbitrary update chunks through a long-lived index's
    /// `update_database`: after every chunk, the index is `Debug`-identical
    /// to a fresh `build_for_database` over the mutated database — its
    /// lengths, every stored path and cycle seed, and one uncached request
    /// over every stored length — under both support measures, built
    /// unbounded and bounded (a bound of 2 pairs cycle arcs at `l = 2`).
    #[test]
    fn index_update_matches_fresh_build(
        initial in proptest::collection::vec(any_graph(), 1..4),
        chunks in proptest::collection::vec(proptest::collection::vec(any_op(), 1..5), 1..4),
        measure in 0..2usize,
        bound in 0..2usize,
    ) {
        let measure = [SupportMeasure::MinimumImage, SupportMeasure::Transactions][measure];
        let max_len = [None, Some(2)][bound];
        let build = |db: &GraphDatabase| MinimalPatternIndex::build_for_database(db, 2, measure, max_len);
        let request = SkinnyMineConfig::new(1, 1, 2)
            .with_length(LengthConstraint::AtLeast(1))
            .with_support_measure(measure)
            .with_report(ReportMode::All);
        let stored = |index: &MinimalPatternIndex| {
            let lengths = index.available_lengths();
            let seeds: Vec<String> = lengths
                .iter()
                .map(|&l| format!("{:?} {:?}", index.minimal_patterns(l), index.minimal_cycles(l)))
                .collect();
            let served = index.request(&request).expect("the index serves its own measure");
            format!("{lengths:?} {seeds:?} {:?}", served.patterns)
        };
        let mut mirror = GraphDatabase::from_graphs(initial);
        let mut index = build(&mirror);
        for (round, chunk) in chunks.iter().enumerate() {
            for op in chunk {
                apply(&mut mirror, op);
            }
            index
                .update_database(|db| chunk.iter().for_each(|op| apply(db, op)))
                .expect("a database index updates");
            prop_assert_eq!(
                stored(&index), stored(&build(&mirror)),
                "round {}: the updated index diverged from a fresh build", round
            );
        }
    }
}
