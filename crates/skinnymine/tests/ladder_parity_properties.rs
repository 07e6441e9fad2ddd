//! Property-based byte-identity of the Stage-I doubling ladder:
//!
//! * the **sharded** concat/merge kernels must produce the same patterns in
//!   the same order with the same embedding rows at every thread count —
//!   the chunk-order merge of the parallel joins must reproduce the serial
//!   iteration exactly;
//! * the **current kernels** (level-carried head index + hashed product
//!   slots + mirror pruning + count-then-gather σ bound + pruned finalize)
//!   must agree with the retained reference hash-map joins level by level,
//!   under both accepted support measures;
//! * a **carried ladder** (`mine_range`, one arena set reused across the
//!   length sweep) must agree with fresh per-length `mine_exact` runs.

use proptest::prelude::*;
use skinny_graph::{GraphDatabase, Label, LabeledGraph, SupportMeasure, VertexId};
use skinnymine::{DiamMine, MiningData, PathPattern};

/// Strategy: a small random transaction database with few labels so that
/// prefix groups collide, palindromic keys occur and σ actually prunes.
fn any_database() -> impl Strategy<Value = GraphDatabase> {
    proptest::collection::vec(
        (4..9usize).prop_flat_map(|n| {
            let labels = proptest::collection::vec(0..3u32, n);
            let edges = proptest::collection::vec((0..n, 0..n, 0..2u32), 0..(2 * n));
            (labels, edges).prop_map(|(labels, edges)| {
                let mut g = LabeledGraph::new();
                for l in labels {
                    g.add_vertex(Label(l));
                }
                for (u, v, el) in edges {
                    let (u, v) = (VertexId(u as u32), VertexId(v as u32));
                    if u == v || g.has_edge(u, v) {
                        continue;
                    }
                    g.add_edge(u, v, Label(el)).expect("vertices exist and the edge is new");
                }
                g
            })
        }),
        1..=3,
    )
    .prop_map(|graphs| {
        let mut db = GraphDatabase::new();
        for g in graphs {
            db.push(g);
        }
        db
    })
}

/// Strategy: one of the two measures the miner accepts.  `Transactions`
/// exercises the join's per-transaction σ bound, `MinimumImage` its row
/// bound.
fn any_measure() -> impl Strategy<Value = SupportMeasure> {
    (0..2u8).prop_map(|m| if m == 0 { SupportMeasure::MinimumImage } else { SupportMeasure::Transactions })
}

/// Full order-sensitive fingerprint of a pattern list: canonical key plus
/// every embedding row in stored order.
fn fingerprint(patterns: &[PathPattern]) -> Vec<String> {
    patterns
        .iter()
        .map(|p| {
            let rows: Vec<(usize, Vec<u32>)> = (0..p.embeddings.len())
                .map(|i| (p.embeddings.transaction(i), p.embeddings.row(i).iter().map(|v| v.0).collect()))
                .collect();
            format!("{:?}|{:?}|{:?}", p.key.vertex_labels, p.key.edge_labels, rows)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sharded_ladder_is_thread_invariant(
        db in any_database(),
        measure in any_measure(),
        sigma in 1..=4usize,
    ) {
        let data = MiningData::Transactions(&db);
        let baseline = DiamMine::new(data.clone(), sigma, measure)
            .with_threads(1)
            .mine_range(1, Some(6));
        for threads in [2usize, 8] {
            let run = DiamMine::new(data.clone(), sigma, measure)
                .with_threads(threads)
                .mine_range(1, Some(6));
            prop_assert_eq!(
                baseline.keys().collect::<Vec<_>>(),
                run.keys().collect::<Vec<_>>(),
                "mined lengths diverge at {} threads", threads
            );
            for (l, paths) in &baseline {
                prop_assert_eq!(
                    fingerprint(paths),
                    fingerprint(&run[l]),
                    "length {} diverged at {} threads", l, threads
                );
            }
        }
    }

    #[test]
    fn current_kernels_match_reference_joins(
        db in any_database(),
        measure in any_measure(),
        sigma in 1..=4usize,
    ) {
        let data = MiningData::Transactions(&db);
        let dm = DiamMine::new(data, sigma, measure);
        let len1 = dm.frequent_edges();
        // doubling is the join at target 2n: lengths 2, 4 and 8
        let len2 = dm.merge_to_length(&len1, 2);
        prop_assert_eq!(fingerprint(&len2), fingerprint(&dm.concat_double_reference(&len1)));
        let len4 = dm.merge_to_length(&len2, 4);
        prop_assert_eq!(fingerprint(&len4), fingerprint(&dm.concat_double_reference(&len2)));
        prop_assert_eq!(
            fingerprint(&dm.merge_to_length(&len4, 8)),
            fingerprint(&dm.concat_double_reference(&len4))
        );
        // merge targets satisfy n < target < 2n: length 3 merges len-2
        // paths, lengths 5–7 merge len-4 paths
        for target in [3usize, 5, 6, 7] {
            let base = if target == 3 { &len2 } else { &len4 };
            if base.is_empty() {
                continue;
            }
            prop_assert_eq!(
                fingerprint(&dm.merge_to_length(base, target)),
                fingerprint(&dm.merge_to_length_reference(base, target)),
                "merge to length {} diverged from the reference join", target
            );
        }
    }

    #[test]
    fn carried_ladder_matches_fresh_mines(db in any_database(), sigma in 1..3usize) {
        let data = MiningData::Transactions(&db);
        let dm = DiamMine::new(data, sigma, SupportMeasure::MinimumImage);
        // one carried ladder across the whole sweep vs a fresh build per length
        let ranged = dm.mine_range(1, Some(6));
        for (l, paths) in &ranged {
            prop_assert_eq!(
                fingerprint(paths),
                fingerprint(&dm.mine_exact(*l)),
                "carried ladder diverged from a fresh mine at length {}", l
            );
        }
    }
}
