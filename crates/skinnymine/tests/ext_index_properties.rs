//! Property-based parity of the Stage-II extension-indexed grow engine:
//! [`skinnymine::ExtensionTable`] must agree with the reference enumeration
//! (`LevelGrow::candidate_extensions_reference` + full re-scan) on random
//! data — the **same candidate set in the same sorted order**, and for every
//! candidate the **same supporting rows in the same order** (gather output
//! byte-identical to `extend_embeddings`).  The grower's byte-identity with
//! its oracle ([`skinnymine::LevelGrow::reference`]) rests on exactly these
//! two facts.

use proptest::prelude::*;
use skinny_graph::{
    CsrSnapshot, Label, LabeledGraph, SupportBatch, SupportMeasure, SupportScratch, VertexId,
};
use skinnymine::{
    DiamMine, Exploration, Extension, GrowScratch, GrownPattern, LevelGrow, MiningData, ReportMode, Seed,
    SkinnyMineConfig,
};

/// Strategy: a small random labeled graph with few labels (3 vertex, 2 edge
/// labels) so that shared descriptors, multi-edge attachment runs and
/// closing-edge candidates all occur often.
fn any_graph() -> impl Strategy<Value = LabeledGraph> {
    (4..10usize).prop_flat_map(|n| {
        let labels = proptest::collection::vec(0..3u32, n);
        let edges = proptest::collection::vec((0..n, 0..n, 0..2u32), 0..(3 * n));
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
    })
}

/// Seed patterns plus a bounded set of one-step children, so that the
/// parity check also covers patterns carrying twigs, multi-edge attachments
/// and closing edges.
fn sample_patterns(
    g: &LabeledGraph,
    grower: &LevelGrow<'_>,
    delta: u32,
    scratch: &mut GrowScratch,
) -> Vec<GrownPattern> {
    let data = CsrSnapshot::from_graph(g);
    let dm = DiamMine::new(MiningData::Snapshot(&data), 1, SupportMeasure::DistinctVertexSets);
    let mut patterns: Vec<GrownPattern> =
        dm.mine_exact(2).iter().map(GrownPattern::from_path_pattern).collect();
    let mut children = Vec::new();
    'outer: for p in &patterns {
        for ext in grower.candidate_extensions_reference(p, &mut scratch.ext) {
            let embeddings = p.extend_embeddings(&data, &ext);
            if embeddings.is_empty() {
                continue;
            }
            let structure = p.apply_structure(&ext);
            // only constraint-valid children: the engine never grows an
            // invariant-violating pattern, and the pre-checks assume the
            // canonical-diameter invariant holds on the parent
            let check = skinnymine::check_extension(
                p,
                &ext,
                &structure,
                delta,
                skinnymine::ConstraintCheckMode::Fast,
            );
            if check.verdict.is_err() {
                continue;
            }
            children.push(p.assemble(ext, structure, embeddings));
            if children.len() >= 8 {
                break 'outer;
            }
        }
    }
    patterns.extend(children);
    patterns
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn table_matches_reference_enumeration(g in any_graph(), delta in 0u32..3) {
        let data = CsrSnapshot::from_graph(&g);
        let config = SkinnyMineConfig::new(2, delta, 1).with_report(ReportMode::All);
        let grower = LevelGrow::new(MiningData::Snapshot(&data), &config);
        let mut scratch = GrowScratch::new();
        for pattern in sample_patterns(&g, &grower, delta, &mut scratch) {
            let reference: Vec<Extension> =
                grower.candidate_extensions_reference(&pattern, &mut scratch.ext).into_iter().collect();
            scratch.ext.build(&pattern, &data, delta);
            let table = &scratch.ext.table;
            // same candidate set, same sorted order
            prop_assert_eq!(table.candidate_count(), reference.len());
            for (i, ext) in reference.iter().enumerate() {
                prop_assert_eq!(table.extension(i), ext);
                // same supporting rows in the same order: the gather equals
                // the reference full re-scan byte for byte
                let gathered = table.gather(i, &pattern.embeddings);
                let rescanned = pattern.extend_embeddings(&data, ext);
                prop_assert_eq!(&gathered, &rescanned, "candidate {:?}", ext);
                // the upper bound is the exact row count
                prop_assert_eq!(table.support_upper_bound(i), gathered.len());
                // the cheap pre-check must agree with the full structural
                // check the indexed engine skips
                let mode = skinnymine::ConstraintCheckMode::Fast;
                let structure = pattern.apply_structure(ext);
                let full = skinnymine::check_extension(&pattern, ext, &structure, delta, mode);
                match skinnymine::precheck_violation(&pattern, ext, delta) {
                    Some(v) => {
                        prop_assert_eq!(full.verdict, Err(v), "pre-check reject diverged on {:?}", ext)
                    }
                    None => {
                        // for single-edge extensions the cheap checks are
                        // exact: only Constraint III can still reject, and
                        // only when the structural check is declared needed
                        if !matches!(ext, Extension::NewVertexMulti { .. }) {
                            let needed = skinnymine::needs_structural_check(&pattern, ext, mode);
                            match full.verdict {
                                Ok(()) => {}
                                Err(v) => {
                                    prop_assert!(
                                        needed
                                            && v == skinnymine::ConstraintViolation::SmallerDiameterCreated,
                                        "unexpected verdict {:?} for pre-checked {:?}",
                                        v,
                                        ext
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn batched_support_matches_gather_and_measure(g in any_graph(), delta in 0u32..3) {
        // The batched multi-candidate evaluator must be byte-identical to
        // the retained per-candidate gather_into + support_with path, for
        // all four support measures, over every candidate of every sampled
        // pattern (siblings share one prepared parent, as in the engine).
        let data = CsrSnapshot::from_graph(&g);
        let config = SkinnyMineConfig::new(2, delta, 1).with_report(ReportMode::All);
        let grower = LevelGrow::new(MiningData::Snapshot(&data), &config);
        let mut scratch = GrowScratch::new();
        let mut batch = SupportBatch::new();
        let mut support_scratch = SupportScratch::new();
        let mut gathered = skinny_graph::OccurrenceStore::new(0);
        for pattern in sample_patterns(&g, &grower, delta, &mut scratch) {
            scratch.ext.build(&pattern, &data, delta);
            let table = &scratch.ext.table;
            for measure in [
                SupportMeasure::EmbeddingCount,
                SupportMeasure::DistinctVertexSets,
                SupportMeasure::MinimumImage,
                SupportMeasure::Transactions,
            ] {
                batch.invalidate();
                for i in 0..table.candidate_count() {
                    let adds_vertex = !matches!(table.extension(i), Extension::ClosingEdge { .. });
                    let batched = batch.support_extended(
                        &pattern.embeddings,
                        measure,
                        table.entries(i),
                        adds_vertex,
                    );
                    table.gather_into(i, &pattern.embeddings, &mut gathered);
                    let reference = gathered.support_with(measure, &mut support_scratch);
                    prop_assert_eq!(
                        batched,
                        reference,
                        "measure {:?}, candidate {:?}",
                        measure,
                        table.extension(i)
                    );
                }
            }
        }
    }

    #[test]
    fn pruned_support_is_verdict_equivalent(g in any_graph(), delta in 0u32..3, sigma in 1usize..4) {
        // The early-exiting evaluator must be *exact* for every candidate at
        // or above the threshold (the closure-jump advance compares support
        // values, not just verdicts) and may return any value below the
        // threshold for a reject — both facts checked against the exhaustive
        // evaluator on the same prepared parent.
        let data = CsrSnapshot::from_graph(&g);
        let config = SkinnyMineConfig::new(2, delta, 1).with_report(ReportMode::All);
        let grower = LevelGrow::new(MiningData::Snapshot(&data), &config);
        let mut scratch = GrowScratch::new();
        let mut batch = SupportBatch::new();
        for pattern in sample_patterns(&g, &grower, delta, &mut scratch) {
            scratch.ext.build(&pattern, &data, delta);
            let table = &scratch.ext.table;
            for measure in [
                SupportMeasure::EmbeddingCount,
                SupportMeasure::DistinctVertexSets,
                SupportMeasure::MinimumImage,
                SupportMeasure::Transactions,
            ] {
                batch.invalidate();
                for i in 0..table.candidate_count() {
                    let adds_vertex = !matches!(table.extension(i), Extension::ClosingEdge { .. });
                    let exact = batch.support_extended(
                        &pattern.embeddings,
                        measure,
                        table.entries(i),
                        adds_vertex,
                    );
                    let pruned = batch.support_extended_pruned(
                        &pattern.embeddings,
                        measure,
                        table.entries(i),
                        adds_vertex,
                        sigma,
                    );
                    if exact >= sigma {
                        prop_assert_eq!(
                            pruned,
                            exact,
                            "survivor must be exact: measure {:?}, sigma {}, candidate {:?}",
                            measure,
                            sigma,
                            table.extension(i)
                        );
                    } else {
                        prop_assert!(
                            pruned < sigma,
                            "reject verdict lost: measure {:?}, sigma {}, pruned {}, exact {}",
                            measure,
                            sigma,
                            pruned,
                            exact
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn refilter_matches_rescan_after_advance(g in any_graph(), delta in 0u32..3) {
        // A closure-jump greedy advance refilters the pass-start table in
        // place instead of re-sweeping the data.  For every candidate the
        // advance was applied over, the refiltered entry list must gather
        // the advanced pattern's occurrence rows byte-identically to the
        // reference full re-scan — the engine's byte-identity across
        // engines rests on it.
        let data = CsrSnapshot::from_graph(&g);
        let config = SkinnyMineConfig::new(2, delta, 1).with_report(ReportMode::All);
        let grower = LevelGrow::new(MiningData::Snapshot(&data), &config);
        let mut scratch = GrowScratch::new();
        for pattern in sample_patterns(&g, &grower, delta, &mut scratch) {
            scratch.ext.build(&pattern, &data, delta);
            let count = scratch.ext.table.candidate_count();
            let mut advances = 0usize;
            for i in 0..count {
                let child = {
                    let table = &scratch.ext.table;
                    let ext = table.extension(i).clone();
                    let embeddings = table.gather(i, &pattern.embeddings);
                    if embeddings.is_empty() {
                        continue;
                    }
                    let structure = pattern.apply_structure(&ext);
                    let check = skinnymine::check_extension(
                        &pattern,
                        &ext,
                        &structure,
                        delta,
                        skinnymine::ConstraintCheckMode::Fast,
                    );
                    if check.verdict.is_err() {
                        continue;
                    }
                    pattern.assemble(ext, structure, embeddings)
                };
                scratch.ext.refilter(i, pattern.embeddings.len());
                let table = &scratch.ext.table;
                // candidate list and order untouched
                prop_assert_eq!(table.candidate_count(), count);
                for j in 0..count {
                    let gathered = table.gather(j, &child.embeddings);
                    let rescanned = child.extend_embeddings(&data, table.extension(j));
                    prop_assert_eq!(
                        &gathered,
                        &rescanned,
                        "advance {:?} then candidate {:?}",
                        scratch.ext.table.extension(i),
                        scratch.ext.table.extension(j)
                    );
                }
                advances += 1;
                if advances >= 4 {
                    break;
                }
                // the refilter consumed the table; restore it for the next
                // simulated advance of the same pass-start pattern
                scratch.ext.build(&pattern, &data, delta);
            }
        }
    }

    /// Every Stage-I seed — path and odd cycle — grows the same cluster on
    /// the indexed grower and on the reference oracle.
    #[test]
    fn engines_mine_identically(g in any_graph()) {
        let data = CsrSnapshot::from_graph(&g);
        let dm = DiamMine::new(MiningData::Snapshot(&data), 1, SupportMeasure::DistinctVertexSets);
        let paths = dm.mine_exact(2);
        let cycles = dm.frequent_cycles(2);
        let seeds = paths.iter().map(Seed::Path).chain(cycles.iter().map(Seed::Cycle));
        for (exploration, report) in [
            (Exploration::Exhaustive, ReportMode::All),
            (Exploration::ClosureJump, ReportMode::Closed),
        ] {
            let config = SkinnyMineConfig::new(2, 1, 1)
                .with_report(report)
                .with_exploration(exploration);
            let indexed = LevelGrow::new(MiningData::Snapshot(&data), &config);
            let reference = LevelGrow::reference(MiningData::Snapshot(&data), &config);
            let mut scratch = GrowScratch::new();
            for seed in seeds.clone() {
                let a = indexed.grow_seed_with(seed, &mut scratch);
                let b = reference.grow_seed_with(seed, &mut scratch);
                // byte-identical output: same patterns, same order, same
                // embeddings, same flags
                prop_assert_eq!(format!("{:?}", a.patterns), format!("{:?}", b.patterns));
                prop_assert_eq!(a.examined, b.examined);
            }
        }
    }
}
