//! Property-based parity of the occurrence join engine's posting lists:
//! [`PrefixIndex`] must group rows exactly like the naive
//! `HashMap<(transaction, head), Vec<row>>` build — same groups, same
//! members, and **the same global row order inside every group** (the order
//! the Stage-I joins iterate, which the byte-identity guarantee of the miner
//! rests on) — and a head list filtered by the next prefix vertices must be
//! exactly the naive `(transaction, prefix)` group at every prefix length.

use proptest::prelude::*;
use skinny_graph::{OccurrenceStore, PrefixIndex, SupportMeasure, SupportScratch, VertexId};
use std::collections::HashMap;

/// Strategy: a random occurrence store (arity 2–4, small vertex-id alphabet
/// so heads and prefixes collide often).
fn any_store(max_rows: usize) -> impl Strategy<Value = OccurrenceStore> {
    (2..=4usize).prop_flat_map(move |arity| {
        proptest::collection::vec((0..3usize, proptest::collection::vec(0..8u32, arity)), 0..=max_rows)
            .prop_map(move |rows| {
                let mut store = OccurrenceStore::new(arity);
                for (t, vs) in rows {
                    let v: Vec<VertexId> = vs.into_iter().map(VertexId).collect();
                    store.push_row(t, &v);
                }
                store
            })
    })
}

/// The naive grouping of the store's rows by transaction and their first
/// `k` vertices, in global row order.
fn naive_groups(store: &OccurrenceStore, k: usize) -> HashMap<(usize, Vec<VertexId>), Vec<u32>> {
    let mut naive: HashMap<(usize, Vec<VertexId>), Vec<u32>> = HashMap::new();
    for i in 0..store.len() {
        naive.entry((store.transaction(i), store.row(i)[..k].to_vec())).or_default().push(i as u32);
    }
    naive
}

/// Checks that filtering the head list of every naive `(transaction,
/// k-prefix)` group's key by the rest of the prefix yields that group, for
/// every `k` — the lookup the Stage-I join performs at overlap `k`.
fn assert_filtered_heads_match(index: &PrefixIndex, store: &OccurrenceStore) -> Result<(), TestCaseError> {
    for k in 1..=store.arity() {
        for ((t, key), rows) in naive_groups(store, k) {
            let filtered: Vec<u32> = index
                .postings(t, key[0])
                .iter()
                .copied()
                .filter(|&r| store.row(r as usize)[..k] == key[..])
                .collect();
            prop_assert_eq!(filtered, rows, "prefix length {}", k);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn index_matches_naive_hashmap_grouping(store in any_store(40)) {
        let mut index = PrefixIndex::new();
        index.build(&store);
        let naive = naive_groups(&store, 1);
        // every (transaction, head) of the alphabet answers with exactly its
        // naive group, in global row order, or with nothing
        for t in 0..4usize {
            for h in 0..10u32 {
                let expected = naive.get(&(t, vec![VertexId(h)])).map_or(&[][..], Vec::as_slice);
                prop_assert_eq!(index.postings(t, VertexId(h)), expected);
            }
        }
        // an absent head and an absent transaction answer with nothing
        prop_assert!(index.postings(0, VertexId(99)).is_empty());
        prop_assert!(index.postings(77, VertexId(0)).is_empty());
    }

    #[test]
    fn prefix_index_matches_borrowing_index(store in any_store(40)) {
        // the head index, filtered by the next prefix vertices, must answer
        // every (transaction, prefix) lookup exactly like the naive grouping
        // — same members, same global row order — at every prefix length,
        // including after a warm rebuild over a different store
        let mut index = PrefixIndex::new();
        index.build(&store);
        assert_filtered_heads_match(&index, &store)?;
        // warm rebuild over a shuffled view: reversing the push order changes
        // every global row id, so stale entries from the first build would
        // surface immediately if the rebuild leaked
        let mut reversed = OccurrenceStore::new(store.arity());
        for i in (0..store.len()).rev() {
            reversed.push_row(store.transaction(i), store.row(i));
        }
        index.build(&reversed);
        assert_filtered_heads_match(&index, &reversed)?;
    }

    #[test]
    fn pruned_support_is_verdict_equivalent(
        store in any_store(40),
        sigma in 0..12usize,
    ) {
        // the σ-pruned kernel must decide `support < sigma` exactly like the
        // independent `EmbeddingSet` reference for every measure, and must
        // return the exact value whenever that value reaches sigma
        let mut scratch = SupportScratch::new();
        let reference = store.to_embedding_set();
        for measure in [SupportMeasure::MinimumImage, SupportMeasure::Transactions] {
            let exact = reference.support(measure);
            let pruned = store.support_pruned(measure, sigma, &mut scratch);
            prop_assert_eq!(pruned < sigma, exact < sigma,
                "verdict diverges: measure {:?} sigma {} exact {} pruned {}",
                measure, sigma, exact, pruned);
            if exact >= sigma {
                prop_assert_eq!(pruned, exact,
                    "pruned value inexact above sigma: measure {:?} sigma {}",
                    measure, sigma);
            } else {
                prop_assert!(pruned <= exact || pruned < sigma);
            }
        }
    }

    #[test]
    fn every_row_appears_exactly_once(store in any_store(40)) {
        let mut index = PrefixIndex::new();
        index.build(&store);
        let mut seen = vec![0usize; store.len()];
        for i in 0..store.len() {
            for &r in index.postings(store.transaction(i), store.row(i)[0]) {
                seen[r as usize] += 1;
            }
        }
        // every row is reachable through its own key; lookups of shared keys
        // revisit whole groups, so counts equal the group size
        for (i, &count) in seen.iter().enumerate() {
            let group = index.postings(store.transaction(i), store.row(i)[0]);
            prop_assert!(group.contains(&(i as u32)));
            prop_assert_eq!(count, group.len());
        }
    }
}
