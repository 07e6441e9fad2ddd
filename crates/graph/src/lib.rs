//! # skinny-graph
//!
//! Labeled-graph substrate for the SkinnyMine reproduction
//! (*"A Direct Mining Approach To Efficient Constrained Graph Pattern
//! Discovery"*, Zhu, Zhang & Qu, SIGMOD 2013).
//!
//! This crate provides everything the mining algorithms are built on:
//!
//! * [`graph::LabeledGraph`] — undirected vertex/edge-labeled simple graphs
//!   (the mutable construction form);
//! * [`view::GraphView`] — the read-only trait both graph forms implement;
//! * [`csr::CsrGraph`] / [`csr::CsrSnapshot`] — immutable columnar (CSR)
//!   snapshots with label-partitioned vertex lists and an edge-triple index,
//!   built once per transaction and swept by every downstream pass;
//! * [`occurrence::OccurrenceStore`] — columnar (SoA) occurrence lists with
//!   the same support measures as [`embedding::EmbeddingSet`] and arena-based
//!   extension joins;
//! * [`occ_index`] — the occurrence join engine substrate: dense
//!   `(transaction, head vertex)` posting lists over occurrence rows
//!   ([`occ_index::PrefixIndex`]) and epoch-stamped scratch tables
//!   ([`occ_index::VertexMarks`], [`occ_index::JoinScratch`]) that make the
//!   per-row join work allocation-free;
//! * [`hash`] — the one hasher of every hashed hot-loop table, a
//!   composable polynomial hash ([`hash::FxHasher`]);
//! * [`path::Path`] — simple paths with the paper's lexicographical
//!   (Definition 2) and total (Definition 3) path orders;
//! * [`distance`] — shortest paths, diameters and the **canonical diameter**
//!   (Definition 4);
//! * [`skinny`] — δ-skinny / l-long δ-skinny checks (Definitions 5–7), used
//!   as the ground-truth specification in tests;
//! * [`iso`] / [`subiso`] — labeled graph isomorphism and VF2-style
//!   subgraph-isomorphism embedding enumeration;
//! * [`dfscode`] — gSpan-style minimum DFS codes (canonical forms);
//! * [`canon`] — the canonical-form funnel: order-invariant fingerprints,
//!   the early-abort scratch-reusing min-DFS engine and the memoizing
//!   [`canon::CanonSet`] dedup structure;
//! * [`embedding`] — embeddings, embedding sets and support measures;
//! * [`transaction`] — graph-transaction databases;
//! * [`io`] — gSpan-like text serialization.
//!
//! The crate is deliberately free of any mining logic: miners (SkinnyMine and
//! the baselines) live in their own crates and compose these primitives.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod canon;
pub mod csr;
pub mod dfscode;
pub mod distance;
pub mod embedding;
pub mod error;
pub mod graph;
pub mod hash;
pub mod io;
pub mod iso;
pub mod label;
pub mod occ_index;
pub mod occurrence;
pub mod path;
pub mod skinny;
pub mod subiso;
pub mod transaction;
pub mod traversal;
pub mod view;

pub use canon::{
    fingerprint, is_minimal_with, min_dfs_code_into, min_dfs_code_with, CanonId, CanonScratch, CanonSet,
    CanonStats,
};
pub use csr::{CsrGraph, CsrSnapshot, EdgeTriple, SnapshotBuilder};
pub use dfscode::{canonical_key, is_min_code, min_dfs_code, DfsCode, DfsEdge};
pub use distance::{
    all_pairs_distances, canonical_diameter, diameter, diameter_label_sequence_is_canonical,
    diameter_label_sequence_is_canonical_with, distances_to_path, min_shortest_path, DistMatrix,
};
pub use embedding::{Embedding, EmbeddingSet, SupportMeasure};
pub use error::{GraphError, GraphResult};
pub use graph::{Edge, GraphSignature, LabeledGraph, VertexId};
pub use hash::{FxBuild, FxHasher};
pub use iso::{are_isomorphic, automorphism_count};
pub use label::{Label, LabelTable};
pub use occ_index::{
    all_distinct_marked, disjoint_except_shared_marked, GroupSorter, JoinScratch, KeyMarks, PrefixIndex,
    VertexMarks, VertexSlots,
};
pub use occurrence::{OccRow, OccurrenceStore, SupportBatch, SupportScratch};
pub use path::{enumerate_simple_paths, lexicographic_path_order, total_path_order, Path};
pub use skinny::{analyze, is_delta_skinny, is_l_long_delta_skinny, SkinnyAnalysis};
pub use subiso::{count_embeddings, find_embeddings, has_embedding, SubIsoOptions};
pub use transaction::GraphDatabase;
pub use traversal::{ball, bfs_distances, connected_components, is_connected, UNREACHABLE};
pub use view::{GraphView, Neighbors};
