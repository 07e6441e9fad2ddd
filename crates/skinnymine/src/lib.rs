//! # skinnymine
//!
//! A Rust reproduction of **SkinnyMine** from *"A Direct Mining Approach To
//! Efficient Constrained Graph Pattern Discovery"* (Zhu, Zhang & Qu,
//! SIGMOD 2013): direct mining of all frequent **l-long δ-skinny** graph
//! patterns — patterns whose canonical diameter has length exactly `l` and
//! whose every vertex lies within distance δ of that diameter.
//!
//! ## The two-stage algorithm
//!
//! 1. **DiamMine** ([`diam_mine`]) mines all frequent simple paths of length
//!    `l` — the minimal constraint-satisfying patterns — by doubling
//!    (concatenating paths of length `2^i`) and merging overlapping paths.
//! 2. **LevelGrow** ([`level_grow`]) grows each such canonical diameter level
//!    by level into every skinny pattern of its cluster, maintaining the
//!    canonical diameter through the local Constraint I/II/III checks
//!    ([`constraints`]) on the per-vertex `D_H` / `D_T` indices.
//!
//! Stage I additionally seeds the frequent minimal **odd cycles**
//! `C_{2l+1}` ([`cycle`]) — non-path minimal patterns (e.g. C₅ for `l = 2`)
//! that Stage II cannot reach from path seeds — for Definition-8
//! completeness on adversarial inputs.
//!
//! The [`SkinnyMine`] driver runs both stages; [`MinimalPatternIndex`]
//! pre-computes Stage I once and serves repeated requests with different `l`,
//! which is the deployment depicted in Figure 2 of the paper.  Its request
//! path runs through the [`serving`] layer: a sharded bounded-LRU result
//! cache with single-flight coalescing, serving counters and a small typed
//! request language.  The general direct-mining framework of §5 —
//! constraints with **Reducibility** and **Continuity** — lives in
//! [`framework`].
//!
//! ## Data representation
//!
//! Every mining pass sweeps one form of the data: an immutable columnar
//! **CSR snapshot** (`skinny_graph::CsrSnapshot`), frozen once per run from
//! the input graph or database — flat neighbor columns plus
//! label-partitioned vertex lists and an edge-triple index that turns
//! Stage-I seed enumeration into an index walk.  Input that is already a
//! snapshot ([`MiningData::Snapshot`]) is mined as is.  Occurrence lists on
//! the hot paths live in `skinny_graph::OccurrenceStore`
//! (structure-of-arrays, arena-based extension joins).  Mining output is
//! **byte-identical** across input forms and thread counts.
//!
//! ## Parallelism
//!
//! [`SkinnyMineConfig::with_threads`] runs Stage I's occurrence joins, Stage
//! II's per-cluster growth and the index's request serving on a
//! work-stealing pool (`skinny-pool`).  All parallel paths merge their
//! partial results in deterministic task order, so the mined output is
//! byte-identical for every thread count.
//!
//! ## Quick start
//!
//! ```
//! use skinnymine::{SkinnyMine, SkinnyMineConfig, ReportMode};
//! use skinny_graph::{LabeledGraph, Label};
//!
//! // a tiny graph with two occurrences of a 4-long backbone + twig
//! let labels: Vec<Label> = [0, 1, 2, 3, 4, 9, 0, 1, 2, 3, 4, 9]
//!     .iter().map(|&x| Label(x)).collect();
//! let graph = LabeledGraph::from_unlabeled_edges(
//!     &labels,
//!     [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5),
//!      (6, 7), (7, 8), (8, 9), (9, 10), (8, 11)],
//! ).unwrap();
//!
//! let config = SkinnyMineConfig::new(4, 2, 2).with_report(ReportMode::Closed);
//! let result = SkinnyMine::new(config).mine(&graph).unwrap();
//! for p in &result.patterns {
//!     println!("{}", p.describe());
//! }
//! assert_eq!(result.patterns.len(), 1);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod config;
pub mod constraints;
pub mod cycle;
pub mod data;
pub mod diam_mine;
pub mod error;
pub mod ext_index;
pub mod framework;
pub mod grown;
pub mod incremental;
pub mod level_grow;
pub mod miner;
pub mod path_pattern;
pub mod pattern_index;
pub mod result;
pub mod serving;
pub mod stats;

pub use config::{ConstraintCheckMode, Exploration, LengthConstraint, ReportMode, SkinnyMineConfig};
pub use constraints::{
    check_extension, needs_structural_check, precheck_violation, satisfies_skinny_spec,
    verify_canonical_diameter, ConstraintViolation,
};
pub use cycle::{CycleKey, CyclePattern};
pub use data::MiningData;
pub use diam_mine::DiamMine;
pub use error::{MineError, MineResult};
pub use ext_index::{ExtEntry, ExtensionScratch, ExtensionTable};
pub use framework::{
    Continuous, DirectMiner, GraphConstraint, MaxDegreeConstraint, Reducible, RegularDegreeConstraint,
    SkinnyConstraint, SkinnyDirectMiner,
};
pub use grown::{Extension, GrowScratch, GrownPattern, StructScratch};
pub use incremental::IncrementalMiner;
pub use level_grow::{LevelGrow, Seed};
pub use miner::{duplicate_pattern_indices, duplicate_pattern_indices_reference, SkinnyMine};
pub use path_pattern::{PathKey, PathPattern, PatternTable};
pub use pattern_index::MinimalPatternIndex;
pub use result::{MiningResult, SkinnyPattern};
pub use serving::{ServingCacheConfig, ServingRequest, ServingResponse, ShardedLru};
pub use stats::{GrowPhaseStats, JoinPhaseStats, MiningStats, ServingStats, StageStats};
