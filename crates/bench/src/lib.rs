//! # skinny-bench
//!
//! The experiment and benchmark harness of the SkinnyMine reproduction: one
//! function per table and figure of the paper's evaluation (§6), plus the
//! `figures` binary that renders them and the Criterion benches that track
//! their runtime.
//!
//! * [`experiments`] — experiment drivers (Table 1–3, Figures 4–20, §6.3
//!   case studies), each scaled by an [`experiments::Scale`];
//! * [`report`] — plain-text tables and series used to render the results.
//!
//! End-to-end and per-layer timings of the three entry points (direct mine,
//! index request, incremental refresh) come from the separate `perfbench`
//! package at the repository root, whose workloads `BENCHMARK.json` lists.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod experiments;
pub mod report;

pub use experiments::{
    run_dblp_case_study, run_diammine_vs_l, run_gid_effectiveness, run_levelgrow_vs_delta,
    run_levelgrow_vs_l, run_runtime_sweep, run_runtime_table, run_scalability, run_table3,
    run_transaction_effectiveness, run_weibo_case_study, table1_and_2, RuntimeFigure, Scale,
};
pub use report::{distribution_table, series_table, Series, Table};
