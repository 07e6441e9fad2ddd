//! Committed byte identity: FNV-1a digests of the `Debug` bytes of the
//! mined output (the digest the repository benchmark checks every operation
//! against) on the unshuffled benchmark presets, for a direct mine at one
//! and two threads, the stored seeds of a pattern index, and the index's 20
//! request configurations.
//!
//! A change that alters output bytes on purpose updates these digests and
//! says why; a change that is meant to keep them must leave this file alone.

use skinny_datagen::{erdos_renyi, ErConfig};
use skinny_graph::{LabeledGraph, SupportMeasure};
use skinnymine::{Exploration, MinimalPatternIndex, MiningData, ReportMode, SkinnyMine, SkinnyMineConfig};
use std::fmt::Write;

/// Generator seed of every preset.
const PRESET_SEED: u64 = 20130622;

/// FNV-1a over the `Debug` bytes of `value`, streamed through the formatter.
fn digest(value: &impl std::fmt::Debug) -> u64 {
    struct Fnv(u64);
    impl Write for Fnv {
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

/// The Figure-16 Erdős–Rényi preset at vertex-count divisor `divisor`.
fn fig16_graph(divisor: usize) -> LabeledGraph {
    erdos_renyi(&ErConfig::new(10_000 / divisor, 3.0, 10, PRESET_SEED))
}

#[test]
fn direct_mine_of_the_er_preset_keeps_its_bytes() {
    let graph = fig16_graph(14);
    for threads in [1, 2] {
        let config = SkinnyMineConfig::new(6, 2, 2)
            .with_support_measure(SupportMeasure::MinimumImage)
            .with_report(ReportMode::Closed)
            .with_exploration(Exploration::ClosureJump)
            .with_threads(threads);
        let result =
            SkinnyMine::new(config).mine_data(MiningData::Single(&graph)).expect("the mine succeeds");
        assert_eq!(digest(&result.patterns), 0x80a0_f206_3172_3886, "mine-er preset at {threads} threads");
    }
}

#[test]
fn pattern_index_seeds_and_requests_keep_their_bytes() {
    let graph = fig16_graph(20);
    let index = MinimalPatternIndex::build_with_threads(&graph, 2, SupportMeasure::MinimumImage, None, 2);
    let seeds: Vec<_> = index
        .available_lengths()
        .into_iter()
        .map(|l| (l, index.minimal_patterns(l), index.minimal_cycles(l)))
        .collect();
    assert_eq!(digest(&seeds), 0xcf0a_2a6b_fe58_bc37, "stored seeds of the divisor-20 index");

    let mut requests = Vec::new();
    for l in 2..=6 {
        for delta in [1, 2] {
            for report in [ReportMode::Closed, ReportMode::Maximal] {
                let config = SkinnyMineConfig::new(l, delta, 2)
                    .with_support_measure(SupportMeasure::MinimumImage)
                    .with_report(report)
                    .with_exploration(Exploration::ClosureJump)
                    .with_threads(1);
                let result = index.request(&config).expect("every configuration is servable");
                requests.push(digest(&result.patterns));
            }
        }
    }
    // (Closed, Maximal) pairs for δ = 1 then δ = 2, one row per length 2..=6
    let expected: [u64; 20] = [
        0x700a_ca71_7f94_6c5d,
        0x2f81_7835_fc39_ba23,
        0x700a_ca71_7f94_6c5d,
        0x2f81_7835_fc39_ba23,
        0x9003_f2a8_4a1b_de90,
        0xb69f_2418_e8b7_76e7,
        0x9003_f2a8_4a1b_de90,
        0xb69f_2418_e8b7_76e7,
        0x2e36_d5a3_e591_cad2,
        0x8c21_6c73_847b_acd8,
        0xfdb2_0d3a_5fc0_518c,
        0x2f1f_d32e_9688_af09,
        0x1f61_06cb_ce5a_987d,
        0xf576_326f_dafa_cca4,
        0xadfc_7645_bf43_0c57,
        0x3e6d_ef82_3954_7ac8,
        0x148e_c77e_18be_fe76,
        0x1b5f_babb_c701_3d20,
        0xc79e_27e7_efd3_5d98,
        0x685e_57dd_0f3f_0fd2,
    ];
    assert_eq!(requests, expected, "the 20 request configurations, l-major, then δ, then report");
}
