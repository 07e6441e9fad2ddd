//! Mobility / trajectory mining scenario from the paper's introduction:
//! popular travelling routes (the long backbone) together with associated
//! points of interest (the short twigs), mined from a synthetic city graph.
//!
//! The example demonstrates the *direct mining* deployment of Figure 2:
//! the minimal-pattern index is pre-computed once and then serves several
//! mining requests with different diameter constraints without re-running
//! Stage I.
//!
//! Run with:
//! ```text
//! cargo run --release --example mobility_trajectories
//! ```

use skinny_datagen::{erdos_renyi, inject_patterns, skinny_pattern, ErConfig, SkinnyPatternConfig};
use skinny_graph::SupportMeasure;
use skinnymine::{MinimalPatternIndex, ReportMode};

fn main() {
    // A synthetic "city": 3 000 locations with 60 venue categories, sparse
    // connectivity, plus three popular routes of different lengths planted
    // with 3 occurrences each (different users taking the same route).
    let background = erdos_renyi(&ErConfig::new(3_000, 2.5, 60, 7));
    let routes = vec![
        (skinny_pattern(&SkinnyPatternConfig::new(18, 12, 2, 60, 100)), 3),
        (skinny_pattern(&SkinnyPatternConfig::new(14, 10, 2, 60, 200)), 3),
        (skinny_pattern(&SkinnyPatternConfig::new(10, 8, 1, 60, 300)), 3),
    ];
    let city = inject_patterns(&background, &routes, 42).graph;
    println!(
        "city graph: {} locations, {} links, {} planted routes",
        city.vertex_count(),
        city.edge_count(),
        routes.len()
    );

    // Pre-compute the minimal-pattern index (Stage I) once.
    let start = std::time::Instant::now();
    let index = MinimalPatternIndex::build(&city, 2, SupportMeasure::MinimumImage, Some(14));
    println!(
        "minimal-pattern index: {} frequent paths across lengths {:?} (built in {:.2?})",
        index.len(),
        index.available_lengths(),
        index.build_time()
    );
    let _ = start;

    // Serve three different mining requests from the same index.
    for (l, delta) in [(8usize, 1u32), (10, 2), (12, 2)] {
        let result = index.request_exact(l, delta, ReportMode::Closed).expect("request uses the index sigma");
        println!("\nrequest: routes of length {l} with POI depth <= {delta}");
        println!(
            "  -> {} closed pattern(s), LevelGrow {:.2?}",
            result.patterns.len(),
            result.stats.level_grow.duration
        );
        if let Some(best) = result.largest_pattern() {
            println!("  largest: {}", best.describe());
        }
    }

    println!("\nmobility example OK");
}
