//! Quickstart: launch a Viracocha back-end, register a small synthetic
//! dataset, extract an isosurface in parallel, and read the report.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use std::sync::Arc;
use vira_storage::source::SynthSource;
use vira_vista::{CommandParams, SubmitSpec, VistaClient};
use viracocha::{Viracocha, ViracochaConfig};

fn main() {
    // A back-end with 4 workers. Dilation 0 = no modeled-time sleeps:
    // instant for interactive use; benchmarks set it > 0.
    let (backend, link) = Viracocha::launch(ViracochaConfig::for_tests(4));

    // The test dataset: a single block around a Lamb–Oseen vortex.
    backend.register_dataset(
        Arc::new(SynthSource::new(Arc::new(vira_grid::synth::test_cube(
            16, 4,
        )))),
        false,
    );

    // The visualization-client stand-in submits commands and assembles
    // (streamed) geometry.
    let mut client = VistaClient::new(link);
    let outcome = client
        .run(&SubmitSpec {
            command: "IsoDataMan".into(),
            dataset: "TestCube".into(),
            params: CommandParams::new().set("iso", 0.15).set("n_steps", 1),
            workers: 4,
        })
        .expect("job failed");

    println!("isosurface |u| = 0.15 of the test vortex:");
    println!("  triangles       : {}", outcome.triangles.n_triangles());
    println!("  bounding box    : {:?}", outcome.triangles.bbox());
    println!(
        "  modeled runtime : {:.3} s",
        outcome.report.total_runtime_s
    );
    println!(
        "  cache           : {} hits / {} misses",
        outcome.report.cache_hits, outcome.report.cache_misses
    );

    // Second run: the data management system serves everything from its
    // caches.
    let warm = client
        .run(&SubmitSpec {
            command: "IsoDataMan".into(),
            dataset: "TestCube".into(),
            params: CommandParams::new().set("iso", 0.15).set("n_steps", 1),
            workers: 4,
        })
        .expect("job failed");
    println!(
        "warm rerun      : {} hits / {} misses (read time {:.4} s vs {:.4} s)",
        warm.report.cache_hits, warm.report.cache_misses, warm.report.read_s, outcome.report.read_s
    );

    client.shutdown().expect("shutdown");
    backend.join();
}
