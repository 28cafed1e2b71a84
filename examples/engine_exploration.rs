//! Explorative analysis of the Engine dataset — the paper's §1.1 usage
//! pattern: "the user continuously defines parameter values to extract
//! features, which are thereafter often rejected because of unsatisfying
//! results. Then, the parameters are modified for a renewed computation."
//!
//! The data management system is what makes this loop interactive: the
//! first extraction pays for loading, every parameter tweak afterwards is
//! served from the cache.
//!
//! ```text
//! cargo run --release --example engine_exploration
//! ```

use std::sync::Arc;
use vira_dms::proxy::ProxyConfig;
use vira_storage::source::CachedSynthSource;
use vira_vista::{CommandParams, SessionLog, SessionRecord, SubmitSpec, VistaClient};
use viracocha::{Viracocha, ViracochaConfig};

fn main() {
    let dilation = 0.002; // modeled seconds sleep 2 ms each: quick demo
    let config = ViracochaConfig {
        n_workers: 4,
        dilation,
        proxy: ProxyConfig {
            prefetcher: "obl".into(),
            ..ProxyConfig::default()
        },
        ..ViracochaConfig::default()
    };
    let (backend, link) = Viracocha::launch(config);
    let engine = Arc::new(vira_grid::synth::engine(7));
    backend.register_dataset(Arc::new(CachedSynthSource::new(engine)), false);
    let mut client = VistaClient::new(link);

    let mut session = SessionLog::new();
    println!("exploring the Engine intake flow (23 blocks, trial-and-error isosurfaces)\n");
    println!("{:>6} {:>12} {:>12} {:>8} {:>8} {:>10}", "iso", "triangles", "runtime[s]", "hits", "misses", "read[s]");

    // The user sweeps the iso level looking for the intake jet: each
    // attempt is a full parallel extraction over 8 time steps.
    for iso in [22.0, 18.0, 15.0, 12.0, 9.0, 6.0] {
        let params = CommandParams::new().set("iso", iso).set("n_steps", 8);
        let out = client
            .run(&SubmitSpec {
                command: "IsoDataMan".into(),
                dataset: "Engine".into(),
                params: params.clone(),
                workers: 4,
            })
            .expect("extraction failed");
        session.push(SessionRecord::from_outcome("IsoDataMan", "Engine", &params, 4, &out));
        println!(
            "{:>6.1} {:>12} {:>12.2} {:>8} {:>8} {:>10.3}",
            iso,
            out.triangles.n_triangles(),
            out.report.total_runtime_s,
            out.report.cache_hits,
            out.report.cache_misses,
            out.report.read_s
        );
    }

    println!("\nnow the λ₂ vortex test on the cached data (\"a value about zero\"):");
    for threshold in [-1.0e5, -2.0e4, -5.0e3] {
        let out = client
            .run(&SubmitSpec {
                command: "VortexDataMan".into(),
                dataset: "Engine".into(),
                params: CommandParams::new()
                    .set("threshold", threshold)
                    .set("n_steps", 8),
                workers: 4,
            })
            .expect("vortex extraction failed");
        println!(
            "  λ₂ = {:>9.0}: {:>8} triangles in {:>6.2} modeled s ({} cache hits)",
            threshold,
            out.triangles.n_triangles(),
            out.report.total_runtime_s,
            out.report.cache_hits
        );
    }

    let summary = session.summary();
    println!(
        "\nsession: {} jobs, {:.1} modeled s total, cache hit rate {:.0} %",
        summary.jobs,
        summary.total_modeled_s,
        summary.cache_hit_rate * 100.0
    );
    let log_path = std::env::temp_dir().join("viracocha_session.json");
    if session.save(&log_path).is_ok() {
        println!("session log saved to {}", log_path.display());
    }

    client.shutdown().expect("shutdown");
    backend.join();
}
