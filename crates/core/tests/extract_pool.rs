//! The item walk really fans out: with several extraction threads, the
//! `extract.block` spans of an isosurface or λ₂ job, streamed or not,
//! run on pool threads, not on the thread that walks the share; with
//! one, every block runs on the walking thread. Payload equality across
//! widths is `framework::parallel_extraction_is_byte_identical_to_serial`
//! and `framework::streamed_vortex_streams_and_matches`; this checks
//! that the width is used at all.
//!
//! The tracer is process-global, so this file holds exactly one test —
//! integration-test binaries run in their own process, which keeps the
//! drain window exact.

use std::collections::BTreeSet;
use std::sync::Arc;
use vira_dms::proxy::ProxyConfig;
use vira_grid::synth;
use vira_obs::{ArgValue, SpanRecord};
use vira_storage::source::SynthSource;
use vira_vista::{CommandParams, SubmitSpec, VistaClient};
use viracocha::{Viracocha, ViracochaConfig};

fn job_of(rec: &SpanRecord) -> Option<u64> {
    rec.args()
        .find(|(k, _)| *k == "job")
        .and_then(|(_, v)| match v {
            ArgValue::U64(n) => Some(n),
            _ => None,
        })
}

/// Runs each command once on a one-rank back-end with `threads`
/// extraction threads and returns the job ids.
fn run_jobs(threads: usize, jobs: &[(&str, CommandParams)]) -> Vec<u64> {
    let mut cfg = ViracochaConfig::for_tests(1);
    cfg.proxy = ProxyConfig {
        prefetcher: "none".into(),
        ..ProxyConfig::default()
    };
    cfg.extract.threads = threads;
    let (backend, link) = Viracocha::launch(cfg);
    backend.register_dataset(
        Arc::new(SynthSource::new(Arc::new(synth::engine(6)))),
        false,
    );
    let mut client = VistaClient::new(link);
    let ids = jobs
        .iter()
        .map(|(command, params)| {
            let job = client
                .submit(&SubmitSpec {
                    command: (*command).into(),
                    dataset: "Engine".into(),
                    params: params.clone().set("n_steps", 2),
                    workers: 1,
                })
                .unwrap();
            let out = client.collect(job).unwrap();
            assert!(out.triangles.n_triangles() > 0, "{command}");
            job
        })
        .collect();
    client.shutdown().unwrap();
    backend.join();
    ids
}

#[test]
fn wide_walks_extract_off_the_walking_thread() {
    vira_obs::set_stderr_echo(false);
    vira_obs::set_enabled(true);
    let _ = vira_obs::drain();
    let jobs = [
        ("IsoDataMan", CommandParams::new().set("iso", 15.0)),
        (
            "SimpleVortex",
            CommandParams::new().set("threshold", -2.0e4),
        ),
        (
            "VortexDataMan",
            CommandParams::new()
                .set("threshold", -2.0e4)
                .set("cache_fields", "true")
                .set("ghosts", "true"),
        ),
        (
            "StreamedVortex",
            CommandParams::new()
                .set("threshold", -2.0e4)
                .set("batch", 100),
        ),
    ];
    for threads in [1, 4] {
        let ids = run_jobs(threads, &jobs);
        let dump = vira_obs::drain();
        assert_eq!(dump.dropped(), 0, "rings must not wrap in a small run");
        for ((command, _), job) in jobs.iter().zip(ids) {
            let tids = |name: &str| -> Vec<u64> {
                dump.threads
                    .iter()
                    .flat_map(|t| {
                        t.spans
                            .iter()
                            .filter(|s| s.name == name && job_of(s) == Some(job))
                            .map(move |_| t.tid)
                    })
                    .collect()
            };
            let walkers: BTreeSet<u64> = tids("extract.round").into_iter().collect();
            assert_eq!(walkers.len(), 1, "{command}: one thread walks the share");
            let blocks = tids("extract.block");
            assert_eq!(blocks.len(), 46, "{command}: 23 blocks x 2 steps");
            let pool: BTreeSet<u64> = blocks.into_iter().collect();
            if threads == 1 {
                assert_eq!(pool, walkers, "{command}: one thread extracts inline");
            } else {
                assert!(
                    pool.len() >= 2 && pool.is_disjoint(&walkers),
                    "{command} at {threads} threads: blocks ran on {pool:?}, walk on {walkers:?}"
                );
            }
        }
    }
}
