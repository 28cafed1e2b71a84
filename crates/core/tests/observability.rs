//! Acceptance test for the observability layer: a single traced run
//! must produce a valid Chrome trace, a valid JSONL event log, and
//! metrics consistent with the `JobReport` the client received.
//!
//! The tracer, metrics registry and event log are process-global, so
//! this file holds exactly one test — integration-test binaries run in
//! their own process, which keeps the drain/snapshot windows exact.

use std::sync::Arc;
use vira_dms::proxy::ProxyConfig;
use vira_grid::synth::test_cube;
use vira_obs::{export, ArgValue, SpanRecord};
use vira_storage::source::SynthSource;
use vira_vista::{CommandParams, SubmitSpec, VistaClient};
use viracocha::{Viracocha, ViracochaConfig};

fn span_arg_u64(rec: &SpanRecord, key: &str) -> Option<u64> {
    rec.args()
        .find(|(k, _)| *k == key)
        .and_then(|(_, v)| match v {
            ArgValue::U64(n) => Some(n),
            _ => None,
        })
}

#[test]
fn traced_run_artifacts_are_valid_and_consistent() {
    vira_obs::set_stderr_echo(false);
    vira_obs::set_enabled(true);
    // Discard anything recorded before the run under test.
    let _ = vira_obs::drain();
    let _ = vira_obs::drain_events();
    let before = vira_obs::snapshot();

    let mut cfg = ViracochaConfig::for_tests(2);
    cfg.proxy = ProxyConfig {
        prefetcher: "none".into(),
        ..ProxyConfig::default()
    };
    let (backend, link) = Viracocha::launch(cfg);
    backend.register_dataset(
        Arc::new(SynthSource::new(Arc::new(test_cube(10, 4)))),
        false,
    );
    let mut client = VistaClient::new(link);
    let out = client
        .run(&SubmitSpec {
            command: "IsoDataMan".into(),
            dataset: "TestCube".into(),
            params: CommandParams::new().set("iso", 0.15).set("n_steps", 2),
            workers: 2,
        })
        .unwrap();
    client.shutdown().unwrap();
    backend.join();

    vira_obs::info(
        "test",
        "traced run finished",
        &[("triangles", out.report.triangles.into())],
    );

    let delta = vira_obs::snapshot().delta(&before);
    let dump = vira_obs::drain();
    let (events, dropped_events) = vira_obs::drain_events();

    // --- metrics ↔ JobReport consistency --------------------------------
    let c = |name: &str| delta.counter(name).unwrap_or(0);
    assert_eq!(c("dms_demand_requests_total"), out.report.demand_requests);
    assert_eq!(
        c("dms_l1_hits_total") + c("dms_l2_hits_total"),
        out.report.cache_hits
    );
    assert_eq!(c("dms_misses_total"), out.report.cache_misses);
    assert_eq!(c("dms_prefetch_issued_total"), out.report.prefetch_issued);
    assert_eq!(c("dms_prefetch_hits_total"), out.report.prefetch_hits);
    assert_eq!(c("sched_jobs_submitted_total"), 1);
    assert_eq!(c("sched_jobs_dispatched_total"), 1);
    assert_eq!(c("sched_jobs_done_total"), 1);
    assert_eq!(c("sched_jobs_failed_total"), 0);
    // Every miss is served by exactly one load strategy.
    assert_eq!(
        c("dms_loads_fileserver_total") + c("dms_loads_replica_total") + c("dms_loads_peer_total"),
        out.report.cache_misses
    );
    assert!(out.report.cache_misses > 0, "cold run must miss");

    // --- span taxonomy ↔ JobReport ---------------------------------------
    assert_eq!(dump.dropped(), 0, "rings must not wrap in a tiny run");
    let spans: Vec<&SpanRecord> = dump.threads.iter().flat_map(|t| t.spans.iter()).collect();
    let count = |name: &str| spans.iter().filter(|s| s.name == name).count() as u64;
    assert_eq!(count("sched.queued"), 1);
    assert_eq!(count("sched.dispatch"), 1);
    assert_eq!(count("sched.job"), 1);
    assert!(count("worker.job") >= 1, "at least the master runs the job");
    assert_eq!(count("worker.merge"), 1);
    assert_eq!(count("vista.collect"), 1);
    assert!(count("grid.generate") >= 1, "cold misses synthesize blocks");
    // One dms.request and one extract.block span per processed item.
    assert_eq!(count("dms.request"), out.report.demand_requests);
    assert_eq!(count("extract.block"), out.report.demand_requests);
    // Per-block triangle and pruning args must add up to the report.
    let arg_sum = |key: &str| -> u64 {
        spans
            .iter()
            .filter(|s| s.name == "extract.block")
            .map(|s| span_arg_u64(s, key).expect("extract.block carries the arg"))
            .sum()
    };
    assert_eq!(arg_sum("triangles"), out.report.triangles);
    assert_eq!(arg_sum("cells_skipped"), out.report.cells_skipped);
    assert_eq!(arg_sum("bricks_skipped"), out.report.bricks_skipped);

    // --- artifacts on disk ------------------------------------------------
    let dir = std::env::temp_dir().join(format!("vira_obs_it_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let summary = export::write_artifacts(&dir, &dump, &events, dropped_events, &delta).unwrap();
    assert_eq!(summary.spans, spans.len());
    assert_eq!(summary.events, events.len());
    assert_eq!(summary.dropped_spans, 0);
    assert_eq!(summary.dropped_events, 0);
    assert!(summary.events >= 1, "the test's own info event is recorded");

    // The files must re-validate when read back, not just pre-write.
    let trace_text = std::fs::read_to_string(&summary.trace_path).unwrap();
    assert_eq!(
        export::validate_chrome_trace(&trace_text).unwrap(),
        spans.len()
    );
    let jsonl_text = std::fs::read_to_string(&summary.events_path).unwrap();
    assert_eq!(
        export::validate_events_jsonl(&jsonl_text).unwrap(),
        events.len()
    );
    let prom = std::fs::read_to_string(&summary.metrics_path).unwrap();
    assert!(prom.contains(&format!(
        "dms_demand_requests_total {}\n",
        out.report.demand_requests
    )));
    assert!(prom.contains("sched_jobs_done_total 1\n"));
    let _ = std::fs::remove_dir_all(&dir);
}
