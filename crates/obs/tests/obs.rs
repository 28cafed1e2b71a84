//! End-to-end test of the obs substrate in a clean process: record
//! spans on several threads, bump metrics, log events, export, and
//! re-parse the artifacts.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use vira_obs as obs;
use vira_obs::json::Json;

#[test]
fn record_export_reparse() {
    obs::set_stderr_echo(false);
    obs::set_enabled(true);

    // --- record spans on the main thread and two named workers ---
    {
        let _root = obs::span("test.root", "test").arg("case", "e2e");
        let _child = obs::span("test.child", "test").arg("n", 1u64);
    }
    let spans_done = Arc::new(AtomicU64::new(0));
    let handles: Vec<_> = (0..2)
        .map(|i| {
            let done = spans_done.clone();
            std::thread::Builder::new()
                .name(format!("obs-e2e-{i}"))
                .spawn(move || {
                    for b in 0..5u64 {
                        let _s = obs::span("test.block", "test").arg("block", b);
                        done.fetch_add(1, Ordering::Relaxed);
                    }
                })
                .unwrap()
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    obs::complete_span(
        "test.queued",
        "test",
        obs::epoch(),
        std::time::Instant::now(),
        &[("job", obs::ArgValue::U64(1))],
    );
    obs::set_enabled(false);

    // --- metrics ---
    static HITS: OnceLock<Arc<obs::Counter>> = OnceLock::new();
    for _ in 0..7 {
        obs::counter_cached(&HITS, "test_e2e_hits_total").inc();
    }
    obs::gauge("test_e2e_depth").set(3);
    let h = obs::histogram("test_e2e_wait_ns");
    h.record(100);
    h.record(100_000);

    // --- events ---
    obs::info("e2e", "phase done", &[("spans", 10u64.into())]);
    obs::warn("e2e", "odd but fine", &[]);

    // --- export ---
    let dir = std::env::temp_dir().join(format!("vira-obs-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let summary = obs::export_all(&dir).unwrap();
    assert!(summary.events >= 2);
    assert_eq!(summary.dropped_spans, 0);

    // --- spans and the chrome trace (compiled out by `off`) ---
    if cfg!(not(feature = "off")) {
        assert!(
            summary.spans >= 13,
            "root+child+10 blocks+queued, got {}",
            summary.spans
        );
        let trace = std::fs::read_to_string(&summary.trace_path).unwrap();
        let v = vira_obs::json::parse(&trace).unwrap();
        let events = v.get("traceEvents").unwrap().as_arr().unwrap();
        let thread_names: Vec<&str> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("M"))
            .filter_map(|e| e.get("args")?.get("name")?.as_str())
            .collect();
        assert!(thread_names.iter().any(|n| n.starts_with("obs-e2e-")));
        let block_spans: Vec<_> = events
            .iter()
            .filter(|e| e.get("name").and_then(Json::as_str) == Some("test.block"))
            .collect();
        assert_eq!(block_spans.len(), 10);
        // Child nested under root: same tid, contained in time.
        let root = events
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("test.root"))
            .unwrap();
        let child = events
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("test.child"))
            .unwrap();
        assert_eq!(
            root.get("tid").unwrap().as_f64(),
            child.get("tid").unwrap().as_f64()
        );
        let ts = |e: &Json| e.get("ts").unwrap().as_f64().unwrap();
        let end = |e: &Json| ts(e) + e.get("dur").unwrap().as_f64().unwrap();
        assert!(ts(root) <= ts(child) && end(child) <= end(root) + 1e-3);
    }

    // --- metrics dump carries our metrics ---
    let prom = std::fs::read_to_string(&summary.metrics_path).unwrap();
    assert!(prom.contains("test_e2e_hits_total 7"));
    assert!(prom.contains("test_e2e_depth 3"));
    assert!(prom.contains("test_e2e_wait_ns_count 2"));

    // --- events.jsonl carries our events ---
    let jsonl = std::fs::read_to_string(&summary.events_path).unwrap();
    assert!(vira_obs::export::validate_events_jsonl(&jsonl).unwrap() >= 2);
    assert!(jsonl.contains("\"phase done\""));

    // --- second export is empty of spans (drains consume) ---
    let dir2 = dir.join("second");
    let summary2 = obs::export_all(&dir2).unwrap();
    assert_eq!(summary2.spans, 0);

    let _ = std::fs::remove_dir_all(&dir);
}
