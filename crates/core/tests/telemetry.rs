//! Acceptance test for the live telemetry plane: a multi-rank run with
//! injected latency must produce a `telemetry.json` snapshot whose
//! cross-rank quantiles agree with values recomputed from the flight
//! recorder within log2-bucket error, and a violated SLO must fire a
//! burn-rate alert through the event log.
//!
//! The metrics registry, tracer and event log are process-global, so
//! the end-to-end check is a single test; the property tests below only
//! build local histograms and can run alongside it.

use std::sync::Arc;
use vira_grid::synth::test_cube;
use vira_obs::{HistogramSnapshot, MetricsDelta, SparseHist};
use vira_storage::source::SynthSource;
use vira_vista::{CommandParams, SubmitSpec, VistaClient};
use viracocha::{Viracocha, ViracochaConfig};

/// Exact quantile with the same rank rule the histogram upper bound
/// uses: the `max(1, ceil(q·n))`-th smallest sample.
fn exact_quantile(samples: &mut [u64], q: f64) -> u64 {
    samples.sort_unstable();
    let rank = ((q * samples.len() as f64).ceil() as usize).max(1);
    samples[rank.min(samples.len()) - 1]
}

/// `ub` must enclose `exact` within one log2 bucket on either side
/// (the span/histogram pair measure the same interval microseconds
/// apart, so boundary crossings are possible but never more).
fn within_bucket_error(ub: u64, exact: u64) -> bool {
    let (ub, exact) = (ub as f64, exact.max(1) as f64);
    ub >= exact * 0.5 && ub <= exact * 2.5
}

#[test]
fn live_snapshot_matches_flight_recorder_and_fires_slo() {
    vira_obs::set_stderr_echo(false);
    vira_obs::set_enabled(true);
    // Discard anything recorded before the run under test.
    let _ = vira_obs::drain();
    let _ = vira_obs::drain_events();

    let dir = std::env::temp_dir().join(format!("vira-telemetry-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let mut cfg = ViracochaConfig::for_tests(3);
    // A little dilation injects real latency, so job runtimes land in
    // non-trivial histogram buckets and heartbeats fire mid-run.
    cfg.dilation = 0.02;
    cfg.telemetry.out_dir = Some(dir.clone());
    cfg.telemetry.heartbeat_interval = std::time::Duration::from_millis(20);
    cfg.telemetry.write_interval = std::time::Duration::from_millis(40);
    // Impossible 1 ns latency objective: every job violates it, so the
    // burn-rate alert must fire.
    cfg.telemetry.job_latency_slo_ns = 1;

    let (backend, link) = Viracocha::launch(cfg);
    backend.register_dataset(
        Arc::new(SynthSource::new(Arc::new(test_cube(10, 4)))),
        false,
    );
    let mut client = VistaClient::new(link);
    for _ in 0..3 {
        client
            .run(&SubmitSpec {
                command: "IsoDataMan".into(),
                dataset: "TestCube".into(),
                params: CommandParams::new().set("iso", 0.15).set("n_steps", 2),
                workers: 3,
            })
            .unwrap();
    }
    // Idle across several heartbeat and write intervals so periodic
    // ticks (not just the final one) ship deltas and evaluate SLOs.
    std::thread::sleep(std::time::Duration::from_millis(150));

    // The violated SLO must have raised the alert counter and emitted a
    // structured event before shutdown.
    assert!(
        vira_obs::snapshot()
            .counter("slo_alerts_total")
            .unwrap_or(0)
            >= 1,
        "burn-rate alert counter never incremented"
    );
    let (events, _) = vira_obs::drain_events();
    let alert = events
        .iter()
        .find(|e| e.target == "slo" && e.message.contains("burn-rate alert"))
        .expect("slo alert event in the log");
    assert!(
        alert
            .fields
            .iter()
            .any(|(k, v)| k == "slo"
                && matches!(v, vira_obs::Field::Str(s) if s == "job_latency_p99")),
        "alert names the violated SLO: {:?}",
        alert.fields
    );

    client.shutdown().unwrap();
    backend.join();

    // Flight recordings are the independent ground truth.
    vira_obs::export_all(&dir).unwrap();

    let text = std::fs::read_to_string(dir.join("telemetry.json")).unwrap();
    let snap = vira_obs::json::parse(&text).unwrap();
    assert_eq!(snap.get("v").and_then(|v| v.as_u64()), Some(1));
    assert_eq!(snap.get("final").and_then(|v| v.as_bool()), Some(true));

    let counters = snap
        .get("cluster")
        .and_then(|c| c.get("counters"))
        .expect("cluster counters");
    let c = |name: &str| counters.get(name).and_then(|v| v.as_u64()).unwrap_or(0);
    assert!(c("obs_heartbeats_total") >= 1, "{text}");
    assert!(c("obs_deltas_shipped_total") >= 1, "{text}");
    assert_eq!(c("sched_jobs_done_total"), 3, "{text}");
    assert_eq!(c("sched_jobs_failed_total"), 0, "{text}");

    // Every worker rank is present and alive in the final snapshot.
    let ranks = snap.get("ranks").and_then(|r| r.as_arr()).expect("ranks");
    assert_eq!(ranks.len(), 3);
    assert!(ranks
        .iter()
        .all(|r| r.get("alive").and_then(|v| v.as_bool()) == Some(true)));

    // The firing SLO shows up in the snapshot the way obs-validate
    // checks it: named row with burn rates and the firing marker.
    let slos = snap.get("slo").and_then(|s| s.as_arr()).expect("slo rows");
    let lat = slos
        .iter()
        .find(|s| s.get("name").and_then(|v| v.as_str()) == Some("job_latency_p99"))
        .expect("job_latency_p99 row");
    assert_eq!(lat.get("firing").and_then(|v| v.as_bool()), Some(true));
    assert!(lat.get("fast_burn").and_then(|v| v.as_f64()).unwrap_or(0.0) >= 1.0);
    assert!(lat.get("slow_burn").and_then(|v| v.as_f64()).unwrap_or(0.0) >= 1.0);

    // Recompute the latency distributions from the flight recorder and
    // compare against the snapshot's cross-rank quantiles.
    let mut job_ns: Vec<u64> = Vec::new();
    let mut ttfg_ns: Vec<u64> = Vec::new();
    for entry in std::fs::read_dir(&dir).unwrap().flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        if !name.starts_with("flight-") || !name.ends_with(".jsonl") {
            continue;
        }
        let t = std::fs::read_to_string(entry.path()).unwrap();
        for span in vira_obs::parse_flight_spans(&t).unwrap() {
            match span.name.as_str() {
                "sched.job" => job_ns.push(span.dur_ns),
                "vista.first_result" => ttfg_ns.push(span.dur_ns),
                _ => {}
            }
        }
    }
    assert_eq!(job_ns.len(), 3, "one sched.job span per job");
    assert!(!ttfg_ns.is_empty(), "first-geometry spans recorded");

    let quant = |hist: &str, q: &str| {
        snap.get("cluster")
            .and_then(|c| c.get("quantiles"))
            .and_then(|qs| qs.get(hist))
            .and_then(|h| h.get(q))
            .and_then(|v| v.as_u64())
            .unwrap_or(0)
    };
    let job_exact = exact_quantile(&mut job_ns, 0.99);
    let job_ub = quant("sched_job_runtime_ns", "p99_ub");
    assert!(
        within_bucket_error(job_ub, job_exact),
        "job p99 ub {job_ub} vs flight-recorder exact {job_exact}"
    );
    let ttfg_exact = exact_quantile(&mut ttfg_ns, 0.99);
    let ttfg_ub = quant("vista_first_result_ns", "p99_ub");
    assert!(
        within_bucket_error(ttfg_ub, ttfg_exact),
        "ttfg p99 ub {ttfg_ub} vs flight-recorder exact {ttfg_exact}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// Folds samples into the 64-bucket log2 layout without touching the
/// process-global registry.
fn local_hist(samples: &[u64]) -> HistogramSnapshot {
    let mut h = HistogramSnapshot::default();
    for &v in samples {
        h.buckets[vira_obs::Histogram::bucket_index(v)] += 1;
        h.count += 1;
        h.sum = h.sum.wrapping_add(v);
    }
    h
}

fn arb_samples(g: &mut vira_testkit::Gen, min_len: usize, max_len: usize) -> Vec<u64> {
    g.vec(min_len..max_len, |g| g.u64_in(0..1 << 48))
}

/// Satellite check: log2-histogram quantile upper bounds are sound
/// (never below the exact quantile) and tight (within one bucket,
/// i.e. a factor of two) for p50, p99 and p999.
#[test]
fn quantile_upper_bounds_are_sound_and_bucket_tight() {
    vira_testkit::check(vira_testkit::DEFAULT_CASES, |g| {
        let samples = arb_samples(g, 1, 300);
        let h = local_hist(&samples);
        let mut sorted = samples.clone();
        for &q in &[0.50, 0.99, 0.999] {
            let exact = exact_quantile(&mut sorted, q);
            let ub = h.quantile_upper_bound(q);
            assert!(ub > exact, "ub {ub} not above exact {exact} at q={q}");
            assert!(
                ub <= 2 * exact.max(1),
                "ub {ub} beyond one bucket of exact {exact} at q={q}"
            );
        }
    });
}

/// Merging per-rank sparse deltas through the tsdb is lossless: the
/// cross-rank merged histogram equals a direct fold of all samples,
/// so cluster quantiles come from the real distribution.
#[test]
fn tsdb_merged_histogram_equals_direct_fold() {
    vira_testkit::check(vira_testkit::DEFAULT_CASES, |g| {
        let a = arb_samples(g, 0, 100);
        let b = arb_samples(g, 0, 100);
        let mut db = vira_obs::Tsdb::default();
        for (rank, samples) in [(1u64, &a), (2u64, &b)] {
            let delta = MetricsDelta {
                rank,
                seq: 1,
                t_ns: 1,
                histograms: vec![(
                    "sched_job_runtime_ns".into(),
                    SparseHist::from_snapshot(&local_hist(samples)),
                )],
                ..Default::default()
            };
            db.ingest(&delta, 1);
        }
        let merged = db.merged_histogram("sched_job_runtime_ns");
        let all: Vec<u64> = a.iter().chain(b.iter()).copied().collect();
        let direct = local_hist(&all);
        assert_eq!(merged.count, direct.count);
        assert_eq!(merged.sum, direct.sum);
        assert_eq!(merged.buckets, direct.buckets);
    });
}
