//! Declarative SLOs with multi-window burn-rate evaluation over the
//! [`Tsdb`], plus the telemetry-snapshot renderer that `vira top`
//! consumes.
//!
//! An SLO says "fraction `objective` of events must be good". The burn
//! rate is how fast the error budget is being spent: `bad_fraction /
//! (1 - objective)` — 1.0 means "exactly on budget", 10 means the
//! budget would be gone in a tenth of the period. Following the
//! standard multi-window scheme, an alert fires only when **both** a
//! fast window (default 5 min — catches ongoing incidents quickly) and
//! a slow window (default 1 h — suppresses blips) exceed the burn
//! threshold. Alerts are edge-triggered structured events (`target:
//! "slo"`) through the existing event log, so they land in
//! `events.jsonl` and pass `obs-validate` like any other event.
//!
//! Latency SLOs are bucket-granular: the threshold rounds **up** to the
//! upper bound of its enclosing log2 bucket (a value can't be split
//! within a bucket), so effective thresholds are powers of two. The
//! quantile-accuracy property test in `crates/core/tests` bounds the error
//! this introduces.

use std::sync::{Arc, OnceLock};

use crate::event;
use crate::json::Json;
use crate::metrics::{counter_cached, Counter, Histogram, HistogramSnapshot};
use crate::tsdb::Tsdb;

pub const FAST_WINDOW_NS: u64 = 5 * 60 * 1_000_000_000;
pub const SLOW_WINDOW_NS: u64 = 60 * 60 * 1_000_000_000;

/// What counts as good/bad for one SLO.
#[derive(Clone, Debug)]
pub enum SloSource {
    /// Good = histogram samples at or below `threshold_ns` (rounded up
    /// to the enclosing log2 bucket's upper bound).
    Latency {
        histogram: String,
        threshold_ns: u64,
    },
    /// Good/bad counted from two counter families.
    ErrorRatio {
        good_total: String,
        bad_total: String,
    },
}

#[derive(Clone, Debug)]
pub struct SloSpec {
    pub name: String,
    /// Target good fraction, e.g. 0.99.
    pub objective: f64,
    pub fast_window_ns: u64,
    pub slow_window_ns: u64,
    /// Alert when both windows' burn rate reaches this. 1.0 = on budget.
    pub burn_threshold: f64,
    pub source: SloSource,
}

impl SloSpec {
    pub fn latency(name: &str, histogram: &str, threshold_ns: u64, objective: f64) -> SloSpec {
        SloSpec {
            name: name.into(),
            objective,
            fast_window_ns: FAST_WINDOW_NS,
            slow_window_ns: SLOW_WINDOW_NS,
            burn_threshold: 1.0,
            source: SloSource::Latency {
                histogram: histogram.into(),
                threshold_ns,
            },
        }
    }

    pub fn error_ratio(name: &str, good_total: &str, bad_total: &str, objective: f64) -> SloSpec {
        SloSpec {
            name: name.into(),
            objective,
            fast_window_ns: FAST_WINDOW_NS,
            slow_window_ns: SLOW_WINDOW_NS,
            burn_threshold: 1.0,
            source: SloSource::ErrorRatio {
                good_total: good_total.into(),
                bad_total: bad_total.into(),
            },
        }
    }
}

/// The stock cluster SLOs: job latency and time-to-first-geometry at
/// p99 and p999, job error rate, and the admission shed ratio (good =
/// admitted, bad = shed — burns when the load plane sheds more than 1%
/// of offered submissions). Thresholds are deliberately loose defaults
/// — deploys tune them through `TelemetryConfig`.
pub fn default_specs(job_latency_ns: u64, ttfg_ns: u64) -> Vec<SloSpec> {
    vec![
        SloSpec::latency(
            "job_latency_p99",
            "sched_job_runtime_ns",
            job_latency_ns,
            0.99,
        ),
        // The tail objective reuses the same threshold: it asks that
        // all but 0.1% of jobs stay under the *same* bound the p99
        // objective tolerates 1% exceeding — a strictly tighter SLO
        // that burns first when the far tail collapses.
        SloSpec::latency(
            "job_latency_p999",
            "sched_job_runtime_ns",
            job_latency_ns,
            0.999,
        ),
        SloSpec::latency("ttfg_p99", "vista_first_result_ns", ttfg_ns, 0.99),
        SloSpec::latency("ttfg_p999", "vista_first_result_ns", ttfg_ns, 0.999),
        SloSpec::error_ratio(
            "job_errors",
            "sched_jobs_done_total",
            "sched_jobs_failed_total",
            0.999,
        ),
        SloSpec::error_ratio(
            "shed_ratio",
            "sched_admitted_total",
            "sched_shed_total",
            0.99,
        ),
    ]
}

/// One spec's evaluation at a point in time.
#[derive(Clone, Debug, PartialEq)]
pub struct SloStatus {
    pub name: String,
    pub objective: f64,
    pub fast_total: u64,
    pub slow_total: u64,
    pub fast_bad_fraction: f64,
    pub slow_bad_fraction: f64,
    pub fast_burn: f64,
    pub slow_burn: f64,
    pub firing: bool,
}

/// Good-event count of a histogram window under a latency threshold:
/// every bucket whose range lies at or below the threshold's enclosing
/// bucket counts good (threshold rounds up to that bucket's bound).
pub fn good_below(h: &HistogramSnapshot, threshold_ns: u64) -> u64 {
    let tb = Histogram::bucket_index(threshold_ns);
    h.buckets[..=tb].iter().sum()
}

fn burn(bad_fraction: f64, objective: f64) -> f64 {
    bad_fraction / (1.0 - objective).max(1e-9)
}

static ALERTS: OnceLock<Arc<Counter>> = OnceLock::new();

/// Evaluates specs against the tsdb and emits edge-triggered alert /
/// resolve events. Owns the per-spec firing state for deduplication.
pub struct SloEngine {
    specs: Vec<SloSpec>,
    firing: Vec<bool>,
}

impl SloEngine {
    pub fn new(specs: Vec<SloSpec>) -> SloEngine {
        let n = specs.len();
        SloEngine {
            specs,
            firing: vec![false; n],
        }
    }

    pub fn specs(&self) -> &[SloSpec] {
        &self.specs
    }

    fn eval_window(spec: &SloSpec, db: &Tsdb, window_ns: u64, now_ns: u64) -> (u64, u64) {
        match &spec.source {
            SloSource::Latency {
                histogram,
                threshold_ns,
            } => {
                let h = db.merged_histogram_window(histogram, window_ns, now_ns);
                let good = good_below(&h, *threshold_ns);
                (h.count, h.count - good)
            }
            SloSource::ErrorRatio {
                good_total,
                bad_total,
            } => {
                let good = db.counter_window(good_total, window_ns, now_ns);
                let bad = db.counter_window(bad_total, window_ns, now_ns);
                (good + bad, bad)
            }
        }
    }

    /// One evaluation pass. Emits a `warn` event (target `slo`) on the
    /// transition into firing and an `info` event on resolution;
    /// re-evaluations while firing stay silent.
    pub fn evaluate(&mut self, db: &Tsdb, now_ns: u64) -> Vec<SloStatus> {
        let mut out = Vec::with_capacity(self.specs.len());
        for (i, spec) in self.specs.iter().enumerate() {
            let (fast_total, fast_bad) = Self::eval_window(spec, db, spec.fast_window_ns, now_ns);
            let (slow_total, slow_bad) = Self::eval_window(spec, db, spec.slow_window_ns, now_ns);
            let fast_bad_fraction = if fast_total == 0 {
                0.0
            } else {
                fast_bad as f64 / fast_total as f64
            };
            let slow_bad_fraction = if slow_total == 0 {
                0.0
            } else {
                slow_bad as f64 / slow_total as f64
            };
            let fast_burn = burn(fast_bad_fraction, spec.objective);
            let slow_burn = burn(slow_bad_fraction, spec.objective);
            let firing = fast_total > 0
                && slow_total > 0
                && fast_burn >= spec.burn_threshold
                && slow_burn >= spec.burn_threshold;
            if firing && !self.firing[i] {
                counter_cached(&ALERTS, "slo_alerts_total").inc();
                event::warn(
                    "slo",
                    "SLO burn-rate alert",
                    &[
                        ("slo", spec.name.as_str().into()),
                        ("objective", spec.objective.into()),
                        ("fast_burn", fast_burn.into()),
                        ("slow_burn", slow_burn.into()),
                        ("fast_bad_fraction", fast_bad_fraction.into()),
                        ("fast_total", fast_total.into()),
                    ],
                );
            } else if !firing && self.firing[i] {
                event::info(
                    "slo",
                    "SLO burn-rate alert resolved",
                    &[
                        ("slo", spec.name.as_str().into()),
                        ("fast_burn", fast_burn.into()),
                        ("slow_burn", slow_burn.into()),
                    ],
                );
            }
            self.firing[i] = firing;
            out.push(SloStatus {
                name: spec.name.clone(),
                objective: spec.objective,
                fast_total,
                slow_total,
                fast_bad_fraction,
                slow_bad_fraction,
                fast_burn,
                slow_burn,
                firing,
            });
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Telemetry snapshot rendering
// ---------------------------------------------------------------------------

/// Per-rank facts the scheduler knows outside the metric plane.
#[derive(Clone, Debug, Default)]
pub struct RankMeta {
    pub rank: u64,
    pub alive: bool,
    /// Popcount of the last harvested cache-residency digest.
    pub residency_blocks: u64,
    /// NTP-style clock offset estimate from the liveness probe.
    pub clock_offset_ns: i64,
}

/// Builds the `telemetry.json` snapshot: cluster totals, cross-rank
/// quantiles, per-rank rows, and SLO status. The scheduler writes this
/// periodically (and once more, with `final_snapshot`, at shutdown);
/// `vira top` and CI parse it back with [`crate::json::parse`], and
/// `vira slo-report`/`load-report` print a replay's in the same shape.
pub fn render_telemetry_json(
    db: &Tsdb,
    statuses: &[SloStatus],
    ranks: &[RankMeta],
    now_ns: u64,
    final_snapshot: bool,
) -> Json {
    // Clamp to f64-exact integers so the value survives any JSON parser.
    let exact = |v: u64| Json::UInt(v.min(1u64 << 53));
    let cnames = db.counter_names();
    let gnames = db.gauge_names();
    let quantiles = db.histogram_names().into_iter().map(|name| {
        let h = db.merged_histogram(&name);
        let row = Json::obj([
            ("count", exact(h.count)),
            ("mean", h.mean().into()),
            ("p50_ub", exact(h.quantile_upper_bound(0.50))),
            ("p99_ub", exact(h.quantile_upper_bound(0.99))),
            ("p999_ub", exact(h.quantile_upper_bound(0.999))),
        ]);
        (name, row)
    });
    let counters = Json::map(cnames.iter().map(|n| (n, exact(db.counter_total(n)))));
    let gauges = Json::map(gnames.iter().map(|n| (n, db.gauge_sum(n))));
    let cluster = Json::obj([
        ("counters", counters),
        ("gauges", gauges),
        ("quantiles", Json::map(quantiles)),
    ]);

    let rank_row = |meta: &RankMeta| {
        let mut row = vec![
            ("rank", exact(meta.rank)),
            ("alive", meta.alive.into()),
            ("residency_blocks", meta.residency_blocks.into()),
            ("clock_offset_ns", meta.clock_offset_ns.into()),
        ];
        if let Some(rs) = db.rank_state(meta.rank) {
            let age = now_ns.saturating_sub(rs.last_ingest_ns);
            row.extend([
                ("deltas", rs.deltas_accepted.into()),
                ("last_delta_age_ns", age.into()),
            ]);
        }
        let counters = cnames.iter().flat_map(|n| {
            let mine = db
                .counter_by_rank(n)
                .into_iter()
                .filter(|&(r, _)| r == meta.rank);
            mine.map(move |(_, v)| (n, exact(v)))
        });
        let gauges = gnames.iter().flat_map(|n| {
            let mine = db
                .gauge_by_rank(n)
                .into_iter()
                .filter(|&(r, _)| r == meta.rank);
            mine.map(move |(_, v)| (n, Json::from(v)))
        });
        row.extend([
            ("counters", Json::map(counters)),
            ("gauges", Json::map(gauges)),
        ]);
        Json::map(row)
    };

    let slo_row = |s: &SloStatus| {
        Json::obj([
            ("name", s.name.as_str().into()),
            ("objective", s.objective.into()),
            ("fast_total", exact(s.fast_total)),
            ("slow_total", exact(s.slow_total)),
            ("fast_bad_fraction", s.fast_bad_fraction.into()),
            ("slow_bad_fraction", s.slow_bad_fraction.into()),
            ("fast_burn", s.fast_burn.into()),
            ("slow_burn", s.slow_burn.into()),
            ("firing", s.firing.into()),
        ])
    };

    Json::obj([
        ("v", 1u64.into()),
        ("t_ns", now_ns.into()),
        ("final", final_snapshot.into()),
        ("cluster", cluster),
        ("ranks", Json::Arr(ranks.iter().map(rank_row).collect())),
        ("slo", Json::Arr(statuses.iter().map(slo_row).collect())),
        (
            "tsdb",
            Json::obj([
                ("dup_dropped", db.dup_dropped().into()),
                ("series_dropped", db.series_dropped().into()),
                ("scalar_points", db.scalar_points().into()),
            ]),
        ),
    ])
}

/// Structural check of a `telemetry.json` snapshot (as written by the
/// scheduler and read back by `vira top`).
pub fn validate_telemetry_json(text: &str) -> Result<(usize, usize), String> {
    let j = crate::json::parse(text)?;
    if j.get("v").and_then(|v| v.as_u64()) != Some(1) {
        return Err("telemetry.json: missing or unknown version 'v'".into());
    }
    let cluster = j
        .get("cluster")
        .ok_or("telemetry.json: missing 'cluster'")?;
    for section in ["counters", "gauges", "quantiles"] {
        if cluster.get(section).and_then(|v| v.as_obj()).is_none() {
            return Err(format!("telemetry.json: missing cluster.{section}"));
        }
    }
    let ranks = j
        .get("ranks")
        .and_then(|v| v.as_arr())
        .ok_or("telemetry.json: missing 'ranks' array")?;
    for r in ranks {
        if r.get("rank").and_then(|v| v.as_u64()).is_none() {
            return Err("telemetry.json: rank row without 'rank'".into());
        }
    }
    let slo = j
        .get("slo")
        .and_then(|v| v.as_arr())
        .ok_or("telemetry.json: missing 'slo' array")?;
    for s in slo {
        for key in ["name", "fast_burn", "slow_burn", "firing"] {
            if s.get(key).is_none() {
                return Err(format!("telemetry.json: slo row without '{key}'"));
            }
        }
    }
    Ok((ranks.len(), slo.len()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use crate::metrics::Histogram;
    use crate::ship::{MetricsDelta, SparseHist};

    fn hist_delta(rank: u64, seq: u64, name: &str, values: &[u64]) -> MetricsDelta {
        let mut snap = HistogramSnapshot::default();
        for &v in values {
            snap.count += 1;
            snap.sum += v;
            snap.buckets[Histogram::bucket_index(v)] += 1;
        }
        MetricsDelta {
            rank,
            seq,
            t_ns: seq,
            histograms: vec![(name.to_string(), SparseHist::from_snapshot(&snap))],
            ..Default::default()
        }
    }

    /// Hand-computed fixture: 100 jobs, 10 of them over threshold, with
    /// a 0.99 objective — bad fraction 0.10, error budget 0.01, so the
    /// burn rate must be exactly 10× in both windows.
    #[test]
    fn burn_rate_matches_hand_computed_fixture() {
        let mut db = Tsdb::default();
        // Threshold 1 ms sits in bucket 19 ([2^19, 2^20)); good samples
        // at 1000 ns (bucket 9), bad at 4 Mns = 2^22 (bucket 22).
        let mut values = vec![1000u64; 90];
        values.extend(vec![4_000_000u64; 10]);
        db.ingest(&hist_delta(0, 1, "sched_job_runtime_ns", &values), 1_000);

        let spec = SloSpec::latency("job_latency_p99", "sched_job_runtime_ns", 1_000_000, 0.99);
        let mut engine = SloEngine::new(vec![spec]);
        let statuses = engine.evaluate(&db, 2_000);
        let st = &statuses[0];
        assert_eq!(st.fast_total, 100);
        assert_eq!(st.slow_total, 100);
        assert!((st.fast_bad_fraction - 0.10).abs() < 1e-12);
        assert!(
            (st.fast_burn - 10.0).abs() < 1e-9,
            "burn = {}",
            st.fast_burn
        );
        assert!((st.slow_burn - 10.0).abs() < 1e-9);
        assert!(st.firing);
    }

    #[test]
    fn threshold_rounds_up_within_its_bucket() {
        let mut h = HistogramSnapshot {
            count: 2,
            ..Default::default()
        };
        h.buckets[10] = 2; // two samples in [1024, 2048)
                           // 1500 is inside bucket 10, so the whole bucket counts good.
        assert_eq!(good_below(&h, 1500), 2);
        // 1023 is in bucket 9; bucket 10 is above it.
        assert_eq!(good_below(&h, 1023), 0);
    }

    #[test]
    fn alerts_are_edge_triggered() {
        // This test drains the global event log, as `event`'s own tests do.
        let _g = crate::event::TEST_LOCK.lock().unwrap();
        let mut db = Tsdb::default();
        db.ingest(&hist_delta(0, 1, "lat_ns", &[4_000_000; 10]), 1_000);
        crate::event::set_stderr_echo(false);
        let spec = SloSpec::latency("edge_test_slo", "lat_ns", 1_000_000, 0.99);
        let mut engine = SloEngine::new(vec![spec]);
        assert!(engine.evaluate(&db, 2_000)[0].firing);
        assert!(engine.evaluate(&db, 3_000)[0].firing);
        let (events, _) = crate::event::drain_events();
        // Other tests emit slo events concurrently (the log is global);
        // count only this spec's alerts, keyed by its unique name.
        let alerts: Vec<_> = events
            .iter()
            .filter(|e| {
                e.target == "slo"
                    && !e.message.contains("resolved")
                    && e.fields.iter().any(|(k, v)| {
                        k == "slo"
                            && matches!(v, crate::event::Field::Str(s) if s == "edge_test_slo")
                    })
            })
            .collect();
        assert_eq!(
            alerts.len(),
            1,
            "re-evaluation while firing must stay silent"
        );
    }

    #[test]
    fn default_specs_cover_tails_and_shed_ratio() {
        let specs = default_specs(1_000_000, 500_000);
        let names: Vec<&str> = specs.iter().map(|s| s.name.as_str()).collect();
        for expect in [
            "job_latency_p99",
            "job_latency_p999",
            "ttfg_p99",
            "ttfg_p999",
            "job_errors",
            "shed_ratio",
        ] {
            assert!(names.contains(&expect), "missing default spec {expect}");
        }
        let p999 = specs.iter().find(|s| s.name == "job_latency_p999").unwrap();
        assert!((p999.objective - 0.999).abs() < 1e-12);
        let shed = specs.iter().find(|s| s.name == "shed_ratio").unwrap();
        match &shed.source {
            SloSource::ErrorRatio {
                good_total,
                bad_total,
            } => {
                assert_eq!(good_total, "sched_admitted_total");
                assert_eq!(bad_total, "sched_shed_total");
            }
            other => panic!("shed_ratio must be an error ratio, got {other:?}"),
        }
    }

    /// An undersized-quota run: 80 admitted, 20 shed, objective 0.99.
    /// Bad fraction 0.20 against a 0.01 budget burns at exactly 20×.
    #[test]
    fn shed_ratio_burns_when_quotas_shed() {
        let mut db = Tsdb::default();
        let d = MetricsDelta {
            rank: 0,
            seq: 1,
            t_ns: 1,
            counters: vec![
                ("sched_admitted_total".into(), 80),
                ("sched_shed_total".into(), 20),
            ],
            ..Default::default()
        };
        db.ingest(&d, 1_000);
        let spec = SloSpec::error_ratio(
            "shed_ratio",
            "sched_admitted_total",
            "sched_shed_total",
            0.99,
        );
        let mut engine = SloEngine::new(vec![spec]);
        let st = &engine.evaluate(&db, 2_000)[0];
        assert_eq!(st.fast_total, 100);
        assert!((st.fast_bad_fraction - 0.20).abs() < 1e-12);
        assert!((st.fast_burn - 20.0).abs() < 1e-9);
        assert!(st.firing);
    }

    #[test]
    fn no_events_means_no_burn() {
        let db = Tsdb::default();
        let spec = SloSpec::error_ratio("errors", "good_total", "bad_total", 0.999);
        let mut engine = SloEngine::new(vec![spec]);
        let statuses = engine.evaluate(&db, 1_000);
        let st = &statuses[0];
        assert_eq!(st.fast_total, 0);
        assert_eq!(st.fast_burn, 0.0);
        assert!(!st.firing);
    }

    #[test]
    fn error_ratio_counts_counters() {
        let mut db = Tsdb::default();
        let d = MetricsDelta {
            rank: 0,
            seq: 1,
            t_ns: 1,
            counters: vec![("good_total".into(), 997), ("bad_total".into(), 3)],
            ..Default::default()
        };
        db.ingest(&d, 1_000);
        let spec = SloSpec::error_ratio("errors", "good_total", "bad_total", 0.999);
        let mut engine = SloEngine::new(vec![spec]);
        let statuses = engine.evaluate(&db, 2_000);
        let st = &statuses[0];
        assert_eq!(st.fast_total, 1000);
        assert!((st.fast_bad_fraction - 0.003).abs() < 1e-12);
        // budget 0.001, bad fraction 0.003 -> burn 3.
        assert!((st.fast_burn - 3.0).abs() < 1e-9);
        assert!(st.firing);
    }

    #[test]
    fn telemetry_json_parses_back() {
        let mut db = Tsdb::default();
        let mut d = hist_delta(1, 1, "sched_job_runtime_ns", &[1000, 2000, 3000]);
        d.counters = vec![("sched_jobs_done_total".into(), 3)];
        d.gauges = vec![("sched_queue_depth".into(), 2)];
        db.ingest(&d, 1_000);
        let spec = SloSpec::latency("job_latency_p99", "sched_job_runtime_ns", 1_000_000, 0.99);
        let mut engine = SloEngine::new(vec![spec]);
        let statuses = engine.evaluate(&db, 2_000);
        let ranks = vec![RankMeta {
            rank: 1,
            alive: true,
            residency_blocks: 5,
            clock_offset_ns: -42,
        }];
        let text = render_telemetry_json(&db, &statuses, &ranks, 2_000, true).to_string();
        let j = json::parse(&text).expect("telemetry must be valid JSON");
        assert_eq!(j.get("v").and_then(|v| v.as_u64()), Some(1));
        assert_eq!(j.get("final").and_then(|v| v.as_bool()), Some(true));
        let cluster = j.get("cluster").unwrap();
        assert_eq!(
            cluster
                .get("counters")
                .and_then(|c| c.get("sched_jobs_done_total"))
                .and_then(|v| v.as_u64()),
            Some(3)
        );
        assert_eq!(
            cluster
                .get("gauges")
                .and_then(|c| c.get("sched_queue_depth"))
                .and_then(|v| v.as_u64()),
            Some(2)
        );
        let q = cluster
            .get("quantiles")
            .and_then(|q| q.get("sched_job_runtime_ns"))
            .unwrap();
        assert_eq!(q.get("count").and_then(|v| v.as_u64()), Some(3));
        assert_eq!(q.get("p50_ub").and_then(|v| v.as_u64()), Some(2048));
        let ranks_j = j.get("ranks").and_then(|r| r.as_arr()).unwrap();
        assert_eq!(ranks_j.len(), 1);
        assert_eq!(ranks_j[0].get("rank").and_then(|v| v.as_u64()), Some(1));
        assert_eq!(
            ranks_j[0].get("clock_offset_ns").and_then(|v| v.as_f64()),
            Some(-42.0)
        );
        let slo = j.get("slo").and_then(|s| s.as_arr()).unwrap();
        assert_eq!(
            slo[0].get("name").and_then(|v| v.as_str()),
            Some("job_latency_p99")
        );
        assert_eq!(slo[0].get("firing").and_then(|v| v.as_bool()), Some(false));
    }
}
