//! Global metrics registry: named counters, gauges, and log-scale
//! latency histograms.
//!
//! All metric handles are `Arc`s to atomics — updating one is lock-free
//! and never touches the registry. The registry itself (a mutex over a
//! sorted map) is only taken at get-or-create and snapshot time; hot
//! paths cache the `Arc` in a `OnceLock` via [`counter_cached`] and
//! friends.
//!
//! Naming convention (see DESIGN.md §observability): prometheus-style
//! `snake_case`, `<subsystem>_<what>_<unit>`, e.g. `dms_l1_hits_total`,
//! `sched_queue_wait_ns` (histogram), `vista_stream_bytes_total`.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Number of log2 buckets in a [`Histogram`] (one per bit of a u64).
pub const HIST_BUCKETS: usize = 64;

// ---------------------------------------------------------------------------
// Metric kinds
// ---------------------------------------------------------------------------

/// Monotonic counter.
#[derive(Default)]
pub struct Counter {
    v: AtomicU64,
}

impl Counter {
    #[inline]
    pub fn inc(&self) {
        self.v.fetch_add(1, Ordering::Relaxed);
    }
    #[inline]
    pub fn add(&self, n: u64) {
        if n != 0 {
            self.v.fetch_add(n, Ordering::Relaxed);
        }
    }
    #[inline]
    pub fn get(&self) -> u64 {
        self.v.load(Ordering::Relaxed)
    }
}

/// Instantaneous signed value.
#[derive(Default)]
pub struct Gauge {
    v: AtomicI64,
}

impl Gauge {
    #[inline]
    pub fn set(&self, n: i64) {
        self.v.store(n, Ordering::Relaxed);
    }
    #[inline]
    pub fn add(&self, n: i64) {
        self.v.fetch_add(n, Ordering::Relaxed);
    }
    #[inline]
    pub fn get(&self) -> i64 {
        self.v.load(Ordering::Relaxed)
    }
}

/// Log2-bucketed histogram for latency-like values (nanoseconds by
/// convention). Bucket `i` counts values whose highest set bit is `i`,
/// i.e. values in `[2^i, 2^(i+1))`; zero lands in bucket 0.
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; HIST_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl Histogram {
    #[inline]
    pub fn bucket_index(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            63 - value.leading_zeros() as usize
        }
    }

    #[inline]
    pub fn record(&self, value: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.buckets[Self::bucket_index(value)].fetch_add(1, Ordering::Relaxed);
    }

    /// Records a `Duration` in nanoseconds.
    #[inline]
    pub fn record_duration(&self, d: std::time::Duration) {
        self.record(d.as_nanos() as u64);
    }

    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
        }
    }
}

/// Plain-struct view of a [`Histogram`], mergeable and serializable.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub sum: u64,
    pub buckets: [u64; HIST_BUCKETS],
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            count: 0,
            sum: 0,
            buckets: [0; HIST_BUCKETS],
        }
    }
}

impl HistogramSnapshot {
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        self.count += other.count;
        self.sum += other.sum;
        for i in 0..HIST_BUCKETS {
            self.buckets[i] += other.buckets[i];
        }
    }

    pub fn delta(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count.saturating_sub(earlier.count),
            sum: self.sum.saturating_sub(earlier.sum),
            buckets: std::array::from_fn(|i| self.buckets[i].saturating_sub(earlier.buckets[i])),
        }
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound (exclusive) of the bucket containing the `q`-quantile
    /// (0.0..=1.0); 0 for an empty histogram. A coarse estimate — log2
    /// buckets give it a factor-of-two resolution, which is plenty for
    /// latency triage.
    pub fn quantile_upper_bound(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            cum += b;
            if cum >= rank {
                return if i >= 63 { u64::MAX } else { 1u64 << (i + 1) };
            }
        }
        u64::MAX
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

static REGISTRY: OnceLock<Mutex<BTreeMap<String, Metric>>> = OnceLock::new();

fn registry() -> &'static Mutex<BTreeMap<String, Metric>> {
    REGISTRY.get_or_init(|| Mutex::new(BTreeMap::new()))
}

/// Get-or-create the counter `name`. If `name` is already registered as
/// a different kind, returns a detached (unregistered) counter so the
/// caller keeps working; the kind clash is a programming error best
/// caught by tests comparing snapshots.
pub fn counter(name: &str) -> Arc<Counter> {
    let mut map = registry().lock().unwrap();
    match map.get(name) {
        Some(Metric::Counter(c)) => c.clone(),
        Some(_) => Arc::new(Counter::default()),
        None => {
            let c = Arc::new(Counter::default());
            map.insert(name.to_owned(), Metric::Counter(c.clone()));
            c
        }
    }
}

/// Get-or-create the gauge `name` (same clash policy as [`counter`]).
pub fn gauge(name: &str) -> Arc<Gauge> {
    let mut map = registry().lock().unwrap();
    match map.get(name) {
        Some(Metric::Gauge(g)) => g.clone(),
        Some(_) => Arc::new(Gauge::default()),
        None => {
            let g = Arc::new(Gauge::default());
            map.insert(name.to_owned(), Metric::Gauge(g.clone()));
            g
        }
    }
}

/// Get-or-create the histogram `name` (same clash policy as [`counter`]).
pub fn histogram(name: &str) -> Arc<Histogram> {
    let mut map = registry().lock().unwrap();
    match map.get(name) {
        Some(Metric::Histogram(h)) => h.clone(),
        Some(_) => Arc::new(Histogram::default()),
        None => {
            let h = Arc::new(Histogram::default());
            map.insert(name.to_owned(), Metric::Histogram(h.clone()));
            h
        }
    }
}

/// Hot-path helper: resolves `name` once and caches the handle in a
/// static `OnceLock`, so steady-state cost is one pointer load.
///
/// ```ignore
/// static HITS: OnceLock<Arc<Counter>> = OnceLock::new();
/// counter_cached(&HITS, "dms_l1_hits_total").inc();
/// ```
#[inline]
pub fn counter_cached<'a>(
    cell: &'a OnceLock<Arc<Counter>>,
    name: &'static str,
) -> &'a Arc<Counter> {
    cell.get_or_init(|| counter(name))
}

#[inline]
pub fn gauge_cached<'a>(cell: &'a OnceLock<Arc<Gauge>>, name: &'static str) -> &'a Arc<Gauge> {
    cell.get_or_init(|| gauge(name))
}

#[inline]
pub fn histogram_cached<'a>(
    cell: &'a OnceLock<Arc<Histogram>>,
    name: &'static str,
) -> &'a Arc<Histogram> {
    cell.get_or_init(|| histogram(name))
}

// ---------------------------------------------------------------------------
// Metric-name registry
// ---------------------------------------------------------------------------

/// Every metric family the workspace emits in production code, with its
/// Prometheus `# HELP` text. The DESIGN.md "Metric-name registry" table
/// mirrors this list; `obs-validate` checks exported artifacts against
/// it so a typo'd name (`sched_requeue_total` for `sched_requeues_total`)
/// fails CI instead of silently forking a family.
///
/// Test-only scratch names (`test_*`, bench scratch counters) are
/// deliberately absent: they never reach exported artifacts.
pub const METRIC_REGISTRY: &[(&str, &str)] = &[
    // costmodel
    (
        "costmodel_compute_modeled_ns_total",
        "Modeled compute time charged by commands",
    ),
    (
        "costmodel_read_modeled_ns_total",
        "Modeled read time charged by storage",
    ),
    (
        "costmodel_send_modeled_ns_total",
        "Modeled send time charged by the uplink",
    ),
    (
        "costmodel_wall_slept_ns_total",
        "Wall time actually slept to honour dilation",
    ),
    // dms
    (
        "dms_demand_requests_total",
        "Block requests served by the DMS proxy",
    ),
    (
        "dms_fallback_total",
        "Loads that fell back after a peer/replica failure",
    ),
    (
        "dms_l1_hits_total",
        "Demand requests answered from the memory cache",
    ),
    (
        "dms_l2_hits_total",
        "Demand requests answered from the node disk cache",
    ),
    (
        "dms_loads_fileserver_total",
        "Cold loads served by the central file server",
    ),
    (
        "dms_loads_peer_total",
        "Cold loads served by a peer node cache",
    ),
    (
        "dms_loads_replica_total",
        "Cold loads served by a node-local replica",
    ),
    (
        "dms_misses_total",
        "Demand requests that missed every cache tier",
    ),
    (
        "dms_prefetch_hits_total",
        "Demand requests answered by a completed prefetch",
    ),
    ("dms_prefetch_issued_total", "Prefetch operations issued"),
    (
        "dms_prefetch_redundant_total",
        "Prefetches that found the item already cached",
    ),
    (
        "dms_prefetch_waits_total",
        "Demand requests that waited on an in-flight prefetch",
    ),
    // fault injection
    ("fault_corrupt_total", "Frames corrupted by the fault plan"),
    ("fault_delay_total", "Frames delayed by the fault plan"),
    ("fault_drop_total", "Frames dropped by the fault plan"),
    ("fault_dup_total", "Frames duplicated by the fault plan"),
    ("fault_injected_total", "Total fault decisions that fired"),
    ("fault_rank_killed_total", "Ranks killed by the fault plan"),
    ("fault_reorder_total", "Frames reordered by the fault plan"),
    ("fault_truncate_total", "Frames truncated by the fault plan"),
    // comm links
    (
        "link_event_bytes_total",
        "Bytes of event frames sent to the client",
    ),
    ("link_event_frames_total", "Event frames sent to the client"),
    (
        "link_request_bytes_total",
        "Bytes of request frames sent by the client",
    ),
    (
        "link_request_frames_total",
        "Request frames sent by the client",
    ),
    // observability plane
    (
        "obs_deltas_shipped_total",
        "Metric deltas cut by the shipping cursor",
    ),
    (
        "obs_heartbeats_total",
        "Telemetry heartbeat pings sent by the scheduler",
    ),
    (
        "obs_spans_dropped_total",
        "Span records lost to ring-buffer overflow",
    ),
    // scheduler
    (
        "sched_admitted_total",
        "Submissions that passed admission control",
    ),
    (
        "sched_backfills_total",
        "Dispatches that jumped a blocked queue head",
    ),
    (
        "sched_dead_ranks_total",
        "Ranks declared dead by the liveness probe",
    ),
    (
        "sched_idle_wait_ns_total",
        "Scheduler time spent idle waiting for messages",
    ),
    (
        "sched_job_runtime_ns",
        "Per-job accept-to-done runtime histogram",
    ),
    (
        "sched_jobs_dispatched_total",
        "Jobs dispatched to a worker group",
    ),
    ("sched_jobs_done_total", "Jobs finished successfully"),
    (
        "sched_jobs_failed_total",
        "Jobs that ended in an error report",
    ),
    (
        "sched_jobs_rejected_total",
        "Submissions rejected before queueing",
    ),
    (
        "sched_jobs_submitted_total",
        "Submissions accepted into the queue",
    ),
    (
        "sched_locality_hits_total",
        "Placed ranks whose cache already held job items",
    ),
    (
        "sched_queue_depth",
        "Jobs currently waiting in the scheduler queue",
    ),
    (
        "sched_queue_high_watermark",
        "Deepest scheduler queue observed (monotone counter)",
    ),
    ("sched_queue_wait_ns", "Per-job queue-wait histogram"),
    (
        "sched_quota_rejections_total",
        "Sheds caused by a per-session quota",
    ),
    (
        "sched_running_jobs",
        "Jobs currently dispatched and not yet done",
    ),
    ("sched_requeues_total", "Jobs requeued after a dead rank"),
    ("sched_retries_total", "Command frames retransmitted"),
    (
        "sched_shed_total",
        "Submissions shed by admission control (busy rejections)",
    ),
    (
        "sched_starvation_aged_total",
        "Queue heads force-dispatched by the aging bound",
    ),
    // slo engine
    ("slo_alerts_total", "SLO burn-rate alerts fired"),
    // socket transport
    ("socket_bytes_sent_total", "Bytes of socket frames written"),
    (
        "socket_frames_corrupt_total",
        "Socket frames refused by the frame digest",
    ),
    ("socket_frames_recv_total", "Socket frames decoded"),
    ("socket_frames_sent_total", "Socket frames written"),
    (
        "socket_resync_bytes_total",
        "Bytes skipped while resynchronising on a frame magic",
    ),
    // vista client
    (
        "vista_busy_rejections_total",
        "Busy (shed) rejections observed by the client",
    ),
    (
        "vista_dup_dropped_total",
        "Duplicate stream packets dropped by the client",
    ),
    (
        "vista_first_result_ns",
        "Submit-to-first-geometry latency histogram",
    ),
    (
        "vista_jobs_collected_total",
        "Jobs fully collected by the client",
    ),
    (
        "vista_packets_total",
        "Stream packets received by the client",
    ),
    (
        "vista_stream_bytes_total",
        "Bytes of streamed geometry received",
    ),
    (
        "vista_stream_items_total",
        "Geometry items received by the client",
    ),
    // workers
    (
        "worker_replay_bytes",
        "Bytes of the response frames workers hold for replay",
    ),
    (
        "worker_stream_items_total",
        "Geometry items streamed by workers",
    ),
    (
        "worker_stream_packets_total",
        "Stream packets sent by workers",
    ),
];

/// `# HELP` text for a registered family, if any.
pub fn metric_help(name: &str) -> Option<&'static str> {
    METRIC_REGISTRY
        .iter()
        .find(|(n, _)| *n == name)
        .map(|&(_, h)| h)
}

/// Whether `name` (a family name, without `_bucket`/`_sum`/`_count`
/// histogram suffixes) is in [`METRIC_REGISTRY`].
pub fn is_registered(name: &str) -> bool {
    METRIC_REGISTRY.iter().any(|(n, _)| *n == name)
}

// ---------------------------------------------------------------------------
// Snapshot
// ---------------------------------------------------------------------------

/// Point-in-time copy of every registered metric. Sorted by name.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    pub counters: Vec<(String, u64)>,
    pub gauges: Vec<(String, i64)>,
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

/// Snapshots the global registry.
pub fn snapshot() -> MetricsSnapshot {
    let map = registry().lock().unwrap();
    let mut out = MetricsSnapshot::default();
    for (name, m) in map.iter() {
        match m {
            Metric::Counter(c) => out.counters.push((name.clone(), c.get())),
            Metric::Gauge(g) => out.gauges.push((name.clone(), g.get())),
            Metric::Histogram(h) => out.histograms.push((name.clone(), h.snapshot())),
        }
    }
    out
}

impl MetricsSnapshot {
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// Sums `other` into `self` (counters add, gauges add, histograms
    /// merge; names only in `other` are inserted).
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (name, v) in &other.counters {
            match self.counters.iter_mut().find(|(n, _)| n == name) {
                Some((_, mine)) => *mine += v,
                None => self.counters.push((name.clone(), *v)),
            }
        }
        for (name, v) in &other.gauges {
            match self.gauges.iter_mut().find(|(n, _)| n == name) {
                Some((_, mine)) => *mine += v,
                None => self.gauges.push((name.clone(), *v)),
            }
        }
        for (name, h) in &other.histograms {
            match self.histograms.iter_mut().find(|(n, _)| n == name) {
                Some((_, mine)) => mine.merge(h),
                None => self.histograms.push((name.clone(), *h)),
            }
        }
        self.counters.sort_by(|a, b| a.0.cmp(&b.0));
        self.gauges.sort_by(|a, b| a.0.cmp(&b.0));
        self.histograms.sort_by(|a, b| a.0.cmp(&b.0));
    }

    /// `self - earlier`, saturating — counters and histogram cells never
    /// go negative; gauges keep `self`'s instantaneous value.
    pub fn delta(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let mut out = MetricsSnapshot {
            counters: Vec::with_capacity(self.counters.len()),
            gauges: self.gauges.clone(),
            histograms: Vec::with_capacity(self.histograms.len()),
        };
        for (name, v) in &self.counters {
            let before = earlier.counter(name).unwrap_or(0);
            out.counters.push((name.clone(), v.saturating_sub(before)));
        }
        for (name, h) in &self.histograms {
            let before = earlier.histogram(name).copied().unwrap_or_default();
            out.histograms.push((name.clone(), h.delta(&before)));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_gauge_roundtrip() {
        let c = counter("test_metrics_counter_total");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Same name returns the same underlying atomic.
        assert_eq!(counter("test_metrics_counter_total").get(), 5);

        let g = gauge("test_metrics_gauge");
        g.set(-3);
        g.add(10);
        assert_eq!(g.get(), 7);
    }

    #[test]
    fn kind_clash_returns_detached() {
        let c = counter("test_metrics_clash");
        c.add(2);
        let g = gauge("test_metrics_clash");
        g.set(99);
        // The registered counter is unaffected; snapshot still sees it.
        assert_eq!(snapshot().counter("test_metrics_clash"), Some(2));
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 0);
        assert_eq!(Histogram::bucket_index(2), 1);
        assert_eq!(Histogram::bucket_index(3), 1);
        assert_eq!(Histogram::bucket_index(1024), 10);
        assert_eq!(Histogram::bucket_index(u64::MAX), 63);

        let h = Histogram::default();
        for v in [1u64, 2, 3, 1000, 1500, 100_000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 6);
        assert_eq!(s.sum, 1 + 2 + 3 + 1000 + 1500 + 100_000);
        assert_eq!(s.buckets[0], 1); // 1
        assert_eq!(s.buckets[1], 2); // 2, 3
        assert_eq!(s.buckets[9], 1); // 1000 in [512, 1024)
        assert_eq!(s.buckets[10], 1); // 1500 in [1024, 2048)
        assert_eq!(s.buckets[16], 1); // 100_000 in [65536, 131072)

        // Median of 6 values -> rank 3 -> bucket idx 1 -> upper bound 4.
        assert_eq!(s.quantile_upper_bound(0.5), 4);
        // Max quantile lands in the 100_000 bucket.
        assert_eq!(s.quantile_upper_bound(1.0), 1 << 17);
        assert!((s.mean() - (102_506.0 / 6.0)).abs() < 1e-9);
    }

    #[test]
    fn histogram_bucket9_regression() {
        // 1000: highest set bit is 9 (512), 1500: bit 10 is 1024 <= 1500.
        assert_eq!(Histogram::bucket_index(1000), 9);
        assert_eq!(Histogram::bucket_index(1500), 10);
    }

    #[test]
    fn snapshot_merge_and_delta() {
        let mut a = MetricsSnapshot::default();
        a.counters.push(("x_total".into(), 5));
        a.counters.push(("y_total".into(), 1));
        let mut h = HistogramSnapshot {
            count: 2,
            sum: 10,
            ..Default::default()
        };
        h.buckets[2] = 2;
        a.histograms.push(("lat_ns".into(), h));

        let mut b = MetricsSnapshot::default();
        b.counters.push(("x_total".into(), 3));
        b.counters.push(("z_total".into(), 7));

        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.counter("x_total"), Some(8));
        assert_eq!(merged.counter("y_total"), Some(1));
        assert_eq!(merged.counter("z_total"), Some(7));

        let d = merged.delta(&a);
        assert_eq!(d.counter("x_total"), Some(3));
        assert_eq!(d.counter("y_total"), Some(0));
        assert_eq!(d.counter("z_total"), Some(7));
        assert_eq!(d.histogram("lat_ns").unwrap().count, 0);
    }

    #[test]
    fn cached_handle_resolves_once() {
        static CELL: OnceLock<Arc<Counter>> = OnceLock::new();
        counter_cached(&CELL, "test_metrics_cached_total").inc();
        counter_cached(&CELL, "test_metrics_cached_total").inc();
        assert_eq!(snapshot().counter("test_metrics_cached_total"), Some(2));
    }
}
