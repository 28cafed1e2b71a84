//! `vira-obs` — dependency-free observability substrate for Viracocha.
//!
//! Three pillars, all usable from any thread with no setup:
//!
//! 1. **Spans** ([`trace`]): `let _s = obs::span("sched.dispatch",
//!    "sched").arg("job", id);` — RAII timing into per-thread lock-free
//!    ring buffers. Off by default (one relaxed atomic load per span);
//!    enable with [`set_enabled`]`(true)`. The `off` cargo feature
//!    compiles the recording path out entirely.
//! 2. **Metrics** ([`metrics`]): named counters / gauges / log2-bucket
//!    latency histograms in a global registry. Always on (a metric
//!    update is a relaxed atomic RMW); hot paths cache handles with
//!    [`counter_cached`].
//! 3. **Events** ([`event`]): structured leveled log records replacing
//!    `eprintln!` diagnostics, echoed to stderr by default.
//!
//! [`export::export_all`]`(dir)` drains everything and writes
//! `trace.json` (Chrome trace-event JSON for `chrome://tracing` or
//! <https://ui.perfetto.dev>), `events.jsonl`, `metrics.prom`, and
//! `metrics.json` — each validated against its own schema self-check
//! before it hits disk.
//!
//! The crate intentionally has **zero dependencies** (std only) so it
//! sits below every other workspace crate and builds in offline
//! containers. See DESIGN.md "Observability layer" for the span
//! taxonomy and metric naming convention.

pub mod analyze;
pub mod event;
pub mod export;
pub mod flight;
pub mod json;
pub mod metrics;
pub mod ring;
pub mod ship;
pub mod slo;
pub mod trace;
pub mod tsdb;

pub use analyze::{analyze_dir, analyze_spans, render_table, JobAttribution};
pub use event::{
    debug, drain_events, error, event, info, set_stderr_echo, warn, EventRecord, Field, Level,
};
pub use export::{
    export_all, sanitize_metric_name, unregistered_metric_names, validate_chrome_trace_flows,
    validate_prometheus_text, ExportSummary,
};
pub use flight::{
    clock_offsets, flight_jsonl, parse_flight_spans, record_clock_offset, reset_clock_offsets,
    write_flight_files, FlightSpan,
};
pub use metrics::{
    counter, counter_cached, gauge, gauge_cached, histogram, histogram_cached, is_registered,
    metric_help, snapshot, Counter, Gauge, Histogram, HistogramSnapshot, MetricsSnapshot,
    METRIC_REGISTRY,
};
pub use ship::{take_delta, MetricsDelta, SparseHist};
pub use slo::{default_specs, render_telemetry_json, RankMeta, SloEngine, SloSpec, SloStatus};
pub use trace::{
    complete_span, complete_span_ctx, current_ctx, drain, enabled, epoch, install_ctx, instant_ns,
    intern, next_span_id, now_ns, set_enabled, span, ArgValue, CtxGuard, SpanGuard, SpanRecord,
    TraceCtx, TraceDump,
};
pub use tsdb::Tsdb;
