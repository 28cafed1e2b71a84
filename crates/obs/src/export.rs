//! Exporters: Chrome trace-event JSON (`chrome://tracing` / Perfetto),
//! JSONL event log, and Prometheus-style metrics text — plus the schema
//! self-checks used by the integration test and the `obs-validate` CI
//! binary.

use std::collections::BTreeSet;
use std::io;
use std::path::{Path, PathBuf};

use crate::event::{drain_events, EventRecord};
use crate::json::{self, Json};
use crate::metrics::{HistogramSnapshot, MetricsSnapshot};
use crate::trace::TraceDump;

// ---------------------------------------------------------------------------
// Chrome trace-event JSON
// ---------------------------------------------------------------------------

/// Renders a [`TraceDump`] in the Chrome trace-event JSON object format:
/// `{"traceEvents": [...], "displayTimeUnit": "ms"}`. Spans become
/// `ph:"X"` complete events (timestamps in microseconds, as the format
/// requires); each thread gets a `ph:"M"` `thread_name` metadata event
/// so workers show up by name.
///
/// Spans that belong to a trace additionally carry
/// `trace_id`/`span_id`/`parent_span_id` in their `args`, and every
/// cross-thread parent→child span edge emits a flow-event pair
/// (`ph:"s"` at the parent, `ph:"f"` at the child, bound by a shared
/// `id`) so one job renders as a connected arc across scheduler and
/// worker tracks in `chrome://tracing`/Perfetto.
pub fn chrome_trace_json(dump: &TraceDump) -> String {
    let us = |ns: u64| Json::from(ns as f64 / 1000.0);
    let names = dump.threads.iter().map(|t| {
        Json::obj([
            ("name", "thread_name".into()),
            ("ph", "M".into()),
            ("pid", 1u64.into()),
            ("tid", t.tid.into()),
            ("args", Json::obj([("name", t.name.as_str().into())])),
        ])
    });
    let spans = || (dump.threads.iter()).flat_map(|t| t.spans.iter().map(move |s| (t.tid, s)));
    let slices = spans().map(|(tid, s)| {
        let ids = [
            ("trace_id", s.trace_id),
            ("span_id", s.span_id),
            ("parent_span_id", s.parent_span_id),
        ];
        let ids = ids.into_iter().filter(|_| s.span_id != 0);
        let args = ids.map(|(k, v)| (k, Json::from(v)));
        let args = args.chain(s.args().map(|(k, v)| (k, v.into())));
        Json::obj([
            ("name", s.name.into()),
            ("cat", if s.cat.is_empty() { "span" } else { s.cat }.into()),
            ("ph", "X".into()),
            ("pid", 1u64.into()),
            ("tid", tid.into()),
            ("ts", us(s.start_ns)),
            ("dur", us(s.dur_ns)),
            ("args", Json::map(args)),
        ])
    });
    // Flow events: one s/f pair per parent→child edge that crosses
    // threads, so causal hops (dispatch → worker.job, worker → merge
    // gather) draw as arrows. Same-thread edges are already visible as
    // slice nesting and are skipped.
    let by_id: std::collections::HashMap<u64, (u64, u64, u64)> = spans()
        .filter(|(_, s)| s.span_id != 0)
        .map(|(tid, s)| (s.span_id, (tid, s.start_ns, s.dur_ns)))
        .collect();
    let flows = spans().filter_map(|(tid, s)| {
        let parent = by_id.get(&s.parent_span_id).filter(|_| s.span_id != 0);
        let &(ptid, pstart, pdur) = parent?;
        if ptid == tid {
            return None;
        }
        // The flow start must lie inside the parent slice for the
        // viewer to attach it; clamp the child's start into it.
        let ts = s.start_ns.clamp(pstart, pstart + pdur);
        let flow = |ph: &str, tid: u64, ts: u64| {
            let mut e: Vec<(&str, Json)> = vec![("name", "causal".into()), ("cat", "flow".into())];
            e.push(("ph", ph.into()));
            if ph == "f" {
                e.push(("bp", "e".into()));
            }
            e.extend([("pid", 1u64.into()), ("tid", tid.into()), ("ts", us(ts))]);
            e.push(("id", s.span_id.into()));
            Json::map(e)
        };
        Some([flow("s", ptid, ts), flow("f", tid, s.start_ns)])
    });
    json::object_with_lines(
        &[("displayTimeUnit", "ms".into())],
        "traceEvents",
        names.chain(slices).chain(flows.flatten()),
    )
}

// ---------------------------------------------------------------------------
// JSONL event log
// ---------------------------------------------------------------------------

/// One JSON object per line:
/// `{"ts_ns":..,"trace_id":..,"level":"info","target":"..","msg":"..","fields":{..}}`.
pub fn events_jsonl(events: &[EventRecord]) -> String {
    let mut out = String::with_capacity(events.len() * 128);
    for e in events {
        Json::obj([
            ("ts_ns", e.ts_ns.into()),
            ("trace_id", e.trace_id.into()),
            ("level", e.level.as_str().into()),
            ("target", e.target.as_str().into()),
            ("msg", e.message.as_str().into()),
            (
                "fields",
                Json::map(e.fields.iter().map(|(k, v)| (k, Json::from(v)))),
            ),
        ])
        .append(&mut out);
        out.push('\n');
    }
    out
}

// ---------------------------------------------------------------------------
// Prometheus text format
// ---------------------------------------------------------------------------

/// Rewrites `name` into a valid Prometheus metric name:
/// `[a-zA-Z_:][a-zA-Z0-9_:]*`, every other byte becomes `_`.
pub fn sanitize_metric_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len().max(1));
    for (i, c) in name.chars().enumerate() {
        let ok = c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit());
        out.push(if ok { c } else { '_' });
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// Escapes `# HELP` text: `\` and line feeds per the exposition format.
fn escape_help(text: &str) -> String {
    text.replace('\\', "\\\\").replace('\n', "\\n")
}

/// Escapes a label value: `\`, `"` and line feeds.
fn escape_label_value(text: &str) -> String {
    text.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn prometheus_header(out: &mut String, name: &str, kind: &str) {
    let help = crate::metrics::metric_help(name)
        .map(escape_help)
        .unwrap_or_else(|| format!("viracocha metric {name} (unregistered)"));
    out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} {kind}\n"));
}

fn prometheus_histogram(out: &mut String, name: &str, h: &HistogramSnapshot) {
    prometheus_header(out, name, "histogram");
    let mut cum = 0u64;
    for (i, &b) in h.buckets.iter().enumerate() {
        if b == 0 {
            continue;
        }
        cum += b;
        let le = if i >= 63 {
            u64::MAX
        } else {
            (1u64 << (i + 1)) - 1
        };
        let le = escape_label_value(&le.to_string());
        out.push_str(&format!("{name}_bucket{{le=\"{le}\"}} {cum}\n"));
    }
    out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {}\n", h.count));
    out.push_str(&format!("{name}_sum {}\n", h.sum));
    out.push_str(&format!("{name}_count {}\n", h.count));
}

/// Prometheus exposition-format text dump of a metrics snapshot. Every
/// family gets `# HELP` (from the metric registry) and `# TYPE` lines;
/// names are sanitized and help/label text escaped per the format.
pub fn prometheus_text(snap: &MetricsSnapshot) -> String {
    let mut out = String::new();
    for (name, v) in &snap.counters {
        let name = sanitize_metric_name(name);
        prometheus_header(&mut out, &name, "counter");
        out.push_str(&format!("{name} {v}\n"));
    }
    for (name, v) in &snap.gauges {
        let name = sanitize_metric_name(name);
        prometheus_header(&mut out, &name, "gauge");
        out.push_str(&format!("{name} {v}\n"));
    }
    for (name, h) in &snap.histograms {
        prometheus_histogram(&mut out, &sanitize_metric_name(name), h);
    }
    out
}

/// JSON rendering of a metrics snapshot (used by the bench harness to
/// stash per-experiment metric deltas next to result tables).
pub fn metrics_json(snap: &MetricsSnapshot) -> String {
    let histograms = snap.histograms.iter().map(|(name, h)| {
        let row = Json::obj([
            ("count", h.count.into()),
            ("sum", h.sum.into()),
            ("p50_ub", h.quantile_upper_bound(0.5).into()),
            ("p99_ub", h.quantile_upper_bound(0.99).into()),
        ]);
        (name, row)
    });
    Json::obj([
        (
            "counters",
            Json::map(snap.counters.iter().map(|(n, v)| (n, *v))),
        ),
        (
            "gauges",
            Json::map(snap.gauges.iter().map(|(n, v)| (n, *v))),
        ),
        ("histograms", Json::map(histograms)),
    ])
    .to_string()
}

// ---------------------------------------------------------------------------
// Schema self-checks
// ---------------------------------------------------------------------------

const LEVELS: [&str; 4] = ["debug", "info", "warn", "error"];

/// Validates JSONL event-log text: every non-empty line must be a JSON
/// object with `ts_ns` (non-negative integer), `level` (known level),
/// `target`/`msg` (strings), and `fields` (object). Returns the number
/// of validated lines.
pub fn validate_events_jsonl(text: &str) -> Result<usize, String> {
    let mut n = 0;
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v = json::parse(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        let obj_err = |what: &str| format!("line {}: {what}", lineno + 1);
        v.get("ts_ns")
            .and_then(Json::as_u64)
            .ok_or_else(|| obj_err("missing/invalid ts_ns"))?;
        let level = v
            .get("level")
            .and_then(Json::as_str)
            .ok_or_else(|| obj_err("missing level"))?;
        if !LEVELS.contains(&level) {
            return Err(obj_err(&format!("unknown level '{level}'")));
        }
        v.get("target")
            .and_then(Json::as_str)
            .ok_or_else(|| obj_err("missing target"))?;
        v.get("msg")
            .and_then(Json::as_str)
            .ok_or_else(|| obj_err("missing msg"))?;
        v.get("fields")
            .and_then(Json::as_obj)
            .ok_or_else(|| obj_err("missing fields object"))?;
        n += 1;
    }
    Ok(n)
}

/// Family names found in one parsed `metrics.json`, plus the exported
/// span-drop count.
pub fn scan_metrics_json(j: &Json) -> Result<(BTreeSet<String>, u64), String> {
    let mut seen = BTreeSet::new();
    for section in ["counters", "gauges", "histograms"] {
        let obj = j
            .get(section)
            .and_then(|v| v.as_obj())
            .ok_or_else(|| format!("missing '{section}' object"))?;
        for (name, _) in obj {
            seen.insert(name.clone());
        }
    }
    let drops = j
        .get("counters")
        .and_then(|c| c.get("obs_spans_dropped_total"))
        .and_then(|v| v.as_u64())
        .unwrap_or(0);
    Ok((seen, drops))
}

/// Validates Chrome trace-event JSON: top level must be an object with
/// a `traceEvents` array; every event needs `name`/`ph` strings and
/// `pid`/`tid` numbers; `ph:"X"` events additionally need numeric
/// `ts`/`dur`. Returns the number of `X` (span) events.
pub fn validate_chrome_trace(text: &str) -> Result<usize, String> {
    let v = json::parse(text)?;
    let events = v
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("missing traceEvents array")?;
    let mut spans = 0;
    for (i, e) in events.iter().enumerate() {
        let err = |what: &str| format!("event {i}: {what}");
        e.get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| err("missing name"))?;
        let ph = e
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| err("missing ph"))?;
        e.get("pid")
            .and_then(Json::as_f64)
            .ok_or_else(|| err("missing pid"))?;
        e.get("tid")
            .and_then(Json::as_f64)
            .ok_or_else(|| err("missing tid"))?;
        if ph == "X" {
            e.get("ts")
                .and_then(Json::as_f64)
                .ok_or_else(|| err("X event missing ts"))?;
            e.get("dur")
                .and_then(Json::as_f64)
                .ok_or_else(|| err("X event missing dur"))?;
            spans += 1;
        }
        if ph == "s" || ph == "f" {
            e.get("ts")
                .and_then(Json::as_f64)
                .ok_or_else(|| err("flow event missing ts"))?;
            e.get("id")
                .and_then(Json::as_u64)
                .ok_or_else(|| err("flow event missing id"))?;
        }
    }
    Ok(spans)
}

/// Counts the flow-event pairs in Chrome trace-event JSON and checks
/// their shape: every `ph:"s"` must have a matching `ph:"f"` with the
/// same `id` (and vice versa). Returns the number of complete arcs.
pub fn validate_chrome_trace_flows(text: &str) -> Result<usize, String> {
    let v = json::parse(text)?;
    let events = v
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("missing traceEvents array")?;
    let mut starts = std::collections::HashSet::new();
    let mut finishes = std::collections::HashSet::new();
    for (i, e) in events.iter().enumerate() {
        let ph = e.get("ph").and_then(Json::as_str).unwrap_or("");
        if ph != "s" && ph != "f" {
            continue;
        }
        let id = e
            .get("id")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("flow event {i}: missing id"))?;
        if ph == "s" {
            starts.insert(id);
        } else {
            finishes.insert(id);
        }
    }
    if let Some(id) = starts.symmetric_difference(&finishes).next() {
        return Err(format!("flow id {id} lacks its s/f counterpart"));
    }
    Ok(starts.len())
}

/// Validates Prometheus exposition text: every sample line's family
/// (label block and `_bucket`/`_sum`/`_count` histogram suffixes
/// stripped) must be introduced by `# HELP` and `# TYPE` lines, and
/// every name must match `[a-zA-Z_:][a-zA-Z0-9_:]*`. Returns the number
/// of sample lines.
pub fn validate_prometheus_text(text: &str) -> Result<usize, String> {
    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.chars().enumerate().all(|(i, c)| {
                c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit())
            })
    }
    let mut helped = std::collections::HashSet::new();
    let mut typed = std::collections::HashSet::new();
    let mut samples = 0;
    for (lineno, line) in text.lines().enumerate() {
        let err = |what: &str| format!("line {}: {what}", lineno + 1);
        if line.trim().is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let name = rest.split_whitespace().next().unwrap_or("");
            if !valid_name(name) {
                return Err(err(&format!("bad HELP name '{name}'")));
            }
            helped.insert(name.to_owned());
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split_whitespace();
            let name = it.next().unwrap_or("");
            let kind = it.next().unwrap_or("");
            if !valid_name(name) {
                return Err(err(&format!("bad TYPE name '{name}'")));
            }
            if !["counter", "gauge", "histogram", "summary", "untyped"].contains(&kind) {
                return Err(err(&format!("unknown TYPE kind '{kind}'")));
            }
            typed.insert(name.to_owned());
            continue;
        }
        if line.starts_with('#') {
            continue; // free-form comment
        }
        let name_part = line.split(['{', ' ']).next().unwrap_or("");
        if !valid_name(name_part) {
            return Err(err(&format!("bad metric name '{name_part}'")));
        }
        let family = name_part
            .strip_suffix("_bucket")
            .or_else(|| name_part.strip_suffix("_sum"))
            .or_else(|| name_part.strip_suffix("_count"))
            .filter(|f| typed.contains(*f))
            .unwrap_or(name_part);
        if !typed.contains(family) {
            return Err(err(&format!("sample '{name_part}' has no # TYPE line")));
        }
        if !helped.contains(family) {
            return Err(err(&format!("sample '{name_part}' has no # HELP line")));
        }
        samples += 1;
    }
    Ok(samples)
}

/// Checks that every metric family in a snapshot is listed in
/// [`crate::metrics::METRIC_REGISTRY`]; returns the offending names.
pub fn unregistered_metric_names(snap: &MetricsSnapshot) -> Vec<String> {
    let mut bad = Vec::new();
    for name in snap
        .counters
        .iter()
        .map(|(n, _)| n)
        .chain(snap.gauges.iter().map(|(n, _)| n))
        .chain(snap.histograms.iter().map(|(n, _)| n))
    {
        if !crate::metrics::is_registered(name) {
            bad.push(name.clone());
        }
    }
    bad
}

// ---------------------------------------------------------------------------
// One-call export
// ---------------------------------------------------------------------------

/// What [`export_all`] wrote and how much it saw.
#[derive(Debug)]
pub struct ExportSummary {
    pub trace_path: PathBuf,
    pub events_path: PathBuf,
    pub metrics_path: PathBuf,
    pub spans: usize,
    pub events: usize,
    pub dropped_spans: u64,
    pub dropped_events: u64,
    /// Per-trace flight-recorder files written (`flight-<id>.jsonl`).
    pub flights: usize,
}

/// Writes the three artifacts for a drained trace + event batch and a
/// metrics snapshot into `dir` (created if needed):
/// `trace.json`, `events.jsonl`, `metrics.prom` (+ `metrics.json`).
/// Each artifact is run through its schema self-check before being
/// written; a failure aborts with `InvalidData` (it would mean a bug in
/// the writers).
pub fn write_artifacts(
    dir: &Path,
    dump: &TraceDump,
    events: &[EventRecord],
    dropped_events: u64,
    snap: &MetricsSnapshot,
) -> io::Result<ExportSummary> {
    std::fs::create_dir_all(dir)?;
    let trace = chrome_trace_json(dump);
    let spans = validate_chrome_trace(&trace).map_err(|e| {
        io::Error::new(io::ErrorKind::InvalidData, format!("trace self-check: {e}"))
    })?;
    validate_chrome_trace_flows(&trace)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("flow self-check: {e}")))?;
    let jsonl = events_jsonl(events);
    let n_events = validate_events_jsonl(&jsonl).map_err(|e| {
        io::Error::new(io::ErrorKind::InvalidData, format!("jsonl self-check: {e}"))
    })?;
    let prom = prometheus_text(snap);
    validate_prometheus_text(&prom)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("prom self-check: {e}")))?;

    let trace_path = dir.join("trace.json");
    let events_path = dir.join("events.jsonl");
    let metrics_path = dir.join("metrics.prom");
    std::fs::write(&trace_path, trace)?;
    std::fs::write(&events_path, jsonl)?;
    std::fs::write(&metrics_path, prom)?;
    std::fs::write(dir.join("metrics.json"), metrics_json(snap))?;
    let flights = crate::flight::write_flight_files(dir, dump, events)?;

    Ok(ExportSummary {
        trace_path,
        events_path,
        metrics_path,
        spans,
        events: n_events,
        dropped_spans: dump.dropped(),
        dropped_events,
        flights: flights.len(),
    })
}

/// Drains the global tracer and event log, snapshots the global metrics
/// registry, and writes everything into `dir`.
pub fn export_all(dir: &Path) -> io::Result<ExportSummary> {
    let dump = crate::trace::drain();
    let (events, dropped_events) = drain_events();
    let snap = crate::metrics::snapshot();
    write_artifacts(dir, &dump, &events, dropped_events, &snap)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Field, Level};
    use crate::trace::{ArgValue, SpanRecord, ThreadDump};

    fn sample_dump() -> TraceDump {
        let mut rec = SpanRecord {
            name: "extract.block",
            cat: "extract",
            start_ns: 1_500,
            dur_ns: 2_000,
            depth: 1,
            ..SpanRecord::default()
        };
        rec.args[0] = ("block", ArgValue::U64(3));
        rec.args[1] = ("note", ArgValue::Str("a\"b"));
        rec.n_args = 2;
        TraceDump {
            threads: vec![ThreadDump {
                tid: 7,
                name: "vira-worker-0".into(),
                spans: vec![rec],
                dropped: 0,
            }],
        }
    }

    #[test]
    fn chrome_trace_is_valid_and_carries_thread_names() {
        let text = chrome_trace_json(&sample_dump());
        assert_eq!(validate_chrome_trace(&text).unwrap(), 1);
        let v = json::parse(&text).unwrap();
        let events = v.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 2, "metadata + span");
        let meta = &events[0];
        assert_eq!(meta.get("ph").unwrap().as_str(), Some("M"));
        assert_eq!(
            meta.get("args").unwrap().get("name").unwrap().as_str(),
            Some("vira-worker-0")
        );
        let span = &events[1];
        assert_eq!(span.get("ph").unwrap().as_str(), Some("X"));
        assert_eq!(span.get("ts").unwrap().as_f64(), Some(1.5));
        assert_eq!(span.get("dur").unwrap().as_f64(), Some(2.0));
        assert_eq!(
            span.get("args").unwrap().get("block").unwrap().as_u64(),
            Some(3)
        );
        assert_eq!(
            span.get("args").unwrap().get("note").unwrap().as_str(),
            Some("a\"b")
        );
    }

    #[test]
    fn empty_dump_is_still_valid() {
        let text = chrome_trace_json(&TraceDump { threads: vec![] });
        assert_eq!(validate_chrome_trace(&text).unwrap(), 0);
    }

    #[test]
    fn jsonl_roundtrip_and_validation() {
        let events = vec![
            EventRecord {
                ts_ns: 12,
                level: Level::Info,
                target: "bench".into(),
                message: "run \"E11\" done".into(),
                trace_id: 9,
                fields: vec![
                    ("runs".into(), Field::U64(3)),
                    ("mean_s".into(), Field::F64(0.25)),
                    ("warm".into(), Field::Bool(true)),
                ],
            },
            EventRecord {
                ts_ns: 40,
                level: Level::Error,
                target: "vira".into(),
                message: "bad\nline".into(),
                trace_id: 0,
                fields: vec![],
            },
        ];
        let text = events_jsonl(&events);
        assert_eq!(text.lines().count(), 2, "newline in message is escaped");
        assert_eq!(validate_events_jsonl(&text).unwrap(), 2);
        let first = json::parse(text.lines().next().unwrap()).unwrap();
        assert_eq!(first.get("msg").unwrap().as_str(), Some("run \"E11\" done"));
        assert_eq!(first.get("trace_id").unwrap().as_u64(), Some(9));
        assert_eq!(
            first.get("fields").unwrap().get("mean_s").unwrap().as_f64(),
            Some(0.25)
        );
    }

    #[test]
    fn validators_reject_malformed_input() {
        assert!(validate_events_jsonl("{\"nope\":1}").is_err());
        assert!(validate_events_jsonl("not json").is_err());
        // Unknown level.
        assert!(validate_events_jsonl(
            "{\"ts_ns\":1,\"level\":\"loud\",\"target\":\"t\",\"msg\":\"m\",\"fields\":{}}"
        )
        .is_err());
        // Good line still counts around blank lines.
        assert_eq!(
            validate_events_jsonl(
                "\n{\"ts_ns\":1,\"level\":\"info\",\"target\":\"t\",\"msg\":\"m\",\"fields\":{}}\n\n"
            )
            .unwrap(),
            1
        );

        assert!(validate_chrome_trace("[]").is_err(), "must be an object");
        assert!(validate_chrome_trace("{\"traceEvents\":[{\"ph\":\"X\"}]}").is_err());
    }

    #[test]
    fn prometheus_text_shapes() {
        let mut snap = MetricsSnapshot::default();
        snap.counters.push(("dms_l1_hits_total".into(), 42));
        snap.gauges.push(("sched_queue_depth".into(), -1));
        let mut h = HistogramSnapshot {
            count: 3,
            sum: 1030,
            ..Default::default()
        };
        h.buckets[1] = 2; // values 2,3
        h.buckets[9] = 1; // value ~1000
        snap.histograms.push(("sched_queue_wait_ns".into(), h));
        let text = prometheus_text(&snap);
        assert!(text.contains("# TYPE dms_l1_hits_total counter\ndms_l1_hits_total 42\n"));
        assert!(text.contains("# TYPE sched_queue_depth gauge\nsched_queue_depth -1\n"));
        assert!(text.contains("sched_queue_wait_ns_bucket{le=\"3\"} 2\n"));
        assert!(text.contains("sched_queue_wait_ns_bucket{le=\"1023\"} 3\n"));
        assert!(text.contains("sched_queue_wait_ns_bucket{le=\"+Inf\"} 3\n"));
        assert!(text.contains("sched_queue_wait_ns_sum 1030\n"));
        assert!(text.contains("sched_queue_wait_ns_count 3\n"));
    }

    #[test]
    fn chrome_trace_flow_events_bind_cross_thread_edges() {
        // sched.dispatch on tid 1 → worker.job on tid 2 (cross-thread
        // edge, must flow) with a nested dms.request on tid 2
        // (same-thread edge, must not flow).
        let dispatch = SpanRecord {
            name: "sched.dispatch",
            cat: "sched",
            start_ns: 1_000,
            dur_ns: 500,
            trace_id: 77,
            span_id: 10,
            parent_span_id: 1,
            ..SpanRecord::default()
        };
        let job = SpanRecord {
            name: "worker.job",
            cat: "worker",
            start_ns: 2_000,
            dur_ns: 5_000,
            trace_id: 77,
            span_id: 11,
            parent_span_id: 10,
            ..SpanRecord::default()
        };
        let load = SpanRecord {
            name: "dms.request",
            cat: "dms",
            start_ns: 2_500,
            dur_ns: 1_000,
            depth: 1,
            trace_id: 77,
            span_id: 12,
            parent_span_id: 11,
            ..SpanRecord::default()
        };
        let dump = TraceDump {
            threads: vec![
                ThreadDump {
                    tid: 1,
                    name: "vira-scheduler".into(),
                    spans: vec![dispatch],
                    dropped: 0,
                },
                ThreadDump {
                    tid: 2,
                    name: "vira-worker-1".into(),
                    spans: vec![job, load],
                    dropped: 0,
                },
            ],
        };
        let text = chrome_trace_json(&dump);
        assert_eq!(validate_chrome_trace(&text).unwrap(), 3);
        assert_eq!(
            validate_chrome_trace_flows(&text).unwrap(),
            1,
            "exactly the dispatch→job edge flows"
        );
        let v = json::parse(&text).unwrap();
        let events = v.get("traceEvents").unwrap().as_arr().unwrap();
        let flows: Vec<_> = events
            .iter()
            .filter(|e| matches!(e.get("ph").and_then(Json::as_str), Some("s") | Some("f")))
            .collect();
        assert_eq!(flows.len(), 2);
        for f in &flows {
            assert_eq!(f.get("id").unwrap().as_u64(), Some(11));
        }
        let s = flows
            .iter()
            .find(|e| e.get("ph").unwrap().as_str() == Some("s"))
            .unwrap();
        assert_eq!(s.get("tid").unwrap().as_u64(), Some(1));
        // Flow start clamped inside the dispatch slice: [1.0, 1.5] µs.
        let ts = s.get("ts").unwrap().as_f64().unwrap();
        assert!((1.0..=1.5).contains(&ts), "ts {ts} outside parent slice");
        // Trace ids ride along in span args.
        let job_ev = events
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("worker.job"))
            .unwrap();
        let args = job_ev.get("args").unwrap();
        assert_eq!(args.get("trace_id").unwrap().as_u64(), Some(77));
        assert_eq!(args.get("span_id").unwrap().as_u64(), Some(11));
        assert_eq!(args.get("parent_span_id").unwrap().as_u64(), Some(10));
    }

    #[test]
    fn prometheus_validator_and_escaping() {
        let mut snap = MetricsSnapshot::default();
        snap.counters.push(("dms_l1_hits_total".into(), 42));
        snap.counters.push(("weird name-with.dots".into(), 1));
        let text = prometheus_text(&snap);
        assert_eq!(validate_prometheus_text(&text).unwrap(), 2);
        assert!(text.contains("# HELP dms_l1_hits_total "));
        assert!(text.contains("weird_name_with_dots 1\n"), "name sanitized");
        // Samples without HELP/TYPE must be rejected.
        assert!(validate_prometheus_text("lonely_total 3\n").is_err());
        assert!(validate_prometheus_text("# TYPE lonely_total counter\nlonely_total 3\n").is_err());
        assert!(validate_prometheus_text(
            "# HELP lonely_total h\n# TYPE lonely_total counter\nlonely_total 3\n"
        )
        .is_ok());
        // Histogram suffixes resolve to their family's HELP/TYPE.
        let mut hsnap = MetricsSnapshot::default();
        let mut h = HistogramSnapshot {
            count: 1,
            sum: 2,
            ..Default::default()
        };
        h.buckets[1] = 1;
        hsnap.histograms.push(("sched_queue_wait_ns".into(), h));
        assert!(validate_prometheus_text(&prometheus_text(&hsnap)).is_ok());
        assert_eq!(escape_help("a\\b\nc"), "a\\\\b\\nc");
        assert_eq!(sanitize_metric_name("9lives"), "_lives");
    }

    #[test]
    fn registry_subset_check_flags_unknown_names() {
        let mut snap = MetricsSnapshot::default();
        snap.counters.push(("dms_l1_hits_total".into(), 1));
        snap.counters.push(("sched_requeue_total".into(), 1)); // typo'd
        snap.gauges.push(("test_metrics_gauge".into(), 0));
        let bad = unregistered_metric_names(&snap);
        assert_eq!(
            bad,
            vec![
                "sched_requeue_total".to_string(),
                "test_metrics_gauge".to_string()
            ]
        );
        assert!(crate::metrics::is_registered("sched_requeues_total"));
        assert!(crate::metrics::metric_help("vista_packets_total").is_some());
    }

    #[test]
    fn metrics_json_parses() {
        let mut snap = MetricsSnapshot::default();
        snap.counters.push(("a_total".into(), 1));
        let mut h = HistogramSnapshot {
            count: 1,
            sum: 5,
            ..Default::default()
        };
        h.buckets[2] = 1;
        snap.histograms.push(("lat_ns".into(), h));
        let v = json::parse(&metrics_json(&snap)).unwrap();
        assert_eq!(
            v.get("counters").unwrap().get("a_total").unwrap().as_u64(),
            Some(1)
        );
        assert_eq!(
            v.get("histograms")
                .unwrap()
                .get("lat_ns")
                .unwrap()
                .get("p99_ub")
                .unwrap()
                .as_u64(),
            Some(8)
        );
    }

    #[test]
    fn write_artifacts_writes_all_files() {
        let dir = std::env::temp_dir().join(format!("vira-obs-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let summary = write_artifacts(
            &dir,
            &sample_dump(),
            &[EventRecord {
                ts_ns: 1,
                level: Level::Info,
                target: "t".into(),
                message: "m".into(),
                trace_id: 0,
                fields: vec![],
            }],
            0,
            &MetricsSnapshot::default(),
        )
        .unwrap();
        assert_eq!(summary.spans, 1);
        assert_eq!(summary.events, 1);
        for p in [
            &summary.trace_path,
            &summary.events_path,
            &summary.metrics_path,
        ] {
            assert!(p.exists(), "{p:?} missing");
        }
        assert!(dir.join("metrics.json").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
