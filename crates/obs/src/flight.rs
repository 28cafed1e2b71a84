//! Per-job flight recorder: assembles every rank's spans and events
//! for one trace into a single time-ordered JSONL artifact, applying
//! per-rank clock offsets.
//!
//! Clock alignment: in this reproduction all ranks are threads of one
//! process sharing one trace epoch, so true offsets are zero. The
//! machinery still exists because a multi-process deployment would need
//! it: the scheduler's nonce'd PING/PONG liveness probe doubles as a
//! clock probe (the PONG carries the worker's epoch timestamp), and
//! [`record_clock_offset`] keeps the minimum-RTT offset sample per rank
//! — the classic NTP-style estimate `offset = t_remote - (t_send +
//! rtt/2)`, best when the round trip was fastest. Offsets are applied
//! by worker rank, parsed from the `vira-worker-<rank>` thread name.

use std::collections::{BTreeMap, HashMap};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, OnceLock};

use crate::event::EventRecord;
use crate::json::{self, Json};
use crate::trace::TraceDump;

// ---------------------------------------------------------------------------
// Clock-offset estimation
// ---------------------------------------------------------------------------

/// One rank's clock-offset estimate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OffsetSample {
    /// Remote-minus-local epoch offset, nanoseconds.
    pub offset_ns: i64,
    /// Round-trip time of the probe that produced it.
    pub rtt_ns: u64,
}

static OFFSETS: OnceLock<Mutex<HashMap<u64, OffsetSample>>> = OnceLock::new();

fn offsets() -> &'static Mutex<HashMap<u64, OffsetSample>> {
    OFFSETS.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Records a clock-offset sample for `rank`. Minimum RTT wins: a
/// sample only replaces the stored one if its round trip was tighter
/// (a faster probe bounds the offset error more closely).
pub fn record_clock_offset(rank: u64, offset_ns: i64, rtt_ns: u64) {
    let mut map = offsets().lock().unwrap();
    match map.get(&rank) {
        Some(prev) if prev.rtt_ns <= rtt_ns => {}
        _ => {
            map.insert(rank, OffsetSample { offset_ns, rtt_ns });
        }
    }
}

/// All recorded offset samples, sorted by rank.
pub fn clock_offsets() -> Vec<(u64, OffsetSample)> {
    let map = offsets().lock().unwrap();
    let mut out: Vec<_> = map.iter().map(|(&r, &s)| (r, s)).collect();
    out.sort_by_key(|(r, _)| *r);
    out
}

/// Clears all samples (tests).
pub fn reset_clock_offsets() {
    offsets().lock().unwrap().clear();
}

/// The offset to apply to timestamps from the thread named `name`:
/// worker threads (`vira-worker-<rank>`) use their rank's sample,
/// everything else (scheduler, client, main) is the local clock.
pub fn offset_for_thread(name: &str) -> i64 {
    let Some(rank) = name
        .strip_prefix("vira-worker-")
        .and_then(|r| r.parse::<u64>().ok())
    else {
        return 0;
    };
    offsets()
        .lock()
        .unwrap()
        .get(&rank)
        .map(|s| s.offset_ns)
        .unwrap_or(0)
}

fn apply_offset(ts_ns: u64, offset_ns: i64) -> u64 {
    // Remote timestamps are remote-epoch; subtracting the remote-minus-
    // local offset maps them onto the local epoch.
    if offset_ns >= 0 {
        ts_ns.saturating_sub(offset_ns as u64)
    } else {
        ts_ns.saturating_add(offset_ns.unsigned_abs())
    }
}

// ---------------------------------------------------------------------------
// Assembly
// ---------------------------------------------------------------------------

/// Renders one trace's flight record: every span and event with that
/// trace id across all threads, clock-aligned and sorted by start
/// time. One JSON object per line; spans are
/// `{"kind":"span","name":..,"ts_ns":..,"dur_ns":..,"span_id":..,
/// "parent_span_id":..,"tid":..,"thread":..,"args":{..}}`, events are
/// `{"kind":"event","level":..,"target":..,"msg":..,"ts_ns":..}`.
pub fn flight_jsonl(dump: &TraceDump, events: &[EventRecord], trace_id: u64) -> String {
    // (start_ns, line) so the artifact reads chronologically.
    let mut lines: Vec<(u64, String)> = Vec::new();
    for t in &dump.threads {
        let off = offset_for_thread(&t.name);
        for s in &t.spans {
            if s.trace_id != trace_id {
                continue;
            }
            let ts = apply_offset(s.start_ns, off);
            let line = Json::obj([
                ("kind", "span".into()),
                ("trace_id", trace_id.into()),
                ("name", s.name.into()),
                ("cat", s.cat.into()),
                ("ts_ns", ts.into()),
                ("dur_ns", s.dur_ns.into()),
                ("span_id", s.span_id.into()),
                ("parent_span_id", s.parent_span_id.into()),
                ("tid", t.tid.into()),
                ("thread", t.name.as_str().into()),
                ("args", Json::map(s.args().map(|(k, v)| (k, Json::from(v))))),
            ]);
            lines.push((ts, line.to_string()));
        }
    }
    for e in events {
        if e.trace_id != trace_id {
            continue;
        }
        let line = Json::obj([
            ("kind", "event".into()),
            ("trace_id", trace_id.into()),
            ("level", e.level.as_str().into()),
            ("target", e.target.as_str().into()),
            ("msg", e.message.as_str().into()),
            ("ts_ns", e.ts_ns.into()),
        ]);
        lines.push((e.ts_ns, line.to_string()));
    }
    lines.sort_by_key(|l| l.0);
    let mut out = String::with_capacity(lines.iter().map(|(_, l)| l.len() + 1).sum());
    for (_, l) in lines {
        out.push_str(&l);
        out.push('\n');
    }
    out
}

/// Distinct non-zero trace ids present in a dump, sorted.
pub fn trace_ids(dump: &TraceDump) -> Vec<u64> {
    let mut ids: Vec<u64> = dump
        .threads
        .iter()
        .flat_map(|t| t.spans.iter())
        .map(|s| s.trace_id)
        .filter(|&id| id != 0)
        .collect();
    ids.sort_unstable();
    ids.dedup();
    ids
}

/// Writes one `flight-<trace_id>.jsonl` per trace found in the dump.
/// Returns the (trace_id, path) pairs written.
pub fn write_flight_files(
    dir: &Path,
    dump: &TraceDump,
    events: &[EventRecord],
) -> io::Result<Vec<(u64, PathBuf)>> {
    std::fs::create_dir_all(dir)?;
    let mut out = Vec::new();
    for id in trace_ids(dump) {
        let text = flight_jsonl(dump, events, id);
        validate_flight_jsonl(&text).map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("flight self-check: {e}"),
            )
        })?;
        let path = dir.join(format!("flight-{id}.jsonl"));
        std::fs::write(&path, text)?;
        out.push((id, path));
    }
    Ok(out)
}

/// Validates flight-recorder JSONL: every line must be a JSON object
/// with `kind` ("span"/"event"), a `trace_id` (all lines must agree),
/// and `ts_ns`; spans additionally need `name`, `dur_ns` and `span_id`,
/// and timestamps must be non-decreasing. Returns the line count.
pub fn validate_flight_jsonl(text: &str) -> Result<usize, String> {
    let mut n = 0;
    let mut last_ts = 0u64;
    let mut trace = None;
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let err = |what: &str| format!("line {}: {what}", lineno + 1);
        let v = json::parse(line).map_err(|e| err(&e))?;
        let kind = v
            .get("kind")
            .and_then(Json::as_str)
            .ok_or_else(|| err("missing kind"))?;
        if kind != "span" && kind != "event" {
            return Err(err(&format!("unknown kind '{kind}'")));
        }
        let id = v
            .get("trace_id")
            .and_then(Json::as_u64)
            .ok_or_else(|| err("missing trace_id"))?;
        match trace {
            None => trace = Some(id),
            Some(t) if t != id => return Err(err("mixed trace ids in one flight file")),
            _ => {}
        }
        let ts = v
            .get("ts_ns")
            .and_then(Json::as_u64)
            .ok_or_else(|| err("missing ts_ns"))?;
        if ts < last_ts {
            return Err(err("timestamps not sorted"));
        }
        last_ts = ts;
        if kind == "span" {
            v.get("name")
                .and_then(Json::as_str)
                .ok_or_else(|| err("span missing name"))?;
            v.get("dur_ns")
                .and_then(Json::as_u64)
                .ok_or_else(|| err("span missing dur_ns"))?;
            v.get("span_id")
                .and_then(Json::as_u64)
                .ok_or_else(|| err("span missing span_id"))?;
        }
        n += 1;
    }
    Ok(n)
}

/// A parsed flight record, grouped back out of the JSONL — shared by
/// the analyzer and external tooling.
#[derive(Clone, Debug, Default)]
pub struct FlightSpan {
    pub trace_id: u64,
    pub name: String,
    pub cat: String,
    pub ts_ns: u64,
    pub dur_ns: u64,
    pub span_id: u64,
    pub parent_span_id: u64,
    pub tid: u64,
    pub thread: String,
    pub args: BTreeMap<String, Json>,
}

/// Parses the span lines of a flight-recorder JSONL file (event lines
/// are skipped).
pub fn parse_flight_spans(text: &str) -> Result<Vec<FlightSpan>, String> {
    validate_flight_jsonl(text)?;
    let mut out = Vec::new();
    for line in text.lines() {
        if line.trim().is_empty() {
            continue;
        }
        let v = json::parse(line)?;
        if v.get("kind").and_then(Json::as_str) != Some("span") {
            continue;
        }
        let s = |k: &str| v.get(k).and_then(Json::as_str).unwrap_or("").to_owned();
        let u = |k: &str| v.get(k).and_then(Json::as_u64).unwrap_or(0);
        let mut args = BTreeMap::new();
        if let Some(a) = v.get("args").and_then(Json::as_obj) {
            for (k, val) in a {
                args.insert(k.clone(), val.clone());
            }
        }
        out.push(FlightSpan {
            trace_id: u("trace_id"),
            name: s("name"),
            cat: s("cat"),
            ts_ns: u("ts_ns"),
            dur_ns: u("dur_ns"),
            span_id: u("span_id"),
            parent_span_id: u("parent_span_id"),
            tid: u("tid"),
            thread: s("thread"),
            args,
        })
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Level;
    use crate::trace::{SpanRecord, ThreadDump};

    // The offset table is global; serialize the tests that touch it.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn span_rec(name: &'static str, trace: u64, id: u64, parent: u64, start: u64) -> SpanRecord {
        SpanRecord {
            name,
            cat: "test",
            start_ns: start,
            dur_ns: 100,
            trace_id: trace,
            span_id: id,
            parent_span_id: parent,
            ..SpanRecord::default()
        }
    }

    fn two_trace_dump() -> TraceDump {
        TraceDump {
            threads: vec![
                ThreadDump {
                    tid: 1,
                    name: "vira-scheduler".into(),
                    spans: vec![span_rec("sched.dispatch", 5, 10, 1, 2_000)],
                    dropped: 0,
                },
                ThreadDump {
                    tid: 2,
                    name: "vira-worker-1".into(),
                    spans: vec![
                        span_rec("worker.job", 5, 11, 10, 3_000),
                        span_rec("worker.job", 6, 12, 0, 9_000),
                    ],
                    dropped: 0,
                },
            ],
        }
    }

    #[test]
    fn flight_assembles_one_trace_sorted() {
        let _g = TEST_LOCK.lock().unwrap();
        reset_clock_offsets();
        let dump = two_trace_dump();
        let events = vec![EventRecord {
            ts_ns: 2_500,
            level: Level::Info,
            target: "sched".into(),
            message: "dispatched".into(),
            trace_id: 5,
            fields: vec![],
        }];
        let text = flight_jsonl(&dump, &events, 5);
        assert_eq!(validate_flight_jsonl(&text).unwrap(), 3);
        let spans = parse_flight_spans(&text).unwrap();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "sched.dispatch");
        assert_eq!(spans[1].name, "worker.job");
        assert_eq!(spans[1].parent_span_id, 10);
        assert_eq!(spans[1].thread, "vira-worker-1");
        // The trace-6 span stayed out.
        assert!(spans.iter().all(|s| s.trace_id == 5));
        // The event landed between the two spans chronologically.
        let kinds: Vec<String> = text
            .lines()
            .map(|l| {
                json::parse(l)
                    .unwrap()
                    .get("kind")
                    .unwrap()
                    .as_str()
                    .unwrap()
                    .to_owned()
            })
            .collect();
        assert_eq!(kinds, vec!["span", "event", "span"]);
    }

    #[test]
    fn offsets_min_rtt_wins_and_apply_by_rank() {
        let _g = TEST_LOCK.lock().unwrap();
        reset_clock_offsets();
        record_clock_offset(1, 1_000, 500);
        record_clock_offset(1, 9_999, 800); // looser probe, ignored
        record_clock_offset(1, 2_000, 200); // tighter probe, wins
        assert_eq!(
            clock_offsets(),
            vec![(
                1,
                OffsetSample {
                    offset_ns: 2_000,
                    rtt_ns: 200
                }
            )]
        );
        assert_eq!(offset_for_thread("vira-worker-1"), 2_000);
        assert_eq!(offset_for_thread("vira-worker-2"), 0);
        assert_eq!(offset_for_thread("vira-scheduler"), 0);
        // Worker-1 timestamps shift back by the offset in the record.
        let dump = two_trace_dump();
        let text = flight_jsonl(&dump, &[], 5);
        let spans = parse_flight_spans(&text).unwrap();
        let job = spans.iter().find(|s| s.name == "worker.job").unwrap();
        assert_eq!(job.ts_ns, 1_000, "3000 - 2000 offset");
        let disp = spans.iter().find(|s| s.name == "sched.dispatch").unwrap();
        assert_eq!(disp.ts_ns, 2_000, "scheduler clock untouched");
        reset_clock_offsets();
    }

    #[test]
    fn write_flight_files_one_per_trace() {
        let _g = TEST_LOCK.lock().unwrap();
        reset_clock_offsets();
        let dir = std::env::temp_dir().join(format!("vira-flight-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let written = write_flight_files(&dir, &two_trace_dump(), &[]).unwrap();
        assert_eq!(written.len(), 2);
        assert_eq!(written[0].0, 5);
        assert_eq!(written[1].0, 6);
        for (_, p) in &written {
            assert!(p.exists());
            let text = std::fs::read_to_string(p).unwrap();
            assert!(validate_flight_jsonl(&text).unwrap() >= 1);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn flight_validator_rejects_malformed() {
        assert!(validate_flight_jsonl("not json").is_err());
        assert!(validate_flight_jsonl("{\"kind\":\"span\"}").is_err());
        // Mixed trace ids.
        let mixed = "{\"kind\":\"event\",\"trace_id\":1,\"ts_ns\":1,\"level\":\"info\",\"target\":\"t\",\"msg\":\"m\"}\n{\"kind\":\"event\",\"trace_id\":2,\"ts_ns\":2,\"level\":\"info\",\"target\":\"t\",\"msg\":\"m\"}\n";
        assert!(validate_flight_jsonl(mixed).is_err());
        // Unsorted timestamps.
        let unsorted = "{\"kind\":\"event\",\"trace_id\":1,\"ts_ns\":5,\"level\":\"info\",\"target\":\"t\",\"msg\":\"m\"}\n{\"kind\":\"event\",\"trace_id\":1,\"ts_ns\":2,\"level\":\"info\",\"target\":\"t\",\"msg\":\"m\"}\n";
        assert!(validate_flight_jsonl(unsorted).is_err());
    }
}
