//! Critical-path analyzer: turns a job's flight record into a
//! wall-time attribution table.
//!
//! The wall clock of one job runs from the start of its `sched.queued`
//! span to the end of its `sched.job` span. The analyzer partitions
//! that interval into stages using the span taxonomy (DESIGN.md
//! "Causal tracing & critical path"):
//!
//! * **queue_wait** — the `sched.queued` span (admission to dispatch).
//! * **dispatch** — gap between dispatch and the master worker's
//!   `worker.job` start (command delivery, including retransmits).
//! * **dms_l1 / dms_l2 / dms_miss** — `dms.request` spans on the master
//!   thread, grouped by their `tier` argument.
//! * **extract** — the outermost `extract.block` and `extract.round`
//!   spans on the master thread, minus the `dms.request` time nested
//!   inside them (so load time is not double-counted). A round of the
//!   item walk covers its loads outside the DMS (direct and collective
//!   reads), the modeled compute charge, derived-field memoization, and
//!   the extraction or the master's wait on its extraction pool.
//! * **gather** — master `worker.job` time not covered by extraction,
//!   loads or the merge: waiting for the other ranks' partials.
//! * **merge** — the master's `worker.merge` span.
//! * **finalize** — gap between the master `worker.job` end and the
//!   `sched.job` end (result delivery and scheduler bookkeeping).
//!
//! The *master* rank is identified structurally: the thread that holds
//! the trace's `worker.merge` span (only group masters merge). Stage
//! sums are cross-checked against the job's `JobReport` by the
//! integration tests; `coverage` reports the fraction of wall time the
//! stages account for, so truncated traces are visible instead of
//! silently under-reporting.

use std::path::Path;

use crate::flight::{parse_flight_spans, FlightSpan};
use crate::json::Json;

/// Wall-time attribution of one job, all stages in nanoseconds.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct JobAttribution {
    pub trace_id: u64,
    pub job: u64,
    /// `sched.queued` start to `sched.job` end.
    pub wall_ns: u64,
    pub queue_wait_ns: u64,
    pub dispatch_ns: u64,
    pub dms_l1_ns: u64,
    pub dms_l2_ns: u64,
    pub dms_miss_ns: u64,
    pub extract_ns: u64,
    pub gather_ns: u64,
    pub merge_ns: u64,
    pub finalize_ns: u64,
    /// Duration of the client's `vista.first_result` span (submit to
    /// first streamed geometry), 0 when the trace has no client spans.
    pub ttft_ns: u64,
    /// attributed / wall — 1.0 means the stages fully tile the job.
    pub coverage: f64,
}

impl JobAttribution {
    /// Sum of all attributed stages.
    pub fn attributed_ns(&self) -> u64 {
        self.queue_wait_ns
            + self.dispatch_ns
            + self.dms_l1_ns
            + self.dms_l2_ns
            + self.dms_miss_ns
            + self.extract_ns
            + self.gather_ns
            + self.merge_ns
            + self.finalize_ns
    }
}

fn end(s: &FlightSpan) -> u64 {
    s.ts_ns + s.dur_ns
}

/// The latest span with `name` — requeued jobs leave superseded
/// attempts in the trace; the final attempt is the one that completed.
fn latest<'a>(spans: &'a [FlightSpan], name: &str) -> Option<&'a FlightSpan> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .max_by_key(|s| s.ts_ns)
}

/// Attributes one trace's flight spans. Returns `None` when the trace
/// has no `sched.queued`/`sched.job` pair (the job never completed, or
/// the spans were dropped by ring overflow).
pub fn analyze_spans(spans: &[FlightSpan]) -> Option<JobAttribution> {
    let queued = latest(spans, "sched.queued")?;
    let sched_job = latest(spans, "sched.job")?;
    let job = queued.args.get("job").and_then(Json::as_u64).unwrap_or(0);
    let wall_start = queued.ts_ns;
    let wall_end = end(sched_job).max(wall_start);
    let mut a = JobAttribution {
        trace_id: queued.trace_id,
        job,
        wall_ns: wall_end - wall_start,
        queue_wait_ns: queued.dur_ns,
        ..JobAttribution::default()
    };
    a.ttft_ns = latest(spans, "vista.first_result")
        .map(|s| s.dur_ns)
        .unwrap_or(0);
    // Only group masters merge, so worker.merge pins the master thread.
    let merge = latest(spans, "worker.merge");
    let wjob = spans
        .iter()
        .filter(|s| s.name == "worker.job")
        .filter(|s| merge.is_none_or(|m| s.tid == m.tid))
        .max_by_key(|s| s.ts_ns);
    if let Some(wj) = wjob {
        // The master's span closes only after its DONE has left, so the
        // scheduler may finish the job first: clip the span to the wall.
        let wj_end = end(wj).min(wall_end);
        a.dispatch_ns = wj.ts_ns.saturating_sub(end(queued));
        a.finalize_ns = wall_end - wj_end;
        a.merge_ns = merge
            .filter(|m| m.tid == wj.tid)
            .map(|m| m.dur_ns)
            .unwrap_or(0);
        let in_job = |s: &&FlightSpan| s.tid == wj.tid && s.ts_ns >= wj.ts_ns && end(s) <= end(wj);
        let stage: Vec<&FlightSpan> = spans
            .iter()
            .filter(|s| s.name == "extract.block" || s.name == "extract.round")
            .filter(in_job)
            .collect();
        // Spans on one thread nest, so counting only the outermost
        // extraction spans counts each instant once.
        let blocks: Vec<&FlightSpan> = stage
            .iter()
            .copied()
            .filter(|s| !stage.iter().any(|o| o.span_id == s.parent_span_id))
            .collect();
        let requests: Vec<&FlightSpan> = spans
            .iter()
            .filter(|s| s.name == "dms.request")
            .filter(in_job)
            .collect();
        let mut extract: u64 = blocks.iter().map(|b| b.dur_ns).sum();
        // Master worker.job time tiled by a stage; the rest is gather.
        let mut covered: u64 = extract + a.merge_ns;
        for d in &requests {
            match d.args.get("tier").and_then(Json::as_str).unwrap_or("") {
                "l1" => a.dms_l1_ns += d.dur_ns,
                "l2" => a.dms_l2_ns += d.dur_ns,
                _ => a.dms_miss_ns += d.dur_ns,
            }
            if blocks
                .iter()
                .any(|b| d.ts_ns >= b.ts_ns && end(d) <= end(b))
            {
                // Nested inside an extract.block: reclassify that slice
                // of extraction time as load time.
                extract = extract.saturating_sub(d.dur_ns);
            } else {
                covered += d.dur_ns;
            }
        }
        a.extract_ns = extract;
        a.gather_ns = wj_end.saturating_sub(wj.ts_ns).saturating_sub(covered);
    }
    a.coverage = if a.wall_ns == 0 {
        1.0
    } else {
        a.attributed_ns() as f64 / a.wall_ns as f64
    };
    Some(a)
}

/// Analyzes every `flight-<trace_id>.jsonl` in `dir` (the artifact
/// directory written by [`crate::export_all`]), sorted by trace id.
pub fn analyze_dir(dir: &Path) -> Result<Vec<JobAttribution>, String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut out = Vec::new();
    for ent in entries {
        let ent = ent.map_err(|e| e.to_string())?;
        let name = ent.file_name().to_string_lossy().into_owned();
        if !name.starts_with("flight-") || !name.ends_with(".jsonl") {
            continue;
        }
        let text = std::fs::read_to_string(ent.path()).map_err(|e| format!("{name}: {e}"))?;
        let spans = parse_flight_spans(&text).map_err(|e| format!("{name}: {e}"))?;
        if let Some(a) = analyze_spans(&spans) {
            out.push(a);
        }
    }
    out.sort_by_key(|a| a.trace_id);
    Ok(out)
}

/// Renders attributions as a fixed-width text table (milliseconds).
pub fn render_table(rows: &[JobAttribution]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:>6} {:>5} {:>10} {:>9} {:>8} {:>8} {:>8} {:>8} {:>10} {:>9} {:>8} {:>8} {:>9} {:>6}\n",
        "trace",
        "job",
        "wall_ms",
        "queue",
        "disp",
        "dms_l1",
        "dms_l2",
        "dms_miss",
        "extract",
        "gather",
        "merge",
        "final",
        "ttft_ms",
        "cov%"
    ));
    let ms = |ns: u64| format!("{:.3}", ns as f64 / 1e6);
    for r in rows {
        out.push_str(&format!(
            "{:>6} {:>5} {:>10} {:>9} {:>8} {:>8} {:>8} {:>8} {:>10} {:>9} {:>8} {:>8} {:>9} {:>6.1}\n",
            r.trace_id,
            r.job,
            ms(r.wall_ns),
            ms(r.queue_wait_ns),
            ms(r.dispatch_ns),
            ms(r.dms_l1_ns),
            ms(r.dms_l2_ns),
            ms(r.dms_miss_ns),
            ms(r.extract_ns),
            ms(r.gather_ns),
            ms(r.merge_ns),
            ms(r.finalize_ns),
            ms(r.ttft_ns),
            r.coverage * 100.0,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn fs(name: &str, ts: u64, dur: u64, tid: u64, args: &[(&str, Json)]) -> FlightSpan {
        FlightSpan {
            trace_id: 5,
            name: name.into(),
            cat: "test".into(),
            ts_ns: ts,
            dur_ns: dur,
            span_id: ts + 1,
            parent_span_id: 0,
            tid,
            thread: format!("t{tid}"),
            args: args
                .iter()
                .map(|(k, v)| ((*k).to_owned(), v.clone()))
                .collect::<BTreeMap<_, _>>(),
        }
    }

    fn sample_spans() -> Vec<FlightSpan> {
        vec![
            fs("sched.queued", 0, 100, 1, &[("job", Json::UInt(7))]),
            fs("sched.job", 100, 900, 1, &[("job", Json::UInt(7))]),
            fs("worker.job", 150, 800, 2, &[]),
            // Extraction with a nested cache miss.
            fs("extract.block", 200, 300, 2, &[]),
            fs(
                "dms.request",
                250,
                100,
                2,
                &[("tier", Json::Str("miss".into()))],
            ),
            // A demand load outside any extract.block (e.g. a merge-side read).
            fs(
                "dms.request",
                520,
                30,
                2,
                &[("tier", Json::Str("l1".into()))],
            ),
            fs("worker.merge", 900, 50, 2, &[]),
            // A sibling rank's work must not pollute the master's stages.
            fs("worker.job", 160, 400, 3, &[]),
            fs("extract.block", 170, 200, 3, &[]),
            fs("vista.first_result", 0, 640, 9, &[]),
        ]
    }

    #[test]
    fn attribution_tiles_the_wall_clock() {
        let a = analyze_spans(&sample_spans()).unwrap();
        assert_eq!(a.trace_id, 5);
        assert_eq!(a.job, 7);
        assert_eq!(a.wall_ns, 1_000);
        assert_eq!(a.queue_wait_ns, 100);
        assert_eq!(a.dispatch_ns, 50, "queued end 100 -> worker.job start 150");
        assert_eq!(a.dms_miss_ns, 100);
        assert_eq!(a.dms_l1_ns, 30);
        assert_eq!(a.dms_l2_ns, 0);
        assert_eq!(a.extract_ns, 200, "300 block minus 100 nested load");
        assert_eq!(a.merge_ns, 50);
        assert_eq!(
            a.finalize_ns, 50,
            "worker.job end 950 -> sched.job end 1000"
        );
        assert_eq!(
            a.gather_ns, 420,
            "800 job - 300 blocks - 30 load - 50 merge"
        );
        assert_eq!(a.ttft_ns, 640);
        assert_eq!(a.attributed_ns(), 1_000);
        assert!((a.coverage - 1.0).abs() < 1e-9);
    }

    #[test]
    fn a_master_span_outliving_the_job_is_clipped_to_the_wall() {
        // worker.job runs 150..1050 but sched.job ends at 1000.
        let mut spans = sample_spans();
        spans[2].dur_ns = 900;
        let a = analyze_spans(&spans).unwrap();
        assert_eq!(a.finalize_ns, 0);
        assert_eq!(
            a.gather_ns, 470,
            "850 clipped job - 300 blocks - 30 load - 50 merge"
        );
        assert_eq!(a.attributed_ns(), 1_000);
    }

    #[test]
    fn a_walk_round_counts_once_around_its_blocks() {
        // The extract.block of 200..500 becomes a round holding a cache
        // miss and a block; a pool thread's blocks stay off the master.
        let mut spans = sample_spans();
        spans[3].name = "extract.round".into();
        spans[4].parent_span_id = spans[3].span_id;
        let mut block = fs("extract.block", 360, 120, 2, &[]);
        block.parent_span_id = spans[3].span_id;
        spans.push(block);
        spans.push(fs("extract.block", 380, 100, 4, &[]));
        let a = analyze_spans(&spans).unwrap();
        assert_eq!(a.extract_ns, 200, "300 round minus 100 nested load");
        assert_eq!(a.gather_ns, 420);
        assert_eq!(a.attributed_ns(), 1_000);
    }

    #[test]
    fn scheduler_only_trace_still_attributes_queue_time() {
        let spans = vec![
            fs("sched.queued", 0, 400, 1, &[("job", Json::UInt(3))]),
            fs("sched.job", 400, 600, 1, &[]),
        ];
        let a = analyze_spans(&spans).unwrap();
        assert_eq!(a.job, 3);
        assert_eq!(a.wall_ns, 1_000);
        assert_eq!(a.queue_wait_ns, 400);
        assert_eq!(a.attributed_ns(), 400);
        assert!((a.coverage - 0.4).abs() < 1e-9);
        // No sched.queued at all -> nothing to anchor on.
        assert!(analyze_spans(&spans[1..]).is_none());
    }

    #[test]
    fn analyze_dir_reads_flight_files_and_renders() {
        let dir = std::env::temp_dir().join(format!("vira-analyze-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let lines = [
            r#"{"kind":"span","trace_id":5,"name":"sched.queued","cat":"sched","ts_ns":0,"dur_ns":100,"span_id":1,"parent_span_id":0,"tid":1,"thread":"vira-scheduler","args":{"job":7}}"#,
            r#"{"kind":"span","trace_id":5,"name":"sched.job","cat":"sched","ts_ns":100,"dur_ns":900,"span_id":2,"parent_span_id":0,"tid":1,"thread":"vira-scheduler","args":{}}"#,
            r#"{"kind":"span","trace_id":5,"name":"worker.job","cat":"worker","ts_ns":150,"dur_ns":800,"span_id":3,"parent_span_id":2,"tid":2,"thread":"vira-worker-1","args":{}}"#,
        ];
        std::fs::write(dir.join("flight-5.jsonl"), lines.join("\n") + "\n").unwrap();
        std::fs::write(dir.join("trace.json"), "{}").unwrap(); // ignored
        let rows = analyze_dir(&dir).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].job, 7);
        assert_eq!(rows[0].wall_ns, 1_000);
        let table = render_table(&rows);
        assert!(table.contains("wall_ms"));
        assert!(table.contains(" 7 "), "job column rendered: {table}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
