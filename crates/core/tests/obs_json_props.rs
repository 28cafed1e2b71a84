//! Hostile text and non-finite floats through every JSON writer of the
//! observability plane: each document parses, passes its schema check,
//! and reads back what went in — strings equal, finite floats equal by
//! value (and still floats), NaN and ±inf as `null`.

use std::collections::BTreeMap;

use vira_obs::json::{parse, Json};
use vira_obs::trace::{ThreadDump, MAX_ARGS};
use vira_obs::{export, flight, intern, slo, ArgValue, EventRecord, Field, Level, SpanRecord};
use vira_obs::{MetricsDelta, MetricsSnapshot, RankMeta, SloStatus, TraceDump, Tsdb};
use vira_testkit::{check, Gen};

/// Quotes, backslashes, every C0 control, DEL, the two JavaScript line
/// terminators and characters outside the BMP.
fn text(g: &mut Gen) -> String {
    let mut alphabet: String = (0u32..0x20).filter_map(char::from_u32).collect();
    alphabet.push_str("\"\\/aé\u{7f}\u{2028}\u{2029}😀𝄞");
    g.string(&alphabet, 0..10)
}

fn float(g: &mut Gen) -> f64 {
    let special = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0, 1e300, 3.0];
    let v = special.get(g.usize_in(0..8)).copied();
    v.unwrap_or_else(|| g.f64_in(-1e6, 1e6))
}

/// What a float must read back as: `Json`'s `==` compares numbers by
/// value, and an integral float stays a `Num`.
fn read_back(v: f64) -> Json {
    if v.is_finite() {
        Json::Num(v)
    } else {
        Json::Null
    }
}

/// A span arg and an event field, each with what it must read back as.
fn value(g: &mut Gen) -> ((ArgValue, Json), (Field, Json)) {
    let (n, s, f) = (g.u64(), text(g), float(g));
    let (arg, field, back) = match g.usize_in(0..5) {
        0 => (ArgValue::U64(n), Field::U64(n), Json::UInt(n)),
        1 => (
            ArgValue::I64(n as i64),
            Field::I64(n as i64),
            (n as i64).into(),
        ),
        2 => (ArgValue::F64(f), Field::F64(f), read_back(f)),
        3 => (
            ArgValue::Str(intern(&s)),
            Field::Str(s.clone()),
            s.as_str().into(),
        ),
        _ => {
            return (
                (ArgValue::None, Json::Null),
                (Field::Bool(n % 2 == 0), (n % 2 == 0).into()),
            )
        }
    };
    ((arg, back.clone()), (field, back))
}

#[test]
fn hostile_text_round_trips_through_every_writer() {
    check(64, |g| {
        // Two threads, one span each, both in trace 1; the second is the
        // first's child across threads, so the trace has one flow arc.
        let mut want_args = Vec::new();
        let threads = [(0, 11), (1, 12)].map(|(i, tid)| {
            let mut rec = SpanRecord {
                name: intern(&text(g)),
                cat: intern(&text(g)),
                start_ns: 1_000 * (i + 1),
                dur_ns: 5_000,
                trace_id: 1,
                span_id: i + 1,
                parent_span_id: i,
                n_args: g.u32_in(0..MAX_ARGS as u32 + 1),
                ..SpanRecord::default()
            };
            let mut want = Vec::new();
            for slot in &mut rec.args[..rec.n_args as usize] {
                let (key, ((arg, back), _)) = (intern(&text(g)), value(g));
                *slot = (key, arg);
                want.push((key, back));
            }
            want_args.push(want);
            let (name, spans, dropped) = (text(g), vec![rec], 0);
            ThreadDump {
                tid,
                name,
                spans,
                dropped,
            }
        });
        let dump = TraceDump {
            threads: threads.into(),
        };
        let levels = [Level::Debug, Level::Info, Level::Warn, Level::Error];
        let mut want_fields = Vec::new();
        let events = g.vec(1..4, |g| {
            let (fields, want): (Vec<_>, Vec<_>) = g
                .vec(0..4, |g| {
                    let (key, (_, (field, back))) = (text(g), value(g));
                    ((key.clone(), field), (key, back))
                })
                .into_iter()
                .unzip();
            want_fields.push(Json::map::<String, Json>(want));
            EventRecord {
                ts_ns: g.u64_in(0..10_000),
                level: levels[g.usize_in(0..4)],
                target: text(g),
                message: text(g),
                trace_id: 1,
                fields,
            }
        });

        // trace.json: thread names, span names and categories, args.
        let doc = export::chrome_trace_json(&dump);
        assert_eq!(export::validate_chrome_trace(&doc), Ok(2));
        assert_eq!(export::validate_chrome_trace_flows(&doc), Ok(1));
        let doc = parse(&doc).unwrap();
        let trace_events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        let flight_doc = flight::flight_jsonl(&dump, &events, 1);
        let n_lines = dump.span_count() + events.len();
        assert_eq!(flight::validate_flight_jsonl(&flight_doc), Ok(n_lines));
        let lines: Vec<Json> = flight_doc.lines().map(|l| parse(l).unwrap()).collect();
        for (i, t) in dump.threads.iter().enumerate() {
            let (s, args) = (&t.spans[0], Json::map(want_args[i].clone()));
            let thread = Json::from(t.name.as_str());
            let meta_args = Json::obj([("name", thread.clone())]);
            assert_eq!(trace_events[i].get("args"), Some(&meta_args));
            let span = &trace_events[dump.threads.len() + i];
            let cat = if s.cat.is_empty() { "span" } else { s.cat };
            assert_eq!(span.get("name"), Some(&s.name.into()));
            assert_eq!(span.get("cat"), Some(&cat.into()));
            let ids = [
                ("trace_id", 1),
                ("span_id", s.span_id),
                ("parent_span_id", i as u64),
            ];
            let ids = ids.map(|(k, id)| (k, Json::UInt(id))).into_iter();
            assert_eq!(
                span.get("args"),
                Some(&Json::map(ids.chain(want_args[i].clone())))
            );
            // flight-1.jsonl: the same span, found by its id.
            let line = lines
                .iter()
                .find(|l| l.get("span_id") == Some(&s.span_id.into()));
            let line = line.unwrap();
            assert_eq!(line.get("name"), Some(&s.name.into()));
            assert_eq!(line.get("cat"), Some(&s.cat.into()));
            assert_eq!(
                (line.get("thread"), line.get("args")),
                (Some(&thread), Some(&args))
            );
        }

        // events.jsonl, line by line; the flight file carries each event too.
        let doc = export::events_jsonl(&events);
        assert_eq!(export::validate_events_jsonl(&doc), Ok(events.len()));
        for ((line, e), fields) in doc.lines().zip(&events).zip(want_fields) {
            let msg = Json::from(e.message.as_str());
            assert!(lines.iter().any(|l| l.get("msg") == Some(&msg)), "{e:?}");
            let want = Json::obj([
                ("ts_ns", e.ts_ns.into()),
                ("trace_id", 1u64.into()),
                ("level", e.level.as_str().into()),
                ("target", e.target.as_str().into()),
                ("msg", msg),
                ("fields", fields),
            ]);
            assert_eq!(parse(line), Ok(want));
        }

        // metrics.json and telemetry.json: hostile metric and SLO names,
        // sorted as the tsdb lists them. Names carry their index (the tsdb
        // folds equal names); values stay below 2^53 (it keeps gauge
        // points as f64).
        let name = |i: usize, g: &mut Gen| format!("{i}:{}", text(g));
        let counters: BTreeMap<String, u64> = (0..g.usize_in(1..4))
            .map(|i| (name(i, g), g.u64_in(1..1 << 40)))
            .collect();
        let gauges: BTreeMap<String, i64> = (0..g.usize_in(0..3))
            .map(|i| (name(i, g), g.u64_in(0..1 << 40) as i64 - (1 << 39)))
            .collect();
        let snap = MetricsSnapshot {
            counters: counters.clone().into_iter().collect(),
            gauges: gauges.clone().into_iter().collect(),
            histograms: vec![],
        };
        let doc = parse(&export::metrics_json(&snap)).unwrap();
        export::scan_metrics_json(&doc).unwrap();
        let (want_counters, want_gauges) = (Json::map(counters), Json::map(gauges));
        assert_eq!(doc.get("counters"), Some(&want_counters));
        assert_eq!(doc.get("gauges"), Some(&want_gauges));

        let mut db = Tsdb::default();
        let delta = MetricsDelta {
            rank: 1,
            seq: 1,
            t_ns: 1,
            counters: snap.counters,
            gauges: snap.gauges,
            ..Default::default()
        };
        db.ingest(&delta, 1_000);
        let statuses = g.vec(1..4, |g| {
            let [objective, fast_bad_fraction, slow_bad_fraction, fast_burn, slow_burn] =
                [(); 5].map(|_| float(g));
            SloStatus {
                name: text(g),
                objective,
                fast_total: g.u64_in(0..1000),
                slow_total: g.u64_in(0..1000),
                fast_bad_fraction,
                slow_bad_fraction,
                fast_burn,
                slow_burn,
                firing: g.bool(),
            }
        });
        let ranks = [RankMeta {
            rank: 1,
            ..RankMeta::default()
        }];
        let doc = slo::render_telemetry_json(&db, &statuses, &ranks, 2_000, true).to_string();
        assert_eq!(slo::validate_telemetry_json(&doc), Ok((1, statuses.len())));
        let doc = parse(&doc).unwrap();
        let cluster_counters = doc.get("cluster").and_then(|c| c.get("counters"));
        assert_eq!(cluster_counters, Some(&want_counters));
        let rank_gauges = doc.get("ranks").and_then(|r| r.as_arr()?[0].get("gauges"));
        assert_eq!(rank_gauges, Some(&want_gauges));
        let rows = doc.get("slo").and_then(Json::as_arr).unwrap();
        for (row, s) in rows.iter().zip(&statuses) {
            assert_eq!(row.get("name"), Some(&s.name.as_str().into()));
            let floats = [
                ("objective", s.objective),
                ("fast_bad_fraction", s.fast_bad_fraction),
                ("slow_bad_fraction", s.slow_bad_fraction),
                ("fast_burn", s.fast_burn),
                ("slow_burn", s.slow_burn),
            ];
            for (key, v) in floats {
                assert_eq!(row.get(key), Some(&read_back(v)), "{key}");
            }
        }
    });
}
