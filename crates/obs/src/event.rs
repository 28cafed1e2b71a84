//! Structured event log: bounded in-memory ring of leveled events with
//! typed fields, optionally echoed to stderr.
//!
//! This replaces ad-hoc `eprintln!` diagnostics in the binaries: events
//! carry machine-readable fields, land in the JSONL export, and can
//! still be mirrored to stderr for interactive runs (the echo is on by
//! default so converted call sites keep their console behaviour).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

use crate::trace::now_ns;

/// Maximum events retained between drains; older events are dropped
/// (and counted).
pub const EVENT_CAPACITY: usize = 16_384;

#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    Debug,
    Info,
    Warn,
    Error,
}

impl Level {
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Debug => "debug",
            Level::Info => "info",
            Level::Warn => "warn",
            Level::Error => "error",
        }
    }
}

/// A typed event field value.
#[derive(Clone, Debug, PartialEq)]
pub enum Field {
    U64(u64),
    I64(i64),
    F64(f64),
    Str(String),
    Bool(bool),
}

impl From<u64> for Field {
    fn from(v: u64) -> Self {
        Field::U64(v)
    }
}
impl From<usize> for Field {
    fn from(v: usize) -> Self {
        Field::U64(v as u64)
    }
}
impl From<u32> for Field {
    fn from(v: u32) -> Self {
        Field::U64(v as u64)
    }
}
impl From<i64> for Field {
    fn from(v: i64) -> Self {
        Field::I64(v)
    }
}
impl From<f64> for Field {
    fn from(v: f64) -> Self {
        Field::F64(v)
    }
}
impl From<&str> for Field {
    fn from(v: &str) -> Self {
        Field::Str(v.to_owned())
    }
}
impl From<String> for Field {
    fn from(v: String) -> Self {
        Field::Str(v)
    }
}
impl From<bool> for Field {
    fn from(v: bool) -> Self {
        Field::Bool(v)
    }
}

impl From<&Field> for crate::json::Json {
    fn from(f: &Field) -> Self {
        match f {
            Field::U64(v) => (*v).into(),
            Field::I64(v) => (*v).into(),
            Field::F64(v) => (*v).into(),
            Field::Str(v) => v.as_str().into(),
            Field::Bool(v) => (*v).into(),
        }
    }
}

impl std::fmt::Display for Field {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Field::U64(v) => write!(f, "{v}"),
            Field::I64(v) => write!(f, "{v}"),
            Field::F64(v) => write!(f, "{v}"),
            Field::Str(v) => write!(f, "{v}"),
            Field::Bool(v) => write!(f, "{v}"),
        }
    }
}

/// One structured event.
#[derive(Clone, Debug)]
pub struct EventRecord {
    /// Nanoseconds since the trace epoch.
    pub ts_ns: u64,
    pub level: Level,
    /// Subsystem, e.g. `"vira"`, `"bench"`, `"sched"`.
    pub target: String,
    pub message: String,
    /// Trace installed on the emitting thread, 0 if none — lets the
    /// flight recorder pull a job's events next to its spans.
    pub trace_id: u64,
    pub fields: Vec<(String, Field)>,
}

struct EventLog {
    inner: Mutex<VecDeque<EventRecord>>,
    dropped: AtomicU64,
    echo: AtomicBool,
}

impl EventLog {
    fn new() -> Self {
        EventLog {
            inner: Mutex::new(VecDeque::new()),
            dropped: AtomicU64::new(0),
            // Echo on by default: converted eprintln! sites keep their
            // console behaviour until a harness turns the echo off.
            echo: AtomicBool::new(true),
        }
    }

    /// Appends `rec`, dropping (and counting) the oldest event when the
    /// ring is full.
    fn push(&self, rec: EventRecord) {
        let mut q = self.inner.lock().unwrap();
        if q.len() >= EVENT_CAPACITY {
            q.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        q.push_back(rec);
    }

    /// Removes and returns every buffered event plus the cumulative
    /// dropped count.
    fn drain(&self) -> (Vec<EventRecord>, u64) {
        let mut q = self.inner.lock().unwrap();
        let out: Vec<EventRecord> = q.drain(..).collect();
        (out, self.dropped.load(Ordering::Relaxed))
    }
}

static LOG: OnceLock<EventLog> = OnceLock::new();

fn log() -> &'static EventLog {
    LOG.get_or_init(EventLog::new)
}

/// Serializes the unit tests that drain the global event log, which
/// would otherwise take each other's events.
#[cfg(test)]
pub(crate) static TEST_LOCK: Mutex<()> = Mutex::new(());

/// Controls mirroring of events to stderr (default: on).
pub fn set_stderr_echo(on: bool) {
    log().echo.store(on, Ordering::Relaxed);
}

/// Records an event. `fields` are (key, value) pairs; use `.into()` on
/// numbers/strings/bools.
pub fn event(level: Level, target: &str, message: &str, fields: &[(&str, Field)]) {
    let rec = EventRecord {
        ts_ns: now_ns(),
        level,
        target: target.to_owned(),
        message: message.to_owned(),
        trace_id: crate::trace::current_ctx().trace_id,
        fields: fields
            .iter()
            .map(|(k, v)| ((*k).to_owned(), v.clone()))
            .collect(),
    };
    let l = log();
    if l.echo.load(Ordering::Relaxed) {
        let mut line = format!("[{} {}] {}", level.as_str(), target, message);
        for (k, v) in &rec.fields {
            line.push(' ');
            line.push_str(k);
            line.push('=');
            line.push_str(&v.to_string());
        }
        eprintln!("{line}");
    }
    l.push(rec);
}

pub fn debug(target: &str, message: &str, fields: &[(&str, Field)]) {
    event(Level::Debug, target, message, fields);
}
pub fn info(target: &str, message: &str, fields: &[(&str, Field)]) {
    event(Level::Info, target, message, fields);
}
pub fn warn(target: &str, message: &str, fields: &[(&str, Field)]) {
    event(Level::Warn, target, message, fields);
}
pub fn error(target: &str, message: &str, fields: &[(&str, Field)]) {
    event(Level::Error, target, message, fields);
}

/// Removes and returns all buffered events plus the cumulative dropped
/// count.
pub fn drain_events() -> (Vec<EventRecord>, u64) {
    log().drain()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_roundtrip() {
        let _g = TEST_LOCK.lock().unwrap();
        set_stderr_echo(false);
        drain_events();
        info(
            "test-ev",
            "hello",
            &[("n", 3u64.into()), ("who", "world".into())],
        );
        warn("test-ev", "uh oh", &[("bad", true.into())]);
        let (evs, _) = drain_events();
        let mine: Vec<_> = evs.iter().filter(|e| e.target == "test-ev").collect();
        assert_eq!(mine.len(), 2);
        assert_eq!(mine[0].level, Level::Info);
        assert_eq!(mine[0].message, "hello");
        assert_eq!(mine[0].fields[0], ("n".to_owned(), Field::U64(3)));
        assert_eq!(
            mine[0].fields[1],
            ("who".to_owned(), Field::Str("world".into()))
        );
        assert_eq!(mine[1].level, Level::Warn);
        assert!(mine[0].ts_ns <= mine[1].ts_ns);
        set_stderr_echo(true);
    }

    #[test]
    fn overflow_drops_oldest() {
        // A private log: the global one is shared with every test that
        // emits events.
        let log = EventLog::new();
        for i in 0..(EVENT_CAPACITY + 5) {
            log.push(EventRecord {
                ts_ns: 0,
                level: Level::Debug,
                target: "test-flood".into(),
                message: format!("m{i}"),
                trace_id: 0,
                fields: Vec::new(),
            });
        }
        let (evs, dropped) = log.drain();
        assert_eq!(evs.len(), EVENT_CAPACITY);
        assert_eq!(dropped, 5);
        assert_eq!(evs[0].message, "m5");
        assert_eq!(
            evs.last().unwrap().message,
            format!("m{}", EVENT_CAPACITY + 4)
        );
    }
}
