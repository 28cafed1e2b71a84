//! Span-based tracer with per-thread lock-free ring buffers.
//!
//! Design:
//! - Each thread lazily registers a [`ThreadBuf`] (a [`Ring`] of
//!   [`SpanRecord`]s plus identity) with the global tracer the first time
//!   it opens a span. Pushing a finished span is a wait-free write into
//!   the thread's own ring — no locks, no allocation on the hot path.
//! - [`span`] returns a [`SpanGuard`]; dropping the guard stamps the
//!   duration and pushes the record. Guards nest: the per-thread depth
//!   counter is carried in the record so exporters can reconstruct the
//!   call tree.
//! - When tracing is disabled (the default), `span` costs a single
//!   relaxed atomic load. With the `off` cargo feature the recording
//!   path is compiled out entirely and `span` is an inert no-op the
//!   optimizer can delete.
//! - Span names are `&'static str`. Dynamic names (command ids, dataset
//!   ids) go through [`intern`], a bounded leak-once string table.
//!
//! Causal context: every span carries `(trace_id, span_id,
//! parent_span_id)`. A [`TraceCtx`] minted at a job's origin (e.g. a
//! vista Submit) travels over the wire as two `u64`s and is installed
//! into a per-thread slot with [`install_ctx`]; from then on every
//! span opened on that thread links into the same trace
//! automatically: top-level spans parent to the installed context,
//! nested spans parent to the enclosing open span.

use std::cell::{Cell, RefCell};
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::ring::Ring;

/// Maximum key/value arguments carried inline by a span record.
pub const MAX_ARGS: usize = 6;

// ---------------------------------------------------------------------------
// Clock
// ---------------------------------------------------------------------------

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// The process-wide trace epoch. Pinned on first use; [`set_enabled`]
/// touches it so that enabling tracing early gives every later
/// timestamp a common origin.
pub fn epoch() -> Instant {
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the trace epoch.
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Converts an `Instant` captured elsewhere into epoch-relative
/// nanoseconds, saturating to zero for instants before the epoch.
pub fn instant_ns(t: Instant) -> u64 {
    t.checked_duration_since(epoch())
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0)
}

// ---------------------------------------------------------------------------
// String interning
// ---------------------------------------------------------------------------

static INTERN: OnceLock<Mutex<HashSet<&'static str>>> = OnceLock::new();

/// Returns a `'static` copy of `s`, leaking it at most once. Intended
/// for low-cardinality dynamic names (command ids, dataset ids) that
/// must live in `Copy` span records.
pub fn intern(s: &str) -> &'static str {
    let set = INTERN.get_or_init(|| Mutex::new(HashSet::new()));
    let mut guard = set.lock().unwrap();
    if let Some(&existing) = guard.get(s) {
        return existing;
    }
    let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
    guard.insert(leaked);
    leaked
}

// ---------------------------------------------------------------------------
// Causal trace context
// ---------------------------------------------------------------------------

/// Causal context of one logical operation (a job): a process-unique
/// trace id plus the span to parent top-level child spans to.
///
/// All-zero means "no context" (tracing disabled), so absence needs no
/// `Option` on the wire.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceCtx {
    pub trace_id: u64,
    pub parent_span_id: u64,
}

static NEXT_TRACE_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

/// Allocates a fresh process-unique span id (never 0).
pub fn next_span_id() -> u64 {
    NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed)
}

impl TraceCtx {
    /// Mints a fresh trace rooted at a fresh span id. Two relaxed
    /// fetch-adds; safe to call unconditionally per Submit.
    pub fn mint() -> TraceCtx {
        TraceCtx {
            trace_id: NEXT_TRACE_ID.fetch_add(1, Ordering::Relaxed),
            parent_span_id: next_span_id(),
        }
    }

    /// Whether this carries a real trace (non-zero trace id).
    #[inline]
    pub fn is_some(&self) -> bool {
        self.trace_id != 0
    }
}

thread_local! {
    static CTX: Cell<TraceCtx> = const {
        Cell::new(TraceCtx {
            trace_id: 0,
            parent_span_id: 0,
        })
    };
}

/// The context currently installed on this thread (all-zero if none).
#[inline]
pub fn current_ctx() -> TraceCtx {
    CTX.with(|c| c.get())
}

/// RAII guard restoring the previously installed context on drop.
pub struct CtxGuard {
    prev: TraceCtx,
}

impl Drop for CtxGuard {
    fn drop(&mut self) {
        CTX.with(|c| c.set(self.prev));
    }
}

/// Installs `ctx` as the current thread's trace context until the
/// returned guard drops (the previous context is restored — installs
/// nest). Top-level spans opened meanwhile parent to
/// `ctx.parent_span_id` and carry `ctx.trace_id`.
#[must_use = "the context is uninstalled when the guard drops"]
pub fn install_ctx(ctx: TraceCtx) -> CtxGuard {
    let prev = CTX.with(|c| c.replace(ctx));
    CtxGuard { prev }
}

// ---------------------------------------------------------------------------
// Records
// ---------------------------------------------------------------------------

/// A span argument value. `Copy` so records can live in the ring.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub enum ArgValue {
    U64(u64),
    I64(i64),
    F64(f64),
    Str(&'static str),
    #[default]
    None,
}

impl From<u64> for ArgValue {
    fn from(v: u64) -> Self {
        ArgValue::U64(v)
    }
}
impl From<usize> for ArgValue {
    fn from(v: usize) -> Self {
        ArgValue::U64(v as u64)
    }
}
impl From<u32> for ArgValue {
    fn from(v: u32) -> Self {
        ArgValue::U64(v as u64)
    }
}
impl From<i64> for ArgValue {
    fn from(v: i64) -> Self {
        ArgValue::I64(v)
    }
}
impl From<f64> for ArgValue {
    fn from(v: f64) -> Self {
        ArgValue::F64(v)
    }
}
impl From<&'static str> for ArgValue {
    fn from(v: &'static str) -> Self {
        ArgValue::Str(v)
    }
}

impl From<ArgValue> for crate::json::Json {
    fn from(v: ArgValue) -> Self {
        match v {
            ArgValue::U64(n) => n.into(),
            ArgValue::I64(n) => n.into(),
            ArgValue::F64(n) => n.into(),
            ArgValue::Str(s) => s.into(),
            ArgValue::None => crate::json::Json::Null,
        }
    }
}

/// One finished span, as stored in the per-thread ring.
#[derive(Clone, Copy, Debug)]
pub struct SpanRecord {
    pub name: &'static str,
    /// Category, e.g. `"sched"`, `"dms"`, `"extract"` — becomes the
    /// Chrome trace `cat` field.
    pub cat: &'static str,
    /// Start, nanoseconds since [`epoch`].
    pub start_ns: u64,
    pub dur_ns: u64,
    /// Nesting depth on the owning thread at the time the span opened
    /// (0 = top level).
    pub depth: u32,
    /// Trace this span belongs to (0 = none installed when it opened).
    pub trace_id: u64,
    /// Process-unique id of this span (0 only for pre-tracing records).
    pub span_id: u64,
    /// Enclosing open span on the same thread, or the installed
    /// context's parent for top-level spans (0 = root / no context).
    pub parent_span_id: u64,
    pub n_args: u32,
    pub args: [(&'static str, ArgValue); MAX_ARGS],
}

impl Default for SpanRecord {
    fn default() -> Self {
        SpanRecord {
            name: "",
            cat: "",
            start_ns: 0,
            dur_ns: 0,
            depth: 0,
            trace_id: 0,
            span_id: 0,
            parent_span_id: 0,
            n_args: 0,
            args: [("", ArgValue::None); MAX_ARGS],
        }
    }
}

impl SpanRecord {
    /// Iterator over the populated arguments.
    pub fn args(&self) -> impl Iterator<Item = (&'static str, ArgValue)> + '_ {
        self.args.iter().take(self.n_args as usize).copied()
    }
}

// ---------------------------------------------------------------------------
// Global tracer
// ---------------------------------------------------------------------------

/// Per-thread buffer registered with the global tracer.
pub struct ThreadBuf {
    /// Stable small id assigned at registration (used as Chrome `tid`).
    pub tid: u64,
    /// Thread name at registration time (or `thread-<tid>`).
    pub name: String,
    ring: Ring<SpanRecord>,
}

struct Tracer {
    enabled: AtomicBool,
    threads: Mutex<Vec<Arc<ThreadBuf>>>,
    next_tid: AtomicU64,
}

static TRACER: OnceLock<Tracer> = OnceLock::new();

fn tracer() -> &'static Tracer {
    TRACER.get_or_init(|| Tracer {
        enabled: AtomicBool::new(false),
        threads: Mutex::new(Vec::new()),
        next_tid: AtomicU64::new(1),
    })
}

/// Turns span recording on or off at runtime. Enabling also pins the
/// trace epoch.
pub fn set_enabled(on: bool) {
    if on {
        epoch();
    }
    tracer().enabled.store(on, Ordering::Release);
}

/// Whether span recording is currently on.
#[inline]
pub fn enabled() -> bool {
    if cfg!(feature = "off") {
        return false;
    }
    tracer().enabled.load(Ordering::Relaxed)
}

thread_local! {
    static LOCAL: RefCell<Option<LocalState>> = const { RefCell::new(None) };
}

struct LocalState {
    buf: Arc<ThreadBuf>,
    depth: u32,
    /// Span ids of the guards currently open on this thread, innermost
    /// last. Guards usually drop LIFO; out-of-order drops are handled
    /// by removing by value.
    open: Vec<u64>,
}

fn with_local<R>(f: impl FnOnce(&mut LocalState) -> R) -> R {
    LOCAL.with(|cell| {
        let mut slot = cell.borrow_mut();
        let state = slot.get_or_insert_with(|| {
            let t = tracer();
            let tid = t.next_tid.fetch_add(1, Ordering::Relaxed);
            let name = std::thread::current()
                .name()
                .map(|s| s.to_owned())
                .unwrap_or_else(|| format!("thread-{tid}"));
            let buf = Arc::new(ThreadBuf {
                tid,
                name,
                ring: Ring::new(),
            });
            t.threads.lock().unwrap().push(buf.clone());
            LocalState {
                buf,
                depth: 0,
                open: Vec::new(),
            }
        });
        f(state)
    })
}

/// A drained view of the whole tracer: one entry per thread that ever
/// recorded a span, plus the global drop count.
pub struct TraceDump {
    pub threads: Vec<ThreadDump>,
}

pub struct ThreadDump {
    pub tid: u64,
    pub name: String,
    pub spans: Vec<SpanRecord>,
    pub dropped: u64,
}

impl TraceDump {
    pub fn span_count(&self) -> usize {
        self.threads.iter().map(|t| t.spans.len()).sum()
    }
    pub fn dropped(&self) -> u64 {
        self.threads.iter().map(|t| t.dropped).sum()
    }
}

/// Consumes every span recorded since the previous drain, across all
/// threads. Safe to call while other threads keep recording (their
/// in-flight spans land in the next drain).
///
/// Ring overflow is surfaced as the `obs_spans_dropped_total` counter:
/// each drain exports the increment of the (cumulative) per-ring drop
/// counts since the previous drain, so silent span loss under pressure
/// shows up in every metrics artifact and in shipped deltas. Drains are
/// serialized by the thread-registry lock, which makes the watermark
/// below race-free.
pub fn drain() -> TraceDump {
    static DROPPED_EXPORTED: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    static DROPPED_TOTAL: std::sync::OnceLock<std::sync::Arc<crate::metrics::Counter>> =
        std::sync::OnceLock::new();
    let threads = tracer().threads.lock().unwrap();
    let mut out = Vec::with_capacity(threads.len());
    for buf in threads.iter() {
        out.push(ThreadDump {
            tid: buf.tid,
            name: buf.name.clone(),
            spans: buf.ring.drain(),
            dropped: buf.ring.dropped(),
        });
    }
    let total: u64 = out.iter().map(|t| t.dropped).sum();
    let prev = DROPPED_EXPORTED.swap(total, std::sync::atomic::Ordering::Relaxed);
    if total > prev {
        crate::metrics::counter_cached(&DROPPED_TOTAL, "obs_spans_dropped_total").add(total - prev);
    }
    TraceDump { threads: out }
}

// ---------------------------------------------------------------------------
// SpanGuard
// ---------------------------------------------------------------------------

/// RAII handle for an in-progress span; records on drop.
pub struct SpanGuard {
    active: bool,
    name: &'static str,
    cat: &'static str,
    start_ns: u64,
    depth: u32,
    trace_id: u64,
    span_id: u64,
    parent_span_id: u64,
    n_args: u32,
    args: [(&'static str, ArgValue); MAX_ARGS],
}

impl SpanGuard {
    #[inline]
    fn inert() -> SpanGuard {
        SpanGuard {
            active: false,
            name: "",
            cat: "",
            start_ns: 0,
            depth: 0,
            trace_id: 0,
            span_id: 0,
            parent_span_id: 0,
            n_args: 0,
            args: [("", ArgValue::None); MAX_ARGS],
        }
    }

    /// Attaches an argument (builder style). Silently ignored past
    /// [`MAX_ARGS`] or on an inert guard.
    #[inline]
    pub fn arg(mut self, key: &'static str, value: impl Into<ArgValue>) -> SpanGuard {
        self.set_arg(key, value);
        self
    }

    /// [`arg`](Self::arg) with a value computed only when the span
    /// records, e.g. an [`intern`]ed string, which takes a process-wide
    /// lock.
    #[inline]
    pub fn arg_with<V: Into<ArgValue>>(
        mut self,
        key: &'static str,
        value: impl FnOnce() -> V,
    ) -> SpanGuard {
        if self.active {
            self.set_arg(key, value());
        }
        self
    }

    /// Attaches an argument after construction (e.g. a result computed
    /// inside the span).
    #[inline]
    pub fn set_arg(&mut self, key: &'static str, value: impl Into<ArgValue>) {
        if self.active && (self.n_args as usize) < MAX_ARGS {
            self.args[self.n_args as usize] = (key, value.into());
            self.n_args += 1;
        }
    }

    /// This span's id (0 on an inert guard).
    #[inline]
    pub fn span_id(&self) -> u64 {
        self.span_id
    }

    /// Context for work caused by this span on *other* threads/ranks:
    /// same trace, parented to this span. On an inert guard the
    /// currently installed context passes through unchanged, so
    /// propagation keeps flowing even when recording is off.
    #[inline]
    pub fn ctx_for_children(&self) -> TraceCtx {
        if self.active && self.trace_id != 0 {
            TraceCtx {
                trace_id: self.trace_id,
                parent_span_id: self.span_id,
            }
        } else {
            current_ctx()
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        // A span open while its thread unwinds still records (this Drop
        // runs during the unwind) and is flagged so exports show where
        // the crash happened. Guaranteed even at MAX_ARGS: the last
        // argument slot is sacrificed.
        if std::thread::panicking() {
            let slot = (self.n_args as usize).min(MAX_ARGS - 1);
            self.args[slot] = ("panicked", ArgValue::U64(1));
            self.n_args = (slot + 1) as u32;
        }
        let end = now_ns();
        let rec = SpanRecord {
            name: self.name,
            cat: self.cat,
            start_ns: self.start_ns,
            dur_ns: end.saturating_sub(self.start_ns),
            depth: self.depth,
            trace_id: self.trace_id,
            span_id: self.span_id,
            parent_span_id: self.parent_span_id,
            n_args: self.n_args,
            args: self.args,
        };
        with_local(|l| {
            l.depth = l.depth.saturating_sub(1);
            // Usually LIFO; tolerate out-of-order guard drops.
            if let Some(i) = l.open.iter().rposition(|&id| id == rec.span_id) {
                l.open.remove(i);
            }
            l.buf.ring.push(rec);
        });
    }
}

/// Opens a span on the current thread. The returned guard records the
/// span when dropped; bind it (`let _span = ...`) so it lives for the
/// region being timed.
#[cfg(not(feature = "off"))]
#[inline]
pub fn span(name: &'static str, cat: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard::inert();
    }
    let ctx = current_ctx();
    let span_id = next_span_id();
    let (depth, parent_span_id) = with_local(|l| {
        let d = l.depth;
        l.depth += 1;
        let parent = l.open.last().copied().unwrap_or(ctx.parent_span_id);
        l.open.push(span_id);
        (d, parent)
    });
    SpanGuard {
        active: true,
        name,
        cat,
        start_ns: now_ns(),
        depth,
        trace_id: ctx.trace_id,
        span_id,
        parent_span_id,
        n_args: 0,
        args: [("", ArgValue::None); MAX_ARGS],
    }
}

/// `off` feature: spans compile to an inert guard with no atomics.
#[cfg(feature = "off")]
#[inline(always)]
pub fn span(_name: &'static str, _cat: &'static str) -> SpanGuard {
    SpanGuard::inert()
}

/// Records a span whose start was captured earlier as an `Instant`
/// (e.g. job queue-wait measured across scheduler loop iterations).
/// Recorded at depth 0 on the calling thread, linked to the thread's
/// currently installed context. Returns the span id (0 when disabled).
pub fn complete_span(
    name: &'static str,
    cat: &'static str,
    start: Instant,
    end: Instant,
    args: &[(&'static str, ArgValue)],
) -> u64 {
    complete_span_ctx(name, cat, start, end, current_ctx(), args)
}

/// [`complete_span`] with an explicit context — for call sites (like
/// the scheduler) that track many jobs at once and cannot keep a
/// context installed per job.
pub fn complete_span_ctx(
    name: &'static str,
    cat: &'static str,
    start: Instant,
    end: Instant,
    ctx: TraceCtx,
    args: &[(&'static str, ArgValue)],
) -> u64 {
    if !enabled() {
        return 0;
    }
    let start_ns = instant_ns(start);
    let end_ns = instant_ns(end);
    let span_id = next_span_id();
    let mut rec = SpanRecord {
        name,
        cat,
        start_ns,
        dur_ns: end_ns.saturating_sub(start_ns),
        trace_id: ctx.trace_id,
        span_id,
        parent_span_id: ctx.parent_span_id,
        ..SpanRecord::default()
    };
    for &(k, v) in args.iter().take(MAX_ARGS) {
        rec.args[rec.n_args as usize] = (k, v);
        rec.n_args += 1;
    }
    with_local(|l| l.buf.ring.push(rec));
    span_id
}

#[cfg(all(test, not(feature = "off")))]
mod tests {
    use super::*;

    // The tracer is global; tests that need it enabled share this lock
    // so drains don't steal each other's spans.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_span_records_nothing() {
        let _g = TEST_LOCK.lock().unwrap();
        set_enabled(false);
        drain();
        {
            let _s = span("noop", "test");
        }
        assert_eq!(drain().span_count(), 0);
    }

    #[test]
    fn span_nesting_depths() {
        let _g = TEST_LOCK.lock().unwrap();
        set_enabled(true);
        drain();
        {
            let _outer = span("outer", "test");
            {
                let _mid = span("mid", "test");
                let _inner = span("inner", "test");
            }
            let _sibling = span("sibling", "test");
        }
        set_enabled(false);
        let dump = drain();
        let all: Vec<SpanRecord> = dump
            .threads
            .iter()
            .flat_map(|t| t.spans.iter().copied())
            .filter(|s| s.cat == "test")
            .collect();
        // Spans close innermost-first.
        let names: Vec<&str> = all.iter().map(|s| s.name).collect();
        assert_eq!(names, vec!["inner", "mid", "sibling", "outer"]);
        let depth_of = |n: &str| all.iter().find(|s| s.name == n).unwrap().depth;
        assert_eq!(depth_of("outer"), 0);
        assert_eq!(depth_of("mid"), 1);
        assert_eq!(depth_of("inner"), 2);
        assert_eq!(depth_of("sibling"), 1);
        // The outer span encloses the inner ones.
        let outer = all.iter().find(|s| s.name == "outer").unwrap();
        let inner = all.iter().find(|s| s.name == "inner").unwrap();
        assert!(outer.start_ns <= inner.start_ns);
        assert!(outer.start_ns + outer.dur_ns >= inner.start_ns + inner.dur_ns);
        // Same-thread nesting is mirrored in the parent links.
        let id_of = |n: &str| all.iter().find(|s| s.name == n).unwrap().span_id;
        let parent_of = |n: &str| all.iter().find(|s| s.name == n).unwrap().parent_span_id;
        assert_eq!(parent_of("mid"), id_of("outer"));
        assert_eq!(parent_of("inner"), id_of("mid"));
        assert_eq!(parent_of("sibling"), id_of("outer"));
        assert_eq!(parent_of("outer"), 0, "no context installed");
    }

    #[test]
    fn span_args_and_overflow() {
        let _g = TEST_LOCK.lock().unwrap();
        set_enabled(true);
        drain();
        {
            let mut s = span("argsy", "test")
                .arg("a", 1u64)
                .arg("b", 2.5f64)
                .arg("c", "x");
            s.set_arg("d", 4u64);
            s.set_arg("e", 5u64);
            s.set_arg("f", 6u64);
            s.set_arg("overflow", 7u64); // beyond MAX_ARGS, dropped
        }
        set_enabled(false);
        let dump = drain();
        let rec = dump
            .threads
            .iter()
            .flat_map(|t| t.spans.iter())
            .find(|s| s.name == "argsy")
            .copied()
            .unwrap();
        assert_eq!(rec.n_args as usize, MAX_ARGS);
        let args: Vec<_> = rec.args().collect();
        assert_eq!(args[0], ("a", ArgValue::U64(1)));
        assert_eq!(args[1], ("b", ArgValue::F64(2.5)));
        assert_eq!(args[2], ("c", ArgValue::Str("x")));
        assert_eq!(args[3], ("d", ArgValue::U64(4)));
        assert_eq!(args[5], ("f", ArgValue::U64(6)));
    }

    #[test]
    fn complete_span_uses_given_instants() {
        let _g = TEST_LOCK.lock().unwrap();
        set_enabled(true);
        drain();
        let start = Instant::now();
        std::thread::sleep(std::time::Duration::from_millis(2));
        complete_span(
            "queued",
            "test",
            start,
            Instant::now(),
            &[("job", ArgValue::U64(7))],
        );
        set_enabled(false);
        let dump = drain();
        let rec = dump
            .threads
            .iter()
            .flat_map(|t| t.spans.iter())
            .find(|s| s.name == "queued")
            .copied()
            .unwrap();
        assert!(rec.dur_ns >= 1_000_000, "dur {} too short", rec.dur_ns);
        assert_eq!(rec.args().next(), Some(("job", ArgValue::U64(7))));
    }

    #[test]
    fn threads_register_separately() {
        let _g = TEST_LOCK.lock().unwrap();
        set_enabled(true);
        drain();
        let h = std::thread::Builder::new()
            .name("obs-test-worker".into())
            .spawn(|| {
                let _s = span("remote", "test-thread");
            })
            .unwrap();
        h.join().unwrap();
        set_enabled(false);
        let dump = drain();
        let t = dump
            .threads
            .iter()
            .find(|t| t.spans.iter().any(|s| s.name == "remote"))
            .expect("worker thread registered");
        assert_eq!(t.name, "obs-test-worker");
    }

    #[test]
    fn intern_dedupes() {
        let a = intern("same-string");
        let b = intern(&String::from("same-string"));
        assert!(std::ptr::eq(a, b));
    }

    #[test]
    fn installed_ctx_links_spans_across_threads() {
        let _g = TEST_LOCK.lock().unwrap();
        set_enabled(true);
        drain();
        let ctx = TraceCtx::mint();
        assert!(ctx.is_some());
        // "Scheduler side": a span under the minted context.
        let dispatch_ctx = {
            let _install = install_ctx(ctx);
            let s = span("ctx-dispatch", "test-ctx");
            s.ctx_for_children()
        };
        assert_eq!(dispatch_ctx.trace_id, ctx.trace_id);
        assert_ne!(dispatch_ctx.parent_span_id, ctx.parent_span_id);
        // "Worker side": ship the derived ctx to another thread, as the
        // wire does, and open spans there.
        let h = std::thread::Builder::new()
            .name("obs-ctx-worker".into())
            .spawn(move || {
                let _install = install_ctx(dispatch_ctx);
                let _job = span("ctx-job", "test-ctx");
                let _load = span("ctx-load", "test-ctx");
            })
            .unwrap();
        h.join().unwrap();
        set_enabled(false);
        let dump = drain();
        let all: Vec<SpanRecord> = dump
            .threads
            .iter()
            .flat_map(|t| t.spans.iter().copied())
            .filter(|s| s.cat == "test-ctx")
            .collect();
        let find = |n: &str| all.iter().find(|s| s.name == n).copied().unwrap();
        let dispatch = find("ctx-dispatch");
        let job = find("ctx-job");
        let load = find("ctx-load");
        for s in [&dispatch, &job, &load] {
            assert_eq!(s.trace_id, ctx.trace_id, "{} trace id", s.name);
            assert_ne!(s.span_id, 0);
        }
        assert_eq!(dispatch.parent_span_id, ctx.parent_span_id);
        assert_eq!(job.parent_span_id, dispatch.span_id);
        assert_eq!(load.parent_span_id, job.span_id);
        // The install guard restored the empty context on both threads.
        assert_eq!(current_ctx(), TraceCtx::default());
    }

    #[test]
    fn panicking_thread_still_records_flagged_span() {
        let _g = TEST_LOCK.lock().unwrap();
        set_enabled(true);
        drain();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _outer = span("panic-outer", "test-panic");
            let mut full = span("panic-full", "test-panic");
            for k in ["a", "b", "c", "d", "e", "f"] {
                full.set_arg(k, 1u64);
            }
            panic!("boom");
        }));
        assert!(result.is_err());
        // Depth bookkeeping must survive the unwind: a fresh top-level
        // span on this thread records at depth 0 with no stale parent.
        {
            let _after = span("panic-after", "test-panic");
        }
        set_enabled(false);
        let dump = drain();
        let all: Vec<SpanRecord> = dump
            .threads
            .iter()
            .flat_map(|t| t.spans.iter().copied())
            .filter(|s| s.cat == "test-panic")
            .collect();
        let find = |n: &str| all.iter().find(|s| s.name == n).copied().unwrap();
        let outer = find("panic-outer");
        let full = find("panic-full");
        let after = find("panic-after");
        let panicked = |s: &SpanRecord| {
            s.args()
                .any(|(k, v)| k == "panicked" && v == ArgValue::U64(1))
        };
        assert!(panicked(&outer), "unwound span must be flagged");
        assert!(
            panicked(&full),
            "flag must land even with all arg slots taken"
        );
        assert_eq!(full.n_args as usize, MAX_ARGS, "no slot overflow");
        assert!(!panicked(&after));
        assert_eq!(after.depth, 0);
        assert_eq!(after.parent_span_id, 0);
    }
}
