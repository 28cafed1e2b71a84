//! The harness's own span recorder and the analysis of what it recorded.
//!
//! Spans are opened by the harness around every call into a layer
//! (`<layer>.<what>` names), kept in per-thread vectors and written out
//! once at exit. All ranks are threads of one process, so one `Instant`
//! epoch orders every span. The library's own tracer (`vira_obs::span`)
//! stays at its runtime-disabled default.
//!
//! Two readings come out of a traced run:
//!
//! * **self time** per span name: a span's duration minus the part its
//!   child spans cover, summed over all ranks;
//! * the **blocking path** of each job: starting from the moment the
//!   client decoded the last message, walk backwards along whichever
//!   thread the result was waiting for — through a wait span to the
//!   sender of the message that ended it — until the submit. Every
//!   nanosecond of the job's wall lands on one span name, on
//!   `comm.transit` (send call → receiver's `recv` returned) or on `gap`
//!   (no span open on the blocking thread).

use crate::alloc;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Spans are being recorded right now. The client flips this between
/// jobs only, while every worker is idle.
static ON: AtomicBool = AtomicBool::new(false);
static EPOCH: OnceLock<Instant> = OnceLock::new();
static COLLECTED: Mutex<Vec<Vec<Span>>> = Mutex::new(Vec::new());
/// Thread ids 0..=2 are the ranks; library threads get 3, 4, ….
static NEXT_BACKGROUND_TID: AtomicU8 = AtomicU8::new(3);

const NONE: u32 = u32::MAX;
pub const NO_JOB: u64 = u64::MAX;
pub const NO_PEER: u8 = u8::MAX;

pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

pub fn set_on(on: bool) {
    ON.store(on, Ordering::SeqCst);
}

pub fn is_on() -> bool {
    ON.load(Ordering::Relaxed)
}

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub tid: u8,
    pub start: u64,
    pub end: u64,
    /// Index of the enclosing span in the same thread's vector.
    pub parent: u32,
    pub job: u64,
    /// For a wait span: the rank whose message ended the wait, and when
    /// that rank called `send`.
    pub peer: u8,
    pub sent_ns: u64,
    /// Allocation calls / bytes requested by this thread while open.
    pub allocs: u64,
    pub alloc_bytes: u64,
}

struct Local {
    tid: u8,
    job: u64,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Drop for Local {
    fn drop(&mut self) {
        if !self.spans.is_empty() {
            if let Ok(mut all) = COLLECTED.lock() {
                all.push(std::mem::take(&mut self.spans));
            }
        }
    }
}

thread_local! {
    static LOCAL: RefCell<Local> = const { RefCell::new(Local {
        tid: NO_PEER,
        job: NO_JOB,
        spans: Vec::new(),
        stack: Vec::new(),
    }) };
}

/// Names the calling harness thread by its rank.
pub fn set_thread(rank: usize) {
    LOCAL.with(|l| l.borrow_mut().tid = rank as u8);
}

/// Spans opened on this thread from now on belong to `job`.
pub fn set_job(job: u64) {
    LOCAL.with(|l| l.borrow_mut().job = job);
}

/// Hands the calling thread's spans to the collector (threads that exit
/// do so on their own).
pub fn flush_thread() {
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let spans = std::mem::take(&mut l.spans);
        l.stack.clear();
        if !spans.is_empty() {
            COLLECTED
                .lock()
                .expect("span collector poisoned")
                .push(spans);
        }
    });
}

pub fn take_collected() -> Vec<Vec<Span>> {
    std::mem::take(&mut *COLLECTED.lock().expect("span collector poisoned"))
}

fn push(l: &mut Local, name: &'static str, start: u64, end: u64, peer: u8, sent_ns: u64) -> u32 {
    if l.tid == NO_PEER {
        l.tid = NEXT_BACKGROUND_TID.fetch_add(1, Ordering::Relaxed);
    }
    let (allocs, alloc_bytes) = alloc::thread_counts();
    let idx = l.spans.len() as u32;
    l.spans.push(Span {
        name,
        tid: l.tid,
        start,
        end,
        parent: l.stack.last().copied().unwrap_or(NONE),
        job: l.job,
        peer,
        sent_ns,
        allocs,
        alloc_bytes,
    });
    idx
}

/// Closes its span when dropped.
pub struct Guard(u32);

/// Opens a span on the calling thread; inert while recording is off.
pub fn span(name: &'static str) -> Guard {
    if !is_on() {
        return Guard(NONE);
    }
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let idx = push(&mut l, name, now_ns(), 0, NO_PEER, 0);
        l.stack.push(idx);
        Guard(idx)
    })
}

impl Drop for Guard {
    fn drop(&mut self) {
        if self.0 == NONE {
            return;
        }
        let end = now_ns();
        let (allocs, alloc_bytes) = alloc::thread_counts();
        LOCAL.with(|l| {
            let mut l = l.borrow_mut();
            l.stack.pop();
            // A flush between open and close leaves nothing to close.
            if let Some(s) = l.spans.get_mut(self.0 as usize) {
                s.end = end;
                s.allocs = allocs - s.allocs;
                s.alloc_bytes = alloc_bytes - s.alloc_bytes;
            }
        });
    }
}

/// Records a blocking receive after the fact: `[start, end]` is the time
/// spent inside `recv`, `peer` sent the message at `sent_ns`.
pub fn record_wait(name: &'static str, start: u64, end: u64, peer: usize, sent_ns: u64) {
    if !is_on() {
        return;
    }
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let idx = push(&mut l, name, start, end, peer as u8, sent_ns);
        let s = &mut l.spans[idx as usize];
        s.allocs = 0;
        s.alloc_bytes = 0;
    });
}

/// Layer of a span name: the part before the first dot.
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

#[derive(Default, Clone, Debug)]
pub struct NameStat {
    pub count: u64,
    pub self_ns: u64,
    pub total_ns: u64,
    pub self_allocs: u64,
    pub self_alloc_bytes: u64,
    /// Time this name spent on the blocking path of some job.
    pub path_ns: u64,
}

pub struct Analysis {
    pub names: BTreeMap<&'static str, NameStat>,
    /// Σ wall of the analysed jobs.
    pub wall_ns: u64,
    pub jobs: usize,
}

impl Analysis {
    /// Share of the analysed jobs' wall that the blocking path spent in
    /// spans of `layer`.
    pub fn path_share(&self, layer: &str) -> f64 {
        let ns: u64 = self
            .names
            .iter()
            .filter(|(n, _)| layer_of(n) == layer)
            .map(|(_, s)| s.path_ns)
            .sum();
        ns as f64 / self.wall_ns.max(1) as f64
    }

    /// Blocking-path time that landed on some span or on a transit,
    /// over the jobs' wall.
    pub fn coverage(&self) -> f64 {
        let gap = self.names.get("gap").map_or(0, |s| s.path_ns);
        (self.wall_ns - gap.min(self.wall_ns)) as f64 / self.wall_ns.max(1) as f64
    }

    fn per_job_ms(&self, ns: u64) -> f64 {
        ns as f64 / 1e6 / self.jobs.max(1) as f64
    }

    /// Mean self time per analysed job of one span name, all ranks, ms.
    pub fn self_ms(&self, name: &str) -> f64 {
        self.per_job_ms(self.names.get(name).map_or(0, |s| s.self_ns))
    }

    /// Mean inclusive time per analysed job of one span name, ms.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.per_job_ms(self.names.get(name).map_or(0, |s| s.total_ns))
    }

    pub fn layer_allocs_per_job(&self, layer: &str) -> (f64, f64) {
        let (mut c, mut b) = (0u64, 0u64);
        for (n, s) in &self.names {
            if layer_of(n) == layer {
                c += s.self_allocs;
                b += s.self_alloc_bytes;
            }
        }
        let j = self.jobs.max(1) as f64;
        (c as f64 / j, b as f64 / 1e6 / j)
    }

    /// The per-layer table: one row per span name.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<22} {:>9} {:>12} {:>12} {:>8} {:>11}\n",
            "span", "calls/job", "self ms/job", "path ms/job", "path %", "allocs/job"
        ));
        for (name, s) in &self.names {
            out.push_str(&format!(
                "{:<22} {:>9.1} {:>12.4} {:>12.4} {:>8.2} {:>11.1}\n",
                name,
                s.count as f64 / self.jobs.max(1) as f64,
                self.per_job_ms(s.self_ns),
                self.per_job_ms(s.path_ns),
                100.0 * s.path_ns as f64 / self.wall_ns.max(1) as f64,
                s.self_allocs as f64 / self.jobs.max(1) as f64,
            ));
        }
        out
    }
}

struct Seg {
    start: u64,
    end: u64,
    span: u32,
}

/// Cuts one thread's nested spans into non-overlapping self-time
/// segments, ascending, and adds each span's self figures to `names`.
fn flatten(spans: &[Span], names: &mut BTreeMap<&'static str, NameStat>) -> Vec<Seg> {
    let mut kids: Vec<Vec<u32>> = vec![Vec::new(); spans.len()];
    let mut roots = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        match s.parent {
            NONE => roots.push(i as u32),
            p => kids[p as usize].push(i as u32),
        }
    }
    fn emit(i: u32, spans: &[Span], kids: &[Vec<u32>], out: &mut Vec<Seg>) {
        let s = &spans[i as usize];
        let mut cur = s.start;
        for &k in &kids[i as usize] {
            let c = &spans[k as usize];
            if c.end <= c.start {
                continue; // never closed
            }
            if c.start > cur {
                out.push(Seg {
                    start: cur,
                    end: c.start,
                    span: i,
                });
            }
            emit(k, spans, kids, out);
            cur = cur.max(c.end);
        }
        if s.end > cur {
            out.push(Seg {
                start: cur,
                end: s.end,
                span: i,
            });
        }
    }
    let mut out = Vec::new();
    for &r in &roots {
        if spans[r as usize].end > spans[r as usize].start {
            emit(r, spans, &kids, &mut out);
        }
    }
    for (i, s) in spans.iter().enumerate() {
        if s.end <= s.start {
            continue;
        }
        let (mut covered, mut ka, mut kb) = (0u64, 0u64, 0u64);
        for &k in &kids[i] {
            let c = &spans[k as usize];
            covered += c.end.saturating_sub(c.start);
            ka += c.allocs;
            kb += c.alloc_bytes;
        }
        let st = names.entry(s.name).or_default();
        st.count += 1;
        st.total_ns += s.end - s.start;
        st.self_ns += (s.end - s.start).saturating_sub(covered);
        st.self_allocs += s.allocs.saturating_sub(ka);
        st.self_alloc_bytes += s.alloc_bytes.saturating_sub(kb);
    }
    out
}

/// Analyses the collected spans against the traced jobs, given as
/// `(job id, submit ns, done ns)` on the client thread (tid 0).
pub fn analyze(threads: &[Vec<Span>], jobs: &[(u64, u64, u64)]) -> Analysis {
    let mut names: BTreeMap<&'static str, NameStat> = BTreeMap::new();
    // One span vector per thread id: a thread that flushed twice
    // contributes two vectors, kept apart (indices are per vector).
    type Flattened<'a> = (&'a Vec<Span>, Vec<Seg>);
    let mut by_tid: BTreeMap<u8, Vec<Flattened>> = BTreeMap::new();
    for spans in threads {
        let Some(first) = spans.first() else { continue };
        let segs = flatten(spans, &mut names);
        by_tid.entry(first.tid).or_default().push((spans, segs));
    }
    let mut wall_ns = 0u64;
    for &(_, start, end) in jobs {
        wall_ns += end - start;
        let (mut t, mut tid) = (end, 0u8);
        while t > start {
            // The segment that was open on `tid` just before `t`.
            let found = by_tid.get(&tid).and_then(|vs| {
                vs.iter()
                    .filter_map(|(spans, segs)| {
                        let i = segs.partition_point(|s| s.start < t);
                        (i > 0).then(|| (&segs[i - 1], *spans))
                    })
                    .max_by_key(|(seg, _)| seg.start)
            });
            let Some((seg, spans)) = found else {
                names.entry("gap").or_default().path_ns += t - start;
                break;
            };
            if seg.end < t {
                let lo = seg.end.max(start);
                names.entry("gap").or_default().path_ns += t - lo;
                t = lo;
                continue;
            }
            let lo = seg.start.max(start);
            let sp = &spans[seg.span as usize];
            if sp.peer != NO_PEER {
                let transit = names.entry("comm.transit").or_default();
                if sp.sent_ns > lo && sp.sent_ns < t {
                    // The receiver sat idle until the sender got this
                    // far: the path continues on the sender.
                    transit.path_ns += t - sp.sent_ns;
                    t = sp.sent_ns;
                    tid = sp.peer;
                } else {
                    // Sent before the wait began: the receiver itself
                    // was the late one.
                    transit.path_ns += t - lo;
                    t = lo;
                }
            } else {
                names.entry(sp.name).or_default().path_ns += t - lo;
                t = lo;
            }
        }
    }
    Analysis {
        names,
        wall_ns,
        jobs: jobs.len(),
    }
}

/// Writes the spans as Chrome trace-event JSON (`chrome://tracing`,
/// ui.perfetto.dev): `ts`/`dur` in microseconds, `tid` = rank (3+ for
/// library threads), `args` carry the job id and the parent span.
pub fn write_json(path: &std::path::Path, threads: &[Vec<Span>]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    w.write_all(b"{\"traceEvents\":[\n")?;
    let mut first = true;
    for (v, spans) in threads.iter().enumerate() {
        for (i, s) in spans.iter().enumerate() {
            if s.end <= s.start {
                continue;
            }
            if !first {
                w.write_all(b",\n")?;
            }
            first = false;
            write!(
                w,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":0,\"tid\":{},\"args\":{{\"id\":\"{}.{}\"",
                s.name,
                layer_of(s.name),
                s.start as f64 / 1e3,
                (s.end - s.start) as f64 / 1e3,
                s.tid,
                v,
                i
            )?;
            if s.parent != NONE {
                write!(w, ",\"parent\":\"{}.{}\"", v, s.parent)?;
            }
            if s.job != NO_JOB {
                write!(w, ",\"job\":{}", s.job)?;
            }
            if s.peer != NO_PEER {
                write!(
                    w,
                    ",\"from\":{},\"sent_us\":{:.3}",
                    s.peer,
                    s.sent_ns as f64 / 1e3
                )?;
            }
            w.write_all(b"}}")?;
        }
    }
    w.write_all(b"\n]}\n")?;
    w.flush()
}
