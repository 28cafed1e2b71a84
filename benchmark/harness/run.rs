//! One benchmark run: set-up (three times, median reported), the
//! closed-loop timed phase, verification, and the metrics.

use crate::alloc;
use crate::data::{Dataset, RunDir};
use crate::job::{self, Job, Kind};
use crate::stats::{self, fnv1a, FNV_OFFSET};
use crate::trace::{self, span};
use crate::workload::{JobStream, Mix, Workload};
use crate::world::{Counters, Link, TransportKind, World, N_RANKS, N_WORKERS};
use bytes::Bytes;
use std::fmt::Write as _;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};
use vira_comm::transport::tags;
use vira_comm::Group;
use vira_dms::DmsStatsSnapshot;
use vira_extract::mesh::{Polyline, TriangleSoup};

pub struct Args {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Append the full result record (JSON line) to this file.
    pub out: Option<std::path::PathBuf>,
}

/// Set-up runs this many times; `setup_s` is the median.
const SETUPS: usize = 3;
/// Per-layer counts are taken over the first this-many timed jobs, so
/// they do not depend on how many jobs the machine fits into the run.
const COUNT_WINDOW: usize = 64;
/// Every this-many-th timed job is checked against its reference. Odd,
/// so that the references walk through the one-in-four λ₂ pattern and
/// cost the same set-up time whatever the seed.
const REF_STRIDE: usize = 7;
const LAYERS: [&str; 5] = ["grid", "storage", "dms", "extract", "comm"];

/// Which timed jobs a traced run records: every other group of four, so
/// recorded and unrecorded jobs alternate through the whole run and —
/// the λ₂ job being one of every four — both see the same mix.
fn recorded(job_index: usize) -> bool {
    (job_index / 4) % 2 == 1
}

/// What the serial direct path says a job must deliver.
struct Reference {
    job: Job,
    /// Triangles, or polyline points.
    items: u64,
    digest: u64,
}

/// What the client saw of one job.
struct Outcome {
    submit_ns: u64,
    first_ns: u64,
    done_ns: u64,
    geometry_bytes: u64,
    items: u64,
    /// Transport worked, every payload decoded, no rank reported failure.
    delivered: bool,
    finite: bool,
    /// Kept for reference jobs only.
    digest: Option<u64>,
}

impl Outcome {
    fn wall_ns(&self) -> u64 {
        self.done_ns - self.submit_ns
    }

    fn ttfg_ns(&self) -> u64 {
        self.first_ns.saturating_sub(self.submit_ns)
    }
}

/// The timed phase is judged slice by slice: this many stretches of
/// equal job time. Five leaves a 20 s run about fifty jobs per slice on
/// the slowest workload, enough for a slice's p95 to sit inside the
/// tail rather than beside it.
const SLICES: usize = 5;

/// Cuts the jobs, in order, into [`SLICES`] stretches of equal summed
/// job wall (one stretch when there are too few jobs to cut).
fn time_slices(outcomes: &[Outcome]) -> Vec<&[Outcome]> {
    if outcomes.len() < 20 * SLICES {
        return vec![outcomes];
    }
    let total: u64 = outcomes.iter().map(Outcome::wall_ns).sum();
    let mut cuts = Vec::with_capacity(SLICES);
    let (mut start, mut elapsed) = (0, 0u64);
    for (i, o) in outcomes.iter().enumerate() {
        elapsed += o.wall_ns();
        if elapsed * SLICES as u64 >= total * (cuts.len() as u64 + 1) && cuts.len() < SLICES - 1 {
            cuts.push(&outcomes[start..=i]);
            start = i + 1;
        }
    }
    cuts.push(&outcomes[start..]);
    cuts.retain(|s| !s.is_empty());
    cuts
}

/// The quartile on the good side of the slice values — of five, the
/// second best. Interference from outside the process only ever slows a
/// slice down, so the quieter slices say more about the code than the
/// whole run does, and a change to the code moves every slice.
fn quiet_quartile(per_slice: Vec<f64>, lower_is_better: bool) -> f64 {
    let v = stats::sorted(per_slice);
    if lower_is_better {
        stats::percentile(&v, 25.0)
    } else {
        stats::percentile(&v, 75.0)
    }
}

fn digest_of_streams(per_rank: &[u64]) -> u64 {
    per_rank
        .iter()
        .fold(FNV_OFFSET, |h, d| fnv1a(h, &d.to_le_bytes()))
}

/// Runs `job` by the serial direct path: one thread, blocks straight
/// from the data source, no DMS, no transport.
fn reference(job: &Job, ds: &Dataset) -> Result<Reference, String> {
    let group = Group::new((1..N_RANKS).collect());
    let n_blocks = ds.spec.n_blocks as usize;
    let fetch = |b: usize| {
        ds.source
            .fetch(vira_grid::block::BlockStepId::new(b as u32, job.step))
            .map_err(|e| format!("reference fetch: {e}"))
    };
    let (items, digest) = match job.kind {
        Kind::Iso | Kind::Lambda2 => {
            let mut soup = TriangleSoup::new();
            for b in 0..n_blocks {
                job::contour_into(job.kind, &*fetch(b)?, job.value, &mut soup);
            }
            (
                soup.n_triangles() as u64,
                fnv1a(FNV_OFFSET, &job::encode_soup(&soup)),
            )
        }
        Kind::Progressive => {
            let (mut items, mut streams) = (0u64, Vec::new());
            for idx in 0..group.len() {
                let (start, len) = group.chunk_of(n_blocks, idx);
                let mut h = FNV_OFFSET;
                for b in start..start + len {
                    let data = fetch(b)?;
                    let stats = job::progressive_block(&data, job, |bytes| h = fnv1a(h, &bytes));
                    items += stats.triangles as u64;
                }
                streams.push(h);
            }
            (items, digest_of_streams(&streams))
        }
        Kind::Pathlines => {
            let topology = Arc::new(vira_grid::topology::BlockTopology::from_bboxes(
                ds.source
                    .block_bboxes()
                    .ok_or("dataset has no bounding boxes")?,
                1e-9,
            ));
            let mut parts = Vec::new();
            let mut points = 0u64;
            for idx in 0..group.len() {
                let lines =
                    job::trace_share(job, &ds.spec, &topology, &ds.bbox, idx, group.len(), |id| {
                        ds.source.fetch(id).ok()
                    });
                points += lines.iter().map(|l| l.len() as u64).sum::<u64>();
                parts.push(job::encode_lines(&lines));
            }
            let merged = job::merge_lines(&parts).ok_or("reference merge failed")?;
            (points, fnv1a(FNV_OFFSET, &merged))
        }
    };
    Ok(Reference {
        job: *job,
        items,
        digest,
    })
}

fn lines_finite(lines: &[Polyline]) -> bool {
    lines.iter().all(|l| {
        l.points
            .iter()
            .flatten()
            .chain(&l.times)
            .all(|c| c.is_finite())
    })
}

/// Submits `job` to both workers and collects its geometry: the client
/// side of the closed loop. The clock stops when the client knows the
/// job is complete — the merged package decoded, or the last rank's
/// end-of-stream marker received.
fn client_job(link: &Link, job: &Job, keep_digest: bool) -> Outcome {
    trace::set_job(job.id);
    let submit_ns = trace::now_ns();
    let mut out = Outcome {
        submit_ns,
        first_ns: 0,
        done_ns: 0,
        geometry_bytes: 0,
        items: 0,
        delivered: true,
        finite: true,
        digest: None,
    };
    let desc = job.encode();
    for rank in 1..N_RANKS {
        out.delivered &= link.send(rank, tags::COMMAND, desc.clone()).is_ok();
    }
    let mut soups: Vec<TriangleSoup> = Vec::new();
    let mut lines: Vec<Polyline> = Vec::new();
    let mut kept: Vec<(usize, Bytes)> = Vec::new();
    let mut streams_open = if job.is_streamed() { N_WORKERS } else { 1 };
    while out.delivered && streams_open > 0 {
        let Ok(r) = link.recv() else {
            out.delivered = false;
            break;
        };
        r.record("comm.client_wait");
        let payload = r.msg.payload;
        if r.msg.tag == tags::JOB_DONE && job.is_streamed() {
            out.delivered &= payload[..] == [1];
            streams_open -= 1;
            continue;
        }
        if r.msg.tag != tags::JOB_DONE && r.msg.tag != tags::CLIENT_EVENT {
            continue;
        }
        out.geometry_bytes += payload.len() as u64;
        if keep_digest {
            kept.push((r.msg.from, payload.clone()));
        }
        let decoded = {
            let _s = span("extract.decode");
            if job.kind == Kind::Pathlines {
                job::decode_lines(&payload).map(|l| lines.extend(l))
            } else {
                TriangleSoup::from_bytes(payload).map(|s| soups.push(s))
            }
        };
        out.delivered &= decoded.is_some();
        if out.first_ns == 0 {
            out.first_ns = trace::now_ns();
        }
        if r.msg.tag == tags::JOB_DONE {
            streams_open -= 1;
        }
    }
    out.done_ns = trace::now_ns();
    // Checks from here on are the benchmark's, not the system's: the
    // caller leaves their time out of the timed phase.
    trace::set_job(trace::NO_JOB);
    out.items = soups.iter().map(|s| s.n_triangles() as u64).sum::<u64>()
        + lines.iter().map(|l| l.len() as u64).sum::<u64>();
    out.finite = soups.iter().all(TriangleSoup::is_finite) && lines_finite(&lines);
    if keep_digest {
        out.digest = Some(if job.is_streamed() {
            let per_rank: Vec<u64> = (1..N_RANKS)
                .map(|rank| {
                    kept.iter()
                        .filter(|(from, _)| *from == rank)
                        .fold(FNV_OFFSET, |h, (_, p)| fnv1a(h, p))
                })
                .collect();
            digest_of_streams(&per_rank)
        } else {
            kept.first().map_or(0, |(_, p)| fnv1a(FNV_OFFSET, p))
        });
    }
    out
}

/// True when the job came back whole and, for a reference job, equal to
/// what the serial path computed.
fn job_passed(out: &Outcome, reference: Option<&Reference>) -> bool {
    out.delivered
        && out.finite
        && reference.is_none_or(|r| out.digest == Some(r.digest) && out.items == r.items)
}

/// Everything set-up produces.
struct Bench {
    dataset: Arc<Dataset>,
    world: World,
    refs: Vec<Reference>,
    /// Seconds per stage: dataset, references, world formation, warm-up.
    stages: [f64; 4],
}

/// One full set-up: dataset generation and materialisation, reference
/// results, world formation and the warm-up jobs.
fn setup(args: &Args, dir: &RunDir) -> Result<Bench, String> {
    let w = args.workload;
    let mut stages = [0.0; 4];
    let mut t = Instant::now();
    let mut lap = |stage: usize| {
        stages[stage] = t.elapsed().as_secs_f64();
        t = Instant::now();
    };
    let dataset = Arc::new(Dataset::build(w.data, dir.path())?);
    lap(0);

    let mut refs = Vec::new();
    let mut stream = JobStream::timed(w, args.seed);
    for i in 0..=(w.n_refs - 1) * REF_STRIDE {
        let job = stream.next_job();
        if i.is_multiple_of(REF_STRIDE) {
            refs.push(reference(&job, &dataset)?);
        }
    }
    lap(1);

    let world = World::form(w.transport, &dataset, w.proxy, dir, args.trace)?;
    lap(2);

    let mut warm = JobStream::warmup(w, args.seed);
    for _ in 0..w.n_warmup {
        let out = client_job(&world.client, &warm.next_job(), false);
        if !job_passed(&out, None) {
            let _ = world.shutdown();
            return Err("a warm-up job failed".into());
        }
    }
    lap(3);
    Ok(Bench {
        dataset,
        world,
        refs,
        stages,
    })
}

/// The counters whose per-job means the traced run reports, read at the
/// start of the timed phase and after `COUNT_WINDOW` jobs.
struct Counts {
    dms: DmsStatsSnapshot,
    alloc: (u64, u64),
    sent_bytes: u64,
    sent_messages: u64,
    hub_forwards: u64,
    triangles: u64,
    encoded_bytes: u64,
    cells_skipped: u64,
    bricks_skipped: u64,
    blocks: u64,
    active_blocks: u64,
    fetch_calls: u64,
    fetch_failed: u64,
    decode_calls: u64,
}

fn read_counts(b: &Bench) -> Counts {
    let c: &Counters = &b.world.counters;
    let get = |a: &std::sync::atomic::AtomicU64| a.load(Ordering::Relaxed);
    let fs = b.dataset.file_stats.as_deref();
    Counts {
        dms: b.world.dms_snapshot(),
        alloc: alloc::process_counts(),
        sent_bytes: get(&c.sent_bytes),
        sent_messages: get(&c.sent_messages),
        hub_forwards: get(&c.hub_forwards),
        triangles: get(&c.triangles),
        encoded_bytes: get(&c.encoded_bytes),
        cells_skipped: get(&c.cells_skipped),
        bricks_skipped: get(&c.bricks_skipped),
        blocks: get(&c.blocks),
        active_blocks: get(&c.active_blocks),
        fetch_calls: fs.map_or(0, |f| get(&f.fetch_calls)),
        fetch_failed: fs.map_or(0, |f| get(&f.fetch_failed)),
        decode_calls: fs.map_or(0, |f| get(&f.decode_calls)),
    }
}

/// Pairs of a `DmsStats` field (summed over every proxy the process
/// ever had) and the `vira_obs` registry counter bumped beside it.
fn registry_mismatches(total: &DmsStatsSnapshot) -> Vec<String> {
    let registry = vira_obs::metrics::snapshot();
    let pairs = [
        ("dms_demand_requests_total", total.demand_requests),
        ("dms_l1_hits_total", total.l1_hits),
        ("dms_l2_hits_total", total.l2_hits),
        ("dms_misses_total", total.misses),
        ("dms_prefetch_waits_total", total.prefetch_waits),
        ("dms_prefetch_issued_total", total.prefetch_issued),
        ("dms_prefetch_redundant_total", total.prefetch_redundant),
        ("dms_prefetch_hits_total", total.prefetch_hits),
        ("dms_fallback_total", total.fallbacks),
        ("dms_loads_fileserver_total", total.loads_by_strategy[0]),
        ("dms_loads_replica_total", total.loads_by_strategy[1]),
        ("dms_loads_peer_total", total.loads_by_strategy[2]),
    ];
    pairs
        .iter()
        .filter_map(|(name, stat)| {
            // A counter nobody bumped was never registered: that is 0.
            let live = registry.counter(name).unwrap_or(0);
            (live != *stat).then(|| format!("{name}: registry {live}, DmsStats {stat}"))
        })
        .collect()
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    /// For a ratio: the two numbers it was formed from.
    parts: Option<(f64, f64)>,
}

/// Metrics in printing order.
#[derive(Default)]
struct Metrics(Vec<Metric>);

impl Metrics {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.to_string(),
            value: if value.is_finite() { value } else { 0.0 },
            unit,
            parts: None,
        });
    }

    fn put_ratio(&mut self, name: &str, num: f64, den: f64) {
        self.put(name, ratio(num, den), "ratio");
        self.0.last_mut().expect("just pushed").parts = Some((num, den));
    }

    fn json(&self) -> String {
        let mut s = String::from("{");
        for (i, m) in self.0.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        s.push('}');
        s
    }

    fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value)
    }

    fn print(&self) {
        for m in &self.0 {
            print!("{:<28} {:>14.6} {}", m.name, m.value, m.unit);
            match m.parts {
                Some((n, d)) => println!("  ({n} / {d})"),
                None => println!(),
            }
        }
    }
}

fn sizes_json(w: &Workload, ds: &Dataset) -> String {
    let d = ds.spec.block_dims;
    format!(
        "{{\"dataset\": \"{}\", \"block_dims\": [{}, {}, {}], \"blocks\": {}, \"steps\": {}, \"dataset_mb\": {:.1}, \"transport\": \"{}\", \"l1_mb\": {}, \"l2_mb\": {}, \"prefetcher\": \"{}\", \"n_seeds\": {}, \"batch\": {}, \"levels\": {}}}",
        ds.spec.name,
        d.ni,
        d.nj,
        d.nk,
        ds.spec.n_blocks,
        ds.spec.n_steps,
        ds.bytes as f64 / 1e6,
        w.transport.name(),
        w.proxy.l1_bytes >> 20,
        w.proxy.l2_bytes.map_or(0, |b| b >> 20),
        w.proxy.prefetcher,
        w.n_seeds,
        w.batch,
        w.levels
    )
}

/// Runs the workload; the process exit code.
pub fn run(args: &Args) -> Result<i32, String> {
    alloc::register_thread();
    trace::set_thread(0);
    let w = args.workload;
    let dir = RunDir::create().map_err(|e| format!("creating benchmark/out: {e}"))?;
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());

    // Set-up, several times over; the last one is kept and measured on.
    let mut retired = DmsStatsSnapshot::default();
    let mut setup_s = Vec::new();
    let mut bench: Option<Bench> = None;
    for _ in 0..SETUPS {
        if let Some(old) = bench.take() {
            retired = retired.merge(&old.world.shutdown()?);
        }
        let t = Instant::now();
        bench = Some(setup(args, &dir)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let bench = bench.expect("set-up ran");
    let setup_median = stats::median(&stats::sorted(setup_s.clone()));

    // Timed phase: one client, one job in flight. A traced run records
    // half of the jobs (see `recorded`), so traced and untraced jobs see
    // the same mix and the same cache regime.
    let mut stream = JobStream::timed(w, args.seed);
    let mut outcomes: Vec<Outcome> = Vec::new();
    let mut traced_jobs: Vec<(u64, u64, u64)> = Vec::new();
    let mut failed = 0usize;
    let mut untimed = Duration::ZERO;
    let budget = Duration::from_secs_f64(args.seconds);
    let counts_start = read_counts(&bench);
    let mut counts_end = None;
    let phase = Instant::now();
    while phase.elapsed() - untimed < budget {
        let i = outcomes.len();
        let job = stream.next_job();
        let reference = i
            .is_multiple_of(REF_STRIDE)
            .then(|| bench.refs.get(i / REF_STRIDE))
            .flatten();
        debug_assert!(reference.is_none_or(|r| r.job == job));
        let traced = args.trace && recorded(i);
        trace::set_on(traced);
        let out = client_job(&bench.world.client, &job, reference.is_some());
        trace::set_on(false);
        let check = Instant::now();
        if traced {
            traced_jobs.push((job.id, out.submit_ns, out.done_ns));
        }
        let passed = job_passed(&out, reference);
        failed += usize::from(!passed);
        let delivered = out.delivered;
        outcomes.push(out);
        if outcomes.len() == COUNT_WINDOW {
            counts_end = Some(read_counts(&bench));
        }
        untimed += check.elapsed();
        if !delivered {
            break; // the world is out of step; nothing more to measure
        }
    }
    let timed_wall = (phase.elapsed() - untimed).as_secs_f64();
    let n = outcomes.len();
    let counts_end = counts_end.unwrap_or_else(|| read_counts(&bench));
    let counted = n.min(COUNT_WINDOW) as f64;
    let refs_checked = bench.refs.len().min(n.div_ceil(REF_STRIDE));

    let ms = |f: fn(&Outcome) -> u64| -> Vec<f64> {
        stats::sorted(outcomes.iter().map(|o| f(o) as f64 / 1e6).collect())
    };
    let ttfg = ms(Outcome::ttfg_ns);
    let job_ms = ms(Outcome::wall_ns);
    let geometry_bytes: u64 = outcomes.iter().map(|o| o.geometry_bytes).sum();
    let slices = time_slices(&outcomes);
    let per_slice =
        |f: &dyn Fn(&[Outcome]) -> f64| -> Vec<f64> { slices.iter().map(|s| f(s)).collect() };
    let quiet = |lower_is_better: bool, f: &dyn Fn(&[Outcome]) -> f64| {
        quiet_quartile(per_slice(f), lower_is_better)
    };
    let slice_pct = |s: &[Outcome], p: f64, f: fn(&Outcome) -> u64| {
        stats::percentile(
            &stats::sorted(s.iter().map(|o| f(o) as f64 / 1e6).collect()),
            p,
        )
    };
    let slice_secs = |s: &[Outcome]| s.iter().map(Outcome::wall_ns).sum::<u64>() as f64 / 1e9;
    let sent_total =
        bench.world.counters.sent_bytes.load(Ordering::Relaxed) - counts_start.sent_bytes;

    let sizes = sizes_json(w, &bench.dataset);
    let stages = bench.stages;
    let serial_job_ms = stages[1] * 1e3 / bench.refs.len() as f64;
    let transit_ns = bench.world.counters.transit_ns.load(Ordering::Relaxed);
    let timing = {
        let c = &bench.world.counters;
        let get = |a: &std::sync::atomic::AtomicU64| a.load(Ordering::Relaxed) as f64;
        (
            get(&c.hit_ns),
            get(&c.hits_timed),
            get(&c.miss_ns),
            get(&c.misses_timed),
            get(&c.inflight_wait_ns),
        )
    };
    let item_file_mb = bench.dataset.item_file_bytes as f64 / 1e6;
    retired = retired.merge(&bench.world.shutdown()?);
    let (heap_mb, rss_mb) = (alloc::peak_live_bytes() as f64 / 1e6, peak_rss_mb());

    // Once per run, after timing: the first job's descriptor must yield
    // the reference bytes over the other two transports as well (its
    // run over the workload's own transport was checked as timed job 0).
    let mut identical = true;
    for kind in TransportKind::ALL.into_iter().filter(|k| *k != w.transport) {
        let other = World::form(kind, &bench.dataset, w.proxy, &dir, false)?;
        let out = client_job(&other.client, &bench.refs[0].job, true);
        retired = retired.merge(&other.shutdown()?);
        if !job_passed(&out, Some(&bench.refs[0])) {
            println!(
                "job 0 over {} differs from the serial reference",
                kind.name()
            );
            identical = false;
        }
    }
    let dms_total = retired;

    let mut m = Metrics::default();
    let mut correct = failed == 0 && identical;
    if !args.trace {
        m.put("setup_s", setup_median, "s");
        // The middle slice, not the second best: on the streamed workload
        // the TTFG tail is a scheduler-latency mode holding about a tenth
        // of the jobs, so a slice's p95 now and then falls out of it.
        m.put(
            "ttfg_ms_p95",
            stats::median(&stats::sorted(per_slice(&|s| {
                slice_pct(s, 95.0, Outcome::ttfg_ns)
            }))),
            "ms",
        );
        m.put(
            "job_ms_p50",
            quiet(true, &|s| slice_pct(s, 50.0, Outcome::wall_ns)),
            "ms",
        );
        m.put(
            "job_ms_p95",
            quiet(true, &|s| slice_pct(s, 95.0, Outcome::wall_ns)),
            "ms",
        );
        m.put(
            "jobs_per_s",
            quiet(false, &|s| s.len() as f64 / slice_secs(s)),
            "1/s",
        );
        m.put(
            "geom_mb_per_s",
            quiet(false, &|s| {
                s.iter().map(|o| o.geometry_bytes).sum::<u64>() as f64 / 1e6 / slice_secs(s)
            }),
            "MB/s",
        );
        m.put("wire_bytes_per_job", sent_total as f64 / n as f64, "B");
        m.put("peak_heap_mb", heap_mb, "MB");
    } else {
        trace::flush_thread();
        let threads = trace::take_collected();
        let a = trace::analyze(&threads, &traced_jobs);
        let path = std::path::Path::new("benchmark/out").join(format!("trace-{}.json", w.name));
        trace::write_json(&path, &threads)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!(
            "trace written to {} ({} jobs recorded)",
            path.display(),
            traced_jobs.len()
        );
        print!("{}", a.render());

        let s = &counts_start;
        let e = &counts_end;
        let per_job = |end: u64, start: u64| (end - start) as f64 / counted;
        let d = e.dms.delta(&s.dms);
        let jobs_traced = traced_jobs.len().max(1) as f64;

        m.put("grid.read_block_ms", a.self_ms("grid.read_block"), "ms");
        m.put(
            "grid.read_block_calls",
            per_job(e.decode_calls, s.decode_calls),
            "1/job",
        );
        m.put(
            "grid.read_mb",
            per_job(e.decode_calls, s.decode_calls) * item_file_mb,
            "MB/job",
        );
        m.put("grid.magnitude_ms", a.self_ms("grid.magnitude"), "ms");
        m.put("storage.fetch_ms", a.self_ms("storage.fetch"), "ms");
        m.put(
            "storage.fetch_calls",
            per_job(e.fetch_calls, s.fetch_calls),
            "1/job",
        );
        m.put(
            "storage.fetch_failed",
            per_job(e.fetch_failed, s.fetch_failed),
            "1/job",
        );
        m.put("dms.request_ms", a.self_ms("dms.request"), "ms");
        m.put("dms.request_wait_ms", timing.4 / 1e6 / jobs_traced, "ms");
        m.put("dms.hit_us_mean", ratio(timing.0, timing.1) / 1e3, "us");
        m.put("dms.miss_ms_mean", ratio(timing.2, timing.3) / 1e6, "ms");
        m.put("dms.requests", d.demand_requests as f64 / counted, "1/job");
        m.put("dms.l1_hits", d.l1_hits as f64 / counted, "1/job");
        m.put("dms.l2_hits", d.l2_hits as f64 / counted, "1/job");
        m.put("dms.misses", d.misses as f64 / counted, "1/job");
        m.put_ratio(
            "dms.hit_ratio",
            (d.l1_hits + d.l2_hits) as f64,
            d.demand_requests as f64,
        );
        m.put(
            "dms.prefetch_issued",
            d.prefetch_issued as f64 / counted,
            "1/job",
        );
        m.put(
            "dms.prefetch_hits",
            d.prefetch_hits as f64 / counted,
            "1/job",
        );
        m.put_ratio(
            "dms.prefetch_useful_ratio",
            d.prefetch_hits as f64,
            d.prefetch_issued as f64,
        );
        m.put(
            "dms.prefetch_waits",
            d.prefetch_waits as f64 / counted,
            "1/job",
        );
        m.put("extract.iso_ms", a.self_ms("extract.iso"), "ms");
        m.put("extract.lambda2_ms", a.self_ms("extract.lambda2"), "ms");
        m.put(
            "extract.progressive_ms",
            a.self_ms("extract.progressive"),
            "ms",
        );
        m.put("extract.pathline_ms", a.self_ms("extract.pathline"), "ms");
        m.put("extract.append_ms", a.self_ms("extract.append"), "ms");
        m.put("extract.encode_ms", a.self_ms("extract.encode"), "ms");
        m.put("extract.merge_ms", a.self_ms("extract.merge"), "ms");
        m.put("extract.decode_ms", a.self_ms("extract.decode"), "ms");
        m.put(
            "extract.triangles",
            per_job(e.triangles, s.triangles),
            "1/job",
        );
        m.put(
            "extract.encoded_mb",
            per_job(e.encoded_bytes, s.encoded_bytes) / 1e6,
            "MB/job",
        );
        m.put(
            "extract.cells_skipped",
            per_job(e.cells_skipped, s.cells_skipped),
            "1/job",
        );
        m.put(
            "extract.bricks_skipped",
            per_job(e.bricks_skipped, s.bricks_skipped),
            "1/job",
        );
        m.put_ratio(
            "extract.active_block_ratio",
            (e.active_blocks - s.active_blocks) as f64,
            (e.blocks - s.blocks) as f64,
        );
        m.put("comm.send_ms", a.self_ms("comm.send"), "ms");
        m.put(
            "comm.transit_ms",
            transit_ns as f64 / 1e6 / jobs_traced,
            "ms",
        );
        m.put("comm.gather_wait_ms", a.total_ms("comm.gather_wait"), "ms");
        m.put("comm.client_wait_ms", a.total_ms("comm.client_wait"), "ms");
        m.put(
            "comm.messages",
            per_job(e.sent_messages, s.sent_messages),
            "1/job",
        );
        m.put("comm.bytes", per_job(e.sent_bytes, s.sent_bytes), "B/job");
        m.put(
            "comm.hub_forwards",
            per_job(e.hub_forwards, s.hub_forwards),
            "1/job",
        );

        let mismatches = registry_mismatches(&dms_total);
        for line in &mismatches {
            println!("obs.registry_mismatch: {line}");
        }
        correct &= mismatches.is_empty();
        m.put("obs.registry_mismatch", mismatches.len() as f64, "count");

        m.put(
            "alloc.count_per_job",
            per_job(e.alloc.0, s.alloc.0),
            "1/job",
        );
        m.put(
            "alloc.mb_per_job",
            per_job(e.alloc.1, s.alloc.1) / 1e6,
            "MB/job",
        );
        for layer in LAYERS {
            let (count, mb) = a.layer_allocs_per_job(layer);
            m.put(&format!("alloc.{layer}_count_per_job"), count, "1/job");
            m.put(&format!("alloc.{layer}_mb_per_job"), mb, "MB/job");
        }
        for layer in LAYERS {
            m.put(&format!("path.{layer}_share"), a.path_share(layer), "ratio");
        }
        m.put("trace.coverage", a.coverage(), "ratio");
        let p50 = |traced: bool| {
            let v: Vec<f64> = outcomes
                .iter()
                .enumerate()
                .filter(|(i, _)| recorded(*i) == traced)
                .map(|(_, o)| o.wall_ns() as f64 / 1e6)
                .collect();
            if v.is_empty() {
                0.0
            } else {
                stats::percentile(&stats::sorted(v), 50.0)
            }
        };
        m.put_ratio("trace.overhead_ratio", p50(true), p50(false));
    }

    println!(
        "workload {}  seed {}  seconds {}  trace {}  nproc {}  ranks {}",
        w.name, args.seed, args.seconds, args.trace as u8, nproc, N_RANKS
    );
    println!("sizes {sizes}");
    println!(
        "jobs {n} in {timed_wall:.3} s timed ({failed} failed; {refs_checked} checked byte for byte against the serial path, all decoded and finite)",
    );
    println!(
        "setup_s runs {:?}; last: dataset {:.3} s, references {:.3} s, world {:.3} s, warm-up {:.3} s",
        setup_s.iter().map(|s| (s * 1e3).round() / 1e3).collect::<Vec<_>>(),
        stages[0],
        stages[1],
        stages[2],
        stages[3]
    );
    println!("setup.serial_job_ms {serial_job_ms:.3}  (one thread, no DMS, no transport)");
    println!(
        "failed_ratio {} ({failed} / {n})",
        ratio(failed as f64, n as f64)
    );
    // Printed, not gated (README.md, "End-to-end metrics"): the plain
    // whole-run readings, which host interference moves, and two that
    // swing too far between identical runs.
    println!(
        "whole run: ttfg_ms p50 {:.3} p95 {:.3}  job_ms p50 {:.3} p95 {:.3}  jobs_per_s {:.3}  geom_mb_per_s {:.3}",
        stats::percentile(&ttfg, 50.0),
        stats::percentile(&ttfg, 95.0),
        stats::percentile(&job_ms, 50.0),
        stats::percentile(&job_ms, 95.0),
        n as f64 / timed_wall,
        geometry_bytes as f64 / 1e6 / timed_wall
    );
    println!("peak_rss_mb {rss_mb:.3} MB (VmHWM)");
    println!(
        "job 0 over local, unix and tcp: {}",
        if identical {
            "byte-identical to the serial reference"
        } else {
            "DIFFERS"
        }
    );
    if n < 200 {
        println!("note: fewer than 200 jobs, p95 has under ten samples beyond it");
    }
    m.print();
    if args.trace {
        // What the first traced run had to confirm (README.md,
        // "Predictions"); a miss means the workload no longer stresses
        // what it was built to stress.
        let verdict = |ok: bool| if ok { "confirmed" } else { "NOT confirmed" };
        let rest = ["grid", "storage", "dms", "comm"]
            .iter()
            .map(|l| m.get(&format!("path.{l}_share")))
            .sum::<f64>();
        let extract = m.get("path.extract_share");
        match w.mix {
            Mix::IsoAndLambda2 => println!(
                "prediction: extract >= 70 % of the blocking path ({:.1} %): {}",
                100.0 * extract,
                verdict(extract >= 0.70)
            ),
            Mix::IsoScrub => println!(
                "prediction: grid+storage+dms+comm >= 50 % ({:.1} %) and extract <= 35 % ({:.1} %): {}",
                100.0 * rest,
                100.0 * extract,
                verdict(rest >= 0.50 && extract <= 0.35)
            ),
            Mix::Pathlines => println!(
                "prediction: comm.bytes ({:.0} B/job) under 1 % of iso_warm_local's: compare with that run",
                m.get("comm.bytes")
            ),
            Mix::Progressive => {
                let (first, last) = (stats::percentile(&ttfg, 50.0), stats::percentile(&job_ms, 50.0));
                println!(
                    "prediction: ttfg p50 ({first:.3} ms) <= 0.1 x job p50 ({last:.3} ms): {}",
                    verdict(first <= 0.1 * last)
                );
            }
        }
    }

    let result = format!(
        "{{\"correct\": {correct}, \"attempted\": {n}, \"failed\": {failed}, \"metrics\": {}}}",
        m.json()
    );
    if let Some(path) = &args.out {
        let record = format!(
            "{{\"workload\": \"{}\", \"trace\": {}, \"seed\": {}, \"seconds\": {}, \"nproc\": {nproc}, \"ranks\": {N_RANKS}, \"sizes\": {sizes}, \"result\": {result}}}\n",
            w.name, args.trace as u8, args.seed, args.seconds
        );
        use std::io::Write as _;
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| f.write_all(record.as_bytes()))
            .map_err(|e| format!("appending to {}: {e}", path.display()))?;
    }
    drop(dir);
    println!("{result}");
    Ok(if correct { 0 } else { 1 })
}
