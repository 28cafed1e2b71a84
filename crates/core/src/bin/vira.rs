//! `vira` — command-line driver for the Viracocha back-end.
//!
//! ```text
//! vira commands                         list registered commands
//! vira datasets                         list built-in synthetic datasets
//! vira suggest --dataset engine         suggest an iso level (|u| field)
//! vira run --dataset engine --command IsoDataMan --workers 4 \
//!          --param iso=15 --param n_steps=4 [--res 7] [--dilation 0.01] \
//!          [--save surface.obj|surface.vtk] [--save-lines traces.vtk] \
//!          [--trace-out traces/]
//! vira trace-analyze traces/ [--check 0.25]   critical-path attribution
//! vira top traces/ [--once] [--json]          live telemetry dashboard
//! vira slo-report traces/ [--json]            replay SLOs from a recording
//! vira load --sessions 1000 --arrival open --rate 200 [--admission on] \
//!           [--trace-out traces/] [--json]    synthetic session load plane
//! vira load-report traces/ [--json]           offered/admitted/shed + tails
//! vira serve --listen unix:/tmp/vira.sock --ranks 3 --dataset cube \
//!            --command IsoDataMan --param iso=0.15 [--spawn-local] \
//!            [--jobs N] [--save-soup out] [--fault-plan <file>]
//! vira worker --connect unix:/tmp/vira.sock --dataset cube [--res N]
//! ```
//!
//! Argument parsing is deliberately dependency-free. Diagnostics go
//! through the structured event log (vira-obs, echoed to stderr);
//! result tables stay on stdout. `--trace-out <dir>` records the run
//! and writes `trace.json` / `events.jsonl` / `metrics.prom` there.

use std::collections::HashMap;
use std::io::Write as _;
use std::sync::Arc;
use std::time::Duration;
use vira_comm::fault::{FaultStats, FaultyTransport};
use vira_comm::socket::{SocketAddrSpec, SocketListener, SocketWorker};
use vira_comm::transport::Transport;
use vira_extract::stats::suggest_iso_level;
use vira_grid::block::BlockStepId;
use vira_grid::synth::{self, SyntheticDataset};
use vira_obs::json::Json;
use vira_storage::source::CachedSynthSource;
use vira_vista::{CommandParams, SubmitSpec, VistaClient};
use viracocha::loadgen::{self, Arrival, LoadOutcome, LoadPlan};
use viracocha::{
    default_registry, run_remote_worker, AdmissionConfig, FaultPlan, Viracocha, ViracochaConfig,
};

fn usage() -> ! {
    // Help goes through the structured event log like every other
    // diagnostic (echoed to stderr by default), so nothing in the CLI
    // bypasses `events.jsonl` when tracing is on.
    vira_obs::error(
        "vira",
        "usage:\n  vira commands\n  vira datasets\n  vira suggest --dataset <engine|propfan|cube> [--res N] [--exceed F]\n  vira run --dataset <engine|propfan|cube> --command <Name> [--workers N]\n           [--res N] [--dilation F] [--fault-plan <file>] [--param key=value]...\n           [--trace-out <dir>] [--slo-job-latency-ms N] [--slo-ttfg-ms N]\n           [--admission on|off] [--max-queue-depth N] [--max-session-queued N]\n           [--max-session-running N] [--retry-after-ms N]\n  vira load [--dataset <engine|propfan|cube>] [--res N] [--workers N]\n           [--sessions N] [--jobs N] [--seed N] [--arrival open|closed]\n           [--rate F] [--think-ms N] [--window N] [--retries N]\n           [--admission on|off] [--max-queue-depth N] [--max-session-queued N]\n           [--max-session-running N] [--retry-after-ms N]\n           [--json] [--trace-out <dir>]\n  vira load-report <dir> [--json] [--slo-job-latency-ms N] [--slo-ttfg-ms N]\n  vira serve --listen <tcp:host:port|unix:/path> --ranks N\n           --dataset <engine|propfan|cube> --command <Name> [--res N]\n           [--param key=value]... [--jobs N] [--workers N] [--spawn-local]\n           [--fast-resilience] [--save-soup <prefix>] [--fault-plan <file>]\n           [--fault-hub-forwards] [--cancel-after-packets N] [--pause-ms N]\n           [--accept-timeout-ms N] [--trace-out <dir>]\n  vira worker --connect <tcp:host:port|unix:/path>\n           --dataset <engine|propfan|cube> [--res N] [--connect-timeout-ms N]\n           [--rejoin <rank>]\n  vira top <dir> [--once] [--json] [--refresh <ms>]\n  vira slo-report <dir> [--json] [--slo-job-latency-ms N] [--slo-ttfg-ms N]\n  vira trace-analyze <dir> [--check <min-coverage>]",
        &[],
    );
    std::process::exit(2);
}

/// Parses `--key` as a `T`, exiting through [`usage`] with a structured
/// error instead of a raw panic when the value does not parse.
fn flag_parse<T: std::str::FromStr>(args: &Args, key: &str, expects: &str) -> Option<T> {
    args.flags.get(key).map(|v| {
        v.parse().unwrap_or_else(|_| {
            vira_obs::error(
                "vira",
                &format!("--{key} expects {expects}, got '{v}'"),
                &[],
            );
            usage();
        })
    })
}

/// Minimal flag parser: `--key value` pairs plus repeatable `--param
/// key=value`.
struct Args {
    flags: HashMap<String, String>,
    params: Vec<(String, String)>,
}

fn parse_args(args: &[String]) -> Args {
    let mut flags = HashMap::new();
    let mut params = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let Some(key) = a.strip_prefix("--") else {
            vira_obs::error("vira", &format!("unexpected argument '{a}'"), &[]);
            usage();
        };
        let Some(value) = it.next() else {
            vira_obs::error("vira", &format!("flag --{key} needs a value"), &[]);
            usage();
        };
        if key == "param" {
            let Some((k, v)) = value.split_once('=') else {
                vira_obs::error(
                    "vira",
                    &format!("--param expects key=value, got '{value}'"),
                    &[],
                );
                usage();
            };
            params.push((k.to_string(), v.to_string()));
        } else {
            flags.insert(key.to_string(), value.clone());
        }
    }
    Args { flags, params }
}

fn build_dataset(name: &str, res: usize) -> Arc<SyntheticDataset> {
    match name {
        "engine" => Arc::new(synth::engine(res)),
        "propfan" => Arc::new(synth::propfan(res)),
        "cube" => Arc::new(synth::test_cube(res, 4)),
        other => {
            vira_obs::error(
                "vira",
                &format!("unknown dataset '{other}' (engine | propfan | cube)"),
                &[],
            );
            usage();
        }
    }
}

fn cmd_commands() {
    println!("registered commands:");
    for name in default_registry().names() {
        println!("  {name}");
    }
}

fn cmd_datasets() {
    println!("built-in synthetic datasets (see vira_grid::synth):");
    for (key, ds) in [
        ("engine", synth::engine(5)),
        ("propfan", synth::propfan(4)),
        ("cube", synth::test_cube(8, 4)),
    ] {
        let s = &ds.spec;
        println!(
            "  {key:<8} \"{}\": {} blocks × {} steps, nominal {:.2} GB",
            s.name,
            s.n_blocks,
            s.n_steps,
            s.nominal_disk_bytes as f64 / (1u64 << 30) as f64
        );
    }
}

fn cmd_suggest(args: Args) {
    let dataset = args
        .flags
        .get("dataset")
        .cloned()
        .unwrap_or_else(|| usage());
    let res: usize = flag_parse(&args, "res", "an integer").unwrap_or(6);
    let exceed: f64 = flag_parse(&args, "exceed", "a number").unwrap_or(0.1);
    let ds = build_dataset(&dataset, res);
    // Velocity-magnitude fields of the first time step, block by block.
    let fields: Vec<_> = (0..ds.spec.n_blocks)
        .map(|b| ds.generate(BlockStepId::new(b, 0)).velocity.magnitude())
        .collect();
    match suggest_iso_level(fields.iter(), exceed, 256) {
        Some(iso) => println!(
            "suggested |u| iso level for '{dataset}' (exceeded by ~{:.0} % of samples): {iso:.4}",
            exceed * 100.0
        ),
        None => println!("no suggestion (degenerate field)"),
    }
}

/// Parses an `on`/`off` flag value (also accepts true/false and 1/0).
fn parse_switch(flag: &str, value: &str) -> bool {
    match value {
        "on" | "true" | "1" => true,
        "off" | "false" | "0" => false,
        other => {
            vira_obs::error(
                "vira",
                &format!("--{flag} expects on|off, got '{other}'"),
                &[],
            );
            usage();
        }
    }
}

/// Applies the shared admission-control flags (`vira run` and `vira
/// load` take the same set). Bound flags only take effect together with
/// `--admission on`; defaults come from [`AdmissionConfig`].
fn apply_admission_flags(config: &mut ViracochaConfig, args: &Args) {
    if let Some(v) = args.flags.get("admission") {
        config.admission.enabled = parse_switch("admission", v);
    }
    if let Some(n) = flag_parse(args, "max-queue-depth", "an integer") {
        config.admission.max_queue_depth = n;
    }
    if let Some(n) = flag_parse(args, "max-session-queued", "an integer") {
        config.admission.max_session_queued = n;
    }
    if let Some(n) = flag_parse(args, "max-session-running", "an integer") {
        config.admission.max_session_running = n;
    }
    if let Some(ms) = flag_parse::<u64>(args, "retry-after-ms", "milliseconds") {
        config.admission.retry_after_ms = ms;
    }
}

fn cmd_run(args: Args) {
    let dataset = args
        .flags
        .get("dataset")
        .cloned()
        .unwrap_or_else(|| usage());
    let command = args
        .flags
        .get("command")
        .cloned()
        .unwrap_or_else(|| usage());
    let workers: usize = flag_parse(&args, "workers", "an integer").unwrap_or(2);
    let res: usize = flag_parse(&args, "res", "an integer").unwrap_or(6);
    let dilation: f64 = flag_parse(&args, "dilation", "a number").unwrap_or(0.0);

    let trace_out = args.flags.get("trace-out").map(std::path::PathBuf::from);
    if trace_out.is_some() {
        vira_obs::set_enabled(true);
    }

    let mut config = ViracochaConfig::for_tests(workers);
    config.dilation = dilation;
    config.proxy.prefetcher = "obl".into();
    apply_admission_flags(&mut config, &args);
    if let Some(ms) = flag_parse::<u64>(&args, "slo-job-latency-ms", "milliseconds") {
        config.telemetry.job_latency_slo_ns = ms.saturating_mul(1_000_000);
    }
    if let Some(ms) = flag_parse::<u64>(&args, "slo-ttfg-ms", "milliseconds") {
        config.telemetry.ttfg_slo_ns = ms.saturating_mul(1_000_000);
    }
    config.telemetry.out_dir = trace_out.clone();
    let (backend, link) = match args.flags.get("fault-plan") {
        Some(path) => {
            let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
                vira_obs::error("vira", &format!("cannot read fault plan {path}: {e}"), &[]);
                std::process::exit(2);
            });
            let plan = FaultPlan::parse_str(&text).unwrap_or_else(|e| {
                vira_obs::error("vira", &format!("bad fault plan {path}: {e}"), &[]);
                std::process::exit(2);
            });
            println!("fault plan : {path} (seed {})", plan.seed);
            Viracocha::launch_with_faults(config, plan)
        }
        None => Viracocha::launch(config),
    };
    let ds = build_dataset(&dataset, res);
    let ds_name = ds.spec.name.clone();
    let source = Arc::new(CachedSynthSource::new(ds));
    backend.register_dataset(source, false);

    let mut params = CommandParams::new();
    for (k, v) in args.params {
        params = params.set(&k, v);
    }
    let mut client = VistaClient::new(link);
    let t0 = std::time::Instant::now();
    match client.run(&SubmitSpec {
        command: command.clone(),
        dataset: ds_name,
        params,
        workers,
    }) {
        Ok(out) => {
            println!("command    : {command} on '{dataset}' with {workers} workers");
            println!("wall time  : {:.3} s", t0.elapsed().as_secs_f64());
            println!("modeled    : {:.3} s total", out.report.total_runtime_s);
            println!(
                "breakdown  : read {:.3} s / compute {:.3} s / send {:.3} s",
                out.report.read_s, out.report.compute_s, out.report.send_s
            );
            println!(
                "dms        : {} hits / {} misses / {} prefetches ({} useful)",
                out.report.cache_hits,
                out.report.cache_misses,
                out.report.prefetch_issued,
                out.report.prefetch_hits
            );
            if out.report.retries > 0 || out.report.degraded {
                println!(
                    "resilience : {} command retransmits, degraded group: {}",
                    out.report.retries, out.report.degraded
                );
            }
            if out.report.requeue_wait_s > 0.0 {
                println!(
                    "queueing   : {:.3} s first wait + {:.3} s requeued wait",
                    out.report.queue_wait_s, out.report.requeue_wait_s
                );
            }
            println!(
                "geometry   : {} triangles, {} polylines, {} streamed packets",
                out.triangles.n_triangles(),
                out.polylines.len(),
                out.packets.len()
            );
            if let Some(first) = out.first_result_wall {
                println!(
                    "first data : {:.3} s wall after submit",
                    first.as_secs_f64()
                );
            }
            if let Some(path) = args.flags.get("save") {
                match vira_extract::export::save_soup(&out.triangles, std::path::Path::new(path)) {
                    Ok(()) => println!(
                        "saved      : {} ({} triangles)",
                        path,
                        out.triangles.n_triangles()
                    ),
                    Err(e) => vira_obs::error("vira", &format!("could not save {path}: {e}"), &[]),
                }
            }
            if let Some(path) = args.flags.get("save-lines") {
                let save = std::fs::File::create(path).and_then(|f| {
                    let mut w = std::io::BufWriter::new(f);
                    vira_extract::export::write_vtk_polylines(
                        &out.polylines,
                        "viracocha traces",
                        &mut w,
                    )
                });
                match save {
                    Ok(()) => println!("saved      : {} ({} polylines)", path, out.polylines.len()),
                    Err(e) => vira_obs::error("vira", &format!("could not save {path}: {e}"), &[]),
                }
            }
        }
        Err(e) => {
            vira_obs::error("vira", &format!("job failed: {e}"), &[]);
            let _ = client.shutdown();
            backend.join();
            std::process::exit(1);
        }
    }
    if let Some(stats) = backend.fault_stats() {
        let s = stats.snapshot();
        println!(
            "faults     : {} injected ({} dropped / {} duplicated / {} delayed / {} reordered / {} truncated / {} corrupted / {} ranks killed)",
            s.injected, s.dropped, s.duplicated, s.delayed, s.reordered, s.truncated, s.corrupted, s.killed_ranks
        );
    }
    let _ = client.shutdown();
    backend.join();
    if let Some(dir) = trace_out {
        match vira_obs::export_all(&dir) {
            Ok(s) => println!(
                "trace      : {} spans, {} events, {} flight recordings -> {}",
                s.spans,
                s.events,
                s.flights,
                dir.display()
            ),
            Err(e) => vira_obs::error(
                "vira",
                &format!("trace export to {} failed: {e}", dir.display()),
                &[],
            ),
        }
    }
}

/// (count, p50, p99, p999) upper bounds over raw nanosecond samples,
/// folded through the same log2 buckets the live histograms use — so
/// the CLI's numbers are directly comparable to `vira top` /
/// `telemetry.json` quantile rows (same bucket error).
fn tail_ubs(samples: &[u64]) -> (u64, u64, u64, u64) {
    let snap = sparse_hist(samples).to_snapshot();
    (
        snap.count,
        snap.quantile_upper_bound(0.50),
        snap.quantile_upper_bound(0.99),
        snap.quantile_upper_bound(0.999),
    )
}

/// Human-readable `vira load` summary. Pure so the layout is testable.
fn render_load_summary(plan: &LoadPlan, admission: &AdmissionConfig, out: &LoadOutcome) -> String {
    use std::fmt::Write;
    let mut o = String::new();
    let arrival = match plan.arrival {
        Arrival::OpenLoop { rate_hz } => format!("open-loop {rate_hz:.1} jobs/s"),
        Arrival::ClosedLoop { think_ms } => format!("closed-loop {think_ms} ms think"),
    };
    let wall_s = (out.wall_ns as f64 / 1e9).max(1e-9);
    let _ = writeln!(
        o,
        "load plane : {} sessions, {arrival}, seed {}",
        plan.sessions, plan.seed
    );
    let admission_line = if admission.enabled {
        format!(
            "on (queue <= {}, {} queued + {} running per session, retry-after {} ms)",
            admission.max_queue_depth,
            admission.max_session_queued,
            admission.max_session_running,
            admission.retry_after_ms
        )
    } else {
        "off (unbounded queue)".to_string()
    };
    let _ = writeln!(o, "admission  : {admission_line}");
    let _ = writeln!(
        o,
        "offered    : {} submissions ({} resubmits after busy)",
        out.offered, out.resubmitted
    );
    let _ = writeln!(
        o,
        "admitted   : {} ({:.1} % of offered)",
        out.admitted(),
        100.0 * out.admitted() as f64 / out.offered.max(1) as f64
    );
    let _ = writeln!(
        o,
        "shed       : {} busy rejections / {} refused",
        out.shed, out.refused
    );
    let _ = writeln!(
        o,
        "completed  : {} ok / {} failed in {:.2} s ({:.1} jobs/s goodput)",
        out.completed,
        out.failed,
        wall_s,
        out.completed as f64 / wall_s
    );
    let (n, p50, p99, p999) = tail_ubs(&out.job_latency_ns);
    if n > 0 {
        let _ = writeln!(
            o,
            "job latency: p50 <= {:.2} ms, p99 <= {:.2} ms, p999 <= {:.2} ms ({n} samples)",
            p50 as f64 / 1e6,
            p99 as f64 / 1e6,
            p999 as f64 / 1e6
        );
    }
    let (n, p50, p99, p999) = tail_ubs(&out.ttfg_ns);
    if n > 0 {
        let _ = writeln!(
            o,
            "ttfg       : p50 <= {:.2} ms, p99 <= {:.2} ms, p999 <= {:.2} ms ({n} samples)",
            p50 as f64 / 1e6,
            p99 as f64 / 1e6,
            p999 as f64 / 1e6
        );
    }
    let _ = writeln!(
        o,
        "balance    : offered == completed + failed + shed + refused: {}",
        if out.balanced() { "ok" } else { "BROKEN" }
    );
    o
}

/// Machine-readable `vira load --json` summary.
fn render_load_json(plan: &LoadPlan, admission: &AdmissionConfig, out: &LoadOutcome) -> Json {
    let tails = |samples: &[u64]| {
        let (n, p50, p99, p999) = tail_ubs(samples);
        Json::obj([
            ("count", n.into()),
            ("p50_ub", p50.into()),
            ("p99_ub", p99.into()),
            ("p999_ub", p999.into()),
        ])
    };
    let (arrival, pace) = match plan.arrival {
        Arrival::OpenLoop { rate_hz } => ("open", ("rate_hz", rate_hz.into())),
        Arrival::ClosedLoop { think_ms } => ("closed", ("think_ms", think_ms.into())),
    };
    Json::obj([
        ("sessions", plan.sessions.into()),
        ("arrival", arrival.into()),
        pace,
        ("seed", plan.seed.into()),
        ("admission", admission.enabled.into()),
        ("offered", out.offered.into()),
        ("admitted", out.admitted().into()),
        ("shed", out.shed.into()),
        ("refused", out.refused.into()),
        ("completed", out.completed.into()),
        ("failed", out.failed.into()),
        ("resubmitted", out.resubmitted.into()),
        ("wall_ns", out.wall_ns.into()),
        ("balanced", out.balanced().into()),
        ("job_latency", tails(&out.job_latency_ns)),
        ("ttfg", tails(&out.ttfg_ns)),
    ])
}

/// `--rate`: open-loop arrivals per second, finite and above zero.
fn parse_rate(text: &str) -> Option<f64> {
    text.parse()
        .ok()
        .filter(|r: &f64| r.is_finite() && *r > 0.0)
}

/// `vira load`: the load plane on the in-process transport —
/// replays `--sessions` synthetic Vista sessions with a seeded mixed
/// command stream (iso / λ₂ / pathlines / progressive) against a
/// freshly launched back-end and reports offered vs. admitted vs. shed
/// throughput plus job-latency / TTFG tails. With `--trace-out` the run
/// records telemetry + flight data for `vira load-report`. Exits
/// non-zero if any job fails outright or the bookkeeping identity
/// `offered == completed + failed + shed + refused` breaks.
fn cmd_load(args: Args) {
    let dataset = args
        .flags
        .get("dataset")
        .cloned()
        .unwrap_or_else(|| "cube".to_string());
    let res: usize = flag_parse(&args, "res", "an integer").unwrap_or(6);
    let workers: usize = flag_parse(&args, "workers", "an integer").unwrap_or(2);
    let sessions: u64 = flag_parse(&args, "sessions", "a session count").unwrap_or(1000);
    let jobs: usize =
        flag_parse(&args, "jobs", "a job count").unwrap_or((sessions as usize).saturating_mul(2));
    let seed: u64 = flag_parse(&args, "seed", "an integer").unwrap_or(19);
    let json = args.flags.contains_key("json");
    let arrival = match args
        .flags
        .get("arrival")
        .map(String::as_str)
        .unwrap_or("open")
    {
        "open" => Arrival::OpenLoop {
            rate_hz: args.flags.get("rate").map_or(200.0, |v| {
                parse_rate(v).unwrap_or_else(|| {
                    vira_obs::error(
                        "vira",
                        &format!("--rate expects jobs per second above zero, got '{v}'"),
                        &[],
                    );
                    usage();
                })
            }),
        },
        "closed" => Arrival::ClosedLoop {
            think_ms: flag_parse(&args, "think-ms", "milliseconds").unwrap_or(10),
        },
        other => {
            vira_obs::error(
                "vira",
                &format!("--arrival expects open|closed, got '{other}'"),
                &[],
            );
            usage();
        }
    };
    let trace_out = args.flags.get("trace-out").map(std::path::PathBuf::from);
    if trace_out.is_some() {
        vira_obs::set_enabled(true);
    }

    let mut config = ViracochaConfig::for_tests(workers);
    config.proxy.prefetcher = "obl".into();
    apply_admission_flags(&mut config, &args);
    config.telemetry.out_dir = trace_out.clone();
    let admission = config.admission.clone();

    let (backend, link) = Viracocha::launch(config);
    let ds = build_dataset(&dataset, res);
    let ds_name = ds.spec.name.clone();
    backend.register_dataset(Arc::new(CachedSynthSource::new(ds)), false);

    let mut plan = LoadPlan::new(sessions, jobs, seed, arrival, &ds_name);
    if let Some(w) = flag_parse(&args, "window", "an integer") {
        plan.window = w;
    }
    if let Some(r) = flag_parse(&args, "retries", "an integer") {
        plan.max_retries = r;
    }

    let mut client = VistaClient::new(link);
    let out =
        loadgen::run(&mut client, &plan).unwrap_or_else(|e| fail(&format!("load run failed: {e}")));
    let _ = client.shutdown();
    backend.join();

    if json {
        println!("{}", render_load_json(&plan, &admission, &out));
    } else {
        print!("{}", render_load_summary(&plan, &admission, &out));
    }
    if let Some(dir) = trace_out {
        match vira_obs::export_all(&dir) {
            Ok(s) => {
                if !json {
                    println!(
                        "trace      : {} spans, {} events, {} flight recordings -> {}",
                        s.spans,
                        s.events,
                        s.flights,
                        dir.display()
                    );
                }
            }
            Err(e) => vira_obs::error(
                "vira",
                &format!("trace export to {} failed: {e}", dir.display()),
                &[],
            ),
        }
    }
    if !out.balanced() || out.failed > 0 {
        std::process::exit(1);
    }
}

/// Exits through a structured error message.
fn fail(msg: &str) -> ! {
    vira_obs::error("vira", msg, &[]);
    std::process::exit(1);
}

/// The chaos-test resilience profile (`--fast-resilience`): the same
/// aggressive timeouts `tests/chaos.rs` uses, so a killed worker
/// process is convicted and its job requeued within test time instead
/// of the production-grade multi-second defaults.
fn fast_resilience(config: &mut ViracochaConfig) {
    config.resilience.dispatch_timeout = Duration::from_millis(150);
    config.resilience.backoff_factor = 1.5;
    config.resilience.max_retransmits = 2;
    config.resilience.probe_timeout = Duration::from_millis(500);
    config.resilience.gather_timeout = Duration::from_secs(10);
    config.resilience.max_attempts = 3;
}

/// `vira serve`: the scheduler/master process of a multi-process
/// deployment. Binds the listen address, waits for `--ranks` worker
/// processes to handshake (optionally forking them itself with
/// `--spawn-local`), then drives `--jobs` identical jobs through the
/// normal Vista session and shuts the world down. Emits one
/// machine-parseable `RESULT ...` line per job (the multiproc harness
/// greps these) and, with `--save-soup`, the merged triangle soup of
/// job *i* as raw bytes at `<prefix>.<i>` for byte-identity checks.
fn cmd_serve(args: Args) {
    let listen = args.flags.get("listen").cloned().unwrap_or_else(|| usage());
    let ranks: usize = flag_parse(&args, "ranks", "an integer").unwrap_or(3);
    let dataset = args
        .flags
        .get("dataset")
        .cloned()
        .unwrap_or_else(|| usage());
    let command = args
        .flags
        .get("command")
        .cloned()
        .unwrap_or_else(|| "IsoDataMan".to_string());
    let workers: usize = flag_parse(&args, "workers", "an integer").unwrap_or(ranks);
    let res: usize = flag_parse(&args, "res", "an integer").unwrap_or(6);
    let jobs: usize = flag_parse(&args, "jobs", "an integer").unwrap_or(1);
    let accept_ms: u64 = flag_parse(&args, "accept-timeout-ms", "milliseconds").unwrap_or(30_000);
    let cancel_after: Option<usize> = flag_parse(&args, "cancel-after-packets", "a packet count");
    let pause_ms: u64 = flag_parse(&args, "pause-ms", "milliseconds").unwrap_or(0);
    let trace_out = args.flags.get("trace-out").map(std::path::PathBuf::from);
    if trace_out.is_some() {
        vira_obs::set_enabled(true);
    }

    let spec = SocketAddrSpec::parse(&listen)
        .unwrap_or_else(|e| fail(&format!("bad --listen address: {e}")));
    let listener =
        SocketListener::bind(&spec).unwrap_or_else(|e| fail(&format!("cannot bind {spec}: {e}")));
    let addr = listener.local_addr().to_string();
    println!("serving    : {addr} ({ranks} worker ranks)");
    let _ = std::io::stdout().flush();

    let mut children = Vec::new();
    if args.flags.contains_key("spawn-local") {
        let exe = std::env::current_exe()
            .unwrap_or_else(|e| fail(&format!("cannot locate own binary: {e}")));
        for _ in 0..ranks {
            let child = std::process::Command::new(&exe)
                .args([
                    "worker",
                    "--connect",
                    &addr,
                    "--dataset",
                    &dataset,
                    "--res",
                    &res.to_string(),
                ])
                .spawn()
                .unwrap_or_else(|e| fail(&format!("cannot spawn local worker: {e}")));
            children.push(child);
        }
    }

    let hub = listener
        .accept_world(ranks, Duration::from_millis(accept_ms))
        .unwrap_or_else(|e| fail(&format!("worker handshake failed: {e}")));
    println!("world      : all {ranks} worker ranks connected");
    let _ = std::io::stdout().flush();

    let mut config = ViracochaConfig::for_tests(ranks);
    config.proxy.prefetcher = "obl".into();
    if args.flags.contains_key("fast-resilience") {
        fast_resilience(&mut config);
    }
    config.telemetry.out_dir = trace_out.clone();

    let (backend, link) = match args.flags.get("fault-plan") {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .unwrap_or_else(|e| fail(&format!("cannot read fault plan {path}: {e}")));
            let plan = FaultPlan::parse_str(&text)
                .unwrap_or_else(|e| fail(&format!("bad fault plan {path}: {e}")));
            println!("fault plan : {path} (seed {})", plan.seed);
            let plan = Arc::new(plan);
            let stats = Arc::new(FaultStats::default());
            if args.flags.contains_key("fault-hub-forwards") {
                // Also inject on the hub's worker->worker forward path,
                // which the scheduler-side decorator never sees.
                hub.set_route_faults(plan.clone(), stats.clone());
            }
            let faulty = FaultyTransport::new(hub, plan, stats.clone());
            Viracocha::launch_on_transports(config, default_registry(), vec![faulty], Some(stats))
        }
        None => {
            if args.flags.contains_key("fault-hub-forwards") {
                fail("--fault-hub-forwards needs --fault-plan");
            }
            Viracocha::launch_on_transports(config, default_registry(), vec![hub], None)
        }
    };
    // The scheduler process registers the dataset too: it validates
    // specs and scores locality; the worker processes register their
    // own copies (same deterministic synthetic source).
    let ds = build_dataset(&dataset, res);
    let ds_name = ds.spec.name.clone();
    backend.register_dataset(Arc::new(CachedSynthSource::new(ds)), false);

    let mut params = CommandParams::new();
    for (k, v) in &args.params {
        params = params.set(k, v.clone());
    }
    let spec = SubmitSpec {
        command: command.clone(),
        dataset: ds_name,
        params,
        workers,
    };
    let mut client = VistaClient::new(link);
    let mut failed = 0usize;
    for i in 0..jobs {
        if i > 0 && pause_ms > 0 {
            // Window between jobs for out-of-band events (worker death,
            // rejoin) to land before the next submission.
            std::thread::sleep(Duration::from_millis(pause_ms));
        }
        let outcome = match cancel_after {
            Some(n) => client
                .submit(&spec)
                .and_then(|job| client.collect_cancelling_after(job, n)),
            None => client.run(&spec),
        };
        match outcome {
            Ok(out) => {
                println!(
                    "RESULT job={i} ok=1 triangles={} polylines={} packets={} degraded={} retries={} cancelled={}",
                    out.triangles.n_triangles(),
                    out.polylines.len(),
                    out.packets.len(),
                    u32::from(out.report.degraded),
                    out.report.retries,
                    u32::from(out.cancelled),
                );
                if let Some(prefix) = args.flags.get("save-soup") {
                    let path = format!("{prefix}.{i}");
                    match std::fs::write(&path, out.triangles.to_bytes()) {
                        Ok(()) => println!("saved soup : {path}"),
                        Err(e) => {
                            vira_obs::error("vira", &format!("could not save {path}: {e}"), &[])
                        }
                    }
                }
            }
            Err(e) => {
                failed += 1;
                println!("RESULT job={i} ok=0 error={e}");
            }
        }
        let _ = std::io::stdout().flush();
    }
    if let Some(stats) = backend.fault_stats() {
        let s = stats.snapshot();
        println!(
            "faults     : {} injected ({} dropped / {} duplicated / {} delayed / {} reordered / {} truncated / {} corrupted / {} ranks killed)",
            s.injected, s.dropped, s.duplicated, s.delayed, s.reordered, s.truncated, s.corrupted, s.killed_ranks
        );
    }
    let _ = client.shutdown();
    backend.join();
    // With --spawn-local, reap the children: the SHUTDOWN broadcast
    // (or, for a killed rank, the hub teardown) ends each of them.
    for mut c in children {
        let _ = c.wait();
    }
    if let Some(dir) = trace_out {
        match vira_obs::export_all(&dir) {
            Ok(s) => println!(
                "trace      : {} spans, {} events, {} flight recordings -> {}",
                s.spans,
                s.events,
                s.flights,
                dir.display()
            ),
            Err(e) => vira_obs::error(
                "vira",
                &format!("trace export to {} failed: {e}", dir.display()),
                &[],
            ),
        }
    }
    println!("serve done : {jobs} jobs, {failed} failed");
    let _ = std::io::stdout().flush();
    if failed > 0 {
        std::process::exit(1);
    }
}

/// `vira worker`: one worker rank of a multi-process deployment.
/// Connects (with retry) to a `vira serve` hub, learns its rank from
/// the handshake, registers the same deterministic dataset the
/// scheduler uses, and serves jobs until SHUTDOWN or connection loss.
fn cmd_worker(args: Args) {
    let connect = args
        .flags
        .get("connect")
        .cloned()
        .unwrap_or_else(|| usage());
    let dataset = args
        .flags
        .get("dataset")
        .cloned()
        .unwrap_or_else(|| usage());
    let res: usize = flag_parse(&args, "res", "an integer").unwrap_or(6);
    let rejoin: Option<usize> = flag_parse(&args, "rejoin", "a rank");

    let connect_timeout = Duration::from_millis(
        flag_parse(&args, "connect-timeout-ms", "milliseconds").unwrap_or(30_000),
    );

    let spec = SocketAddrSpec::parse(&connect)
        .unwrap_or_else(|e| fail(&format!("bad --connect address: {e}")));
    let transport = match rejoin {
        Some(rank) => SocketWorker::rejoin(&spec, rank, connect_timeout),
        None => SocketWorker::connect(&spec, connect_timeout),
    }
    .unwrap_or_else(|e| fail(&format!("cannot join {spec}: {e}")));
    let (rank, world) = (transport.rank(), transport.world_size());
    if rejoin.is_some() {
        println!("rejoined as rank {rank} of {world} via {spec}");
    } else {
        println!("joined as rank {rank} of {world} via {spec}");
    }
    let _ = std::io::stdout().flush();

    let mut config = ViracochaConfig::for_tests(world - 1);
    config.proxy.prefetcher = "obl".into();
    let ds = build_dataset(&dataset, res);
    run_remote_worker(config, transport, |server| {
        server.register_dataset(Arc::new(CachedSynthSource::new(ds)), false);
    });
    println!("worker rank {rank} exiting");
    let _ = std::io::stdout().flush();
}

/// Runs the critical-path analyzer over a `--trace-out` directory's
/// flight recordings and prints the per-job attribution table. With
/// `--check <frac>` the command fails unless every job's stage
/// attribution covers at least that fraction of its wall time — the CI
/// guard against the analyzer silently losing track of where time
/// goes.
fn cmd_trace_analyze(args: Args) {
    let Some(dir) = args.flags.get("dir").cloned() else {
        usage();
    };
    let rows = match vira_obs::analyze_dir(std::path::Path::new(&dir)) {
        Ok(rows) => rows,
        Err(e) => {
            vira_obs::error("vira", &format!("trace-analyze {dir}: {e}"), &[]);
            std::process::exit(1);
        }
    };
    if rows.is_empty() {
        vira_obs::error(
            "vira",
            &format!("{dir}: no flight-<trace>.jsonl recordings (run with --trace-out)"),
            &[],
        );
        std::process::exit(1);
    }
    print!("{}", vira_obs::render_table(&rows));
    if let Some(min) = flag_parse::<f64>(&args, "check", "a fraction like 0.25") {
        for r in &rows {
            if r.coverage < min {
                vira_obs::error(
                    "vira",
                    &format!(
                        "trace {} (job {}): attribution covers {:.1}% of wall time, below --check {:.1}%",
                        r.trace_id,
                        r.job,
                        r.coverage * 100.0,
                        min * 100.0
                    ),
                    &[],
                );
                std::process::exit(1);
            }
        }
    }
}

/// One-line cluster summary plus quantile / rank / SLO tables from a
/// parsed `telemetry.json` snapshot. Pure so the layout is unit-testable.
fn render_top(snap: &vira_obs::json::Json) -> String {
    use std::fmt::Write;
    let mut o = String::new();
    let t_ns = snap.get("t_ns").and_then(|v| v.as_u64()).unwrap_or(0);
    let done = snap.get("final").and_then(|v| v.as_bool()).unwrap_or(false);
    let cluster = snap.get("cluster");
    let counter = |name: &str| -> u64 {
        cluster
            .and_then(|c| c.get("counters"))
            .and_then(|c| c.get(name))
            .and_then(|v| v.as_u64())
            .unwrap_or(0)
    };
    let gauge = |name: &str| -> f64 {
        cluster
            .and_then(|c| c.get("gauges"))
            .and_then(|c| c.get(name))
            .and_then(|v| v.as_f64())
            .unwrap_or(0.0)
    };
    let _ = writeln!(
        o,
        "vira top — snapshot at {:.3} s{}",
        t_ns as f64 / 1e9,
        if done { " (final)" } else { "" }
    );
    let _ = writeln!(
        o,
        "jobs       : {} done / {} failed / queue depth {:.0} / running {:.0}",
        counter("sched_jobs_done_total"),
        counter("sched_jobs_failed_total"),
        gauge("sched_queue_depth"),
        gauge("sched_running_jobs")
    );
    let admitted = counter("sched_admitted_total");
    let shed = counter("sched_shed_total");
    if admitted > 0 || shed > 0 {
        let _ = writeln!(
            o,
            "admission  : {} offered = {} admitted + {} shed ({} via session quota) / queue high-watermark {}",
            admitted + shed,
            admitted,
            shed,
            counter("sched_quota_rejections_total"),
            counter("sched_queue_high_watermark")
        );
    }
    let dup = snap
        .get("tsdb")
        .and_then(|t| t.get("dup_dropped"))
        .and_then(|v| v.as_u64())
        .unwrap_or(0);
    let _ = writeln!(
        o,
        "telemetry  : {} deltas shipped / {} heartbeats / {} duplicate deltas dropped",
        counter("obs_deltas_shipped_total"),
        counter("obs_heartbeats_total"),
        dup
    );

    if let Some(quants) = cluster
        .and_then(|c| c.get("quantiles"))
        .and_then(|q| q.as_obj())
    {
        if !quants.is_empty() {
            let _ = writeln!(
                o,
                "\n{:<28} {:>9} {:>14} {:>14} {:>14} {:>14}",
                "histogram (ns)", "count", "mean", "p50<=", "p99<=", "p999<="
            );
            for (name, q) in quants {
                let u = |k: &str| q.get(k).and_then(|v| v.as_u64()).unwrap_or(0);
                let mean = q.get("mean").and_then(|v| v.as_f64()).unwrap_or(0.0);
                let _ = writeln!(
                    o,
                    "{:<28} {:>9} {:>14.0} {:>14} {:>14} {:>14}",
                    name,
                    u("count"),
                    mean,
                    u("p50_ub"),
                    u("p99_ub"),
                    u("p999_ub")
                );
            }
        }
    }

    if let Some(ranks) = snap.get("ranks").and_then(|r| r.as_arr()) {
        if !ranks.is_empty() {
            let _ = writeln!(
                o,
                "\n{:<5} {:<6} {:>9} {:>14} {:>7} {:>14}",
                "rank", "alive", "resident", "clock off ns", "deltas", "delta age ms"
            );
            for r in ranks {
                let u = |k: &str| r.get(k).and_then(|v| v.as_u64()).unwrap_or(0);
                let alive = r.get("alive").and_then(|v| v.as_bool()).unwrap_or(false);
                let offset = r
                    .get("clock_offset_ns")
                    .and_then(|v| v.as_f64())
                    .unwrap_or(0.0);
                let _ = writeln!(
                    o,
                    "{:<5} {:<6} {:>9} {:>14.0} {:>7} {:>14.1}",
                    u("rank"),
                    if alive { "up" } else { "DEAD" },
                    u("residency_blocks"),
                    offset,
                    u("deltas"),
                    u("last_delta_age_ns") as f64 / 1e6
                );
            }
        }
    }

    if let Some(slos) = snap.get("slo").and_then(|s| s.as_arr()) {
        if !slos.is_empty() {
            let _ = writeln!(
                o,
                "\n{:<22} {:>9} {:>11} {:>11} {:>8}",
                "slo", "objective", "fast burn", "slow burn", "state"
            );
            for s in slos {
                let f = |k: &str| s.get(k).and_then(|v| v.as_f64()).unwrap_or(0.0);
                let name = s.get("name").and_then(|v| v.as_str()).unwrap_or("?");
                let firing = s.get("firing").and_then(|v| v.as_bool()).unwrap_or(false);
                let _ = writeln!(
                    o,
                    "{:<22} {:>9.3} {:>11.2} {:>11.2} {:>8}",
                    name,
                    f("objective"),
                    f("fast_burn"),
                    f("slow_burn"),
                    if firing { "FIRING" } else { "ok" }
                );
            }
        }
    }
    o
}

/// `vira top <dir>`: render the scheduler's `telemetry.json` snapshot.
/// Follow mode (the default) re-reads every `--refresh` ms and exits
/// once the run writes its final snapshot; `--once` renders a single
/// frame and `--json` emits the raw snapshot for scripting/CI.
fn cmd_top(args: Args) {
    let Some(dir) = args.flags.get("dir").cloned() else {
        usage();
    };
    let once = args.flags.contains_key("once");
    let json = args.flags.contains_key("json");
    let refresh_ms: u64 = flag_parse(&args, "refresh", "milliseconds").unwrap_or(500);
    let path = std::path::Path::new(&dir).join("telemetry.json");
    loop {
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                if once {
                    vira_obs::error(
                        "vira",
                        &format!(
                            "cannot read {}: {e} (run with --trace-out?)",
                            path.display()
                        ),
                        &[],
                    );
                    std::process::exit(1);
                }
                // Follow mode: the scheduler may not have written the
                // first snapshot yet.
                std::thread::sleep(std::time::Duration::from_millis(refresh_ms.max(50)));
                continue;
            }
        };
        let snap = match vira_obs::json::parse(&text) {
            Ok(j) => j,
            Err(e) => {
                vira_obs::error(
                    "vira",
                    &format!("bad snapshot {}: {e}", path.display()),
                    &[],
                );
                std::process::exit(1);
            }
        };
        if json {
            println!("{}", text.trim_end());
        } else {
            if !once {
                // Clear and home: a stable dashboard under watch.
                print!("\x1b[2J\x1b[H");
            }
            print!("{}", render_top(&snap));
        }
        let done = snap.get("final").and_then(|v| v.as_bool()).unwrap_or(false);
        if once || done {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(refresh_ms.max(50)));
    }
}

/// Folds raw samples into the same log2 layout the live histograms use.
fn sparse_hist(samples: &[u64]) -> vira_obs::SparseHist {
    let mut snap = vira_obs::HistogramSnapshot::default();
    for &v in samples {
        snap.buckets[vira_obs::Histogram::bucket_index(v)] += 1;
        snap.count += 1;
        snap.sum += v;
    }
    vira_obs::SparseHist::from_snapshot(&snap)
}

/// The `--slo-job-latency-ms` / `--slo-ttfg-ms` thresholds in ns, or
/// the live telemetry plane's defaults.
fn slo_thresholds(args: &Args) -> (u64, u64) {
    let defaults = viracocha::TelemetryConfig::default();
    let ms = |key: &str, default_ns: u64| {
        flag_parse::<u64>(args, key, "milliseconds")
            .map(|ms| ms.saturating_mul(1_000_000))
            .unwrap_or(default_ns)
    };
    (
        ms("slo-job-latency-ms", defaults.job_latency_slo_ns),
        ms("slo-ttfg-ms", defaults.ttfg_slo_ns),
    )
}

/// Replays recorded durations through the same tsdb + SLO engine the
/// live telemetry plane runs, as one synthetic delta. `admission` is
/// `[admitted, shed, quota rejections]` copied from a live snapshot (all
/// zero when there is none), so the shed-ratio SLO sees the run's real
/// offered/shed split. Returns the SLO statuses and the rendered
/// `telemetry.json`-shaped snapshot.
fn replay_flight(
    job_ns: &[u64],
    ttfg_ns: &[u64],
    admission: [u64; 3],
    (job_slo_ns, ttfg_slo_ns): (u64, u64),
) -> (Vec<vira_obs::SloStatus>, Json) {
    let now = vira_obs::now_ns();
    let mut delta = vira_obs::MetricsDelta {
        rank: 0,
        seq: 1,
        t_ns: now,
        ..Default::default()
    };
    delta
        .counters
        .push(("sched_jobs_done_total".into(), job_ns.len() as u64));
    let [admitted, shed, quota] = admission;
    if admitted > 0 || shed > 0 {
        delta
            .counters
            .push(("sched_admitted_total".into(), admitted));
        delta.counters.push(("sched_shed_total".into(), shed));
        delta
            .counters
            .push(("sched_quota_rejections_total".into(), quota));
    }
    if !job_ns.is_empty() {
        delta
            .histograms
            .push(("sched_job_runtime_ns".into(), sparse_hist(job_ns)));
    }
    if !ttfg_ns.is_empty() {
        delta
            .histograms
            .push(("vista_first_result_ns".into(), sparse_hist(ttfg_ns)));
    }
    let mut db = vira_obs::Tsdb::default();
    db.ingest(&delta, now);
    let mut engine = vira_obs::SloEngine::new(vira_obs::default_specs(job_slo_ns, ttfg_slo_ns));
    let statuses = engine.evaluate(&db, now);
    let snap = vira_obs::render_telemetry_json(&db, &statuses, &[], now, true);
    (statuses, snap)
}

/// `vira slo-report <dir>`: replay a recording's flight spans through
/// the same tsdb + SLO engine the live telemetry plane runs, as an
/// independent cross-check of `telemetry.json`. Job runtimes come from
/// `sched.job` spans and time-to-first-geometry from
/// `vista.first_result` spans.
fn cmd_slo_report(args: Args) {
    let Some(dir) = args.flags.get("dir").cloned() else {
        usage();
    };
    let json = args.flags.contains_key("json");
    let slo = slo_thresholds(&args);
    let (job_ns, ttfg_ns) = collect_flight_durations(&dir);
    if job_ns.is_empty() && ttfg_ns.is_empty() {
        vira_obs::error(
            "vira",
            &format!("{dir}: no flight-<trace>.jsonl recordings (run with --trace-out)"),
            &[],
        );
        std::process::exit(1);
    }
    let (statuses, snap) = replay_flight(&job_ns, &ttfg_ns, [0; 3], slo);
    if json {
        println!("{snap}");
        return;
    }
    println!(
        "slo report : {} jobs, {} first-geometry samples from {dir}",
        job_ns.len(),
        ttfg_ns.len()
    );
    print!("{}", render_top(&snap));
    if statuses.iter().any(|s| s.firing) {
        std::process::exit(1);
    }
}

/// Collects replayed span durations from a recording directory:
/// (`sched.job` runtimes, `vista.first_result` TTFG samples).
fn collect_flight_durations(dir: &str) -> (Vec<u64>, Vec<u64>) {
    let mut job_ns: Vec<u64> = Vec::new();
    let mut ttfg_ns: Vec<u64> = Vec::new();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return (job_ns, ttfg_ns);
    };
    for entry in entries.flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        if !name.starts_with("flight-") || !name.ends_with(".jsonl") {
            continue;
        }
        let Ok(text) = std::fs::read_to_string(entry.path()) else {
            continue;
        };
        let spans = match vira_obs::parse_flight_spans(&text) {
            Ok(spans) => spans,
            Err(e) => {
                vira_obs::error("vira", &format!("skipping malformed {name}: {e}"), &[]);
                continue;
            }
        };
        for span in spans {
            match span.name.as_str() {
                "sched.job" => job_ns.push(span.dur_ns),
                "vista.first_result" => ttfg_ns.push(span.dur_ns),
                _ => {}
            }
        }
    }
    (job_ns, ttfg_ns)
}

/// `vira load-report <dir>`: post-mortem for a `vira load --trace-out`
/// (or any traced) run. Combines the live `telemetry.json` snapshot —
/// admission counters, queue high-watermark, quantiles — with an
/// *independent* replay of the flight recordings through the same
/// tsdb + SLO engine, and reports offered vs. admitted vs. shed
/// plus which SLO is burning hardest. The replay inherits the live
/// admission counters so the shed-ratio SLO evaluates on real
/// offered/shed data. `--json` emits `{"live":…,"replay":…}` so CI can
/// cross-check live quantiles against the replay within bucket error.
fn cmd_load_report(args: Args) {
    let Some(dir) = args.flags.get("dir").cloned() else {
        usage();
    };
    let json = args.flags.contains_key("json");
    let slo = slo_thresholds(&args);
    let live = std::fs::read_to_string(std::path::Path::new(&dir).join("telemetry.json"))
        .ok()
        .and_then(|t| vira_obs::json::parse(&t).ok());
    let live_counter = |name: &str| -> u64 {
        live.as_ref()
            .and_then(|s| s.get("cluster"))
            .and_then(|c| c.get("counters"))
            .and_then(|c| c.get(name))
            .and_then(|v| v.as_u64())
            .unwrap_or(0)
    };
    let admitted = live_counter("sched_admitted_total");
    let shed = live_counter("sched_shed_total");
    let quota = live_counter("sched_quota_rejections_total");
    let high_watermark = live_counter("sched_queue_high_watermark");

    let (job_ns, ttfg_ns) = collect_flight_durations(&dir);
    if job_ns.is_empty() && ttfg_ns.is_empty() && live.is_none() {
        fail(&format!(
            "{dir}: no telemetry.json and no flight-<trace>.jsonl recordings (run vira load with --trace-out)"
        ));
    }
    let (statuses, replay) = replay_flight(&job_ns, &ttfg_ns, [admitted, shed, quota], slo);

    if json {
        println!("{}", Json::obj([("live", live.into()), ("replay", replay)]));
        return;
    }

    println!("load report: {dir}");
    if admitted > 0 || shed > 0 {
        println!(
            "admission  : offered {} = admitted {} + shed {} ({} via session quota)",
            admitted + shed,
            admitted,
            shed,
            quota
        );
        println!("queue      : high-watermark {high_watermark} jobs");
    } else {
        println!(
            "admission  : no live admission counters (telemetry.json missing or admission idle)"
        );
    }
    println!(
        "replay     : {} job spans, {} first-geometry spans",
        job_ns.len(),
        ttfg_ns.len()
    );
    let hottest = statuses
        .iter()
        .filter(|s| s.fast_burn > 0.0)
        .max_by(|a, b| a.fast_burn.total_cmp(&b.fast_burn));
    match hottest {
        Some(s) if s.firing => println!(
            "burning    : {} burned first ({:.1}x fast burn, FIRING)",
            s.name, s.fast_burn
        ),
        Some(s) => println!(
            "burning    : hottest is {} ({:.1}x fast burn, within budget)",
            s.name, s.fast_burn
        ),
        None => println!("burning    : no SLO consuming error budget"),
    }
    print!("{}", render_top(&replay));
}

/// Rewrites a bare leading positional into `--dir` and gives listed
/// boolean switches an implicit `true` value, so subcommands like
/// `vira top traces/ --once --json` fit the `--key value` parser.
fn rewrite_dir_and_switches(rest: &[String], switches: &[&str]) -> Vec<String> {
    let mut out: Vec<String> = Vec::with_capacity(rest.len() + 2);
    for (i, a) in rest.iter().enumerate() {
        if i == 0 && !a.starts_with("--") {
            out.push("--dir".to_string());
            out.push(a.clone());
        } else if switches.iter().any(|s| a == &format!("--{s}")) {
            out.push(a.clone());
            out.push("true".to_string());
        } else {
            out.push(a.clone());
        }
    }
    out
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((sub, rest)) = argv.split_first() else {
        usage();
    };
    match sub.as_str() {
        "commands" => cmd_commands(),
        "datasets" => cmd_datasets(),
        "suggest" => cmd_suggest(parse_args(rest)),
        "run" => cmd_run(parse_args(rest)),
        "serve" => cmd_serve(parse_args(&rewrite_dir_and_switches(
            rest,
            &["spawn-local", "fast-resilience", "fault-hub-forwards"],
        ))),
        "worker" => cmd_worker(parse_args(rest)),
        "top" => cmd_top(parse_args(&rewrite_dir_and_switches(
            rest,
            &["once", "json"],
        ))),
        "slo-report" => cmd_slo_report(parse_args(&rewrite_dir_and_switches(rest, &["json"]))),
        "load" => cmd_load(parse_args(&rewrite_dir_and_switches(rest, &["json"]))),
        "load-report" => {
            cmd_load_report(parse_args(&rewrite_dir_and_switches(rest, &["json"])));
        }
        "trace-analyze" => {
            cmd_trace_analyze(parse_args(&rewrite_dir_and_switches(rest, &[])));
        }
        _ => usage(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rewrite_handles_positional_dir_and_switches() {
        let argv: Vec<String> = ["traces", "--once", "--json", "--refresh", "100"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let out = rewrite_dir_and_switches(&argv, &["once", "json"]);
        let args = parse_args(&out);
        assert_eq!(args.flags.get("dir").map(String::as_str), Some("traces"));
        assert!(args.flags.contains_key("once"));
        assert!(args.flags.contains_key("json"));
        assert_eq!(args.flags.get("refresh").map(String::as_str), Some("100"));
    }

    #[test]
    fn render_top_shows_quantiles_ranks_and_slos() {
        let text = r#"{"v":1,"t_ns":2500000000,"final":true,
            "cluster":{"counters":{"sched_jobs_done_total":7,"obs_deltas_shipped_total":12},
                       "gauges":{"sched_queue_depth":0,"sched_running_jobs":1},
                       "quantiles":{"sched_job_runtime_ns":{"count":7,"mean":1000.0,
                           "p50_ub":1024,"p99_ub":2048,"p999_ub":2048}}},
            "ranks":[{"rank":1,"alive":true,"residency_blocks":4,"clock_offset_ns":-12,
                      "deltas":3,"last_delta_age_ns":1000000,"counters":{},"gauges":{}}],
            "slo":[{"name":"job_latency_p99","objective":0.99,"fast_total":7,"slow_total":7,
                    "fast_bad_fraction":0.5,"slow_bad_fraction":0.5,
                    "fast_burn":50.0,"slow_burn":50.0,"firing":true}],
            "tsdb":{"dup_dropped":1,"series_dropped":0,"scalar_points":9}}"#;
        let snap = vira_obs::json::parse(text).expect("fixture parses");
        let out = render_top(&snap);
        assert!(out.contains("(final)"), "{out}");
        assert!(out.contains("7 done"), "{out}");
        assert!(out.contains("sched_job_runtime_ns"), "{out}");
        assert!(out.contains("2048"), "{out}");
        assert!(out.contains("job_latency_p99"), "{out}");
        assert!(out.contains("FIRING"), "{out}");
        assert!(out.contains("1 duplicate deltas dropped"), "{out}");
        // Rank row: alive rank 1 with 4 resident blocks.
        assert!(out.contains("up"), "{out}");
    }

    #[test]
    fn render_top_shows_the_admission_row_when_counters_are_present() {
        let text = r#"{"v":1,"t_ns":1000000000,"final":true,
            "cluster":{"counters":{"sched_jobs_done_total":90,
                                   "sched_admitted_total":95,"sched_shed_total":5,
                                   "sched_quota_rejections_total":2,
                                   "sched_queue_high_watermark":8},
                       "gauges":{}},
            "ranks":[],"slo":[],"tsdb":{"dup_dropped":0}}"#;
        let snap = vira_obs::json::parse(text).expect("fixture parses");
        let out = render_top(&snap);
        assert!(
            out.contains("admission  : 100 offered = 95 admitted + 5 shed (2 via session quota) / queue high-watermark 8"),
            "{out}"
        );
        // No admission traffic -> no row.
        let idle = vira_obs::json::parse(
            r#"{"v":1,"t_ns":1,"final":true,"cluster":{"counters":{},"gauges":{}},
                "ranks":[],"slo":[],"tsdb":{"dup_dropped":0}}"#,
        )
        .expect("fixture parses");
        assert!(!render_top(&idle).contains("admission"));
    }

    #[test]
    fn load_renderers_report_the_balance_and_tails() {
        let plan = LoadPlan::new(
            100,
            400,
            7,
            Arrival::OpenLoop { rate_hz: 250.0 },
            "TestCube",
        );
        let admission = AdmissionConfig {
            enabled: true,
            max_queue_depth: 8,
            max_session_queued: 2,
            max_session_running: 1,
            retry_after_ms: 5,
        };
        let out = LoadOutcome {
            offered: 400,
            completed: 380,
            failed: 0,
            shed: 20,
            refused: 0,
            resubmitted: 12,
            job_latency_ns: vec![1_000_000; 380],
            ttfg_ns: vec![500_000; 380],
            wall_ns: 2_000_000_000,
        };
        assert!(out.balanced());
        let text = render_load_summary(&plan, &admission, &out);
        assert!(
            text.contains("100 sessions, open-loop 250.0 jobs/s"),
            "{text}"
        );
        assert!(text.contains("queue <= 8"), "{text}");
        assert!(
            text.contains("admitted   : 380 (95.0 % of offered)"),
            "{text}"
        );
        assert!(text.contains("20 busy rejections"), "{text}");
        assert!(text.contains("190.0 jobs/s goodput"), "{text}");
        assert!(
            text.contains("balance    : offered == completed + failed + shed + refused: ok"),
            "{text}"
        );
        let j = render_load_json(&plan, &admission, &out).to_string();
        let parsed = vira_obs::json::parse(&j).expect("load json parses");
        assert_eq!(parsed.get("offered").and_then(|v| v.as_u64()), Some(400));
        assert_eq!(parsed.get("shed").and_then(|v| v.as_u64()), Some(20));
        assert_eq!(parsed.get("balanced").and_then(|v| v.as_bool()), Some(true));
        assert_eq!(
            parsed
                .get("job_latency")
                .and_then(|h| h.get("count"))
                .and_then(|v| v.as_u64()),
            Some(380)
        );
        // All samples are 1 ms -> the p50 upper bound is the enclosing
        // log2 bucket boundary, strictly above the sample.
        let p50 = parsed
            .get("job_latency")
            .and_then(|h| h.get("p50_ub"))
            .and_then(|v| v.as_u64())
            .expect("p50_ub");
        assert!(p50 >= 1_000_000, "{p50}");
    }

    #[test]
    fn replay_at_a_zero_latency_threshold_burns_at_exactly_100() {
        // Hand-computed burn fixture (`--slo-job-latency-ms 0`): only a
        // sub-2ns job could count good, so every real job is bad.
        // bad_fraction = 1 in both windows, and burn = 1 / (1 - 0.99).
        let ttfg_slo_ns = viracocha::TelemetryConfig::default().ttfg_slo_ns;
        let (statuses, text) = replay_flight(
            &[6_515_734, 900_000],
            &[7_852_097],
            [0; 3],
            (0, ttfg_slo_ns),
        );
        let lat = statuses
            .iter()
            .find(|s| s.name == "job_latency_p99")
            .expect("job_latency_p99 row");
        assert!(lat.firing, "{lat:?}");
        assert!((lat.fast_burn - 100.0).abs() < 1e-6, "{lat:?}");
        assert!((lat.slow_burn - 100.0).abs() < 1e-6, "{lat:?}");
        // The rendered snapshot is what `slo-report --json` prints.
        let snap = vira_obs::json::parse(&text.to_string()).expect("replay renders valid json");
        let row = snap
            .get("slo")
            .and_then(|t| t.as_arr())
            .expect("slo table")
            .iter()
            .find(|r| r.get("name").and_then(|v| v.as_str()) == Some("job_latency_p99"))
            .expect("job_latency_p99 in the snapshot");
        assert_eq!(row.get("firing").and_then(|v| v.as_bool()), Some(true));
    }

    #[test]
    fn rate_must_be_finite_and_positive() {
        assert_eq!(parse_rate("2000"), Some(2000.0));
        assert_eq!(parse_rate("0.5"), Some(0.5));
        for bad in [
            "0", "-0", "-3", "nan", "NaN", "inf", "-inf", "1e400", "fast", "",
        ] {
            assert_eq!(parse_rate(bad), None, "--rate {bad:?} must be refused");
        }
    }

    #[test]
    fn sparse_hist_folds_samples_into_log2_buckets() {
        let h = sparse_hist(&[1, 2, 3, 1000]);
        let snap = h.to_snapshot();
        assert_eq!(snap.count, 4);
        assert_eq!(snap.sum, 1006);
        // 1 → bucket 0, 2..3 → bucket 1, 1000 → bucket 9 (512..1023).
        assert_eq!(snap.buckets[0], 1);
        assert_eq!(snap.buckets[1], 2);
        assert_eq!(snap.buckets[9], 1);
    }
}
