//! `obs-validate` — CI helper that checks exported observability
//! artifacts against the schema self-checks.
//!
//! Usage:
//!   obs-validate [--fail-on-drops] <trace-dir>...
//!   obs-validate analyze <trace-dir> [--check <min-coverage>]
//!
//! Each directory is expected to contain `events.jsonl` and/or
//! `trace.json` (as written by `vira_obs::export_all` or the bench
//! runner's `--trace-out`), plus optionally `metrics.prom`,
//! `metrics.json`, `telemetry.json` and `flight-<trace>.jsonl` files.
//! Exits non-zero with a diagnostic on the first invalid artifact;
//! prints a per-file summary otherwise.
//!
//! Metric-registry checks run against the **artifacts**, not this
//! process's own (empty) registry: every production family name found
//! in a `metrics.json` must be declared in `METRIC_REGISTRY`
//! (`test_*` scratch names are exempt), and registry names that never
//! appear in any checked artifact are reported as a warning so the
//! DESIGN.md mirror can't rot in either direction.
//!
//! `--fail-on-drops` turns span-ring overflow (a nonzero
//! `obs_spans_dropped_total` in a checked `metrics.json`) from a warning
//! into a failure; acceptance tests pass it, chaos runs — which
//! legitimately drop under pressure — don't.
//!
//! `analyze` runs the critical-path analyzer over the directory's
//! flight recordings and prints the attribution table; with
//! `--check <frac>` it fails unless every job's stage attribution
//! covers at least that fraction of its wall time.

use std::collections::BTreeSet;
use std::path::Path;
use std::process::ExitCode;

use vira_obs::export::{
    scan_metrics_json, unregistered_metric_names, validate_chrome_trace,
    validate_chrome_trace_flows, validate_events_jsonl, validate_prometheus_text,
};
use vira_obs::flight::validate_flight_jsonl;
use vira_obs::json;
use vira_obs::metrics::METRIC_REGISTRY;
use vira_obs::slo::validate_telemetry_json;
use vira_obs::{analyze_dir, render_table};

struct CheckOptions {
    fail_on_drops: bool,
}

fn check_dir(
    dir: &Path,
    opts: &CheckOptions,
    seen_families: &mut BTreeSet<String>,
    metrics_files: &mut usize,
) -> Result<(), String> {
    let mut found = 0;
    // Accept both a flat dir and a dir of per-experiment subdirs.
    let mut dirs = vec![dir.to_path_buf()];
    if let Ok(rd) = std::fs::read_dir(dir) {
        for entry in rd.flatten() {
            if entry.path().is_dir() {
                dirs.push(entry.path());
            }
        }
    }
    for d in dirs {
        let jsonl = d.join("events.jsonl");
        if jsonl.is_file() {
            let text =
                std::fs::read_to_string(&jsonl).map_err(|e| format!("{}: {e}", jsonl.display()))?;
            let n =
                validate_events_jsonl(&text).map_err(|e| format!("{}: {e}", jsonl.display()))?;
            println!("ok {} ({n} events)", jsonl.display());
            found += 1;
        }
        let trace = d.join("trace.json");
        if trace.is_file() {
            let text =
                std::fs::read_to_string(&trace).map_err(|e| format!("{}: {e}", trace.display()))?;
            let n =
                validate_chrome_trace(&text).map_err(|e| format!("{}: {e}", trace.display()))?;
            let flows = validate_chrome_trace_flows(&text)
                .map_err(|e| format!("{}: {e}", trace.display()))?;
            println!("ok {} ({n} spans, {flows} flow events)", trace.display());
            found += 1;
        }
        let prom = d.join("metrics.prom");
        if prom.is_file() {
            let text =
                std::fs::read_to_string(&prom).map_err(|e| format!("{}: {e}", prom.display()))?;
            let n =
                validate_prometheus_text(&text).map_err(|e| format!("{}: {e}", prom.display()))?;
            println!("ok {} ({n} families)", prom.display());
            found += 1;
        }
        let mj = d.join("metrics.json");
        if mj.is_file() {
            let text =
                std::fs::read_to_string(&mj).map_err(|e| format!("{}: {e}", mj.display()))?;
            let j = json::parse(&text).map_err(|e| format!("{}: {e}", mj.display()))?;
            let (seen, drops) =
                scan_metrics_json(&j).map_err(|e| format!("{}: {e}", mj.display()))?;
            // Forward drift: every production family in the artifact
            // must be registered.
            let unknown: Vec<&String> = seen
                .iter()
                .filter(|n| !n.starts_with("test_") && !vira_obs::is_registered(n))
                .collect();
            if !unknown.is_empty() {
                return Err(format!(
                    "{}: unregistered metric names (add to METRIC_REGISTRY + DESIGN.md): {}",
                    mj.display(),
                    unknown
                        .iter()
                        .map(|s| s.as_str())
                        .collect::<Vec<_>>()
                        .join(", ")
                ));
            }
            if drops > 0 {
                let msg = format!(
                    "{}: obs_spans_dropped_total = {drops} (span rings overflowed)",
                    mj.display()
                );
                if opts.fail_on_drops {
                    return Err(msg);
                }
                println!("warn {msg}");
            }
            println!("ok {} ({} families)", mj.display(), seen.len());
            seen_families.extend(seen);
            *metrics_files += 1;
            found += 1;
        }
        let tj = d.join("telemetry.json");
        if tj.is_file() {
            let text =
                std::fs::read_to_string(&tj).map_err(|e| format!("{}: {e}", tj.display()))?;
            let (ranks, slos) =
                validate_telemetry_json(&text).map_err(|e| format!("{}: {e}", tj.display()))?;
            println!("ok {} ({ranks} ranks, {slos} SLOs)", tj.display());
            found += 1;
        }
        if let Ok(rd) = std::fs::read_dir(&d) {
            for entry in rd.flatten() {
                let name = entry.file_name().to_string_lossy().into_owned();
                if !name.starts_with("flight-") || !name.ends_with(".jsonl") {
                    continue;
                }
                let p = entry.path();
                let text =
                    std::fs::read_to_string(&p).map_err(|e| format!("{}: {e}", p.display()))?;
                let n =
                    validate_flight_jsonl(&text).map_err(|e| format!("{}: {e}", p.display()))?;
                println!("ok {} ({n} records)", p.display());
                found += 1;
            }
        }
    }
    if found == 0 {
        return Err(format!(
            "{}: no events.jsonl or trace.json found",
            dir.display()
        ));
    }
    // Belt-and-braces: any metric recorded by this process itself (the
    // validators don't record, but keep the invariant) must be
    // registered too.
    let snap = vira_obs::snapshot();
    let unknown: Vec<String> = unregistered_metric_names(&snap)
        .into_iter()
        .filter(|n| !n.starts_with("test_"))
        .collect();
    if !unknown.is_empty() {
        return Err(format!(
            "unregistered metric names (add to METRIC_REGISTRY + DESIGN.md): {}",
            unknown.join(", ")
        ));
    }
    Ok(())
}

fn cmd_analyze(args: &[String]) -> Result<(), String> {
    let mut dir = None;
    let mut min_cov: Option<f64> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--check" {
            let v = it.next().ok_or("--check needs a fraction (e.g. 0.25)")?;
            min_cov = Some(v.parse::<f64>().map_err(|e| format!("--check {v}: {e}"))?);
        } else if dir.is_none() {
            dir = Some(a.clone());
        } else {
            return Err(format!("unexpected argument '{a}'"));
        }
    }
    let dir = dir.ok_or("usage: obs-validate analyze <trace-dir> [--check <frac>]")?;
    let rows = analyze_dir(Path::new(&dir))?;
    if rows.is_empty() {
        return Err(format!("{dir}: no flight-<trace>.jsonl recordings found"));
    }
    print!("{}", render_table(&rows));
    if let Some(min) = min_cov {
        for r in &rows {
            if r.coverage < min {
                return Err(format!(
                    "trace {} (job {}): attribution covers {:.1}% of wall time, below --check {:.1}%",
                    r.trace_id,
                    r.job,
                    r.coverage * 100.0,
                    min * 100.0
                ));
            }
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args.iter().any(|a| a == "-h" || a == "--help") {
        eprintln!("usage: obs-validate [--fail-on-drops] <trace-dir>...");
        eprintln!("       obs-validate analyze <trace-dir> [--check <min-coverage>]");
        return ExitCode::from(2);
    }
    if args[0] == "analyze" {
        return match cmd_analyze(&args[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("obs-validate: FAIL {e}");
                ExitCode::FAILURE
            }
        };
    }
    let opts = CheckOptions {
        fail_on_drops: args.iter().any(|a| a == "--fail-on-drops"),
    };
    args.retain(|a| a != "--fail-on-drops");
    if args.is_empty() {
        eprintln!("obs-validate: FAIL no trace directories given");
        return ExitCode::FAILURE;
    }
    let mut seen_families = BTreeSet::new();
    let mut metrics_files = 0usize;
    for a in &args {
        if let Err(e) = check_dir(Path::new(a), &opts, &mut seen_families, &mut metrics_files) {
            eprintln!("obs-validate: FAIL {e}");
            return ExitCode::FAILURE;
        }
    }
    // Reverse drift: registry families that no checked artifact ever
    // emitted. A warning, not a failure — a single run doesn't exercise
    // every subsystem — but it keeps DESIGN.md's mirror honest.
    if metrics_files > 0 {
        let missing: Vec<&str> = METRIC_REGISTRY
            .iter()
            .map(|&(n, _)| n)
            .filter(|n| !seen_families.contains(*n))
            .collect();
        if !missing.is_empty() {
            println!(
                "warn: {} registered metric(s) never emitted by the checked artifacts: {}",
                missing.len(),
                missing.join(", ")
            );
        }
    }
    ExitCode::SUCCESS
}
