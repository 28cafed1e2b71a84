//! Gate fresh micro-benchmark readings against the checked-in manifest.
//!
//! ```text
//! cargo run -p vira-bench --bin bench_check -- fresh.json
//! cargo run -p vira-bench --bin bench_check -- fresh.json --merge
//! cargo run -p vira-bench --bin bench_check -- fresh.json --tolerance 35
//! ```
//!
//! `fresh.json` is the `[{"name", "measured_ns"}, ...]` array emitted by
//! `cargo bench -p vira-bench --bench micro`.
//! The tool exits non-zero when any bench regressed past the tolerance
//! (default 20%) against `results/BENCH_micro.json`, or went
//! null-after-measured — the two failure modes `merge_measurements`
//! would otherwise absorb silently. With `--merge`, passing readings are
//! folded back into the manifest (statuses re-derived), keeping the
//! checked-in numbers current. A rung named `..._<N>t` runs N threads;
//! on a host with fewer than N cores it is reported as skipped, neither
//! gated nor merged.

use std::path::PathBuf;
use std::process::exit;

use vira_bench::micro_manifest::{
    check_regressions, merge_measurements, parse_fresh, rung_threads, DEFAULT_TOLERANCE,
};
use vira_obs::json;

fn usage() -> ! {
    eprintln!(
        "usage: bench_check <fresh.json> [--manifest <path>] [--merge] [--tolerance <percent>]"
    );
    exit(2);
}

fn main() {
    let mut fresh_path: Option<PathBuf> = None;
    let mut manifest_path = PathBuf::from("crates/bench/results/BENCH_micro.json");
    let mut merge = false;
    let mut tolerance = DEFAULT_TOLERANCE;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--merge" => merge = true,
            "--manifest" => match args.next() {
                Some(p) => manifest_path = PathBuf::from(p),
                None => usage(),
            },
            "--tolerance" => match args.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(pct) if pct >= 0.0 => tolerance = pct / 100.0,
                _ => usage(),
            },
            _ if fresh_path.is_none() && !a.starts_with('-') => {
                fresh_path = Some(PathBuf::from(a));
            }
            _ => usage(),
        }
    }
    let Some(fresh_path) = fresh_path else {
        usage()
    };

    // Fall back to the manifest relative to the crate when invoked from
    // the crate directory rather than the workspace root.
    if !manifest_path.exists() {
        let local = PathBuf::from("results/BENCH_micro.json");
        if local.exists() {
            manifest_path = local;
        }
    }

    let fresh_text = std::fs::read_to_string(&fresh_path)
        .unwrap_or_else(|e| fatal(&format!("reading {}: {e}", fresh_path.display())));
    let fresh_value = json::parse(&fresh_text)
        .unwrap_or_else(|e| fatal(&format!("parsing {}: {e}", fresh_path.display())));
    let mut fresh = parse_fresh(&fresh_value).unwrap_or_else(|| {
        fatal(&format!(
            "{} is not a [{{\"name\", \"measured_ns\"}}] array",
            fresh_path.display()
        ))
    });

    let manifest_text = std::fs::read_to_string(&manifest_path)
        .unwrap_or_else(|e| fatal(&format!("reading {}: {e}", manifest_path.display())));
    let mut manifest = json::parse(&manifest_text)
        .unwrap_or_else(|e| fatal(&format!("parsing {}: {e}", manifest_path.display())));

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    fresh.retain(|(name, _)| match rung_threads(name) {
        Some(threads) if threads > cores => {
            eprintln!("{name}: skipped ({threads} threads, {cores} cores)");
            false
        }
        _ => true,
    });

    let regressions = check_regressions(&manifest, &fresh, tolerance);
    for r in &regressions {
        eprintln!("REGRESSION {}: {}", r.name, r.detail);
    }

    if regressions.is_empty() && merge {
        let out = merge_measurements(&mut manifest, &fresh);
        std::fs::write(&manifest_path, manifest.pretty() + "\n")
            .unwrap_or_else(|e| fatal(&format!("writing {}: {e}", manifest_path.display())));
        eprintln!(
            "merged into {}: {} updated, {} kept, {} added",
            manifest_path.display(),
            out.updated,
            out.kept,
            out.added
        );
    }

    if regressions.is_empty() {
        eprintln!("bench_check: {} readings OK", fresh.len());
    } else {
        eprintln!("bench_check: {} regression(s)", regressions.len());
        exit(1);
    }
}

fn fatal(msg: &str) -> ! {
    eprintln!("bench_check: {msg}");
    exit(2);
}
