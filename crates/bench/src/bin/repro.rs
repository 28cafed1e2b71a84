//! Regenerates every table and figure of the paper.
//!
//! ```text
//! cargo run -p vira-bench --release --bin repro              # everything
//! cargo run -p vira-bench --release --bin repro -- fig06     # one id
//! VIRA_QUICK=1 cargo run -p vira-bench --bin repro           # smoke run
//! cargo run -p vira-bench --release --bin repro -- --trace-out traces fig06
//! ```
//!
//! JSON records land in `crates/bench/results/` from any working
//! directory; markdown tables go to stdout. With
//! `--trace-out <dir>`, each experiment additionally writes its Chrome
//! trace, JSONL event log and metrics dump under `<dir>/<id>/`.

use std::path::PathBuf;
use vira_bench::{run_ids_traced, write_json, BenchConfig};

fn main() {
    let mut ids: Vec<String> = Vec::new();
    let mut trace_out: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--trace-out" {
            match args.next() {
                Some(dir) => trace_out = Some(PathBuf::from(dir)),
                None => {
                    eprintln!("usage: repro [--trace-out <dir>] [ids…]");
                    std::process::exit(2);
                }
            }
        } else {
            ids.push(a);
        }
    }
    let cfg = BenchConfig::default();
    vira_obs::info(
        "repro",
        &format!(
            "config: engine res {} / {} steps, propfan res {} / {} steps, sweep {:?}",
            cfg.engine_res, cfg.engine_steps, cfg.propfan_res, cfg.propfan_steps, cfg.worker_sweep
        ),
        &[],
    );
    let results = run_ids_traced(&ids, &cfg, trace_out.as_deref());
    let out = std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/results"));
    match write_json(&results, out) {
        Ok(()) => vira_obs::info(
            "repro",
            &format!("wrote {} JSON records to {}", results.len(), out.display()),
            &[],
        ),
        Err(e) => vira_obs::error("repro", &format!("could not write results: {e}"), &[]),
    }
}
