//! vira-bench: wall-clock benchmark of the Viracocha data plane.
//!
//! ```text
//! vira_bench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <file>]
//! vira_bench check <a.jsonl> <b.jsonl>
//! ```
//!
//! See `benchmark/README.md` for what is measured and how to read it.

mod alloc;
mod check;
mod data;
mod job;
mod run;
mod stats;
mod trace;
mod workload;
mod world;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

const USAGE: &str =
    "usage: vira_bench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <file>]
       vira_bench check <a.jsonl> <b.jsonl>";

fn parse_run(args: &[String]) -> Result<run::Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(workload::by_name(value).ok_or_else(|| {
                    let names: Vec<_> = workload::WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload '{value}' (one of {})", names.join(", "))
                })?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--out" => out = Some(std::path::PathBuf::from(value)),
            _ => return Err(format!("unknown argument '{flag}'")),
        }
    }
    Ok(run::Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out,
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = if args.first().map(String::as_str) == Some("check") {
        match args.as_slice() {
            [_, a, b] => check::check(a.as_ref(), b.as_ref()),
            _ => Err(USAGE.to_string()),
        }
    } else {
        parse_run(&args).and_then(|a| run::run(&a))
    };
    match code {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("vira_bench: {e}");
            std::process::exit(2);
        }
    }
}
