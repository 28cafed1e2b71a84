//! `check <a> <b>`: compares two result files (JSON lines, as `--out`
//! writes them) under the bounds `BENCHMARK.json` fixes, one row per
//! workload × end-to-end metric.
//!
//! A file may hold several runs of a workload; the row then compares
//! medians and knows the run-to-run spread (interquartile range over
//! median, the wider of the two files). Verdicts: `ok`; `worse` — b's
//! median is worse than a's by more than the bound; `unresolved` — the
//! spread is wider than the bound, so the comparison cannot tell,
//! unless every run of b reads better than every run of a.

use crate::stats;
use std::collections::BTreeMap;
use std::path::Path;
use vira_obs::json::{self, Json};

struct Bound {
    name: String,
    unit: String,
    higher_is_better: bool,
    bound: f64,
}

/// What two files must agree on to be comparable.
#[derive(PartialEq, Debug, Clone)]
struct Config {
    seed: Json,
    seconds: Json,
    nproc: Json,
    ranks: Json,
    sizes: Json,
}

struct Runs {
    config: Config,
    /// Metric name → one value per run.
    values: BTreeMap<String, Vec<f64>>,
}

fn field<'a>(j: &'a Json, key: &str, what: &str) -> Result<&'a Json, String> {
    j.get(key)
        .ok_or_else(|| format!("{what}: missing \"{key}\""))
}

fn load_bounds() -> Result<Vec<Bound>, String> {
    let text =
        std::fs::read_to_string("BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let j = json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = field(&j, "end_to_end", "BENCHMARK.json")?
        .as_arr()
        .ok_or("BENCHMARK.json: end_to_end is not a list")?;
    list.iter()
        .map(|m| {
            let text = |k: &str| -> Result<String, String> {
                Ok(field(m, k, "end_to_end entry")?
                    .as_str()
                    .ok_or("not a string")?
                    .to_string())
            };
            Ok(Bound {
                name: text("name")?,
                unit: text("unit")?,
                higher_is_better: text("better")? == "higher",
                bound: field(m, "bound", "end_to_end entry")?
                    .as_f64()
                    .ok_or("bound is not a number")?,
            })
        })
        .collect()
}

/// The timed (untraced) runs of a result file, per workload.
fn load_runs(path: &Path) -> Result<BTreeMap<String, Runs>, String> {
    let name = path.display();
    let text = std::fs::read_to_string(path).map_err(|e| format!("{name}: {e}"))?;
    let mut out: BTreeMap<String, Runs> = BTreeMap::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let what = format!("{name}:{}", n + 1);
        let j = json::parse(line).map_err(|e| format!("{what}: {e}"))?;
        if field(&j, "trace", &what)?.as_u64() != Some(0) {
            continue;
        }
        let workload = field(&j, "workload", &what)?
            .as_str()
            .ok_or("workload is not a string")?;
        let config = Config {
            seed: field(&j, "seed", &what)?.clone(),
            seconds: field(&j, "seconds", &what)?.clone(),
            nproc: field(&j, "nproc", &what)?.clone(),
            ranks: field(&j, "ranks", &what)?.clone(),
            sizes: field(&j, "sizes", &what)?.clone(),
        };
        let metrics = field(field(&j, "result", &what)?, "metrics", &what)?
            .as_obj()
            .ok_or_else(|| format!("{what}: metrics is not an object"))?;
        let runs = out.entry(workload.to_string()).or_insert_with(|| Runs {
            config: config.clone(),
            values: BTreeMap::new(),
        });
        if runs.config != config {
            return Err(format!(
                "{what}: runs of {workload} in one file differ in seed, sizes, nproc or ranks"
            ));
        }
        for (metric, v) in metrics {
            let value = field(v, "value", &what)?
                .as_f64()
                .ok_or("value is not a number")?;
            runs.values.entry(metric.clone()).or_default().push(value);
        }
    }
    Ok(out)
}

/// Interquartile range over median; `None` for a single run.
fn spread(sorted: &[f64]) -> Option<f64> {
    let (q1, q3) = stats::quartiles(sorted)?;
    let med = stats::median(sorted);
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

pub fn check(a: &Path, b: &Path) -> Result<i32, String> {
    let bounds = load_bounds()?;
    let (ra, rb) = (load_runs(a)?, load_runs(b)?);
    if ra.is_empty() {
        return Err(format!("{}: no timed runs", a.display()));
    }
    let mut worse = 0;
    println!(
        "{:<24} {:<20} {:>12} {:>12} {:>6} {:>8} {:>7} {:>7}  verdict",
        "workload", "metric", "a", "b", "unit", "change", "spread", "bound"
    );
    for (workload, runs_a) in &ra {
        let runs_b = rb
            .get(workload)
            .ok_or_else(|| format!("{}: no timed run of {workload}", b.display()))?;
        if runs_a.config != runs_b.config {
            return Err(format!(
                "refusing to compare {workload}: seed, seconds, sizes, nproc or ranks differ\n  a: {:?}\n  b: {:?}",
                runs_a.config, runs_b.config
            ));
        }
        for m in &bounds {
            let get = |r: &Runs, file: &Path| -> Result<Vec<f64>, String> {
                r.values
                    .get(&m.name)
                    .cloned()
                    .map(stats::sorted)
                    .ok_or_else(|| format!("{}: {workload} has no {}", file.display(), m.name))
            };
            let (va, vb) = (get(runs_a, a)?, get(runs_b, b)?);
            let (ma, mb) = (stats::median(&va), stats::median(&vb));
            // Positive = b is worse, as a share of a's median.
            let sign = if m.higher_is_better { -1.0 } else { 1.0 };
            let change = if ma != 0.0 {
                sign * (mb - ma) / ma.abs()
            } else {
                0.0
            };
            let spread = match (spread(&va), spread(&vb)) {
                (Some(x), Some(y)) => Some(x.max(y)),
                (x, y) => x.or(y),
            };
            let all_better = if m.higher_is_better {
                vb.first() > va.last()
            } else {
                vb.last() < va.first()
            };
            let verdict = if spread.is_some_and(|s| s > m.bound) && !all_better {
                "unresolved"
            } else if change > m.bound {
                worse += 1;
                "worse"
            } else {
                "ok"
            };
            println!(
                "{:<24} {:<20} {:>12.4} {:>12.4} {:>6} {:>+7.2}% {:>7} {:>6.1}%  {}",
                workload,
                m.name,
                ma,
                mb,
                m.unit,
                100.0 * sign * change,
                spread.map_or("-".to_string(), |s| format!("{:.2}%", 100.0 * s)),
                100.0 * m.bound,
                verdict
            );
        }
    }
    Ok(if worse > 0 { 1 } else { 0 })
}
