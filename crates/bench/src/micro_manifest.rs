//! Provenance handling for `results/BENCH_micro.json`.
//!
//! The micro-benchmark manifest records the micro-bench inventory
//! plus (optionally) measured per-iteration times. Measurements are
//! machine-dependent, so the manifest distinguishes real numbers from
//! placeholders: every entry carries a `status` of `"measured"` or
//! `"unmeasured"`, derived from whether `measured_ns` is a number or
//! null. Merging fresh results into the manifest never lets a null
//! (an unmeasured re-run, a skipped bench) clobber a real measurement.

use vira_obs::json::Json;

/// Status string for an entry with a numeric `measured_ns`.
pub const MEASURED: &str = "measured";
/// Status string for an entry whose `measured_ns` is null.
pub const UNMEASURED: &str = "unmeasured";

/// What [`merge_measurements`] did.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct MergeOutcome {
    /// Entries whose `measured_ns` was overwritten with a fresh number.
    pub updated: usize,
    /// Entries where a fresh null was *refused* because the manifest
    /// already holds a real measurement.
    pub kept: usize,
    /// Fresh entries appended because the manifest had no bench of that
    /// name.
    pub added: usize,
}

fn benches_mut(manifest: &mut Json) -> Option<&mut Vec<Json>> {
    match manifest.get_mut("benches")? {
        Json::Arr(benches) => Some(benches),
        _ => None,
    }
}

fn entry_name(entry: &Json) -> Option<&str> {
    entry.get("name")?.as_str()
}

fn is_measured(entry: &Json) -> bool {
    entry
        .get("measured_ns")
        .is_some_and(|v| v.as_f64().is_some())
}

/// Stamps every bench entry's `status` field from its `measured_ns`
/// (`"measured"` for numbers, `"unmeasured"` for null/absent).
pub fn annotate_status(manifest: &mut Json) {
    let Some(benches) = benches_mut(manifest) else {
        return;
    };
    for entry in benches.iter_mut() {
        let status = if is_measured(entry) {
            MEASURED
        } else {
            UNMEASURED
        };
        entry.set("status", status.into());
    }
}

/// Merges freshly measured per-iteration times into `manifest`.
///
/// `fresh` maps bench names to `Some(ns)` (a real measurement) or `None`
/// (the bench ran but produced nothing, or was skipped). Real numbers
/// overwrite; `None` never downgrades an entry that already holds a
/// measurement — the manifest's provenance rule. Unknown names are
/// appended as minimal entries. `status` fields are re-derived at the
/// end.
pub fn merge_measurements(manifest: &mut Json, fresh: &[(String, Option<u64>)]) -> MergeOutcome {
    let mut out = MergeOutcome::default();
    if let Some(benches) = benches_mut(manifest) {
        for (name, measured) in fresh {
            let existing = benches
                .iter_mut()
                .find(|e| entry_name(e) == Some(name.as_str()));
            match (existing, measured) {
                (Some(entry), Some(ns)) => {
                    entry.set("measured_ns", (*ns).into());
                    out.updated += 1;
                }
                (Some(entry), None) => {
                    // Refuse to null out a real measurement.
                    if is_measured(entry) {
                        out.kept += 1;
                    }
                }
                (None, measured) => {
                    benches.push(Json::obj([
                        ("name", name.as_str().into()),
                        ("unit", "ns/iter".into()),
                        ("measured_ns", (*measured).into()),
                    ]));
                    out.added += 1;
                }
            }
        }
    }
    annotate_status(manifest);
    out
}

/// Default regression tolerance for [`check_regressions`]: a fresh
/// reading more than 20% slower than the manifest baseline fails.
pub const DEFAULT_TOLERANCE: f64 = 0.20;

/// One failed check from [`check_regressions`].
#[derive(Debug, PartialEq)]
pub struct Regression {
    /// Bench name (`group/case`).
    pub name: String,
    /// Human-readable explanation of the failure.
    pub detail: String,
}

/// Parses the `[{"name", "measured_ns"}, ...]` array shape that the
/// measurement harnesses emit into the pair list
/// [`merge_measurements`] and [`check_regressions`] consume.
pub fn parse_fresh(fresh: &Json) -> Option<Vec<(String, Option<u64>)>> {
    fresh
        .as_arr()?
        .iter()
        .map(|e| {
            let name = entry_name(e)?.to_string();
            let ns = match e.get("measured_ns") {
                Some(Json::Null) | None => None,
                Some(v) => Some(v.as_u64()?),
            };
            Some((name, ns))
        })
        .collect()
}

/// Thread count of a multi-thread rung, read from its `_<N>t` name
/// suffix (`extract/parallel_blocks_4t` → 4); `None` for other rungs.
/// On a host with fewer cores than that, the rung measures time slicing,
/// not the parallel path, so `bench_check` neither gates nor merges it.
pub fn rung_threads(name: &str) -> Option<usize> {
    name.rsplit_once('_')?.1.strip_suffix('t')?.parse().ok()
}

/// Compares fresh measurements against the manifest's recorded
/// baselines and returns every regression found.
///
/// Two failure modes, matching what the merge rules let through
/// silently:
/// - a fresh reading more than `tolerance` (fractional, e.g. 0.2 for
///   20%) slower than a measured baseline;
/// - a fresh `None` for a bench the manifest has already measured
///   (null-after-measured — the bench stopped producing numbers, which
///   the provenance rule would otherwise quietly paper over).
///
/// Benches absent from the manifest, or with a null baseline, are new
/// territory and never fail. Fresh readings *faster* than baseline
/// never fail either — improvements land via [`merge_measurements`].
pub fn check_regressions(
    manifest: &Json,
    fresh: &[(String, Option<u64>)],
    tolerance: f64,
) -> Vec<Regression> {
    let mut out = Vec::new();
    let Some(benches) = manifest.get("benches").and_then(Json::as_arr) else {
        return out;
    };
    for (name, measured) in fresh {
        let baseline = benches
            .iter()
            .find(|e| entry_name(e) == Some(name.as_str()))
            .and_then(|e| e.get("measured_ns"))
            .and_then(Json::as_u64);
        let Some(baseline) = baseline else {
            continue;
        };
        match measured {
            Some(ns) => {
                let limit = baseline as f64 * (1.0 + tolerance);
                if *ns as f64 > limit {
                    out.push(Regression {
                        name: name.clone(),
                        detail: format!(
                            "{ns} ns/iter is {:.0}% over the {baseline} ns/iter baseline \
                             (tolerance {:.0}%)",
                            (*ns as f64 / baseline as f64 - 1.0) * 100.0,
                            tolerance * 100.0,
                        ),
                    });
                }
            }
            None => out.push(Regression {
                name: name.clone(),
                detail: format!(
                    "produced no measurement but the manifest holds a \
                     {baseline} ns/iter baseline (null-after-measured)"
                ),
            }),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use vira_obs::json::parse;

    fn manifest() -> Json {
        parse(
            r#"{
            "id": "micro",
            "benches": [
                {"name": "a/real", "unit": "ns/iter", "measured_ns": 120},
                {"name": "b/null", "unit": "ns/iter", "measured_ns": null}
            ]
        }"#,
        )
        .unwrap()
    }

    /// Field `key` of the manifest's `i`-th bench entry.
    fn bench<'a>(m: &'a Json, i: usize, key: &str) -> &'a Json {
        m.get("benches").unwrap().as_arr().unwrap()[i]
            .get(key)
            .unwrap()
    }

    #[test]
    fn annotate_derives_status_from_measured_ns() {
        let mut m = manifest();
        annotate_status(&mut m);
        assert_eq!(bench(&m, 0, "status").as_str(), Some(MEASURED));
        assert_eq!(bench(&m, 1, "status").as_str(), Some(UNMEASURED));
    }

    #[test]
    fn null_never_overwrites_a_real_measurement() {
        let mut m = manifest();
        let out = merge_measurements(&mut m, &[("a/real".into(), None), ("b/null".into(), None)]);
        assert_eq!(
            out,
            MergeOutcome {
                updated: 0,
                kept: 1,
                added: 0
            }
        );
        assert_eq!(bench(&m, 0, "measured_ns").as_u64(), Some(120));
        assert_eq!(bench(&m, 0, "status").as_str(), Some(MEASURED));
        assert!(bench(&m, 1, "measured_ns").is_null());
        assert_eq!(bench(&m, 1, "status").as_str(), Some(UNMEASURED));
    }

    #[test]
    fn fresh_numbers_overwrite_and_unknown_names_append() {
        let mut m = manifest();
        let out = merge_measurements(
            &mut m,
            &[
                ("a/real".into(), Some(95)),
                ("b/null".into(), Some(40)),
                ("c/new".into(), Some(7)),
            ],
        );
        assert_eq!(
            out,
            MergeOutcome {
                updated: 2,
                kept: 0,
                added: 1
            }
        );
        assert_eq!(bench(&m, 0, "measured_ns").as_u64(), Some(95));
        assert_eq!(bench(&m, 1, "measured_ns").as_u64(), Some(40));
        assert_eq!(bench(&m, 1, "status").as_str(), Some(MEASURED));
        assert_eq!(bench(&m, 2, "name").as_str(), Some("c/new"));
        assert_eq!(bench(&m, 2, "measured_ns").as_u64(), Some(7));
        assert_eq!(bench(&m, 2, "status").as_str(), Some(MEASURED));
    }

    #[test]
    fn parse_fresh_accepts_harness_output_shape() {
        let fresh = parse(
            r#"[
            {"name": "a/real", "measured_ns": 120},
            {"name": "b/skipped", "measured_ns": null}
        ]"#,
        )
        .unwrap();
        let pairs = parse_fresh(&fresh).expect("well-formed");
        assert_eq!(
            pairs,
            vec![("a/real".into(), Some(120)), ("b/skipped".into(), None)]
        );
        assert!(parse_fresh(&parse(r#"{"not": "an array"}"#).unwrap()).is_none());
        assert!(
            parse_fresh(&parse(r#"[{"measured_ns": 5}]"#).unwrap()).is_none(),
            "entries without a name are malformed"
        );
    }

    #[test]
    fn regressions_fail_only_on_slowdown_past_tolerance() {
        let m = manifest();
        // 20% over a 120 ns baseline is 144 ns: 144 passes, 145 fails.
        let ok = check_regressions(
            &m,
            &[("a/real".into(), Some(144)), ("a/real".into(), Some(60))],
            DEFAULT_TOLERANCE,
        );
        assert!(
            ok.is_empty(),
            "within tolerance and improvements pass: {ok:?}"
        );
        let bad = check_regressions(&m, &[("a/real".into(), Some(145))], DEFAULT_TOLERANCE);
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].name, "a/real");
        assert!(bad[0].detail.contains("145 ns/iter"), "{}", bad[0].detail);
    }

    #[test]
    fn regressions_flag_null_after_measured_but_not_new_ground() {
        let m = manifest();
        let found = check_regressions(
            &m,
            &[
                ("a/real".into(), None),       // null-after-measured: fails
                ("b/null".into(), None),       // never measured: fine
                ("b/null".into(), Some(9999)), // no baseline: fine
                ("c/unknown".into(), Some(1)), // not in manifest: fine
                ("c/unknown".into(), None),    // ditto
            ],
            DEFAULT_TOLERANCE,
        );
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].name, "a/real");
        assert!(
            found[0].detail.contains("null-after-measured"),
            "{}",
            found[0].detail
        );
    }

    #[test]
    fn thread_counts_come_from_the_t_suffix_only() {
        assert_eq!(rung_threads("extract/parallel_blocks_8t"), Some(8));
        assert_eq!(rung_threads("x/y_2t"), Some(2));
        for single in ["a/real", "obs/install_ctx", "x/y_t", "x/y_2tt"] {
            assert_eq!(rung_threads(single), None, "{single}");
        }
        // Of the shipped rungs, only the `_<N>t` ones are multi-thread.
        let m = parse(include_str!("../results/BENCH_micro.json")).unwrap();
        let multi: Vec<_> = m
            .get("benches")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .filter_map(entry_name)
            .filter_map(|name| Some((name, rung_threads(name)?)))
            .collect();
        assert_eq!(
            multi,
            [
                ("extract/parallel_blocks_1t", 1),
                ("extract/parallel_blocks_2t", 2),
                ("extract/parallel_blocks_4t", 4),
                ("extract/parallel_blocks_8t", 8),
                ("bricktree/build_21c_2t", 2),
                ("walk/cold_8_items_1t", 1),
                ("walk/cold_8_items_rounds_of_2_2t", 2),
                ("walk/cold_8_items_rounds_of_8_2t", 2),
            ]
        );
    }

    #[test]
    fn shipped_manifest_annotates_cleanly() {
        // The checked-in manifest must parse and already carry statuses
        // consistent with its measurements.
        let text = include_str!("../results/BENCH_micro.json");
        let mut m = parse(text).expect("BENCH_micro.json parses");
        let before = m.clone();
        annotate_status(&mut m);
        assert_eq!(before, m, "checked-in statuses must match measured_ns");
        // `bench_check --merge` rewrites the file as this text.
        assert_eq!(
            m.pretty() + "\n",
            text,
            "the writer reproduces the checked-in file"
        );
    }
}
