//! End-to-end tests of the Viracocha framework: client → scheduler →
//! work group → (streamed) results → client.

use std::sync::Arc;
use vira_dms::proxy::ProxyConfig;
use vira_extract::mesh::TriangleSoup;
use vira_grid::synth::{self, test_cube};
use vira_storage::source::SynthSource;
use vira_vista::{ClientError, CommandParams, JobOutcome, SubmitSpec, VistaClient};
use viracocha::{Viracocha, ViracochaConfig};

fn launch(n_workers: usize, prefetcher: &str) -> (Viracocha, VistaClient) {
    let mut cfg = ViracochaConfig::for_tests(n_workers);
    cfg.proxy = ProxyConfig {
        prefetcher: prefetcher.into(),
        ..ProxyConfig::default()
    };
    let (backend, link) = Viracocha::launch(cfg);
    backend.register_dataset(
        Arc::new(SynthSource::new(Arc::new(test_cube(10, 4)))),
        false,
    );
    (backend, VistaClient::new(link))
}

fn iso_spec(workers: usize) -> SubmitSpec {
    SubmitSpec {
        command: "IsoDataMan".into(),
        dataset: "TestCube".into(),
        params: CommandParams::new().set("iso", 0.15).set("n_steps", 2),
        workers,
    }
}

fn finish(backend: Viracocha, mut client: VistaClient) {
    client.shutdown().unwrap();
    backend.join();
}

/// A client request frame: the JSON header of `vira_vista::protocol`'s
/// framing and no payload.
fn frame(json: &str) -> bytes::Bytes {
    let mut buf = (json.len() as u32).to_le_bytes().to_vec();
    buf.extend_from_slice(json.as_bytes());
    bytes::Bytes::from(buf)
}

#[test]
fn iso_dataman_returns_geometry() {
    let (backend, mut client) = launch(2, "none");
    let out = client.run(&iso_spec(2)).unwrap();
    assert!(out.triangles.n_triangles() > 0);
    assert!(out.triangles.is_finite());
    assert_eq!(out.report.triangles, out.triangles.n_triangles() as u64);
    assert!(out.report.read_s > 0.0, "misses charge read time");
    assert!(out.report.compute_s > 0.0);
    finish(backend, client);
}

#[test]
fn simple_iso_matches_dataman_geometry() {
    // The data path must not change the result.
    let (backend, mut client) = launch(2, "none");
    let mut spec = iso_spec(2);
    let with_dms = client.run(&spec).unwrap();
    spec.command = "SimpleIso".into();
    let without = client.run(&spec).unwrap();
    assert_eq!(
        with_dms.triangles.n_triangles(),
        without.triangles.n_triangles()
    );
    // Triangle sets are equal up to merge order; compare sorted vertex
    // bags.
    let mut a = with_dms.triangles.positions.to_vec();
    let mut b = without.triangles.positions.to_vec();
    let key = |p: &[f32; 3]| (p[0].to_bits(), p[1].to_bits(), p[2].to_bits());
    a.sort_by_key(key);
    b.sort_by_key(key);
    assert_eq!(a, b);
    finish(backend, client);
}

#[test]
fn result_is_independent_of_worker_count() {
    let (backend, mut client) = launch(4, "none");
    let one = client.run(&iso_spec(1)).unwrap();
    let four = client.run(&iso_spec(4)).unwrap();
    assert_eq!(one.triangles.n_triangles(), four.triangles.n_triangles());
    let mut a = one.triangles.positions.to_vec();
    let mut b = four.triangles.positions.to_vec();
    let key = |p: &[f32; 3]| (p[0].to_bits(), p[1].to_bits(), p[2].to_bits());
    a.sort_by_key(key);
    b.sort_by_key(key);
    assert_eq!(a, b);
    finish(backend, client);
}

#[test]
fn parallel_extraction_is_byte_identical_to_serial() {
    // The item walk extracts one loaded item per thread side by side and
    // merges in item order: the same triangles in the same order with
    // the same bits, the same pruning counters and the same progress
    // ticks at every width, for iso and λ₂ alike. (TriangleSoup equality
    // implies identical wire bytes — the payload encoding is a pure
    // function of the soup.)
    // Engine: 23 blocks whose surfaces differ, so any reordering shows.
    let jobs = [
        ("IsoDataMan", CommandParams::new().set("iso", 15.0)),
        (
            "SimpleVortex",
            CommandParams::new().set("threshold", -2.0e4),
        ),
        (
            "VortexDataMan",
            CommandParams::new()
                .set("threshold", -2.0e4)
                .set("cache_fields", "true")
                .set("ghosts", "true"),
        ),
    ];
    let run_with = |threads: usize| {
        let mut cfg = ViracochaConfig::for_tests(1);
        cfg.proxy = ProxyConfig {
            prefetcher: "none".into(),
            ..ProxyConfig::default()
        };
        cfg.extract.threads = threads;
        let (backend, link) = Viracocha::launch(cfg);
        backend.register_dataset(
            Arc::new(SynthSource::new(Arc::new(synth::engine(6)))),
            false,
        );
        let mut client = VistaClient::new(link);
        let outs: Vec<_> = jobs
            .iter()
            .map(|(command, params)| {
                client
                    .run(&SubmitSpec {
                        command: (*command).into(),
                        dataset: "Engine".into(),
                        params: params.clone().set("n_steps", 2),
                        workers: 1,
                    })
                    .unwrap()
            })
            .collect();
        finish(backend, client);
        outs
    };
    let serial = run_with(1);
    for threads in [2, 4] {
        for (((command, _), one), wide) in jobs.iter().zip(&serial).zip(run_with(threads)) {
            assert!(one.triangles.n_triangles() > 0, "{command}");
            assert_eq!(
                one.triangles, wide.triangles,
                "{command} at {threads} threads: exact order, exact bits"
            );
            assert_eq!(one.report.cells_skipped, wide.report.cells_skipped);
            assert_eq!(one.report.bricks_skipped, wide.report.bricks_skipped);
            let ticks = |o: &JobOutcome| o.progress.iter().map(|p| p.fraction).collect::<Vec<_>>();
            assert_eq!(ticks(one), ticks(&wide), "{command} at {threads} threads");
            assert_eq!(
                ticks(one).last(),
                Some(&1.0),
                "{command} reports completion"
            );
        }
    }
}

#[test]
fn second_run_is_served_from_cache() {
    let (backend, mut client) = launch(2, "none");
    let cold = client.run(&iso_spec(2)).unwrap();
    let warm = client.run(&iso_spec(2)).unwrap();
    assert!(cold.report.cache_misses > 0);
    assert_eq!(warm.report.cache_misses, 0, "fully cached");
    assert!(warm.report.cache_hits > 0);
    assert!(warm.report.read_s < cold.report.read_s);
    finish(backend, client);
}

#[test]
fn viewer_iso_streams_packets() {
    let (backend, mut client) = launch(2, "obl");
    let out = client
        .run(&SubmitSpec {
            command: "ViewerIso".into(),
            dataset: "TestCube".into(),
            params: CommandParams::new()
                .set("iso", 0.15)
                .set("n_steps", 2)
                .set("batch", 50)
                .set_vec3("viewpoint", [3.0, 0.0, 0.0]),
            workers: 2,
        })
        .unwrap();
    assert!(!out.packets.is_empty(), "ViewerIso must stream");
    assert!(out.triangles.n_triangles() > 0);
    assert!(out.first_result_wall.is_some());
    // Packet sequence numbers from one worker are strictly increasing.
    for w in 0..=2 {
        let seqs: Vec<u32> = out
            .packets
            .iter()
            .filter(|p| p.from_worker == w)
            .map(|p| p.seq)
            .collect();
        assert!(seqs.windows(2).all(|x| x[1] > x[0]), "worker {w}: {seqs:?}");
    }
    finish(backend, client);
}

#[test]
fn viewer_iso_total_matches_plain_iso() {
    // Streaming reorders delivery but must not change the surface.
    let (backend, mut client) = launch(2, "none");
    let plain = client.run(&iso_spec(2)).unwrap();
    let streamed = client
        .run(&SubmitSpec {
            command: "ViewerIso".into(),
            dataset: "TestCube".into(),
            params: CommandParams::new()
                .set("iso", 0.15)
                .set("n_steps", 2)
                .set("batch", 64)
                .set_vec3("viewpoint", [0.0, 5.0, 0.0]),
            workers: 2,
        })
        .unwrap();
    assert_eq!(
        plain.triangles.n_triangles(),
        streamed.triangles.n_triangles()
    );
    finish(backend, client);
}

#[test]
fn vortex_commands_find_the_test_vortex() {
    let (backend, mut client) = launch(2, "none");
    for cmd in ["SimpleVortex", "VortexDataMan"] {
        let out = client
            .run(&SubmitSpec {
                command: cmd.into(),
                dataset: "TestCube".into(),
                params: CommandParams::new()
                    .set("threshold", -0.05)
                    .set("n_steps", 1),
                workers: 2,
            })
            .unwrap();
        assert!(
            out.triangles.n_triangles() > 0,
            "{cmd} found no vortex surface"
        );
    }
    finish(backend, client);
}

/// A soup's triangles as vertex bits, sorted: equal for two soups that
/// hold the same triangles in any order.
fn sorted_triangles(soup: &TriangleSoup) -> Vec<[[u32; 3]; 3]> {
    let mut tris: Vec<[[u32; 3]; 3]> = soup
        .positions
        .chunks_exact(3)
        .map(|t| std::array::from_fn(|v| t[v].map(f32::to_bits)))
        .collect();
    tris.sort_unstable();
    tris
}

#[test]
fn streamed_vortex_streams_and_matches() {
    // StreamedVortex sends the surface VortexDataMan returns, in batches:
    // from one worker the same bytes in the same order, from two the
    // same triangles in arrival order; at every extraction width, from
    // a freshly derived λ₂ field and from a memoized one (`cache_fields`
    // on the plain run leaves field and bricktree behind). Engine: 23
    // blocks whose surfaces differ, so a dropped or reordered batch
    // shows.
    for threads in [1, 2] {
        let mut cfg = ViracochaConfig::for_tests(2);
        cfg.extract.threads = threads;
        let (backend, link) = Viracocha::launch(cfg);
        backend.register_dataset(
            Arc::new(SynthSource::new(Arc::new(synth::engine(6)))),
            false,
        );
        let mut client = VistaClient::new(link);
        for (workers, cache_fields) in [(1, false), (2, false), (1, true), (2, true)] {
            let mut run = |command: &str, params: CommandParams| {
                client
                    .run(&SubmitSpec {
                        command: command.into(),
                        dataset: "Engine".into(),
                        params: params.set("threshold", -2.0e4).set("n_steps", 2),
                        workers,
                    })
                    .unwrap()
            };
            let plain = run(
                "VortexDataMan",
                CommandParams::new().set("cache_fields", cache_fields),
            );
            let streamed = run("StreamedVortex", CommandParams::new().set("batch", 16));
            let case = format!("{workers} workers, {threads} threads, cache {cache_fields}");
            assert!(plain.triangles.n_triangles() > 0, "{case}");
            assert!(streamed.packets.len() > 1, "{case}: batches");
            if workers == 1 {
                assert_eq!(streamed.triangles, plain.triangles, "{case}");
            } else {
                assert_eq!(
                    sorted_triangles(&streamed.triangles),
                    sorted_triangles(&plain.triangles),
                    "{case}"
                );
            }
        }
        finish(backend, client);
    }
}

#[test]
fn pathlines_produce_polylines() {
    let (backend, mut client) = launch(2, "none");
    for cmd in ["SimplePathlines", "PathlinesDataMan"] {
        let out = client
            .run(&SubmitSpec {
                command: cmd.into(),
                dataset: "TestCube".into(),
                params: CommandParams::new().set("n_seeds", 4).set("rngseed", 7),
                workers: 2,
            })
            .unwrap();
        assert!(!out.polylines.is_empty(), "{cmd} returned no polylines");
        for line in &out.polylines {
            assert!(line.len() >= 2);
            assert!(line.times.windows(2).all(|w| w[1] > w[0]), "times increase");
        }
        assert_eq!(out.report.polylines, out.polylines.len() as u64);
    }
    finish(backend, client);
}

#[test]
fn pathlines_deterministic_across_variants() {
    let (backend, mut client) = launch(2, "none");
    let mk = |cmd: &str| SubmitSpec {
        command: cmd.into(),
        dataset: "TestCube".into(),
        params: CommandParams::new().set("n_seeds", 3).set("rngseed", 11),
        workers: 1,
    };
    let a = client.run(&mk("SimplePathlines")).unwrap();
    let b = client.run(&mk("PathlinesDataMan")).unwrap();
    assert_eq!(a.polylines.len(), b.polylines.len());
    for (x, y) in a.polylines.iter().zip(&b.polylines) {
        assert_eq!(x, y, "same seeds → identical traces");
    }
    finish(backend, client);
}

#[test]
fn progressive_iso_streams_levels() {
    let (backend, mut client) = launch(1, "none");
    let out = client
        .run(&SubmitSpec {
            command: "ProgressiveIso".into(),
            dataset: "TestCube".into(),
            params: CommandParams::new()
                .set("iso", 0.15)
                .set("n_steps", 1)
                .set("levels", 3)
                .set("batch", 1000),
            workers: 1,
        })
        .unwrap();
    assert!(out.packets.len() >= 2, "one packet per non-empty level");
    // Levels grow: later packets carry at least as many triangles as the
    // base level.
    let first = out.packets.first().unwrap().n_items;
    let max = out.packets.iter().map(|p| p.n_items).max().unwrap();
    assert!(max >= first);
    finish(backend, client);
}

#[test]
fn collective_iso_works_and_costs_more_without_parallel_fs() {
    let (backend, mut client) = launch(2, "none");
    let collective = client
        .run(&SubmitSpec {
            command: "CollectiveIso".into(),
            dataset: "TestCube".into(),
            params: CommandParams::new().set("iso", 0.15).set("n_steps", 2),
            workers: 2,
        })
        .unwrap();
    // Cached from the collective run: the plain command reuses the items.
    let plain = client.run(&iso_spec(2)).unwrap();
    assert_eq!(
        collective.triangles.n_triangles(),
        plain.triangles.n_triangles()
    );
    assert!(
        collective.report.read_s > 0.0,
        "collective reads charge time"
    );
    finish(backend, client);
}

#[test]
fn unknown_command_is_rejected() {
    let (backend, mut client) = launch(1, "none");
    let err = client
        .run(&SubmitSpec {
            command: "Nope".into(),
            dataset: "TestCube".into(),
            params: CommandParams::new(),
            workers: 1,
        })
        .unwrap_err();
    assert!(matches!(err, ClientError::Rejected(_)));
    finish(backend, client);
}

#[test]
fn unknown_dataset_is_rejected() {
    let (backend, mut client) = launch(1, "none");
    let err = client
        .run(&SubmitSpec {
            command: "IsoDataMan".into(),
            dataset: "Mystery".into(),
            params: CommandParams::new().set("iso", 0.1),
            workers: 1,
        })
        .unwrap_err();
    assert!(matches!(err, ClientError::Rejected(_)));
    finish(backend, client);
}

#[test]
fn missing_parameter_fails_the_job() {
    let (backend, mut client) = launch(1, "none");
    let err = client
        .run(&SubmitSpec {
            command: "IsoDataMan".into(),
            dataset: "TestCube".into(),
            params: CommandParams::new(), // no "iso"
            workers: 1,
        })
        .unwrap_err();
    assert!(matches!(err, ClientError::JobFailed(_)));
    finish(backend, client);
}

#[test]
fn a_step_limit_past_u32_saturates_to_the_dataset_end() {
    // TestCube here has 4 steps: a limit of u32::MAX from step 1 is
    // steps 1..4, as is a limit of 3. The job must neither panic the
    // worker (debug) nor wrap to an empty share (release).
    let (backend, mut client) = launch(2, "none");
    let run = |client: &mut VistaClient, n_steps: u64| {
        client
            .run(&SubmitSpec {
                command: "IsoDataMan".into(),
                dataset: "TestCube".into(),
                params: CommandParams::new()
                    .set("iso", 0.15)
                    .set("step0", 1)
                    .set("n_steps", n_steps),
                workers: 2,
            })
            .unwrap()
    };
    let huge = run(&mut client, u32::MAX as u64);
    let three = run(&mut client, 3);
    assert!(huge.triangles.n_triangles() > 0);
    assert_eq!(
        sorted_triangles(&huge.triangles),
        sorted_triangles(&three.triangles)
    );
    // A time level past u32 is refused, not read as step 0.
    let err = client
        .run(&SubmitSpec {
            command: "Streamlines".into(),
            dataset: "TestCube".into(),
            params: CommandParams::new().set("step", 1u64 << 32),
            workers: 2,
        })
        .unwrap_err();
    assert!(matches!(err, ClientError::JobFailed(_)), "{err:?}");
    // The workers are all still alive.
    assert!(client.run(&iso_spec(2)).unwrap().triangles.n_triangles() > 0);
    finish(backend, client);
}

#[test]
fn worker_count_is_clamped() {
    let (backend, mut client) = launch(2, "none");
    let out = client.run(&iso_spec(64)).unwrap();
    assert!(out.triangles.n_triangles() > 0);
    finish(backend, client);
}

#[test]
fn sequential_jobs_reuse_the_backend() {
    let (backend, mut client) = launch(2, "none");
    for _ in 0..5 {
        let out = client.run(&iso_spec(2)).unwrap();
        assert!(out.triangles.n_triangles() > 0);
    }
    finish(backend, client);
}

#[test]
fn concurrent_jobs_on_disjoint_groups() {
    let (backend, mut client) = launch(4, "none");
    // Two 2-worker jobs submitted back to back run concurrently.
    let j1 = client.submit(&iso_spec(2)).unwrap();
    let j2 = client.submit(&iso_spec(2)).unwrap();
    // Collect in submission order; both must complete.
    let o1 = client.collect(j1).unwrap();
    let o2 = client.collect(j2).unwrap();
    assert_eq!(o1.triangles.n_triangles(), o2.triangles.n_triangles());
    finish(backend, client);
}

#[test]
fn queued_job_runs_after_workers_free_up() {
    let (backend, mut client) = launch(2, "none");
    // Second job needs both workers → waits for the first.
    let j1 = client.submit(&iso_spec(2)).unwrap();
    let j2 = client.submit(&iso_spec(2)).unwrap();
    let o1 = client.collect(j1).unwrap();
    let o2 = client.collect(j2).unwrap();
    assert!(o1.triangles.n_triangles() > 0);
    assert!(o2.triangles.n_triangles() > 0);
    finish(backend, client);
}

#[test]
fn cancel_of_queued_job_returns_empty_final() {
    let (backend, mut client) = launch(1, "none");
    let j1 = client.submit(&iso_spec(1)).unwrap();
    let j2 = client.submit(&iso_spec(1)).unwrap(); // queued behind j1
    client.cancel(j2).unwrap();
    let o1 = client.collect(j1).unwrap();
    assert!(o1.triangles.n_triangles() > 0);
    let o2 = client.collect(j2).unwrap();
    assert_eq!(o2.triangles.n_triangles(), 0, "cancelled before start");
    finish(backend, client);
}

/// Regression: cancelling a job that is still *queued* must not leave
/// its id behind in the shared cancel set — the job never dispatches,
/// so nothing would ever clean the entry up, and the set would grow
/// forever in a long interactive session.
#[test]
fn cancel_of_queued_job_leaves_no_cancel_set_residue() {
    let (backend, mut client) = launch(1, "none");
    let j1 = client.submit(&iso_spec(1)).unwrap();
    let j2 = client.submit(&iso_spec(1)).unwrap(); // queued behind j1
    client.cancel(j2).unwrap();
    let o1 = client.collect(j1).unwrap();
    assert!(o1.triangles.n_triangles() > 0);
    let o2 = client.collect(j2).unwrap();
    assert!(
        o2.cancelled,
        "a queued-job cancel ends in a Cancelled final"
    );
    assert!(
        backend.cancel_set().read().unwrap().is_empty(),
        "queue-position cancels never dispatch, so the cancel set must stay empty"
    );
    finish(backend, client);
}

#[test]
fn engine_dataset_runs_through_the_framework() {
    // A scaled-down Engine: 23 blocks, multi-block distribution across 3
    // workers.
    let mut cfg = ViracochaConfig::for_tests(3);
    cfg.proxy.prefetcher = "none".into();
    let (backend, link) = Viracocha::launch(cfg);
    backend.register_dataset(
        Arc::new(SynthSource::new(Arc::new(synth::engine(5)))),
        false,
    );
    let mut client = VistaClient::new(link);
    let out = client
        .run(&SubmitSpec {
            command: "IsoDataMan".into(),
            dataset: "Engine".into(),
            params: CommandParams::new().set("iso", 15.0).set("n_steps", 1),
            workers: 3,
        })
        .unwrap();
    assert!(out.triangles.n_triangles() > 0, "engine intake isosurface");
    finish(backend, client);
}

#[test]
fn report_accounts_costs_per_category() {
    let (backend, mut client) = launch(2, "obl");
    let out = client.run(&iso_spec(2)).unwrap();
    // Send time includes at least the worker partial + final merges.
    assert!(out.report.send_s > 0.0);
    // Demand requests = items processed.
    assert_eq!(out.report.demand_requests, 2); // 1 block × 2 steps... per worker
    finish(backend, client);
}

#[test]
fn streamlines_trace_the_frozen_field() {
    let (backend, mut client) = launch(2, "none");
    let out = client
        .run(&SubmitSpec {
            command: "Streamlines".into(),
            dataset: "TestCube".into(),
            params: CommandParams::new()
                .set("n_seeds", 4)
                .set("rngseed", 5)
                .set("step", 1)
                .set("t_span", 0.05),
            workers: 2,
        })
        .unwrap();
    assert!(!out.polylines.is_empty());
    // The test vortex rotates about z: streamlines conserve radius.
    for line in &out.polylines {
        let first = line.points.first().unwrap();
        let last = line.points.last().unwrap();
        let r0 = ((first[0] * first[0] + first[1] * first[1]) as f64).sqrt();
        let r1 = ((last[0] * last[0] + last[1] * last[1]) as f64).sqrt();
        assert!((r0 - r1).abs() < 0.05, "radius drifted: {r0} → {r1}");
    }
    finish(backend, client);
}

#[test]
fn streaklines_return_release_ordered_points() {
    let (backend, mut client) = launch(2, "none");
    let out = client
        .run(&SubmitSpec {
            command: "Streaklines".into(),
            dataset: "TestCube".into(),
            params: CommandParams::new()
                .set("n_seeds", 3)
                .set("rngseed", 9)
                .set("releases", 6),
            workers: 2,
        })
        .unwrap();
    assert!(!out.polylines.is_empty());
    for line in &out.polylines {
        assert!(line.len() >= 2);
        // Stored times are release times, latest release first →
        // strictly decreasing along the line.
        assert!(
            line.times.windows(2).all(|w| w[1] < w[0]),
            "release times: {:?}",
            line.times
        );
    }
    finish(backend, client);
}

#[test]
fn progress_events_reach_the_client() {
    let (backend, mut client) = launch(2, "none");
    let out = client.run(&iso_spec(2)).unwrap();
    assert!(!out.progress.is_empty(), "iso commands report progress");
    // Per worker, fractions are non-decreasing and end at 1.0.
    for w in 1..=2usize {
        let fr: Vec<f32> = out
            .progress
            .iter()
            .filter(|p| p.from_worker == w)
            .map(|p| p.fraction)
            .collect();
        if fr.is_empty() {
            continue; // a worker with no assigned items reports nothing
        }
        assert!(fr.windows(2).all(|x| x[1] >= x[0]), "worker {w}: {fr:?}");
        assert!((fr.last().unwrap() - 1.0).abs() < 1e-6);
    }
    finish(backend, client);
}

#[test]
fn cancel_of_running_job_returns_early() {
    // A dilated backend so the job takes real wall time to churn through
    // its items; cancel lands mid-run and the command stops early.
    let mut cfg = ViracochaConfig::for_tests(1);
    cfg.dilation = 0.02;
    let (backend, link) = Viracocha::launch(cfg);
    backend.register_dataset(
        Arc::new(SynthSource::new(Arc::new(synth::engine(4)))),
        false,
    );
    let mut client = VistaClient::new(link);
    // Full run for reference.
    let full = client
        .run(&SubmitSpec {
            command: "IsoDataMan".into(),
            dataset: "Engine".into(),
            params: CommandParams::new().set("iso", 15.0).set("n_steps", 8),
            workers: 1,
        })
        .unwrap();
    // Cold rerun (cleared caches) that gets cancelled shortly after
    // submission.
    client
        .run(&SubmitSpec {
            command: "ClearCache".into(),
            dataset: "Engine".into(),
            params: CommandParams::new(),
            workers: 1,
        })
        .unwrap();
    let job = client
        .submit(&SubmitSpec {
            command: "IsoDataMan".into(),
            dataset: "Engine".into(),
            params: CommandParams::new().set("iso", 15.0).set("n_steps", 8),
            workers: 1,
        })
        .unwrap();
    std::thread::sleep(std::time::Duration::from_millis(60));
    client.cancel(job).unwrap();
    let out = client.collect(job).unwrap();
    assert!(
        out.triangles.n_triangles() < full.triangles.n_triangles(),
        "cancelled run produced {} of {} triangles",
        out.triangles.n_triangles(),
        full.triangles.n_triangles()
    );
    // The Cancelled terminal carries the group's accounting: the DMS
    // requests of the aborted work as well as its seconds.
    assert!(out.cancelled);
    assert!(
        out.report.demand_requests > 0 && out.report.cache_misses > 0,
        "{:?}",
        out.report
    );
    finish(backend, client);
}

#[test]
fn progress_fraction_capped_at_one() {
    // ClearCache / commands never report > 1.0 even with rounding games.
    let (backend, mut client) = launch(2, "none");
    let out = client.run(&iso_spec(2)).unwrap();
    for p in &out.progress {
        assert!((0.0..=1.0).contains(&p.fraction));
    }
    finish(backend, client);
}

#[test]
fn derived_field_cache_preserves_geometry_and_saves_compute() {
    let (backend, mut client) = launch(2, "none");
    let spec = |threshold: f64, cached: bool| SubmitSpec {
        command: "VortexDataMan".into(),
        dataset: "TestCube".into(),
        params: CommandParams::new()
            .set("threshold", threshold)
            .set("n_steps", 2)
            .set("cache_fields", if cached { "true" } else { "false" }),
        workers: 2,
    };
    // Identical geometry either way.
    let plain = client.run(&spec(-0.05, false)).unwrap();
    let cached_first = client.run(&spec(-0.05, true)).unwrap();
    assert_eq!(
        plain.triangles.n_triangles(),
        cached_first.triangles.n_triangles()
    );
    // Threshold tweak on the memoized field: far less modeled compute.
    let tweak = client.run(&spec(-0.08, true)).unwrap();
    assert!(
        tweak.report.compute_s < cached_first.report.compute_s / 2.0,
        "memoized sweep {} vs first {}",
        tweak.report.compute_s,
        cached_first.report.compute_s
    );
    assert!(tweak.triangles.n_triangles() > 0);
    // A sweep threshold outside the memoized block range skips whole
    // blocks via the range memoized next to the bricktree — no geometry,
    // every cell accounted as skipped.
    let out_of_range = client.run(&spec(1e9, true)).unwrap();
    assert_eq!(out_of_range.triangles.n_triangles(), 0);
    assert!(out_of_range.report.cells_skipped > 0);
    // The pruning counters do not depend on memoization: a block the
    // memoized range skips counts its bricks as the bricktree walk does.
    let walked = client.run(&spec(1e9, false)).unwrap();
    assert_eq!(
        (
            out_of_range.report.cells_skipped,
            out_of_range.report.bricks_skipped
        ),
        (walked.report.cells_skipped, walked.report.bricks_skipped)
    );
    finish(backend, client);
}

/// A synthetic back-end whose fetches of one block fail while `failing`
/// is set.
struct FlakySource {
    inner: SynthSource,
    block: u32,
    failing: std::sync::atomic::AtomicBool,
}

impl vira_storage::DataSource for FlakySource {
    fn spec(&self) -> &synth::DatasetSpec {
        self.inner.spec()
    }

    fn fetch(
        &self,
        id: vira_grid::block::BlockStepId,
    ) -> Result<Arc<vira_grid::BlockData>, vira_storage::StorageError> {
        if id.block == self.block && self.failing.load(std::sync::atomic::Ordering::SeqCst) {
            return Err(vira_storage::StorageError::Unavailable("injected".into()));
        }
        self.inner.fetch(id)
    }

    fn block_bboxes(&self) -> Option<Vec<vira_grid::math::Aabb>> {
        self.inner.block_bboxes()
    }
}

#[test]
fn derived_field_cache_keeps_nothing_of_a_failed_derivation() {
    // Block 0's first face neighbour cannot be loaded during the first
    // job, so deriving block 0's ghosted λ₂ fails. Once the back-end is
    // healthy again, the memoized run must match an unmemoized one: the
    // failed derivation left no field behind that could prune block 0.
    let ds = Arc::new(synth::engine(6));
    let bboxes = ds.blocks().iter().map(|b| *b.bbox()).collect();
    let topology = vira_grid::topology::BlockTopology::from_bboxes(bboxes, 1e-9);
    let source = Arc::new(FlakySource {
        inner: SynthSource::new(ds),
        block: topology.neighbors(0)[0],
        failing: true.into(),
    });
    let (backend, link) = Viracocha::launch(ViracochaConfig::for_tests(1));
    backend.register_dataset(source.clone(), false);
    let mut client = VistaClient::new(link);
    let spec = |cache_fields: bool| SubmitSpec {
        command: "VortexDataMan".into(),
        dataset: "Engine".into(),
        params: CommandParams::new()
            .set("threshold", -2.0e4)
            .set("n_steps", 1)
            .set("ghosts", "true")
            .set("cache_fields", if cache_fields { "true" } else { "false" }),
        workers: 1,
    };
    let err = client.run(&spec(true)).unwrap_err();
    assert!(matches!(err, ClientError::JobFailed(_)), "{err:?}");
    source
        .failing
        .store(false, std::sync::atomic::Ordering::SeqCst);
    let memoized = client.run(&spec(true)).unwrap();
    let fresh = client.run(&spec(false)).unwrap();
    assert!(fresh.triangles.n_triangles() > 0);
    assert_eq!(
        memoized.triangles.n_triangles(),
        fresh.triangles.n_triangles()
    );
    assert_eq!(
        &memoized.triangles.to_bytes()[..],
        &fresh.triangles.to_bytes()[..]
    );
    assert_eq!(memoized.report.bricks_skipped, fresh.report.bricks_skipped);
    finish(backend, client);
}

#[test]
fn scheduler_survives_malformed_frames() {
    let (backend, link) = Viracocha::launch(ViracochaConfig::for_tests(1));
    backend.register_dataset(Arc::new(SynthSource::new(Arc::new(test_cube(8, 2)))), false);
    // Raw garbage straight onto the link: the scheduler must ignore it,
    // and the retired `Ack`/`Resume` requests with it.
    link.request(bytes::Bytes::from_static(b"\xde\xad\xbe\xef garbage"))
        .unwrap();
    link.request(bytes::Bytes::new()).unwrap();
    for retired in [
        r#"{"Ack":{"job":4,"up_to_seq":17}}"#,
        r#"{"Resume":{"job":4}}"#,
    ] {
        link.request(frame(retired)).unwrap();
    }
    // Requests are served in order, so the first event answers this
    // unknown-command submit: nothing was emitted for the frames above.
    link.request(vira_vista::encode_request(
        &vira_vista::ClientRequest::Submit {
            job: 9,
            command: "NoSuchCommand".into(),
            dataset: "TestCube".into(),
            params: CommandParams::new(),
            workers: 1,
            session: 0,
            trace_id: 0,
            parent_span_id: 0,
        },
    ))
    .unwrap();
    let (first, _) = vira_vista::decode_event(link.next_event().unwrap()).unwrap();
    assert!(
        matches!(first, vira_vista::EventHeader::JobRejected { job: 9, .. }),
        "{first:?}"
    );
    let mut client = VistaClient::new(link);
    let out = client.run(&iso_spec(1)).unwrap();
    assert!(out.triangles.n_triangles() > 0, "backend still works");
    // And a malformed frame *after* real traffic doesn't break shutdown.
    finish(backend, client);
}

#[test]
fn shutdown_rejects_new_submissions_but_drains_running_jobs() {
    let mut cfg = ViracochaConfig::for_tests(1);
    cfg.dilation = 0.02;
    let (backend, link) = Viracocha::launch(cfg);
    backend.register_dataset(
        Arc::new(SynthSource::new(Arc::new(synth::engine(4)))),
        false,
    );
    let mut client = VistaClient::new(link);
    let job = client
        .submit(&SubmitSpec {
            command: "IsoDataMan".into(),
            dataset: "Engine".into(),
            params: CommandParams::new().set("iso", 15.0).set("n_steps", 4),
            workers: 1,
        })
        .unwrap();
    // Shutdown while the job runs; then try to submit another. The late
    // submission either reaches the scheduler (and is rejected) or finds
    // the link already closed — both are acceptable.
    client.shutdown().unwrap();
    let late = client.submit(&SubmitSpec {
        command: "IsoDataMan".into(),
        dataset: "Engine".into(),
        params: CommandParams::new().set("iso", 15.0),
        workers: 1,
    });
    // The first job either ran to completion (dispatched before the
    // shutdown landed) or was rejected from the queue — never dropped
    // silently.
    match client.collect(job) {
        Ok(out) => assert!(out.triangles.n_triangles() > 0),
        Err(ClientError::Rejected(reason)) => assert!(reason.message().contains("shutting down")),
        Err(other) => panic!("job dropped silently: {other:?}"),
    }
    match late {
        Ok(job2) => assert!(matches!(
            client.collect(job2),
            Err(ClientError::Rejected(_)) | Err(ClientError::Comm(_))
        )),
        Err(ClientError::Comm(_)) => {}
        Err(other) => panic!("unexpected submit error: {other:?}"),
    }
    backend.join();
}

#[test]
fn ghosted_vortex_extraction_runs_and_differs_at_boundaries() {
    // Engine: 23 sector blocks whose interfaces host the swirl core.
    let (backend, link) = Viracocha::launch(ViracochaConfig::for_tests(2));
    backend.register_dataset(
        Arc::new(SynthSource::new(Arc::new(synth::engine(6)))),
        false,
    );
    let mut client = VistaClient::new(link);
    let spec = |ghosts: bool| SubmitSpec {
        command: "VortexDataMan".into(),
        dataset: "Engine".into(),
        params: CommandParams::new()
            .set("threshold", -2.0e4)
            .set("n_steps", 1)
            .set("ghosts", if ghosts { "true" } else { "false" }),
        workers: 2,
    };
    let plain = client.run(&spec(false)).unwrap();
    let ghosted = client.run(&spec(true)).unwrap();
    assert!(plain.triangles.n_triangles() > 0);
    assert!(ghosted.triangles.n_triangles() > 0);
    // One-sided vs centered boundary stencils produce (slightly)
    // different surfaces near interfaces.
    assert_ne!(
        plain.triangles.n_triangles(),
        ghosted.triangles.n_triangles(),
        "ghost stencils must change boundary values"
    );
    // The ghosted surface is watertight at block interfaces: welding the
    // whole soup leaves no boundary edges except at the physical domain
    // boundary (cylinder walls/ends). Compare defect counts instead of
    // absolutes: ghosts must not *increase* them.
    let d_plain = vira_extract::weld(&plain.triangles, 1e-7).edge_defects();
    let d_ghost = vira_extract::weld(&ghosted.triangles, 1e-7).edge_defects();
    assert!(
        d_ghost.boundary_edges <= d_plain.boundary_edges,
        "ghosted: {d_ghost:?} vs plain: {d_plain:?}"
    );
    finish(backend, client);
}
