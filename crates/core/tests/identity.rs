//! One identity matrix: every registered command, over every transport
//! (in-process, Unix socket, TCP) at extraction widths 1 and 2, gives the
//! geometry of the in-process width-1 run.
//!
//! Each cell is one back-end with two workers that runs every command
//! as a job. A socket cell runs in this process, as `vira serve` and
//! `vira worker` do across processes: the scheduler on the hub's rank 0,
//! each worker on its own thread in [`run_remote_worker`]. Streamed
//! packets then take the `CLIENT_EVENT` path through rank 0 and must all
//! reach the client before their job's Final.
//!
//! A command whose result the master merges must match byte for byte.
//! A streamed command's packets from two workers interleave differently
//! from run to run, so it must match as a multiset of triangles, in as
//! many packets.

use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;
use vira_comm::socket::{SocketAddrSpec, SocketListener, SocketWorker};
use vira_dms::server::DataServer;
use vira_extract::mesh::TriangleSoup;
use vira_grid::synth;
use vira_storage::source::SynthSource;
use vira_vista::{CommandParams, JobOutcome, SubmitSpec, VistaClient};
use viracocha::{default_registry, run_remote_worker, Viracocha, ViracochaConfig};

const WORKERS: usize = 2;
const TIMEOUT: Duration = Duration::from_secs(60);

/// One job of every cell: command, dataset and `key=value` parameters.
/// Engine (23 blocks whose surfaces differ, so a reordered or dropped
/// batch shows) for the surfaces, the test cube for the traces.
const CASES: [&str; 13] = [
    "SimpleIso Engine iso=15 n_steps=2",
    "IsoDataMan Engine iso=15 n_steps=2",
    "CollectiveIso Engine iso=15 n_steps=2",
    "ViewerIso Engine iso=15 n_steps=2 batch=16 viewpoint=0.05,0,0.02",
    "ProgressiveIso Engine iso=15 n_steps=2 levels=3",
    "SimpleVortex Engine threshold=-2e4 n_steps=1",
    "VortexDataMan Engine threshold=-2e4 n_steps=1",
    "StreamedVortex Engine threshold=-2e4 n_steps=2 batch=8",
    "SimplePathlines TestCube n_seeds=4 rngseed=7",
    "PathlinesDataMan TestCube n_seeds=4 rngseed=7",
    "Streamlines TestCube n_seeds=4 rngseed=5 t_span=0.05",
    "Streaklines TestCube n_seeds=3 rngseed=9 releases=6",
    "ClearCache TestCube",
];

/// The commands that stream their geometry in packets straight to the
/// client.
const STREAMED: [&str; 3] = ["ViewerIso", "ProgressiveIso", "StreamedVortex"];

/// The submission of one line of [`CASES`].
fn spec(case: &str) -> SubmitSpec {
    let mut words = case.split_whitespace();
    let (command, dataset) = (words.next().unwrap(), words.next().unwrap());
    let params = words.fold(CommandParams::new(), |p, kv| {
        let (k, v) = kv.split_once('=').expect("key=value");
        p.set(k, v)
    });
    SubmitSpec {
        command: command.into(),
        dataset: dataset.into(),
        params,
        workers: WORKERS,
    }
}

fn register(server: &DataServer) {
    for ds in [synth::engine(6), synth::test_cube(10, 4)] {
        server.register_dataset(Arc::new(SynthSource::new(Arc::new(ds))), false);
    }
}

/// Runs every case on one back-end over `transport` ("in-process",
/// "unix" or "tcp") at extraction `width`, in [`CASES`] order.
fn run_cell(transport: &str, width: usize) -> Vec<JobOutcome> {
    let mut config = ViracochaConfig::for_tests(WORKERS);
    config.extract.threads = width;
    let mut workers: Vec<JoinHandle<()>> = Vec::new();
    let (backend, link) = match transport {
        "in-process" => Viracocha::launch(config),
        _ => {
            // The hub unlinks its socket file when it shuts down.
            let listen = match transport {
                "unix" => format!(
                    "unix:{}/vira-identity-{}-{width}.sock",
                    std::env::temp_dir().display(),
                    std::process::id()
                ),
                _ => "tcp:127.0.0.1:0".to_owned(),
            };
            let listener = SocketListener::bind(&SocketAddrSpec::parse(&listen).unwrap())
                .expect("bind the hub");
            let addr = SocketAddrSpec::parse(listener.local_addr()).unwrap();
            for _ in 0..WORKERS {
                let (addr, config) = (addr.clone(), config.clone());
                workers.push(std::thread::spawn(move || {
                    let transport = SocketWorker::connect(&addr, TIMEOUT).expect("join the hub");
                    run_remote_worker(config, transport, |server| register(server));
                }));
            }
            let hub = listener
                .accept_world(WORKERS, TIMEOUT)
                .expect("every worker joins");
            Viracocha::launch_on_transports(config, default_registry(), vec![hub], None)
        }
    };
    register(backend.server());
    let mut client = VistaClient::new(link);
    let outcomes = CASES
        .iter()
        .map(|case| {
            client
                .run(&spec(case))
                .unwrap_or_else(|e| panic!("{case} over {transport}: {e:?}"))
        })
        .collect();
    client.shutdown().expect("shutdown");
    backend.join();
    for w in workers {
        w.join().expect("worker thread");
    }
    outcomes
}

/// The in-process width-1 run every cell must match.
fn reference() -> &'static [JobOutcome] {
    static REFERENCE: OnceLock<Vec<JobOutcome>> = OnceLock::new();
    REFERENCE.get_or_init(|| run_cell("in-process", 1))
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

/// Runs the cells of `transport` at widths 1 and 2 against the
/// reference.
fn check_row(transport: &str) {
    let reference = reference();
    for width in [1, 2] {
        if (transport, width) == ("in-process", 1) {
            continue; // the reference itself
        }
        let cells = CASES.iter().zip(reference).zip(run_cell(transport, width));
        for ((case, want), got) in cells {
            let command = spec(case).command;
            let cell = format!("{command} over {transport} at width {width}");
            let items = want.triangles.n_triangles() + want.polylines.len();
            assert_eq!(items == 0, command == "ClearCache", "{cell}: the reference");
            if STREAMED.contains(&command.as_str()) {
                assert!(!want.packets.is_empty(), "{cell}: the reference streams");
                assert_eq!(got.packets.len(), want.packets.len(), "{cell}: packets");
                assert!(
                    sorted_triangles(&got.triangles) == sorted_triangles(&want.triangles),
                    "{cell}: {} triangles against {}",
                    got.triangles.n_triangles(),
                    want.triangles.n_triangles()
                );
            } else {
                assert!(got.packets.is_empty(), "{cell}: nothing streams");
                assert_eq!(
                    got.triangles, want.triangles,
                    "{cell}: exact order, exact bits"
                );
                assert_eq!(got.polylines, want.polylines, "{cell}");
            }
            let counted = (got.report.triangles, got.report.polylines);
            let assembled = (
                got.triangles.n_triangles() as u64,
                got.polylines.len() as u64,
            );
            assert_eq!(counted, assembled, "{cell}: every item emitted is counted");
            let counters = |o: &JobOutcome| {
                let r = &o.report;
                (r.triangles, r.polylines, r.cells_skipped, r.bricks_skipped)
            };
            assert_eq!(counters(&got), counters(want), "{cell}: report counters");
        }
    }
}

#[test]
fn the_cases_are_every_registered_command() {
    let mut names: Vec<String> = CASES.iter().map(|c| spec(c).command).collect();
    names.sort_unstable();
    assert_eq!(names, default_registry().names());
}

#[test]
fn in_process_widths_match() {
    check_row("in-process");
}

#[test]
fn unix_socket_matches_in_process() {
    check_row("unix");
}

#[test]
fn tcp_matches_in_process() {
    check_row("tcp");
}
