//! Cross-process deployment harness: `vira serve` + N `vira worker`
//! OS processes over a Unix socket in a tempdir.
//!
//! Every scale and resilience claim pinned by the in-process suites is
//! re-pinned here against the real socket transport: byte-identical
//! geometry, graceful SHUTDOWN, `--spawn-local`, and — via the
//! `VIRA_TEST_ABORT` crash hooks in `worker.rs` — a worker process
//! dying mid-job, recovered by the existing retransmit → probe →
//! dead-rank → requeue path instead of a panic or a hang.
//!
//! The tests run serially (shared CPU budget; each one spawns four
//! processes) and each uses its own socket path, so a crashed test
//! never wedges the next.

#![cfg(unix)]

use bytes::Bytes;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Mutex, MutexGuard};
use vira_extract::mesh::TriangleSoup;
use vira_grid::synth::{self, test_cube};
use vira_storage::source::CachedSynthSource;
use vira_vista::{CommandParams, JobOutcome, SubmitSpec, VistaClient};
use viracocha::{Viracocha, ViracochaConfig};

/// Path of the `vira` binary under test, provided by cargo.
const VIRA: &str = env!("CARGO_BIN_EXE_vira");
const RES: usize = 8;
const RANKS: usize = 3;

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    // A poisoned lock only means another multiproc test failed.
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// A per-test scratch directory (socket, soup files, fault plans),
/// removed on drop. No tempfile crate: unique by pid + test name.
struct TempDir(PathBuf);

impl TempDir {
    fn new(name: &str) -> TempDir {
        let p = std::env::temp_dir().join(format!("vira-mp-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        std::fs::create_dir_all(&p).expect("create tempdir");
        TempDir(p)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn unix_addr(sock: &Path) -> String {
    format!("unix:{}", sock.display())
}

/// `--param key=value` pairs of one job.
type Params = &'static [(&'static str, &'static str)];

/// One job as `vira serve` runs it over sockets and as the in-process
/// reference submits it.
struct Job {
    command: &'static str,
    /// The `vira serve --dataset` name.
    dataset: &'static str,
    res: usize,
    params: Params,
}

/// The batch job of the byte-identity and recovery legs; the workers
/// [`spawn_worker_expect_rank`] starts serve its dataset.
const ISO: Job = Job {
    command: "IsoDataMan",
    dataset: "cube",
    res: RES,
    params: &[("iso", "0.15"), ("n_steps", "2")],
};

impl Job {
    /// `vira serve` of this job on `listen` with [`RANKS`] worker
    /// ranks. Stdout is piped for RESULT-line scraping; later flags
    /// override earlier ones.
    fn serve(&self, listen: &str) -> Command {
        let mut cmd = Command::new(VIRA);
        cmd.args(["serve", "--listen", listen, "--ranks", &RANKS.to_string()]);
        cmd.args(["--dataset", self.dataset, "--res", &self.res.to_string()]);
        cmd.args(["--command", self.command, "--accept-timeout-ms", "60000"]);
        for (k, v) in self.params {
            cmd.args(["--param", &format!("{k}={v}")]);
        }
        cmd.stdout(Stdio::piped()).stderr(Stdio::inherit());
        cmd
    }

    /// The same job through the in-process transport at [`RANKS`]
    /// workers — the baseline every socket run must match.
    fn in_process(&self) -> JobOutcome {
        let mut config = ViracochaConfig::for_tests(RANKS);
        config.proxy.prefetcher = "obl".into();
        let (backend, link) = Viracocha::launch(config);
        let ds = match self.dataset {
            "engine" => synth::engine(self.res),
            _ => test_cube(self.res, 4),
        };
        let dataset = ds.spec.name.clone();
        backend.register_dataset(Arc::new(CachedSynthSource::new(Arc::new(ds))), false);
        let mut client = VistaClient::new(link);
        let params = self
            .params
            .iter()
            .fold(CommandParams::new(), |p, &(k, v)| p.set(k, v));
        let out = client
            .run(&SubmitSpec {
                command: self.command.into(),
                dataset,
                params,
                workers: RANKS,
            })
            .expect("in-process job");
        client.shutdown().expect("shutdown");
        backend.join();
        out
    }
}

/// Spawns `vira serve` of [`ISO`] on `sock` plus `extra` flags.
fn spawn_serve(sock: &Path, extra: &[&str]) -> Child {
    ISO.serve(&unix_addr(sock))
        .args(extra)
        .spawn()
        .expect("spawn vira serve")
}

/// Spawns one `vira worker` and blocks until its handshake line
/// reports the assigned rank — rank ids are assigned in connection
/// order, so sequential calls give the caller deterministic placement
/// (needed to aim a crash hook at the group master or a member).
fn spawn_worker_expect_rank(sock: &Path, env: Option<(&str, &str)>, want_rank: usize) -> Child {
    let mut cmd = Command::new(VIRA);
    cmd.args([
        "worker",
        "--connect",
        &unix_addr(sock),
        "--dataset",
        "cube",
        "--res",
        &RES.to_string(),
    ]);
    if let Some((k, v)) = env {
        cmd.env(k, v);
    }
    cmd.stdout(Stdio::piped()).stderr(Stdio::null());
    let mut child = cmd.spawn().expect("spawn vira worker");
    let out = child.stdout.take().expect("piped stdout");
    let mut lines = BufReader::new(out).lines();
    loop {
        let line = lines
            .next()
            .expect("worker closed stdout before joining")
            .expect("read worker stdout");
        if let Some(rest) = line.strip_prefix("joined as rank ") {
            let rank: usize = rest
                .split_whitespace()
                .next()
                .and_then(|t| t.parse().ok())
                .unwrap_or_else(|| panic!("unparsable join line: {line}"));
            assert_eq!(rank, want_rank, "workers must join in spawn order");
            break;
        }
    }
    // Keep draining in the background so the child never blocks on a
    // full pipe.
    std::thread::spawn(move || for _ in lines {});
    child
}

fn wait_ok(child: Child, who: &str) -> String {
    let out = child.wait_with_output().expect("wait for child");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(out.status.success(), "{who} failed; stdout:\n{stdout}");
    stdout
}

/// One serve RESULT line parsed into (ok, triangles, degraded, retries).
fn parse_result(stdout: &str, job: usize) -> (bool, u64, bool, u64) {
    let tag = format!("RESULT job={job} ");
    let line = stdout
        .lines()
        .find(|l| l.starts_with(&tag))
        .unwrap_or_else(|| panic!("no RESULT line for job {job} in:\n{stdout}"));
    let get = |k: &str| {
        let prefix = format!("{k}=");
        line.split_whitespace()
            .find_map(|t| t.strip_prefix(&prefix).map(str::to_string))
    };
    (
        get("ok").as_deref() == Some("1"),
        get("triangles").and_then(|v| v.parse().ok()).unwrap_or(0),
        get("degraded").as_deref() == Some("1"),
        get("retries").and_then(|v| v.parse().ok()).unwrap_or(0),
    )
}

/// One key of one RESULT line (for fields outside the common 4-tuple).
fn parse_result_field(stdout: &str, job: usize, key: &str) -> Option<String> {
    let tag = format!("RESULT job={job} ");
    let line = stdout.lines().find(|l| l.starts_with(&tag))?;
    let prefix = format!("{key}=");
    line.split_whitespace()
        .find_map(|t| t.strip_prefix(&prefix).map(str::to_string))
}

fn soup_from_file(path: &Path) -> TriangleSoup {
    let bytes = std::fs::read(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    TriangleSoup::from_bytes(Bytes::from(bytes)).expect("parse saved soup")
}

/// Exact bit-level vertex view, order-independent: a degraded requeue
/// runs on a different group split, so merge order may differ while
/// the geometry must not (mirror of `tests/chaos.rs::sorted_bits`).
fn sorted_bits(soup: &TriangleSoup) -> Vec<[u32; 3]> {
    let mut v: Vec<[u32; 3]> = soup
        .positions
        .iter()
        .map(|p| [p[0].to_bits(), p[1].to_bits(), p[2].to_bits()])
        .collect();
    v.sort_unstable();
    v
}

/// Acceptance test: `vira serve` + 3 separate worker OS processes
/// over a Unix socket produce the same TriangleSoup, byte for byte, as
/// the in-process transport — and the whole world shuts down
/// gracefully (every process exits 0).
#[test]
fn socket_world_matches_in_process_byte_identically() {
    let _g = serial();
    let tmp = TempDir::new("bytes");
    let sock = tmp.path().join("hub.sock");
    let soup = tmp.path().join("soup");
    let serve = spawn_serve(
        &sock,
        &["--jobs", "1", "--save-soup", soup.to_str().unwrap()],
    );
    let workers: Vec<Child> = (1..=RANKS)
        .map(|r| spawn_worker_expect_rank(&sock, None, r))
        .collect();
    let stdout = wait_ok(serve, "vira serve");
    let (ok, tris, degraded, retries) = parse_result(&stdout, 0);
    assert!(
        ok && !degraded && retries == 0,
        "clean socket run:\n{stdout}"
    );
    assert!(tris > 0, "the job must produce geometry:\n{stdout}");
    for w in workers {
        wait_ok(w, "vira worker"); // graceful SHUTDOWN reached them all
    }

    let baseline = ISO.in_process();
    assert_eq!(baseline.triangles.n_triangles() as u64, tris);
    let socket_soup = soup_from_file(&tmp.path().join("soup.0"));
    // Same group, same rank order, same merge: raw bytes must match,
    // not just the sorted view.
    assert_eq!(
        socket_soup.to_bytes(),
        baseline.triangles.to_bytes(),
        "socket transport changed the merged geometry"
    );
}

/// `--spawn-local` forks its own worker processes and still reaps
/// everything; back-to-back jobs on one session reuse the world.
#[test]
fn spawn_local_runs_multiple_jobs() {
    let _g = serial();
    let tmp = TempDir::new("spawnlocal");
    let sock = tmp.path().join("hub.sock");
    let serve = spawn_serve(&sock, &["--spawn-local", "--jobs", "2"]);
    let stdout = wait_ok(serve, "vira serve");
    let (ok0, tris0, deg0, _) = parse_result(&stdout, 0);
    let (ok1, tris1, deg1, _) = parse_result(&stdout, 1);
    assert!(ok0 && ok1, "both jobs complete:\n{stdout}");
    assert!(
        !deg0 && !deg1,
        "no degradation on a healthy world:\n{stdout}"
    );
    assert_eq!(tris0, tris1, "identical jobs, identical geometry");
    assert!(tris0 > 0);
}

/// The socket chaos leg: a seeded lossy `FaultPlan` on the hub
/// transport *plus* an actual worker-process death mid-run. The
/// existing retransmit → probe → dead-rank → requeue path must recover
/// both jobs with geometry bit-identical to a clean in-process run.
#[test]
fn killed_worker_process_recovers_byte_identically() {
    let _g = serial();
    let tmp = TempDir::new("chaos");
    let sock = tmp.path().join("hub.sock");
    let soup = tmp.path().join("soup");
    let plan = tmp.path().join("chaos.plan");
    std::fs::write(&plan, "seed 7\nall drop 0.05 dup 0.02\n").expect("write plan");
    let serve = spawn_serve(
        &sock,
        &[
            "--jobs",
            "2",
            "--fast-resilience",
            "--fault-plan",
            plan.to_str().unwrap(),
            "--save-soup",
            soup.to_str().unwrap(),
        ],
    );
    let w1 = spawn_worker_expect_rank(&sock, None, 1);
    let w2 = spawn_worker_expect_rank(&sock, None, 2);
    // Rank 3 (a non-root group member) dies right after shipping its
    // first partial — from then on it is a silent, dead OS process.
    let w3 = spawn_worker_expect_rank(&sock, Some(("VIRA_TEST_ABORT", "after-partial")), 3);
    let stdout = wait_ok(serve, "vira serve");
    let (ok0, tris0, deg0, _) = parse_result(&stdout, 0);
    let (ok1, tris1, deg1, _) = parse_result(&stdout, 1);
    assert!(ok0 && ok1, "both jobs must complete:\n{stdout}");
    assert!(tris0 > 0 && tris1 > 0);
    assert!(
        deg0 ^ deg1,
        "exactly one job sees the death as a degraded requeue; the \
         other runs clean (before the kill, or on the shrunken \
         survivor pool):\n{stdout}"
    );
    let st3 = w3.wait_with_output().expect("wait for killed worker");
    assert!(!st3.status.success(), "rank 3 must have died abnormally");
    wait_ok(w1, "worker 1");
    wait_ok(w2, "worker 2");

    let base = sorted_bits(&ISO.in_process().triangles);
    for j in 0..2 {
        let got = sorted_bits(&soup_from_file(&tmp.path().join(format!("soup.{j}"))));
        assert_eq!(got, base, "job {j} geometry diverged under chaos");
    }
}

/// Regression (satellite fix): losing the *group master's* connection
/// between PARTIAL and DONE — the worst spot, the scheduler already
/// paid for the whole job — must map onto the liveness-probe/dead-rank
/// path and requeue on the survivors, not panic or hang the scheduler.
#[test]
fn master_death_between_partial_and_done_requeues_instead_of_hanging() {
    let _g = serial();
    let tmp = TempDir::new("masterdeath");
    let sock = tmp.path().join("hub.sock");
    let soup = tmp.path().join("soup");
    let serve = spawn_serve(
        &sock,
        &[
            "--jobs",
            "1",
            "--fast-resilience",
            "--save-soup",
            soup.to_str().unwrap(),
        ],
    );
    // Rank 1 is the group root: it gathers the partials, merges, and
    // dies just before sending JOB_DONE (SIGABRT ≙ SIGKILL for the
    // transport: the connection simply drops mid-job).
    let w1 = spawn_worker_expect_rank(&sock, Some(("VIRA_TEST_ABORT", "before-done")), 1);
    let w2 = spawn_worker_expect_rank(&sock, None, 2);
    let w3 = spawn_worker_expect_rank(&sock, None, 3);
    let stdout = wait_ok(serve, "vira serve");
    let (ok, tris, degraded, retries) = parse_result(&stdout, 0);
    assert!(ok, "the job must still complete:\n{stdout}");
    assert!(degraded, "recovery must be a degraded requeue:\n{stdout}");
    assert!(
        retries >= 1,
        "the dead master was retransmitted to first:\n{stdout}"
    );
    assert!(tris > 0);
    let st1 = w1.wait_with_output().expect("wait for killed master");
    assert!(!st1.status.success(), "rank 1 must have died abnormally");
    wait_ok(w2, "worker 2");
    wait_ok(w3, "worker 3");

    let base = sorted_bits(&ISO.in_process().triangles);
    let got = sorted_bits(&soup_from_file(&tmp.path().join("soup.0")));
    assert_eq!(got, base, "requeued job geometry diverged");
}

/// A soup's triangles as vertex bits, sorted: equal for two soups that
/// hold the same triangles in any order. Streamed packets from several
/// worker processes interleave differently from run to run.
fn sorted_triangles(soup: &TriangleSoup) -> Vec<[[u32; 3]; 3]> {
    let mut tris: Vec<[[u32; 3]; 3]> = soup
        .positions
        .chunks_exact(3)
        .map(|t| std::array::from_fn(|v| t[v].map(f32::to_bits)))
        .collect();
    tris.sort_unstable();
    tris
}

/// The streamed commands of the identity legs, each on the dataset it
/// is meant for.
const STREAMED: [Job; 2] = [
    Job {
        command: "ProgressiveIso",
        dataset: "cube",
        res: RES,
        params: &[("iso", "0.15"), ("n_steps", "4"), ("levels", "5")],
    },
    Job {
        command: "StreamedVortex",
        dataset: "engine",
        res: 6,
        params: &[("threshold", "-2e4"), ("n_steps", "2"), ("batch", "16")],
    },
];

/// Streamed geometry crosses the process boundary whole: every packet
/// a worker process streams rides to rank 0 as a `CLIENT_EVENT` frame
/// and must reach the client before its job's Final. Each streamed
/// command runs three jobs per `vira serve` over a Unix socket and over
/// TCP, and every job's triangles must be the in-process run's, as a
/// multiset, in as many packets.
#[test]
fn streamed_commands_over_sockets_match_in_process() {
    let _g = serial();
    const JOBS: usize = 3;
    for job in &STREAMED {
        let reference = job.in_process();
        let want = sorted_triangles(&reference.triangles);
        assert!(
            !want.is_empty(),
            "{}: the reference has geometry",
            job.command
        );
        for transport in ["unix", "tcp"] {
            let tmp = TempDir::new(&format!("stream-{}-{transport}", job.command));
            let listen = match transport {
                "unix" => unix_addr(&tmp.path().join("hub.sock")),
                _ => "tcp:127.0.0.1:0".to_string(),
            };
            let soup = tmp.path().join("soup");
            let serve = job
                .serve(&listen)
                .args(["--spawn-local", "--jobs", &JOBS.to_string()])
                .args(["--save-soup", soup.to_str().unwrap()])
                .spawn()
                .expect("spawn vira serve");
            let case = format!("{} over {transport}", job.command);
            let stdout = wait_ok(serve, &case);
            for j in 0..JOBS {
                let (ok, tris, degraded, _) = parse_result(&stdout, j);
                assert!(ok && !degraded, "{case}, job {j}:\n{stdout}");
                let packets: usize = parse_result_field(&stdout, j, "packets")
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(0);
                assert_eq!(
                    (tris, packets),
                    (want.len() as u64, reference.packets.len()),
                    "{case}, job {j}: (triangles, packets) against the in-process run:\n{stdout}"
                );
                let got = soup_from_file(&tmp.path().join(format!("soup.{j}")));
                assert!(
                    sorted_triangles(&got) == want,
                    "{case}, job {j}: triangles differ"
                );
            }
        }
    }
}

/// Spawns a worker that *rejoins* a previously-convicted rank and
/// blocks until its handshake line confirms the claimed rank.
fn spawn_rejoin_worker(sock: &Path, claim_rank: usize) -> Child {
    let mut cmd = Command::new(VIRA);
    cmd.args([
        "worker",
        "--connect",
        &unix_addr(sock),
        "--dataset",
        "cube",
        "--res",
        &RES.to_string(),
        "--rejoin",
        &claim_rank.to_string(),
    ]);
    cmd.stdout(Stdio::piped()).stderr(Stdio::null());
    let mut child = cmd.spawn().expect("spawn rejoin worker");
    let out = child.stdout.take().expect("piped stdout");
    let mut lines = BufReader::new(out).lines();
    loop {
        let line = lines
            .next()
            .expect("rejoin worker closed stdout before joining")
            .expect("read rejoin worker stdout");
        if let Some(rest) = line.strip_prefix("rejoined as rank ") {
            let rank: usize = rest
                .split_whitespace()
                .next()
                .and_then(|t| t.parse().ok())
                .unwrap_or_else(|| panic!("unparsable rejoin line: {line}"));
            assert_eq!(rank, claim_rank, "hub must confirm the claimed rank");
            break;
        }
    }
    std::thread::spawn(move || for _ in lines {});
    child
}

/// The job of the cancel leg: ProgressiveIso with extra levels on a
/// larger cube, a long, many-packet job, so the cancel lands while
/// plenty of extraction is still ahead. Workers check the cancel set
/// between `(block, step)` items only, and the cube's 4 items spread
/// over 3 ranks leave one rank a second item: at [`RES`] a whole item
/// takes about a millisecond, so on a loaded host that rank often
/// finished before the CANCEL frame reached it and nothing was
/// truncated. At 32³ an item outlasts the cancel's round trip.
const CANCEL: Job = Job {
    command: "ProgressiveIso",
    dataset: "cube",
    res: 32,
    params: &[("iso", "0.15"), ("n_steps", "4"), ("levels", "5")],
};

/// Tentpole acceptance: a client-initiated cancel mid-stream crosses
/// the process boundary. `--cancel-after-packets 1` makes the serve
/// client fire `Cancel` after the first streamed partial; the
/// scheduler fans CANCEL frames to every worker process, whose socket
/// reader drops the job id into the rank-local cancel set so
/// `ctx.is_cancelled()` trips mid-extraction. Exactly one Cancelled
/// final comes back (`cancelled=1`, still `ok=1`) and the job's
/// geometry is truncated relative to an uncancelled socket run, which
/// itself streams the in-process run's whole geometry — a socket run
/// that lost packets without any cancel must not pass for a cancel.
#[test]
fn cross_process_cancel_truncates_the_job() {
    let _g = serial();
    let tmp = TempDir::new("cancel");
    let serve = |sock: &str, extra: &[&str]| {
        let child = CANCEL
            .serve(&unix_addr(&tmp.path().join(sock)))
            .args(["--spawn-local", "--jobs", "1"])
            .args(extra)
            .spawn()
            .expect("spawn vira serve");
        wait_ok(child, "vira serve (cancel)")
    };
    let stdout = serve("uncancelled.sock", &[]);
    let (ok, full, _, _) = parse_result(&stdout, 0);
    assert!(ok, "the uncancelled socket run:\n{stdout}");
    let in_process = CANCEL.in_process().triangles.n_triangles() as u64;
    assert_eq!(
        full, in_process,
        "the uncancelled socket run streams it all"
    );

    let stdout = serve("hub.sock", &["--cancel-after-packets", "1"]);
    let (ok, tris, degraded, retries) = parse_result(&stdout, 0);
    assert!(
        ok,
        "a cancelled job still yields a final outcome:\n{stdout}"
    );
    assert!(
        !degraded && retries == 0,
        "cancel is not a fault:\n{stdout}"
    );
    assert_eq!(
        parse_result_field(&stdout, 0, "cancelled").as_deref(),
        Some("1"),
        "the final must be Cancelled:\n{stdout}"
    );
    assert_eq!(
        stdout.matches("RESULT job=0 ").count(),
        1,
        "exactly one final per cancelled job (no DONE after Cancelled):\n{stdout}"
    );
    assert!(
        tris < full,
        "cancel must truncate extraction ({tris} streamed vs {full} uncancelled):\n{stdout}"
    );
}

/// Tentpole acceptance: kill → convict → restart → `--rejoin`. The
/// group master (rank 1) dies between PARTIAL and DONE, so job 0
/// deterministically convicts it (degraded requeue, retries ≥ 1, as
/// pinned by the master-death test above). During the `--pause-ms`
/// window a fresh OS process reclaims rank 1 via the REJOIN handshake;
/// the scheduler must *clear the conviction* — observable as
/// `sched_rejoins_total ≥ 1` in the exported metrics, which only
/// increments when a rank is removed from the dead set — and job 1
/// runs clean. The rejoined process then receives the final SHUTDOWN
/// like everyone else (exit 0).
#[test]
fn killed_worker_process_rejoins_and_serves_again() {
    let _g = serial();
    let tmp = TempDir::new("rejoin");
    let sock = tmp.path().join("hub.sock");
    let traces = tmp.path().join("traces");
    let mut serve = spawn_serve(
        &sock,
        &[
            "--jobs",
            "2",
            "--fast-resilience",
            "--pause-ms",
            "4000",
            "--trace-out",
            traces.to_str().unwrap(),
        ],
    );
    let w1 = spawn_worker_expect_rank(&sock, Some(("VIRA_TEST_ABORT", "before-done")), 1);
    let w2 = spawn_worker_expect_rank(&sock, None, 2);
    let w3 = spawn_worker_expect_rank(&sock, None, 3);

    // Scrape serve stdout incrementally: the rejoin has to happen
    // inside the pause between job 0 and job 1.
    let out = serve.stdout.take().expect("piped serve stdout");
    let mut lines = BufReader::new(out).lines();
    let mut collected: Vec<String> = Vec::new();
    loop {
        let line = lines
            .next()
            .expect("serve ended before job 0 finished")
            .expect("read serve stdout");
        let done = line.starts_with("RESULT job=0 ");
        collected.push(line);
        if done {
            break;
        }
    }
    let st1 = w1.wait_with_output().expect("wait for killed master");
    assert!(!st1.status.success(), "rank 1 must have died abnormally");

    // Restart rank 1: blocks until the hub's WELCOME confirms the
    // reclaimed rank, which also means the REJOIN event reached the
    // scheduler's inbox.
    let w1b = spawn_rejoin_worker(&sock, 1);

    for line in lines {
        collected.push(line.expect("read serve stdout"));
    }
    let status = serve.wait().expect("wait for serve");
    let stdout = collected.join("\n");
    assert!(status.success(), "serve failed:\n{stdout}");

    let (ok0, tris0, deg0, retries0) = parse_result(&stdout, 0);
    let (ok1, tris1, deg1, retries1) = parse_result(&stdout, 1);
    assert!(ok0 && ok1, "both jobs must complete:\n{stdout}");
    assert!(tris0 > 0 && tris1 > 0);
    assert!(
        deg0 && retries0 >= 1,
        "job 0 convicts the dead master (degraded requeue):\n{stdout}"
    );
    assert!(
        !deg1 && retries1 == 0,
        "job 1 runs clean on the rejoined world:\n{stdout}"
    );
    // The conviction was really lifted: sched_rejoins_total increments
    // only when the scheduler removes a rank from its dead set. (A
    // shrunken 2-worker world would also run job 1 clean — this is
    // what distinguishes an actual rejoin.)
    let prom =
        std::fs::read_to_string(traces.join("metrics.prom")).expect("serve exported metrics.prom");
    let rejoins: u64 = prom
        .lines()
        .find_map(|l| l.strip_prefix("sched_rejoins_total "))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or_else(|| panic!("no sched_rejoins_total sample in:\n{prom}"));
    assert!(
        rejoins >= 1,
        "scheduler never cleared the conviction:\n{prom}"
    );
    wait_ok(w2, "worker 2");
    wait_ok(w3, "worker 3");
    wait_ok(w1b, "rejoined worker 1");
}

/// TCP works end to end too (the quickstart path for real remote
/// workers): one job over 127.0.0.1 with an OS-assigned port, workers
/// spawned by the server itself.
#[test]
fn tcp_spawn_local_roundtrip() {
    let _g = serial();
    let tmp = TempDir::new("tcp");
    let serve = ISO
        .serve("tcp:127.0.0.1:0")
        .args([
            "--ranks",
            "2",
            "--workers",
            "2",
            "--spawn-local",
            "--jobs",
            "1",
        ])
        .current_dir(tmp.path())
        .spawn()
        .expect("spawn vira serve");
    let stdout = wait_ok(serve, "vira serve (tcp)");
    let (ok, tris, degraded, _) = parse_result(&stdout, 0);
    assert!(ok && !degraded, "clean tcp run:\n{stdout}");
    assert!(tris > 0);
}
