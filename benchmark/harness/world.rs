//! The three-rank world: rank 0 is the client on the calling thread,
//! ranks 1–2 are worker threads, each with its own `DataProxy` against
//! one `DataServer`, over one of the three transports.
//!
//! A worker's job follows `viracocha::worker::run_job` without the serde
//! headers: take the `Group::chunk_of` share, `DataProxy::request` each
//! block, run the kernel, then either send the partial to the master
//! worker (which splices the parts in rank order and sends the merged
//! package to rank 0) or stream every batch straight to rank 0.

use crate::alloc;
use crate::data::{Dataset, RunDir};
use crate::job::{self, Job, Kind};
use crate::trace::{self, span};
use bytes::Bytes;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;
use vira_comm::socket::{SocketAddrSpec, SocketListener, SocketWorker};
use vira_comm::transport::{tags, CommError, LocalWorld, Message, Transport};
use vira_comm::Group;
use vira_dms::{
    DataProxy, DataServer, DmsStats, DmsStatsSnapshot, L2Config, ProxyConfig, ServerConfig,
};
use vira_extract::iso::IsoStats;
use vira_extract::mesh::TriangleSoup;
use vira_grid::block::BlockStepId;
use vira_grid::field::SharedBlockData;
use vira_grid::topology::BlockTopology;
use vira_storage::costmodel::{Meter, SimClock};

pub const N_WORKERS: usize = 2;
pub const N_RANKS: usize = N_WORKERS + 1;
/// A silent peer for this long fails the job (and with it the run).
pub const RECV_TIMEOUT: Duration = Duration::from_secs(60);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TransportKind {
    Local,
    Unix,
    Tcp,
}

impl TransportKind {
    pub const ALL: [TransportKind; 3] = [
        TransportKind::Local,
        TransportKind::Unix,
        TransportKind::Tcp,
    ];

    pub fn name(self) -> &'static str {
        match self {
            TransportKind::Local => "local",
            TransportKind::Unix => "unix",
            TransportKind::Tcp => "tcp",
        }
    }
}

/// Cache and prefetch settings of every worker's proxy; the rest of
/// `ProxyConfig::default()` (FBR replacement) is kept.
#[derive(Clone, Copy, Debug)]
pub struct ProxySizes {
    pub l1_bytes: usize,
    pub l2_bytes: Option<usize>,
    pub prefetcher: &'static str,
}

/// Counters every rank of a world adds to (relaxed statistics).
#[derive(Default)]
pub struct Counters {
    /// Payload bytes / messages passed to `Transport::send`, all ranks.
    pub sent_bytes: AtomicU64,
    pub sent_messages: AtomicU64,
    /// Worker → worker messages in a socket world (routed by the hub).
    pub hub_forwards: AtomicU64,
    /// Σ (send call → receiver's `recv` returned) over traced messages.
    pub transit_ns: AtomicU64,
    pub triangles: AtomicU64,
    pub encoded_bytes: AtomicU64,
    pub cells_skipped: AtomicU64,
    pub bricks_skipped: AtomicU64,
    pub blocks: AtomicU64,
    pub active_blocks: AtomicU64,
    /// Demand requests by outcome, timed while spans are recorded.
    pub hit_ns: AtomicU64,
    pub hits_timed: AtomicU64,
    pub miss_ns: AtomicU64,
    pub misses_timed: AtomicU64,
    pub inflight_wait_ns: AtomicU64,
}

fn add(c: &AtomicU64, n: u64) {
    c.fetch_add(n, Ordering::Relaxed);
}

/// Send-call timestamps of messages in flight, per (from, to) pair; both
/// ends live in this process and every pair is FIFO, so the receiver
/// pops the timestamp of exactly the message it got. Used in traced
/// runs only.
static IN_FLIGHT: [Mutex<VecDeque<u64>>; N_RANKS * N_RANKS] =
    [const { Mutex::new(VecDeque::new()) }; N_RANKS * N_RANKS];

fn in_flight(from: usize, to: usize) -> std::sync::MutexGuard<'static, VecDeque<u64>> {
    IN_FLIGHT[from * N_RANKS + to]
        .lock()
        .expect("in-flight table poisoned")
}

/// A received message with what the trace needs to know about the wait.
pub struct Received {
    pub msg: Message,
    wait_start: u64,
    wait_end: u64,
    sent_ns: u64,
}

impl Received {
    /// Records the blocking receive as a wait span named `name`.
    pub fn record(&self, name: &'static str) {
        if self.sent_ns != 0 {
            trace::record_wait(
                name,
                self.wait_start,
                self.wait_end,
                self.msg.from,
                self.sent_ns,
            );
        }
    }
}

/// One rank's end of the world: the transport plus the counting and
/// span recording around every call into it.
pub struct Link {
    inner: Box<dyn Transport>,
    counters: Arc<Counters>,
    via_hub: bool,
    traced_run: bool,
}

impl Link {
    pub fn rank(&self) -> usize {
        self.inner.rank()
    }

    pub fn send(&self, to: usize, tag: u32, payload: Bytes) -> Result<(), CommError> {
        let from = self.rank();
        add(&self.counters.sent_bytes, payload.len() as u64);
        add(&self.counters.sent_messages, 1);
        if self.via_hub && from != 0 && to != 0 {
            add(&self.counters.hub_forwards, 1);
        }
        if self.traced_run {
            in_flight(from, to).push_back(trace::now_ns());
        }
        let _s = span("comm.send");
        self.inner.send(to, tag, payload)
    }

    pub fn recv(&self) -> Result<Received, CommError> {
        let wait_start = if self.traced_run { trace::now_ns() } else { 0 };
        let msg = self.inner.recv_timeout(RECV_TIMEOUT)?;
        let (mut wait_end, mut sent_ns) = (0, 0);
        if self.traced_run {
            wait_end = trace::now_ns();
            sent_ns = in_flight(msg.from, self.rank()).pop_front().unwrap_or(0);
            if trace::is_on() && sent_ns != 0 {
                add(&self.counters.transit_ns, wait_end - sent_ns);
            }
        }
        Ok(Received {
            msg,
            wait_start,
            wait_end,
            sent_ns,
        })
    }
}

struct Worker {
    link: Link,
    proxy: DataProxy,
    dataset: Arc<Dataset>,
    topology: Arc<BlockTopology>,
    group: Group,
}

impl Worker {
    /// `DataProxy::request` under a `dms.request` span, timed by outcome.
    fn request(&self, id: BlockStepId, meter: &Meter) -> Option<SharedBlockData> {
        if !trace::is_on() {
            return self.proxy.request(&self.dataset.spec.name, id, meter).ok();
        }
        let stats = self.proxy.stats();
        let before = (
            stats.misses.load(Ordering::Relaxed),
            stats.prefetch_waits.load(Ordering::Relaxed),
        );
        let t0 = trace::now_ns();
        let got = {
            let _s = span("dms.request");
            self.proxy.request(&self.dataset.spec.name, id, meter).ok()
        };
        let ns = trace::now_ns() - t0;
        // This thread is the proxy's only demand requester, so a counter
        // that moved did so for this request.
        let c = &self.link.counters;
        if stats.misses.load(Ordering::Relaxed) != before.0 {
            add(&c.miss_ns, ns);
            add(&c.misses_timed, 1);
        } else {
            add(&c.hit_ns, ns);
            add(&c.hits_timed, 1);
        }
        if stats.prefetch_waits.load(Ordering::Relaxed) != before.1 {
            add(&c.inflight_wait_ns, ns);
        }
        got
    }

    fn note_block(&self, stats: &IsoStats) {
        let c = &self.link.counters;
        add(&c.blocks, 1);
        add(&c.active_blocks, u64::from(stats.triangles > 0));
        add(&c.triangles, stats.triangles as u64);
        add(&c.cells_skipped, stats.cells_skipped as u64);
        add(&c.bricks_skipped, stats.bricks_skipped as u64);
    }

    fn send_geometry(&self, to: usize, tag: u32, payload: Bytes) {
        add(&self.link.counters.encoded_bytes, payload.len() as u64);
        // A vanished peer shows as a timed-out job at the client.
        let _ = self.link.send(to, tag, payload);
    }

    /// The partials of the other group members, in rank order; `None`
    /// when one does not arrive.
    fn gather(&self) -> Option<Vec<Bytes>> {
        let mut parts: Vec<(usize, Bytes)> = Vec::new();
        while parts.len() < self.group.len() - 1 {
            let r = self.link.recv().ok()?;
            r.record("comm.gather_wait");
            if r.msg.tag == tags::PARTIAL_RESULT {
                parts.push((r.msg.from, r.msg.payload));
            }
        }
        parts.sort_by_key(|(from, _)| *from);
        Some(parts.into_iter().map(|(_, p)| p).collect())
    }

    /// Batch jobs end here: a non-master ships its `part` to the master,
    /// the master gathers the others' parts, merges them behind its own
    /// and ships the package to rank 0. An empty payload tells the
    /// receiver that this rank failed.
    fn finish_batch(
        &self,
        part: impl FnOnce() -> Option<Bytes>,
        merge: impl FnOnce(Vec<Bytes>) -> Option<Bytes>,
    ) {
        if self.link.rank() != self.group.root() {
            self.send_geometry(
                self.group.root(),
                tags::PARTIAL_RESULT,
                part().unwrap_or_default(),
            );
        } else {
            let merged = self.gather().and_then(merge).unwrap_or_default();
            self.send_geometry(0, tags::JOB_DONE, merged);
        }
    }

    fn run_job(&self, job: &Job) {
        let idx = self
            .group
            .index_of(self.link.rank())
            .expect("worker is a group member");
        let spec = &self.dataset.spec;
        let meter = Meter::new();
        let (start, len) = self.group.chunk_of(spec.n_blocks as usize, idx);
        let blocks = (start..start + len).map(|b| BlockStepId::new(b as u32, job.step));
        match job.kind {
            Kind::Iso | Kind::Lambda2 => {
                // `None` once a block could not be had.
                let mut share = Some(TriangleSoup::new());
                for id in blocks {
                    let (Some(data), Some(soup)) = (self.request(id, &meter), share.as_mut())
                    else {
                        share = None;
                        break;
                    };
                    self.note_block(&job::contour_into(job.kind, &data, job.value, soup));
                }
                self.finish_batch(
                    || share.as_ref().map(job::encode_soup),
                    |parts| job::merge_soups(share.as_ref()?, &parts),
                );
            }
            Kind::Pathlines => {
                let lines = job::trace_share(
                    job,
                    spec,
                    &self.topology,
                    &self.dataset.bbox,
                    idx,
                    self.group.len(),
                    |id| self.request(id, &meter),
                );
                let own = job::encode_lines(&lines);
                self.finish_batch(
                    || Some(own.clone()),
                    |mut parts| {
                        parts.insert(0, own.clone());
                        job::merge_lines(&parts)
                    },
                );
            }
            Kind::Progressive => {
                let mut ok = true;
                for id in blocks {
                    let Some(data) = self.request(id, &meter) else {
                        ok = false;
                        break;
                    };
                    let stats = job::progressive_block(&data, job, |bytes| {
                        self.send_geometry(0, tags::CLIENT_EVENT, bytes)
                    });
                    self.note_block(&stats);
                }
                // The end marker of this rank's stream: one byte, 1 = ok.
                let _ = self
                    .link
                    .send(0, tags::JOB_DONE, Bytes::from(vec![u8::from(ok)]));
            }
        }
    }

    fn run(&self) {
        while let Ok(r) = self.link.recv() {
            match r.msg.tag {
                tags::SHUTDOWN => return,
                tags::COMMAND => {
                    let Some(job) = Job::decode(r.msg.payload.clone()) else {
                        continue;
                    };
                    trace::set_job(job.id);
                    r.record("comm.idle");
                    self.run_job(&job);
                }
                _ => {}
            }
        }
    }
}

pub struct World {
    pub client: Link,
    pub counters: Arc<Counters>,
    /// The proxies' statistics, one handle per worker.
    pub dms: Vec<Arc<DmsStats>>,
    workers: Vec<JoinHandle<()>>,
}

impl World {
    /// Forms the world over `kind`: binds and connects sockets where
    /// there are any, starts the workers, and waits until each has built
    /// its proxy.
    pub fn form(
        kind: TransportKind,
        dataset: &Arc<Dataset>,
        sizes: ProxySizes,
        dir: &RunDir,
        traced_run: bool,
    ) -> Result<World, String> {
        for q in &IN_FLIGHT {
            q.lock().expect("in-flight table poisoned").clear();
        }
        let server = DataServer::new(SimClock::instant(), ServerConfig::default());
        server.register_dataset(dataset.source.clone(), false);
        let topology = server
            .topology(&dataset.spec.name)
            .ok_or("dataset has no block topology")?;
        let counters = Arc::new(Counters::default());
        let via_hub = kind != TransportKind::Local;
        let link = {
            let counters = counters.clone();
            move |inner: Box<dyn Transport>| Link {
                inner,
                counters: counters.clone(),
                via_hub,
                traced_run,
            }
        };

        // Each worker thread gets a way to obtain its transport.
        type Connect = Box<dyn FnOnce() -> std::io::Result<Box<dyn Transport>> + Send>;
        let mut connects: Vec<Connect> = Vec::new();
        let mut listener = None;
        let mut client_end: Option<Box<dyn Transport>> = None;
        match kind {
            TransportKind::Local => {
                let mut ends = LocalWorld::create(N_RANKS);
                for end in ends.drain(1..) {
                    connects.push(Box::new(move || Ok(Box::new(end) as Box<dyn Transport>)));
                }
                client_end = Some(Box::new(ends.remove(0)));
            }
            TransportKind::Unix | TransportKind::Tcp => {
                let spec = if kind == TransportKind::Unix {
                    SocketAddrSpec::Unix(dir.path().join("hub.sock"))
                } else {
                    SocketAddrSpec::Tcp("127.0.0.1:0".into())
                };
                let l = SocketListener::bind(&spec).map_err(|e| format!("bind {spec}: {e}"))?;
                let addr = SocketAddrSpec::parse(l.local_addr())?;
                listener = Some(l);
                for _ in 0..N_WORKERS {
                    let addr = addr.clone();
                    connects.push(Box::new(move || {
                        let w = SocketWorker::connect(&addr, Duration::from_secs(10))?;
                        Ok(Box::new(w) as Box<dyn Transport>)
                    }));
                }
            }
        }

        let group = Group::new((1..N_RANKS).collect());
        let (ready_tx, ready_rx) = mpsc::channel::<Result<(usize, Arc<DmsStats>), String>>();
        let mut workers = Vec::new();
        for connect in connects {
            let (server, dataset, topology, group, ready_tx) = (
                server.clone(),
                dataset.clone(),
                topology.clone(),
                group.clone(),
                ready_tx.clone(),
            );
            let link = link.clone();
            let spill_root = dir.path().to_path_buf();
            let handle = std::thread::Builder::new()
                .name("vira-bench-worker".into())
                .spawn(move || {
                    alloc::register_thread();
                    let inner = match connect() {
                        Ok(t) => t,
                        Err(e) => {
                            let _ = ready_tx.send(Err(format!("worker connect: {e}")));
                            return;
                        }
                    };
                    let rank = inner.rank();
                    trace::set_thread(rank);
                    let spill_dir = spill_root.join(format!("spill-{rank}"));
                    let _ = std::fs::remove_dir_all(&spill_dir);
                    let proxy = DataProxy::new(
                        rank,
                        server,
                        ProxyConfig {
                            l1_capacity_bytes: sizes.l1_bytes,
                            l2: sizes.l2_bytes.map(|capacity_bytes| L2Config {
                                capacity_bytes,
                                policy: "lru".into(),
                                spill_dir,
                            }),
                            prefetcher: sizes.prefetcher.into(),
                            ..ProxyConfig::default()
                        },
                    );
                    let _ = ready_tx.send(Ok((rank, proxy.stats().clone())));
                    let worker = Worker {
                        link: link(inner),
                        proxy,
                        dataset,
                        topology,
                        group,
                    };
                    worker.run();
                    // Let background prefetches land before the final
                    // statistics are read.
                    worker.proxy.quiesce();
                })
                .map_err(|e| format!("spawn worker: {e}"))?;
            workers.push(handle);
        }
        drop(ready_tx);

        if let Some(l) = listener {
            let hub = l
                .accept_world(N_WORKERS, Duration::from_secs(10))
                .map_err(|e| format!("accept world: {e}"))?;
            client_end = Some(Box::new(hub));
        }
        let mut dms: Vec<(usize, Arc<DmsStats>)> = Vec::new();
        for _ in 0..N_WORKERS {
            dms.push(
                ready_rx
                    .recv()
                    .map_err(|_| "a worker died while starting")??,
            );
        }
        dms.sort_by_key(|(rank, _)| *rank);
        Ok(World {
            client: link(client_end.expect("client endpoint set for every transport")),
            counters,
            dms: dms.into_iter().map(|(_, s)| s).collect(),
            workers,
        })
    }

    /// DMS statistics summed over the proxies.
    pub fn dms_snapshot(&self) -> DmsStatsSnapshot {
        self.dms.iter().fold(DmsStatsSnapshot::default(), |acc, s| {
            acc.merge(&s.snapshot())
        })
    }

    /// Stops the workers, waits for them, and returns the proxies'
    /// final statistics.
    pub fn shutdown(mut self) -> Result<DmsStatsSnapshot, String> {
        for rank in 1..N_RANKS {
            let _ = self.client.send(rank, tags::SHUTDOWN, Bytes::new());
        }
        for h in self.workers.drain(..) {
            h.join().map_err(|_| "a worker thread panicked")?;
        }
        Ok(self.dms_snapshot())
    }
}
