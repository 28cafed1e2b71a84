//! Assembly of one Viracocha back-end instance: the communication world,
//! the data server, the scheduler thread and the worker threads.

use crate::command::{CancelSet, CommandRegistry};
use crate::commands::default_registry;
use crate::config::ViracochaConfig;
use crate::scheduler::{scheduler_main, SchedulerSetup};
use crate::worker::{worker_main, WorkerSetup};
use std::collections::HashSet;
use std::sync::{Arc, RwLock};
use std::thread::JoinHandle;
use vira_comm::fault::{FaultPlan, FaultStats, FaultyTransport};
use vira_comm::link::{client_server_link, ClientSide, EventSender};
use vira_comm::socket::SocketWorker;
use vira_comm::transport::{tags, LocalWorld, Transport};
use vira_dms::server::DataServer;
use vira_storage::costmodel::{SharedChannel, SimClock};
use vira_storage::source::DataSource;

/// A running Viracocha back-end.
///
/// The visualization client talks to it through the [`ClientSide`] link
/// returned by [`Viracocha::launch`] (typically wrapped in a
/// `vira_vista::VistaClient`). Datasets are registered through
/// [`Viracocha::register_dataset`] at any time before the first job that
/// uses them.
pub struct Viracocha {
    server: Arc<DataServer>,
    clock: Arc<SimClock>,
    registry: Arc<CommandRegistry>,
    scheduler: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    fault_stats: Option<Arc<FaultStats>>,
    cancels: CancelSet,
}

impl Viracocha {
    /// Launches a back-end with the built-in command registry.
    pub fn launch(config: ViracochaConfig) -> (Viracocha, ClientSide) {
        Self::launch_with_registry(config, default_registry())
    }

    /// Launches a back-end with a custom command registry — the paper's
    /// layer-3 extensibility: "this design allows the reuse of the
    /// Viracocha framework for purposes different from CFD
    /// post-processing by simply exchanging this topmost layer".
    pub fn launch_with_registry(
        config: ViracochaConfig,
        registry: CommandRegistry,
    ) -> (Viracocha, ClientSide) {
        let endpoints = LocalWorld::create(config.n_workers + 1);
        Self::launch_on_transports(config, registry, endpoints, None)
    }

    /// Launches a back-end whose every rank-to-rank message passes
    /// through a [`FaultyTransport`] driven by `plan` — the chaos-test
    /// entry point. An inert plan behaves exactly like
    /// [`Viracocha::launch`].
    pub fn launch_with_faults(config: ViracochaConfig, plan: FaultPlan) -> (Viracocha, ClientSide) {
        let plan = Arc::new(plan);
        let stats = Arc::new(FaultStats::default());
        let endpoints: Vec<_> = LocalWorld::create(config.n_workers + 1)
            .into_iter()
            .map(|e| FaultyTransport::new(e, plan.clone(), stats.clone()))
            .collect();
        Self::launch_on_transports(config, default_registry(), endpoints, Some(stats))
    }

    /// Launches the scheduler on `endpoints[0]` (rank 0) and a worker
    /// thread on each further endpoint. Worker ranks without an
    /// endpoint here live in other OS processes behind a socket hub:
    /// `vira serve` passes rank 0 alone. The returned handle joins the
    /// threads it started; remote workers exit on the scheduler's
    /// `SHUTDOWN` broadcast or when their hub connection drops.
    /// `fault_stats` accompanies [`FaultyTransport`]-wrapped endpoints.
    pub fn launch_on_transports<T: Transport + Send + 'static>(
        config: ViracochaConfig,
        registry: CommandRegistry,
        mut endpoints: Vec<T>,
        fault_stats: Option<Arc<FaultStats>>,
    ) -> (Viracocha, ClientSide) {
        assert!(config.n_workers >= 1, "need at least one worker");
        assert_eq!(endpoints[0].rank(), 0, "the scheduler must hold rank 0");
        assert_eq!(
            endpoints[0].world_size(),
            config.n_workers + 1,
            "transport world must match n_workers + scheduler"
        );
        let clock = SimClock::new(config.dilation);
        let server = DataServer::new(clock.clone(), config.server.clone());
        let registry = Arc::new(registry);
        let cancels: CancelSet = Arc::new(RwLock::new(HashSet::new()));
        let (client_side, server_side) = client_server_link();
        let events = server_side.event_sender();
        let uplink = SharedChannel::new();

        let mut workers = Vec::with_capacity(config.n_workers);
        // Spawn workers for ranks 1..=n; rank 0 stays with the scheduler.
        for transport in endpoints.drain(1..) {
            let rank = transport.rank();
            let setup = WorkerSetup {
                transport,
                server: server.clone(),
                clock: clock.clone(),
                registry: registry.clone(),
                config: config.clone(),
                events: events.clone(),
                cancels: cancels.clone(),
                uplink: uplink.clone(),
            };
            workers.push(
                std::thread::Builder::new()
                    .name(format!("vira-worker-{rank}"))
                    .spawn(move || worker_main(setup))
                    .expect("failed to spawn worker"),
            );
        }
        let setup = SchedulerSetup {
            transport: endpoints.pop().expect("rank 0 endpoint"),
            link: server_side,
            server: server.clone(),
            clock: clock.clone(),
            registry: registry.clone(),
            cancels: cancels.clone(),
            n_workers: config.n_workers,
            resilience: config.resilience.clone(),
            admission: config.admission.clone(),
            telemetry: config.telemetry.clone(),
        };
        let scheduler = std::thread::Builder::new()
            .name("vira-scheduler".into())
            .spawn(move || scheduler_main(setup))
            .expect("failed to spawn scheduler");

        (
            Viracocha {
                server,
                clock,
                registry,
                scheduler: Some(scheduler),
                workers,
                fault_stats,
                cancels,
            },
            client_side,
        )
    }

    /// The central data server (dataset registry, name service, peer
    /// directory).
    pub fn server(&self) -> &Arc<DataServer> {
        &self.server
    }

    /// The simulation clock used for modeled-time accounting.
    pub fn clock(&self) -> &Arc<SimClock> {
        &self.clock
    }

    /// Registered command names.
    pub fn commands(&self) -> Vec<&'static str> {
        self.registry.names()
    }

    /// Injection counters of the fault layer, when the back-end was
    /// launched with [`Viracocha::launch_with_faults`].
    pub fn fault_stats(&self) -> Option<&Arc<FaultStats>> {
        self.fault_stats.as_ref()
    }

    /// The shared cancellation set — exposed so tests can assert it is
    /// drained after cancels resolve (an entry that outlives its job is
    /// a leak: nothing else ever removes it).
    pub fn cancel_set(&self) -> &CancelSet {
        &self.cancels
    }

    /// Registers a dataset with the data server. `replicated` makes it
    /// additionally available on node-local disks (the "direct loading
    /// from hard disk" strategy).
    pub fn register_dataset(&self, source: Arc<dyn DataSource>, replicated: bool) {
        self.server.register_dataset(source, replicated);
    }

    /// Waits for the back-end to exit (after the client sent `Shutdown`
    /// or dropped its link).
    pub fn join(mut self) {
        if let Some(s) = self.scheduler.take() {
            let _ = s.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// Runs one worker rank of a multi-process deployment on the calling
/// thread (`vira worker`): builds the rank-local service state a
/// single-process back-end would share — clock, data server, cancel
/// set, client uplink — and enters the worker loop with the built-in
/// command registry. Returns when the scheduler sends `SHUTDOWN` or the
/// hub connection is lost.
///
/// `register` populates this rank's dataset registry before the first
/// command arrives; every rank must register the same datasets the
/// scheduler did (synthetic sources are deterministic, so the specs
/// agree). Streamed client packets ride `transport` to the scheduler as
/// `CLIENT_EVENT` frames, and the scheduler re-emits them on the real
/// client link.
///
/// Cancellation across processes: the scheduler fans a `CANCEL` frame
/// to every rank of a cancelled job's work group, and a frame tap on
/// the socket reader thread inserts the job id into this rank's cancel
/// set the moment the frame arrives — even while the worker thread is
/// deep inside an extraction — so `JobCtx::is_cancelled` trips mid-job
/// exactly like in-process. Remaining known scope limit: the DMS peer
/// directory is process-local, so cross-process peer cache transfers
/// are inert (jobs still complete correctly; locality scoring just sees
/// fewer peers).
pub fn run_remote_worker(
    config: ViracochaConfig,
    transport: SocketWorker,
    register: impl FnOnce(&Arc<DataServer>),
) {
    let cancels = CancelSet::default();
    let tapped = cancels.clone();
    transport.set_frame_tap(move |frame| {
        if frame.tag == tags::CANCEL {
            if let Some(job) = crate::wire::decode_cancel(&frame.payload) {
                tapped.write().unwrap().insert(job);
            }
        }
    });
    let sender = transport.sender();
    let events = EventSender::from_fn(move |frame| sender.send(0, tags::CLIENT_EVENT, &frame));
    let clock = SimClock::new(config.dilation);
    let server = DataServer::new(clock.clone(), config.server.clone());
    register(&server);
    let setup = WorkerSetup {
        transport,
        server,
        clock,
        registry: Arc::new(default_registry()),
        config,
        events,
        cancels,
        uplink: SharedChannel::new(),
    };
    worker_main(setup);
}

impl Drop for Viracocha {
    fn drop(&mut self) {
        // Best effort: if the user forgot to join, detach cleanly. The
        // scheduler exits when the client link drops.
        if let Some(s) = self.scheduler.take() {
            let _ = s.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}
