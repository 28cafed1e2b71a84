//! Layer 3: the command framework.
//!
//! Actual post-processing algorithms live on the uppermost layer of the
//! design (paper §3) and are registered as [`Command`]s. A command is
//! executed by every member of a work group; each member processes its
//! share of the work (see [`JobCtx::my_blocks`]) and either streams
//! partial geometry directly to the visualization client
//! ([`JobCtx::stream_triangles`]) or returns its share for the master
//! worker to merge.

use std::collections::{HashMap, HashSet};
use std::sync::{Arc, OnceLock, RwLock};
use vira_comm::collective::Group;
use vira_comm::link::EventSender;
use vira_comm::transport::{CommError, Rank};
use vira_dms::proxy::DataProxy;
use vira_dms::server::DataServer;
use vira_extract::mesh::{Polyline, TriangleSoup};
use vira_grid::block::{BlockId, BlockStepId};
use vira_grid::field::SharedBlockData;
use vira_grid::synth::DatasetSpec;
use vira_obs as obs;
use vira_storage::costmodel::{self, CostCategory, Meter, SharedChannel, SimClock};
use vira_storage::source::StorageError;
use vira_vista::protocol::{CommandParams, EventHeader, JobId, PayloadKind};

/// Actual triangle counts on the scaled-down grids stand for
/// proportionally more paper-scale triangles; this ratio converts
/// between the two for transmission-cost purposes.
pub(crate) fn nominal_geometry_scale(spec: &DatasetSpec) -> f64 {
    let actual = spec.block_dims.n_cells().max(1) as f64;
    (spec.nominal_cells_per_item() as f64 / actual).max(1.0)
}

/// Charges a client-bound transmission of modeled duration `modeled`,
/// serialized on the back-end's single client `uplink`: the charged
/// (and slept) time includes queueing behind other workers' packets.
/// Returns the modeled seconds booked as Send.
pub(crate) fn charge_uplink(
    meter: &Meter,
    clock: &SimClock,
    uplink: &SharedChannel,
    modeled: f64,
) -> f64 {
    let dilation = clock.dilation();
    let booked = if dilation > 0.0 {
        uplink.reserve(modeled * dilation) / dilation
    } else {
        modeled
    };
    meter.charge(clock, CostCategory::Send, booked);
    booked
}

// Worker-side streaming metrics; the client-side mirror lives in
// vira-vista (`vista_*`), so a lossless link shows matching totals.
static STREAM_PACKETS: OnceLock<Arc<obs::Counter>> = OnceLock::new();
static STREAM_ITEMS: OnceLock<Arc<obs::Counter>> = OnceLock::new();

/// Failures surfaced by command execution.
#[derive(Debug)]
pub enum CommandError {
    Storage(StorageError),
    Comm(CommError),
    BadParams(String),
}

impl std::fmt::Display for CommandError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommandError::Storage(e) => write!(f, "storage: {e}"),
            CommandError::Comm(e) => write!(f, "comm: {e}"),
            CommandError::BadParams(s) => write!(f, "bad parameters: {s}"),
        }
    }
}

impl std::error::Error for CommandError {}

impl From<StorageError> for CommandError {
    fn from(e: StorageError) -> Self {
        CommandError::Storage(e)
    }
}

impl From<CommError> for CommandError {
    fn from(e: CommError) -> Self {
        CommandError::Comm(e)
    }
}

/// The non-streamed share of a command's result on one worker.
#[derive(Debug, Default)]
pub struct CommandOutput {
    pub triangles: TriangleSoup,
    pub polylines: Vec<Polyline>,
    /// Extraction cells this worker never examined thanks to bricktree
    /// pruning (summed over all items it processed).
    pub cells_skipped: u64,
    /// Bricks skipped whole.
    pub bricks_skipped: u64,
}

/// The kind and item count of a package holding `polylines` and
/// `triangles`: polylines win, a package with neither is empty.
pub(crate) fn payload_of(polylines: usize, triangles: usize) -> (PayloadKind, u32) {
    if polylines > 0 {
        (PayloadKind::Polylines, polylines as u32)
    } else if triangles > 0 {
        (PayloadKind::Triangles, triangles as u32)
    } else {
        (PayloadKind::None, 0)
    }
}

impl CommandOutput {
    pub fn kind(&self) -> PayloadKind {
        payload_of(self.polylines.len(), self.triangles.n_triangles()).0
    }

    pub fn n_items(&self) -> u32 {
        payload_of(self.polylines.len(), self.triangles.n_triangles()).1
    }
}

/// Shared cancellation registry (client `Cancel` requests land here).
pub type CancelSet = Arc<RwLock<HashSet<JobId>>>;

/// Everything a command needs on one worker.
pub struct JobCtx<'a> {
    pub job: JobId,
    pub dataset: String,
    pub spec: DatasetSpec,
    pub params: CommandParams,
    pub group: Group,
    pub rank: Rank,
    pub proxy: &'a DataProxy,
    /// Per-node cache of derived scalar fields (λ₂ etc.), persistent
    /// across jobs like the proxy's data caches.
    pub derived: &'a crate::derived::DerivedFieldCache,
    pub server: Arc<DataServer>,
    pub meter: Arc<Meter>,
    pub clock: Arc<SimClock>,
    /// Extraction threads available to this command (from
    /// [`crate::config::ExtractConfig`]): how many loaded items the
    /// isosurface and λ₂ commands extract side by side.
    pub extract_threads: usize,
    pub(crate) events: EventSender,
    pub(crate) cancels: CancelSet,
    /// The single serialized link into the visualization client: all
    /// client-bound transmissions of this back-end queue behind each
    /// other (§5.2: many work nodes "literally firing data at the
    /// visualization system" can overload it).
    pub(crate) uplink: Arc<SharedChannel>,
    pub(crate) seq: u32,
}

impl<'a> JobCtx<'a> {
    /// This worker's position within the group.
    pub fn my_index(&self) -> usize {
        self.group
            .index_of(self.rank)
            .expect("executing rank must be a group member")
    }

    /// Loads an item through the DMS (caches + prefetching + adaptive
    /// loading strategies).
    pub fn load_block(&self, id: BlockStepId) -> Result<SharedBlockData, CommandError> {
        Ok(self.proxy.request(&self.dataset, id, &self.meter)?)
    }

    /// Loads an item directly from the file server, bypassing the DMS —
    /// the data path of the paper's `Simple*` commands.
    pub fn direct_read(&self, id: BlockStepId) -> Result<SharedBlockData, CommandError> {
        Ok(self
            .server
            .direct_fileserver_read(&self.dataset, id, &self.meter)?)
    }

    /// Issues a user-initiated ("code") prefetch hint.
    pub fn prefetch_hint(&self, id: BlockStepId) {
        self.proxy.prefetch_hint(&self.dataset, id);
    }

    /// Paper-scale cell count of one data item (compute costs are charged
    /// against the nominal workload, not the scaled-down grids — see
    /// `vira-storage`).
    pub fn nominal_cells(&self) -> f64 {
        self.spec.nominal_cells_per_item() as f64
    }

    /// Charges modeled compute seconds (dilated sleep).
    pub fn charge_compute(&self, modeled_s: f64) {
        self.meter
            .charge(&self.clock, CostCategory::Compute, modeled_s);
    }

    /// Charges the modeled transmission of `n_triangles` (latency + per
    /// nominal-equivalent triangle).
    fn charge_send(&self, n_triangles: usize) {
        let scaled = n_triangles as f64 * nominal_geometry_scale(&self.spec);
        let t = costmodel::SEND_LATENCY_S + scaled * costmodel::SEND_S_PER_TRIANGLE;
        charge_uplink(&self.meter, &self.clock, &self.uplink, t);
    }

    /// Charges the transmission of `n` unscaled items (polyline points —
    /// trace lengths do not grow with grid resolution the way surface
    /// triangle counts do).
    fn charge_send_unscaled(&self, n: usize) {
        let t = costmodel::SEND_LATENCY_S + n as f64 * costmodel::SEND_S_PER_TRIANGLE;
        charge_uplink(&self.meter, &self.clock, &self.uplink, t);
    }

    /// The items of `step` this worker owns, interleaved round-robin over
    /// the group (so every worker gets near-front blocks early when the
    /// order is sorted front-to-back).
    pub fn my_blocks(&self, step: u32, block_order: &[BlockId]) -> Vec<BlockStepId> {
        let g = self.group.len();
        let idx = self.my_index();
        block_order
            .iter()
            .enumerate()
            .filter(|(i, _)| i % g == idx)
            .map(|(_, &b)| BlockStepId::new(b, step))
            .collect()
    }

    /// Streams a partial triangle packet straight to the visualization
    /// client (paper §5.2), charging the modeled send cost.
    pub fn stream_triangles(&mut self, soup: &TriangleSoup) -> Result<(), CommandError> {
        if soup.is_empty() {
            return Ok(());
        }
        self.charge_send(soup.n_triangles());
        obs::counter_cached(&STREAM_PACKETS, "worker_stream_packets_total").inc();
        obs::counter_cached(&STREAM_ITEMS, "worker_stream_items_total")
            .add(soup.n_triangles() as u64);
        let seq = self.seq;
        self.seq += 1;
        self.events
            .emit(vira_vista::protocol::encode_event(
                &EventHeader::Partial {
                    job: self.job,
                    seq,
                    kind: PayloadKind::Triangles,
                    n_items: soup.n_triangles() as u32,
                    from_worker: self.rank,
                },
                soup.to_bytes(),
            ))
            .map_err(CommandError::from)
    }

    /// Streams finished polylines to the client.
    pub fn stream_polylines(&mut self, lines: &[Polyline]) -> Result<(), CommandError> {
        if lines.is_empty() {
            return Ok(());
        }
        self.charge_send_unscaled(lines.iter().map(|l| l.len()).sum());
        obs::counter_cached(&STREAM_PACKETS, "worker_stream_packets_total").inc();
        obs::counter_cached(&STREAM_ITEMS, "worker_stream_items_total").add(lines.len() as u64);
        let seq = self.seq;
        self.seq += 1;
        self.events
            .emit(vira_vista::protocol::encode_event(
                &EventHeader::Partial {
                    job: self.job,
                    seq,
                    kind: PayloadKind::Polylines,
                    n_items: lines.len() as u32,
                    from_worker: self.rank,
                },
                vira_vista::protocol::encode_polylines(lines),
            ))
            .map_err(CommandError::from)
    }

    /// True once the client cancelled this job; commands should check
    /// between work units and return early with whatever they have.
    pub fn is_cancelled(&self) -> bool {
        self.cancels.read().unwrap().contains(&self.job)
    }

    /// Reports this worker's progress fraction to the visualization
    /// client (§9: a progress indicator in the virtual environment).
    pub fn report_progress(&mut self, fraction: f32) -> Result<(), CommandError> {
        self.events
            .emit(vira_vista::protocol::encode_event(
                &EventHeader::Progress {
                    job: self.job,
                    from_worker: self.rank,
                    fraction: fraction.clamp(0.0, 1.0),
                },
                bytes::Bytes::new(),
            ))
            .map_err(CommandError::from)
    }
}

/// A registered post-processing algorithm.
pub trait Command: Send + Sync {
    /// Registry name (what the client submits).
    fn name(&self) -> &'static str;

    /// Runs this worker's share of the job.
    fn execute(&self, ctx: &mut JobCtx<'_>) -> Result<CommandOutput, CommandError>;
}

/// The command registry of one back-end instance (layer 3 contents).
#[derive(Default)]
pub struct CommandRegistry {
    commands: HashMap<&'static str, Arc<dyn Command>>,
}

impl CommandRegistry {
    pub fn new() -> Self {
        CommandRegistry::default()
    }

    /// Adds a command; replaces any previous one of the same name.
    pub fn register(&mut self, cmd: Arc<dyn Command>) {
        self.commands.insert(cmd.name(), cmd);
    }

    pub fn get(&self, name: &str) -> Option<Arc<dyn Command>> {
        self.commands.get(name).cloned()
    }

    pub fn names(&self) -> Vec<&'static str> {
        let mut v: Vec<_> = self.commands.keys().copied().collect();
        v.sort_unstable();
        v
    }

    pub fn len(&self) -> usize {
        self.commands.len()
    }

    pub fn is_empty(&self) -> bool {
        self.commands.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Dummy;
    impl Command for Dummy {
        fn name(&self) -> &'static str {
            "Dummy"
        }
        fn execute(&self, _ctx: &mut JobCtx<'_>) -> Result<CommandOutput, CommandError> {
            Ok(CommandOutput::default())
        }
    }

    #[test]
    fn registry_register_and_lookup() {
        let mut r = CommandRegistry::new();
        assert!(r.is_empty());
        r.register(Arc::new(Dummy));
        assert_eq!(r.len(), 1);
        assert!(r.get("Dummy").is_some());
        assert!(r.get("Nope").is_none());
        assert_eq!(r.names(), vec!["Dummy"]);
    }

    #[test]
    fn output_kind_selection() {
        let mut out = CommandOutput::default();
        assert_eq!(out.kind(), PayloadKind::None);
        out.triangles.push_tri(
            vira_grid::math::Vec3::ZERO,
            vira_grid::math::Vec3::new(1.0, 0.0, 0.0),
            vira_grid::math::Vec3::new(0.0, 1.0, 0.0),
        );
        assert_eq!(out.kind(), PayloadKind::Triangles);
        assert_eq!(out.n_items(), 1);
        out.polylines.push(Polyline::default());
        assert_eq!(out.kind(), PayloadKind::Polylines, "polylines win");
    }
}
