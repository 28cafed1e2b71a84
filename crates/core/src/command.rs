//! Layer 3: the command framework.
//!
//! Actual post-processing algorithms live on the uppermost layer of the
//! design (paper §3) and are registered as [`Command`]s. A command is
//! executed by every member of a work group; each member processes its
//! share of the work (see [`JobCtx::my_blocks`]) and hands its geometry
//! to [`JobCtx::emit_triangles`] / [`JobCtx::emit_polylines`], which send
//! it to the client as partial packets (§5) or into the share the
//! group's master merges (§3), as the command's [`Command::streams`] says.

use bytes::{BufMut, Bytes, BytesMut};
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
use vira_vista::protocol::{
    append_polylines, encode_event, CommandParams, EventHeader, JobId, JobReport, PayloadKind,
};

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
    /// A batch of another kind than the merged payload's (the payload's
    /// kind, the batch's): a merged payload holds one kind.
    MixedPayload(PayloadKind, PayloadKind),
}

impl std::fmt::Display for CommandError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommandError::Storage(e) => write!(f, "storage: {e}"),
            CommandError::Comm(e) => write!(f, "comm: {e}"),
            CommandError::BadParams(s) => write!(f, "bad parameters: {s}"),
            CommandError::MixedPayload(a, b) => write!(f, "a {b:?} batch in a {a:?} payload"),
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

/// One worker's geometry sink for one job. Streamed batches only advance
/// its packet `seq`; merged ones are appended to `payload`, laid out as
/// `TriangleSoup::to_bytes` or `encode_polylines` lay out one batch: a
/// `u32` item count, then the items. The master appends the other ranks'
/// payload bodies to its own.
#[derive(Debug, Default)]
pub(crate) struct GeometrySink {
    seq: u32,
    /// Kind and item count of `payload`, set only by `append`: one kind,
    /// and no bytes at all (not even the count) until the first item.
    pub(crate) kind: PayloadKind,
    pub(crate) n_items: u32,
    payload: BytesMut,
    /// The report's geometry counters: every item emitted, streamed or
    /// merged, and the cells and bricks pruning skipped.
    pub(crate) counts: JobReport,
}

impl GeometrySink {
    /// Appends `n` items of `kind` (triangles or polylines), whose
    /// encoded bodies `body` writes, to the payload. A kind other than
    /// the payload's is refused before anything is written.
    pub(crate) fn append(
        &mut self,
        kind: PayloadKind,
        n: usize,
        body: impl FnOnce(&mut BytesMut),
    ) -> Result<(), CommandError> {
        if n == 0 {
            return Ok(());
        }
        if self.kind == PayloadKind::None {
            self.kind = kind;
            self.payload.put_u32_le(0);
        } else if self.kind != kind {
            return Err(CommandError::MixedPayload(self.kind, kind));
        }
        self.n_items += n as u32;
        self.payload[..4].copy_from_slice(&self.n_items.to_le_bytes());
        body(&mut self.payload);
        Ok(())
    }

    pub(crate) fn into_payload(self) -> Bytes {
        self.payload.freeze()
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
    pub(crate) streams: bool,
    pub(crate) sink: GeometrySink,
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

    /// Hands on a batch of triangles, as [`Command::streams`] decides.
    /// A streamed batch is charged per nominal-equivalent triangle.
    pub fn emit_triangles(&mut self, soup: &TriangleSoup) -> Result<(), CommandError> {
        let n = soup.n_triangles();
        self.sink.counts.triangles += n as u64;
        let send_units = n as f64 * nominal_geometry_scale(&self.spec);
        self.emit(PayloadKind::Triangles, n, send_units, |buf| {
            soup.append_payload(buf)
        })
    }

    /// Hands on a batch of finished polylines, as [`Command::streams`]
    /// decides. A streamed batch is charged per point: trace lengths do
    /// not grow with grid resolution the way surface triangle counts do.
    pub fn emit_polylines(&mut self, lines: &[Polyline]) -> Result<(), CommandError> {
        let points: usize = lines.iter().map(|l| l.len()).sum();
        self.sink.counts.polylines += lines.len() as u64;
        self.emit(PayloadKind::Polylines, lines.len(), points as f64, |buf| {
            append_polylines(buf, lines)
        })
    }

    /// Counts the cells and whole bricks that bricktree pruning skipped.
    pub fn count_skipped(&mut self, cells: u64, bricks: u64) {
        self.sink.counts.cells_skipped += cells;
        self.sink.counts.bricks_skipped += bricks;
    }

    /// Hands on `n` items of `kind` whose encoded bodies `body` writes.
    /// Streamed, they go to the client as one PARTIAL packet whose
    /// modeled send costs the latency plus `send_units` items (paper
    /// §5.2); merged, they are appended to this rank's payload.
    fn emit(
        &mut self,
        kind: PayloadKind,
        n: usize,
        send_units: f64,
        body: impl FnOnce(&mut BytesMut),
    ) -> Result<(), CommandError> {
        if n == 0 {
            return Ok(());
        }
        if !self.streams {
            return self.sink.append(kind, n, body);
        }
        let t = costmodel::SEND_LATENCY_S + send_units * costmodel::SEND_S_PER_TRIANGLE;
        charge_uplink(&self.meter, &self.clock, &self.uplink, t);
        obs::counter_cached(&STREAM_PACKETS, "worker_stream_packets_total").inc();
        obs::counter_cached(&STREAM_ITEMS, "worker_stream_items_total").add(n as u64);
        let mut packet = GeometrySink::default();
        packet.append(kind, n, body)?;
        let header = EventHeader::Partial {
            job: self.job,
            seq: self.sink.seq,
            kind,
            n_items: n as u32,
            from_worker: self.rank,
        };
        self.sink.seq += 1;
        let frame = encode_event(&header, packet.into_payload());
        self.events.emit(frame).map_err(CommandError::from)
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
            .emit(encode_event(
                &EventHeader::Progress {
                    job: self.job,
                    from_worker: self.rank,
                    fraction: fraction.clamp(0.0, 1.0),
                },
                Bytes::new(),
            ))
            .map_err(CommandError::from)
    }
}

/// A registered post-processing algorithm.
pub trait Command: Send + Sync {
    /// Registry name (what the client submits).
    fn name(&self) -> &'static str;

    /// Where every geometry batch of this command goes, for every job:
    /// `true` sends each one to the client as a partial packet the
    /// moment it is emitted (§5); `false` appends it to this worker's
    /// share of the package the group's master merges (§3).
    fn streams(&self) -> bool {
        false
    }

    /// Runs this worker's share of the job, handing its geometry to
    /// [`JobCtx::emit_triangles`] and [`JobCtx::emit_polylines`].
    fn execute(&self, ctx: &mut JobCtx<'_>) -> Result<(), CommandError>;
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
        fn execute(&self, _ctx: &mut JobCtx<'_>) -> Result<(), CommandError> {
            Ok(())
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

    fn soup(n: usize, offset: f64) -> TriangleSoup {
        use vira_grid::math::Vec3;
        let mut soup = TriangleSoup::new();
        for i in 0..n {
            let x = offset + i as f64;
            let (a, b, c) = (Vec3::new(x, 0.0, 0.0), Vec3::new(x, 1.0, 0.0), Vec3::ZERO);
            soup.push_tri(a, b, c);
        }
        soup
    }

    fn line(points: usize) -> Polyline {
        let mut line = Polyline::default();
        for i in 0..points {
            line.push(vira_grid::math::Vec3::splat(i as f64), i as f64);
        }
        line
    }

    #[test]
    fn merged_triangle_batches_are_the_soup_of_their_concatenation() {
        let batches = [soup(3, 0.0), soup(1, 10.0), soup(0, 0.0), soup(5, 20.0)];
        let mut sink = GeometrySink::default();
        let mut all = TriangleSoup::new();
        for b in &batches {
            sink.append(PayloadKind::Triangles, b.n_triangles(), |buf| {
                b.append_payload(buf)
            })
            .unwrap();
            all.extend_from(b);
        }
        assert_eq!((sink.kind, sink.n_items), (PayloadKind::Triangles, 9));
        assert_eq!(&sink.payload[..], &all.to_bytes()[..]);
    }

    #[test]
    fn merged_polyline_batches_are_the_encoding_of_every_line() {
        let batches = [vec![line(2), line(0)], vec![], vec![line(5)]];
        let mut sink = GeometrySink::default();
        for b in &batches {
            sink.append(PayloadKind::Polylines, b.len(), |buf| {
                append_polylines(buf, b)
            })
            .unwrap();
        }
        let all: Vec<Polyline> = batches.concat();
        assert_eq!((sink.kind, sink.n_items), (PayloadKind::Polylines, 3));
        let want = vira_vista::protocol::encode_polylines(&all);
        assert_eq!(&sink.payload[..], &want[..]);
    }

    #[test]
    fn a_sink_with_no_items_has_no_payload() {
        let mut sink = GeometrySink::default();
        sink.append(PayloadKind::Triangles, 0, |_| {}).unwrap();
        assert_eq!((sink.kind, sink.n_items), (PayloadKind::None, 0));
        assert!(sink.payload.is_empty());
    }

    #[test]
    fn a_merged_payload_refuses_a_second_kind() {
        let tris = soup(2, 0.0);
        let mut sink = GeometrySink::default();
        sink.append(PayloadKind::Triangles, 2, |buf| tris.append_payload(buf))
            .unwrap();
        let lines = [line(3)];
        let refused = sink.append(PayloadKind::Polylines, 1, |buf| {
            append_polylines(buf, &lines)
        });
        assert!(matches!(
            refused,
            Err(CommandError::MixedPayload(
                PayloadKind::Triangles,
                PayloadKind::Polylines
            ))
        ));
        assert_eq!((sink.kind, sink.n_items), (PayloadKind::Triangles, 2));
        assert_eq!(&sink.payload[..], &tris.to_bytes()[..]);
    }
}
