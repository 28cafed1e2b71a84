//! The centralized data-manager server (paper §4.1, §4.3).
//!
//! One server resides at the scheduler node. It maintains the name
//! server, knows which proxies currently cache which items (the peer
//! directory behind the cooperative cache), and decides — per load —
//! which **loading strategy** a proxy should use, based on a fitness
//! function over the modeled transfer time of each available path:
//!
//! * direct load from the network **file server**,
//! * direct load from a **local replica** on the node's hard disk (when
//!   the dataset has been replicated),
//! * **peer transfer** across computing nodes (greedy cooperative cache:
//!   no duplicates are deleted, every proxy stays independent),
//! * **collective I/O**, only profitable on a parallel file system.
//!
//! By adaptive strategy selection the DMS reacts to environment changes
//! such as file-server failures; the price is an extra coordination
//! round-trip per load, which is charged to the requester.

use crate::cache::{BlockDataCodec, TieredCache};
use crate::name::{ItemId, NameServer};
use crate::prefetch::SequenceOrder;
use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use vira_grid::block::BlockStepId;
use vira_grid::field::BlockData;
use vira_grid::synth::DatasetSpec;
use vira_storage::costmodel::{CostCategory, Meter, SimClock};
use vira_storage::device::{Device, DeviceProfile};
use vira_storage::source::{DataSource, StorageError};

/// Identifier of a computing node (= worker rank hosting a data proxy).
pub type NodeId = usize;

/// The strategy chosen for one load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadStrategy {
    FileServer,
    LocalReplica,
    Peer(NodeId),
}

/// A load decision returned by the server.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadPlan {
    pub strategy: LoadStrategy,
    /// Modeled seconds the server expects this load to take.
    pub estimated_s: f64,
}

/// Coordination cost charged to the requester for every strategy
/// decision ("additional communication for every load operation"),
/// modeled seconds.
pub const PLAN_LATENCY_S: f64 = 3e-4;

/// Main-memory bandwidth used to charge primary-cache hits (moving a
/// block out of the cache into the computation is not free at
/// paper-scale block sizes), bytes per second.
pub const MEMORY_BANDWIDTH_BPS: f64 = 2.0 * 1024.0 * 1024.0 * 1024.0;

/// Server tuning knobs.
#[derive(Debug, Clone, Default)]
pub struct ServerConfig {
    /// Whether a parallel file system backs collective I/O. Without one,
    /// collective access serializes and is rarely worthwhile (§4.3).
    pub parallel_fs: bool,
}

struct DatasetEntry {
    spec: DatasetSpec,
    fileserver: Arc<Device>,
    replica: Option<Arc<Device>>,
    order: Arc<SequenceOrder>,
    /// Static per-block bounding boxes, when the source provides them.
    bboxes: Option<Arc<Vec<vira_grid::math::Aabb>>>,
    /// Block adjacency derived from the bounding boxes.
    topology: Option<Arc<vira_grid::topology::BlockTopology>>,
}

/// Shared handle to a proxy's cache, registered for peer transfers.
pub type SharedCache = Arc<Mutex<TieredCache<BlockData, BlockDataCodec>>>;

/// The central data-manager server.
pub struct DataServer {
    names: Arc<NameServer>,
    clock: Arc<SimClock>,
    config: ServerConfig,
    interconnect: DeviceProfile,
    local_disk: DeviceProfile,
    datasets: RwLock<HashMap<String, Arc<DatasetEntry>>>,
    /// item → nodes that currently cache it.
    directory: RwLock<HashMap<ItemId, BTreeSet<NodeId>>>,
    /// node → its cache handle (for in-process peer transfer).
    peer_caches: RwLock<HashMap<NodeId, SharedCache>>,
    /// Sticky flag set when the file server reports a failure; adaptive
    /// selection then avoids it until reset.
    fileserver_down: AtomicBool,
    /// Deterministic fault budgets for chaos tests: the next N peer /
    /// file-server transfers fail. Zero in normal operation.
    peer_failure_budget: AtomicU64,
    fileserver_failure_budget: AtomicU64,
}

/// Consumes one unit of a failure budget; true when a failure should
/// be injected.
fn consume_budget(budget: &AtomicU64) -> bool {
    budget
        .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
        .is_ok()
}

impl DataServer {
    pub fn new(clock: Arc<SimClock>, config: ServerConfig) -> Arc<DataServer> {
        Arc::new(DataServer {
            names: NameServer::new(),
            clock,
            config,
            interconnect: DeviceProfile::interconnect(),
            local_disk: DeviceProfile::local_disk(),
            datasets: RwLock::new(HashMap::new()),
            directory: RwLock::new(HashMap::new()),
            peer_caches: RwLock::new(HashMap::new()),
            fileserver_down: AtomicBool::new(false),
            peer_failure_budget: AtomicU64::new(0),
            fileserver_failure_budget: AtomicU64::new(0),
        })
    }

    /// Makes the next `n` peer transfers fail deterministically
    /// (chaos-test hook; the proxy must fall back to the server rung).
    pub fn inject_peer_failures(&self, n: u64) {
        self.peer_failure_budget.fetch_add(n, Ordering::Relaxed);
    }

    /// Makes the next `n` file-server reads fail deterministically
    /// (chaos-test hook; the proxy must fall back to direct storage).
    pub fn inject_fileserver_failures(&self, n: u64) {
        self.fileserver_failure_budget
            .fetch_add(n, Ordering::Relaxed);
    }

    pub fn names(&self) -> &Arc<NameServer> {
        &self.names
    }

    pub fn clock(&self) -> &Arc<SimClock> {
        &self.clock
    }

    pub fn local_disk_profile(&self) -> &DeviceProfile {
        &self.local_disk
    }

    /// Registers a dataset served by the file server; `replicated`
    /// additionally makes it available on every node's local disk.
    pub fn register_dataset(&self, source: Arc<dyn DataSource>, replicated: bool) {
        let spec = source.spec().clone();
        let fileserver = Arc::new(Device::new(
            DeviceProfile::file_server(),
            source.clone(),
            self.clock.clone(),
        ));
        let replica = replicated.then(|| {
            Arc::new(Device::new(
                DeviceProfile::local_disk(),
                source,
                self.clock.clone(),
            ))
        });
        let order = Arc::new(SequenceOrder::file_order(&spec));
        let bboxes = fileserver.source().block_bboxes().map(Arc::new);
        let topology = bboxes.as_ref().map(|b| {
            Arc::new(vira_grid::topology::BlockTopology::from_bboxes(
                b.as_ref().clone(),
                1e-9,
            ))
        });
        self.datasets.write().unwrap().insert(
            spec.name.clone(),
            Arc::new(DatasetEntry {
                spec,
                fileserver,
                replica,
                order,
                bboxes,
                topology,
            }),
        );
    }

    /// Spec of a registered dataset.
    pub fn dataset_spec(&self, dataset: &str) -> Option<DatasetSpec> {
        self.datasets
            .read()
            .unwrap()
            .get(dataset)
            .map(|e| e.spec.clone())
    }

    /// [`DatasetSpec::nominal_item_bytes`] of a registered dataset,
    /// without cloning the spec: the cost the hit path charges.
    pub fn nominal_item_bytes(&self, dataset: &str) -> Option<u64> {
        let datasets = self.datasets.read().unwrap();
        Some(datasets.get(dataset)?.spec.nominal_item_bytes())
    }

    /// Sequential prefetch order of a registered dataset.
    pub fn sequence_order(&self, dataset: &str) -> Option<Arc<SequenceOrder>> {
        self.datasets
            .read()
            .unwrap()
            .get(dataset)
            .map(|e| e.order.clone())
    }

    /// Static per-block bounding boxes of a registered dataset, if known.
    pub fn block_bboxes(&self, dataset: &str) -> Option<Arc<Vec<vira_grid::math::Aabb>>> {
        self.datasets.read().unwrap().get(dataset)?.bboxes.clone()
    }

    /// Block adjacency of a registered dataset, if known.
    pub fn topology(&self, dataset: &str) -> Option<Arc<vira_grid::topology::BlockTopology>> {
        self.datasets.read().unwrap().get(dataset)?.topology.clone()
    }

    /// Direct load from the file server, bypassing strategy selection and
    /// every cache — the data path of the paper's `Simple*` commands,
    /// which "work without data management".
    pub fn direct_fileserver_read(
        &self,
        dataset: &str,
        id: BlockStepId,
        meter: &Meter,
    ) -> Result<Arc<BlockData>, StorageError> {
        let entry = self.entry(dataset)?;
        entry.fileserver.read(id, meter)
    }

    fn entry(&self, dataset: &str) -> Result<Arc<DatasetEntry>, StorageError> {
        self.datasets
            .read()
            .unwrap()
            .get(dataset)
            .cloned()
            .ok_or_else(|| StorageError::Unavailable(format!("dataset {dataset} not registered")))
    }

    /// A proxy announces itself for cooperative caching.
    pub fn register_proxy(&self, node: NodeId, cache: SharedCache) {
        self.peer_caches.write().unwrap().insert(node, cache);
    }

    /// Drops a proxy (its cached items leave the directory).
    pub fn unregister_proxy(&self, node: NodeId) {
        self.peer_caches.write().unwrap().remove(&node);
        let mut dir = self.directory.write().unwrap();
        dir.retain(|_, nodes| {
            nodes.remove(&node);
            !nodes.is_empty()
        });
    }

    /// Proxy → server: `item` is now cached at `node`.
    pub fn notify_cached(&self, item: ItemId, node: NodeId) {
        self.directory
            .write()
            .unwrap()
            .entry(item)
            .or_default()
            .insert(node);
    }

    /// Proxy → server: `item` fully left `node`'s cache.
    pub fn notify_evicted(&self, item: ItemId, node: NodeId) {
        let mut dir = self.directory.write().unwrap();
        if let Some(nodes) = dir.get_mut(&item) {
            nodes.remove(&node);
            if nodes.is_empty() {
                dir.remove(&item);
            }
        }
    }

    /// Nodes currently known to cache `item`.
    pub fn holders(&self, item: ItemId) -> Vec<NodeId> {
        self.directory
            .read()
            .unwrap()
            .get(&item)
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default()
    }

    /// Marks the file server as failed; adaptive selection avoids it.
    pub fn report_fileserver_failure(&self) {
        self.fileserver_down.store(true, Ordering::Relaxed);
    }

    /// Clears the failure flag (e.g. after the file server recovers).
    pub fn reset_fileserver(&self) {
        self.fileserver_down.store(false, Ordering::Relaxed);
    }

    pub fn fileserver_is_down(&self) -> bool {
        self.fileserver_down.load(Ordering::Relaxed)
    }

    /// The fitness-based strategy decision for one load. Charges the
    /// coordination latency to the requester's meter.
    pub fn choose_plan(
        &self,
        dataset: &str,
        item: ItemId,
        requester: NodeId,
        meter: &Meter,
    ) -> Result<LoadPlan, StorageError> {
        meter.charge(&self.clock, CostCategory::Read, PLAN_LATENCY_S);
        let entry = self.entry(dataset)?;
        let bytes = entry.spec.nominal_item_bytes();

        let mut best: Option<LoadPlan> = None;
        let mut consider = |plan: LoadPlan| {
            if best.is_none_or(|b| plan.estimated_s < b.estimated_s) {
                best = Some(plan);
            }
        };

        if !self.fileserver_is_down() {
            consider(LoadPlan {
                strategy: LoadStrategy::FileServer,
                estimated_s: entry.fileserver.profile().transfer_time(bytes),
            });
        }
        if entry.replica.is_some() {
            consider(LoadPlan {
                strategy: LoadStrategy::LocalReplica,
                estimated_s: self.local_disk.transfer_time(bytes),
            });
        }
        if let Some(&peer) = self
            .directory
            .read()
            .unwrap()
            .get(&item)
            .and_then(|nodes| nodes.iter().find(|&&n| n != requester))
        {
            consider(LoadPlan {
                strategy: LoadStrategy::Peer(peer),
                estimated_s: self.interconnect.transfer_time(bytes),
            });
        }
        best.ok_or_else(|| {
            StorageError::Unavailable(format!(
                "no loading strategy available for dataset {dataset}"
            ))
        })
    }

    /// Executes a plan on behalf of a proxy, charging `meter`.
    pub fn execute_plan(
        &self,
        dataset: &str,
        item: ItemId,
        id: BlockStepId,
        plan: LoadPlan,
        meter: &Meter,
    ) -> Result<Arc<BlockData>, StorageError> {
        let entry = self.entry(dataset)?;
        match plan.strategy {
            LoadStrategy::FileServer => {
                // Injected failures hit the server-coordinated rung
                // only; `direct_fileserver_read` models raw storage
                // access and stays the last resort.
                if consume_budget(&self.fileserver_failure_budget) {
                    self.report_fileserver_failure();
                    return Err(StorageError::Unavailable(
                        "file server failure (injected)".into(),
                    ));
                }
                match entry.fileserver.read(id, meter) {
                    Ok(data) => Ok(data),
                    Err(e) => {
                        if matches!(e, StorageError::Unavailable(_)) {
                            self.report_fileserver_failure();
                        }
                        Err(e)
                    }
                }
            }
            LoadStrategy::LocalReplica => {
                let dev = entry.replica.as_ref().ok_or_else(|| {
                    StorageError::Unavailable("no local replica registered".into())
                })?;
                Ok(dev.read(id, meter)?)
            }
            LoadStrategy::Peer(peer) => self
                .fetch_from_peer(peer, item, entry.spec.nominal_item_bytes(), meter)
                .ok_or_else(|| {
                    StorageError::Unavailable(format!("peer {peer} no longer holds the item"))
                }),
        }
    }

    /// Pulls an item out of another node's cache, charging the
    /// interconnect transfer (plus the peer's disk read when it was only
    /// in the peer's secondary tier).
    fn fetch_from_peer(
        &self,
        peer: NodeId,
        item: ItemId,
        bytes: u64,
        meter: &Meter,
    ) -> Option<Arc<BlockData>> {
        if consume_budget(&self.peer_failure_budget) {
            return None;
        }
        let cache = self.peer_caches.read().unwrap().get(&peer).cloned()?;
        let hit = {
            let mut guard = cache.lock().unwrap();
            guard.get(item).ok().flatten()
        };
        let (data, tier) = hit?;
        if tier == crate::cache::Tier::Disk {
            meter.charge(
                &self.clock,
                CostCategory::Read,
                self.local_disk.transfer_time(bytes),
            );
        }
        meter.charge(
            &self.clock,
            CostCategory::Read,
            self.interconnect.transfer_time(bytes),
        );
        Some(data)
    }

    /// Modeled per-node cost of `n_participants` nodes collectively
    /// reading one item each in a single coordinated operation (§4.3).
    /// On a parallel file system the reads stripe and each node pays one
    /// transfer plus a synchronization latency; without one, the shared
    /// channel serializes all transfers and everyone waits for the whole
    /// batch.
    pub fn collective_cost(
        &self,
        dataset: &str,
        n_participants: usize,
    ) -> Result<f64, StorageError> {
        let entry = self.entry(dataset)?;
        let bytes = entry.spec.nominal_item_bytes();
        let single = entry.fileserver.profile().transfer_time(bytes);
        let sync = 2.0 * PLAN_LATENCY_S;
        if self.config.parallel_fs {
            Ok(single + sync)
        } else {
            Ok(single * n_participants as f64 + sync)
        }
    }

    /// Serves a collective read for one participant: the item is fetched
    /// from the file server source while the *collective* cost is charged.
    pub fn collective_read(
        &self,
        dataset: &str,
        id: BlockStepId,
        n_participants: usize,
        meter: &Meter,
    ) -> Result<Arc<BlockData>, StorageError> {
        let entry = self.entry(dataset)?;
        let cost = self.collective_cost(dataset, n_participants)?;
        meter.charge(&self.clock, CostCategory::Read, cost);
        // Payload retrieval without double-charging the device transfer.
        entry.fileserver.source().fetch(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::{MemoryCache, TieredCache};
    use crate::name::ItemName;
    use crate::policy::LruPolicy;
    use vira_grid::synth::test_cube;
    use vira_storage::source::SynthSource;

    fn server() -> Arc<DataServer> {
        let srv = DataServer::new(SimClock::instant(), ServerConfig::default());
        let src = Arc::new(SynthSource::new(Arc::new(test_cube(4, 3))));
        srv.register_dataset(src, false);
        srv
    }

    fn item_of(srv: &DataServer, b: u32, s: u32) -> ItemId {
        srv.names()
            .register(&ItemName::block_step("TestCube", BlockStepId::new(b, s)))
    }

    #[test]
    fn plan_defaults_to_fileserver() {
        let srv = server();
        let m = Meter::new();
        let item = item_of(&srv, 0, 0);
        let plan = srv.choose_plan("TestCube", item, 0, &m).unwrap();
        assert_eq!(plan.strategy, LoadStrategy::FileServer);
        // Coordination latency was charged.
        assert!(m.total(CostCategory::Read) > 0.0);
    }

    #[test]
    fn plan_prefers_peer_when_available() {
        let srv = server();
        let m = Meter::new();
        let item = item_of(&srv, 0, 0);
        srv.notify_cached(item, 3);
        let plan = srv.choose_plan("TestCube", item, 0, &m).unwrap();
        assert_eq!(plan.strategy, LoadStrategy::Peer(3));
        // Requester's own copy never counts as a peer.
        let plan_self = srv.choose_plan("TestCube", item, 3, &m).unwrap();
        assert_eq!(plan_self.strategy, LoadStrategy::FileServer);
    }

    #[test]
    fn replica_beats_fileserver() {
        let srv = DataServer::new(SimClock::instant(), ServerConfig::default());
        let src = Arc::new(SynthSource::new(Arc::new(test_cube(4, 3))));
        srv.register_dataset(src, true);
        let m = Meter::new();
        let item = item_of(&srv, 0, 0);
        let plan = srv.choose_plan("TestCube", item, 0, &m).unwrap();
        assert_eq!(plan.strategy, LoadStrategy::LocalReplica);
    }

    #[test]
    fn fileserver_failure_redirects_to_peer() {
        let srv = server();
        let m = Meter::new();
        let item = item_of(&srv, 0, 0);
        srv.report_fileserver_failure();
        // No peer yet: no strategy at all.
        assert!(srv.choose_plan("TestCube", item, 0, &m).is_err());
        srv.notify_cached(item, 2);
        let plan = srv.choose_plan("TestCube", item, 0, &m).unwrap();
        assert_eq!(plan.strategy, LoadStrategy::Peer(2));
        srv.reset_fileserver();
        assert!(!srv.fileserver_is_down());
    }

    #[test]
    fn execute_fileserver_plan_returns_payload() {
        let srv = server();
        let m = Meter::new();
        let id = BlockStepId::new(0, 1);
        let item = item_of(&srv, 0, 1);
        let plan = srv.choose_plan("TestCube", item, 0, &m).unwrap();
        let data = srv.execute_plan("TestCube", item, id, plan, &m).unwrap();
        assert_eq!(data.id, id);
        assert!(m.total(CostCategory::Read) > 0.0);
    }

    #[test]
    fn peer_fetch_through_registered_cache() {
        let srv = server();
        let m = Meter::new();
        let id = BlockStepId::new(0, 0);
        let item = item_of(&srv, 0, 0);
        // Node 1 caches the item.
        let cache: SharedCache = Arc::new(Mutex::new(TieredCache::new(
            MemoryCache::new(1 << 30, Box::new(LruPolicy::new())),
            None,
        )));
        let payload = Arc::new(test_cube(4, 3).generate(id));
        cache.lock().unwrap().insert(item, payload.clone()).unwrap();
        srv.register_proxy(1, cache);
        srv.notify_cached(item, 1);
        // Node 0 loads it via the peer strategy.
        let plan = srv.choose_plan("TestCube", item, 0, &m).unwrap();
        assert_eq!(plan.strategy, LoadStrategy::Peer(1));
        let got = srv.execute_plan("TestCube", item, id, plan, &m).unwrap();
        assert_eq!(got.id, id);
    }

    #[test]
    fn stale_peer_entry_fails_gracefully() {
        let srv = server();
        let m = Meter::new();
        let id = BlockStepId::new(0, 0);
        let item = item_of(&srv, 0, 0);
        srv.notify_cached(item, 1); // directory says node 1, but no cache registered
        let plan = srv.choose_plan("TestCube", item, 0, &m).unwrap();
        assert!(matches!(
            srv.execute_plan("TestCube", item, id, plan, &m),
            Err(StorageError::Unavailable(_))
        ));
    }

    #[test]
    fn directory_updates_on_eviction_and_unregister() {
        let srv = server();
        let item = item_of(&srv, 0, 0);
        srv.notify_cached(item, 1);
        srv.notify_cached(item, 2);
        assert_eq!(srv.holders(item), vec![1, 2]);
        srv.notify_evicted(item, 1);
        assert_eq!(srv.holders(item), vec![2]);
        srv.unregister_proxy(2);
        assert!(srv.holders(item).is_empty());
    }

    #[test]
    fn collective_cost_depends_on_parallel_fs() {
        let slow = server();
        let serial = slow.collective_cost("TestCube", 4).unwrap();
        let fast_srv = DataServer::new(SimClock::instant(), ServerConfig { parallel_fs: true });
        fast_srv.register_dataset(Arc::new(SynthSource::new(Arc::new(test_cube(4, 3)))), false);
        let striped = fast_srv.collective_cost("TestCube", 4).unwrap();
        assert!(
            striped < serial,
            "parallel FS must make collective I/O cheaper"
        );
        // Without a parallel FS, collective ≥ 4 independent reads.
        let single = slow.choose_plan("TestCube", item_of(&slow, 0, 0), 0, &Meter::new());
        assert!(serial > single.unwrap().estimated_s * 3.9);
    }

    #[test]
    fn collective_read_returns_payload_and_charges() {
        let srv = server();
        let m = Meter::new();
        let data = srv
            .collective_read("TestCube", BlockStepId::new(0, 2), 4, &m)
            .unwrap();
        assert_eq!(data.id, BlockStepId::new(0, 2));
        let expected = srv.collective_cost("TestCube", 4).unwrap();
        assert!((m.total(CostCategory::Read) - expected).abs() < 1e-9);
    }

    #[test]
    fn injected_peer_failure_budget_is_consumed_once() {
        let srv = server();
        let m = Meter::new();
        let id = BlockStepId::new(0, 0);
        let item = item_of(&srv, 0, 0);
        let cache: SharedCache = Arc::new(Mutex::new(TieredCache::new(
            MemoryCache::new(1 << 30, Box::new(LruPolicy::new())),
            None,
        )));
        cache
            .lock()
            .unwrap()
            .insert(item, Arc::new(test_cube(4, 3).generate(id)))
            .unwrap();
        srv.register_proxy(1, cache);
        srv.notify_cached(item, 1);
        srv.inject_peer_failures(1);
        let plan = srv.choose_plan("TestCube", item, 0, &m).unwrap();
        assert_eq!(plan.strategy, LoadStrategy::Peer(1));
        // First transfer fails on the injected budget...
        assert!(matches!(
            srv.execute_plan("TestCube", item, id, plan, &m),
            Err(StorageError::Unavailable(_))
        ));
        // ...and the budget is spent: the retry succeeds.
        assert!(srv.execute_plan("TestCube", item, id, plan, &m).is_ok());
    }

    #[test]
    fn injected_fileserver_failure_marks_it_down() {
        let srv = server();
        let m = Meter::new();
        let id = BlockStepId::new(0, 0);
        let item = item_of(&srv, 0, 0);
        srv.inject_fileserver_failures(1);
        let plan = srv.choose_plan("TestCube", item, 0, &m).unwrap();
        assert!(matches!(
            srv.execute_plan("TestCube", item, id, plan, &m),
            Err(StorageError::Unavailable(_))
        ));
        assert!(srv.fileserver_is_down());
        // Direct storage access (the last rung) still works.
        assert!(srv.direct_fileserver_read("TestCube", id, &m).is_ok());
    }

    #[test]
    fn unknown_dataset_is_an_error() {
        let srv = server();
        let m = Meter::new();
        assert!(srv.choose_plan("Nope", ItemId(0), 0, &m).is_err());
        assert!(srv.dataset_spec("Nope").is_none());
        assert!(srv.sequence_order("TestCube").is_some());
    }
}
