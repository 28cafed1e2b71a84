//! The per-node data proxy (paper §4.1).
//!
//! Every computing node owns a proxy responsible for retrieving the data
//! a command asks for. Proxies act like a black box: system parameters
//! can be tuned from outside but never the result of a request. Each
//! proxy owns the node's two-tier cache and a background prefetch loader,
//! resolves names through the central name server, and asks the data
//! server which loading strategy to use for every forced load.
//!
//! Proxies are *not* arranged in work groups — they communicate across
//! group boundaries (the cooperative cache), which is why the peer
//! directory lives in the central server.

use crate::cache::{BlockDataCodec, DiskCache, MemoryCache, Tier, TieredCache};
use crate::name::{ItemId, NameResolver};
use crate::policy::policy_by_name;
use crate::prefetch::{prefetcher_by_name, Prefetcher};
use crate::server::{DataServer, LoadStrategy, NodeId, SharedCache, MEMORY_BANDWIDTH_BPS};
use crate::stats::{DmsStats, StrategyIndex};
use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::sync::{mpsc, Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use vira_grid::block::BlockStepId;
use vira_grid::field::SharedBlockData;
use vira_obs as obs;
use vira_storage::costmodel::{CostCategory, Meter};
use vira_storage::source::StorageError;

/// Configuration of one proxy's caches and prefetcher.
#[derive(Debug, Clone)]
pub struct ProxyConfig {
    /// Primary (memory) cache capacity in bytes.
    pub l1_capacity_bytes: usize,
    /// Replacement policy of the primary cache ("lru" | "lfu" | "fbr").
    pub l1_policy: String,
    /// Optional secondary (local-disk) cache.
    pub l2: Option<L2Config>,
    /// System prefetcher ("none" | "obl" | "prefetch-on-miss" | "markov"
    /// | "markov+obl").
    pub prefetcher: String,
}

#[derive(Debug, Clone)]
pub struct L2Config {
    pub capacity_bytes: usize,
    pub policy: String,
    pub spill_dir: PathBuf,
}

impl Default for ProxyConfig {
    fn default() -> Self {
        ProxyConfig {
            l1_capacity_bytes: 256 << 20,
            l1_policy: "fbr".into(),
            l2: None,
            prefetcher: "obl".into(),
        }
    }
}

struct PrefetchJob {
    dataset: String,
    id: BlockStepId,
}

// Global DMS metrics, bumped adjacent to the per-proxy [`DmsStats`]
// counters so exported totals stay consistent with snapshots summed
// over all proxies (see DESIGN.md "Observability layer").
static DEMAND_REQUESTS: OnceLock<Arc<obs::Counter>> = OnceLock::new();
static L1_HITS: OnceLock<Arc<obs::Counter>> = OnceLock::new();
static L2_HITS: OnceLock<Arc<obs::Counter>> = OnceLock::new();
static MISSES: OnceLock<Arc<obs::Counter>> = OnceLock::new();
static PREFETCH_WAITS: OnceLock<Arc<obs::Counter>> = OnceLock::new();
static PREFETCH_HITS: OnceLock<Arc<obs::Counter>> = OnceLock::new();
static PREFETCH_ISSUED: OnceLock<Arc<obs::Counter>> = OnceLock::new();
static PREFETCH_REDUNDANT: OnceLock<Arc<obs::Counter>> = OnceLock::new();
static LOADS_FILESERVER: OnceLock<Arc<obs::Counter>> = OnceLock::new();
static LOADS_REPLICA: OnceLock<Arc<obs::Counter>> = OnceLock::new();
static LOADS_PEER: OnceLock<Arc<obs::Counter>> = OnceLock::new();
static FALLBACKS: OnceLock<Arc<obs::Counter>> = OnceLock::new();

/// Failed load attempts tolerated per demand before dropping to the
/// last-resort direct storage read.
const LOAD_RETRY_BUDGET: usize = 3;

struct Core {
    node: NodeId,
    server: Arc<DataServer>,
    resolver: NameResolver,
    cache: SharedCache,
    prefetcher_kind: String,
    prefetchers: Mutex<HashMap<String, Box<dyn Prefetcher>>>,
    /// Items brought in by prefetch and not yet demanded.
    prefetched: Mutex<HashSet<ItemId>>,
    /// Items currently being loaded (demand or prefetch).
    inflight: Mutex<HashSet<ItemId>>,
    inflight_cv: Condvar,
    stats: Arc<DmsStats>,
    /// Prefetch jobs enqueued but not yet fully processed (for
    /// [`DataProxy::quiesce`]).
    pending_jobs: std::sync::atomic::AtomicU64,
}

impl Core {
    fn item_id(&self, dataset: &str, id: BlockStepId) -> ItemId {
        self.resolver.block_step_id(dataset, id)
    }

    /// Runs the prefetcher for `dataset` over one observed request and
    /// returns its suggestions.
    fn advise(&self, dataset: &str, id: BlockStepId, was_hit: bool) -> Vec<BlockStepId> {
        if self.prefetcher_kind == "none" {
            return Vec::new();
        }
        let mut g = self.prefetchers.lock().unwrap();
        if !g.contains_key(dataset) {
            let Some(order) = self.server.sequence_order(dataset) else {
                return Vec::new();
            };
            let Some(p) = prefetcher_by_name(&self.prefetcher_kind, order) else {
                return Vec::new();
            };
            g.insert(dataset.to_string(), p);
        }
        g.get_mut(dataset)
            .map(|p| p.advise(id, was_hit))
            .unwrap_or_default()
    }

    fn record_strategy(&self, strategy: LoadStrategy) {
        let idx = match strategy {
            LoadStrategy::FileServer => StrategyIndex::FileServer,
            LoadStrategy::LocalReplica => StrategyIndex::LocalReplica,
            LoadStrategy::Peer(_) => StrategyIndex::Peer,
        };
        self.stats.record_strategy(idx);
        match idx {
            StrategyIndex::FileServer => {
                obs::counter_cached(&LOADS_FILESERVER, "dms_loads_fileserver_total").inc()
            }
            StrategyIndex::LocalReplica => {
                obs::counter_cached(&LOADS_REPLICA, "dms_loads_replica_total").inc()
            }
            StrategyIndex::Peer => obs::counter_cached(&LOADS_PEER, "dms_loads_peer_total").inc(),
            StrategyIndex::Collective => {}
        }
    }

    fn count_fallback(&self) {
        self.stats.bump(&self.stats.fallbacks);
        obs::counter_cached(&FALLBACKS, "dms_fallback_total").inc();
    }

    /// Forced load of one item: an explicit peer → server → storage
    /// fallback chain. Each attempt asks the server for its
    /// fitness-best strategy (a peer when one holds the item, else the
    /// file server / replica); a failed rung is reported, counted as a
    /// fallback, and re-planned, so a cache-peer failure costs latency,
    /// not correctness. After [`LOAD_RETRY_BUDGET`] failed plans the
    /// chain bottoms out in a direct storage read that bypasses
    /// strategy selection entirely.
    fn load(
        &self,
        dataset: &str,
        item: ItemId,
        id: BlockStepId,
        meter: &Meter,
    ) -> Result<SharedBlockData, StorageError> {
        let mut last_err = None;
        for _ in 0..LOAD_RETRY_BUDGET {
            let plan = match self.server.choose_plan(dataset, item, self.node, meter) {
                Ok(p) => p,
                Err(e) => {
                    // No strategy left (e.g. file server down, no
                    // peers): descend to the storage rung.
                    last_err = Some(e);
                    break;
                }
            };
            match self.server.execute_plan(dataset, item, id, plan, meter) {
                Ok(p) => {
                    self.record_strategy(plan.strategy);
                    return Ok(p);
                }
                Err(e) => {
                    // A stale peer entry is corrected so the next plan
                    // avoids it; file-server failures flip the server's
                    // adaptive flag inside execute_plan.
                    if let LoadStrategy::Peer(peer) = plan.strategy {
                        self.server.notify_evicted(item, peer);
                    }
                    self.count_fallback();
                    last_err = Some(e);
                }
            }
        }
        // Last resort: raw storage, no coordination, no cooperative
        // cache. Only correctness is promised here, not modeled speed.
        self.count_fallback();
        match self.server.direct_fileserver_read(dataset, id, meter) {
            Ok(p) => {
                self.record_strategy(LoadStrategy::FileServer);
                Ok(p)
            }
            Err(e) => Err(last_err.unwrap_or(e)),
        }
    }

    /// Inserts a loaded item and synchronizes the server's peer
    /// directory.
    fn install(&self, item: ItemId, payload: SharedBlockData) -> Result<(), StorageError> {
        let (inserted, dropped) = {
            let mut c = self.cache.lock().unwrap();
            let inserted = c.insert(item, payload);
            (inserted, c.drain_dropped())
        };
        // What a failed spill dropped has left this node all the same.
        for d in &dropped {
            self.server.notify_evicted(*d, self.node);
            self.prefetched.lock().unwrap().remove(d);
        }
        inserted.map_err(|e| StorageError::Unavailable(format!("cache spill failed: {e}")))?;
        self.server.notify_cached(item, self.node);
        Ok(())
    }

    /// Removes `item` from the in-flight set and wakes waiters.
    fn finish_inflight(&self, item: ItemId) {
        let mut fl = self.inflight.lock().unwrap();
        fl.remove(&item);
        drop(fl);
        self.inflight_cv.notify_all();
    }
}

/// The public proxy handle. Owns the background prefetch thread; dropping
/// the proxy shuts the thread down.
pub struct DataProxy {
    core: Arc<Core>,
    prefetch_tx: Option<mpsc::Sender<PrefetchJob>>,
    prefetch_handle: Option<JoinHandle<()>>,
    prefetch_meter: Arc<Meter>,
}

/// Shows the allocator, once per proxy, how much memory this node frees
/// and takes back for as long as it lives. glibc returns the top of a
/// heap to the kernel, and faults it in again, once more than twice the
/// largest mapping it has seen *unmapped* lies free there; where nothing
/// larger than an item is ever unmapped that is less than one request's
/// buffers. Mapping and unmapping, untouched, a buffer of the memory
/// tier's size (capped where glibc stops adapting) moves both thresholds
/// past the churn; other allocators ignore it. Measurements: DESIGN.md,
/// "Steady state takes nothing from the kernel's allocators".
fn announce_recycled_bytes(l1_capacity_bytes: usize) {
    const GLIBC_ADAPTS_UP_TO: usize = 32 << 20;
    let bytes = l1_capacity_bytes.min(GLIBC_ADAPTS_UP_TO / 2);
    drop(std::hint::black_box(Vec::<u8>::with_capacity(bytes)));
}

impl DataProxy {
    pub fn new(node: NodeId, server: Arc<DataServer>, config: ProxyConfig) -> DataProxy {
        let l1_policy = policy_by_name(&config.l1_policy)
            .unwrap_or_else(|| panic!("unknown policy {}", config.l1_policy));
        let l1 = MemoryCache::new(config.l1_capacity_bytes, l1_policy);
        announce_recycled_bytes(config.l1_capacity_bytes);
        let l2 = config.l2.as_ref().map(|l2c| {
            let policy = policy_by_name(&l2c.policy)
                .unwrap_or_else(|| panic!("unknown policy {}", l2c.policy));
            DiskCache::new(
                l2c.spill_dir.clone(),
                l2c.capacity_bytes,
                policy,
                BlockDataCodec,
            )
            .expect("spill dir must be creatable")
        });
        let cache: SharedCache = Arc::new(Mutex::new(TieredCache::new(l1, l2)));
        server.register_proxy(node, cache.clone());

        let core = Arc::new(Core {
            node,
            server: server.clone(),
            resolver: NameResolver::new(server.names().clone()),
            cache,
            prefetcher_kind: config.prefetcher.clone(),
            prefetchers: Mutex::new(HashMap::new()),
            prefetched: Mutex::new(HashSet::new()),
            inflight: Mutex::new(HashSet::new()),
            inflight_cv: Condvar::new(),
            stats: DmsStats::new(),
            pending_jobs: std::sync::atomic::AtomicU64::new(0),
        });

        let prefetch_meter = Meter::new();
        let (tx, rx) = mpsc::channel::<PrefetchJob>();
        let thread_core = core.clone();
        let thread_meter = prefetch_meter.clone();
        let prefetch_handle = std::thread::Builder::new()
            .name(format!("vira-prefetch-{node}"))
            .spawn(move || {
                while let Ok(job) = rx.recv() {
                    run_prefetch_job(&thread_core, &job, &thread_meter);
                    thread_core
                        .pending_jobs
                        .fetch_sub(1, std::sync::atomic::Ordering::Release);
                }
            })
            .expect("failed to spawn prefetch thread");

        DataProxy {
            core,
            prefetch_tx: Some(tx),
            prefetch_handle: Some(prefetch_handle),
            prefetch_meter,
        }
    }

    pub fn node(&self) -> NodeId {
        self.core.node
    }

    pub fn stats(&self) -> &Arc<DmsStats> {
        &self.core.stats
    }

    /// Modeled time spent by the background prefetch loader (overlapped
    /// with computation, hence not part of any worker's meter).
    pub fn prefetch_meter(&self) -> &Arc<Meter> {
        &self.prefetch_meter
    }

    /// Demand request: returns the item, loading it if necessary.
    /// The caller's meter is charged for every modeled cost on the
    /// critical path (L2 promotion, strategy coordination, transfer).
    pub fn request(
        &self,
        dataset: &str,
        id: BlockStepId,
        meter: &Meter,
    ) -> Result<SharedBlockData, StorageError> {
        let core = &self.core;
        let item = core.item_id(dataset, id);
        core.stats.bump(&core.stats.demand_requests);
        obs::counter_cached(&DEMAND_REQUESTS, "dms_demand_requests_total").inc();
        let mut span = obs::span("dms.request", "dms")
            .arg_with("dataset", || obs::intern(dataset))
            .arg("block", id.block)
            .arg("step", id.step);
        let mut waited = false;

        loop {
            // 1. Cache lookup.
            let hit = {
                let mut c = core.cache.lock().unwrap();
                c.get(item)
                    .map_err(|e| StorageError::Unavailable(format!("cache read failed: {e}")))?
            };
            if let Some((payload, tier)) = hit {
                match tier {
                    Tier::Memory => {
                        core.stats.bump(&core.stats.l1_hits);
                        obs::counter_cached(&L1_HITS, "dms_l1_hits_total").inc();
                        span.set_arg("tier", "l1");
                        if let Some(bytes) = core.server.nominal_item_bytes(dataset) {
                            meter.charge(
                                core.server.clock(),
                                CostCategory::Read,
                                bytes as f64 / MEMORY_BANDWIDTH_BPS,
                            );
                        }
                    }
                    Tier::Disk => {
                        core.stats.bump(&core.stats.l2_hits);
                        obs::counter_cached(&L2_HITS, "dms_l2_hits_total").inc();
                        span.set_arg("tier", "l2");
                        if let Some(bytes) = core.server.nominal_item_bytes(dataset) {
                            meter.charge(
                                core.server.clock(),
                                CostCategory::Read,
                                core.server.local_disk_profile().transfer_time(bytes),
                            );
                        }
                    }
                }
                if core.prefetched.lock().unwrap().remove(&item) {
                    core.stats.bump(&core.stats.prefetch_hits);
                    obs::counter_cached(&PREFETCH_HITS, "dms_prefetch_hits_total").inc();
                }
                self.enqueue_suggestions(dataset, core.advise(dataset, id, true));
                return Ok(payload);
            }

            // 2. Somebody already loading it? Wait and retry the lookup.
            {
                let mut fl = core.inflight.lock().unwrap();
                if fl.contains(&item) {
                    if !waited {
                        core.stats.bump(&core.stats.prefetch_waits);
                        obs::counter_cached(&PREFETCH_WAITS, "dms_prefetch_waits_total").inc();
                        waited = true;
                    }
                    let _fl = core
                        .inflight_cv
                        .wait_while(fl, |fl| fl.contains(&item))
                        .unwrap();
                    continue;
                }
                fl.insert(item);
                break;
            }
        }

        // 3. We own the load.
        core.stats.bump(&core.stats.misses);
        obs::counter_cached(&MISSES, "dms_misses_total").inc();
        span.set_arg("tier", "miss");
        // A failed install (the spill behind it) is this request's
        // error; the in-flight entry goes either way, or every later
        // request for the item would wait on it for ever.
        let result = core
            .load(dataset, item, id, meter)
            .and_then(|payload| core.install(item, payload.clone()).map(|()| payload));
        core.finish_inflight(item);
        self.enqueue_suggestions(dataset, core.advise(dataset, id, false));
        result
    }

    /// Code prefetch (paper §4.2: "user initiated code prefetching"):
    /// the command itself decides the location and time of the hint.
    pub fn prefetch_hint(&self, dataset: &str, id: BlockStepId) {
        self.enqueue_suggestions(dataset, vec![id]);
    }

    fn enqueue_suggestions(&self, dataset: &str, ids: Vec<BlockStepId>) {
        if let Some(tx) = &self.prefetch_tx {
            for id in ids {
                self.core
                    .pending_jobs
                    .fetch_add(1, std::sync::atomic::Ordering::Acquire);
                if tx
                    .send(PrefetchJob {
                        dataset: dataset.to_string(),
                        id,
                    })
                    .is_err()
                {
                    self.core
                        .pending_jobs
                        .fetch_sub(1, std::sync::atomic::Ordering::Release);
                }
            }
        }
    }

    /// True if the item is resident in either cache tier.
    pub fn is_cached(&self, dataset: &str, id: BlockStepId) -> bool {
        let item = self.core.item_id(dataset, id);
        self.core.cache.lock().unwrap().locate(item).is_some()
    }

    /// Compact fingerprint of everything resident in either tier, for
    /// piggybacking on worker → scheduler frames (locality placement).
    pub fn residency_digest(&self) -> crate::cache::ResidencyDigest {
        self.core.cache.lock().unwrap().residency_digest()
    }

    /// Empties both cache tiers (e.g. between cold-cache experiments) and
    /// resets learned prefetcher state if `reset_prefetcher` is set.
    pub fn clear_cache(&self, reset_prefetcher: bool) {
        let resident: Vec<ItemId> = {
            let mut c = self.core.cache.lock().unwrap();
            let ids: Vec<ItemId> = c.l1().resident().collect();
            c.clear().ok();
            ids
        };
        for id in resident {
            self.core.server.notify_evicted(id, self.core.node);
        }
        self.core.prefetched.lock().unwrap().clear();
        if reset_prefetcher {
            for p in self.core.prefetchers.lock().unwrap().values_mut() {
                p.reset();
            }
        }
    }

    /// Blocks until the prefetch queue is drained and no prefetch is in
    /// flight (used by tests for determinism).
    pub fn quiesce(&self) {
        use std::sync::atomic::Ordering;
        loop {
            let drained = self.core.pending_jobs.load(Ordering::Acquire) == 0;
            let idle = self.core.inflight.lock().unwrap().is_empty();
            if drained && idle {
                return;
            }
            std::thread::sleep(std::time::Duration::from_micros(200));
        }
    }
}

fn run_prefetch_job(core: &Core, job: &PrefetchJob, meter: &Meter) {
    let item = core.item_id(&job.dataset, job.id);
    if core.cache.lock().unwrap().locate(item).is_some() {
        core.stats.bump(&core.stats.prefetch_redundant);
        obs::counter_cached(&PREFETCH_REDUNDANT, "dms_prefetch_redundant_total").inc();
        return;
    }
    {
        let mut fl = core.inflight.lock().unwrap();
        if fl.contains(&item) {
            core.stats.bump(&core.stats.prefetch_redundant);
            obs::counter_cached(&PREFETCH_REDUNDANT, "dms_prefetch_redundant_total").inc();
            return;
        }
        fl.insert(item);
    }
    core.stats.bump(&core.stats.prefetch_issued);
    obs::counter_cached(&PREFETCH_ISSUED, "dms_prefetch_issued_total").inc();
    let _span = obs::span("dms.prefetch", "dms")
        .arg_with("dataset", || obs::intern(&job.dataset))
        .arg("block", job.id.block)
        .arg("step", job.id.step);
    match core.load(&job.dataset, item, job.id, meter) {
        Ok(payload) => {
            if core.install(item, payload).is_ok() {
                core.prefetched.lock().unwrap().insert(item);
            }
        }
        Err(_) => {
            // Prefetch failures are silent: the demand path will retry
            // and surface the error if it persists.
        }
    }
    core.finish_inflight(item);
}

impl Drop for DataProxy {
    fn drop(&mut self) {
        self.prefetch_tx.take(); // close the channel; thread exits
        if let Some(h) = self.prefetch_handle.take() {
            let _ = h.join();
        }
        self.core.server.unregister_proxy(self.core.node);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::name::ItemName;
    use crate::server::ServerConfig;
    use vira_grid::synth::test_cube;
    use vira_storage::costmodel::SimClock;
    use vira_storage::source::SynthSource;

    fn setup(prefetcher: &str, l1_bytes: usize) -> (Arc<DataServer>, DataProxy) {
        let server = DataServer::new(SimClock::instant(), ServerConfig::default());
        server.register_dataset(Arc::new(SynthSource::new(Arc::new(test_cube(4, 4)))), false);
        let proxy = DataProxy::new(
            0,
            server.clone(),
            ProxyConfig {
                l1_capacity_bytes: l1_bytes,
                l1_policy: "fbr".into(),
                l2: None,
                prefetcher: prefetcher.into(),
            },
        );
        (server, proxy)
    }

    fn bs(b: u32, s: u32) -> BlockStepId {
        BlockStepId::new(b, s)
    }

    /// What one `test_cube(4, 4)` item charges an L1: its velocity
    /// planes, the geometry being shared by every step of the block.
    fn item_charge() -> usize {
        test_cube(4, 4).generate(bs(0, 0)).memory_bytes()
    }

    #[test]
    fn cold_miss_then_warm_hit() {
        let (_srv, proxy) = setup("none", 1 << 30);
        let m = Meter::new();
        let a = proxy.request("TestCube", bs(0, 0), &m).unwrap();
        let b = proxy.request("TestCube", bs(0, 0), &m).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "warm hit returns the cached Arc");
        let s = proxy.stats().snapshot();
        assert_eq!(s.demand_requests, 2);
        assert_eq!(s.misses, 1);
        assert_eq!(s.l1_hits, 1);
    }

    #[test]
    fn miss_cost_dwarfs_hit_cost() {
        let (_srv, proxy) = setup("none", 1 << 30);
        let m = Meter::new();
        proxy.request("TestCube", bs(0, 0), &m).unwrap();
        let after_miss = m.total(CostCategory::Read);
        assert!(after_miss > 0.0);
        proxy.request("TestCube", bs(0, 0), &m).unwrap();
        // An L1 hit charges only the memory-access share of the nominal
        // bytes — far below the device transfer.
        let hit_cost = m.total(CostCategory::Read) - after_miss;
        assert!(hit_cost > 0.0, "memory access is not free");
        assert!(
            hit_cost < after_miss / 10.0,
            "hit {hit_cost} vs miss {after_miss}"
        );
    }

    #[test]
    fn obl_prefetch_turns_next_request_into_hit() {
        let (_srv, proxy) = setup("obl", 1 << 30);
        let m = Meter::new();
        proxy.request("TestCube", bs(0, 0), &m).unwrap();
        proxy.quiesce(); // let the prefetch of step 1 complete
        assert!(proxy.is_cached("TestCube", bs(0, 1)));
        proxy.request("TestCube", bs(0, 1), &m).unwrap();
        let s = proxy.stats().snapshot();
        assert_eq!(s.misses, 1, "second request was served by the prefetch");
        assert_eq!(s.prefetch_hits, 1);
        assert!(s.prefetch_issued >= 1);
        // The prefetch I/O time landed on the prefetch meter, not ours.
        assert!(proxy.prefetch_meter().total(CostCategory::Read) > 0.0);
    }

    #[test]
    fn eviction_updates_server_directory() {
        // Capacity for exactly one item.
        let (srv, proxy) = setup("none", item_charge() + 1);
        let m = Meter::new();
        proxy.request("TestCube", bs(0, 0), &m).unwrap();
        let item0 = srv
            .names()
            .lookup(&ItemName::block_step("TestCube", bs(0, 0)))
            .unwrap();
        assert_eq!(srv.holders(item0), vec![0]);
        proxy.request("TestCube", bs(0, 1), &m).unwrap();
        assert!(srv.holders(item0).is_empty(), "evicted item left directory");
    }

    #[test]
    fn l1_sized_for_two_fields_holds_two_steps_of_a_block() {
        let (_srv, proxy) = setup("none", 2 * item_charge());
        let m = Meter::new();
        let a = proxy.request("TestCube", bs(0, 0), &m).unwrap();
        let b = proxy.request("TestCube", bs(0, 1), &m).unwrap();
        assert!(Arc::ptr_eq(&a.grid, &b.grid), "one geometry for both steps");
        assert!(proxy.is_cached("TestCube", bs(0, 0)), "step 0 not evicted");
        assert!(proxy.is_cached("TestCube", bs(0, 1)));
        proxy.request("TestCube", bs(0, 0), &m).unwrap();
        let s = proxy.stats().snapshot();
        assert_eq!((s.misses, s.l1_hits), (2, 1));
    }

    #[test]
    fn clear_cache_resets_state() {
        let (srv, proxy) = setup("none", 1 << 30);
        let m = Meter::new();
        proxy.request("TestCube", bs(0, 0), &m).unwrap();
        proxy.clear_cache(true);
        assert!(!proxy.is_cached("TestCube", bs(0, 0)));
        let item0 = srv
            .names()
            .lookup(&ItemName::block_step("TestCube", bs(0, 0)))
            .unwrap();
        assert!(srv.holders(item0).is_empty());
    }

    #[test]
    fn two_proxies_cooperate_via_peer_transfer() {
        let server = DataServer::new(SimClock::instant(), ServerConfig::default());
        server.register_dataset(Arc::new(SynthSource::new(Arc::new(test_cube(4, 4)))), false);
        let cfg = ProxyConfig {
            l1_capacity_bytes: 1 << 30,
            l1_policy: "lru".into(),
            l2: None,
            prefetcher: "none".into(),
        };
        let p0 = DataProxy::new(0, server.clone(), cfg.clone());
        let p1 = DataProxy::new(1, server.clone(), cfg);
        let m = Meter::new();
        p0.request("TestCube", bs(0, 0), &m).unwrap();
        p1.request("TestCube", bs(0, 0), &m).unwrap();
        let s1 = p1.stats().snapshot();
        assert_eq!(s1.loads_by_strategy[StrategyIndex::Peer as usize], 1);
        assert_eq!(s1.loads_by_strategy[StrategyIndex::FileServer as usize], 0);
    }

    #[test]
    fn forced_peer_failure_falls_back_to_fileserver() {
        let server = DataServer::new(SimClock::instant(), ServerConfig::default());
        server.register_dataset(Arc::new(SynthSource::new(Arc::new(test_cube(4, 4)))), false);
        let cfg = ProxyConfig {
            l1_capacity_bytes: 1 << 30,
            l1_policy: "lru".into(),
            l2: None,
            prefetcher: "none".into(),
        };
        let p0 = DataProxy::new(0, server.clone(), cfg.clone());
        let p1 = DataProxy::new(1, server.clone(), cfg);
        let m = Meter::new();
        p0.request("TestCube", bs(0, 0), &m).unwrap();
        server.inject_peer_failures(1);
        // The peer rung fails; the chain re-plans and the file server
        // serves the load — correctness is preserved.
        let data = p1.request("TestCube", bs(0, 0), &m).unwrap();
        assert_eq!(data.id, bs(0, 0));
        let s1 = p1.stats().snapshot();
        assert_eq!(s1.fallbacks, 1);
        assert_eq!(s1.loads_by_strategy[StrategyIndex::Peer as usize], 0);
        assert_eq!(s1.loads_by_strategy[StrategyIndex::FileServer as usize], 1);
        // Hit/miss/fallback accounting stays consistent: the single
        // demand was a miss served by exactly one successful load.
        assert_eq!(s1.demand_requests, 1);
        assert_eq!(s1.l1_hits + s1.l2_hits + s1.misses, s1.demand_requests);
        assert_eq!(s1.total_loads(), 1);
        // The block landed in p1's cache exactly once.
        assert!(p1.is_cached("TestCube", bs(0, 0)));
    }

    #[test]
    fn peer_and_fileserver_failures_bottom_out_in_direct_storage() {
        let server = DataServer::new(SimClock::instant(), ServerConfig::default());
        server.register_dataset(Arc::new(SynthSource::new(Arc::new(test_cube(4, 4)))), false);
        let cfg = ProxyConfig {
            l1_capacity_bytes: 1 << 30,
            l1_policy: "lru".into(),
            l2: None,
            prefetcher: "none".into(),
        };
        let p0 = DataProxy::new(0, server.clone(), cfg.clone());
        let p1 = DataProxy::new(1, server.clone(), cfg);
        let m = Meter::new();
        p0.request("TestCube", bs(0, 0), &m).unwrap();
        server.inject_peer_failures(1);
        server.inject_fileserver_failures(1);
        // Peer fails, re-planned file server fails too (marking it
        // down), choose_plan runs out of strategies, and the chain
        // bottoms out in the raw storage read.
        let data = p1.request("TestCube", bs(0, 0), &m).unwrap();
        assert_eq!(data.id, bs(0, 0));
        let s1 = p1.stats().snapshot();
        assert!(
            s1.fallbacks >= 2,
            "two failed rungs counted, got {}",
            s1.fallbacks
        );
        assert!(server.fileserver_is_down());
        assert!(p1.is_cached("TestCube", bs(0, 0)));
        server.reset_fileserver();
    }

    /// A proxy whose L1 holds exactly one item, with an L2 spill
    /// directory named after `tag`.
    fn setup_l2(tag: &str) -> (PathBuf, DataProxy) {
        let server = DataServer::new(SimClock::instant(), ServerConfig::default());
        server.register_dataset(Arc::new(SynthSource::new(Arc::new(test_cube(4, 4)))), false);
        let spill = std::env::temp_dir().join(format!("vira_proxy_{tag}_{}", std::process::id()));
        let proxy = DataProxy::new(
            0,
            server,
            ProxyConfig {
                l1_capacity_bytes: item_charge() + 1,
                l1_policy: "lru".into(),
                l2: Some(L2Config {
                    capacity_bytes: 1 << 30,
                    policy: "lru".into(),
                    spill_dir: spill.clone(),
                }),
                prefetcher: "none".into(),
            },
        );
        (spill, proxy)
    }

    #[test]
    fn l2_spill_and_promote() {
        let (_spill, proxy) = setup_l2("l2");
        let m = Meter::new();
        proxy.request("TestCube", bs(0, 0), &m).unwrap();
        proxy.request("TestCube", bs(0, 1), &m).unwrap(); // demotes step 0 to L2
        let read_before = m.total(CostCategory::Read);
        proxy.request("TestCube", bs(0, 0), &m).unwrap(); // L2 hit
        let s = proxy.stats().snapshot();
        assert_eq!(s.l2_hits, 1);
        assert_eq!(s.misses, 2);
        assert!(
            m.total(CostCategory::Read) > read_before,
            "L2 promotion charges the local-disk transfer"
        );
    }

    #[test]
    fn damaged_spill_file_is_a_miss_not_a_permanent_failure() {
        use std::fs;
        use std::path::Path;
        // Ways to damage the one spill file behind the cache's back,
        // given the item it holds. The header's block id is the word at
        // offset 8, its nj the one at 20.
        let patch = |f: &Path, at: usize, word: u32| {
            let mut bytes = fs::read(f).unwrap();
            bytes[at..at + 4].copy_from_slice(&word.to_le_bytes());
            fs::write(f, bytes).unwrap();
        };
        type Damage<'a> = (&'a str, &'a dyn Fn(&Path, &vira_grid::field::BlockData));
        let damages: [Damage; 4] = [
            ("truncated", &|f, _| {
                let len = fs::metadata(f).unwrap().len();
                fs::OpenOptions::new()
                    .write(true)
                    .open(f)
                    .unwrap()
                    .set_len(len / 2)
                    .unwrap()
            }),
            ("a v1 item file", &|f, item| {
                vira_grid::io::write_block_data(&mut fs::File::create(f).unwrap(), item).unwrap()
            }),
            ("another block", &|f, _| patch(f, 8, 3)),
            ("other dims", &|f, _| patch(f, 20, 1)),
        ];
        for (n, (damage, apply)) in damages.into_iter().enumerate() {
            let (spill, proxy) = setup_l2(&format!("l2_damaged_{n}"));
            let m = Meter::new();
            let original = proxy.request("TestCube", bs(0, 0), &m).unwrap();
            proxy.request("TestCube", bs(0, 1), &m).unwrap(); // demotes step 0 to L2
            let files: Vec<_> = fs::read_dir(&spill)
                .unwrap()
                .map(|e| e.unwrap().path())
                .collect();
            assert_eq!(files.len(), 1);
            apply(&files[0], &original);
            // The request falls through to the source: the entry is gone,
            // not poisoned.
            let again = proxy.request("TestCube", bs(0, 0), &m).unwrap();
            assert_eq!(*again, *original, "{damage}");
            assert!(
                proxy.is_cached("TestCube", bs(0, 0)),
                "{damage}: resident again"
            );
            let s = proxy.stats().snapshot();
            assert_eq!((s.l2_hits, s.misses), (0, 3), "{damage}");
            assert!(!files[0].exists(), "{damage}: the damaged file was deleted");
            proxy.request("TestCube", bs(0, 0), &m).unwrap();
            assert_eq!(proxy.stats().snapshot().l1_hits, 1, "{damage}");
        }
    }

    #[test]
    fn failed_install_does_not_strand_later_requests() {
        let (spill, proxy) = setup_l2("l2_gone");
        // With the spill directory gone, every demotion fails.
        std::fs::remove_dir_all(&spill).unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        let requester = std::thread::spawn(move || {
            let m = Meter::new();
            // Step 0 fills the L1; steps 1 and 2 each demote their
            // predecessor and fail in the install; by the repeat, step 1
            // is in no tier, so the request goes by the in-flight set.
            let steps = [0, 1, 2, 1];
            tx.send(steps.map(|s| proxy.request("TestCube", bs(0, s), &m).is_ok()))
        });
        let outcomes = rx
            .recv_timeout(std::time::Duration::from_secs(30))
            .expect("a request waits on an in-flight entry that no load will clear");
        assert_eq!(outcomes, [true, false, false, false]);
        requester.join().unwrap().unwrap();
    }

    #[test]
    fn markov_obl_hybrid_prefetches_learned_pattern() {
        let (_srv, proxy) = setup("markov+obl", 1 << 30);
        let m = Meter::new();
        // Teach a backwards walk (OBL would mispredict it).
        let trace = [bs(0, 3), bs(0, 2), bs(0, 1), bs(0, 0)];
        for &t in &trace {
            proxy.request("TestCube", t, &m).unwrap();
        }
        proxy.quiesce();
        proxy.clear_cache(false); // cold cache, learned transitions kept
        let before = proxy.stats().snapshot().misses;
        proxy.request("TestCube", trace[0], &m).unwrap();
        proxy.quiesce();
        // The markov prediction for 0,3 → 0,2 has been prefetched.
        assert!(proxy.is_cached("TestCube", trace[1]));
        proxy.request("TestCube", trace[1], &m).unwrap();
        let s = proxy.stats().snapshot();
        assert_eq!(s.misses, before + 1, "only the first request missed");
    }

    #[test]
    fn prefetch_hint_is_honored() {
        let (_srv, proxy) = setup("none", 1 << 30);
        proxy.prefetch_hint("TestCube", bs(0, 2));
        proxy.quiesce();
        assert!(proxy.is_cached("TestCube", bs(0, 2)));
        assert_eq!(proxy.stats().snapshot().prefetch_issued, 1);
    }

    #[test]
    fn out_of_range_request_fails() {
        let (_srv, proxy) = setup("none", 1 << 30);
        let m = Meter::new();
        assert!(proxy.request("TestCube", bs(9, 0), &m).is_err());
        assert!(proxy.request("Nope", bs(0, 0), &m).is_err());
    }
}
