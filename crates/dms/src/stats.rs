//! The statistical unit of the DMS (paper §4.2): records system behaviour
//! — hits, misses, prefetch effectiveness, strategy usage — both to steer
//! the system prefetcher and to report the cache experiments.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Thread-safe counters maintained by a data proxy.
#[derive(Debug, Default)]
pub struct DmsStats {
    pub demand_requests: AtomicU64,
    /// Served from the primary (memory) cache.
    pub l1_hits: AtomicU64,
    /// Served from the secondary (local-disk) cache.
    pub l2_hits: AtomicU64,
    /// Demand requests that had to load from a source.
    pub misses: AtomicU64,
    /// Demand requests that found their item mid-prefetch and waited for
    /// it (partial hits: the load was already under way).
    pub prefetch_waits: AtomicU64,
    /// Prefetch loads issued to the background loader.
    pub prefetch_issued: AtomicU64,
    /// Prefetch suggestions skipped because the item was already cached
    /// or in flight.
    pub prefetch_redundant: AtomicU64,
    /// Demand hits on items that were brought in by a prefetch.
    pub prefetch_hits: AtomicU64,
    /// Loads that fell back to a lower rung of the peer → server →
    /// storage chain after a failure (cost latency, not correctness).
    pub fallbacks: AtomicU64,
    /// Loads by strategy: [file server, local replica, peer, collective].
    pub loads_by_strategy: [AtomicU64; 4],
}

/// Indices into `loads_by_strategy`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StrategyIndex {
    FileServer = 0,
    LocalReplica = 1,
    Peer = 2,
    Collective = 3,
}

impl DmsStats {
    pub fn new() -> Arc<DmsStats> {
        Arc::new(DmsStats::default())
    }

    pub fn bump(&self, c: &AtomicU64) {
        c.fetch_add(1, Ordering::Relaxed);
    }

    pub fn record_strategy(&self, s: StrategyIndex) {
        self.loads_by_strategy[s as usize].fetch_add(1, Ordering::Relaxed);
    }

    pub fn snapshot(&self) -> DmsStatsSnapshot {
        DmsStatsSnapshot {
            demand_requests: self.demand_requests.load(Ordering::Relaxed),
            l1_hits: self.l1_hits.load(Ordering::Relaxed),
            l2_hits: self.l2_hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            prefetch_waits: self.prefetch_waits.load(Ordering::Relaxed),
            prefetch_issued: self.prefetch_issued.load(Ordering::Relaxed),
            prefetch_redundant: self.prefetch_redundant.load(Ordering::Relaxed),
            prefetch_hits: self.prefetch_hits.load(Ordering::Relaxed),
            fallbacks: self.fallbacks.load(Ordering::Relaxed),
            loads_by_strategy: [
                self.loads_by_strategy[0].load(Ordering::Relaxed),
                self.loads_by_strategy[1].load(Ordering::Relaxed),
                self.loads_by_strategy[2].load(Ordering::Relaxed),
                self.loads_by_strategy[3].load(Ordering::Relaxed),
            ],
        }
    }

    pub fn clear(&self) {
        self.demand_requests.store(0, Ordering::Relaxed);
        self.l1_hits.store(0, Ordering::Relaxed);
        self.l2_hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.prefetch_waits.store(0, Ordering::Relaxed);
        self.prefetch_issued.store(0, Ordering::Relaxed);
        self.prefetch_redundant.store(0, Ordering::Relaxed);
        self.prefetch_hits.store(0, Ordering::Relaxed);
        self.fallbacks.store(0, Ordering::Relaxed);
        for s in &self.loads_by_strategy {
            s.store(0, Ordering::Relaxed);
        }
    }
}

/// Immutable snapshot with derived ratios; merged across proxies by
/// [`DmsStatsSnapshot::merge`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DmsStatsSnapshot {
    pub demand_requests: u64,
    pub l1_hits: u64,
    pub l2_hits: u64,
    pub misses: u64,
    pub prefetch_waits: u64,
    pub prefetch_issued: u64,
    pub prefetch_redundant: u64,
    pub prefetch_hits: u64,
    pub fallbacks: u64,
    pub loads_by_strategy: [u64; 4],
}

impl DmsStatsSnapshot {
    /// Fraction of demand requests served from either cache tier; 0 when
    /// there were no requests. A demand that waited for an in-flight
    /// prefetch ends up as an L1 hit once the load lands, so waits are
    /// not counted separately here.
    pub fn hit_rate(&self) -> f64 {
        if self.demand_requests == 0 {
            return 0.0;
        }
        (self.l1_hits + self.l2_hits) as f64 / self.demand_requests as f64
    }

    /// Fraction of demand requests that forced a load.
    pub fn miss_rate(&self) -> f64 {
        if self.demand_requests == 0 {
            return 0.0;
        }
        self.misses as f64 / self.demand_requests as f64
    }

    /// Fraction of issued prefetches that later served a demand request
    /// (demands that waited mid-prefetch count via `prefetch_hits` once
    /// the item is consumed).
    pub fn prefetch_accuracy(&self) -> f64 {
        if self.prefetch_issued == 0 {
            return 0.0;
        }
        self.prefetch_hits as f64 / self.prefetch_issued as f64
    }

    /// Element-wise saturating difference `self - earlier`: the counter
    /// activity that happened between two snapshots of the same stats
    /// (e.g. one job's window on one proxy). Saturates so a `clear()`
    /// between the snapshots yields zeros rather than wrapping.
    pub fn delta(&self, earlier: &DmsStatsSnapshot) -> DmsStatsSnapshot {
        DmsStatsSnapshot {
            demand_requests: self.demand_requests.saturating_sub(earlier.demand_requests),
            l1_hits: self.l1_hits.saturating_sub(earlier.l1_hits),
            l2_hits: self.l2_hits.saturating_sub(earlier.l2_hits),
            misses: self.misses.saturating_sub(earlier.misses),
            prefetch_waits: self.prefetch_waits.saturating_sub(earlier.prefetch_waits),
            prefetch_issued: self.prefetch_issued.saturating_sub(earlier.prefetch_issued),
            prefetch_redundant: self
                .prefetch_redundant
                .saturating_sub(earlier.prefetch_redundant),
            prefetch_hits: self.prefetch_hits.saturating_sub(earlier.prefetch_hits),
            fallbacks: self.fallbacks.saturating_sub(earlier.fallbacks),
            loads_by_strategy: [
                self.loads_by_strategy[0].saturating_sub(earlier.loads_by_strategy[0]),
                self.loads_by_strategy[1].saturating_sub(earlier.loads_by_strategy[1]),
                self.loads_by_strategy[2].saturating_sub(earlier.loads_by_strategy[2]),
                self.loads_by_strategy[3].saturating_sub(earlier.loads_by_strategy[3]),
            ],
        }
    }

    /// Total loads across all strategies.
    pub fn total_loads(&self) -> u64 {
        self.loads_by_strategy.iter().sum()
    }

    /// Element-wise sum of two snapshots.
    pub fn merge(&self, o: &DmsStatsSnapshot) -> DmsStatsSnapshot {
        DmsStatsSnapshot {
            demand_requests: self.demand_requests + o.demand_requests,
            l1_hits: self.l1_hits + o.l1_hits,
            l2_hits: self.l2_hits + o.l2_hits,
            misses: self.misses + o.misses,
            prefetch_waits: self.prefetch_waits + o.prefetch_waits,
            prefetch_issued: self.prefetch_issued + o.prefetch_issued,
            prefetch_redundant: self.prefetch_redundant + o.prefetch_redundant,
            prefetch_hits: self.prefetch_hits + o.prefetch_hits,
            fallbacks: self.fallbacks + o.fallbacks,
            loads_by_strategy: [
                self.loads_by_strategy[0] + o.loads_by_strategy[0],
                self.loads_by_strategy[1] + o.loads_by_strategy[1],
                self.loads_by_strategy[2] + o.loads_by_strategy[2],
                self.loads_by_strategy[3] + o.loads_by_strategy[3],
            ],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_counters() {
        let s = DmsStats::new();
        s.bump(&s.demand_requests);
        s.bump(&s.demand_requests);
        s.bump(&s.l1_hits);
        s.bump(&s.misses);
        s.record_strategy(StrategyIndex::Peer);
        let snap = s.snapshot();
        assert_eq!(snap.demand_requests, 2);
        assert_eq!(snap.l1_hits, 1);
        assert_eq!(snap.misses, 1);
        assert_eq!(snap.loads_by_strategy, [0, 0, 1, 0]);
        assert!((snap.hit_rate() - 0.5).abs() < 1e-12);
        assert!((snap.miss_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn rates_are_zero_without_traffic() {
        let snap = DmsStatsSnapshot::default();
        assert_eq!(snap.hit_rate(), 0.0);
        assert_eq!(snap.miss_rate(), 0.0);
        assert_eq!(snap.prefetch_accuracy(), 0.0);
    }

    #[test]
    fn prefetch_accuracy_is_hits_over_issued() {
        let s = DmsStats::new();
        for _ in 0..4 {
            s.bump(&s.prefetch_issued);
        }
        s.bump(&s.prefetch_hits);
        s.bump(&s.prefetch_waits); // waits don't count directly
        assert!((s.snapshot().prefetch_accuracy() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn merge_adds_everything() {
        let a = DmsStatsSnapshot {
            demand_requests: 1,
            l1_hits: 2,
            l2_hits: 3,
            misses: 4,
            prefetch_waits: 5,
            prefetch_issued: 6,
            prefetch_redundant: 7,
            prefetch_hits: 8,
            fallbacks: 9,
            loads_by_strategy: [1, 2, 3, 4],
        };
        let m = a.merge(&a);
        assert_eq!(m.demand_requests, 2);
        assert_eq!(m.prefetch_hits, 16);
        assert_eq!(m.fallbacks, 18);
        assert_eq!(m.loads_by_strategy, [2, 4, 6, 8]);
    }

    #[test]
    fn fallbacks_counter_snapshots_clears_and_deltas() {
        let s = DmsStats::new();
        s.bump(&s.fallbacks);
        s.bump(&s.fallbacks);
        let before = s.snapshot();
        assert_eq!(before.fallbacks, 2);
        s.bump(&s.fallbacks);
        assert_eq!(s.snapshot().delta(&before).fallbacks, 1);
        s.clear();
        assert_eq!(s.snapshot().fallbacks, 0);
    }

    #[test]
    fn delta_is_elementwise_and_saturating() {
        let before = DmsStatsSnapshot {
            demand_requests: 10,
            l1_hits: 4,
            loads_by_strategy: [1, 0, 0, 0],
            ..DmsStatsSnapshot::default()
        };
        let after = DmsStatsSnapshot {
            demand_requests: 25,
            l1_hits: 5,
            misses: 3,
            loads_by_strategy: [2, 1, 0, 0],
            ..before
        };
        let d = after.delta(&before);
        assert_eq!(d.demand_requests, 15);
        assert_eq!(d.l1_hits, 1);
        assert_eq!(d.misses, 3);
        assert_eq!(d.loads_by_strategy, [1, 1, 0, 0]);
        assert_eq!(d.total_loads(), 2);
        // A clear() between snapshots saturates to zero, never wraps.
        let wrapped = before.delta(&after);
        assert_eq!(wrapped.demand_requests, 0);
        assert_eq!(wrapped.l1_hits, 0);
    }

    #[test]
    fn clear_resets() {
        let s = DmsStats::new();
        s.bump(&s.l2_hits);
        s.record_strategy(StrategyIndex::FileServer);
        s.clear();
        assert_eq!(s.snapshot(), DmsStatsSnapshot::default());
    }
}
