//! Master-side time-series store for shipped metric deltas.
//!
//! Fixed memory by construction: every series is a small set of ring
//! buffers ("tiers"), and the number of series is capped. Tier 0 holds
//! one point per ingested delta; when it overflows, every `factor`-th
//! evicted point is demoted to the next tier, so tier 1 covers
//! `factor`× the time span at `factor`× coarser resolution, and so on.
//! Points are `(t_ns, value)` where the value is **cumulative** for
//! counters and instantaneous for gauges — decimating a cumulative
//! series loses no window math, because a window delta only needs one
//! point at each edge.
//!
//! Histograms keep the full [`HistogramSnapshot`] per (rank, metric):
//! the cumulative merge of every shipped increment, plus a ring of
//! timestamped cumulative samples. Cross-rank quantiles come from
//! merging the per-rank snapshots — the real cluster distribution, not
//! an average of per-rank quantiles. Window queries subtract the newest
//! sample at-or-before the window edge; windows older than retention
//! clamp to the oldest sample (documented "since start" semantics for
//! short runs).
//!
//! Ingest is idempotent per rank: a delta whose `seq` is not greater
//! than the last seen from that rank is dropped, which makes duplicated
//! heartbeat frames (the fault injector duplicates PONGs) harmless.

use std::collections::{BTreeMap, VecDeque};

use crate::metrics::HistogramSnapshot;
use crate::ship::MetricsDelta;

// Sizing: 3 tiers × 128 points per scalar series and 64 histogram
// samples per (rank, metric) — a few MB at the `MAX_SERIES` cap,
// independent of run length.

/// Ring capacity of every tier.
const POINTS_PER_TIER: usize = 128;
/// Demotion factor between consecutive tiers; there are
/// `TIER_FACTORS.len() + 1` tiers.
const TIER_FACTORS: [u32; 2] = [8, 8];
/// Cumulative histogram samples retained per (rank, metric).
const HIST_SAMPLES: usize = 64;
/// Cap on the total number of series (scalar + histogram). New series
/// beyond the cap are dropped and counted.
const MAX_SERIES: usize = 4096;

#[derive(Default)]
struct Series {
    tiers: [VecDeque<(u64, f64)>; TIER_FACTORS.len() + 1],
    /// Points evicted from each tier but the last since its latest
    /// demotion.
    evicted: [u32; TIER_FACTORS.len()],
    /// Receiver clock of the very first push — never evicted, so a
    /// window query can tell "series born inside the window" (count
    /// everything) from "window exceeds retention" (clamp to the
    /// oldest retained point).
    first_t: Option<u64>,
}

impl Series {
    fn push(&mut self, t: u64, v: f64) {
        self.first_t.get_or_insert(t);
        self.push_tier(0, t, v);
    }

    fn push_tier(&mut self, k: usize, t: u64, v: f64) {
        self.tiers[k].push_back((t, v));
        if self.tiers[k].len() > POINTS_PER_TIER {
            let (et, ev) = self.tiers[k].pop_front().unwrap();
            if k < TIER_FACTORS.len() {
                self.evicted[k] += 1;
                if self.evicted[k] >= TIER_FACTORS[k] {
                    self.evicted[k] = 0;
                    self.push_tier(k + 1, et, ev);
                }
            }
        }
    }

    fn latest(&self) -> Option<(u64, f64)> {
        self.tiers
            .iter()
            .filter_map(|t| t.back())
            .max_by_key(|(t, _)| *t)
            .copied()
    }

    /// Newest retained point with `t <= cutoff`; falls back to the
    /// oldest retained point when the cutoff precedes retention.
    fn at_or_before(&self, cutoff: u64) -> Option<(u64, f64)> {
        let best = self
            .tiers
            .iter()
            .flat_map(|t| t.iter())
            .filter(|(t, _)| *t <= cutoff)
            .max_by_key(|(t, _)| *t)
            .copied();
        best.or_else(|| {
            self.tiers
                .iter()
                .flat_map(|t| t.iter())
                .min_by_key(|(t, _)| *t)
                .copied()
        })
    }

    fn points(&self) -> usize {
        self.tiers.iter().map(|t| t.len()).sum()
    }
}

struct HistSeries {
    cum: HistogramSnapshot,
    samples: VecDeque<(u64, HistogramSnapshot)>,
}

#[derive(Clone, Debug, Default)]
pub struct RankState {
    /// Highest sequence number accepted from this rank.
    pub last_seq: u64,
    /// Which of the 64 sequence numbers up to `last_seq` have been
    /// accepted: bit `i` stands for `last_seq - i`.
    seen: u64,
    /// Receiver clock at last accepted delta.
    pub last_ingest_ns: u64,
    /// Sender clock stamped on the last accepted delta.
    pub last_remote_ns: u64,
    pub deltas_accepted: u64,
}

/// The store. Single-owner (the scheduler thread); queries take `&self`.
#[derive(Default)]
pub struct Tsdb {
    counters: BTreeMap<(u64, String), (u64, Series)>,
    gauges: BTreeMap<(u64, String), Series>,
    hists: BTreeMap<(u64, String), HistSeries>,
    ranks: BTreeMap<u64, RankState>,
    dup_dropped: u64,
    series_dropped: u64,
}

impl Tsdb {
    fn series_count(&self) -> usize {
        self.counters.len() + self.gauges.len() + self.hists.len()
    }

    /// Applies one shipped delta, stamped with the receiver clock
    /// `now_ns`. Returns `false` when the delta was dropped as a
    /// duplicate: its seq was already accepted from that rank, or is
    /// more than 64 behind the newest one. A rank's deltas travel by
    /// two routes (heartbeat pongs and the job's DONE frame) and so
    /// overtake each other; each is an increment cut once, so a late one
    /// is applied when it arrives, only its gauges — older than the
    /// ones already stored — are skipped.
    pub fn ingest(&mut self, d: &MetricsDelta, now_ns: u64) -> bool {
        let rs = self.ranks.entry(d.rank).or_default();
        let newest = d.seq > rs.last_seq;
        if newest {
            let advance = d.seq - rs.last_seq;
            rs.seen = if advance < 64 { rs.seen << advance } else { 0 } | 1;
            rs.last_seq = d.seq;
            rs.last_remote_ns = d.t_ns;
        } else {
            let age = rs.last_seq - d.seq;
            if age >= 64 || rs.seen & (1 << age) != 0 {
                self.dup_dropped += 1;
                return false;
            }
            rs.seen |= 1 << age;
        }
        rs.last_ingest_ns = now_ns;
        rs.deltas_accepted += 1;

        for (name, inc) in &d.counters {
            let key = (d.rank, name.clone());
            if !self.counters.contains_key(&key) && self.series_count() >= MAX_SERIES {
                self.series_dropped += 1;
                continue;
            }
            let entry = self.counters.entry(key).or_default();
            entry.0 += inc;
            let total = entry.0;
            entry.1.push(now_ns, total as f64);
        }
        let gauges: &[_] = if newest { &d.gauges } else { &[] };
        for (name, v) in gauges {
            let key = (d.rank, name.clone());
            if !self.gauges.contains_key(&key) && self.series_count() >= MAX_SERIES {
                self.series_dropped += 1;
                continue;
            }
            self.gauges.entry(key).or_default().push(now_ns, *v as f64);
        }
        for (name, h) in &d.histograms {
            let key = (d.rank, name.clone());
            if !self.hists.contains_key(&key) && self.series_count() >= MAX_SERIES {
                self.series_dropped += 1;
                continue;
            }
            let entry = self.hists.entry(key).or_insert_with(|| HistSeries {
                cum: HistogramSnapshot::default(),
                samples: VecDeque::new(),
            });
            entry.cum.merge(&h.to_snapshot());
            entry.samples.push_back((now_ns, entry.cum));
            if entry.samples.len() > HIST_SAMPLES {
                entry.samples.pop_front();
            }
        }
        true
    }

    pub fn ranks(&self) -> Vec<u64> {
        self.ranks.keys().copied().collect()
    }

    pub fn rank_state(&self, rank: u64) -> Option<&RankState> {
        self.ranks.get(&rank)
    }

    /// Cross-rank cumulative total of a counter family.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .filter(|((_, n), _)| n == name)
            .map(|(_, (total, _))| total)
            .sum()
    }

    pub fn counter_by_rank(&self, name: &str) -> Vec<(u64, u64)> {
        self.counters
            .iter()
            .filter(|((_, n), _)| n == name)
            .map(|((rank, _), (total, _))| (*rank, *total))
            .collect()
    }

    /// Cross-rank counter increment inside `[now - window, now]`,
    /// clamped to retention.
    pub fn counter_window(&self, name: &str, window_ns: u64, now_ns: u64) -> u64 {
        let cutoff = now_ns.saturating_sub(window_ns);
        self.counters
            .iter()
            .filter(|((_, n), _)| n == name)
            .map(|(_, (total, series))| {
                // The edge point is the cumulative value at the window
                // start. A series born inside the window counts whole;
                // otherwise clamp to the oldest retained point when
                // decimation ate the true edge.
                if series.first_t.map(|t| t > cutoff).unwrap_or(true) {
                    *total
                } else {
                    let base = series.at_or_before(cutoff).map(|(_, v)| v).unwrap_or(0.0);
                    total.saturating_sub(base as u64)
                }
            })
            .sum()
    }

    /// Sum of the latest gauge value across ranks.
    pub fn gauge_sum(&self, name: &str) -> i64 {
        self.gauges
            .iter()
            .filter(|((_, n), _)| n == name)
            .filter_map(|(_, s)| s.latest())
            .map(|(_, v)| v as i64)
            .sum()
    }

    pub fn gauge_by_rank(&self, name: &str) -> Vec<(u64, i64)> {
        self.gauges
            .iter()
            .filter(|((_, n), _)| n == name)
            .filter_map(|((rank, _), s)| s.latest().map(|(_, v)| (*rank, v as i64)))
            .collect()
    }

    /// Cross-rank merged cumulative histogram: the true cluster
    /// distribution, suitable for p50/p99/p999 via
    /// [`HistogramSnapshot::quantile_upper_bound`].
    pub fn merged_histogram(&self, name: &str) -> HistogramSnapshot {
        let mut out = HistogramSnapshot::default();
        for ((_, n), hs) in &self.hists {
            if n == name {
                out.merge(&hs.cum);
            }
        }
        out
    }

    /// Cross-rank merged histogram of samples recorded inside
    /// `[now - window, now]`, clamped to retention: per rank, the
    /// cumulative snapshot minus the newest sample at-or-before the
    /// window edge (or minus nothing if the rank's history starts
    /// inside the window).
    pub fn merged_histogram_window(
        &self,
        name: &str,
        window_ns: u64,
        now_ns: u64,
    ) -> HistogramSnapshot {
        let cutoff = now_ns.saturating_sub(window_ns);
        let mut out = HistogramSnapshot::default();
        for ((_, n), hs) in &self.hists {
            if n != name {
                continue;
            }
            let base = hs
                .samples
                .iter()
                .filter(|(t, _)| *t <= cutoff)
                .max_by_key(|(t, _)| *t)
                .map(|(_, s)| *s)
                .unwrap_or_default();
            out.merge(&hs.cum.delta(&base));
        }
        out
    }

    /// Names of every histogram family present, deduplicated.
    pub fn histogram_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.hists.keys().map(|(_, n)| n.clone()).collect();
        names.sort();
        names.dedup();
        names
    }

    /// Names of every gauge family present, deduplicated.
    pub fn gauge_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.gauges.keys().map(|(_, n)| n.clone()).collect();
        names.sort();
        names.dedup();
        names
    }

    /// Names of every counter family present, deduplicated.
    pub fn counter_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.counters.keys().map(|(_, n)| n.clone()).collect();
        names.sort();
        names.dedup();
        names
    }

    pub fn dup_dropped(&self) -> u64 {
        self.dup_dropped
    }

    pub fn series_dropped(&self) -> u64 {
        self.series_dropped
    }

    /// Total retained scalar points — the memory-bound witness.
    pub fn scalar_points(&self) -> usize {
        self.counters
            .values()
            .map(|(_, s)| s.points())
            .chain(self.gauges.values().map(|s| s.points()))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ship::SparseHist;

    fn delta(rank: u64, seq: u64, counters: &[(&str, u64)]) -> MetricsDelta {
        MetricsDelta {
            rank,
            seq,
            t_ns: seq * 1000,
            counters: counters.iter().map(|(n, v)| (n.to_string(), *v)).collect(),
            ..Default::default()
        }
    }

    fn hist_delta(rank: u64, seq: u64, name: &str, values: &[u64]) -> MetricsDelta {
        let mut snap = HistogramSnapshot::default();
        for &v in values {
            snap.count += 1;
            snap.sum += v;
            snap.buckets[crate::metrics::Histogram::bucket_index(v)] += 1;
        }
        MetricsDelta {
            rank,
            seq,
            t_ns: seq * 1000,
            histograms: vec![(name.to_string(), SparseHist::from_snapshot(&snap))],
            ..Default::default()
        }
    }

    #[test]
    fn dup_seq_is_idempotent() {
        let mut db = Tsdb::default();
        let d = delta(1, 5, &[("jobs_total", 3)]);
        assert!(db.ingest(&d, 100));
        assert!(!db.ingest(&d, 200), "replayed frame must be dropped");
        assert_eq!(db.counter_total("jobs_total"), 3);
        assert_eq!(db.dup_dropped(), 1);
        // A different rank with the same seq is independent.
        assert!(db.ingest(&delta(2, 5, &[("jobs_total", 4)]), 400));
        assert_eq!(db.counter_total("jobs_total"), 7);
    }

    #[test]
    fn overtaken_delta_is_applied_once_when_it_arrives() {
        // Seq 4 rode a DONE frame, seq 5 a heartbeat pong that got
        // there first: both increments count, neither twice.
        let mut db = Tsdb::default();
        let mut late = delta(1, 4, &[("jobs_total", 9)]);
        late.gauges = vec![("queue_depth".into(), 7)];
        let mut early = delta(1, 5, &[("jobs_total", 3)]);
        early.gauges = vec![("queue_depth".into(), 2)];
        assert!(db.ingest(&early, 100));
        assert!(db.ingest(&late, 200));
        assert_eq!(db.counter_total("jobs_total"), 12);
        assert_eq!(db.gauge_sum("queue_depth"), 2, "the newer gauge stands");
        assert!(!db.ingest(&late, 300), "replayed");
        assert!(!db.ingest(&early, 300), "replayed");
        assert_eq!(db.counter_total("jobs_total"), 12);
        assert_eq!(db.rank_state(1).unwrap().last_seq, 5);
        // Far ahead: the window moves on and what falls out is refused.
        assert!(db.ingest(&delta(1, 100, &[("jobs_total", 1)]), 400));
        assert!(
            !db.ingest(&delta(1, 36, &[("jobs_total", 1)]), 500),
            "64 behind"
        );
        assert!(
            db.ingest(&delta(1, 37, &[("jobs_total", 1)]), 500),
            "63 behind"
        );
        assert!(!db.ingest(&delta(1, 37, &[("jobs_total", 1)]), 600));
        assert_eq!(db.counter_total("jobs_total"), 14);
        assert_eq!(db.dup_dropped(), 4);
    }

    #[test]
    fn cross_rank_histogram_merge_is_the_real_distribution() {
        let mut db = Tsdb::default();
        // Rank 1: 99 fast samples (~1µs). Rank 2: 1 slow sample (~1ms).
        db.ingest(&hist_delta(1, 1, "lat_ns", &vec![1000u64; 99]), 10);
        db.ingest(&hist_delta(2, 1, "lat_ns", &[1_000_000]), 20);
        let m = db.merged_histogram("lat_ns");
        assert_eq!(m.count, 100);
        // p50 stays in the fast bucket, p99+ must see rank 2's outlier —
        // a per-rank average would have hidden it.
        assert_eq!(m.quantile_upper_bound(0.5), 1024);
        assert!(m.quantile_upper_bound(0.995) >= 1 << 20);
    }

    #[test]
    fn window_queries_subtract_the_edge() {
        let mut db = Tsdb::default();
        db.ingest(&delta(1, 1, &[("jobs_total", 10)]), 1_000);
        db.ingest(&delta(1, 2, &[("jobs_total", 5)]), 2_000);
        db.ingest(&delta(1, 3, &[("jobs_total", 2)]), 3_000);
        // Window covering only the last ingest.
        assert_eq!(db.counter_window("jobs_total", 500, 3_100), 2);
        // Window covering the last two.
        assert_eq!(db.counter_window("jobs_total", 1_600, 3_100), 7);
        // Window wider than the whole history: everything.
        assert_eq!(db.counter_window("jobs_total", 10_000, 3_100), 17);

        db.ingest(&hist_delta(1, 4, "lat_ns", &[100]), 4_000);
        db.ingest(&hist_delta(1, 5, "lat_ns", &[200_000]), 5_000);
        let w = db.merged_histogram_window("lat_ns", 800, 5_100);
        assert_eq!(w.count, 1, "only the sample inside the window");
        assert_eq!(w.sum, 200_000);
        let all = db.merged_histogram_window("lat_ns", 1 << 40, 5_100);
        assert_eq!(all.count, 2);
    }

    #[test]
    fn tiers_bound_memory_but_keep_old_points() {
        let mut db = Tsdb::default();
        // Enough ingests to fill all three tiers: 128 + 128 × 8 +
        // 128 × 64 = 9 344.
        for seq in 1..=20_000u64 {
            db.ingest(&delta(1, seq, &[("jobs_total", 1)]), seq * 1_000);
        }
        // 3 tiers × 128 points each, tops.
        assert!(db.scalar_points() <= 384, "points = {}", db.scalar_points());
        assert_eq!(db.counter_total("jobs_total"), 20_000);
        // A window reaching into decimated history still subtracts a
        // plausible edge: the increment over the last ~10 000 ingests
        // must be well under the total and nonzero.
        let w = db.counter_window("jobs_total", 10_000_000, 20_000_000);
        assert!(w > 0 && w < 20_000, "window delta = {}", w);
    }

    #[test]
    fn series_cap_drops_new_series_not_old() {
        let mut db = Tsdb::default();
        let names: Vec<String> = (0..=MAX_SERIES).map(|i| format!("s{i}_total")).collect();
        let counters: Vec<(&str, u64)> = names.iter().map(|n| (n.as_str(), 1)).collect();
        db.ingest(&delta(1, 1, &counters), 10);
        assert_eq!(db.series_dropped(), 1);
        assert_eq!(db.counter_total("s0_total"), 1);
        assert_eq!(db.counter_total(&names[MAX_SERIES - 1]), 1);
        assert_eq!(db.counter_total(&names[MAX_SERIES]), 0);
        // Existing series keep accepting increments at the cap.
        db.ingest(&delta(1, 2, &[("s0_total", 5)]), 20);
        assert_eq!(db.counter_total("s0_total"), 6);
    }

    #[test]
    fn gauges_are_instantaneous() {
        let mut db = Tsdb::default();
        let mut d = delta(1, 1, &[]);
        d.gauges = vec![("depth".into(), 7)];
        db.ingest(&d, 10);
        let mut d2 = delta(1, 2, &[]);
        d2.gauges = vec![("depth".into(), 3)];
        db.ingest(&d2, 20);
        let mut d3 = delta(2, 1, &[]);
        d3.gauges = vec![("depth".into(), 2)];
        db.ingest(&d3, 30);
        assert_eq!(db.gauge_sum("depth"), 5);
        assert_eq!(db.gauge_by_rank("depth"), vec![(1, 3), (2, 2)]);
    }
}
