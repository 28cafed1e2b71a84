//! Metric-delta shipping: turn the process-global metrics registry into
//! compact periodic deltas that ride the wire to the master.
//!
//! Each call to [`take_delta`] snapshots the registry, subtracts the
//! last-shipped snapshot, and returns only what changed: non-zero
//! counter increments, instantaneous gauge values, and sparse
//! log2-histogram increments (`(bucket, count)` pairs). The receiver
//! accumulates deltas per rank (see `tsdb`), so cross-rank sums and
//! merged histograms reconstruct the true cluster totals.
//!
//! **The shipping cursor is process-wide, not per-rank.** In the
//! in-process `LocalWorld` deployment every rank shares one global
//! registry; if each rank kept its own baseline, N ranks would each
//! ship the full increment and the master would count it N times.
//! A single cursor means every increment is shipped exactly once —
//! totals are conserved under cross-rank summation — at the cost of
//! approximate rank attribution in-process (the increment is credited
//! to whichever rank shipped it). In a real multi-process deployment
//! each process has its own registry and attribution is exact.
//!
//! The codec is a versioned line-oriented text format (`OBSD1`) built
//! only on std, so the same blob can ride as a JSON string field on
//! PARTIAL/DONE headers and as raw bytes appended to a PONG frame.
//! Metric names are prometheus-style `snake_case` (no spaces), which
//! makes space-separated fields unambiguous.
//!
//! ```text
//! OBSD1 <rank> <seq> <t_ns>
//! c <name> <increment>
//! g <name> <value>
//! h <name> <count> <sum> <bucket>:<count>,<bucket>:<count>,...
//! ```

use std::sync::{Arc, Mutex, OnceLock};

use crate::metrics::{
    self, counter_cached, Counter, HistogramSnapshot, MetricsSnapshot, HIST_BUCKETS,
};
use crate::trace::now_ns;

/// Codec version tag; bump when the line format changes.
pub const DELTA_MAGIC: &str = "OBSD1";

// ---------------------------------------------------------------------------
// Delta types
// ---------------------------------------------------------------------------

/// Sparse increment of one log2 histogram: only buckets that grew.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SparseHist {
    pub count: u64,
    pub sum: u64,
    /// `(bucket_index, increment)` pairs, bucket index ascending.
    pub buckets: Vec<(u8, u64)>,
}

impl SparseHist {
    pub fn from_snapshot(h: &HistogramSnapshot) -> SparseHist {
        SparseHist {
            count: h.count,
            sum: h.sum,
            buckets: h
                .buckets
                .iter()
                .enumerate()
                .filter(|(_, &c)| c > 0)
                .map(|(i, &c)| (i as u8, c))
                .collect(),
        }
    }

    pub fn to_snapshot(&self) -> HistogramSnapshot {
        let mut out = HistogramSnapshot {
            count: self.count,
            sum: self.sum,
            ..Default::default()
        };
        for &(i, c) in &self.buckets {
            if (i as usize) < HIST_BUCKETS {
                out.buckets[i as usize] = c;
            }
        }
        out
    }
}

/// One shipped increment of the metrics registry.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsDelta {
    /// Rank that shipped the delta (attribution key in the tsdb).
    pub rank: u64,
    /// Monotone sequence number; receivers accept each seq of a rank
    /// once, in whatever order the frames arrive, which makes delta
    /// ingest idempotent under duplicated frames (the fault injector
    /// duplicates PONGs) without losing one that was overtaken.
    pub seq: u64,
    /// Sender clock (`vira_obs::now_ns`) when the delta was cut.
    pub t_ns: u64,
    /// Counter increments since the previous delta; zero entries elided.
    pub counters: Vec<(String, u64)>,
    /// Instantaneous gauge values (not increments).
    pub gauges: Vec<(String, i64)>,
    /// Histogram increments since the previous delta; empty ones elided.
    pub histograms: Vec<(String, SparseHist)>,
}

impl MetricsDelta {
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Dense view of the delta, for merging with [`MetricsSnapshot`] math.
    pub fn to_snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self.counters.clone(),
            gauges: self.gauges.clone(),
            histograms: self
                .histograms
                .iter()
                .map(|(n, h)| (n.clone(), h.to_snapshot()))
                .collect(),
        }
    }
}

// ---------------------------------------------------------------------------
// Shipping cursor
// ---------------------------------------------------------------------------

struct ShipState {
    last: MetricsSnapshot,
    seq: u64,
}

static STATE: OnceLock<Mutex<ShipState>> = OnceLock::new();

fn state() -> &'static Mutex<ShipState> {
    STATE.get_or_init(|| {
        Mutex::new(ShipState {
            last: MetricsSnapshot::default(),
            seq: 0,
        })
    })
}

static SHIPPED: OnceLock<Arc<Counter>> = OnceLock::new();

/// Cuts a delta of everything recorded since the previous cut, advancing
/// the process-wide cursor. Returns `None` when nothing changed (no
/// counter or histogram increments and gauges identical to the last
/// shipped values) — callers then skip the wire bytes entirely.
pub fn take_delta(rank: u64) -> Option<MetricsDelta> {
    let now = metrics::snapshot();
    let mut st = state().lock().unwrap();
    let d = now.delta(&st.last);
    let counters: Vec<(String, u64)> = d.counters.iter().filter(|(_, v)| *v > 0).cloned().collect();
    let histograms: Vec<(String, SparseHist)> = d
        .histograms
        .iter()
        .filter(|(_, h)| h.count > 0)
        .map(|(n, h)| (n.clone(), SparseHist::from_snapshot(h)))
        .collect();
    if !delta_is_interesting(&counters, &histograms, d.gauges != st.last.gauges) {
        return None;
    }
    st.seq += 1;
    let seq = st.seq;
    st.last = now;
    drop(st);
    counter_cached(&SHIPPED, "obs_deltas_shipped_total").inc();
    Some(MetricsDelta {
        rank,
        seq,
        t_ns: now_ns(),
        counters,
        gauges: d.gauges,
        histograms,
    })
}

/// Whether a cut delta is worth shipping. A cut whose only content is
/// our own shipped-deltas counter (bumped by the previous successful
/// cut) is noise, and shipping it would bump the counter again — a
/// self-perpetuating one-line delta every heartbeat. Hold it back; the
/// pending increment rides the next real delta, so conservation holds.
fn delta_is_interesting(
    counters: &[(String, u64)],
    histograms: &[(String, SparseHist)],
    gauges_changed: bool,
) -> bool {
    counters
        .iter()
        .any(|(n, _)| n != "obs_deltas_shipped_total")
        || !histograms.is_empty()
        || gauges_changed
}

/// Resets the cursor so the next [`take_delta`] ships everything from
/// zero. Test hook — production code never rewinds the cursor.
pub fn reset_shipping_cursor() {
    let mut st = state().lock().unwrap();
    st.last = MetricsSnapshot::default();
    st.seq = 0;
}

// ---------------------------------------------------------------------------
// Codec
// ---------------------------------------------------------------------------

/// Encodes a delta into the `OBSD1` line format.
pub fn encode(d: &MetricsDelta) -> String {
    let mut out = String::with_capacity(64 + 32 * (d.counters.len() + d.gauges.len()));
    out.push_str(DELTA_MAGIC);
    out.push_str(&format!(" {} {} {}\n", d.rank, d.seq, d.t_ns));
    for (name, v) in &d.counters {
        out.push_str(&format!("c {} {}\n", name, v));
    }
    for (name, v) in &d.gauges {
        out.push_str(&format!("g {} {}\n", name, v));
    }
    for (name, h) in &d.histograms {
        out.push_str(&format!("h {} {} {} ", name, h.count, h.sum));
        if h.buckets.is_empty() {
            out.push('-');
        } else {
            for (k, &(i, c)) in h.buckets.iter().enumerate() {
                if k > 0 {
                    out.push(',');
                }
                out.push_str(&format!("{}:{}", i, c));
            }
        }
        out.push('\n');
    }
    out
}

fn valid_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_')
}

/// Decodes an `OBSD1` blob. Rejects unknown versions, malformed lines,
/// and out-of-range bucket indices — a corrupt frame must not poison
/// the tsdb.
pub fn decode(text: &str) -> Result<MetricsDelta, String> {
    let mut lines = text.lines();
    let header = lines.next().ok_or("empty delta blob")?;
    let mut hf = header.split(' ');
    if hf.next() != Some(DELTA_MAGIC) {
        return Err(format!("bad delta magic in {:?}", header));
    }
    let mut next_u64 = |what: &str| -> Result<u64, String> {
        hf.next()
            .ok_or_else(|| format!("missing {}", what))?
            .parse::<u64>()
            .map_err(|_| format!("bad {}", what))
    };
    let rank = next_u64("rank")?;
    let seq = next_u64("seq")?;
    let t_ns = next_u64("t_ns")?;
    if hf.next().is_some() {
        return Err("trailing header fields".into());
    }
    let mut d = MetricsDelta {
        rank,
        seq,
        t_ns,
        ..Default::default()
    };
    for line in lines {
        if line.is_empty() {
            continue; // tolerate a trailing newline
        }
        let mut f = line.split(' ');
        let tag = f.next().unwrap_or("");
        let name = f.next().ok_or_else(|| format!("no name in {:?}", line))?;
        if !valid_metric_name(name) {
            return Err(format!("bad metric name {:?}", name));
        }
        match tag {
            "c" => {
                let v = f
                    .next()
                    .and_then(|s| s.parse::<u64>().ok())
                    .ok_or_else(|| format!("bad counter line {:?}", line))?;
                d.counters.push((name.to_owned(), v));
            }
            "g" => {
                let v = f
                    .next()
                    .and_then(|s| s.parse::<i64>().ok())
                    .ok_or_else(|| format!("bad gauge line {:?}", line))?;
                d.gauges.push((name.to_owned(), v));
            }
            "h" => {
                let count = f
                    .next()
                    .and_then(|s| s.parse::<u64>().ok())
                    .ok_or_else(|| format!("bad hist count in {:?}", line))?;
                let sum = f
                    .next()
                    .and_then(|s| s.parse::<u64>().ok())
                    .ok_or_else(|| format!("bad hist sum in {:?}", line))?;
                let spec = f
                    .next()
                    .ok_or_else(|| format!("no bucket list in {:?}", line))?;
                let mut h = SparseHist {
                    count,
                    sum,
                    buckets: Vec::new(),
                };
                if spec != "-" {
                    for pair in spec.split(',') {
                        let (i, c) = pair
                            .split_once(':')
                            .ok_or_else(|| format!("bad bucket pair {:?}", pair))?;
                        let i = i
                            .parse::<u8>()
                            .ok()
                            .filter(|&i| (i as usize) < HIST_BUCKETS)
                            .ok_or_else(|| format!("bad bucket index {:?}", pair))?;
                        let c = c
                            .parse::<u64>()
                            .map_err(|_| format!("bad bucket count {:?}", pair))?;
                        h.buckets.push((i, c));
                    }
                }
                d.histograms.push((name.to_owned(), h));
            }
            _ => return Err(format!("unknown delta line tag {:?}", line)),
        }
        if f.next().is_some() {
            return Err(format!("trailing fields in {:?}", line));
        }
    }
    Ok(d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{counter, gauge, histogram};

    fn sample_delta() -> MetricsDelta {
        MetricsDelta {
            rank: 3,
            seq: 17,
            t_ns: 123_456_789,
            counters: vec![("a_total".into(), 5), ("b_total".into(), 1)],
            gauges: vec![("depth".into(), -2), ("running".into(), 4)],
            histograms: vec![(
                "lat_ns".into(),
                SparseHist {
                    count: 3,
                    sum: 3000,
                    buckets: vec![(9, 2), (10, 1)],
                },
            )],
        }
    }

    #[test]
    fn codec_roundtrip() {
        let d = sample_delta();
        let blob = encode(&d);
        assert_eq!(decode(&blob).unwrap(), d);
    }

    #[test]
    fn codec_roundtrip_empty_hist_buckets() {
        let mut d = sample_delta();
        d.histograms[0].1.buckets.clear();
        let blob = encode(&d);
        assert!(blob.contains(" -\n"));
        assert_eq!(decode(&blob).unwrap(), d);
    }

    #[test]
    fn decode_rejects_garbage() {
        for bad in [
            "",
            "OBSD9 1 2 3\n",
            "OBSD1 1 2\n",
            "OBSD1 1 2 3 4\n",
            "OBSD1 x 2 3\n",
            "OBSD1 1 2 3\nq name 5\n",
            "OBSD1 1 2 3\nc name\n",
            "OBSD1 1 2 3\nc Name 5\n",
            "OBSD1 1 2 3\nc name 5 6\n",
            "OBSD1 1 2 3\ng name x\n",
            "OBSD1 1 2 3\nh name 1 2 64:1\n",
            "OBSD1 1 2 3\nh name 1 2 9\n",
            "OBSD1 1 2 3\nh name 1 2\n",
        ] {
            assert!(decode(bad).is_err(), "accepted {:?}", bad);
        }
    }

    #[test]
    fn sparse_hist_roundtrip() {
        let mut snap = HistogramSnapshot {
            count: 4,
            sum: 77,
            ..Default::default()
        };
        snap.buckets[0] = 1;
        snap.buckets[63] = 3;
        let sparse = SparseHist::from_snapshot(&snap);
        assert_eq!(sparse.buckets, vec![(0, 1), (63, 3)]);
        assert_eq!(sparse.to_snapshot(), snap);
    }

    #[test]
    fn take_delta_conserves_totals_and_elides_empty() {
        reset_shipping_cursor();
        let c = counter("test_ship_conserved_total");
        let g = gauge("test_ship_depth");
        let h = histogram("test_ship_lat_ns");

        c.add(7);
        g.set(2);
        h.record(1000);
        let d1 = take_delta(0).expect("first cut ships");
        assert_eq!(
            d1.counters
                .iter()
                .find(|(n, _)| n == "test_ship_conserved_total"),
            Some(&("test_ship_conserved_total".into(), 7))
        );
        assert_eq!(
            d1.gauges.iter().find(|(n, _)| n == "test_ship_depth"),
            Some(&("test_ship_depth".into(), 2))
        );
        let h1 = d1
            .histograms
            .iter()
            .find(|(n, _)| n == "test_ship_lat_ns")
            .map(|(_, h)| h.clone())
            .unwrap();
        assert_eq!(h1.count, 1);

        // A second immediate cut ships nothing new — the counter bumped
        // by take_delta itself (obs_deltas_shipped_total) is the only
        // change, and it ships, then the third cut is empty.
        c.add(3);
        let d2 = take_delta(1).expect("second cut ships the increment");
        assert_eq!(
            d2.counters
                .iter()
                .find(|(n, _)| n == "test_ship_conserved_total"),
            Some(&("test_ship_conserved_total".into(), 3))
        );
        assert!(d2.seq > d1.seq);

        // Conservation: the sum of shipped increments equals the live total.
        let total: u64 = [&d1, &d2]
            .iter()
            .flat_map(|d| d.counters.iter())
            .filter(|(n, _)| n == "test_ship_conserved_total")
            .map(|(_, v)| v)
            .sum();
        assert_eq!(total, c.get());
    }

    #[test]
    fn self_counter_alone_is_not_interesting() {
        // The shipped-deltas counter bumping itself must not perpetuate
        // shipping forever: alone it is held back, with anything else it
        // rides along. (Tested on the pure predicate because the global
        // registry churns concurrently under the parallel test harness.)
        let own = vec![("obs_deltas_shipped_total".to_string(), 1u64)];
        assert!(!delta_is_interesting(&own, &[], false));
        assert!(!delta_is_interesting(&[], &[], false));
        let real = vec![
            ("obs_deltas_shipped_total".to_string(), 1u64),
            ("sched_jobs_done_total".to_string(), 1u64),
        ];
        assert!(delta_is_interesting(&real, &[], false));
        let hist = vec![("lat_ns".to_string(), SparseHist::default())];
        assert!(delta_is_interesting(&own, &hist, false));
        assert!(delta_is_interesting(&[], &[], true));
    }
}
