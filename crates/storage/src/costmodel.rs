//! Time-dilated cost model — the stand-in for the paper's hardware.
//!
//! The paper measures wall-clock runtimes on a SUN Fire 6800 (24 CPUs)
//! processing gigabyte-scale datasets. We reproduce the *shapes* of those
//! measurements on small hosts by separating **modeled time** from **wall
//! time**: every compute, read, and send operation charges a modeled
//! duration derived from the paper-scale workload (nominal bytes, nominal
//! cell counts), and the [`SimClock`] converts modeled seconds into a real
//! `sleep` of `modeled × dilation` wall seconds.
//!
//! Because sleeping threads overlap perfectly, a 16-worker sweep exhibits
//! genuine parallel-scaling behaviour even on a 2-core machine, while the
//! actual extraction algorithms still run for real on the scaled-down
//! grids. With `dilation = 0` the model becomes pure accounting (no
//! sleeps), which is what the unit tests use.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};
use vira_obs as obs;

// Cost-model metrics: modeled nanoseconds charged per category across
// every meter, plus the wall nanoseconds actually slept by dilated
// clocks. Comparing the two exposes the simulated-vs-wall-time ratio of
// a run (see DESIGN.md "Observability layer").
static MODELED_READ_NS: OnceLock<Arc<obs::Counter>> = OnceLock::new();
static MODELED_COMPUTE_NS: OnceLock<Arc<obs::Counter>> = OnceLock::new();
static MODELED_SEND_NS: OnceLock<Arc<obs::Counter>> = OnceLock::new();
static WALL_SLEPT_NS: OnceLock<Arc<obs::Counter>> = OnceLock::new();

/// The cost categories reported in the paper's Figure 15 component
/// breakdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CostCategory {
    /// Loading data from secondary storage (or a peer / the file server).
    Read,
    /// Feature-extraction computation.
    Compute,
    /// Transmitting results to the visualization client.
    Send,
}

impl CostCategory {
    pub const ALL: [CostCategory; 3] = [
        CostCategory::Read,
        CostCategory::Compute,
        CostCategory::Send,
    ];

    pub fn name(self) -> &'static str {
        match self {
            CostCategory::Read => "Read",
            CostCategory::Compute => "Compute",
            CostCategory::Send => "Send",
        }
    }
}

/// Converts modeled time into dilated wall-clock sleeps.
#[derive(Debug)]
pub struct SimClock {
    /// Wall seconds slept per modeled second. `0.0` disables sleeping.
    dilation: f64,
    /// Origin for modeled-elapsed-time queries.
    start: Mutex<Instant>,
}

impl SimClock {
    pub fn new(dilation: f64) -> Arc<SimClock> {
        assert!(dilation >= 0.0 && dilation.is_finite());
        Arc::new(SimClock {
            dilation,
            start: Mutex::new(Instant::now()),
        })
    }

    /// Pure-accounting clock used by tests: charges record but never sleep.
    pub fn instant() -> Arc<SimClock> {
        SimClock::new(0.0)
    }

    pub fn dilation(&self) -> f64 {
        self.dilation
    }

    /// Sleeps for `modeled_secs × dilation` wall seconds.
    ///
    /// Sub-millisecond wall amounts are accumulated in a thread-local
    /// debt and slept in one batch once ≥ 1 ms is owed: OS sleeps
    /// routinely overshoot by tens of microseconds, which would
    /// systematically inflate runs made of thousands of tiny charges.
    pub fn advance(&self, modeled_secs: f64) {
        debug_assert!(modeled_secs >= 0.0, "negative modeled time");
        if self.dilation <= 0.0 || modeled_secs <= 0.0 {
            return;
        }
        thread_local! {
            static SLEEP_DEBT: std::cell::Cell<f64> = const { std::cell::Cell::new(0.0) };
        }
        let wall = modeled_secs * self.dilation;
        SLEEP_DEBT.with(|debt| {
            let owed = debt.get() + wall;
            if owed >= 1e-3 {
                // Self-correcting: measure what the OS actually slept and
                // carry the (possibly negative) remainder, so the total
                // slept time converges to the total charged time even on
                // kernels with coarse timer granularity.
                let t0 = Instant::now();
                std::thread::sleep(Duration::from_secs_f64(owed));
                let actual = t0.elapsed().as_secs_f64();
                obs::counter_cached(&WALL_SLEPT_NS, "costmodel_wall_slept_ns_total")
                    .add((actual * 1e9) as u64);
                debt.set(owed - actual);
            } else {
                debt.set(owed);
            }
        });
    }

    /// Resets the origin used by [`modeled_elapsed`](Self::modeled_elapsed).
    pub fn reset(&self) {
        *self.start.lock().unwrap() = Instant::now();
    }

    /// Wall time since the last reset converted back into modeled seconds.
    /// Only meaningful when `dilation > 0`; returns wall seconds unscaled
    /// otherwise.
    pub fn modeled_elapsed(&self) -> f64 {
        let wall = self.start.lock().unwrap().elapsed().as_secs_f64();
        if self.dilation > 0.0 {
            wall / self.dilation
        } else {
            wall
        }
    }

    /// Converts a wall-clock duration measured elsewhere into modeled
    /// seconds.
    pub fn wall_to_modeled(&self, wall: Duration) -> f64 {
        if self.dilation > 0.0 {
            wall.as_secs_f64() / self.dilation
        } else {
            wall.as_secs_f64()
        }
    }
}

/// A serialized shared channel (e.g. the single link into the
/// visualization client): concurrent transfers queue behind each other.
///
/// Reservation is virtual — callers atomically extend a busy-until
/// horizon and then sleep out their own wait + transfer on their own
/// thread, so no lock is held while sleeping and timer overshoot stays
/// self-corrected by the caller's meter.
#[derive(Debug)]
pub struct SharedChannel {
    origin: Instant,
    /// Nanoseconds (wall) since `origin` until which the channel is busy.
    busy_until_ns: AtomicU64,
}

impl SharedChannel {
    pub fn new() -> Arc<SharedChannel> {
        Arc::new(SharedChannel {
            origin: Instant::now(),
            busy_until_ns: AtomicU64::new(0),
        })
    }

    /// Reserves the channel for `wall_secs` and returns the total wall
    /// delay the caller experiences (queueing + own transfer).
    pub fn reserve(&self, wall_secs: f64) -> f64 {
        let wall_ns = (wall_secs * 1e9) as u64;
        loop {
            let now = self.origin.elapsed().as_nanos() as u64;
            let busy = self.busy_until_ns.load(Ordering::Acquire);
            let start = now.max(busy);
            let end = start + wall_ns;
            if self
                .busy_until_ns
                .compare_exchange(busy, end, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                return (end - now) as f64 * 1e-9;
            }
        }
    }
}

impl Default for SharedChannel {
    fn default() -> Self {
        SharedChannel {
            origin: Instant::now(),
            busy_until_ns: AtomicU64::new(0),
        }
    }
}

/// Per-worker accumulator of charged modeled time, split by category.
/// Thread-safe; charges are recorded in nanoseconds.
#[derive(Debug, Default)]
pub struct Meter {
    read_ns: AtomicU64,
    compute_ns: AtomicU64,
    send_ns: AtomicU64,
    /// Number of charge events per category (Read, Compute, Send).
    counts: [AtomicU64; 3],
}

impl Meter {
    pub fn new() -> Arc<Meter> {
        Arc::new(Meter::default())
    }

    fn cell(&self, cat: CostCategory) -> &AtomicU64 {
        match cat {
            CostCategory::Read => &self.read_ns,
            CostCategory::Compute => &self.compute_ns,
            CostCategory::Send => &self.send_ns,
        }
    }

    /// Records `modeled_secs` against `cat` and performs the dilated sleep.
    pub fn charge(&self, clock: &SimClock, cat: CostCategory, modeled_secs: f64) {
        assert!(
            modeled_secs >= 0.0 && modeled_secs.is_finite(),
            "invalid charge: {modeled_secs}"
        );
        let ns = (modeled_secs * 1e9).round() as u64;
        self.cell(cat).fetch_add(ns, Ordering::Relaxed);
        let idx = match cat {
            CostCategory::Read => 0,
            CostCategory::Compute => 1,
            CostCategory::Send => 2,
        };
        self.counts[idx].fetch_add(1, Ordering::Relaxed);
        match cat {
            CostCategory::Read => {
                obs::counter_cached(&MODELED_READ_NS, "costmodel_read_modeled_ns_total").add(ns)
            }
            CostCategory::Compute => {
                obs::counter_cached(&MODELED_COMPUTE_NS, "costmodel_compute_modeled_ns_total")
                    .add(ns)
            }
            CostCategory::Send => {
                obs::counter_cached(&MODELED_SEND_NS, "costmodel_send_modeled_ns_total").add(ns)
            }
        }
        clock.advance(modeled_secs);
    }

    /// Total modeled seconds charged against a category.
    pub fn total(&self, cat: CostCategory) -> f64 {
        self.cell(cat).load(Ordering::Relaxed) as f64 * 1e-9
    }

    /// Number of charge events recorded against a category.
    pub fn count(&self, cat: CostCategory) -> u64 {
        let idx = match cat {
            CostCategory::Read => 0,
            CostCategory::Compute => 1,
            CostCategory::Send => 2,
        };
        self.counts[idx].load(Ordering::Relaxed)
    }

    /// Snapshot of all categories.
    pub fn breakdown(&self) -> CostBreakdown {
        CostBreakdown {
            read_s: self.total(CostCategory::Read),
            compute_s: self.total(CostCategory::Compute),
            send_s: self.total(CostCategory::Send),
        }
    }

    /// Zeroes all counters.
    pub fn clear(&self) {
        for cat in CostCategory::ALL {
            self.cell(cat).store(0, Ordering::Relaxed);
        }
        for c in &self.counts {
            c.store(0, Ordering::Relaxed);
        }
    }

    /// Adds another meter's totals into this one (used when merging worker
    /// meters into a job-level breakdown).
    pub fn absorb(&self, other: &Meter) {
        for cat in CostCategory::ALL {
            let ns = other.cell(cat).load(Ordering::Relaxed);
            self.cell(cat).fetch_add(ns, Ordering::Relaxed);
        }
        for i in 0..3 {
            self.counts[i].fetch_add(other.counts[i].load(Ordering::Relaxed), Ordering::Relaxed);
        }
    }
}

/// Immutable snapshot of charged modeled time, in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CostBreakdown {
    pub read_s: f64,
    pub compute_s: f64,
    pub send_s: f64,
}

impl CostBreakdown {
    pub fn total(&self) -> f64 {
        self.read_s + self.compute_s + self.send_s
    }

    /// Percentage shares `(compute, read, send)` as in Figure 15; all zero
    /// when nothing was charged.
    pub fn percentages(&self) -> (f64, f64, f64) {
        let t = self.total();
        if t <= 0.0 {
            return (0.0, 0.0, 0.0);
        }
        (
            100.0 * self.compute_s / t,
            100.0 * self.read_s / t,
            100.0 * self.send_s / t,
        )
    }
}

// Modeled per-cell and per-byte costs of the extraction commands,
// expressed against the *nominal* (paper-scale) workload. Tuned so that
// the modeled Engine/Propfan runtimes land in the paper's ranges
// (Figures 6–14): Engine SimpleIso ≈ 35 s with a ~50/49 compute/read
// split (Fig. 15), Engine λ₂ ≈ 65–90 s, Propfan λ₂ in the
// several-hundred-seconds range at 1 worker.

/// Isosurface extraction cost per nominal cell, seconds.
pub const ISO_S_PER_CELL: f64 = 0.75e-6;
/// Extra cost of the view-dependent BSP build/traversal per nominal
/// cell, seconds (the "true cost of streaming" overhead of §7.1).
pub const BSP_OVERHEAD_S_PER_CELL: f64 = 0.45e-6;
/// λ₂ field evaluation + isosurfacing cost per nominal cell, seconds.
pub const LAMBDA2_S_PER_CELL: f64 = 2.2e-6;
/// Cost per pathline integration step, seconds.
pub const PATHLINE_S_PER_STEP: f64 = 2.0e-2;
/// Result transmission cost per *nominal-equivalent* triangle, seconds.
/// Commands scale actual triangle counts by the dataset's nominal/actual
/// cell ratio, so transmission shares track the paper-scale geometry
/// volume, not the scaled-down grids.
pub const SEND_S_PER_TRIANGLE: f64 = 0.04e-6;
/// Fixed per-message transmission latency, seconds.
pub const SEND_LATENCY_S: f64 = 8.0e-3;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instant_clock_does_not_sleep() {
        let clock = SimClock::instant();
        let t0 = Instant::now();
        clock.advance(1000.0);
        assert!(t0.elapsed() < Duration::from_millis(50));
    }

    #[test]
    fn dilated_clock_sleeps_proportionally() {
        let clock = SimClock::new(0.001); // 1 ms per modeled second
        let t0 = Instant::now();
        clock.advance(50.0); // 50 ms wall
        let e = t0.elapsed();
        assert!(e >= Duration::from_millis(45), "slept only {e:?}");
        assert!(e < Duration::from_millis(500), "slept too long: {e:?}");
    }

    #[test]
    fn meter_accumulates_per_category() {
        let clock = SimClock::instant();
        let m = Meter::new();
        m.charge(&clock, CostCategory::Read, 2.0);
        m.charge(&clock, CostCategory::Read, 3.0);
        m.charge(&clock, CostCategory::Compute, 1.5);
        assert!((m.total(CostCategory::Read) - 5.0).abs() < 1e-9);
        assert!((m.total(CostCategory::Compute) - 1.5).abs() < 1e-9);
        assert_eq!(m.total(CostCategory::Send), 0.0);
        assert_eq!(m.count(CostCategory::Read), 2);
        assert_eq!(m.count(CostCategory::Compute), 1);
    }

    #[test]
    fn breakdown_percentages_sum_to_100() {
        let clock = SimClock::instant();
        let m = Meter::new();
        m.charge(&clock, CostCategory::Read, 49.0);
        m.charge(&clock, CostCategory::Compute, 50.0);
        m.charge(&clock, CostCategory::Send, 1.0);
        let (c, r, s) = m.breakdown().percentages();
        assert!((c + r + s - 100.0).abs() < 1e-9);
        assert!((c - 50.0).abs() < 1e-6);
        assert!((r - 49.0).abs() < 1e-6);
    }

    #[test]
    fn empty_breakdown_is_all_zero() {
        let b = CostBreakdown::default();
        assert_eq!(b.percentages(), (0.0, 0.0, 0.0));
        assert_eq!(b.total(), 0.0);
    }

    #[test]
    fn meter_absorb_merges() {
        let clock = SimClock::instant();
        let a = Meter::new();
        let b = Meter::new();
        a.charge(&clock, CostCategory::Send, 1.0);
        b.charge(&clock, CostCategory::Send, 2.5);
        a.absorb(&b);
        assert!((a.total(CostCategory::Send) - 3.5).abs() < 1e-9);
        assert_eq!(a.count(CostCategory::Send), 2);
    }

    #[test]
    fn meter_clear_resets() {
        let clock = SimClock::instant();
        let m = Meter::new();
        m.charge(&clock, CostCategory::Compute, 4.0);
        m.clear();
        assert_eq!(m.breakdown().total(), 0.0);
        assert_eq!(m.count(CostCategory::Compute), 0);
    }

    #[test]
    fn modeled_elapsed_uses_dilation() {
        let clock = SimClock::new(0.001);
        clock.reset();
        clock.advance(100.0); // 100 ms wall
        let m = clock.modeled_elapsed();
        assert!(m >= 90.0, "modeled elapsed {m}");
        // Generous upper bound: CI machines can oversleep.
        assert!(m < 5000.0);
    }

    #[test]
    fn shared_channel_serializes_reservations() {
        let ch = SharedChannel::new();
        // Three immediate reservations of 10 ms each: delays stack.
        let d1 = ch.reserve(0.010);
        let d2 = ch.reserve(0.010);
        let d3 = ch.reserve(0.010);
        assert!((0.010..0.011).contains(&d1), "first: {d1}");
        assert!((0.019..0.022).contains(&d2), "second queues: {d2}");
        assert!((0.029..0.033).contains(&d3), "third queues: {d3}");
    }

    #[test]
    fn shared_channel_idles_between_bursts() {
        let ch = SharedChannel::new();
        let _ = ch.reserve(0.002);
        std::thread::sleep(Duration::from_millis(10));
        // The earlier reservation expired: no queueing.
        let d = ch.reserve(0.002);
        assert!(d < 0.004, "channel should be idle again: {d}");
    }

    #[test]
    fn shared_channel_concurrent_total_is_serial() {
        let ch = SharedChannel::new();
        let mut handles = Vec::new();
        for _ in 0..8 {
            let ch = ch.clone();
            handles.push(std::thread::spawn(move || ch.reserve(0.005)));
        }
        let delays: Vec<f64> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        // The slowest reservation sees (almost) the full serialized sum.
        let max = delays.iter().cloned().fold(0.0f64, f64::max);
        assert!(max >= 8.0 * 0.005 - 0.005, "max delay {max}");
    }

    #[test]
    #[should_panic]
    fn negative_charge_panics() {
        let clock = SimClock::instant();
        let m = Meter::new();
        m.charge(&clock, CostCategory::Read, -1.0);
    }
}
