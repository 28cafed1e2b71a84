//! Deterministic fault injection for layer 1.
//!
//! [`FaultyTransport`] decorates any [`Transport`] and perturbs outbound
//! traffic according to a seeded, replayable [`FaultPlan`]: per-link
//! drop/delay/duplicate/reorder probabilities, payload truncation and
//! bit-flip corruption, and whole-rank kill after a chosen message
//! count. Every decision is a pure function of
//! `(seed, from, to, per-link message index)` — independent of thread
//! interleaving — so a chaos run can be replayed exactly from its seed.
//!
//! Faults are applied on the *send* side. Receive paths pass through
//! untouched, which keeps the decorator free of extra buffering except
//! for the one-slot-per-destination reorder hold-back. Two escape
//! hatches keep the in-process harness usable:
//!
//! * [`tags::SHUTDOWN`] frames are never faulted — a dropped shutdown
//!   would leak worker threads in tests, and real deployments tear down
//!   out of band anyway.
//! * A killed rank keeps running but loses all outbound traffic from
//!   its kill point on, which is indistinguishable from a crash to its
//!   peers while letting the thread join at teardown.
//!
//! Injection counts are mirrored to `vira-obs`
//! (`fault_injected_total` and per-kind counters) and to the
//! plan-local [`FaultStats`] handle returned by the runtime.

use bytes::{Bytes, BytesMut};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;
use vira_obs as obs;

use crate::transport::{tags, CommError, Message, Rank, Tag, Transport};

static INJECTED: OnceLock<Arc<obs::Counter>> = OnceLock::new();
static DROPPED: OnceLock<Arc<obs::Counter>> = OnceLock::new();
static DUPLICATED: OnceLock<Arc<obs::Counter>> = OnceLock::new();
static DELAYED: OnceLock<Arc<obs::Counter>> = OnceLock::new();
static REORDERED: OnceLock<Arc<obs::Counter>> = OnceLock::new();
static TRUNCATED: OnceLock<Arc<obs::Counter>> = OnceLock::new();
static CORRUPTED: OnceLock<Arc<obs::Counter>> = OnceLock::new();
static KILLED: OnceLock<Arc<obs::Counter>> = OnceLock::new();

// ---------------------------------------------------------------------------
// Plan
// ---------------------------------------------------------------------------

/// Fault probabilities for one directed link. All probabilities are in
/// `[0, 1]`; the default is a perfect link.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LinkFaults {
    /// Probability a message is silently dropped.
    pub drop_p: f64,
    /// Probability a message is delivered twice.
    pub dup_p: f64,
    /// Probability a message is delayed before delivery.
    pub delay_p: f64,
    /// Upper bound on an injected delay (the actual delay is a
    /// deterministic value in `[0, delay_max)`).
    pub delay_max: Duration,
    /// Probability a message is held back and delivered after the next
    /// message on the same link (adjacent swap).
    pub reorder_p: f64,
    /// Probability the payload is truncated to a shorter prefix.
    pub truncate_p: f64,
    /// Probability a single bit of the payload is flipped.
    pub corrupt_p: f64,
}

impl LinkFaults {
    pub fn is_perfect(&self) -> bool {
        self.drop_p == 0.0
            && self.dup_p == 0.0
            && self.delay_p == 0.0
            && self.reorder_p == 0.0
            && self.truncate_p == 0.0
            && self.corrupt_p == 0.0
    }
}

/// A seeded, replayable fault schedule for a whole world.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Root seed; every fault decision derives from it.
    pub seed: u64,
    /// Faults applied to every link without an explicit override.
    pub default: LinkFaults,
    /// Per-link `(from, to)` overrides.
    pub links: Vec<(Rank, Rank, LinkFaults)>,
    /// `(rank, after)` — rank loses all outbound traffic once it has
    /// sent `after` messages.
    pub kills: Vec<(Rank, u64)>,
}

impl FaultPlan {
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..Default::default()
        }
    }

    /// Sets the fault profile applied to every link by default.
    pub fn with_default(mut self, faults: LinkFaults) -> Self {
        self.default = faults;
        self
    }

    /// Overrides the fault profile for one directed link.
    pub fn with_link(mut self, from: Rank, to: Rank, faults: LinkFaults) -> Self {
        self.links.push((from, to, faults));
        self
    }

    /// Kills `rank` (severs its outbound traffic) once it has sent
    /// `after` messages.
    pub fn with_kill(mut self, rank: Rank, after: u64) -> Self {
        self.kills.push((rank, after));
        self
    }

    /// The fault profile in effect on the `from → to` link.
    pub fn faults_for(&self, from: Rank, to: Rank) -> &LinkFaults {
        self.links
            .iter()
            .find(|(f, t, _)| *f == from && *t == to)
            .map(|(_, _, lf)| lf)
            .unwrap_or(&self.default)
    }

    /// Kill threshold for `rank`, if any.
    pub fn kill_for(&self, rank: Rank) -> Option<u64> {
        self.kills.iter().find(|(r, _)| *r == rank).map(|(_, n)| *n)
    }

    /// True when the plan injects nothing.
    pub fn is_inert(&self) -> bool {
        self.default.is_perfect()
            && self.links.iter().all(|(_, _, lf)| lf.is_perfect())
            && self.kills.is_empty()
    }

    /// The deterministic fault decision for the `index`-th message on
    /// the `from → to` link. Pure: same plan + same arguments ⇒ same
    /// decision, regardless of thread interleaving.
    pub fn decision(&self, from: Rank, to: Rank, index: u64) -> FaultDecision {
        decide(self.seed, self.faults_for(from, to), from, to, index)
    }

    /// Parses the dependency-free plan format used by `vira run
    /// --fault-plan <file>`:
    ///
    /// ```text
    /// # comment
    /// seed 42
    /// all drop 0.1 dup 0.02 delay 0.2 delay_max_ms 5 reorder 0.1 truncate 0.02 corrupt 0.02
    /// link 1 2 drop 0.5
    /// kill 2 after 10
    /// ```
    pub fn parse_str(text: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let toks: Vec<&str> = line.split_whitespace().collect();
            let err = |what: &str| format!("fault plan line {}: {what}", lineno + 1);
            match toks[0] {
                "seed" => {
                    let v = toks.get(1).ok_or_else(|| err("seed needs a value"))?;
                    plan.seed = v.parse().map_err(|_| err("seed must be a u64"))?;
                }
                "all" => {
                    plan.default = parse_link_faults(&toks[1..]).map_err(|e| err(&e))?;
                }
                "link" => {
                    if toks.len() < 3 {
                        return Err(err("link needs <from> <to>"));
                    }
                    let from: Rank = toks[1]
                        .parse()
                        .map_err(|_| err("link <from> must be a rank"))?;
                    let to: Rank = toks[2]
                        .parse()
                        .map_err(|_| err("link <to> must be a rank"))?;
                    let lf = parse_link_faults(&toks[3..]).map_err(|e| err(&e))?;
                    plan.links.push((from, to, lf));
                }
                "kill" => {
                    if toks.len() != 4 || toks[2] != "after" {
                        return Err(err("kill syntax: kill <rank> after <n>"));
                    }
                    let rank: Rank = toks[1]
                        .parse()
                        .map_err(|_| err("kill <rank> must be a rank"))?;
                    let after: u64 = toks[3].parse().map_err(|_| err("kill <n> must be a u64"))?;
                    plan.kills.push((rank, after));
                }
                other => return Err(err(&format!("unknown directive '{other}'"))),
            }
        }
        Ok(plan)
    }
}

fn parse_link_faults(toks: &[&str]) -> Result<LinkFaults, String> {
    let mut lf = LinkFaults::default();
    let mut it = toks.iter();
    while let Some(key) = it.next() {
        let val = it.next().ok_or_else(|| format!("'{key}' needs a value"))?;
        let p = || -> Result<f64, String> {
            let v: f64 = val
                .parse()
                .map_err(|_| format!("'{key}' value '{val}' is not a number"))?;
            if !(0.0..=1.0).contains(&v) {
                return Err(format!("'{key}' must be in [0, 1], got {v}"));
            }
            Ok(v)
        };
        match *key {
            "drop" => lf.drop_p = p()?,
            "dup" => lf.dup_p = p()?,
            "delay" => lf.delay_p = p()?,
            "delay_max_ms" => {
                let ms: u64 = val
                    .parse()
                    .map_err(|_| format!("'delay_max_ms' value '{val}' is not a u64"))?;
                lf.delay_max = Duration::from_millis(ms);
            }
            "reorder" => lf.reorder_p = p()?,
            "truncate" => lf.truncate_p = p()?,
            "corrupt" => lf.corrupt_p = p()?,
            other => return Err(format!("unknown fault key '{other}'")),
        }
    }
    Ok(lf)
}

// ---------------------------------------------------------------------------
// Deterministic decision engine (pure std, replayable)
// ---------------------------------------------------------------------------

/// The faults chosen for one message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultDecision {
    pub drop: bool,
    pub duplicate: bool,
    /// Injected delay in microseconds (0 = none).
    pub delay_us: u64,
    pub reorder: bool,
    pub truncate: bool,
    pub corrupt: bool,
    /// Extra deterministic randomness driving position choices
    /// (truncation point, flipped bit).
    pub entropy: u64,
}

impl FaultDecision {
    pub fn is_clean(&self) -> bool {
        *self == FaultDecision::default()
    }
}

/// Applies truncation / corruption from a [`FaultDecision`] to a
/// payload copy. Shared between [`FaultyTransport`] and the socket
/// hub's worker↔worker forward path, so both injection sites mangle
/// payloads identically for the same decision. Corruption flips one
/// uniformly chosen bit of the whole message.
pub fn apply_payload_faults(d: &FaultDecision, payload: &Bytes) -> Bytes {
    let mut buf: BytesMut = BytesMut::from(&payload[..]);
    if d.truncate && !buf.is_empty() {
        let keep = (d.entropy % buf.len() as u64) as usize;
        buf.truncate(keep);
    }
    if d.corrupt && !buf.is_empty() {
        let bit = splitmix64(d.entropy) % (buf.len() as u64 * 8);
        buf[(bit / 8) as usize] ^= 1 << (bit % 8);
    }
    buf.freeze()
}

/// One kind of injected fault, for shared stats recording.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    Drop,
    Duplicate,
    Delay,
    Reorder,
    Truncate,
    Corrupt,
    Kill,
}

/// Records one injected fault into `stats` and the obs registry. Both
/// injection sites — [`FaultyTransport`] on the send side and the
/// socket hub on its internal forward path — count through here, so a
/// chaos run's totals add up no matter where a frame was perturbed.
pub fn record_fault(stats: &FaultStats, kind: FaultKind) {
    stats.injected.fetch_add(1, Ordering::Relaxed);
    obs::counter_cached(&INJECTED, "fault_injected_total").inc();
    let (field, cell, name): (&AtomicU64, _, _) = match kind {
        FaultKind::Drop => (&stats.dropped, &DROPPED, "fault_drop_total"),
        FaultKind::Duplicate => (&stats.duplicated, &DUPLICATED, "fault_dup_total"),
        FaultKind::Delay => (&stats.delayed, &DELAYED, "fault_delay_total"),
        FaultKind::Reorder => (&stats.reordered, &REORDERED, "fault_reorder_total"),
        FaultKind::Truncate => (&stats.truncated, &TRUNCATED, "fault_truncate_total"),
        FaultKind::Corrupt => (&stats.corrupted, &CORRUPTED, "fault_corrupt_total"),
        FaultKind::Kill => (&stats.killed_ranks, &KILLED, "fault_rank_killed_total"),
    };
    field.fetch_add(1, Ordering::Relaxed);
    obs::counter_cached(cell, name).inc();
}

/// SplitMix64 — tiny, high-quality 64-bit mixer (public domain
/// construction; see Steele et al., "Fast splittable pseudorandom
/// number generators").
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Independent decision stream per (link, message, fault kind).
fn stream(seed: u64, from: Rank, to: Rank, index: u64, kind: u64) -> u64 {
    let mut h = splitmix64(seed ^ kind.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    h = splitmix64(h ^ (from as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9));
    h = splitmix64(h ^ (to as u64).wrapping_mul(0x94D0_49BB_1331_11EB));
    splitmix64(h ^ index)
}

/// Maps a hash to a uniform value in `[0, 1)`.
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

fn decide(seed: u64, lf: &LinkFaults, from: Rank, to: Rank, index: u64) -> FaultDecision {
    let hit = |kind: u64, p: f64| p > 0.0 && unit(stream(seed, from, to, index, kind)) < p;
    let mut d = FaultDecision {
        drop: hit(1, lf.drop_p),
        duplicate: hit(2, lf.dup_p),
        delay_us: 0,
        reorder: hit(4, lf.reorder_p),
        truncate: hit(5, lf.truncate_p),
        corrupt: hit(6, lf.corrupt_p),
        entropy: stream(seed, from, to, index, 7),
    };
    if hit(3, lf.delay_p) && !lf.delay_max.is_zero() {
        let max_us = lf.delay_max.as_micros().max(1) as u64;
        d.delay_us = stream(seed, from, to, index, 8) % max_us;
    }
    d
}

// ---------------------------------------------------------------------------
// Stats
// ---------------------------------------------------------------------------

/// Injection counters for one chaos run, shared across all wrapped
/// endpoints of a world.
#[derive(Default)]
pub struct FaultStats {
    pub injected: AtomicU64,
    pub dropped: AtomicU64,
    pub duplicated: AtomicU64,
    pub delayed: AtomicU64,
    pub reordered: AtomicU64,
    pub truncated: AtomicU64,
    pub corrupted: AtomicU64,
    pub killed_ranks: AtomicU64,
}

/// Plain-value view of [`FaultStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultStatsSnapshot {
    pub injected: u64,
    pub dropped: u64,
    pub duplicated: u64,
    pub delayed: u64,
    pub reordered: u64,
    pub truncated: u64,
    pub corrupted: u64,
    pub killed_ranks: u64,
}

impl FaultStats {
    pub fn snapshot(&self) -> FaultStatsSnapshot {
        FaultStatsSnapshot {
            injected: self.injected.load(Ordering::Relaxed),
            dropped: self.dropped.load(Ordering::Relaxed),
            duplicated: self.duplicated.load(Ordering::Relaxed),
            delayed: self.delayed.load(Ordering::Relaxed),
            reordered: self.reordered.load(Ordering::Relaxed),
            truncated: self.truncated.load(Ordering::Relaxed),
            corrupted: self.corrupted.load(Ordering::Relaxed),
            killed_ranks: self.killed_ranks.load(Ordering::Relaxed),
        }
    }
}

// ---------------------------------------------------------------------------
// Transport decorator
// ---------------------------------------------------------------------------

/// A [`Transport`] decorator injecting faults from a [`FaultPlan`].
pub struct FaultyTransport<T: Transport> {
    inner: T,
    plan: Arc<FaultPlan>,
    stats: Arc<FaultStats>,
    /// Per-destination message index on the `self.rank() → to` link.
    link_index: Vec<AtomicU64>,
    /// Total outbound messages (drives the kill threshold).
    total_sent: AtomicU64,
    killed: AtomicBool,
    /// One-slot reorder hold-back per destination.
    held: Mutex<HashMap<Rank, (Tag, Bytes)>>,
}

impl<T: Transport> FaultyTransport<T> {
    pub fn new(inner: T, plan: Arc<FaultPlan>, stats: Arc<FaultStats>) -> Self {
        let n = inner.world_size();
        FaultyTransport {
            inner,
            plan,
            stats,
            link_index: (0..n).map(|_| AtomicU64::new(0)).collect(),
            total_sent: AtomicU64::new(0),
            killed: AtomicBool::new(false),
            held: Mutex::new(HashMap::new()),
        }
    }

    pub fn stats(&self) -> Arc<FaultStats> {
        Arc::clone(&self.stats)
    }

    /// True once the kill threshold has severed this rank's sends.
    pub fn is_killed(&self) -> bool {
        self.killed.load(Ordering::Relaxed)
    }

    /// Takes any held-back message for `to` (to be flushed after the
    /// current one, completing the adjacent swap).
    fn take_held(&self, to: Rank) -> Option<(Tag, Bytes)> {
        self.held
            .lock()
            .expect("reorder buffer poisoned")
            .remove(&to)
    }
}

impl<T: Transport> Transport for FaultyTransport<T> {
    fn rank(&self) -> Rank {
        self.inner.rank()
    }

    fn world_size(&self) -> usize {
        self.inner.world_size()
    }

    fn send(&self, to: Rank, tag: Tag, payload: Bytes) -> Result<(), CommError> {
        // Control-plane teardown is exempt (see module docs).
        if tag == tags::SHUTDOWN {
            return self.inner.send(to, tag, payload);
        }

        let total = self.total_sent.fetch_add(1, Ordering::Relaxed);
        if let Some(after) = self.plan.kill_for(self.rank()) {
            if total >= after {
                if !self.killed.swap(true, Ordering::Relaxed) {
                    record_fault(&self.stats, FaultKind::Kill);
                }
                return Ok(()); // mute: the message is silently lost
            }
        }

        let lf = *self.plan.faults_for(self.rank(), to);
        if lf.is_perfect() {
            return self.inner.send(to, tag, payload);
        }

        let index = self
            .link_index
            .get(to)
            .map(|c| c.fetch_add(1, Ordering::Relaxed))
            .unwrap_or(0);
        let d = self.plan.decision(self.rank(), to, index);
        let held = self.take_held(to);

        if d.drop {
            record_fault(&self.stats, FaultKind::Drop);
            // The swap partner still has to go out or it would turn a
            // reorder into an unplanned drop.
            if let Some((htag, hpay)) = held {
                self.inner.send(to, htag, hpay)?;
            }
            return Ok(());
        }

        let mut out = payload;
        if d.truncate {
            record_fault(&self.stats, FaultKind::Truncate);
        }
        if d.corrupt {
            record_fault(&self.stats, FaultKind::Corrupt);
        }
        if d.truncate || d.corrupt {
            out = apply_payload_faults(&d, &out);
        }
        if d.delay_us > 0 {
            record_fault(&self.stats, FaultKind::Delay);
            std::thread::sleep(Duration::from_micros(d.delay_us));
        }

        if d.reorder && held.is_none() {
            record_fault(&self.stats, FaultKind::Reorder);
            self.held
                .lock()
                .expect("reorder buffer poisoned")
                .insert(to, (tag, out));
            return Ok(());
        }

        self.inner.send(to, tag, out.clone())?;
        if d.duplicate {
            record_fault(&self.stats, FaultKind::Duplicate);
            self.inner.send(to, tag, out)?;
        }
        if let Some((htag, hpay)) = held {
            self.inner.send(to, htag, hpay)?;
        }
        Ok(())
    }

    fn recv(&self) -> Result<Message, CommError> {
        self.inner.recv()
    }

    fn try_recv(&self) -> Result<Option<Message>, CommError> {
        self.inner.try_recv()
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Message, CommError> {
        self.inner.recv_timeout(timeout)
    }
}

impl<T: Transport> Drop for FaultyTransport<T> {
    fn drop(&mut self) {
        // Flush stranded reorder hold-backs; best effort, peers may be
        // gone already.
        let held: Vec<(Rank, (Tag, Bytes))> = self
            .held
            .lock()
            .map(|mut h| h.drain().collect())
            .unwrap_or_default();
        for (to, (tag, payload)) in held {
            let _ = self.inner.send(to, tag, payload);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{LocalWorld, Transport};

    fn world2(
        plan: FaultPlan,
    ) -> (
        FaultyTransport<crate::LocalEndpoint>,
        crate::LocalEndpoint,
        Arc<FaultStats>,
    ) {
        let mut world = LocalWorld::create(2);
        let b = world.pop().unwrap();
        let a = world.pop().unwrap();
        let stats = Arc::new(FaultStats::default());
        (
            FaultyTransport::new(a, Arc::new(plan), Arc::clone(&stats)),
            b,
            stats,
        )
    }

    fn all(p: f64) -> LinkFaults {
        LinkFaults {
            drop_p: p,
            ..Default::default()
        }
    }

    #[test]
    fn decisions_are_replayable() {
        let plan = FaultPlan::new(42).with_default(LinkFaults {
            drop_p: 0.3,
            dup_p: 0.2,
            delay_p: 0.4,
            delay_max: Duration::from_millis(2),
            reorder_p: 0.3,
            truncate_p: 0.1,
            corrupt_p: 0.1,
        });
        for i in 0..256 {
            assert_eq!(plan.decision(0, 1, i), plan.decision(0, 1, i));
        }
    }

    #[test]
    fn different_seeds_give_different_schedules() {
        let a = FaultPlan::new(1).with_default(all(0.5));
        let b = FaultPlan::new(2).with_default(all(0.5));
        let sa: Vec<bool> = (0..512).map(|i| a.decision(0, 1, i).drop).collect();
        let sb: Vec<bool> = (0..512).map(|i| b.decision(0, 1, i).drop).collect();
        assert_ne!(sa, sb);
    }

    #[test]
    fn drop_fault_loses_the_message() {
        let (a, b, stats) = world2(FaultPlan::new(7).with_default(all(1.0)));
        a.send(1, 10, Bytes::from_static(b"x")).unwrap();
        assert_eq!(b.try_recv().unwrap(), None);
        assert_eq!(stats.snapshot().dropped, 1);
        assert_eq!(stats.snapshot().injected, 1);
    }

    #[test]
    fn duplicate_fault_delivers_twice() {
        let plan = FaultPlan::new(7).with_default(LinkFaults {
            dup_p: 1.0,
            ..Default::default()
        });
        let (a, b, stats) = world2(plan);
        a.send(1, 10, Bytes::from_static(b"x")).unwrap();
        assert_eq!(&b.recv().unwrap().payload[..], b"x");
        assert_eq!(&b.recv().unwrap().payload[..], b"x");
        assert_eq!(stats.snapshot().duplicated, 1);
    }

    #[test]
    fn truncate_fault_shortens_the_payload() {
        let plan = FaultPlan::new(9).with_default(LinkFaults {
            truncate_p: 1.0,
            ..Default::default()
        });
        let (a, b, stats) = world2(plan);
        a.send(1, 10, Bytes::from_static(b"0123456789")).unwrap();
        let m = b.recv().unwrap();
        assert!(m.payload.len() < 10);
        assert_eq!(stats.snapshot().truncated, 1);
    }

    #[test]
    fn corrupt_fault_flips_one_bit() {
        let plan = FaultPlan::new(9).with_default(LinkFaults {
            corrupt_p: 1.0,
            ..Default::default()
        });
        let (a, b, stats) = world2(plan);
        let original = Bytes::from_static(b"payload-bytes");
        a.send(1, 10, original.clone()).unwrap();
        let m = b.recv().unwrap();
        assert_eq!(m.payload.len(), original.len());
        let flipped: u32 = original
            .iter()
            .zip(m.payload.iter())
            .map(|(x, y)| (x ^ y).count_ones())
            .sum();
        assert_eq!(flipped, 1);
        assert_eq!(stats.snapshot().corrupted, 1);
    }

    #[test]
    fn reorder_fault_swaps_adjacent_messages() {
        let plan = FaultPlan::new(3).with_default(LinkFaults {
            reorder_p: 1.0,
            ..Default::default()
        });
        let (a, b, stats) = world2(plan);
        for byte in [b"a", b"b", b"c", b"d"] {
            a.send(1, 10, Bytes::copy_from_slice(byte)).unwrap();
        }
        let got: Vec<u8> = (0..4).map(|_| b.recv().unwrap().payload[0]).collect();
        // With reorder_p = 1 every odd message flushes the held even
        // one: a is held, b sends then flushes a, ...
        assert_eq!(got, vec![b'b', b'a', b'd', b'c']);
        assert!(stats.snapshot().reordered >= 2);
    }

    #[test]
    fn stranded_reorder_holdback_flushes_on_drop() {
        let plan = FaultPlan::new(3).with_default(LinkFaults {
            reorder_p: 1.0,
            ..Default::default()
        });
        let (a, b, _) = world2(plan);
        a.send(1, 10, Bytes::from_static(b"z")).unwrap();
        assert_eq!(b.try_recv().unwrap(), None, "held back");
        drop(a);
        assert_eq!(&b.recv().unwrap().payload[..], b"z");
    }

    #[test]
    fn kill_threshold_severs_outbound_traffic() {
        let plan = FaultPlan::new(5).with_kill(0, 2);
        let (a, b, stats) = world2(plan);
        for i in 0..5u8 {
            a.send(1, 10, Bytes::copy_from_slice(&[i])).unwrap();
        }
        assert_eq!(b.recv().unwrap().payload[0], 0);
        assert_eq!(b.recv().unwrap().payload[0], 1);
        assert_eq!(b.try_recv().unwrap(), None);
        assert!(a.is_killed());
        assert_eq!(stats.snapshot().killed_ranks, 1);
    }

    #[test]
    fn shutdown_frames_are_exempt() {
        let plan = FaultPlan::new(5).with_default(all(1.0)).with_kill(0, 0);
        let (a, b, _) = world2(plan);
        a.send(1, tags::SHUTDOWN, Bytes::from_static(b"bye"))
            .unwrap();
        let m = b.recv().unwrap();
        assert_eq!(m.tag, tags::SHUTDOWN);
    }

    #[test]
    fn perfect_links_pass_through_untouched() {
        let (a, b, stats) = world2(FaultPlan::new(1));
        a.send(1, 10, Bytes::from_static(b"clean")).unwrap();
        assert_eq!(&b.recv().unwrap().payload[..], b"clean");
        assert_eq!(stats.snapshot(), FaultStatsSnapshot::default());
    }

    #[test]
    fn parse_str_accepts_the_documented_format() {
        let text = "\
# chaos profile
seed 42
all drop 0.1 dup 0.02 delay 0.2 delay_max_ms 5 reorder 0.1 truncate 0.02 corrupt 0.02
link 1 2 drop 0.5
kill 2 after 10
";
        let plan = FaultPlan::parse_str(text).unwrap();
        assert_eq!(plan.seed, 42);
        assert_eq!(plan.default.drop_p, 0.1);
        assert_eq!(plan.default.delay_max, Duration::from_millis(5));
        assert_eq!(plan.links.len(), 1);
        assert_eq!(plan.faults_for(1, 2).drop_p, 0.5);
        assert_eq!(plan.faults_for(0, 1).drop_p, 0.1);
        assert_eq!(plan.kill_for(2), Some(10));
        assert_eq!(plan.kill_for(1), None);
    }

    #[test]
    fn parse_str_rejects_bad_input() {
        assert!(FaultPlan::parse_str("seed notanumber").is_err());
        assert!(FaultPlan::parse_str("all drop 1.5").is_err());
        assert!(FaultPlan::parse_str("warp 9").is_err());
        assert!(FaultPlan::parse_str("kill 2 within 10").is_err());
        assert!(FaultPlan::parse_str("all drop").is_err());
    }

    #[test]
    fn link_overrides_are_directional() {
        let plan = FaultPlan::new(1).with_link(0, 1, all(1.0));
        assert!(plan.faults_for(1, 0).is_perfect());
        assert!(!plan.faults_for(0, 1).is_perfect());
    }
}
