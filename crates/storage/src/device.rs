//! Storage devices: data sources wrapped with a modeled cost profile.
//!
//! A [`Device`] couples a [`DataSource`] with latency/bandwidth numbers so
//! that every read charges a modeled duration against the caller's
//! [`Meter`]. Profiles for the three tiers the paper's loading strategies
//! distinguish (network file server, node-local disk, inter-node transfer)
//! are provided as constructors.

use crate::costmodel::{CostCategory, Meter, SimClock};
use crate::source::{DataSource, StorageError};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use vira_grid::block::BlockStepId;
use vira_grid::field::BlockData;

/// Modeled characteristics of one storage tier.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceProfile {
    pub name: String,
    /// Fixed per-request latency, seconds.
    pub latency_s: f64,
    /// Sustained transfer bandwidth, bytes per second.
    pub bandwidth_bps: f64,
    /// If true, concurrent transfers are serialized (a single shared
    /// channel, e.g. one network link to the file server); otherwise
    /// transfers overlap freely (striped / independent paths).
    pub serialize_transfers: bool,
    /// Per-request probability-free reliability knob: devices report
    /// `Unavailable` after `fail_after` successful reads when set. Used by
    /// failure-injection tests of the adaptive strategy selection.
    pub fail_after: Option<u64>,
}

impl DeviceProfile {
    /// Central network file server: the slow shared tier the DMS tries to
    /// avoid touching twice (≈ 70 MB/s sustained, 1.5 ms per request —
    /// tuned so the Engine dataset loads in the paper's ~18 s).
    pub fn file_server() -> DeviceProfile {
        DeviceProfile {
            name: "fileserver".into(),
            latency_s: 1.5e-3,
            bandwidth_bps: 70.0 * 1024.0 * 1024.0,
            serialize_transfers: false,
            fail_after: None,
        }
    }

    /// Node-local disk (secondary cache tier; ≈ 80 MB/s, 2 ms).
    pub fn local_disk() -> DeviceProfile {
        DeviceProfile {
            name: "localdisk".into(),
            latency_s: 2e-3,
            bandwidth_bps: 80.0 * 1024.0 * 1024.0,
            serialize_transfers: false,
            fail_after: None,
        }
    }

    /// Inter-node interconnect for peer cache transfers (≈ 200 MB/s,
    /// 0.2 ms).
    pub fn interconnect() -> DeviceProfile {
        DeviceProfile {
            name: "interconnect".into(),
            latency_s: 2e-4,
            bandwidth_bps: 200.0 * 1024.0 * 1024.0,
            serialize_transfers: false,
            fail_after: None,
        }
    }

    /// Modeled duration of transferring `bytes` through this device.
    pub fn transfer_time(&self, bytes: u64) -> f64 {
        self.latency_s + bytes as f64 / self.bandwidth_bps
    }
}

/// A data source behind a modeled storage tier.
pub struct Device {
    profile: DeviceProfile,
    source: Arc<dyn DataSource>,
    clock: Arc<SimClock>,
    /// Serialization lock for `serialize_transfers` profiles.
    channel: Mutex<()>,
    reads: AtomicU64,
}

impl Device {
    pub fn new(profile: DeviceProfile, source: Arc<dyn DataSource>, clock: Arc<SimClock>) -> Self {
        Device {
            profile,
            source,
            clock,
            channel: Mutex::new(()),
            reads: AtomicU64::new(0),
        }
    }

    pub fn profile(&self) -> &DeviceProfile {
        &self.profile
    }

    pub fn source(&self) -> &Arc<dyn DataSource> {
        &self.source
    }

    /// Number of reads served so far.
    pub fn reads_served(&self) -> u64 {
        self.reads.load(Ordering::Relaxed)
    }

    /// Modeled cost of reading one item (nominal bytes of the dataset).
    pub fn read_cost(&self) -> f64 {
        self.profile
            .transfer_time(self.source.spec().nominal_item_bytes())
    }

    /// Reads one item, charging the modeled transfer time to `meter` as
    /// [`CostCategory::Read`].
    pub fn read(&self, id: BlockStepId, meter: &Meter) -> Result<Arc<BlockData>, StorageError> {
        if let Some(limit) = self.profile.fail_after {
            if self.reads.load(Ordering::Relaxed) >= limit {
                return Err(StorageError::Unavailable(format!(
                    "{} failed after {limit} reads",
                    self.profile.name
                )));
            }
        }
        let modeled = self.read_cost();
        if self.profile.serialize_transfers {
            let _guard = self.channel.lock().unwrap();
            meter.charge(&self.clock, CostCategory::Read, modeled);
        } else {
            meter.charge(&self.clock, CostCategory::Read, modeled);
        }
        let item = self.source.fetch(id)?;
        self.reads.fetch_add(1, Ordering::Relaxed);
        Ok(item)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SynthSource;
    use vira_grid::synth::test_cube;

    fn device(profile: DeviceProfile) -> Device {
        let src = Arc::new(SynthSource::new(Arc::new(test_cube(4, 3))));
        Device::new(profile, src, SimClock::instant())
    }

    #[test]
    fn transfer_time_includes_latency_and_bandwidth() {
        let p = DeviceProfile {
            name: "t".into(),
            latency_s: 0.5,
            bandwidth_bps: 100.0,
            serialize_transfers: false,
            fail_after: None,
        };
        assert!((p.transfer_time(200) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn read_charges_meter() {
        let d = device(DeviceProfile::file_server());
        let m = Meter::new();
        let item = d.read(BlockStepId::new(0, 0), &m).unwrap();
        assert_eq!(item.id, BlockStepId::new(0, 0));
        let expected = d.read_cost();
        assert!((m.total(CostCategory::Read) - expected).abs() < 1e-9);
        assert_eq!(d.reads_served(), 1);
    }

    #[test]
    fn tier_ordering_is_sane() {
        // Interconnect < local disk < file server for one item.
        let src: Arc<dyn DataSource> = Arc::new(SynthSource::new(Arc::new(test_cube(4, 3))));
        let clock = SimClock::instant();
        let fs = Device::new(DeviceProfile::file_server(), src.clone(), clock.clone());
        let ld = Device::new(DeviceProfile::local_disk(), src.clone(), clock.clone());
        let ic = Device::new(DeviceProfile::interconnect(), src, clock);
        assert!(ic.read_cost() < ld.read_cost());
        assert!(ld.read_cost() < fs.read_cost());
    }

    #[test]
    fn failure_injection_kicks_in() {
        let mut p = DeviceProfile::local_disk();
        p.fail_after = Some(2);
        let d = device(p);
        let m = Meter::new();
        assert!(d.read(BlockStepId::new(0, 0), &m).is_ok());
        assert!(d.read(BlockStepId::new(0, 1), &m).is_ok());
        assert!(matches!(
            d.read(BlockStepId::new(0, 2), &m),
            Err(StorageError::Unavailable(_))
        ));
    }

    #[test]
    fn out_of_range_propagates_without_counting() {
        let d = device(DeviceProfile::local_disk());
        let m = Meter::new();
        assert!(matches!(
            d.read(BlockStepId::new(9, 9), &m),
            Err(StorageError::OutOfRange(_))
        ));
        assert_eq!(d.reads_served(), 0);
    }
}
