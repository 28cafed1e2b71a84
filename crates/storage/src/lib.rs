//! # vira-storage
//!
//! The storage substrate of the Viracocha workspace: modeled storage
//! devices and the **time-dilation cost model** that stands in for the
//! paper's testbed hardware (a 24-CPU SUN Fire 6800 reading gigabyte
//! datasets from a file server).
//!
//! See `DESIGN.md` ("Substitutions") for why a cost model: every compute /
//! read / send operation charges a *modeled* duration derived from the
//! paper-scale workload, and the [`costmodel::SimClock`] turns modeled
//! seconds into dilated wall-clock sleeps. Sleeping threads overlap
//! perfectly, so worker-scaling experiments reproduce the paper's shapes
//! on any host, while the real extraction algorithms still run on
//! scaled-down grids.
//!
//! * [`costmodel`] — [`costmodel::SimClock`], per-worker
//!   [`costmodel::Meter`]s, the modeled compute and send cost constants.
//! * [`source`] — where payloads come from (synthetic or on-disk).
//! * [`device`] — storage tiers with latency/bandwidth profiles.

pub mod compress;
pub mod costmodel;
pub mod device;
pub mod source;

pub use compress::{probe_block_compression, rle_compress, rle_decompress, CompressionProbe};
pub use costmodel::{CostBreakdown, CostCategory, Meter, SharedChannel, SimClock};
pub use device::{Device, DeviceProfile};
pub use source::{DataSource, DiskSource, StorageError, SynthSource};
