//! # viracocha
//!
//! A Rust reproduction of **Viracocha** — the parallel CFD
//! post-processing framework of Gerndt, Hentschel, Wolter, Kuhlen and
//! Bischof (SC 2004). Viracocha decouples flow-feature extraction from
//! VR visualization: a scheduler accepts commands from the
//! visualization client, forms work groups of workers, and the workers
//! extract features (isosurfaces, λ₂ vortex regions, pathlines) backed
//! by a data management system (caching, prefetching, adaptive loading)
//! — optionally *streaming* partial results to the client while the
//! computation is still running.
//!
//! Three-layer architecture (paper §3):
//!
//! 1. **Transport** — `vira-comm` (generic interface; in-process rank
//!    world standing in for MPI, framed link standing in for TCP/IP).
//! 2. **Framework** — [`scheduler`], [`worker`], and the DMS
//!    (`vira-dms`).
//! 3. **Commands** — [`commands`], exchangeable via
//!    [`Viracocha::launch_with_registry`].
//!
//! ## Quickstart
//!
//! ```
//! use std::sync::Arc;
//! use viracocha::{Viracocha, ViracochaConfig};
//! use vira_storage::source::SynthSource;
//! use vira_vista::{CommandParams, SubmitSpec, VistaClient};
//!
//! let (backend, link) = Viracocha::launch(ViracochaConfig::for_tests(2));
//! backend.register_dataset(
//!     Arc::new(SynthSource::new(Arc::new(vira_grid::synth::test_cube(8, 2)))),
//!     false,
//! );
//! let mut client = VistaClient::new(link);
//! let out = client
//!     .run(&SubmitSpec {
//!         command: "IsoDataMan".into(),
//!         dataset: "TestCube".into(),
//!         params: CommandParams::new().set("iso", 0.15),
//!         workers: 2,
//!     })
//!     .unwrap();
//! assert!(out.triangles.n_triangles() > 0);
//! client.shutdown().unwrap();
//! backend.join();
//! ```

pub mod command;
pub mod commands;
pub mod config;
pub mod derived;
pub mod loadgen;
pub mod runtime;
pub mod scheduler;
pub mod wire;
pub mod worker;

pub use command::{CancelSet, Command, CommandError, CommandRegistry, JobCtx};
pub use commands::default_registry;
pub use config::{AdmissionConfig, ResilienceConfig, TelemetryConfig, ViracochaConfig};
pub use derived::DerivedFieldCache;
pub use loadgen::{Arrival, LoadOutcome, LoadPlan};
pub use runtime::{run_remote_worker, Viracocha};
pub use vira_comm::fault::{FaultPlan, FaultStats, FaultStatsSnapshot, LinkFaults};
