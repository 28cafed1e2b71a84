//! # vira-grid
//!
//! Multi-block curvilinear structured grids, time-dependent flow fields,
//! synthetic CFD datasets and the on-disk format used by the Viracocha
//! parallel post-processing framework.
//!
//! This crate is the data substrate of the workspace:
//!
//! * [`math`] — `Vec3`, `Mat3`, `Aabb` primitives.
//! * [`block`] — structured block lattices and trilinear interpolation.
//! * [`field`] — scalar/vector point fields and the [`field::BlockData`]
//!   data item moved around by the data management system.
//! * [`lanes`] — lane-chunked min/max scan primitives behind the
//!   vectorized kernels.
//! * [`synth`] — analytic stand-ins for the paper's *Engine* and *Propfan*
//!   datasets (Table 1 structure preserved).
//! * [`topology`] — block adjacency for pathline continuation and
//!   topology-aware prefetch ordering; owns one [`locator`] (cell bins
//!   for point location) per block.
//! * [`io`] — binary item files + JSON descriptor on disk.
//!
//! ## Example
//!
//! ```
//! use vira_grid::synth;
//! use vira_grid::block::BlockStepId;
//!
//! let engine = synth::engine(5); // 5×5×5 points per block
//! assert_eq!(engine.spec.n_blocks, 23);
//! let item = engine.generate(BlockStepId::new(0, 0));
//! assert!(item.velocity.magnitude().values.iter().all(|v| v.is_finite()));
//! ```

pub mod block;
pub mod faces;
pub mod field;
pub mod io;
pub mod lanes;
pub mod locator;
pub mod math;
pub mod synth;
pub mod topology;

pub use block::{BlockDims, BlockId, BlockStepId, CurvilinearBlock, StepId};
pub use faces::{face_dims, face_points, matching_interface, Face, Interface};
pub use field::{BlockData, ScalarField, SharedBlockData, VectorField};
pub use math::{Aabb, Mat3, Vec3};
