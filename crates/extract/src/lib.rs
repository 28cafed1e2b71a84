//! # vira-extract
//!
//! Flow-feature extraction algorithms of the Viracocha reproduction —
//! the computational kernels behind the framework's commands (paper
//! §6.3):
//!
//! * [`iso`] — isosurface extraction over curvilinear blocks (marching
//!   tetrahedra, [`tetra`]), plain and streamed.
//! * [`bricktree`] — per-block min/max ranges of 4³-cell bricks that let every
//!   extractor skip inactive regions without touching their cells.
//! * [`bsp`] — per-block BSP trees for view-dependent front-to-back
//!   extraction with empty-region pruning (the `ViewerIso` command).
//! * [`lambda2`] / [`eigen`] — λ₂ vortex-region extraction: velocity
//!   gradient tensors on curvilinear grids, symmetric 3×3 eigenvalues,
//!   full-field and cell-streamed variants.
//! * [`pathline`] / [`locate`] — RK4 pathline integration with adaptive
//!   step-size control, Newton point location and cell walking across
//!   multi-block grids.
//! * [`multires`] — subsampling pyramids and progressive isosurface
//!   extraction (§5.3).
//! * [`mesh`] — triangle soups / polylines and their wire encodings
//!   (the payload of streamed result packets).
//! * [`par`] — the scoped thread pool behind intra-worker parallel
//!   block extraction (order-preserving, hence output-deterministic).
//!
//! Everything here is deterministic and framework-free: data access is
//! injected (see [`pathline::BlockFetcher`]), so the same kernels run
//! under unit tests, the parallel framework, and the benchmark harness.

pub mod bricktree;
pub mod bsp;
pub mod eigen;
pub mod export;
pub mod halo;
pub mod iso;
pub mod lambda2;
pub mod locate;
pub mod mesh;
pub mod multires;
pub mod par;
pub mod pathline;
pub mod stats;
pub mod tetra;
pub mod weld;

pub use bricktree::{BrickTree, PruneCounters, BRICK};
pub use bsp::BspTree;
pub use eigen::{
    chebyshev_middle_root, lambda2_of_gradient, symmetric_eigenvalues, symmetric_middle_eigenvalue,
};
pub use export::{save_soup, write_obj, write_vtk_mesh, write_vtk_polylines};
pub use halo::{GhostLayer, GhostedBlock};
pub use iso::{
    active_cells, extract_isosurface, extract_isosurface_oracle, extract_isosurface_with_tree,
    extract_streamed, extract_streamed_with_tree, IsoStats,
};
pub use lambda2::{lambda2_field, lambda2_field_oracle};
pub use locate::{invert_trilinear, invert_trilinear_oracle, locate_cell, CellHit, TrilinearCell};
pub use mesh::{payload_triangle_count, Polyline, TriangleSoup};
pub use multires::{coarsen, progressive_isosurface, pyramid, ProgressiveLevel};
pub use par::scoped_map;
pub use pathline::{
    trace_pathline, trace_streakline, AnalyticSampler, BlockFetcher, FieldSampler,
    MultiBlockSampler, PathlineConfig, PathlineResult, SteadySampler, TimeScheme, TraceStatus,
};
pub use stats::{suggest_iso_level, FieldSummary, Histogram};
pub use weld::{compute_normals, weld, EdgeDefects, IndexedMesh};
