//! Geometry substrate for the SemHolo reproduction.
//!
//! This crate owns the 3D content representations the paper's pipelines
//! exchange — triangle meshes and point clouds — plus the machinery to
//! create and compare them:
//!
//! - [`trimesh`] — indexed triangle meshes ([`TriMesh`]) with normals,
//!   areas, edge topology, and the raw wire-size accounting used by
//!   Table 2.
//! - [`pointcloud`] — colored point clouds ([`PointCloud`]) with voxel-grid
//!   downsampling, the capture substrate's fusion output.
//! - [`sdf`] — signed distance fields: primitives (sphere, capsule,
//!   rounded cone, ellipsoid), smooth CSG, and transforms. The avatar body
//!   is modeled as an SDF, mirroring X-Avatar's implicit geometry network.
//! - [`marching`] — isosurface extraction by marching tetrahedra, the
//!   reconstruction step X-Avatar runs at resolutions 128–1024 (Figs. 2
//!   and 4): the grid, the tetrahedral split and the mesh builder that
//!   [`sparse`] drives.
//! - [`sparse`] — octree-accelerated extraction that only descends into
//!   cells near the surface, making resolution-1024 extraction feasible on
//!   a CPU.
//! - [`grid`] — spatial hash grid for nearest-neighbor queries.
//! - [`metrics`] — Chamfer distance, Hausdorff distance, F-score, and
//!   normal consistency, the quality axis of Table 1 and Fig. 2.

pub mod grid;
mod lattice;
pub mod marching;
pub mod metrics;
pub mod pointcloud;
pub mod sdf;
pub mod sparse;
pub mod trimesh;

pub use grid::PointGrid;
pub use marching::MarchingConfig;
pub use metrics::{chamfer_distance, f_score, normal_consistency, MeshQuality};
pub use pointcloud::PointCloud;
pub use sdf::{Primitive, Sdf, SdfCapsule, SdfEllipsoid, SdfRoundCone, SdfScope, SdfSphere};
pub use sparse::sparse_extract;
pub use trimesh::TriMesh;
