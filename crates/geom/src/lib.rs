//! # peas-geom — geometry, deployment, coverage and connectivity
//!
//! The spatial substrate for the PEAS (ICDCS 2003) reproduction:
//!
//! * [`Point`] / [`Field`] — the 2-D sensor field;
//! * [`Deployment`] — uniform (the paper's setting), jittered-grid and
//!   clustered node placement;
//! * [`SpatialGrid`] — bucket grid for O(1) expected-time range queries
//!   ("which nodes are within the probing range `Rp` of this point?");
//! * [`NeighborTables`] — per-range-class CSR adjacency precomputed once
//!   per (static) topology, the broadcast hot path's replacement for
//!   repeated grid queries;
//! * [`CoverageGrid`] — the K-coverage metric of Section 5.2;
//! * [`CoverageCsr`] — precomputed node→cell coverage rows, making
//!   incremental coverage maintenance a pure counter walk;
//! * [`ElevationRaster`] — bilinearly interpolated height-map lattices,
//!   the data substrate for terrain-aware propagation backends;
//! * [`connectivity`] — the working-graph analysis behind Section 3's
//!   `Rt ≥ (1 + √5)·Rp` connectivity condition;
//! * [`UnionFind`] — the disjoint-set forest used by the above.
//!
//! # Example
//!
//! ```
//! use peas_des::rng::SimRng;
//! use peas_geom::{connectivity, CoverageGrid, Deployment, Field};
//!
//! let field = Field::paper(); // 50 x 50 m
//! let mut rng = SimRng::new(7);
//! let nodes = Deployment::Uniform.generate(field, 160, &mut rng);
//!
//! // How much of the field do all 160 nodes cover with a 10 m sensing range?
//! let coverage = CoverageGrid::new(field, 1.0).k_coverage(&nodes, 10.0, 4);
//! assert!(coverage > 0.95);
//!
//! // And are they mutually reachable at a 10 m radio range?
//! let report = connectivity::analyze(field, &nodes, 10.0);
//! assert!(report.is_connected());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod connectivity;
pub mod coverage;
pub mod deploy;
pub mod field;
pub mod grid;
pub mod neighbors;
pub mod par;
pub mod point;
pub mod raster;
pub mod unionfind;

pub use connectivity::{ConnectivityReport, CONNECTIVITY_FACTOR};
pub use coverage::{CoverageCsr, CoverageGrid};
pub use deploy::Deployment;
pub use field::Field;
pub use grid::SpatialGrid;
pub use neighbors::NeighborTables;
pub use point::Point;
pub use raster::ElevationRaster;
pub use unionfind::UnionFind;
