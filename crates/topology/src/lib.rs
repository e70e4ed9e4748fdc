//! Express-link topology representation for NoC-based many-core platforms.
//!
//! This crate implements the topology layer of the ICPP 2019 paper
//! *"Express Link Placement for NoC-Based Many-Core Platforms"*:
//!
//! * [`RowPlacement`] — a one-dimensional placement of bidirectional express
//!   links on a row (or column) of `n` routers. Local links between adjacent
//!   routers are always present; express links connect non-adjacent routers.
//! * [`ConnectionMatrix`] — the paper's `(n-2) × (C-1)` binary search-space
//!   encoding (§4.4.2). Every matrix decodes to a *valid* placement (all local
//!   links present, every cross-section within the link limit `C`), which is
//!   what makes the simulated-annealing candidate generator efficient.
//! * [`MeshTopology`] — a two-dimensional `n × n` mesh whose rows and columns
//!   each carry a [`RowPlacement`] (the 2D→1D lemma of §4.2 replicates one row
//!   solution across all rows and columns).
//! * [`builders`] — baseline topologies: plain mesh, flattened butterfly, and
//!   the hybrid flattened butterfly (HFB) of Fig. 4.
//!
//! # Example
//!
//! ```
//! use noc_topology::{RowPlacement, ConnectionMatrix};
//!
//! // A row of 8 routers with express links 2–4 and 4–8 (1-indexed in the
//! // paper; 0-indexed here), as in the paper's Fig. 2 top layer.
//! let mut row = RowPlacement::new(8);
//! row.add_link(1, 3).unwrap();
//! row.add_link(3, 7).unwrap();
//! assert_eq!(row.cross_section(0), 1); // only the local link 0–1
//! assert_eq!(row.cross_section(1), 2); // local + express 1–3
//! assert!(row.is_within_limit(4));
//!
//! // Encode into a connection matrix with link limit C = 4 and back.
//! let m = ConnectionMatrix::encode(&row, 4).unwrap();
//! assert_eq!(m.decode(), row);
//! ```

pub mod builders;
pub mod connection_matrix;
pub mod display;
pub mod error;
pub mod mesh;
pub mod row;

pub use builders::{flattened_butterfly_row, hfb_mesh, hfb_row, implied_link_limit, mesh_row};
pub use connection_matrix::{ConnectionMatrix, MAX_C};
pub use error::TopologyError;
pub use mesh::{Coord, MeshTopology, Orientation};
pub use row::{Link, RowPlacement};
