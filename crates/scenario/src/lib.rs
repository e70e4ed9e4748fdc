//! Declarative scenario manifests for the express-link NoC toolkit.
//!
//! A **scenario manifest** is one versioned JSON document describing a
//! full experiment: topology (mesh size plus express links, listed or
//! solver-placed, optionally under QoS flow constraints), phased
//! time-varying traffic (bursts, ramps, hotspot migration), link-failure
//! and degraded-link events (also compiled onto `faultpoint`
//! schedules), and simulation windows. A `matrix` section turns the one
//! document into an ordered batch of fully-resolved scenarios through a
//! deterministic **permutation expander**.
//!
//! The contract throughout is the workspace's determinism discipline:
//! parsing is strict (unknown fields and unsupported versions are
//! structured errors, never silent defaults), expansion order and
//! per-scenario fingerprints depend only on the manifest text, and
//! [`run_batch`] produces byte-identical result streams across repeated
//! runs and across worker counts.
//!
//! ```
//! use noc_scenario::{expand, Manifest};
//!
//! let manifest = Manifest::parse(
//!     r#"{"scenario":1,"name":"ladder","topology":{"n":4},
//!         "sim":{"warmup":100,"cycles":300},
//!         "matrix":{"rate":[0.01,0.02,0.04],"seed":{"range":[1,2]}}}"#,
//! ).unwrap();
//! let batch = expand(&manifest).unwrap();
//! assert_eq!(batch.len(), 6);
//! assert_eq!(batch[3].name, "ladder#3");
//! ```
//!
//! The full format reference lives in `docs/SCENARIOS.md`.

#![warn(missing_docs)]

pub mod expand;
pub mod field;
pub mod manifest;
pub mod run;

pub use expand::{expand, manifest_fingerprint, scenario_fingerprint, ResolvedScenario};
pub use manifest::{
    AxisValues, FaultSpec, Manifest, ManifestError, PhaseSpec, PlacementSpec, QosFlow, SimSpec,
    TopologySpec, TrafficSpec, MANIFEST_VERSION, MAX_SCENARIOS,
};
pub use run::{compile_fault_schedule, run_batch, BatchResult};
