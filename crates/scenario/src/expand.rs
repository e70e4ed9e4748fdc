//! The permutation expander: one manifest → an ordered batch of
//! fully-resolved scenarios, each with a stable fingerprint.
//!
//! Expansion is the Cartesian product of the `matrix` axes in document
//! order, with the **last axis varying fastest** (an odometer). The
//! result order, the resolved manifests, and the fingerprints depend
//! only on the manifest text — never on the host, the clock, or a
//! worker count — so the same manifest always produces the same batch.

use crate::manifest::{apply_axis, Manifest, ManifestError};
use noc_json::Value;
use noc_placement::fingerprint::Fnv1a;

/// One fully-resolved scenario out of a manifest expansion.
#[derive(Debug, Clone, PartialEq)]
pub struct ResolvedScenario {
    /// Position in the expansion order (0-based).
    pub index: usize,
    /// `<manifest name>#<index>`.
    pub name: String,
    /// The axis assignment that produced this scenario, in axis order.
    pub axes: Vec<(String, Value)>,
    /// The manifest with the axis values applied and the matrix removed.
    pub manifest: Manifest,
    /// Stable FNV-1a fingerprint of the resolved manifest. Slots into the
    /// daemon's cache-key scheme (see `docs/SCENARIOS.md`).
    pub fingerprint: u64,
}

fn validate_resolved(m: &Manifest, index: usize) -> Result<(), ManifestError> {
    let n = m.topology.n;
    let row = n;
    let check_links = |links: &[(usize, usize)], field: &str| -> Result<(), ManifestError> {
        for &(a, b) in links {
            if a >= row || b >= row || a == b {
                return Err(ManifestError::Invalid {
                    field: format!("{field} (scenario #{index})"),
                    reason: format!("link ({a}, {b}) is not a valid span on a row of {row}"),
                });
            }
        }
        Ok(())
    };
    check_links(&m.topology.links, "topology.links")?;
    for phase in &m.phases {
        check_links(&phase.fail_links, "phases.fail_links")?;
        check_links(&phase.degrade_links, "phases.degrade_links")?;
        let rate = m.traffic.rate * phase.rate_scale;
        if !(rate > 0.0 && rate <= 1.0) {
            return Err(ManifestError::Invalid {
                field: format!("phases.rate_scale (scenario #{index})"),
                reason: format!("effective rate {rate} must be in (0, 1]"),
            });
        }
        if let Some(h) = phase.hotspot {
            if h >= n * n {
                return Err(ManifestError::Invalid {
                    field: format!("phases.hotspot (scenario #{index})"),
                    reason: format!("router {h} is outside the {n}x{n} mesh"),
                });
            }
        }
    }
    if let Some(h) = m.traffic.hotspot {
        if h >= n * n {
            return Err(ManifestError::Invalid {
                field: format!("traffic.hotspot (scenario #{index})"),
                reason: format!("router {h} is outside the {n}x{n} mesh"),
            });
        }
    }
    for flow in &m.qos {
        if flow.src >= n * n || flow.dst >= n * n || flow.src == flow.dst {
            return Err(ManifestError::Invalid {
                field: format!("qos (scenario #{index})"),
                reason: format!(
                    "flow ({}, {}) is not a valid pair on the {n}x{n} mesh",
                    flow.src, flow.dst
                ),
            });
        }
    }
    if let Some(p) = &m.placement {
        if p.c >= n {
            return Err(ManifestError::Invalid {
                field: format!("placement.c (scenario #{index})"),
                reason: format!("c {} must be below n {n}", p.c),
            });
        }
    }
    Ok(())
}

/// Fingerprints a resolved (matrix-free) manifest: FNV-1a over its
/// canonical compact serialization, tagged with the format version.
pub fn scenario_fingerprint(resolved: &Manifest) -> u64 {
    let mut fp = Fnv1a::with_tag("scenario-v1");
    fp.write_bytes(resolved.to_value().compact().as_bytes());
    fp.finish()
}

/// Fingerprints a whole manifest (matrix included): the identity of the
/// *batch*, digesting the ordered per-scenario fingerprints so any change
/// to any resolved scenario — or to the expansion order — changes it.
pub fn manifest_fingerprint(manifest: &Manifest) -> u64 {
    let mut fp = Fnv1a::with_tag("scenario-manifest-v1");
    fp.write_bytes(manifest.to_value().compact().as_bytes());
    fp.finish()
}

/// Expands a manifest into its ordered batch of fully-resolved scenarios.
///
/// Axes multiply in document order with the last axis varying fastest;
/// each resolved scenario carries its axis assignment and a stable
/// fingerprint. Invalid combinations (a link outside an `n` drawn from an
/// axis, an effective rate above 1) are rejected for the whole batch —
/// expansion either yields every scenario or a structured error.
///
/// ```
/// use noc_scenario::{expand, Manifest};
///
/// let m = Manifest::parse(
///     r#"{"scenario":1,"name":"grid","topology":{"n":4},
///         "matrix":{"rate":[0.01,0.02],"seed":{"range":[1,3]}}}"#,
/// ).unwrap();
/// let batch = expand(&m).unwrap();
/// assert_eq!(batch.len(), 6);
/// // Last axis (seed) varies fastest; names are <name>#<index>.
/// assert_eq!(batch[0].name, "grid#0");
/// assert_eq!(batch[1].axes[1].1, noc_json::Value::Int(2));
/// // Same manifest, same batch: fingerprints are stable.
/// assert_eq!(expand(&m).unwrap()[5].fingerprint, batch[5].fingerprint);
/// ```
pub fn expand(manifest: &Manifest) -> Result<Vec<ResolvedScenario>, ManifestError> {
    let total = manifest.expansion_count();
    let axes = &manifest.matrix;
    let mut out = Vec::with_capacity(total);
    for index in 0..total {
        // Odometer decode: last axis varies fastest.
        let mut remainder = index;
        let mut assignment = vec![0usize; axes.len()];
        for (slot, (_, values)) in axes.iter().enumerate().rev() {
            assignment[slot] = remainder % values.len();
            remainder /= values.len();
        }
        let mut resolved = manifest.clone();
        resolved.matrix = Vec::new();
        let mut applied = Vec::with_capacity(axes.len());
        for (slot, (axis, values)) in axes.iter().enumerate() {
            let value = values.value(assignment[slot]);
            apply_axis(&mut resolved, axis, &value)?;
            applied.push((axis.clone(), value));
        }
        validate_resolved(&resolved, index)?;
        let fingerprint = scenario_fingerprint(&resolved);
        out.push(ResolvedScenario {
            index,
            name: format!("{}#{}", manifest.name, index),
            axes: applied,
            manifest: resolved,
            fingerprint,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> Manifest {
        Manifest::parse(
            r#"{"scenario":1,"name":"g","topology":{"n":4},
                "matrix":{"rate":[0.01,0.02],"seed":[1,2,3]}}"#,
        )
        .unwrap()
    }

    #[test]
    fn expansion_is_odometer_ordered() {
        let batch = expand(&grid()).unwrap();
        assert_eq!(batch.len(), 6);
        let seeds: Vec<u64> = batch.iter().map(|s| s.manifest.seed).collect();
        assert_eq!(seeds, vec![1, 2, 3, 1, 2, 3]);
        let rates: Vec<f64> = batch.iter().map(|s| s.manifest.traffic.rate).collect();
        assert_eq!(rates, vec![0.01, 0.01, 0.01, 0.02, 0.02, 0.02]);
        assert_eq!(batch[4].name, "g#4");
        assert!(batch.iter().all(|s| s.manifest.matrix.is_empty()));
    }

    #[test]
    fn fingerprints_are_stable_and_distinct() {
        let a = expand(&grid()).unwrap();
        let b = expand(&grid()).unwrap();
        assert_eq!(a, b, "expansion must be deterministic");
        let mut fps: Vec<u64> = a.iter().map(|s| s.fingerprint).collect();
        fps.sort_unstable();
        fps.dedup();
        assert_eq!(fps.len(), 6, "every resolved scenario is distinct");
    }

    #[test]
    fn no_matrix_means_one_scenario() {
        let m = Manifest::parse(r#"{"scenario":1,"topology":{"n":4}}"#).unwrap();
        let batch = expand(&m).unwrap();
        assert_eq!(batch.len(), 1);
        assert!(batch[0].axes.is_empty());
        assert_eq!(
            batch[0].fingerprint,
            scenario_fingerprint(&batch[0].manifest)
        );
    }

    #[test]
    fn invalid_combinations_reject_the_batch() {
        // n axis shrinks the mesh under an explicit link.
        let m = Manifest::parse(
            r#"{"scenario":1,"topology":{"n":8,"links":[[0,6]]},"matrix":{"n":[8,4]}}"#,
        )
        .unwrap();
        assert!(expand(&m).is_err());
        // A burst that pushes the effective rate above 1.
        let m = Manifest::parse(
            r#"{"scenario":1,"topology":{"n":4},
                "phases":[{"rate_scale":30.0}],"matrix":{"rate":[0.01,0.05]}}"#,
        )
        .unwrap();
        assert!(expand(&m).is_err());
    }
}
