//! The versioned scenario manifest: its sections, each declared once
//! with the field machinery of [`crate::field`](mod@crate::field), which reads them
//! strictly and writes them back.
//!
//! A manifest is one `noc-json` object (NDJSON-friendly: it serialises to
//! a single compact line) describing a full experiment. Parsing is
//! *strict*: unknown fields anywhere in the document and unsupported
//! versions are rejected with a structured [`ManifestError`], so a typo
//! can never silently fall back to a default. `docs/SCENARIOS.md` shows
//! each section's fields as [`reference()`] tabulates them.

use crate::field;
use crate::field::{Field, FieldError, Fields, Ty, Wire, MAX_CHAINS, MAX_CYCLES, MAX_FLIT};
use crate::field::{MAX_MOVES, MAX_PHASES, MAX_SIM_N};
use noc_json::{ToJson, Value};
use noc_placement::InitialStrategy;
use noc_topology::MAX_C;
use noc_traffic::SyntheticPattern;
use Ty::{Int, Positive, Rate, Section, Sections, Share, Spans, Text};

pub use crate::field::{MAX_CYCLES as MAX_PHASE_CYCLES, MAX_SIM_N as MAX_N};

/// The manifest format version this crate reads and writes.
///
/// The version lives in the required top-level `"scenario"` field; any
/// other value is rejected with [`ManifestError::BadVersion`] so old
/// binaries fail loudly on manifests from the future.
pub const MANIFEST_VERSION: u64 = 1;

/// Hard cap on the number of fully-resolved scenarios one manifest may
/// expand to. The product of all `matrix` axis lengths must stay at or
/// under this; larger products are rejected at parse time.
pub const MAX_SCENARIOS: usize = 4096;

/// A structured manifest rejection.
///
/// Every variant names the offending field, so callers (the daemon's
/// `bad_request` path, the CLI) can report exactly what to fix.
#[derive(Debug, Clone, PartialEq)]
pub enum ManifestError {
    /// The document was not valid JSON.
    Json(String),
    /// The required `"scenario"` version field was missing.
    MissingVersion,
    /// The `"scenario"` version field held an unsupported value.
    BadVersion {
        /// The version the document declared.
        found: i128,
    },
    /// A field not defined by this format version.
    UnknownField {
        /// The section containing the field (`"manifest"` for top level).
        section: &'static str,
        /// The unrecognised key.
        field: String,
    },
    /// A required field was absent.
    Missing {
        /// The section that lacks the field.
        section: &'static str,
        /// The missing key.
        field: &'static str,
    },
    /// A field was present but malformed or out of bounds.
    Invalid {
        /// Dotted path of the field (`"traffic.rate"`).
        field: String,
        /// What is wrong with it.
        reason: String,
    },
}

impl std::fmt::Display for ManifestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ManifestError::Json(e) => write!(f, "invalid JSON: {e}"),
            ManifestError::MissingVersion => {
                write!(f, "missing required version field \"scenario\"")
            }
            ManifestError::BadVersion { found } => write!(
                f,
                "unsupported manifest version {found} (this build reads version {MANIFEST_VERSION})"
            ),
            ManifestError::UnknownField { section, field } => {
                write!(f, "unknown field {field:?} in section {section:?}")
            }
            ManifestError::Missing { section, field } => {
                write!(f, "missing required field {field:?} in section {section:?}")
            }
            ManifestError::Invalid { field, reason } => {
                write!(f, "invalid field {field:?}: {reason}")
            }
        }
    }
}

impl std::error::Error for ManifestError {}

impl From<FieldError> for ManifestError {
    fn from(e: FieldError) -> Self {
        match e {
            FieldError::Unknown { section, field } => {
                ManifestError::UnknownField { section, field }
            }
            FieldError::Missing { section, field } => ManifestError::Missing { section, field },
            FieldError::Invalid { field, reason } => ManifestError::Invalid { field, reason },
            FieldError::Reason(reason) => ManifestError::Invalid {
                field: "manifest".to_string(),
                reason,
            },
        }
    }
}

/// The base topology of a scenario: an `n × n` mesh, optionally with
/// explicit express links stamped uniformly on every row and column.
#[derive(Debug, Clone, PartialEq)]
pub struct TopologySpec {
    /// Mesh side length `n` (routers per row).
    pub n: usize,
    /// Express links of the uniform row placement; empty = plain mesh.
    /// Ignored when a `placement` section asks the solver for the links.
    pub links: Vec<(usize, usize)>,
}

impl Default for TopologySpec {
    fn default() -> Self {
        TopologySpec {
            n: 8,
            links: Vec::new(),
        }
    }
}

impl Fields for TopologySpec {
    const SECTION: &'static str = "topology";
    const FIELDS: &'static [Field<Self>] = &[
        field!("n" => n, Int(2, MAX_SIM_N as u64), Optional),
        field!("links" => links, Spans, Optional),
    ];
}

/// Ask the placement solver for the express links instead of listing them.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacementSpec {
    /// Link limit `C` (max cross-section).
    pub c: usize,
    /// SA move budget per chain.
    pub moves: usize,
    /// Independent annealing chains (best-of-K).
    pub chains: usize,
    /// Initial-solution strategy.
    pub strategy: InitialStrategy,
}

impl Default for PlacementSpec {
    /// Every optional field at its default; `c` is required.
    fn default() -> Self {
        PlacementSpec {
            c: 0,
            moves: 2_000,
            chains: 1,
            strategy: InitialStrategy::DivideAndConquer,
        }
    }
}

impl Fields for PlacementSpec {
    const SECTION: &'static str = "placement";
    const FIELDS: &'static [Field<Self>] = &[
        field!("c" => c, Int(1, MAX_C as u64), Required),
        field!("moves" => moves, Int(0, MAX_MOVES as u64), Optional),
        field!("chains" => chains, Int(1, MAX_CHAINS as u64), Optional),
        field!("strategy" => strategy, Ty::Strategy, Optional),
    ];
}

/// One QoS flow constraint: extra traffic weight between a source and a
/// destination router, fed to the application-specific per-row solver.
#[derive(Debug, Clone, PartialEq)]
pub struct QosFlow {
    /// Source router (flat id, row-major).
    pub src: usize,
    /// Destination router (flat id, row-major).
    pub dst: usize,
    /// Relative weight of the flow against the uniform background.
    pub weight: f64,
}

impl Default for QosFlow {
    /// `weight` at its default; `src` and `dst` are required.
    fn default() -> Self {
        QosFlow {
            src: 0,
            dst: 0,
            weight: 1.0,
        }
    }
}

impl Fields for QosFlow {
    const SECTION: &'static str = "qos";
    const FIELDS: &'static [Field<Self>] = &[
        field!("src" => src, Ty::U64, Required),
        field!("dst" => dst, Ty::U64, Required),
        field!("weight" => weight, Positive, Optional),
    ];
}

/// The base traffic of a scenario (phases may override per phase).
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficSpec {
    /// Synthetic traffic pattern.
    pub pattern: SyntheticPattern,
    /// Injection rate in packets per node per cycle.
    pub rate: f64,
    /// Hotspot target router: when set, traffic is a uniform background
    /// plus a concentrated component aimed at this router.
    pub hotspot: Option<usize>,
    /// Probability mass of the hotspot component (0..1).
    pub hotspot_weight: f64,
}

impl Default for TrafficSpec {
    fn default() -> Self {
        TrafficSpec {
            pattern: SyntheticPattern::UniformRandom,
            rate: 0.02,
            hotspot: None,
            hotspot_weight: 0.5,
        }
    }
}

impl Fields for TrafficSpec {
    const SECTION: &'static str = "traffic";
    const FIELDS: &'static [Field<Self>] = &[
        field!("pattern" => pattern, Ty::Pattern, Optional),
        field!("rate" => rate, Rate, Optional),
        field!("hotspot" => hotspot, Ty::U64, Quiet),
        field!("hotspot_weight" => hotspot_weight, Share, Optional),
    ];
}

/// Simulation window parameters shared by every phase.
#[derive(Debug, Clone, PartialEq)]
pub struct SimSpec {
    /// Flit width in bits.
    pub flit: u32,
    /// Warmup cycles before each phase's measurement window.
    pub warmup: u64,
    /// Default measurement cycles per phase.
    pub cycles: u64,
}

impl Default for SimSpec {
    fn default() -> Self {
        SimSpec {
            flit: 64,
            warmup: 500,
            cycles: 2_000,
        }
    }
}

impl Fields for SimSpec {
    const SECTION: &'static str = "sim";
    const FIELDS: &'static [Field<Self>] = &[
        field!("flit" => flit, Int(1, MAX_FLIT as u64), Optional),
        field!("warmup" => warmup, Int(0, MAX_CYCLES), Optional),
        field!("cycles" => cycles, Int(1, MAX_CYCLES), Optional),
    ];
    fn check(&self) -> Result<(), FieldError> {
        if self.warmup + self.cycles > MAX_CYCLES {
            return Err(FieldError::Invalid {
                field: "sim.cycles".to_string(),
                reason: format!("warmup + cycles must be at most {MAX_CYCLES}"),
            });
        }
        Ok(())
    }
}

/// One phase of time-varying traffic. Phases run in order; each phase is
/// an independent measurement window against the scenario's base
/// topology with this phase's events applied (events are absolute, not
/// cumulative).
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseSpec {
    /// Phase label (defaults to `phase<i>`).
    pub name: String,
    /// Measurement cycles; `None` inherits `sim.cycles`.
    pub cycles: Option<u64>,
    /// Multiplier on the base injection rate (bursts > 1, ramps < 1).
    pub rate_scale: f64,
    /// Pattern override for this phase; `None` inherits `traffic.pattern`.
    pub pattern: Option<SyntheticPattern>,
    /// Hotspot target override (hotspot migration moves this per phase).
    pub hotspot: Option<usize>,
    /// Express links that have failed for this phase: removed from every
    /// row/column placement that carries them.
    pub fail_links: Vec<(usize, usize)>,
    /// Express links degraded for this phase: split at their midpoint, so
    /// the span survives but costs an extra router traversal.
    pub degrade_links: Vec<(usize, usize)>,
}

impl Default for PhaseSpec {
    /// Every field at its default. The name `phase<i>` stands for the
    /// phase's index, which reading a manifest fills in.
    fn default() -> Self {
        PhaseSpec {
            name: "phase<i>".to_string(),
            cycles: None,
            rate_scale: 1.0,
            pattern: None,
            hotspot: None,
            fail_links: Vec::new(),
            degrade_links: Vec::new(),
        }
    }
}

impl Fields for PhaseSpec {
    const SECTION: &'static str = "phases";
    const FIELDS: &'static [Field<Self>] = &[
        field!("name" => name, Text, Optional),
        field!("cycles" => cycles, Int(1, MAX_CYCLES), Quiet),
        field!("rate_scale" => rate_scale, Positive, Optional),
        field!("pattern" => pattern, Ty::Pattern, Quiet),
        field!("hotspot" => hotspot, Ty::U64, Quiet),
        field!("fail_links" => fail_links, Spans, Quiet),
        field!("degrade_links" => degrade_links, Spans, Quiet),
    ];
    fn start(index: usize) -> Self {
        PhaseSpec {
            name: format!("phase{index}"),
            ..PhaseSpec::default()
        }
    }
}

/// Fault-injection overlay: the per-phase link events compiled onto a
/// seeded [`faultpoint::Schedule`].
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    /// Seed of the compiled schedule.
    pub seed: u64,
}

impl Default for FaultSpec {
    fn default() -> Self {
        FaultSpec { seed: 42 }
    }
}

impl Fields for FaultSpec {
    const SECTION: &'static str = "faults";
    const FIELDS: &'static [Field<Self>] = &[field!("seed" => seed, Ty::U64, Optional)];
}

/// The values of one `matrix` axis: an explicit list, or an inclusive
/// integer range.
#[derive(Debug, Clone, PartialEq)]
pub enum AxisValues {
    /// Explicit values (numbers or strings), expanded in listed order.
    List(Vec<Value>),
    /// Inclusive integer range `lo..=hi` stepping by `step`.
    Range {
        /// First value.
        lo: i128,
        /// Last value (inclusive).
        hi: i128,
        /// Increment (≥ 1).
        step: i128,
    },
}

impl AxisValues {
    /// Number of values on this axis (`usize::MAX` if it does not fit).
    pub fn len(&self) -> usize {
        match self {
            AxisValues::List(vs) => vs.len(),
            AxisValues::Range { lo, hi, step } if hi < lo || *step < 1 => 0,
            AxisValues::Range { lo, hi, step } => hi
                .checked_sub(*lo)
                .and_then(|span| usize::try_from(span / step).ok())
                .and_then(|k| k.checked_add(1))
                .unwrap_or(usize::MAX),
        }
    }

    /// Whether the axis is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `i`-th value of the axis.
    pub fn value(&self, i: usize) -> Value {
        match self {
            AxisValues::List(vs) => vs[i].clone(),
            AxisValues::Range { lo, step, .. } => Value::Int(lo + step * i as i128),
        }
    }

    fn read(axis: &str, v: &Value) -> Result<Self, FieldError> {
        let invalid = |reason: &str| FieldError::Invalid {
            field: format!("matrix.{axis}"),
            reason: reason.to_string(),
        };
        let values = match v {
            Value::Arr(items) if items.is_empty() => {
                return Err(invalid("axis value list must not be empty"))
            }
            Value::Arr(items) => {
                let scalar =
                    |item: &Value| matches!(item, Value::Int(_) | Value::Float(_) | Value::Str(_));
                if !items.iter().all(scalar) {
                    return Err(invalid("axis values must be numbers or strings"));
                }
                AxisValues::List(items.clone())
            }
            Value::Obj(pairs) => {
                if let Some((other, _)) = pairs.iter().find(|(k, _)| k != "range") {
                    return Err(FieldError::Unknown {
                        section: "matrix",
                        field: format!("{axis}.{other}"),
                    });
                }
                let range = pairs.last().and_then(|(_, range)| range.as_array());
                let range = range.filter(|a| a.len() == 2 || a.len() == 3);
                let range =
                    range.ok_or_else(|| invalid("range must be [lo, hi] or [lo, hi, step]"))?;
                let ints: Option<Vec<i128>> = range.iter().map(Value::as_i128).collect();
                let ints = ints.ok_or_else(|| invalid("range bounds must be integers"))?;
                let (lo, hi, step) = (ints[0], ints[1], ints.get(2).copied().unwrap_or(1));
                if step < 1 || hi < lo {
                    return Err(invalid("range requires lo <= hi and step >= 1"));
                }
                AxisValues::Range { lo, hi, step }
            }
            _ => {
                return Err(invalid(
                    "axis must be a value list or a {\"range\": [lo, hi]} object",
                ))
            }
        };
        if values.len() > MAX_SCENARIOS {
            return Err(invalid(&format!("more than {MAX_SCENARIOS} values")));
        }
        Ok(values)
    }

    fn write(&self) -> Value {
        match self {
            AxisValues::List(vs) => Value::Arr(vs.clone()),
            AxisValues::Range { lo, hi, step } => noc_json::obj! {
                "range" => Value::Arr(vec![Value::Int(*lo), Value::Int(*hi), Value::Int(*step)]),
            },
        }
    }
}

/// Every matrix axis and the field it overrides, as `section.field` or a
/// top-level field. Each value is read by that field's reader; an axis
/// over a `placement` field requires a placement section.
pub const AXES: [(&str, &str); 8] = [
    ("seed", "seed"),
    ("rate", "traffic.rate"),
    ("pattern", "traffic.pattern"),
    ("n", "topology.n"),
    ("c", "placement.c"),
    ("flit", "sim.flit"),
    ("moves", "placement.moves"),
    ("chains", "placement.chains"),
];

/// The field an axis overrides.
fn overrides(axis: &str) -> Option<&'static str> {
    AXES.iter()
        .find(|(name, _)| *name == axis)
        .map(|(_, path)| *path)
}

/// Applies one value of `axis` to `m`, read by the reader of the field the
/// axis overrides.
pub(crate) fn apply_axis(m: &mut Manifest, axis: &str, v: &Value) -> Result<(), ManifestError> {
    let Some(path) = overrides(axis) else {
        return Err(ManifestError::UnknownField {
            section: "matrix",
            field: axis.to_string(),
        });
    };
    let applied = match path.split_once('.') {
        None => field::set(m, path, v),
        Some(("traffic", name)) => field::set(&mut m.traffic, name, v),
        Some(("topology", name)) => field::set(&mut m.topology, name, v),
        Some(("sim", name)) => field::set(&mut m.sim, name, v),
        Some((_, name)) => m
            .placement
            .as_mut()
            .map_or(Ok(()), |p| field::set(p, name, v)),
    };
    Ok(applied.map_err(|e| e.at("matrix", axis))?)
}

/// The matrix: its axes in document order.
impl Wire for Vec<(String, AxisValues)> {
    fn read(v: &Value, ty: Ty) -> Result<Self, FieldError> {
        let Value::Obj(pairs) = v else {
            return Err(ty.refuse());
        };
        let mut axes: Self = Vec::with_capacity(pairs.len());
        for (axis, values) in pairs {
            if overrides(axis).is_none() {
                return Err(FieldError::Unknown {
                    section: "matrix",
                    field: axis.clone(),
                });
            }
            if axes.iter().any(|(name, _)| name == axis) {
                return Err(FieldError::Invalid {
                    field: format!("matrix.{axis}"),
                    reason: "duplicate axis".to_string(),
                });
            }
            axes.push((axis.clone(), AxisValues::read(axis, values)?));
        }
        Ok(axes)
    }

    fn write(&self) -> Value {
        Value::Obj(
            self.iter()
                .map(|(axis, v)| (axis.clone(), v.write()))
                .collect(),
        )
    }
}

/// The sections held as one object: read strictly.
macro_rules! section_wire {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            fn read(v: &Value, ty: Ty) -> Result<Self, FieldError> {
                match v {
                    Value::Obj(_) => field::read(v, true),
                    _ => Err(ty.refuse()),
                }
            }
            fn write(&self) -> Value {
                field::write(self)
            }
        }
    )*};
}
section_wire!(TopologySpec, PlacementSpec, TrafficSpec, SimSpec, FaultSpec);

/// A whole manifest, as a scenario request holds it.
impl Wire for Manifest {
    fn read(v: &Value, _: Ty) -> Result<Self, FieldError> {
        Manifest::from_value(v).map_err(|e| FieldError::Reason(format!("invalid manifest: {e}")))
    }
    fn write(&self) -> Value {
        self.to_value()
    }
    /// The fingerprint covers every field, expansion order included.
    fn key(&self) -> Value {
        crate::manifest_fingerprint(self).to_json()
    }
}

/// A parsed scenario manifest.
///
/// [`Manifest::parse`] and [`Manifest::to_value`] are exact inverses:
///
/// ```
/// use noc_scenario::Manifest;
///
/// let m = Manifest::parse(r#"{"scenario":1,"name":"demo","seed":7,
///     "topology":{"n":4},"traffic":{"rate":0.01},
///     "matrix":{"seed":{"range":[1,3]}}}"#).unwrap();
/// assert_eq!(m.name, "demo");
/// assert_eq!(m.expansion_count(), 3);
/// // Serialising and re-parsing is the identity.
/// assert_eq!(Manifest::parse(&m.to_value().compact()).unwrap(), m);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    /// Format version (always [`MANIFEST_VERSION`] after parsing).
    pub version: u64,
    /// Experiment name; expanded scenarios are named `<name>#<index>`.
    pub name: String,
    /// Base RNG seed (per-phase seeds are derived from it).
    pub seed: u64,
    /// Base topology.
    pub topology: TopologySpec,
    /// Optional solver-driven link placement.
    pub placement: Option<PlacementSpec>,
    /// QoS flow constraints (non-empty requires `placement`).
    pub qos: Vec<QosFlow>,
    /// Base traffic.
    pub traffic: TrafficSpec,
    /// Simulation windows.
    pub sim: SimSpec,
    /// Traffic phases; empty means one implicit steady phase.
    pub phases: Vec<PhaseSpec>,
    /// Optional fault-injection overlay.
    pub faults: Option<FaultSpec>,
    /// Permutation axes, in document order.
    pub matrix: Vec<(String, AxisValues)>,
}

impl Default for Manifest {
    fn default() -> Self {
        Manifest {
            version: MANIFEST_VERSION,
            name: "scenario".to_string(),
            seed: 42,
            topology: TopologySpec::default(),
            placement: None,
            qos: Vec::new(),
            traffic: TrafficSpec::default(),
            sim: SimSpec::default(),
            phases: Vec::new(),
            faults: None,
            matrix: Vec::new(),
        }
    }
}

impl Fields for Manifest {
    const SECTION: &'static str = "manifest";
    const FIELDS: &'static [Field<Self>] = &[
        field!("scenario" => version, Int(MANIFEST_VERSION, MANIFEST_VERSION), Required),
        field!("name" => name, Text, Optional),
        field!("seed" => seed, Ty::U64, Optional),
        field!("topology" => topology, Section("topology"), Optional),
        field!("placement" => placement, Section("placement"), Quiet),
        field!("qos" => qos, Sections("qos", usize::MAX), Quiet),
        field!("traffic" => traffic, Section("traffic"), Optional),
        field!("sim" => sim, Section("sim"), Optional),
        field!("phases" => phases, Sections("phases", MAX_PHASES), Quiet),
        field!("faults" => faults, Section("faults"), Quiet),
        field!("matrix" => matrix, Ty::Matrix, Quiet),
    ];

    fn check(&self) -> Result<(), FieldError> {
        let invalid = |field: &str, reason: String| FieldError::Invalid {
            field: field.to_string(),
            reason,
        };
        if !self.qos.is_empty() && self.placement.is_none() {
            return Err(invalid(
                "qos",
                "qos flows require a placement section (the per-row solver places the \
                 links the flows constrain)"
                    .to_string(),
            ));
        }
        let placed = |(axis, _): &&(String, AxisValues)| {
            overrides(axis).is_some_and(|path| path.starts_with("placement."))
        };
        if let (None, Some((axis, _))) = (&self.placement, self.matrix.iter().find(placed)) {
            return Err(invalid(
                &format!("matrix.{axis}"),
                format!("a {axis} axis requires a placement section"),
            ));
        }
        let count = self.expansion_count();
        if count == 0 || count > MAX_SCENARIOS {
            return Err(invalid(
                "matrix",
                format!("manifest expands to {count} scenarios (allowed: 1..={MAX_SCENARIOS})"),
            ));
        }
        Ok(())
    }
}

impl Manifest {
    /// Parses a manifest from its JSON text, rejecting unknown fields and
    /// unsupported versions with a structured [`ManifestError`].
    pub fn parse(text: &str) -> Result<Self, ManifestError> {
        let v = noc_json::parse(text).map_err(|e| ManifestError::Json(e.to_string()))?;
        Manifest::from_value(&v)
    }

    /// Parses a manifest from an already-decoded JSON value (the daemon's
    /// inline `"manifest"` field).
    pub fn from_value(v: &Value) -> Result<Self, ManifestError> {
        if !matches!(v, Value::Obj(_)) {
            return Err(ManifestError::Json(
                "manifest must be a JSON object".to_string(),
            ));
        }
        let version = v.get("scenario").and_then(Value::as_i128);
        let version = version.ok_or(ManifestError::MissingVersion)?;
        if version != MANIFEST_VERSION as i128 {
            return Err(ManifestError::BadVersion { found: version });
        }
        Ok(field::read(v, true)?)
    }

    /// Number of fully-resolved scenarios this manifest expands to: the
    /// product of all `matrix` axis lengths (1 when there is no matrix).
    pub fn expansion_count(&self) -> usize {
        self.matrix
            .iter()
            .map(|(_, values)| values.len())
            .try_fold(1usize, |acc, len| acc.checked_mul(len))
            .unwrap_or(usize::MAX)
    }

    /// Serialises the manifest back to its JSON value — the exact inverse
    /// of [`Manifest::from_value`] (optional sections and unset options
    /// are omitted, so defaults round-trip).
    pub fn to_value(&self) -> Value {
        field::write(self)
    }
}

/// Every section's field table and the matrix axes, as `docs/SCENARIOS.md`
/// shows them: a section name and its Markdown table.
pub fn reference() -> Vec<(&'static str, String)> {
    fn section<S: Fields>() -> (&'static str, String) {
        (
            S::SECTION,
            field::table(&field::docs::<S>(), false, "left off"),
        )
    }
    let mut axes = String::from("| axis | overrides |\n|---|---|\n");
    for (axis, path) in AXES {
        axes.push_str(&format!("| `{axis}` | `{path}` |\n"));
    }
    vec![
        section::<Manifest>(),
        section::<TopologySpec>(),
        section::<PlacementSpec>(),
        section::<QosFlow>(),
        section::<TrafficSpec>(),
        section::<SimSpec>(),
        section::<PhaseSpec>(),
        section::<FaultSpec>(),
        ("matrix", axes),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_round_trip() {
        let m = Manifest::parse(r#"{"scenario":1}"#).unwrap();
        assert_eq!(m, Manifest::default());
        assert_eq!(Manifest::parse(&m.to_value().compact()).unwrap(), m);
    }

    #[test]
    fn full_manifest_round_trips() {
        let text = r#"{"scenario":1,"name":"full","seed":9,
            "topology":{"n":8,"links":[[0,3],[3,7]]},
            "placement":{"c":4,"moves":500,"chains":2,"strategy":"greedy"},
            "qos":[{"src":0,"dst":63,"weight":2.5}],
            "traffic":{"pattern":"tp","rate":0.05,"hotspot":5,"hotspot_weight":0.3},
            "sim":{"flit":128,"warmup":100,"cycles":400},
            "phases":[{"name":"burst","cycles":200,"rate_scale":2.0,
                       "pattern":"ur","hotspot":9,
                       "fail_links":[[0,3]],"degrade_links":[[3,7]]}],
            "faults":{"seed":7},
            "matrix":{"seed":{"range":[1,4]},"rate":[0.01,0.02]}}"#;
        let m = Manifest::parse(text).unwrap();
        assert_eq!(m.expansion_count(), 8);
        assert_eq!(Manifest::parse(&m.to_value().compact()).unwrap(), m);
    }

    #[test]
    fn rejects_missing_and_bad_versions() {
        assert_eq!(
            Manifest::parse(r#"{"name":"x"}"#).unwrap_err(),
            ManifestError::MissingVersion
        );
        assert_eq!(
            Manifest::parse(r#"{"scenario":2}"#).unwrap_err(),
            ManifestError::BadVersion { found: 2 }
        );
    }

    #[test]
    fn rejects_unknown_fields_everywhere() {
        let top = Manifest::parse(r#"{"scenario":1,"nope":3}"#).unwrap_err();
        assert!(matches!(
            top,
            ManifestError::UnknownField {
                section: "manifest",
                ..
            }
        ));
        let nested = Manifest::parse(r#"{"scenario":1,"topology":{"n":4,"wires":2}}"#).unwrap_err();
        assert!(matches!(
            nested,
            ManifestError::UnknownField {
                section: "topology",
                ..
            }
        ));
        let axis = Manifest::parse(r#"{"scenario":1,"matrix":{"spin":[1]}}"#).unwrap_err();
        assert!(matches!(
            axis,
            ManifestError::UnknownField {
                section: "matrix",
                ..
            }
        ));
    }

    #[test]
    fn rejects_out_of_bounds() {
        assert!(Manifest::parse(r#"{"scenario":1,"topology":{"n":1}}"#).is_err());
        assert!(Manifest::parse(r#"{"scenario":1,"topology":{"n":33}}"#).is_err());
        assert!(Manifest::parse(r#"{"scenario":1,"traffic":{"rate":1.5}}"#).is_err());
        assert!(Manifest::parse(r#"{"scenario":1,"traffic":{"pattern":"zz"}}"#).is_err());
        assert!(Manifest::parse(r#"{"scenario":1,"qos":[{"src":0,"dst":1}]}"#).is_err());
        assert!(Manifest::parse(r#"{"scenario":1,"matrix":{"c":[2,3]}}"#).is_err());
        // A link limit past the widest cross-section of the largest row
        // would make the solver allocate without bound.
        let huge_c = r#"{"scenario":1,"placement":{"c":10000000000000}}"#;
        assert!(Manifest::parse(huge_c).is_err());
        let huge_axis = Manifest::parse(
            r#"{"scenario":1,"placement":{"c":2},"matrix":{"c":[2,10000000000000]}}"#,
        )
        .unwrap();
        assert!(crate::expand(&huge_axis).is_err());
        // Oversized expansions are refused at parse time.
        assert!(Manifest::parse(
            r#"{"scenario":1,"matrix":{"seed":{"range":[1,100]},"flit":{"range":[1,100]}}}"#
        )
        .is_err());
        // Each of these was once accepted and misread (or panicked a debug
        // build); each is refused naming its field.
        for (text, field) in [
            (
                r#"{"scenario":1,"sim":{"warmup":18446744073709551615,"cycles":2}}"#,
                "sim.warmup",
            ),
            (
                r#"{"scenario":1,"matrix":{"seed":{"range":[0,18446744073709551616]}}}"#,
                "matrix.seed",
            ),
            (
                r#"{"scenario":1,"matrix":{"seed":{"range":[
                    -170141183460469231731687303715884105728,
                    170141183460469231731687303715884105727]}}}"#,
                "matrix.seed",
            ),
            (
                r#"{"scenario":1,"matrix":{"n":[18446744073709551620],"seed":[18446744073709551616]}}"#,
                "matrix.n",
            ),
        ] {
            let err = Manifest::parse(text)
                .and_then(|m| crate::expand(&m))
                .unwrap_err();
            assert!(
                matches!(&err, ManifestError::Invalid { field: f, .. } if f == field),
                "{text}: {err}"
            );
        }
    }

    #[test]
    fn range_axis_counts_inclusively() {
        let m = Manifest::parse(r#"{"scenario":1,"matrix":{"seed":{"range":[10,20,5]}}}"#).unwrap();
        assert_eq!(m.expansion_count(), 3);
        let (_, values) = &m.matrix[0];
        assert_eq!(values.value(2), Value::Int(20));
    }
}
