//! The versioned scenario manifest: model, strict parser, serializer.
//!
//! A manifest is one `noc-json` object (NDJSON-friendly: it serialises to
//! a single compact line) describing a full experiment. Parsing is
//! *strict*: unknown fields anywhere in the document and unsupported
//! versions are rejected with a structured [`ManifestError`], so a typo
//! can never silently fall back to a default.

use noc_json::Value;
use noc_placement::InitialStrategy;
use noc_topology::MAX_C;
use noc_traffic::SyntheticPattern;

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

/// Largest mesh side length a scenario may simulate (the cycle-level
/// simulator's practical envelope, matching the daemon's `simulate` cap).
pub const MAX_N: usize = 32;

/// Upper bound on `warmup + cycles` for one phase.
pub const MAX_PHASE_CYCLES: u64 = 2_000_000;

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

/// Ask the placement solver for the express links instead of listing them.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacementSpec {
    /// Link limit `C` (max cross-section).
    pub c: usize,
    /// SA move budget per chain.
    pub moves: usize,
    /// Independent annealing chains (best-of-K).
    pub chains: usize,
    /// Initial-solution strategy: `"dnc"`, `"random"`, or `"greedy"`.
    pub strategy: String,
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

/// The base traffic of a scenario (phases may override per phase).
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficSpec {
    /// Synthetic pattern wire name (`ur|tp|br|bc|sh|hs|nn`).
    pub pattern: String,
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
            pattern: "ur".to_string(),
            rate: 0.02,
            hotspot: None,
            hotspot_weight: 0.5,
        }
    }
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
    pub pattern: Option<String>,
    /// Hotspot target override (hotspot migration moves this per phase).
    pub hotspot: Option<usize>,
    /// Express links that have failed for this phase: removed from every
    /// row/column placement that carries them.
    pub fail_links: Vec<(usize, usize)>,
    /// Express links degraded for this phase: split at their midpoint, so
    /// the span survives but costs an extra router traversal.
    pub degrade_links: Vec<(usize, usize)>,
}

/// Fault-injection overlay: the per-phase link events compiled onto a
/// seeded [`faultpoint::Schedule`].
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    /// Seed of the compiled schedule.
    pub seed: u64,
}

/// One permutation axis value.
#[derive(Debug, Clone, PartialEq)]
pub enum AxisValue {
    /// An integer value (seeds, sizes, budgets).
    Int(i128),
    /// A floating-point value (rates).
    Float(f64),
    /// A string value (pattern names).
    Str(String),
}

impl AxisValue {
    /// Renders the value as its JSON form.
    pub fn to_json(&self) -> Value {
        match self {
            AxisValue::Int(i) => Value::Int(*i),
            AxisValue::Float(f) => Value::Float(*f),
            AxisValue::Str(s) => Value::Str(s.clone()),
        }
    }
}

/// The values of one `matrix` axis: an explicit list, or an inclusive
/// integer range.
#[derive(Debug, Clone, PartialEq)]
pub enum AxisValues {
    /// Explicit scalar values, expanded in listed order.
    List(Vec<AxisValue>),
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
    /// Number of values on this axis.
    pub fn len(&self) -> usize {
        match self {
            AxisValues::List(vs) => vs.len(),
            AxisValues::Range { lo, hi, step } => {
                if hi < lo {
                    0
                } else {
                    ((hi - lo) / step + 1) as usize
                }
            }
        }
    }

    /// Whether the axis is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `i`-th value of the axis.
    pub fn value(&self, i: usize) -> AxisValue {
        match self {
            AxisValues::List(vs) => vs[i].clone(),
            AxisValues::Range { lo, step, .. } => AxisValue::Int(lo + step * i as i128),
        }
    }
}

/// Axis names the permutation expander knows how to apply.
pub const AXIS_NAMES: &[&str] = &[
    "seed", "rate", "pattern", "n", "c", "flit", "moves", "chains",
];

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

fn obj_fields<'v>(
    v: &'v Value,
    section: &'static str,
    field: &str,
) -> Result<&'v [(String, Value)], ManifestError> {
    match v {
        Value::Obj(pairs) => Ok(pairs),
        _ => Err(ManifestError::Invalid {
            field: format!("{section}.{field}"),
            reason: "must be an object".to_string(),
        }),
    }
}

fn get_u64(v: &Value, section: &'static str, field: &str) -> Result<u64, ManifestError> {
    v.as_u64().ok_or_else(|| ManifestError::Invalid {
        field: format!("{section}.{field}"),
        reason: "must be a non-negative integer".to_string(),
    })
}

fn get_usize(v: &Value, section: &'static str, field: &str) -> Result<usize, ManifestError> {
    v.as_usize().ok_or_else(|| ManifestError::Invalid {
        field: format!("{section}.{field}"),
        reason: "must be a non-negative integer".to_string(),
    })
}

fn get_f64(v: &Value, section: &'static str, field: &str) -> Result<f64, ManifestError> {
    v.as_f64().ok_or_else(|| ManifestError::Invalid {
        field: format!("{section}.{field}"),
        reason: "must be a number".to_string(),
    })
}

fn get_str(v: &Value, section: &'static str, field: &str) -> Result<String, ManifestError> {
    v.as_str()
        .map(str::to_string)
        .ok_or_else(|| ManifestError::Invalid {
            field: format!("{section}.{field}"),
            reason: "must be a string".to_string(),
        })
}

fn get_links(
    v: &Value,
    section: &'static str,
    field: &str,
) -> Result<Vec<(usize, usize)>, ManifestError> {
    let bad = |reason: &str| ManifestError::Invalid {
        field: format!("{section}.{field}"),
        reason: reason.to_string(),
    };
    let arr = v
        .as_array()
        .ok_or_else(|| bad("must be an array of [a, b] pairs"))?;
    arr.iter()
        .map(|pair| {
            let pair = pair
                .as_array()
                .filter(|p| p.len() == 2)
                .ok_or_else(|| bad("each link must be a two-element array [a, b]"))?;
            let a = pair[0]
                .as_usize()
                .ok_or_else(|| bad("link endpoints must be router indices"))?;
            let b = pair[1]
                .as_usize()
                .ok_or_else(|| bad("link endpoints must be router indices"))?;
            Ok((a.min(b), a.max(b)))
        })
        .collect()
}

fn links_json(links: &[(usize, usize)]) -> Value {
    Value::Arr(
        links
            .iter()
            .map(|&(a, b)| Value::Arr(vec![Value::Int(a as i128), Value::Int(b as i128)]))
            .collect(),
    )
}

/// Checks a pattern wire name against [`SyntheticPattern::NAMES`].
pub(crate) fn check_pattern(name: &str, field: &str) -> Result<(), ManifestError> {
    match SyntheticPattern::from_name(name) {
        Some(_) => Ok(()),
        None => Err(ManifestError::Invalid {
            field: field.to_string(),
            reason: format!(
                "unknown pattern {name:?} ({})",
                names(&SyntheticPattern::NAMES)
            ),
        }),
    }
}

fn names<T>(table: &[(&str, T)]) -> String {
    table.iter().map(|e| e.0).collect::<Vec<_>>().join("|")
}

fn parse_topology(v: &Value) -> Result<TopologySpec, ManifestError> {
    let mut spec = TopologySpec::default();
    for (k, val) in obj_fields(v, "manifest", "topology")? {
        match k.as_str() {
            "n" => spec.n = get_usize(val, "topology", "n")?,
            "links" => spec.links = get_links(val, "topology", "links")?,
            other => {
                return Err(ManifestError::UnknownField {
                    section: "topology",
                    field: other.to_string(),
                })
            }
        }
    }
    if !(2..=MAX_N).contains(&spec.n) {
        return Err(ManifestError::Invalid {
            field: "topology.n".to_string(),
            reason: format!("must be in 2..={MAX_N}"),
        });
    }
    Ok(spec)
}

fn parse_placement(v: &Value) -> Result<PlacementSpec, ManifestError> {
    let mut c = None;
    let mut spec = PlacementSpec {
        c: 0,
        moves: 2_000,
        chains: 1,
        strategy: "dnc".to_string(),
    };
    for (k, val) in obj_fields(v, "manifest", "placement")? {
        match k.as_str() {
            "c" => c = Some(get_usize(val, "placement", "c")?),
            "moves" => spec.moves = get_usize(val, "placement", "moves")?,
            "chains" => spec.chains = get_usize(val, "placement", "chains")?,
            "strategy" => spec.strategy = get_str(val, "placement", "strategy")?,
            other => {
                return Err(ManifestError::UnknownField {
                    section: "placement",
                    field: other.to_string(),
                })
            }
        }
    }
    spec.c = c.ok_or(ManifestError::Missing {
        section: "placement",
        field: "c",
    })?;
    if !(1..=MAX_C).contains(&spec.c) {
        return Err(ManifestError::Invalid {
            field: "placement.c".to_string(),
            reason: format!("must be in 1..={MAX_C}"),
        });
    }
    if spec.moves > 2_000_000 {
        return Err(ManifestError::Invalid {
            field: "placement.moves".to_string(),
            reason: "must be at most 2000000".to_string(),
        });
    }
    if !(1..=64).contains(&spec.chains) {
        return Err(ManifestError::Invalid {
            field: "placement.chains".to_string(),
            reason: "must be in 1..=64".to_string(),
        });
    }
    if InitialStrategy::from_name(&spec.strategy).is_none() {
        return Err(ManifestError::Invalid {
            field: "placement.strategy".to_string(),
            reason: format!(
                "unknown strategy {:?} ({})",
                spec.strategy,
                names(&InitialStrategy::NAMES)
            ),
        });
    }
    Ok(spec)
}

fn parse_qos(v: &Value) -> Result<Vec<QosFlow>, ManifestError> {
    let arr = v.as_array().ok_or_else(|| ManifestError::Invalid {
        field: "qos".to_string(),
        reason: "must be an array of flow objects".to_string(),
    })?;
    arr.iter()
        .map(|flow| {
            let mut src = None;
            let mut dst = None;
            let mut weight = 1.0;
            for (k, val) in obj_fields(flow, "qos", "flow")? {
                match k.as_str() {
                    "src" => src = Some(get_usize(val, "qos", "src")?),
                    "dst" => dst = Some(get_usize(val, "qos", "dst")?),
                    "weight" => weight = get_f64(val, "qos", "weight")?,
                    other => {
                        return Err(ManifestError::UnknownField {
                            section: "qos",
                            field: other.to_string(),
                        })
                    }
                }
            }
            if !weight.is_finite() || weight <= 0.0 {
                return Err(ManifestError::Invalid {
                    field: "qos.weight".to_string(),
                    reason: "must be positive".to_string(),
                });
            }
            Ok(QosFlow {
                src: src.ok_or(ManifestError::Missing {
                    section: "qos",
                    field: "src",
                })?,
                dst: dst.ok_or(ManifestError::Missing {
                    section: "qos",
                    field: "dst",
                })?,
                weight,
            })
        })
        .collect()
}

fn parse_traffic(v: &Value) -> Result<TrafficSpec, ManifestError> {
    let mut spec = TrafficSpec::default();
    for (k, val) in obj_fields(v, "manifest", "traffic")? {
        match k.as_str() {
            "pattern" => spec.pattern = get_str(val, "traffic", "pattern")?,
            "rate" => spec.rate = get_f64(val, "traffic", "rate")?,
            "hotspot" => spec.hotspot = Some(get_usize(val, "traffic", "hotspot")?),
            "hotspot_weight" => spec.hotspot_weight = get_f64(val, "traffic", "hotspot_weight")?,
            other => {
                return Err(ManifestError::UnknownField {
                    section: "traffic",
                    field: other.to_string(),
                })
            }
        }
    }
    check_pattern(&spec.pattern, "traffic.pattern")?;
    if !(spec.rate > 0.0 && spec.rate <= 1.0) {
        return Err(ManifestError::Invalid {
            field: "traffic.rate".to_string(),
            reason: "must be in (0, 1]".to_string(),
        });
    }
    if !(spec.hotspot_weight > 0.0 && spec.hotspot_weight < 1.0) {
        return Err(ManifestError::Invalid {
            field: "traffic.hotspot_weight".to_string(),
            reason: "must be in (0, 1)".to_string(),
        });
    }
    Ok(spec)
}

fn parse_sim(v: &Value) -> Result<SimSpec, ManifestError> {
    let mut spec = SimSpec::default();
    for (k, val) in obj_fields(v, "manifest", "sim")? {
        match k.as_str() {
            "flit" => {
                let flit = get_u64(val, "sim", "flit")?;
                if flit == 0 || flit > 4_096 {
                    return Err(ManifestError::Invalid {
                        field: "sim.flit".to_string(),
                        reason: "must be in 1..=4096".to_string(),
                    });
                }
                spec.flit = flit as u32;
            }
            "warmup" => spec.warmup = get_u64(val, "sim", "warmup")?,
            "cycles" => spec.cycles = get_u64(val, "sim", "cycles")?,
            other => {
                return Err(ManifestError::UnknownField {
                    section: "sim",
                    field: other.to_string(),
                })
            }
        }
    }
    if spec.cycles == 0 || spec.warmup + spec.cycles > MAX_PHASE_CYCLES {
        return Err(ManifestError::Invalid {
            field: "sim.cycles".to_string(),
            reason: format!("warmup + cycles must be in 1..={MAX_PHASE_CYCLES}"),
        });
    }
    Ok(spec)
}

fn parse_phase(v: &Value, index: usize) -> Result<PhaseSpec, ManifestError> {
    let mut spec = PhaseSpec {
        name: format!("phase{index}"),
        cycles: None,
        rate_scale: 1.0,
        pattern: None,
        hotspot: None,
        fail_links: Vec::new(),
        degrade_links: Vec::new(),
    };
    for (k, val) in obj_fields(v, "phases", "phase")? {
        match k.as_str() {
            "name" => spec.name = get_str(val, "phases", "name")?,
            "cycles" => spec.cycles = Some(get_u64(val, "phases", "cycles")?),
            "rate_scale" => spec.rate_scale = get_f64(val, "phases", "rate_scale")?,
            "pattern" => {
                let p = get_str(val, "phases", "pattern")?;
                check_pattern(&p, "phases.pattern")?;
                spec.pattern = Some(p);
            }
            "hotspot" => spec.hotspot = Some(get_usize(val, "phases", "hotspot")?),
            "fail_links" => spec.fail_links = get_links(val, "phases", "fail_links")?,
            "degrade_links" => spec.degrade_links = get_links(val, "phases", "degrade_links")?,
            other => {
                return Err(ManifestError::UnknownField {
                    section: "phases",
                    field: other.to_string(),
                })
            }
        }
    }
    if !spec.rate_scale.is_finite() || spec.rate_scale <= 0.0 {
        return Err(ManifestError::Invalid {
            field: "phases.rate_scale".to_string(),
            reason: "must be positive".to_string(),
        });
    }
    if let Some(c) = spec.cycles {
        if c == 0 || c > MAX_PHASE_CYCLES {
            return Err(ManifestError::Invalid {
                field: "phases.cycles".to_string(),
                reason: format!("must be in 1..={MAX_PHASE_CYCLES}"),
            });
        }
    }
    Ok(spec)
}

fn parse_faults(v: &Value, default_seed: u64) -> Result<FaultSpec, ManifestError> {
    let mut spec = FaultSpec { seed: default_seed };
    for (k, val) in obj_fields(v, "manifest", "faults")? {
        match k.as_str() {
            "seed" => spec.seed = get_u64(val, "faults", "seed")?,
            other => {
                return Err(ManifestError::UnknownField {
                    section: "faults",
                    field: other.to_string(),
                })
            }
        }
    }
    Ok(spec)
}

fn parse_axis_values(axis: &str, v: &Value) -> Result<AxisValues, ManifestError> {
    let field = format!("matrix.{axis}");
    match v {
        Value::Arr(items) => {
            if items.is_empty() {
                return Err(ManifestError::Invalid {
                    field,
                    reason: "axis value list must not be empty".to_string(),
                });
            }
            let values = items
                .iter()
                .map(|item| match item {
                    Value::Int(i) => Ok(AxisValue::Int(*i)),
                    Value::Float(f) => Ok(AxisValue::Float(*f)),
                    Value::Str(s) => Ok(AxisValue::Str(s.clone())),
                    _ => Err(ManifestError::Invalid {
                        field: field.clone(),
                        reason: "axis values must be numbers or strings".to_string(),
                    }),
                })
                .collect::<Result<Vec<_>, _>>()?;
            Ok(AxisValues::List(values))
        }
        Value::Obj(pairs) => {
            let mut range = None;
            for (k, val) in pairs {
                match k.as_str() {
                    "range" => {
                        let arr = val
                            .as_array()
                            .filter(|a| a.len() == 2 || a.len() == 3)
                            .ok_or(ManifestError::Invalid {
                                field: field.clone(),
                                reason: "range must be [lo, hi] or [lo, hi, step]".to_string(),
                            })?;
                        let int = |i: usize| {
                            arr[i].as_i128().ok_or(ManifestError::Invalid {
                                field: field.clone(),
                                reason: "range bounds must be integers".to_string(),
                            })
                        };
                        let (lo, hi) = (int(0)?, int(1)?);
                        let step = if arr.len() == 3 { int(2)? } else { 1 };
                        if step < 1 || hi < lo {
                            return Err(ManifestError::Invalid {
                                field: field.clone(),
                                reason: "range requires lo <= hi and step >= 1".to_string(),
                            });
                        }
                        range = Some(AxisValues::Range { lo, hi, step });
                    }
                    other => {
                        return Err(ManifestError::UnknownField {
                            section: "matrix",
                            field: format!("{axis}.{other}"),
                        })
                    }
                }
            }
            range.ok_or(ManifestError::Invalid {
                field,
                reason: "axis object must contain \"range\"".to_string(),
            })
        }
        _ => Err(ManifestError::Invalid {
            field,
            reason: "axis must be a value list or a {\"range\": [lo, hi]} object".to_string(),
        }),
    }
}

fn parse_matrix(v: &Value) -> Result<Vec<(String, AxisValues)>, ManifestError> {
    let pairs = obj_fields(v, "manifest", "matrix")?;
    let mut axes = Vec::with_capacity(pairs.len());
    for (axis, val) in pairs {
        if !AXIS_NAMES.contains(&axis.as_str()) {
            return Err(ManifestError::UnknownField {
                section: "matrix",
                field: axis.clone(),
            });
        }
        if axes.iter().any(|(name, _)| name == axis) {
            return Err(ManifestError::Invalid {
                field: format!("matrix.{axis}"),
                reason: "duplicate axis".to_string(),
            });
        }
        axes.push((axis.clone(), parse_axis_values(axis, val)?));
    }
    Ok(axes)
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
        let pairs = match v {
            Value::Obj(pairs) => pairs,
            _ => {
                return Err(ManifestError::Json(
                    "manifest must be a JSON object".to_string(),
                ))
            }
        };
        let version = match v.get("scenario") {
            None => return Err(ManifestError::MissingVersion),
            Some(val) => val.as_i128().ok_or(ManifestError::MissingVersion)?,
        };
        if version != MANIFEST_VERSION as i128 {
            return Err(ManifestError::BadVersion { found: version });
        }
        let mut m = Manifest::default();
        for (k, val) in pairs {
            match k.as_str() {
                "scenario" => {}
                "name" => m.name = get_str(val, "manifest", "name")?,
                "seed" => m.seed = get_u64(val, "manifest", "seed")?,
                "topology" => m.topology = parse_topology(val)?,
                "placement" => m.placement = Some(parse_placement(val)?),
                "qos" => m.qos = parse_qos(val)?,
                "traffic" => m.traffic = parse_traffic(val)?,
                "sim" => m.sim = parse_sim(val)?,
                "phases" => {
                    let arr = val.as_array().ok_or_else(|| ManifestError::Invalid {
                        field: "phases".to_string(),
                        reason: "must be an array of phase objects".to_string(),
                    })?;
                    if arr.len() > 32 {
                        return Err(ManifestError::Invalid {
                            field: "phases".to_string(),
                            reason: "at most 32 phases".to_string(),
                        });
                    }
                    m.phases = arr
                        .iter()
                        .enumerate()
                        .map(|(i, p)| parse_phase(p, i))
                        .collect::<Result<Vec<_>, _>>()?;
                }
                "faults" => m.faults = Some(parse_faults(val, 42)?),
                "matrix" => m.matrix = parse_matrix(val)?,
                other => {
                    return Err(ManifestError::UnknownField {
                        section: "manifest",
                        field: other.to_string(),
                    })
                }
            }
        }
        if !m.qos.is_empty() && m.placement.is_none() {
            return Err(ManifestError::Invalid {
                field: "qos".to_string(),
                reason: "qos flows require a placement section (the per-row solver places the \
                         links the flows constrain)"
                    .to_string(),
            });
        }
        if m.matrix.iter().any(|(name, _)| name == "c") && m.placement.is_none() {
            return Err(ManifestError::Invalid {
                field: "matrix.c".to_string(),
                reason: "a c axis requires a placement section".to_string(),
            });
        }
        if m.matrix
            .iter()
            .any(|(name, _)| name == "moves" || name == "chains")
            && m.placement.is_none()
        {
            return Err(ManifestError::Invalid {
                field: "matrix".to_string(),
                reason: "moves/chains axes require a placement section".to_string(),
            });
        }
        let count = m.expansion_count();
        if count == 0 || count > MAX_SCENARIOS {
            return Err(ManifestError::Invalid {
                field: "matrix".to_string(),
                reason: format!(
                    "manifest expands to {count} scenarios (allowed: 1..={MAX_SCENARIOS})"
                ),
            });
        }
        Ok(m)
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
        let mut fields: Vec<(String, Value)> = vec![
            ("scenario".to_string(), Value::Int(self.version as i128)),
            ("name".to_string(), Value::Str(self.name.clone())),
            ("seed".to_string(), Value::Int(self.seed as i128)),
            (
                "topology".to_string(),
                noc_json::obj! {
                    "n" => Value::Int(self.topology.n as i128),
                    "links" => links_json(&self.topology.links),
                },
            ),
        ];
        if let Some(p) = &self.placement {
            fields.push((
                "placement".to_string(),
                noc_json::obj! {
                    "c" => Value::Int(p.c as i128),
                    "moves" => Value::Int(p.moves as i128),
                    "chains" => Value::Int(p.chains as i128),
                    "strategy" => Value::Str(p.strategy.clone()),
                },
            ));
        }
        if !self.qos.is_empty() {
            fields.push((
                "qos".to_string(),
                Value::Arr(
                    self.qos
                        .iter()
                        .map(|f| {
                            noc_json::obj! {
                                "src" => Value::Int(f.src as i128),
                                "dst" => Value::Int(f.dst as i128),
                                "weight" => Value::Float(f.weight),
                            }
                        })
                        .collect(),
                ),
            ));
        }
        let mut traffic = vec![
            (
                "pattern".to_string(),
                Value::Str(self.traffic.pattern.clone()),
            ),
            ("rate".to_string(), Value::Float(self.traffic.rate)),
        ];
        if let Some(h) = self.traffic.hotspot {
            traffic.push(("hotspot".to_string(), Value::Int(h as i128)));
        }
        traffic.push((
            "hotspot_weight".to_string(),
            Value::Float(self.traffic.hotspot_weight),
        ));
        fields.push(("traffic".to_string(), Value::Obj(traffic)));
        fields.push((
            "sim".to_string(),
            noc_json::obj! {
                "flit" => Value::Int(self.sim.flit as i128),
                "warmup" => Value::Int(self.sim.warmup as i128),
                "cycles" => Value::Int(self.sim.cycles as i128),
            },
        ));
        if !self.phases.is_empty() {
            fields.push((
                "phases".to_string(),
                Value::Arr(
                    self.phases
                        .iter()
                        .map(|p| {
                            let mut phase = vec![("name".to_string(), Value::Str(p.name.clone()))];
                            if let Some(c) = p.cycles {
                                phase.push(("cycles".to_string(), Value::Int(c as i128)));
                            }
                            phase.push(("rate_scale".to_string(), Value::Float(p.rate_scale)));
                            if let Some(pat) = &p.pattern {
                                phase.push(("pattern".to_string(), Value::Str(pat.clone())));
                            }
                            if let Some(h) = p.hotspot {
                                phase.push(("hotspot".to_string(), Value::Int(h as i128)));
                            }
                            if !p.fail_links.is_empty() {
                                phase.push(("fail_links".to_string(), links_json(&p.fail_links)));
                            }
                            if !p.degrade_links.is_empty() {
                                phase.push((
                                    "degrade_links".to_string(),
                                    links_json(&p.degrade_links),
                                ));
                            }
                            Value::Obj(phase)
                        })
                        .collect(),
                ),
            ));
        }
        if let Some(f) = &self.faults {
            fields.push((
                "faults".to_string(),
                noc_json::obj! { "seed" => Value::Int(f.seed as i128) },
            ));
        }
        if !self.matrix.is_empty() {
            fields.push((
                "matrix".to_string(),
                Value::Obj(
                    self.matrix
                        .iter()
                        .map(|(axis, values)| {
                            let v = match values {
                                AxisValues::List(vs) => {
                                    Value::Arr(vs.iter().map(AxisValue::to_json).collect())
                                }
                                AxisValues::Range { lo, hi, step } => noc_json::obj! {
                                    "range" => Value::Arr(vec![
                                        Value::Int(*lo),
                                        Value::Int(*hi),
                                        Value::Int(*step),
                                    ]),
                                },
                            };
                            (axis.clone(), v)
                        })
                        .collect(),
                ),
            ));
        }
        Value::Obj(fields)
    }
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
    }

    #[test]
    fn range_axis_counts_inclusively() {
        let m = Manifest::parse(r#"{"scenario":1,"matrix":{"seed":{"range":[10,20,5]}}}"#).unwrap();
        assert_eq!(m.expansion_count(), 3);
        let (_, values) = &m.matrix[0];
        assert_eq!(values.value(2), AxisValue::Int(20));
    }
}
