//! Every field of every compute request kind, sent through each surface
//! that reads it: request lines, CLI flags and, for the fields a scenario
//! manifest shares, a manifest section and a matrix axis. Each value is
//! a bound, one past a bound, a 2^64-wide overflow, the wrong type or a
//! seeded in-bound draw. Every surface must take the value or refuse it
//! naming the field, never panic, and the surfaces must agree on which
//! values a field admits. Nothing runs: the values are only read.

use noc_json::Value;
use noc_rng::rngs::SmallRng;
use noc_rng::{RngCore, SeedableRng};
use noc_scenario::field::{docs, FieldDoc, Fields, Ty};
use noc_scenario::manifest::AXES;
use noc_scenario::{expand, Manifest, ManifestError};
use noc_scenario::{PlacementSpec, SimSpec, TopologySpec, TrafficSpec};
use noc_service::protocol::parse_request;
use noc_service::spec::{read_flags, KINDS};
use std::collections::BTreeSet;
use std::panic::catch_unwind;

/// Request fields a manifest holds too, with the manifest field's path.
const SHARED: [(&str, &str); 9] = [
    ("n", "topology.n"),
    ("c", "placement.c"),
    ("moves", "placement.moves"),
    ("chains", "placement.chains"),
    ("strategy", "placement.strategy"),
    ("pattern", "traffic.pattern"),
    ("rate", "traffic.rate"),
    ("flit", "sim.flit"),
    ("seed", "seed"),
];

/// The manifest every manifest-surface value is written into.
const MANIFEST: &str = r#"{"scenario":1,"topology":{"n":4},"placement":{"c":1},
    "sim":{"warmup":10,"cycles":20}}"#;

fn manifest_field(path: &str) -> FieldDoc {
    fn find<S: Fields>(name: &str) -> Option<FieldDoc> {
        docs::<S>().into_iter().find(|f| f.name == name)
    }
    let field = match path.split_once('.') {
        Some(("topology", name)) => find::<TopologySpec>(name),
        Some(("placement", name)) => find::<PlacementSpec>(name),
        Some(("traffic", name)) => find::<TrafficSpec>(name),
        Some(("sim", name)) => find::<SimSpec>(name),
        _ => find::<Manifest>(path),
    };
    field.unwrap_or_else(|| panic!("manifest declares no {path}"))
}

/// The values tried for a field of type `ty`.
fn values(ty: Ty, rng: &mut SmallRng) -> Vec<Value> {
    let s = |s: &str| Value::Str(s.to_string());
    match ty {
        Ty::Int(min, max) => {
            let draw = min + rng.next_u64() % (max - min).saturating_add(1).max(1);
            vec![
                Value::Int(min.into()),
                Value::Int(max.into()),
                Value::Int(i128::from(min) - 1),
                Value::Int(i128::from(max) + 1),
                Value::Int((1i128 << 64) + i128::from(min)),
                s("x"),
                Value::Int(draw.into()),
            ]
        }
        Ty::Rate => vec![
            Value::Float(f64::MIN_POSITIVE),
            Value::Float(1.0),
            Value::Float(0.0),
            Value::Float(1.5),
            Value::Int(1 << 64),
            s("x"),
            Value::Float((rng.next_u64() % 1000 + 1) as f64 / 1000.0),
        ],
        Ty::RateFrom(min) => vec![
            Value::Float(min),
            Value::Float(1.0),
            Value::Float(min * 0.999),
            Value::Float(f64::MIN_POSITIVE),
            Value::Float(1.5),
            Value::Int(1 << 64),
            s("x"),
            Value::Float(min + (1.0 - min) * (rng.next_u64() % 1000) as f64 / 1000.0),
        ],
        Ty::Pattern => ["ur", "TP", "br", "bc", "sh", "hs", "nn", "zz"]
            .map(s)
            .to_vec(),
        Ty::Strategy => ["dnc", "d&c", "random", "greedy", "zz"].map(s).to_vec(),
        Ty::Links => ["[]", "[[0,2]]", "[[2,0],[1,3]]", "[[0,99]]", "[[1]]", "5"]
            .map(|text| noc_json::parse(text).unwrap())
            .to_vec(),
        Ty::Manifest => [MANIFEST, r#"{"scenario":2}"#, r#"{"scenario":1,"bogus":1}"#]
            .map(|text| noc_json::parse(text).unwrap())
            .to_vec(),
        other => panic!("no request field holds {other:?}"),
    }
}

/// A value every required field takes.
fn base(ty: Ty) -> Value {
    match ty {
        Ty::Int(min, max) => Value::Int(4u64.clamp(min, max).into()),
        Ty::Rate => Value::Float(0.02),
        Ty::Pattern => Value::Str("ur".into()),
        Ty::Manifest => noc_json::parse(MANIFEST).unwrap(),
        other => panic!("no required field holds {other:?}"),
    }
}

/// A value as a CLI flag writes it.
fn flag_text(v: &Value) -> String {
    let pair = |p: &Value| match p.as_array() {
        Some([a, b]) => Some(format!("{}-{}", a.compact(), b.compact())),
        _ => None,
    };
    match v {
        Value::Str(s) => s.clone(),
        Value::Arr(links) => match links.iter().map(pair).collect::<Option<Vec<_>>>() {
            Some(pairs) => pairs.join(","),
            None => v.compact(),
        },
        other => other.compact(),
    }
}

/// Writes `value` at `path` (`section.field` or a top-level field).
fn put(doc: &mut Value, path: &str, value: Value) {
    let (section, name) = path
        .split_once('.')
        .map_or((None, path), |(s, n)| (Some(s), n));
    let mut target = doc;
    if let Some(section) = section {
        let Value::Obj(pairs) = target else {
            unreachable!()
        };
        if !pairs.iter().any(|(k, _)| k == section) {
            pairs.push((section.to_string(), Value::Obj(Vec::new())));
        }
        target = &mut pairs.iter_mut().find(|(k, _)| k == section).unwrap().1;
    }
    let Value::Obj(pairs) = target else {
        unreachable!()
    };
    pairs.retain(|(k, _)| k != name);
    pairs.push((name.to_string(), value));
}

/// Reads a manifest and expands it, as `scenario run` would before
/// running anything.
fn read_manifest(doc: &Value) -> Result<(), ManifestError> {
    let text = doc.compact();
    let outcome = catch_unwind(|| expand(&Manifest::from_value(doc)?).map(drop));
    outcome.unwrap_or_else(|_| panic!("manifest {text} panicked"))
}

/// Whether a manifest refusal is of the field at `expected` itself (a
/// rule spanning fields, such as `c` below `n`, is not). Every refusal
/// names `expected` or the field at `path` it sets.
fn refuses_field(outcome: &Result<(), ManifestError>, expected: &str, path: &str) -> bool {
    match outcome {
        Ok(()) => false,
        Err(e) => {
            let shown = e.to_string();
            assert!(shown.contains(expected) || shown.contains(path), "{e}");
            matches!(e, ManifestError::Invalid { field, .. } if field == expected)
        }
    }
}

#[test]
fn every_field_means_the_same_on_every_surface() {
    let mut rng = SmallRng::seed_from_u64(0x5eed_f1e1d);
    let mut covered = BTreeSet::new();
    for kind in KINDS.iter().filter(|k| !(k.fields)().is_empty()) {
        let fields = (kind.fields)();
        for field in &fields {
            let flag = field.name.replace('_', "-");
            let shared = SHARED
                .iter()
                .find(|(name, _)| *name == field.name)
                .map(|&(_, path)| (path, manifest_field(path)))
                .filter(|(_, declared)| declared.ty == field.ty);
            for value in values(field.ty, &mut rng) {
                // The other required fields hold values they take.
                let mut line = vec![("kind".to_string(), Value::Str(kind.name.into()))];
                let mut flags = Vec::new();
                for other in fields.iter().filter(|f| f.default.is_none()) {
                    if other.name != field.name {
                        line.push((other.name.to_string(), base(other.ty)));
                        let text = flag_text(&base(other.ty));
                        flags.push((other.name.replace('_', "-"), text));
                    }
                }
                line.push((field.name.to_string(), value.clone()));
                flags.push((flag.clone(), flag_text(&value)));
                let line = Value::Obj(line).compact();

                let wire = catch_unwind(|| parse_request(&line).map(drop))
                    .unwrap_or_else(|_| panic!("request line {line} panicked"));
                let cli = catch_unwind(|| read_flags(kind, &flags, &[]).map(drop))
                    .unwrap_or_else(|_| panic!("flags {flags:?} panicked"));
                if let Err(e) = &wire {
                    assert!(e.contains(&format!("{:?}", field.name)), "{line}: {e}");
                }
                if let Err(e) = &cli {
                    assert!(e.contains(&format!("--{flag}")), "{flags:?}: {e}");
                }
                if field.quiet {
                    // A quiet field steers only a daemon; no flag reads it.
                    assert_eq!(cli, Err(format!("unknown flag --{flag}")));
                } else {
                    assert_eq!(
                        wire.is_ok(),
                        cli.is_ok(),
                        "{line} vs {flags:?}: {wire:?} {cli:?}"
                    );
                }

                let Some((path, _)) = shared else { continue };
                covered.insert(path);
                let mut section = noc_json::parse(MANIFEST).unwrap();
                put(&mut section, path, value.clone());
                let named = if path.contains('.') {
                    path.to_string()
                } else {
                    format!("manifest.{path}")
                };
                let by_section = refuses_field(&read_manifest(&section), &named, path);
                assert_eq!(wire.is_err(), by_section, "{line} vs manifest {path}");
                if AXES.iter().any(|(axis, _)| *axis == field.name) {
                    let mut axis = noc_json::parse(MANIFEST).unwrap();
                    put(
                        &mut axis,
                        &format!("matrix.{}", field.name),
                        Value::Arr(vec![value]),
                    );
                    let named = format!("matrix.{}", field.name);
                    let by_axis = refuses_field(&read_manifest(&axis), &named, path);
                    assert_eq!(wire.is_err(), by_axis, "{line} vs matrix axis {named}");
                }
            }
        }
    }
    let all: BTreeSet<&str> = SHARED.iter().map(|&(_, path)| path).collect();
    assert_eq!(
        covered, all,
        "a shared field no request kind declares alike"
    );
}
