//! `BENCHMARK.json`: what the benchmark promises to print, read back at
//! run time so the output always carries exactly the contracted names.
//!
//! The driver's one-line verdict, the result document and `--check` all
//! go through this module: a metric the harness could not produce (a
//! backend or transport that no longer exists) is printed as `null`
//! under its contracted name, and a metric the harness produced but the
//! contract does not list is dropped with a note on stderr.

use std::path::Path;

use crate::json::{self, Value};
use crate::workload::Metric;

#[derive(Debug, Clone)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    /// `true` when a lower value is better.
    pub lower_is_better: bool,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

#[derive(Debug, Clone)]
pub struct Contract {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

/// Tail metrics: were one of these bounded, an A/A breach would demote
/// it to the layer table instead of failing the benchmark. (Both were
/// demoted by the first A/A; the rule stays for a later PR that tries
/// to promote one.)
pub const TAILS: [&str; 2] = ["lookup_p99_us", "fresh_p95_ms"];

/// Per-layer rows that must repeat bit for bit for a fixed seed.
pub const EXACT: [&str; 13] = [
    "compress.ratio",
    "compress.diff_ops_per_update",
    "tcam.write_ops_per_update",
    "tcam.shift_ops_per_update",
    "cache.dred_hit_ratio",
    "core.ttf2_us",
    "core.ttf3_us",
    "core.engine_speedup",
    "core.engine_dred_hit_ratio",
    "tile.rewrites_per_update",
    "router.coalesce_ratio",
    "store.bytes_per_update",
    "net.bytes_per_lookup",
];

/// Whether `name` is an exact row (`core.plane_bytes_per_route.<b>` is,
/// for every backend).
pub fn is_exact(name: &str) -> bool {
    EXACT.contains(&name) || name.starts_with("core.plane_bytes_per_route.")
}

pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn specs(doc: &Value, key: &str) -> Result<Vec<MetricSpec>, String> {
    doc.get(key)
        .and_then(Value::as_arr)
        .ok_or_else(|| format!("BENCHMARK.json: missing array {key:?}"))?
        .iter()
        .map(|m| {
            let text = |k: &str| {
                m.get(k)
                    .and_then(Value::as_str)
                    .map(str::to_owned)
                    .ok_or_else(|| format!("BENCHMARK.json: {key} entry without {k:?}"))
            };
            let name = text("name")?;
            if !valid_name(&name) {
                return Err(format!("BENCHMARK.json: bad metric name {name:?}"));
            }
            Ok(MetricSpec {
                name,
                unit: text("unit")?,
                lower_is_better: text("better")? == "lower",
                bound: m.get("bound").and_then(Value::as_f64),
            })
        })
        .collect()
}

impl Contract {
    pub fn load(path: &Path) -> Result<Contract, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let doc = json::parse(&text)?;
        let workloads = doc
            .get("workloads")
            .and_then(Value::as_arr)
            .ok_or("BENCHMARK.json: missing array \"workloads\"")?
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Value::as_str)
                    .map(str::to_owned)
                    .ok_or("BENCHMARK.json: workload without a name".to_owned())
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Contract {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Value::as_f64)
                .ok_or("BENCHMARK.json: missing run_seconds")?,
            workloads,
            end_to_end: specs(&doc, "end_to_end")?,
            per_layer: specs(&doc, "per_layer")?,
        })
    }
}

/// The contracted metrics as one JSON object, in contract order:
/// `{"name": {"value": …, "unit": …}}`. With `samples`, each cell also
/// carries its sample count (the result document's form).
pub fn emit(specs: &[MetricSpec], produced: &[Metric], samples: bool) -> Value {
    let mut obj = Value::obj();
    for spec in specs {
        let found = produced.iter().find(|m| m.name == spec.name);
        if let Some(m) = found {
            if m.unit != spec.unit {
                eprintln!(
                    "note: {} measured in {:?} but contracted in {:?}",
                    spec.name, m.unit, spec.unit
                );
            }
        }
        let mut cell = Value::obj();
        cell.set("value", found.and_then(|m| m.value))
            .set("unit", spec.unit.as_str());
        if samples {
            cell.set("samples", found.map_or(0, |m| m.samples));
        }
        obj.set(&spec.name, cell);
    }
    for m in produced {
        if !specs.iter().any(|s| s.name == m.name) {
            eprintln!(
                "note: {} is measured but not in BENCHMARK.json; dropped",
                m.name
            );
        }
    }
    obj
}

/// Validates a result document against the contract. Returns every
/// problem found (empty = valid).
pub fn check(contract: &Contract, doc: &Value) -> Vec<String> {
    let mut problems = Vec::new();
    let Some(workloads) = doc.get("workloads") else {
        return vec!["document has no \"workloads\" object".into()];
    };
    for (name, _) in workloads.fields() {
        if !contract.workloads.contains(name) {
            problems.push(format!("workload {name:?} is not in BENCHMARK.json"));
        }
    }
    for w in &contract.workloads {
        let Some(result) = workloads.get(w) else {
            problems.push(format!("workload {w:?} missing"));
            continue;
        };
        if result.get("correct").and_then(Value::as_bool) != Some(true) {
            problems.push(format!("{w}: run was not correct"));
        }
        if result.get("failed").and_then(Value::as_f64) != Some(0.0) {
            problems.push(format!("{w}: failed operations"));
        }
        let section = |key: &str, specs: &[MetricSpec], need_value: bool, out: &mut Vec<String>| {
            let Some(cells) = result.get(key) else {
                out.push(format!("{w}: no {key:?} section"));
                return;
            };
            for (name, _) in cells.fields() {
                if !valid_name(name) {
                    out.push(format!("{w}: metric name {name:?} outside [A-Za-z0-9_.-]"));
                }
            }
            for spec in specs {
                let Some(cell) = cells.get(&spec.name) else {
                    out.push(format!("{w}: {key}.{} missing", spec.name));
                    continue;
                };
                if cell.get("unit").and_then(Value::as_str) != Some(&spec.unit) {
                    out.push(format!(
                        "{w}: {key}.{} unit is not {:?}",
                        spec.name, spec.unit
                    ));
                }
                if cell.get("samples").and_then(Value::as_f64).is_none() {
                    out.push(format!("{w}: {key}.{} has no sample count", spec.name));
                }
                match cell.get("value") {
                    Some(Value::Num(v)) if need_value && *v == 0.0 => {
                        out.push(format!("{w}: {key}.{} is 0", spec.name));
                    }
                    Some(Value::Num(_)) => {}
                    // Explicit null: allowed for layers (a backend that
                    // no longer exists), never for an end-to-end cell.
                    Some(Value::Null) if !need_value => {}
                    _ => out.push(format!("{w}: {key}.{} has no value", spec.name)),
                }
            }
        };
        section("end_to_end", &contract.end_to_end, true, &mut problems);
        if result.get("per_layer").is_some() {
            section("per_layer", &contract.per_layer, false, &mut problems);
        }
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    fn contract() -> Contract {
        let spec = |name: &str, unit: &str, bound: Option<f64>| MetricSpec {
            name: name.into(),
            unit: unit.into(),
            lower_is_better: true,
            bound,
        };
        Contract {
            run_seconds: 1.0,
            workloads: vec!["w".into()],
            end_to_end: vec![spec("setup_s", "s", Some(0.25))],
            per_layer: vec![spec("core.plane_build_ms.tcam", "ms", None)],
        }
    }

    #[test]
    fn emit_prints_contract_names_and_nulls_what_is_missing() {
        let c = contract();
        let produced = [
            Metric::new("setup_s", Some(0.5), "s", 3),
            Metric::new("not_contracted", Some(1.0), "s", 1),
        ];
        let e2e = emit(&c.end_to_end, &produced, true);
        assert_eq!(e2e.fields().len(), 1);
        assert_eq!(
            e2e.get("setup_s").unwrap().get("samples"),
            Some(&Value::Num(3.0))
        );
        let layers = emit(&c.per_layer, &produced, false);
        let cell = layers.get("core.plane_build_ms.tcam").unwrap();
        assert_eq!(cell.get("value"), Some(&Value::Null));
        assert_eq!(cell.get("unit").and_then(Value::as_str), Some("ms"));
        assert!(cell.get("samples").is_none());
    }

    #[test]
    fn check_accepts_a_complete_document_and_names_every_gap() {
        let c = contract();
        let good = json::parse(
            r#"{"workloads":{"w":{"correct":true,"attempted":5,"failed":0,
                "end_to_end":{"setup_s":{"value":0.5,"unit":"s","samples":3}},
                "per_layer":{"core.plane_build_ms.tcam":{"value":null,"unit":"ms","samples":0}}}}}"#,
        )
        .unwrap();
        assert_eq!(check(&c, &good), Vec::<String>::new());

        let bad = json::parse(
            r#"{"workloads":{"w":{"correct":false,"attempted":5,"failed":1,
                "end_to_end":{"setup_s":{"value":null,"unit":"ms"},"bad name":{}},
                "per_layer":{}},"stray":{}}}"#,
        )
        .unwrap();
        let problems = check(&c, &bad).join("\n");
        for needle in [
            "\"stray\" is not in",
            "not correct",
            "failed operations",
            "\"bad name\" outside",
            "setup_s unit",
            "setup_s has no sample count",
            "setup_s has no value",
            "per_layer.core.plane_build_ms.tcam missing",
        ] {
            assert!(
                problems.contains(needle),
                "missing {needle:?} in:\n{problems}"
            );
        }
        assert_eq!(check(&c, &json::parse("{}").unwrap()).len(), 1);
        let missing = json::parse(r#"{"workloads":{}}"#).unwrap();
        assert_eq!(
            check(&c, &missing),
            vec!["workload \"w\" missing".to_owned()]
        );
    }

    /// `BENCHMARK.json` and the harness name the same workloads (with the
    /// same reasons) and the same bounded metrics; every exact row is a
    /// contracted layer.
    #[test]
    fn the_committed_contract_matches_the_harness() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let c = Contract::load(&path).unwrap();
        let doc = json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let listed: Vec<(&str, &str)> = doc
            .get("workloads")
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .map(|w| {
                (
                    w.get("name").and_then(Value::as_str).unwrap(),
                    w.get("why").and_then(Value::as_str).unwrap(),
                )
            })
            .collect();
        let defined: Vec<(&str, &str)> = crate::workload::WORKLOADS
            .iter()
            .map(|w| (w.name, w.why))
            .collect();
        assert_eq!(listed, defined);
        let bounded: Vec<&str> = c.end_to_end.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(bounded, crate::workload::END_TO_END);
        assert!(c
            .end_to_end
            .iter()
            .all(|s| s.bound.is_some_and(|b| b <= 0.25)));
        for name in EXACT {
            assert!(
                c.per_layer.iter().any(|s| s.name == name),
                "{name} not contracted"
            );
        }
        assert!(c.per_layer.len() <= 128);
    }

    #[test]
    fn names_are_restricted() {
        assert!(valid_name("core.plane_lookup_ns.tcam.uniform"));
        assert!(valid_name("lookup-direct"));
        assert!(!valid_name(""));
        assert!(!valid_name(".leading"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("µs"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(is_exact("core.plane_bytes_per_route.cfib"));
        assert!(is_exact("core.ttf2_us"));
        assert!(!is_exact("core.ttf1_us"));
    }
}
