//! Running every workload (each in its own child process, so peak RSS
//! and thread state do not leak from one to the next), assembling the
//! result document, and the A/A comparison.

use std::io::{self, BufRead, BufReader};
use std::path::Path;
use std::process::{Command, Stdio};

use crate::contract::{self, Contract, MetricSpec};
use crate::json::{self, Value};
use crate::stats;

/// Marks the child's detail line (cells with sample counts), printed
/// just before the driver's verdict line.
pub const DETAIL_PREFIX: &str = "detail ";

pub struct RunArgs {
    pub seed: u64,
    pub seconds: f64,
}

/// Runs one workload in a child process; returns its detail object:
/// `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit,samples}}}`.
pub fn run_child(workload: &str, args: &RunArgs, trace: bool, echo: bool) -> io::Result<Value> {
    let exe = std::env::current_exe()?;
    let mut child = Command::new(exe)
        .args(["run", "--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::piped())
        .spawn()?;
    let mut detail = None;
    let stdout = child.stdout.take().expect("stdout piped");
    for line in BufReader::new(stdout).lines() {
        let line = line?;
        if let Some(text) = line.strip_prefix(DETAIL_PREFIX) {
            detail = Some(json::parse(text).map_err(io::Error::other)?);
        } else if echo && !line.starts_with('{') {
            println!("  {line}");
        }
    }
    let status = child.wait()?;
    if !status.success() {
        return Err(io::Error::other(format!(
            "workload {workload} exited with {status}"
        )));
    }
    detail.ok_or_else(|| io::Error::other(format!("workload {workload} printed no detail line")))
}

fn git_revision() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |s| s.trim().to_owned())
}

/// Schema, revision, host and settings: what a later reader needs to
/// place a result on the trajectory.
fn stamp(schema: &str, args: &RunArgs) -> Value {
    let mut doc = Value::obj();
    doc.set("schema", schema)
        .set("git_revision", git_revision())
        .set(
            "host_cores",
            std::thread::available_parallelism().map_or(1, usize::from),
        )
        .set("load_clients", crate::workload::load_clients())
        .set("network", "host loopback")
        .set("seed", args.seed)
        .set("seconds", args.seconds);
    doc
}

/// Every contracted workload, untraced, plus a traced pass when asked.
pub fn full_run(contract: &Contract, args: &RunArgs, trace: bool) -> io::Result<Value> {
    let mut workloads = Value::obj();
    for w in &contract.workloads {
        println!("== {w} ({} s window)", args.seconds);
        let detail = run_child(w, args, false, true)?;
        let mut entry = Value::obj();
        for key in ["correct", "attempted", "failed"] {
            entry.set(key, detail.get(key).cloned().unwrap_or(Value::Null));
        }
        entry.set(
            "end_to_end",
            detail.get("metrics").cloned().unwrap_or_else(Value::obj),
        );
        // Measured by the same run, bounded by none (see the README).
        entry.set(
            "observed",
            detail.get("observed").cloned().unwrap_or_else(Value::obj),
        );
        if trace {
            println!("== {w} (traced)");
            let traced = run_child(w, args, true, true)?;
            entry.set(
                "per_layer",
                traced.get("metrics").cloned().unwrap_or_else(Value::obj),
            );
        }
        workloads.set(w, entry);
    }
    let mut doc = stamp("clue-benchmark-result/1", args);
    doc.set("workloads", workloads);
    Ok(doc)
}

pub fn write_document(path: &Path, doc: &Value) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, doc.render_pretty())
}

/// How much worse `second` is than `first`, as a share of `first`
/// (negative = better), respecting the metric's direction.
pub fn worse_by(spec: &MetricSpec, first: f64, second: f64) -> f64 {
    let change = (second - first) / first.abs();
    if spec.lower_is_better {
        change
    } else {
        -change
    }
}

#[derive(Debug, PartialEq)]
pub enum Verdict {
    Ok,
    /// A tail metric breached: demote it to the layer table.
    Demote,
    Breach,
}

/// The acceptance rule for one metric × workload cell: both sets'
/// quartile spreads within the bound, and the second median not worse
/// than the first by more than the bound. `setup_s` is exempt from the
/// spread rule (its bound guards the median only).
pub fn judge(spec: &MetricSpec, first: &[f64], second: &[f64]) -> (Verdict, [f64; 3]) {
    let bound = spec.bound.unwrap_or(f64::INFINITY);
    let s1 = stats::spread(first).unwrap_or(f64::NAN);
    let s2 = stats::spread(second).unwrap_or(f64::NAN);
    let drift = match (stats::median(first), stats::median(second)) {
        (Some(a), Some(b)) => worse_by(spec, a, b),
        _ => f64::NAN,
    };
    let spread_ok = spec.name == "setup_s" || (s1 <= bound && s2 <= bound);
    let verdict = if spread_ok && drift <= bound {
        Verdict::Ok
    } else if contract::TAILS.contains(&spec.name.as_str()) {
        Verdict::Demote
    } else {
        Verdict::Breach
    };
    (verdict, [s1, s2, drift])
}

/// Two sets of `n` runs of this binary, seeds `seed..seed+n` in each,
/// compared cell by cell against the contract's bounds — the driver's
/// acceptance rule, run locally. The unbounded `serve.*` metrics of the
/// same runs are tabulated beside them, without a verdict: that table is
/// the evidence for (and against) demoting them. One traced run per set
/// checks that the exact rows repeat bit for bit. Returns the A/A
/// document and whether anything other than a tail breached.
pub fn aa(contract: &Contract, args: &RunArgs, n: usize) -> io::Result<(Value, bool)> {
    let observed: Vec<MetricSpec> = contract
        .per_layer
        .iter()
        .filter(|s| s.name.starts_with("serve.") && s.name != "serve.fresh_tail_q")
        .cloned()
        .collect();
    let specs: Vec<&MetricSpec> = contract.end_to_end.iter().chain(&observed).collect();
    // values[set][workload][metric] = one value per run
    let mut values = vec![vec![vec![Vec::new(); specs.len()]; contract.workloads.len()]; 2];
    let mut exact: Vec<Value> = Vec::new();
    for (set, per_set) in values.iter_mut().enumerate() {
        for i in 0..n {
            for (w, name) in contract.workloads.iter().enumerate() {
                let run = RunArgs {
                    seed: args.seed + i as u64,
                    seconds: args.seconds,
                };
                println!(
                    "A/A set {} run {}/{n}: {name} seed {}",
                    set + 1,
                    i + 1,
                    run.seed
                );
                let detail = run_child(name, &run, false, false)?;
                if detail.get("correct").and_then(Value::as_bool) != Some(true) {
                    return Err(io::Error::other(format!(
                        "{name} seed {} not correct",
                        run.seed
                    )));
                }
                for (m, spec) in specs.iter().enumerate() {
                    let section = if spec.bound.is_some() {
                        "metrics"
                    } else {
                        "observed"
                    };
                    let v = detail
                        .get(section)
                        .and_then(|cells| cells.get(&spec.name))
                        .and_then(|c| c.get("value"))
                        .and_then(Value::as_f64);
                    match v {
                        Some(v) => per_set[w][m].push(v),
                        None if spec.bound.is_some() => {
                            return Err(io::Error::other(format!(
                                "{name}: {} not reported",
                                spec.name
                            )))
                        }
                        // An unbounded cell may be null (too few samples).
                        None => {}
                    }
                }
            }
        }
        println!("A/A set {}: traced run for the exact rows", set + 1);
        let traced = run_child(&contract.workloads[0], args, true, false)?;
        exact.push(traced.get("metrics").cloned().unwrap_or_else(Value::obj));
    }

    let mut all_ok = true;
    let mut cells = Vec::new();
    println!(
        "\n{:<24} {:<15} {:>12} {:>12} {:>8} {:>8} {:>8} {:>6}  verdict",
        "metric", "workload", "median 1", "median 2", "spread1", "spread2", "worse", "bound"
    );
    for (m, spec) in specs.iter().enumerate() {
        for (w, name) in contract.workloads.iter().enumerate() {
            let (first, second) = (&values[0][w][m], &values[1][w][m]);
            let (verdict, [s1, s2, drift]) = judge(spec, first, second);
            let verdict = match spec.bound {
                Some(_) => format!("{verdict:?}"),
                None => "Unbounded".to_owned(),
            };
            let med = |v: &[f64]| stats::median(v).unwrap_or(f64::NAN);
            println!(
                "{:<24} {:<15} {:>12.4} {:>12.4} {:>8.4} {:>8.4} {:>+8.4} {:>6.2}  {verdict}",
                spec.name,
                name,
                med(first),
                med(second),
                s1,
                s2,
                drift,
                spec.bound.unwrap_or(f64::NAN),
            );
            all_ok &= verdict != "Breach";
            let list = |v: &[f64]| v.iter().copied().map(Value::from).collect::<Vec<_>>();
            let mut cell = Value::obj();
            cell.set("metric", spec.name.as_str())
                .set("workload", name.as_str())
                .set("bound", spec.bound)
                .set("median_1", med(first))
                .set("median_2", med(second))
                .set("spread_1", s1)
                .set("spread_2", s2)
                .set("worse_by", drift)
                .set("verdict", verdict)
                .set("values_1", list(first))
                .set("values_2", list(second));
            cells.push(cell);
        }
    }

    let mut exact_mismatch = Vec::new();
    for spec in contract
        .per_layer
        .iter()
        .filter(|s| contract::is_exact(&s.name))
    {
        let value = |doc: &Value| doc.get(&spec.name).and_then(|c| c.get("value")).cloned();
        if value(&exact[0]) != value(&exact[1]) {
            exact_mismatch.push(Value::from(spec.name.as_str()));
            all_ok = false;
        }
    }
    println!(
        "exact rows: {}",
        if exact_mismatch.is_empty() {
            "bit-identical across the two sets".to_owned()
        } else {
            format!(
                "MISMATCH in {}",
                Value::Arr(exact_mismatch.clone()).render()
            )
        }
    );

    let mut doc = stamp("clue-benchmark-aa/1", args);
    doc.set("runs_per_set", n)
        .set("cells", cells)
        .set("exact_mismatch", exact_mismatch);
    Ok((doc, all_ok))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(name: &str, lower: bool, bound: f64) -> MetricSpec {
        MetricSpec {
            name: name.into(),
            unit: "x".into(),
            lower_is_better: lower,
            bound: Some(bound),
        }
    }

    #[test]
    fn judge_applies_spread_drift_direction_and_the_demotion_rule() {
        let steady = [100.0, 101.0, 99.0, 100.5, 99.5];
        let slower = [120.0, 121.0, 119.0, 120.5, 119.5];
        let noisy = [60.0, 100.0, 140.0, 80.0, 120.0];

        // Lower is better: +20 % is a breach at a 10 % bound, fine at 25 %.
        assert_eq!(
            judge(&spec("ack_p50_us", true, 0.10), &steady, &slower).0,
            Verdict::Breach
        );
        assert_eq!(
            judge(&spec("ack_p50_us", true, 0.25), &steady, &slower).0,
            Verdict::Ok
        );
        // Higher is better: the same move is an improvement.
        assert_eq!(
            judge(&spec("lookup_rate", false, 0.10), &steady, &slower).0,
            Verdict::Ok
        );
        assert_eq!(
            judge(&spec("lookup_rate", false, 0.10), &slower, &steady).0,
            Verdict::Breach
        );
        // Spread beyond the bound breaches, except for setup_s; a tail
        // is demoted instead.
        assert_eq!(
            judge(&spec("ack_p50_us", true, 0.10), &noisy, &noisy).0,
            Verdict::Breach
        );
        assert_eq!(
            judge(&spec("setup_s", true, 0.10), &noisy, &noisy).0,
            Verdict::Ok
        );
        assert_eq!(
            judge(&spec("fresh_p95_ms", true, 0.10), &noisy, &noisy).0,
            Verdict::Demote
        );

        let (_, [s1, _, drift]) = judge(&spec("x", true, 0.1), &steady, &slower);
        assert!((s1 - 0.015).abs() < 1e-9, "{s1}");
        assert!((drift - 0.2).abs() < 1e-9, "{drift}");
    }
}
