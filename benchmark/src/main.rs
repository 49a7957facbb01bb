//! `clue-benchmark` — the repo's one performance contract.
//!
//! See `README.md` beside this package for the workloads, the metrics
//! and how they are expected to interact, and `BENCHMARK.json` at the
//! repo root for the machine-readable contract this binary prints to.

mod contract;
mod inputs;
mod json;
mod ladder;
mod phases;
mod report;
mod stack;
mod stats;
mod trace;
mod workload;

use std::io;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use contract::Contract;
use json::Value;
use report::RunArgs;

const USAGE: &str = "\
usage: clue-benchmark run [options]
  --workload NAME   run one workload in this process and print the driver's
                    one-line JSON verdict last (default: every workload, each
                    in a child process, written to benchmark/out/result.json)
  --seed N          inputs are derived from this (default 11)
  --seconds S       measured window per workload (alias --window-s;
                    default: run_seconds of BENCHMARK.json)
  --trace [0|1]     1: print the per-layer metrics (layer ladder, then a
                    traced pass that writes benchmark/out/trace.<workload>.json)
  --check [FILE]    validate FILE against BENCHMARK.json, or with no FILE the
                    document this run writes
  --aa N            two sets of N runs per workload compared against the bounds
  --out FILE        where the result (or A/A) document goes";

fn usage() -> ! {
    eprintln!("{USAGE}");
    std::process::exit(2);
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    check: bool,
    check_file: Option<PathBuf>,
    aa: Option<usize>,
    out: Option<PathBuf>,
}

fn parse_args() -> Args {
    let mut argv = std::env::args().skip(1).peekable();
    if argv.next().as_deref() != Some("run") {
        usage();
    }
    let mut args = Args {
        workload: None,
        seed: 11,
        seconds: None,
        trace: false,
        check: false,
        check_file: None,
        aa: None,
        out: None,
    };
    while let Some(flag) = argv.next() {
        let optional = |argv: &mut std::iter::Peekable<_>| -> Option<String> {
            argv.next_if(|next: &String| !next.starts_with("--"))
        };
        let mut required = || argv.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => args.workload = Some(required()),
            "--seed" => args.seed = required().parse().unwrap_or_else(|_| usage()),
            "--seconds" | "--window-s" => {
                let s: f64 = required().parse().unwrap_or_else(|_| usage());
                if !(s.is_finite() && s > 0.0) {
                    usage();
                }
                args.seconds = Some(s);
            }
            "--trace" => args.trace = optional(&mut argv).as_deref() != Some("0"),
            "--check" => {
                args.check = true;
                args.check_file = optional(&mut argv).map(PathBuf::from);
            }
            "--aa" => args.aa = Some(required().parse().unwrap_or_else(|_| usage())),
            "--out" => args.out = Some(PathBuf::from(required())),
            _ => usage(),
        }
    }
    args
}

/// The checkout root: the working directory when it holds the contract
/// (how the driver and `cargo run` from the root start us), otherwise
/// the directory above this package.
fn root() -> PathBuf {
    if Path::new("BENCHMARK.json").exists() {
        PathBuf::from(".")
    } else {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
    }
}

fn out_dir() -> PathBuf {
    root().join("benchmark").join("out")
}

/// One workload in this process: human-readable lines, the detail line
/// for a parent `run`, and last the driver's verdict.
fn run_one(contract: &Contract, name: &str, args: &RunArgs, traced: bool) -> io::Result<bool> {
    let def = workload::find(name).ok_or_else(|| {
        io::Error::other(format!(
            "unknown workload {name:?}; known: {:?}",
            workload::WORKLOADS.map(|w| w.name)
        ))
    })?;
    println!("{name}: {}", def.why);
    let scratch = out_dir().join("tmp");
    let inputs = inputs::Inputs::generate(args.seed, args.seconds);
    let tracer = trace::Tracer::new(traced);
    let (specs, metrics, result) = if traced {
        // Layer ladder first, then the workload itself with spans on,
        // for 5/16 of the window (5.6 s at the default).
        let mut layers = ladder::run(&inputs, args.seconds, &scratch)?;
        let pass = args.seconds * 5.0 / 16.0;
        let result = workload::run(def, &inputs, pass, &tracer, &scratch)?;
        let path = out_dir().join(format!("trace.{name}.json"));
        tracer.write(&path, name, args.seed)?;
        println!(
            "{} spans written to {}",
            tracer.span_count(),
            path.display()
        );
        layers.extend(result.layers.iter().cloned());
        (&contract.per_layer, layers, result)
    } else {
        let result = workload::run(def, &inputs, args.seconds, &tracer, &scratch)?;
        (&contract.end_to_end, result.end_to_end.clone(), result)
    };
    // The untraced run's unbounded measurements (those it has: the
    // tracing overhead, for one, exists only in a traced run).
    let observed: Vec<&workload::Metric> = result
        .layers
        .iter()
        .filter(|m| !traced && m.value.is_some())
        .collect();
    for m in metrics.iter().chain(observed.iter().copied()) {
        println!(
            "{:<40} {:>16} {:<6} n={}",
            m.name,
            m.value.map_or("null".into(), |v| format!("{v:.4}")),
            m.unit,
            m.samples
        );
    }
    if !result.table_ok {
        eprintln!("FAILED: a final table differs from sequential application of everything sent");
    }
    if !result.conserved {
        eprintln!("FAILED: lookup arrivals != completions");
    }
    let verdict = |samples: bool| {
        let mut line = Value::obj();
        line.set("correct", result.correct())
            .set("attempted", result.tally.attempted.max(1))
            .set("failed", result.tally.failed)
            .set("metrics", contract::emit(specs, &metrics, samples));
        line
    };
    let mut detail = verdict(true);
    if !traced {
        let mut cells = Value::obj();
        for m in &observed {
            let mut cell = Value::obj();
            cell.set("value", m.value)
                .set("unit", m.unit)
                .set("samples", m.samples);
            cells.set(&m.name, cell);
        }
        detail.set("observed", cells);
    }
    println!("{}{}", report::DETAIL_PREFIX, detail.render());
    println!("{}", verdict(false).render());
    // The verdict carries `correct`; having printed it, the run itself
    // succeeded (a parent `run` and `--check` read the field).
    Ok(true)
}

fn check_document(contract: &Contract, path: &Path) -> io::Result<bool> {
    let text = std::fs::read_to_string(path)?;
    let doc = json::parse(&text).map_err(io::Error::other)?;
    let problems = contract::check(contract, &doc);
    for p in &problems {
        eprintln!("check: {p}");
    }
    println!(
        "check: {} against BENCHMARK.json: {}",
        path.display(),
        if problems.is_empty() { "ok" } else { "FAILED" }
    );
    Ok(problems.is_empty())
}

fn real_main(args: &Args) -> io::Result<bool> {
    let contract = Contract::load(&root().join("BENCHMARK.json")).map_err(io::Error::other)?;
    if let Some(file) = &args.check_file {
        return check_document(&contract, file);
    }
    let run = RunArgs {
        seed: args.seed,
        seconds: args.seconds.unwrap_or(contract.run_seconds),
    };
    if let Some(n) = args.aa {
        let (doc, ok) = report::aa(&contract, &run, n.max(2))?;
        let path = args
            .out
            .clone()
            .unwrap_or_else(|| out_dir().join("aa.json"));
        report::write_document(&path, &doc)?;
        println!(
            "A/A table written to {}: {}",
            path.display(),
            if ok { "ok" } else { "BREACH" }
        );
        return Ok(ok);
    }
    if let Some(name) = &args.workload {
        return run_one(&contract, name, &run, args.trace);
    }
    let doc = report::full_run(&contract, &run, args.trace)?;
    let path = args
        .out
        .clone()
        .unwrap_or_else(|| out_dir().join("result.json"));
    report::write_document(&path, &doc)?;
    println!("result written to {}", path.display());
    let correct = contract.workloads.iter().all(|w| {
        doc.get("workloads")
            .and_then(|ws| ws.get(w))
            .and_then(|r| r.get("correct"))
            .and_then(Value::as_bool)
            == Some(true)
    });
    Ok(correct && (!args.check || check_document(&contract, &path)?))
}

fn main() -> ExitCode {
    match real_main(&parse_args()) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("clue-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
