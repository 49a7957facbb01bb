//! End-to-end tests of the `clue` command-line binary.

use std::path::PathBuf;
use std::process::Command;

fn clue() -> Command {
    Command::new(env!("CARGO_BIN_EXE_clue"))
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("clue-cli-tests");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir.join(name)
}

fn run_ok(cmd: &mut Command) -> String {
    let out = cmd.output().expect("spawn clue binary");
    assert!(
        out.status.success(),
        "command failed:\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

#[test]
fn full_workflow_through_the_cli() {
    let fib = tmp("wf_fib.txt");
    let comp = tmp("wf_comp.txt");
    let trace = tmp("wf_trace.txt");
    let updates = tmp("wf_updates.txt");

    let out = run_ok(clue().args([
        "gen-fib",
        "--out",
        fib.to_str().unwrap(),
        "--routes",
        "5000",
        "--seed",
        "77",
    ]));
    assert!(out.contains("wrote"), "{out}");

    let out = run_ok(clue().args([
        "compress",
        "--fib",
        fib.to_str().unwrap(),
        "--out",
        comp.to_str().unwrap(),
    ]));
    assert!(out.contains("onrtc:"), "{out}");

    // The exported compressed table must parse and be non-overlapping.
    let table = clue::fib::RouteTable::from_text(&std::fs::read_to_string(&comp).unwrap()).unwrap();
    assert!(table.is_non_overlapping());
    assert!(!table.is_empty());

    run_ok(clue().args([
        "gen-packets",
        "--fib",
        fib.to_str().unwrap(),
        "--out",
        trace.to_str().unwrap(),
        "--count",
        "20000",
    ]));
    run_ok(clue().args([
        "gen-updates",
        "--fib",
        fib.to_str().unwrap(),
        "--out",
        updates.to_str().unwrap(),
        "--count",
        "500",
    ]));

    let out = run_ok(clue().args([
        "simulate",
        "--fib",
        fib.to_str().unwrap(),
        "--packets",
        trace.to_str().unwrap(),
        "--chips",
        "4",
    ]));
    assert!(out.contains("speedup"), "{out}");
    assert!(out.contains("control-plane interactions: 0"), "{out}");

    let out = run_ok(clue().args([
        "replay",
        "--fib",
        fib.to_str().unwrap(),
        "--updates",
        updates.to_str().unwrap(),
        "--window",
        "250",
    ]));
    assert!(out.contains("mean TTF"), "{out}");

    let out = run_ok(clue().args([
        "partition",
        "--fib",
        fib.to_str().unwrap(),
        "--scheme",
        "clue",
        "--n",
        "8",
    ]));
    assert!(out.contains("redundancy 0"), "{out}");
}

#[test]
fn serve_runs_a_live_workload_and_prints_json_stats() {
    let fib = tmp("serve_fib.txt");
    let trace = tmp("serve_trace.txt");
    let updates = tmp("serve_updates.txt");

    run_ok(clue().args([
        "gen-fib",
        "--out",
        fib.to_str().unwrap(),
        "--routes",
        "3000",
        "--seed",
        "88",
    ]));
    run_ok(clue().args([
        "gen-packets",
        "--fib",
        fib.to_str().unwrap(),
        "--out",
        trace.to_str().unwrap(),
        "--count",
        "20000",
        "--seed",
        "89",
    ]));
    run_ok(clue().args([
        "gen-updates",
        "--fib",
        fib.to_str().unwrap(),
        "--out",
        updates.to_str().unwrap(),
        "--count",
        "1500",
        "--seed",
        "90",
    ]));

    let out = run_ok(clue().args([
        "serve",
        "--fib",
        fib.to_str().unwrap(),
        "--packets",
        trace.to_str().unwrap(),
        "--updates",
        updates.to_str().unwrap(),
        "--workers",
        "4",
        "--batch",
        "32",
    ]));
    assert!(out.contains("completed 20000/20000 lookups"), "{out}");
    assert!(out.contains("1500 received"), "{out}");
    // The JSON snapshot line carries quantiles and the drop account.
    for key in [
        "\"p99\":",
        "\"ttf_batch_ns\":",
        "\"coalesce_ratio\":",
        "\"dropped\":0",
    ] {
        assert!(out.contains(key), "missing {key} in {out}");
    }

    let out = clue()
        .args([
            "serve",
            "--fib",
            fib.to_str().unwrap(),
            "--packets",
            trace.to_str().unwrap(),
            "--updates",
            updates.to_str().unwrap(),
            "--overflow",
            "sideways",
        ])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown overflow"), "{stderr}");
}

#[test]
fn unknown_command_fails_with_usage() {
    let out = clue().arg("frobnicate").output().expect("spawn");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown command"), "{stderr}");
    assert!(stderr.contains("usage:"), "{stderr}");
}

#[test]
fn missing_flag_is_reported() {
    let out = clue().arg("gen-fib").output().expect("spawn");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--out"), "{stderr}");
}

#[test]
fn unknown_flag_is_rejected() {
    let out = clue()
        .args(["gen-fib", "--out", "/dev/null", "--bogus", "1"])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag --bogus"), "{stderr}");
}

#[test]
fn help_prints_usage() {
    let out = run_ok(clue().arg("--help"));
    assert!(out.contains("usage: clue"), "{out}");
    for cmd in [
        "gen-fib",
        "compress",
        "partition",
        "simulate",
        "replay",
        "serve",
    ] {
        assert!(out.contains(cmd), "usage missing {cmd}");
    }
}

#[test]
fn replay_data_dir_reports_snapshot_records_and_summary_as_json() {
    use clue::fib::{NextHop, Prefix, Update};
    use clue::router::{JournalBatch, UpdateJournal};
    use clue::store::{snapshot_name, Store, StoreConfig};

    let dir = tmp("replay_data_dir");
    let _ = std::fs::remove_dir_all(&dir);
    let fib = clue::fib::gen::FibGen::new(5).routes(500).generate();
    let (mut store, recovered) = Store::open(&dir, StoreConfig::default()).unwrap();
    assert!(recovered.is_none(), "fresh dir");
    store.init_from_table(&fib, 4).unwrap();
    let raws = [5u32, 3, 2];
    for (i, &raw) in raws.iter().enumerate() {
        let ops = [Update::Announce {
            prefix: Prefix::new(0x0A00_0000 + ((i as u32) << 16), 16),
            next_hop: NextHop(7),
        }];
        store
            .append(&JournalBatch {
                epoch: i as u64,
                seq_hw: 10 * (i as u64 + 1),
                raw,
                ops: &ops,
            })
            .unwrap();
    }
    drop(store);
    std::fs::write(dir.join(snapshot_name(99)), b"not a snapshot").unwrap();

    let out = run_ok(clue().args([
        "replay",
        "--data-dir",
        dir.to_str().unwrap(),
        "--json",
        "true",
    ]));
    let kinds: Vec<&str> = out
        .lines()
        .map(|l| {
            ["snapshot", "record", "summary"]
                .into_iter()
                .find(|k| l.starts_with(&format!("{{\"kind\":\"{k}\"")))
                .unwrap_or_else(|| panic!("unexpected line {l:?} in {out}"))
        })
        .collect();
    assert_eq!(
        kinds,
        ["snapshot", "record", "record", "record", "summary"],
        "{out}"
    );
    let lines: Vec<&str> = out.lines().collect();
    assert!(lines[0].contains("\"corrupt_skipped\":1"), "{out}");
    assert!(
        lines[0].contains(&format!("\"routes\":{}", fib.len())),
        "{out}"
    );
    let raw_total: u32 = raws.iter().sum();
    assert!(
        lines[4].contains(&format!("\"raw_updates\":{raw_total}")),
        "{out}"
    );
}

#[test]
fn bad_input_file_is_a_clean_error() {
    let fib = tmp("bad_input_base_fib.txt");
    std::fs::write(&fib, "10.0.0.0/8 1\n").unwrap();
    let fib = fib.to_str().unwrap();
    // (file, contents, the malformed line, the command that reads it)
    let cases: [(&str, &str, usize, &[&str]); 5] = [
        (
            "bad_fib.txt",
            "this is not a fib\n",
            1,
            &["compress", "--fib"],
        ),
        (
            "bad_fib_len.txt",
            "10.0.0.0/8 1\n# comment\n10.0.0.0/33 2\n",
            3,
            &["compress", "--fib"],
        ),
        (
            "bad_packets.txt",
            "10.0.0.1\n\n10.0.0.256\n",
            3,
            &["simulate", "--fib", fib, "--packets"],
        ),
        // Octets with leading zeros are rejected, as `Ipv4Addr` does.
        (
            "bad_packets_zero.txt",
            "010.0.0.1\n",
            1,
            &["simulate", "--fib", fib, "--packets"],
        ),
        (
            "bad_updates.txt",
            "A 10.0.0.0/8 1\nX 10.0.0.0/8\n",
            2,
            &["replay", "--fib", fib, "--updates"],
        ),
    ];
    for (name, contents, line, cmd) in cases {
        let bad = tmp(name);
        std::fs::write(&bad, contents).unwrap();
        let out = clue().args(cmd).arg(&bad).output().expect("spawn");
        assert!(!out.status.success(), "{name} was accepted");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(bad.to_str().unwrap()), "{stderr}");
        assert!(stderr.contains(&format!("line {line}")), "{stderr}");
    }
}

#[test]
fn generated_text_files_read_back_through_clue_fib_io() {
    use clue::fib::gen::FibGen;
    use clue::fib::io::{read_packets, read_route_table, read_updates};
    use clue::trace::{Scenario, ScenarioConfig, ScenarioKind};
    use clue::traffic::{PacketGen, UpdateGen};

    let path = |name: &str| tmp(name).to_str().unwrap().to_owned();
    let open = |p: &str| std::fs::File::open(p).expect("written file");
    let (fib, packets, updates) = (path("rt_fib.txt"), path("rt_pk.txt"), path("rt_up.txt"));
    run_ok(clue().args(["gen-fib", "--out", &fib, "--routes", "2000", "--seed", "31"]));
    run_ok(clue().args([
        "gen-packets",
        "--fib",
        &fib,
        "--out",
        &packets,
        "--count",
        "3000",
    ]));
    run_ok(clue().args([
        "gen-updates",
        "--fib",
        &fib,
        "--out",
        &updates,
        "--count",
        "400",
    ]));
    let table = read_route_table(open(&fib)).unwrap();
    assert_eq!(table, FibGen::new(31).routes(2000).next_hops(24).generate());
    assert_eq!(
        read_packets(open(&packets)).unwrap(),
        PacketGen::new(2).zipf_exponent(1.1).generate(&table, 3000)
    );
    assert_eq!(
        read_updates(open(&updates)).unwrap(),
        UpdateGen::new(3).generate(&table, 400)
    );

    let (xfib, xpk, xup) = (path("rt_xfib.txt"), path("rt_xpk.txt"), path("rt_xup.txt"));
    run_ok(clue().args([
        "trace",
        "info",
        "--scenario",
        "update-storm",
        "--seed",
        "5",
        "--routes",
        "2000",
        "--updates",
        "300",
        "--packets",
        "1000",
        "--export-fib",
        &xfib,
        "--export-updates",
        &xup,
        "--export-packets",
        &xpk,
    ]));
    let cfg = ScenarioConfig {
        seed: 5,
        routes: 2000,
        updates: 300,
        packets: 1000,
        ..ScenarioConfig::default()
    };
    let s = Scenario::build(ScenarioKind::UpdateStorm, &cfg);
    assert_eq!(read_route_table(open(&xfib)).unwrap(), s.base);
    assert_eq!(read_updates(open(&xup)).unwrap(), s.updates());
    assert_eq!(read_packets(open(&xpk)).unwrap(), s.packets);
}
