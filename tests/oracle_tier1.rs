//! Tier-1 bite (ROADMAP 5(e)): the differential oracle's sequential,
//! router and loopback-net phases, once per lookup backend at a small
//! scale, so the root package's `cargo test -q` fails when the pipeline
//! diverges and not only when the facade does. The full-size runs
//! (faults, recovery, shards, scenarios) stay with `clue check` in CI.

use clue::core::BackendKind;
use clue::oracle::{run_check, CheckConfig};

#[test]
fn every_backend_passes_the_sequential_router_and_net_phases() {
    for backend in BackendKind::ALL {
        let cfg = CheckConfig {
            backend,
            net: true,
            packets: 4_000,
            ..CheckConfig::new(0xC10E_0013, 600)
        };
        let report = run_check(&cfg).unwrap_or_else(|f| panic!("{backend}: {:?}", f.divergence));
        assert!(report.applied > 0, "{backend}: the trace changed nothing");
        assert!(report.router_lookups >= cfg.packets, "{backend}");
        assert!(report.net_lookups > 0, "{backend}: net phase did not run");
    }
}
