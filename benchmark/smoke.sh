#!/bin/sh
# Smoke run for CI: every workload with a 1 s window, then --check the
# document against BENCHMARK.json. Numbers from a 1 s window mean
# nothing; this only proves the harness runs, the answers are right and
# the output carries every contracted name. Run from anywhere.
set -eu
cd "$(dirname "$0")/.."
exec cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
    run --window-s 1 --check "$@"
