#!/usr/bin/env bash
# The bench gate: regenerate every BENCH_*.json in quick mode into a
# scratch directory and compare against the committed copies at the repo
# root. Facts must match to the digit — any changed value or unit,
# one-sided fact or document, or mode mismatch exits 1 naming it,
# old -> new. Timings are printed as an advisory ratio table that never
# affects the exit code (see crates/holo-obs/src/gate.rs). Nothing in the
# working tree is written except the ignored BENCH_gate_report.json.
#
# To re-baseline after a deliberate change, write the root copies:
#   cargo bench -q --offline --workspace -- --quick
set -euo pipefail
cd "$(dirname "$0")/.."
fresh="$(mktemp -d)"
trap 'rm -rf "$fresh"' EXIT

echo "==> cargo bench -q --offline -- --quick (into $fresh)"
HOLO_BENCH_OUT_DIR="$fresh" cargo bench -q --offline --workspace -- --quick
cargo build -q --release --offline -p holo-obs --bin bench_gate
target/release/bench_gate . "$fresh" --report BENCH_gate_report.json
