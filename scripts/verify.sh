#!/usr/bin/env bash
# Tier-1 verify for the SemHolo reproduction.
#
# The workspace is hermetic: every dependency is an in-tree crate (see
# crates/holo-runtime), so everything below runs from a cold cargo
# cache with no network. --offline makes any accidental reintroduction
# of a registry dependency fail loudly instead of hanging on a fetch.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release --offline"
cargo build --release --offline --workspace

echo "==> cargo test -q --offline"
cargo test -q --offline --workspace

echo "==> example smoke runs (SEMHOLO_EXAMPLE_QUICK=1)"
for example in quickstart remote_collaboration telesurgery \
    semantic_taxonomy_report conference_capacity fleet_capacity \
    chaos_recovery fuzz_sweep gaussian_amortization uep_comparison; do
  echo "--> example: ${example}"
  SEMHOLO_EXAMPLE_QUICK=1 \
    cargo run -q --release --offline --example "${example}" >/dev/null
done

# twice [VAR=val ...] EXAMPLE ARTIFACT...
# Run the example twice under the given environment and require every
# artifact to come out byte-identical (FIRST/SECOND: extra environment
# for one run only). Everything below is seeded virtual time or
# byte-derived — no wall clocks — so same seed means same bytes.
twice() {
  local envs=() artifact
  while [[ "$1" == *=* ]]; do envs+=("$1"); shift; done
  local example="$1"; shift
  env "${envs[@]}" ${FIRST:-} \
    cargo run -q --release --offline --example "${example}" >/dev/null
  for artifact in "$@"; do mv "${artifact}" "/tmp/semholo_run1_${artifact}"; done
  env "${envs[@]}" ${SECOND:-} \
    cargo run -q --release --offline --example "${example}" >/dev/null
  for artifact in "$@"; do
    cmp "/tmp/semholo_run1_${artifact}" "${artifact}"
    rm -f "/tmp/semholo_run1_${artifact}"
  done
}

# threads_1_vs_8 [VAR=val ...] EXAMPLE ARTIFACT...
# The fork-join pool's contract (DESIGN.md §10): thread count changes
# wall-clock time only, never bytes — reports, SLO verdicts and
# dominance documents must not know how many workers produced them.
threads_1_vs_8() {
  FIRST=SEMHOLO_THREADS=1 SECOND=SEMHOLO_THREADS=8 twice "$@"
}

echo "==> trace smoke: SEMHOLO_TRACE=1 quickstart, twice, byte-identical"
twice SEMHOLO_EXAMPLE_QUICK=1 SEMHOLO_TRACE=1 quickstart TRACE_quickstart.json
# And it must be valid trace-event JSON with the five stage spans.
for stage in extract encode transmit decode render; do
  grep -q "\"name\":\"${stage}\"" TRACE_quickstart.json \
    || { echo "trace missing stage ${stage}"; exit 1; }
done

echo "==> chaos smoke: seeded scenario matrix, twice, byte-identical"
twice SEMHOLO_EXAMPLE_QUICK=1 chaos_recovery RESILIENCE_chaos.json SLO_report.json

echo "==> fuzz smoke: seeded decoder sweep, twice, byte-identical"
twice SEMHOLO_EXAMPLE_QUICK=1 fuzz_sweep FUZZ_report.json

echo "==> fleet smoke: capacity search, twice, byte-identical"
twice SEMHOLO_EXAMPLE_QUICK=1 fleet_capacity FLEET_capacity.json SLO_fleet.json

echo "==> gaussian smoke: amortization frontier, twice, byte-identical"
twice SEMHOLO_EXAMPLE_QUICK=1 gaussian_amortization \
  BENCH_gaussian_amortization.json GAUSSIAN_frontier.json

echo "==> uep smoke: weighted-vs-uniform sweep, twice, byte-identical"
twice uep_comparison UEP_report.json

echo "==> cross-thread gate: SEMHOLO_THREADS=1 vs =8, byte-identical"
threads_1_vs_8 SEMHOLO_EXAMPLE_QUICK=1 chaos_recovery RESILIENCE_chaos.json SLO_report.json
threads_1_vs_8 SEMHOLO_EXAMPLE_QUICK=1 fuzz_sweep FUZZ_report.json
threads_1_vs_8 SEMHOLO_EXAMPLE_QUICK=1 fleet_capacity FLEET_capacity.json SLO_fleet.json
threads_1_vs_8 SEMHOLO_EXAMPLE_QUICK=1 gaussian_amortization BENCH_gaussian_amortization.json
threads_1_vs_8 uep_comparison UEP_report.json

echo "==> benchmark smoke: benchmark/ builds against the public API and passes its checks"
# The benchmark package is its own workspace, so nothing above compiles
# it: a public-API break only it sees would pass otherwise. Writes nothing.
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- --smoke

if command -v cargo-clippy >/dev/null 2>&1; then
  echo "==> cargo clippy -- -D warnings, on the crates held to it"
  cargo clippy -q --offline -p holo-runtime --all-targets -- -D warnings
  cargo clippy -q --offline -p holo-trace --all-targets -- -D warnings
  cargo clippy -q --offline -p holo-chaos --no-deps --all-targets -- -D warnings
  cargo clippy -q --offline -p holo-uep --no-deps --all-targets -- -D warnings
  cargo clippy -q --offline -p holo-fuzz --no-deps --all-targets -- -D warnings
  cargo clippy -q --offline -p holo-fleet --no-deps --all-targets -- -D warnings
  cargo clippy -q --offline -p holo-obs --no-deps --all-targets -- -D warnings
  cargo clippy -q --offline -p holo-gaussian --no-deps --all-targets -- -D warnings
  cargo clippy -q --offline -p holo-mesh --no-deps --all-targets -- -D warnings
  cargo clippy -q --offline -p holo-body --no-deps --all-targets -- -D warnings
  cargo clippy -q --offline -p holo-capture --no-deps --all-targets -- -D warnings
  cargo clippy -q --offline -p holo-compress --no-deps --all-targets -- -D warnings
else
  echo "==> clippy unavailable; skipping lint step"
fi

echo "==> scripts/ab_pairs.sh parses (not run here: it builds a second tree)"
bash -n scripts/ab_pairs.sh

echo "==> bench gate self-test: injected 2x slowdown must fail the gate"
bash scripts/bench_gate.sh --self-test

echo "==> cargo bench -q --offline -- --quick"
cargo bench -q --offline --workspace -- --quick

echo "==> bench reports:"
ls -1 BENCH_*.json

echo "==> bench gate: fresh artifacts vs committed baselines (advisory)"
# --quick sampling on a shared machine is too noisy to hard-fail tier-1
# verify; the delta report still lands in BENCH_gate_report.json and a
# regression is printed loudly. CI perf runs invoke the gate directly
# (scripts/bench_gate.sh) where it does fail the build.
bash scripts/bench_gate.sh . \
  || echo "WARNING: bench gate flagged regressions (see BENCH_gate_report.json)"

echo "verify: OK"
