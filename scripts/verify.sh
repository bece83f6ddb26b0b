#!/usr/bin/env bash
# Tier-1 verify for the SemHolo reproduction.
#
# The workspace is hermetic: every dependency is an in-tree crate (see
# crates/holo-runtime), so everything below runs from a cold cargo
# cache with no network. --offline makes any accidental reintroduction
# of a registry dependency fail loudly instead of hanging on a fetch.
# Every generator runs in a scratch directory and is compared against
# the committed artifact, so verify writes nothing into the tree — and
# checks that at the end.
set -euo pipefail
cd "$(dirname "$0")/.."
status_before="$(git status --porcelain)"

echo "==> cargo build --release --offline"
cargo build --release --offline --workspace
cargo build -q --release --offline --examples

echo "==> cargo test -q --offline"
cargo test -q --offline --workspace

echo "==> the disabled-path checks, with SEMHOLO_TRACE=1 in the environment"
# The variable turns tracing on for the whole test process; each check
# then reruns itself in a child process without it.
SEMHOLO_TRACE=1 cargo test -q --offline --test trace_determinism disabled_recorder_stays_empty -- --exact
SEMHOLO_TRACE=1 cargo test -q --offline -p semholo --lib session::tests::untraced_run_records_no_spans -- --exact

echo "==> every example in one scratch directory; each report it writes is the committed file"
# tests/committed_reports.rs reproduces each report, the paper's
# BENCH_*.json facts among them, from its recipe at thread counts 1, 2
# and 8; this checks that the examples write those bytes.
# SEMHOLO_EXAMPLE_QUICK shrinks the smoke-run examples' own probes; no
# report depends on it.
scratch="$(mktemp -d)"
trap 'rm -rf "$scratch"' EXIT
for example in examples/*.rs; do
  example="$(basename "$example" .rs)"
  echo "--> example: ${example}"
  (cd "$scratch" && SEMHOLO_EXAMPLE_QUICK=1 "$OLDPWD/target/release/examples/$example" >/dev/null)
done
for report in "$scratch"/*.json; do cmp "$report" "$(basename "$report")"; done

echo "==> benchmark tests: benchmark/ builds against the public API and passes its checks"
# The benchmark package is its own workspace, so nothing above compiles
# it: a public-API break only it sees would pass otherwise. Its unit
# tests (the sim suite's checks among them) and its smoke test, which
# runs every workload plain and traced. Writes nothing.
cargo test -q --offline --manifest-path benchmark/Cargo.toml

if command -v cargo-clippy >/dev/null 2>&1; then
  echo "==> cargo clippy -- -D warnings, on every crate"
  cargo clippy -q --offline --workspace --no-deps --all-targets -- -D warnings
else
  echo "==> clippy unavailable; skipping lint step"
fi

echo "==> scripts/ab_pairs.sh and scripts/mutants.sh parse (not run here: each builds a second tree)"
bash -n scripts/ab_pairs.sh
bash -n scripts/mutants.sh

echo "==> option audit: every config field has a setter or an outside reader"
bash scripts/option_audit.sh --check >/dev/null

echo "==> caller audit: every pub item has a non-test caller or an allow-listed test"
bash scripts/caller_audit.sh --check >/dev/null

echo "==> verify wrote nothing into the tree"
[ "$(git status --porcelain)" = "$status_before" ] \
  || { echo "verify changed the working tree:"; git status --short; exit 1; }

echo "verify: OK"
