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

scratch="$(mktemp -d)"
trap 'rm -rf "$scratch"' EXIT
examples="$PWD/target/release/examples"

echo "==> example smoke runs (SEMHOLO_EXAMPLE_QUICK=1)"
for example in remote_collaboration telesurgery semantic_taxonomy_report conference_capacity; do
  echo "--> example: ${example}"
  (cd "$scratch" && SEMHOLO_EXAMPLE_QUICK=1 "$examples/$example" >/dev/null)
done

# twice [VAR=val ...] EXAMPLE ARTIFACT...
# Run the example (full mode: what the committed artifacts are) in two
# scratch directories under the given environment (FIRST/SECOND: extra
# environment for one run only) and require every artifact to come out
# byte-identical across the pair and against the committed file of the
# same name. Everything below is seeded virtual time or byte-derived —
# no wall clocks — so same seed means same bytes. A BENCH_* document
# also carries the machine's core count, so its committed copy is
# compared by scripts/bench_gate.sh, on facts.
twice() {
  local envs=() artifact
  while [[ "$1" == *=* ]]; do envs+=("$1"); shift; done
  local example="$1"; shift
  rm -rf "$scratch/1" "$scratch/2"; mkdir "$scratch/1" "$scratch/2"
  (cd "$scratch/1" && env "${envs[@]}" ${FIRST:-} "$examples/$example" >/dev/null)
  (cd "$scratch/2" && env "${envs[@]}" ${SECOND:-} "$examples/$example" >/dev/null)
  for artifact in "$@"; do
    cmp "$scratch/1/$artifact" "$scratch/2/$artifact"
    [[ "$artifact" == BENCH_* ]] || cmp "$scratch/1/$artifact" "$artifact"
  done
}

# threads_1_vs_8 [VAR=val ...] EXAMPLE ARTIFACT...
# The fork-join pool's contract (DESIGN.md §10): thread count changes
# wall-clock time only, never bytes — reports, SLO verdicts and
# dominance documents must not know how many workers produced them.
threads_1_vs_8() {
  FIRST=SEMHOLO_THREADS=1 SECOND=SEMHOLO_THREADS=8 twice "$@"
}

echo "==> trace: SEMHOLO_TRACE=1 quickstart, twice, byte-identical, as committed"
twice SEMHOLO_TRACE=1 quickstart TRACE_quickstart.json
# And it must be valid trace-event JSON with the five stage spans.
for stage in extract encode transmit decode render; do
  grep -q "\"name\":\"${stage}\"" TRACE_quickstart.json \
    || { echo "trace missing stage ${stage}"; exit 1; }
done

echo "==> seeded reports: twice, then SEMHOLO_THREADS=1 vs =8, byte-identical, as committed"
for check in twice threads_1_vs_8; do
  "$check" chaos_recovery RESILIENCE_chaos.json SLO_report.json
  "$check" fuzz_sweep FUZZ_report.json
  "$check" fleet_capacity FLEET_capacity.json SLO_fleet.json
  "$check" gaussian_amortization BENCH_gaussian_amortization.json GAUSSIAN_frontier.json
  "$check" uep_comparison UEP_report.json
done

echo "==> benchmark smoke: benchmark/ builds against the public API and passes its checks"
# The benchmark package is its own workspace, so nothing above compiles
# it: a public-API break only it sees would pass otherwise. Writes nothing.
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- --smoke

if command -v cargo-clippy >/dev/null 2>&1; then
  echo "==> cargo clippy -- -D warnings, on the crates held to it"
  cargo clippy -q --offline -p holo-runtime --all-targets -- -D warnings
  cargo clippy -q --offline -p holo-trace --all-targets -- -D warnings
  for crate in chaos uep fuzz conf fleet obs gaussian mesh body capture compress net bench; do
    cargo clippy -q --offline -p "holo-$crate" --no-deps --all-targets -- -D warnings
  done
else
  echo "==> clippy unavailable; skipping lint step"
fi

echo "==> scripts/ab_pairs.sh parses (not run here: it builds a second tree)"
bash -n scripts/ab_pairs.sh

echo "==> option audit: every config field has a setter or an outside reader"
bash scripts/option_audit.sh --check >/dev/null

echo "==> bench gate: quick benches into a scratch directory, facts exact vs committed"
bash scripts/bench_gate.sh

echo "==> verify wrote nothing into the tree"
[ "$(git status --porcelain)" = "$status_before" ] \
  || { echo "verify changed the working tree:"; git status --short; exit 1; }

echo "verify: OK"
