#!/usr/bin/env bash
# The house A/B protocol (benchmark/README.md, "The estimator"): N
# alternating pairs of one benchmark run at a parent commit and one at
# the working tree, and per end-to-end metric every pair, both medians
# with quartiles, the parent's interquartile range as a share of its
# median, and the pairs the change won; then, from five traced runs per
# side, run alternately, where the difference is: each per-layer timing
# as both sides' medians and min-max ranges, "moved" only where the two
# ranges are disjoint and "unresolved" otherwise, and each per-layer
# count that is not the same in all ten runs.
#
#   scripts/ab_pairs.sh <parent-ref> <workload|all> [pairs=10] [seconds=30] [seed=42]
#
# Both sides are built at one path, one after the other: the parent
# from `git archive`, then the working tree as it stands (tracked and
# untracked files, ignored ones left out), each extracted into
# target/ab/tree and built with CARGO_TARGET_DIR=target/ab/target, which
# is emptied first. So panic strings, package IDs and code placement
# differ only where the code does. Each binary is copied out to
# target/ab/bin/ and its sha256 and `.text` start printed; equal
# binaries are reported as such and no pair is run. Otherwise the
# parent runs from its own tree (target/ab/parent) and the change from
# the repository root, so each writes its own benchmark/out. Odd pairs
# run the parent first, even pairs the change. No network, nothing under
# benchmark/ is touched, nothing is left registered in .git. `all` takes
# the workloads of BENCHMARK.json one after another.
set -euo pipefail
cd "$(dirname "$0")/.."

[[ $# -ge 2 ]] || { sed -n '2,26s/^# \{0,1\}//p' "$0"; exit 2; }
ref="$1" which="$2" pairs="${3:-10}" seconds="${4:-30}" seed="${5:-42}"
root="$PWD" ab="$PWD/target/ab"
traced_runs=5
commit="$(git rev-parse --short "${ref}^{commit}")"

# BENCHMARK.json is one key per line: the workloads' names, and each
# end-to-end metric's name with the direction that is better.
workload_names() {
  awk '/"workloads"/ { on = 1 } /"end_to_end"/ { on = 0 }
    on && /"name":/ { gsub(/[",]/, ""); print $2 }' BENCHMARK.json
}
metrics() {
  awk '/"end_to_end"/ { on = 1 } /"per_layer"/ { on = 0 }
    on && /"name":/ { gsub(/[",]/, ""); name = $2 }
    on && /"better":/ { gsub(/[",]/, ""); print name, $2 }' BENCHMARK.json
}
layers() {
  awk '/"per_layer"/ { on = 1 } on && /"name":/ { gsub(/[",]/, ""); name = $2 }
    on && /"unit":/ { gsub(/[",]/, ""); print name, $2 }' BENCHMARK.json
}
workloads="$which"
[[ "$which" != all ]] || workloads="$(workload_names)"

# build <side>: build the tree extracted at target/ab/tree and copy its
# binary to target/ab/bin/<side>.
build() {
  rm -rf "$ab/target"
  (cd "$ab/tree" && CARGO_TARGET_DIR="$ab/target" \
    cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml)
  cp "$ab/target/release/semholo-benchmark" "$ab/bin/$1"
}
rm -rf "$ab/tree" "$ab/parent" "$ab/bin" "$ab/runs" && mkdir -p "$ab/tree" "$ab/bin" "$ab/runs"
echo "==> building parent ${commit}, then the working tree, both at ${ab}/tree" >&2
git archive "$commit" | tar -x -C "$ab/tree"
build parent
mv "$ab/tree" "$ab/parent" && mkdir "$ab/tree"
git ls-files -z --cached --others --exclude-standard |
  while IFS= read -r -d '' f; do [[ ! -e "$f" ]] || printf '%s\0' "$f"; done |
  tar -c --null -T - | tar -x -C "$ab/tree"
build change
for side in parent change; do
  text="$(readelf -SW "$ab/bin/$side" | sed -n 's/.* \.text  *PROGBITS  *\([0-9a-f]*\) .*/0x\1/p')"
  echo "${side}: sha256 $(sha256sum <"$ab/bin/$side" | cut -d' ' -f1), .text at ${text}"
done
if cmp -s "$ab/bin/parent" "$ab/bin/change"; then
  echo "the binaries are identical: no pair is run, there is no difference to measure"
  exit 0
fi

# run <side> <workload> <pair> [trace=0]: the run's last stdout line, a
# JSON object; all of its stdout is kept under target/ab/runs/.
run() {
  local dir="$root"
  [[ "$1" == change ]] || dir="$ab/parent"
  (cd "$dir" && "$ab/bin/$1" \
    --workload "$2" --seed "$seed" --seconds "$seconds" --trace "${4:-0}") >"$ab/runs/$1_$2_$3.txt"
  tail -n 1 "$ab/runs/$1_$2_$3.txt"
}
# traced_frame <side> <workload> <k>: the frame time traced run k printed.
traced_frame() { awk '$1 == "frame_ms_p50" { print $2 }' "$ab/runs/$1_$2_traced$3.txt"; }
# field <json> <name>: a top-level number, or a metric's value.
field() {
  sed -n "s/.*\"$2\":\({\"value\":\)\{0,1\}\([-0-9.eE+]*\).*/\2/p" <<<"$1"
}

for workload in $workloads; do
  parent=() change=()
  for ((i = 1; i <= pairs; i++)); do
    echo "--> ${workload}: pair ${i}/${pairs}" >&2
    if ((i % 2)); then
      parent+=("$(run parent "$workload" "$i")"); change+=("$(run change "$workload" "$i")")
    else
      change+=("$(run change "$workload" "$i")"); parent+=("$(run parent "$workload" "$i")")
    fi
  done
  echo "== ${workload}: ${pairs} pairs x ${seconds} s, seed ${seed}, parent ${commit} vs working tree =="
  failed=""
  for ((i = 0; i < pairs; i++)); do
    failed+=" $(field "${parent[i]}" failed)/$(field "${change[i]}" failed)"
  done
  echo "failed, parent/change:${failed}"
  for side in parent change; do
    echo "digests, ${side}:"
    grep -h digest "$ab/runs/${side}_${workload}_"*.txt | sed 's/, [0-9]* [a-z]* agree//' | sort | uniq -c
  done
  metrics | while read -r metric better; do
    for ((i = 0; i < pairs; i++)); do
      echo "$(field "${parent[i]}" "$metric") $(field "${change[i]}" "$metric")"
    done | awk -v metric="$metric" -v better="$better" '
      # Quantile by linear interpolation between order statistics.
      function quantile(v, n, p,    h, lo) {
        h = (n - 1) * p; lo = int(h)
        return v[lo + 1] + (h - lo) * (v[(lo + 1 < n ? lo + 2 : n)] - v[lo + 1])
      }
      function sorted(src, dst, n,    i, j, t) {
        for (i = 1; i <= n; i++) dst[i] = src[i]
        for (i = 2; i <= n; i++) for (j = i; j > 1 && dst[j - 1] > dst[j]; j--) { t = dst[j]; dst[j] = dst[j - 1]; dst[j - 1] = t }
      }
      { a[NR] = $1; b[NR] = $2; list = list sprintf(" %.6g/%.6g", $1, $2)
        if ($1 != $2) { if (($2 < $1) == (better == "lower")) wins++; else losses++ } }
      END {
        sorted(a, sa, NR); sorted(b, sb, NR)
        ma = quantile(sa, NR, 0.5); mb = quantile(sb, NR, 0.5)
        printf "%s (%s is better)\n  pairs, parent/change:%s\n", metric, better, list
        printf "  parent median %.6g [%.6g, %.6g], IQR %.2f %% of it\n", ma, quantile(sa, NR, 0.25), quantile(sa, NR, 0.75), (ma ? 100 * (quantile(sa, NR, 0.75) - quantile(sa, NR, 0.25)) / ma : 0)
        printf "  change median %.6g [%.6g, %.6g], %+.2f %%", mb, quantile(sb, NR, 0.25), quantile(sb, NR, 0.75), (ma ? 100 * (mb - ma) / ma : 0)
        if (ma && mb) printf " (%.2fx)", (better == "lower" ? ma / mb : mb / ma)
        printf "\n  wins %d/%d, losses %d, ties %d\n", wins, NR, losses, NR - wins - losses
      }'
  done
  # Where: a traced run's last line holds the per-layer metrics (its
  # frame time, which pays for the tracing, is in the text above it).
  # Five runs a side, alternating as the pairs do: with no change, two
  # sides' ranges come out disjoint in 2 of the 252 equally likely
  # orderings (under 1 %), where three runs a side gave 2 of 20. A timing
  # moved only where the two sides' ranges do not overlap; a count
  # repeats run to run, so one that differs anywhere is printed whole. A
  # layer the workload does not run reads 0 in every run and is left out.
  traced_parent=() traced_change=()
  for ((k = 1; k <= traced_runs; k++)); do
    echo "--> ${workload}: traced run ${k}/${traced_runs} per side" >&2
    if ((k % 2)); then
      traced_parent+=("$(run parent "$workload" "traced$k" 1)"); traced_change+=("$(run change "$workload" "traced$k" 1)")
    else
      traced_change+=("$(run change "$workload" "traced$k" 1)"); traced_parent+=("$(run parent "$workload" "traced$k" 1)")
    fi
  done
  echo "where, ${traced_runs} traced runs per side: per-layer timings (median [min, max], parent then change) and counts that differ"
  {
    for side in parent change; do
      for ((k = 1; k <= traced_runs; k++)); do traced_frame "$side" "$workload" "$k"; done
    done | paste -sd' ' - | sed 's/^/frame_ms_p50 ms /'
    layers | while read -r metric unit; do
      for traced in "${traced_parent[@]}" "${traced_change[@]}"; do field "$traced" "$metric"; done |
        paste -sd' ' - | sed "s|^|$metric $unit |"
    done
  } | awk -v n="$traced_runs" 'NF == 2 + 2 * n {
      zero = 1; same = 1
      for (i = 3; i <= NF; i++) { if ($i != 0) zero = 0; if ($i != $3) same = 0 }
      if (zero) next
      timing = $2 == "ms" || $2 == "ns" || $2 == "1/s" || $2 == "%"
      if (!timing) {
        if (!same) {
          line = ""
          for (i = 3; i <= NF; i++) line = line (i == 3 ? "" : i == 3 + n ? " -> " : "/") $i
          printf "  %-36s count  %s\n", $1, line
        }
        next
      }
      for (side = 0; side < 2; side++) {
        # One side: its n values, sorted, give the median and the range.
        for (i = 1; i <= n; i++) v[i] = $(2 + side * n + i)
        for (i = 2; i <= n; i++) for (j = i; j > 1 && v[j - 1] > v[j]; j--) { t = v[j]; v[j] = v[j - 1]; v[j - 1] = t }
        lo[side] = v[1]; hi[side] = v[n]; med[side] = v[int((n + 1) / 2)]
      }
      verdict = hi[1] < lo[0] || hi[0] < lo[1] ? "moved" : "unresolved"
      printf "  %-36s %12.6g [%.6g, %.6g] %12.6g [%.6g, %.6g] %+8.2f %%  %s\n", $1, med[0], lo[0], hi[0], med[1], lo[1], hi[1], (med[0] ? 100 * (med[1] - med[0]) / med[0] : 0), verdict
    }'
done
