#!/usr/bin/env bash
# Kept mutants: each scripts/mutants/*.patch is a deliberate bug that
# the tests its header names must catch. Per patch, the working tree
# (tracked and untracked files, ignored ones left out: the extraction
# ab_pairs.sh uses) is extracted into target/mutants/tree, the patch is
# applied there, and only the named tests run. One line per patch:
#
#   killed    a named test failed: the tests catch the bug
#   survived  every named test passed: the tests miss it
#   stale     the patch does not apply or build, or a named test is gone
#
#   scripts/mutants.sh [patch...]     # default: scripts/mutants/*.patch
#
# A header is the text above the patch's first `--- ` line; each of its
# `Test: <cargo test arguments> <test name>` lines names one test, run
# as `cargo test --offline <arguments> -- --exact <test name>`. Builds
# share CARGO_TARGET_DIR=target/mutants/target; each run's output is
# kept in target/mutants/<patch>.log. Exits 1 unless every patch is
# killed. Nothing outside target/mutants is written.
set -euo pipefail
cd "$(dirname "$0")/.."
work="$PWD/target/mutants"
patches=("$@")
[[ ${#patches[@]} -gt 0 ]] || patches=(scripts/mutants/*.patch)
mkdir -p "$work"

status=0
for patch in "${patches[@]}"; do
  patch="$(realpath "$patch")" name="$(basename "$patch" .patch)" log="$work/$(basename "$patch" .patch).log"
  rm -rf "$work/tree" && mkdir "$work/tree"
  git ls-files -z --cached --others --exclude-standard |
    while IFS= read -r -d '' f; do [[ ! -e "$f" ]] || printf '%s\0' "$f"; done |
    tar -c --null -T - | tar -x -C "$work/tree"
  tests="$(sed -n '/^--- /q; s/^Test: //p' "$patch")"
  verdict=survived
  if [[ -z "$tests" ]] || ! patch -d "$work/tree" -p1 --quiet --forward <"$patch" >"$log" 2>&1; then
    verdict=stale
  else
    while read -r line; do
      args="${line% *}" test="${line##* }"
      # shellcheck disable=SC2086 # the arguments are words
      if ! (cd "$work/tree" && CARGO_TARGET_DIR="$work/target" cargo test --offline -q $args --no-run) >>"$log" 2>&1; then
        verdict=stale && break
      fi
      # shellcheck disable=SC2086
      if (cd "$work/tree" && CARGO_TARGET_DIR="$work/target" cargo test --offline -q $args -- --exact "$test") >"$work/run.out" 2>&1; then
        grep -q '^running 1 test$' "$work/run.out" || verdict=stale
      else
        verdict=killed
      fi
      cat "$work/run.out" >>"$log"
      [[ "$verdict" == survived ]] || break
    done <<<"$tests"
  fi
  printf '%-9s %s\n' "$verdict" "$name"
  [[ "$verdict" == killed ]] || status=1
done
exit "$status"
