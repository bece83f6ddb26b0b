#!/usr/bin/env bash
# Option audit, the way CHANGES.md entries quote it: for every `pub`
# field of every `pub struct *Config | *Spec | *Options | *Criteria`
# declared under the given paths (default: crates), the number of
# files that assign it outside that struct's `impl Default` (a struct
# literal, `Self { .. }` in the struct's own impl, or a `.field =` in a
# file of or naming the struct's crate) and the number of files outside
# its crate that read it (`.field`, in a file naming the crate); then
# per struct and in total: fields, fields with no setter, fields with
# neither. A unit-test module (a file's first `#[cfg(test)]` and below)
# is not a caller; an integration test under a tests/ directory sees
# only the public API, as an example or a bench target does, and is.
# A field with neither is an option only its default can reach: make it
# a constant.
#
#   scripts/option_audit.sh [--check] [path...]
#
# --check exits 1 naming every field with neither, except the waivers.
set -euo pipefail
cd "$(dirname "$0")/.."
check=0
if [ "${1:-}" = --check ]; then check=1; shift; fi
[ $# -gt 0 ] || set -- crates

# One waiver a line: Struct.field, then why it cannot move yet.
waivers='
'

suffix='(Config|Spec|Options|Criteria)'
decls=$(grep -rlE --include='*.rs' "^[[:space:]]*pub struct [A-Za-z0-9_]*$suffix[[:space:]]*\{" "$@" | sort)
uses=$(find crates examples benchmark/src benchmark/tests src tests -name '*.rs' \
  -not -path '*/target/*' | sort)

# shellcheck disable=SC2086
awk -v check="$check" -v waivers="$waivers" -v suffix="$suffix" '
  function crate_dir(path,   p) {
    if (path !~ /^crates\//) { p = path; sub(/\/.*/, "", p); return p }
    p = substr(path, 8); sub(/\/.*/, "", p); return "crates/" p
  }
  # `holo-conf` as source names it: `holo_conf`.
  function crate_ident(dir,   toml, line) {
    if (dir in ident) return ident[dir]
    ident[dir] = ""
    toml = dir "/Cargo.toml"
    while ((getline line < toml) > 0)
      if (line ~ /^name *= *"/) {
        sub(/^name *= *"/, "", line); sub(/".*/, "", line); gsub(/-/, "_", line)
        ident[dir] = line; break
      }
    close(toml)
    return ident[dir]
  }
  function is_ident(c) { return c ~ /[A-Za-z0-9_]/ }
  # The struct whose impl block encloses the current position, and
  # whether `impl Default for name` does.
  function enclosing_impl(   d) {
    for (d = depth; d > 0; d--) if (kind[d] == "impl" || kind[d] == "default") return sname[d]
    return ""
  }
  function in_default_of(name,   d) {
    for (d = depth; d > 0; d--) if (kind[d] == "default" && sname[d] == name) return 1
    return 0
  }
  function assign(name, field) {
    if ((name SUBSEP field) in is_field && !in_default_of(name)) setter[name, field, FILENAME] = 1
  }
  function confirm(   name) {
    if (pending[depth] == "") return
    name = sname[depth]
    if (name == "Self") name = enclosing_impl()
    assign(name, pending[depth]); pending[depth] = ""
  }
  # A `{` at column i: what opens here?
  function open_brace(line, i,   pre, word) {
    pre = substr(line, 1, i - 1); sub(/[ \t]+$/, "", pre)
    depth++; kind[depth] = "block"; sname[depth] = ""; pending[depth] = ""; expect[depth] = 0; parens[depth] = 0
    if (!match(pre, /[A-Za-z0-9_]+$/)) return
    word = substr(pre, RSTART)
    if (word != "Self" && !(word in structs)) return
    pre = substr(pre, 1, RSTART - 1)
    sub(/([a-z_0-9]+::)+$/, "", pre); sub(/[ \t]+$/, "", pre)
    if (pre ~ /(^|[^A-Za-z0-9_])(struct|enum|trait|mod|let|let mut)$/ || pre ~ /->$/) return
    sname[depth] = word
    if (pre ~ /(^|[^A-Za-z0-9_])for$/) kind[depth] = (pre ~ /impl(<[^>]*>)?[ \t]+Default[ \t]+for$/) ? "default" : "impl"
    else if (pre ~ /(^|[^A-Za-z0-9_])impl(<[^>]*>)?$/) kind[depth] = "impl"
    else { kind[depth] = "lit"; expect[depth] = 1 }
  }
  # Walk one line for braces and, inside a struct literal, its entries:
  # `field: value`, shorthand `field`, `..base`.
  function walk(line,   i, n, c, word) {
    n = length(line); word = ""
    for (i = 1; i <= n + 1; i++) {
      c = (i <= n) ? substr(line, i, 1) : " "
      if (is_ident(c)) { word = word c; continue }
      if (word != "") {
        if (kind[depth] == "lit" && expect[depth] && parens[depth] == 0) pending[depth] = word
        expect[depth] = 0; word = ""
      }
      if (c == " " || c == "\t") continue
      if (c == "{") { open_brace(line, i); continue }
      if (c == "}") { if (depth > 0) { if (kind[depth] == "lit") confirm(); depth-- } continue }
      if (kind[depth] != "lit") continue
      if (c == ":" && substr(line, i + 1, 1) != ":" && substr(line, i - 1, 1) != ":") { confirm(); continue }
      if (c == "," && parens[depth] == 0) { confirm(); expect[depth] = 1; continue }
      if (c == "(" || c == "[") parens[depth]++
      if (c == ")" || c == "]") parens[depth]--
      pending[depth] = ""
    }
  }

  FNR == 1 { depth = 0; kind[0] = ""; skip = 0; in_struct = "" }

  phase == 1 {
    if (in_struct == "" && match($0, "^[ \t]*pub struct [A-Za-z0-9_]*" suffix "[ \t]*[{]")) {
      in_struct = $0; sub(/^[ \t]*pub struct /, "", in_struct); sub(/[ \t]*[{].*/, "", in_struct)
      structs[in_struct] = crate_dir(FILENAME); order[++nstructs] = in_struct; home[in_struct] = FILENAME
      crate_ident(structs[in_struct])
    } else if (in_struct != "" && /^\}/) in_struct = ""
    else if (in_struct != "" && match($0, /^[ \t]*pub [a-z_0-9]+:/)) {
      f = $0; sub(/^[ \t]*pub /, "", f); sub(/:.*/, "", f)
      is_field[in_struct, f] = 1; any_field[f] = 1
      fields[in_struct, ++nfields[in_struct]] = f
    }
    next
  }

  skip { next }
  /^[ \t]*#\[cfg\(test\)\]/ && FILENAME !~ /(^|\/)tests\// { skip = 1; next }
  {
    line = $0
    gsub(/\047(\\.|[^\\\047])\047/, "0", line)
    gsub(/"([^"\\]|\\.)*"/, "\"\"", line)
    sub(/\/\/.*/, "", line)
    for (d in ident) if (ident[d] != "" && index(line, ident[d])) names_crate[FILENAME, d] = 1
    rest = line
    while (match(rest, /\.[a-z_][a-z_0-9]*/)) {
      f = substr(rest, RSTART + 1, RLENGTH - 1)
      rest = substr(rest, RSTART + RLENGTH)
      if (!(f in any_field)) continue
      tail = rest; sub(/^[ \t]+/, "", tail)
      if (tail ~ /^\(/) continue
      if (tail ~ /^(=[^=]|[-+*\/%|&^]=|<<=|>>=)/) wrote[FILENAME, f] = 1
      else read[FILENAME, f] = 1
    }
    if (depth > 0 || line ~ /[{}]/) walk(line)
  }

  END {
    for (key in wrote) {
      split(key, k, SUBSEP)
      for (s in structs)
        if ((s SUBSEP k[2]) in is_field && (crate_dir(k[1]) == structs[s] || ((k[1] SUBSEP structs[s]) in names_crate)))
          setter[s, k[2], k[1]] = 1
    }
    for (key in setter) { split(key, k, SUBSEP); setters[k[1], k[2]]++ }
    for (key in read) {
      split(key, k, SUBSEP)
      for (s in structs)
        if ((s SUBSEP k[2]) in is_field && crate_dir(k[1]) != structs[s] && ((k[1] SUBSEP structs[s]) in names_crate))
          readers[s, k[2]]++
    }
    n = split(waivers, w, "\n")
    for (i = 1; i <= n; i++) if (w[i] != "") { split(w[i], k, " "); waived[k[1]] = 1 }

    printf "%7s %7s  %s\n", "setters", "readers", "field"
    for (i = 1; i <= nstructs; i++) {
      s = order[i]
      for (j = 1; j <= nfields[s]; j++) {
        f = fields[s, j]
        printf "%7d %7d  %s.%s\n", setters[s, f], readers[s, f], s, f
        if (!setters[s, f]) {
          unset[s]++
          if (!readers[s, f]) {
            neither[s]++
            if ((s "." f) in waived) total_waived++
            else failing[++nfailing] = s "." f "  (" home[s] ")"
          }
        }
      }
    }
    printf "\n%7s %7s %7s  %s\n", "fields", "unset", "neither", "struct"
    for (i = 1; i <= nstructs; i++) {
      s = order[i]
      printf "%7d %7d %7d  %s\n", nfields[s], unset[s], neither[s], s
      total += nfields[s]; total_unset += unset[s]; total_neither += neither[s]
    }
    printf "%7d %7d %7d  total (%d structs, %d waived)\n", total, total_unset, total_neither, nstructs, total_waived
    if (check && nfailing) {
      for (i = 1; i <= nfailing; i++) print "option_audit: no setter and no outside reader: " failing[i] > "/dev/stderr"
      exit 1
    }
  }
' phase=1 $decls phase=2 $uses
