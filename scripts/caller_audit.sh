#!/usr/bin/env bash
# Caller audit: every `pub` fn, struct, enum, trait, type, const and
# static declared in non-test code under crates/, with the number of
# word matches of its name in non-test code under crates/ (benches and
# binaries included), src/, examples/ and benchmark/src. Files are
# split the way scripts/nontest_lines.sh splits them: a file's first
# `#[cfg(test)]` and below is test code, and so is every file under a
# tests/ directory. Comments, string literals, `pub use` re-exports,
# `impl` headers and the declared name on its own declaration line are
# not matches; a `$crate::` path in a `macro_rules!` body is. The count is by name
# only, so an item whose name collides with another's (`len`, `new`)
# is never listed; an item that is listed has no non-test caller.
#
#   scripts/caller_audit.sh [--check]
#
# Prints every listed item (no matches) as crate::module::[Type::]name,
# its kind and its file:line, then the totals. --check exits 1 naming
# every listed item that is not on the allow-list; an allow-list entry
# that lists nothing is reported on stderr.
set -euo pipefail
cd "$(dirname "$0")/.."
check=0
if [ "${1:-}" = --check ]; then check=1; shift; fi

# One entry a line: the item as listed, then the test outside its crate
# that uses it. An item only its own crate's tests use belongs under
# that crate's #[cfg(test)], not here.
allowed='
core::image::ImagePipeline::set_bandwidth_hint              tests/network_behavior.rs image_pipeline_adapts_resolution_to_bandwidth
holo_capture::render::DepthImage::coverage                  tests/steady_state_alloc.rs render_rgbd_allocates_its_two_images_and_nothing_else
holo_conf::participant::ParticipantConfig::ideal            tests/conference_sfu.rs two_party_room_matches_session_reference
holo_conf::report::RoomReport::slo_room                     tests/slo_attribution.rs slo_documents_are_byte_identical_across_thread_counts
holo_fuzz::alloc::installed                                 tests/steady_state_alloc.rs render_rgbd_allocates_its_two_images_and_nothing_else
holo_fuzz::alloc::alloc_calls                               tests/steady_state_alloc.rs steady_state_mesh_encode_allocates_its_output_and_nothing_else
holo_fuzz::alloc::alloc_bytes                               tests/steady_state_alloc.rs steady_state_mesh_encode_allocates_its_output_and_nothing_else
holo_math::aabb::Aabb::signed_distance                      tests/capture_truth.rs depth_pixels_have_the_body_behind_them
holo_math::approx_eq                                        crates/holo-mesh/src/sdf.rs tests::sphere_distance_exact
holo_math::quat::Quat::angle_to                             tests/property_invariants.rs axis_angle_roundtrip_stable
holo_mesh::sdf::GriddedUnion::listed_at                     tests/scoped_distance.rs distance_skips_only_no_ops_on_random_unions
holo_mesh::sdf::SdfUnion                                    tests/capture_truth.rs the_grid_renders_what_the_plain_union_renders
holo_mesh::trimesh::TriMesh::surface_area                   crates/holo-compress/src/meshcodec.rs tests::sphere_roundtrip
holo_mesh::trimesh::TriMesh::uv_sphere                      tests/property_invariants.rs mesh_codec_face_invariant
holo_obs::attribution::AttributionReport::tiles_exactly     tests/slo_attribution.rs session_attribution_tiles_every_delivered_frame
holo_obs::gate::strip_nondeterministic                      tests/parallel_determinism.rs reports_and_traces_byte_identical_at_threads_1_2_8
holo_trace::snapshot_json                                   tests/parallel_determinism.rs reports_and_traces_byte_identical_at_threads_1_2_8
holo_trace::metrics::Metrics::counter_value                 tests/trace_determinism.rs traced_scope_restores_the_flag_on_err_and_on_panic
'

dirs=()
for d in crates src examples benchmark/src; do [ -d "$d" ] && dirs+=("$d"); done
files=$(find "${dirs[@]}" -name '*.rs' -not -path '*/target/*' | sort)

# shellcheck disable=SC2086
awk -v check="$check" -v allowed="$allowed" '
  # crates/holo-fuzz/src/alloc.rs -> holo_fuzz::alloc; src/lib.rs -> semholo_repro.
  function module_of(path,   p, crate, n, parts, i, m) {
    p = path
    if (p ~ /^crates\//) { sub(/^crates\//, "", p); crate = p; sub(/\/.*/, "", crate); sub(/^[^\/]*\//, "", p) }
    else crate = "semholo_repro"
    gsub(/-/, "_", crate)
    sub(/^src\//, "", p); sub(/\.rs$/, "", p)
    n = split(p, parts, "/"); m = crate
    for (i = 1; i <= n; i++)
      if (parts[i] != "lib" && parts[i] != "main" && parts[i] != "mod") m = m "::" parts[i]
    return m
  }
  # The line with char literals, strings and a trailing comment gone.
  function code_of(line) {
    gsub(/\047(\\.|[^\\\047])\047/, "0", line)
    gsub(/"([^"\\]|\\.)*"/, "\"\"", line)
    sub(/\/\/.*/, "", line)
    return line
  }
  FNR == 1 { skip = 0; in_use = 0; depth = 0; nimpl = 0; pending_impl = ""; test_file = FILENAME ~ /(^|\/)tests\// }
  test_file || skip { next }
  /^[ \t]*#\[cfg\(test\)\]/ { skip = 1; next }
  /^[ \t]*\/\// { next }
  {
    line = code_of($0)
    # `pub use` re-exports, one line or a braced list.
    if (in_use) { if (line ~ /;/) in_use = 0; next }
    if (line ~ /^[ \t]*pub(\([a-z:_ ]+\))? use /) { if (line !~ /;/) in_use = 1; next }

    decl = ""
    if (phase == 1 && match(line, /^[ \t]*pub (const |unsafe |async |extern "" )*(fn|struct|enum|trait|type|const|static( mut)?) [A-Za-z_][A-Za-z0-9_]*/)) {
      d = substr(line, RSTART, RLENGTH)
      decl = d; sub(/.* /, "", decl)
      kind = d; sub(/[ \t]*[A-Za-z_][A-Za-z0-9_]*$/, "", kind); sub(/.* /, "", kind)
      if (kind == "mut") kind = "static"
      owner = (nimpl && impl_depth[nimpl] == depth - 1) ? impl_type[nimpl] "::" : ""
      n_items++
      item_name[n_items] = decl
      item_label[n_items] = module_of(FILENAME) "::" owner decl
      item_kind[n_items] = kind
      item_where[n_items] = FILENAME ":" FNR
    }

    if (phase == 2 && line !~ /^[ \t]*impl[<  \t]/) {
      t = line; gsub(/[^A-Za-z0-9_]+/, " ", t)
      k = split(t, w, " ")
      for (i = 1; i <= k; i++) {
        if (w[i] == declared[FILENAME, FNR]) { declared[FILENAME, FNR] = ""; continue }
        uses[w[i]]++
      }
    } else if (decl != "") declared[FILENAME, FNR] = decl

    # Which impl block encloses the next line, for Type::method labels.
    if (line ~ /^[ \t]*impl[<  \t]/) {
      t = line; sub(/[ \t]*(where .*)?[{].*$/, "", t); sub(/.* for /, "", t)
      sub(/^[ \t]*impl[ \t]*(<[^>]*>)?[ \t]*/, "", t); sub(/<.*/, "", t); sub(/.*::/, "", t)
      pending_impl = t
    }
    opens = gsub(/[{]/, "{", line); closes = gsub(/[}]/, "}", line)
    if (pending_impl != "" && opens > 0) { impl_type[++nimpl] = pending_impl; impl_depth[nimpl] = depth; pending_impl = "" }
    depth += opens - closes
    while (nimpl && depth <= impl_depth[nimpl]) nimpl--
  }
  END {
    n = split(allowed, a, "\n")
    for (i = 1; i <= n; i++) if (a[i] != "") { split(a[i], f, " "); allow[f[1]] = 1 }
    for (i = 1; i <= n_items; i++) {
      if (uses[item_name[i]]) continue
      listed++
      label = item_label[i]
      printf "%-7s %-60s %s%s\n", item_kind[i], label, item_where[i], (label in allow) ? "  (allowed)" : ""
      if (label in allow) { n_allowed++; seen[label] = 1 } else failing[++nfailing] = label "  (" item_where[i] ")"
    }
    printf "%d pub items under crates/, %d with no non-test caller, %d of them allowed\n", n_items, listed, n_allowed
    for (l in allow) if (!(l in seen)) print "caller_audit: allow-list entry lists nothing (drop it): " l > "/dev/stderr"
    if (check && nfailing) {
      for (i = 1; i <= nfailing; i++) print "caller_audit: no non-test caller: " failing[i] > "/dev/stderr"
      exit 1
    }
  }
' phase=1 $(echo "$files" | grep '^crates/') phase=2 $files
