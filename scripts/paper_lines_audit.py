#!/usr/bin/env python3
"""Audit of the 170 `[paper]` stderr lines the benches printed at commit
a95abc1, against the facts that replaced them.

Usage: scripts/paper_lines_audit.py [lines] [dir] [--table]
  lines  the `[paper]` lines (default scripts/paper_lines_a95abc1.txt)
  dir    a directory of BENCH_*.json (default: the repository root)

The lines file is that commit's `cargo bench -q --offline -p holo-bench
-- --quick` stderr, filtered to its `[paper]` lines; regenerate it with
  git archive a95abc1 | tar x -C DIR && (cd DIR && cargo bench -q \
    --offline -p holo-bench -- --quick 2>&1 >/dev/null | grep '^\[paper\]')
--table prints the Markdown table of what each line became.

Every numeric token of every line is accounted for, in order:
  F(key, decimals, scale)  the token equals fact `key` x scale at the printed decimals
  L(text)                  a literal: a parameter, a label digit or a paper value
  T()                      a wall-clock value (timing, not a fact)
  R(key)                   replaced: the old value measured a metric floor
  D()                      dropped without a fact (re-print lines of chaos/uep/fleet/conference)
Non-numeric checks:
  S(key)                   the fact's string value appears on the line
  G(key, wall)             the grade letters on the line, with wall-clock
                           stages (indices in `wall`) replaced by '-', equal the fact
"""
import glob, json, os, re, sys

args = [a for a in sys.argv[1:] if not a.startswith('--')]
root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
stderr = args[0] if args else os.path.join(root, 'scripts', 'paper_lines_a95abc1.txt')
newdir = args[1] if len(args) > 1 else root
lines = [l[len('[paper] '):].rstrip('\n') for l in open(stderr) if l.startswith('[paper]')]
assert len(lines) == 170, len(lines)

facts = {}
for path in glob.glob(f'{newdir}/BENCH_*.json'):
    doc = json.load(open(path))
    for f in doc.get('facts', []):
        key = f"{f['group']}/{f['name']}"
        assert key not in facts, key
        facts[key] = (doc['bench'], f['value'], f['unit'])

class F:
    def __init__(s, key, d=0, scale=1.0): s.key, s.d, s.scale = key, d, scale
class L:
    def __init__(s, text): s.text = text
class T: pass
class D: pass
class R:
    def __init__(s, key): s.key = key
class S:
    def __init__(s, key): s.key = key
class G:
    def __init__(s, key, wall=()): s.key, s.wall = key, wall

def fact(key):
    assert key in facts, f'no fact {key}'
    return facts[key][1]

spec = {}   # line number -> (verdict, items)
def at(n, verdict, *items): spec[n] = (verdict, list(items))

def prose(ns, verdict='prose moved'):
    for n in ns: at(n, verdict)

# --- Ablation A ---
prose([1, 2], 'prose moved (module doc, EXPERIMENTS.md)')
for n, r in zip(range(3, 8), [4, 8, 12, 20, 30]):
    g = 'ablation_foveation'
    at(n, f'`{g}/payload/radius{r}`, `bandwidth/radius{r}`, `foveal_chamfer/radius{r}`',
       L(str(r)), F(f'{g}/payload/radius{r}'), F(f'{g}/bandwidth/radius{r}', 2), F(f'{g}/foveal_chamfer/radius{r}', 2))
at(8, '`aim_error/with_prediction`, `aim_error/without_prediction`', L('10'), L('20'),
   F('ablation_foveation/aim_error/with_prediction', 2), F('ablation_foveation/aim_error/without_prediction', 2))
at(9, '`fovea_miss/with_prediction`, `fovea_miss/without_prediction`',
   F('ablation_foveation/fovea_miss/with_prediction', 1), F('ablation_foveation/fovea_miss/without_prediction', 1))
# --- Ablation gaussian ---
prose([10, 11], 'prose moved (module doc, EXPERIMENTS.md)')
for n, (v, mm) in zip(range(12, 16), [('0.040', 40), ('0.025', 25), ('0.015', 15), ('0.010', 10)]):
    g = f'ablation_gaussian'
    at(n, f'`splats/voxel{mm}mm`, `prebuild/voxel{mm}mm`, `chamfer/voxel{mm}mm`, `update/voxel{mm}mm`', L(v),
       F(f'{g}/splats/voxel{mm}mm'), F(f'{g}/prebuild/voxel{mm}mm'), F(f'{g}/chamfer/voxel{mm}mm', 1), F(f'{g}/update/voxel{mm}mm'))
at(16, '`prebuild_growth`; the byte counts are duplicates of `prebuild/voxel40mm`, `prebuild/voxel10mm`, `update/voxel10mm`',
   F('ablation_gaussian/prebuild_growth', 1), F('ablation_gaussian/prebuild/voxel40mm'),
   F('ablation_gaussian/prebuild/voxel10mm'), F('ablation_gaussian/update/voxel10mm'))
at(17, '`update_bandwidth`', F('ablation_gaussian/update_bandwidth', 2))
# --- Ablation D ---
prose([18, 19], 'prose moved (module doc, EXPERIMENTS.md)')
presets = [('Sparse25', '25'), ('Joints55', '55'), ('Standard100', '100'), ('Dense144', '144'), ('Dense244', '244')]
rows = [('parametric', p) for p in presets] + [('model-free', p) for p in presets[1:]]
for n, (mode, (p, digits)) in zip(range(20, 29), rows):
    g = 'ablation_keypoints'
    at(n, f'`payload/{mode}/{p}`, `chamfer/{mode}/{p}`, `extract_gflop/{p}`; jitter replaced by `jitter/{mode}/{p}`',
       L(digits), F(f'{g}/payload/{mode}/{p}'), F(f'{g}/chamfer/{mode}/{p}', 2), F(f'{g}/extract_gflop/{p}', 1),
       R(f'{g}/jitter/{mode}/{p}'))
at(29, '`parametric_cap_change`', L('100'), L('244'), F('ablation_keypoints/parametric_cap_change', 1))
at(30, 'replaced by `jitter_mean/model-free`, `jitter_mean/parametric`',
   R('ablation_keypoints/jitter_mean/model-free'), R('ablation_keypoints/jitter_mean/parametric'))
# --- Ablation B ---
prose([31], 'prose moved (module doc, EXPERIMENTS.md)')
at(32, '`steps_to_loss/fine_tune`', F('ablation_nerf/steps_to_loss/fine_tune'))
at(33, '`steps_to_loss/retrain`', F('ablation_nerf/steps_to_loss/retrain'))
at(34, '`retrain_over_fine_tune`', F('ablation_nerf/retrain_over_fine_tune', 1))
prose([35, 36], 'prose moved (module doc, EXPERIMENTS.md)')
for n, w in zip(range(37, 40), [8, 16, 48]):
    at(n, f'`psnr/width{w}`, `flops_per_query/width{w}`', L(str(w)),
       F(f'ablation_nerf/psnr/width{w}', 1), F(f'ablation_nerf/flops_per_query/width{w}'))
# --- Ablation C ---
prose([40], 'prose moved (module doc, EXPERIMENTS.md)')
for n, m in [(41, 'full'), (42, 'delta')]:
    at(n, f'`{m}/first_frame`, `{m}/steady_mean`, `{m}/chamfer`',
       F(f'ablation_text/{m}/first_frame'), F(f'ablation_text/{m}/steady_mean'), F(f'ablation_text/{m}/chamfer', 1))
at(43, '`delta_saving`', F('ablation_text/delta_saving', 1))
prose([44], 'prose moved (module doc, EXPERIMENTS.md)')
at(45, '`global_channel/with`', F('ablation_text/global_channel/with', 2))
at(46, '`global_channel/without`', F('ablation_text/global_channel/without', 2))
# --- Chaos ---
prose([47, 48], 'prose moved (module doc)')
for n, (plan, mech) in zip(range(49, 57), [(p, m) for p in ['burst5', 'flapping']
                                          for m in ['baseline', 'fec(4,1)', 'retransmit', 'fec(4,1)+retransmit']]):
    key = f'chaos_resilience/usable/{plan}/{mech}'
    items = ([L('5')] if plan == 'burst5' else []) + ([L('4'), L('1')] if 'fec' in mech else [])
    at(n, f'duplicate of `{key[len("chaos_resilience/"):]}`; delivered/recovered/overhead dropped',
       *items, F(key, 3, 1e-3), D(), D(), D(), D(), D())
at(57, 'dropped: ratio of the usable counts behind `usable/burst5/*` (52/4)', L('4'), L('1'), D(), L('5'))
at(58, 'duplicate of `ladder_kept_flowing`; starved rate and ladder counts dropped', D(), D(), D(), S('chaos_resilience/ladder_kept_flowing'))
# --- Conference ---
prose([59, 60], 'prose moved (module doc)')
for n, kind, budget in [(61, 'keypoint', '400'), (71, 'image', '5000'), (77, 'text', '5000')]:
    at(n, f'duplicate of `max_room/{kind}`; stream rate and closed-form bound dropped',
       D(), L(budget), F(f'conference_sfu/max_room/{kind}'), D())
for n in list(range(62, 71)) + list(range(72, 77)) + list(range(78, 83)):
    at(n, 'dropped: a probe of the search behind `max_room/*`', D(), D(), L('2'), D())
prose([83], 'prose moved (module doc)')
prose(range(84, 91), 'dropped: printed copy of the committed `TRACE_conference_room.json`')
# --- Fig. 2 ---
prose([91, 92], 'prose moved (module doc, EXPERIMENTS.md)')
for n, r in zip(range(93, 97), [128, 256, 512, 1024]):
    g = 'fig2'
    at(n, f'`surface_err/res{r}`, `hand_err/res{r}`, `hand_verts/res{r}`, `face_err/res{r}`, `chamfer_clothed/res{r}`',
       L(str(r)), F(f'{g}/surface_err/res{r}', 3), F(f'{g}/hand_err/res{r}', 3), F(f'{g}/hand_verts/res{r}'),
       F(f'{g}/face_err/res{r}', 3), F(f'{g}/chamfer_clothed/res{r}', 2))
at(97, '`chamfer_clothed/bare_reference` (its "floor" label was wrong: see `chamfer_clothed/sampling_floor`)',
   F('fig2/chamfer_clothed/bare_reference', 2))
# --- Fig. 3 ---
prose([98, 99], 'prose moved (module doc, EXPERIMENTS.md)')
for n, c in [(100, 'jaw_open'), (101, 'pout')]:
    at(n, f'`class/{c}`, `coeff_true/{c}`, `coeff_learned/{c}`', S(f'fig3/class/{c}'),
       F(f'fig3/coeff_true/{c}', 2), F(f'fig3/coeff_learned/{c}', 2))
at(102, '`displacement_rms`', F('fig3/displacement_rms', 2))
at(103, '`mouth_defect/vertices`, `mouth_defect/mean`, `mouth_defect/max`',
   F('fig3/mouth_defect/vertices'), F('fig3/mouth_defect/mean', 2), F('fig3/mouth_defect/max', 2))
prose([104], 'prose moved (module doc; the 0 is an `assert_eq!`)')
# --- Fig. 4 ---
prose([105, 106], 'prose moved (module doc, EXPERIMENTS.md)')
for n, r in zip(range(107, 111), [128, 256, 512, 1024]):
    items = [L(str(r)), T(), F(f'fig4/fps_modeled/a100/res{r}', 2)]
    if r <= 256:
        items.append(F(f'fig4/fps_modeled/rtx3080_laptop/res{r}', 2))
    else:
        items.append(S(f'fig4/fps_modeled/rtx3080_laptop/res{r}'))
    items.append(S(f'fig4/fps_modeled/mobile_soc/res{r}'))
    at(n, f'`fps_modeled/{{a100,rtx3080_laptop,mobile_soc}}/res{r}`; CPU column was wall clock (timing)', *items)
prose([111], 'prose moved (module doc, EXPERIMENTS.md)')
# --- Fleet ---
prose([112, 113, 122, 123, 124], 'prose moved (module doc)')
for n, (tier, nodes) in zip(range(114, 122), [(t, k) for t in ['keypoint', 'mesh'] for k in [1, 2, 4, 8]]):
    sub = f'fleet_capacity/subscribers/{tier}/nodes{nodes}'
    at(n, f'duplicate of `subscribers/{tier}/nodes{nodes}`, `bottleneck/{tier}/nodes{nodes}`; stream rate dropped',
       L(str(nodes)), F(sub, 0, 0.25), F(sub), D(), L(fact(f'fleet_capacity/bottleneck/{tier}/nodes{nodes}').split(':')[1]),
       S(f'fleet_capacity/bottleneck/{tier}/nodes{nodes}'))
# --- Parallel scaling ---
prose(range(125, 138), 'deleted with the bench (wall clock; thread-invariance is `tests/parallel_determinism.rs` and `verify.sh`)')
# --- Table 1 ---
prose([138, 139, 145], 'prose moved (module doc, EXPERIMENTS.md)')
for n, name, wall in [(140, 'keypoint', ()), (141, 'image', (0,)), (142, 'text', ()), (143, 'gaussian', ()), (144, 'traditional', (0, 1))]:
    g = 'table1'
    items = [T() if 0 in wall else F(f'{g}/extract_a100/{name}', 1), T() if 1 in wall else F(f'{g}/recon_a100/{name}', 1),
             F(f'{g}/payload/{name}'), F(f'{g}/bandwidth/{name}', 2)]
    items.append(F(f'{g}/psnr/{name}', 1) if name == 'image' else F(f'{g}/chamfer/{name}', 1))
    items.append(S(f'{g}/format/{name}'))
    stages = ', '.join(f'`{s}_a100/{name}`' for i, s in enumerate(['extract', 'recon']) if i not in wall)
    quality = 'psnr' if name == 'image' else 'chamfer'
    walls = ' — ' + ' and '.join(['extract', 'recon'][i] for i in wall) + ' was CPU wall clock (timing)' if wall else ''
    at(n, f'{stages + ", " if stages else ""}`payload/{name}`, `bandwidth/{name}`, `{quality}/{name}`, `format/{name}`{walls}', *items)
for n, name, wall in [(146, 'keypoint', ()), (147, 'image', (0,)), (148, 'text', ()), (149, 'gaussian', ()), (150, 'traditional', (0, 1))]:
    note = ' (a wall-clock stage now grades `-`)' if wall else ''
    at(n, f'`grades/{name}`{note}', G(f'table1/grades/{name}', wall))
at(151, 'duplicate of `ablation_gaussian/prebuild/voxel15mm` and `table1/payload/gaussian`',
   F('ablation_gaussian/prebuild/voxel15mm'), F('table1/payload/gaussian'))
# --- Table 2 ---
prose([152], 'prose moved (module doc, EXPERIMENTS.md)')
for n, row, d, paper in [(153, 'semantic_raw', 2, ('1.91', '0.46')), (154, 'semantic_lzma', 2, ('1.23', '0.30')),
                         (155, 'traditional_raw', 1, ('397.7', '95.4')), (156, 'traditional_draco', 1, ('42.1', '10.1'))]:
    at(n, f'`bandwidth/{row}`, `bytes/{row}` (KB = bytes/1024)', F(f'table2/bandwidth/{row}', 2),
       F(f'table2/bytes/{row}', d, 1 / 1024), L(paper[0]), L(paper[1]))
at(157, '`savings/raw`, `savings/compressed`', F('table2/savings/raw'), L('207'), F('table2/savings/compressed'), L('34'))
at(158, '`mesh_vertices`, `mesh_faces`', F('table2/mesh_vertices'), F('table2/mesh_faces'), L('10475'), L('20908'))
at(159, '`temporal/bandwidth`, `temporal/delta_mean`, `temporal/keyframe`', F('table2/temporal/bandwidth', 2),
   F('table2/temporal/delta_mean', 1, 1 / 1024), F('table2/temporal/keyframe', 1, 1 / 1024))
prose([160], 'prose moved (module doc)')
at(161, '`gaussian/bandwidth`, `gaussian/update_mean`; prebuild is a duplicate of `ablation_gaussian/prebuild/voxel15mm`',
   F('table2/gaussian/bandwidth', 2), F('table2/gaussian/update_mean'), F('ablation_gaussian/prebuild/voxel15mm', 1, 1 / 1024))
at(162, '`gaussian/break_even_vs_mesh`', F('table2/gaussian/break_even_vs_mesh', 2))
# --- UEP ---
prose([163], 'prose moved (module doc)')
for n, plan in zip(range(164, 170), ['burst5', 'flapping', 'bandwidth_collapse', 'delay_spike', 'burst5_squeeze', 'burst5_corrupt']):
    k = 'uep_dominance/usable/' + plan
    at(n, f'duplicate of `usable/{plan}/uniform`, `usable/{plan}/weighted`; abandoned/lost dropped',
       *([L('5')] if plan.startswith('burst5') else []), F(k + '/uniform', 3, 1e-3), F(k + '/weighted', 3, 1e-3), D(), D())
at(170, 'duplicate of `dominates`, `strict_wins`', S('uep_dominance/dominates'), F('uep_dominance/strict_wins'), D())

assert sorted(spec) == list(range(1, 171)), sorted(set(range(1, 171)) - set(spec))

TOKEN = re.compile(r'\d+(?:\.\d+)?')
checked = 0
for n, line in enumerate(lines, 1):
    verdict, items = spec[n]
    if not items:
        continue
    tokens = TOKEN.findall(line)
    numeric = [i for i in items if not isinstance(i, (S, G))]
    assert len(tokens) == len(numeric), f'line {n}: tokens {tokens} vs {len(numeric)} items: {line}'
    for tok, item in zip(tokens, numeric):
        if isinstance(item, F):
            want = f'{fact(item.key) * item.scale:.{item.d}f}'
            assert tok == want, f'line {n}: {tok} != {item.key} -> {want}: {line}'
            checked += 1
        elif isinstance(item, L):
            assert tok == item.text, f'line {n}: literal {tok} != {item.text}'
        elif isinstance(item, R):
            fact(item.key)
    for item in items:
        if isinstance(item, S):
            v = fact(item.key)
            text = {1: 'true', 0: 'false'}[v] if isinstance(v, int) and facts[item.key][2] == 'flag' else str(v)
            assert text in line, f'line {n}: {text!r} not on the line: {line}'
            checked += 1
        elif isinstance(item, G):
            letters = re.findall(r'(?:extract|recon|size) ([LMH])', line)
            assert len(letters) == 3, line
            letters = ['-' if i in item.wall else l for i, l in enumerate(letters)]
            assert '/'.join(letters) == fact(item.key), f'line {n}: {letters} vs {fact(item.key)}'
            checked += 1

print(f'audit: 170 lines, {checked} values checked against facts, all equal at the printed precision', file=sys.stderr)
if '--table' in sys.argv:
    print('| # | parent `[paper]` line | became |')
    print('|---|---|---|')
    for n, line in enumerate(lines, 1):
        short = ' '.join(line.split())
        short = short if len(short) <= 72 else short[:69] + '...'
        print(f'| {n} | `{short.replace("|", "¦")}` | {spec[n][0]} |')
