#!/usr/bin/env bash
# check_bench_regression.sh MEASURED.json [BASELINE.json] [MAX_RATIO]
#
# Guards the scheduling and verification hot paths: fails when, at the probe
# size (the largest measured n present in the baseline, n=20000 as checked
# in), the measured greedy pipeline_sec, build_sec, mst_sec, or verify_sec
# exceeds MAX_RATIO (default 1.5) times the checked-in baseline; when the run-level
# kernel_ns_per_pair (the pairwise-kernel micro-measurement)
# exceeds MAX_RATIO times the baseline's — and, independently of the
# baseline, when the fast verify engine's exact_pairs_frac exceeds 0.05 at
# the probe size, when the probe instance escalated γ without the retry
# being served from the lookahead filter scan (build_reused), or when the
# probe's grid-warm re-verify reports verify_grid_reused == 0 (the
# persistent slot structures stopped being reused), or when the conflict
# build's candidate-efficiency ratio (build_cand_scanned per
# build_cand_accepted — distance tests per accepted edge) exceeds the
# baseline's by more than 5%, meaning the per-cell bbox/min-length screen
# stopped rejecting cells. The
# fraction gate is hardware-independent: it measures how
# much of the naive O(m²) pairwise work the engine performed, so a blown
# far-field bound or broken refinement ladder trips it even on a fast
# runner. Both files use the BENCH_pipeline.json schema (runs[] per
# GOMAXPROCS setting); the first run of each file is compared.
#
# Caveat — the time gates are a cross-hardware wall-clock comparison: the
# baseline was recorded single-threaded on a 1-CPU container, and the CI
# gate pins GOMAXPROCS=1 to match, but a markedly slower runner generation
# can still trip it without a code change. If the gate reddens on unrelated
# PRs, re-record BENCH_baseline.json on current CI hardware
# (`GOMAXPROCS=1 go run ./cmd/aggrate bench --sizes 20000 --naive-max 0
# --algo greedy --procs 1 --out BENCH_baseline.json`) or pass a larger
# MAX_RATIO as the third argument rather than deleting the gate.
set -euo pipefail

measured=${1:?usage: check_bench_regression.sh MEASURED.json [BASELINE.json] [MAX_RATIO]}
baseline=${2:-$(dirname "$0")/../BENCH_baseline.json}
max_ratio=${3:-1.5}

python3 - "$measured" "$baseline" "$max_ratio" <<'EOF'
import json, sys

measured_path, baseline_path, max_ratio = sys.argv[1], sys.argv[2], float(sys.argv[3])
MAX_EXACT_PAIRS_FRAC = 0.05

def greedy_rows(path):
    with open(path) as f:
        report = json.load(f)
    run = report["runs"][0]
    out, entries = {}, {}
    for entry in run["entries"]:
        entries[entry["n"]] = entry
        for algo in entry["algos"]:
            if algo["algo"] == "greedy":
                out[entry["n"]] = algo
    return out, entries, run.get("kernel_ns_per_pair", 0.0)

base, base_entries, base_kernel = greedy_rows(baseline_path)
meas, meas_entries, meas_kernel = greedy_rows(measured_path)
if not base:
    sys.exit(f"{baseline_path}: no greedy entries")
n = max((n for n in base if n in meas), default=None)
if n is None:
    sys.exit(f"{measured_path}: no size overlaps the baseline sizes {sorted(base)}")

failures = []
for field in ("pipeline_sec", "build_sec", "verify_sec"):
    b, m = base[n].get(field), meas[n].get(field)
    if not b:
        print(f"greedy n={n}: baseline lacks {field}; skipping its time gate")
        continue
    ratio = m / b
    print(f"greedy n={n}: {field} {m:.3f}s vs baseline {b:.3f}s -> {ratio:.2f}x (limit {max_ratio}x)")
    if ratio > max_ratio:
        failures.append(f"{field} regression: {ratio:.2f}x exceeds the {max_ratio}x budget")

# EMST gate: entry-level mst_sec at the probe size — the Boruvka grid walk
# (supercell skips, champion cache) regressing shows up here, not in the
# greedy stage split.
b, m = base_entries[n].get("mst_sec", 0.0), meas_entries[n].get("mst_sec", 0.0)
if b > 0:
    ratio = m / b
    print(f"n={n}: mst_sec {m:.3f}s vs baseline {b:.3f}s -> {ratio:.2f}x (limit {max_ratio}x)")
    if ratio > max_ratio:
        failures.append(f"mst_sec regression: {ratio:.2f}x exceeds the {max_ratio}x budget")
else:
    print(f"n={n}: baseline lacks mst_sec; skipping the EMST gate")

# Candidate-efficiency gate: distance tests per accepted edge in the greedy
# conflict build, hardware-independent. A loosened per-cell screen (bbox or
# min-length) inflates the ratio even when faster hardware hides the time.
CAND_RATIO_SLACK = 1.05
bs, ba = base[n].get("build_cand_scanned", 0), base[n].get("build_cand_accepted", 0)
ms, ma = meas[n].get("build_cand_scanned", 0), meas[n].get("build_cand_accepted", 0)
if bs and ba and ms and ma:
    br, mr = bs / ba, ms / ma
    print(f"greedy n={n}: cand_scanned/accepted {mr:.3f} vs baseline {br:.3f} (limit {CAND_RATIO_SLACK}x)")
    if mr > br * CAND_RATIO_SLACK:
        failures.append(
            f"candidate-efficiency regression: {mr:.3f} tests/edge exceeds "
            f"baseline {br:.3f} by more than {CAND_RATIO_SLACK}x")
else:
    print(f"greedy n={n}: candidate counters absent (base {bs}/{ba}, measured {ms}/{ma}); skipping the efficiency gate")

# γ-lookahead gate: the probe instance (γ=2 oblivious) escalates, and the
# retry's conflict graph must come from the lookahead filter scan — a lost
# build_reused means every escalation pays a second full build again.
retries = meas[n].get("gamma_retries", 0)
reused = meas[n].get("build_reused", False)
print(f"greedy n={n}: gamma_retries {retries}, build_reused {reused}")
if retries >= 1 and not reused:
    failures.append(
        "lookahead regression: the escalating probe instance rebuilt its "
        "conflict graph from scratch instead of filtering the lookahead build")

# Kernel gate: a run-level micro-measurement of the engine's one pairwise
# kernel, free of slot-structure and cache effects — a lost inline of the
# α=3 closed form or a reintroduced per-pair math.Pow shows up here even
# when structure reuse hides it from verify_sec.
if base_kernel > 0 and meas_kernel > 0:
    ratio = meas_kernel / base_kernel
    print(f"kernel_ns_per_pair {meas_kernel:.3f} vs baseline {base_kernel:.3f} -> {ratio:.2f}x (limit {max_ratio}x)")
    if ratio > max_ratio:
        failures.append(
            f"kernel regression: {ratio:.2f}x exceeds the {max_ratio}x budget")
else:
    print(f"kernel_ns_per_pair: baseline {base_kernel}, measured {meas_kernel}; skipping the kernel gate")

# Persistent-slot-structure gate: the probe's grid-warm re-verify drops the
# cached margins but keeps the built slot structures; zero reused grids
# means every re-verified slot paid buildGrid again.
grid_reused = meas[n].get("verify_grid_reused", 0)
print(f"greedy n={n}: verify_grid_reused {grid_reused}")
if meas[n].get("verify_grid_warm_sec", 0.0) > 0 and grid_reused == 0:
    failures.append(
        "slot-structure regression: the grid-warm re-verify rebuilt every "
        "slot grid instead of reusing the cached structures")

frac = meas[n].get("exact_pairs_frac", 0.0)
print(f"greedy n={n}: exact_pairs_frac {frac:.4g} (limit {MAX_EXACT_PAIRS_FRAC})")
if not 0 < frac <= MAX_EXACT_PAIRS_FRAC:
    failures.append(
        f"exact_pairs_frac {frac:.4g} outside (0, {MAX_EXACT_PAIRS_FRAC}]: "
        "the fast engine is doing too much exact pairwise work")

if failures:
    sys.exit("; ".join(failures))
EOF
