#!/usr/bin/env bash
# Check that the checked-out tree produces byte-identical outputs to a base
# revision - the contract that makes deleting or restructuring code safe.
# Usage:
#
#   scripts/check_outputs_identical.sh BASE_REF [work-dir]
#
# Builds BASE_REF (exported with `git archive`) and the checked-out tree in
# Release, then compares:
#   - the report.json of bench_fig3, bench_fig4 and bench_fig5;
#   - the stdout of bench_display_qos, bench_ablation_execmode and
#     bench_playback;
#   - workloads/mixed_tenants.workload.json replayed by the checked-out
#     tree at MCM_SIM_THREADS 1 and 8 against the committed
#     workloads/mixed_tenants.report.json.
# Every compared output is deterministic run to run, so any difference is a
# finding. Exits non-zero on the first build failure or on any difference
# (all differences are listed first).
set -euo pipefail

if [ $# -lt 1 ]; then
  echo "usage: $0 BASE_REF [work-dir]" >&2
  exit 2
fi
base_ref="$1"
repo_root="$(cd "$(dirname "$0")/.." && pwd)"
work="${2:-$(mktemp -d "${TMPDIR:-/tmp}/mcm-outputs.XXXXXX")}"
jobs="${MCM_CHECK_JOBS:-$(nproc)}"

benches_report=(bench_fig3 bench_fig4 bench_fig5)
benches_stdout=(bench_display_qos bench_ablation_execmode bench_playback)

mkdir -p "$work/base-src"
git -C "$repo_root" archive "$base_ref" | tar -x -C "$work/base-src"

build() {  # build <source-dir> <build-dir>
  if ! { cmake -B "$2" -S "$1" -DCMAKE_BUILD_TYPE=Release &&
         cmake --build "$2" -j "$jobs" --target "${benches_report[@]}" \
           "${benches_stdout[@]}" mcm_trace_cli; } > "$2.log" 2>&1; then
    tail -n 30 "$2.log" >&2
    echo "build of $1 failed; full log: $2.log" >&2
    exit 1
  fi
}
build "$work/base-src" "$work/base-build"
build "$repo_root" "$work/head-build"

run_side() {  # run_side <name> -> outputs under $work/out-<name>
  local bin="$work/$1-build/bench" out="$work/out-$1"
  mkdir -p "$out"
  for b in "${benches_report[@]}"; do
    MCM_REPORT_DIR="$out" "$bin/$b" > "$out/$b.stdout" 2>> "$out/stderr.log"
  done
  for b in "${benches_stdout[@]}"; do
    MCM_REPORT_DIR=off "$bin/$b" > "$out/$b.stdout" 2>> "$out/stderr.log"
  done
}
run_side base
run_side head

status=0
compare() {  # compare <label> <expected> <actual>
  if cmp -s "$2" "$3"; then
    echo "identical: $1"
  else
    echo "DIFFERENT: $1 ($2 vs $3)"
    status=1
  fi
}
for b in "${benches_report[@]}"; do
  name="${b#bench_}"
  compare "$b report.json" "$work/out-base/$name.report.json" \
    "$work/out-head/$name.report.json"
done
for b in "${benches_stdout[@]}"; do
  compare "$b stdout" "$work/out-base/$b.stdout" "$work/out-head/$b.stdout"
done
for t in 1 8; do
  MCM_SIM_THREADS="$t" "$work/head-build/tools/mcm_trace" replay \
    "$repo_root/workloads/mixed_tenants.workload.json" \
    --report "$work/out-head/replay$t.json" > /dev/null
  compare "mixed_tenants replay at MCM_SIM_THREADS=$t" \
    "$repo_root/workloads/mixed_tenants.report.json" \
    "$work/out-head/replay$t.json"
done
exit "$status"
