#!/usr/bin/env bash
# One command for the end-to-end benchmark: builds the shipped `tcf`
# binary and the `tcf_bench` harness (Release, from source), runs the
# workloads and checks their outputs. See bench/e2e/README.md.
#
#   bench/e2e/run.sh [--workload=NAME|all] [--seed=N] [--seconds=S]
#                    [--trace[=0|1]] [--quick] [--json=FILE]
#                    [--corrupt-oracle]
#
# Flags also take their value as the next argument (`--workload bk-zipf
# --trace 1`). The last line of stdout is the JSON result; the exit code
# is non-zero when the build fails or any output is wrong. With --trace,
# bench/e2e/trace_report.py summarises each trace file on stderr.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
cd "$root"

args=()
trace=0
while [[ $# -gt 0 ]]; do
  case "$1" in
    --trace=*) trace="${1#--trace=}"; shift ;;
    --trace)
      trace=1
      if [[ "${2:-}" == 0 || "${2:-}" == 1 ]]; then trace="$2"; shift; fi
      shift ;;
    --quick|--corrupt-oracle) args+=("$1"); shift ;;
    --*=*) args+=("$1"); shift ;;
    --workload|--seed|--seconds|--json)
      [[ $# -ge 2 ]] || { echo "run.sh: $1 needs a value" >&2; exit 2; }
      args+=("$1=$2"); shift 2 ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done
args+=("--trace=$trace")

if [[ ! -f CMakeLists.txt || ! -d src ]]; then
  echo "run.sh: $root holds no tcf source tree to build" >&2
  exit 2
fi

build="$root/.bench_build/e2e"
out="$root/.bench_build/e2e-out"
mkdir -p "$build" "$out"
generator=()
if command -v ninja > /dev/null; then generator=(-G Ninja); fi
if [[ ! -f "$build/CMakeCache.txt" ]]; then
  if ! cmake -S bench/e2e -B "$build" "${generator[@]}" \
      -DCMAKE_BUILD_TYPE=Release > "$out/build.log" 2>&1; then
    tail -n 40 "$out/build.log" >&2
    exit 1
  fi
fi
if ! cmake --build "$build" -j "$(nproc)" >> "$out/build.log" 2>&1; then
  tail -n 40 "$out/build.log" >&2
  exit 1
fi

rm -f "$out"/trace-*.json
status=0
"$build/tcf_bench" --out="$out" "${args[@]}" || status=$?
if [[ "$trace" == 1 ]] && command -v python3 > /dev/null; then
  for t in "$out"/trace-*.json; do
    [[ -f "$t" ]] && python3 bench/e2e/trace_report.py "$t" >&2
  done
fi
exit "$status"
