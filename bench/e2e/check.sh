#!/usr/bin/env bash
# Checks benchmark output against BENCHMARK.json: every metric it names
# must be present, carry its declared unit and have a finite value, and
# every result must say correct with nothing failed. A result holding
# `setup_s` is checked against the end-to-end metrics, any other against
# the per-layer ones.
#
#   bench/e2e/check.sh RESULT.json
#
# RESULT.json is what `run.sh --json=FILE` wrote (workload -> result) or a
# single result object (the last line run.sh prints). Exits 1 on any
# problem, listing each one.
set -euo pipefail
[[ $# -eq 1 ]] || { echo "usage: $0 RESULT.json" >&2; exit 2; }
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
python3 - "$root/BENCHMARK.json" "$1" <<'EOF'
import json
import math
import sys

spec = json.load(open(sys.argv[1]))
data = json.load(open(sys.argv[2]))
results = {"result": data} if "metrics" in data else data
problems = []
for workload, result in results.items():
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{workload}: keys are {sorted(result)}")
        continue
    if result["correct"] is not True or result["failed"] != 0:
        problems.append(f"{workload}: correct={result['correct']} "
                        f"failed={result['failed']}")
    metrics = result["metrics"]
    declared = spec["end_to_end"] if "setup_s" in metrics else spec["per_layer"]
    for m in declared:
        got = metrics.get(m["name"])
        if got is None:
            problems.append(f"{workload}: {m['name']} is missing")
        elif got.get("unit") != m["unit"]:
            problems.append(f"{workload}: {m['name']} has unit "
                            f"{got.get('unit')!r}, declared {m['unit']!r}")
        elif not isinstance(got.get("value"), (int, float)) or \
                not math.isfinite(got["value"]):
            problems.append(f"{workload}: {m['name']} = {got.get('value')!r}")
    print(f"{workload}: {len(declared)} declared metrics checked")
for p in problems:
    print("FAIL:", p)
sys.exit(1 if problems else 0)
EOF
