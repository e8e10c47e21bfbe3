#!/usr/bin/env python3
"""Summarises a Chrome trace-event file written by `run.sh --trace`.

    python3 bench/e2e/trace_report.py .bench_build/e2e-out/trace-bk-zipf-seed1.json

Prints three tables:
  1. per-layer self time and span counts (a span's self time is its
     duration minus the part of it that its child spans cover; the layer
     is the span name's prefix, e.g. `query_service` for
     `query_service.Execute`);
  2. the per-request ledger of the unloaded replay: round trip minus
     parse, execute and encode, i.e. what transport and queueing cost
     (`transport.unaccounted_p50_us`);
  3. the slowest end-to-end requests of the measured phase, with their
     start times, so tail stalls can be lined up against other spans.
"""

import argparse
import collections
import json
import math
import sys


def quantile(values, q):
    """Nearest-rank quantile, as the harness computes it."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def self_times(events):
    """Maps span id -> self time (µs): duration minus the union of the
    intervals its children cover."""
    children = collections.defaultdict(list)
    for e in events:
        parent = e["args"]["parent"]
        if parent:
            children[parent].append((e["ts"], e["ts"] + e["dur"]))
    result = {}
    for e in events:
        covered = 0.0
        end = e["ts"]
        for begin, finish in sorted(children.get(e["args"]["id"], [])):
            begin = max(begin, end)
            if finish > begin:
                covered += finish - begin
                end = finish
        result[e["args"]["id"]] = max(0.0, e["dur"] - covered)
    return result


def layer_table(events, selfs):
    by_name = collections.defaultdict(lambda: [0, 0.0])
    for e in events:
        row = by_name[e["name"]]
        row[0] += 1
        row[1] += selfs[e["args"]["id"]]
    layers = collections.defaultdict(lambda: [0, 0.0, []])
    for name, (count, self_us) in by_name.items():
        layer = layers[name.split(".")[0]]
        layer[0] += count
        layer[1] += self_us
        layer[2].append((name, count, self_us))
    print("per-layer self time (all spans of the run):")
    print(f"  {'layer / span':<44} {'spans':>8} {'self ms':>11} "
          f"{'self us/span':>13}")
    for layer, (count, self_us, names) in sorted(
            layers.items(), key=lambda kv: -kv[1][1]):
        print(f"  {layer:<44} {count:>8} {self_us / 1e3:>11.3f} "
              f"{self_us / count:>13.2f}")
        for name, n, us in sorted(names, key=lambda r: -r[2]):
            print(f"    {name:<42} {n:>8} {us / 1e3:>11.3f} {us / n:>13.2f}")


def ledger(events):
    replay = [e for e in events if e["cat"] == "replay"]
    per_request = collections.defaultdict(dict)
    for e in replay:
        row = per_request[e["args"]["request"]]
        row[e["name"]] = row.get(e["name"], 0.0) + e["dur"]
    parts = ("line_protocol.ParseRequest", "query_service.ParseServeQuery",
             "query_service.Execute", "line_protocol.EncodeTruss")
    unaccounted = [
        row["client.RoundTrip"] - sum(row.get(p, 0.0) for p in parts)
        for row in per_request.values() if "client.RoundTrip" in row
    ]
    print("\nper-request ledger of the unloaded replay "
          f"({len(unaccounted)} requests; transport.unaccounted = "
          "round trip - parse - execute - encode):")
    for name in ("client.RoundTrip",) + parts + ("tc_tree_query.QueryTcTree",
                                                 "line_protocol.DecodeTruss"):
        values = [row[name] for row in per_request.values() if name in row]
        print(f"  {name:<44} p50 {quantile(values, 0.5):>10.2f} us  "
              f"p90 {quantile(values, 0.9):>10.2f} us")
    print(f"  {'transport.unaccounted':<44} "
          f"p50 {quantile(unaccounted, 0.5):>10.2f} us  "
          f"p90 {quantile(unaccounted, 0.9):>10.2f} us")


def slowest(events, selfs, top):
    requests = [e for e in events if e["name"] == "loadgen.request"]
    if not requests:
        return
    print(f"\n{top} slowest end-to-end requests of the traced phase "
          f"(of {len(requests)}; late = due -> send, rtt = send -> reply):")
    print(f"  {'start ms':>10} {'total us':>10} {'late us':>10} "
          f"{'rtt us':>10}  request")
    for e in sorted(requests, key=lambda e: -e["dur"])[:top]:
        late = selfs[e["args"]["id"]]
        print(f"  {e['ts'] / 1e3:>10.3f} {e['dur']:>10.1f} {late:>10.1f} "
              f"{e['dur'] - late:>10.1f}  {e['args']['request']}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trace", help="trace-*.json written by run.sh --trace")
    parser.add_argument("--top", type=int, default=20,
                        help="how many slow requests to list")
    args = parser.parse_args()
    with open(args.trace) as f:
        events = json.load(f)["traceEvents"]
    if not events:
        print(f"{args.trace}: no spans", file=sys.stderr)
        return 1
    print(f"=== {args.trace}: {len(events)} spans ===")
    selfs = self_times(events)
    layer_table(events, selfs)
    ledger(events)
    slowest(events, selfs, args.top)
    return 0


if __name__ == "__main__":
    sys.exit(main())
