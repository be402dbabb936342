#!/usr/bin/env python3
"""Compare two sets of benchmark reports.

    python3 perfbench/compare.py BASE NEW

BASE and NEW are files holding the standard output of one or more
perfbench runs (run.py output appended together). Each run prints one
`report {...}` line; runs are grouped by workload and trace mode, and each
metric's median over a group is compared. Two groups taken on different
hosts (nproc, build type, compiler or kernel differ) are labelled
"incomparable" and no delta is printed for them: a delta across hosts
measures the hosts, not the change. End-to-end metrics worse than their
bound in BENCHMARK.json are marked REGRESSION.
"""

import json
import statistics
import sys
from pathlib import Path

HOST_KEYS = ("nproc", "build_type", "compiler", "kernel")


def load(path):
    groups = {}
    for line in Path(path).read_text().splitlines():
        if line.startswith("report "):
            r = json.loads(line[len("report "):])
            groups.setdefault((r["workload"], r["trace"]), []).append(r)
    return groups


def host_of(reports):
    """The single host a group was taken on, or None when it mixes hosts."""
    hosts = {tuple(r["host"].get(k) for k in HOST_KEYS) for r in reports}
    return hosts.pop() if len(hosts) == 1 else None


def bounds():
    path = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
    if not path.exists():
        return {}
    spec = json.loads(path.read_text())
    return {m["name"]: m for m in spec.get("end_to_end", [])}


def compare(base, new, limits):
    lines = []
    for key in sorted(set(base) & set(new)):
        workload, trace = key
        b, n = base[key], new[key]
        title = f"{workload} (trace {trace}): {len(b)} vs {len(n)} runs"
        hb, hn = host_of(b), host_of(n)
        if hb is None or hn is None or hb != hn:
            lines.append(f"{title}: incomparable, host differs "
                         f"({hb} vs {hn})")
            continue
        failed = sum(not r["correct"] for r in b + n)
        lines.append(title + (f", {failed} failed runs" if failed else ""))
        for name, meta in b[0]["metrics"].items():
            bv = statistics.median(r["metrics"][name]["value"] for r in b)
            nv = statistics.median(r["metrics"][name]["value"] for r in n)
            delta = (nv - bv) / bv if bv else 0.0
            mark = ""
            if name in limits and bv:
                worse = -delta if limits[name]["better"] == "higher" else delta
                if worse > limits[name]["bound"]:
                    mark = "  REGRESSION"
            lines.append(f"  {name:36s} {bv:14.6g} -> {nv:14.6g} "
                         f"{meta['unit']:10s} {delta:+8.2%}{mark}")
    return lines


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    for line in compare(load(sys.argv[1]), load(sys.argv[2]), bounds()):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
