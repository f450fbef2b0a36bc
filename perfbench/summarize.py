"""Collect the results under .perfbench/results/ into one BENCH record.

    python3 perfbench/summarize.py --out perfbench/BENCH_seed.json

For every workload and metric set (end-to-end from --trace 0 runs,
per-layer from --trace 1 runs) the record holds the median, the first and
third quartile, the sample count and the seeds, with the provenance of the
runs (it must be the same commit and versions in all of them).  Smoke runs
are left out.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SAME = ("python", "numpy", "scipy", "nproc", "git_commit", "src_lines",
        "seconds")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    runs = [json.loads(path.read_text())
            for path in sorted((ROOT / ".perfbench" / "results").glob("*.json"))]
    runs = [r for r in runs if not r["provenance"]["smoke"]]
    if not runs:
        print("no results under .perfbench/results", file=sys.stderr)
        return 1
    provenance = {key: {r["provenance"][key] for r in runs} for key in SAME}
    mixed = {key: sorted(map(str, v)) for key, v in provenance.items()
             if len(v) > 1}
    if mixed:
        print(f"results mix different set-ups: {mixed}", file=sys.stderr)
        return 1

    samples = defaultdict(lambda: defaultdict(list))
    seeds = defaultdict(list)
    ops = defaultdict(lambda: [0, 0])
    for r in runs:
        trace = r["provenance"]["trace"]
        group = (r["provenance"]["workload"],
                 "per_layer" if trace else "end_to_end")
        seeds[group].append(r["provenance"]["seed"])
        for name, value in r["per_layer" if trace else "end_to_end"].items():
            samples[group][name].append(value)
        if not trace:
            ops[group[0]][0] += r["attempted"]
            ops[group[0]][1] += r["failed"]

    workloads = defaultdict(dict)
    for (workload, kind), metrics in sorted(samples.items()):
        table = {}
        for name, values in sorted(metrics.items()):
            q = (statistics.quantiles(values, n=4) if len(values) > 1
                 else [values[0]] * 3)
            table[name] = {"median": statistics.median(values),
                           "q1": q[0], "q3": q[2], "n": len(values)}
        workloads[workload][kind] = {"seeds": sorted(seeds[(workload, kind)]),
                                     "metrics": table}
    for workload, (attempted, failed) in ops.items():
        workloads[workload]["operations"] = {"attempted": attempted,
                                             "failed": failed}
    record = {"provenance": {key: next(iter(v)) for key, v in provenance.items()},
              "workloads": workloads}
    Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
