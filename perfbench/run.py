"""Benchmark entry point for morreylab.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a checkout.  The workload runs in a child process
(measure.py) with BLAS and OpenMP pinned to one thread and the checkout's
src/ as the only added import path.  The last line of standard output is
one JSON object {"correct", "attempted", "failed", "metrics"}: the
end-to-end metrics of BENCHMARK.json with --trace 0, its per-layer metrics
with --trace 1.  The line before it gives the provenance, and the full
result (every pass, checks, observed values, provenance) is written under
.perfbench/results/.  --smoke runs every workload path on tiny grids in
seconds.  The exit code is non-zero, with no result line, when the checkout
has no src/morreylab or the child fails.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHILD_TIMEOUT_S = 170


def git_commit(root: Path) -> str | None:
    """HEAD commit read from .git without running git; None outside a repo."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_lines(root: Path) -> int:
    return sum(len(path.read_text().splitlines())
               for path in sorted((root / "src").rglob("*.py")))


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description="morreylab benchmark")
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "morreylab" / "__init__.py").is_file():
        print(f"no src/morreylab under {ROOT}", file=sys.stderr)
        return 2
    results = ROOT / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out = results / (tag + ("-smoke" if args.smoke else "") + ".json")
    out.unlink(missing_ok=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    cmd = [sys.executable, str(Path(__file__).with_name("measure.py")),
           "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", str(out)]
    if args.smoke:
        cmd.append("--smoke")
    try:
        child = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                               timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"workload exceeded {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 3
    if child.returncode != 0 or not out.is_file():
        print(f"workload child exited {child.returncode}", file=sys.stderr)
        return 3

    result = json.loads(out.read_text())
    result["provenance"] = {
        **result.pop("versions"),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(ROOT),
        "src_lines": src_lines(ROOT),
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke,
    }
    out.write_text(json.dumps(result, indent=1) + "\n")

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    values = result["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"metrics not measured: {missing}", file=sys.stderr)
        return 3
    print(json.dumps({"provenance": result["provenance"],
                      "notes": result["notes"]}))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
