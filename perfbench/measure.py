"""Run one workload in this process and write its result as JSON.

run.py starts this script in a child process whose environment pins BLAS
and OpenMP to one thread and puts the checkout's src/ on the import path;
the process high-water mark (ru_maxrss) therefore belongs to one workload.

Set-up (a fresh interpreter importing the package, plus the workload's
input generation) runs several times and reports its median.  Timed passes
then repeat while the next one is predicted to end within --seconds; at
least one pass always runs.  With --trace 1 the passes alternate untraced
and traced, at least one of each: the traced passes give the per-layer
table, the untraced ones the baseline for the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
IMPORT_REPEATS = 3


def fresh_import_s() -> float:
    """Time a new interpreter takes to import the package and its CLI.

    The interpreter times itself: subprocess.run with a timeout polls for
    the child's exit with sleeps of up to 50 ms, which would quantize an
    outside measurement.
    """
    code = ("import time; t0 = time.perf_counter(); import morreylab.cli; "
            "print(time.perf_counter() - t0)")
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                         capture_output=True, text=True, timeout=120)
    return float(out.stdout)


def run(args) -> dict:
    import morreylab
    if Path(morreylab.__file__).resolve().parents[1] != ROOT / "src":
        raise SystemExit(f"morreylab imported from {morreylab.__file__}, "
                         f"not from {ROOT / 'src'}")
    import numpy
    import scipy
    import tracing
    import workloads

    reference = json.loads(Path(__file__).with_name("reference.json").read_text())
    work = ROOT / ".perfbench" / "work" / f"{args.workload}-{os.getpid()}"
    tracer = tracing.Tracer()
    tracer.install(tracing.ALWAYS)
    wl = workloads.WORKLOADS[args.workload](
        work, args.seed, args.smoke, tracer,
        reference["smoke" if args.smoke else "full"])
    try:
        import_s = [fresh_import_s() for _ in range(IMPORT_REPEATS)]
        generate_s = []
        for _ in range(wl.setup_repeats):
            t0 = time.perf_counter()
            wl.setup()
            generate_s.append(time.perf_counter() - t0)

        passes = []
        start = time.perf_counter()
        while True:
            traced = bool(args.trace) and len(passes) % 2 == 1
            tracer.run_id = run_id = f"pass{len(passes)}"
            if traced:
                tracer.install(tracing.LAYER_FUNCTIONS)
            t0 = time.perf_counter()
            phases, record = wl.run_pass()
            run_s = time.perf_counter() - t0
            if traced:
                tracer.uninstall(keep=tracing.ALWAYS)
            tracer.run_id = "check"
            wl.check(record)
            passes.append({"run_id": run_id, "traced": traced, "run_s": run_s,
                           "solve_span_s": tracer.phase_time("solver.solve",
                                                             run_id),
                           **phases})
            enough = len(passes) >= (2 if args.trace else 1)
            if enough and time.perf_counter() - start + run_s > args.seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    plain = [ps for ps in passes if not ps["traced"]]
    traced = [ps for ps in passes if ps["traced"]]

    def median(rows, key):
        return statistics.median(row[key] for row in rows)

    end_to_end = {
        "setup_s": statistics.median(import_s) + statistics.median(generate_s),
        "run_s": median(plain, "run_s"),
        "solve_s": median(plain, "solve_s"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ops_ok_frac": 1.0 - wl.failed / wl.attempted,
    }
    per_layer = {}
    if traced:
        tables = [tracer.layer_metrics(ps["run_id"]) for ps in traced]
        per_layer = {key: statistics.median(t[key] for t in tables)
                     for key in tables[0]}
        per_layer["phase.analyze_s"] = median(plain, "analyze_s")
        per_layer["phase.verify_s"] = median(plain, "verify_s")
        per_layer["trace.overhead_s"] = (median(traced, "run_s")
                                         - median(plain, "run_s"))
        # traced (self + child) solve time against the untraced solve time
        solve_plain = median(plain, "solve_span_s")
        per_layer["solver.accounted_frac"] = (
            (per_layer["solver.self_s"] + per_layer["solver.child_s"])
            / solve_plain if solve_plain > 0 else 0.0)
        spans_dir = ROOT / ".perfbench" / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        tracer.dump(spans_dir / f"{args.workload}-seed{args.seed}.jsonl")

    if wl.failures:
        print("checks failed:\n  " + "\n  ".join(wl.failures), file=sys.stderr)
        print(wl.log.getvalue()[-4000:], file=sys.stderr)
    return {
        "correct": not wl.failures,
        "attempted": wl.attempted,
        "failed": wl.failed,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "failures": wl.failures,
        "notes": wl.notes,
        "observed": wl.observed,
        "passes": passes,
        "setup": {"import_s": import_s, "generate_s": generate_s},
        "versions": {"python": sys.version.split()[0],
                     "numpy": numpy.__version__, "scipy": scipy.__version__,
                     "morreylab": morreylab.__version__},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    result = run(args)
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
