"""Spans around the package's layer functions, recorded from outside.

A traced name is replaced, in every morreylab module that binds it, by a
wrapper that records one span (name, start, end, parent, run id) and passes
arguments, return values and exceptions through unchanged.  Nothing under
src/ is edited: the wrappers sit on the names each module looks up at call
time (morreylab.solver.splu, morreylab.cli.load_checkpoint, ...).

Spans stay in memory until the run ends.  layer_metrics() turns the spans of
one pass into the per-layer table, including self times (a span's duration
minus the time its direct children cover).
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time
from collections import defaultdict

# span name -> (module that defines the function, attribute name)
LAYER_FUNCTIONS = {
    "solver.solve": ("morreylab.solver", "solve_extremal"),
    "solver.factor": ("morreylab.solver", "splu"),
    "solver.load_checkpoint": ("morreylab.solver", "load_checkpoint"),
    "solver.save_checkpoint": ("morreylab.solver", "save_checkpoint"),
    "grid.energy": ("morreylab.grid", "energy"),
    "grid.energy_gradient": ("morreylab.grid", "energy_gradient"),
    "grid.energy_hessian": ("morreylab.grid", "energy_hessian"),
    "grid.interpolate": ("morreylab.grid", "interpolate"),
    "grid.save_field": ("morreylab.grid", "save_field"),
    "grid.load_field": ("morreylab.grid", "load_field"),
    "analysis.decay_profile": ("morreylab.analysis", "decay_profile"),
    "analysis.fit_exponent": ("morreylab.analysis", "fit_exponent"),
    "analysis.gradient_profile": ("morreylab.analysis", "gradient_profile"),
    "analysis.holder_seminorm": ("morreylab.analysis", "holder_seminorm"),
    "analysis.lp_gradient_norm": ("morreylab.analysis", "lp_gradient_norm"),
    "analysis.estimate_morrey_constant": ("morreylab.analysis",
                                          "estimate_morrey_constant"),
    "analysis.barrier_check": ("morreylab.analysis", "barrier_check"),
    "aronsson.angular_profile": ("morreylab.aronsson", "angular_profile"),
    "aronsson.invert_phi": ("morreylab.aronsson", "invert_phi"),
    "aronsson.evaluate_w": ("morreylab.aronsson", "evaluate_w"),
    "aronsson.pharmonic_residual": ("morreylab.aronsson", "pharmonic_residual"),
    "cli.main": ("morreylab.cli", "main"),
}

# Wrapped on every pass, traced or not: the solve span gives solve_s and
# hands the SolveResult of a CLI solve to the correctness checks.
ALWAYS = ("solver.solve",)

MODULES = ("morreylab", "morreylab.grid", "morreylab.solver",
           "morreylab.analysis", "morreylab.aronsson", "morreylab.cli")


class _TracedLU:
    """SuperLU factor whose solve() is recorded as a back-solve span."""

    def __init__(self, lu, solve):
        self._lu = lu
        self.solve = solve

    def __getattr__(self, name):
        return getattr(self._lu, name)


class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers."""

    def __init__(self):
        self.spans = []       # [name, start, end, parent index, run id]
        self.attrs = {}       # span index -> {counter: value}
        self.run_id = "setup"
        self.solve_results = []
        self._stack = []
        self._patched = []    # (span name, module, attribute, original)

    # ------------------------------------------------------------ recording

    def wrap(self, name, fn, observe=None):
        """fn wrapped so each call records a span; observe(idx, args, out)
        may attach counters to the span."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.run_id]
            spans.append(span)
            stack.append(idx)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception:
                self.attrs.setdefault(idx, {})["error"] = 1
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if observe is not None:
                observe(idx, args, out)
            return out
        return wrapper

    def _count(self, idx, **counters):
        self.attrs.setdefault(idx, {}).update(counters)

    def _observe_solve(self, idx, args, result):
        self.solve_results.append(result)
        self._count(idx, iters=sum(st.iterations for st in result.stages),
                    stage1_iters=result.stages[0].iterations,
                    stages=len(result.stages))

    def _observe_backsolve(self, idx, args, direction):
        # the solver solves H d = -g; a direction with g.d >= 0 is replaced
        # by the gradient step
        if float(args[0] @ direction) <= 0.0:
            self._count(idx, fallback=1)

    def _traced_splu(self, splu):
        factor = self.wrap("solver.factor", splu,
                           observe=lambda idx, args, lu: self._count(
                               idx, nnz=int(lu.nnz)))

        @functools.wraps(splu)
        def wrapper(*args, **kwargs):
            lu = factor(*args, **kwargs)
            return _TracedLU(lu, self.wrap("solver.backsolve", lu.solve,
                                           observe=self._observe_backsolve))
        return wrapper

    # ------------------------------------------------------------- patching

    def install(self, names):
        """Wrap the named layer functions wherever a morreylab module binds
        them.  Already-installed names are left as they are."""
        modules = [importlib.import_module(m) for m in MODULES]
        done = {entry[0] for entry in self._patched}
        for name in names:
            if name in done:
                continue
            module, attr = LAYER_FUNCTIONS[name]
            original = getattr(sys.modules[module], attr)
            if name == "solver.factor":
                wrapper = self._traced_splu(original)
            elif name == "solver.solve":
                wrapper = self.wrap(name, original, observe=self._observe_solve)
            elif name == "analysis.holder_seminorm":
                wrapper = self.wrap(name, original, observe=lambda idx, a, out:
                                    self._count(idx, pairs=out.pairs_evaluated))
            else:
                wrapper = self.wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patched.append((name, mod, key, original))
            done.add(name)

    def uninstall(self, keep=()):
        """Restore the original functions, except the names in keep."""
        kept = []
        for entry in reversed(self._patched):
            name, mod, key, original = entry
            if name in keep:
                kept.append(entry)
            else:
                setattr(mod, key, original)
        self._patched = kept[::-1]

    # ----------------------------------------------------------- derivation

    def phase_time(self, name, run_id):
        return sum(s[2] - s[1] for s in self.spans
                   if s[0] == name and s[4] == run_id)

    def dump(self, path):
        """Write the spans as JSON lines: name, start, end, parent, run, attrs."""
        with open(path, "w") as fh:
            for idx, span in enumerate(self.spans):
                fh.write(json.dumps(span + [self.attrs.get(idx, {})]) + "\n")

    def layer_metrics(self, run_id):
        """Per-layer counts and times of one pass."""
        spans = [(i, s) for i, s in enumerate(self.spans) if s[4] == run_id]
        durations = defaultdict(list)
        child_time = defaultdict(float)
        for idx, (name, start, end, parent, _) in spans:
            durations[name].append(end - start)
            if parent is not None:
                child_time[parent] += end - start

        def total(name):
            return sum(durations[name])

        def per_call(name, scale):
            d = durations[name]
            return statistics.median(d) * scale if d else 0.0

        def attr_sum(name, key):
            return sum(self.attrs.get(i, {}).get(key, 0)
                       for i, s in spans if s[0] == name)

        def self_time(name):
            return sum(s[2] - s[1] - child_time[i]
                       for i, s in spans if s[0] == name)

        solve_idx = {i for i, s in spans if s[0] == "solver.solve"}
        energy_in_solve = sum(1 for _, s in spans
                              if s[0] == "grid.energy" and s[3] in solve_idx)
        iters = attr_sum("solver.solve", "iters")
        trials = energy_in_solve - attr_sum("solver.solve", "stages")
        nnz = [self.attrs.get(i, {}).get("nnz", 0)
               for i, s in spans if s[0] == "solver.factor"]
        return {
            "solver.newton_iters": iters,
            "solver.stage1_iters": attr_sum("solver.solve", "stage1_iters"),
            "solver.linesearch_trials": trials,
            "solver.linesearch_halvings": trials - iters,   # rejected trials
            "solver.fallbacks": attr_sum("solver.factor", "error")
                + attr_sum("solver.backsolve", "fallback"),
            "solver.factor_s": total("solver.factor"),
            "solver.factor_ms": per_call("solver.factor", 1e3),
            "solver.factor_nnz": statistics.median(nnz) if nnz else 0,
            "solver.backsolve_s": total("solver.backsolve"),
            "solver.self_s": self_time("solver.solve"),
            "solver.child_s": sum(child_time[i] for i in solve_idx),
            "grid.energy_hessian_s": total("grid.energy_hessian"),
            "grid.energy_hessian_ms": per_call("grid.energy_hessian", 1e3),
            "grid.energy_ms": per_call("grid.energy", 1e3),
            "grid.energy_gradient_ms": per_call("grid.energy_gradient", 1e3),
            "grid.interpolate_s": total("grid.interpolate"),
            "grid.save_field_s": total("grid.save_field"),
            "grid.load_field_s": total("grid.load_field"),
            "analysis.holder_seminorm_ms":
                per_call("analysis.holder_seminorm", 1e3),
            "analysis.holder_pairs": attr_sum("analysis.holder_seminorm",
                                              "pairs"),
            "analysis.barrier_check_ms": per_call("analysis.barrier_check", 1e3),
            "analysis.gradient_profile_ms":
                per_call("analysis.gradient_profile", 1e3),
            "analysis.lp_gradient_norm_ms":
                per_call("analysis.lp_gradient_norm", 1e3),
            "aronsson.evaluate_w_calls": len(durations["aronsson.evaluate_w"]),
            "aronsson.evaluate_w_us": per_call("aronsson.evaluate_w", 1e6),
            "aronsson.invert_phi_calls": len(durations["aronsson.invert_phi"]),
            "aronsson.invert_phi_us": per_call("aronsson.invert_phi", 1e6),
            "aronsson.pharmonic_residual_s":
                total("aronsson.pharmonic_residual"),
            "aronsson.angular_profile_ms":
                per_call("aronsson.angular_profile", 1e3),
            "cli.self_s": self_time("cli.main"),
        }
