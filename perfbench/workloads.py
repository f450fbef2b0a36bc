"""The benchmark workloads: set-up, one timed pass, and its correctness checks.

cold-desk    The README pipeline at 577 x 65: CLI solve, analyze and
             verify --mode quick, first at p = 4, then at p = 8.  The solve
             starts from the closed-form initial field (84 Newton steps at
             the seed), so it exercises the Newton iteration count and the
             sparse factorization.
warm-refine  Set-up solves p = 4 at 577 x 65.  The pass interpolates that
             field onto 1153 x 129, re-solves with eps (1e-5, 1e-6) from it
             (5 Newton steps), then fits the decay and estimates the constant:
             few iterations on a 4x larger system, so factorization time and
             fill dominate and the initial-field lever is bypassed.
post-solve   Set-up writes synthetic converged checkpoints min(1, r^-b) sin(phi)
             at both grids for p = 4 and 8.  The pass runs CLI analyze and
             barrier_check on each, CLI verify --mode full at p = 4 and 8, and
             the cone probe of criterion 3: the aronsson, analysis and
             checkpoint I/O layers that the solves barely touch.

The seed draws only the synthetic decay powers b and the cone probe points;
the two solve workloads are fixed by (grid, p) and ignore it.

Every operation is a CLI command (morreylab.cli.main, in-process) or a public
library call; a non-zero exit code or a raised error counts it as failed.
Steps well under a second run REPEATS times per pass so their medians are
steady.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import time

import numpy as np

import morreylab as m
import morreylab.cli

# refine_gate bounds the probe change and constant drift under refinement:
# 1 % is criterion 4/8 at desk scale; the smoke grids, the smallest on which
# both p converge and every fit window holds ten radii, change by 2-4 %.
GRIDS = {
    "full": {"desk": m.GridSpec(r_min=2.0**-6, r_max=2.0**12, n_s=577, n_phi=65),
             "fine": m.GridSpec(r_min=2.0**-6, r_max=2.0**12, n_s=1153,
                                n_phi=129),
             "refine_gate": 0.01},
    "smoke": {"desk": m.GridSpec(r_min=2.0**-4, r_max=2.0**8, n_s=49, n_phi=17),
              "fine": m.GridSpec(r_min=2.0**-4, r_max=2.0**8, n_s=97,
                                 n_phi=33),
              "refine_gate": 0.05},
}
P_VALUES = (4.0, 8.0)
REPEATS = 5
REF_RTOL = 1e-8          # agreement with the stored seed values
BETA_GATE = 0.10         # |beta_hat - beta_p| (or - b on synthetic fields)
PROBE_RADII = (2.0, 8.0, 32.0)


def _label(spec: m.GridSpec, p: float) -> str:
    return f"{spec.n_s}x{spec.n_phi}/p{p:g}"


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return time.perf_counter() - t0, out


class Workload:
    """Operation accounting and the checks shared by all workloads."""

    setup_repeats = 3

    def __init__(self, work_dir, seed, smoke, tracer, reference):
        self.work = work_dir
        self.seed = seed
        self.tracer = tracer
        self.reference = reference
        grids = GRIDS["smoke" if smoke else "full"]
        self.desk, self.fine = grids["desk"], grids["fine"]
        self.refine_gate = grids["refine_gate"]
        self.attempted = 0
        self.failed = 0
        self.failures = []     # checks that did not hold
        self.notes = []
        self.observed = {}     # values compared with the seed reference
        self.log = io.StringIO()

    # ------------------------------------------------------------ operations

    def cli(self, *argv) -> int:
        """One CLI command run in-process; returns its exit code."""
        self.attempted += 1
        with contextlib.redirect_stdout(self.log), \
                contextlib.redirect_stderr(self.log):
            rc = morreylab.cli.main([str(a) for a in argv])
        if rc != 0:
            self.failed += 1
        return rc

    def call(self, fn, *args, **kwargs):
        """One library call; returns None if it raised a numerical error."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except (ValueError, ArithmeticError) as exc:
            self.failed += 1
            print(f"{fn.__name__} failed: {exc}", file=self.log)
            return None

    def solve_phase_s(self) -> float:
        return self.tracer.phase_time("solver.solve", self.tracer.run_id)

    # ---------------------------------------------------------------- checks

    def expect(self, ok, what: str) -> None:
        if not ok and what not in self.failures:
            self.failures.append(what)

    def check_solve(self, result, label: str) -> None:
        """Convergence, 0 <= u <= 1 with the maximum at the pin, energy
        non-increasing within each stage, and the pinned-pair quotient."""
        if result is None:
            self.expect(False, f"{label}: no solve result")
            return
        v = result.field.values
        self.expect(result.converged, f"{label}: not converged")
        self.expect(v.min() >= 0.0 and v.max() <= 1.0,
                    f"{label}: values outside [0, 1]")
        self.expect(np.unravel_index(np.argmax(v), v.shape)
                    == result.grid.pin_index, f"{label}: maximum not at the pin")
        for stage in result.stages:
            h = stage.energy_history
            self.expect(all(b <= a + 1e-15 * max(1.0, abs(a))
                            for a, b in zip(h, h[1:])),
                        f"{label}: energy increased at eps={stage.eps:g}")
        self.check_pinned_pair(result, label)

    def check_pinned_pair(self, result, label: str) -> None:
        """|u(0,1) - u(0,-1)| / 2^alpha must equal 2^(2/p)."""
        if not result.converged:
            return
        p = result.p
        vals = m.mirror_to_fullplane(result).evaluate(
            np.array([[0.0, 1.0], [0.0, -1.0]]))
        quotient = abs(vals[0] - vals[1]) / 2.0 ** (1.0 - 2.0 / p)
        self.expect(math.isclose(quotient, 2.0 ** (2.0 / p), rel_tol=1e-12),
                    f"{label}: pinned-pair quotient {quotient!r}")

    def check_reference(self, label: str, result, beta_hat, c_estimate) -> None:
        """Compare energy, dipole strength, beta_hat and C_estimate with the
        stored seed values.  Per-stage iteration counts are reported beside
        them, not gated: a faster solver may take fewer steps to the same
        field."""
        values = {"energy": result.energy,
                  "dipole_strength": result.dipole_strength,
                  "beta_hat": beta_hat, "C_estimate": c_estimate,
                  "stage_iterations": [st.iterations for st in result.stages]}
        self.observed[label] = values
        ref = self.reference.get(label)
        if ref is None:
            self.expect(False, f"{label}: no stored seed reference")
            return
        for key, value in values.items():
            if key == "stage_iterations":
                if value != ref[key]:
                    self.notes.append(f"{label}: stage iterations {value} "
                                      f"(seed {ref[key]})")
            else:
                self.expect(abs(value - ref[key]) <= REF_RTOL * abs(ref[key]),
                            f"{label}: {key}={value!r}, seed {ref[key]!r}")


class ColdDesk(Workload):

    def setup(self):
        for p in P_VALUES:
            (self.work / f"p{p:g}").mkdir(parents=True, exist_ok=True)

    def run_pass(self):
        spec = self.desk
        phases = {"analyze_s": 0.0, "verify_s": 0.0}
        record = {}
        for p in P_VALUES:
            out = self.work / f"p{p:g}"
            n_results = len(self.tracer.solve_results)
            rc = self.cli("solve", "--p", p, "--r-min", spec.r_min,
                          "--r-max", spec.r_max, "--n-s", spec.n_s,
                          "--n-phi", spec.n_phi, "--grad-tol", 1e-9,
                          "--out-dir", out)
            result = (self.tracer.solve_results[-1]
                      if len(self.tracer.solve_results) > n_results else None)
            analyze = [_timed(self.cli, "analyze", "--checkpoint", out / "solve",
                              "--out-dir", out) for _ in range(REPEATS)]
            verify = [_timed(self.cli, "verify", "--p", p, "--mode", "quick",
                             "--out-dir", out / "verify")
                      for _ in range(REPEATS)]
            phases["analyze_s"] += float(np.median([t for t, _ in analyze]))
            phases["verify_s"] += float(np.median([t for t, _ in verify]))
            record[p] = (rc, result, [code for _, code in analyze + verify],
                         out)
        phases["solve_s"] = self.solve_phase_s()
        return phases, record

    def check(self, record):
        for p, (rc, result, step_rcs, out) in record.items():
            label = _label(self.desk, p)
            self.expect(rc == 0, f"{label}: solve exited {rc}")
            self.expect(all(r == 0 for r in step_rcs),
                        f"{label}: analyze/verify exit codes {step_rcs}")
            self.check_solve(result, label)
            if result is None or any(step_rcs):
                continue
            fit = json.loads((out / "fit_summary.json").read_text())
            self.expect(abs(fit["beta_hat"] - m.beta_p(p)) < BETA_GATE,
                        f"{label}: beta_hat {fit['beta_hat']!r}")
            self.check_reference(label, result, fit["beta_hat"],
                                 fit["morrey"]["C_estimate"])


class WarmRefine(Workload):

    setup_repeats = 1    # one desk solve; it is long enough to be steady

    def setup(self):
        self.coarse = m.solve_extremal(self.desk, 4.0)

    def run_pass(self):
        t0 = time.perf_counter()
        grid = m.build_grid(self.fine)
        rr, pp = np.meshgrid(grid.r, grid.phi, indexing="ij")
        values = np.asarray(m.interpolate(self.coarse.field, rr.ravel(),
                                          pp.ravel())).reshape(rr.shape)
        config = m.SolverConfig(eps_schedule=(1e-5, 1e-6))
        fine = self.call(m.solve_extremal, self.fine, 4.0, config,
                         initial=m.ScalarField(grid, values))
        phases = {"solve_s": time.perf_counter() - t0, "analyze_s": 0.0,
                  "verify_s": 0.0}
        record = {"fine": fine}
        if fine is None or not fine.converged:
            return phases, record
        window = (4.0, self.fine.r_max / 8.0)

        def analyze():
            fit = m.fit_exponent(m.decay_profile(fine), window)
            return fit, m.estimate_morrey_constant(fine, 600)

        def verify():
            probes = [(m.interpolate(self.coarse.field, r, 0.5 * np.pi),
                       m.interpolate(fine.field, r, 0.5 * np.pi))
                      for r in PROBE_RADII]
            return probes, m.estimate_morrey_constant(self.coarse, 600)

        analyzed = [_timed(self.call, analyze) for _ in range(REPEATS)]
        verified = [_timed(self.call, verify) for _ in range(REPEATS)]
        phases["analyze_s"] = float(np.median([t for t, _ in analyzed]))
        phases["verify_s"] = float(np.median([t for t, _ in verified]))
        record["analysis"] = analyzed[-1][1]
        record["refinement"] = verified[-1][1]
        return phases, record

    def check(self, record):
        coarse_label = _label(self.desk, 4.0)
        self.check_solve(self.coarse, coarse_label)
        label = _label(self.fine, 4.0)
        fine = record["fine"]
        self.check_solve(fine, label)
        analysis, refinement = record.get("analysis"), record.get("refinement")
        self.expect(analysis is not None and refinement is not None,
                    f"{label}: analysis or refinement check did not run")
        if analysis is None or refinement is None:
            return
        fit, est = analysis
        probes, est_coarse = refinement
        self.expect(abs(fit.beta_hat - m.beta_p(4.0)) < BETA_GATE,
                    f"{label}: beta_hat {fit.beta_hat!r}")
        probe_change = max(abs(f - c) / abs(c) for c, f in probes)
        self.expect(probe_change < self.refine_gate,
                    f"{label}: probe change {probe_change:.3%}")
        drift = abs(est.C_estimate - est_coarse.C_estimate) / est_coarse.C_estimate
        self.expect(drift < self.refine_gate, f"{label}: C drift {drift:.3%}")
        self.check_reference(label, fine, fit.beta_hat, est.C_estimate)


class PostSolve(Workload):

    def setup(self):
        rng = np.random.default_rng(self.seed)
        self.cases = []
        for p in P_VALUES:
            for spec in (self.desk, self.fine):
                b = m.beta_p(p) * rng.uniform(1.0, 1.1)
                grid = m.build_grid(spec)
                values = (np.minimum(1.0, grid.r ** -b)[:, None]
                          * np.sin(grid.phi)[None, :])
                result = m.SolveResult(field=m.ScalarField(grid, values),
                                       energy=0.0, stages=[], converged=True,
                                       p=p)
                base = self.work / f"p{p:g}-{spec.n_s}x{spec.n_phi}" / "synthetic"
                base.parent.mkdir(parents=True, exist_ok=True)
                m.save_checkpoint(result, m.SolverConfig(), base)
                self.cases.append((p, b, result, base))
        self.probe = [(rng.uniform(0.7, 2.0), rng.uniform(-0.8, 0.8))
                      for _ in range(50)]

    def run_pass(self):
        phases = {"analyze_s": 0.0, "verify_s": 0.0}
        analyze_rcs, barriers, verify_rcs = [], [], {}
        for p, b, result, base in self.cases:
            dt, rc = _timed(self.cli, "analyze", "--checkpoint", base,
                            "--out-dir", base.parent)
            phases["analyze_s"] += dt
            analyze_rcs.append(rc)
        for p, b, result, base in self.cases:
            bp = m.beta_p(p)
            dt, report = _timed(self.call, m.barrier_check, result,
                                0.9 * bp, 0.05 * bp)
            phases["analyze_s"] += dt
            barriers.append(report)
        for p in P_VALUES:
            dt, verify_rcs[p] = _timed(self.cli, "verify", "--p", p,
                                       "--mode", "full", "--out-dir",
                                       self.work / f"verify-p{p:g}")
            phases["verify_s"] += dt
        dt, residuals = _timed(self.cone_probe)
        phases["verify_s"] += dt
        phases["solve_s"] = self.solve_phase_s()
        return phases, (analyze_rcs, barriers, verify_rcs, residuals)

    def cone_probe(self):
        """Criterion 3: the cone solution's finite-difference residual falls
        at second order; a 10 % wrong radial exponent does not."""
        kappa = m.beta_p(4.0)
        profile = m.angular_profile(kappa, 4.0, 200)
        pts = [(r, a * profile.params.phi_max) for r, a in self.probe]
        # (exact coarse, exact fine, control coarse, control fine)
        return [self.call(m.pharmonic_residual, profile, 4.0, pts, h=h,
                          radial_exponent=exponent)
                for exponent in (None, 1.1 * kappa) for h in (1e-2, 1e-3)]

    def check(self, record):
        analyze_rcs, barriers, verify_rcs, residuals = record
        for (p, b, result, base), rc, report in zip(self.cases, analyze_rcs,
                                                    barriers):
            label = f"synthetic {_label(result.grid.spec, p)}"
            self.expect(rc == 0, f"{label}: analyze exited {rc}")
            if rc == 0:
                fit = json.loads((base.parent / "fit_summary.json").read_text())
                self.expect(abs(fit["beta_hat"] - b) < BETA_GATE,
                            f"{label}: beta_hat {fit['beta_hat']!r}, b {b!r}")
            self.expect(report is not None and report.violations == 0,
                        f"{label}: barrier violations")
            self.check_pinned_pair(result, label)
        # verify --p 8 --mode full exits 2 at the seed (its 145 x 33 solve
        # stops on energy_rel_tol with grad_sup 1.5e-9 > 1e-9); that run is
        # counted as a failed operation and gated nowhere else
        self.expect(verify_rcs[4.0] == 0, f"verify --p 4 exited {verify_rcs[4.0]}")
        if None in residuals:
            self.expect(False, "cone probe: residual evaluation failed")
            return
        exact_coarse, exact_fine, control_coarse, control_fine = residuals
        ratio = exact_coarse / exact_fine
        self.expect(50.0 <= ratio <= 200.0,
                    f"cone probe: refinement ratio {ratio:.1f}")
        self.expect(control_fine > 1e-3 and control_coarse / control_fine < 5.0,
                    f"cone probe: control {control_fine:.2e}, "
                    f"ratio {control_coarse / control_fine:.2f}")


WORKLOADS = {"cold-desk": ColdDesk, "warm-refine": WarmRefine,
             "post-solve": PostSolve}
