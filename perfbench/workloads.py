"""The three benchmark workloads: inputs made from a seed, one pass, and its checks.

- ``scenarios-full``: the bundled 24-period case, S1-S5 through
  ``run_all_scenarios`` with default ``DispatchOptions`` (embedded
  branch and bound).  The paper's headline run; the search dominates it.
- ``sweep-lambda``: ``iesdispatch sweep --param lambda`` over 11 carbon
  prices on the reduced case, S5, in-process through ``cli.main``.  Eleven
  solves of one structure where only objective coefficients change, plus
  argument parsing and artifact writes.
- ``perturbed-milp``: seeded load and wind perturbations (factors from
  U(0.9, 1.1), the generator of acceptance criterion 5), each case solved
  S1-S5 with the ``scipy-milp`` backend, so the embedded search is bypassed
  and model build, compile, extract and verify are a visible share.

Every solve is recorded as a ``Solve``.  A solve that raises, comes back
unverified, or fails a correctness check counts as failed; the pass goes on.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import shutil
import tempfile
import time
from dataclasses import dataclass, replace

from iesdispatch import cli, dispatch, model_core
from iesdispatch.dispatch import SCENARIO_IDS, DispatchOptions, run_all_scenarios

LAMBDA_GRID = "0.10:0.60:0.05"
LAMBDA_POINTS = 11  # values in LAMBDA_GRID
SWEEP_SCENARIO = "S5"

# Perturbed cases per pass, and batches drawn per run: each timed pass solves
# a fresh batch.  Per-case solve time varies by about 20% with the drawn
# factors, so a run spans two batches of 12 (about 10 s each, well inside a
# 15 s run either way, so the pass count does not flip between runs).
PERTURBED_CASES = 12
PERTURBED_BATCHES = 6
PERTURBED_KEYS = ("electric", "gas", "heat", "wind")


@dataclass
class Solve:
    """One scenario solve: its inputs, time from build through verify, and outcome."""

    case: object
    scenario_id: str
    options: DispatchOptions
    seconds: float = 0.0
    objective: float | None = None
    error: str | None = None  # None when the solution came back verified


@dataclass
class PassResult:
    solves: list[Solve]
    bytes_written: int = 0  # artifact bytes the pass wrote through the CLI


def _describe(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def solve_scenario(case, scenario_id: str, options: DispatchOptions) -> Solve:
    """One solve through ``run_all_scenarios``, the call site the harness guards.

    ``NumericalFailure`` and the ``RuntimeError`` of the scipy LP core escape
    ``run_all_scenarios``; they are caught here and recorded as a failed solve.
    """
    rec = Solve(case, scenario_id, options)
    t0 = time.perf_counter()
    try:
        report = run_all_scenarios(case, options, scenario_ids=(scenario_id,))
    except Exception as exc:  # any solver failure is a failed solve, never an abort
        rec.seconds = time.perf_counter() - t0
        rec.error = _describe(exc)
        return rec
    rec.seconds = time.perf_counter() - t0
    row = report.rows[0]
    sol = report.solutions.get(scenario_id)
    if row.error is not None:
        rec.error = f"{row.status}: {row.error}"
    elif sol is None or sol.verification is None or not sol.verification.passed:
        rec.error = "solution returned without a passing verification"
    else:
        rec.objective = sol.objective
    return rec


class SolveProbe:
    """Records every ``dispatch.run_scenario`` call made while it is active.

    The sweep's solves happen inside ``cli.main``; wrapping the module
    attribute is the only way to time them one by one from outside.
    """

    def __init__(self):
        self.solves: list[Solve] = []
        self._original = None

    def __enter__(self) -> "SolveProbe":
        original = self._original = dispatch.run_scenario

        def run_scenario(case, scenario, options=None):
            rec = Solve(case, dispatch.as_scenario(scenario).id, options or DispatchOptions())
            self.solves.append(rec)
            t0 = time.perf_counter()
            try:
                sol = original(case, scenario, options)
            except Exception as exc:
                rec.seconds = time.perf_counter() - t0
                rec.error = _describe(exc)
                raise
            rec.seconds = time.perf_counter() - t0
            if sol.verification is None or not sol.verification.passed:
                rec.error = "solution returned without a passing verification"
            else:
                rec.objective = sol.objective
            return sol

        dispatch.run_scenario = run_scenario
        return self

    def __exit__(self, *exc_info):
        dispatch.run_scenario = self._original


def within_gap(obj: float, ref: float, gap_tol: float) -> bool:
    """Both objectives are within gap_tol of the optimum, so of each other."""
    return abs(obj - ref) <= gap_tol * max(1.0, abs(obj), abs(ref))


def check_against_reference(solves: list[Solve]) -> None:
    """Compare each verified objective with a ``scipy-milp`` solve of the same model."""
    refs: dict[tuple, float | str] = {}
    for rec in solves:
        if rec.error is not None:
            continue
        key = (model_core.case_hash(rec.case), rec.scenario_id, rec.options)
        if key not in refs:
            ref_opts = replace(rec.options, backend="scipy-milp")
            try:
                refs[key] = dispatch.run_scenario(rec.case, rec.scenario_id, ref_opts).objective
            except Exception as exc:  # an unchecked objective counts as failed
                refs[key] = _describe(exc)
        ref = refs[key]
        if isinstance(ref, str):
            rec.error = f"scipy-milp reference failed: {ref}"
        elif not within_gap(rec.objective, ref, rec.options.gap_tol):
            rec.error = (f"objective {rec.objective!r} not within gap_tol of "
                         f"scipy-milp reference {ref!r}")


def check_ordering(solves: list[Solve]) -> None:
    """obj(S5) <= obj(S4) <= obj(S3) within 2*gap_tol on every case."""
    groups: list[dict[str, Solve]] = []
    for i, rec in enumerate(solves):  # a case's solves are consecutive
        if i == 0 or rec.case is not solves[i - 1].case:
            groups.append({})
        groups[-1][rec.scenario_id] = rec
    for recs in groups:
        for hi, lo in (("S3", "S4"), ("S4", "S5")):
            a, b = recs.get(hi), recs.get(lo)
            if a is None or b is None or a.error is not None or b.error is not None:
                continue
            gap = b.options.gap_tol
            slack = gap * (max(1.0, abs(a.objective)) + max(1.0, abs(b.objective)))
            if b.objective > a.objective + slack:
                b.error = f"obj({lo}) {b.objective!r} exceeds obj({hi}) {a.objective!r}"


@dataclass
class ScenariosFull:
    case: object
    options: DispatchOptions
    name = "scenarios-full"

    def run_pass(self, index: int = 0) -> PassResult:
        return PassResult([solve_scenario(self.case, sid, self.options) for sid in SCENARIO_IDS])

    def warm_up(self) -> None:
        self.run_pass()

    def check(self, solves: list[Solve]) -> None:
        check_against_reference(solves)


@dataclass
class SweepLambda:
    case: object  # the reduced case the CLI builds; recorded, not passed to it
    options: DispatchOptions
    out_root: str
    name = "sweep-lambda"

    def argv(self, out_dir: str) -> list[str]:
        return ["sweep", "--param", "lambda", "--grid", LAMBDA_GRID,
                "--scenario", SWEEP_SCENARIO, "--reduced", "--out", out_dir]

    def run_pass(self, index: int = 0) -> PassResult:
        os.makedirs(self.out_root, exist_ok=True)
        out_dir = tempfile.mkdtemp(prefix="sweep-", dir=self.out_root)
        error = None
        try:
            with SolveProbe() as probe, contextlib.redirect_stdout(io.StringIO()):
                try:
                    code = cli.main(self.argv(out_dir))
                except Exception as exc:  # a solver failure escaping the CLI
                    error = _describe(exc)
                else:
                    if code != cli.EXIT_OK:
                        error = f"cli.main exited {code}"
            written = sum(os.path.getsize(os.path.join(out_dir, f)) for f in os.listdir(out_dir))
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        solves = probe.solves
        for _ in range(LAMBDA_POINTS - len(solves)):
            solves.append(Solve(None, SWEEP_SCENARIO, self.options, error=error or "solve not made"))
        if error is not None and all(rec.error is None for rec in solves):
            for rec in solves:
                rec.error = error
        return PassResult(solves, written)

    def warm_up(self) -> None:
        self.run_pass()

    def check(self, solves: list[Solve]) -> None:
        check_against_reference(solves)


@dataclass
class PerturbedMilp:
    case: object  # the bundled case the batches perturb
    batches: list[list]
    options: DispatchOptions
    name = "perturbed-milp"

    def _solve(self, cases) -> PassResult:
        return PassResult([solve_scenario(c, sid, self.options) for c in cases for sid in SCENARIO_IDS])

    def run_pass(self, index: int = 0) -> PassResult:
        return self._solve(self.batches[index % len(self.batches)])

    def warm_up(self) -> None:
        # One case pays the first-call costs of this solve path; a whole batch
        # would add ten seconds to every run for no further effect.
        self._solve(self.batches[0][:1])

    def check(self, solves: list[Solve]) -> None:
        check_ordering(solves)


def perturbed_batches(case, seed: int) -> list[list]:
    """Criterion-5 perturbations: each load and the wind scaled by U(0.9, 1.1)."""
    rng = random.Random(seed)
    return [
        [model_core.scale_profiles(case, {k: rng.uniform(0.9, 1.1) for k in PERTURBED_KEYS})
         for _ in range(PERTURBED_CASES)]
        for _ in range(PERTURBED_BATCHES)
    ]


def make(name: str, seed: int, out_root: str):
    """Load and validate the bundled case and build the workload's inputs.

    Returns the workload and the seconds spent in ``load_case`` (which
    validates) and in the case transforms.
    """
    t0 = time.perf_counter()
    base = model_core.load_case(model_core.default_case_path())
    t1 = time.perf_counter()
    if name == "scenarios-full":
        wl = ScenariosFull(base, DispatchOptions())
    elif name == "sweep-lambda":
        reduced = model_core.reduce_case(base, cli.REDUCED_FACTOR)
        wl = SweepLambda(reduced, DispatchOptions(pwl_segments=cli.REDUCED_SEGMENTS), out_root)
    elif name == "perturbed-milp":
        wl = PerturbedMilp(base, perturbed_batches(base, seed), DispatchOptions(backend="scipy-milp"))
    else:
        raise ValueError(f"unknown workload {name!r}")
    t2 = time.perf_counter()
    return wl, {"load_validate_s": t1 - t0, "transform_s": t2 - t1}
