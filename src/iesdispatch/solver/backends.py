"""Solver backends behind a single contract: solve(model, options) -> MilpSolution.

The embedded backend is not one of them: `run_scenario` calls `solve_milp`
directly for the default backend "embedded".

- "scipy-milp": HiGHS branch-and-cut on a one-off HiGHS instance with
  HiGHS's defaults (`highs_milp`, the run ``scipy.optimize.milp`` makes) on
  every model, LP or not: a cross-check of the embedded backend's kept LP
  core, which hands `highs_milp` only a model with binaries.
- "external": runs a user-supplied command on the LP-format export.  The
  command comes from the IESDISPATCH_EXTERNAL_SOLVER environment variable and
  receives the LP path and the solution path as arguments.  It is split by
  shell rules (``shlex``), so a path with spaces works when quoted.  The
  solution file is plain ``key=value`` lines: a ``status=`` line (one of
  ``STATUSES``), an ``objective=`` line, then one ``<variable>=<value>``
  line per variable (LP-sanitized names).
"""

from __future__ import annotations

import os
import shlex
import subprocess
import tempfile
import time

import numpy as np

from ..lp_format import sanitized_names, write_lp
from ..milp_ir import MilpModel
from .branch_bound import FEASIBLE, INFEASIBLE, LIMIT, OPTIMAL, UNBOUNDED, MilpOptions, MilpSolution, highs_milp

ENV_EXTERNAL = "IESDISPATCH_EXTERNAL_SOLVER"
STATUSES = (OPTIMAL, FEASIBLE, INFEASIBLE, UNBOUNDED, LIMIT)  # the values a solution file's status= may take


class BackendUnavailableError(Exception):
    def __init__(self, name: str, reason: str):
        super().__init__(f"backend {name!r} unavailable: {reason}")
        self.backend = name


class ScipyMilpBackend:
    name = "scipy-milp"

    def solve(self, model: MilpModel, options: MilpOptions) -> MilpSolution:
        return highs_milp(model, options)


class ExternalBackend:
    name = "external"

    def __init__(self, command: str | None = None):
        self.command = command if command is not None else os.environ.get(ENV_EXTERNAL)

    def solve(self, model: MilpModel, options: MilpOptions) -> MilpSolution:
        if not self.command:
            raise BackendUnavailableError(self.name, f"{ENV_EXTERNAL} is not set")
        names = sanitized_names(model)
        t0 = time.perf_counter()
        with tempfile.TemporaryDirectory(prefix="iesdispatch_") as tmp:
            lp_path = os.path.join(tmp, "model.lp")
            sol_path = os.path.join(tmp, "model.sol")
            with open(lp_path, "w", encoding="utf-8") as fh:
                fh.write(write_lp(model))
            argv = shlex.split(self.command) + [lp_path, sol_path]
            try:
                proc = subprocess.run(argv, capture_output=True, text=True)
            except OSError as exc:
                raise BackendUnavailableError(self.name, f"command did not start: {exc}") from None
            if proc.returncode != 0:
                raise BackendUnavailableError(
                    self.name, f"command failed ({proc.returncode}): {proc.stderr.strip()}"
                )
            try:
                status, obj, x = self._read_solution(sol_path, names)
            except (OSError, ValueError) as exc:  # ValueError covers bad numbers and bad UTF-8
                raise BackendUnavailableError(self.name, f"unreadable solution file: {exc}") from None
        wall = time.perf_counter() - t0
        bound = obj if status == OPTIMAL and obj is not None else -np.inf
        return MilpSolution(status=status, objective=obj, x=x, bound=bound, nodes=1, wall_time=wall)

    @staticmethod
    def _read_solution(path: str, names: list[str]):
        """(status, objective, x) from a ``key=value`` solution file; a status outside ``STATUSES`` is a ValueError."""
        with open(path, encoding="utf-8") as fh:
            pairs = dict(line.strip().split("=", 1) for line in fh if "=" in line and line.strip())
        status = pairs.pop("status", LIMIT)
        if status not in STATUSES:
            raise ValueError(f"status {status!r}: need one of {', '.join(STATUSES)}")
        objective = pairs.pop("objective", None)
        if status not in (OPTIMAL, FEASIBLE) or objective is None:
            return status, None, None
        obj = float(objective)
        x = np.zeros(len(names))
        for vid, name in enumerate(names):
            if name in pairs:
                x[vid] = float(pairs[name])
        return status, obj, x


BACKENDS = {
    ScipyMilpBackend.name: ScipyMilpBackend,
    ExternalBackend.name: ExternalBackend,
}


def get_backend(name: str) -> ScipyMilpBackend | ExternalBackend:
    if name not in BACKENDS:
        raise BackendUnavailableError(name, f"unknown backend; known: {sorted(BACKENDS)}")
    return BACKENDS[name]()
