"""Solver backends behind a single contract: solve(model, options) -> MilpSolution.

The embedded branch-and-bound is not one of them: `run_scenario` calls
`solve_milp` directly for the default backend "embedded".

- "scipy-milp": scipy.optimize.milp (HiGHS branch-and-cut), used as an
  independent cross-check.
- "external": runs a user-supplied command on the LP-format export.  The
  command comes from the IESDISPATCH_EXTERNAL_SOLVER environment variable and
  receives the LP path and the solution path as arguments.  It is split by
  shell rules (``shlex``), so a path with spaces works when quoted.  The
  solution file is plain ``key=value`` lines: a ``status=`` line, an
  ``objective=`` line, then one ``<variable>=<value>`` line per variable
  (LP-sanitized names).
"""

from __future__ import annotations

import os
import shlex
import subprocess
import tempfile
import time

import numpy as np

from ..lp_format import sanitized_names, write_lp
from ..milp_ir import MilpModel, row_bounds
from .branch_bound import (
    MILP_FEASIBLE,
    MILP_INFEASIBLE,
    MILP_LIMIT,
    MILP_OPTIMAL,
    MILP_UNBOUNDED,
    MilpOptions,
    MilpSolution,
)

ENV_EXTERNAL = "IESDISPATCH_EXTERNAL_SOLVER"


class BackendUnavailableError(Exception):
    def __init__(self, name: str, reason: str):
        super().__init__(f"backend {name!r} unavailable: {reason}")
        self.backend = name


class ScipyMilpBackend:
    name = "scipy-milp"

    def solve(self, model: MilpModel, options: MilpOptions) -> MilpSolution:
        try:
            from scipy.optimize import Bounds, LinearConstraint, milp
        except ImportError as exc:  # pragma: no cover
            raise BackendUnavailableError(self.name, str(exc))

        c, c0, A, relations, rhs, lb, ub, is_binary = model.to_sparse()
        lo, hi = row_bounds(relations, rhs)
        kw = {"mip_rel_gap": options.gap_tol, "node_limit": options.node_limit}
        if options.time_limit is not None:
            kw["time_limit"] = options.time_limit
        t0 = time.perf_counter()
        cons = [LinearConstraint(A, lo, hi)] if A.shape[0] else []
        res = milp(
            c=c,
            constraints=cons,
            integrality=is_binary.astype(int),
            bounds=Bounds(lb, ub),
            options=kw,
        )
        wall = time.perf_counter() - t0
        status = {
            0: MILP_OPTIMAL,
            1: MILP_LIMIT,
            2: MILP_INFEASIBLE,
            3: MILP_UNBOUNDED,
        }.get(res.status, MILP_LIMIT)
        x = obj = None
        bound, gap, nodes = -np.inf, np.inf, 0
        if res.x is not None:
            x = np.asarray(res.x, dtype=float)
            x[is_binary] = np.round(x[is_binary])
            obj = float(c @ x) + c0
            if status == MILP_LIMIT:
                status = MILP_FEASIBLE
        if getattr(res, "mip_dual_bound", None) is not None:
            bound = float(res.mip_dual_bound) + c0
        elif status == MILP_OPTIMAL and obj is not None:
            bound = obj
        if obj is not None:
            gap = max((obj - bound) / max(1.0, abs(obj)), 0.0)
        if getattr(res, "mip_node_count", None) is not None:
            nodes = int(res.mip_node_count)
        return MilpSolution(
            status=status,
            objective=obj,
            x=x,
            bound=bound,
            gap=gap,
            nodes=max(nodes, 1),
            wall_time=wall,
        )


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
        bound = obj if status == MILP_OPTIMAL and obj is not None else -np.inf
        gap = 0.0 if status == MILP_OPTIMAL and obj is not None else np.inf
        return MilpSolution(
            status=status,
            objective=obj,
            x=x,
            bound=bound,
            gap=gap,
            nodes=1,
            wall_time=wall,
        )

    @staticmethod
    def _read_solution(path: str, names: list[str]):
        """(status, objective, x) from a ``key=value`` solution file."""
        with open(path, encoding="utf-8") as fh:
            pairs = dict(line.strip().split("=", 1) for line in fh if "=" in line and line.strip())
        status = pairs.pop("status", "limit")
        objective = pairs.pop("objective", None)
        if status not in (MILP_OPTIMAL, MILP_FEASIBLE) or objective is None:
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
