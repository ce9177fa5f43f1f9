"""The embedded backend: one LP on a HiGHS core, or HiGHS branch-and-cut.

`solve_milp` compiles the model once with ``MilpModel.to_sparse``.  A model
without binaries is one LP on `_ScipyCore`, which loads the CSC matrix into
one HiGHS instance with presolve off and alone holds its warm start.
The dispatch models are such LPs first: their convex cost terms
(demand-response deviation and the tiered carbon ladder) are exact LPs, and
a storage gate is added only in a later round, where the gate-free schedule
charges and discharges a store at once.  A model with binaries, such a
gated round, goes to HiGHS branch-and-cut through `highs_milp`, the function
the "scipy-milp" backend calls too.

One core per model.  The core an LP was solved on is kept beside its model
(`_cores`, weakly keyed by the model, as the model keeps its compiled
``A``), so it goes when the model goes.  The next solve of the model reuses
it when the model still compiles to the core's ``A`` object under the same
time limit, and re-prices it with the model's costs and row bounds;
otherwise it loads a new core.  The identity test is exact: ``to_sparse``
hands back the same ``A`` until a column or row is added, and only adding
rows changes the relations.  A solve takes the core out first and puts it
back once it returns, so after a raise the next solve loads a new core.
A sweep re-prices one model from point to point: the carbon price moves
costs only and the tier width the bounds of the knee rows.  After an
optimal point the next restarts hot (Huangfu & Hall, Math. Prog. Comp.
10(1), 2018): the core passes HiGHS no column or row bounds that did not
change, so HiGHS keeps its basis, factorization and edge weights.  On a
hot restart HiGHS chooses the simplex variant (``simplex_strategy`` 0): a
cost change leaves the basis primal feasible, so the primal simplex goes
on from it, and a move of the knee rows leaves it dual feasible, so the
dual simplex does (Bixby, Oper. Res. 50(1), 2002).  A cold start is set to
the dual simplex (``simplex_strategy`` 1, HiGHS's default).  Each solve is
still of its own compiled LP, so the optimum is unchanged; on a degenerate
face the vertex returned can differ from a cold start.
"""

from __future__ import annotations

import math
import time
import weakref
from dataclasses import dataclass
from functools import partial

import numpy as np

from ..milp_ir import MilpModel

OPTIMAL = "optimal"
FEASIBLE = "feasible"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
LIMIT = "limit"


@dataclass(frozen=True, kw_only=True)
class MilpOptions:
    gap_tol: float = 1e-6
    node_limit: int = 200_000
    time_limit: float | None = None

    def __post_init__(self):
        # a NaN gap never closes, so the search would have to prove optimality exactly
        if not (math.isfinite(self.gap_tol) and self.gap_tol >= 0):
            raise ValueError(f"gap_tol {self.gap_tol!r}: need a finite gap >= 0")
        if type(self.node_limit) is not int:  # 4.0 and True are refused too
            raise ValueError(f"node_limit {self.node_limit!r}: need an int")
        if not self.node_limit >= 1:
            raise ValueError(f"node_limit {self.node_limit!r}: need at least 1 node")
        # NaN fails the comparison too
        if self.time_limit is not None and not self.time_limit > 0:
            raise ValueError(f"time_limit {self.time_limit!r}: need None or a limit > 0 seconds")


class NumericalFailure(RuntimeError):
    """An LP solve that certifies no outcome: HiGHS rejects the model or ends
    with a status `_ScipyCore` does not map."""


@dataclass
class LpSolution:
    """Outcome of one `_ScipyCore.solve`."""

    status: str
    objective: float | None = None
    x: np.ndarray | None = None
    iterations: int = 0


@dataclass
class MilpSolution:
    """Solve outcome.

    status: "optimal" (gap <= gap_tol), "feasible" (incumbent found but gap
    not closed before a limit), "limit" (limit hit with no incumbent),
    "infeasible", or "unbounded".  `x`/`objective` always describe the
    incumbent (None when there is none); `bound` is the proven lower bound.
    """

    status: str
    objective: float | None
    x: np.ndarray | None
    bound: float
    gap: float
    nodes: int
    wall_time: float

    @property
    def trace(self) -> list[tuple[int, float, float]]:
        """(nodes, bound, incumbent objective) at the end of the solve."""
        return [(self.nodes, self.bound, math.inf if self.objective is None else self.objective)]


# HiGHS simplex_strategy values: choose the variant, or the dual simplex
_CHOOSE, _DUAL = 0, 1


class _ScipyCore:
    """One HiGHS instance per constraint matrix; a solve sets only column bounds.

    The matrix is loaded once with presolve off, together with the column
    bounds of the first solve, so the simplex basis lives on between runs.
    A solve after a run that ended optimal restarts hot from it with
    ``simplex_strategy`` 0 (module docstring); any other solve clears the
    solver and runs the dual simplex.  `reprice` swaps in the costs and row
    bounds of another LP on the same matrix, and `solve_milp` reuses a
    model's core that way.  With ``time_limit`` (seconds) a run that reaches
    it ends with status "limit".
    """

    def __init__(self, c, c0, A, row_lower, row_upper, lb, ub, time_limit=None):
        # deferred so that importing the package does not load scipy
        from scipy.optimize._highspy._core import HighsModelStatus, HighsStatus, _Highs

        self._status = HighsModelStatus
        self.c0 = c0
        self.time_limit = time_limit
        n, m = len(c), len(row_lower)
        self._cols = np.arange(n, dtype=np.int32)
        self._cost = np.asarray(c, dtype=float)
        self.row_lower, self.row_upper = np.asarray(row_lower, dtype=float), np.asarray(row_upper, dtype=float)
        self.A = A  # solve_milp reuses the core while its model compiles to this very object
        self._highs = _Highs()
        self._highs.setOptionValue("output_flag", False)
        self._highs.setOptionValue("presolve", "off")
        if time_limit is not None:
            self._highs.setOptionValue("time_limit", float(time_limit))
        # the column bounds loaded; a solve passes HiGHS only bounds that differ
        self._bounds = np.array(lb, dtype=float), np.array(ub, dtype=float)
        # column-wise CSC (format 1), minimise (sense 1), all columns
        # continuous (an empty integrality is rejected)
        status = self._highs.passModel(
            n, m, A.nnz, 1, 1, 0.0, self._cost, *self._bounds, self.row_lower,
            self.row_upper, A.indptr, A.indices, A.data, np.zeros(n, dtype=np.int32))
        if status == HighsStatus.kError:
            raise NumericalFailure("LP core failed: HiGHS rejected the model")
        self._hot = False  # whether the last run ended optimal, so the next restarts from it

    def reprice(self, c, c0, row_lower, row_upper) -> None:
        """Set the costs and row bounds of another LP on the loaded matrix.

        HiGHS keeps its basis, so the next solve can restart hot.  Only the
        rows whose bounds differ in value from the ones the core holds are
        changed.  Its run clock counts every run of the instance, so the
        time limit moves on to allow ``time_limit`` more seconds.
        """
        h = self._highs
        self._cost, self.c0 = np.asarray(c, dtype=float), c0
        h.changeColsCost(self._cols.size, self._cols, self._cost)
        row_lower, row_upper = np.asarray(row_lower, dtype=float), np.asarray(row_upper, dtype=float)
        # scipy's binding has no changeRowsBounds: one call per changed row
        for i in np.flatnonzero((row_lower != self.row_lower) | (row_upper != self.row_upper)).tolist():
            h.changeRowBounds(i, row_lower[i], row_upper[i])
        self.row_lower, self.row_upper = row_lower, row_upper
        if self.time_limit is not None:
            h.setOptionValue("time_limit", h.getRunTime() + float(self.time_limit))

    def _run(self, strategy: int):
        """Run HiGHS with the simplex strategy given; the info record of the run."""
        self._highs.setOptionValue("simplex_strategy", strategy)
        self._highs.run()
        return self._highs.getInfo()

    def _resolve_unbounded_or_infeasible(self) -> tuple[str, int]:
        """Decide feasibility by re-running with a zero objective."""
        h, n = self._highs, len(self._cols)
        h.changeColsCost(n, self._cols, np.zeros(n))
        h.clearSolver()
        iterations = self._run(_DUAL).simplex_iteration_count
        model_status = h.getModelStatus()
        h.changeColsCost(n, self._cols, self._cost)
        # the first run found the dual infeasible, so a feasible primal is unbounded
        if model_status == self._status.kOptimal:
            return UNBOUNDED, iterations
        if model_status == self._status.kInfeasible:
            return INFEASIBLE, iterations
        if model_status == self._status.kTimeLimit:
            return LIMIT, iterations
        raise NumericalFailure(f"LP core failed: {h.modelStatusToString(model_status)}")

    def solve(self, lb, ub) -> LpSolution:
        h, status = self._highs, self._status
        lb, ub = np.asarray(lb, dtype=float), np.asarray(ub, dtype=float)
        if not all(map(np.array_equal, (lb, ub), self._bounds)):
            h.changeColsBounds(self._cols.size, self._cols, lb, ub)
            self._bounds = lb.copy(), ub.copy()
        hot, self._hot = self._hot, False
        if not hot:
            h.clearSolver()
        info = self._run(_CHOOSE if hot else _DUAL)
        iterations = info.simplex_iteration_count
        model_status = h.getModelStatus()
        if model_status == status.kOptimal:
            self._hot = True
            return LpSolution(
                status=OPTIMAL,
                objective=info.objective_function_value + self.c0,
                x=np.fromiter(h.getSolution().col_value, float, self._cols.size),
                iterations=iterations,
            )
        if model_status == status.kInfeasible:
            return LpSolution(status=INFEASIBLE, iterations=iterations)
        if model_status == status.kUnbounded:
            return LpSolution(status=UNBOUNDED, iterations=iterations)
        if model_status == status.kTimeLimit:
            return LpSolution(status=LIMIT, iterations=iterations)
        if model_status == status.kUnboundedOrInfeasible:
            verdict, more = self._resolve_unbounded_or_infeasible()
            return LpSolution(status=verdict, iterations=iterations + more)
        raise NumericalFailure(f"LP core failed: {h.modelStatusToString(model_status)}")


def highs_milp(model: MilpModel, options: MilpOptions) -> MilpSolution:
    """HiGHS branch-and-cut (``scipy.optimize.milp``) on the compiled model.

    The one place the package hands scipy a sparse matrix: the compiled
    arrays are wrapped, not copied, in a ``scipy.sparse.csc_array``.  HiGHS
    reports "unbounded or infeasible" as scipy status 4; that is decided as
    `_ScipyCore` decides it for an LP, by a re-solve with a zero objective:
    a feasible point means unbounded.
    """
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import csc_array

    c, c0, A, _, _, lb, ub, is_binary = model.to_sparse()
    lo, hi = model.row_bounds()
    kw = {"mip_rel_gap": options.gap_tol, "node_limit": options.node_limit}
    if options.time_limit is not None:
        kw["time_limit"] = options.time_limit
    matrix = csc_array((A.data, A.indices, A.indptr), shape=A.shape)
    cons = [LinearConstraint(matrix, lo, hi)] if A.shape[0] else []
    run = partial(milp, constraints=cons, integrality=is_binary.astype(int),
                  bounds=Bounds(lb, ub), options=kw)
    t0 = time.perf_counter()
    res = run(c)
    status = {0: OPTIMAL, 1: LIMIT, 2: INFEASIBLE, 3: UNBOUNDED}.get(res.status, LIMIT)
    if res.status == 4:
        status = {0: UNBOUNDED, 2: INFEASIBLE}.get(run(np.zeros_like(c)).status, LIMIT)
    wall = time.perf_counter() - t0
    x = obj = None
    bound, gap, nodes = -np.inf, np.inf, 0
    if res.x is not None:
        x = np.asarray(res.x, dtype=float)
        x[is_binary] = np.round(x[is_binary])
        obj = float(c @ x) + c0
        if status == LIMIT:
            status = FEASIBLE
    if getattr(res, "mip_dual_bound", None) is not None:
        bound = float(res.mip_dual_bound) + c0
    elif status == OPTIMAL and obj is not None:
        bound = obj
    if obj is not None:
        gap = max((obj - bound) / max(1.0, abs(obj)), 0.0)
    if getattr(res, "mip_node_count", None) is not None:
        nodes = int(res.mip_node_count)
    return MilpSolution(status=status, objective=obj, x=x, bound=bound, gap=gap,
                        nodes=max(nodes, 1), wall_time=wall)


# each model's LP core, kept beside the model and dropped with it (module docstring)
_cores: weakref.WeakKeyDictionary[MilpModel, _ScipyCore] = weakref.WeakKeyDictionary()


def solve_milp(model: MilpModel, options: MilpOptions | None = None) -> MilpSolution:
    """Solve a MILP whose integer variables are all binary.

    An LP is solved on the model's core when the model still compiles to
    its matrix under the same time limit, else on a new core, which the
    model then keeps.
    """
    options = options or MilpOptions()
    c, c0, A, _, _, lb, ub, is_binary = model.to_sparse()
    core = _cores.pop(model, None)  # put back only once an LP solve returns
    if is_binary.any():
        return highs_milp(model, options)
    if core is not None and core.A is A and core.time_limit == options.time_limit:
        core.reprice(c, c0, *model.row_bounds())
    else:
        core = _ScipyCore(c, c0, A, *model.row_bounds(), lb, ub, options.time_limit)
    t0 = time.perf_counter()
    res = core.solve(lb, ub)
    wall = time.perf_counter() - t0
    _cores[model] = core
    if res.status != OPTIMAL:
        return MilpSolution(status=res.status, objective=None, x=None, bound=-np.inf,
                            gap=np.inf, nodes=1, wall_time=wall)
    return MilpSolution(status=OPTIMAL, objective=res.objective, x=res.x, bound=res.objective,
                        gap=0.0, nodes=1, wall_time=wall)
