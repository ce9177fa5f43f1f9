"""The embedded backend: one LP on a HiGHS core, or HiGHS branch-and-cut.

Each solver step reads the model from one ``MilpModel.to_sparse`` call,
whose arrays the model keeps until they change: costs, the matrix ``A``,
the row bounds ``row_lower <= A x <= row_upper`` as HiGHS takes them, the
column bounds and the binary flags.  A model without binaries is one LP
on `_ScipyCore`, which loads those arrays into one HiGHS instance with
presolve off and alone holds its warm start.  The dispatch models are
such LPs first: their convex cost terms (demand-response deviation and the
tiered carbon ladder) are exact LPs, and a storage gate is added only in a
later round, where the gate-free schedule charges and discharges a store at
once.  A model with binaries, such a gated round, goes to HiGHS
branch-and-cut through `highs_milp`, the function the "scipy-milp" backend
calls too.

One core per model.  The core an LP was solved on is kept beside its model
(`_cores`, weakly keyed by the model, as the model keeps its compiled
``A``), so it goes when the model goes.  The next solve of the model reuses
it when the model still compiles to the core's ``A`` object, and otherwise
loads a new core.  Every solve after the load re-prices the core with the
model's costs and row bounds, and each run gets its own time limit.  The
identity test is exact: ``to_sparse`` hands back the same ``A`` until a
column or row is added, only adding rows changes which side of a row is
infinite, and no call changes the bounds of a column once added.  A solve
takes the core out first and puts it back once it returns, so after a
raise the next solve loads a new core.
A sweep re-prices one model from point to point: the carbon price moves
costs only and the tier width the bounds of the knee rows.  After an
optimal point the next restarts hot (Huangfu & Hall, Math. Prog. Comp.
10(1), 2018): the core passes HiGHS no row bounds that did not change,
so HiGHS keeps its basis, factorization and edge weights.  On a
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
    """One HiGHS instance per compiled matrix; a solve re-prices it with its model.

    The model's arrays and row bounds are loaded once with presolve off, so
    the simplex basis lives on between runs.  A solve after a run that ended
    optimal restarts hot from it with ``simplex_strategy`` 0 (module
    docstring); any other solve clears the solver and runs the dual simplex.
    """

    def __init__(self, model: MilpModel):
        # deferred so that importing the package does not load scipy
        from scipy.optimize._highspy._core import HighsModelStatus, HighsStatus, _Highs

        self._status = HighsModelStatus
        c, _, A, row_lower, row_upper, lb, ub, _ = model.to_sparse()
        self.A = A  # solve_milp reuses the core while its model compiles to this very object
        self._rows = row_lower, row_upper
        m, n = A.shape
        self._cols = np.arange(n, dtype=np.int32)
        self._highs = _Highs()
        self._highs.setOptionValue("output_flag", False)
        self._highs.setOptionValue("presolve", "off")
        # column-wise CSC (format 1), minimise (sense 1), all columns
        # continuous (an empty integrality is rejected)
        status = self._highs.passModel(
            n, m, A.nnz, 1, 1, 0.0, c, lb, ub, *self._rows,
            A.indptr, A.indices, A.data, np.zeros(n, dtype=np.int32))
        if status == HighsStatus.kError:
            raise NumericalFailure("LP core failed: HiGHS rejected the model")
        self._loaded = True  # the first run takes the costs and row bounds of the load
        self._hot = False  # whether the last run ended optimal, so the next restarts from it

    def _verdict(self, model_status, optimal: str) -> str:
        """The status of a finished run, ``optimal`` for an optimal one; raises on a status it does not map."""
        s = self._status
        verdict = {s.kOptimal: optimal, s.kInfeasible: INFEASIBLE, s.kUnbounded: UNBOUNDED,
                   s.kTimeLimit: LIMIT}.get(model_status)
        if verdict is None:
            raise NumericalFailure(f"LP core failed: {self._highs.modelStatusToString(model_status)}")
        return verdict

    def _resolve_unbounded_or_infeasible(self) -> str:
        """Decide feasibility by re-running with a zero objective; the next solve re-prices the costs."""
        h, n = self._highs, len(self._cols)
        h.changeColsCost(n, self._cols, np.zeros(n))
        h.clearSolver()
        h.setOptionValue("simplex_strategy", _DUAL)
        h.run()
        # the first run found the dual infeasible, so a feasible primal is unbounded
        return self._verdict(h.getModelStatus(), UNBOUNDED)

    def solve(self, model: MilpModel, options: MilpOptions) -> MilpSolution:
        """Solve ``model``, which compiles to the loaded ``A``, under ``options.time_limit``.

        A run after the first passes HiGHS the model's costs and only the
        row bounds that differ in value from the ones the core holds, so
        HiGHS keeps its basis.  HiGHS's run clock counts every run of the
        instance, so the time limit is set from it for each run.
        """
        t0 = time.perf_counter()
        h = self._highs
        c, c0, _, lower, upper = model.to_sparse()[:5]
        if self._loaded:
            self._loaded = False
        else:
            h.changeColsCost(self._cols.size, self._cols, c)
            held_lower, held_upper = self._rows
            # scipy's binding has no changeRowsBounds: one call per changed row
            for i in np.flatnonzero((lower != held_lower) | (upper != held_upper)).tolist():
                h.changeRowBounds(i, lower[i], upper[i])
            self._rows = lower, upper
        limit = options.time_limit
        h.setOptionValue("time_limit", math.inf if limit is None else h.getRunTime() + limit)
        hot, self._hot = self._hot, False
        if not hot:
            h.clearSolver()
        h.setOptionValue("simplex_strategy", _CHOOSE if hot else _DUAL)
        h.run()
        model_status = h.getModelStatus()
        if model_status == self._status.kUnboundedOrInfeasible:
            verdict = self._resolve_unbounded_or_infeasible()
        else:
            verdict = self._verdict(model_status, OPTIMAL)
        if verdict != OPTIMAL:
            return MilpSolution(status=verdict, objective=None, x=None, bound=-np.inf, gap=np.inf, nodes=1,
                                wall_time=time.perf_counter() - t0)
        self._hot = True
        objective = h.getInfo().objective_function_value + c0
        x = np.fromiter(h.getSolution().col_value, float, self._cols.size)
        return MilpSolution(status=OPTIMAL, objective=objective, x=x, bound=objective, gap=0.0, nodes=1,
                            wall_time=time.perf_counter() - t0)


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

    c, c0, A, lo, hi, lb, ub, is_binary = model.to_sparse()
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
    its matrix, else on a new core, which the model then keeps.
    """
    options = options or MilpOptions()
    _, _, A, _, _, _, _, is_binary = model.to_sparse()
    core = _cores.pop(model, None)  # put back only once an LP solve returns
    if is_binary.any():
        return highs_milp(model, options)
    if core is None or core.A is not A:
        core = _ScipyCore(model)
    res = core.solve(model, options)
    _cores[model] = core
    return res
