"""The embedded backend: one LP on a HiGHS core, or HiGHS branch-and-cut.

Each solver step reads the model from one ``MilpModel.to_sparse`` call,
whose arrays the model keeps until they change: costs, the matrix ``A``,
the row bounds ``row_lower <= A x <= row_upper`` as HiGHS takes them, the
column bounds and the binary flags.  Every run is on a `_ScipyCore`, which
loads those arrays into one HiGHS instance.  A model without binaries is
one LP on a kept core, loaded with presolve off, which alone holds its warm
start.  The dispatch models are such LPs first: their convex cost terms
(demand-response deviation and the tiered carbon ladder) are exact LPs,
and a storage gate is added only in a later round, where the gate-free
schedule charges and discharges a store at once.  A model with binaries,
such a gated round, goes to HiGHS branch-and-cut through `highs_milp`, the
function the "scipy-milp" backend calls too, on a one-off core.  Both read
HiGHS's own model status by one rule, `_verdict`: a run a limit stops is
"feasible" with an incumbent, else "limit".

One kept core per model.  The core an LP was solved on is kept beside its
model (`_cores`, weakly keyed by the model, as the model keeps its compiled
``A``), so it goes when the model goes.  The next solve of the model reuses
it when the model still compiles to the core's ``A`` object, and otherwise
loads a new core.  Every solve re-prices the core with the model's costs
and row bounds, and each run gets its own time limit.  The identity test
is exact: ``to_sparse`` hands back the same ``A`` until a column or row
is added, only adding rows changes which side of a row is infinite, and
no call changes the bounds of a column once added.  A solve
takes the core out first and puts it back once it returns, so after a
raise the next solve loads a new core.
A sweep re-prices one model from point to point: the carbon price moves
costs only and the tier width the bounds of the knee rows.  After an
optimal point the next restarts hot (Huangfu & Hall, Math. Prog. Comp.
10(1), 2018): the core passes HiGHS no cost and no row bound that did
not change, so HiGHS keeps its basis, factorization and edge weights,
and ends up holding the very costs and bounds a full re-price gives it.  On a
hot restart HiGHS chooses the simplex variant (``simplex_strategy`` 0): a
cost change leaves the basis primal feasible, so the primal simplex goes
on from it, and a move of the knee rows leaves it dual feasible, so the
dual simplex does (Bixby, Oper. Res. 50(1), 2002).  A cold start is set to
the dual simplex (``simplex_strategy`` 1, HiGHS's default).  Each solve is
still of its own compiled LP, so the optimum is unchanged; on a degenerate
face the vertex returned can differ from a cold start.
"""

from __future__ import annotations

import functools
import math
import time
import weakref
from dataclasses import dataclass

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
    """A HiGHS run that certifies no outcome: HiGHS refuses the model or ends
    with a status `_verdict` does not map."""


@dataclass
class MilpSolution:
    """Solve outcome.

    status: "optimal" (gap <= gap_tol), "feasible" (incumbent found but gap
    not closed before a limit), "limit" (limit hit with no incumbent),
    "infeasible", or "unbounded".  `x`/`objective` always describe the
    incumbent (None when there is none); `bound` is the proven lower bound,
    and `gap` is worked out from the two.  `wall_time` covers the run on a
    HiGHS instance (after the re-price of a kept one), not its load.
    """

    status: str
    objective: float | None
    x: np.ndarray | None
    bound: float
    nodes: int
    wall_time: float

    @property
    def gap(self) -> float:
        """The incumbent's relative distance above the bound, at least 0; inf without one."""
        if self.objective is None:
            return math.inf
        return max((self.objective - self.bound) / max(1.0, abs(self.objective)), 0.0)

    @property
    def trace(self) -> list[tuple[int, float, float]]:
        """(nodes, bound, incumbent objective) at the end of the solve."""
        return [(self.nodes, self.bound, math.inf if self.objective is None else self.objective)]


@functools.cache
def _statuses():
    """HiGHS's limit statuses and the verdict of each status that ends a run with one, read once."""
    from scipy.optimize._highspy._core import HighsModelStatus as s

    limits = (s.kTimeLimit, s.kIterationLimit, s.kSolutionLimit)
    return s.kUnboundedOrInfeasible, limits, {s.kOptimal: OPTIMAL, s.kInfeasible: INFEASIBLE, s.kUnbounded: UNBOUNDED}


def _verdict(model_status, incumbent: bool, zero_cost_run, who: str) -> str:
    """The status of a finished HiGHS run, for the LP core and branch-and-cut alike.

    A run stopped by a time, iteration or solution limit (the last is
    ``mip_max_nodes``) is "feasible" with an incumbent and "limit" without.
    "Unbounded or infeasible" is decided by ``zero_cost_run()``, the status
    of a re-run with a zero objective: a feasible point means unbounded.
    Any other status, a model HiGHS refused among them, raises.
    """
    either, limits, verdicts = _statuses()
    if model_status == either and zero_cost_run is not None:
        verdict = _verdict(zero_cost_run(), False, None, who)
        return UNBOUNDED if verdict == OPTIMAL else verdict
    if model_status in limits:
        return FEASIBLE if incumbent else LIMIT
    verdict = verdicts.get(model_status)
    if verdict is None:
        from scipy.optimize._highspy._core import _Highs

        raise NumericalFailure(f"{who} failed: {_Highs().modelStatusToString(model_status)}")
    return verdict


# HiGHS simplex_strategy values: choose the variant, or the dual simplex
_CHOOSE, _DUAL = 0, 1


class _ScipyCore:
    """One HiGHS instance per compiled matrix; a solve re-prices it with its model.

    A kept LP core (no ``options``) loads the model's arrays once with
    presolve off, so the simplex basis lives on between runs.  A solve
    after a run that ended optimal restarts hot from it with
    ``simplex_strategy`` 0 (module docstring); any other solve clears the
    solver and runs the dual simplex.  A one-off core (`highs_milp`) is
    loaded for the one run its ``options`` set the MIP gap and node limit
    of; it keeps HiGHS's other defaults, presolve on among them.
    """

    def __init__(self, model: MilpModel, options: MilpOptions | None = None):
        # deferred so that importing the package does not load scipy
        from scipy.optimize._highspy._core import HighsStatus, _Highs

        c, _, A, row_lower, row_upper, lb, ub, is_binary = model.to_sparse()
        self.A = A  # solve_milp reuses the core while its model compiles to this very object
        self._costs, self._rows = c, (row_lower, row_upper)  # what HiGHS holds
        m, n = A.shape
        self._cols = np.arange(n, dtype=np.int32)
        self._who = "LP core" if options is None else "branch-and-cut"
        self._highs = _Highs()
        self._highs.setOptionValue("output_flag", False)
        if options is None:
            self._highs.setOptionValue("presolve", "off")
        else:
            self._highs.setOptionValue("mip_rel_gap", options.gap_tol)
            self._highs.setOptionValue("mip_max_nodes", options.node_limit)
        # column-wise CSC (format 1), minimise (sense 1), the binaries as
        # integers (an empty integrality is rejected)
        status = self._highs.passModel(
            n, m, A.nnz, 1, 1, 0.0, c, lb, ub, *self._rows,
            A.indptr, A.indices, A.data, is_binary.astype(np.int32))
        if status == HighsStatus.kError:
            raise NumericalFailure(f"{self._who} failed: HiGHS rejected the model")
        self._hot = False  # whether the last run ended optimal, so the next restarts from it

    def _zero_cost_run(self):
        """HiGHS's status for the model with a zero objective; the next solve re-prices the costs."""
        h, n = self._highs, len(self._cols)
        self._costs = np.zeros(n)
        h.changeColsCost(n, self._cols, self._costs)
        h.clearSolver()
        h.setOptionValue("simplex_strategy", _DUAL)
        h.run()
        return h.getModelStatus()

    def solve(self, model: MilpModel, options: MilpOptions) -> MilpSolution:
        """Solve ``model``, which compiles to the loaded ``A``, under ``options.time_limit``.

        A run passes HiGHS only the costs and row bounds of ``model`` that
        differ in value from the ones the core holds, so HiGHS keeps its
        basis; on the model the core was loaded from, the first run finds
        none.  Row bounds that are the very arrays the core holds are not
        compared: ``to_sparse`` replaces them whenever a row moves.
        HiGHS's run clock counts every run of the instance, so the time
        limit is set from it for each run.  A MIP run's incumbent, node
        count and dual bound are HiGHS's.  Every core rounds the binaries
        of its point (an LP has none) and prices it as ``c·x + c0``.
        """
        t0 = time.perf_counter()
        h = self._highs
        c, c0, _, lower, upper, _, _, is_binary = model.to_sparse()
        moved = self._cols[c != self._costs]
        if moved.size:
            h.changeColsCost(moved.size, moved, c[moved])
        self._costs = c
        held_lower, held_upper = self._rows
        if lower is not held_lower or upper is not held_upper:
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
        model_status, info, mip = h.getModelStatus(), h.getInfo(), is_binary.any()
        nodes, bound = (max(info.mip_node_count, 1), info.mip_dual_bound + c0) if mip else (1, -np.inf)
        incumbent = mip and info.objective_function_value < math.inf
        verdict = _verdict(model_status, incumbent, self._zero_cost_run, self._who)
        if verdict not in (OPTIMAL, FEASIBLE):
            return MilpSolution(status=verdict, objective=None, x=None, bound=bound, nodes=nodes,
                                wall_time=time.perf_counter() - t0)
        self._hot = True
        x = np.fromiter(h.getSolution().col_value, float, self._cols.size)
        x[is_binary] = np.round(x[is_binary])
        objective = float(c @ x) + c0
        return MilpSolution(status=verdict, objective=objective, x=x, bound=bound if mip else objective,
                            nodes=nodes, wall_time=time.perf_counter() - t0)


def highs_milp(model: MilpModel, options: MilpOptions) -> MilpSolution:
    """HiGHS branch-and-cut on the compiled model, on a one-off `_ScipyCore`.

    The run is the one ``scipy.optimize.milp`` makes once it has checked
    and copied its arguments; the model checked them where they entered it,
    so they go as they are.  An LP is solved on such a core too.
    """
    return _ScipyCore(model, options).solve(model, options)


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
