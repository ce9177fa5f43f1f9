"""Best-first branch-and-bound over binary variables.

Node LP relaxations are solved by HiGHS through scipy's bindings.  The model
is compiled once per solve by ``MilpModel.to_sparse`` and its CSC matrix is
loaded into one HiGHS instance with presolve off; each node LP sets every
column's bounds and restarts the dual simplex from its parent's basis,
which after one fixed binary takes a few pivots instead of a cold solve.
Every node gets its parent's basis, so it warm-starts from its own parent
whatever order nodes are popped in.  The search starts at the root
relaxation, the first node popped, and always expands the open node with the
lowest bound.
A model without binaries is solved by the root LP alone.  The dispatch
models are such LPs first: their convex cost terms (demand-response
deviation and the tiered carbon ladder) are exact LPs, and a storage gate is
added only in a later round, where the gate-free schedule charges and
discharges a store at once.  Only those rounds branch, and only on storage
gates.  Branching picks the binary closest to 0.5 with lowest-index
tie-breaks, so runs are deterministic.

Incumbents come from "polish" LPs, which re-solve with every binary fixed
to 0 or 1, so incumbent binaries are exact.  A node whose relaxation is
integral is polished at its rounded values.  Before any other node branches,
its fractional binaries are rounded with locks (simple rounding, Achterberg,
*Constraint Integer Programming*, 2007, ch. 9): in index order each takes
its nearer value if every row of its column stays within its bounds at the
node LP's row activities, and otherwise the other value.  If every binary
rounds, the point is polished; if neither value fits a binary, or the polish
LP is infeasible, the node just branches.  The node's children carry its LP
bound, so when the polished incumbent closes the gap the search stops at the
loop top with that bound, not the incumbent's value.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass, field

import numpy as np

from ..milp_ir import MilpModel, row_bounds
from .simplex import INFEASIBLE, OPTIMAL, UNBOUNDED, LpSolution

MILP_OPTIMAL = "optimal"
MILP_FEASIBLE = "feasible"
MILP_INFEASIBLE = "infeasible"
MILP_UNBOUNDED = "unbounded"
MILP_LIMIT = "limit"

_ROW_TOL = 1e-6  # relative row slack when judging a rounded point
# a relative gap below this is LP round-off between the polished incumbent
# and the bound it sits on, not a gap the search left open
_ROUND_OFF_GAP = 1e-12


@dataclass(frozen=True, kw_only=True)
class MilpOptions:
    gap_tol: float = 1e-6
    int_tol: float = 1e-6
    node_limit: int = 200_000
    time_limit: float | None = None

    def __post_init__(self):
        # a NaN gap never closes, so the search would have to prove optimality exactly
        if not (math.isfinite(self.gap_tol) and self.gap_tol >= 0):
            raise ValueError(f"gap_tol {self.gap_tol!r}: need a finite gap >= 0")
        if not self.node_limit >= 1:
            raise ValueError(f"node_limit {self.node_limit!r}: need at least 1 node")
        # NaN fails the comparison too
        if self.time_limit is not None and not self.time_limit > 0:
            raise ValueError(f"time_limit {self.time_limit!r}: need None or a limit > 0 seconds")


@dataclass
class MilpSolution:
    """Branch-and-bound outcome.

    status: "optimal" (gap <= gap_tol), "feasible" (incumbent found but gap
    not closed before a limit), "limit" (limit hit with no incumbent),
    "infeasible", or "unbounded".  `x`/`objective` always describe the
    incumbent (None when there is none); `bound` is the proven lower bound.
    `trace` records (nodes, bound, incumbent objective) at every improvement.
    """

    status: str
    objective: float | None
    x: np.ndarray | None
    bound: float
    gap: float
    nodes: int
    wall_time: float
    trace: list[tuple[int, float, float]] = field(default_factory=list)


class _ScipyCore:
    """One HiGHS instance per solve; a node changes only column bounds.

    The model is loaded once with presolve off, so the simplex basis lives
    on between runs.  A node given its parent's basis restarts the dual
    simplex from it; a node without one (the root) starts cold.
    """

    def __init__(self, c, c0, A, relations, rhs):
        # deferred so that importing the package does not load scipy
        from scipy.optimize._highspy._core import (
            HighsLp,
            HighsModelStatus,
            HighsStatus,
            MatrixFormat,
            _Highs,
        )
        from scipy.sparse import csc_array

        self._status = HighsModelStatus
        self.c0 = c0
        n, m = len(c), len(relations)
        self._cols = np.arange(n, dtype=np.int32)
        self._cost = np.asarray(c, dtype=float)
        self.row_lower, self.row_upper = row_bounds(relations, rhs)
        self.A = csc = csc_array(A)  # the compiled sparse A, or a dense one
        lp = HighsLp()
        lp.num_col_, lp.num_row_ = n, m
        lp.col_cost_ = self._cost
        lp.col_lower_, lp.col_upper_ = np.zeros(n), np.zeros(n)  # set per node
        lp.row_lower_, lp.row_upper_ = self.row_lower, self.row_upper
        mat = lp.a_matrix_
        mat.format_ = MatrixFormat.kColwise
        mat.num_col_, mat.num_row_ = n, m
        mat.start_, mat.index_, mat.value_ = csc.indptr, csc.indices, csc.data
        self._highs = _Highs()
        self._highs.setOptionValue("output_flag", False)
        self._highs.setOptionValue("presolve", "off")
        if self._highs.passModel(lp) == HighsStatus.kError:
            raise RuntimeError("LP core failed: HiGHS rejected the model")

    def _run(self) -> int:
        self._highs.run()
        return self._highs.getInfo().simplex_iteration_count

    def _resolve_unbounded_or_infeasible(self) -> tuple[str, int]:
        """Decide feasibility by re-running with a zero objective."""
        h, n = self._highs, len(self._cols)
        h.changeColsCost(n, self._cols, np.zeros(n))
        h.clearSolver()
        iterations = self._run()
        model_status = h.getModelStatus()
        h.changeColsCost(n, self._cols, self._cost)
        # the first run found the dual infeasible, so a feasible primal is unbounded
        if model_status == self._status.kOptimal:
            return UNBOUNDED, iterations
        if model_status == self._status.kInfeasible:
            return INFEASIBLE, iterations
        raise RuntimeError(f"LP core failed: {h.modelStatusToString(model_status)}")

    def solve(self, lb, ub, start=None) -> LpSolution:
        h, status = self._highs, self._status
        lb, ub = np.asarray(lb, dtype=float), np.asarray(ub, dtype=float)
        h.changeColsBounds(self._cols.size, self._cols, lb, ub)
        if start is None:
            h.clearSolver()
        else:
            h.setBasis(start)
        iterations = self._run()
        model_status = h.getModelStatus()
        if model_status == status.kOptimal:
            return LpSolution(
                status=OPTIMAL,
                objective=h.getInfo().objective_function_value + self.c0,
                x=np.array(h.getSolution().col_value),
                iterations=iterations,
                basis=h.getBasis(),
            )
        if model_status == status.kInfeasible:
            return LpSolution(status=INFEASIBLE, iterations=iterations)
        if model_status == status.kUnbounded:
            return LpSolution(status=UNBOUNDED, iterations=iterations)
        if model_status == status.kUnboundedOrInfeasible:
            verdict, more = self._resolve_unbounded_or_infeasible()
            return LpSolution(status=verdict, iterations=iterations + more)
        raise RuntimeError(f"LP core failed: {h.modelStatusToString(model_status)}")


class _Search:
    def __init__(self, model: MilpModel, opts: MilpOptions):
        self.opts = opts
        (c, c0, A, relations, rhs, self.lb0, self.ub0, is_binary) = model.to_sparse()
        self.bin_idx = np.flatnonzero(is_binary)
        self.core = _ScipyCore(c, c0, A, relations, rhs)
        # row bounds widened by the feasibility slack the rounding test allows
        slack = _ROW_TOL * np.maximum(1.0, np.abs(rhs))
        self.row_floor = self.core.row_lower - slack
        self.row_ceil = self.core.row_upper + slack
        self.t0 = time.perf_counter()
        self.nodes = 0
        self.inc_x: np.ndarray | None = None
        self.inc_obj = np.inf
        self.best_bound = -np.inf
        self.trace: list[tuple[int, float, float]] = []
        self.limit_hit = False

    # -- helpers -------------------------------------------------------------

    def elapsed(self) -> float:
        return time.perf_counter() - self.t0

    def out_of_budget(self) -> bool:
        if self.nodes >= self.opts.node_limit:
            self.limit_hit = True
        elif self.opts.time_limit is not None and self.elapsed() > self.opts.time_limit:
            self.limit_hit = True
        return self.limit_hit

    def solve_node(self, fixes: dict[int, int], start=None) -> LpSolution:
        lb, ub = self.lb0, self.ub0
        if fixes:
            lb, ub = lb.copy(), ub.copy()
            for j, v in fixes.items():
                lb[j] = ub[j] = float(v)
        self.nodes += 1
        return self.core.solve(lb, ub, start)

    def fractional(self, x: np.ndarray) -> np.ndarray:
        tol = self.opts.int_tol
        xb = x[self.bin_idx]
        return self.bin_idx[(xb > tol) & (xb < 1.0 - tol)]

    def record(self):
        self.trace.append((self.nodes, self.best_bound, self.inc_obj))

    def try_incumbent(self, x: np.ndarray, start=None) -> bool:
        """Polish an integral relaxation into an exact-binary incumbent."""
        fixes = {int(j): int(round(x[j])) for j in self.bin_idx}
        res = self.solve_node(fixes, start)
        if res.status != OPTIMAL:
            return False
        if res.objective < self.inc_obj - 1e-12:
            xx = res.x.copy()
            for j, v in fixes.items():
                xx[j] = float(v)
            self.inc_x, self.inc_obj = xx, res.objective
            self.record()
        return True

    def round_with_locks(self, x: np.ndarray, frac: np.ndarray) -> np.ndarray | None:
        """Round the fractional binaries of x so that every row still holds.

        In index order, each binary takes its nearer 0/1 value if every row
        of its column stays within its bounds at the current row activities,
        and otherwise the other value; the activities follow each rounding.
        Returns None when neither value fits.  Continuous columns keep their
        LP values, so a returned point satisfies every row to the slack.
        """
        A = self.core.A
        act = A @ x
        xr = x.copy()
        for j in frac:
            col = slice(A.indptr[j], A.indptr[j + 1])
            rows, coef = A.indices[col], A.data[col]
            near = 1.0 if x[j] > 0.5 else 0.0
            for v in (near, 1.0 - near):
                moved = act[rows] + coef * (v - x[j])
                if np.all(moved >= self.row_floor[rows]) and np.all(moved <= self.row_ceil[rows]):
                    act[rows], xr[j] = moved, v
                    break
            else:
                return None
        return xr

    def gap_closed(self, bound: float) -> bool:
        return self.inc_obj - bound <= self.opts.gap_tol * max(1.0, abs(self.inc_obj)) + 1e-12

    # -- phases ----------------------------------------------------------------

    def run(self) -> MilpSolution:
        seq = 0
        # the root: no fixings and no basis, so it starts cold
        heap: list[tuple[float, int, dict[int, int], object]] = [(-np.inf, seq, {}, None)]
        while heap:
            bound = heap[0][0]
            self.best_bound = max(self.best_bound, min(bound, self.inc_obj))
            if self.inc_x is not None and self.gap_closed(bound):
                return self.finish(MILP_OPTIMAL)
            # the root is always solved, so a limited run still has its bound
            if self.nodes and self.out_of_budget():
                return self.finish(None)
            _, _, fixes, basis = heapq.heappop(heap)
            res = self.solve_node(fixes, basis)
            if not fixes:  # the root decides infeasible and unbounded models
                if res.status == INFEASIBLE:
                    return self.finish(MILP_INFEASIBLE)
                if res.status == UNBOUNDED:
                    return self.finish(MILP_UNBOUNDED)
                self.best_bound = res.objective
                self.record()
                if self.bin_idx.size == 0:
                    self.inc_x, self.inc_obj = res.x.copy(), res.objective
                    return self.finish(MILP_OPTIMAL)
            elif res.status != OPTIMAL:
                continue
            if res.objective >= self.inc_obj - 1e-12:
                continue
            frac = self.fractional(res.x)
            if frac.size == 0:
                if self.try_incumbent(res.x, res.basis):
                    continue
                # polish infeasible: the rounded point is not actually
                # attainable, so branch on the binary farthest from integral
                frac = self.bin_idx[
                    np.argsort(np.abs(res.x[self.bin_idx] - 0.5))[:1]
                ]
            else:
                # the node still branches: if the polished rounding closes the
                # gap, the loop top stops at this node's bound, its children's
                rounded = self.round_with_locks(res.x, frac)
                if rounded is not None:
                    self.try_incumbent(rounded, res.basis)
            scores = np.abs(res.x[frac] - 0.5)
            j = int(frac[np.argmin(scores)])
            for val in (0, 1):
                seq += 1
                child = dict(fixes)
                child[j] = val
                heapq.heappush(heap, (res.objective, seq, child, res.basis))
        self.best_bound = max(self.best_bound, self.inc_obj) if self.inc_x is not None else self.best_bound
        return self.finish(MILP_OPTIMAL if self.inc_x is not None else MILP_INFEASIBLE)

    def finish(self, status: str | None) -> MilpSolution:
        if status is None:  # stopped by a limit
            status = MILP_FEASIBLE if self.inc_x is not None else MILP_LIMIT
        obj = None if self.inc_x is None else self.inc_obj
        if status == MILP_OPTIMAL:
            bound = min(self.best_bound, self.inc_obj)
            gap = (self.inc_obj - bound) / max(1.0, abs(self.inc_obj))
        elif self.inc_x is not None:
            bound = self.best_bound
            gap = (self.inc_obj - bound) / max(1.0, abs(self.inc_obj))
        else:
            bound = self.best_bound
            gap = np.inf
        if gap < _ROUND_OFF_GAP:  # a negative gap is the bound passing the incumbent by round-off
            gap = 0.0
        self.record()
        return MilpSolution(
            status=status,
            objective=obj,
            x=self.inc_x,
            bound=bound,
            gap=gap,
            nodes=self.nodes,
            wall_time=self.elapsed(),
            trace=self.trace,
        )


def solve_milp(model: MilpModel, options: MilpOptions | None = None) -> MilpSolution:
    """Solve a MILP whose integer variables are all binary."""
    return _Search(model, options or MilpOptions()).run()
