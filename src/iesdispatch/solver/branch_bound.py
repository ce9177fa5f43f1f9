"""Best-first branch-and-bound over binary variables.

The LP relaxation at each node is solved by a pluggable core: the package's
own simplex (``lp_core="embedded"``, warm-started from the parent basis) or
scipy's HiGHS wrapper (``lp_core="scipy"``, faster on large models).  The
search starts from the root relaxation and always expands the open node with
the lowest bound.  The dispatch models branch only on storage gates: their
convex cost terms (demand-response deviation and the tiered carbon ladder)
are exact LPs, so the relaxations are tight and best-first order finds the
incumbent without a separate depth-first phase.  Branching picks the binary
closest to 0.5 with lowest-index tie-breaks, so runs are deterministic.

A node whose relaxation is integral is "polished" by re-solving with all
binaries fixed to their rounded values, which makes incumbent binaries
exactly 0/1 instead of within tolerance.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field

import numpy as np

from ..milp_ir import EQ, GE, LE, MilpModel
from .simplex import INFEASIBLE, OPTIMAL, UNBOUNDED, LpSolution, solve_lp_arrays

MILP_OPTIMAL = "optimal"
MILP_FEASIBLE = "feasible"
MILP_INFEASIBLE = "infeasible"
MILP_UNBOUNDED = "unbounded"
MILP_LIMIT = "limit"


@dataclass
class MilpOptions:
    gap_tol: float = 1e-6
    int_tol: float = 1e-6
    node_limit: int = 200_000
    time_limit: float | None = None
    lp_core: str = "embedded"  # "embedded" | "scipy"


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


class _EmbeddedCore:
    def __init__(self, c, c0, A, relations, rhs):
        self.c, self.c0, self.A = c, c0, A
        self.relations, self.rhs = relations, rhs

    def solve(self, lb, ub, start=None) -> LpSolution:
        return solve_lp_arrays(
            self.c, self.c0, self.A, self.relations, self.rhs, lb, ub, start=start
        )


class _ScipyCore:
    def __init__(self, c, c0, A, relations, rhs):
        from scipy.optimize import linprog  # deferred so embedded path has no dep

        self._linprog = linprog
        self.c, self.c0 = c, c0
        le = [i for i, r in enumerate(relations) if r == LE]
        ge = [i for i, r in enumerate(relations) if r == GE]
        eq = [i for i, r in enumerate(relations) if r == EQ]
        rhs = np.asarray(rhs, dtype=float)
        ub_rows = [A[i] for i in le] + [-A[i] for i in ge]
        self.A_ub = np.array(ub_rows) if ub_rows else None
        self.b_ub = (
            np.concatenate([rhs[le], -rhs[ge]]) if ub_rows else None
        )
        self.A_eq = A[eq] if eq else None
        self.b_eq = rhs[eq] if eq else None

    def solve(self, lb, ub, start=None) -> LpSolution:
        res = self._linprog(
            self.c,
            A_ub=self.A_ub,
            b_ub=self.b_ub,
            A_eq=self.A_eq,
            b_eq=self.b_eq,
            bounds=list(zip(lb, ub)),
            method="highs",
        )
        if res.status == 0:
            return LpSolution(
                status=OPTIMAL, objective=float(res.fun) + self.c0, x=np.asarray(res.x)
            )
        if res.status == 2:
            return LpSolution(status=INFEASIBLE)
        if res.status == 3:
            return LpSolution(status=UNBOUNDED)
        raise RuntimeError(f"LP core failed: {res.message}")


def _make_core(name, c, c0, A, relations, rhs):
    if name == "embedded":
        return _EmbeddedCore(c, c0, A, relations, rhs)
    if name == "scipy":
        return _ScipyCore(c, c0, A, relations, rhs)
    raise ValueError(f"unknown lp_core {name!r} (choose 'embedded' or 'scipy')")


class _Search:
    def __init__(self, model: MilpModel, opts: MilpOptions):
        self.opts = opts
        (c, c0, A, relations, rhs, self.lb0, self.ub0, is_binary) = model.to_dense()
        self.bin_idx = np.flatnonzero(is_binary)
        self.core = _make_core(opts.lp_core, c, c0, A, relations, rhs)
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

    def gap_closed(self, bound: float) -> bool:
        return self.inc_obj - bound <= self.opts.gap_tol * max(1.0, abs(self.inc_obj)) + 1e-12

    # -- phases ----------------------------------------------------------------

    def run(self) -> MilpSolution:
        root = self.solve_node({})
        if root.status == INFEASIBLE:
            return self.finish(MILP_INFEASIBLE)
        if root.status == UNBOUNDED:
            return self.finish(MILP_UNBOUNDED)
        self.best_bound = root.objective
        self.record()
        if self.bin_idx.size == 0:
            self.inc_x, self.inc_obj = root.x.copy(), root.objective
            self.best_bound = root.objective
            return self.finish(MILP_OPTIMAL)
        seq = 0
        heap: list[tuple[float, int, dict[int, int], object]] = []
        heapq.heappush(heap, (root.objective, seq, {}, root.basis))
        while heap:
            bound = heap[0][0]
            self.best_bound = max(self.best_bound, min(bound, self.inc_obj))
            if self.inc_x is not None and self.gap_closed(bound):
                return self.finish(MILP_OPTIMAL)
            if self.out_of_budget():
                return self.finish(None)
            _, _, fixes, basis = heapq.heappop(heap)
            res = self.solve_node(fixes, basis)
            if res.status != OPTIMAL:
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
        self.record()
        return MilpSolution(
            status=status,
            objective=obj,
            x=self.inc_x,
            bound=bound,
            gap=max(gap, 0.0),
            nodes=self.nodes,
            wall_time=self.elapsed(),
            trace=self.trace,
        )


def solve_milp(model: MilpModel, options: MilpOptions | None = None) -> MilpSolution:
    """Solve a MILP whose integer variables are all binary."""
    return _Search(model, options or MilpOptions()).run()
