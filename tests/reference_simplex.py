"""Reference LP solver for the tests: a bounded-variable primal simplex.

It shares no code with the HiGHS core it checks; the package never runs it.

Rows ``A x {<=,=,>=} b`` are converted to equalities by appending one slack
per row (bounded [0,inf), [0,0] or (-inf,0]).  Phase 1 minimizes the total
bound violation of the basic variables starting from the all-slack basis, so
no artificial variables are needed; Phase 2 is the usual bounded simplex.
Pricing is Dantzig with an automatic switch to Bland's rule after a run of
degenerate pivots, which guarantees termination.  The basis inverse is
updated by eta transformations and refactorized periodically.

Determinism: all tie-breaks are by lowest column index, so identical inputs
produce identical pivot sequences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from milp_oracles import relations_and_rhs

from iesdispatch.milp_ir import EQ, GE, LE, MilpModel
from iesdispatch.solver.branch_bound import INFEASIBLE, OPTIMAL, UNBOUNDED, NumericalFailure

_AT_LOWER = 0
_AT_UPPER = 1
_BASIC = 2
_FREE = 3

_REFACTOR_EVERY = 64
_BLAND_AFTER = 100  # consecutive degenerate pivots before anti-cycling mode
_PIV_TOL = 1e-10


@dataclass
class LpSolution:
    """LP outcome with the certificates the tests check: the row duals and
    reduced costs of an optimum, and the Farkas ray of an infeasible LP with
    its phase-1 infeasibility."""

    status: str
    objective: float | None = None
    x: np.ndarray | None = None
    duals: np.ndarray | None = None
    reduced_costs: np.ndarray | None = None
    iterations: int = 0
    infeasibility: float = 0.0
    farkas: np.ndarray | None = None


class _Simplex:
    def __init__(self, c, c0, A, relations, rhs, lb, ub):
        self.m, self.n = A.shape
        m, n = self.m, self.n
        self.N = n + m
        self.c0 = float(c0)
        self.c = np.zeros(self.N)
        self.c[:n] = c
        self.A = np.hstack([A, np.eye(m)])
        self.b = np.asarray(rhs, dtype=float)
        self.lb = np.empty(self.N)
        self.ub = np.empty(self.N)
        self.lb[:n], self.ub[:n] = lb, ub
        for i, rel in enumerate(relations):
            if rel == LE:
                self.lb[n + i], self.ub[n + i] = 0.0, np.inf
            elif rel == GE:
                self.lb[n + i], self.ub[n + i] = -np.inf, 0.0
            elif rel == EQ:
                self.lb[n + i], self.ub[n + i] = 0.0, 0.0
            else:
                raise ValueError(f"unknown relation {rel!r}")
        scale = 1.0 + max(
            np.abs(self.b).max(initial=0.0),
            np.abs(self.lb[np.isfinite(self.lb)]).max(initial=0.0),
            np.abs(self.ub[np.isfinite(self.ub)]).max(initial=0.0),
        )
        self.ftol = 1e-9 * scale
        self.inf_tol = 1e-7 * (1.0 + np.abs(self.b).max(initial=0.0))
        self.dtol = 1e-9 * (1.0 + np.abs(self.c).max(initial=0.0))
        # bound-violation tolerance per variable: a binary off by 1e-4 must
        # count as infeasible even when the rhs scale is 1e5
        absb = np.maximum(
            np.where(np.isfinite(self.lb), np.abs(self.lb), 0.0),
            np.where(np.isfinite(self.ub), np.abs(self.ub), 0.0),
        )
        self.btol = 1e-9 * (1.0 + absb)
        self.snapped = False
        self.max_iter = 200 * (m + self.N) + 5000

        self.stat = np.empty(self.N, dtype=np.int8)
        for j in range(self.N):
            if np.isfinite(self.lb[j]):
                self.stat[j] = _AT_LOWER
            elif np.isfinite(self.ub[j]):
                self.stat[j] = _AT_UPPER
            else:
                self.stat[j] = _FREE
        self.basis = np.arange(n, n + m)
        self.stat[n:] = _BASIC
        self._refactor()
        self.iterations = 0
        self.degenerate_run = 0
        self.updates_since_refactor = 0

    # -- basis maintenance ---------------------------------------------------

    def _nonbasic_values(self) -> np.ndarray:
        v = np.zeros(self.N)
        at_lo = self.stat == _AT_LOWER
        at_up = self.stat == _AT_UPPER
        v[at_lo] = self.lb[at_lo]
        v[at_up] = self.ub[at_up]
        return v

    def _refactor(self):
        B = self.A[:, self.basis]
        self.Binv = np.linalg.inv(B)
        v = self._nonbasic_values()
        v[self.basis] = 0.0
        self.xB = self.Binv @ (self.b - self.A @ v)
        self.updates_since_refactor = 0

    def _eta_update(self, p: int, alpha: np.ndarray):
        piv = alpha[p]
        row = self.Binv[p, :] / piv
        self.Binv -= np.outer(alpha, row)
        self.Binv[p, :] = row
        self.updates_since_refactor += 1
        if self.updates_since_refactor >= _REFACTOR_EVERY:
            self._refactor()

    # -- pricing ---------------------------------------------------------------

    def _phase1_gradient(self):
        lbB, ubB = self.lb[self.basis], self.ub[self.basis]
        tolB = self.btol[self.basis]
        d = np.zeros(self.m)
        d[lbB - self.xB > tolB] = -1.0
        d[self.xB - ubB > tolB] = 1.0
        return d

    def _infeasibility(self) -> float:
        lbB, ubB = self.lb[self.basis], self.ub[self.basis]
        return float(
            np.maximum(lbB - self.xB, 0.0).sum() + np.maximum(self.xB - ubB, 0.0).sum()
        )

    def _needs_phase1(self) -> bool:
        if self.snapped:
            # a near-feasible basis was accepted; only re-enter phase 1 for
            # violations large enough to matter at the certification scale
            return self._infeasibility() > self.inf_tol
        return bool(np.any(self._phase1_gradient() != 0.0))

    def _reduced_costs(self, phase1: bool):
        if phase1:
            w = self._phase1_gradient()
            y = self.Binv.T @ w
            r = -(self.A.T @ y)
            tol = 1e-9 * (1.0 + np.abs(y).max(initial=0.0))
        else:
            y = self.Binv.T @ self.c[self.basis]
            r = self.c - self.A.T @ y
            tol = self.dtol + 1e-9 * np.abs(y).max(initial=0.0)
        return r, y, tol

    def _entering(self, r, tol, bland: bool):
        movable = self.ub > self.lb
        lo = (self.stat == _AT_LOWER) & movable & (r < -tol)
        up = (self.stat == _AT_UPPER) & movable & (r > tol)
        fr = (self.stat == _FREE) & (np.abs(r) > tol)
        cand = np.flatnonzero(lo | up | fr)
        if cand.size == 0:
            return None, 0
        if bland:
            q = int(cand[0])
        else:
            q = int(cand[np.argmax(np.abs(r[cand]))])
        if self.stat[q] == _AT_LOWER:
            direction = 1
        elif self.stat[q] == _AT_UPPER:
            direction = -1
        else:
            direction = 1 if r[q] < 0 else -1
        return q, direction

    # -- ratio test ------------------------------------------------------------

    def _ratio_test(self, q, direction, alpha, phase1, bland):
        lbB, ubB = self.lb[self.basis], self.ub[self.basis]
        tolB = self.btol[self.basis]
        rate = -direction * alpha
        best_t = np.inf
        best_p = -1
        best_bound = _AT_LOWER
        for i in range(self.m):
            ri = rate[i]
            if ri > _PIV_TOL:
                if phase1 and lbB[i] - self.xB[i] > tolB[i]:
                    target, leave_at = lbB[i], _AT_LOWER
                elif np.isfinite(ubB[i]):
                    target, leave_at = ubB[i], _AT_UPPER
                else:
                    continue
            elif ri < -_PIV_TOL:
                if phase1 and self.xB[i] - ubB[i] > tolB[i]:
                    target, leave_at = ubB[i], _AT_UPPER
                elif np.isfinite(lbB[i]):
                    target, leave_at = lbB[i], _AT_LOWER
                else:
                    continue
            else:
                continue
            t = max((target - self.xB[i]) / ri, 0.0)
            better = t < best_t - 1e-12
            tie = abs(t - best_t) <= 1e-12
            if tie:
                if bland:
                    better = self.basis[i] < self.basis[best_p]
                else:
                    better = abs(rate[i]) > abs(rate[best_p])
            if better:
                best_t, best_p, best_bound = t, i, leave_at
        t_own = self.ub[q] - self.lb[q]  # bound flip distance
        if np.isfinite(t_own) and self.stat[q] != _FREE and t_own <= best_t:
            return t_own, -1, _AT_UPPER if self.stat[q] == _AT_LOWER else _AT_LOWER
        return best_t, best_p, best_bound

    # -- main loop ---------------------------------------------------------------

    def solve(self) -> LpSolution:
        final_checks = 0
        while True:
            if self.iterations > self.max_iter:
                raise NumericalFailure(f"iteration limit {self.max_iter} exceeded")
            phase1 = self._needs_phase1()
            bland = self.degenerate_run >= _BLAND_AFTER
            r, y, tol = self._reduced_costs(phase1)
            q, direction = self._entering(r, tol, bland)
            if q is None:
                # re-verify the verdict on a freshly factorized basis
                if self.updates_since_refactor > 0 and final_checks < 5:
                    self._refactor()
                    final_checks += 1
                    continue
                if phase1:
                    inf = self._infeasibility()
                    if inf > self.inf_tol:
                        return LpSolution(
                            status=INFEASIBLE,
                            iterations=self.iterations,
                            infeasibility=inf,
                            farkas=-y,
                        )
                    # feasible within certification tolerance: snap and go on
                    self.xB = np.clip(self.xB, self.lb[self.basis], self.ub[self.basis])
                    self.snapped = True
                    continue
                return self._extract(y, r)
            self.iterations += 1
            alpha = self.Binv @ self.A[:, q]
            t, p, leave_at = self._ratio_test(q, direction, alpha, phase1, bland)
            if not np.isfinite(t):
                if phase1:
                    if self.updates_since_refactor > 0 and final_checks < 5:
                        self._refactor()
                        final_checks += 1
                        continue
                    raise NumericalFailure("phase-1 descent unbounded (numerical)")
                return LpSolution(status=UNBOUNDED, iterations=self.iterations)
            self.degenerate_run = self.degenerate_run + 1 if t <= self.ftol else 0
            if t > 0.0:
                self.xB -= direction * t * alpha
            if p < 0:
                self.stat[q] = leave_at  # bound flip, basis unchanged
                continue
            if self.stat[q] == _AT_LOWER:
                enter_val = self.lb[q] + direction * t
            elif self.stat[q] == _AT_UPPER:
                enter_val = self.ub[q] + direction * t
            else:
                enter_val = direction * t
            leaving = self.basis[p]
            self.stat[leaving] = leave_at
            self.stat[q] = _BASIC
            self.basis[p] = q
            self.xB[p] = enter_val
            self._eta_update(p, alpha)

    def _extract(self, y, r) -> LpSolution:
        x_full = self._nonbasic_values()
        x_full[self.basis] = self.xB
        # basic values may sit a hair outside their bounds; report in-bounds
        x_full = np.clip(x_full, self.lb, self.ub)
        x = x_full[: self.n]
        obj = float(self.c[: self.n] @ x) + self.c0
        return LpSolution(
            status=OPTIMAL,
            objective=obj,
            x=x.copy(),
            duals=y.copy(),
            reduced_costs=r[: self.n].copy(),
            iterations=self.iterations,
        )


def solve_lp(model: MilpModel) -> LpSolution:
    """Solve the LP relaxation of a model (binaries relaxed to their bounds)."""
    c, c0, A, row_lower, row_upper, lb, ub, _ = model.to_dense()
    relations, rhs = relations_and_rhs(row_lower, row_upper)
    if A.shape[0] == 0:
        # pure box problem: each variable sits at its cost-minimizing bound
        x = np.empty_like(c)
        for j in range(c.size):
            if c[j] > 0:
                x[j] = lb[j]
            elif c[j] < 0:
                x[j] = ub[j]
            else:
                x[j] = lb[j] if np.isfinite(lb[j]) else min(ub[j], 0.0)
            if not np.isfinite(x[j]):
                if c[j] != 0.0:
                    return LpSolution(status=UNBOUNDED)
                x[j] = max(lb[j], min(0.0, ub[j]))
        return LpSolution(
            status=OPTIMAL,
            objective=float(c @ x) + float(c0),
            x=x,
            duals=np.zeros(0),
            reduced_costs=c.copy(),
        )
    return _Simplex(c, c0, A, relations, rhs, lb, ub).solve()
