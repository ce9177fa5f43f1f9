"""Exhaustive MILP oracles used by the acceptance gate and the solver tests.

Both enumerate every binary assignment.  ``vertex_milp`` solves all the leaf
LPs at once in numpy by enumerating their vertices, with no LP solver, so
agreement with the product is a genuine cross-check rather than a
self-comparison.  ``brute_force_milp`` solves each leaf LP with scipy HiGHS;
it is slower and serves as a cross-check of the vertex oracle.
``every_gate_model`` builds the paper's fully gated dispatch model, the
reference that gates on demand are compared against,
``fixed_ratio_rows_model`` the dispatch model with the fixed-ratio CHP
rows that ``build_model`` turns into the GT's bounds,
``terminal_rows_model`` the one with the storage terminal rows that it
turns into bounds on each store's last state of charge,
``compiled_differences`` compares two models' compiled arrays bit for bit,
``scipy_csc`` wraps a compiled ``A`` as a scipy sparse array for the
tests that compute with it, ``relations_and_rhs`` gives the compiled row
bounds as the relations and right-hand sides that the relation-form
oracles take, and ``variables`` and ``objective`` give a model's columns
and objective as records for the tests that read them.
"""

import itertools
import random
from typing import NamedTuple

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import csc_array

from iesdispatch.dispatch import add_gates, build_model
from iesdispatch.milp_ir import BINARY, CONTINUOUS, EQ, GE, LE, LinearForm, MilpModel, linear_form


class Variable(NamedTuple):
    """One column of a MilpModel; ids are dense 0..n-1 in creation order."""

    id: int
    kind: str
    lower: float
    upper: float
    name: str


def variables(model: MilpModel) -> list[Variable]:
    """The model's columns as records, from its compiled bounds and binary flags and its names."""
    _, _, _, _, _, lb, ub, is_binary = model.to_sparse()
    kinds = [BINARY if b else CONTINUOUS for b in is_binary.tolist()]
    return [Variable(j, *column) for j, column in enumerate(zip(kinds, lb.tolist(), ub.tolist(), model.column_names))]


def objective(model: MilpModel) -> LinearForm:
    """The model's objective as a form: its nonzero costs in column order and its constant."""
    c, c0 = model.to_sparse()[:2]
    return linear_form(np.arange(c.size), c, c0)


def every_gate_model(case, scenario, options=None):
    """(model, VarMap) of the paper's model: the gate-free build plus a gate on every store-period."""
    model, vm = build_model(case, scenario, options)
    add_gates(case, model, vm, [(sto.carrier, t) for sto in case.storages for t in range(case.horizon.periods)])
    return model, vm


def fixed_ratio_rows_model(case, scenario, options=None):
    """(model, VarMap) of the fixed-ratio CHP formulation with one-column rows instead of bounds.

    The GT's gas column gets its capacity back as its upper bound, and the
    rows ``build_model`` once emitted are appended, interleaved by period:
    ``chp_whb_cap_`` (``eps_h * g <= whb_cap``) where the WHB can bind and
    ``chp_ratio_lo_``/``chp_ratio_hi_`` (``a * g <= 0``) for each nonzero
    corridor coefficient, formed as the rows formed them.  An
    extraction-mode model is returned as built.
    """
    model, vm = build_model(case, scenario, options)
    gt, whb = case.converter("GT"), case.converter("WHB")
    if case.chp.extraction_mode or not gt:
        return model, vm
    g, eps_e, eps_h = vm.flows["p_g_gt"][0], vm.flows["p_gt_e"][1], vm.flows["p_gt_h"][1]
    rows = [("chp_whb_cap_", eps_h, whb.capacity_kw)] if whb and eps_h * gt.capacity_kw > whb.capacity_kw else []
    corridor = (("lo", eps_e * case.chp.ratio_min + eps_h * -1.0), ("hi", eps_h + eps_e * -case.chp.ratio_max))
    rows += [(f"chp_ratio_{name}_", a, 0.0) for name, a in corridor if a != 0.0]
    _set_bounds(model, g, model._upper, gt.capacity_kw)
    if rows:
        names = [prefix + f"t{t:02d}" for t in range(len(g)) for prefix, _, _ in rows]
        model.add_rows(np.repeat(g, len(rows))[:, None], np.tile([a for _, a, _ in rows], len(g))[:, None], LE,
                       np.tile([b for _, _, b in rows], len(g)), names)
    return model, vm


def terminal_rows_model(case, scenario, options=None):
    """(model, VarMap) of the storage formulation with terminal rows instead of bounds.

    Each store's last ``st_{k}_soc_`` column gets ``[soc_min, soc_max]``
    back as its bounds, and the rows ``build_model`` once emitted,
    ``storage_{k}_terminal`` (``soc[T-1] = initial``), are appended in
    store order.
    """
    model, vm = build_model(case, scenario, options)
    stores = [case.storage(k) for k in vm.storage]
    last = [blk.soc[-1] for blk in vm.storage.values()]
    if last:
        _set_bounds(model, last, model._lower, [sto.soc_min_frac * sto.capacity_kwh for sto in stores])
        _set_bounds(model, last, model._upper, [sto.soc_max_frac * sto.capacity_kwh for sto in stores])
        model.add_rows(np.array(last)[:, None], 1.0, EQ, [sto.soc_initial_frac * sto.capacity_kwh for sto in stores],
                       [f"storage_{sto.carrier}_terminal" for sto in stores])
    return model, vm


def _set_bounds(model: MilpModel, ids, chunks: list, values) -> None:
    """Set one side of some columns' bounds in place; ``chunks`` is ``model._lower`` or ``model._upper``.

    MilpModel has no bound setter: join the side's chunks and drop the compiled column arrays.
    """
    side = np.concatenate(chunks)
    side[ids] = values
    chunks[:], model._col_arrays = [side], None


def relations_and_rhs(row_lower, row_upper) -> tuple[list[str], np.ndarray]:
    """The rows ``row_lower <= a x <= row_upper`` of a compile as ``a x <relation> rhs``.

    A row whose lower bound is -inf is a ``<=`` row, one whose upper bound
    is +inf a ``>=`` row and any other an ``=`` row; its right-hand side is
    its finite bound, bit for bit.
    """
    below = row_lower == -np.inf
    relations = np.where(below, LE, np.where(row_upper == np.inf, GE, EQ)).tolist()
    return relations, np.where(below, row_upper, row_lower)


def scipy_csc(A) -> csc_array:
    """The compiled matrix ``A`` of ``MilpModel.to_sparse`` as a scipy CSC array on the same arrays."""
    return csc_array((A.data, A.indices, A.indptr), shape=A.shape)


COMPILED_FIELDS = ("c", "c0", "A", "row_lower", "row_upper", "lb", "ub", "is_binary")


def _bits(value) -> list:
    arrays = (value.shape, value.indptr, value.indices, value.data) if hasattr(value, "indptr") else (value,)
    return [(a.dtype.str, a.shape, a.tobytes()) for a in map(np.asarray, arrays)]


def compiled_differences(a: MilpModel, b: MilpModel) -> list[str]:
    """The fields of ``to_sparse()`` in which two models differ, dtype, shape and bits compared."""
    return [name for name, x, y in zip(COMPILED_FIELDS, a.to_sparse(), b.to_sparse())
            if _bits(x) != _bits(y)]


def random_milp(rng: random.Random, n_binaries: int) -> MilpModel:
    """Small mixed model with bounded continuous tail and random rows."""
    m = MilpModel()
    nc = rng.randint(1, 4)
    m.add_variables(BINARY, 0.0, 1.0, [f"b{i}" for i in range(n_binaries)])
    upper = [rng.choice([1.0, 10.0]) for _ in range(nc)]
    m.add_variables(CONTINUOUS, 0.0, upper, [f"x{i}" for i in range(nc)])
    xs = list(range(n_binaries + nc))
    for j in range(rng.randint(1, 6)):
        ids = rng.sample(xs, rng.randint(1, len(xs)))
        coeffs = [rng.choice([-2.0, -1.0, 1.0, 3.0]) for _ in ids]
        m.add_rows([ids], [coeffs], rng.choice([LE, GE]), rng.uniform(-2, 5), [f"r{j}"])
    m.set_objective(linear_form(xs, [rng.uniform(-3, 3) for _ in xs]))
    return m


def check_solution(model: MilpModel, x, tol: float = 1e-6) -> list[str]:
    """Names of the model's constraints and bounds that x violates beyond tol."""
    bad = []
    for v in variables(model):
        if x[v.id] < v.lower - tol or x[v.id] > v.upper + tol:
            bad.append(f"bound:{v.name}")
    for con in model.constraints:
        lhs = sum(c * x[vid] for vid, c in con.coeffs.items())
        if con.relation == LE and lhs > con.rhs + tol:
            bad.append(con.name)
        elif con.relation == GE and lhs < con.rhs - tol:
            bad.append(con.name)
        elif con.relation == EQ and abs(lhs - con.rhs) > tol:
            bad.append(con.name)
    return bad


def brute_force_milp(model: MilpModel):
    """(status, objective) via exhaustive binary enumeration + LP per leaf."""
    bids = model.binary_ids()
    c, c0, A, row_lower, row_upper, lb, ub, _ = model.to_dense()
    relations, rhs = relations_and_rhs(row_lower, row_upper)
    A_ub, b_ub, A_eq, b_eq = [], [], [], []
    for row, rel, b in zip(A, relations, rhs):
        if rel == LE:
            A_ub.append(row)
            b_ub.append(b)
        elif rel == GE:
            A_ub.append(-row)
            b_ub.append(-b)
        else:
            A_eq.append(row)
            b_eq.append(b)
    A_ub = np.array(A_ub) if A_ub else None
    b_ub = np.array(b_ub) if b_ub else None
    A_eq = np.array(A_eq) if A_eq else None
    b_eq = np.array(b_eq) if b_eq else None

    best = None
    feasible = False
    for bits in itertools.product((0.0, 1.0), repeat=len(bids)):
        lo, hi = lb.copy(), ub.copy()
        for j, bit in zip(bids, bits):
            lo[j] = hi[j] = bit
        res = linprog(
            c,
            A_ub=A_ub,
            b_ub=b_ub,
            A_eq=A_eq,
            b_eq=b_eq,
            bounds=list(zip(lo, hi)),
            method="highs",
        )
        if res.status == 0:
            feasible = True
            if best is None or res.fun < best:
                best = res.fun
        elif res.status == 3:
            return "unbounded", None
    if not feasible:
        return "infeasible", None
    return "optimal", best + c0


def vertex_milp(model: MilpModel, tol: float = 1e-9):
    """(status, objective) via binary enumeration + vertex enumeration per leaf.

    Every continuous column must have finite bounds, so each leaf LP (the
    binaries fixed) is bounded and, when feasible, attains its optimum at a
    vertex: the solution of n linearly independent active rows or column
    bounds, n the number of continuous columns.  The n x n system of an
    active set does not depend on the binary assignment, only its right-hand
    side does, so one solve per active set serves all 2^nb assignments.
    """
    c, c0, A, row_lower, row_upper, lb, ub, is_binary = model.to_dense()
    rhs = relations_and_rhs(row_lower, row_upper)[1]
    bins, cont = np.flatnonzero(is_binary), np.flatnonzero(~is_binary)
    lb_c, ub_c = lb[cont][:, None], ub[cont][:, None]
    if not (np.isfinite(lb_c).all() and np.isfinite(ub_c).all()):
        raise ValueError("vertex_milp needs finite bounds on every continuous column")
    lo, hi = row_lower[:, None], row_upper[:, None]
    bits = np.array(list(itertools.product((0.0, 1.0), repeat=len(bins))), dtype=float).T
    n, k = len(cont), bits.shape[1]
    A_c = A[:, cont]
    fixed = A[:, bins] @ bits  # row activity of the binaries, one column per assignment
    # candidate active constraints: every row at its rhs, every column at either bound
    eq_lhs = np.vstack([A_c, np.eye(n), np.eye(n)])
    eq_rhs = np.vstack([rhs[:, None] - fixed, np.repeat(lb_c, k, 1), np.repeat(ub_c, k, 1)])
    bin_cost = c[bins] @ bits
    best = np.full(k, np.inf)
    for active in map(list, itertools.combinations(range(len(eq_lhs)), n)):
        if n and abs(np.linalg.det(eq_lhs[active])) < 1e-9:
            continue
        X = np.linalg.solve(eq_lhs[active], eq_rhs[active]) if n else np.zeros((0, k))
        act = A_c @ X + fixed
        ok = ((X >= lb_c - tol) & (X <= ub_c + tol)).all(0)
        ok &= ((act >= lo - tol) & (act <= hi + tol)).all(0)
        obj = c[cont] @ X + bin_cost
        best = np.where(ok & (obj < best), obj, best)
    if np.isinf(best).all():
        return "infeasible", None
    return "optimal", float(best.min()) + c0
