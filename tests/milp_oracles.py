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
``previous_extract`` and ``previous_verify_solution`` are the extraction
and verification that the check plan and the read layout replaced, the
reference of the differential tests.  ``supply_screen`` is the load screen
that the built model's row-reach test (`milp_ir.unreachable_row`)
replaced: it re-derives each carrier's largest supply from the case.
"""

import itertools
import random
from typing import NamedTuple

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import csc_array

from iesdispatch.carbon import FlowSchedule, carbon_cost, emission_account
from iesdispatch.demand_response import DR_TYPES, SHIFT, SUBSTITUTE, decompose_loads, satisfaction_index
from iesdispatch.dispatch import (
    CostBreakdown,
    DispatchSolution,
    ScenarioSpec,
    StaticInfeasibleError,
    StorageSchedule,
    VarMap,
    VerificationReport,
    _policy,
    add_gates,
    as_scenario,
    build_model,
)
from iesdispatch.milp_ir import BINARY, CONTINUOUS, EQ, GE, LE, LinearForm, MilpModel, linear_form, quad_value
from iesdispatch.model_core import CARRIERS, CaseData, chp_params, gas_unit_reach

ELECTRIC, GAS, HEAT = CARRIERS


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


# -- the previous extraction and verification ----------------------------------
#
# ``previous_extract`` and ``previous_verify_solution`` are `dispatch._extract`
# and `dispatch.verify_solution` as they were before the check plan and the
# read layout: every check recomputed from the case on each call, one array
# expression per check, and the tangent envelope's tangents worked out on
# every call.  The differential tests hold the product to them bit for bit;
# the two checks whose NaN handling was mended (``satisfaction_floor`` and
# ``storage_{k}_exclusive``) are the only ones allowed to differ, and only
# on a NaN.  The ``pwl_gap`` tolerance is the envelopes' error bound worked
# out from the case and the segment count, as verification now does, not the
# bound the solution reports.


def _previous_pwl_convex_value(quad, x_max: float, segments: int, x):
    """The tangent envelope at ``x`` as the previous `milp_ir.pwl_convex_value` gave it, tangents worked out per call."""
    a, b, c = (float(v) for v in quad)
    xi = x_max * np.arange(segments + 1) / segments
    slope = b + 2.0 * c * xi
    best = np.max(a + b * xi + c * xi * xi + slope * (np.asarray(x, dtype=float)[..., None] - xi), axis=-1)
    return float(best) if best.ndim == 0 else best


def previous_extract(case: CaseData, scenario: ScenarioSpec, vm: VarMap, res) -> DispatchSolution:
    x = np.asarray(res.x, dtype=float)
    periods = case.horizon.periods
    dt = case.horizon.step_hours
    # one gather for every per-period series: the flows and the storage
    # powers (each 0.0 + coeff * x[ids[t]], snapped to 0 below 1e-9), then
    # the states of charge and the demand-response magnitudes
    present = [name for name, flow in vm.flows.items() if flow is not None]
    powered = [vm.flows[name] for name in present]
    powered += [(ids, 1.0) for blk in vm.storage.values() for ids in (blk.charge, blk.discharge)]
    keys = list(vm.dr.p_in)
    ids = [ids for ids, _ in powered] + [blk.soc for blk in vm.storage.values()]
    ids += [vm.dr.p_in[key] for key in keys] + [vm.dr.p_out[key] for key in keys]
    rows = x[np.array(ids, dtype=np.int64).reshape(len(ids), periods)]
    power = 0.0 + np.array([coeff for _, coeff in powered])[:, None] * rows[:len(powered)]
    power[np.abs(power) < 1e-9] = 0.0
    power = list(map(tuple, power.tolist()))
    first_in = len(powered) + len(vm.storage)
    soc = list(map(tuple, (0.0 + rows[len(powered):first_in]).tolist()))
    p_in, p_out = rows[first_in:first_in + len(keys)], rows[first_in + len(keys):]
    flows = dict.fromkeys(vm.flows, (0.0,) * periods)
    flows.update(zip(present, power))
    charges = iter(power[len(present):])
    storage = {k: StorageSchedule(next(charges), next(charges), soc[i]) for i, k in enumerate(vm.storage)}
    # summed left to right, since the order fixes the reported bits: an
    # adjustment is 0.0 + x_in - x_out, a reshaped load the load plus
    # 0.0 + x_in - x_out + ... over its enabled types in DR_TYPES order
    delta = dict(zip(keys, (0.0 + p_in) - p_out))
    dr_delta: dict[str, dict[str, tuple[float, ...]]] = {}
    for (k, dtype), series in delta.items():
        dr_delta.setdefault(k, {})[dtype] = tuple(series.tolist())
    change = np.zeros((len(CARRIERS), periods))
    for dtype in DR_TYPES:
        for i, key in enumerate(keys):
            if key[1] == dtype:
                k = CARRIERS.index(key[0])
                change[k] = (change[k] + p_in[i]) - p_out[i]
    loads = np.array([case.loads[k].values for k in CARRIERS], dtype=float)
    adjusted = dict(zip(CARRIERS, map(tuple, (loads + change).tolist())))
    schedule = FlowSchedule(step_hours=dt, p_g_load=adjusted[GAS],
                            **{k: flows[k] for k in ("p_e_buy", "p_gt_e", "p_gt_h", "p_gb_h", "p_p2g_g")})
    policy = _policy(case, scenario)
    account = emission_account(schedule, policy)
    carbon_exact = carbon_cost(account.trading_share, policy)
    buy = vm.cost_buy.value(x)
    dr_cost = vm.cost_dr.value(x)
    maint = vm.cost_maint.value(x)
    costs = CostBreakdown(
        purchase=buy, carbon=carbon_exact, dr=dr_cost, maintenance=maint,
        total=buy + carbon_exact + dr_cost + maint,
    )
    original = {k: case.loads[k].values for k in CARRIERS}
    return DispatchSolution(
        scenario_id=scenario.id,
        periods=periods,
        step_hours=dt,
        wind_available=vm.wind_available,
        **flows,
        storage=storage,
        dr_delta=dr_delta,
        adjusted_loads=adjusted,
        costs=costs,
        emission=account,
        satisfaction=satisfaction_index(original, adjusted),
        surrogate_actual_kg=None if vm.actual is None else vm.actual.value(x),
        surrogate_carbon_cost=None if vm.carbon_cost is None else vm.carbon_cost.value(x),
        pwl_bound_kg=vm.pwl_bound_kg,
        pwl_segments=vm.options.pwl_segments,
        objective=res.objective,
        bound=res.bound,
        gap=res.gap,
        nodes=res.nodes,
        wall_time=res.wall_time,
        status=res.status,
    )


def previous_storage_overlaps(case: CaseData, storage: dict[str, StorageSchedule]) -> dict[tuple[str, int], float]:
    """The (carrier, period) pairs where a store charges and discharges at once.

    A pair fails when ``min(charge, discharge) > 1e-6 * max(capacity, 1)``;
    each failing pair maps to that overlap.
    """
    out = {}
    for k, sched in storage.items():
        tol = 1e-6 * max(case.storage(k).capacity_kwh, 1.0)
        overlap = np.minimum(sched.charge, sched.discharge)
        for t in np.flatnonzero(~(overlap <= tol)).tolist():
            out[k, t] = float(overlap[t])
    return out


def _over(value, limit) -> np.ndarray:
    """How far each value exceeds its limit, 0 where it does not."""
    return np.maximum(np.subtract(value, limit), 0.0)


def _peak(values: np.ndarray) -> float:
    """The largest entry, 0 for none; NaN when an entry is NaN."""
    return float(values.max()) if values.size else 0.0


def previous_verify_solution(case: CaseData, scenario, sol: DispatchSolution, overlaps=None) -> VerificationReport:
    """Recompute every model identity from the schedules and case data.

    Covers carrier balances, device couplings and limits, ramps, storage
    dynamics, demand-response arithmetic, the satisfaction floor, the cost
    breakdown, and the exact-vs-linearized emission gap.  Each check records
    (name, residual, tolerance); the report passes iff all residuals are
    within tolerance.  A residual is the largest violation over the periods,
    computed on whole schedules at once; each per-period value is the
    floating-point result of the scalar formula, and the cost and emission
    sums add the periods left to right.  ``overlaps`` is
    ``_storage_overlaps(case, sol.storage)`` when the caller has it already.
    """
    scenario = as_scenario(scenario)
    dt = case.horizon.step_hours
    checks: list[tuple[str, float, float]] = []
    failures: list[str] = []

    def check(name: str, residual: float, tol: float):
        residual = float(residual)
        checks.append((name, residual, tol))
        if not (residual <= tol):
            failures.append(f"{name}: residual {residual:.3e} exceeds {tol:.3e}")

    e_buy, g_buy, dg, p2g_e, p2g_g, g_gt, gt_e, gt_h, g_gb, gb_h = (np.asarray(getattr(sol, name), dtype=float) for name in (
        "p_e_buy", "p_g_buy", "p_dg", "p_p2g_e", "p_p2g_g", "p_g_gt", "p_gt_e", "p_gt_h", "p_g_gb", "p_gb_h"))
    storage = {k: tuple(np.asarray(v, dtype=float) for v in (sched.charge, sched.discharge, sched.soc))
               for k, sched in sol.storage.items()}
    dr_delta = {k: {dtype: np.asarray(series, dtype=float) for dtype, series in per_type.items()}
                for k, per_type in sol.dr_delta.items()}
    loads = {k: np.asarray(case.loads[k].values, dtype=float) for k in CARRIERS}

    # demand-response deltas and reshaped loads
    adjusted = {k: loads[k] + sum(dr_delta.get(k, {}).values()) for k in CARRIERS}
    for k in CARRIERS:
        peak = max(max(case.loads[k].values), 1.0)
        check(f"adjusted_load_{k}", _peak(np.abs(adjusted[k] - sol.adjusted_loads[k])), 1e-6 * peak)

    # carrier balances
    def net_storage(k):
        return storage[k][1] - storage[k][0] if k in storage else 0.0

    for k, supply in (
        (ELECTRIC, e_buy + dg + gt_e + net_storage(ELECTRIC) - p2g_e),
        (GAS, g_buy + p2g_g + net_storage(GAS) - g_gt - g_gb),
        (HEAT, gt_h + gb_h + net_storage(HEAT)),
    ):
        peak = max(max(case.loads[k].values), 1.0)
        check(f"balance_{k}", _peak(np.abs(supply - adjusted[k])), 1e-6 * peak)

    # device couplings, limits, ramps
    gt, whb, eps_e, eps_h, gt_cap, whb_cap = chp_params(case)
    gb = case.converter("GB")
    p2g = case.converter("P2G")

    def ramp_residual(series, cap, frac):
        # the step from period t-1 to t, for t >= 1
        return _peak(_over(np.abs(series[1:] - series[:-1]), frac * cap))

    if p2g:
        eta = p2g.efficiencies.get("gas", 0.0)
        scale = max(p2g.capacity_kw, 1.0)
        check("p2g_coupling", _peak(np.abs(p2g_g - eta * p2g_e)), 1e-6 * scale)
        check("p2g_capacity", _peak(_over(p2g_e, p2g.capacity_kw)), 1e-6 * scale)
        check("p2g_ramp", ramp_residual(p2g_e, p2g.capacity_kw, p2g.ramp_fraction), 1e-6 * scale)
    if gt:
        scale = max(gt_cap, 1.0)
        if case.chp.extraction_mode:
            check("chp_e_fuel", _peak(_over(gt_e, eps_e * g_gt)), 1e-6 * scale)
            check("chp_h_fuel", _peak(_over(gt_h, eps_h * g_gt)), 1e-6 * scale)
        else:
            check("chp_e_coupling", _peak(np.abs(gt_e - eps_e * g_gt)), 1e-6 * scale)
            check("chp_h_coupling", _peak(np.abs(gt_h - eps_h * g_gt)), 1e-6 * scale)
        check(
            "chp_ratio",
            _peak(np.maximum(_over(case.chp.ratio_min * gt_e, gt_h), _over(gt_h, case.chp.ratio_max * gt_e))),
            1e-6 * scale,
        )
        check("chp_fuel_capacity", _peak(_over(g_gt, gt_cap)), 1e-6 * scale)
        if whb:
            check("chp_whb_capacity", _peak(_over(gt_h, whb_cap)), 1e-6 * scale)
        check("chp_ramp", ramp_residual(g_gt, gt_cap, gt.ramp_fraction), 1e-6 * scale)
    if gb:
        phi = gb.efficiencies.get("heat", 0.0)
        scale = max(gb.capacity_kw, 1.0)
        check("gb_coupling", _peak(np.abs(gb_h - phi * g_gb)), 1e-6 * scale)
        check("gb_capacity", _peak(_over(g_gb, gb.capacity_kw)), 1e-6 * scale)
        check("gb_ramp", ramp_residual(g_gb, gb.capacity_kw, gb.ramp_fraction), 1e-6 * scale)

    avail = np.minimum(case.wind_profile, case.wind_max_kw)  # from the case, not the build's VarMap
    check("wind_availability", _peak(_over(dg, avail)), 1e-6 * max(case.wind_max_kw, 1.0))
    check("purchase_cap_electric", _peak(_over(e_buy, case.purchase_caps[0])),
          1e-6 * max(case.purchase_caps[0], 1.0))
    check("purchase_cap_gas", _peak(_over(g_buy, case.purchase_caps[1])),
          1e-6 * max(case.purchase_caps[1], 1.0))

    if overlaps is None:
        overlaps = previous_storage_overlaps(case, sol.storage)
    for k, (charge, discharge, soc) in storage.items():
        sto = case.storage(k)
        cap = sto.capacity_kwh
        plim = sto.power_limit_fraction * cap
        tol = 1e-6 * max(cap, 1.0)
        initial = sto.soc_initial_frac * cap
        # soc[t] against soc[t-1] + charge - discharge, soc[-1] the initial charge
        soc_prev = np.concatenate(([initial], soc[:-1]))
        expect = soc_prev + sto.charge_eff * dt * charge - dt / sto.discharge_eff * discharge
        check(f"storage_{k}_recursion", _peak(np.abs(soc - expect)), tol)
        check(f"storage_{k}_terminal", abs(soc[-1] - initial), tol)
        check(f"storage_{k}_soc_bounds",
              _peak(np.maximum(_over(soc, sto.soc_max_frac * cap), _over(sto.soc_min_frac * cap, soc))), tol)
        check(f"storage_{k}_power", _peak(np.maximum(_over(charge, plim), _over(discharge, plim))), tol)
        check(f"storage_{k}_exclusive", max((v for (c, _), v in overlaps.items() if c == k), default=0.0), tol)

    # demand-response arithmetic
    dec = decompose_loads(case)
    for k, per_type in dr_delta.items():
        load_sum = max(sum(case.loads[k].values), 1.0)
        for dtype, series in per_type.items():
            base = np.asarray(dec.shiftable_base[k] if dtype == SHIFT else dec.substitutable_base[k])
            override = case.dr.shift_bounds.get(k) if dtype == SHIFT else None
            lo, hi = (-base, base) if override is None else override
            check(f"dr_window_{dtype}_{k}", _peak(np.maximum(_over(series, hi), _over(lo, series))),
                  1e-6 * load_sum)
            if dtype == SHIFT or case.dr.literal_eq2:
                check(f"dr_net_{dtype}_{k}", abs(sum(series.tolist())), 1e-6 * load_sum)
    if not case.dr.literal_eq2:
        subst = {k: per_type[SUBSTITUTE] for k, per_type in dr_delta.items() if SUBSTITUTE in per_type}
        if subst:
            scale = max(sum(max(case.loads[k].values) for k in subst), 1.0)
            net = sum(case.dr.subst_conversion.get(k, 1.0) * series for k, series in subst.items())
            check("dr_subst_coupling", _peak(np.abs(net)), 1e-6 * scale)
    original = {k: case.loads[k].values for k in CARRIERS}
    adjusted = {k: tuple(v.tolist()) for k, v in adjusted.items()}
    index = satisfaction_index(original, adjusted)
    check("satisfaction_floor", max(0.0, case.dr.satisfaction_min - index), 1e-9)
    check("satisfaction_value", abs(index - sol.satisfaction), 1e-9)

    # cost breakdown
    tariffs = case.tariffs
    buy = dt * sum((np.multiply(tariffs.electricity_price, e_buy)
                    + np.multiply(tariffs.gas_price, g_buy)).tolist())
    dr_cost = 0.0
    for k, per_type in dr_delta.items():
        for dtype, series in per_type.items():
            mu = case.dr.mu_shift if dtype == SHIFT else case.dr.mu_subst
            dr_cost += mu * dt * sum(np.abs(series).tolist())
    omega = case.maintenance
    maint = dt * sum((
        omega.get("wind", 0.0) * dg
        + omega.get("P2G", 0.0) * p2g_g
        + omega.get("GT", 0.0) * gt_e
        + omega.get("WHB", 0.0) * gt_h
        + omega.get("GB", 0.0) * gb_h
        + sum(omega.get(f"storage_{k}", 0.0) * (charge + discharge) for k, (charge, discharge, _) in storage.items())
    ).tolist())
    policy = _policy(case, scenario)
    schedule = FlowSchedule(
        step_hours=dt,
        p_e_buy=sol.p_e_buy,
        p_gt_e=sol.p_gt_e,
        p_gt_h=sol.p_gt_h,
        p_gb_h=sol.p_gb_h,
        p_g_load=adjusted[GAS],
        p_p2g_g=sol.p_p2g_g,
    )
    account = emission_account(schedule, policy)
    carbon_exact = carbon_cost(account.trading_share, policy)

    def rel(name, got, want, scale=None):
        check(name, abs(got - want), 1e-6 * max(1.0, abs(want) if scale is None else scale))

    rel("cost_purchase", sol.costs.purchase, buy)
    rel("cost_dr", sol.costs.dr, dr_cost)
    rel("cost_maintenance", sol.costs.maintenance, maint)
    rel("cost_carbon_exact", sol.costs.carbon, carbon_exact)
    rel("emission_actual", sol.emission.actual.total, account.actual.total)
    rel("emission_quota", sol.emission.quota.total, account.quota.total)
    rel(
        "cost_total",
        sol.costs.total,
        sol.costs.purchase + sol.costs.carbon + sol.costs.dr + sol.costs.maintenance,
    )

    # linearized emission surrogate and objective identity
    carbon_priced = sol.surrogate_actual_kg is not None
    if carbon_priced:
        cap_e = case.purchase_caps[0]
        q_max = sum(gas_unit_reach(case))
        n = sol.pwl_segments
        coal = (_previous_pwl_convex_value(policy.coal_quad, cap_e, n, e_buy)
                if cap_e > 0 else quad_value(policy.coal_quad, 0.0))
        gas = (_previous_pwl_convex_value(policy.gas_quad, q_max, n, gt_e + gt_h + gb_h)
               if q_max > 0 else quad_value(policy.gas_quad, 0.0))
        surrogate = sum((dt * (coal + gas + policy.delta_gasload * np.asarray(adjusted[GAS])
                               - policy.theta_p2g * p2g_g)).tolist())
        rel("surrogate_actual", sol.surrogate_actual_kg, surrogate,
            scale=max(abs(surrogate), account.actual.total, 1.0))
        # the envelopes' error bound c * (x_max / n)^2 / 4 per period and curve with
        # reach, from the case and the segment count, summed period by period
        per_period = [quad[2] * (x_max / n) ** 2 / 4.0 * dt
                      for quad, x_max in ((policy.coal_quad, cap_e), (policy.gas_quad, q_max)) if x_max > 0]
        bound = 0.0
        for _ in range(case.horizon.periods):
            for term in per_period:
                bound += term
        check("pwl_gap", abs(account.actual.total - surrogate), bound + 1e-9)
        surrogate_share = surrogate - account.quota.total
        surrogate_cost = carbon_cost(surrogate_share, policy)
        rel("surrogate_carbon_cost", sol.surrogate_carbon_cost, surrogate_cost,
            scale=max(abs(surrogate_cost), 1.0))
        expected_obj = buy + dr_cost + maint + surrogate_cost
    else:
        expected_obj = buy + dr_cost + maint
    check("objective_identity", abs(sol.objective - expected_obj), 1e-6 * max(1.0, abs(expected_obj)))

    return VerificationReport(passed=not failures, checks=checks, failures=failures)


def _dr_outflow(case: CaseData, scenario: ScenarioSpec, dec) -> np.ndarray:
    """Largest load reduction demand response may deliver, per carrier (in CARRIERS order) and period."""
    out = np.zeros((len(CARRIERS), case.horizon.periods))
    for i, carrier in enumerate(CARRIERS):
        if scenario.dr_shift and carrier in case.dr.shift_carriers:
            override = case.dr.shift_bounds.get(carrier)
            lo = -np.asarray(dec.shiftable_base[carrier]) if override is None else override[0]
            out[i] += np.maximum(0.0, -lo)
        if scenario.dr_substitute and carrier in case.dr.subst_carriers:
            out[i] += dec.substitutable_base[carrier]
    return out


def supply_screen(case: CaseData, scenario) -> None:
    """Reject loads no combination of devices could ever serve, as `build_model` once did before building.

    Every period and carrier is tested at once; the first failure in period
    order, then carrier order, raises StaticInfeasibleError with the family
    ``{carrier}_balance`` and a message that starts ``period {t}:``.
    """
    scenario = as_scenario(scenario)
    dec = decompose_loads(case)
    gt_e_max, gt_heat_max, gb_heat_max = gas_unit_reach(case)
    p2g = case.converter("P2G")
    p2g_gas_max = p2g.efficiencies.get("gas", 0.0) * p2g.capacity_kw if p2g else 0.0

    def dis_max(carrier):
        sto = case.storage(carrier)
        return sto.power_limit_fraction * sto.capacity_kwh if sto else 0.0

    cap_e, cap_g = case.purchase_caps
    avail = np.minimum(case.wind_profile, case.wind_max_kw)
    supply = np.empty((len(CARRIERS), case.horizon.periods))
    supply[0] = cap_e + avail + gt_e_max + dis_max(ELECTRIC)
    supply[1] = cap_g + p2g_gas_max + dis_max(GAS)
    supply[2] = gt_heat_max + gb_heat_max + dis_max(HEAT)
    need = np.array([case.loads[carrier].values for carrier in CARRIERS]) - _dr_outflow(case, scenario, dec)
    failed = np.argwhere((need > supply + 1e-9).T)
    if failed.size:
        t, i = failed[0].tolist()
        carrier = CARRIERS[i]
        raise StaticInfeasibleError(
            f"{carrier}_balance",
            f"period {t}: load {need[i, t]:.1f} kW exceeds maximum "
            f"{carrier} supply {supply[i, t]:.1f} kW",
        )
