"""Independent verification of a dispatch schedule.

`verify_solution` recomputes every identity of the model from a
solution's schedules and the case alone: carrier balances, device
couplings and limits, ramps, storage dynamics, demand-response arithmetic,
the satisfaction floor, the cost breakdown and the gap between the exact
and the linearized emissions.  `dispatch.run_scenario` refuses to return a
solution that fails it, and its gates on demand read `_storage_overlaps`,
the storage exclusivity test.  What a check reads of the case is laid out
once in a check plan (`_CheckPlan`), which a built model keeps.

Verification reads the solution and the case, never the model: no
VarMap, no row and no column.  What it takes as given from the build is
the segment count a solution reports of its emission envelope, from which
it works out the tangents and their error bound, the tolerance of its
``pwl_gap`` check, again.  This module imports nothing from `dispatch`,
`solver` or `cli`, and a solution's types appear in its annotations only
as strings.  What it does share with the build is a short list of case
arithmetic, fixed name by name in ``tests/test_imports.py``:
`model_core.chp_params` and `gas_unit_reach` (the devices' reach, which
also sizes the gas emission envelope), `milp_ir.tangent_envelope` (the
build cuts along it too), `envelope_error` and `quad_value`,
`demand_response.decompose_loads` and `satisfaction_index`, and
`carbon.emission_account` and `carbon_cost`.  A fault in one of them
would pass verification, so each has an oracle test of its own against
hand-worked numbers.

Powers are kW, energies kWh, emissions kg, money in currency units.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .carbon import FlowSchedule, carbon_cost, emission_account
from .demand_response import SHIFT, SUBSTITUTE, decompose_loads, satisfaction_index
from .milp_ir import TangentEnvelope, envelope_error, quad_value, tangent_envelope
from .model_core import CARRIERS, CaseData, _policy, as_scenario, chp_params, gas_unit_reach

ELECTRIC, GAS, _ = CARRIERS


def _storage_overlaps(case: CaseData, storage: "dict[str, StorageSchedule]") -> dict[tuple[str, int], float]:
    """The (carrier, period) pairs where a store charges and discharges at once.

    A pair fails when ``min(charge, discharge) > 1e-6 * max(capacity, 1)``;
    each failing pair maps to that overlap, store by store and period by
    period.
    """
    if not storage:
        return {}
    keys = list(storage)
    overlap = np.minimum([s.charge for s in storage.values()], [s.discharge for s in storage.values()])
    tol = np.array([1e-6 * max(case.storage(k).capacity_kwh, 1.0) for k in keys])
    rows, periods = np.nonzero(~(overlap <= tol[:, None]))
    return {(keys[i], t): v for i, t, v in zip(rows.tolist(), periods.tolist(), overlap[rows, periods].tolist())}


@dataclass
class VerificationReport:
    """Residuals of every identity recomputed from the schedules alone."""

    passed: bool
    checks: list[tuple[str, float, float]]
    failures: list[str]


def _peak(values: np.ndarray) -> float:
    """The largest entry, 0 for none; NaN when an entry is NaN."""
    return float(values.max()) if values.size else 0.0


# the per-period flows of a DispatchSolution, in the order a check plan stacks them
_FLOWS = ("p_e_buy", "p_g_buy", "p_dg", "p_p2g_e", "p_p2g_g", "p_g_gt", "p_gt_e", "p_gt_h", "p_g_gb", "p_gb_h")


def _solution_shape(sol: "DispatchSolution") -> tuple:
    """What a check plan reads of a solution: its stores, its demand-response keys, segments, whether priced."""
    return (tuple(sol.storage), tuple((k, tuple(per_type)) for k, per_type in sol.dr_delta.items()),
            sol.pwl_segments, sol.surrogate_actual_kg is not None)


class _CheckPlan:
    """Everything `verify_solution` reads of a case, laid out for checks on whole schedules.

    It is built from the case and the solution's shape (`_solution_shape`)
    alone: tolerances, limits, coupling coefficients, demand-response
    windows, tariffs and maintenance weights, and the tangents of the
    emission envelopes (a curve with no reach is the constant f(0)).  It
    reads no carbon price: neither ``lambda_base`` nor ``interval_d``
    enters it.  ``pwl_bound`` is the envelopes' error bound in kg, summed
    by `milp_ir.envelope_error`, as the build sums it, so that its bits
    are the ones the solution reports.

    A call stacks the solution's series as rows of a pool (``pool`` holds
    the case's rows, a zero row and room for the rows a call works out:
    the net storage output, the reshaped loads, the carrier supplies, the
    expected states of charge, the ramps and the substitution balance).
    Every per-period check is a row of one of two families, each
    evaluated on all its rows at once with its scalar formula:
    ``|u - cv * v|`` and ``max(over(ca * a, ch * h), over(l, cb * b))``,
    ``over(x, y) = max(x - y, 0)``; a coefficient of 1.0 and a zero row
    leave a value's bits as they are.  Both families reduce in one max
    over the periods.  ``checks`` lists (name, index, tolerance) of the
    checks up to the satisfaction floor, in report order; an index points
    into the per-period residuals followed by the storage terminal, the
    storage exclusivity and the demand-response net residuals.
    """

    def __init__(self, case: CaseData, sol: "DispatchSolution"):
        self.shape = stores, dr_keys, segments, priced = _solution_shape(sol)
        periods, dt = case.horizon.periods, case.horizon.step_hours
        self.dt = dt
        flow = {name: i for i, name in enumerate(_FLOWS)}
        sto_rows = np.arange(len(_FLOWS), len(_FLOWS) + 3 * len(stores)).reshape(-1, 3)
        self.dr_rows = np.arange(sto_rows.size + len(_FLOWS), sto_rows.size + len(_FLOWS)
                                 + sum(len(types) for _, types in dr_keys))
        dr_row = dict(zip(((k, dtype) for k, types in dr_keys for dtype in types), self.dr_rows.tolist()))
        sol_adjusted = self.dr_rows.size + sto_rows.size + len(_FLOWS)
        self.inputs = zero = sol_adjusted + len(CARRIERS)
        net, adj, sup = zero + 1, zero + 1 + len(CARRIERS), zero + 1 + 2 * len(CARRIERS)
        gt, whb, eps_e, eps_h, gt_cap, whb_cap = chp_params(case)
        gb, p2g = case.converter("GB"), case.converter("P2G")
        ramps = [(flow[name], unit.ramp_fraction * cap) for name, unit, cap in (
            ("p_p2g_e", p2g, p2g.capacity_kw if p2g else 0.0), ("p_g_gt", gt, gt_cap),
            ("p_g_gb", gb, gb.capacity_kw if gb else 0.0)) if unit] if periods > 1 else []
        exp = sup + len(CARRIERS)
        ramp = exp + len(stores)
        subst = [k for k, types in dr_keys if SUBSTITUTE in types] if not case.dr.literal_eq2 else []
        self.sub = ramp + len(ramps)
        consts = []
        first_const = self.sub + bool(subst)

        def const(values) -> int:
            consts.append(values)
            return first_const + len(consts) - 1

        self.loads = np.array([const(case.loads[k].values) for k in CARRIERS])
        self.net, self.adj, self.sup = (np.arange(i, i + len(CARRIERS)) for i in (net, adj, sup))
        store_row = {k: rows for k, rows in zip(stores, sto_rows.tolist())}
        self.net_dis = np.array([store_row[k][1] if k in store_row else zero for k in CARRIERS])
        self.net_ch = np.array([store_row[k][0] if k in store_row else zero for k in CARRIERS])
        # each carrier's adjustments, added up in the solution's order of its types
        depth = max([len(types) for _, types in dr_keys], default=0)
        types = {k: [dr_row[k, dtype] for dtype in per_type] for k, per_type in dr_keys}
        self.dr_added = [np.array([(types.get(k, []) + [zero] * (depth + 1))[i] for k in CARRIERS])
                         for i in range(max(depth, 1))]
        # the carrier supplies (((s0 + s1) + s2) + s3) - s4 - s5 (a zero row changes no residual)
        e_net, g_net, h_net = (net + i for i in range(len(CARRIERS)))
        self.supply = np.array([
            [flow["p_e_buy"], flow["p_dg"], flow["p_gt_e"], e_net, flow["p_p2g_e"], zero],
            [flow["p_g_buy"], flow["p_p2g_g"], g_net, zero, flow["p_g_gt"], flow["p_g_gb"]],
            [flow["p_gt_h"], flow["p_gb_h"], h_net, zero, zero, zero],
        ]).T
        store_params = [case.storage(k) for k in stores]
        self.initial = np.array([sto.soc_initial_frac * sto.capacity_kwh for sto in store_params])
        # each store's charge, discharge and state of charge rows, and its expected states of charge
        self.sto = slice(len(_FLOWS), len(_FLOWS) + sto_rows.size)
        self.exp = slice(exp, exp + len(stores))
        self.charge_dt = np.array([sto.charge_eff * dt for sto in store_params])[:, None]
        self.dt_discharge = np.array([dt / sto.discharge_eff for sto in store_params])[:, None]
        self.ramp, self.ramped = slice(ramp, ramp + len(ramps)), np.array([r for r, _ in ramps], dtype=np.int64)
        self.subst_rows = np.array([dr_row[k, SUBSTITUTE] for k in subst], dtype=np.int64)
        self.subst_conversion = np.array([case.dr.subst_conversion.get(k, 1.0) for k in subst])[:, None]

        absolute, over, scalar, checks = [], [], [], []

        def add_abs(name, u, v, tol, cv=1.0):
            checks.append((name, ("abs", len(absolute)), tol))
            absolute.append((u, v, cv))

        def add_over(name, a, h, tol, l=zero, b=zero, ca=1.0, ch=1.0, cb=1.0):
            checks.append((name, ("over", len(over)), tol))
            over.append((a, h, l, b, ca, ch, cb))

        for i, k in enumerate(CARRIERS):
            peak = max(max(case.loads[k].values), 1.0)
            add_abs(f"adjusted_load_{k}", adj + i, sol_adjusted + i, 1e-6 * peak)
        for i, k in enumerate(CARRIERS):
            peak = max(max(case.loads[k].values), 1.0)
            add_abs(f"balance_{k}", sup + i, adj + i, 1e-6 * peak)
        ramp_of = {r: (ramp + i, step) for i, (r, step) in enumerate(ramps)}

        def add_ramp(name, r, tol):
            # one period has no step: over(0, 0) is 0
            source, step = ramp_of.get(r, (zero, 0.0))
            add_over(name, source, const(step), tol)

        if p2g:
            scale = max(p2g.capacity_kw, 1.0)
            add_abs("p2g_coupling", flow["p_p2g_g"], flow["p_p2g_e"], 1e-6 * scale, p2g.efficiencies.get("gas", 0.0))
            add_over("p2g_capacity", flow["p_p2g_e"], const(p2g.capacity_kw), 1e-6 * scale)
            add_ramp("p2g_ramp", flow["p_p2g_e"], 1e-6 * scale)
        if gt:
            scale = max(gt_cap, 1.0)
            if case.chp.extraction_mode:
                add_over("chp_e_fuel", flow["p_gt_e"], flow["p_g_gt"], 1e-6 * scale, ch=eps_e)
                add_over("chp_h_fuel", flow["p_gt_h"], flow["p_g_gt"], 1e-6 * scale, ch=eps_h)
            else:
                add_abs("chp_e_coupling", flow["p_gt_e"], flow["p_g_gt"], 1e-6 * scale, eps_e)
                add_abs("chp_h_coupling", flow["p_gt_h"], flow["p_g_gt"], 1e-6 * scale, eps_h)
            add_over("chp_ratio", flow["p_gt_e"], flow["p_gt_h"], 1e-6 * scale, l=flow["p_gt_h"], b=flow["p_gt_e"],
                     ca=case.chp.ratio_min, cb=case.chp.ratio_max)
            add_over("chp_fuel_capacity", flow["p_g_gt"], const(gt_cap), 1e-6 * scale)
            if whb:
                add_over("chp_whb_capacity", flow["p_gt_h"], const(whb_cap), 1e-6 * scale)
            add_ramp("chp_ramp", flow["p_g_gt"], 1e-6 * scale)
        if gb:
            scale = max(gb.capacity_kw, 1.0)
            add_abs("gb_coupling", flow["p_gb_h"], flow["p_g_gb"], 1e-6 * scale, gb.efficiencies.get("heat", 0.0))
            add_over("gb_capacity", flow["p_g_gb"], const(gb.capacity_kw), 1e-6 * scale)
            add_ramp("gb_ramp", flow["p_g_gb"], 1e-6 * scale)
        add_over("wind_availability", flow["p_dg"], const(np.minimum(case.wind_profile, case.wind_max_kw)),
                 1e-6 * max(case.wind_max_kw, 1.0))
        for k, name, cap in zip((ELECTRIC, GAS), ("p_e_buy", "p_g_buy"), case.purchase_caps):
            add_over(f"purchase_cap_{k}", flow[name], const(cap), 1e-6 * max(cap, 1.0))

        for j, (k, sto) in enumerate(zip(stores, store_params)):
            cap = sto.capacity_kwh
            plim, tol = const(sto.power_limit_fraction * cap), 1e-6 * max(cap, 1.0)
            ch, dis, soc = sto_rows[j].tolist()
            add_abs(f"storage_{k}_recursion", soc, exp + j, tol)
            checks.append((f"storage_{k}_terminal", ("terminal", j), tol))
            add_over(f"storage_{k}_soc_bounds", soc, const(sto.soc_max_frac * cap), tol,
                     l=const(sto.soc_min_frac * cap), b=soc)
            add_over(f"storage_{k}_power", ch, plim, tol, l=dis, b=plim)
            checks.append((f"storage_{k}_exclusive", ("exclusive", j), tol))

        dec = decompose_loads(case) if dr_keys else None
        for k, per_type in dr_keys:
            load_sum = max(sum(case.loads[k].values), 1.0)
            for dtype in per_type:
                base = np.asarray(dec.shiftable_base[k] if dtype == SHIFT else dec.substitutable_base[k])
                override = case.dr.shift_bounds.get(k) if dtype == SHIFT else None
                lo, hi = (-base, base) if override is None else override
                series = dr_row[k, dtype]
                add_over(f"dr_window_{dtype}_{k}", series, const(hi), 1e-6 * load_sum, l=const(lo), b=series)
                if dtype == SHIFT or case.dr.literal_eq2:
                    checks.append((f"dr_net_{dtype}_{k}", ("net", len(scalar)), 1e-6 * load_sum))
                    scalar.append(series)
        if subst:
            scale = max(sum(max(case.loads[k].values) for k in subst), 1.0)
            add_abs("dr_subst_coupling", self.sub, zero, 1e-6 * scale)
        self.dr_net = np.array(scalar, dtype=np.int64)

        # each family's rows in one index array, so that a call gathers a family at once
        u, v, cv = zip(*absolute)
        self.uv, self.cv = np.array([u, v]), np.array(cv)[:, None]
        *rows, ca, ch, cb = zip(*over)
        self.ahlb = np.array(rows)
        self.ca, self.ch, self.cb = np.array([ca, ch, cb])[:, :, None]
        start = {"abs": 0, "over": len(absolute), "terminal": len(absolute) + len(over)}
        start["exclusive"] = start["terminal"] + len(stores)
        start["net"] = start["exclusive"] + len(stores)
        self.checks = [(name, start[family] + i, tol) for name, (family, i), tol in checks]
        self.stores = stores
        self.pool = np.zeros((first_const + len(consts), periods))
        for i, values in enumerate(consts, first_const):
            self.pool[i] = values

        self.satisfaction_min = case.dr.satisfaction_min
        self.original = {k: case.loads[k].values for k in CARRIERS}
        self.prices = np.array([case.tariffs.electricity_price, case.tariffs.gas_price], dtype=float)
        self.mu_dt = [(case.dr.mu_shift if dtype == SHIFT else case.dr.mu_subst) * dt
                      for _, per_type in dr_keys for dtype in per_type]
        omega = case.maintenance
        self.maint_rows = np.array([flow[name] for name in ("p_dg", "p_p2g_g", "p_gt_e", "p_gt_h", "p_gb_h")])
        self.maint_weights = np.array([omega.get(unit, 0.0) for unit in ("wind", "P2G", "GT", "WHB", "GB")])[:, None]
        self.store_weights = np.array([omega.get(f"storage_{k}", 0.0) for k in stores])[:, None]
        self.envelopes, self.pwl_bound = None, 0.0
        if priced:
            carbon = case.carbon  # its quadratics are every mechanism's (`_policy`)
            curves = list(zip((carbon.coal_quad, carbon.gas_quad),
                              (case.purchase_caps[0], sum(gas_unit_reach(case)))))
            self.envelopes = [tangent_envelope(quad, x_max, segments) if x_max > 0 else quad_value(quad, 0.0)
                              for quad, x_max in curves]
            self.pwl_bound = envelope_error([e for e in self.envelopes if isinstance(e, TangentEnvelope)], periods, dt)


def verify_solution(case: CaseData, scenario, sol: "DispatchSolution", overlaps=None, plan=None) -> VerificationReport:
    """Recompute every model identity from the schedules and case data.

    Covers carrier balances, device couplings and limits, ramps, storage
    dynamics, demand-response arithmetic, the satisfaction floor, the cost
    breakdown, and the exact-vs-linearized emission gap.  Each check records
    (name, residual, tolerance); the report passes iff all residuals are
    within tolerance.  A residual is the largest violation over the periods,
    computed on whole schedules at once; each per-period value is the
    floating-point result of the scalar formula, and the cost and emission
    sums add the periods left to right.  A NaN anywhere in a check's
    values makes its residual NaN, so the check fails.

    What the checks read of the case is laid out once in a check plan
    (`_CheckPlan`); ``plan`` is one built for this case, or for one that
    differs from it only in ``carbon.lambda_base`` and
    ``carbon.interval_d``, which no plan reads (a re-priced model keeps
    its plan).  Without one, or with one laid out for another shape of
    solution, the call builds its own.  ``overlaps`` is
    ``_storage_overlaps(case, sol.storage)`` when the caller has it already.
    """
    scenario = as_scenario(scenario)
    if plan is None or plan.shape != _solution_shape(sol):
        plan = _CheckPlan(case, sol)
    dt = plan.dt
    pool = plan.pool.copy()
    inputs = [*(getattr(sol, name) for name in _FLOWS),
              *(series for s in sol.storage.values() for series in (s.charge, s.discharge, s.soc)),
              *(series for per_type in sol.dr_delta.values() for series in per_type.values()),
              *(sol.adjusted_loads[k] for k in CARRIERS)]
    pool[:plan.inputs] = np.fromiter(chain.from_iterable(inputs), float, plan.inputs * sol.periods).reshape(
        plan.inputs, sol.periods)
    e_buy, g_buy, _, _, p2g_g, _, gt_e, gt_h, _, gb_h = pool[:len(_FLOWS)]
    # the rows worked out per call: net storage output, reshaped loads, supplies,
    # expected states of charge, ramps and the substitution balance
    pool[plan.net] = pool[plan.net_dis] - pool[plan.net_ch]
    added = 0.0 + pool[plan.dr_added[0]]
    for rows in plan.dr_added[1:]:
        added = added + pool[rows]
    adjusted = pool[plan.adj] = pool[plan.loads] + added
    gas_load = adjusted[CARRIERS.index(GAS)]
    s = pool[plan.supply]
    pool[plan.sup] = ((((s[0] + s[1]) + s[2]) + s[3]) - s[4]) - s[5]
    charge, discharge, soc = pool[plan.sto].reshape(-1, 3, sol.periods).transpose(1, 0, 2)
    if plan.stores:
        expected = pool[plan.exp]  # the state of charge before each period, then the period's change
        expected[:, 0] = plan.initial
        expected[:, 1:] = soc[:, :-1]
        expected += plan.charge_dt * charge
        expected -= plan.dt_discharge * discharge
    if plan.ramped.size:
        ramped, steps = pool[plan.ramped], pool[plan.ramp]
        np.abs(ramped[:, 1:] - ramped[:, :-1], out=steps[:, 1:])
        steps[:, 0] = steps[:, 1]  # the step into period 1 again, which leaves the max as it is
    if plan.subst_rows.size:
        terms = plan.subst_conversion * pool[plan.subst_rows]
        net = 0.0 + terms[0]
        for term in terms[1:]:
            net = net + term
        pool[plan.sub] = net

    u, v = pool[plan.uv]
    a, h, l, b = pool[plan.ahlb]
    family = np.empty((len(u) + len(a), sol.periods))
    np.abs(u - plan.cv * v, out=family[:len(u)])
    np.maximum(np.maximum(plan.ca * a - plan.ch * h, 0.0), np.maximum(l - plan.cb * b, 0.0), out=family[len(u):])
    residuals = family.max(axis=1).tolist()
    residuals += np.abs(soc[:, -1] - plan.initial).tolist()
    if overlaps is None:
        overlaps = _storage_overlaps(case, sol.storage)
    overlapping = {k: [] for k in plan.stores}
    for (k, _), value in overlaps.items():
        overlapping.get(k, []).append(value)
    residuals += [_peak(np.array(overlapping[k])) for k in plan.stores]
    residuals += [abs(sum(series)) for series in pool[plan.dr_net].tolist()]
    checks = [(name, residuals[i], tol) for name, i, tol in plan.checks]

    def check(name: str, residual: float, tol: float):
        checks.append((name, float(residual), tol))

    adjusted = dict(zip(CARRIERS, adjusted.tolist()))
    index = satisfaction_index(plan.original, adjusted)
    shortfall = plan.satisfaction_min - index
    check("satisfaction_floor", shortfall if not shortfall <= 0.0 else 0.0, 1e-9)  # max(0, shortfall), NaN kept
    check("satisfaction_value", abs(index - sol.satisfaction), 1e-9)

    # cost breakdown
    buy = dt * sum((plan.prices[0] * e_buy + plan.prices[1] * g_buy).tolist())
    dr_cost = 0.0
    for mu_dt, series in zip(plan.mu_dt, np.abs(pool[plan.dr_rows]).tolist()):
        dr_cost += mu_dt * sum(series)
    m = plan.maint_weights * pool[plan.maint_rows]
    stored = 0
    for term in plan.store_weights * (charge + discharge):
        stored = stored + term
    maint = dt * sum((m[0] + m[1] + m[2] + m[3] + m[4] + stored).tolist())
    policy = _policy(case, scenario)
    account = emission_account(FlowSchedule(step_hours=dt, p_e_buy=sol.p_e_buy, p_gt_e=sol.p_gt_e, p_gt_h=sol.p_gt_h,
                                            p_gb_h=sol.p_gb_h, p_g_load=adjusted[GAS], p_p2g_g=sol.p_p2g_g), policy)
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
    if plan.envelopes is not None:
        coal, gas = (envelope.value(x) if isinstance(envelope, TangentEnvelope) else envelope
                     for envelope, x in zip(plan.envelopes, (e_buy, gt_e + gt_h + gb_h)))
        surrogate = sum((dt * (coal + gas + policy.delta_gasload * gas_load
                               - policy.theta_p2g * p2g_g)).tolist())
        rel("surrogate_actual", sol.surrogate_actual_kg, surrogate,
            scale=max(abs(surrogate), account.actual.total, 1.0))
        check(
            "pwl_gap",
            abs(account.actual.total - surrogate),
            plan.pwl_bound + 1e-9,
        )
        surrogate_share = surrogate - account.quota.total
        surrogate_cost = carbon_cost(surrogate_share, policy)
        rel("surrogate_carbon_cost", sol.surrogate_carbon_cost, surrogate_cost,
            scale=max(abs(surrogate_cost), 1.0))
        expected_obj = buy + dr_cost + maint + surrogate_cost
    else:
        expected_obj = buy + dr_cost + maint
    check("objective_identity", abs(sol.objective - expected_obj), 1e-6 * max(1.0, abs(expected_obj)))

    failures = [f"{name}: residual {residual:.3e} exceeds {tol:.3e}" for name, residual, tol in checks
                if not (residual <= tol)]
    return VerificationReport(passed=not failures, checks=checks, failures=failures)
