"""Scenario assembly, optimization, and verification for the dispatch model.

The system buys electricity and gas under time-of-use tariffs and serves
electric, gas, and heat loads through a gas turbine with waste-heat
recovery (CHP), a gas boiler, power-to-gas, per-carrier storage, and wind.
The bundled scenarios differ in how carbon is priced and which
demand-response levers are active:

  S1  tiered carbon accounting reported but excluded from the objective
  S2  traditional single-price carbon cost in the objective
  S3  tiered carbon cost in the objective
  S4  S3 plus time-shift demand response
  S5  S4 plus cross-carrier load substitution

`build_model` emits the gate-free model for one scenario; `run_scenario`
solves it and refuses to return a solution that fails independent
verification; `run_all_scenarios` produces the five-row comparison table and
`sweep_lambda` / `sweep_interval` the carbon-policy sensitivity series.
The paper's one-column rows (the fixed-ratio CHP corridor and WHB rows,
each store's end-of-day charge) enter the built model as bounds on their
columns, so no row of it has fewer than two columns; `verify_solution`
still checks them on the schedule.

Storage gates on demand.  The paper's model gives each store one binary
per period that stops it from charging and discharging at once.
`build_model` builds the model without any gate, which is an LP, and
`add_gates` appends the gate (the binary and its two rows) to a built
model for the (carrier, period) pairs it is given.  `run_scenario` builds
the gate-free model once and solves it.  It then applies the exclusivity
test of `verify_solution` to the schedule, appends the gates of the pairs
that fail to the same model, and solves again, until no ungated pair
fails.  Each round adds at least one gate, and with every gate the model
is the paper's, so the loop ends.  The result is as good as a solve of
the fully gated model:

- every gate only cuts the feasible set, so the optimum of a model with
  fewer gates is a lower bound on that of the fully gated model;
- a schedule that meets exclusivity is feasible for the fully gated model
  (to the verification tolerance) once each gate is set to 1 where its
  store charges and to 0 elsewhere, so an LP optimum that meets it is
  optimal there too;
- in a round with gates the solver stops within ``gap_tol`` of that
  round's optimum, a lower bound by the first point, so the schedule is
  within ``gap_tol`` of the fully gated optimum.

Li, Guo, Sun & Wang (IEEE Trans. Power Syst. 31(2), 2016) give conditions
under which the gate-free relaxation is exact a priori; the check after
each solve makes them unnecessary here.

Sweeps build once.  Along a sweep only the carbon base price lambda or the
tier width d moves, and in the built model lambda enters only the costs of
the carbon ladder and d only the right-hand sides of its knee rows
(`carbon.encode_carbon_cost`).  `carbon.price_ladder` computes both, for
`build_model` and for `_reprice` alike, and both hand ``set_objective`` the
forms of `_objective`: the purchase, compensation and maintenance costs
and the carbon cost, which it sums into the model's cost vector in one
pass.  So within a sweep chunk a point takes the gate-free model
of the point before it and re-prices it, and the result is, bit for bit,
the model `build_model` makes for the new point, provided the rest of the
case, the scenario and the options are the same, and lambda > 0 holds on
both points or on neither (it decides whether the ladder is built at all).
The chunk's slot (`_ModelSlot`) holds that model.  The model keeps its
compiled arrays, and the embedded backend keeps its HiGHS core beside it
(`solver.branch_bound`), which restarts hot after an optimal point, so a
re-priced point pays for its costs, the knee rows it moves and the simplex
iterations, not for what stayed.  A point passes the model on only if it
ended verified with no gate added, so a gated or failed point makes the
next one build afresh, and so load a new core.  The slot keeps the check
plan that point's solution was verified with beside the model
(`_CheckPlan`: what `verify_solution` reads of the case), and hands it on
with the model.  The plan reads neither lambda nor d, and the re-priced
model has the same VarMap, so the next point's solution has the shape it
was laid out for: reusing it is exact.  Extraction reads the VarMap
through a read layout kept on the VarMap (`_ReadLayout`), so a re-priced
point works out neither the plan nor the layout again.

Powers are kW, energies kWh, emissions kg, money in currency units.
"""

from __future__ import annotations

from contextvars import ContextVar
from dataclasses import dataclass, field, fields, replace
from itertools import chain
from operator import attrgetter

import numpy as np

from . import carbon as carbon_mod
from .carbon import CarbonLadder, FlowSchedule, emission_account
from .demand_response import (
    DR_TYPES,
    SHIFT,
    SUBSTITUTE,
    DrVarMap,
    build_dr_blocks,
    decompose_loads,
    satisfaction_index,
)
from .milp_ir import (
    BINARY,
    CONTINUOUS,
    EQ,
    LE,
    LinearForm,
    MilpModel,
    linear_form,
    TangentEnvelope,
    pwl_convex,
    pwl_convex_error_bound,
    quad_value,
    stack_rows,
    tangent_envelope,
)
from .model_core import (
    CARRIERS,
    MECHANISM_NONE,
    MECHANISM_TIERED,
    MECHANISM_TRADITIONAL,
    CarbonPolicy,
    CaseData,
    chp_params,
    gt_gas_cap,
    require_valid,
)
from .solver import BACKENDS, MilpOptions, NumericalFailure, get_backend, solve_milp

ELECTRIC, GAS, HEAT = CARRIERS

# the embedded backend (solve_milp), then the solver registry's backends
BACKEND_NAMES = ("embedded", *BACKENDS)

MAX_PWL_SEGMENTS = 4096  # full S5 peaks at about 350 MB here; more ends as a ValueError, not a MemoryError


class DispatchError(Exception):
    """A scenario run that ends without a solution it can trust.

    ``status`` is its row status: "infeasible" when screening rules the case
    out, the solver's status when it finds no incumbent, "numerical_failure"
    when a HiGHS run certifies no outcome, or "verification_failed".
    """

    status: str


class StaticInfeasibleError(DispatchError):
    """A constraint family is unsatisfiable before any solve is attempted."""

    status = "infeasible"

    def __init__(self, family: str, message: str):
        super().__init__(f"{family}: {message}")
        self.family = family


class SolveFailedError(DispatchError):
    """The solver returned no usable incumbent."""

    def __init__(self, scenario_id: str, status: str, detail: str = ""):
        msg = f"scenario {scenario_id}: solver status {status!r}"
        super().__init__(f"{msg} ({detail})" if detail else msg)
        self.scenario_id = scenario_id
        self.status = status


class VerificationError(DispatchError):
    """An extracted solution failed independent recomputation."""

    status = "verification_failed"

    def __init__(self, scenario_id: str, failures: list[str]):
        super().__init__(
            f"scenario {scenario_id}: {len(failures)} verification failure(s): "
            + "; ".join(failures[:5])
        )
        self.failures = failures


# -- scenarios -----------------------------------------------------------------


@dataclass(frozen=True)
class ScenarioSpec:
    """One pricing/demand-response configuration.

    carbon_in_objective: whether the carbon trading cost is part of the
    minimized objective (it is always reported).  mechanism: how that cost
    is computed ("none", "traditional" single price or "tiered" escalating
    prices); any other raises ValueError.
    """

    id: str
    carbon_in_objective: bool
    mechanism: str
    dr_shift: bool
    dr_substitute: bool

    def __post_init__(self):
        if self.mechanism not in (MECHANISM_NONE, MECHANISM_TRADITIONAL, MECHANISM_TIERED):
            raise ValueError(f"scenario {self.id}: unknown mechanism {self.mechanism!r}")


SCENARIOS: dict[str, ScenarioSpec] = {
    "S1": ScenarioSpec("S1", False, MECHANISM_TIERED, False, False),
    "S2": ScenarioSpec("S2", True, MECHANISM_TRADITIONAL, False, False),
    "S3": ScenarioSpec("S3", True, MECHANISM_TIERED, False, False),
    "S4": ScenarioSpec("S4", True, MECHANISM_TIERED, True, False),
    "S5": ScenarioSpec("S5", True, MECHANISM_TIERED, True, True),
}
SCENARIO_IDS = tuple(SCENARIOS)


def as_scenario(scenario) -> ScenarioSpec:
    """Accept a ScenarioSpec or one of the bundled ids."""
    if isinstance(scenario, ScenarioSpec):
        return scenario
    try:
        return SCENARIOS[str(scenario)]
    except KeyError:
        raise ValueError(
            f"unknown scenario {scenario!r} (bundled: {', '.join(SCENARIO_IDS)})"
        ) from None


@dataclass(frozen=True, kw_only=True)
class DispatchOptions(MilpOptions):
    """Solver and approximation settings for scenario runs.

    :class:`MilpOptions` with a 1e-4 default gap, plus the segments per
    linearized emission curve (1 to ``MAX_PWL_SEGMENTS``) and the backend,
    one of ``BACKEND_NAMES``.
    The embedded and scipy-milp backends take them as they are; external
    passes none of them to its command.  Fields are keyword-only, and a
    bad one raises ValueError at construction.
    """

    gap_tol: float = 1e-4
    pwl_segments: int = 8
    backend: str = "embedded"

    def __post_init__(self):
        super().__post_init__()
        if type(self.pwl_segments) is not int:  # 4.0 and True are refused too
            raise ValueError(f"pwl_segments {self.pwl_segments!r}: need an int")
        if not self.pwl_segments >= 1:
            raise ValueError(f"pwl_segments {self.pwl_segments!r}: need at least 1 segment")
        if not self.pwl_segments <= MAX_PWL_SEGMENTS:
            raise ValueError(f"pwl_segments {self.pwl_segments!r}: need at most {MAX_PWL_SEGMENTS} segments")
        if self.backend not in BACKEND_NAMES:
            raise ValueError(f"backend {self.backend!r}: unknown; known: {', '.join(BACKEND_NAMES)}")


# -- model assembly --------------------------------------------------------------


@dataclass
class StorageBlock:
    """Column ids of one storage unit, one per period; ``gate`` maps each gated period to its binary."""

    charge: np.ndarray
    discharge: np.ndarray
    soc: np.ndarray
    gate: dict[int, int] = field(default_factory=dict)


@dataclass
class VarMap:
    """Handles into the built model.

    ``flows`` maps each per-period flow of DispatchSolution (``p_e_buy``,
    ``p_gt_h``, ...) to ``(ids, coeff)``, worth ``coeff * x[ids[t]]`` in
    period t, or to None for an absent device.  ``cost_buy``, ``cost_dr``,
    ``cost_maint`` and ``carbon_cost`` are the parts of the objective
    (`_objective`); a re-price replaces only ``carbon_cost``.
    ``knees_d`` is the ``interval_d`` the ladder's knee rows were set for.
    ``read`` is `_extract`'s layout of these handles, worked out at its
    first call.
    """

    scenario: ScenarioSpec
    options: DispatchOptions
    wind_available: tuple[float, ...]
    flows: dict = field(default_factory=dict)
    storage: dict[str, StorageBlock] = field(default_factory=dict)
    dr: DrVarMap | None = None
    cost_buy: LinearForm | None = None
    cost_dr: LinearForm | None = None
    cost_maint: LinearForm | None = None
    carbon_cost: LinearForm | None = None
    ladder: CarbonLadder | None = None
    actual: LinearForm | None = None
    pwl_bound_kg: float = 0.0
    knees_d: float | None = None
    read: "_ReadLayout | None" = field(default=None, repr=False, compare=False)


def _gas_unit_reach(case: CaseData) -> tuple[float, float, float]:
    """Largest output in one period of the GT (electric, useful heat) and of the gas boiler (heat).

    The GT reaches as far as the bound on its gas column
    (`model_core.gt_gas_cap`) lets it, so nowhere when held off.
    """
    _, whb, eps_e, eps_h, _, whb_cap = chp_params(case)
    upper = gt_gas_cap(case).upper
    gb = case.converter("GB")
    gt_heat = min(eps_h * upper, whb_cap) if whb else 0.0
    gb_heat = gb.efficiencies.get("heat", 0.0) * gb.capacity_kw if gb else 0.0
    return eps_e * upper, gt_heat, gb_heat


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


def _screen(case: CaseData, scenario: ScenarioSpec, dec):
    """Reject loads no combination of devices could ever serve.

    Every period and carrier is tested at once; the first failure in period
    order, then carrier order, is reported.
    """
    gt_e_max, gt_heat_max, gb_heat_max = _gas_unit_reach(case)
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


# A per-period flow is (ids, coeff): coeff * x[ids[t]] in period t, or None
# for an absent device.  Flows on a shared column are added in list order.
# The floating-point operation order of every coefficient is part of the
# pinned model fingerprints (tests/test_model_fingerprint.py).


def _scaled(flow, k: float):
    return None if flow is None else (flow[0], flow[1] * k)


def _merged(*flows):
    """The flows with the coefficients of a shared column added, absent ones dropped."""
    out, slot = [], {}  # the place in out of each ids array, by identity
    for flow in filter(None, flows):
        i = slot.setdefault(id(flow[0]), len(out))
        if i < len(out):
            out[i] = (flow[0], out[i][1] + flow[1])
        else:
            out.append(flow)
    return out


def _flow_sum(flows, periods: int, scale: float, constant: float = 0.0) -> LinearForm:
    """``constant + scale * sum_t sum_f coeff_f * x[ids_f[t]]``, terms in (period, flow) order."""
    cols, coeffs = _flow_block([flows], periods)
    return linear_form(cols, coeffs * scale, constant)


def _columns(model: MilpModel, tags, *families) -> np.ndarray:
    """Add continuous columns interleaved by period, one per tag and family ``(name prefix, lower, upper)``.

    Bounds are scalars or one per tag.  Returns the ids shaped (periods, families).
    """
    bounds = np.empty((2, len(tags), len(families)))
    for f, (_, lower, upper) in enumerate(families):
        bounds[0, :, f], bounds[1, :, f] = lower, upper
    names = [f[0] + tag for tag in tags for f in families]
    return model.add_variables(CONTINUOUS, bounds[0].ravel(), bounds[1].ravel(), names).reshape(len(tags), -1)


def _flow_block(flow_lists, periods: int):
    """(cols, coeffs) rows, one per period and flow list, interleaved by period."""
    flow_lists = [_merged(*flows) for flows in flow_lists]
    width = max(map(len, flow_lists))
    cols = np.zeros((periods, len(flow_lists), width), dtype=np.int64)
    coeffs = np.zeros(cols.shape)
    for f, flows in enumerate(flow_lists):
        for j, (ids, coeff) in enumerate(flows):
            cols[:, f, j] = ids
            coeffs[:, f, j] = coeff
    return cols.reshape(-1, width), coeffs.reshape(-1, width)


def _rows(tags, *families) -> tuple:
    """The arguments of one :meth:`MilpModel.add_rows` call for a group of rows.

    Its rows are interleaved by period, one per tag and family ``(name
    prefix, flows, relation, rhs)``, with rhs a scalar or one per tag;
    rows with fewer flows pad with zero coefficients.
    """
    cols, coeffs = _flow_block([family[1] for family in families], len(tags))
    rhs = np.empty((len(tags), len(families)))
    for f, family in enumerate(families):
        rhs[:, f] = family[3]
    return (cols, coeffs, [family[2] for family in families] * len(tags), rhs.ravel(),
            [family[0] + tag for tag in tags for family in families])


def build_model(case: CaseData, scenario, options: DispatchOptions | None = None):
    """Assemble the gate-free model for one scenario; returns (model, VarMap).

    The model has no storage gate, so it is an LP; `add_gates` appends the
    gates to it (see the module docstring).  Each group of device columns
    enters where it is declared; the rows of one part of the model (the
    devices, demand response, the balances, the envelope cuts, the carbon
    rows) enter as one block, in the order a block per family would give.
    An invalid case raises UnitError (``require_valid``), the one check the
    builders rely on.

    No row has a single column: a one-column row ``a * x <= b`` with ``a !=
    0`` is a bound on ``x``, so the model states it as one.  The feasible
    set is the same, so the optimum is the same (Andersen & Andersen, Math.
    Prog. 71, 1995, section 3).  Two families of the paper's rows are such
    bounds:

    - In fixed-ratio CHP mode one gas column ``g`` carries both GT outputs,
      so the corridor rows ``a_lo * g <= 0``, ``a_hi * g <= 0`` and the WHB
      row ``eps_h * g <= whb_cap`` have one column each.  ``a > 0`` in a
      corridor row sets g's upper bound to 0 (the unit is off), ``a <= 0``
      holds for every ``g >= 0``, and the WHB row caps g at ``whb_cap /
      eps_h``.  The bound is `model_core.gt_gas_cap`'s; one below
      ``min_output_kw`` raises StaticInfeasibleError.
    - A store ends the day at its initial charge: the row ``soc[T-1] =
      initial`` is the bounds ``[initial, initial]`` of its last state of
      charge.  `validate_case` keeps ``initial`` inside ``[soc_min,
      soc_max]``, the bounds they replace, so none is lost or inverted.
    """
    scenario = as_scenario(scenario)
    options = options or DispatchOptions()
    require_valid(case)
    dec = decompose_loads(case)
    _screen(case, scenario, dec)
    periods = case.horizon.periods
    dt = case.horizon.step_hours
    tags = [f"t{t:02d}" for t in range(periods)]
    previous = np.arange(periods) - 1  # the period before each, the last one's for the first
    model = MilpModel(name=f"dispatch_{scenario.id}")
    avail = tuple(min(f, case.wind_max_kw) for f in case.wind_profile)
    vm = VarMap(scenario=scenario, options=options, wind_available=avail)
    # the VarMap flows; those of absent devices stay None
    flows = dict.fromkeys(("p_e_buy", "p_g_buy", "p_dg", "p_p2g_e", "p_p2g_g", "p_g_gt", "p_gt_e",
                           "p_gt_h", "p_g_gb", "p_gb_h"))

    # the devices' columns, a group at a time, and their rows, added as one block
    rows = []
    cap_e, cap_g = case.purchase_caps
    e_buy, g_buy, dg = _columns(model, tags, ("p_e_buy_", 0.0, cap_e), ("p_g_buy_", 0.0, cap_g),
                                ("p_dg_", 0.0, avail)).T
    flows["p_e_buy"], flows["p_g_buy"], flows["p_dg"] = (e_buy, 1.0), (g_buy, 1.0), (dg, 1.0)

    def add_ramp(name, ids, cap, frac):
        step = frac * cap
        now, before = ids[1:], ids[:-1]
        rows.append(_rows(tags[1:], (f"ramp_{name}_up_", [(now, 1.0), (before, -1.0)], LE, step),
                          (f"ramp_{name}_dn_", [(before, 1.0), (now, -1.0)], LE, step)))

    p2g = case.converter("P2G")
    if p2g and p2g.capacity_kw > 0:
        (v,) = _columns(model, tags, ("p_p2g_e_", p2g.min_output_kw, p2g.capacity_kw)).T
        flows["p_p2g_e"], flows["p_p2g_g"] = (v, 1.0), (v, float(p2g.efficiencies.get("gas", 0.0)))
        add_ramp("p2g", v, p2g.capacity_kw, p2g.ramp_fraction)

    gt, _, eps_e, eps_h, gt_cap, _ = chp_params(case)
    if gt and gt_cap > 0:
        if case.chp.extraction_mode:
            g, pe, ph = _columns(model, tags, ("p_g_gt_", gt.min_output_kw, gt_cap),
                                 ("p_gt_e_", 0.0, eps_e * gt_cap), ("p_gt_h_", 0.0, _gas_unit_reach(case)[1])).T
            flows["p_gt_e"], flows["p_gt_h"] = (pe, 1.0), (ph, 1.0)
            rows.append(_rows(tags, ("chp_e_fuel_", [(pe, 1.0), (g, -eps_e)], LE, 0.0),
                              ("chp_h_fuel_", [(ph, 1.0), (g, -eps_h)], LE, 0.0),
                              ("chp_ratio_lo_", [(pe, case.chp.ratio_min), (ph, -1.0)], LE, 0.0),
                              ("chp_ratio_hi_", [(ph, 1.0), (pe, -case.chp.ratio_max)], LE, 0.0)))
        else:  # the corridor and WHB rows are bounds on g (docstring)
            bound = gt_gas_cap(case)
            if bound.infeasible:
                raise StaticInfeasibleError(bound.family, bound.why)
            (g,) = _columns(model, tags, ("p_g_gt_", gt.min_output_kw, bound.upper)).T
            flows["p_gt_e"], flows["p_gt_h"] = (g, float(eps_e)), (g, float(eps_h))
        flows["p_g_gt"] = (g, 1.0)
        add_ramp("gt", g, gt_cap, gt.ramp_fraction)

    gb = case.converter("GB")
    if gb and gb.capacity_kw > 0:
        (g_gb,) = _columns(model, tags, ("p_g_gb_", gb.min_output_kw, gb.capacity_kw)).T
        flows["p_g_gb"], flows["p_gb_h"] = (g_gb, 1.0), (g_gb, float(gb.efficiencies.get("heat", 0.0)))
        add_ramp("gb", g_gb, gb.capacity_kw, gb.ramp_fraction)

    for sto in case.storages:
        cap = sto.capacity_kwh
        plim = sto.power_limit_fraction * cap
        k = sto.carrier
        initial = sto.soc_initial_frac * cap
        # the last period's soc is fixed at the initial charge (docstring)
        soc_lo, soc_hi = np.full(periods, sto.soc_min_frac * cap), np.full(periods, sto.soc_max_frac * cap)
        soc_lo[-1] = soc_hi[-1] = initial
        ch, dis, soc = _columns(
            model, tags, (f"st_{k}_ch_", 0.0, plim), (f"st_{k}_dis_", 0.0, plim), (f"st_{k}_soc_", soc_lo, soc_hi),
        ).T
        # soc[t] - soc[t-1] - charge + discharge = 0, with the initial charge for soc[-1]
        # (period 0's soc[t-1] slot holds soc[-1] with coefficient 0)
        prev_coeff = np.full(periods, -1.0)
        prev_coeff[0] = 0.0
        soc_rhs = np.zeros(periods)
        soc_rhs[0] = initial
        soc_flows = [(soc, 1.0), (ch, -(sto.charge_eff * dt)), (dis, dt / sto.discharge_eff), (soc[previous], prev_coeff)]
        rows.append(_rows(tags, (f"storage_{k}_soc_", soc_flows, EQ, soc_rhs)))
        vm.storage[k] = StorageBlock(ch, dis, soc)
    if rows:
        model.add_rows(*stack_rows(*rows))

    vm.dr = build_dr_blocks(case, scenario, model, dec)

    def balance(carrier, *supply):
        terms = list(supply)
        if carrier in vm.storage:
            blk = vm.storage[carrier]
            terms += [(blk.discharge, 1.0), (blk.charge, -1.0)]
        terms += [_scaled(flow, -1.0) for flow in _dr_flows(vm.dr, carrier)]
        return f"balance_{carrier}_", terms, EQ, case.loads[carrier].values

    model.add_rows(*_rows(
        tags,
        balance(ELECTRIC, flows["p_e_buy"], flows["p_dg"], flows["p_gt_e"], _scaled(flows["p_p2g_e"], -1.0)),
        balance(GAS, flows["p_g_buy"], flows["p_p2g_g"], _scaled(flows["p_g_gt"], -1.0),
                _scaled(flows["p_g_gb"], -1.0)),
        balance(HEAT, flows["p_gt_h"], flows["p_gb_h"]),
    ))

    vm.flows = flows
    tariffs = case.tariffs
    vm.cost_buy = _flow_sum([(e_buy, tariffs.electricity_price), (g_buy, tariffs.gas_price)], periods, dt)
    vm.cost_dr = vm.dr.compensation
    omega = case.maintenance
    maint = [_scaled(flows[attr], omega.get(unit, 0.0)) for attr, unit in
             (("p_dg", "wind"), ("p_p2g_g", "P2G"), ("p_gt_e", "GT"), ("p_gt_h", "WHB"), ("p_gb_h", "GB"))]
    for k, blk in vm.storage.items():
        weight = omega.get(f"storage_{k}", 0.0)
        maint += [(blk.charge, weight), (blk.discharge, weight)]
    vm.cost_maint = _flow_sum(maint, periods, dt)

    # at a zero base price every tier costs nothing, whatever the share, and
    # nothing holds the envelope columns on their curves: build it unpriced like S1
    if scenario.carbon_in_objective and case.carbon.lambda_base > 0:
        policy = _policy(case, scenario)
        vm.ladder, vm.actual, vm.pwl_bound_kg = _encode_carbon(
            case, options, model, vm.dr, policy, tags, flows
        )
        vm.carbon_cost, _ = carbon_mod.price_ladder(vm.ladder, policy)
        vm.knees_d = policy.interval_d
    model.set_objective(*_objective(vm))
    return model, vm


def _policy(case: CaseData, scenario: ScenarioSpec):
    """The case's carbon policy priced by the scenario's mechanism."""
    if case.carbon.mechanism == scenario.mechanism:
        return case.carbon
    return replace(case.carbon, mechanism=scenario.mechanism)


def _objective(vm: VarMap) -> tuple[LinearForm, ...]:
    """The purchase, compensation and maintenance costs and, when priced, the carbon cost."""
    fixed = (vm.cost_buy, vm.cost_dr, vm.cost_maint)
    return fixed if vm.carbon_cost is None else (*fixed, vm.carbon_cost)


def _reprice(case: CaseData, model: MilpModel, vm: VarMap) -> None:
    """Price a built model's carbon ladder for ``case.carbon``, as `build_model` would.

    Exact when the model was built for a case that differs from ``case``
    at most in ``lambda_base`` and ``interval_d``, with the same sign of
    ``lambda_base > 0``: those two enter only the ladder's costs and knee
    right-hand sides, which `carbon.price_ladder` computes here as in the
    build, and ``set_objective`` sums the forms of `_objective` as there.
    The knee rows are set again only when ``interval_d`` moves, the one
    field they read, so after a lambda step the model keeps its compiled
    row bounds.
    """
    if vm.ladder is None:
        return
    policy = _policy(case, vm.scenario)
    vm.carbon_cost, rhs = carbon_mod.price_ladder(vm.ladder, policy)
    if policy.interval_d != vm.knees_d:
        model.set_rhs(vm.ladder.knees, rhs)
        vm.knees_d = policy.interval_d
    model.set_objective(*_objective(vm))


def add_gates(case: CaseData, model: MilpModel, vm: VarMap, pairs) -> None:
    """Append the paper's storage gate to a built model for each (carrier, period) pair.

    A gate is the binary ``st_{k}_gate_tNN`` with the rows
    ``storage_{k}_gate_ch_tNN`` (charge <= limit * gate) and
    ``storage_{k}_gate_dis_tNN`` (discharge <= limit * (1 - gate)); each
    is recorded in ``vm.storage[k].gate``.  The pairs must not be gated yet.
    """
    for k, blk in vm.storage.items():
        periods = sorted(t for carrier, t in pairs if carrier == k)
        if not periods:
            continue
        sto = case.storage(k)
        plim = sto.power_limit_fraction * sto.capacity_kwh
        tags = [f"t{t:02d}" for t in periods]
        gate = model.add_variables(BINARY, 0.0, 1.0, [f"st_{k}_gate_{tag}" for tag in tags])
        model.add_rows(*_rows(
            tags,
            (f"storage_{k}_gate_ch_", [(blk.charge[periods], 1.0), (gate, -plim)], LE, 0.0),
            (f"storage_{k}_gate_dis_", [(blk.discharge[periods], 1.0), (gate, plim)], LE, plim),
        ))
        blk.gate.update(zip(periods, gate.tolist()))


def _dr_flows(dr: DrVarMap, carrier: str) -> list:
    """A carrier's demand-response load change: P_in - P_out per enabled type."""
    return [flow for dtype in DR_TYPES if (carrier, dtype) in dr.p_in
            for flow in ((dr.p_in[carrier, dtype], 1.0), (dr.p_out[carrier, dtype], -1.0))]


def _encode_carbon(case, options, model, dr, policy, tags, flows):
    """Emission accounting forms plus the trading-cost encoding.

    Returns the ladder's handles (`carbon.CarbonLadder`), the actual
    emission form and the envelope's error bound in kg.

    Actual emissions are quadratic in purchased power and in the combined
    gas-unit output; each quadratic is replaced per period by its tangent
    envelope (a guaranteed underestimator with a quadratic error law), so
    the model stays linear.  The envelopes of all periods are one block,
    coal and gas interleaved by period.  The quota and the remaining
    emission terms are affine and exact.
    """
    periods = len(tags)
    dt = case.horizon.step_hours
    n = options.pwl_segments
    q_max = sum(_gas_unit_reach(case))
    curves = [(name, x, quad, x_max) for name, x, quad, x_max in (
        ("em_coal", [flows["p_e_buy"]], policy.coal_quad, case.purchase_caps[0]),
        ("em_gas", [flows["p_gt_e"], flows["p_gt_h"], flows["p_gb_h"]], policy.gas_quad, q_max),
    ) if x_max > 0]
    # an absent curve is the constant f(0) in every period
    envelope = {"em_coal": None, "em_gas": None}
    if curves:
        cols, coeffs = _flow_block([x for _, x, _, _ in curves], periods)
        y = pwl_convex(model, cols, coeffs, np.tile(np.array([c[2] for c in curves], dtype=float), (periods, 1)),
                       np.tile([c[3] for c in curves], periods), n,
                       [f"{c[0]}_{tag}" for tag in tags for c in curves]).reshape(periods, -1)
        envelope.update((c[0], (y[:, j], 1.0)) for j, c in enumerate(curves))
    f0 = 0.0 if envelope["em_coal"] else quad_value(policy.coal_quad, 0.0)
    f0 = f0 + (0.0 if envelope["em_gas"] else quad_value(policy.gas_quad, 0.0))
    bound = 0.0
    per_period = [pwl_convex_error_bound(quad[2], x_max, n) * dt for _, _, quad, x_max in curves]
    for _ in range(periods):
        for term in per_period:
            bound += term
    # the sums over periods of the per-period terms; the constants are added
    # period by period
    gas_dr = _dr_flows(dr, GAS)
    gas_load = case.loads[GAS].values
    actual_flows = [envelope["em_coal"], envelope["em_gas"],
                    *(_scaled(f, policy.delta_gasload) for f in gas_dr),
                    _scaled(flows["p_p2g_g"], -policy.theta_p2g)]
    chp_quota = _merged(_scaled(flows["p_gt_e"], policy.sigma_eh), flows["p_gt_h"])
    quota_flows = [_scaled(flows["p_e_buy"], policy.sigma_e),
                   *(_scaled(f, policy.sigma_h) for f in chp_quota),
                   _scaled(flows["p_gb_h"], policy.sigma_h),
                   *(_scaled(f, policy.sigma_gload) for f in gas_dr)]
    actual_const = quota_const = 0.0
    for load in gas_load:
        actual_const += (f0 + load * policy.delta_gasload) * dt
        quota_const += (0.0 + load * policy.sigma_gload) * dt
    actual = _flow_sum(actual_flows, periods, dt, actual_const)
    quota = _flow_sum(quota_flows, periods, dt, quota_const)
    return carbon_mod.encode_carbon_cost(model, policy, actual, quota), actual, bound


# -- solutions ---------------------------------------------------------------------


@dataclass(frozen=True)
class StorageSchedule:
    charge: tuple[float, ...]
    discharge: tuple[float, ...]
    soc: tuple[float, ...]


@dataclass(frozen=True)
class CostBreakdown:
    purchase: float
    carbon: float
    dr: float
    maintenance: float
    total: float


@dataclass
class DispatchSolution:
    """Per-period schedules plus cost/emission summary for one scenario run.

    `costs.carbon` and `emission` use the exact quadratic accounting of the
    final schedule; `surrogate_actual_kg` / `surrogate_carbon_cost` are the
    linearized figures the optimizer priced (None when carbon was excluded
    from the objective).  `objective` is the solver objective, which covers
    purchase, maintenance, compensation, and (when priced) the surrogate
    carbon cost.  `nodes` and `wall_time` add up the solves of every gate
    round; the other solver fields are the last round's.  An LP round's
    time covers the re-price of its HiGHS core, not the load of a new one.
    """

    scenario_id: str
    periods: int
    step_hours: float
    p_e_buy: tuple[float, ...]
    p_g_buy: tuple[float, ...]
    p_dg: tuple[float, ...]
    wind_available: tuple[float, ...]
    p_p2g_e: tuple[float, ...]
    p_p2g_g: tuple[float, ...]
    p_g_gt: tuple[float, ...]
    p_gt_e: tuple[float, ...]
    p_gt_h: tuple[float, ...]
    p_g_gb: tuple[float, ...]
    p_gb_h: tuple[float, ...]
    storage: dict[str, StorageSchedule]
    dr_delta: dict[str, dict[str, tuple[float, ...]]]
    adjusted_loads: dict[str, tuple[float, ...]]
    costs: CostBreakdown
    emission: object
    satisfaction: float
    surrogate_actual_kg: float | None
    surrogate_carbon_cost: float | None
    pwl_bound_kg: float
    pwl_segments: int
    objective: float
    bound: float
    gap: float
    nodes: int
    wall_time: float
    status: str
    verification: "VerificationReport | None" = None


@dataclass(frozen=True)
class _ReadLayout:
    """What `_extract` reads of a VarMap, worked out once per VarMap.

    ``ids`` holds one row of column ids per series, gathered from ``x`` at
    once: the present flows (``present``, with their ``coeffs``), each
    store's charge and discharge, each store's state of charge, and the
    demand-response ``P_in`` then ``P_out`` of each key of ``keys``.
    ``rounds`` is the order in which the adjustments reshape the loads:
    per type in DR_TYPES order, the rows of the carriers that have it and
    the index of their key.  ``loads`` are the case's loads, in CARRIERS
    order.
    """

    ids: np.ndarray
    coeffs: np.ndarray
    present: list
    keys: list
    rounds: list
    loads: np.ndarray


def _read_layout(case: CaseData, vm: VarMap) -> _ReadLayout:
    present = [name for name, flow in vm.flows.items() if flow is not None]
    powered = [vm.flows[name] for name in present]
    powered += [(ids, 1.0) for blk in vm.storage.values() for ids in (blk.charge, blk.discharge)]
    keys = list(vm.dr.p_in)
    ids = [ids for ids, _ in powered] + [blk.soc for blk in vm.storage.values()]
    ids += [vm.dr.p_in[key] for key in keys] + [vm.dr.p_out[key] for key in keys]
    rounds = []
    for dtype in DR_TYPES:
        chosen = [(CARRIERS.index(key[0]), i) for i, key in enumerate(keys) if key[1] == dtype]
        if chosen:
            rounds.append(tuple(np.array(side) for side in zip(*chosen)))
    return _ReadLayout(
        ids=np.array(ids, dtype=np.int64).reshape(len(ids), case.horizon.periods),
        coeffs=np.array([coeff for _, coeff in powered], dtype=float)[:, None],
        present=present, keys=keys, rounds=rounds,
        loads=np.array([case.loads[k].values for k in CARRIERS], dtype=float),
    )


def _extract(case: CaseData, scenario: ScenarioSpec, vm: VarMap, res) -> DispatchSolution:
    read = vm.read
    if read is None:
        read = vm.read = _read_layout(case, vm)
    x = np.asarray(res.x, dtype=float)
    periods = case.horizon.periods
    dt = case.horizon.step_hours
    # one gather for every per-period series: the flows and the storage
    # powers (each 0.0 + coeff * x[ids[t]], snapped to 0 below 1e-9), then
    # the states of charge and the demand-response magnitudes
    rows = x[read.ids]
    n_powered, n_keys = len(read.coeffs), len(read.keys)
    power = 0.0 + read.coeffs * rows[:n_powered]
    power[np.abs(power) < 1e-9] = 0.0
    power = list(map(tuple, power.tolist()))
    first_in = n_powered + len(vm.storage)
    soc = list(map(tuple, (0.0 + rows[n_powered:first_in]).tolist()))
    p_in, p_out = rows[first_in:first_in + n_keys], rows[first_in + n_keys:]
    flows = dict.fromkeys(vm.flows, (0.0,) * periods)
    flows.update(zip(read.present, power))
    charges = iter(power[len(read.present):])
    storage = {k: StorageSchedule(next(charges), next(charges), soc[i]) for i, k in enumerate(vm.storage)}
    # summed left to right, since the order fixes the reported bits: an
    # adjustment is 0.0 + x_in - x_out, a reshaped load the load plus
    # 0.0 + x_in - x_out + ... over its enabled types in DR_TYPES order
    dr_delta: dict[str, dict[str, tuple[float, ...]]] = {}
    for (k, dtype), series in zip(read.keys, ((0.0 + p_in) - p_out).tolist()):
        dr_delta.setdefault(k, {})[dtype] = tuple(series)
    change = np.zeros((len(CARRIERS), periods))
    for carriers, keys in read.rounds:
        change[carriers] = (change[carriers] + p_in[keys]) - p_out[keys]
    adjusted = dict(zip(CARRIERS, map(tuple, (read.loads + change).tolist())))
    schedule = FlowSchedule(step_hours=dt, p_g_load=adjusted[GAS],
                            **{k: flows[k] for k in ("p_e_buy", "p_gt_e", "p_gt_h", "p_gb_h", "p_p2g_g")})
    policy = _policy(case, scenario)
    account = emission_account(schedule, policy)
    carbon_exact = carbon_mod.carbon_cost(account.trading_share, policy)
    buy = vm.cost_buy.value(x)
    dr_cost = vm.cost_dr.value(x)
    maint = vm.cost_maint.value(x)
    costs = CostBreakdown(
        purchase=buy, carbon=carbon_exact, dr=dr_cost, maintenance=maint,
        total=buy + carbon_exact + dr_cost + maint,
    )
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
        satisfaction=satisfaction_index({k: case.loads[k].values for k in CARRIERS}, adjusted),
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


# -- verification ---------------------------------------------------------------


def _storage_overlaps(case: CaseData, storage: dict[str, StorageSchedule]) -> dict[tuple[str, int], float]:
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


def _solution_shape(sol: DispatchSolution) -> tuple:
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
    enters it, so a sweep chunk's point whose case differs from the plan's
    only in those two (`_repriceable`) reuses it.

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

    def __init__(self, case: CaseData, sol: DispatchSolution):
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
        self.envelopes = None
        if priced:
            carbon = case.carbon  # its quadratics are every mechanism's (`_policy`)
            quads, reach = (carbon.coal_quad, carbon.gas_quad), (case.purchase_caps[0], sum(_gas_unit_reach(case)))
            self.envelopes = [tangent_envelope(quad, x_max, segments) if x_max > 0 else quad_value(quad, 0.0)
                              for quad, x_max in zip(quads, reach)]


def _plan_for(case: CaseData, sol: DispatchSolution, plan: _CheckPlan | None) -> _CheckPlan:
    """``plan`` when it is laid out for the solution's shape, else a new plan of ``case``."""
    return plan if plan is not None and plan.shape == _solution_shape(sol) else _CheckPlan(case, sol)


def verify_solution(case: CaseData, scenario, sol: DispatchSolution, overlaps=None, plan=None) -> VerificationReport:
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
    ``carbon.interval_d``, which no plan reads (a sweep chunk hands its
    points the plan of the first).  Without one, or with one laid out for
    another shape of solution, the call builds its own.  ``overlaps`` is
    ``_storage_overlaps(case, sol.storage)`` when the caller has it already.
    """
    scenario = as_scenario(scenario)
    plan = _plan_for(case, sol, plan)
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
    carbon_exact = carbon_mod.carbon_cost(account.trading_share, policy)

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
            sol.pwl_bound_kg + 1e-9,
        )
        surrogate_share = surrogate - account.quota.total
        surrogate_cost = carbon_mod.carbon_cost(surrogate_share, policy)
        rel("surrogate_carbon_cost", sol.surrogate_carbon_cost, surrogate_cost,
            scale=max(abs(surrogate_cost), 1.0))
        expected_obj = buy + dr_cost + maint + surrogate_cost
    else:
        expected_obj = buy + dr_cost + maint
    check("objective_identity", abs(sol.objective - expected_obj), 1e-6 * max(1.0, abs(expected_obj)))

    failures = [f"{name}: residual {residual:.3e} exceeds {tol:.3e}" for name, residual, tol in checks
                if not (residual <= tol)]
    return VerificationReport(passed=not failures, checks=checks, failures=failures)


# -- runners -----------------------------------------------------------------------


@dataclass
class _ModelSlot:
    """A sweep chunk's model and check plan, kept from one point to the next.

    ``held`` is (case, model, VarMap) of the last point that ended verified
    with no gate added, or None, and ``plan`` the check plan that point's
    solution was verified with (`_CheckPlan`).  The embedded backend keeps
    the model's HiGHS core beside the model, so the core lives as long as
    it is held.  The plan is handed on with the model, so exactly when
    `_repriceable` holds: the next point's case then differs from the
    held one only in ``lambda_base`` and ``interval_d``, which the plan
    does not read, and its re-priced model has the same VarMap, so its
    solution has the shape the plan was laid out for.
    """

    held: tuple | None = None
    plan: _CheckPlan | None = None


_model_slot: ContextVar[_ModelSlot | None] = ContextVar("sweep_model", default=None)


def _repriceable(held, case: CaseData, scenario: ScenarioSpec, options: DispatchOptions) -> bool:
    """Whether `_reprice` turns the held gate-free model into ``build_model(case, scenario, options)``.

    It does when the scenario and options are the same and the case differs
    from the one the model was built for at most in ``carbon.lambda_base``
    and ``carbon.interval_d``, with ``lambda_base > 0`` on both or on neither.
    """
    built, _, vm = held
    return (vm.scenario == scenario and vm.options == options
            and (case.carbon.lambda_base > 0) == (built.carbon.lambda_base > 0)
            and _kept_case(case) == _kept_case(built) and _kept_carbon(case.carbon) == _kept_carbon(built.carbon))


# every field of a case but those a re-price sets (`_reprice`), as a tuple that
# compares as the dataclass does (reading ``vars`` instead would give each case a dict)
_kept_case = attrgetter(*(f.name for f in fields(CaseData) if f.name != "carbon"))
_kept_carbon = attrgetter(*(f.name for f in fields(CarbonPolicy) if f.name not in ("lambda_base", "interval_d")))


def run_scenario(case: CaseData, scenario, options: DispatchOptions | None = None) -> DispatchSolution:
    """Build, solve, extract, and verify one scenario, gating stores on demand.

    Raises StaticInfeasibleError / SolveFailedError / VerificationError
    rather than returning a solution that cannot be trusted, and UnitError
    (from ``require_valid``) for an invalid case.  A numerical failure of
    a HiGHS run is a SolveFailedError with status "numerical_failure".

    Inside a sweep chunk (`_sweep`) the model of the chunk's previous point
    is re-priced instead of built again when it can be (`_repriceable`).
    It is taken out of the chunk's slot here and put back only when this
    point ends verified with no gate added, so after a point that raises or
    adds gates the next one builds afresh.  The embedded backend solves a
    model's LPs on the core it keeps beside that model, so a re-priced
    point restarts on the core of the point before it and a built model
    loads its own.  The check plan travels with the model: a re-priced
    point verifies on the plan of the point before it, a built one on a
    plan of its own, so no plan outlives its chunk.
    """
    scenario = as_scenario(scenario)
    options = options or DispatchOptions()
    slot, held, plan = _model_slot.get(), None, None
    solve = solve_milp if options.backend == "embedded" else get_backend(options.backend).solve
    if slot is not None:
        held, plan, slot.held, slot.plan = slot.held, slot.plan, None, None
    if held is not None and _repriceable(held, case, scenario, options):
        # not validated again: it is the held, validated case but for lambda_base and
        # interval_d, which _sweep's check_grid kept positive and finite, all validate_case asks
        _, model, vm = held
        _reprice(case, model, vm)
    else:
        model, vm = build_model(case, scenario, options)
        plan = None
    # gates on demand (module docstring): a round that leaves no ungated
    # pair overlapping is the last; verify_solution judges the gated ones
    nodes, wall_time = 0, 0.0
    while True:
        try:
            res = solve(model, options)
        except NumericalFailure as exc:
            raise SolveFailedError(scenario.id, "numerical_failure", str(exc)) from None
        nodes, wall_time = nodes + res.nodes, wall_time + res.wall_time
        if res.x is None:
            raise SolveFailedError(scenario.id, res.status, f"bound {res.bound}, nodes {nodes}")
        sol = _extract(case, scenario, vm, res)
        overlaps = _storage_overlaps(case, sol.storage)
        failing = [(k, t) for k, t in overlaps if t not in vm.storage[k].gate]
        if not failing:
            break
        add_gates(case, model, vm, failing)
    sol.nodes, sol.wall_time = nodes, wall_time
    plan = _plan_for(case, sol, plan)
    report = verify_solution(case, scenario, sol, overlaps, plan)
    if not report.passed:
        raise VerificationError(scenario.id, report.failures)
    sol.verification = report
    if slot is not None and not any(blk.gate for blk in vm.storage.values()):
        slot.held, slot.plan = (case, model, vm), plan
    return sol


@dataclass
class ScenarioRow:
    """One line of the scenario comparison table."""

    scenario_id: str
    status: str
    error: str | None = None
    total_cost: float | None = None
    purchase_cost: float | None = None
    carbon_cost: float | None = None
    maintenance_cost: float | None = None
    dr_compensation: float | None = None
    emissions_kg: float | None = None
    quota_kg: float | None = None
    trading_share_kg: float | None = None
    satisfaction: float | None = None
    objective: float | None = None
    gap: float | None = None
    wall_time: float | None = None


@dataclass
class ScenarioReport:
    rows: list[ScenarioRow]
    solutions: dict[str, DispatchSolution]
    percentages: dict[str, dict[str, float]]


def _row_from_solution(sol: DispatchSolution) -> ScenarioRow:
    return ScenarioRow(
        scenario_id=sol.scenario_id,
        status=sol.status,
        total_cost=sol.costs.total,
        purchase_cost=sol.costs.purchase,
        carbon_cost=sol.costs.carbon,
        maintenance_cost=sol.costs.maintenance,
        dr_compensation=sol.costs.dr,
        emissions_kg=sol.emission.actual.total,
        quota_kg=sol.emission.quota.total,
        trading_share_kg=sol.emission.trading_share,
        satisfaction=sol.satisfaction,
        objective=sol.objective,
        gap=sol.gap,
        wall_time=sol.wall_time,
    )


def _scenario_task(args):
    case, scenario_id, options = args
    try:
        sol = run_scenario(case, scenario_id, options)
    except DispatchError as exc:
        return scenario_id, ScenarioRow(scenario_id, exc.status, error=str(exc)), None
    return scenario_id, _row_from_solution(sol), sol


def _check_jobs(jobs) -> None:
    """ValueError unless ``jobs`` is an int >= 1; a bool is refused too."""
    if type(jobs) is not int:
        raise ValueError(f"jobs {jobs!r}: need an int")
    if jobs < 1:
        raise ValueError(f"jobs {jobs!r}: need at least 1 job")


def _run_tasks(fn, tasks, jobs: int):
    if jobs > 1 and len(tasks) > 1:
        # deferred: importing multiprocessing costs every process that never forks
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            return list(pool.map(fn, tasks))
    return [fn(t) for t in tasks]


def run_all_scenarios(
    case: CaseData,
    options: DispatchOptions | None = None,
    scenario_ids=SCENARIO_IDS,
    jobs: int = 1,
) -> ScenarioReport:
    """Run the scenario set and derive the comparison table.

    Failures are recorded per row; the report always has one row per
    requested scenario, in request order.  Percentages compare each
    scenario's total cost and actual emissions against the first requested
    scenario (drops are positive).
    """
    _check_jobs(jobs)
    options = options or DispatchOptions()
    tasks = [(case, sid, options) for sid in scenario_ids]
    results = _run_tasks(_scenario_task, tasks, jobs)
    rows = [row for _sid, row, _sol in results]
    solutions = {sid: sol for sid, _row, sol in results if sol is not None}
    percentages: dict[str, dict[str, float]] = {}
    base = rows[0] if rows else None
    if base and base.total_cost:
        for row in rows[1:]:
            if row.total_cost is None:
                continue
            percentages[row.scenario_id] = {
                "cost_drop_pct": 100.0 * (base.total_cost - row.total_cost) / base.total_cost,
                "emission_drop_pct": (
                    100.0 * (base.emissions_kg - row.emissions_kg) / base.emissions_kg
                    if base.emissions_kg else 0.0
                ),
            }
    return ScenarioReport(rows=rows, solutions=solutions, percentages=percentages)


@dataclass
class SweepPoint(ScenarioRow):
    """A scenario row at one value of the swept parameter."""

    value: float = field(kw_only=True)


def check_grid(grid) -> list[float]:
    """The grid as floats; ValueError unless it is non-empty, finite, positive and strictly increasing."""
    values = [float(v) for v in grid]
    if not values:
        raise ValueError("empty sweep grid")
    if not all(0 < v < np.inf for v in values):
        raise ValueError("sweep grid values must be positive and finite")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ValueError("sweep grid must be strictly increasing")
    return values


def _chained_tasks(tasks):
    """Run the tasks in order with one slot, which holds one model at a time."""
    token = _model_slot.set(_ModelSlot())
    try:
        return [_scenario_task(t) for t in tasks]
    finally:
        _model_slot.reset(token)


def _sweep(case, scenario, grid, options, jobs, override) -> list[SweepPoint]:
    """Run the scenario once per grid value of the carbon-policy field ``override``.

    The grid is cut into ``min(jobs, points)`` contiguous chunks, each run
    with one slot that holds its model.  A point re-prices the
    model of the point before it rather than building its own: the field
    moves only the carbon ladder's costs (lambda) or its knee right-hand
    sides (d), and `carbon.price_ladder` computes those for the build and
    the re-price alike, so the re-priced model is the fresh build (module
    docstring).  It then solves on the HiGHS core kept beside that model,
    whose matrix is the same object, and restarts hot after an optimal one.
    Every point solves its own LP, so its objective is that of a
    single-point ``solve``; on a degenerate face the other columns can
    differ from one.
    """
    _check_jobs(jobs)
    values = check_grid(grid)
    scenario_id = as_scenario(scenario).id
    options = options or DispatchOptions()
    tasks = [(replace(case, carbon=replace(case.carbon, **{override: v})), scenario_id, options)
             for v in values]
    k = min(jobs, len(tasks))
    chunks = [tasks[len(tasks) * i // k:len(tasks) * (i + 1) // k] for i in range(k)]
    results = [r for chunk in _run_tasks(_chained_tasks, chunks, k) for r in chunk]
    return [SweepPoint(**vars(row), value=v) for v, (_sid, row, _sol) in zip(values, results)]


def sweep_lambda(case, scenario, grid, options=None, jobs: int = 1) -> list[SweepPoint]:
    """Re-solve along an increasing carbon base-price grid."""
    return _sweep(case, scenario, grid, options, jobs, "lambda_base")


def sweep_interval(case, scenario, grid, options=None, jobs: int = 1) -> list[SweepPoint]:
    """Re-solve along an increasing tier-width grid."""
    return _sweep(case, scenario, grid, options, jobs, "interval_d")
