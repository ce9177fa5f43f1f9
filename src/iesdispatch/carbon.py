"""Carbon accounting: free quota, actual emissions, and trading cost.

Quota side: purchased electricity, CHP output (electric counted via the
sigma_eh conversion), boiler heat, and gas load each earn a free allowance
per kWh.  Actual side: quadratic emission curves over purchased power and
over the combined CHP+boiler useful output, a linear gas-load term, and a
credit for CO2 absorbed by power-to-gas.  The trading share is actual minus
quota; positive shares are bought on a tiered price ladder (every further
interval_d kilograms cost a factor (1+alpha) more), negative shares are sold
at the base price.

All Sum-over-t terms multiply by step_hours so accounting is in energy
(kWh / kg) regardless of period length.  Scalar evaluators here are exact
and serve as the oracle for the MILP's piecewise-linear surrogate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .milp_ir import CONTINUOUS, GE, LinearForm, MilpModel, combine, linear_form, quad_value, stack_rows


@dataclass(frozen=True)
class FlowSchedule:
    """The per-period flows carbon accounting reads (all kW, length T)."""

    step_hours: float
    p_e_buy: tuple[float, ...]
    p_gt_e: tuple[float, ...]
    p_gt_h: tuple[float, ...]  # useful heat after the waste-heat boiler
    p_gb_h: tuple[float, ...]
    p_g_load: tuple[float, ...]  # gas load after any demand response
    p_p2g_g: tuple[float, ...]  # gas produced by power-to-gas


@dataclass(frozen=True)
class QuotaAccount:
    e_buy: float
    gt: float
    gb: float
    g_load: float

    @property
    def total(self) -> float:
        return self.e_buy + self.gt + self.gb + self.g_load


@dataclass(frozen=True)
class ActualAccount:
    e_buy: float
    gtgb: float
    g_load: float
    p2g: float  # absorbed, enters the total with a minus sign

    @property
    def total(self) -> float:
        return self.e_buy + self.gtgb + self.g_load - self.p2g


@dataclass(frozen=True)
class EmissionAccount:
    quota: QuotaAccount
    actual: ActualAccount

    @property
    def trading_share(self) -> float:
        return self.actual.total - self.quota.total


def quota_total(schedule: FlowSchedule, policy) -> QuotaAccount:
    """Free allowance from purchases, CHP, boiler heat, and gas load (kg)."""
    dt = schedule.step_hours
    return QuotaAccount(
        e_buy=policy.sigma_e * sum(schedule.p_e_buy) * dt,
        gt=policy.sigma_h
        * sum(policy.sigma_eh * pe + ph for pe, ph in zip(schedule.p_gt_e, schedule.p_gt_h))
        * dt,
        gb=policy.sigma_h * sum(schedule.p_gb_h) * dt,
        g_load=policy.sigma_gload * sum(schedule.p_g_load) * dt,
    )


def actual_emissions(schedule: FlowSchedule, policy) -> ActualAccount:
    """Exact quadratic emissions (kg); oracle for the PWL surrogate."""
    dt = schedule.step_hours
    e_buy = sum(quad_value(policy.coal_quad, p) for p in schedule.p_e_buy) * dt
    q_out = [pe + ph + pb for pe, ph, pb in zip(schedule.p_gt_e, schedule.p_gt_h, schedule.p_gb_h)]
    gtgb = sum(quad_value(policy.gas_quad, q) for q in q_out) * dt
    return ActualAccount(
        e_buy=e_buy,
        gtgb=gtgb,
        g_load=policy.delta_gasload * sum(schedule.p_g_load) * dt,
        p2g=policy.theta_p2g * sum(schedule.p_p2g_g) * dt,
    )


def emission_account(schedule: FlowSchedule, policy) -> EmissionAccount:
    return EmissionAccount(quota_total(schedule, policy), actual_emissions(schedule, policy))


# -- trading cost ----------------------------------------------------------------


def tier_knee(policy, k: int) -> float:
    """Cost at share k*interval_d; the branch constants telescope to this."""
    lam, alpha, d = policy.lambda_base, policy.alpha_growth, policy.interval_d
    return lam * d * (k + alpha * k * (k - 1) / 2.0)


def tier_slope(policy, k: int) -> float:
    """Price inside segment k (segment 0 ends at interval_d)."""
    return policy.lambda_base * (1.0 + k * policy.alpha_growth)


def n_tiers(policy) -> int:
    """Number of priced segments; the printed ladder has 6."""
    return 6 + policy.extra_tiers


def tier_cost(share: float, policy) -> float:
    """Tiered trading cost; negative shares earn the base-price subsidy."""
    d = policy.interval_d
    if share <= d:
        return policy.lambda_base * share
    k = min(int(math.ceil(share / d)) - 1, n_tiers(policy) - 1)
    return tier_knee(policy, k) + tier_slope(policy, k) * (share - k * d)


def traditional_cost(share: float, policy) -> float:
    """Single-price mechanism: base price times the share, either sign."""
    return policy.lambda_base * share


def carbon_cost(share: float, policy) -> float:
    if policy.mechanism == "tiered":
        return tier_cost(share, policy)
    if policy.mechanism == "traditional":
        return traditional_cost(share, policy)
    return 0.0


# -- MILP encoding ------------------------------------------------------------------


class CarbonLadder(NamedTuple):
    """Handles of an encoded trading cost: the share form, the s_k columns and their knee rows.

    ``s`` and ``knees`` are empty unless the mechanism is tiered; ``share``
    is an empty form when it is none.
    """

    share: LinearForm
    s: np.ndarray
    knees: range


def encode_carbon_cost(
    model: MilpModel,
    policy,
    actual: LinearForm,
    quota: LinearForm,
    name: str = "carbon",
) -> CarbonLadder:
    """Add the trading-cost structure for affine emission forms; returns its handles.

    The actual total is kept non-negative (a system can only sell surplus
    quota).  traditional: lambda * share, no variables.  none: zero.

    tiered: the ladder is lambda * share plus, for every knee k = 1..K-1, a
    further lambda * alpha per kilogram beyond k * interval_d, i.e.

        tier_cost(share) = lambda * share + lambda * alpha * sum_k max(0, share - k * d)

    for every share, negative shares and the open top segment included.
    Each max term becomes an epigraph variable s_k >= 0, s_k >= share - k * d
    (Vielma, "Mixed Integer Linear Programming Formulation Techniques", SIAM
    Review 2015).  With lambda, alpha >= 0 the weights are non-negative, so a
    minimising objective drives every s_k down to its max term and the
    cost form equals tier_cost(share) at the optimum; no binaries are
    added.  The objective is the form's only user.

    The knee rows are added with the right-hand sides `price_ladder` gives
    (`_knee_rhs`), and `price_ladder` prices the ladder again for another
    lambda or interval_d.

    ``policy`` is the carbon policy of a validated case
    (``model_core.require_valid``), which holds lambda, alpha >= 0 and
    interval_d > 0; nothing here checks them again.
    """
    if policy.mechanism == "none":
        return CarbonLadder(linear_form([]), np.zeros(0, dtype=np.int64), range(0))
    share = combine(actual, quota.scaled(-1.0))
    floor = (actual.ids[None, :], actual.coeffs[None, :], GE, 0.0 - actual.constant, [f"{name}_actual_floor"])
    if policy.mechanism == "traditional":
        model.add_rows(*floor)
        return CarbonLadder(share, np.zeros(0, dtype=np.int64), range(0))
    # one knee row s_k - share >= -k*d per tier, in one block with the floor row
    knees = range(1, n_tiers(policy))
    s = model.add_variables(CONTINUOUS, 0.0, math.inf, [f"{name}_s{k}" for k in knees])
    rows = model.add_rows(*stack_rows(floor, (
        np.column_stack([s, np.tile(share.ids, (len(s), 1))]),
        np.concatenate([[1.0], -share.coeffs]),
        GE,
        _knee_rhs(share, len(s), policy.interval_d),
        [f"{name}_s{k}_knee" for k in knees],
    )))
    return CarbonLadder(share, s, rows[1:])


def _knee_rhs(share: LinearForm, count: int, d: float) -> list[float]:
    """Right-hand sides ``-k*d - (0.0 - share.constant)`` of knee rows k = 1..count."""
    return [-k * d - (0.0 - share.constant) for k in range(1, count + 1)]


def price_ladder(ladder: CarbonLadder, policy) -> tuple[LinearForm, list[float]]:
    """The cost form of an encoded ladder and the right-hand sides of its knee rows.

    lambda enters only the cost form and interval_d only the right-hand
    sides of the knee rows (`_knee_rhs`, which moves the share's constant
    across).
    """
    if policy.mechanism == "none":
        return linear_form([]), []
    lam, alpha, d = policy.lambda_base, policy.alpha_growth, policy.interval_d
    if policy.mechanism == "traditional":
        return ladder.share.scaled(lam), []
    share, s = ladder.share.scaled(lam), linear_form(ladder.s, lam * alpha)
    # joined as combine would sum them, since the share's ids are distinct and the s
    # columns come after them; so a build's one np.unique call is the share's combine
    cost = LinearForm(np.concatenate([share.ids, s.ids]), np.concatenate([share.coeffs, s.coeffs]),
                      0.0 + share.constant + s.constant)
    return cost, _knee_rhs(ladder.share, len(ladder.s), d)
