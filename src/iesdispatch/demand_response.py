"""Demand-response load reshaping for the dispatch model.

Each load profile splits into fixed, shiftable, and substitutable parts.
Reshaping moves flexible energy between periods (shift: net-zero over the
horizon per carrier) or between carriers (substitution: energy-equivalent
across carriers per period).  Every per-period adjustment is split into
non-negative inflow/outflow magnitudes whose sum stands in for the absolute
deviation; the deviations feed a consumer-satisfaction floor and a per-kWh
compensation cost.  No binaries are needed: the sum only appears where a
smaller value is never worse (a compensation weight mu >= 0 and the
satisfaction floor), and |P_in - P_out| <= P_in + P_out, so any point with
both magnitudes positive can lower both by their minimum without losing
feasibility or raising the cost (the absolute-value LP reformulation, Boyd &
Vandenberghe, Convex Optimization, sections 4.1 and 6.1).

Powers are kW, energies kWh, compensation coefficients currency per kWh.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .milp_ir import CONTINUOUS, EQ, GE, LE, LinearForm, MilpModel, linear_form, stack_rows
from .model_core import CARRIERS, CaseData

SHIFT = "shift"
SUBSTITUTE = "substitute"
DR_TYPES = (SHIFT, SUBSTITUTE)


class DegenerateLoadError(ValueError):
    """Raised when a zero-energy carrier shows a nonzero deviation."""


@dataclass(frozen=True)
class LoadDecomposition:
    """Per-carrier flexible parts of each load profile, kW; the rest of the load is fixed."""

    shiftable_base: dict[str, tuple[float, ...]]
    substitutable_base: dict[str, tuple[float, ...]]


def decompose_loads(case: CaseData) -> LoadDecomposition:
    """Each period's shiftable and substitutable load: its configured fraction of that period's load."""
    return LoadDecomposition(*(
        {k: tuple(fractions.get(k, 0.0) * p for p in case.loads[k].values) for k in CARRIERS}
        for fractions in (case.dr.shiftable_fraction, case.dr.substitutable_fraction)
    ))


@dataclass
class DrVarMap:
    """Model handles for the reshaping blocks of one scenario build.

    Keys of the per-type maps are (carrier, type) with type in DR_TYPES, in
    the order the types were enabled.  `p_in` / `p_out` hold the column ids
    of the magnitudes per period, so the signed adjustment in period t is
    x[p_in[t]] - x[p_out[t]]; `compensation` is the total compensation cost
    in currency (already scaled by the period length).
    """

    p_in: dict[tuple[str, str], np.ndarray] = field(default_factory=dict)
    p_out: dict[tuple[str, str], np.ndarray] = field(default_factory=dict)
    compensation: LinearForm = field(default_factory=lambda: linear_form([]))


def build_dr_blocks(case: CaseData, scenario, model: MilpModel) -> DrVarMap:
    """Add reshaping variables and constraints; return the handle map.

    Per enabled (carrier, type, period): continuous magnitudes P_in, P_out
    >= 0 bounded by the adjustment window, so the signed adjustment is
    P_in - P_out and the deviation the sum P_in + P_out.  The sum equals
    |P_in - P_out| at every optimum because it is only ever penalised (mu
    >= 0) or bounded from above (satisfaction floor); the blocks add no
    binaries.  Shift adjustments cancel over the horizon per carrier;
    substitution adjustments cancel across carriers per period under the
    configured energy-equivalence weights (dr.literal_eq2 switches to the
    per-carrier net-zero reading instead).  The satisfaction floor bounds
    the summed relative deviations of all carriers.  The columns enter the
    model as one block and the rows as another.

    The scenario only contributes its dr_shift / dr_substitute flags;
    carriers are filtered by the case's dr.shift_carriers / subst_carriers.

    ``case`` is validated (``model_core.require_valid``): mu >= 0, and each
    shift window has max >= 0 and min <= max.  Nothing here checks them again.
    """
    dr = case.dr
    periods = case.horizon.periods
    dt = case.horizon.step_hours

    enabled: list[tuple[str, str]] = []
    if scenario.dr_shift:
        enabled += [(k, SHIFT) for k in CARRIERS if k in dr.shift_carriers]
    if scenario.dr_substitute:
        enabled += [(k, SUBSTITUTE) for k in CARRIERS if k in dr.subst_carriers]
    if not enabled:
        return DrVarMap()

    dec = decompose_loads(case)
    tags = [f"t{t:02d}" for t in range(periods)]
    # each pair's adjustment window, (low, high) per period
    windows = np.empty((len(enabled), periods, 2))
    mu_dt, names = [], []
    suffixes = [f"_{tag}_{side}" for tag in tags for side in ("in", "out")]
    for j, (carrier, dtype) in enumerate(enabled):
        override = dr.shift_bounds.get(carrier) if dtype == SHIFT else None
        if override is None:  # the window is +/- each period's base
            windows[j, :, 1] = dec.shiftable_base[carrier] if dtype == SHIFT else dec.substitutable_base[carrier]
            windows[j, :, 0] = -windows[j, :, 1]
        else:
            windows[j] = override
        mu = dr.mu_shift if dtype == SHIFT else dr.mu_subst
        mu_dt.append(mu * dt)
        prefix = f"dr_{dtype}_{carrier}"
        names += [prefix + suffix for suffix in suffixes]
    # one (P_in, P_out) column pair per period, bounded by (high, -low) where
    # positive; the adjustment is P_in - P_out
    reach = windows[:, :, ::-1] * (1.0, -1.0)
    upper = np.where(reach < 0.0, 0.0, reach)
    ids = model.add_variables(CONTINUOUS, 0.0, upper.ravel(), names).reshape(len(enabled), periods, 2)
    pairs = dict(zip(enabled, ids))
    vm = DrVarMap(dict(zip(enabled, ids[:, :, 0])), dict(zip(enabled, ids[:, :, 1])),
                  linear_form(ids.ravel(), np.repeat(mu_dt, 2 * periods)))
    rows = []  # the row blocks, added at the end as one
    # forced minimum inflow: the variable bounds alone cannot carry it
    floored = windows[:, :, 0] > 0.0
    for j, ((carrier, dtype), has_floor) in enumerate(zip(enabled, floored.any(axis=1).tolist())):
        name = f"dr_{dtype}_{carrier}"
        if has_floor:
            floor = np.flatnonzero(floored[j])
            rows.append((ids[j, floor], (1.0, -1.0), GE, windows[j, floor, 0],
                         [f"{name}_{tags[t]}_floor" for t in floor.tolist()]))
        if dtype == SHIFT or dr.literal_eq2:
            rows.append((ids[j].reshape(1, -1), (1.0, -1.0) * periods, EQ, 0.0, [f"{name}_net"]))

    subst_keys = [k for k in pairs if k[1] == SUBSTITUTE]
    if subst_keys and not dr.literal_eq2:
        weights = [dr.subst_conversion.get(carrier, 1.0) for carrier, _ in subst_keys]
        rows.append((np.hstack([pairs[k] for k in subst_keys]),
                     [w * s for w in weights for s in (1.0, -1.0)], EQ, 0.0,
                     [f"dr_subst_couple_{tag}" for tag in tags]))

    sat_cols, sat_coeffs = [np.zeros(0, dtype=np.int64)], [np.zeros(0)]
    for carrier in CARRIERS:
        energy = float(sum(case.loads[carrier].values))
        # the carrier's pairs (enabled lists them in DR_TYPES order), period by period
        cols = ids[[j for j, key in enumerate(enabled) if key[0] == carrier]].transpose(1, 0, 2).ravel()
        if energy > 0.0:
            sat_cols.append(cols)
            sat_coeffs.append(np.full(cols.size, 1.0 / energy))
        elif cols.size:
            # a zero-energy carrier cannot deviate without destroying
            # satisfaction, so pin its deviation instead of dividing
            rows.append((cols[None, :], 1.0, LE, 0.0, [f"dr_nodev_{carrier}"]))
    slack = len(CARRIERS) * (1.0 - dr.satisfaction_min)
    rows.append((np.concatenate(sat_cols)[None, :], np.concatenate(sat_coeffs)[None, :], LE, slack,
                 ["dr_satisfaction"]))
    model.add_rows(*stack_rows(*rows))
    return vm


def satisfaction_index(
    original: dict[str, Sequence[float]],
    adjusted: dict[str, Sequence[float]],
) -> float:
    """Mean per-carrier satisfaction: one minus the relative absolute deviation.

    A carrier with zero total load and zero deviation contributes a full
    term (no deviation was possible); zero load with nonzero deviation has
    no defined relative deviation and raises DegenerateLoadError.
    """
    if sorted(original) != sorted(adjusted):
        raise ValueError("carrier sets differ between original and adjusted loads")
    terms = []
    for carrier in sorted(original):
        orig = original[carrier]
        adj = adjusted[carrier]
        if len(orig) != len(adj):
            raise ValueError(f"{carrier}: horizon mismatch {len(orig)} vs {len(adj)}")
        energy = float(sum(orig))
        dev = float(sum(abs(a - o) for o, a in zip(orig, adj)))
        if energy == 0.0:
            if dev > 0.0:
                raise DegenerateLoadError(
                    f"{carrier}: deviation {dev} on a zero-energy profile"
                )
            terms.append(1.0)
        else:
            terms.append(1.0 - dev / energy)
    return sum(terms) / len(terms)
