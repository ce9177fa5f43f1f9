"""Verification's check plan and extraction's read layout against the code they replaced.

`verify_solution` reads the case through a check plan (`dispatch._CheckPlan`)
and `_extract` reads a VarMap through a read layout, each worked out once.
``milp_oracles.previous_verify_solution`` and ``previous_extract`` are the
verification and extraction before them; the solutions, check names,
residuals, tolerances and failures must agree bit for bit (pickled), on
optimal schedules, on schedules moved at random and on every tamper of
``test_dispatch``.  Only a NaN may differ, in the two checks whose NaN the
previous code dropped.  A sweep chunk hands each point the plan of the
point before it; the plan-reuse tests check every such point against a
fresh plan.
"""

import dataclasses
import math
import pickle
import random
from dataclasses import replace

import pytest

from milp_oracles import every_gate_model, previous_extract, previous_storage_overlaps, previous_verify_solution
from test_dispatch import DELTA, TAMPERS, serial_pool, sweep_spy  # noqa: F401 (the fixtures)

from iesdispatch import dispatch
from iesdispatch.dispatch import (
    SCENARIO_IDS,
    DispatchOptions,
    as_scenario,
    build_model,
    run_scenario,
    sweep_interval,
    sweep_lambda,
    verify_solution,
)
from iesdispatch.model_core import default_case_path, load_case, reduce_case, scale_profiles
from iesdispatch.solver import NumericalFailure, branch_bound, solve_milp

REDUCED = DispatchOptions(pwl_segments=4)


def _binding(case):
    # gates bind in S2 on this case (test_dispatch's binding_case)
    reduced = reduce_case(case, 4)
    return replace(reduced, carbon=replace(reduced.carbon, sigma_h=2.0, lambda_base=2.0))


def _cases():
    case = load_case(default_case_path())
    yield "full", case, DispatchOptions()
    yield "reduced", reduce_case(case, 2), REDUCED
    for seed in (0, 1):
        rng = random.Random(seed)
        factors = {k: rng.uniform(0.9, 1.1) for k in ("electric", "gas", "heat", "wind")}
        yield f"perturbed{seed}", scale_profiles(case, factors), DispatchOptions()
    yield "extraction", replace(case, chp=replace(case.chp, extraction_mode=True)), DispatchOptions()
    yield "literal-eq2", replace(case, dr=replace(case.dr, literal_eq2=True)), DispatchOptions()
    window = {"electric": (-40.0, 30.0), "gas": None, "heat": None}
    yield "shift-bounds", replace(case, dr=replace(case.dr, shift_bounds=window)), DispatchOptions()
    yield "no-storage", replace(case, storages=()), DispatchOptions()
    yield "no-p2g", replace(case, converters=tuple(c for c in case.converters if c.name != "P2G")), DispatchOptions()
    yield "one-period", reduce_case(case, 24), DispatchOptions()
    yield "binding", _binding(case), REDUCED


CASES = {label: (case, options) for label, case, options in _cases()}


def _same(a, b) -> bool:
    return pickle.dumps(a) == pickle.dumps(b)


def _moved(sol, rng: random.Random):
    """The solution with every schedule value moved by U(-5, 5)."""
    def jitter(values):
        return tuple(v + rng.uniform(-5.0, 5.0) for v in values)

    flows = {f.name: jitter(getattr(sol, f.name)) for f in dataclasses.fields(sol) if f.name.startswith("p_")}
    storage = {k: replace(s, charge=jitter(s.charge), discharge=jitter(s.discharge), soc=jitter(s.soc))
               for k, s in sol.storage.items()}
    dr = {k: {dtype: jitter(series) for dtype, series in per_type.items()} for k, per_type in sol.dr_delta.items()}
    return replace(sol, **flows, storage=storage, dr_delta=dr,
                   adjusted_loads={k: jitter(v) for k, v in sol.adjusted_loads.items()})


def _assert_as_before(case, scenario, sol):
    assert _same(dispatch._storage_overlaps(case, sol.storage), previous_storage_overlaps(case, sol.storage))
    new, old = verify_solution(case, scenario, sol), previous_verify_solution(case, scenario, sol)
    assert [name for name, _, _ in new.checks] == [name for name, _, _ in old.checks]
    assert _same(new, old), [(a, b) for a, b in zip(new.checks, old.checks) if not _same(a, b)]


@pytest.mark.parametrize("gates", ["gate-free", "every-gate"])
@pytest.mark.parametrize("label", sorted(CASES))
def test_extraction_and_verification_are_as_before(label, gates):
    case, options = CASES[label]
    rng = random.Random(label)
    for sid in SCENARIO_IDS:
        scenario = as_scenario(sid)
        make = build_model if gates == "gate-free" else every_gate_model
        model, vm = make(case, sid, options)
        res = solve_milp(model, options)
        assert res.x is not None, (label, sid, res.status)
        sol = dispatch._extract(case, scenario, vm, res)
        assert _same(sol, previous_extract(case, scenario, vm, res)), (label, sid)
        _assert_as_before(case, scenario, sol)
        _assert_as_before(case, scenario, _moved(sol, rng))


def test_gates_on_demand_verify_as_before():
    case, options = CASES["binding"]
    for sid in SCENARIO_IDS:
        sol = run_scenario(case, sid, options)
        report, sol.verification = sol.verification, None
        assert _same(report, previous_verify_solution(case, sid, sol)), sid


@pytest.fixture(scope="module")
def reduced_s5():
    case, options = CASES["reduced"]
    return case, run_scenario(case, "S5", options)


@pytest.mark.parametrize("name", TAMPERS)
def test_every_tamper_verifies_as_before(reduced_s5, name):
    case, sol = reduced_s5
    tampered, _ = TAMPERS[name](case, sol)
    _assert_as_before(case, "S5", tampered)


def test_a_curve_without_reach_verifies_as_before(reduced_s5):
    # no electricity purchase: the coal curve's envelope is the constant f(0)
    case, sol = reduced_s5
    _assert_as_before(replace(case, purchase_caps=(0.0, case.purchase_caps[1])), "S5", sol)


def _nan_checks(report) -> dict:
    return {name: residual for name, residual, _ in report.checks if math.isnan(residual)}


def test_a_nan_shift_delta_fails_the_satisfaction_floor(reduced_s5):
    # the previous floor, max(0.0, floor - index), read a NaN index as 0.0 and passed
    case, sol = reduced_s5
    dr = {k: dict(per_type) for k, per_type in sol.dr_delta.items()}
    series = list(dr["heat"]["shift"])
    series[2] = math.nan
    dr["heat"]["shift"] = tuple(series)
    tampered = replace(sol, dr_delta=dr)
    new, old = verify_solution(case, "S5", tampered), previous_verify_solution(case, "S5", tampered)
    assert {"satisfaction_floor", "satisfaction_value"} <= set(_nan_checks(new))
    assert dict((n, r) for n, r, _ in old.checks)["satisfaction_floor"] == 0.0
    assert any(f.startswith("satisfaction_floor: residual nan") for f in new.failures), new.failures
    rest = [c for c in new.checks if c[0] != "satisfaction_floor"]
    assert _same(rest, [c for c in old.checks if c[0] != "satisfaction_floor"])


def test_a_nan_overlap_after_a_finite_one_fails_exclusivity(reduced_s5):
    # the previous check, Python's max over the overlaps, dropped a NaN that
    # followed a finite overlap
    case, sol = reduced_s5
    sched = sol.storage["heat"]
    charge, discharge = list(sched.charge), list(sched.discharge)
    charge[1] = discharge[1] = DELTA
    charge[4] = math.nan
    storage = {**sol.storage, "heat": replace(sched, charge=tuple(charge), discharge=tuple(discharge))}
    tampered = replace(sol, storage=storage)
    overlaps = dispatch._storage_overlaps(case, tampered.storage)
    assert list(overlaps) == [("heat", 1), ("heat", 4)]
    new = verify_solution(case, "S5", tampered, overlaps)
    old = previous_verify_solution(case, "S5", tampered, overlaps)
    assert dict((n, r) for n, r, _ in old.checks)["storage_heat_exclusive"] == DELTA
    assert math.isnan(dict((n, r) for n, r, _ in new.checks)["storage_heat_exclusive"])
    assert any(f.startswith("storage_heat_exclusive: residual nan") for f in new.failures)
    rest = [c for c in new.checks if c[0] != "storage_heat_exclusive"]
    assert _same(rest, [c for c in old.checks if c[0] != "storage_heat_exclusive"])


# -- plan reuse along a sweep -----------------------------------------------------------


@pytest.fixture()
def verified(monkeypatch):
    """(case, scenario, sol, plan, report) of each verify_solution call run_scenario makes, in call order."""
    calls, verify = [], dispatch.verify_solution

    def spy(case, scenario, sol, overlaps=None, plan=None):
        report = verify(case, scenario, sol, overlaps, plan)
        calls.append((case, scenario, sol, plan, report))
        return report

    monkeypatch.setattr(dispatch, "verify_solution", spy)
    return calls


@pytest.fixture()
def count_plans(monkeypatch):
    """The number of check plans built so far, as a one-item list."""
    built, init = [0], dispatch._CheckPlan.__init__

    def spy(self, *args, **kwargs):
        built[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(dispatch._CheckPlan, "__init__", spy)
    return built


def _fresh(calls) -> list:
    """Each call's report against a fresh verification of its solution (a plan of its own)."""
    return [_same(report, verify_solution(case, scenario, sol)) for case, scenario, sol, _, report in calls]


@pytest.mark.parametrize("sweep, grid", [(sweep_lambda, [0.10 + 0.05 * i for i in range(11)]),
                                         (sweep_interval, [1000.0 + 250.0 * i for i in range(13)])],
                         ids=["lambda", "d"])
@pytest.mark.parametrize("jobs", [1, 2])
def test_a_chunk_builds_one_plan_and_its_points_check_as_fresh_ones(verified, count_plans, serial_pool,
                                                                    sweep, grid, jobs):
    case, options = CASES["reduced"]
    points = sweep(case, "S5", grid, options, jobs=jobs)
    assert [(p.status, p.error) for p in points] == [("optimal", None)] * len(grid)
    assert count_plans[0] == jobs
    assert len({id(plan) for *_, plan, _ in verified}) == jobs
    assert _fresh(verified) == [True] * len(grid)


def test_a_point_after_a_gated_point_builds_a_new_plan(verified, count_plans, sweep_spy):
    # a point re-uses the plan of the point before it only if that one added no
    # gate, as it re-uses its model: one plan per built model
    case, options = CASES["binding"]
    points = sweep_lambda(case, "S2", [0.5, 1.0, 1.5, 2.0], options)
    assert all(p.status == "optimal" for p in points)
    gated = [p["gated"] for p in sweep_spy]
    assert any(gated)
    plans = [plan for *_, plan, _ in verified]
    assert [True] + [plans[i] is not plans[i - 1] for i in range(1, len(plans))] == [True] + gated[:-1]
    assert count_plans[0] == sum(p["built"] for p in sweep_spy) == len({id(plan) for plan in plans})
    assert _fresh(verified) == [True] * len(points)


def test_a_point_after_a_failed_point_builds_a_new_plan(verified, count_plans, monkeypatch):
    solve, calls = branch_bound._ScipyCore.solve, []

    def third_fails(self, model, options):
        calls.append(self)
        if len(calls) == 3:
            raise NumericalFailure("LP core failed: injected")
        return solve(self, model, options)

    monkeypatch.setattr(branch_bound._ScipyCore, "solve", third_fails)
    case, options = CASES["reduced"]
    points = sweep_lambda(case, "S5", [0.2, 0.3, 0.4, 0.5, 0.6], options)
    assert [p.status for p in points] == ["optimal", "optimal", "numerical_failure", "optimal", "optimal"]
    plans = [plan for *_, plan, _ in verified]
    assert plans[0] is plans[1] and plans[2] is not plans[1] and plans[3] is plans[2]
    assert count_plans[0] == 2
    assert _fresh(verified) == [True] * 4
