"""Acceptance gate: one test per release criterion.

Each test prints a single summary line; run with `pytest -v` to get the
per-criterion pass/fail report.  Tolerances are stated inline next to the
assertions they guard.
"""

import random
import time

import numpy as np
import pytest

from milp_oracles import random_milp, vertex_milp
from iesdispatch.carbon import n_tiers, tier_cost, tier_knee
from iesdispatch.dispatch import (
    SCENARIO_IDS,
    DispatchOptions,
    run_all_scenarios,
    run_scenario,
    sweep_lambda,
    verify_solution,
)
from iesdispatch.milp_ir import pwl_convex_error_bound, quad_value, tangent_envelope
from iesdispatch.model_core import (
    default_case_path,
    load_case,
    reduce_case,
    scale_profiles,
)
from iesdispatch.solver import solve_milp


def pwl_convex_value(quad, x_max, segments, x):
    """The tangent envelope of ``quad`` at ``x``, as verification evaluates it."""
    return tangent_envelope(quad, x_max, segments).value(x)


@pytest.fixture(scope="module")
def case():
    return load_case(default_case_path())


@pytest.fixture(scope="module")
def options():
    return DispatchOptions()  # gap 1e-4, 8 PWL segments


@pytest.fixture(scope="module")
def full_report(case, options):
    return run_all_scenarios(case, options)


@pytest.fixture(scope="module")
def reduced_report(case):
    reduced = reduce_case(case, 2)
    return run_all_scenarios(reduced, DispatchOptions(pwl_segments=4))


# -- criterion 1: tiered cost evaluator ------------------------------------------


def test_criterion_1_tier_cost_evaluator(case):
    policy = case.carbon
    start = time.perf_counter()

    spots = {0.0: 0.0, 2000.0: 502.0, 5000.0: 1506.0, -1000.0: -251.0}
    for share, expected in spots.items():
        assert tier_cost(share, policy) == pytest.approx(expected, abs=1e-9)

    for k in range(1, n_tiers(policy)):
        knee = k * policy.interval_d
        assert tier_cost(knee, policy) == pytest.approx(tier_knee(policy, k), abs=1e-9)
        assert tier_cost(knee + 1e-9, policy) - tier_cost(knee - 1e-9, policy) == (
            pytest.approx(0.0, abs=1e-7)
        )

    shares = np.linspace(0.0, 20_000.0, 10_000)
    floors = policy.lambda_base * shares
    costs = np.array([tier_cost(s, policy) for s in shares])
    assert np.all(costs >= floors - 1e-9)

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(
        f"criterion 1: PASS - 4 spot values exact to 1e-9, 5 knees continuous, "
        f"dominance over 10000 shares in {elapsed:.3f}s"
    )


# -- criterion 2: MILP solver vs brute force --------------------------------------


def test_criterion_2_milp_oracle_equivalence():
    start = time.perf_counter()
    rng = random.Random(20_240_817)
    sizes = [12, 12, 11, 10] + [rng.randint(1, 8) for _ in range(46)]
    solved = 0
    for i, nb in enumerate(sizes):
        model = random_milp(rng, nb)
        mine = solve_milp(model)
        ref_status, ref_obj = vertex_milp(model)
        assert mine.status == ref_status, f"model {i}: {mine.status} vs {ref_status}"
        if ref_status == "optimal":
            tol = 1e-6 * max(1.0, abs(ref_obj))
            assert abs(mine.objective - ref_obj) <= tol, f"model {i}"
            solved += 1
    elapsed = time.perf_counter() - start
    assert len(sizes) >= 50
    assert elapsed < 60.0
    print(
        f"criterion 2: PASS - {len(sizes)} models ({solved} optimal) matched the "
        f"enumeration oracle to 1e-6 relative in {elapsed:.1f}s"
    )


# -- criterion 3: PWL surrogate fidelity -------------------------------------------


def test_criterion_3_pwl_error_bound(full_report):
    rng = random.Random(7)
    worst_ratio = 0.0
    for segments in (1, 2, 4, 8, 16):
        for _ in range(20):
            quad = (rng.uniform(0, 5), rng.uniform(0, 2), rng.uniform(1e-6, 3e-3))
            x_max = rng.uniform(10.0, 2000.0)
            bound = pwl_convex_error_bound(quad[2], x_max, segments)
            xs = np.linspace(0.0, x_max, 2001)
            err = max(
                quad_value(quad, x) - pwl_convex_value(quad, x_max, segments, x)
                for x in xs
            )
            assert -1e-9 <= err <= bound + 1e-9, (segments, quad, x_max)
            worst_ratio = max(worst_ratio, err / bound if bound else 0.0)

    for sid in ("S3", "S4", "S5"):
        sol = full_report.solutions[sid]
        gap = abs(sol.emission.actual.total - sol.surrogate_actual_kg)
        assert gap <= sol.pwl_bound_kg + 1e-9, sid

    print(
        f"criterion 3: PASS - 100 random quadratics within c*(X/n)^2/4 "
        f"(worst fill {worst_ratio:.2f}); dispatch surrogate gaps inside "
        f"{full_report.solutions['S3'].pwl_bound_kg:.1f} kg bound"
    )


# -- criterion 4: independent verification ------------------------------------------


def test_criterion_4_every_solution_verifies(case, full_report):
    names_seen = set()
    for sid in SCENARIO_IDS:
        sol = full_report.solutions[sid]
        report = verify_solution(case, sid, sol)
        assert report.passed, (sid, report.failures)
        names_seen.update(name for name, _, _ in report.checks)
        assert sol.satisfaction >= 0.85 - 1e-9
        costs = sol.costs
        total = costs.purchase + costs.carbon + costs.dr + costs.maintenance
        assert costs.total == pytest.approx(total, rel=1e-6)
    for prefix in (
        "balance_electric",
        "balance_gas",
        "balance_heat",
        "storage_electric_recursion",
        "storage_electric_terminal",
        "satisfaction_floor",
        "cost_total",
    ):
        assert any(n.startswith(prefix) for n in names_seen), prefix
    print(
        "criterion 4: PASS - all 5 scenario solutions re-verified "
        "(balances, SoC recursion/terminal, DR net-zero, satisfaction, cost sums)"
    )


# -- criterion 5: scenario objective ordering ----------------------------------------


def test_criterion_5_objective_ordering(case, options, full_report):
    def check(tag, objs):
        gap = options.gap_tol
        for hi, lo in (("S3", "S4"), ("S4", "S5")):
            slack = gap * (max(1.0, abs(objs[hi])) + max(1.0, abs(objs[lo])))
            assert objs[lo] <= objs[hi] + slack, (tag, hi, lo, objs)

    check("bundled", {sid: full_report.solutions[sid].objective for sid in ("S3", "S4", "S5")})

    for seed in range(10):
        rng = random.Random(1000 + seed)
        factors = {key: rng.uniform(0.9, 1.1) for key in ("electric", "gas", "heat", "wind")}
        perturbed = scale_profiles(case, factors)
        objs = {
            sid: run_scenario(perturbed, sid, options).objective
            for sid in ("S3", "S4", "S5")
        }
        check(f"seed{seed}", objs)
    print(
        "criterion 5: PASS - obj(S5) <= obj(S4) <= obj(S3) within 2*gap_tol "
        "on bundled case and 10 load/wind perturbations"
    )


# -- criterion 6: lambda sweep monotonicity -------------------------------------------


def test_criterion_6_lambda_sweep_monotone_and_plateau(case, options, full_report):
    grid = [round(0.10 + 0.05 * i, 2) for i in range(11)]
    points = sweep_lambda(case, "S5", grid, options)
    assert [p.status for p in points] == ["optimal"] * len(points)

    # C/lambda equals the lambda-free tier structure H(E) at the optimum; an
    # exchange argument between adjacent optima bounds any increase by the
    # optimality gaps, and mapping surrogate optima to exact costs adds at
    # most the steepest tier slope times the linearization bound.
    surrogate_kg = full_report.solutions["S5"].pwl_bound_kg
    slope_factor = 1 + 5 * case.carbon.alpha_growth
    series = [p.carbon_cost / p.value for p in points]
    for prev, nxt in zip(range(len(series) - 1), range(1, len(series))):
        g_prev = options.gap_tol * max(1.0, abs(points[prev].objective))
        g_next = options.gap_tol * max(1.0, abs(points[nxt].objective))
        tol = (g_prev + g_next) / (points[nxt].value - points[prev].value)
        tol += 2 * slope_factor * surrogate_kg
        assert series[nxt] <= series[prev] + tol, (points[prev].value, points[nxt].value)

    tail = [p.emissions_kg for p in points[-3:]]
    spread = (max(tail) - min(tail)) / max(tail)
    assert spread < 0.005, tail
    assert sum(tail) / 3.0 < points[0].emissions_kg
    print(
        f"criterion 6: PASS - C/lambda fell {series[0]:.1f} -> {series[-1]:.1f} kg "
        f"(weakly decreasing within derived tolerance); emissions plateau "
        f"spread {100 * spread:.3f}% over last 3 points"
    )


# -- criterion 7: directional scenario pattern ----------------------------------------


def test_criterion_7_directional_pattern(full_report):
    rows = {r.scenario_id: r for r in full_report.rows}
    em = {sid: rows[sid].emissions_kg for sid in SCENARIO_IDS}
    assert em["S1"] > em["S2"] > em["S3"], em
    assert em["S3"] >= em["S4"] >= em["S5"], em
    assert rows["S2"].total_cost < rows["S1"].total_cost
    for sid in ("S1", "S2", "S3"):
        assert rows[sid].dr_compensation == 0.0
    for sid in ("S4", "S5"):
        assert rows[sid].dr_compensation > 0.0
    drop_cost = 100 * (rows["S1"].total_cost - rows["S5"].total_cost) / rows["S1"].total_cost
    drop_em = 100 * (em["S1"] - em["S5"]) / em["S1"]
    print(
        f"criterion 7: PASS - emissions S1>S2>S3>=S4>=S5, cost(S2)<cost(S1), "
        f"DR pay only in S4/S5; S5 vs S1: cost -{drop_cost:.2f}%, emissions -{drop_em:.2f}%"
    )


# -- criterion 8: runtime envelope ------------------------------------------------------


def test_criterion_8_runtime_envelope(options, full_report, reduced_report):
    for row in full_report.rows:
        assert row.status == "optimal"
        assert row.wall_time <= 60.0, (row.scenario_id, row.wall_time)
        assert row.gap <= options.gap_tol + 1e-12
    for row in reduced_report.rows:
        assert row.status == "optimal"
        assert row.wall_time <= 5.0, (row.scenario_id, row.wall_time)
    slowest = max(full_report.rows, key=lambda r: r.wall_time)
    print(
        f"criterion 8: PASS - full case slowest scenario {slowest.scenario_id} "
        f"{slowest.wall_time:.2f}s <= 60s; reduced case all <= 5s"
    )
