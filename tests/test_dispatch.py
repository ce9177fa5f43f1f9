"""Dispatch model: scenario runs, verification, screening, sweeps."""

import concurrent.futures
import dataclasses
import random
import re
import weakref
from dataclasses import replace
from functools import partial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from highs_spy import per_run
from milp_oracles import (
    compiled_differences,
    every_gate_model,
    fixed_ratio_rows_model,
    supply_screen,
    terminal_rows_model,
)

from iesdispatch import dispatch
from iesdispatch.dispatch import (
    SCENARIO_IDS,
    SCENARIOS,
    DispatchOptions,
    ScenarioSpec,
    SolveFailedError,
    StaticInfeasibleError,
    as_scenario,
    build_model,
    run_all_scenarios,
    run_scenario,
    sweep_interval,
    sweep_lambda,
    verify_solution,
)
from iesdispatch.model_core import (
    CARRIERS,
    CHP_RATIO_LIMIT,
    chp_params,
    default_case_path,
    load_case,
    reduce_case,
    scale_profiles,
    validate_case,
)
from iesdispatch.solver import NumericalFailure, branch_bound, solve_milp


def tiny_case(T, elec, gas, heat, wind, price=None, storages=None):
    """Small hand-built case reusing bundled devices and policies."""
    case = load_case(default_case_path())
    prices = price if price is not None else [0.49] * T
    return replace(
        case,
        horizon=replace(case.horizon, periods=T),
        loads={
            "electric": replace(case.loads["electric"], values=tuple(elec)),
            "gas": replace(case.loads["gas"], values=tuple(gas)),
            "heat": replace(case.loads["heat"], values=tuple(heat)),
        },
        wind_profile=tuple(wind),
        tariffs=replace(
            case.tariffs, electricity_price=tuple(prices), gas_price=(0.35,) * T
        ),
        storages=() if storages is None else storages,
    )


@pytest.fixture(scope="module")
def bundled_case():
    return load_case(default_case_path())


@pytest.fixture(scope="module")
def reduced_case(bundled_case):
    return reduce_case(bundled_case, 2)


@pytest.fixture(scope="module")
def reduced_options():
    return DispatchOptions(pwl_segments=4)


@pytest.fixture(scope="module")
def reduced_report(reduced_case, reduced_options):
    return run_all_scenarios(reduced_case, reduced_options)


# -- scenario table ---------------------------------------------------------------


def test_scenario_catalog():
    assert SCENARIO_IDS == ("S1", "S2", "S3", "S4", "S5")
    assert not SCENARIOS["S1"].carbon_in_objective
    assert SCENARIOS["S2"].mechanism == "traditional"
    assert SCENARIOS["S3"].mechanism == "tiered"
    assert SCENARIOS["S4"].dr_shift and not SCENARIOS["S4"].dr_substitute
    assert SCENARIOS["S5"].dr_shift and SCENARIOS["S5"].dr_substitute
    assert as_scenario(SCENARIOS["S3"]) is SCENARIOS["S3"]
    with pytest.raises(ValueError, match="unknown scenario"):
        as_scenario("S9")


@pytest.mark.parametrize("gap", [float("nan"), float("inf"), -1.0])
def test_dispatch_options_reject_a_bad_gap_at_construction(gap):
    with pytest.raises(ValueError, match="gap_tol"):
        DispatchOptions(gap_tol=gap)


@pytest.mark.parametrize("limits", [{"node_limit": 0}, {"time_limit": 0.0}, {"time_limit": float("nan")},
                                    {"pwl_segments": 0}, {"backend": "nope"}, {"pwl_segments": 10**8},
                                    {"pwl_segments": 4.5}, {"pwl_segments": 4.0}, {"node_limit": 2.5}])
def test_dispatch_options_reject_bad_limits_at_construction(limits):
    with pytest.raises(ValueError, match=next(iter(limits))):
        DispatchOptions(**limits)


def test_dispatch_options_name_every_backend():
    with pytest.raises(ValueError, match="embedded, scipy-milp, external"):
        DispatchOptions(backend="nope")


# -- single-period oracles ----------------------------------------------------------


def test_single_period_purchase_covers_residual_load():
    toy = tiny_case(1, [100.0], [0.0], [0.0], [40.0])
    sol = run_scenario(toy, "S1")
    assert sol.status == "optimal"
    assert sol.p_e_buy[0] == pytest.approx(60.0, abs=1e-6)
    assert sol.p_dg[0] == pytest.approx(40.0, abs=1e-6)


def test_single_period_all_scenarios_verified():
    toy = tiny_case(1, [100.0], [0.0], [0.0], [40.0])
    for sid in SCENARIO_IDS:
        sol = run_scenario(toy, sid)
        assert sol.status == "optimal"
        assert sol.verification is not None and sol.verification.passed


def test_screen_rejects_oversized_heat_load():
    big = tiny_case(1, [100.0], [0.0], [5000.0], [0.0])
    with pytest.raises(StaticInfeasibleError) as err:
        run_scenario(big, "S1")
    assert err.value.family == "balance_heat_t00"
    assert "needs 5000.0 but its columns reach 1232.0 at most" in str(err.value)


def _load_spikes(bundled_case, builds: int, seed: int):
    """Seeded cases: the full or reduced case, one carrier's load times U(1.2, 5) at one or two periods, caps cut."""
    rng = random.Random(seed)
    bases = (bundled_case, reduce_case(bundled_case, 2))
    for _ in range(builds):
        case = rng.choice(bases)
        carrier = rng.choice(CARRIERS)
        values = list(case.loads[carrier].values)
        for t in rng.sample(range(len(values)), rng.choice((1, 2))):
            values[t] *= rng.uniform(1.2, 5.0)
        caps = tuple(cap * rng.choice((0.3, 0.6, 1.0)) for cap in case.purchase_caps)
        yield replace(case, loads={**case.loads, carrier: replace(case.loads[carrier], values=tuple(values))},
                      purchase_caps=caps)


def _refusal(build, *args):
    """The StaticInfeasibleError that ``build(*args)`` raises, or None."""
    try:
        build(*args)
    except StaticInfeasibleError as err:
        return err
    return None


def test_row_reach_refuses_what_the_previous_screen_refused_at_its_balance_row(bundled_case):
    # 50 cases x S1-S5: the previous screen names a carrier and a period, the build a row
    old, new = [], []
    for case in _load_spikes(bundled_case, 50, 35):
        for sid in SCENARIO_IDS:
            err = _refusal(supply_screen, case, sid)
            if err is not None:
                period = int(re.match(r"period (\d+):", str(err).partition(": ")[2])[1])
                err = f"balance_{err.family.removesuffix('_balance')}_t{period:02d}"
            old.append(err)
            err = _refusal(build_model, case, sid)
            new.append(err and err.family)
    # the same rows, and no build that only the new test refuses: no device here has a
    # minimum output, so no balance row fails on the side the screen never tested
    assert new == old
    assert (len(old), len(list(filter(None, old)))) == (250, 193)


def test_minimum_output_over_filling_a_balance_is_refused_before_any_solve(bundled_case, highs_calls):
    # the GB's 760 kW of gas give 623.2 kW of heat; the heat store charges at most 100 kW
    case = _converter(bundled_case, "GB", min_output_kw=760.0)
    with pytest.raises(StaticInfeasibleError) as info:
        run_scenario(case, "S1")
    assert info.value.family == "balance_heat_t09"
    assert str(info.value).endswith("allows at most 515.0 but its columns give 523.2 at least")
    assert "run" not in highs_calls


def test_ratio_bracket_outside_range_forces_chp_off():
    toy = tiny_case(1, [100.0], [0.0], [100.0], [0.0])
    narrowed = replace(toy, chp=replace(toy.chp, ratio_min=1.0, ratio_max=2.0))
    sol = run_scenario(narrowed, "S1")
    assert sol.p_gt_e[0] == pytest.approx(0.0, abs=1e-9)
    assert sol.p_gt_h[0] == pytest.approx(0.0, abs=1e-9)
    assert sol.p_gb_h[0] == pytest.approx(100.0 / 0.82 * 0.82, abs=1e-6)


# -- fixed-ratio CHP: the one-column rows are the GT's bounds ------------------------


def _converter(case, name, **fields):
    """The case with the named converter's fields replaced."""
    return replace(case, converters=tuple(replace(c, **fields) if c.name == name else c for c in case.converters))


def _outside_corridor(case):
    """The bundled GT's fixed ratio, 0.576 / 0.22 = 2.62, is above this corridor."""
    return replace(case, chp=replace(case.chp, ratio_min=1.0, ratio_max=2.0))


def _no_electric(case):
    """eps_e = 0: the GT's efficiencies have no electric entry, so no ratio fits a finite corridor."""
    return _converter(case, "GT", efficiencies={"heat": case.converter("GT").efficiencies["heat"]})


def _whb_binds(case):
    """A WHB smaller than the GT's 576 kW of heat, which holds the GT below its capacity."""
    return _converter(case, "WHB", capacity_kw=400.0)


@pytest.mark.parametrize("edit, upper", [
    (lambda case: case, 1000.0),
    (_whb_binds, 400.0 / (0.72 * 0.8)),
    (_outside_corridor, 0.0),
    (lambda case: replace(case, chp=replace(case.chp, ratio_min=3.0, ratio_max=4.0)), 0.0),
    (_no_electric, 0.0),
], ids=["bundled", "whb-binds", "corridor-below", "corridor-above", "no-electric"])
def test_fixed_ratio_models_carry_no_chp_rows(bundled_case, edit, upper):
    case = edit(bundled_case)
    for sid in SCENARIO_IDS:
        model, vm = build_model(case, sid)
        assert not [con.name for con in model.constraints if con.name.startswith(("chp_ratio_", "chp_whb_cap_"))]
        assert model.to_sparse()[6][vm.flows["p_g_gt"][0]].tolist() == [upper] * case.horizon.periods, sid


@pytest.mark.parametrize("edit", [_outside_corridor, _no_electric], ids=["corridor", "no-electric"])
def test_corridor_excluding_the_fixed_ratio_turns_the_gt_off(bundled_case, edit):
    # the statuses the corridor rows gave: every scenario solves with the GT off
    report = run_all_scenarios(edit(bundled_case))
    assert [row.status for row in report.rows] == ["optimal"] * len(SCENARIO_IDS)
    for sol in report.solutions.values():
        assert sol.p_gt_e == sol.p_gt_h == (0.0,) * bundled_case.horizon.periods
    # the rows left no feasible point with a minimum output; the bound says so before any solve
    strict = _converter(edit(bundled_case), "GT", min_output_kw=100.0)
    report = run_all_scenarios(strict)
    failed = [(row.status, row.error.partition(":")[0]) for row in report.rows]
    assert failed == [("infeasible", "chp_ratio")] * len(SCENARIO_IDS)
    assert "min_output_kw is 100 kW" in report.rows[0].error


def test_whb_cap_below_the_minimum_output_is_infeasible(bundled_case):
    case = _converter(_whb_binds(bundled_case), "GT", min_output_kw=800.0)
    with pytest.raises(StaticInfeasibleError) as info:
        build_model(case, "S1")
    assert info.value.family == "chp_whb_cap" and "694.444 kW of gas" in str(info.value)
    assert run_scenario(_converter(case, "GT", min_output_kw=600.0), "S1").verification.passed


def _electric_load_just_above_all_but_the_gt(case):
    """The case with period 0's electric load 1 kW above what the grid, wind and store can give."""
    sto = case.storage("electric")
    others = case.purchase_caps[0] + min(case.wind_profile[0], case.wind_max_kw)
    others += sto.power_limit_fraction * sto.capacity_kwh if sto else 0.0
    values = (others + 1.0, *case.loads["electric"].values[1:])
    return replace(case, loads={**case.loads, "electric": replace(case.loads["electric"], values=values)})


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
# the three ways a case can hold the GT off: no electric efficiency, no WHB, a corridor off its ratio
@example(efficiencies={"heat": 0.72}, whb=True, corridor=[2.0, 3.0])
@example(efficiencies={"electric": 0.22, "heat": 0.72}, whb=False, corridor=[2.0, 3.0])
@example(efficiencies={"electric": 0.22, "heat": 0.72}, whb=True, corridor=[1.0, 2.0])
@given(
    efficiencies=st.fixed_dictionaries({}, optional={"electric": st.floats(0.05, 1.0), "heat": st.floats(0.05, 1.0)}),
    whb=st.booleans(),
    corridor=st.lists(st.floats(-1.0, 8.0), min_size=2, max_size=2).map(sorted),
)
def test_warning_build_and_screen_agree_on_a_gt_held_at_zero(efficiencies, whb, corridor):
    case = _converter(tiny_case(1, [100.0], [0.0], [100.0], [0.0]), "GT", efficiencies=efficiencies)
    if not whb:
        case = replace(case, converters=tuple(c for c in case.converters if c.name != "WHB"))
    case = replace(case, chp=replace(case.chp, ratio_min=corridor[0], ratio_max=corridor[1]))
    # validate_case warns exactly when build_model holds the GT's gas column at 0
    report = validate_case(case)
    assert report.errors == []
    model, vm = build_model(case, "S1")
    (upper,) = model.to_sparse()[6][vm.flows["p_g_gt"][0]].tolist()
    assert any("forced off" in w for w in report.warnings) == (upper == 0.0)
    # the electric balance row reaches the GT's electric output up to that bound, so none when it is 0
    eps_e = chp_params(case)[2]
    try:
        build_model(_electric_load_just_above_all_but_the_gt(case), "S1")
        refused = False
    except StaticInfeasibleError as err:
        refused = err.family == "balance_electric_t00"
    assert refused == (eps_e * upper < 1.0)
    if upper == 0.0:
        assert refused


def _initial_soc(case, at: str):
    """The case with every store starting, and so ending, at its ``soc_min_frac`` or ``soc_max_frac``."""
    return replace(case, storages=tuple(replace(sto, soc_initial_frac=getattr(sto, at)) for sto in case.storages))


@pytest.fixture(scope="module")
def fold_cases(bundled_case, binding_case):
    """(label, case, options) on which the bounds are compared with the one-column rows they replace."""
    full, reduced = DispatchOptions(), DispatchOptions(pwl_segments=4)
    cases = [("full", bundled_case, full), ("reduced", reduce_case(bundled_case, 2), reduced)]
    for seed in range(3):
        rng = random.Random(seed)
        factors = {k: rng.uniform(0.9, 1.1) for k in ("electric", "gas", "heat", "wind")}
        cases.append((f"perturbed{seed}", scale_profiles(bundled_case, factors), full))
    extraction = replace(bundled_case.chp, extraction_mode=True)
    return cases + [
        ("binding-gate", binding_case[0], reduced),
        ("whb-binds", _whb_binds(bundled_case), full),
        ("corridor", _outside_corridor(bundled_case), full),
        ("extraction", replace(bundled_case, chp=extraction), full),
        ("extraction-at-limit", replace(bundled_case, chp=replace(extraction, ratio_max=CHP_RATIO_LIMIT)), full),
        # the terminal bound at its edges: either end of the soc range, and the only period
        ("soc-at-min", _initial_soc(bundled_case, "soc_min_frac"), full),
        ("soc-at-max", _initial_soc(bundled_case, "soc_max_frac"), full),
        ("one-period", reduce_case(bundled_case, 24), reduced),
    ]


def _bounds_match_rows(cases, rows_model, monkeypatch, backend):
    """Every scenario of every case ends optimal, so verified, and at the same optimum with the rows."""
    for label, case, options in cases:
        options = replace(options, backend=backend)
        bounds = run_all_scenarios(case, options)
        with monkeypatch.context() as patch:
            patch.setattr(dispatch, "build_model", rows_model)
            rows = run_all_scenarios(case, options)
        statuses = [row.status for row in bounds.rows]
        assert statuses == [row.status for row in rows.rows], label
        assert set(statuses) == {"optimal"}, (label, statuses)
        for a, b in zip(bounds.rows, rows.rows):
            assert _agree(a.objective, b.objective, options.gap_tol), (label, a.scenario_id)


@pytest.mark.parametrize("backend", ["embedded", "scipy-milp"])
def test_chp_bounds_match_the_one_column_rows(fold_cases, monkeypatch, backend):
    _bounds_match_rows(fold_cases, fixed_ratio_rows_model, monkeypatch, backend)


@pytest.mark.parametrize("backend", ["embedded", "scipy-milp"])
def test_soc_bounds_match_the_terminal_rows(fold_cases, monkeypatch, backend):
    _bounds_match_rows(fold_cases, terminal_rows_model, monkeypatch, backend)


@pytest.mark.parametrize("edit, bound_kg", [
    (_outside_corridor, 22.264629375),
    (lambda case: _converter(case, "WHB", capacity_kw=300.0), 27.633224427),
], ids=["corridor", "whb-300"])
def test_gas_envelope_spans_only_what_the_gt_reaches(bundled_case, edit, bound_kg):
    # the em_gas envelope ends where the gas units' output can reach with the
    # GT at its gas column's bound, not at its capacity (34.85 kg of bound)
    sol = run_scenario(edit(bundled_case), "S5")  # checks the pwl gap against this bound
    assert sol.verification.passed
    assert sol.pwl_bound_kg == pytest.approx(bound_kg, rel=1e-9)


def test_extraction_mode_relaxes_coupling():
    toy = tiny_case(1, [100.0], [50.0], [100.0], [0.0])
    fixed = run_scenario(toy, "S3")
    relaxed_case = replace(toy, chp=replace(toy.chp, extraction_mode=True))
    relaxed = run_scenario(relaxed_case, "S3")
    assert relaxed.verification.passed
    assert relaxed.objective <= fixed.objective + 1e-4 * max(1.0, abs(fixed.objective))


# -- demand-response behavior --------------------------------------------------------


def test_shift_moves_load_to_cheap_period():
    toy = tiny_case(2, [100.0, 100.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0], price=[0.83, 0.17])
    sol = run_scenario(toy, "S4")
    shift = sol.dr_delta["electric"]["shift"]
    assert shift[0] == pytest.approx(-10.0, abs=1e-6)
    assert shift[0] == pytest.approx(-shift[1], abs=1e-9)
    assert sol.p_e_buy == pytest.approx((90.0, 110.0), abs=1e-6)
    assert sol.costs.dr == pytest.approx(0.2 * 20.0, abs=1e-6)
    assert sol.satisfaction >= 0.85


def test_dr_compensation_zero_without_dr(reduced_report):
    for sid in ("S1", "S2", "S3"):
        assert reduced_report.solutions[sid].costs.dr == 0.0
    assert reduced_report.solutions["S4"].costs.dr > 0.0


# -- objective composition -------------------------------------------------------------


def test_s1_objective_excludes_carbon_but_total_includes_it(reduced_report):
    sol = reduced_report.solutions["S1"]
    costs = sol.costs
    assert costs.carbon > 0.0
    assert sol.objective == pytest.approx(
        costs.purchase + costs.dr + costs.maintenance, rel=1e-6
    )
    assert costs.total == pytest.approx(
        costs.purchase + costs.carbon + costs.dr + costs.maintenance, rel=1e-9
    )
    assert sol.surrogate_actual_kg is None
    assert sol.surrogate_carbon_cost is None


def test_priced_scenarios_embed_carbon_in_objective(reduced_report):
    for sid in ("S3", "S4", "S5"):
        sol = reduced_report.solutions[sid]
        assert sol.surrogate_carbon_cost is not None
        assert sol.objective == pytest.approx(
            sol.costs.purchase + sol.costs.dr + sol.costs.maintenance
            + sol.surrogate_carbon_cost,
            rel=1e-6,
        )


# -- whole-report structure -------------------------------------------------------------


def test_report_rows_ordered_and_verified(reduced_case, reduced_report):
    assert [r.scenario_id for r in reduced_report.rows] == list(SCENARIO_IDS)
    for row in reduced_report.rows:
        assert row.status == "optimal"
        sol = reduced_report.solutions[row.scenario_id]
        rep = verify_solution(reduced_case, row.scenario_id, sol)
        assert rep.passed, rep.failures


def test_report_percentages_reference_first_row(reduced_report):
    base = reduced_report.rows[0]
    assert set(reduced_report.percentages) == {"S2", "S3", "S4", "S5"}
    pct = reduced_report.percentages["S5"]
    row5 = next(r for r in reduced_report.rows if r.scenario_id == "S5")
    assert pct["cost_drop_pct"] == pytest.approx(
        100.0 * (base.total_cost - row5.total_cost) / base.total_cost
    )
    assert pct["emission_drop_pct"] == pytest.approx(
        100.0 * (base.emissions_kg - row5.emissions_kg) / base.emissions_kg
    )


def test_carbon_pricing_lowers_cost_vs_unpriced(reduced_report):
    rows = {r.scenario_id: r for r in reduced_report.rows}
    assert rows["S3"].total_cost <= rows["S1"].total_cost + 1e-6


def test_no_purchase_while_wind_curtailed(reduced_report):
    # cheap wind is always preferred over any purchase price
    for sol in reduced_report.solutions.values():
        for t in range(sol.periods):
            curtailed = sol.wind_available[t] - sol.p_dg[t]
            assert not (sol.p_e_buy[t] > 1e-6 and curtailed > 1e-6), (
                sol.scenario_id,
                t,
                sol.p_e_buy[t],
                curtailed,
            )


def test_jobs_parallel_matches_serial(reduced_case, reduced_options, reduced_report):
    parallel = run_all_scenarios(reduced_case, reduced_options, jobs=2)
    for serial_row, par_row in zip(reduced_report.rows, parallel.rows):
        assert serial_row.scenario_id == par_row.scenario_id
        assert par_row.total_cost == pytest.approx(serial_row.total_cost, rel=1e-9)
        assert par_row.emissions_kg == pytest.approx(serial_row.emissions_kg, rel=1e-9)
        assert par_row.objective == pytest.approx(serial_row.objective, rel=1e-9)


@pytest.fixture()
def serial_pool(monkeypatch):
    """Run pool work in this process; the list gets each pool's worker count."""
    started = []

    class SerialPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    # _run_tasks imports the pool class from its module when it needs one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    return started


def test_jobs_never_start_more_workers_than_tasks(reduced_case, reduced_options, serial_pool):
    report = run_all_scenarios(reduced_case, reduced_options, scenario_ids=("S1", "S2"), jobs=500)
    assert serial_pool == [2]
    assert [r.scenario_id for r in report.rows] == ["S1", "S2"]


# -- tamper detection ---------------------------------------------------------------


def test_verification_catches_tampered_balance():
    toy = tiny_case(1, [100.0], [0.0], [0.0], [40.0])
    sol = run_scenario(toy, "S1")
    tampered = dataclasses.replace(sol, p_e_buy=(61.0,))
    report = verify_solution(toy, "S1", tampered)
    assert not report.passed
    assert any(f.startswith("balance_electric") for f in report.failures)


def test_verification_reads_wind_availability_from_the_case():
    # a solution that claims more wind than the case forecasts, and uses it
    # in place of purchases, fails on the case's forecast, not its own claim
    toy = tiny_case(1, [100.0], [0.0], [0.0], [40.0])
    sol = run_scenario(toy, "S1")
    assert sol.p_dg == sol.wind_available == (40.0,)
    tampered = dataclasses.replace(sol, p_dg=(50.0,), wind_available=(50.0,), p_e_buy=(sol.p_e_buy[0] - 10.0,))
    report = verify_solution(toy, "S1", tampered)
    assert any(f.startswith("wind_availability") for f in report.failures), report.failures
    assert not any(f.startswith("balance_electric") for f in report.failures), report.failures


def test_scenario_spec_refuses_an_unknown_mechanism():
    # a misspelt mechanism would otherwise price one ladder and verify another
    with pytest.raises(ValueError, match="unknown mechanism 'Tiered'"):
        ScenarioSpec("X", True, "Tiered", True, True)
    for mechanism in ("none", "traditional", "tiered"):
        assert ScenarioSpec("X", True, mechanism, True, True).mechanism == mechanism


def test_verification_catches_storage_tamper(reduced_case, reduced_report):
    sol = reduced_report.solutions["S3"]
    st = dict(sol.storage)
    sched = st["electric"]
    bent = dataclasses.replace(
        sched, soc=tuple(v + 5.0 for v in sched.soc)
    )
    st["electric"] = bent
    tampered = dataclasses.replace(sol, storage=st)
    report = verify_solution(reduced_case, "S3", tampered)
    assert not report.passed
    assert any("storage" in f for f in report.failures)


S5_CHECKS = [
    "adjusted_load_electric", "adjusted_load_gas", "adjusted_load_heat",
    "balance_electric", "balance_gas", "balance_heat",
    "p2g_coupling", "p2g_capacity", "p2g_ramp",
    "chp_e_coupling", "chp_h_coupling", "chp_ratio", "chp_fuel_capacity", "chp_whb_capacity", "chp_ramp",
    "gb_coupling", "gb_capacity", "gb_ramp",
    "wind_availability", "purchase_cap_electric", "purchase_cap_gas",
    *(f"storage_{k}_{c}" for k in ("electric", "heat", "gas")
      for c in ("recursion", "terminal", "soc_bounds", "power", "exclusive")),
    "dr_window_shift_electric", "dr_net_shift_electric", "dr_window_substitute_electric",
    "dr_window_shift_heat", "dr_net_shift_heat", "dr_window_substitute_heat", "dr_window_substitute_gas",
    "dr_subst_coupling", "satisfaction_floor", "satisfaction_value",
    "cost_purchase", "cost_dr", "cost_maintenance", "cost_carbon_exact", "emission_actual", "emission_quota",
    "cost_total", "surrogate_actual", "pwl_gap", "surrogate_carbon_cost", "objective_identity",
]


def _loop_residuals(case, sol) -> dict[str, float]:
    """Per-period loop forms of the vectorised verification families, as references."""
    T, dt = case.horizon.periods, case.horizon.step_hours
    out = {}

    def over(value, limit):
        return max(0.0, value - limit)

    def ramp(series, dev):
        return max(over(abs(series[t] - series[t - 1]), dev.ramp_fraction * dev.capacity_kw) for t in range(1, T))

    gt, gb, p2g = (case.converter(u) for u in ("GT", "GB", "P2G"))
    eps_e = gt.efficiencies["electric"]
    eps_h = gt.efficiencies["heat"] * case.converter("WHB").efficiencies["heat"]
    eta, phi = p2g.efficiencies["gas"], gb.efficiencies["heat"]
    out["p2g_coupling"] = max(abs(sol.p_p2g_g[t] - eta * sol.p_p2g_e[t]) for t in range(T))
    out["p2g_ramp"] = ramp(sol.p_p2g_e, p2g)
    out["chp_e_coupling"] = max(abs(sol.p_gt_e[t] - eps_e * sol.p_g_gt[t]) for t in range(T))
    out["chp_h_coupling"] = max(abs(sol.p_gt_h[t] - eps_h * sol.p_g_gt[t]) for t in range(T))
    out["chp_ratio"] = max(max(over(case.chp.ratio_min * sol.p_gt_e[t], sol.p_gt_h[t]),
                               over(sol.p_gt_h[t], case.chp.ratio_max * sol.p_gt_e[t])) for t in range(T))
    out["chp_ramp"] = ramp(sol.p_g_gt, gt)
    out["gb_coupling"] = max(abs(sol.p_gb_h[t] - phi * sol.p_g_gb[t]) for t in range(T))
    out["gb_ramp"] = ramp(sol.p_g_gb, gb)
    for k, sched in sol.storage.items():
        sto = case.storage(k)
        cap = sto.capacity_kwh
        soc_prev, recursion = sto.soc_initial_frac * cap, 0.0
        for t in range(T):
            expect = soc_prev + sto.charge_eff * dt * sched.charge[t] - dt / sto.discharge_eff * sched.discharge[t]
            recursion = max(recursion, abs(sched.soc[t] - expect))
            soc_prev = sched.soc[t]
        out[f"storage_{k}_recursion"] = recursion
        out[f"storage_{k}_soc_bounds"] = max(max(over(v, sto.soc_max_frac * cap), over(sto.soc_min_frac * cap, v))
                                             for v in sched.soc)
    fractions = {"shift": case.dr.shiftable_fraction, "substitute": case.dr.substitutable_fraction}
    dr_cost = 0.0
    for k, per_type in sol.dr_delta.items():
        for dtype, series in per_type.items():
            base = [fractions[dtype][k] * p for p in case.loads[k].values]
            out[f"dr_window_{dtype}_{k}"] = max(max(over(series[t], base[t]), over(-base[t], series[t]))
                                                for t in range(T))
            if dtype == "shift":
                out[f"dr_net_{dtype}_{k}"] = abs(sum(series))
            dr_cost += (case.dr.mu_shift if dtype == "shift" else case.dr.mu_subst) * dt * sum(abs(v) for v in series)
    subst = {k: per_type["substitute"] for k, per_type in sol.dr_delta.items() if "substitute" in per_type}
    out["dr_subst_coupling"] = max(abs(sum(case.dr.subst_conversion[k] * subst[k][t] for k in subst)) for t in range(T))
    prices = case.tariffs
    buy = dt * sum(prices.electricity_price[t] * sol.p_e_buy[t] + prices.gas_price[t] * sol.p_g_buy[t]
                   for t in range(T))
    w = case.maintenance
    maint = dt * sum(w["wind"] * sol.p_dg[t] + w["P2G"] * sol.p_p2g_g[t] + w["GT"] * sol.p_gt_e[t]
                     + w["WHB"] * sol.p_gt_h[t] + w["GB"] * sol.p_gb_h[t]
                     + sum(w[f"storage_{k}"] * (s.charge[t] + s.discharge[t]) for k, s in sol.storage.items())
                     for t in range(T))
    out["cost_purchase"] = abs(sol.costs.purchase - buy)
    out["cost_dr"] = abs(sol.costs.dr - dr_cost)
    out["cost_maintenance"] = abs(sol.costs.maintenance - maint)
    return out


@pytest.mark.parametrize("noise", [0.0, 1.0])
def test_vectorised_residuals_equal_the_loop_forms(bundled_case, reduced_case, reduced_report, noise):
    # the same arithmetic on whole schedules: equal to the last bit, on the
    # optimum and on a schedule with every value moved at random
    rng = random.Random(7)

    def jitter(values):
        return tuple(v + noise * rng.uniform(-5.0, 5.0) for v in values)

    full = run_scenario(bundled_case, "S5")
    for case, sol in ((reduced_case, reduced_report.solutions["S5"]), (bundled_case, full)):
        flows = {f.name: jitter(getattr(sol, f.name)) for f in dataclasses.fields(sol)
                 if f.name.startswith("p_")}
        storage = {k: dataclasses.replace(s, charge=jitter(s.charge), discharge=jitter(s.discharge), soc=jitter(s.soc))
                   for k, s in sol.storage.items()}
        dr = {k: {dtype: jitter(series) for dtype, series in per_type.items()} for k, per_type in sol.dr_delta.items()}
        moved = dataclasses.replace(sol, **flows, storage=storage, dr_delta=dr)
        residuals = {name: r for name, r, _ in verify_solution(case, "S5", moved).checks}
        want = _loop_residuals(case, moved)
        assert {name: residuals[name] for name in want} == want


def test_verification_check_names_and_order(reduced_report):
    assert [name for name, _, _ in reduced_report.solutions["S5"].verification.checks] == S5_CHECKS


DELTA = 50.0  # kW; every tamper below moves one value of one period by it
LAST = -1  # the last period: its ramp is measured against the period before only


def _bump(values, t, delta):
    values = list(values)
    values[t] += delta
    return tuple(values)


def _ramp_tamper(field, unit):
    def tamper(case, sol):
        dev = case.converter(unit)
        series = getattr(sol, field)
        step = dev.ramp_fraction * dev.capacity_kw
        bumped = _bump(series, LAST, series[LAST - 1] + step + DELTA - series[LAST])
        return dataclasses.replace(sol, **{field: bumped}), DELTA
    return tamper


def _flow_tamper(field, t=3, scale=lambda case, t: 1.0):
    def tamper(case, sol):
        return dataclasses.replace(sol, **{field: _bump(getattr(sol, field), t, DELTA)}), DELTA * scale(case, t)
    return tamper


def _dr_tamper(carrier, dtype, t, value=None, scale=lambda case: 1.0):
    # value: set the adjustment to this function of the case, else move it by DELTA
    def tamper(case, sol):
        dr = {k: dict(per_type) for k, per_type in sol.dr_delta.items()}
        series = dr[carrier][dtype]
        delta = DELTA if value is None else value(case) + DELTA - series[t]
        dr[carrier][dtype] = _bump(series, t, delta)
        return dataclasses.replace(sol, dr_delta=dr), DELTA * scale(case)
    return tamper


def _soc_tamper(case, sol):
    storage = dict(sol.storage)
    sched = storage["heat"]
    storage["heat"] = dataclasses.replace(sched, soc=_bump(sched.soc, 5, DELTA))
    return dataclasses.replace(sol, storage=storage), DELTA


def _shiftable(case, carrier, t):
    fraction = case.dr.shiftable_fraction[carrier]
    return fraction * case.loads[carrier].values[t]


TAMPERS = {
    "p2g_ramp": _ramp_tamper("p_p2g_e", "P2G"),
    "chp_ramp": _ramp_tamper("p_g_gt", "GT"),
    "gb_ramp": _ramp_tamper("p_g_gb", "GB"),
    "p2g_coupling": _flow_tamper("p_p2g_g"),
    "chp_e_coupling": _flow_tamper("p_gt_e"),
    "chp_h_coupling": _flow_tamper("p_gt_h"),
    "gb_coupling": _flow_tamper("p_gb_h"),
    "storage_heat_recursion": _soc_tamper,
    "dr_window_shift_electric": _dr_tamper("electric", "shift", 4, lambda case: _shiftable(case, "electric", 4)),
    "dr_net_shift_heat": _dr_tamper("heat", "shift", 2),
    "dr_subst_coupling": _dr_tamper("gas", "substitute", 1,
                                    scale=lambda case: case.dr.subst_conversion["gas"]),
    "cost_purchase": _flow_tamper(
        "p_e_buy", scale=lambda case, t: case.horizon.step_hours * case.tariffs.electricity_price[t]),
    "cost_maintenance": _flow_tamper(
        "p_dg", scale=lambda case, t: case.horizon.step_hours * case.maintenance["wind"]),
    "cost_dr": _dr_tamper("heat", "shift", 2, scale=lambda case: case.horizon.step_hours * case.dr.mu_shift),
}


@pytest.mark.parametrize("name", TAMPERS)
def test_single_period_tamper_fails_its_check(reduced_case, reduced_report, name):
    # each tamper moves one period of one schedule; its check reports the
    # violation it injected, measured on the whole schedule
    sol = reduced_report.solutions["S5"]
    assert sol.verification.passed
    tampered, injected = TAMPERS[name](reduced_case, sol)
    report = verify_solution(reduced_case, "S5", tampered)
    residual = {n: r for n, r, _ in report.checks}[name]
    assert any(f.startswith(f"{name}: ") for f in report.failures), report.failures
    assert residual == pytest.approx(injected, rel=1e-6, abs=1e-6)
    assert [n for n, _, _ in report.checks] == S5_CHECKS


# -- linearization control -----------------------------------------------------------


def test_pwl_bound_scales_inverse_square(reduced_case):
    coarse = run_scenario(reduced_case, "S3", DispatchOptions(pwl_segments=2))
    fine = run_scenario(reduced_case, "S3", DispatchOptions(pwl_segments=16))
    assert coarse.pwl_bound_kg == pytest.approx(64.0 * fine.pwl_bound_kg, rel=1e-9)
    for sol in (coarse, fine):
        gap = abs(sol.emission.actual.total - sol.surrogate_actual_kg)
        assert gap <= sol.pwl_bound_kg + 1e-9
    assert fine.verification.passed and coarse.verification.passed


# -- sweeps ------------------------------------------------------------------------


def test_sweep_grid_validation(reduced_case):
    with pytest.raises(ValueError, match="strictly increasing"):
        sweep_lambda(reduced_case, "S3", [0.3, 0.2])
    with pytest.raises(ValueError, match="positive"):
        sweep_interval(reduced_case, "S3", [-1.0, 2.0])
    with pytest.raises(ValueError, match="empty"):
        sweep_lambda(reduced_case, "S3", [])


def test_single_point_lambda_sweep_matches_run(reduced_case, reduced_options):
    base = run_scenario(reduced_case, "S3", reduced_options)
    points = sweep_lambda(reduced_case, "S3", [0.251], reduced_options)
    assert len(points) == 1
    pt = points[0]
    assert pt.status == "optimal"
    assert pt.value == pytest.approx(0.251)
    assert pt.total_cost == pytest.approx(base.costs.total, rel=1e-9)
    assert pt.emissions_kg == pytest.approx(base.emission.actual.total, rel=1e-9)


def test_single_point_interval_sweep_matches_run(reduced_case, reduced_options):
    base = run_scenario(reduced_case, "S5", reduced_options)
    points = sweep_interval(reduced_case, "S5", [2000.0], reduced_options)
    assert len(points) == 1
    assert points[0].total_cost == pytest.approx(base.costs.total, rel=1e-9)


# -- one HiGHS core per model, and sweeps on it -------------------------------------

LAMBDA_GRID = [0.1, 0.25, 0.4, 0.55]
INTERVAL_GRID = [1000.0, 2000.0, 3500.0]


@pytest.fixture(scope="module")
def sweep_cases(bundled_case):
    """The reduced case and three seeded U(0.9, 1.1) load and wind perturbations of it."""
    cases = [reduce_case(bundled_case, 2)]
    for seed in range(3):
        rng = random.Random(seed)
        factors = {k: rng.uniform(0.9, 1.1) for k in ("electric", "gas", "heat", "wind")}
        cases.append(reduce_case(scale_profiles(bundled_case, factors), 2))
    return cases


@pytest.fixture()
def count_cores(monkeypatch):
    """The number of kept LP cores built so far, as a one-item list; the one-off cores of highs_milp do not count."""
    built = [0]
    init = branch_bound._ScipyCore.__init__

    def spy(self, model, options=None):
        built[0] += options is None
        init(self, model, options)

    monkeypatch.setattr(branch_bound._ScipyCore, "__init__", spy)
    return built


def test_one_model_shares_one_core_two_builds_load_two(reduced_case, reduced_options, count_cores):
    model, _ = build_model(reduced_case, "S5", reduced_options)
    first, second = (solve_milp(model, reduced_options) for _ in range(2))
    assert count_cores[0] == 1
    again, _ = build_model(reduced_case, "S5", reduced_options)
    third = solve_milp(again, reduced_options)
    assert count_cores[0] == 2 and branch_bound._cores[again] is not branch_bound._cores[model]
    assert first.status == second.status == third.status == "optimal"
    assert first.objective == second.objective == third.objective


def test_repriced_solves_of_one_model_share_one_core(reduced_case, reduced_options, count_cores, monkeypatch):
    solved, solve = [], branch_bound._ScipyCore.solve

    def spy(self, model, options):
        solved.append(self)
        return solve(self, model, options)

    monkeypatch.setattr(branch_bound._ScipyCore, "solve", spy)
    model, vm = build_model(reduced_case, "S5", reduced_options)
    results = []
    for lam in (0.2, 0.4):
        dispatch._reprice(replace(reduced_case, carbon=replace(reduced_case.carbon, lambda_base=lam)), model, vm)
        results.append(solve_milp(model, reduced_options))
        assert results[-1].status == "optimal"
    assert count_cores[0] == 1
    assert solved == [branch_bound._cores[model]] * 2
    fresh, _ = build_model(replace(reduced_case, carbon=replace(reduced_case.carbon, lambda_base=0.4)), "S5",
                           reduced_options)
    cold = solve_milp(fresh, reduced_options)
    assert results[-1].objective == pytest.approx(cold.objective, rel=1e-9, abs=0.0)


def test_failure_mid_chain_drops_the_models_core(reduced_case, reduced_options, count_cores, monkeypatch):
    solve, calls = branch_bound._ScipyCore.solve, []

    def second_fails(self, model, options):
        calls.append(self)
        if len(calls) == 2:
            raise NumericalFailure("LP core failed: injected")
        return solve(self, model, options)

    monkeypatch.setattr(branch_bound._ScipyCore, "solve", second_fails)
    model, _ = build_model(reduced_case, "S5", reduced_options)
    assert solve_milp(model, reduced_options).status == "optimal"
    with pytest.raises(NumericalFailure):
        solve_milp(model, reduced_options)
    assert model not in branch_bound._cores
    # the next solve starts cold on a new core
    assert solve_milp(model, reduced_options).status == "optimal"
    assert count_cores[0] == 2
    assert calls[1] is calls[0] and calls[2] is not calls[1]


@pytest.mark.parametrize("grow", [
    lambda model: model.add_rows([[0]], 1.0, "<=", 1e9, ["redundant"]),
    lambda model: model.add_variables("continuous", 0.0, 1.0, ["idle"]),
], ids=["row", "column"])
def test_grown_model_loads_a_new_core(reduced_case, reduced_options, count_cores, grow):
    # a redundant row or a free column without cost leaves the optimum, but
    # the model compiles to a new A
    model, _ = build_model(reduced_case, "S5", reduced_options)
    before = solve_milp(model, reduced_options)
    core = branch_bound._cores[model]
    grow(model)
    after = solve_milp(model, reduced_options)
    assert count_cores[0] == 2 and branch_bound._cores[model] is not core
    assert branch_bound._cores[model].A is model.to_sparse()[2]
    assert after.objective == pytest.approx(before.objective, rel=1e-9, abs=0.0)


def test_one_core_gives_each_solve_its_own_time_limit(reduced_case, reduced_options, count_cores):
    # each solve sets its own time limit, so a changed limit keeps the core
    model, _ = build_model(reduced_case, "S5", reduced_options)
    assert solve_milp(model, reduced_options).status == "optimal"
    core = branch_bound._cores[model]
    cold = core._highs.getRunTime()  # the run clock after one cold run
    for options in (replace(reduced_options, time_limit=60.0), reduced_options):
        assert solve_milp(model, options).status == "optimal"
    # HiGHS's run clock counts every run of an instance; cold solves that
    # together take far longer than the limit each finish inside it
    tight = replace(reduced_options, time_limit=20 * cold)
    for _ in range(60):
        core._hot = False  # as after a run that was not optimal: each run is cold and takes about `cold`
        assert solve_milp(model, tight).status == "optimal"
    assert count_cores[0] == 1 and branch_bound._cores[model] is core
    assert core._highs.getRunTime() > tight.time_limit


def test_deleted_model_leaves_the_cores(reduced_case, reduced_options):
    model, _ = build_model(reduced_case, "S5", reduced_options)
    solve_milp(model, reduced_options)
    entries, core = len(branch_bound._cores), weakref.ref(branch_bound._cores[model])
    del model
    assert len(branch_bound._cores) == entries - 1
    assert core() is None


SET_UP = {"setBasis", "changeColsBounds", "clearSolver", "changeRowBounds"}


@pytest.mark.parametrize("sweep, priced, moved", [(sweep_lambda, True, set()),
                                                  (sweep_interval, False, {"changeRowBounds"})], ids=["lambda", "d"])
def test_sweep_points_restart_hot(reduced_case, reduced_options, highs_calls, sweep, priced, moved):
    # eleven points on one core: the first takes the costs and bounds the
    # core loaded, so it sets none, and starts cold; every later one keeps
    # the basis and bounds HiGHS holds, passes the costs that moved (lambda
    # moves some, d none) and, for d, moves the knee rows
    grid = [0.10 + 0.05 * i for i in range(11)] if sweep is sweep_lambda else [1000.0 + 250.0 * i for i in range(11)]
    points = sweep(reduced_case, "S5", grid, reduced_options)
    assert [(p.status, p.error) for p in points] == [("optimal", None)] * 11
    runs = per_run(highs_calls)
    assert len(runs) == 11
    assert SET_UP & set(runs[0]) == {"clearSolver"}
    for run in runs[1:]:
        assert ("changeColsCost" in run) == priced and SET_UP & set(run) == moved, run


def test_repriced_sweep_point_makes_the_pinned_highs_calls(reduced_case, reduced_options, highs_calls):
    # the first point runs cold on the costs the core loaded; the second
    # passes the costs, sets its time limit and simplex variant and runs hot;
    # each then reads the status, the objective and the point
    sweep_lambda(reduced_case, "S5", [0.1, 0.2], reduced_options)
    read = ["getModelStatus", "getInfo", "getSolution"]
    assert highs_calls == ["setOptionValue", "clearSolver", "setOptionValue", "run", *read,
                           "changeColsCost", "setOptionValue", "setOptionValue", "run", *read]


def test_point_after_a_raising_solve_starts_cold(reduced_case, reduced_options, highs_calls, monkeypatch):
    # the third point's core raises before its run; the fourth loads a new
    # core with its bounds and starts cold, and the fifth restarts hot on it
    solve, calls = branch_bound._ScipyCore.solve, []

    def third_fails(self, model, options):
        calls.append(self)
        if len(calls) == 3:
            raise NumericalFailure("LP core failed: injected")
        return solve(self, model, options)

    monkeypatch.setattr(branch_bound._ScipyCore, "solve", third_fails)
    points = sweep_lambda(reduced_case, "S5", [0.2, 0.3, 0.4, 0.5, 0.6], reduced_options)
    assert [p.status for p in points] == ["optimal", "optimal", "numerical_failure", "optimal", "optimal"]
    runs = per_run(highs_calls)
    assert len(runs) == 4 and calls[3] is not calls[2]
    assert [SET_UP & set(run) for run in runs] == [{"clearSolver"}, set(), {"clearSolver"}, set()]


@pytest.mark.parametrize("sweep, field, grid", [
    (sweep_lambda, "lambda_base", LAMBDA_GRID),
    (sweep_interval, "interval_d", INTERVAL_GRID),
], ids=["lambda", "d"])
@pytest.mark.parametrize("scenario", ["S3", "S4", "S5"])
def test_chained_sweep_matches_fresh_solves(sweep_cases, reduced_options, sweep, field, grid, scenario):
    gap_tol = reduced_options.gap_tol
    for i, case in enumerate(sweep_cases):
        points = sweep(case, scenario, grid, reduced_options)
        assert [p.value for p in points] == grid
        for p in points:
            # a row without an error is one whose solution passed verify_solution
            assert (p.status, p.error) == ("optimal", None), (i, p.value, p.error)
            point = replace(case, carbon=replace(case.carbon, **{field: p.value}))
            fresh = run_scenario(point, scenario, reduced_options)
            assert _agree(p.objective, fresh.objective, gap_tol), (i, p.value, p.objective, fresh.objective)


VALUE_GRIDS = {"lambda": [0.05 * k for k in range(1, 13)], "d": [500.0 * k for k in range(1, 9)]}


def _bends(points, sign: float) -> list:
    """Where the objective's slope between grid points turns the wrong way, beyond a relative 1e-9.

    ``sign`` is -1 for a concave series (each slope at most the one
    before) and +1 for a convex one (at least the one before).
    """
    slopes = [(b.objective - a.objective) / (b.value - a.value) for a, b in zip(points, points[1:])]
    return [(points[i + 1].value, a, b) for i, (a, b) in enumerate(zip(slopes, slopes[1:]))
            if sign * (b - a) < -1e-9 * max(abs(a), abs(b))]


@pytest.mark.parametrize("backend", ["embedded", "scipy-milp"])
@pytest.mark.parametrize("label, scenario", [("reduced", "S3"), ("reduced", "S5"), ("perturbed", "S5")])
def test_sweep_objective_is_concave_in_lambda_and_convex_in_d(sweep_cases, label, scenario, backend):
    # lambda scales only costs and d moves only right-hand sides of an LP, so
    # the optimum is a minimum of affine functions of lambda (concave) and
    # the value function of an LP in its right-hand side (convex in d)
    case = sweep_cases[0 if label == "reduced" else 1]
    options = DispatchOptions(pwl_segments=4, backend=backend)
    for sweep, param, sign in ((sweep_lambda, "lambda", -1.0), (sweep_interval, "d", 1.0)):
        points = sweep(case, scenario, VALUE_GRIDS[param], options)
        assert [p.status for p in points] == ["optimal"] * len(points), param
        assert _bends(points, sign) == [], param


@pytest.mark.parametrize("jobs", [0, -3, 1.5, True])
def test_bad_jobs_are_refused_before_any_solve(reduced_case, reduced_options, monkeypatch, jobs):
    # jobs 0 once gave a sweep no chunk and so no points; True is no count
    def no_task(task):
        raise AssertionError(f"ran {task[1]}")

    monkeypatch.setattr(dispatch, "_scenario_task", no_task)
    message = re.escape(f"jobs {jobs!r}: need {'at least 1 job' if type(jobs) is int else 'an int'}")
    for run in (partial(run_all_scenarios, reduced_case, reduced_options),
                partial(sweep_lambda, reduced_case, "S5", [0.1, 0.2], reduced_options),
                partial(sweep_interval, reduced_case, "S5", [1000.0, 2000.0], reduced_options)):
        with pytest.raises(ValueError, match=message):
            run(jobs=jobs)


def test_sweep_builds_one_core_per_chunk(reduced_case, reduced_options, count_cores, serial_pool):
    # a sweep never starts more workers than it has chunks, and each chunk
    # runs on one core
    grid = [0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4]
    for jobs, chunks in ((1, 1), (3, 3), (500, 7)):
        count_cores[0] = 0
        points = sweep_lambda(reduced_case, "S5", grid, reduced_options, jobs=jobs)
        assert [p.value for p in points] == grid
        assert all(p.status == "optimal" for p in points)
        assert count_cores[0] == chunks, jobs
    assert serial_pool == [3, 7]


def test_chained_sweep_through_binding_gates(binding_case, reduced_options, count_cores, sweep_spy):
    # gates bind in S2 on this case; each point's gated rounds go to HiGHS
    # branch-and-cut, and a point after a gated one builds its model again,
    # which loads its own core: one core per built model
    case, every_gate_objectives = binding_case
    grid = [0.5, 1.0, 1.5, 2.0]
    points = sweep_lambda(case, "S2", grid, reduced_options)
    assert any(p["gated"] for p in sweep_spy)
    assert count_cores[0] == sum(p["built"] for p in sweep_spy)
    for p in points:
        assert (p.status, p.error) == ("optimal", None), (p.value, p.error)
        fresh = run_scenario(replace(case, carbon=replace(case.carbon, lambda_base=p.value)), "S2",
                             reduced_options)
        assert _agree(p.objective, fresh.objective, reduced_options.gap_tol), (p.value, p.objective)
    assert _agree(points[-1].objective, every_gate_objectives["S2"], reduced_options.gap_tol)


# -- sweeps on one model per chunk ---------------------------------------------------


@pytest.fixture()
def sweep_spy(monkeypatch):
    """Record each sweep point's case, whether it built its model, and whether it added gates.

    Returns a list with one dict per ``run_scenario`` call, in call order.
    """
    points = []
    run, build, add = dispatch.run_scenario, dispatch.build_model, dispatch.add_gates

    def spy_run(case, scenario, options=None):
        points.append({"case": case, "built": False, "gated": False})
        return run(case, scenario, options)

    def spy_build(*args):
        points[-1]["built"] = True
        return build(*args)

    def spy_add(*args):
        points[-1]["gated"] = True
        return add(*args)

    monkeypatch.setattr(dispatch, "run_scenario", spy_run)
    monkeypatch.setattr(dispatch, "build_model", spy_build)
    monkeypatch.setattr(dispatch, "add_gates", spy_add)
    return points


@pytest.mark.parametrize("sweep, grid", [(sweep_lambda, LAMBDA_GRID), (sweep_interval, INTERVAL_GRID)],
                         ids=["lambda", "d"])
@pytest.mark.parametrize("scenario", ["S2", "S3", "S4", "S5"])
def test_repriced_model_is_the_fresh_build(bundled_case, sweep_cases, reduced_options, sweep_spy,
                                           monkeypatch, sweep, grid, scenario):
    # the model a point solves first compiles, entry for entry, to the
    # gate-free model build_model makes for that point's case (the name
    # imported here is not the spy)
    solve, differences = dispatch.solve_milp, []

    def compare(model, options, **kwargs):
        fresh, _ = build_model(sweep_spy[-1]["case"], scenario, options)
        differences.append(compiled_differences(model, fresh))
        return solve(model, options, **kwargs)

    monkeypatch.setattr(dispatch, "solve_milp", compare)
    for case, options in [(bundled_case, DispatchOptions()), *((c, reduced_options) for c in sweep_cases)]:
        sweep_spy.clear()
        differences.clear()
        points = sweep(case, scenario, grid, options)
        assert differences == [[]] * len(grid)
        assert [(p.status, p.error) for p in points] == [("optimal", None)] * len(grid)
        assert [p["built"] for p in sweep_spy] == [True] + [False] * (len(grid) - 1)


def test_sweep_builds_one_model_per_chunk(reduced_case, reduced_options, sweep_spy, serial_pool):
    grid = [0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4]
    for jobs, chunks in ((1, 1), (3, 3), (500, 7)):
        sweep_spy.clear()
        points = sweep_lambda(reduced_case, "S5", grid, reduced_options, jobs=jobs)
        assert all(p.status == "optimal" for p in points)
        assert sum(p["built"] for p in sweep_spy) == chunks, jobs
        assert not any(p["gated"] for p in sweep_spy)
    # outside a sweep every run builds its own model
    sweep_spy.clear()
    for _ in range(2):
        dispatch.run_scenario(reduced_case, "S5", reduced_options)
    assert [p["built"] for p in sweep_spy] == [True, True]


def test_point_after_a_gated_point_builds_again(binding_case, reduced_options, sweep_spy):
    # a point that adds gates leaves no model behind: the next one builds
    case, _ = binding_case
    points = sweep_lambda(case, "S2", [0.5, 1.0, 1.5, 2.0], reduced_options)
    assert all(p.status == "optimal" for p in points)
    gated = [p["gated"] for p in sweep_spy]
    assert any(gated)
    assert [p["built"] for p in sweep_spy] == [True] + gated[:-1]


def test_point_after_a_failed_point_builds_again(reduced_case, reduced_options, sweep_spy, monkeypatch):
    # the third point re-prices the model and its LP core fails: the model
    # is not put back, so the fourth point builds afresh
    solve, calls = branch_bound._ScipyCore.solve, []

    def third_fails(self, model, options):
        calls.append(self)
        if len(calls) == 3:
            raise NumericalFailure("LP core failed: injected")
        return solve(self, model, options)

    monkeypatch.setattr(branch_bound._ScipyCore, "solve", third_fails)
    points = sweep_lambda(reduced_case, "S5", [0.2, 0.3, 0.4, 0.5], reduced_options)
    assert [p.status for p in points] == ["optimal", "optimal", "numerical_failure", "optimal"]
    assert [p["built"] for p in sweep_spy] == [True, False, False, True]


@pytest.mark.parametrize("sweep", [sweep_lambda, sweep_interval], ids=["lambda", "d"])
@pytest.mark.parametrize("grid", [[0.2, float("nan"), 0.4], [0.2, float("inf")], [0.0, 0.2]],
                         ids=["nan", "inf", "zero"])
def test_bad_grid_is_refused_before_any_point_runs(reduced_case, reduced_options, sweep_spy, sweep, grid):
    # a re-priced point is not validated again: check_grid alone keeps its
    # lambda_base or interval_d positive and finite
    with pytest.raises(ValueError, match="positive and finite"):
        sweep(reduced_case, "S5", grid, reduced_options)
    assert sweep_spy == []


def test_case_differing_in_another_field_builds_afresh(reduced_case, reduced_options, sweep_spy):
    # only lambda_base and interval_d may differ from the held case
    model, vm = build_model(reduced_case, "S5", reduced_options)
    held, scenario, carbon = (reduced_case, model, vm), as_scenario("S5"), reduced_case.carbon
    moved = replace(reduced_case, carbon=replace(carbon, lambda_base=0.4, interval_d=900.0))
    assert dispatch._repriceable(held, moved, scenario, reduced_options)
    others = [replace(reduced_case, **{f.name: object()}) for f in dataclasses.fields(reduced_case)
              if f.name != "carbon"]
    others += [replace(reduced_case, carbon=replace(carbon, **{f.name: object()}))
               for f in dataclasses.fields(carbon) if f.name not in ("lambda_base", "interval_d")]
    assert not any(dispatch._repriceable(held, case, scenario, reduced_options) for case in others)
    # on one slot, a point whose case differs in another field builds its own model
    steeper = replace(reduced_case, carbon=replace(carbon, alpha_growth=2 * carbon.alpha_growth + 0.1))
    results = dispatch._chained_tasks([(reduced_case, "S5", reduced_options), (steeper, "S5", reduced_options)])
    assert [p["built"] for p in sweep_spy] == [True, True]
    fresh = run_scenario(steeper, "S5", reduced_options)
    assert results[1][2].objective == pytest.approx(fresh.objective, rel=1e-9, abs=0.0)


# -- exact LP forms of the convex cost terms ------------------------------------------

# Bundled full-case optima of the earlier formulation, which gated every
# demand-response adjustment and every carbon tier with binaries.
GATED_OBJECTIVES = {
    "S1": 15526.090437,
    "S2": 16172.746708,
    "S3": 16206.576735,
    "S4": 16079.695285,
    "S5": 16073.368256,
}


@pytest.mark.parametrize("backend", ["embedded", "scipy-milp"])
def test_zero_carbon_price_solves_like_s1(bundled_case, backend):
    # at lambda = 0 every tier costs nothing, so S2 and S3 are S1's model
    free = replace(bundled_case, carbon=replace(bundled_case.carbon, lambda_base=0.0))
    options = DispatchOptions(backend=backend)
    report = run_all_scenarios(free, options, scenario_ids=("S1", "S2", "S3"))
    base = report.solutions["S1"].objective
    assert base == pytest.approx(GATED_OBJECTIVES["S1"], rel=options.gap_tol)
    for sid in ("S2", "S3"):
        sol = report.solutions[sid]
        assert sol.verification.passed
        assert sol.surrogate_actual_kg is None and sol.surrogate_carbon_cost is None
        assert sol.costs.carbon == 0.0
        assert abs(sol.objective - base) <= options.gap_tol * abs(base), (sid, sol.objective)


def test_round_off_gaps_read_zero(bundled_case):
    # these polished incumbents sit on the root bound: the difference the
    # LP leaves (about 1e-16 relative) is round-off, not an open gap
    points = sweep_lambda(bundled_case, "S5", [0.15, 0.25, 0.30, 0.35])
    points += sweep_interval(bundled_case, "S5", [1000.0])
    assert [(p.status, p.gap) for p in points] == [("optimal", 0.0)] * 5


def test_only_storage_gates_are_binary(bundled_case):
    for sid in SCENARIO_IDS:
        model, vm = every_gate_model(bundled_case, sid)
        gates = sorted(vid for blk in vm.storage.values() for vid in blk.gate.values())
        assert model.binary_ids() == gates, sid
        gate_free = build_model(bundled_case, sid)[0]
        assert gate_free.binary_ids() == [], sid
        # a gate costs nothing, and the other columns keep their costs
        c, free_c = model.to_sparse()[0], gate_free.to_sparse()[0]
        assert c[gates].tolist() == [0.0] * len(gates) and c[:free_c.size].tobytes() == free_c.tobytes(), sid


def _every_gate_objective(case, scenario, options) -> float:
    """The objective of the fully gated model.

    Both backends hand a model with binaries to the same HiGHS
    branch-and-cut, so one solve serves as the reference for either.
    """
    return solve_milp(every_gate_model(case, scenario, options)[0], options).objective


def _agree(a: float, b: float, gap_tol: float) -> bool:
    """Both objectives are within gap_tol of one optimum, so of each other."""
    return abs(a - b) <= gap_tol * max(1.0, abs(a), abs(b))


@pytest.fixture(scope="module")
def binding_case(bundled_case):
    """A case whose gates bind in S2, with the fully gated optimum of each scenario."""
    # a heat quota of 2 kg/kWh, above the ~0.5 kg/kWh the gas units emit,
    # sold at 2 per kg, pays for heat nobody needs; the heat store is its only
    # sink, and it wastes most by charging and discharging at once
    case = reduce_case(bundled_case, 4)
    case = replace(case, carbon=replace(case.carbon, sigma_h=2.0, lambda_base=2.0))
    options = DispatchOptions(pwl_segments=4)
    return case, {sid: _every_gate_objective(case, sid, options) for sid in SCENARIO_IDS}


@pytest.mark.parametrize("backend", ["embedded", "scipy-milp"])
def test_gates_are_added_where_storage_overlaps(binding_case, monkeypatch, backend):
    case, every_gate_objectives = binding_case
    options = DispatchOptions(backend=backend, pwl_segments=4)
    builds, found, added = [], [], []  # found: overlaps of each round, which verify_solution reuses
    build, overlaps, add = dispatch.build_model, dispatch._storage_overlaps, dispatch.add_gates

    def spy_build(*args):
        builds.append(args)
        return build(*args)

    def spy_overlaps(case, storage):
        out = overlaps(case, storage)
        found.append(set(out))
        return out

    def spy_add(case, model, vm, pairs):
        added.append(set(pairs))
        return add(case, model, vm, pairs)

    monkeypatch.setattr(dispatch, "build_model", spy_build)
    monkeypatch.setattr(dispatch, "_storage_overlaps", spy_overlaps)
    monkeypatch.setattr(dispatch, "add_gates", spy_add)
    sol = run_scenario(case, "S2", options)  # raises unless it verifies
    monkeypatch.undo()
    assert len(builds) == 1
    assert len(added) >= 1 and len(found) == len(added) + 1
    gated = set()
    for overlapping, pairs in zip(found, added):
        assert pairs and pairs == overlapping - gated
        gated |= pairs
    assert found[len(added)] <= gated
    assert sol.verification.passed
    assert sol.nodes >= len(added) + 1
    assert _agree(sol.objective, every_gate_objectives["S2"], options.gap_tol)


@pytest.mark.parametrize("backend", ["embedded", "scipy-milp"])
def test_gates_on_demand_match_every_gate(binding_case, backend):
    case, every_gate_objectives = binding_case
    options = DispatchOptions(backend=backend, pwl_segments=4)
    for sid, want in every_gate_objectives.items():
        sol = run_scenario(case, sid, options)  # raises unless it verifies
        assert _agree(sol.objective, want, options.gap_tol), (sid, sol.objective, want)


@settings(max_examples=12, deadline=None)
@given(
    scenario=st.sampled_from(SCENARIO_IDS),
    reduced=st.booleans(),
    factors=st.fixed_dictionaries(
        {k: st.floats(min_value=0.9, max_value=1.1) for k in ("electric", "gas", "heat", "wind")}
    ),
)
def test_embedded_search_agrees_with_scipy_milp(bundled_case, scenario, reduced, factors):
    case = scale_profiles(bundled_case, factors)
    options = DispatchOptions()
    if reduced:
        case, options = reduce_case(case, 2), DispatchOptions(pwl_segments=4)
    # run_scenario raises unless the solution verifies
    mine = run_scenario(case, scenario, options)
    ref = run_scenario(case, scenario, replace(options, backend="scipy-milp"))
    # all three are within gap_tol above the same optimum
    reference = _every_gate_objective(case, scenario, options)
    assert _agree(mine.objective, ref.objective, options.gap_tol), (mine.objective, ref.objective)
    assert _agree(mine.objective, reference, options.gap_tol), (mine.objective, reference)
    assert _agree(ref.objective, reference, options.gap_tol), (ref.objective, reference)


@pytest.mark.parametrize("backend", ["embedded", "scipy-milp"])
def test_time_limit_ends_the_run_with_status_limit(bundled_case, backend):
    with pytest.raises(SolveFailedError) as info:
        run_scenario(bundled_case, "S5", DispatchOptions(time_limit=1e-6, backend=backend))
    assert info.value.status == "limit"


def test_full_case_optima_match_the_gated_formulation(bundled_case):
    options = DispatchOptions()
    report = run_all_scenarios(bundled_case, options)
    for row in report.rows:
        want = GATED_OBJECTIVES[row.scenario_id]
        assert row.status == "optimal", (row.scenario_id, row.error)
        assert abs(row.objective - want) <= options.gap_tol * abs(want), (row.scenario_id, row.objective)
