"""Carbon accounting: quota, actual emissions, tiered cost, MILP encoding."""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from milp_oracles import compiled_differences

from iesdispatch.carbon import (
    FlowSchedule,
    actual_emissions,
    carbon_cost,
    emission_account,
    encode_carbon_cost,
    n_tiers,
    price_ladder,
    quota_total,
    tier_cost,
    tier_knee,
    tier_slope,
    traditional_cost,
)
from iesdispatch.dispatch import build_model
from iesdispatch.milp_ir import CONTINUOUS, EQ, MilpModel, linear_form
from iesdispatch.model_core import (
    MECHANISM_NONE,
    MECHANISM_TRADITIONAL,
    UnitError,
    default_case_path,
    load_case,
)
from iesdispatch.solver import solve_milp


@pytest.fixture(scope="module")
def policy():
    return load_case(default_case_path()).carbon


def _flat(step_hours=1.0, **kw) -> FlowSchedule:
    fields = dict(p_e_buy=0.0, p_gt_e=0.0, p_gt_h=0.0, p_gb_h=0.0, p_g_load=0.0, p_p2g_g=0.0)
    fields.update(kw)
    return FlowSchedule(step_hours=step_hours, **{k: [v] * 24 for k, v in fields.items()})


# -- tiered cost curve -----------------------------------------------------------


def test_tier_cost_spot_values(policy):
    assert tier_cost(0.0, policy) == pytest.approx(0.0, abs=1e-9)
    assert tier_cost(2000.0, policy) == pytest.approx(502.0, abs=1e-9)
    assert tier_cost(5000.0, policy) == pytest.approx(1506.0, abs=1e-9)
    assert tier_cost(-1000.0, policy) == pytest.approx(-251.0, abs=1e-9)


def test_tier_cost_continuous_at_knees(policy):
    for k in range(1, n_tiers(policy)):
        knee = k * policy.interval_d
        below = tier_cost(knee - 1e-9, policy)
        above = tier_cost(knee + 1e-9, policy)
        assert above - below == pytest.approx(0.0, abs=1e-7)
        assert tier_cost(knee, policy) == pytest.approx(tier_knee(policy, k), abs=1e-9)


def test_tier_slopes_escalate(policy):
    slopes = [tier_slope(policy, k) for k in range(n_tiers(policy))]
    assert slopes[0] == pytest.approx(policy.lambda_base)
    assert slopes == sorted(slopes)
    assert slopes[-1] == pytest.approx(policy.lambda_base * (1 + 5 * policy.alpha_growth))


def test_traditional_cost(policy):
    assert traditional_cost(5000.0, policy) == pytest.approx(1255.0, abs=1e-9)
    assert traditional_cost(-1000.0, policy) == pytest.approx(-251.0, abs=1e-9)


def test_carbon_cost_dispatch(policy):
    assert carbon_cost(5000.0, policy) == tier_cost(5000.0, policy)
    trad = replace(policy, mechanism=MECHANISM_TRADITIONAL)
    assert carbon_cost(5000.0, trad) == traditional_cost(5000.0, trad)
    none = replace(policy, mechanism=MECHANISM_NONE)
    assert carbon_cost(5000.0, none) == 0.0


@settings(max_examples=200, deadline=None)
@given(share=st.floats(min_value=0.0, max_value=50_000.0, allow_nan=False))
def test_tier_cost_dominates_base_price(share):
    policy = load_case(default_case_path()).carbon
    assert tier_cost(share, policy) >= policy.lambda_base * share - 1e-9


@settings(max_examples=200, deadline=None)
@given(
    a=st.floats(min_value=-20_000.0, max_value=50_000.0),
    b=st.floats(min_value=-20_000.0, max_value=50_000.0),
)
def test_tier_cost_monotone_in_share(a, b):
    policy = load_case(default_case_path()).carbon
    lo, hi = min(a, b), max(a, b)
    assert tier_cost(lo, policy) <= tier_cost(hi, policy) + 1e-9


# -- accounting ------------------------------------------------------------------


def test_quota_purchased_power(policy):
    q = quota_total(_flat(p_e_buy=100.0), policy)
    assert q.e_buy == pytest.approx(1915.2)  # 0.798 * 100 kW * 24 h
    assert q.gt == q.gb == q.g_load == 0.0


def test_quota_heat_output(policy):
    q = quota_total(_flat(p_gt_h=25.0, p_gb_h=25.0), policy)
    assert q.gt + q.gb == pytest.approx(462.0)  # 0.385 * 50 kW * 24 h


def test_quota_weights_gt_power_by_sigma_eh(policy):
    only_e = quota_total(_flat(p_gt_e=10.0), policy)
    only_h = quota_total(_flat(p_gt_h=10.0), policy)
    assert only_e.gt == pytest.approx(policy.sigma_eh * only_h.gt)


def test_actual_linear_coal(policy):
    linear = replace(policy, coal_quad=(0.0, 1.0, 0.0))
    a = actual_emissions(_flat(p_e_buy=10.0), linear)
    assert a.e_buy == pytest.approx(240.0)  # 1.0 kg/kWh * 10 kW * 24 h


def test_actual_p2g_absorption(policy):
    a = actual_emissions(_flat(p_p2g_g=100.0), policy)
    assert a.p2g == pytest.approx(480.0)  # 0.2 * 100 kW * 24 h, subtracted
    acct = emission_account(_flat(p_p2g_g=100.0), policy)
    total = acct.actual.e_buy + acct.actual.gtgb + acct.actual.g_load - acct.actual.p2g
    assert total == pytest.approx(-480.0)


def test_actual_quadratic_terms(policy):
    a = actual_emissions(_flat(p_e_buy=100.0), policy)
    per_hour = 0.9 * 100.0 + 1e-4 * 100.0**2
    assert a.e_buy == pytest.approx(per_hour * 24.0)
    g = actual_emissions(_flat(p_gt_e=50.0, p_gt_h=30.0, p_gb_h=20.0), policy)
    q = 50.0 + 30.0 + 20.0
    assert g.gtgb == pytest.approx((0.48 * q + 8e-5 * q * q) * 24.0)


def test_step_hours_scales_energy(policy):
    one = quota_total(_flat(p_e_buy=100.0), policy)
    two = quota_total(_flat(step_hours=2.0, p_e_buy=100.0), policy)
    assert two.e_buy == pytest.approx(2.0 * one.e_buy)


def test_emission_account_by_hand(policy):
    round_numbers = replace(policy, sigma_e=0.5, sigma_h=0.25, sigma_gload=0.1, sigma_eh=2.0,
                            coal_quad=(1.0, 0.5, 0.01), gas_quad=(0.0, 0.2, 0.001),
                            delta_gasload=0.2, theta_p2g=0.5)
    schedule = FlowSchedule(step_hours=2.0, p_e_buy=(10.0, 20.0, 0.0), p_gt_e=(5.0, 0.0, 10.0),
                            p_gt_h=(10.0, 0.0, 20.0), p_gb_h=(0.0, 10.0, 10.0),
                            p_g_load=(50.0, 0.0, 30.0), p_p2g_g=(0.0, 4.0, 0.0))
    acct = emission_account(schedule, round_numbers)
    # quota, 2 h a period: 0.5 * 30; 0.25 * (2 * 15 + 30); 0.25 * 20; 0.1 * 80
    assert acct.quota.e_buy == pytest.approx(30.0, rel=1e-12)
    assert acct.quota.gt == pytest.approx(30.0, rel=1e-12)
    assert acct.quota.gb == pytest.approx(10.0, rel=1e-12)
    assert acct.quota.g_load == pytest.approx(16.0, rel=1e-12)
    # actual: coal f(10) + f(20) + f(0) = 7 + 15 + 1; gas on GT + GB outputs
    # 15, 10, 40: 3.225 + 2.1 + 9.6; 0.2 * 80 of gas load; 0.5 * 4 absorbed
    assert acct.actual.e_buy == pytest.approx(46.0, rel=1e-12)
    assert acct.actual.gtgb == pytest.approx(29.85, rel=1e-12)
    assert acct.actual.g_load == pytest.approx(32.0, rel=1e-12)
    assert acct.actual.p2g == pytest.approx(4.0, rel=1e-12)
    assert acct.quota.total == pytest.approx(86.0, rel=1e-12)
    assert acct.actual.total == pytest.approx(103.85, rel=1e-12)
    assert acct.trading_share == pytest.approx(17.85, rel=1e-12)


# -- MILP encoding ---------------------------------------------------------------


def _encoded_cost(act_val, quo_val, policy):
    m = MilpModel()
    act, quo = m.add_variables(CONTINUOUS, -50_000.0, 50_000.0, ["act", "quo"])
    m.add_rows([[act], [quo]], 1.0, EQ, [act_val, quo_val], ["pin_a", "pin_q"])
    cost, _ = price_ladder(encode_carbon_cost(m, policy, linear_form([act]), linear_form([quo])), policy)
    assert m.binary_ids() == []
    m.set_objective(cost)
    res = solve_milp(m)
    return res.status, res.objective


def test_encoding_matches_tier_cost(policy):
    top = n_tiers(policy) * policy.interval_d
    wider = replace(policy, extra_tiers=2)
    cases = [(share, 0.0, policy) for share in (5000.0, 3141.5, 0.0, 123.4, top + 2500.0)]
    cases += [(500.0, 1500.0, policy)]  # negative share: surplus quota is sold
    cases += [(share, 0.0, wider) for share in (top + 2500.0, n_tiers(wider) * wider.interval_d + 700.0)]
    for act, quo, pol in cases:
        status, obj = _encoded_cost(act, quo, pol)
        assert status == "optimal"
        assert obj == pytest.approx(tier_cost(act - quo, pol), abs=1e-7)


def test_encoding_matches_at_knees(policy):
    for k in range(1, n_tiers(policy)):
        share = k * policy.interval_d
        status, obj = _encoded_cost(share, 0.0, policy)
        assert status == "optimal"
        assert obj == pytest.approx(tier_cost(share, policy), abs=1e-7)


def test_encoding_negative_share_subsidy(policy):
    # selling happens through surplus quota, actual stays non-negative
    status, obj = _encoded_cost(500.0, 1500.0, policy)
    assert status == "optimal"
    assert obj == pytest.approx(-251.0, abs=1e-7)


def test_encoding_rejects_negative_actual(policy):
    status, _ = _encoded_cost(-1000.0, 0.0, policy)
    assert status == "infeasible"


def test_encoding_traditional_and_none(policy):
    trad = replace(policy, mechanism=MECHANISM_TRADITIONAL)
    status, obj = _encoded_cost(5000.0, 0.0, trad)
    assert status == "optimal"
    assert obj == pytest.approx(1255.0, abs=1e-7)

    none = replace(policy, mechanism=MECHANISM_NONE)
    m = MilpModel()
    act = m.add_variables(CONTINUOUS, 0.0, 10.0, ["act"])
    form, knee_rhs = price_ladder(encode_carbon_cost(m, none, linear_form(act), linear_form([])), none)
    assert form.ids.size == 0 and form.constant == 0.0 and knee_rhs == []
    assert m.num_constraints == 0


def _priced_ladder_model(policy):
    m = MilpModel()
    act, quo = m.add_variables(CONTINUOUS, -50_000.0, 50_000.0, ["act", "quo"])
    ladder = encode_carbon_cost(m, policy, linear_form([act], 1.0, 7.5), linear_form([quo], 0.9))
    m.set_objective(price_ladder(ladder, policy)[0])
    return m, ladder


@pytest.mark.parametrize("mechanism", ["tiered", MECHANISM_TRADITIONAL])
def test_repriced_ladder_is_the_fresh_encoding(policy, mechanism):
    # lambda moves only the cost form and d only the knee right-hand sides
    first = replace(policy, mechanism=mechanism)
    second = replace(first, lambda_base=2.5 * first.lambda_base, interval_d=0.4 * first.interval_d)
    m, ladder = _priced_ladder_model(first)
    A = m.to_sparse()[2]
    cost, knee_rhs = price_ladder(ladder, second)
    m.set_rhs(ladder.knees, knee_rhs)
    m.set_objective(cost)
    fresh, _ = _priced_ladder_model(second)
    assert len(ladder.knees) == (n_tiers(first) - 1 if mechanism == "tiered" else 0)
    assert compiled_differences(m, fresh) == []
    assert m.to_sparse()[2] is A


NONCONVEX_LADDER = {"alpha_growth": -0.1, "lambda_base": -0.1, "interval_d": 0.0}


@pytest.mark.parametrize("field", NONCONVEX_LADDER)
def test_encoding_rejects_nonconvex_ladder(field):
    # the epigraph form is exact only for a convex ladder of positive tier width;
    # the encoding takes a validated case, so build_model refuses the rest at
    # validate_case's locator
    case = load_case(default_case_path())
    bad = replace(case, carbon=replace(case.carbon, **{field: NONCONVEX_LADDER[field]}))
    with pytest.raises(UnitError) as info:
        build_model(bad, "S3")
    assert info.value.locator == f"carbon.{field}"
