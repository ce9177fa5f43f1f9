"""Load decomposition, satisfaction index, and DR variable blocks."""

from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from iesdispatch.demand_response import (
    SHIFT,
    SUBSTITUTE,
    DegenerateLoadError,
    build_dr_blocks,
    decompose_loads,
    satisfaction_index,
)
from iesdispatch.dispatch import as_scenario, build_model
from iesdispatch.milp_ir import MilpModel
from iesdispatch.model_core import CARRIERS, UnitError, default_case_path, load_case, scale_profiles


@pytest.fixture(scope="module")
def case():
    return load_case(default_case_path())


# -- decomposition ---------------------------------------------------------------


def test_decompose_splits_by_fraction(case):
    dec = decompose_loads(case)
    load0 = case.loads["electric"].values[0]
    assert dec.shiftable_base["electric"][0] == pytest.approx(0.10 * load0)
    assert dec.substitutable_base["electric"][0] == pytest.approx(0.05 * load0)


def test_decompose_sums_back_to_load(case):
    dec = decompose_loads(case)
    for carrier in CARRIERS:
        share = case.dr.shiftable_fraction.get(carrier, 0.0) + case.dr.substitutable_fraction.get(carrier, 0.0)
        for t, load in enumerate(case.loads[carrier].values):
            total = dec.shiftable_base[carrier][t] + dec.substitutable_base[carrier][t]
            assert total == pytest.approx(share * load, rel=1e-12)
            assert total <= load


def test_decompose_zero_fractions_identity(case):
    frozen = replace(
        case,
        dr=replace(
            case.dr,
            shiftable_fraction={k: 0.0 for k in CARRIERS},
            substitutable_fraction={k: 0.0 for k in CARRIERS},
        ),
    )
    dec = decompose_loads(frozen)
    for carrier in CARRIERS:
        assert dec.shiftable_base[carrier] == (0.0,) * len(case.loads[carrier].values)
        assert dec.substitutable_base[carrier] == (0.0,) * len(case.loads[carrier].values)


@settings(max_examples=100, deadline=None)
@given(
    scale=st.floats(min_value=0.05, max_value=4.0),
    shift=st.floats(min_value=0.0, max_value=1.0),
    rest=st.floats(min_value=0.0, max_value=1.0),
)
@example(scale=1.0, shift=0.7, rest=1.0)  # fractions that sum to 1 only within rounding
def test_decompose_conserves_load(case, scale, shift, rest):
    subst = rest * (1.0 - shift)
    scaled = scale_profiles(case, {"electric": scale})
    scaled = replace(
        scaled,
        dr=replace(
            scaled.dr,
            shiftable_fraction={k: shift for k in CARRIERS},
            substitutable_fraction={k: subst for k in CARRIERS},
        ),
    )
    dec = decompose_loads(scaled)
    for carrier in CARRIERS:
        for t, load in enumerate(scaled.loads[carrier].values):
            shiftable, substitutable = dec.shiftable_base[carrier][t], dec.substitutable_base[carrier][t]
            assert shiftable == shift * load and substitutable == subst * load
            assert shiftable + substitutable <= load * (1.0 + 1e-12)


# -- satisfaction index ----------------------------------------------------------


def test_satisfaction_identity():
    orig = {"electric": [100.0] * 4, "gas": [50.0] * 4, "heat": [80.0] * 4}
    assert satisfaction_index(orig, orig) == 1.0


def test_satisfaction_single_carrier_deviation():
    orig = {"electric": [100.0] * 4, "gas": [50.0] * 4, "heat": [80.0] * 4}
    adj = {"electric": [110.0, 90.0, 100.0, 100.0], "gas": [50.0] * 4, "heat": [80.0] * 4}
    # deviation 20 kWh against 400 kWh, averaged over three carriers
    assert satisfaction_index(orig, adj) == pytest.approx(1.0 - 20.0 / 400.0 / 3.0)


def test_satisfaction_fixture_055():
    orig = {"electric": [100.0], "gas": [100.0], "heat": [100.0]}
    adj = {"electric": [145.0], "gas": [55.0], "heat": [145.0]}
    assert satisfaction_index(orig, adj) == pytest.approx(0.55)


def test_satisfaction_zero_energy_without_deviation_is_perfect():
    orig = {"electric": [0.0], "gas": [1.0], "heat": [1.0]}
    assert satisfaction_index(orig, dict(orig)) == 1.0


def test_satisfaction_degenerate_deviation_raises():
    orig = {"electric": [0.0], "gas": [1.0], "heat": [1.0]}
    adj = {"electric": [2.0], "gas": [1.0], "heat": [1.0]}
    with pytest.raises(DegenerateLoadError, match="zero-energy"):
        satisfaction_index(orig, adj)


def test_satisfaction_horizon_mismatch_raises():
    orig = {"electric": [1.0, 2.0], "gas": [1.0], "heat": [1.0]}
    adj = {"electric": [1.0], "gas": [1.0], "heat": [1.0]}
    with pytest.raises(ValueError, match="horizon mismatch"):
        satisfaction_index(orig, adj)


# -- MILP blocks -----------------------------------------------------------------


def test_blocks_empty_without_dr(case):
    model = MilpModel()
    vm = build_dr_blocks(case, as_scenario("S1"), model)
    assert not vm.p_in
    assert (model.num_variables, model.num_constraints) == (0, 0)
    assert vm.compensation.ids.size == 0 and vm.compensation.constant == 0.0


def test_blocks_shift_only_for_shift_carriers(case):
    model = MilpModel()
    vm = build_dr_blocks(case, as_scenario("S4"), model)
    assert vm.p_in
    assert set(vm.p_in) == {("electric", SHIFT), ("heat", SHIFT)}
    # one in/out magnitude pair per carrier per period, no gate binaries
    assert model.num_variables == 2 * case.horizon.periods * 2
    assert model.binary_ids() == []


def test_blocks_substitution_adds_all_carriers(case):
    model = MilpModel()
    vm = build_dr_blocks(case, as_scenario("S5"), model)
    keys = set(vm.p_in)
    assert ("electric", SUBSTITUTE) in keys
    assert ("gas", SUBSTITUTE) in keys
    assert ("heat", SUBSTITUTE) in keys
    assert vm.compensation.coeffs.size  # nonzero cost hook


# The blocks take a validated case: build_model refuses these at validate_case's locator.


def test_blocks_reject_negative_upper_bound(case):
    bad = replace(
        case,
        dr=replace(case.dr, shift_bounds={"electric": (-5.0, -1.0), "gas": None, "heat": None}),
    )
    with pytest.raises(UnitError, match="max must be >= 0") as info:
        build_model(bad, "S4")
    assert info.value.locator == "dr.shift_bounds.electric"


def test_blocks_reject_empty_window(case):
    bad = replace(
        case,
        dr=replace(case.dr, shift_bounds={"electric": (5.0, 1.0), "gas": None, "heat": None}),
    )
    with pytest.raises(UnitError, match="min > max") as info:
        build_model(bad, "S4")
    assert info.value.locator == "dr.shift_bounds.electric"


def test_blocks_reject_negative_compensation(case):
    # P_in + P_out is the absolute deviation only under a non-negative weight
    bad = replace(case, dr=replace(case.dr, mu_shift=-0.1))
    with pytest.raises(UnitError, match="compensation coefficients must be >= 0") as info:
        build_model(bad, "S4")
    assert info.value.locator == "dr"


def test_blocks_literal_eq2_variant_builds(case):
    literal = replace(case, dr=replace(case.dr, literal_eq2=True))
    model = MilpModel()
    vm = build_dr_blocks(literal, as_scenario("S5"), model)
    assert vm.p_in
    names = {c.name for c in model.constraints}
    assert not any(name.startswith("dr_subst_couple") for name in names)


def test_blocks_default_has_per_period_coupling(case):
    model = MilpModel()
    build_dr_blocks(case, as_scenario("S5"), model)
    names = {c.name for c in model.constraints}
    coupled = [n for n in names if n.startswith("dr_subst_couple")]
    assert len(coupled) == case.horizon.periods
