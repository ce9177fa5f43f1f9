"""Model-builder IR: expressions, constraints, and linearization helpers."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iesdispatch.milp_ir import (
    EQ,
    GE,
    LE,
    BoundError,
    ConvexityError,
    DuplicateNameError,
    LinearExpression,
    MilpModel,
    TriviallyInfeasibleError,
    as_expression,
    pwl_convex,
    pwl_convex_error_bound,
    pwl_convex_value,
    quad_value,
)
from iesdispatch.solver import solve_lp


def test_expression_arithmetic():
    m = MilpModel()
    x = m.add_continuous(0, 10, "x")
    y = m.add_continuous(0, 10, "y")
    e = 2 * x + 3 * y - 1.5 + (x - y)
    assert e.coeffs == {x.id: 3.0, y.id: 2.0}
    assert e.constant == -1.5
    assert e.value([2.0, 1.0]) == pytest.approx(3 * 2 + 2 * 1 - 1.5)


def test_expression_drops_zero_coefficients():
    m = MilpModel()
    x = m.add_continuous(0, 1, "x")
    e = x - x + 4.0
    assert e.coeffs == {}
    assert as_expression(e).constant == 4.0


def test_variable_ids_dense():
    m = MilpModel()
    for i in range(10_000):
        m.add_continuous(0, 1, f"v{i}")
    assert [v.id for v in m.variables] == list(range(10_000))


def test_binary_bounds_clamped():
    m = MilpModel()
    b = m.add_binary("b")
    assert (b.kind, b.lower, b.upper) == ("binary", 0.0, 1.0)


def test_bad_bounds_rejected():
    m = MilpModel()
    with pytest.raises(BoundError):
        m.add_continuous(2.0, 1.0, "x")
    with pytest.raises(BoundError):
        m.add_continuous(0.0, math.nan, "y")


def test_duplicate_name_rejected():
    m = MilpModel()
    m.add_continuous(0, 1, "x")
    with pytest.raises(DuplicateNameError):
        m.add_continuous(0, 1, "x")


def test_constant_row_trivially_infeasible():
    m = MilpModel()
    m.add_continuous(0, 1, "x")
    with pytest.raises(TriviallyInfeasibleError):
        m.add_constraint(LinearExpression(), GE, -1.0 + 2.0, "bad")  # 0 >= 1


def test_constant_row_redundant_ok():
    m = MilpModel()
    m.add_continuous(0, 1, "x")
    m.add_constraint(LinearExpression(constant=1.0), LE, 2.0, "slack")  # 0 <= 1
    assert m.num_constraints == 1


def test_check_solution_reports_violations():
    m = MilpModel()
    x = m.add_continuous(0, 1, "x")
    m.add_constraint(as_expression(x), GE, 0.5, "half")
    assert m.check_solution([0.7]) == []
    bad = m.check_solution([0.2])
    assert any("half" in msg for msg in bad)


def test_quad_value():
    assert quad_value((1.0, 2.0, 3.0), 2.0) == pytest.approx(1 + 4 + 12)


# -- convex tangent-envelope linearization ------------------------------------


def _envelope_optimum(quad, x_max, segments, x_fix):
    """Minimize the surrogate with x pinned; returns the solved y."""
    m = MilpModel()
    x = m.add_continuous(0.0, x_max, "x")
    y = pwl_convex(m, x, quad, x_max, segments, "y")
    m.add_constraint(as_expression(x), EQ, x_fix, "pin")
    m.set_objective(as_expression(y))
    res = solve_lp(m)
    assert res.status == "optimal"
    return res.objective


def test_pwl_convex_error_bound_values():
    # f = x^2 on [0, 10]: two segments err 6.25, ten segments err 0.25
    assert pwl_convex_error_bound(1.0, 10.0, 2) == pytest.approx(6.25)
    assert pwl_convex_error_bound(1.0, 10.0, 10) == pytest.approx(0.25)


def test_pwl_convex_worst_case_midpoint():
    quad = (0.0, 0.0, 1.0)
    for x_fix in (2.5, 7.5):
        err = quad_value(quad, x_fix) - _envelope_optimum(quad, 10.0, 2, x_fix)
        assert err == pytest.approx(6.25, abs=1e-9)


def test_pwl_convex_affine_is_exact():
    quad = (1.0, 2.0, 0.0)
    for n in (1, 3, 7):
        for x_fix in (0.0, 1.3, 10.0):
            assert _envelope_optimum(quad, 10.0, n, x_fix) == pytest.approx(
                quad_value(quad, x_fix), abs=1e-9
            )


def test_pwl_convex_value_matches_lp():
    quad = (0.5, 1.5, 0.02)
    for n in (1, 2, 5):
        for x_fix in (0.0, 3.7, 50.0, 100.0):
            assert pwl_convex_value(quad, 100.0, n, x_fix) == pytest.approx(
                _envelope_optimum(quad, 100.0, n, x_fix), abs=1e-8
            )


@settings(max_examples=60, deadline=None)
@given(
    a=st.floats(0, 5),
    b=st.floats(0, 3),
    c=st.floats(0, 0.1),
    x_max=st.floats(1.0, 200.0),
    n=st.integers(1, 32),
    frac=st.floats(0.0, 1.0),
)
def test_pwl_convex_error_within_bound(a, b, c, x_max, n, frac):
    quad = (a, b, c)
    x_fix = frac * x_max
    y = pwl_convex_value(quad, x_max, n, x_fix)
    f = quad_value(quad, x_fix)
    assert y <= f + 1e-9  # envelope never overestimates
    assert f - y <= pwl_convex_error_bound(c, x_max, n) + 1e-9


def test_pwl_convex_rejects_concave():
    m = MilpModel()
    x = m.add_continuous(0, 1, "x")
    with pytest.raises(ConvexityError):
        pwl_convex(m, x, (0.0, 0.0, -1.0), 1.0, 2, "y")


def test_to_dense_shapes():
    m = MilpModel()
    x = m.add_continuous(0, 4, "x")
    y = m.add_binary("y")
    m.add_constraint(x + y, LE, 3.0, "row")
    m.set_objective(x + 2 * y + 5.0)
    c, c0, A, relations, rhs, lb, ub, is_binary = m.to_dense()
    assert A.shape == (1, 2)
    assert list(c) == [1.0, 2.0]
    assert c0 == 5.0
    assert relations == [LE]
    assert list(rhs) == [3.0]
    assert list(lb) == [0.0, 0.0] and list(ub) == [4.0, 1.0]
    assert list(is_binary) == [False, True]
