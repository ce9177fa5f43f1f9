"""Model-builder IR: expressions, constraints, and linearization helpers."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from milp_oracles import check_solution
from iesdispatch.milp_ir import (
    EQ,
    GE,
    LE,
    BoundError,
    ConvexityError,
    DuplicateNameError,
    LinearExpression,
    MilpModel,
    ModelError,
    TriviallyInfeasibleError,
    as_expression,
    pwl_convex,
    pwl_convex_error_bound,
    pwl_convex_value,
    quad_value,
    sum_expressions,
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


def test_non_finite_scalar_factor_rejected_at_once():
    m = MilpModel()
    x = m.add_continuous(0, 1, "x")
    e = 2.0 * x + 1.0
    with pytest.raises(ModelError):
        x * math.inf
    with pytest.raises(ModelError):
        e * math.nan
    with pytest.raises(ModelError):
        -math.inf * e


def test_overflowed_coefficient_rejected_at_the_model_boundary():
    # the operators trust their operands; the model does not
    m = MilpModel()
    x = m.add_continuous(0, 1, "x")
    huge = (1e300 * x) * 1e300
    assert huge.coeffs == {x.id: math.inf}
    with pytest.raises(ModelError, match="non-finite coefficient"):
        m.add_constraint(huge + 1.0, LE, 2.0, "row")
    with pytest.raises(ModelError, match="not finite"):
        m.set_objective(huge)
    with pytest.raises(ModelError, match="not finite"):
        m.set_objective(x + math.inf)
    assert m.num_constraints == 0 and m.objective.coeffs == {}


def test_public_constructor_still_validates():
    with pytest.raises(ModelError):
        LinearExpression({0: math.inf})
    with pytest.raises(ModelError):
        LinearExpression({0: math.nan})
    assert LinearExpression({0: 0.0, 1: 2}).coeffs == {1: 2.0}


# -- operators against a plain-dict reference ------------------------------------

_NUMBERS = st.one_of(
    st.sampled_from([0.0, 1.0, -1.0, 2.0, -0.5, 3.0]),
    st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
)
_LEAVES = st.one_of(
    st.tuples(st.just("var"), st.integers(0, 3)),
    st.tuples(st.just("num"), _NUMBERS),
)
_TREES = st.recursive(
    _LEAVES,
    lambda kids: st.one_of(
        st.tuples(st.sampled_from(["add", "sub"]), kids, kids),
        st.tuples(st.sampled_from(["mul", "rmul"]), kids, _NUMBERS),
        st.tuples(st.just("neg"), kids),
        st.tuples(st.just("sum"), st.lists(kids, max_size=5)),
    ),
    max_leaves=24,
)


def _ref_add(a, b, sign=1.0):
    coeffs = dict(a[0])
    for vid, c in b[0].items():
        coeffs[vid] = coeffs.get(vid, 0.0) + c * sign
    return {v: c for v, c in coeffs.items() if c != 0.0}, a[1] + b[1] * sign


def _ref_mul(a, k):
    return {v: c * k for v, c in a[0].items() if c * k != 0.0}, a[1] * k


def _reference(tree):
    """(coeffs, constant) of a tree, evaluated on plain dictionaries."""
    op = tree[0]
    if op == "var":
        return {tree[1]: 1.0}, 0.0
    if op == "num":
        return {}, tree[1]
    if op in ("add", "sub"):
        return _ref_add(_reference(tree[1]), _reference(tree[2]), 1.0 if op == "add" else -1.0)
    if op in ("mul", "rmul"):
        return _ref_mul(_reference(tree[1]), tree[2])
    if op == "neg":
        return _ref_mul(_reference(tree[1]), -1.0)
    acc = ({}, 0.0)
    for kid in tree[1]:
        acc = _ref_add(acc, _reference(kid))
    return acc


def _evaluate(tree, xs):
    """The same tree through Variables, LinearExpression and numbers."""
    op = tree[0]
    if op == "var":
        return xs[tree[1]]
    if op == "num":
        return tree[1]
    if op == "add":
        return _evaluate(tree[1], xs) + _evaluate(tree[2], xs)
    if op == "sub":
        return _evaluate(tree[1], xs) - _evaluate(tree[2], xs)
    if op == "mul":
        return _evaluate(tree[1], xs) * tree[2]
    if op == "rmul":
        return tree[2] * _evaluate(tree[1], xs)
    if op == "neg":
        return -_evaluate(tree[1], xs)
    return sum_expressions([_evaluate(kid, xs) for kid in tree[1]])


@settings(max_examples=300, deadline=None)
@given(tree=_TREES)
def test_operators_match_plain_dict_reference(tree):
    m = MilpModel()
    xs = [m.add_continuous(-1, 1, f"x{i}") for i in range(4)]
    got = as_expression(_evaluate(tree, xs))
    coeffs, constant = _reference(tree)
    assert got.coeffs == coeffs
    assert all(c != 0.0 for c in got.coeffs.values())
    assert got.constant == constant


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
    assert check_solution(m, [0.7]) == []
    bad = check_solution(m, [0.2])
    assert any("half" in msg for msg in bad)


def test_quad_value():
    assert quad_value((1.0, 2.0, 3.0), 2.0) == pytest.approx(1 + 4 + 12)


# -- convex tangent-envelope linearization ------------------------------------


def _envelope_optimum(quad, x_max, segments, x_fix):
    """Minimize the surrogate with x pinned; returns the solved y."""
    m = MilpModel()
    x = m.add_continuous(0.0, x_max, "x")
    (y,) = pwl_convex(m, [[x.id]], 1.0, [quad], x_max, segments, ["y"]).tolist()
    m.add_constraint(as_expression(x), EQ, x_fix, "pin")
    m.set_objective(LinearExpression({y: 1.0}))
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
        pwl_convex(m, [[x.id]], 1.0, [(0.0, 0.0, -1.0)], 1.0, 2, ["y"])


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


# -- the bulk row and column entry points --------------------------------------


def _two_columns():
    m = MilpModel()
    m.add_variables("continuous", 0.0, 1.0, ["x", "y"])
    m.add_rows([[0, 1]], [[1.0, 1.0]], LE, 1.0, ["first"])
    return m


# (bulk call, the same fault through add_constraint / add_variable, error class)
_FAULTS = {
    "non-finite coefficient": (
        lambda m: m.add_rows([[0, 1]], [[1.0, math.inf]], LE, 1.0, ["r"]),
        lambda m: m.add_constraint(LinearExpression._trusted({0: 1.0, 1: math.inf}, 0.0), LE, 1.0, "r"),
        ModelError,
    ),
    "non-finite rhs": (
        lambda m: m.add_rows([[0], [1]], 1.0, GE, [0.0, math.nan], ["r", "s"]),
        lambda m: m.add_constraint(LinearExpression({1: 1.0}), GE, math.nan, "s"),
        ModelError,
    ),
    "unknown column": (
        lambda m: m.add_rows([[0, 2]], [[1.0, 1.0]], EQ, 0.0, ["r"]),
        lambda m: m.add_constraint(LinearExpression({0: 1.0, 2: 1.0}), EQ, 0.0, "r"),
        ModelError,
    ),
    "negative column": (
        lambda m: m.add_rows([[-1]], 1.0, EQ, 0.0, ["r"]),
        lambda m: m.add_constraint(LinearExpression({-1: 1.0}), EQ, 0.0, "r"),
        ModelError,
    ),
    "duplicate name in the block": (
        lambda m: m.add_rows([[0], [1]], 1.0, LE, 1.0, ["r", "r"]),
        lambda m: (m.add_constraint(LinearExpression({0: 1.0}), LE, 1.0, "r"),
                   m.add_constraint(LinearExpression({1: 1.0}), LE, 1.0, "r")),
        DuplicateNameError,
    ),
    "name of an earlier row": (
        lambda m: m.add_rows([[0]], 1.0, LE, 1.0, ["first"]),
        lambda m: m.add_constraint(LinearExpression({0: 1.0}), LE, 1.0, "first"),
        DuplicateNameError,
    ),
    "violated empty row": (
        lambda m: m.add_rows([[0, 1]], [[0.0, 0.0]], GE, 1.0, ["r"]),
        lambda m: m.add_constraint(LinearExpression(), GE, 1.0, "r"),
        TriviallyInfeasibleError,
    ),
    "unknown relation": (
        lambda m: m.add_rows([[0]], 1.0, "<", 1.0, ["r"]),
        lambda m: m.add_constraint(LinearExpression({0: 1.0}), "<", 1.0, "r"),
        ModelError,
    ),
    "inverted bounds": (
        lambda m: m.add_variables("continuous", [0.0, 2.0], [1.0, 1.0], ["a", "b"]),
        lambda m: m.add_continuous(2.0, 1.0, "b"),
        BoundError,
    ),
    "NaN bound": (
        lambda m: m.add_variables("continuous", 0.0, [1.0, math.nan], ["a", "b"]),
        lambda m: m.add_continuous(0.0, math.nan, "b"),
        BoundError,
    ),
    "duplicate variable name": (
        lambda m: m.add_variables("continuous", 0.0, 1.0, ["a", "a"]),
        lambda m: m.add_continuous(0.0, 1.0, "x"),
        DuplicateNameError,
    ),
    "unknown kind": (
        lambda m: m.add_variables(["continuous", "integer"], 0.0, 1.0, ["a", "b"]),
        lambda m: m.add_variable("integer", 0.0, 1.0, "b"),
        ModelError,
    ),
}


@pytest.mark.parametrize("fault", sorted(_FAULTS))
def test_bulk_path_rejects_what_the_single_path_rejects_and_adds_nothing(fault):
    bulk, single, error = _FAULTS[fault]
    for add in (single, bulk):
        m = _two_columns()
        before = m.to_sparse()
        with pytest.raises(error) as caught:
            add(m)
        assert type(caught.value) is error
    # the failed block left the model as it was
    assert (m.num_variables, m.num_constraints) == (2, 1)
    after = m.to_sparse()
    assert after[3] == before[3] and (after[2] != before[2]).nnz == 0


def test_binary_bounds_clamped_in_bulk():
    m = MilpModel()
    m.add_variables(["binary", "continuous"], -1.0, 5.0, ["b", "x"])
    assert [(v.kind, v.lower, v.upper) for v in m.variables] == [("binary", 0.0, 1.0), ("continuous", -1.0, 5.0)]
    assert m.binary_ids() == [0]


def test_a_row_that_repeats_a_column_is_refused_when_joined():
    m = _two_columns()
    m.add_rows([[0, 0]], [[1.0, 2.0]], LE, 1.0, ["twice"])
    with pytest.raises(ModelError, match="twice"):
        m.to_sparse()
    with pytest.raises(ModelError, match="twice"):
        m.constraints[0]


_COEFFS = st.one_of(st.just(0.0), st.sampled_from([1.0, -1.0, 0.5]),
                    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False))
_BLOCKS = st.lists(
    st.tuples(
        st.integers(1, 5),  # rows
        st.integers(0, 4),  # slots per row
        st.sampled_from([LE, EQ, GE]),
        st.randoms(use_true_random=False),
    ),
    min_size=1,
    max_size=4,
)


@settings(max_examples=100, deadline=None)
@given(blocks=_BLOCKS, data=st.data())
def test_bulk_rows_equal_rows_added_one_by_one(blocks, data):
    n = 6
    kinds = data.draw(st.lists(st.sampled_from(["continuous", "binary"]), min_size=n, max_size=n))
    lower = data.draw(st.lists(st.floats(-5, 0), min_size=n, max_size=n))
    names = [f"x{j}" for j in range(n)]
    bulk, single = MilpModel(), MilpModel()
    bulk.add_variables(kinds, lower, 5.0, names)
    for kind, lo, name in zip(kinds, lower, names):
        single.add_variable(kind, lo, 5.0, name)
    for b, (m, k, relation, rng) in enumerate(blocks):
        cols = [rng.sample(range(n), k) for _ in range(m)]
        coeffs = [[data.draw(_COEFFS) for _ in range(k)] for _ in range(m)]
        rhs = [data.draw(st.floats(-10, 10)) if any(row) else 0.0 for row in coeffs]
        row_names = [f"b{b}_r{i}" for i in range(m)]
        bulk.add_rows(np.array(cols, dtype=np.int64).reshape(m, k), np.array(coeffs).reshape(m, k),
                      relation, rhs, row_names)
        for ids, w, r, name in zip(cols, coeffs, rhs, row_names):
            single.add_constraint(LinearExpression(dict(zip(ids, w))), relation, r, name)
    got, want = bulk.to_sparse(), single.to_sparse()
    for g, w in zip(got, want):
        if hasattr(g, "tocsc"):
            for attr in ("data", "indices", "indptr"):
                a, b = getattr(g, attr), getattr(w, attr)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        elif isinstance(g, np.ndarray):
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
        else:
            assert g == w
    assert list(bulk.constraints) == list(single.constraints)
    assert list(bulk.variables) == list(single.variables)
