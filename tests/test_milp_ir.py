"""Model-builder IR: linear forms, rows, columns, and linearization helpers."""

import math
from dataclasses import replace
from itertools import groupby

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_array

from milp_oracles import check_solution, compiled_differences, scipy_csc, variables
from reference_simplex import solve_lp
from iesdispatch.milp_ir import (
    BINARY,
    CONTINUOUS,
    EQ,
    GE,
    INF,
    LE,
    BoundError,
    ConvexityError,
    DuplicateNameError,
    LinearForm,
    MilpModel,
    ModelError,
    TriviallyInfeasibleError,
    combine,
    linear_form,
    pwl_convex,
    pwl_convex_error_bound,
    quad_value,
    tangent_envelope,
)


def pwl_convex_value(quad, x_max, segments, x):
    """The tangent envelope of ``quad`` at ``x``, as verification evaluates it."""
    return tangent_envelope(quad, x_max, segments).value(x)


def _form(ids, coeffs, constant=0.0) -> LinearForm:
    return LinearForm(np.array(ids, dtype=np.int64), np.array(coeffs, dtype=float), constant)


def test_combine_adds_repeated_ids_in_argument_order():
    # 2x + 3y - 1.5 + (x - y)
    total = combine(_form([0, 1], [2.0, 3.0], -1.5), _form([0, 1], [1.0, -1.0]))
    assert total.ids.tolist() == [0, 1] and total.coeffs.tolist() == [3.0, 2.0]
    assert total.constant == -1.5
    assert total.value([2.0, 1.0]) == pytest.approx(3 * 2 + 2 * 1 - 1.5)
    # the objective folds a repeated id the same way
    m = MilpModel()
    m.add_variables(CONTINUOUS, 0.0, 10.0, ["x", "y"])
    m.set_objective(_form([1, 0, 1, 0], [3.0, 2.0, -1.0, 1.0], -1.5))
    c, c0 = m.to_dense()[:2]
    assert c.tolist() == [3.0, 2.0] and c0 == -1.5


def test_combine_drops_zero_sums():
    # x - x + 4
    total = combine(_form([0], [1.0], 4.0), _form([0], [-1.0]))
    assert total.ids.size == 0 and total.coeffs.size == 0
    assert total.constant == 4.0 and total.value([7.0]) == 4.0
    assert linear_form([0, 1, 2], [1.0, 0.0, -2.0]).ids.tolist() == [0, 2]


def test_overflowed_coefficient_rejected_at_the_model_boundary():
    # a form is a plain record; the model checks what enters it
    m = MilpModel()
    (x,) = m.add_variables(CONTINUOUS, 0.0, 1.0, ["x"])
    with np.errstate(over="ignore"):
        huge = linear_form([x], 1e300).scaled(1e300)
    assert huge.coeffs.tolist() == [math.inf]
    with pytest.raises(ModelError, match="non-finite coefficient"):
        m.add_rows([huge.ids], [huge.coeffs], LE, 1.0, ["row"])
    with pytest.raises(ModelError, match="not finite"):
        m.set_objective(huge)
    with pytest.raises(ModelError, match="not finite"):
        m.set_objective(linear_form([x], 1.0, math.inf))
    with pytest.raises(ModelError, match="not finite"):
        m.set_objective(combine(linear_form([x], 1e308), linear_form([x], 1e308)))
    assert m.num_constraints == 0 and m.to_sparse()[0].tolist() == [0.0]


def test_set_objective_refuses_and_changes_nothing():
    # the costs are summed before they are checked, so a sum that overflows
    # or cancels to NaN is refused; ids are checked before they are summed
    m = MilpModel()
    m.add_variables(CONTINUOUS, 0.0, 1.0, ["x", "y", "z"])
    m.set_objective(linear_form([2], 4.0, 1.5))
    c = m.to_sparse()[0]
    refused = [
        ((_form([1, 2], [1.0, 1e308]), _form([2], [1e308])), "objective coefficient for variable 2 not finite"),
        ((_form([2, 0], [math.inf, 1.0]), _form([0, 2], [math.nan, -math.inf])),
         "objective coefficient for variable 2 not finite"),
        ((_form([0], [1.0], 1e308), _form([], [], 1e308)), "objective constant not finite"),
        ((_form([0, 3], [1.0, 2.0]),), "objective references unknown variable 3"),
        ((_form([0], [1.0]), _form([-1], [2.0])), "objective references unknown variable -1"),
        ((_form([5], [math.inf]),), "objective references unknown variable 5"),
    ]
    for forms, message in refused:
        with pytest.raises(ModelError) as caught:
            m.set_objective(*forms)
        assert type(caught.value) is ModelError and str(caught.value) == message
        assert m.to_sparse()[0] is c and m.to_sparse()[1] == 1.5


# -- combine against a plain-dict reference ------------------------------------

_NUMBERS = st.one_of(
    st.sampled_from([0.0, 1.0, -1.0, 2.0, -0.5, 3.0]),
    st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
)
_FORMS = st.lists(
    st.tuples(st.lists(st.tuples(st.integers(0, 3), _NUMBERS), max_size=6), _NUMBERS),
    max_size=5,
)


@settings(max_examples=300, deadline=None)
@given(forms=_FORMS, x=st.lists(_NUMBERS, min_size=4, max_size=4))
def test_combine_matches_plain_dict_reference(forms, x):
    coeffs, constant = {}, 0.0
    for terms, k in forms:
        for vid, c in terms:
            coeffs[vid] = coeffs.get(vid, 0.0) + c
        constant += k
    coeffs = {v: c for v, c in coeffs.items() if c != 0.0}
    forms = [_form([v for v, _ in terms], [c for _, c in terms], k) for terms, k in forms]
    got = combine(*forms)
    assert dict(zip(got.ids.tolist(), got.coeffs.tolist())) == coeffs
    assert got.ids.tolist() == list(coeffs)
    assert got.constant == constant
    # value sums the terms left to right in stored order
    assert got.value(x) == constant + sum(c * x[v] for v, c in coeffs.items())
    # the objective holds the same sums, scattered into a cost per column
    m = MilpModel()
    m.add_variables(CONTINUOUS, 0.0, 1.0, ["a", "b", "c", "d"])
    m.set_objective(*forms)
    scattered = np.zeros(4)
    scattered[got.ids] = got.coeffs
    c, c0 = m.to_sparse()[:2]
    assert c.dtype == scattered.dtype and c.tobytes() == scattered.tobytes()
    assert np.float64(c0).tobytes() == np.float64(got.constant).tobytes()


def test_variable_ids_dense():
    m = MilpModel()
    ids = [m.add_variables(CONTINUOUS, 0.0, 1.0, [f"v{i}_{j}" for j in range(100)]) for i in range(100)]
    assert np.concatenate(ids).tolist() == list(range(10_000))
    assert [v.id for v in variables(m)] == list(range(10_000))


def test_binary_bounds_clamped():
    m = MilpModel()
    m.add_variables(BINARY, -3.0, 7.0, ["b"])
    (b,) = variables(m)
    assert (b.kind, b.lower, b.upper) == ("binary", 0.0, 1.0)


def test_bad_bounds_rejected():
    m = MilpModel()
    with pytest.raises(BoundError):
        m.add_variables(CONTINUOUS, 2.0, 1.0, ["x"])
    with pytest.raises(BoundError):
        m.add_variables(CONTINUOUS, 0.0, math.nan, ["y"])


def test_duplicate_name_rejected():
    m = MilpModel()
    m.add_variables(CONTINUOUS, 0.0, 1.0, ["x"])
    with pytest.raises(DuplicateNameError):
        m.add_variables(CONTINUOUS, 0.0, 1.0, ["x"])


def test_constant_row_trivially_infeasible():
    m = MilpModel()
    m.add_variables(CONTINUOUS, 0.0, 1.0, ["x"])
    with pytest.raises(TriviallyInfeasibleError):
        m.add_rows(np.zeros((1, 0), dtype=np.int64), 1.0, GE, -1.0 + 2.0, ["bad"])  # 0 >= 1


def test_constant_row_redundant_ok():
    m = MilpModel()
    m.add_variables(CONTINUOUS, 0.0, 1.0, ["x"])
    m.add_rows(np.zeros((1, 0), dtype=np.int64), 1.0, LE, 2.0 - 1.0, ["slack"])  # 0 <= 1
    assert m.num_constraints == 1


def test_check_solution_reports_violations():
    m = MilpModel()
    m.add_variables(CONTINUOUS, 0.0, 1.0, ["x"])
    m.add_rows([[0]], 1.0, GE, 0.5, ["half"])
    assert check_solution(m, [0.7]) == []
    bad = check_solution(m, [0.2])
    assert any("half" in msg for msg in bad)


def test_quad_value():
    assert quad_value((1.0, 2.0, 3.0), 2.0) == pytest.approx(1 + 4 + 12)


# -- convex tangent-envelope linearization ------------------------------------


def _envelope_optimum(quad, x_max, segments, x_fix):
    """Minimize the surrogate with x pinned; returns the solved y."""
    m = MilpModel()
    x = m.add_variables(CONTINUOUS, 0.0, x_max, ["x"])
    y = pwl_convex(m, [x], 1.0, [quad], x_max, segments, ["y"])
    m.add_rows([x], 1.0, EQ, x_fix, ["pin"])
    m.set_objective(linear_form(y))
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
    x = m.add_variables(CONTINUOUS, 0.0, 1.0, ["x"])
    with pytest.raises(ConvexityError):
        pwl_convex(m, [x], 1.0, [(0.0, 0.0, -1.0)], 1.0, 2, ["y"])


def test_to_dense_shapes():
    m = MilpModel()
    xy = [*m.add_variables(CONTINUOUS, 0.0, 4.0, ["x"]), *m.add_variables(BINARY, 0.0, 1.0, ["y"])]
    m.add_rows([xy], 1.0, LE, 3.0, ["row"])
    m.set_objective(linear_form(xy, [1.0, 2.0], 5.0))
    c, c0, A, row_lower, row_upper, lb, ub, is_binary = m.to_dense()
    assert A.shape == (1, 2)
    assert list(c) == [1.0, 2.0]
    assert c0 == 5.0
    assert list(row_lower) == [-INF] and list(row_upper) == [3.0]
    assert list(lb) == [0.0, 0.0] and list(ub) == [4.0, 1.0]
    assert list(is_binary) == [False, True]


def test_set_rhs_keeps_the_compiled_matrix():
    m = MilpModel()
    xy = m.add_variables(CONTINUOUS, 0.0, 4.0, ["x", "y"])
    rows = m.add_rows([xy, xy], [[1.0, 1.0], [1.0, -1.0]], [LE, GE], [3.0, -1.0], ["sum", "diff"])
    A = m.to_sparse()[2]
    m.set_rhs([rows[1]], [-2.5])
    m.set_objective(linear_form(xy, [1.0, 2.0]))
    c, _, again, row_lower, row_upper, *_ = m.to_sparse()
    assert again is A
    assert list(row_upper) == [3.0, INF] and list(row_lower) == [-INF, -2.5] and list(c) == [1.0, 2.0]
    assert [con.rhs for con in m.constraints] == [3.0, -2.5]
    m.add_variables(CONTINUOUS, 0.0, 1.0, ["z"])
    assert m.to_sparse()[2].shape == (2, 3)
    m.add_rows([[2]], 1.0, LE, 1.0, ["z_cap"])
    assert m.to_sparse()[2].shape == (3, 3)


# -- the compile cache ------------------------------------------------------------

# each step changes the model in one way; a model built by the steps so far
# without compiling in between is the reference
_STEPS = [
    lambda m: (m.add_variables(CONTINUOUS, 0.0, 4.0, ["x"]), m.add_variables(BINARY, 0.0, 1.0, ["b"])),
    lambda m: m.add_rows([[0, 1]], [[1.0, 2.0]], LE, 3.0, ["cap"]),
    lambda m: m.set_objective(linear_form([0, 1], [1.0, -1.0], 0.5)),
    lambda m: m.add_variables(CONTINUOUS, -1.0, 2.0, ["y"]),
    lambda m: m.add_rows([[0, 2], [1, 2]], [[1.0, -1.0], [1.0, 1.0]], [GE, EQ], [-1.0, 1.0], ["lo", "tie"]),
    lambda m: m.set_rhs([0, 2], [2.5, 0.0]),
    lambda m: m.set_rhs([2], [-0.0]),  # the same value, other bits
    lambda m: m.set_objective(linear_form([2], [3.0])),
]


def test_compiled_arrays_follow_every_change():
    kept = MilpModel()
    for i, step in enumerate(_STEPS):
        step(kept)
        fresh = MilpModel()
        for earlier in _STEPS[:i + 1]:
            earlier(fresh)
        assert compiled_differences(kept, fresh) == [], i
        assert compiled_differences(kept, fresh) == [], i  # and again from what it keeps


def test_compiled_arrays_are_kept_until_their_part_changes():
    m = MilpModel()
    for step in _STEPS[:5]:
        step(m)
    c, _, A, _, _, lb, _, _ = m.to_sparse()
    m.add_rows([[0]], 1.0, LE, 4.0, ["x_cap"])
    assert m.to_sparse()[0] is c
    m.set_objective(linear_form([1], 2.0))
    priced = m.to_sparse()
    assert priced[0] is not c and priced[2] is not A and priced[5] is lb and c.tolist() == [1.0, -1.0, 0.0]
    # a new column costs nothing until it is priced
    m.add_variables(CONTINUOUS, 0.0, 1.0, ["z"])
    after = m.to_sparse()
    assert after[2] is not priced[2] and after[5] is not lb and after[0] is not priced[0]
    assert after[0].tolist() == [0.0, 2.0, 0.0, 0.0] and priced[0].tolist() == [0.0, 2.0, 0.0]
    # the pad is made once and kept until a column is added or the objective is set
    m.add_rows([[3]], 1.0, LE, 0.5, ["z_cap"])
    assert m.to_sparse()[0] is after[0]
    m.add_variables(BINARY, 0.0, 1.0, ["gate"])
    gated = m.to_sparse()[0]
    assert gated is not after[0] and gated.tolist() == [0.0, 2.0, 0.0, 0.0, 0.0] and m.to_sparse()[0] is gated
    m.set_objective(linear_form([4], 3.0))
    assert m.to_sparse()[0].tolist() == [0.0, 0.0, 0.0, 0.0, 3.0]


def test_two_compiles_in_a_row_return_the_same_objects():
    m = MilpModel()
    for step in _STEPS:
        step(m)
    first, second = m.to_sparse(), m.to_sparse()
    assert all(a is b for a, b in zip(first, second))


def test_set_rhs_replaces_only_the_row_bounds():
    m = MilpModel()
    for step in _STEPS[:5]:
        step(m)
    before = m.to_sparse()
    m.set_rhs([1], [-3.0])
    after = m.to_sparse()
    assert after[3] is not before[3] and after[4] is not before[4]
    assert all(a is b for a, b in zip(after[:3] + after[5:], before[:3] + before[5:]))
    assert after[3].tolist() == [-INF, -3.0, 1.0] and before[3].tolist() == [-INF, -1.0, 1.0]


def test_row_bounds_follow_the_relations():
    m = MilpModel()
    for step in _STEPS[:6]:
        step(m)
    lower, upper = m.to_sparse()[3:5]
    # cap: x + 2b <= 2.5, lo: x - y >= -1, tie: b + y = 0
    assert lower.tolist() == [-INF, -1.0, 0.0] and upper.tolist() == [2.5, INF, 0.0]
    assert [con.relation for con in m.constraints] == [LE, GE, EQ]
    m.add_rows([[0]], 1.0, LE, 4.0, ["x_cap"])
    assert m.to_sparse()[3].tolist() == [-INF, -1.0, 0.0, -INF]
    assert m.to_sparse()[4].tolist() == [2.5, INF, 0.0, 4.0]


def test_compiled_matrix_matches_scipy_conversion():
    # the numpy CSC gather against scipy's own conversion of the same rows,
    # taken in CSR form as add_rows keeps them: entries, dtypes and order,
    # with empty rows, columns no row uses and zero coefficients, which
    # leave their slots empty
    rng = np.random.default_rng(12)
    for trial in range(300):
        n = int(rng.integers(1, 9))
        m = MilpModel()
        m.add_variables(CONTINUOUS, 0.0, 1.0, [f"x{j}" for j in range(n)])
        entries = []  # the nonzeros of each row, in slot order
        for b in range(int(rng.integers(0, 4))):
            rows, k = int(rng.integers(1, 5)), int(rng.integers(0, n + 1))
            cols = np.array([rng.permutation(n)[:k] for _ in range(rows)], dtype=np.int64).reshape(rows, k)
            coeffs = rng.choice([0.0, 0.0, 1.0, -2.5, 3e-7, 1e9], size=(rows, k))
            m.add_rows(cols, coeffs, LE, 1.0, [f"b{b}r{i}" for i in range(rows)])
            entries += [[(j, v) for j, v in zip(r, w) if v != 0.0] for r, w in zip(cols.tolist(), coeffs.tolist())]
        m.add_variables(CONTINUOUS, 0.0, 1.0, [f"y{j}" for j in range(int(rng.integers(0, 3)))])
        A = m.to_sparse()[2]
        indptr = np.cumsum([0, *map(len, entries)]).astype(np.int32)
        indices = np.array([j for row in entries for j, _ in row], dtype=np.int32)
        data = np.array([v for row in entries for _, v in row], dtype=float)
        want = csr_array((data, indices, indptr), shape=(len(entries), m.num_variables)).tocsc()
        assert A.shape == want.shape and A.nnz == want.nnz, trial
        for part in ("data", "indices", "indptr"):
            got, expected = getattr(A, part), getattr(want, part)
            assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes(), (trial, part)


def test_compiled_arrays_are_read_only():
    m = MilpModel()
    for step in _STEPS:
        step(m)
    c, _, A, row_lower, row_upper, lb, ub, is_binary = m.to_sparse()
    kept = ((c, 9.0), (row_lower, 9.0), (row_upper, 9.0), (lb, 9.0), (ub, 9.0), (is_binary, True),
            (A.data, 9.0), (A.indices, 1), (A.indptr, 1))
    for array, value in kept:
        with pytest.raises(ValueError, match="read-only"):
            array[0] = value


@pytest.mark.parametrize("steps", [
    [{"lambda_base": 0.10 + 0.05 * i} for i in range(11)],
    [{"interval_d": 1000.0 + 250.0 * i} for i in range(11)],
    [{"lambda_base": 0.3, "interval_d": 1500.0}, {"lambda_base": 0.4}, {"interval_d": 2500.0},
     {"lambda_base": 0.2}, {"lambda_base": 0.25, "interval_d": 1500.0}],
], ids=["lambda", "d", "both"])
def test_repriced_costs_are_the_fresh_build_bit_for_bit(steps):
    # one reduced-S5 model re-priced along a sweep's grid holds, at every
    # point, the cost vector, constant and row bounds a fresh build of that
    # point has
    from iesdispatch import dispatch
    from iesdispatch.model_core import default_case_path, load_case, reduce_case

    case, options = reduce_case(load_case(default_case_path()), 2), dispatch.DispatchOptions(pwl_segments=4)
    model, vm = dispatch.build_model(case, "S5", options)
    point = case
    for step in steps:
        point = replace(point, carbon=replace(point.carbon, **step))
        dispatch._reprice(point, model, vm)
        fresh = dispatch.build_model(point, "S5", options)[0]
        got, want = model.to_sparse(), fresh.to_sparse()
        for i in (0, 3, 4):
            assert got[i].tobytes() == want[i].tobytes(), (step, i)
        assert np.float64(got[1]).tobytes() == np.float64(want[1]).tobytes(), step


def test_a_lambda_step_keeps_the_compiled_row_bounds():
    # the knee rows read interval_d alone, so a lambda step leaves them set and compiled
    from iesdispatch import dispatch
    from iesdispatch.model_core import default_case_path, load_case, reduce_case

    case, options = reduce_case(load_case(default_case_path()), 2), dispatch.DispatchOptions(pwl_segments=4)
    model, vm = dispatch.build_model(case, "S5", options)
    bounds = model.to_sparse()[3:5]
    dispatch._reprice(replace(case, carbon=replace(case.carbon, lambda_base=0.4)), model, vm)
    assert all(now is before for now, before in zip(model.to_sparse()[3:5], bounds))
    dispatch._reprice(replace(case, carbon=replace(case.carbon, interval_d=900.0)), model, vm)
    assert not any(now is before for now, before in zip(model.to_sparse()[3:5], bounds))


@pytest.mark.parametrize("rows, values, message", [
    ([0, 1], [1.0, math.inf], "'diff': non-finite right-hand side"),
    ([0], [math.nan], "'sum': non-finite right-hand side"),
    ([2], [1.0], "unknown constraint 2"),
    ([-1], [1.0], "unknown constraint -1"),
])
def test_set_rhs_rejects_and_changes_nothing(rows, values, message):
    m = MilpModel()
    xy = m.add_variables(CONTINUOUS, 0.0, 4.0, ["x", "y"])
    m.add_rows([xy, xy], [[1.0, 1.0], [1.0, -1.0]], LE, [3.0, 1.0], ["sum", "diff"])
    with pytest.raises(ModelError, match=message):
        m.set_rhs(rows, values)
    assert [con.rhs for con in m.constraints] == [3.0, 1.0]


def test_pwl_convex_value_of_an_array_is_the_scalar_formula_at_each_point():
    quad = a, b, c = (0.5, 1.5, 0.02)
    xs = [0.0, 3.7, 50.0, 99.9, 100.0]
    for n in (1, 2, 5):
        breakpoints = [100.0 * i / n for i in range(n + 1)]
        want = [max(quad_value(quad, xi) + (b + 2.0 * c * xi) * (x - xi) for xi in breakpoints) for x in xs]
        assert pwl_convex_value(quad, 100.0, n, np.array(xs)).tolist() == want
        assert [pwl_convex_value(quad, 100.0, n, x) for x in xs] == want


# -- the bulk row and column entry points --------------------------------------


def _two_columns():
    m = MilpModel()
    m.add_variables("continuous", 0.0, 1.0, ["x", "y"])
    m.add_rows([[0, 1]], [[1.0, 1.0]], LE, 1.0, ["first"])
    return m


# (bulk call, the same fault in a one-item call, error class)
_FAULTS = {
    "non-finite coefficient": (
        lambda m: m.add_rows([[0, 1], [1, 0]], [[1.0, 1.0], [1.0, math.inf]], LE, 1.0, ["r", "s"]),
        lambda m: m.add_rows([[0, 1]], [[1.0, math.inf]], LE, 1.0, ["r"]),
        ModelError,
    ),
    "non-finite rhs": (
        lambda m: m.add_rows([[0], [1]], 1.0, GE, [0.0, math.nan], ["r", "s"]),
        lambda m: m.add_rows([[1]], 1.0, GE, math.nan, ["s"]),
        ModelError,
    ),
    "unknown column": (
        lambda m: m.add_rows([[1, 0], [0, 2]], 1.0, EQ, 0.0, ["q", "r"]),
        lambda m: m.add_rows([[0, 2]], [[1.0, 1.0]], EQ, 0.0, ["r"]),
        ModelError,
    ),
    "negative column": (
        lambda m: m.add_rows([[0], [-1]], 1.0, EQ, 0.0, ["q", "r"]),
        lambda m: m.add_rows([[-1]], 1.0, EQ, 0.0, ["r"]),
        ModelError,
    ),
    "duplicate name in the block": (
        lambda m: m.add_rows([[0], [1]], 1.0, LE, 1.0, ["r", "r"]),
        lambda m: (m.add_rows([[0]], 1.0, LE, 1.0, ["r"]), m.add_rows([[1]], 1.0, LE, 1.0, ["r"])),
        DuplicateNameError,
    ),
    "name of an earlier row": (
        lambda m: m.add_rows([[1], [0]], 1.0, LE, 1.0, ["r", "first"]),
        lambda m: m.add_rows([[0]], 1.0, LE, 1.0, ["first"]),
        DuplicateNameError,
    ),
    "violated empty row": (
        lambda m: m.add_rows([[0, 1], [0, 1]], [[1.0, 0.0], [0.0, 0.0]], GE, 1.0, ["q", "r"]),
        lambda m: m.add_rows(np.zeros((1, 0), dtype=np.int64), 1.0, GE, 1.0, ["r"]),
        TriviallyInfeasibleError,
    ),
    "unknown relation": (
        lambda m: m.add_rows([[0], [1]], 1.0, [LE, "<"], 1.0, ["q", "r"]),
        lambda m: m.add_rows([[0]], 1.0, "<", 1.0, ["r"]),
        ModelError,
    ),
    "inverted bounds": (
        lambda m: m.add_variables(CONTINUOUS, [0.0, 2.0], [1.0, 1.0], ["a", "b"]),
        lambda m: m.add_variables(CONTINUOUS, 2.0, 1.0, ["b"]),
        BoundError,
    ),
    "NaN bound": (
        lambda m: m.add_variables(CONTINUOUS, 0.0, [1.0, math.nan], ["a", "b"]),
        lambda m: m.add_variables(CONTINUOUS, 0.0, math.nan, ["b"]),
        BoundError,
    ),
    "duplicate variable name": (
        lambda m: m.add_variables(CONTINUOUS, 0.0, 1.0, ["a", "a"]),
        lambda m: m.add_variables(CONTINUOUS, 0.0, 1.0, ["x"]),
        DuplicateNameError,
    ),
    "unknown kind": (
        lambda m: m.add_variables([CONTINUOUS, "integer"], 0.0, 1.0, ["a", "b"]),
        lambda m: m.add_variables("integer", 0.0, 1.0, ["b"]),
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
    assert [a.tolist() for a in after[3:5]] == [b.tolist() for b in before[3:5]]
    assert (scipy_csc(after[2]) != scipy_csc(before[2])).nnz == 0


def test_a_refused_block_leaves_its_names_as_they_were():
    # a block refused after its names were checked gives them back: they
    # come in with the next valid block, and only once
    refusals = [
        (ValueError, lambda m: m.add_variables(CONTINUOUS, 0.0, [1.0, 2.0, 3.0], ["a", "b"])),
        (BoundError, lambda m: m.add_variables(CONTINUOUS, 2.0, 1.0, ["a", "b"])),
        (ModelError, lambda m: m.add_rows([[0], [5]], 1.0, LE, 1.0, ["a", "b"])),
    ]
    for error, refused in refusals:
        m = _two_columns()
        with pytest.raises(error):
            refused(m)
        m.add_variables(CONTINUOUS, 0.0, 1.0, ["a", "b"])
        m.add_rows([[0], [1]], 1.0, LE, 1.0, ["a", "b"])
        with pytest.raises(DuplicateNameError):
            m.add_variables(CONTINUOUS, 0.0, 1.0, ["a"])
        with pytest.raises(DuplicateNameError):
            m.add_rows([[0]], 1.0, LE, 1.0, ["b"])


def test_binary_bounds_clamped_in_bulk():
    m = MilpModel()
    m.add_variables("binary", [-1.0, 0.25], 5.0, ["b", "c"])
    m.add_variables("continuous", -1.0, 5.0, ["x"])
    assert [(v.kind, v.lower, v.upper) for v in variables(m)] == [
        ("binary", 0.0, 1.0), ("binary", 0.25, 1.0), ("continuous", -1.0, 5.0)]
    assert m.binary_ids() == [0, 1]


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
    for kind, run in groupby(zip(kinds, lower, names), key=lambda column: column[0]):
        _, run_lower, run_names = zip(*run)
        bulk.add_variables(kind, list(run_lower), 5.0, list(run_names))
    for kind, lo, name in zip(kinds, lower, names):
        single.add_variables(kind, lo, 5.0, [name])
    for b, (m, k, relation, rng) in enumerate(blocks):
        cols = [rng.sample(range(n), k) for _ in range(m)]
        coeffs = [[data.draw(_COEFFS) for _ in range(k)] for _ in range(m)]
        rhs = [data.draw(st.floats(-10, 10)) if any(row) else 0.0 for row in coeffs]
        row_names = [f"b{b}_r{i}" for i in range(m)]
        bulk.add_rows(np.array(cols, dtype=np.int64).reshape(m, k), np.array(coeffs).reshape(m, k),
                      relation, rhs, row_names)
        for ids, w, r, name in zip(cols, coeffs, rhs, row_names):
            single.add_rows(np.array([ids], dtype=np.int64).reshape(1, k), [w], relation, r, [name])
    got, want = bulk.to_sparse(), single.to_sparse()
    for g, w in zip(got, want):
        if hasattr(g, "indptr"):
            for attr in ("data", "indices", "indptr"):
                a, b = getattr(g, attr), getattr(w, attr)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        elif isinstance(g, np.ndarray):
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
        else:
            assert g == w
    assert list(bulk.constraints) == list(single.constraints)
    assert variables(bulk) == variables(single)
