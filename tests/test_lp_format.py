"""LP text serialization: determinism, round-trip fidelity, parse errors."""

import math
import random

import numpy as np
import pytest

from lp_reader import LpParseError, read_lp
from milp_oracles import variables
from iesdispatch.lp_format import sanitized_names, write_lp
from iesdispatch.milp_ir import BINARY, CONTINUOUS, EQ, GE, LE, INF, MilpModel, linear_form
from iesdispatch.solver import solve_milp


def _random_model(rng: random.Random, tag: str) -> MilpModel:
    m = MilpModel(name=f"zoo_{tag}")
    n = rng.randint(2, 6)
    columns = []  # (kind, lower, upper, name)
    for i in range(n):
        if rng.random() < 0.3:
            columns.append((BINARY, 0.0, 1.0, f"b{i}"))
        else:
            lo = rng.choice([0.0, -5.0, -INF])
            hi = rng.choice([1.0, 10.0, INF])
            columns.append((CONTINUOUS, lo, hi, f"x{i}"))
    variables = [int(m.add_variables(kind, lo, hi, [name])[0]) for kind, lo, hi, name in columns]
    for j in range(rng.randint(1, 5)):
        ids = rng.sample(variables, rng.randint(1, n))
        coeffs = [rng.choice([-2.5, -1.0, 0.75, 3.0]) for _ in ids]
        m.add_rows([ids], [coeffs], rng.choice([LE, GE, EQ]), rng.uniform(-4, 8), [f"r{j}"])
    constant = rng.uniform(-1, 1)
    m.set_objective(linear_form(variables, [rng.uniform(-2, 2) for _ in variables], constant))
    return m


def _dense_equal(a, b):
    ca, ka, Aa, loa, upa, la, ua, ba = a.to_dense()
    cb, kb, Ab, lob, upb, lb, ub, bb = b.to_dense()
    assert np.allclose(ca, cb) and ka == pytest.approx(kb)
    assert Aa.shape == Ab.shape and np.allclose(Aa, Ab)
    assert np.allclose(loa, lob) and np.allclose(upa, upb)
    assert np.allclose(la, lb) and np.allclose(ua, ub)
    assert list(ba) == list(bb)


def test_write_is_deterministic():
    rng = random.Random(7)
    m = _random_model(rng, "det")
    assert write_lp(m) == write_lp(m)


def test_round_trip_preserves_dense_form():
    rng = random.Random(11)
    for k in range(30):
        m = _random_model(rng, str(k))
        m2 = read_lp(write_lp(m))
        _dense_equal(m, m2)


def test_round_trip_preserves_optimum():
    rng = random.Random(23)
    checked = 0
    for k in range(40):
        m = _random_model(rng, str(k))
        r1 = solve_milp(m)
        r2 = solve_milp(read_lp(write_lp(m)))
        assert r1.status == r2.status
        if r1.status == "optimal":
            assert r1.objective == pytest.approx(r2.objective, abs=1e-9, rel=1e-9)
            checked += 1
    assert checked >= 5  # the rest of the zoo is legitimately unbounded/infeasible


def _is_legal(name: str) -> bool:
    return bool(name) and not name[0].isdigit() and all(ch.isalnum() or ch == "_" for ch in name)


# the second list: a suffixed name must not take a name already given
@pytest.mark.parametrize("given", [["p[e,buy]", "p_e_buy_", "2nd"], ["a_b_i2", "a-b", "a.b"]])
def test_sanitized_names_unique_and_safe(given):
    m = MilpModel()
    m.add_variables(CONTINUOUS, 0.0, 1.0, given)
    names = sanitized_names(m)
    assert len(set(names)) == 3 and all(map(_is_legal, names))


def test_row_names_are_made_legal_and_unique_as_column_names_are():
    m = MilpModel()
    x = m.add_variables(CONTINUOUS, 0.0, 1.0, ["x"])
    m.add_rows([x, x, x, x], 1.0, LE, 1.0, ["r-1", "r.1", "1st", "r_1_i1"])
    text = write_lp(m)
    body = text.split("Subject To\n")[1].split("Bounds\n")[0]
    names = [line.split(":")[0].strip() for line in body.splitlines()]
    assert names[0] == "r_1" and names[2] == "c_1st"
    assert len(set(names)) == 4 and all(map(_is_legal, names))
    assert [con.name for con in read_lp(text).constraints] == names


def test_free_and_semi_infinite_bounds_round_trip():
    m = MilpModel()
    m.add_variables(CONTINUOUS, [-INF, 2.5, -INF], [INF, INF, 3.5], ["free", "lo_only", "hi_only"])
    m.set_objective(linear_form([]))
    m2 = read_lp(write_lp(m))
    got = [(v.lower, v.upper) for v in variables(m2)]
    assert got[0] == (-INF, INF)
    assert got[1] == (2.5, INF)
    assert got[2] == (-INF, 3.5)


def test_objective_constant_round_trips():
    m = MilpModel()
    x = m.add_variables(CONTINUOUS, 0.0, 2.0, ["x"])
    m.set_objective(linear_form(x, 1.0, 7.25))
    m2 = read_lp(write_lp(m))
    assert m2.to_sparse()[1] == pytest.approx(7.25)


def test_seventeen_digit_floats_survive():
    m = MilpModel()
    x = m.add_variables(CONTINUOUS, 0.0, 1.0, ["x"])
    weird = 0.1 + 0.2  # not representable tidily
    m.add_rows([x], weird, LE, math.pi, ["row"])
    m.set_objective(linear_form(x))
    m2 = read_lp(write_lp(m))
    con = m2.constraints[0]
    assert con.coeffs[0] == weird
    assert con.rhs == math.pi


def test_read_rejects_garbage():
    with pytest.raises(LpParseError):
        read_lp("Minimize\n obj: 1 x\nSubject To\n r: x & 1\nEnd\n")
    with pytest.raises(LpParseError):
        read_lp("Minimize\n obj: 1 nope\nSubject To\nBounds\nEnd\n")
