"""Solver backends: oracle equivalence, duality, determinism.

The embedded backend solves an LP on its HiGHS core and a model with
binaries (a gated round) by HiGHS branch-and-cut; the package runs no
search of its own.
"""

import ast
import importlib
import itertools
import random
import shlex
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import Bounds, LinearConstraint, linprog, milp
from scipy.sparse import csc_array

from highs_spy import per_run
from milp_oracles import (brute_force_milp, check_solution, every_gate_model, objective, random_milp,
                          relations_and_rhs, scipy_csc, variables, vertex_milp)
from reference_simplex import solve_lp
from iesdispatch.milp_ir import BINARY, CONTINUOUS, EQ, GE, LE, INF, MilpModel, linear_form
from iesdispatch.solver import branch_bound
from iesdispatch.solver.branch_bound import _ScipyCore, highs_milp
from iesdispatch.solver import (
    MilpOptions,
    NumericalFailure,
    get_backend,
    solve_milp,
)


# -- hand LPs ------------------------------------------------------------------


def test_lp_single_bound():
    m = MilpModel()
    (x,) = m.add_variables(CONTINUOUS, 0.0, INF, ["x"])
    m.add_rows([[x]], 1.0, GE, 3.0, ["floor"])
    m.set_objective(linear_form([x]))
    res = solve_lp(m)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(3.0, abs=1e-9)


def test_lp_simplex_edge():
    m = MilpModel()
    xy = m.add_variables(CONTINUOUS, 0.0, INF, ["x", "y"])
    m.add_rows([xy], 1.0, LE, 1.0, ["cap"])
    m.set_objective(linear_form(xy, -1.0))
    res = solve_lp(m)
    assert res.objective == pytest.approx(-1.0, abs=1e-9)


def test_lp_infeasible_has_certificate():
    m = MilpModel()
    (x,) = m.add_variables(CONTINUOUS, -INF, INF, ["x"])
    m.add_rows([[x], [x]], 1.0, [GE, LE], [1.0, 0.0], ["hi", "lo"])
    m.set_objective(linear_form([x]))
    res = solve_lp(m)
    assert res.status == "infeasible"
    assert res.farkas is not None and np.any(res.farkas != 0)


def test_lp_unbounded():
    m = MilpModel()
    (x,) = m.add_variables(CONTINUOUS, 0.0, INF, ["x"])
    m.set_objective(linear_form([x], -1.0))
    res = solve_lp(m)
    assert res.status == "unbounded"


# -- random LP cross-check against scipy ----------------------------------------


def _random_lp(rng: random.Random, lbs=(0.0, -2.0), ubs=(1.0, 5.0, 20.0)):
    n = rng.randint(2, 6)
    mrows = rng.randint(1, 6)
    c = [rng.uniform(-3, 3) for _ in range(n)]
    lb = [rng.choice(lbs) for _ in range(n)]
    ub = [rng.choice(ubs) for _ in range(n)]
    A = [[rng.choice([0.0, 0.0, -1.5, 1.0, 2.0]) for _ in range(n)] for _ in range(mrows)]
    rel = [rng.choice([LE, GE, EQ]) for _ in range(mrows)]
    rhs = [rng.uniform(-3, 6) for _ in range(mrows)]
    m = MilpModel()
    xs = m.add_variables(CONTINUOUS, lb, ub, [f"x{i}" for i in range(n)])
    for j in range(mrows):
        if any(A[j]):
            m.add_rows([xs], [A[j]], rel[j], rhs[j], [f"r{j}"])
    m.set_objective(linear_form(xs, c))
    return m


def _scipy_solve(model: MilpModel):
    c, c0, A, row_lower, row_upper, lb, ub, _ = model.to_dense()
    relations, rhs = relations_and_rhs(row_lower, row_upper)
    A_ub, b_ub, A_eq, b_eq = [], [], [], []
    for row, rel, b in zip(A, relations, rhs):
        if rel == LE:
            A_ub.append(row)
            b_ub.append(b)
        elif rel == GE:
            A_ub.append(-row)
            b_ub.append(-b)
        else:
            A_eq.append(row)
            b_eq.append(b)
    res = linprog(
        c,
        A_ub=np.array(A_ub) if A_ub else None,
        b_ub=np.array(b_ub) if b_ub else None,
        A_eq=np.array(A_eq) if A_eq else None,
        b_eq=np.array(b_eq) if b_eq else None,
        bounds=list(zip(lb, ub)),
        method="highs",
    )
    if res.status == 0:
        return "optimal", res.fun + c0
    if res.status == 2:
        return "infeasible", None
    if res.status == 3:
        return "unbounded", None
    return "other", None


def test_lp_matches_scipy_on_random_models():
    rng = random.Random(2024)
    agreements = 0
    for _ in range(200):
        m = _random_lp(rng)
        mine = solve_lp(m)
        ref_status, ref_obj = _scipy_solve(m)
        if ref_status == "other":
            continue
        assert mine.status == ref_status
        if ref_status == "optimal":
            assert mine.objective == pytest.approx(ref_obj, abs=1e-7, rel=1e-7)
            assert check_solution(m, mine.x, tol=1e-6) == []
            agreements += 1
    assert agreements >= 100


def test_lp_duality_gap():
    rng = random.Random(77)
    checked = 0
    for _ in range(150):
        m = _random_lp(rng)
        res = solve_lp(m)
        if res.status != "optimal":
            continue
        # dual objective: sum of duals*rhs plus reduced-cost contribution at bounds
        c, c0, A, row_lower, row_upper, lb, ub, _ = m.to_dense()
        dual = float(res.duals @ relations_and_rhs(row_lower, row_upper)[1])
        for i, rc in enumerate(res.reduced_costs):
            if rc > 0:
                dual += rc * lb[i]
            elif rc < 0:
                dual += rc * ub[i]
        assert dual + c0 == pytest.approx(res.objective, abs=1e-7 * (1 + abs(res.objective)))
        checked += 1
    assert checked >= 50


# -- MILP against exhaustive enumeration --------------------------------------------


def _random_milp(rng: random.Random, max_binaries: int = 8) -> MilpModel:
    return random_milp(rng, rng.randint(1, max_binaries))


def test_milp_example_pair():
    # min 2x + y, x + y >= 1.5, x binary: x=0 branch wins at y=1.5
    m = MilpModel()
    (x,), (y,) = m.add_variables(BINARY, 0.0, 1.0, ["x"]), m.add_variables(CONTINUOUS, 0.0, INF, ["y"])
    m.add_rows([[x, y]], 1.0, GE, 1.5, ["need"])
    m.set_objective(linear_form([x, y], [2.0, 1.0]))
    res = solve_milp(m)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(1.5, abs=1e-9)
    assert res.x[x] == pytest.approx(0.0, abs=1e-9)


def test_milp_no_binaries_single_node():
    m = MilpModel()
    (x,) = m.add_variables(CONTINUOUS, 0.0, 4.0, ["x"])
    m.set_objective(linear_form([x], -1.0))
    res = solve_milp(m)
    assert res.status == "optimal"
    assert res.nodes == 1
    assert res.objective == pytest.approx(-4.0)


def test_knapsack_matches_enumeration():
    rng = random.Random(5)
    weights = [rng.randint(1, 9) for _ in range(12)]
    values = [rng.randint(1, 12) for _ in range(12)]
    cap = sum(weights) // 3
    m = MilpModel()
    xs = m.add_variables(BINARY, 0.0, 1.0, [f"item{i}" for i in range(12)])
    m.add_rows([xs], [weights], LE, cap, ["capacity"])
    m.set_objective(linear_form(xs, [-val for val in values]))
    res = solve_milp(m)
    best = min(
        -sum(v for v, take in zip(values, bits) if take)
        for bits in itertools.product((0, 1), repeat=12)
        if sum(w for w, take in zip(weights, bits) if take) <= cap
    )
    assert res.status == "optimal"
    assert res.objective == pytest.approx(best, abs=1e-9)


def test_milp_oracle_equivalence_sample():
    rng = random.Random(99)
    solved = 0
    for _ in range(25):
        m = _random_milp(rng)
        mine = solve_milp(m)
        ref_status, ref_obj = vertex_milp(m)
        assert mine.status == ref_status, m.name
        if ref_status == "optimal":
            assert mine.objective == pytest.approx(ref_obj, abs=1e-6, rel=1e-6)
            assert check_solution(m, mine.x) == []
            solved += 1
    assert solved >= 10


def test_milp_bound_sandwich_and_gap():
    rng = random.Random(3)
    for _ in range(10):
        m = _random_milp(rng)
        res = solve_milp(m, MilpOptions(gap_tol=1e-6))
        if res.status == "optimal":
            assert res.bound <= res.objective + 1e-9
            assert res.gap <= 1e-6 + 1e-12


def test_milp_determinism():
    rng = random.Random(42)
    m = _random_milp(rng, max_binaries=6)
    a = solve_milp(m)
    b = solve_milp(m)
    assert a.status == b.status
    assert a.nodes == b.nodes
    if a.x is not None:
        assert np.array_equal(a.x, b.x)


def _market_split(slack: float = INF) -> MilpModel:
    """A seeded market-split instance: 4 rows a x + sp - sm = b over 30 binaries, minimise sum(sp + sm).

    HiGHS cannot close it at the root, so a one-node limit stops the
    search with an incumbent above the bound.  ``slack`` bounds the sp and
    sm columns; at 0 HiGHS finds no incumbent in its first nodes.
    """
    rng = np.random.default_rng(3)
    a = rng.integers(0, 100, (4, 30))
    m = MilpModel()
    xs = m.add_variables(BINARY, 0.0, 1.0, [f"x{j}" for j in range(30)])
    plus = m.add_variables(CONTINUOUS, 0.0, slack, [f"sp{i}" for i in range(4)])
    minus = m.add_variables(CONTINUOUS, 0.0, slack, [f"sm{i}" for i in range(4)])
    m.add_rows([[*xs, p, q] for p, q in zip(plus, minus)], [[*row, 1.0, -1.0] for row in a.tolist()], EQ,
               (a.sum(axis=1) // 2).tolist(), [f"split{i}" for i in range(4)])
    m.set_objective(linear_form([*plus, *minus]))
    return m


@pytest.mark.parametrize("solve", [solve_milp, get_backend("scipy-milp").solve], ids=["embedded", "scipy-milp"])
def test_milp_node_limit_reports_limit_or_feasible(solve):
    res = solve(_market_split(), MilpOptions(node_limit=1))
    assert res.status == "feasible" and res.nodes == 1
    assert res.x is not None
    assert res.bound <= res.objective
    assert res.gap > 1e-6


@pytest.mark.parametrize("solve", [solve_milp, get_backend("scipy-milp").solve], ids=["embedded", "scipy-milp"])
def test_milp_node_limit_without_incumbent_reports_the_search(solve):
    # a run a node limit stops before any incumbent still reports the nodes
    # it searched and the bound it proved, as HiGHS counts them
    res = solve(_market_split(slack=0.0), MilpOptions(node_limit=20))
    assert (res.status, res.objective, res.x, res.nodes, res.bound) == ("limit", None, None, 20, 0.0)


@pytest.mark.parametrize("gap", [float("nan"), float("inf"), -1e-4])
def test_milp_options_reject_a_gap_that_cannot_close(gap):
    with pytest.raises(ValueError, match="gap_tol"):
        MilpOptions(gap_tol=gap)


@pytest.mark.parametrize("limits", [{"node_limit": 0}, {"node_limit": -5}, {"time_limit": 0.0},
                                    {"time_limit": -1.0}, {"time_limit": float("nan")}])
def test_milp_options_reject_limits_that_end_every_solve_at_once(limits):
    with pytest.raises(ValueError, match=next(iter(limits))):
        MilpOptions(**limits)


def test_milp_options_accept_one_node_and_any_positive_time():
    for options in (MilpOptions(node_limit=1), MilpOptions(time_limit=1e-3), MilpOptions(time_limit=None)):
        assert options.node_limit >= 1


def test_vertex_oracle_matches_linprog_enumeration():
    # criterion 2 uses the vertex oracle; the leaf-by-leaf linprog oracle
    # checks it on models small enough to enumerate that way
    rng = random.Random(20_240_818)
    seen = {"optimal": 0, "infeasible": 0}
    for _ in range(40):
        m = random_milp(rng, rng.randint(1, 5))
        status, obj = vertex_milp(m)
        ref_status, ref_obj = brute_force_milp(m)
        assert status == ref_status
        seen[status] += 1
        if status == "optimal":
            assert obj == pytest.approx(ref_obj, rel=1e-7, abs=1e-7)
    assert min(seen.values()) >= 5, seen


# -- rounding models ---------------------------------------------------------------


def _rounding_case(blocked: bool) -> MilpModel:
    # min -y - 0.001 z with y + z <= 1.6: the LP relaxation is y = 1,
    # z = 0.6, and rounding z to its nearer value 1 breaks that row at
    # y = 1, which y >= 0.9 cannot repair.  "blocked" relaxes y >= 0 and
    # adds y + 2 z >= 2.1, which z = 0 breaks, so neither rounding fits.
    m = MilpModel()
    (z,) = m.add_variables(BINARY, 0.0, 1.0, ["z"])
    (y,) = m.add_variables(CONTINUOUS, 0.0 if blocked else 0.9, 1.0, ["y"])
    m.add_rows([[y, z]], 1.0, LE, 1.6, ["cap"])
    if blocked:
        m.add_rows([[y, z]], [[1.0, 2.0]], GE, 2.1, ["floor"])
    m.set_objective(linear_form([y, z], [-1.0, -0.001]))
    return m


@pytest.mark.parametrize("blocked", [False, True], ids=["open", "blocked"])
def test_rounding_cases_match_enumeration(blocked):
    m = _rounding_case(blocked)
    res = solve_milp(m, MilpOptions(gap_tol=1e-3))
    ref_status, ref_obj = brute_force_milp(m)
    assert res.status == ref_status == "optimal"
    assert res.objective == pytest.approx(ref_obj, abs=1e-9)


# Bundled optima before lock rounding: the gated formulation's full-case
# values and the reduced case's (half horizon, 4 segments), to 6 decimals
BUNDLED_OPTIMA = {
    "full": {"S1": 15526.090437, "S2": 16172.746708, "S3": 16206.576735,
             "S4": 16079.695285, "S5": 16073.368256},
    "reduced": {"S1": 15613.919869, "S2": 16232.517428, "S3": 16259.160792,
                "S4": 16133.294773, "S5": 16128.341735},
}


def test_bundled_scenarios_solve_at_the_root():
    from iesdispatch.dispatch import SCENARIO_IDS, DispatchOptions, run_scenario
    from iesdispatch.model_core import default_case_path, load_case, reduce_case

    case = load_case(default_case_path())
    runs = (("full", case, DispatchOptions()),
            ("reduced", reduce_case(case, 2), DispatchOptions(pwl_segments=4)))
    for name, data, options in runs:
        for sid in SCENARIO_IDS:
            sol = run_scenario(data, sid, options)  # raises unless it verifies
            want = BUNDLED_OPTIMA[name][sid]
            # one gate-free LP, with no storage overlap to gate
            assert sol.nodes == 1, (name, sid)
            assert sol.verification.passed
            assert sol.objective <= want + options.gap_tol * abs(want), (name, sid, sol.objective)


def test_scipy_core_matches_reference_simplex():
    # the embedded backend's LP core against the package's own simplex; open
    # bounds make all three statuses occur, the constant checks the offset
    rng = random.Random(4321)
    seen = {"optimal": 0, "infeasible": 0, "unbounded": 0}
    for _ in range(300):
        m = _random_lp(rng, lbs=(0.0, -2.0, -INF), ubs=(1.0, 5.0, INF))
        m.set_objective(objective(m)._replace(constant=rng.uniform(-1, 1)))
        res = _ScipyCore(m).solve(m, MilpOptions())
        ref = solve_lp(m)
        assert res.status == ref.status
        seen[ref.status] += 1
        if ref.status == "optimal":
            assert res.objective == pytest.approx(ref.objective, rel=1e-7, abs=1e-7)
    assert min(seen.values()) >= 30, seen


def _status_case(kind: str) -> MilpModel:
    m = MilpModel()
    # the refused model is an LP, so the embedded backend loads it on its core
    (x,) = m.add_variables(CONTINUOUS if kind == "refused" else BINARY, 0.0, 1.0, ["x"])
    (y,) = m.add_variables(CONTINUOUS, 0.0, INF if kind == "unbounded root" else 1.0, ["y"])
    if kind == "infeasible node":  # root relaxation x = 0.5, both children fail
        m.add_rows([[x]], 2.0, EQ, 1.0, ["half"])
    elif kind == "infeasible root":
        m.add_rows([[x, y]], 1.0, GE, 3.0, ["too_much"])
    elif kind == "refused":  # HiGHS refuses a matrix entry above its large_matrix_value, 1e15
        m.add_rows([[x, y]], [[1e16, 1.0]], LE, 1.0, ["huge"])
    m.set_objective(linear_form([x, y], [1.0, -1.0]))
    return m


@pytest.mark.parametrize("solve", [solve_milp, get_backend("scipy-milp").solve], ids=["embedded", "scipy-milp"])
@pytest.mark.parametrize(
    "kind, status",
    [("infeasible node", "infeasible"), ("infeasible root", "infeasible"), ("unbounded root", "unbounded"),
     ("refused", NumericalFailure)],
)
def test_scipy_core_milp_statuses(kind, status, solve):
    if status is NumericalFailure:
        with pytest.raises(NumericalFailure, match="failed"):
            solve(_status_case(kind), MilpOptions())
        return
    res = solve(_status_case(kind), MilpOptions())
    assert (res.status, res.x) == (status, None)


# The outcome of each HiGHS model status, without and with an incumbent:
# a status, or NumericalFailure; "unbounded or infeasible" goes by the
# zero-objective re-run, here one that finds a point
VERDICTS = {
    "kNotset": NumericalFailure, "kLoadError": NumericalFailure, "kModelError": NumericalFailure,
    "kPresolveError": NumericalFailure, "kSolveError": NumericalFailure, "kPostsolveError": NumericalFailure,
    "kModelEmpty": NumericalFailure, "kOptimal": ("optimal", "optimal"),
    "kInfeasible": ("infeasible", "infeasible"), "kUnboundedOrInfeasible": ("unbounded", "unbounded"),
    "kUnbounded": ("unbounded", "unbounded"), "kObjectiveBound": NumericalFailure,
    "kObjectiveTarget": NumericalFailure, "kTimeLimit": ("limit", "feasible"),
    "kIterationLimit": ("limit", "feasible"), "kUnknown": NumericalFailure,
    "kSolutionLimit": ("limit", "feasible"), "kInterrupt": NumericalFailure,
    "kMemoryLimit": NumericalFailure, "kHighsInterrupt": NumericalFailure,
}


def test_every_highs_model_status_has_a_pinned_verdict():
    # a status a new scipy release adds fails here instead of landing in a bucket unseen
    from scipy.optimize._highspy._core import HighsModelStatus

    assert set(HighsModelStatus.__members__) == set(VERDICTS)
    for name, member in HighsModelStatus.__members__.items():
        def verdicts():
            return tuple(branch_bound._verdict(member, incumbent, lambda: HighsModelStatus.kOptimal, "run")
                         for incumbent in (False, True))

        if VERDICTS[name] is NumericalFailure:
            with pytest.raises(NumericalFailure, match="^run failed: "):
                verdicts()
        else:
            assert verdicts() == VERDICTS[name], name
    # the re-run decides "unbounded or infeasible"; a second such status raises
    rerun = {"kInfeasible": "infeasible", "kTimeLimit": "limit", "kUnbounded": "unbounded"}
    for name, verdict in rerun.items():
        status = HighsModelStatus.__members__[name]
        assert branch_bound._verdict(HighsModelStatus.kUnboundedOrInfeasible, True, lambda: status, "run") == verdict
    with pytest.raises(NumericalFailure, match="Primal infeasible or unbounded"):
        branch_bound._verdict(HighsModelStatus.kUnboundedOrInfeasible, False,
                              lambda: HighsModelStatus.kUnboundedOrInfeasible, "run")


@pytest.mark.parametrize(
    "lp, status",
    [
        # x + y >= 1 and x + y <= 0, descent ray (1, -1): primal and dual infeasible
        (([-1, 1], [[1, 1], [1, 1]], [GE, LE], [1, 0], [-INF, -INF], [INF, INF]), "infeasible"),
        # x + y <= 3 with x, y <= 5: x falls without limit and pays +1 per unit
        (([1, -1], [[1, 1]], [LE], [3], [-INF, -INF], [5, 5]), "unbounded"),
    ],
)
def test_scipy_core_resolves_unbounded_or_infeasible(lp, status):
    from scipy.optimize._highspy._core import HighsModelStatus

    c, A, relations, rhs, lb, ub = lp
    m = MilpModel()
    xy = m.add_variables(CONTINUOUS, lb, ub, ["x", "y"])
    m.add_rows([xy] * len(A), A, relations, rhs, [f"r{i}" for i in range(len(A))])
    m.set_objective(linear_form(xy, c))
    core = _ScipyCore(m)
    core._highs.setOptionValue("allow_unbounded_or_infeasible", True)
    core._highs.run()
    assert core._highs.getModelStatus() == HighsModelStatus.kUnboundedOrInfeasible
    assert core.solve(m, MilpOptions()).status == status
    assert core.solve(m, MilpOptions()).status == status  # the re-price restores the objective


def _public_milp(model: MilpModel, options: MilpOptions) -> tuple:
    """(status, objective, bound, nodes, x) from public ``scipy.optimize.milp``, as highs_milp reads them.

    The oracle for `highs_milp`: scipy checks and copies the arguments and
    maps HiGHS's status to its own codes, so only the solve itself is shared.
    """
    c, c0, A, row_lower, row_upper, lb, ub, is_binary = model.to_sparse()
    res = milp(c, integrality=is_binary, bounds=Bounds(lb, ub),
               constraints=LinearConstraint(scipy_csc(A), row_lower, row_upper),
               options={"mip_rel_gap": options.gap_tol, "node_limit": options.node_limit})
    assert res.status == 0, res.message
    x = res.x
    x[is_binary] = np.round(x[is_binary])
    objective = float(c @ x) + c0
    bound = objective if res.mip_dual_bound is None else res.mip_dual_bound + c0
    return "optimal", objective, bound, res.mip_node_count or 1, x


def _oracle_models():
    """(label, model, options): reduced and binding-gate S1-S5, each gate-free and with every gate."""
    from iesdispatch.dispatch import SCENARIO_IDS, DispatchOptions, build_model
    from iesdispatch.model_core import default_case_path, load_case, reduce_case

    case = load_case(default_case_path())
    binding = reduce_case(case, 4)  # test_dispatch's binding_case: gates bind in S2
    binding = replace(binding, carbon=replace(binding.carbon, sigma_h=2.0, lambda_base=2.0))
    for label, data, options in (("reduced", reduce_case(case), DispatchOptions()),
                                 ("binding-gate", binding, DispatchOptions(pwl_segments=4))):
        for sid in SCENARIO_IDS:
            yield f"{label}-{sid}/gate-free", build_model(data, sid, options)[0], options
            yield f"{label}-{sid}", every_gate_model(data, sid, options)[0], options


def test_highs_milp_matches_public_milp_bit_for_bit():
    checked = 0
    for label, model, options in _oracle_models():
        status, objective, bound, nodes, x = _public_milp(model, options)
        res = highs_milp(model, options)
        assert (res.status, res.objective.hex(), res.bound.hex(), res.nodes) == (
            status, objective.hex(), bound.hex(), nodes), label
        assert _bit_equal(res.x, x), label
        checked += 1
    assert checked == 20


HIGHS_MODULE = "scipy.optimize._highspy._core"
# every private HiGHS name the package imports, by module
HIGHS_NAMES = {HIGHS_MODULE: ("_Highs", "HighsStatus", "HighsModelStatus")}
# every _Highs method the package calls
HIGHS_METHODS = ("changeColsCost", "changeRowBounds", "clearSolver", "getInfo", "getModelStatus",
                 "getRunTime", "getSolution", "modelStatusToString", "passModel", "run", "setOptionValue")


def test_highs_private_api_is_importable():
    # _ScipyCore drives HiGHS through scipy's private bindings; a scipy release
    # that moves or changes them must fail here, not deep inside a solve.
    _Highs, HighsStatus, HighsModelStatus = (getattr(importlib.import_module(HIGHS_MODULE), name)
                                             for name in HIGHS_NAMES[HIGHS_MODULE])
    for method in HIGHS_METHODS:
        assert callable(getattr(_Highs, method))
    assert HighsModelStatus.kUnboundedOrInfeasible != HighsModelStatus.kUnbounded
    # the array overload of passModel the core loads with: min x + 2y + 0.5
    # subject to 1 <= x + y <= inf on [0, 1]^2
    m = MilpModel()
    xy = m.add_variables(CONTINUOUS, 0.0, 1.0, ["x", "y"])
    m.add_rows([xy], 1.0, GE, 1.0, ["floor"])
    m.set_objective(linear_form(xy, [1.0, 2.0], 0.5))
    core = _ScipyCore(m)
    res = core.solve(m, MilpOptions())
    assert (res.status, res.objective, res.x.tolist()) == ("optimal", 1.5, [1.0, 0.0])
    assert core._highs.getModelStatus() == HighsModelStatus.kOptimal
    # an empty integrality array is rejected, which is why the core passes one flag per column
    h, A = _Highs(), m.to_sparse()[2]
    h.setOptionValue("output_flag", False)
    status = h.passModel(2, 1, A.nnz, 1, 1, 0.0, np.array([1.0, 2.0]), np.zeros(2), np.ones(2), np.ones(1),
                         np.full(1, INF), A.indptr, A.indices, A.data, np.zeros(0, dtype=np.int32))
    assert status == HighsStatus.kError


def _highs_private_imports(source: str) -> set[str]:
    """``module.name`` of each name a module imports from scipy's private HiGHS bindings.

    Any other import of them, such as a whole module, is "*".
    """
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module in HIGHS_NAMES:
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
        elif isinstance(node, (ast.Import, ast.ImportFrom)) and "_highspy" in ast.unparse(node):
            names.add("*")
    return names


def test_package_uses_only_the_checked_highs_names():
    package = Path(__file__).resolve().parents[1] / "src" / "iesdispatch"
    used = set().union(*(_highs_private_imports(p.read_text()) for p in package.rglob("*.py")))
    checked = {f"{module}.{name}" for module, names in HIGHS_NAMES.items() for name in names}
    assert used == checked, (sorted(used - checked), sorted(checked - used))
    # the check itself: a name list, and a whole-module import or another
    # module, such as the driver scipy.optimize.milp calls, that would hide one
    for other in (f"import {HIGHS_MODULE} as core",
                  "from scipy.optimize._highspy._highs_wrapper import _highs_wrapper"):
        source = f"from {HIGHS_MODULE} import _Highs, HighsLp\n{other}\n"
        assert _highs_private_imports(source) == {f"{HIGHS_MODULE}._Highs", f"{HIGHS_MODULE}.HighsLp", "*"}


def _highs_method_calls(source: str) -> set[str]:
    """Methods a module calls on a `_Highs` instance: ``_Highs()`` or a name or attribute assigned one."""
    tree, holders, size = ast.parse(source), {"_Highs()"}, 0
    while size < len(holders):  # assignments can chain in any order
        size = len(holders)
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    pairs = (zip(target.elts, node.value.elts)
                             if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple)
                             else [(target, node.value)])
                    holders.update(ast.unparse(t) for t, v in pairs if ast.unparse(v) in holders)
    return {node.func.attr for node in ast.walk(tree) if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute) and ast.unparse(node.func.value) in holders}


def test_package_calls_only_the_checked_highs_methods():
    package = Path(__file__).resolve().parents[1] / "src" / "iesdispatch"
    used = set().union(*(_highs_method_calls(p.read_text()) for p in package.rglob("*.py")))
    assert used == set(HIGHS_METHODS), (sorted(used - set(HIGHS_METHODS)), sorted(set(HIGHS_METHODS) - used))
    # the check itself: calls through the instance, an attribute and names assigned from them
    source = ("h = _Highs()\nh.run()\nself.core = h\na, b = self.core, 1\na.setBasis(b)\n"
              "b.getBasis()\n_Highs().getInfo()\n")
    assert _highs_method_calls(source) == {"run", "setBasis", "getInfo"}


# Defined in src/ and called from outside it only, each with its reason
OUTSIDE_CALLERS = {
    "run_scenario": "library entry point (README)",
    "run_all_scenarios": "library entry point (README)",
    "sweep_lambda": "library entry point (README)",
    "sweep_interval": "library entry point (README)",
    "load_case": "library entry point (README)",
    "scale_profiles": "library helper for perturbation runs (README); perfbench's perturbed-milp calls it",
    "main": "cli.main, the iesdispatch console script",
    "binary_ids": "perfbench/tracing.py counts a model's binaries with it",
    "to_dense": "perfbench/tracing.py traces it as milp_ir.to_dense",
    "trace": "perfbench/tracing.py reads MilpSolution.trace for its search counts",
}


def _names(node):
    """Every name and attribute name used under ``node``."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr


def _unreferenced(sources) -> set[str]:
    """Functions, methods and classes defined in ``sources`` that no code outside their own body names.

    A name counts wherever it is used, whatever object it reaches; a use
    inside the definition itself, a recursive call, does not.  Dunder
    methods are called by Python and are left out.
    """
    defs, used = [], Counter()
    for source in sources:
        tree = ast.parse(source)
        used.update(_names(tree))
        defs += [n for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
    for d in defs:
        used[d.name] -= sum(name == d.name for name in _names(d))
    return {d.name for d in defs if used[d.name] <= 0 and not d.name.startswith("__")}


def test_package_defines_only_what_it_calls():
    package = Path(__file__).resolve().parents[1] / "src" / "iesdispatch"
    sources = [p.read_text() for p in package.rglob("*.py")]
    assert _unreferenced(sources) <= set(OUTSIDE_CALLERS), sorted(_unreferenced(sources) - set(OUTSIDE_CALLERS))
    defined = {n.name for source in sources for n in ast.walk(ast.parse(source))
               if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
    assert set(OUTSIDE_CALLERS) <= defined, sorted(set(OUTSIDE_CALLERS) - defined)
    # the check itself: a recursive call is no use, a call from elsewhere is
    assert _unreferenced(["def f(n): return f(n - 1)\ndef g(): return f(3)\n"]) == {"g"}


def _sweep_models():
    """Gate-free reduced S5 models over carbon prices and tier widths: one matrix, other c and rows."""
    from iesdispatch.dispatch import DispatchOptions, build_model
    from iesdispatch.model_core import default_case_path, load_case, reduce_case

    case = reduce_case(load_case(default_case_path()), 2)
    return [build_model(replace(case, carbon=replace(case.carbon, lambda_base=lam, interval_d=d)), "S5",
                        DispatchOptions(pwl_segments=4))[0]
            for lam, d in ((0.1, 2000.0), (0.3, 2000.0), (0.6, 2000.0), (0.6, 800.0), (0.2, 4000.0))]


def _iterations(core) -> int:
    """Simplex iterations of the core's last run."""
    return core._highs.getInfo().simplex_iteration_count


def test_repriced_core_matches_cold_solves():
    models, options = _sweep_models(), MilpOptions()
    # one matrix and one set of relations, entry for entry: only c and rhs move
    _, _, A, row_lower, row_upper, *_ = models[0].to_sparse()
    relations = relations_and_rhs(row_lower, row_upper)[0]
    assert all((scipy_csc(m.to_sparse()[2]) != scipy_csc(A)).nnz == 0
               and relations_and_rhs(*m.to_sparse()[3:5])[0] == relations for m in models)
    core = _ScipyCore(models[0])
    assert core.solve(models[0], options).status == "optimal"
    warm_iterations = cold_iterations = 0
    for model in models[1:]:
        warm = core.solve(model, options)
        warm_iterations += _iterations(core)
        fresh = _ScipyCore(model)
        cold = fresh.solve(model, options)
        cold_iterations += _iterations(fresh)
        assert warm.status == cold.status == "optimal"
        assert warm.objective == pytest.approx(cold.objective, rel=1e-9, abs=0.0)
    assert warm_iterations < cold_iterations / 2


def test_repriced_core_passes_only_the_costs_that_moved():
    models, options = _sweep_models(), MilpOptions()
    core = _ScipyCore(models[0])
    highs, passed = core._highs, []

    class CostSpy:
        """Forwards to the core's HiGHS instance and records each changeColsCost call."""

        def __getattr__(self, name):
            return getattr(highs, name)

        def changeColsCost(self, n, cols, costs):
            passed.append((n, cols.tolist(), costs.tolist()))
            return highs.changeColsCost(n, cols, costs)

    core._highs = CostSpy()
    assert core.solve(models[0], options).status == "optimal" and passed == []
    # a lambda step (0.1 -> 0.3) moves the carbon ladder's costs: exactly
    # those columns go to HiGHS, with the new costs
    before, after = models[0].to_sparse()[0], models[1].to_sparse()[0]
    moved = np.flatnonzero(after != before).tolist()
    assert 0 < len(moved) < after.size
    assert core.solve(models[1], options).status == "optimal"
    assert passed == [(len(moved), moved, after[moved].tolist())]
    # HiGHS then holds the model's costs bit for bit, as after passing them all
    assert np.array_equal(np.array(highs.getLp().col_cost_), after)
    # a d step (2000 -> 800 at lambda 0.6) moves no cost
    assert core.solve(models[2], options).status == "optimal"
    passed.clear()
    assert core.solve(models[3], options).status == "optimal"
    assert passed == []
    c = models[3].to_sparse()[0]
    assert np.array_equal(np.array(highs.getLp().col_cost_), c)
    # a zero-cost run (the unbounded-or-infeasible test) leaves HiGHS zeros,
    # so the next solve passes every nonzero cost back
    core._zero_cost_run()
    passed.clear()
    assert core.solve(models[3], options).status == "optimal"
    assert [cols for _, cols, _ in passed] == [np.flatnonzero(c).tolist()]
    assert np.array_equal(np.array(highs.getLp().col_cost_), c)


def test_a_cores_first_run_solves_the_model_it_is_given():
    # the first run re-prices the core like any other: loaded from one model,
    # it solves another with the same A at another lambda and d as a cold core does
    models, options = _sweep_models(), MilpOptions()
    loaded, given = models[0].to_sparse(), models[3].to_sparse()
    assert not np.array_equal(loaded[0], given[0])  # other costs
    assert not (np.array_equal(loaded[3], given[3]) and np.array_equal(loaded[4], given[4]))  # other knee rows
    first = _ScipyCore(models[0]).solve(models[3], options)
    cold = _ScipyCore(models[3]).solve(models[3], options)
    assert first.status == cold.status == "optimal"
    assert first.objective == pytest.approx(cold.objective, rel=1e-9, abs=0.0)


def test_core_keeps_the_compiled_matrix_object():
    # a model compiled again between re-pricings hands solve_milp the very A
    # its core holds, so the identity test reuses the core
    from iesdispatch.dispatch import DispatchOptions

    model, options = _sweep_models()[0], DispatchOptions(pwl_segments=4)
    assert _ScipyCore(model).A is model.to_sparse()[2]
    assert solve_milp(model, options).status == "optimal"
    core = branch_bound._cores[model]
    model.set_objective(objective(model).scaled(1.5))
    model.set_rhs([0], [relations_and_rhs(*model.to_sparse()[3:5])[1][0]])
    assert solve_milp(model, options).status == "optimal"
    assert branch_bound._cores[model] is core and core.A is model.to_sparse()[2]


# -- hot restarts and the simplex choice ---------------------------------------


def test_core_restarts_hot_only_after_an_optimal_run(highs_calls, monkeypatch):
    from iesdispatch.dispatch import DispatchOptions, build_model
    from iesdispatch.model_core import default_case_path, load_case, reduce_case

    options = DispatchOptions(pwl_segments=4)
    model, _ = build_model(reduce_case(load_case(default_case_path()), 2), "S5", options)
    assert solve_milp(model, options).status == "optimal"
    core = branch_bound._cores[model]

    def strategy():
        return core._highs.getOptionValue("simplex_strategy")[1]

    # an optimal run, then a re-price: the next run is hot, passing HiGHS no basis
    model.set_objective(objective(model).scaled(1.5))
    hot = solve_milp(model, options)
    run = per_run(highs_calls)[-1]
    assert hot.status == "optimal" and branch_bound._cores[model] is core and strategy() == 0
    assert "changeColsCost" in run and not {"clearSolver", "setBasis", "getBasis"} & set(run)
    # an unattainable balance row, then restored: the next solve clears the
    # solver and runs the dual simplex
    row = [con.name for con in model.constraints].index("balance_electric_t00")
    load = relations_and_rhs(*model.to_sparse()[3:5])[1][row]
    model.set_rhs([row], [1e9])
    assert solve_milp(model, options).status == "infeasible" and branch_bound._cores[model] is core
    model.set_rhs([row], [load])
    highs_calls.clear()
    cold = solve_milp(model, options)
    assert cold.status == "optimal" and branch_bound._cores[model] is core and strategy() == 1
    assert "clearSolver" in highs_calls and not {"setBasis", "getBasis"} & set(highs_calls)
    assert cold.objective == pytest.approx(hot.objective, rel=1e-9, abs=0.0)

    # an injected raise drops the model's core, and the next solve loads a new one
    def fails():
        raise NumericalFailure("LP core failed: injected")

    monkeypatch.setattr(core._highs, "run", fails, raising=False)
    with pytest.raises(NumericalFailure):
        solve_milp(model, options)
    assert model not in branch_bound._cores
    assert solve_milp(model, options).status == "optimal" and branch_bound._cores[model] is not core


def test_chain_after_a_solve_that_is_not_optimal_starts_cold(highs_calls):
    from iesdispatch.dispatch import DispatchOptions, build_model
    from iesdispatch.model_core import default_case_path, load_case, reduce_case

    # an infeasible solve of a model on its core leaves no basis: the next
    # solve clears the solver instead of restarting from the basis before
    options = DispatchOptions(pwl_segments=4)
    model, _ = build_model(reduce_case(load_case(default_case_path()), 2), "S5", options)
    row = [con.name for con in model.constraints].index("balance_electric_t00")
    load = relations_and_rhs(*model.to_sparse()[3:5])[1][row]
    statuses = []
    for rhs in (load, 1e9, load):
        model.set_rhs([row], [rhs])
        start = len(highs_calls)
        statuses.append(solve_milp(model, options).status)
        if len(statuses) == 3:
            assert "clearSolver" in highs_calls[start:] and "setBasis" not in highs_calls[start:]
    assert statuses == ["optimal", "infeasible", "optimal"]
    # the first point starts cold, the infeasible one hot from the first's basis
    assert highs_calls.count("clearSolver") == 2 and "setBasis" not in highs_calls


# Simplex iterations of a cold solve of each gate-free model, pinned
COLD_ITERATIONS = {"full": [199, 317, 321, 350, 442], "reduced": [109, 155, 158, 181, 212]}


def test_cold_solves_keep_the_dual_simplex():
    from iesdispatch.dispatch import SCENARIO_IDS, DispatchOptions, build_model
    from iesdispatch.model_core import default_case_path, load_case, reduce_case

    # a cold run takes the dual simplex (simplex_strategy 1), a hot restart
    # lets HiGHS choose (0); a hot restart on the same LP takes no step
    case = load_case(default_case_path())
    for label, data, segments in (("full", case, 8), ("reduced", reduce_case(case, 2), 4)):
        iterations = []
        for sid in SCENARIO_IDS:
            model = build_model(data, sid, DispatchOptions(pwl_segments=segments))[0]
            core = _ScipyCore(model)
            cold = core.solve(model, MilpOptions())
            assert cold.status == "optimal" and core._highs.getOptionValue("simplex_strategy")[1] == 1
            iterations.append(_iterations(core))
            again = core.solve(model, MilpOptions())
            assert _iterations(core) == 0 and _bit_equal(again.x, cold.x), (label, sid)
            assert core._highs.getOptionValue("simplex_strategy")[1] == 0
        assert iterations == COLD_ITERATIONS[label]


def _dense_reference(model: MilpModel, forms):
    """The compile as a plain loop over the objective's forms and the row dictionaries.

    The columns have no record form of their own, so lb, ub and is_binary
    are read back from the compile and only the costs and rows are checked.
    """
    n, m = model.num_variables, model.num_constraints
    c, c0 = np.zeros(n), 0.0
    for form in forms:
        for vid, coef in zip(form.ids.tolist(), form.coeffs.tolist()):
            c[vid] += coef
        c0 += form.constant
    A = np.zeros((m, n))
    row_lower, row_upper = np.full(m, -INF), np.full(m, INF)
    for i, con in enumerate(model.constraints):
        for vid, coef in con.coeffs.items():
            A[i, vid] = coef
        if con.relation != LE:
            row_lower[i] = con.rhs
        if con.relation != GE:
            row_upper[i] = con.rhs
    columns = variables(model)
    lb = np.array([v.lower for v in columns], dtype=float)
    ub = np.array([v.upper for v in columns], dtype=float)
    is_binary = np.array([v.kind == "binary" for v in columns], dtype=bool)
    return c, c0, A, row_lower, row_upper, lb, ub, is_binary


def _bit_equal(a, b) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _compiled_models():
    """(model, the forms its objective was set from) pairs."""
    from iesdispatch.dispatch import SCENARIO_IDS, DispatchOptions, _objective, build_model
    from iesdispatch.model_core import default_case_path, load_case, reduce_case

    case = load_case(default_case_path())
    for data, segments in ((case, 8), (reduce_case(case, 2), 4)):
        for sid in SCENARIO_IDS:
            model, vm = build_model(data, sid, DispatchOptions(pwl_segments=segments))
            yield model, _objective(vm)
    rng = random.Random(99)
    for _ in range(200):
        model = _random_lp(rng, lbs=(0.0, -2.0, -INF), ubs=(1.0, 5.0, INF))
        # repeated ids and terms that cancel
        ids = [rng.randrange(model.num_variables) for _ in range(8)]
        coeffs = [rng.choice([-1.5, 0.1, 0.2, 1.0, 3.0]) for _ in ids]
        forms = (linear_form(ids, coeffs, rng.uniform(-1, 1)), linear_form(ids[::2], [-w for w in coeffs[::2]]))
        model.set_objective(*forms)
        yield model, forms


def test_sparse_compile_matches_dense_loop():
    for model, forms in _compiled_models():
        ref = _dense_reference(model, forms)
        sparse, dense = model.to_sparse(), model.to_dense()
        A = sparse[2]
        assert scipy_csc(A).has_sorted_indices and np.all(A.data != 0.0) and A.nnz == A.data.size
        assert _bit_equal(scipy_csc(A).toarray(), ref[2]) and _bit_equal(dense[2], ref[2])
        # the arrays HiGHS is given are those a CSC conversion of dense A gives
        expected = csc_array(ref[2])
        for part in ("indptr", "indices", "data"):
            assert _bit_equal(getattr(A, part), getattr(expected, part))
        for k in (0, 3, 4, 5, 6, 7):
            assert _bit_equal(sparse[k], ref[k]) and _bit_equal(dense[k], ref[k])
        assert sparse[1] == dense[1] == ref[1]


def test_backend_registry():
    m = MilpModel()
    xy = [*m.add_variables(BINARY, 0.0, 1.0, ["x"]), *m.add_variables(CONTINUOUS, 0.0, 3.0, ["y"])]
    m.add_rows([xy], 1.0, GE, 1.2, ["row"])
    m.set_objective(linear_form(xy))
    a = solve_milp(m, MilpOptions())
    b = get_backend("scipy-milp").solve(m, MilpOptions())
    assert a.status == b.status == "optimal"
    assert a.objective == pytest.approx(b.objective, abs=1e-8)
    with pytest.raises(Exception):
        get_backend("nope")


EXTERNAL_SOLVER = '''\
import os
import sys

tests_dir, lp_path, sol_path = sys.argv[1:4]
# lp_reader, and the package of this checkout when it is not installed
sys.path[:0] = [tests_dir, os.path.join(os.path.dirname(tests_dir), "src")]
from lp_reader import read_lp
from iesdispatch.lp_format import sanitized_names
from iesdispatch.solver import solve_milp

with open(lp_path, encoding="utf-8") as fh:
    model = read_lp(fh.read())
res = solve_milp(model)
with open(sol_path, "w", encoding="utf-8") as fh:
    fh.write(f"status={res.status}\\n")
    if res.objective is not None:
        fh.write(f"objective={float(res.objective)!r}\\n")
    if res.x is not None:
        for name, value in zip(sanitized_names(model), res.x):
            fh.write(f"{name}={float(value)!r}\\n")
'''


def _external_round_trip(monkeypatch, script_dir):
    script_dir.mkdir(exist_ok=True)
    script = script_dir / "extsolve.py"
    script.write_text(EXTERNAL_SOLVER, encoding="utf-8")
    tests_dir = Path(__file__).resolve().parent
    command = " ".join(shlex.quote(str(p)) for p in (sys.executable, script, tests_dir))
    monkeypatch.setenv("IESDISPATCH_EXTERNAL_SOLVER", command)

    m = MilpModel()
    (x,), (y,) = m.add_variables(BINARY, 0.0, 1.0, ["x"]), m.add_variables(CONTINUOUS, 0.0, INF, ["y"])
    m.add_rows([[x, y]], 1.0, GE, 1.5, ["need"])
    m.set_objective(linear_form([x, y], [2.0, 1.0]))
    res = get_backend("external").solve(m, MilpOptions())
    assert res.status == "optimal"
    assert res.objective == pytest.approx(1.5, abs=1e-9)
    assert res.x[x] == pytest.approx(0.0, abs=1e-9)
    assert res.x[y] == pytest.approx(1.5, abs=1e-9)


def test_external_backend_round_trip(tmp_path, monkeypatch):
    _external_round_trip(monkeypatch, tmp_path)


def test_external_backend_command_quotes_a_path_with_spaces(tmp_path, monkeypatch):
    _external_round_trip(monkeypatch, tmp_path / "solver dir")


# stand-in solvers that exit 0 without a usable solution file
NO_SOLUTION = "pass\n"
BAD_OBJECTIVE = '''\
import sys

with open(sys.argv[2], "w", encoding="utf-8") as fh:
    fh.write("status=optimal\\nobjective=abc\\n")
'''
STATUS_ONLY = '''\
import sys

with open(sys.argv[2], "w", encoding="utf-8") as fh:
    fh.write("status={}\\n")
'''


@pytest.mark.parametrize(
    "script, message",
    [(NO_SOLUTION, "unreadable solution file"), (BAD_OBJECTIVE, "unreadable solution file"),
     (STATUS_ONLY.format("banana"), "unreadable solution file: status 'banana'"), (None, "did not start")],
    ids=["no-solution-file", "bad-objective", "unknown-status", "missing-command"],
)
def test_external_backend_failure_is_unavailable(script, message, tmp_path, monkeypatch):
    from iesdispatch.solver import BackendUnavailableError

    path = tmp_path / "stub.py"
    command = [str(path)]
    if script is not None:
        path.write_text(script, encoding="utf-8")
        command.insert(0, sys.executable)
    monkeypatch.setenv("IESDISPATCH_EXTERNAL_SOLVER", " ".join(map(shlex.quote, command)))
    m = MilpModel()
    m.add_variables(CONTINUOUS, 0.0, 1.0, ["v"])
    m.set_objective(linear_form([0]))
    with pytest.raises(BackendUnavailableError, match=message):
        get_backend("external").solve(m, MilpOptions())


@pytest.mark.parametrize("status", ["infeasible", "unbounded", "limit"])
def test_external_backend_reports_a_documented_status(status, tmp_path, monkeypatch):
    path = tmp_path / "stub.py"
    path.write_text(STATUS_ONLY.format(status), encoding="utf-8")
    monkeypatch.setenv("IESDISPATCH_EXTERNAL_SOLVER", " ".join(map(shlex.quote, (sys.executable, str(path)))))
    m = MilpModel()
    m.add_variables(CONTINUOUS, 0.0, 1.0, ["v"])
    m.set_objective(linear_form([0]))
    res = get_backend("external").solve(m, MilpOptions())
    assert res.status == status and res.objective is None and res.x is None


def test_external_backend_unset_env(monkeypatch):
    monkeypatch.delenv("IESDISPATCH_EXTERNAL_SOLVER", raising=False)
    from iesdispatch.solver import BackendUnavailableError

    m = MilpModel()
    m.add_variables(CONTINUOUS, 0.0, 1.0, ["v"])
    m.set_objective(linear_form([0]))
    with pytest.raises(BackendUnavailableError, match="not set"):
        get_backend("external").solve(m, MilpOptions())
