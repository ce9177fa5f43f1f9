"""Tests of the benchmark itself.

Run from the repository root:

    python3 -m pytest perfbench -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from iesdispatch.dispatch import SCENARIO_IDS, DispatchOptions, run_all_scenarios  # noqa: E402
from iesdispatch.model_core import default_case_path, load_case, reduce_case  # noqa: E402
from iesdispatch.solver import NumericalFailure, branch_bound  # noqa: E402

# ROADMAP baseline on the bundled case, default options: cols, rows, binaries, nodes.
BASELINE = {
    "S1": (432, 477, 72, 44),
    "S2": (480, 910, 72, 35),
    "S3": (492, 924, 78, 52),
    "S4": (684, 1071, 174, 107),
    "S5": (972, 1311, 318, 207),
}


@pytest.fixture(scope="module")
def reduced():
    return reduce_case(load_case(default_case_path()), 2)


def test_raising_solves_are_counted_and_the_pass_goes_on(monkeypatch, reduced):
    real = workloads.run_all_scenarios

    def flaky(case, options, scenario_ids):
        if scenario_ids == ("S2",):
            raise NumericalFailure("injected")
        if scenario_ids == ("S4",):
            raise RuntimeError("LP core failed: injected")
        return real(case, options, scenario_ids=scenario_ids)

    monkeypatch.setattr(workloads, "run_all_scenarios", flaky)
    wl = workloads.ScenariosFull(reduced, DispatchOptions(pwl_segments=4))
    solves = wl.run_pass().solves
    assert [s.scenario_id for s in solves] == list(SCENARIO_IDS)
    assert [s.error is None for s in solves] == [True, False, True, False, True]
    assert solves[1].error.startswith("NumericalFailure")
    assert solves[3].error.startswith("RuntimeError")


def test_lp_core_error_escapes_run_all_scenarios_but_not_the_harness(monkeypatch, reduced, tmp_path):
    def failing_solve(self, lb, ub, start=None):
        raise RuntimeError("LP core failed: injected")

    monkeypatch.setattr(branch_bound._ScipyCore, "solve", failing_solve)
    opts = DispatchOptions(pwl_segments=4)
    with pytest.raises(RuntimeError):
        run_all_scenarios(reduced, opts, scenario_ids=("S1",))
    assert workloads.solve_scenario(reduced, "S1", opts).error.startswith("RuntimeError")

    sweep, _ = workloads.make("sweep-lambda", 0, str(tmp_path))
    result = sweep.run_pass()
    assert len(result.solves) == workloads.LAMBDA_POINTS
    assert all(s.error is not None for s in result.solves)


def test_failed_checks_mark_the_solve(reduced):
    opts = DispatchOptions(pwl_segments=4)
    good = workloads.solve_scenario(reduced, "S1", opts)
    wrong = workloads.Solve(reduced, "S1", opts, objective=good.objective * 1.01)
    workloads.check_against_reference([good, wrong])
    assert good.error is None
    assert "reference" in wrong.error

    s3 = workloads.Solve(reduced, "S3", opts, objective=100.0)
    s4 = workloads.Solve(reduced, "S4", opts, objective=101.0)
    s5 = workloads.Solve(reduced, "S5", opts, objective=100.5)
    workloads.check_ordering([s3, s4, s5])
    assert s3.error is None and s5.error is None
    assert "exceeds obj(S3)" in s4.error


def traced_counts() -> list[dict]:
    """Per-solve counts of one traced scenarios-full pass."""
    wl, _ = workloads.make("scenarios-full", 0, run.OUT)
    with tracing.Tracer() as tracer:
        result = wl.run_pass()
    assert all(s.error is None for s in result.solves), [s.error for s in result.solves]
    return tracing.solve_counts(tracer.spans)


def test_counts_repeat_across_processes_and_match_the_baseline():
    here = traced_counts()
    code = "import json, test_perfbench as t; print(json.dumps(t.traced_counts()))"
    proc = subprocess.run([sys.executable, "-c", code], cwd=HERE, capture_output=True,
                          text=True, timeout=170, check=True)
    assert json.loads(proc.stdout.splitlines()[-1]) == here
    got = {r["scenario"]: (r["cols"], r["rows"], r["binaries"], r["nodes"]) for r in here}
    assert got == BASELINE
    assert all(r["first_incumbent_node"] > 0 and r["verify_checks"] > 0 for r in here)


def test_tail_keeps_ten_samples_beyond_it():
    assert run.tail([float(i) for i in range(1, 151)]) == (140.0, 140 / 1.5, 10)
    assert run.tail([float(i) for i in range(1, 21)]) == (18.0, 90.0, 2)


def test_benchmark_json_names_what_the_run_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace, names", [(0, run.END_TO_END), (1, run.PER_LAYER)])
def test_last_line_reports_every_metric(trace, names):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-lambda", "--seed", "3",
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    out = json.loads(proc.stdout.splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= workloads.LAMBDA_POINTS
    assert {k: m["unit"] for k, m in out["metrics"].items()} == names


@pytest.mark.parametrize("pythonpath", [None, os.path.join(ROOT, "src")])
def test_refuses_to_run_without_the_program(tmp_path, pythonpath):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    if pythonpath:
        env["PYTHONPATH"] = pythonpath
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scenarios-full", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
