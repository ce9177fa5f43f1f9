"""Command-line interface: exit codes, artifacts, determinism."""

import contextlib
import copy
import csv
import io
import json
import os
import shlex
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from highs_spy import per_run
from iesdispatch import cli
from iesdispatch.dispatch import MAX_PWL_SEGMENTS, DispatchOptions
from iesdispatch.model_core import case_to_dict, default_case_path, load_case
from iesdispatch.solver import NumericalFailure, branch_bound


def run_cli(*argv) -> int:
    return cli.main(list(argv))


@pytest.fixture()
def bad_heat_case(tmp_path) -> str:
    doc = case_to_dict(load_case(default_case_path()))
    doc["loads"]["heat"] = [5000.0] * 24
    path = tmp_path / "hot.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


@pytest.fixture()
def negative_shift_case(tmp_path) -> str:
    doc = case_to_dict(load_case(default_case_path()))
    doc["dr"]["shift_bounds"] = {"electric": [-50, -10]}
    path = tmp_path / "negative_shift.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


@pytest.fixture()
def invalid_case(tmp_path) -> str:
    doc = case_to_dict(load_case(default_case_path()))
    doc["converters"][1]["capacity_kw"] = -1.0
    path = tmp_path / "invalid.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


# -- grid parsing ------------------------------------------------------------------


def test_parse_grid_range_inclusive():
    grid = cli._parse_grid("0.1:0.6:0.05")
    assert len(grid) == 11
    assert grid[0] == pytest.approx(0.1)
    assert grid[-1] == pytest.approx(0.6)


@pytest.mark.parametrize(
    "text,values",
    [
        ("0.1:0.6:0.05", [0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5, 0.55, 0.6]),
        ("1000:4000:250", [1000.0 + 250.0 * i for i in range(13)]),
        # small values keep their digits instead of rounding to 0
        ("1e-11:3e-11:1e-11", [1e-11, 2e-11, 3e-11]),
        ("1e-300:1e-300:1", [1e-300]),
    ],
)
def test_parse_grid_range_values(text, values):
    # each value is the shortest decimal that the range's arithmetic rounds to, bit for bit
    assert [v.hex() for v in cli._parse_grid(text)] == [v.hex() for v in values]


def test_parse_grid_comma_list():
    assert cli._parse_grid("1,2,3.5") == [1.0, 2.0, 3.5]


@pytest.mark.parametrize(
    "text,message",
    [
        ("0.1:0.6:0.07", "does not divide"),
        ("0.3:0.1:0.1", "need stop >= start"),
        ("abc", "non-numeric"),
        ("", "empty"),
        ("0,0.1", "positive"),
        ("0.3,0.2", "strictly increasing"),
        ("0.1:0.6:1e-6", "more than 10000 points"),
        # 4.5 steps: the divisibility test is relative to the grid's own scale
        ("1e-12:5.5e-12:1e-12", "does not divide"),
    ],
)
def test_parse_grid_rejects(text, message):
    with pytest.raises(cli.UsageError, match=message):
        cli._parse_grid(text)


# -- validate ----------------------------------------------------------------------


def test_validate_default_ok(capsys):
    assert run_cli("validate", "--case", "default") == cli.EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("OK")
    assert "hash=" in out


def test_validate_invalid_exit_2(capsys, invalid_case):
    assert run_cli("validate", "--case", invalid_case) == cli.EXIT_VALIDATION
    out = capsys.readouterr().out
    assert "capacity_kw" in out


def test_negative_shift_max_exit_2(tmp_path, capsys, negative_shift_case):
    assert run_cli("validate", "--case", negative_shift_case) == cli.EXIT_VALIDATION
    rc = run_cli("solve", "--case", negative_shift_case, "--scenario", "S5", "--reduced",
                 "--out", str(tmp_path / "out"))
    assert rc == cli.EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out.count("dr.shift_bounds.electric: max must be >= 0") == 1
    # the locator once, as validate prints it
    assert captured.err.count("dr.shift_bounds.electric") == 1
    assert "case error: dr.shift_bounds.electric: max must be >= 0" in captured.err
    assert "Traceback" not in captured.out + captured.err


def test_non_finite_case_number_exit_2(tmp_path, capsys):
    doc = case_to_dict(load_case(default_case_path()))
    doc["carbon"]["lambda_base"] = float("nan")
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert '"lambda_base": NaN' in path.read_text(encoding="utf-8")
    assert run_cli("validate", "--case", str(path)) == cli.EXIT_VALIDATION
    out = tmp_path / "out"
    rc = run_cli("solve", "--case", str(path), "--scenario", "S5", "--reduced", "--out", str(out))
    assert rc == cli.EXIT_VALIDATION
    captured = capsys.readouterr()
    assert "INVALID nan.json: carbon.lambda_base: expected a finite number, got nan" in captured.out
    assert "case error: carbon.lambda_base: expected a finite number, got nan" in captured.err
    assert not out.exists()


def test_validate_unreadable_file_exit_2(tmp_path, capsys):
    junk = tmp_path / "junk.json"
    junk.write_text("{not json", encoding="utf-8")
    assert run_cli("validate", "--case", str(junk)) == cli.EXIT_VALIDATION
    captured = capsys.readouterr()
    assert "invalid" in (captured.out + captured.err).lower()


def _directory_case(tmp_path):
    path = tmp_path / "case.json"
    path.mkdir()
    return path


def _non_utf8_case(tmp_path):
    path = tmp_path / "case.json"
    path.write_bytes(b'{"horizon": "\xff\xfe"}')
    return path


@pytest.mark.parametrize("command", ["validate", "solve"])
@pytest.mark.parametrize("make_case", [_directory_case, _non_utf8_case], ids=["directory", "non-utf8"])
def test_unreadable_case_file_exit_2(command, make_case, tmp_path, capsys):
    argv = [command, "--case", str(make_case(tmp_path))]
    if command == "solve":
        argv += ["--out", str(tmp_path / "out")]
    assert run_cli(*argv) == cli.EXIT_VALIDATION
    captured = capsys.readouterr()
    assert "case.json" in captured.out + captured.err


@pytest.mark.parametrize("command", ["validate", "solve"])
@pytest.mark.parametrize(
    "section, value",
    [("horizon", 5), ("carbon", 3), ("converters", [{"name": ["GT"]}])],
    ids=["horizon-number", "carbon-number", "converter-name-array"],
)
def test_malformed_case_exit_2(command, section, value, tmp_path, capsys):
    doc = case_to_dict(load_case(default_case_path()))
    doc[section] = value
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    argv = [command, "--case", str(path)]
    if command == "solve":
        argv += ["--out", str(tmp_path / "out")]
    assert run_cli(*argv) == cli.EXIT_VALIDATION
    captured = capsys.readouterr()
    assert section in captured.out + captured.err
    assert "Traceback" not in captured.out + captured.err


# -- solve -------------------------------------------------------------------------


def test_solve_writes_artifacts(tmp_path, capsys):
    out = tmp_path / "run"
    assert run_cli("solve", "--reduced", "--out", str(out)) == cli.EXIT_OK
    stdout = capsys.readouterr().out
    assert "verification PASS" in stdout

    names = sorted(p.name for p in out.iterdir())
    assert names == ["meta.json", "schedule_S3.csv", "solution_S3.json"]

    meta = json.loads((out / "meta.json").read_text(encoding="utf-8"))
    assert set(meta) == {"case_file", "case_hash", "scenario", "solver_options", "version"}
    assert meta["scenario"] == "S3"
    assert meta["solver_options"] == {
        "backend": "embedded", "gap_tol": 0.0001, "node_limit": 200000,
        "pwl_segments": 4, "time_limit": None,
    }

    doc = json.loads((out / "solution_S3.json").read_text(encoding="utf-8"))
    assert doc["status"] == "optimal"
    assert doc["verification"]["passed"] is True
    assert doc["costs"]["total"] > 0

    with (out / "schedule_S3.csv").open(encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    assert header[0] == "t"
    for col in ("p_e_buy", "p_dg", "p_gt_e", "st_electric_soc", "dp_shift_electric"):
        assert col in header
    assert len(rows) == 1 + 12  # reduced horizon


def test_solve_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli("solve", "--reduced", "--out", str(a)) == cli.EXIT_OK
    assert run_cli("solve", "--reduced", "--out", str(b)) == cli.EXIT_OK
    for name in ("solution_S3.json", "schedule_S3.csv", "meta.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_solve_backend_flag(tmp_path):
    out = tmp_path / "bk"
    rc = run_cli("solve", "--reduced", "--backend", "scipy-milp", "--out", str(out))
    assert rc == cli.EXIT_OK
    doc = json.loads((out / "solution_S3.json").read_text(encoding="utf-8"))
    assert doc["status"] == "optimal"
    assert doc["verification"]["passed"] is True


def test_solve_scenario_flag(tmp_path):
    out = tmp_path / "s5"
    assert run_cli("solve", "--scenario", "S5", "--reduced", "--out", str(out)) == cli.EXIT_OK
    assert (out / "solution_S5.json").exists()
    doc = json.loads((out / "solution_S5.json").read_text(encoding="utf-8"))
    assert doc["scenario"] == "S5"
    assert doc["costs"]["dr_compensation"] > 0


def test_solve_infeasible_exit_3(tmp_path, bad_heat_case, capsys):
    rc = run_cli("solve", "--case", bad_heat_case, "--reduced", "--out", str(tmp_path / "x"))
    assert rc == cli.EXIT_INFEASIBLE
    captured = capsys.readouterr()
    assert "balance_heat_t00: needs 5000.0 but its columns reach" in captured.out + captured.err


def test_load_only_a_forced_off_gt_could_serve_exit_3(tmp_path, capsys):
    # the corridor holds the GT at 0 kW of gas, so the electric balance row reaches none
    # of its output and the build refuses a load above what the grid, wind and store can give
    doc = case_to_dict(load_case(default_case_path()))
    doc["chp"].update(ratio_min=1.0, ratio_max=2.0)
    sto = next(sto for sto in doc["storages"] if sto["carrier"] == "electric")
    others = doc["purchase_caps"][0] + min(doc["wind"]["profile"][0], doc["wind"]["max_kw"])
    doc["loads"]["electric"][0] = others + sto["power_limit_fraction"] * sto["capacity_kwh"] + 50.0
    path = tmp_path / "gt_off_load.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert run_cli("solve", "--case", str(path), "--scenario", "S1", "--out", str(tmp_path / "x")) == cli.EXIT_INFEASIBLE
    captured = capsys.readouterr()
    assert "FAIL S1: balance_electric_t00: needs " in captured.err, captured.err
    assert "Traceback" not in captured.out + captured.err


@pytest.mark.parametrize("edit", [
    lambda doc, gt: doc["chp"].update(ratio_min=1.0, ratio_max=2.0),
    lambda doc, gt: gt["efficiencies"].pop("electric"),
], ids=["corridor", "no-electric"])
def test_gt_forced_off_below_its_minimum_output_exit_3(edit, tmp_path, capsys):
    # a fixed heat-to-power ratio outside the corridor holds the GT at 0 kW of gas
    doc = case_to_dict(load_case(default_case_path()))
    gt = next(conv for conv in doc["converters"] if conv["name"] == "GT")
    gt["min_output_kw"] = 100.0
    edit(doc, gt)
    path = tmp_path / "gt_off.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert run_cli("solve", "--case", str(path), "--scenario", "S5", "--out", str(tmp_path / "x")) == cli.EXIT_INFEASIBLE
    captured = capsys.readouterr()
    assert "FAIL S5: chp_ratio: " in captured.err and "min_output_kw is 100 kW" in captured.err
    assert "Traceback" not in captured.out + captured.err


@pytest.mark.parametrize("backend", ["embedded", "scipy-milp"])
def test_solve_time_limit_exit_4(backend, tmp_path, capsys):
    rc = run_cli("solve", "--reduced", "--time-limit", "1e-9", "--backend", backend,
                 "--out", str(tmp_path / "tl"))
    assert rc == cli.EXIT_LIMIT
    assert "solver status 'limit'" in capsys.readouterr().err


def test_lp_core_failure_exit_4(tmp_path, monkeypatch, capsys):
    def failing_solve(self, model, options):
        raise NumericalFailure("LP core failed: injected")

    monkeypatch.setattr(branch_bound._ScipyCore, "solve", failing_solve)
    rc = run_cli("solve", "--reduced", "--out", str(tmp_path / "nf"))
    assert rc == cli.EXIT_LIMIT
    assert capsys.readouterr().err == (
        "FAIL S3: scenario S3: solver status 'numerical_failure' (LP core failed: injected)\n")


# -- scenarios ----------------------------------------------------------------------


def test_scenarios_artifacts(tmp_path, capsys):
    out = tmp_path / "cmp"
    assert run_cli("scenarios", "--reduced", "--out", str(out), "--jobs", "2") == cli.EXIT_OK
    with (out / "scenarios.csv").open(encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == cli.SCENARIO_COLUMNS
    assert [r[0] for r in rows[1:]] == ["S1", "S2", "S3", "S4", "S5"]
    vs = json.loads((out / "scenarios_vs_S1.json").read_text(encoding="utf-8"))
    assert set(vs) == {"S2", "S3", "S4", "S5"}
    assert {"cost_drop_pct", "emission_drop_pct"} <= set(vs["S5"])
    stdout = capsys.readouterr().out
    assert stdout.count("total=") == 5


def test_scenarios_infeasible_exit_3(tmp_path, bad_heat_case):
    rc = run_cli("scenarios", "--case", bad_heat_case, "--reduced", "--out", str(tmp_path / "y"))
    assert rc == cli.EXIT_INFEASIBLE


# -- sweep --------------------------------------------------------------------------


def test_sweep_lambda_csv(tmp_path):
    out = tmp_path / "sw"
    rc = run_cli(
        "sweep", "--param", "lambda", "--grid", "0.2,0.3", "--reduced",
        "--scenario", "S3", "--out", str(out),
    )
    assert rc == cli.EXIT_OK
    with (out / "sweep_lambda_S3.csv").open(encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "lambda"
    assert {"carbon_trading_cost", "actual_emissions_kg", "total_cost"} <= set(rows[0])
    assert len(rows) == 3
    assert [r[1] for r in rows[1:]] == ["optimal", "optimal"]


def test_sweep_interval_csv(tmp_path):
    out = tmp_path / "swd"
    rc = run_cli(
        "sweep", "--param", "d", "--grid", "1500,2500", "--reduced",
        "--scenario", "S5", "--out", str(out),
    )
    assert rc == cli.EXIT_OK
    files = sorted(p.name for p in out.iterdir())
    assert "sweep_d_S5.csv" in files


def test_sweep_infeasible_exit_3(tmp_path, bad_heat_case, capsys):
    # every point's build refuses its heat balance row, as solve and scenarios do
    rc = run_cli("sweep", "--param", "lambda", "--grid", "0.2,0.3", "--case", bad_heat_case,
                 "--reduced", "--out", str(tmp_path / "z"))
    assert rc == cli.EXIT_INFEASIBLE
    with (tmp_path / "z" / "sweep_lambda_S5.csv").open(encoding="utf-8") as fh:
        assert [r[1] for r in list(csv.reader(fh))[1:]] == ["infeasible", "infeasible"]
    assert capsys.readouterr().err.count("balance_heat_t00: needs 5000.0 but its columns reach") == 2


SWEEP_ARGV = ("sweep", "--param", "lambda", "--grid", "0.2:0.5:0.1", "--reduced", "--scenario", "S5")


def test_sweep_point_lp_core_failure_is_its_row(tmp_path, monkeypatch, capsys, highs_calls):
    # the third point's LP core fails: that row records it, the chain drops
    # its core, the next point starts cold on a new one, and the exit is 4
    solve, calls = branch_bound._ScipyCore.solve, []

    def third_fails(self, model, options):
        calls.append(self)  # holds each core, so none is collected and replaced
        if len(calls) == 3:
            raise NumericalFailure("LP core failed: injected")
        return solve(self, model, options)

    monkeypatch.setattr(branch_bound._ScipyCore, "solve", third_fails)
    out = tmp_path / "nf"
    assert run_cli(*SWEEP_ARGV, "--out", str(out)) == cli.EXIT_LIMIT
    with (out / "sweep_lambda_S5.csv").open(encoding="utf-8") as fh:
        statuses = [r[1] for r in list(csv.reader(fh))[1:]]
    assert statuses == ["optimal", "optimal", "numerical_failure", "optimal"]
    assert capsys.readouterr().err == ("lambda=0.4: numerical_failure (scenario S5: solver status "
                                       "'numerical_failure' (LP core failed: injected))\n")
    # the third point raises before its run: of four points, three run
    assert ["clearSolver" in run for run in per_run(highs_calls)] == [True, False, True]
    assert calls[0] is calls[2] and calls[3] is not calls[2]


def test_sweep_reruns_are_byte_identical(tmp_path):
    d_argv = ("sweep", "--param", "d", "--grid", "1000:4000:1000", "--reduced", "--scenario", "S5")
    for param, argv in (("lambda", SWEEP_ARGV), ("d", d_argv)):
        runs = [tmp_path / f"{param}-a", tmp_path / f"{param}-b"]
        for out in runs:
            assert run_cli(*argv, "--out", str(out)) == cli.EXIT_OK
        for name in (f"sweep_{param}_S5.csv", "meta.json"):
            assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes(), (param, name)


def test_one_parser_serves_every_call_in_a_process(tmp_path):
    # a usage error and then a sweep in one process: the parser is built on
    # first use only, and the sweep writes what a fresh process writes
    cli._build_parser.cache_clear()
    here, fresh = tmp_path / "here", tmp_path / "fresh"
    assert run_cli(*SWEEP_ARGV, "--bogus", "--out", str(here)) == cli.EXIT_USAGE
    assert run_cli(*SWEEP_ARGV, "--out", str(here)) == cli.EXIT_OK
    assert cli._build_parser.cache_info().misses == 1
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-m", "iesdispatch.cli", *SWEEP_ARGV, "--out", str(fresh)],
                          env=env, capture_output=True, text=True, check=False)
    assert proc.returncode == cli.EXIT_OK, proc.stderr
    names = sorted(p.name for p in fresh.iterdir())
    assert names == sorted(p.name for p in here.iterdir()) and "sweep_lambda_S5.csv" in names
    for name in names:
        assert (here / name).read_bytes() == (fresh / name).read_bytes(), name


def test_sweep_jobs_match_serial_objectives(tmp_path):
    objectives = []
    for jobs in ("1", "2"):
        out = tmp_path / jobs
        assert run_cli(*SWEEP_ARGV, "--jobs", jobs, "--out", str(out)) == cli.EXIT_OK
        with (out / "sweep_lambda_S5.csv").open(encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        col = rows[0].index("objective")
        objectives.append([float(r[col]) for r in rows[1:]])
    serial, parallel = objectives
    assert len(serial) == len(parallel) == 4
    gap_tol = DispatchOptions.gap_tol
    for a, b in zip(serial, parallel):
        assert abs(a - b) <= gap_tol * max(1.0, abs(a), abs(b)) + 1e-6, (a, b)  # CSV keeps six decimals


# -- usage and lookup ----------------------------------------------------------------


def test_unknown_command_exit_1(capsys):
    assert run_cli("frobnicate") == cli.EXIT_USAGE
    capsys.readouterr()


def test_missing_case_exit_1(tmp_path, capsys):
    rc = run_cli("solve", "--case", "/nowhere/else.json", "--out", str(tmp_path))
    assert rc == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert "not found" in captured.out + captured.err


def test_bad_grid_exit_1(tmp_path, capsys):
    for grid in ("0.3:0.1:0.1", "0,0.1", "0.3,0.2", "0.1:inf:0.1", "0.1:nan:0.1", "0.1,inf", "nan,1",
                 "0.1:0.6:1e-6"):
        rc = run_cli("sweep", "--param", "lambda", "--grid", grid, "--reduced", "--out", str(tmp_path))
        assert rc == cli.EXIT_USAGE, grid
        assert f"usage error: grid {grid!r}" in capsys.readouterr().err


def test_reduced_odd_horizon_exit_1(tmp_path, capsys):
    doc = case_to_dict(load_case(default_case_path()))
    doc["horizon"]["periods"] = 23
    for series in (*doc["loads"].values(), doc["wind"]["profile"], *doc["tariffs"].values()):
        del series[23:]
    path = tmp_path / "odd.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert run_cli("validate", "--case", str(path)) == cli.EXIT_OK
    out = tmp_path / "out"
    assert run_cli("solve", "--case", str(path), "--reduced", "--out", str(out)) == cli.EXIT_USAGE
    assert "usage error: --reduced: factor 2 does not divide 23 periods" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["solve", "scenarios"])
def test_unavailable_backend_exit_1(command, tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("IESDISPATCH_EXTERNAL_SOLVER", raising=False)
    rc = run_cli(command, "--reduced", "--backend", "external", "--out", str(tmp_path))
    assert rc == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert "backend error:" in err
    assert "IESDISPATCH_EXTERNAL_SOLVER is not set" in err


def test_unknown_external_status_exit_1(tmp_path, monkeypatch, capsys):
    # a stand-in solver that exits 0 with a status outside the five the file format allows
    stub = tmp_path / "stub.py"
    stub.write_text('import sys\n\nopen(sys.argv[2], "w").write("status=banana\\n")\n', encoding="utf-8")
    monkeypatch.setenv("IESDISPATCH_EXTERNAL_SOLVER", " ".join(map(shlex.quote, (sys.executable, str(stub)))))
    out = tmp_path / "out"
    rc = run_cli("solve", "--reduced", "--backend", "external", "--out", str(out))
    assert rc == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert "backend error:" in err and "unreadable solution file: status 'banana'" in err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("command", ["solve", "scenarios", "sweep"])
def test_out_naming_a_file_exit_1(command, tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("keep", encoding="utf-8")
    argv = [command, "--reduced", "--out", str(taken)]
    if command == "sweep":
        argv += ["--param", "lambda", "--grid", "0.3"]
    assert run_cli(*argv) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert f"usage error: --out {str(taken)!r}: cannot make the output directory" in err
    assert "Traceback" not in err
    assert taken.read_text(encoding="utf-8") == "keep"


SEGMENT_ERRORS = {"0": "need at least 1 segment", "100000000": f"need at most {MAX_PWL_SEGMENTS} segments"}


@pytest.mark.parametrize(
    "command, extra, segments",
    [("solve", [], "0"), ("scenarios", [], "0"), ("solve", ["--reduced"], "0"),
     ("scenarios", ["--reduced"], "0"), ("solve", [], "100000000")],
    ids=["solve", "scenarios", "solve-reduced", "scenarios-reduced", "solve-huge"],
)
def test_segments_below_one_exit_1(command, extra, segments, tmp_path, capsys):
    # --reduced replaces the segment count, but the bad flag is still an
    # error; a count too large to build is refused before any model is
    out = tmp_path / "out"
    rc = run_cli(command, "--segments", segments, *extra, "--out", str(out))
    assert rc == cli.EXIT_USAGE
    assert f"usage error: pwl_segments {segments}: {SEGMENT_ERRORS[segments]}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["solve", "--gap", "-1"], "gap_tol -1.0: need a finite gap >= 0"),
        (["scenarios", "--gap", "nan"], "gap_tol nan"),
        (["sweep", "--gap", "inf"], "gap_tol inf"),
        (["solve", "--node-limit", "-5"], "node_limit -5: need at least 1 node"),
        (["scenarios", "--time-limit", "-1"], "time_limit -1.0: need None or a limit > 0 seconds"),
        (["sweep", "--time-limit", "nan"], "time_limit nan"),
        (["scenarios", "--jobs", "0"], "--jobs 0"),
        (["sweep", "--jobs", "0"], "--jobs 0"),
    ],
    ids=["gap-negative", "gap-nan", "gap-inf", "node-limit", "time-limit",
         "time-limit-nan", "jobs-scenarios", "jobs-sweep"],
)
def test_invalid_solver_option_exit_1(argv, message, tmp_path, capsys):
    out = tmp_path / "out"
    if argv[0] == "sweep":
        argv = argv + ["--param", "lambda", "--grid", "0.3"]
    rc = run_cli(*argv, "--reduced", "--out", str(out))
    assert rc == cli.EXIT_USAGE
    assert f"usage error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_case_dir_env_lookup(tmp_path, monkeypatch, capsys):
    shutil.copy(default_case_path(), tmp_path / "mycase.json")
    monkeypatch.setenv(cli.CASE_DIR_ENV, str(tmp_path))
    assert run_cli("validate", "--case", "mycase.json") == cli.EXIT_OK
    assert "OK" in capsys.readouterr().out


# -- the exit-code contract under case-file mutations ---------------------------------

FUZZ_VALUES = (0, -1, 1e300, -1e300, 1e-300, "x", None, True, [], {}, 24.5)
BUNDLED_DOC = case_to_dict(load_case(default_case_path()))


def _leaf_paths(value, path=()):
    """Each scalar of a JSON document, each list as a whole and the first entry of a list of scalars."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _leaf_paths(item, (*path, key))
    elif isinstance(value, list):
        yield path
        for i, item in enumerate(value if value and isinstance(value[0], dict) else value[:1]):
            yield from _leaf_paths(item, (*path, i))
    else:
        yield path


LEAF_PATHS = list(_leaf_paths(BUNDLED_DOC))
_GT = [conv["name"] for conv in BUNDLED_DOC["converters"]].index("GT")
# the CHP corridor, the GT's efficiencies and its minimum output, which decide the GT's bounds
CHP_PATHS = [p for p in LEAF_PATHS if p[0] == "chp" or p[:2] == ("converters", _GT)
             and p[2] in ("efficiencies", "min_output_kw")]


def _set(doc, path, value) -> None:
    """Set the leaf at ``path``; an earlier edit may have replaced a container on it, which leaves it out."""
    *parents, last = path
    with contextlib.suppress(KeyError, IndexError, TypeError):
        for key in parents:
            doc = doc[key]
        doc[last] = value


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
# a corridor above the GT's fixed ratio holds it off, below its minimum output: exit 3
@example(extraction=False, edits=[(("chp", "ratio_min"), 24.5), (("chp", "ratio_max"), 1e300),
                                  (("converters", _GT, "min_output_kw"), 24.5)])
# the same corridor as extraction-mode rows: HiGHS would refuse the 1e300 entry, exit 2
@example(extraction=True, edits=[(("chp", "ratio_min"), 24.5), (("chp", "ratio_max"), 1e300)])
@given(
    extraction=st.booleans(),
    edits=st.lists(st.tuples(st.one_of(st.sampled_from(CHP_PATHS), st.sampled_from(LEAF_PATHS)),
                             st.sampled_from(FUZZ_VALUES)), min_size=1, max_size=2),
)
def test_mutated_case_ends_in_a_documented_exit_code(extraction, edits):
    doc = copy.deepcopy(BUNDLED_DOC)
    doc["chp"]["extraction_mode"] = extraction
    for path, value in edits:
        _set(doc, path, value)
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        case = os.path.join(tmp, "case.json")
        with open(case, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(["solve", "--case", case, "--scenario", "S5", "--reduced", "--out", os.path.join(tmp, "out")])
    assert rc in (cli.EXIT_OK, cli.EXIT_USAGE, cli.EXIT_VALIDATION, cli.EXIT_INFEASIBLE, cli.EXIT_LIMIT), (edits, rc)
    assert "Traceback" not in out.getvalue() + err.getvalue(), edits
