"""Command-line surface: validate cases, solve scenarios, compare, sweep.

Commands:

  validate   parse a case file and print its validation report
  solve      run one scenario; write solution JSON + schedule CSV
  scenarios  run the five bundled scenarios; write the comparison CSV
  sweep      re-solve along a carbon-price or tier-width grid; write the series CSV

Every artifact set is accompanied by a meta.json recording the case hash,
scenario, solver options, and code version.  Outputs are deterministic:
fixed six-decimal formatting, UTF-8, LF line endings, no timestamps.

Exit codes: 0 success, 1 usage error or unavailable backend, 2 validation
failure, 3 infeasible, 4 solver limit with no incumbent, numerical failure
of a HiGHS run or unverifiable result.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import asdict, replace

from . import __version__
from .dispatch import (
    BACKEND_NAMES,
    SCENARIO_IDS,
    DispatchOptions,
    DispatchSolution,
    ScenarioReport,
    ScenarioRow,
    _check_jobs,
    check_grid,
    run_all_scenarios,
    sweep_interval,
    sweep_lambda,
)
from .model_core import (
    CARRIERS,
    CaseError,
    case_hash,
    default_case_path,
    load_case,
    read_case,
    reduce_case,
    validate_case,
)
from .solver import BackendUnavailableError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_INFEASIBLE = 3
EXIT_LIMIT = 4

CASE_DIR_ENV = "IESDISPATCH_CASE_DIR"

REDUCED_FACTOR = 2
REDUCED_SEGMENTS = 4
MAX_GRID_POINTS = 10_000  # one solve per point


class UsageError(Exception):
    pass


def _resolve_case(name: str) -> str:
    """Map a --case argument to a file path.

    Accepts an existing path, the literal "default" for the bundled case,
    or a bare case name looked up (with .json appended) in the directory
    named by the IESDISPATCH_CASE_DIR environment variable.
    """
    if name == "default":
        return default_case_path()
    if os.path.exists(name):
        return name
    base = os.environ.get(CASE_DIR_ENV)
    if base:
        candidate = os.path.join(base, name if name.endswith(".json") else name + ".json")
        if os.path.exists(candidate):
            return candidate
    raise UsageError(f"case {name!r} not found (set {CASE_DIR_ENV} or pass a path)")


def _fmt(v: float) -> str:
    v = float(v)
    if abs(v) < 5e-7:
        v = 0.0
    return f"{v:.6f}"


def _round(v):
    if isinstance(v, float):
        out = round(v, 6)
        return 0.0 if out == 0 else out
    if isinstance(v, dict):
        return {k: _round(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_round(x) for x in v]
    return v


def _write_text(path: str, text: str):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _write_csv(path: str, header: list[str], rows: list[list[str]]):
    lines = [",".join(header)] + [",".join(r) for r in rows]
    _write_text(path, "\n".join(lines) + "\n")


def _write_json(path: str, doc: dict):
    _write_text(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _write_meta(out_dir: str, case_path: str, case, scenario, options: DispatchOptions, extra=None):
    doc = {
        "case_hash": case_hash(case),
        "case_file": os.path.basename(case_path),
        "scenario": scenario,
        "solver_options": _round(asdict(options)),
        "version": __version__,
    }
    if extra:
        doc.update(extra)
    _write_json(os.path.join(out_dir, "meta.json"), doc)


def _schedule_rows(sol: DispatchSolution) -> tuple[list[str], list[list[str]]]:
    header = ["t", "p_e_buy", "p_g_buy", "p_dg", "p_gt_e", "p_gt_h", "p_gb_h", "p_p2g_g"]
    for k in CARRIERS:
        header += [f"st_{k}_charge", f"st_{k}_discharge", f"st_{k}_soc"]
    for k in CARRIERS:
        header.append(f"dp_shift_{k}")
    for k in CARRIERS:
        header.append(f"dp_subst_{k}")
    zero = (0.0,) * sol.periods
    rows = []
    for t in range(sol.periods):
        row = [str(t)] + [
            _fmt(v[t])
            for v in (sol.p_e_buy, sol.p_g_buy, sol.p_dg, sol.p_gt_e, sol.p_gt_h,
                      sol.p_gb_h, sol.p_p2g_g)
        ]
        for k in CARRIERS:
            st = sol.storage.get(k)
            ch, dis, soc = (st.charge, st.discharge, st.soc) if st else (zero, zero, zero)
            row += [_fmt(ch[t]), _fmt(dis[t]), _fmt(soc[t])]
        for dtype in ("shift", "substitute"):
            for k in CARRIERS:
                series = sol.dr_delta.get(k, {}).get(dtype, zero)
                row.append(_fmt(series[t]))
        rows.append(row)
    return header, rows


def _solution_doc(sol: DispatchSolution) -> dict:
    account = sol.emission
    doc = {
        "scenario": sol.scenario_id,
        "status": sol.status,
        "objective": sol.objective,
        "bound": sol.bound,
        "gap": sol.gap,
        "nodes": sol.nodes,
        "costs": {
            "purchase": sol.costs.purchase,
            "carbon_trading": sol.costs.carbon,
            "dr_compensation": sol.costs.dr,
            "maintenance": sol.costs.maintenance,
            "total": sol.costs.total,
        },
        "emissions": {
            "actual_kg": account.actual.total,
            "quota_kg": account.quota.total,
            "trading_share_kg": account.trading_share,
            "actual_parts": {
                "purchased_power": account.actual.e_buy,
                "gas_units": account.actual.gtgb,
                "gas_load": account.actual.g_load,
                "p2g_capture": account.actual.p2g,
            },
            "quota_parts": {
                "purchased_power": account.quota.e_buy,
                "chp": account.quota.gt,
                "boiler": account.quota.gb,
                "gas_load": account.quota.g_load,
            },
        },
        "satisfaction": sol.satisfaction,
        "linearization": {
            "segments": sol.pwl_segments,
            "surrogate_actual_kg": sol.surrogate_actual_kg,
            "surrogate_carbon_cost": sol.surrogate_carbon_cost,
            "error_bound_kg": sol.pwl_bound_kg,
        },
        "verification": {
            "passed": sol.verification.passed if sol.verification else None,
            "checks": len(sol.verification.checks) if sol.verification else 0,
        },
    }
    return _round(doc)


SCENARIO_COLUMNS = [
    "scenario",
    "purchase_cost",
    "carbon_trading_cost",
    "dr_compensation",
    "maintenance_cost",
    "total_cost",
    "actual_emissions_kg",
]


def _scenario_csv(report: ScenarioReport) -> tuple[list[str], list[list[str]]]:
    rows = []
    for r in report.rows:
        if r.total_cost is None:
            rows.append([r.scenario_id, r.status, "", "", "", "", ""])
            continue
        rows.append([
            r.scenario_id,
            _fmt(r.purchase_cost),
            _fmt(r.carbon_cost),
            _fmt(r.dr_compensation),
            _fmt(r.maintenance_cost),
            _fmt(r.total_cost),
            _fmt(r.emissions_kg),
        ])
    return SCENARIO_COLUMNS, rows


def _parse_grid(text: str) -> list[float]:
    """Parse "start:stop:step" (inclusive) or a comma-separated list into a valid sweep grid."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise UsageError(f"grid {text!r}: expected start:stop:step")
        try:
            start, stop, step = (float(p) for p in parts)
        except ValueError:
            raise UsageError(f"grid {text!r}: non-numeric bound") from None
        if not all(map(math.isfinite, (start, stop, step))):
            raise UsageError(f"grid {text!r}: non-finite bound")
        if step <= 0 or stop < start:
            raise UsageError(f"grid {text!r}: need stop >= start and step > 0")
        # counted as a float before any list is built; an overflow to inf fails too
        if not (stop - start) / step + 1 <= MAX_GRID_POINTS:
            raise UsageError(f"grid {text!r}: more than {MAX_GRID_POINTS} points")
        count = int(round((stop - start) / step))
        # relative to the grid's own scale, so a span of 1e-12 is held to the same test as one of 1
        if abs(start + count * step - stop) > 1e-9 * max(abs(start), abs(stop)):
            raise UsageError(f"grid {text!r}: step does not divide the span")
        # each value snapped to 12 significant digits: 0.1 + 4 * 0.05 gives 0.3, and 1e-11 stays 1e-11
        values = [float(f"{start + i * step:.12g}") for i in range(count + 1)]
    else:
        try:
            values = [float(p) for p in text.split(",") if p.strip()]
        except ValueError:
            raise UsageError(f"grid {text!r}: non-numeric entry") from None
    try:
        return check_grid(values)
    except ValueError as exc:
        raise UsageError(f"grid {text!r}: {exc}") from None


def _options_from_args(args) -> DispatchOptions:
    try:
        # --jobs is no options field, and a bad value must fail before the output directory is made
        _check_jobs(getattr(args, "jobs", 1))
    except ValueError as exc:
        raise UsageError(f"--{exc}") from None  # "--jobs 0: need at least 1 job"
    try:
        # --segments is checked even when --reduced replaces it: a bad flag is an error
        options = DispatchOptions(pwl_segments=args.segments, gap_tol=args.gap,
                                  node_limit=args.node_limit, time_limit=args.time_limit,
                                  backend=args.backend)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    return replace(options, pwl_segments=REDUCED_SEGMENTS) if args.reduced else options


def _make_out_dir(path: str) -> None:
    """Make the output directory; a path that cannot be one is a usage error naming --out."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"--out {path!r}: cannot make the output directory: {exc.strerror or exc}") from None


def _load(args):
    path = _resolve_case(args.case)
    case = load_case(path)
    if args.reduced:
        try:
            case = reduce_case(case, REDUCED_FACTOR)
        except ValueError as exc:
            raise UsageError(f"--reduced: {exc}") from None
    return path, case


def _exit_code(rows: list[ScenarioRow]) -> int:
    """0 when no row failed, 3 when every failed row is infeasible, 4 otherwise."""
    statuses = {r.status for r in rows if r.error is not None}
    if not statuses:
        return EXIT_OK
    return EXIT_INFEASIBLE if statuses == {"infeasible"} else EXIT_LIMIT


def _cmd_validate(args) -> int:
    path = _resolve_case(args.case)
    try:
        case = read_case(path)
    except CaseError as exc:
        print(f"INVALID {os.path.basename(path)}: {exc}")
        return EXIT_VALIDATION
    report = validate_case(case)
    for err in report.errors:
        print(f"error: {err}")
    for warn in report.warnings:
        print(f"warning: {warn}")
    if report.errors:
        return EXIT_VALIDATION
    print(f"OK {os.path.basename(path)} hash={case_hash(case)} "
          f"periods={case.horizon.periods} warnings={len(report.warnings)}")
    return EXIT_OK


def _cmd_solve(args) -> int:
    path, case = _load(args)
    options = _options_from_args(args)
    _make_out_dir(args.out)
    report = run_all_scenarios(case, options, scenario_ids=(args.scenario,))
    sol = report.solutions.get(args.scenario)
    if sol is None:
        print(f"FAIL {args.scenario}: {report.rows[0].error}", file=sys.stderr)
        return _exit_code(report.rows)
    _write_json(os.path.join(args.out, f"solution_{sol.scenario_id}.json"), _solution_doc(sol))
    header, rows = _schedule_rows(sol)
    _write_csv(os.path.join(args.out, f"schedule_{sol.scenario_id}.csv"), header, rows)
    _write_meta(args.out, path, case, sol.scenario_id, options)
    print(f"{sol.scenario_id}: status={sol.status} objective={_fmt(sol.objective)} "
          f"total={_fmt(sol.costs.total)} emissions={_fmt(sol.emission.actual.total)} "
          f"gap={sol.gap:.2e} nodes={sol.nodes} time={sol.wall_time:.2f}s")
    checks = len(sol.verification.checks)
    print(f"verification PASS ({checks} checks)")
    return EXIT_OK


def _cmd_scenarios(args) -> int:
    path, case = _load(args)
    options = _options_from_args(args)
    _make_out_dir(args.out)
    report = run_all_scenarios(case, options, jobs=args.jobs)
    header, rows = _scenario_csv(report)
    _write_csv(os.path.join(args.out, "scenarios.csv"), header, rows)
    pct_doc = {sid: _round(d) for sid, d in report.percentages.items()}
    _write_json(os.path.join(args.out, "scenarios_vs_S1.json"), pct_doc)
    _write_meta(args.out, path, case, list(SCENARIO_IDS), options)
    for r in report.rows:
        if r.error:
            print(f"{r.scenario_id}: {r.status} ({r.error})", file=sys.stderr)
        else:
            print(f"{r.scenario_id}: total={_fmt(r.total_cost)} emissions={_fmt(r.emissions_kg)} "
                  f"satisfaction={r.satisfaction:.4f}")
    return _exit_code(report.rows)


SWEEP_PARAMS = {"lambda": sweep_lambda, "d": sweep_interval}


def _cmd_sweep(args) -> int:
    path, case = _load(args)
    options = _options_from_args(args)
    grid = _parse_grid(args.grid)
    runner = SWEEP_PARAMS[args.param]
    _make_out_dir(args.out)
    points = runner(case, args.scenario, grid, options, jobs=args.jobs)
    header = [args.param, "status", "carbon_trading_cost", "actual_emissions_kg",
              "total_cost", "dr_compensation", "objective", "gap"]
    rows = []
    for p in points:
        if p.total_cost is None:
            rows.append([_fmt(p.value), p.status, "", "", "", "", "", ""])
            print(f"{args.param}={p.value:g}: {p.status} ({p.error})", file=sys.stderr)
        else:
            rows.append([
                _fmt(p.value), p.status, _fmt(p.carbon_cost), _fmt(p.emissions_kg),
                _fmt(p.total_cost), _fmt(p.dr_compensation), _fmt(p.objective),
                f"{p.gap:.3e}",
            ])
    name = f"sweep_{args.param}_{args.scenario}.csv"
    _write_csv(os.path.join(args.out, name), header, rows)
    _write_meta(args.out, path, case, args.scenario, options,
                extra={"sweep_param": args.param, "grid": _round(grid)})
    print(f"wrote {name}: {len(points)} points")
    return _exit_code(points)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and reused: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="iesdispatch",
        description="Low-carbon dispatch for an electricity-gas-heat energy system.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, scenario_default=None):
        p.add_argument("--case", default="default",
                       help="case path, bare name under $%s, or 'default'" % CASE_DIR_ENV)
        p.add_argument("--out", "-o", default=".", help="output directory")
        p.add_argument("--gap", type=float, default=DispatchOptions.gap_tol,
                       help="relative optimality gap")
        p.add_argument("--segments", type=int, default=DispatchOptions.pwl_segments,
                       help="linearization segments per emission curve")
        p.add_argument("--node-limit", type=int, default=DispatchOptions.node_limit)
        p.add_argument("--time-limit", type=float, default=DispatchOptions.time_limit,
                       help="seconds per solve")
        p.add_argument("--backend", default=DispatchOptions.backend, choices=BACKEND_NAMES)
        p.add_argument("--reduced", action="store_true",
                       help="halve the horizon and use 4 segments")
        if scenario_default is not None:
            p.add_argument("--scenario", default=scenario_default, choices=SCENARIO_IDS)

    p_val = sub.add_parser("validate", help="check a case file")
    p_val.add_argument("--case", default="default")
    p_val.set_defaults(func=_cmd_validate)

    p_solve = sub.add_parser("solve", help="solve one scenario")
    common(p_solve, scenario_default="S3")
    p_solve.set_defaults(func=_cmd_solve)

    p_sc = sub.add_parser("scenarios", help="run the five-scenario comparison")
    common(p_sc)
    p_sc.add_argument("--jobs", type=int, default=1, help="parallel scenario solves")
    p_sc.set_defaults(func=_cmd_scenarios)

    p_sw = sub.add_parser("sweep", help="sensitivity series over a carbon parameter")
    common(p_sw, scenario_default="S5")
    p_sw.add_argument("--param", required=True, choices=sorted(SWEEP_PARAMS))
    p_sw.add_argument("--grid", required=True, help="start:stop:step or v1,v2,...")
    p_sw.add_argument("--jobs", type=int, default=1, help="parallel point solves")
    p_sw.set_defaults(func=_cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage problems; the contract here is 1
        if exc.code not in (0, None):
            print("hint: run 'iesdispatch --help' for usage", file=sys.stderr)
            return EXIT_USAGE
        return EXIT_OK
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        print("hint: run 'iesdispatch --help' for usage", file=sys.stderr)
        return EXIT_USAGE
    except CaseError as exc:
        print(f"case error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except BackendUnavailableError as exc:
        print(f"backend error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
