"""Spans around calls into the iesdispatch modules, for the traced benchmark run.

A ``Tracer`` replaces each public entry point named in ``TARGETS`` with a
wrapper that records a span (name, start, end, enclosing span, solve id)
and the counts its result carries.  Spans stay in memory; the benchmark
writes them out when it ends.  Nothing under ``src/`` changes: the wrappers
are installed on the module and class attributes for one traced pass and
removed afterwards.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field

from iesdispatch import cli, dispatch, model_core
from iesdispatch.milp_ir import MilpModel
from iesdispatch.solver.backends import ScipyMilpBackend


def _model_counts(result) -> dict:
    model, _vm = result
    return {
        "cols": model.num_variables,
        "rows": model.num_constraints,
        "binaries": len(model.binary_ids()),
        "nnz": sum(len(con.coeffs) for con in model.constraints),
    }


def _search_counts(sol) -> dict:
    """Node counts from ``MilpSolution``; the trace holds (nodes, bound, incumbent)."""
    incumbents = [(nodes, inc) for nodes, _bound, inc in sol.trace if math.isfinite(inc)]
    updates = sum(1 for i, (_n, inc) in enumerate(incumbents) if i == 0 or inc < incumbents[i - 1][1])
    counts = {
        "nodes": sol.nodes,
        "first_incumbent_node": incumbents[0][0] if incumbents else 0,
        "incumbent_updates": updates,
    }
    root_bound = sol.trace[0][1] if sol.trace else -math.inf
    if sol.objective is not None and math.isfinite(root_bound):
        counts["root_gap_rel"] = max(sol.objective - root_bound, 0.0) / max(1.0, abs(sol.objective))
    return counts


# (owner, attribute, span name, counts of the result).  A function imported
# into another module is wrapped under each name a call can go through.
TARGETS = (
    (model_core, "load_case", "model_core.load_case", None),
    (cli, "load_case", "model_core.load_case", None),
    (model_core, "validate_case", "model_core.validate_case", None),
    (model_core, "reduce_case", "model_core.reduce_case", None),
    (cli, "reduce_case", "model_core.reduce_case", None),
    (model_core, "scale_profiles", "model_core.scale_profiles", None),
    (dispatch, "run_scenario", "dispatch.run_scenario", lambda sol: {"scenario": sol.scenario_id}),
    (dispatch, "build_model", "dispatch.build_model", _model_counts),
    (MilpModel, "to_dense", "milp_ir.to_dense", None),
    (dispatch, "solve_milp", "branch_bound.solve_milp", _search_counts),
    (ScipyMilpBackend, "solve", "backends.scipy_milp", lambda sol: {"nodes": sol.nodes}),
    (dispatch, "verify_solution", "dispatch.verify_solution",
     lambda report: {"checks": len(report.checks)}),
    (cli, "main", "cli.main", None),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span
    solve: int | None  # id shared by the spans of one run_scenario call
    counts: dict = field(default_factory=dict)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._solves = 0
        self._saved: list[tuple] = []

    def __enter__(self) -> "Tracer":
        for owner, attr, name, counter in TARGETS:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, counter))
        return self

    def __exit__(self, *exc_info):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _wrap(self, name, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            if name == "dispatch.run_scenario":
                self._solves += 1
                solve = self._solves
            else:
                solve = self.spans[parent].solve if parent is not None else None
            span = Span(name, 0.0, 0.0, parent, solve)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                span.counts = counter(result)
            return result

        return traced


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    return own


def solve_counts(spans: list[Span]) -> list[dict]:
    """Per-solve deterministic counts, in solve order."""
    rows: dict[int, dict] = {}
    for s in spans:
        if s.solve is None:
            continue
        row = rows.setdefault(s.solve, {})
        if s.name == "dispatch.run_scenario":
            row["scenario"] = s.counts["scenario"]
        elif s.name == "dispatch.build_model":
            row.update(s.counts)
        elif s.name == "branch_bound.solve_milp":
            row.update({k: s.counts[k] for k in ("nodes", "first_incumbent_node")})
        elif s.name == "dispatch.verify_solution":
            row["verify_checks"] = s.counts["checks"]
    return [rows[k] for k in sorted(rows)]


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer totals over the spans of one pass.

    Times are self times, so the layers do not count each other's work:
    ``branch_bound.solve_s`` excludes ``to_dense``, ``dispatch.extract_s`` is
    what ``run_scenario`` spends outside build, solve and verify, and
    ``cli.overhead_s`` is ``cli.main`` minus every span under it.
    """
    own = self_times(spans)
    time_of: dict[str, float] = {}
    count_of: dict[str, float] = {}
    root_gap = 0.0
    for s, t in zip(spans, own):
        time_of[s.name] = time_of.get(s.name, 0.0) + t
        for key, value in s.counts.items():
            if key == "root_gap_rel":
                root_gap = max(root_gap, value)
            elif key != "scenario":
                tag = f"{s.name}.{key}"
                count_of[tag] = count_of.get(tag, 0) + value
    bb_s = time_of.get("branch_bound.solve_milp", 0.0)
    bb_nodes = count_of.get("branch_bound.solve_milp.nodes", 0)
    return {
        "branch_bound.solve_s": bb_s,
        "branch_bound.nodes": bb_nodes,
        "branch_bound.ms_per_node": 1000.0 * bb_s / bb_nodes if bb_nodes else 0.0,
        "branch_bound.first_incumbent_node": count_of.get("branch_bound.solve_milp.first_incumbent_node", 0),
        "branch_bound.incumbent_updates": count_of.get("branch_bound.solve_milp.incumbent_updates", 0),
        "branch_bound.root_gap_rel": root_gap,
        "milp_ir.cols": count_of.get("dispatch.build_model.cols", 0),
        "milp_ir.rows": count_of.get("dispatch.build_model.rows", 0),
        "milp_ir.binaries": count_of.get("dispatch.build_model.binaries", 0),
        "milp_ir.nnz": count_of.get("dispatch.build_model.nnz", 0),
        "milp_ir.to_dense_s": time_of.get("milp_ir.to_dense", 0.0),
        "dispatch.build_s": time_of.get("dispatch.build_model", 0.0),
        "dispatch.extract_s": time_of.get("dispatch.run_scenario", 0.0),
        "dispatch.verify_s": time_of.get("dispatch.verify_solution", 0.0),
        "dispatch.verify_checks": count_of.get("dispatch.verify_solution.checks", 0),
        "backends.scipy_milp_s": time_of.get("backends.scipy_milp", 0.0),
        "backends.scipy_milp_nodes": count_of.get("backends.scipy_milp.nodes", 0),
        "cli.overhead_s": time_of.get("cli.main", 0.0),
    }
