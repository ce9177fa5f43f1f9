"""LP text format export for MilpModel.

The writer emits the CPLEX-style LP sections (Minimize / Subject To /
Bounds / Binaries / End) with deterministic ordering and %.17g numbers, so
identical models produce byte-identical files.  It feeds the external
solver backend.
"""

from __future__ import annotations

import re

from .milp_ir import INF, MilpModel

_NAME_OK = re.compile(r"[^A-Za-z0-9_]")


def _fmt(x: float) -> str:
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return format(x, ".17g")


def _legal_unique(names, prefix: str) -> list[str]:
    """LP-legal distinct names: ``[^A-Za-z0-9_]`` becomes ``_``, an empty name or a leading digit takes
    ``prefix``, and a name already given takes the suffix ``_i<index>`` until it is new."""
    out = []
    seen = set()
    for j, name in enumerate(names):
        name = _NAME_OK.sub("_", name)
        if not name or name[0].isdigit():
            name = prefix + name
        while name in seen:
            name = f"{name}_i{j}"
        seen.add(name)
        out.append(name)
    return out


def sanitized_names(model: MilpModel) -> list[str]:
    """LP-legal unique names, one per variable id."""
    return _legal_unique(model.column_names, "v_")


def _terms(coeffs: dict[int, float], names: list[str]) -> str:
    parts = []
    for vid in sorted(coeffs):
        c = coeffs[vid]
        sign = "-" if c < 0 else "+"
        parts.append(f"{sign} {_fmt(abs(c))} {names[vid]}")
    if not parts:
        return "0"
    joined = " ".join(parts)
    return joined[2:] if joined.startswith("+ ") else joined


def write_lp(model: MilpModel) -> str:
    """Serialize the model to LP-format text."""
    names = sanitized_names(model)
    c, k, _, _, _, lb, ub, is_binary = model.to_sparse()
    out = [f"\\ {model.name}", "Minimize"]
    obj = _terms({j: cost for j, cost in enumerate(c.tolist()) if cost != 0.0}, names)
    if k != 0.0:
        obj += f" {'-' if k < 0 else '+'} {_fmt(abs(k))}"
    out.append(f" obj: {obj}")
    out.append("Subject To")
    constraints = model.constraints
    for con, con_name in zip(constraints, _legal_unique([con.name for con in constraints], "c_")):
        out.append(f" {con_name}: {_terms(con.coeffs, names)} {con.relation} {_fmt(con.rhs)}")
    out.append("Bounds")
    for name, lower, upper in zip(names, lb.tolist(), ub.tolist()):
        lo_inf, up_inf = lower == -INF, upper == INF
        if lo_inf and up_inf:
            out.append(f" {name} free")
        elif lo_inf:
            out.append(f" -infinity <= {name} <= {_fmt(upper)}")
        elif up_inf:
            out.append(f" {name} >= {_fmt(lower)}")
        else:
            out.append(f" {_fmt(lower)} <= {name} <= {_fmt(upper)}")
    binaries = [name for name, binary in zip(names, is_binary.tolist()) if binary]
    if binaries:
        out.append("Binaries")
        out.append(" " + " ".join(binaries))
    out.append("End")
    return "\n".join(out) + "\n"
