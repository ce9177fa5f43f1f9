"""Reader for the LP text that ``iesdispatch.lp_format.write_lp`` emits.

It parses the subset the writer emits, for round-trip checks and for the
stand-in external solver of the backend tests.
"""

from iesdispatch.milp_ir import BINARY, CONTINUOUS, EQ, GE, INF, LE, MilpModel, linear_form


class LpParseError(Exception):
    pass


def _parse_terms(tokens: list[str], name_to_id: dict[str, int]):
    """(coefficient by variable id, constant) of a sum of terms."""
    coeffs: dict[int, float] = {}
    constant = 0.0
    sign = 1.0
    i = 0
    while i < len(tokens):
        tok = tokens[i]
        if tok == "+":
            sign = 1.0
            i += 1
            continue
        if tok == "-":
            sign = -1.0
            i += 1
            continue
        try:
            coef = float(tok)
        except ValueError:
            raise LpParseError(f"expected number, got {tok!r}")
        if i + 1 < len(tokens) and tokens[i + 1] not in ("+", "-"):
            var = tokens[i + 1]
            if var not in name_to_id:
                raise LpParseError(f"unknown variable {var!r}")
            vid = name_to_id[var]
            coeffs[vid] = coeffs.get(vid, 0.0) + sign * coef
            i += 2
        else:
            constant += sign * coef
            i += 1
        sign = 1.0
    return coeffs, constant


def read_lp(text: str) -> MilpModel:
    """Parse LP text produced by write_lp back into a MilpModel."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("\\")]
    section = None
    obj_tokens: list[str] = []
    con_lines: list[tuple[str, list[str]]] = []
    bound_lines: list[list[str]] = []
    binary_names: set[str] = set()
    for ln in lines:
        low = ln.lower()
        if low in ("minimize", "maximize"):
            if low == "maximize":
                raise LpParseError("only minimization is supported")
            section = "obj"
            continue
        if low == "subject to":
            section = "con"
            continue
        if low == "bounds":
            section = "bounds"
            continue
        if low in ("binaries", "binary"):
            section = "bin"
            continue
        if low == "end":
            break
        if section == "obj":
            toks = ln.split()
            if toks and toks[0].endswith(":"):
                toks = toks[1:]
            obj_tokens.extend(toks)
        elif section == "con":
            toks = ln.split()
            if not toks[0].endswith(":"):
                raise LpParseError(f"constraint line without label: {ln!r}")
            con_lines.append((toks[0][:-1], toks[1:]))
        elif section == "bounds":
            bound_lines.append(ln.split())
        elif section == "bin":
            binary_names.update(ln.split())
        else:
            raise LpParseError(f"content before any section: {ln!r}")

    # bounds lines define the variable set; LP default is [0, inf)
    bounds: dict[str, tuple[float, float]] = {}

    def _num(tok: str) -> float:
        if tok.lower() in ("-infinity", "-inf"):
            return -INF
        if tok.lower() in ("infinity", "inf", "+infinity", "+inf"):
            return INF
        return float(tok)

    for toks in bound_lines:
        if len(toks) == 2 and toks[1].lower() == "free":
            bounds[toks[0]] = (-INF, INF)
        elif len(toks) == 3 and toks[1] == ">=":
            bounds[toks[0]] = (_num(toks[2]), INF)
        elif len(toks) == 3 and toks[1] == "<=":
            bounds[toks[0]] = (0.0, _num(toks[2]))
        elif len(toks) == 5 and toks[1] == "<=" and toks[3] == "<=":
            bounds[toks[2]] = (_num(toks[0]), _num(toks[4]))
        else:
            raise LpParseError(f"unrecognized bounds line: {' '.join(toks)!r}")

    model = MilpModel("imported")
    for name in sorted(binary_names - set(bounds)):
        bounds[name] = (0.0, 1.0)
    names = list(bounds)
    for name, (lower, upper) in bounds.items():
        model.add_variables(BINARY if name in binary_names else CONTINUOUS, lower, upper, [name])
    name_to_id = {name: j for j, name in enumerate(names)}

    coeffs, constant = _parse_terms(obj_tokens, name_to_id)
    model.set_objective(linear_form(list(coeffs), list(coeffs.values()), constant))
    for label, toks in con_lines:
        rel_idx = next((i for i, t in enumerate(toks) if t in (LE, GE, EQ, "=<", "=>")), None)
        if rel_idx is None:
            raise LpParseError(f"constraint {label!r} has no relation")
        rel = {"=<": LE, "=>": GE}.get(toks[rel_idx], toks[rel_idx])
        coeffs, constant = _parse_terms(toks[:rel_idx], name_to_id)
        rhs = float(toks[rel_idx + 1])
        model.add_rows([list(coeffs)], [list(coeffs.values())], rel, rhs - constant, [label])
    return model
