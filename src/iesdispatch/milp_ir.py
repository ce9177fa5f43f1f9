"""Solver-agnostic mixed-integer linear model representation.

A ``MilpModel`` is a plain container of variables, linear constraints and a
minimization objective.  It knows nothing about solving; the ``solver``
package consumes the arrays compiled by :meth:`MilpModel.to_sparse`, whose
constraint matrix is a scipy CSC array.  :meth:`MilpModel.to_dense` gives the
same arrays with ``A`` dense, for the reference simplex and tests.

Expression arithmetic trusts its operands: ``+``, ``-`` and ``*`` build
results without re-checking every coefficient, and only a non-finite scalar
factor is rejected on the spot.  Finiteness is checked once, where an
expression enters the model (``add_constraint`` and ``set_objective``), so an
overflowed coefficient cannot reach a row or the objective.

The module also carries the linearization the dispatch model uses:
epigraph (tangent) cuts for convex quadratics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

CONTINUOUS = "continuous"
BINARY = "binary"

LE = "<="
EQ = "="
GE = ">="

_RELATIONS = (LE, EQ, GE)

INF = math.inf


class ModelError(Exception):
    """Base class for model construction errors."""


class BoundError(ModelError):
    """Variable bounds are inverted or non-finite where finiteness is required."""


class DuplicateNameError(ModelError):
    """A variable or constraint name was registered twice."""


class TriviallyInfeasibleError(ModelError):
    """A constraint with no variables contradicts its own right-hand side."""


class ConvexityError(ModelError):
    """pwl_convex was asked to linearize a concave quadratic."""


@dataclass(frozen=True)
class Variable:
    """Handle into a MilpModel; ids are dense 0..n-1 in creation order."""

    id: int
    kind: str
    lower: float
    upper: float
    name: str

    def __mul__(self, scalar):
        scalar = _finite_scalar(scalar)
        return LinearExpression._trusted({self.id: scalar} if scalar else {}, 0.0)

    __rmul__ = __mul__

    def __add__(self, other):
        return LinearExpression._as_expr(self) + other

    __radd__ = __add__

    def __sub__(self, other):
        return LinearExpression._as_expr(self) - other

    def __rsub__(self, other):
        return LinearExpression._as_expr(other) - self

    def __neg__(self):
        return LinearExpression._trusted({self.id: -1.0}, 0.0)


def _finite_scalar(scalar) -> float:
    scalar = float(scalar)
    if not math.isfinite(scalar):
        raise ModelError(f"non-finite scalar factor {scalar}")
    return scalar


class LinearExpression:
    """Sparse affine expression: sum of coefficient*variable plus a constant.

    No coefficient is ever stored as zero.  The constructor validates its
    input; the operators build results with ``_trusted`` and keep the key
    order of their left operand followed by new keys of the right one.
    """

    __slots__ = ("coeffs", "constant")

    def __init__(self, coeffs=None, constant=0.0):
        self.coeffs: dict[int, float] = {}
        if coeffs:
            for vid, c in coeffs.items():
                c = float(c)
                if not math.isfinite(c):
                    raise ModelError(f"non-finite coefficient for variable {vid}")
                if c != 0.0:
                    self.coeffs[vid] = c
        self.constant = float(constant)

    @classmethod
    def _trusted(cls, coeffs: dict[int, float], constant: float) -> "LinearExpression":
        """Wrap float coefficients, none of them zero, without checking them."""
        expr = cls.__new__(cls)
        expr.coeffs = coeffs
        expr.constant = constant
        return expr

    @staticmethod
    def _as_expr(other) -> "LinearExpression":
        if isinstance(other, LinearExpression):
            return other
        if isinstance(other, Variable):
            return LinearExpression._trusted({other.id: 1.0}, 0.0)
        return LinearExpression._trusted({}, float(other))

    def _combine(self, other, sign: float) -> "LinearExpression":
        """self + sign * other for sign in (1, -1).

        Negation is exact, so ``a - b`` gives the same bits as ``a + (-1 * b)``.
        """
        if not isinstance(other, (LinearExpression, Variable)):
            return LinearExpression._trusted(dict(self.coeffs), self.constant + sign * float(other))
        other = self._as_expr(other)
        coeffs = dict(self.coeffs)
        for vid, c in other.coeffs.items():
            total = coeffs.get(vid, 0.0) + sign * c
            if total != 0.0:
                coeffs[vid] = total
            else:
                coeffs.pop(vid, None)
        return LinearExpression._trusted(coeffs, self.constant + sign * other.constant)

    def __add__(self, other):
        return self._combine(other, 1.0)

    __radd__ = __add__

    def __sub__(self, other):
        return self._combine(other, -1.0)

    def __rsub__(self, other):
        return self._as_expr(other)._combine(self, -1.0)

    def __mul__(self, scalar):
        scalar = _finite_scalar(scalar)
        coeffs = {}
        for vid, c in self.coeffs.items():
            c *= scalar
            if c != 0.0:
                coeffs[vid] = c
        return LinearExpression._trusted(coeffs, self.constant * scalar)

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1.0

    def value(self, x) -> float:
        """Evaluate at a point; x is indexable by variable id."""
        return self.constant + sum(c * float(x[vid]) for vid, c in self.coeffs.items())

    def __repr__(self):
        terms = " + ".join(f"{c:g}*x{vid}" for vid, c in sorted(self.coeffs.items()))
        return f"LinearExpression({terms or '0'} + {self.constant:g})"


def as_expression(term) -> LinearExpression:
    """Coerce a Variable, number, or expression to a LinearExpression."""
    return LinearExpression._as_expr(term)


def sum_expressions(terms) -> LinearExpression:
    """Sum Variables, numbers and expressions in one pass.

    Gives the coefficients and constant that adding the terms left to right
    with ``+`` gives, keys in order of first appearance, but copies no
    intermediate dictionary: a sum of n terms costs O(total terms), not O(n^2).
    """
    coeffs: dict[int, float] = {}
    const = 0.0
    for term in terms:
        if isinstance(term, LinearExpression):
            const += term.constant
            for vid, c in term.coeffs.items():
                coeffs[vid] = coeffs.get(vid, 0.0) + c
        elif isinstance(term, Variable):
            coeffs[term.id] = coeffs.get(term.id, 0.0) + 1.0
        else:
            const += float(term)
    return LinearExpression._trusted({v: c for v, c in coeffs.items() if c != 0.0}, const)


@dataclass(frozen=True)
class Constraint:
    """Row ``expr rel rhs``; the expression constant is folded into rhs."""

    id: int
    coeffs: dict[int, float]
    relation: str
    rhs: float
    name: str


class MilpModel:
    """Model builder: variables, constraints and objective are added in place."""

    def __init__(self, name: str = "model"):
        self.name = name
        self.variables: list[Variable] = []
        self.constraints: list[Constraint] = []
        self.objective = LinearExpression()
        self._var_by_name: dict[str, int] = {}
        self._con_by_name: dict[str, int] = {}

    # -- construction ------------------------------------------------------

    def add_variable(self, kind: str, lower: float, upper: float, name: str) -> Variable:
        if kind not in (CONTINUOUS, BINARY):
            raise ModelError(f"unknown variable kind {kind!r}")
        if name in self._var_by_name:
            raise DuplicateNameError(f"variable name {name!r} already used")
        lower, upper = float(lower), float(upper)
        if kind == BINARY:
            # clamp into [0,1]; callers may pass wider bounds
            lower = max(lower, 0.0)
            upper = min(upper, 1.0)
        if lower > upper:
            raise BoundError(f"variable {name!r}: lower {lower} > upper {upper}")
        if math.isnan(lower) or math.isnan(upper):
            raise BoundError(f"variable {name!r}: NaN bound")
        var = Variable(len(self.variables), kind, lower, upper, name)
        self.variables.append(var)
        self._var_by_name[name] = var.id
        return var

    def add_continuous(self, lower: float, upper: float, name: str) -> Variable:
        return self.add_variable(CONTINUOUS, lower, upper, name)

    def add_binary(self, name: str) -> Variable:
        return self.add_variable(BINARY, 0.0, 1.0, name)

    def add_constraint(self, expr, relation: str, rhs: float, name: str | None = None) -> int:
        if relation not in _RELATIONS:
            raise ModelError(f"unknown relation {relation!r}")
        expr = as_expression(expr)
        rhs = float(rhs) - expr.constant
        if not math.isfinite(rhs):
            raise ModelError(f"constraint {name!r}: non-finite right-hand side")
        cid = len(self.constraints)
        if name is None:
            name = f"c{cid}"
        if name in self._con_by_name:
            raise DuplicateNameError(f"constraint name {name!r} already used")
        n = len(self.variables)
        for vid, c in expr.coeffs.items():
            if vid >= n:
                raise ModelError(f"constraint {name!r} references unknown variable {vid}")
            if not math.isfinite(c):
                raise ModelError(f"constraint {name!r}: non-finite coefficient for variable {vid}")
        if not expr.coeffs:
            ok = (
                (relation == LE and 0.0 <= rhs + 1e-12)
                or (relation == GE and 0.0 >= rhs - 1e-12)
                or (relation == EQ and abs(rhs) <= 1e-12)
            )
            if not ok:
                raise TriviallyInfeasibleError(
                    f"constraint {name!r} has no variables and is violated: 0 {relation} {rhs}"
                )
        con = Constraint(cid, dict(expr.coeffs), relation, rhs, name)
        self.constraints.append(con)
        self._con_by_name[name] = cid
        return cid

    def set_objective(self, expr) -> None:
        """Set the minimization objective."""
        expr = as_expression(expr)
        if not math.isfinite(expr.constant):
            raise ModelError("objective constant not finite")
        for vid, c in expr.coeffs.items():
            if not math.isfinite(c):
                raise ModelError(f"objective coefficient for variable {vid} not finite")
            if vid >= len(self.variables):
                raise ModelError(f"objective references unknown variable {vid}")
        self.objective = expr

    # -- introspection -----------------------------------------------------

    @property
    def num_variables(self) -> int:
        return len(self.variables)

    @property
    def num_constraints(self) -> int:
        return len(self.constraints)

    def binary_ids(self) -> list[int]:
        return [v.id for v in self.variables if v.kind == BINARY]

    def to_sparse(self):
        """Arrays (c, c0, A, relations, rhs, lb, ub, is_binary) with A as CSC.

        A is a ``scipy.sparse.csc_array`` with one row per constraint in
        registration order, sorted row indices and no stored zeros.  This is
        the form the solvers consume; it is compiled straight from the row
        dictionaries, without a dense intermediate.
        """
        # deferred so that importing the package does not load scipy
        from scipy.sparse import csr_array

        n = len(self.variables)
        m = len(self.constraints)
        c = np.zeros(n)
        for vid, coef in self.objective.coeffs.items():
            c[vid] = coef
        rows = [con.coeffs for con in self.constraints]
        indptr = np.zeros(m + 1, dtype=np.int32)
        np.cumsum([len(r) for r in rows], out=indptr[1:])
        nnz = int(indptr[-1])
        cols = np.fromiter(chain.from_iterable(rows), dtype=np.int32, count=nnz)
        vals = np.fromiter(chain.from_iterable(r.values() for r in rows), dtype=float, count=nnz)
        A = csr_array((vals, cols, indptr), shape=(m, n)).tocsc()
        rhs = np.array([con.rhs for con in self.constraints], dtype=float)
        relations = [con.relation for con in self.constraints]
        lb = np.array([v.lower for v in self.variables], dtype=float)
        ub = np.array([v.upper for v in self.variables], dtype=float)
        is_binary = np.array([v.kind == BINARY for v in self.variables], dtype=bool)
        return c, self.objective.constant, A, relations, rhs, lb, ub, is_binary

    def to_dense(self):
        """:meth:`to_sparse` with A as a dense ndarray.

        For the embedded reference simplex and tests; the branch-and-bound
        core and the scipy-milp backend take the sparse form.
        """
        c, c0, A, relations, rhs, lb, ub, is_binary = self.to_sparse()
        return c, c0, A.toarray(), relations, rhs, lb, ub, is_binary


# -- linearization toolkit ---------------------------------------------------


def quad_value(quad, x: float) -> float:
    """Evaluate a + b*x + c*x**2."""
    a, b, c = quad
    return a + b * x + c * x * x


def pwl_convex_error_bound(c: float, x_max: float, segments: int) -> float:
    """Worst-case gap between the tangent envelope and the quadratic."""
    return c * (x_max / segments) ** 2 / 4.0


def pwl_convex_value(quad, x_max: float, segments: int, x: float) -> float:
    """Value of the pwl_convex tangent envelope at a point.

    This is what the model variable equals under downward objective
    pressure; verification recomputes it from a schedule without a model.
    """
    a, b, c = (float(v) for v in quad)
    best = -math.inf
    for i in range(segments + 1):
        xi = x_max * i / segments
        slope = b + 2.0 * c * xi
        best = max(best, quad_value(quad, xi) + slope * (x - xi))
    return best


def pwl_convex(model: MilpModel, x, quad, x_max: float, segments: int,
               name: str) -> Variable:
    """Underestimator y for the convex quadratic f(x) = a + b x + c x^2 on [0, x_max].

    Adds tangent (epigraph) cuts at segments+1 uniform breakpoints.  Under
    downward objective pressure on y the optimum satisfies
    |y - f(x)| <= c * (x_max/segments)^2 / 4.  No binaries are introduced.
    ``x`` may be a Variable or any affine expression bounded within [0, x_max].
    """
    a, b, c = (float(v) for v in quad)
    if c < 0.0:
        raise ConvexityError(f"pwl_convex requires c >= 0, got {c}")
    if segments < 1:
        raise ModelError("segments must be >= 1")
    if x_max <= 0.0:
        raise ModelError("x_max must be > 0")
    xe = as_expression(x)
    # c == 0 still works: every tangent is the same exact line y >= a + b*x
    vertex = min(max(-b / (2.0 * c), 0.0), x_max) if c > 0.0 else 0.0
    f_lo = min(quad_value(quad, t) for t in (0.0, x_max, vertex))
    f_hi = max(quad_value(quad, 0.0), quad_value(quad, x_max))
    gap = pwl_convex_error_bound(c, x_max, segments)
    y = model.add_continuous(f_lo - gap, f_hi, name)
    for i in range(segments + 1):
        xi = x_max * i / segments
        fi = quad_value(quad, xi)
        slope = b + 2.0 * c * xi
        # y >= fi + slope*(x - xi)
        model.add_constraint(y - slope * xe, GE, fi - slope * xi, f"{name}_cut{i}")
    return y
