"""Solver-agnostic mixed-integer linear model representation.

A ``MilpModel`` is a plain container of columns, rows and a minimization
objective.  It knows nothing about solving; the ``solver`` package consumes
the arrays compiled by :meth:`MilpModel.to_sparse`, whose constraint matrix
is a :class:`CscMatrix`, the compressed sparse column arrays built with
numpy.  :meth:`MilpModel.to_dense` gives the same arrays with ``A`` dense,
for the reference simplex and tests.

Columns are stored as array chunks (bounds, binary flags) beside their
names, and rows as one CSR store: per-row nonzero counts, column ids,
coefficients, right-hand sides and side codes, beside their names.  Columns
enter the model only through :meth:`MilpModel.add_variables`, a family at
a time, and rows only through :meth:`MilpModel.add_rows`, a block at a
time, given as an (m, k) array of column ids and coefficients
(:func:`stack_rows` joins blocks into one).  ``to_sparse`` concatenates
the stored arrays, gathers the CSC matrix from the CSR store with one
stable sort and gives the rows as HiGHS takes them, ``row_lower <= A x <=
row_upper``; ``constraints`` builds a list of records from the row store on
each call, with each relation read from its row's side code.

A linear form is a :class:`LinearForm` ``(ids, coeffs, constant)``, built
with numpy by the model code; :func:`combine` adds forms.  The objective
is not kept as a form: :meth:`MilpModel.set_objective` sums its forms
straight into the cost vector ``c``, one entry per column, and its
constant; ``to_sparse`` pads ``c`` once with a zero for each column
added since, so ``add_variables`` leaves it be.  Finiteness is checked
where numbers enter the model: ``add_rows`` checks every coefficient and
right-hand side of a block at once, ``set_rhs`` the new right-hand sides
of existing rows, ``add_variables`` every bound, and ``set_objective`` the
summed costs.  A form checks nothing itself.  :func:`unreachable_row`
finds a row that no point within the column bounds meets.

The module also carries the linearization the dispatch model uses:
a convex quadratic's tangent envelope (`tangent_envelope`, its one
statement, which verification reads too), cut for a whole family of
envelopes as one row block (`pwl_convex`).
"""

from __future__ import annotations

import math
from itertools import islice
from typing import NamedTuple

import numpy as np

CONTINUOUS = "continuous"
BINARY = "binary"

LE = "<="
EQ = "="
GE = ">="

_RELATIONS = (LE, EQ, GE)
_SIDES = {LE: -1, EQ: 0, GE: 1}  # a row's code: its activity may lie below, at or above rhs

INF = math.inf


class CscMatrix:
    """A sparse matrix as the arrays of its compressed sparse columns.

    ``data[indptr[j]:indptr[j + 1]]`` are the nonzeros of column j and
    ``indices`` the same slice of their rows, sorted, with no zero stored:
    the arrays and dtypes (float64 data, int32 indices and pointers) of a
    scipy CSC array, which every HiGHS instance the solver loads takes as
    they are in one ``passModel`` call.
    """

    __slots__ = ("data", "indices", "indptr", "shape")

    def __init__(self, data: np.ndarray, indices: np.ndarray, indptr: np.ndarray, shape: tuple[int, int]):
        self.data, self.indices, self.indptr, self.shape = data, indices, indptr, shape

    @property
    def nnz(self) -> int:
        return self.data.size


class ModelError(Exception):
    """Base class for model construction errors."""


class BoundError(ModelError):
    """Variable bounds are inverted or non-finite where finiteness is required."""


class DuplicateNameError(ModelError):
    """A variable or constraint name was registered twice."""


class TriviallyInfeasibleError(ModelError):
    """A constraint with no variables contradicts its own right-hand side."""


class ConvexityError(ModelError):
    """tangent_envelope was asked for the envelope of a concave quadratic."""


class LinearForm(NamedTuple):
    """Affine form ``constant + sum_j coeffs[j] * x[ids[j]]``.

    ``ids`` is an integer array and ``coeffs`` a float array of the same
    length.  A plain record: its numbers are checked where it enters a model.
    """

    ids: np.ndarray
    coeffs: np.ndarray
    constant: float = 0.0

    def value(self, x) -> float:
        """Evaluate at a point, summing the terms left to right in stored order.

        The running sum starts from 0.0; a dot product may group the terms
        otherwise and so change the bits, an accumulate does not.
        """
        terms = np.zeros(self.ids.size + 1)
        np.multiply(self.coeffs, np.asarray(x, dtype=float)[self.ids], out=terms[1:])
        return self.constant + float(np.add.accumulate(terms)[-1])

    def scaled(self, k: float) -> "LinearForm":
        """The form times ``k``, zero products left out."""
        return linear_form(self.ids, self.coeffs * k, self.constant * k)


def linear_form(ids, coeffs=1.0, constant: float = 0.0) -> LinearForm:
    """The form of ``ids`` (any shape, read in C order) with ``coeffs`` broadcast to it.

    Terms with a zero coefficient are left out.
    """
    ids = np.asarray(ids, dtype=np.int64)
    coeffs = _filled(coeffs, ids.shape).ravel()
    keep = coeffs != 0.0
    return LinearForm(ids.ravel()[keep], coeffs[keep], float(constant))


def combine(*forms: LinearForm) -> LinearForm:
    """The sum of the forms, with each id once and zero sums left out.

    The coefficients of a repeated id add up in argument order, starting
    from 0.0, and ids keep the order of their first appearance.  The
    constants add up left to right, starting from 0.0.
    """
    ids, coeffs, constant = _gathered(forms)
    unique, first, inverse = np.unique(ids, return_index=True, return_inverse=True)
    order = np.argsort(first)
    total = np.bincount(inverse, coeffs, len(unique)).astype(float)[order]
    keep = total != 0.0
    return LinearForm(unique[order][keep], total[keep], constant)


def _gathered(forms) -> tuple[np.ndarray, np.ndarray, float]:
    """The forms' ids and coefficients joined in argument order, and their constants added left to right from 0.0."""
    constant = 0.0
    for form in forms:
        constant += form.constant
    return (np.concatenate([np.zeros(0, dtype=np.int64), *(f.ids for f in forms)]),
            np.concatenate([np.zeros(0), *(f.coeffs for f in forms)]), constant)


class Constraint(NamedTuple):
    """Row ``sum_j coeffs[j] * x[j]  relation  rhs``.

    A light record, since ``constraints`` builds one per row on each call.
    """

    id: int
    coeffs: dict[int, float]
    relation: str
    rhs: float
    name: str


def _claim(names, seen: set, before: list, what: str) -> None:
    """Add the names to ``seen``, the set of ``before``, refusing one that repeats either.

    A refusal leaves ``seen`` as it was.
    """
    size = len(seen)
    seen.update(names)
    if len(seen) != size + len(names):
        seen.clear()
        seen.update(before)
        block: set = set()
        for name in names:
            if name in seen or name in block:
                raise DuplicateNameError(f"{what} name {name!r} already used")
            block.add(name)


def _all(mask: np.ndarray) -> bool:
    """Whether every entry is nonzero; ``ndarray.all`` costs more on small arrays."""
    return np.count_nonzero(mask) == mask.size


def _frozen(array: np.ndarray) -> np.ndarray:
    """The array, which nothing else holds, made read-only."""
    array.flags.writeable = False
    return array


def _joined_frozen(chunks) -> np.ndarray:
    """The chunks joined into a new read-only array."""
    return _frozen(np.concatenate(chunks))


def _filled(values, shape) -> np.ndarray:
    """``values`` as a new float array of ``shape``, broadcasting a scalar or a row."""
    out = np.empty(shape)
    out[...] = values
    return out


def _per_item(value, n: int, allowed, what: str) -> list:
    """One entry per item from one value or a sequence, each in ``allowed``."""
    values = [value] * n if isinstance(value, str) else list(value)
    unknown = ({value} if isinstance(value, str) else set(values)) - set(allowed)
    if unknown:
        raise ModelError(f"unknown {what} {unknown.pop()!r}")
    if len(values) != n:
        raise ModelError(f"{len(values)} {what}s for {n} items")
    return values


def stack_rows(*blocks) -> tuple:
    """Row blocks as the arguments of one :meth:`MilpModel.add_rows` call.

    Each block is the ``(cols, coeffs, relation, rhs, names)`` of an
    ``add_rows`` call.  The rows keep their order, and a block narrower
    than the widest pads its rows with zero coefficients, which ``add_rows``
    leaves out, so the one call adds the rows the calls block by block
    would add.
    """
    m = sum(len(block[4]) for block in blocks)
    cols = np.zeros((m, max(np.shape(block[0])[1] for block in blocks)), dtype=np.int64)
    coeffs = np.zeros(cols.shape)
    rhs, relations, names = np.empty(m), [], []
    i = 0
    for block_cols, block_coeffs, relation, block_rhs, block_names in blocks:
        j, k = i + len(block_names), np.shape(block_cols)[1]
        cols[i:j, :k] = block_cols
        coeffs[i:j, :k] = block_coeffs
        rhs[i:j] = block_rhs
        relations += [relation] * (j - i) if isinstance(relation, str) else relation
        names += block_names
        i = j
    return cols, coeffs, relations, rhs, names


class MilpModel:
    """Model builder: columns, rows and the objective are added in place.

    Columns are kept as array chunks of bounds and binary flags, one per
    :meth:`add_variables` call, beside a list of names.  Rows are kept in
    CSR form: per-row nonzero counts, column ids, coefficients and
    right-hand sides and side codes as one array chunk per :meth:`add_rows`
    call, joined on first use, beside a list of names.  The objective is
    kept as a read-only cost per column and a constant.  ``constraints``
    builds records from the row store on each call.
    """

    def __init__(self, name: str = "model"):
        self.name = name
        self._c = _frozen(np.zeros(0))  # the cost of each column
        self._c0 = 0.0  # the objective's constant
        self._lower = [np.zeros(0)]
        self._upper = [np.zeros(0)]
        self._binary = [np.zeros(0, dtype=bool)]
        self._col_names: list[str] = []
        self._row_nnz = [np.zeros(0, dtype=np.int64)]
        self._row_cols = [np.zeros(0, dtype=np.int32)]
        self._row_vals = [np.zeros(0)]
        self._rhs = [np.zeros(0)]
        self._sides = [np.zeros(0, dtype=np.int8)]  # the _SIDES code of each row
        self._row_names: list[str] = []
        self._col_name_set: set[str] = set()
        self._row_name_set: set[str] = set()
        self._csr = None
        self._csc = None
        self._col_arrays = None  # (lb, ub, is_binary), compiled
        self._row_ranges = None  # (row_lower, row_upper), compiled

    # -- construction ------------------------------------------------------

    def add_variables(self, kind: str, lower, upper, names) -> np.ndarray:
        """Append one column of ``kind`` per name and return their ids.

        ``lower`` and ``upper`` are scalars or one per name.  Binary bounds
        are clamped into [0, 1].  The new columns cost nothing until
        :meth:`set_objective` prices them.  Inverted or NaN bounds, an
        unknown kind or a repeated name add nothing and raise.
        """
        if kind not in (CONTINUOUS, BINARY):
            raise ModelError(f"unknown variable kind {kind!r}")
        n = len(names)
        lower, upper = _filled(lower, n), _filled(upper, n)
        _claim(names, self._col_name_set, self._col_names, "variable")
        binary = np.zeros(n, dtype=bool)
        if kind == BINARY:
            binary[:] = True
            np.maximum(lower, 0.0, out=lower)
            np.minimum(upper, 1.0, out=upper)
        ordered = lower <= upper
        if not _all(ordered):
            self._col_name_set.difference_update(names)
            i = np.flatnonzero(~ordered)[0]
            if math.isnan(lower[i]) or math.isnan(upper[i]):
                raise BoundError(f"variable {names[i]!r}: NaN bound")
            raise BoundError(f"variable {names[i]!r}: lower {lower[i]} > upper {upper[i]}")
        start = len(self._col_names)
        self._lower.append(lower)
        self._upper.append(upper)
        self._binary.append(binary)
        self._col_names += names
        self._csc = self._col_arrays = None
        return np.arange(start, start + n)

    def add_rows(self, cols, coeffs, relation, rhs, names) -> range:
        """Append rows ``sum_j coeffs[i, j] * x[cols[i, j]]  relation[i]  rhs[i]``.

        ``cols`` is an (m, k) integer array; ``coeffs`` broadcasts to (m, k)
        and ``rhs`` to (m,); ``relation`` is one relation or one per row.  A
        zero coefficient leaves its slot empty, so rows of different lengths
        pad with zeros.  This is the only way rows enter the model: the
        checks run on the whole block (finite coefficients and right-hand
        sides, known columns, new names, no violated empty row) and a failed
        check adds nothing.  The ids of a row must be distinct; a repeat is
        refused when the rows are joined for a view or a compile.  Returns
        the new row ids.
        """
        m = len(names)
        rels = _per_item(relation, m, _RELATIONS, "relation")
        cols = np.asarray(cols)
        if cols.ndim != 2 or len(cols) != m or (cols.size and cols.dtype.kind not in "iu"):
            raise ModelError(f"a block of {m} rows needs an ({m}, k) integer column array")
        coeffs, rhs = _filled(coeffs, cols.shape), _filled(rhs, m)
        if not _all(np.isfinite(rhs)):
            i = np.flatnonzero(~np.isfinite(rhs))[0]
            raise ModelError(f"constraint {names[i]!r}: non-finite right-hand side")
        _claim(names, self._row_name_set, self._row_names, "constraint")
        try:
            nnz, idx, vals = self._checked_entries(cols, coeffs, rels, rhs, names)
        except BaseException:
            self._row_name_set.difference_update(names)
            raise
        start = len(self._row_names)
        self._row_nnz.append(nnz)
        self._row_cols.append(idx.astype(np.int32))
        self._row_vals.append(vals)
        self._rhs.append(rhs)
        self._sides.append(np.full(m, _SIDES[relation], dtype=np.int8) if isinstance(relation, str)
                           else np.fromiter(map(_SIDES.__getitem__, rels), np.int8, m))
        self._row_names += names
        self._csr = self._csc = self._row_ranges = None
        return range(start, start + m)

    def _checked_entries(self, cols, coeffs, rels, rhs, names):
        """(nnz per row, column ids, coefficients) of a row block's nonzero entries, checked."""
        keep = coeffs != 0.0
        nnz = keep.sum(axis=1)
        idx, vals = cols[keep], coeffs[keep]
        # a negative id wraps past every column id
        known = idx.astype(np.uint64) < self.num_variables
        finite = np.isfinite(vals)
        if not (_all(known) and _all(finite)):
            j = np.flatnonzero(~(known & finite))[0]
            name = names[np.searchsorted(np.cumsum(nnz), j, side="right")]
            if not known[j]:
                raise ModelError(f"constraint {name!r} references unknown variable {idx[j]}")
            raise ModelError(f"constraint {name!r}: non-finite coefficient for variable {idx[j]}")
        if not _all(nnz):
            for i in np.flatnonzero(nnz == 0).tolist():
                rel, b = rels[i], float(rhs[i])
                if not ((rel == LE and 0.0 <= b + 1e-12) or (rel == GE and 0.0 >= b - 1e-12)
                        or (rel == EQ and abs(b) <= 1e-12)):
                    raise TriviallyInfeasibleError(
                        f"constraint {names[i]!r} has no variables and is violated: 0 {rel} {b}"
                    )
        return nnz, idx, vals

    def set_rhs(self, rows, values) -> None:
        """Set the right-hand sides of existing rows, one value per row id.

        The rows must exist and the values be finite, as in
        :meth:`add_rows`; a failed check changes nothing.  The matrix is
        untouched, so a compiled ``A`` stays valid, and compiled row bounds
        keep their values: the model compiles new ones.
        """
        rows = np.asarray(rows, dtype=np.int64)
        values = _filled(values, rows.shape)
        known = rows.astype(np.uint64) < self.num_constraints
        if not _all(known):
            raise ModelError(f"unknown constraint {rows[~known][0]}")
        if not _all(np.isfinite(values)):
            i = rows[np.flatnonzero(~np.isfinite(values))[0]]
            raise ModelError(f"constraint {self._row_names[i]!r}: non-finite right-hand side")
        rhs = np.concatenate(self._rhs)
        rhs[rows] = values
        self._rhs[:] = [rhs]
        self._row_ranges = None

    def set_objective(self, *forms: LinearForm) -> None:
        """Set the minimization objective to the sum of the forms.

        The model keeps the sum as its cost vector ``c``, one entry per
        column, in which the coefficients of each column add up in argument
        order from 0.0, and the constants add up left to right from 0.0:
        the bits of ``combine(*forms)`` scattered into a zero vector.  An
        unknown or negative id or a non-finite sum changes nothing and
        raises.
        """
        ids, coeffs, constant = _gathered(forms)
        if not math.isfinite(constant):
            raise ModelError("objective constant not finite")
        # a negative id wraps past every column id
        known = ids.astype(np.uint64) < self.num_variables
        if not _all(known):
            raise ModelError(f"objective references unknown variable {ids[~known][0]}")
        # bincount adds each column's terms in input order from 0.0 (and gives integers for no terms)
        c = np.bincount(ids, coeffs, self.num_variables).astype(float, copy=False)
        finite = np.isfinite(c)
        if not _all(finite):
            # the first such id in argument order
            raise ModelError(f"objective coefficient for variable {ids[~finite[ids]][0]} not finite")
        self._c, self._c0 = _frozen(c), constant

    # -- introspection -----------------------------------------------------

    @property
    def num_variables(self) -> int:
        return len(self._col_names)

    @property
    def num_constraints(self) -> int:
        return len(self._row_names)

    @property
    def column_names(self) -> tuple[str, ...]:
        """The column names in id order."""
        return tuple(self._col_names)

    @property
    def row_names(self) -> tuple[str, ...]:
        """The row names in id order."""
        return tuple(self._row_names)

    @property
    def constraints(self) -> list[Constraint]:
        """The rows as Constraint records, built from the row store."""
        indptr, cols, vals = (a.tolist() for a in self._joined()[:3])
        pairs = zip(cols, vals)
        coeffs = [dict(islice(pairs, b - a)) for a, b in zip(indptr, indptr[1:])]
        relations = map(_RELATIONS.__getitem__, (np.concatenate(self._sides) + 1).tolist())
        rhs = np.concatenate(self._rhs).tolist()
        rows = zip(range(len(coeffs)), coeffs, relations, rhs, self._row_names)
        return list(map(Constraint._make, rows))

    def _joined(self):
        """(indptr, cols, vals, order, rows) of all rows; the chunks collapse into one.

        ``indptr``, ``cols`` and ``vals`` are the rows in CSR form.  ``order``
        lists the entries by column, each column's in row order (a stable
        sort by column id), and ``rows`` is the row of each entry so listed:
        the CSC form's permutation and row indices, which the columns added
        later leave as they are.  Refuses a row that repeats a column id, so
        no view or compile sees one.
        """
        if self._csr is None:
            for chunks in (self._row_nnz, self._row_cols, self._row_vals):
                chunks[:] = [np.concatenate(chunks)]
            nnz, cols = self._row_nnz[0], self._row_cols[0]
            order = np.argsort(cols, kind="stable")
            rows = np.repeat(np.arange(len(nnz), dtype=np.int32), nnz)[order]
            by_col = cols[order]
            # a repeat is an entry whose column and row are those of the entry before it
            repeats = (by_col[1:] == by_col[:-1]) & (rows[1:] == rows[:-1])
            if repeats.any():
                name = self._row_names[rows[1:][repeats].min()]
                raise ModelError(f"constraint {name!r} repeats a variable")
            indptr = np.zeros(len(nnz) + 1, dtype=np.int32)
            np.cumsum(nnz, out=indptr[1:])
            self._csr = indptr, cols, self._row_vals[0], order, rows
        return self._csr

    def binary_ids(self) -> list[int]:
        return np.flatnonzero(np.concatenate(self._binary)).tolist()

    def to_sparse(self):
        """Arrays (c, c0, A, row_lower, row_upper, lb, ub, is_binary) with A as a :class:`CscMatrix`.

        The rows are given as HiGHS takes them, ``row_lower <= A x <=
        row_upper``: a ``<=`` row has lower bound -inf, a ``>=`` row upper
        bound +inf, and the other bounds are the right-hand side.  A has one
        row per constraint in registration order, sorted row indices and no
        stored zeros.  This is the form the solvers consume; it is gathered
        straight from the row store, without a dense intermediate.  The
        model keeps each compiled entry, read-only, until the part it comes
        from changes: ``A`` until a column or row is added, ``lb``, ``ub``
        and ``is_binary`` until a column is added, the row bounds until a
        row is added or :meth:`set_rhs` is called.  So a model whose costs
        or right-hand sides change in between compiles to the same ``A``
        object.  ``c`` and ``c0`` are the ones :meth:`set_objective` keeps,
        ``c`` padded here once with a zero per column added since; it stays
        the same object until a column is added or ``set_objective`` runs.
        """
        n, m = self.num_variables, self.num_constraints
        if self._csc is None:
            _, cols, vals, order, rows = self._joined()
            indptr = np.zeros(n + 1, dtype=np.int32)
            np.cumsum(np.bincount(cols, minlength=n), out=indptr[1:])
            self._csc = CscMatrix(_frozen(vals[order]), _frozen(rows), _frozen(indptr), (m, n))
        if self._c.size < n:  # the columns added since set_objective cost nothing
            self._c = _joined_frozen((self._c, np.zeros(n - self._c.size)))
        if self._col_arrays is None:
            self._col_arrays = tuple(map(_joined_frozen, (self._lower, self._upper, self._binary)))
        if self._row_ranges is None:
            rhs, sides = np.concatenate(self._rhs), np.concatenate(self._sides)
            self._row_ranges = tuple(_frozen(np.where(sides == side, bound, rhs))
                                     for side, bound in ((-1, -np.inf), (1, np.inf)))
        return (self._c, self._c0, self._csc, *self._row_ranges, *self._col_arrays)

    def to_dense(self):
        """:meth:`to_sparse` with A as a dense ndarray.

        For the reference simplex and tests; the HiGHS LP core and
        branch-and-cut take the sparse form.
        """
        c, c0, A, row_lower, row_upper, lb, ub, is_binary = self.to_sparse()
        dense = np.zeros(A.shape)
        dense[A.indices, np.repeat(np.arange(A.shape[1]), np.diff(A.indptr))] = A.data
        return c, c0, dense, row_lower, row_upper, lb, ub, is_binary


def unreachable_row(model: MilpModel) -> tuple[str, str] | None:
    """The first row that no point within the column bounds meets, as ``(name, why)``, or None.

    A row's activity ranges over the sums of its ``a_j lb_j`` and ``a_j
    ub_j``, the lesser of each pair for its least and the greater for its
    most.  A row bound beyond that range by more than 1e-9 proves the model
    infeasible (Andersen & Andersen, Math. Prog. 71, 1995).  An infinite
    row side, or a range that sums +inf and -inf (NaN), never fails.
    """
    _, _, A, row_lower, row_upper, lb, ub, _ = model.to_sparse()
    cols = np.repeat(np.arange(A.shape[1]), np.diff(A.indptr))
    ends = A.data * lb[cols], A.data * ub[cols]
    low = np.bincount(A.indices, np.minimum(*ends), A.shape[0])
    high = np.bincount(A.indices, np.maximum(*ends), A.shape[0])
    short, over = row_lower > high + 1e-9, row_upper < low - 1e-9
    failed = np.flatnonzero(short | over)
    if not failed.size:
        return None
    i = failed[0]
    why = (f"needs {row_lower[i]:.1f} but its columns reach {high[i]:.1f} at most" if short[i]
           else f"allows at most {row_upper[i]:.1f} but its columns give {low[i]:.1f} at least")
    return model.row_names[i], why


# -- linearization toolkit ---------------------------------------------------


def quad_value(quad, x: float) -> float:
    """Evaluate a + b*x + c*x**2."""
    a, b, c = quad
    return a + b * x + c * x * x


def pwl_convex_error_bound(c: float, x_max: float, segments: int) -> float:
    """Worst-case gap between the tangent envelope and the quadratic."""
    return c * (x_max / segments) ** 2 / 4.0


class TangentEnvelope(NamedTuple):
    """A quadratic's tangents (breakpoints, values and slopes there), its column's bounds and its error bound."""

    xi: np.ndarray
    fi: np.ndarray
    slope: np.ndarray
    low: float
    high: float
    error: float

    def value(self, x):
        """The envelope at a point, or at each point of an array: the largest tangent there."""
        best = (self.fi + self.slope * (np.asarray(x, dtype=float)[..., None] - self.xi)).max(axis=-1)
        return float(best) if best.ndim == 0 else best


def tangent_envelope(quad, x_max: float, segments: int) -> TangentEnvelope:
    """The envelope of a + b x + c x^2 on [0, x_max], the one statement `pwl_convex` and verification read.

    Tangents at segments+1 uniform breakpoints, each value on floats in the
    operation order of `quad_value`; its ``value`` is what the envelope
    column equals under downward objective pressure.  The column lies in
    [least of f on [0, x_max] - ``error``, greatest of f].  c < 0 raises
    ConvexityError, segments < 1 or x_max <= 0 ModelError.
    """
    a, b, c, x_max = (float(v) for v in (*quad, x_max))
    if c < 0.0:
        raise ConvexityError(f"a tangent envelope requires c >= 0, got {c}")
    if segments < 1:
        raise ModelError("segments must be >= 1")
    if not x_max > 0.0:
        raise ModelError("x_max must be > 0")
    xi = [x_max * i / segments for i in range(segments + 1)]
    error = pwl_convex_error_bound(c, x_max, segments)
    # c == 0 still works: every tangent is the same exact line y >= a + b*x
    vertex = min(max(-b / (2.0 * c), 0.0), x_max) if c > 0.0 else 0.0
    f0, f_max, f_vertex = (quad_value((a, b, c), t) for t in (0.0, x_max, vertex))
    return TangentEnvelope(*map(np.array, (xi, [a + b * x + c * x * x for x in xi], [b + 2.0 * c * x for x in xi])),
                           min(f0, f_max, f_vertex) - error, max(f0, f_max), error)


def envelope_error(envelopes, periods: int, dt: float) -> float:
    """The envelopes' error bound over the periods: each ``error * dt``, summed from 0.0 period by period."""
    per_period = [envelope.error * dt for envelope in envelopes]
    bound = 0.0
    for _ in range(periods):
        for term in per_period:
            bound += term
    return bound


def pwl_convex(model: MilpModel, x_cols, x_coeffs, envelopes, names) -> np.ndarray:
    """Underestimators y_j of convex quadratics, cut along their envelopes (`tangent_envelope`).

    One envelope per name, all with one segment count, with argument x_j =
    sum_k x_coeffs[j, k] * x[x_cols[j, k]] (an (m, k) block as in
    :meth:`MilpModel.add_rows`).  Adds y_j within ``[low, high]`` and the
    cuts y_j >= fi + slope * (x_j - xi), envelope by envelope, in one row
    block.  Under downward objective pressure on y_j the optimum lies at
    most ``error`` below the quadratic.  No binaries are introduced.
    Returns the ids of the y columns.
    """
    y = model.add_variables(CONTINUOUS, [e.low for e in envelopes], [e.high for e in envelopes], names)
    xi, fi, slope = (np.array(arrays) for arrays in zip(*(e[:3] for e in envelopes)))
    # y >= fi + slope*(x - xi)
    x_cols = np.asarray(x_cols)
    shape = (*xi.shape, 1 + x_cols.shape[1])
    cols = np.empty(shape, dtype=np.int64)
    cols[..., 0] = y[:, None]
    cols[..., 1:] = x_cols[:, None, :]
    coeffs = np.empty(shape)
    coeffs[..., 0] = 1.0
    coeffs[..., 1:] = -(slope[..., None] * _filled(x_coeffs, x_cols.shape)[:, None, :])
    cuts = [f"_cut{i}" for i in range(xi.shape[1])]
    cut_names = [name + cut for name in names for cut in cuts]
    model.add_rows(cols.reshape(-1, shape[-1]), coeffs.reshape(-1, shape[-1]), GE,
                   (fi - slope * xi).ravel(), cut_names)
    return y
