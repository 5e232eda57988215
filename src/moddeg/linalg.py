"""Exact matrices and canonical subspaces.

Matrices are stored row-sparse: each row once, as the columns of its
nonzero entries in increasing order and their values, with no dense
copy.  Products, sums, transposes, stacks and slices run over the stored
entries only, and products call the field object once per multiply and
once per add.  Elimination (``rref`` and ``EchelonTracker``) runs on rows
of plain ints instead: canonical residues over GF(p), and over QQ each
row cleared of denominators and reduced fraction-free, with its content
divided out after every step; only the final pivot rows become
``Fraction``s again.

Everything here is immutable and pure.  Subspaces are kept in a canonical
reduced column echelon basis so that two subspaces are equal if and only
if their basis matrices are structurally equal; submodule chains elsewhere
in the library terminate by exactly this equality test.

Pivoting is deterministic (leftmost pivot, first nonzero row), so all
derived bases are reproducible bit for bit across runs.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from itertools import compress, product
from math import gcd, lcm
from typing import Callable, Iterable, Optional, Sequence

from .errors import DimensionMismatch, FieldMismatch, NotContained


# Stored rows are built as lists and then copied into tuples of the exact
# size: ``tuple()`` of an iterator grows its result by reallocation, and
# on interleaved QQ and GF(p) eliminations that churn fragments the
# small-object heap enough to raise the peak RSS measurably.

def row_from_dense(values: Sequence) -> tuple:
    """The stored form of a dense row of canonical field elements: the
    tuple of its nonzero entries' columns and the tuple of their values."""
    return (tuple([*compress(range(len(values)), values)]),
            tuple([*filter(None, values)]))


def row_from_dict(acc: dict) -> tuple:
    """The stored form of a row given as a dict from column to value:
    its nonzero values in increasing column order."""
    cols = sorted(acc)
    vals = [acc[j] for j in cols]
    if all(vals):
        return tuple(cols), tuple(vals)
    return tuple([j for j, v in zip(cols, vals) if v]), tuple([*filter(None, vals)])


def _dense(row: tuple, n: int, zero) -> tuple:
    """The length-``n`` dense row of a stored row."""
    out = [zero] * n
    for j, v in zip(*row):
        out[j] = v
    return tuple(out)


class Matrix:
    """An immutable rows x cols matrix with entries in a fixed field.

    ``entries`` holds one stored row per row: the pair of tuples
    ``(columns, values)`` of its nonzero entries, in increasing column
    order.  Values are canonical field elements, so a value is zero
    exactly when it is falsy.  ``data`` is the dense view, built anew on
    every read.
    """

    __slots__ = ("field", "rows", "cols", "entries")

    def __init__(self, field, rows: int, cols: int, data):
        coerce = field.coerce
        data = [[coerce(v) for v in row] for row in data]
        if len(data) != rows or any(len(r) != cols for r in data):
            raise DimensionMismatch("matrix data does not match declared shape")
        self.field = field
        self.rows = rows
        self.cols = cols
        self.entries = tuple([row_from_dense(row) for row in data])

    @classmethod
    def _from_entries(cls, field, rows: int, cols: int, entries) -> "Matrix":
        """The matrix with the stored rows ``entries`` (a list or tuple),
        taken as they are."""
        m = object.__new__(cls)
        m.field = field
        m.rows = rows
        m.cols = cols
        m.entries = tuple(entries)
        return m

    @classmethod
    def from_rows(cls, field, rows: Sequence[Sequence], cols: Optional[int] = None) -> "Matrix":
        if rows:
            cols = len(rows[0])
        elif cols is None:
            raise DimensionMismatch("empty matrix needs an explicit column count")
        return cls(field, len(rows), cols, rows)

    @classmethod
    def from_columns(cls, field, columns: Sequence[Sequence], rows: Optional[int] = None) -> "Matrix":
        if columns:
            rows = len(columns[0])
        elif rows is None:
            raise DimensionMismatch("empty matrix needs an explicit row count")
        return cls(field, rows, len(columns),
                   [[col[i] for col in columns] for i in range(rows)])

    @classmethod
    def zeros(cls, field, rows: int, cols: int) -> "Matrix":
        return cls._from_entries(field, rows, cols, (((), ()),) * rows)

    @classmethod
    def identity(cls, field, n: int) -> "Matrix":
        one = (field.one,)
        return cls._from_entries(field, n, n, [((i,), one) for i in range(n)])

    @classmethod
    def column_vector(cls, field, entries: Sequence) -> "Matrix":
        return cls.from_rows(field, [[v] for v in entries], cols=1)

    @classmethod
    def unit_vector(cls, field, n: int, i: int) -> "Matrix":
        one = ((0,), (field.one,))
        return cls._from_entries(field, n, 1, [one if j == i else ((), ()) for j in range(n)])

    @property
    def data(self) -> tuple:
        """The dense rows, as tuples of field elements."""
        zero = self.field.zero
        return tuple([_dense(row, self.cols, zero) for row in self.entries])

    def _check_same_field(self, other: "Matrix"):
        if self.field != other.field:
            raise FieldMismatch(f"{self.field} vs {other.field}")

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_same_field(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("matrix addition shape mismatch")
        add = self.field.add
        out = []
        for ra, rb in zip(self.entries, other.entries):
            if not (ra[0] and rb[0]):
                out.append(ra if ra[0] else rb)
                continue
            acc = dict(zip(*ra))
            for j, b in zip(*rb):
                acc[j] = add(acc[j], b) if j in acc else b
            out.append(row_from_dict(acc))
        return Matrix._from_entries(self.field, self.rows, self.cols, out)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + (-other)

    def __neg__(self) -> "Matrix":
        neg = self.field.neg
        return Matrix._from_entries(self.field, self.rows, self.cols,
                                    [(cols, tuple([neg(v) for v in vals]))
                                     for cols, vals in self.entries])

    def __matmul__(self, other: "Matrix") -> "Matrix":
        self._check_same_field(other)
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        f = self.field
        add, mul, zero = f.add, f.mul, f.zero
        # Row-sparse (Gustavson) product: row i of the result accumulates
        # a . other[k] over the stored a = self[i][k] and the stored
        # entries of other[k] only.
        right = other.entries
        out = []
        for cols, vals in self.entries:
            acc = {}
            for k, a in zip(cols, vals):
                for j, b in zip(*right[k]):
                    acc[j] = add(acc.get(j, zero), mul(a, b))
            out.append(row_from_dict(acc) if acc else ((), ()))
        return Matrix._from_entries(f, self.rows, other.cols, out)

    def scale(self, scalar) -> "Matrix":
        scalar = self.field.coerce(scalar)
        if not scalar:
            return Matrix.zeros(self.field, self.rows, self.cols)
        mul = self.field.mul
        return Matrix._from_entries(self.field, self.rows, self.cols,
                                    [(cols, tuple([mul(scalar, v) for v in vals]))
                                     for cols, vals in self.entries])

    def transpose(self) -> "Matrix":
        rows = [[] for _ in range(self.cols)]
        vals = [[] for _ in range(self.cols)]
        for i, row in enumerate(self.entries):
            for j, v in zip(*row):
                rows[j].append(i)
                vals[j].append(v)
        return Matrix._from_entries(self.field, self.cols, self.rows,
                                    [(tuple(r), tuple(v)) for r, v in zip(rows, vals)])

    # -- structure ----------------------------------------------------

    def entry(self, i: int, j: int):
        cols, vals = self.entries[i]
        k = bisect_left(cols, j)
        return vals[k] if k < len(cols) and cols[k] == j else self.field.zero

    def column(self, j: int) -> tuple:
        return tuple([self.entry(i, j) for i in range(self.rows)])

    def column_matrix(self, j: int) -> "Matrix":
        return self.submatrix(range(self.rows), (j,))

    def columns(self) -> list:
        zero = self.field.zero
        return [_dense(col, self.rows, zero) for col in self.transpose().entries]

    def submatrix(self, row_range, col_range) -> "Matrix":
        rows = [self.entries[i] for i in row_range]
        if col_range != range(self.cols):
            where = {}
            for k, c in enumerate(col_range):
                where.setdefault(c, []).append(k)
            rows = [row_from_dict({k: v for j, v in zip(*row) for k in where.get(j, ())})
                    for row in rows]
        return Matrix._from_entries(self.field, len(rows), len(col_range), rows)

    def is_zero(self) -> bool:
        return not any(cols for cols, _ in self.entries)

    def is_upper_triangular(self) -> bool:
        return all(not cols or cols[0] >= i for i, (cols, _) in enumerate(self.entries))

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.field == other.field
                and self.rows == other.rows and self.cols == other.cols
                and self.entries == other.entries)

    def __hash__(self):
        return hash((self.field, self.rows, self.cols, self.entries))

    def __repr__(self):
        body = "; ".join(" ".join(self.field.fmt(a) for a in row) for row in self.data)
        return f"Matrix({self.rows}x{self.cols} over {self.field}: [{body}])"

    def rank(self) -> int:
        return rref(self)[1]

    def is_injective(self) -> bool:
        """Whether the columns are linearly independent."""
        return self.rank() == self.cols


def _check_fields(mats: Sequence[Matrix]):
    for m in mats[1:]:
        mats[0]._check_same_field(m)


def _shifted(row: tuple, offset: int) -> tuple:
    """A stored row moved ``offset`` columns to the right."""
    cols, vals = row
    return tuple([offset + j for j in cols]), vals


def hstack(*mats: Matrix) -> Matrix:
    _check_fields(mats)
    rows = mats[0].rows
    if any(m.rows != rows for m in mats):
        raise DimensionMismatch("hstack row mismatch")
    offsets = [0]
    for m in mats:
        offsets.append(offsets[-1] + m.cols)
    out = []
    for (cols, vals), *parts in zip(*(m.entries for m in mats)):
        for row, offset in zip(parts, offsets[1:]):
            if row[0]:
                row_cols, row_vals = _shifted(row, offset)
                cols += row_cols
                vals += row_vals
        out.append((cols, vals))
    return Matrix._from_entries(mats[0].field, rows, offsets[-1], out)


def vstack(*mats: Matrix) -> Matrix:
    _check_fields(mats)
    cols = mats[0].cols
    if any(m.cols != cols for m in mats):
        raise DimensionMismatch("vstack column mismatch")
    out = [row for m in mats for row in m.entries]
    return Matrix._from_entries(mats[0].field, len(out), cols, out)


def block_diag(*mats: Matrix) -> Matrix:
    _check_fields(mats)
    out = []
    offset = 0
    for m in mats:
        out.extend(_shifted(row, offset) for row in m.entries)
        offset += m.cols
    return Matrix._from_entries(mats[0].field, len(out), offset, out)


def _int_row(row: tuple, n: int, p: int) -> list:
    """The length-``n`` int form of a stored row: canonical residues over
    GF(p) as they are; over QQ (``p`` is 0) the row times the lcm of its
    values' denominators."""
    out = [0] * n
    cols, vals = row
    if p:
        for j, v in zip(cols, vals):
            out[j] = v
        return out
    ratios = [v.as_integer_ratio() for v in vals]
    den = lcm(*[d for _, d in ratios])
    for j, (num, d) in zip(cols, ratios):
        out[j] = num * (den // d)
    return out


def _pivot_row(row: list, c: int, p: int) -> list:
    """The nonzero ``(column, value)`` entries of the int ``row``, whose
    first nonzero entry sits at ``c``; over GF(p) the row is first scaled
    in place so that this pivot is one."""
    nonzeros = [(j, v) for j, v in enumerate(row[c:], c) if v]
    if p and row[c] != 1:
        inv = pow(row[c], -1, p)
        nonzeros = [(j, v * inv % p) for j, v in nonzeros]
        for j, v in nonzeros:
            row[j] = v
    return nonzeros


def _eliminate(row: list, c: int, pivot: list, p: int) -> list:
    """Clear column ``c`` of the int ``row`` with the pivot row given by its
    nonzero entries ``pivot`` (first entry at ``c``); return the new row.

    Over GF(p) the pivot is one and only the pivot row's columns change.
    Over QQ (``p`` is 0) the step is fraction-free: with pivot ``pv`` and
    ``g = gcd(pv, f)`` for ``f = row[c]``, the row becomes
    ``(pv/g) row - (f/g) pivot`` divided by its content.
    """
    f = row[c]
    if p:
        for j, y in pivot:
            row[j] = (row[j] - f * y) % p
        return row
    pv = pivot[0][1]
    g = gcd(pv, f)
    if g != pv:
        scale = pv // g
        row = [scale * x for x in row]
    f //= g
    for j, y in pivot:
        row[j] -= f * y
    g = gcd(*row)
    if g > 1:
        row = [x // g for x in row]
    return row


def rref(m: Matrix) -> tuple[Matrix, int, tuple[int, ...]]:
    """Reduced row echelon form of ``m``.

    Returns ``(echelon, rank, pivot_columns)``.  Deterministic: pivots are
    chosen leftmost first, within a column the first nonzero row wins.
    Elimination runs on int rows (``_int_row``); each step touches only
    the pivot row's nonzero entries, except that a fraction-free QQ step
    rescales the whole row.  Over QQ the pivot rows are divided by their
    pivots at the end, which gives the unique RREF.
    """
    field = m.field
    p = field.characteristic
    a = [_int_row(row, m.cols, p) for row in m.entries]
    pivots = []
    r = 0
    for c in range(m.cols):
        if r == m.rows:
            break
        for pr in range(r, m.rows):
            if a[pr][c]:
                break
        else:
            continue
        if pr != r:
            a[r], a[pr] = a[pr], a[r]
        nonzeros = _pivot_row(a[r], c, p)
        for i, row in enumerate(a):
            if row[c] and i != r:
                a[i] = _eliminate(row, c, nonzeros, p)
        pivots.append(c)
        r += 1
    out = [row_from_dense(row) for row in a[:r]]
    if not p:
        out = [(cols, tuple([Fraction(v, vals[0]) for v in vals])) for cols, vals in out]
    out.extend([((), ())] * (m.rows - r))
    return Matrix._from_entries(field, m.rows, m.cols, out), r, tuple(pivots)


def solve_right(a: Matrix, b: Matrix) -> Optional[Matrix]:
    """A particular solution X of ``a @ X = b``, or None if inconsistent.

    Deterministic: free variables are set to zero.
    """
    a._check_same_field(b)
    if a.rows != b.rows:
        raise DimensionMismatch("solve_right row mismatch")
    aug = hstack(a, b)
    ech, _, pivots = rref(aug)
    if any(p >= a.cols for p in pivots):
        return None
    n = a.cols
    out = [((), ())] * n
    for r, p in enumerate(pivots):
        cols, vals = ech.entries[r]
        k = bisect_left(cols, n)
        out[p] = tuple([j - n for j in cols[k:]]), vals[k:]
    return Matrix._from_entries(a.field, n, b.cols, out)


def inverse(a: Matrix) -> Optional[Matrix]:
    if a.rows != a.cols:
        raise DimensionMismatch("only square matrices have inverses")
    return solve_right(a, Matrix.identity(a.field, a.rows))


def combination(coeffs: Sequence, mats: Sequence[Matrix]) -> Matrix:
    """The linear combination sum_k coeffs[k] . mats[k] of one or more
    equally shaped matrices; zero coefficients are skipped."""
    first = mats[0]
    acc = Matrix.zeros(first.field, first.rows, first.cols)
    for c, mat in zip(coeffs, mats):
        if not first.field.is_zero(c):
            acc = acc + mat.scale(c)
    return acc


def first_combination(mats: Sequence[Matrix], test: Callable[[Matrix], bool],
                      points: Optional[Iterable[Sequence]] = None
                      ) -> Optional[Matrix]:
    """The first ``combination(coeffs, mats)`` that passes ``test``, with
    coeffs running through ``points`` in order (by default every vector
    over the finite field, lexicographically); None when none passes."""
    if points is None:
        points = product(mats[0].field.elements(), repeat=len(mats))
    for coeffs in points:
        acc = combination(coeffs, mats)
        if test(acc):
            return acc
    return None


class EchelonTracker:
    """Incremental row-reduction used by greedy basis extension loops.

    Vectors are reduced as int rows, with the same step as ``rref``.  Each
    one that enlarges the span is stored once, as the list of its nonzero
    ``(column, value)`` entries (over GF(p) scaled to a leading one) keyed
    by its leading (pivot) column.  The stored rows are in echelon form,
    so reducing a vector by them in increasing pivot order leaves zero
    exactly when it lies in their span.
    """

    def __init__(self, field, dim: int):
        self.field = field
        self.dim = dim
        self.rows: dict[int, list] = {}

    def _reduce(self, entries: Iterable) -> list:
        f = self.field
        values = [f.coerce(v) for v in entries]
        vec = _int_row(row_from_dense(values), len(values), f.characteristic)
        for c in sorted(self.rows):
            if vec[c]:
                vec = _eliminate(vec, c, self.rows[c], f.characteristic)
        return vec

    def add(self, entries: Iterable) -> bool:
        """Insert a vector; True if it enlarged the span."""
        vec = self._reduce(entries)
        c = next((i for i, v in enumerate(vec) if v), None)
        if c is None:
            return False
        self.rows[c] = _pivot_row(vec, c, self.field.characteristic)
        return True

    def contains(self, entries: Iterable) -> bool:
        return not any(self._reduce(entries))

    @property
    def rank(self) -> int:
        return len(self.rows)


class Subspace:
    """A subspace of k^n held by a canonical reduced-column-echelon basis.

    Two subspaces are equal iff their basis matrices are identical, so
    structural equality is set equality.
    """

    __slots__ = ("field", "ambient_dim", "basis")

    def __init__(self, field, ambient_dim: int, basis: Matrix):
        self.field = field
        self.ambient_dim = ambient_dim
        self.basis = basis

    @classmethod
    def from_columns(cls, mat: Matrix) -> "Subspace":
        return _row_span(mat.transpose())

    @classmethod
    def zero(cls, field, ambient_dim: int) -> "Subspace":
        return cls(field, ambient_dim, Matrix.zeros(field, ambient_dim, 0))

    @classmethod
    def full(cls, field, ambient_dim: int) -> "Subspace":
        return cls(field, ambient_dim, Matrix.identity(field, ambient_dim))

    @property
    def dim(self) -> int:
        return self.basis.cols

    def is_zero(self) -> bool:
        return self.dim == 0

    def is_full(self) -> bool:
        return self.dim == self.ambient_dim

    def __eq__(self, other):
        return (isinstance(other, Subspace) and self.field == other.field
                and self.ambient_dim == other.ambient_dim and self.basis == other.basis)

    def __hash__(self):
        return hash((self.ambient_dim, self.basis))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of k^{self.ambient_dim} over {self.field})"

    def pivot_rows(self) -> list[int]:
        """The rows of the basis columns' leading ones; the basis is the
        identity on them."""
        # Column k's pivot row is the first row whose last entry is in
        # column k: later columns are zero there, column k is not.
        out = []
        for i, (cols, _) in enumerate(self.basis.entries):
            if cols and cols[-1] == len(out):
                out.append(i)
        return out

    def coordinates(self, mat: Matrix) -> Optional[Matrix]:
        """The X with ``basis @ X = mat``: ``mat`` read at the pivot rows,
        or None when a column of ``mat`` leaves the span."""
        x = mat.submatrix(self.pivot_rows(), range(mat.cols))
        return x if self.basis @ x == mat else None

    def contains_vector(self, vec: Matrix) -> bool:
        if vec.rows != self.ambient_dim:
            raise DimensionMismatch("vector does not live in the ambient space")
        return self.coordinates(vec) is not None

    def contains(self, other: "Subspace") -> bool:
        if other.ambient_dim != self.ambient_dim:
            raise DimensionMismatch("ambient dimensions differ")
        return self.coordinates(other.basis) is not None

    def sum(self, other: "Subspace") -> "Subspace":
        if other.ambient_dim != self.ambient_dim:
            raise DimensionMismatch("ambient dimensions differ")
        return Subspace.from_columns(hstack(self.basis, other.basis))

    def intersect(self, other: "Subspace") -> "Subspace":
        if other.ambient_dim != self.ambient_dim:
            raise DimensionMismatch("ambient dimensions differ")
        return Subspace.from_columns(
            self.basis @ preimage(self.basis, other).basis)

    def left_annihilator(self) -> Matrix:
        """Rows spanning { r : r . basis = 0 }; empty for the full space."""
        ker = kernel(self.basis.transpose())
        return ker.basis.transpose()

    def complement_basis(self, within: Optional["Subspace"] = None) -> Matrix:
        """Columns extending a basis of self to a basis of ``within``.

        Greedy and deterministic: ambient unit vectors are tried first,
        then the echelon basis of ``within``.
        """
        if within is None:
            within = Subspace.full(self.field, self.ambient_dim)
        if not within.contains(self):
            raise NotContained("subspace is not contained in the given space")
        tracker = EchelonTracker(self.field, self.ambient_dim)
        for col in self.basis.columns():
            tracker.add(col)
        need = within.dim - self.dim
        chosen = []
        if need > 0:
            # In reduced column echelon form e_i lies in ``within`` iff it
            # is a basis column, one with a single nonzero entry.
            candidates = within.basis.columns()
            candidates[:0] = [c for c, (rows, _) in
                              zip(candidates, within.basis.transpose().entries)
                              if len(rows) == 1]
            for cand in candidates:
                if tracker.add(cand):
                    chosen.append(cand)
                    if len(chosen) == need:
                        break
        return Matrix.from_columns(self.field, chosen, rows=self.ambient_dim)


def _row_span(m: Matrix) -> Subspace:
    """The span of the rows of ``m`` in k^cols: its canonical basis is the
    transpose of the nonzero rows of ``rref(m)``."""
    ech, rank, _ = rref(m)
    rows = Matrix._from_entries(m.field, rank, m.cols, ech.entries[:rank])
    return Subspace(m.field, m.cols, rows.transpose())


def kernel(m: Matrix) -> Subspace:
    """The solution space of m . v = 0 inside k^cols.

    One solution per free column j: one at j and minus column j of the
    echelon form at the pivot columns, which all lie left of j; these
    rows are then reduced to the canonical basis."""
    ech, _, pivots = rref(m)
    field = m.field
    neg, one = field.neg, field.one
    pivot_set = set(pivots)
    solutions = [(tuple([pivots[r] for r in rows] + [j]),
                  tuple([neg(v) for v in vals] + [one]))
                 for j, (rows, vals) in enumerate(ech.transpose().entries)
                 if j not in pivot_set]
    return _row_span(Matrix._from_entries(field, len(solutions), m.cols, solutions))


def image(m: Matrix) -> Subspace:
    return Subspace.from_columns(m)


def preimage(m: Matrix, s: Subspace) -> Subspace:
    """{ v : m . v lies in s }: the kernel of m minus s's basis times m
    read at s's pivot rows, which is zero exactly on the span of s."""
    if s.ambient_dim != m.rows:
        raise DimensionMismatch("subspace does not live in the codomain")
    return kernel(m - s.basis @ m.submatrix(s.pivot_rows(), range(m.cols)))
