"""Exact matrices and canonical subspaces.

Matrices are stored densely, as tuples of field elements, and products
run over the nonzero entries of both factors through the field object.
Elimination (``rref`` and ``EchelonTracker``) runs on rows of plain ints
instead: canonical residues over GF(p), and over QQ each row cleared of
denominators and reduced fraction-free, with its content divided out
after every step; only the final pivot rows become ``Fraction``s again.

Everything here is immutable and pure.  Subspaces are kept in a canonical
reduced column echelon basis so that two subspaces are equal if and only
if their basis matrices are structurally equal; submodule chains elsewhere
in the library terminate by exactly this equality test.

Pivoting is deterministic (leftmost pivot, first nonzero row), so all
derived bases are reproducible bit for bit across runs.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import gcd, lcm
from typing import Callable, Iterable, Optional, Sequence

from .errors import DimensionMismatch, FieldMismatch, NotContained


class Matrix:
    """An immutable rows x cols matrix with entries in a fixed field."""

    __slots__ = ("field", "rows", "cols", "data")

    def __init__(self, field, rows: int, cols: int, data):
        self.field = field
        self.rows = rows
        self.cols = cols
        self.data = tuple(tuple(row) for row in data)
        if len(self.data) != rows or any(len(r) != cols for r in self.data):
            raise DimensionMismatch("matrix data does not match declared shape")

    @classmethod
    def from_rows(cls, field, rows: Sequence[Sequence], cols: Optional[int] = None) -> "Matrix":
        rows = [[field.coerce(v) for v in row] for row in rows]
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
        data = [[field.coerce(col[i]) for col in columns] for i in range(rows)]
        return cls(field, rows, len(columns), data)

    @classmethod
    def zeros(cls, field, rows: int, cols: int) -> "Matrix":
        z = field.zero
        return cls(field, rows, cols, [[z] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, field, n: int) -> "Matrix":
        z, o = field.zero, field.one
        return cls(field, n, n, [[o if i == j else z for j in range(n)] for i in range(n)])

    @classmethod
    def column_vector(cls, field, entries: Sequence) -> "Matrix":
        return cls.from_rows(field, [[v] for v in entries], cols=1)

    @classmethod
    def unit_vector(cls, field, n: int, i: int) -> "Matrix":
        z, o = field.zero, field.one
        return cls(field, n, 1, [[o if j == i else z] for j in range(n)])

    def _check_same_field(self, other: "Matrix"):
        if self.field != other.field:
            raise FieldMismatch(f"{self.field} vs {other.field}")

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_same_field(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("matrix addition shape mismatch")
        add = self.field.add
        return Matrix(self.field, self.rows, self.cols,
                      [[add(a, b) for a, b in zip(ra, rb)]
                       for ra, rb in zip(self.data, other.data)])

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + (-other)

    def __neg__(self) -> "Matrix":
        neg = self.field.neg
        return Matrix(self.field, self.rows, self.cols,
                      [[neg(a) for a in row] for row in self.data])

    def __matmul__(self, other: "Matrix") -> "Matrix":
        self._check_same_field(other)
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        f = self.field
        add, mul, is_zero, zero = f.add, f.mul, f.is_zero, f.zero
        # Row-sparse (Gustavson) product: row i of the result accumulates
        # a . other[k] over the nonzero a = self[i][k] only, and each
        # other[k] contributes only its nonzero entries.
        other_nonzeros = [[(j, b) for j, b in enumerate(row) if not is_zero(b)]
                          for row in other.data]
        out = []
        for row in self.data:
            acc = [zero] * other.cols
            for a, nonzeros in zip(row, other_nonzeros):
                if nonzeros and not is_zero(a):
                    for j, b in nonzeros:
                        acc[j] = add(acc[j], mul(a, b))
            out.append(acc)
        return Matrix(f, self.rows, other.cols, out)

    def scale(self, scalar) -> "Matrix":
        scalar = self.field.coerce(scalar)
        mul = self.field.mul
        return Matrix(self.field, self.rows, self.cols,
                      [[mul(scalar, a) for a in row] for row in self.data])

    def transpose(self) -> "Matrix":
        if self.rows == 0 or self.cols == 0:
            return Matrix.zeros(self.field, self.cols, self.rows)
        return Matrix(self.field, self.cols, self.rows, list(zip(*self.data)))

    # -- structure ----------------------------------------------------

    def entry(self, i: int, j: int):
        return self.data[i][j]

    def column(self, j: int) -> tuple:
        return tuple(row[j] for row in self.data)

    def column_matrix(self, j: int) -> "Matrix":
        return Matrix(self.field, self.rows, 1, [[row[j]] for row in self.data])

    def columns(self) -> list:
        return [self.column(j) for j in range(self.cols)]

    def submatrix(self, row_range, col_range) -> "Matrix":
        rows = [[self.data[i][j] for j in col_range] for i in row_range]
        return Matrix(self.field, len(list(row_range)), len(list(col_range)), rows)

    def is_zero(self) -> bool:
        z = self.field.is_zero
        return all(z(a) for row in self.data for a in row)

    def is_upper_triangular(self) -> bool:
        z = self.field.is_zero
        return all(z(self.data[i][j]) for i in range(self.rows) for j in range(min(i, self.cols)))

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.field == other.field
                and self.rows == other.rows and self.cols == other.cols
                and self.data == other.data)

    def __hash__(self):
        return hash((self.field, self.rows, self.cols, self.data))

    def __repr__(self):
        body = "; ".join(" ".join(self.field.fmt(a) for a in row) for row in self.data)
        return f"Matrix({self.rows}x{self.cols} over {self.field}: [{body}])"

    def rank(self) -> int:
        return rref(self)[1]

    def is_injective(self) -> bool:
        """Whether the columns are linearly independent."""
        return self.rank() == self.cols


def hstack(*mats: Matrix) -> Matrix:
    mats = [m for m in mats]
    rows = mats[0].rows
    field = mats[0].field
    for m in mats:
        if m.rows != rows:
            raise DimensionMismatch("hstack row mismatch")
    data = [sum((list(m.data[i]) for m in mats), []) for i in range(rows)]
    return Matrix(field, rows, sum(m.cols for m in mats), data)


def vstack(*mats: Matrix) -> Matrix:
    cols = mats[0].cols
    field = mats[0].field
    for m in mats:
        if m.cols != cols:
            raise DimensionMismatch("vstack column mismatch")
    data = [row for m in mats for row in m.data]
    return Matrix(field, sum(m.rows for m in mats), cols, data)


def block_diag(*mats: Matrix) -> Matrix:
    field = mats[0].field
    rows = sum(m.rows for m in mats)
    cols = sum(m.cols for m in mats)
    out = [[field.zero] * cols for _ in range(rows)]
    r = c = 0
    for m in mats:
        for i, row in enumerate(m.data):
            out[r + i][c:c + m.cols] = row
        r += m.rows
        c += m.cols
    return Matrix(field, rows, cols, out)


def _int_row(row, p: int, zero) -> list:
    """``row`` as plain ints: canonical residues over GF(p); over QQ (``p``
    is 0) the row times the lcm of its nonzero entries' denominators.
    Most QQ zeros are the field's shared ``zero``, which an identity test
    skips without a ``Fraction`` method call."""
    if p:
        return [v % p for v in row]
    ratios = [(j, v.as_integer_ratio()) for j, v in enumerate(row)
              if v is not zero and v]
    den = lcm(*[d for _, (_, d) in ratios])
    out = [0] * len(row)
    for j, (n, d) in ratios:
        out[j] = n * (den // d)
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
    a = [_int_row(row, p, field.zero) for row in m.data]
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
    if not p:
        # A pivot row is zero left of its pivot c and one at c.
        zero, one = field.zero, field.one
        a = [[zero] * c + [one]
             + [Fraction(v, row[c]) if v else zero for v in row[c + 1:]]
             for row, c in zip(a, pivots)]
        a.extend([zero] * m.cols for _ in range(m.rows - r))
    return Matrix(field, m.rows, m.cols, a), r, tuple(pivots)


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
    field = a.field
    out = [[field.zero] * b.cols for _ in range(a.cols)]
    for r, p in enumerate(pivots):
        out[p] = list(ech.data[r][a.cols:])
    return Matrix(field, a.cols, b.cols, out)


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
        vec = _int_row([f.coerce(v) for v in entries], f.characteristic, f.zero)
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
        ech, rank, _ = rref(mat.transpose())
        basis = Matrix(mat.field, rank, mat.rows, ech.data[:rank]).transpose()
        return cls(mat.field, mat.rows, basis)

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
        return [next(i for i, v in enumerate(col) if not self.field.is_zero(v))
                for col in self.basis.columns()]

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
        for j in range(self.dim):
            tracker.add(self.basis.column(j))
        need = within.dim - self.dim
        chosen = []
        if need > 0:
            # In reduced column echelon form e_i lies in ``within`` iff it
            # is a basis column, one with a single nonzero entry.
            candidates = within.basis.columns()
            candidates[:0] = [c for c in candidates
                              if sum(not self.field.is_zero(v) for v in c) == 1]
            for cand in candidates:
                if tracker.add(cand):
                    chosen.append(cand)
                    if len(chosen) == need:
                        break
        return Matrix.from_columns(self.field, chosen, rows=self.ambient_dim)


def kernel(m: Matrix) -> Subspace:
    """The solution space of m . v = 0 inside k^cols."""
    ech, rank, pivots = rref(m)
    field = m.field
    pivot_set = set(pivots)
    free = [j for j in range(m.cols) if j not in pivot_set]
    cols = []
    for j in free:
        v = [field.zero] * m.cols
        v[j] = field.one
        for r, p in enumerate(pivots):
            v[p] = field.neg(ech.data[r][j])
        cols.append(v)
    return Subspace.from_columns(Matrix(field, len(cols), m.cols, cols).transpose())


def image(m: Matrix) -> Subspace:
    return Subspace.from_columns(m)


def preimage(m: Matrix, s: Subspace) -> Subspace:
    """{ v : m . v lies in s }: the kernel of m minus s's basis times m
    read at s's pivot rows, which is zero exactly on the span of s."""
    if s.ambient_dim != m.rows:
        raise DimensionMismatch("subspace does not live in the codomain")
    return kernel(m - s.basis @ m.submatrix(s.pivot_rows(), range(m.cols)))
