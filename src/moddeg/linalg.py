"""Exact matrices and canonical subspaces.

Matrices are stored row-sparse: each row once, as the columns of its
nonzero entries in increasing order and their values, with no dense
copy.  A matrix is built one way: the constructor takes stored rows as
they are, and dense values come in only through ``Matrix.from_rows``,
which coerces them and checks the shape.  Sums, transposes, stacks and
slices run over the stored entries only, and so do products, but for one
dense pass noted below.  A product row whose left row holds one stored
entry is the matching right row, as it is or scaled; other product rows
sum plain int products and reduce once per output entry: over GF(p) into
a dense int list of the row's length, read back once as its residues mod
p, so such a row costs O(other.cols) however sparse the right factor is,
and over QQ into a dict, read back as ``Fraction``s over a common
denominator.

Elimination (``rref`` and ``EchelonTracker``) runs on sparse int rows,
dicts from column to value: canonical residues over GF(p), and over QQ
numerators over the row's lcm denominator, reduced fraction-free with the
content divided out after every step.  Both share one step, which
touches only the pivot row's entries and only the pivot columns a row
holds; ``rref`` alone back-substitutes, and only its final pivot rows
become ``Fraction``s again.  A tracker's rows can carry coordinates: with
tag columns past a ``width``, a vector of the span reads its coordinates
in the kept vectors off what is left of it.  Once the kept vectors B span
everything, the coordinates of the unit vector e_r are row r of the
inverse transpose of B, so a caller that needs both eliminates B once.

Each primitive eliminates only as far as its answer needs.
``Matrix.rank`` runs the forward pass alone and counts the pivot rows it
keeps.  ``kernel`` runs one ``rref``, of the matrix with its columns
reversed, whose rows are already the canonical basis of the null space.
``Subspace.intersect`` maps the canonical basis of a preimage through a
canonical basis, which keeps it canonical, and eliminates nothing more.
An input already in reduced column echelon form with no zero column is
read, not eliminated: ``canonical_pivot_rows`` finds its pivot rows in
one pass over its entries, ``Subspace.from_columns`` keeps it as the
basis, and ``solve_right`` reads the right-hand side at those rows and
checks the product.

Everything here is immutable and pure.  A ``Subspace`` is its canonical
basis, the reduced column echelon basis of its span, so that two
subspaces are equal if and only if their basis matrices are structurally
equal; submodule chains elsewhere in the library terminate by exactly
this equality test.  The constructor takes the basis alone, checks that
it is canonical, and keeps its pivot rows, which ``coordinates``,
``contains``, ``preimage`` and ``intersect`` read without a further pass.

The reduced echelon form of a matrix is unique, so the order in which
elimination meets its pivots does not show: all derived bases are
reproducible bit for bit across runs.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import compress, product
from math import gcd, lcm
from typing import Callable, Iterable, Optional, Sequence

from .errors import (DimensionMismatch, FieldMismatch,
                     InternalInvariantViolation, NotContained)


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
    exactly when it is falsy.  The constructor takes the stored rows as
    they are, unchecked; ``from_rows`` builds a matrix from dense values.
    ``data`` is the dense view, built anew on every read.
    """

    __slots__ = ("field", "rows", "cols", "entries")

    def __init__(self, field, rows: int, cols: int, entries):
        self.field = field
        self.rows = rows
        self.cols = cols
        self.entries = tuple(entries)

    @classmethod
    def from_rows(cls, field, rows: Sequence[Sequence], cols: Optional[int] = None) -> "Matrix":
        """The matrix of the dense rows ``rows``, each value coerced into
        ``field``; ``cols`` is needed only when there are no rows."""
        if rows:
            if cols is not None and cols != len(rows[0]):
                raise DimensionMismatch(f"rows have {len(rows[0])} entries, not {cols}")
            cols = len(rows[0])
        elif cols is None:
            raise DimensionMismatch("empty matrix needs an explicit column count")
        coerce = field.coerce
        data = [[coerce(v) for v in row] for row in rows]
        if any(len(row) != cols for row in data):
            raise DimensionMismatch("matrix data does not match declared shape")
        return cls(field, len(data), cols, [row_from_dense(row) for row in data])

    @classmethod
    def zeros(cls, field, rows: int, cols: int) -> "Matrix":
        return cls(field, rows, cols, (((), ()),) * rows)

    @classmethod
    def identity(cls, field, n: int) -> "Matrix":
        one = (field.one,)
        return cls(field, n, n, [((i,), one) for i in range(n)])

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
        return Matrix(self.field, self.rows, self.cols, out)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + (-other)

    def __neg__(self) -> "Matrix":
        neg = self.field.neg
        return Matrix(self.field, self.rows, self.cols,
                      [(cols, tuple([neg(v) for v in vals])) for cols, vals in self.entries])

    def __matmul__(self, other: "Matrix") -> "Matrix":
        self._check_same_field(other)
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        f = self.field
        p = f.characteristic
        mul = f.mul
        # Row-sparse (Gustavson) product: row i of the result accumulates
        # a . other[k] over the stored a = self[i][k] and the stored
        # entries of other[k] only.  A row with one stored entry a is
        # other[k] itself when a is one and otherwise other[k] scaled by a,
        # which stays canonical: in a field no product of nonzeros is zero.
        # Other rows sum plain int products, reduced once per output entry:
        # over GF(p) in a dense list of the row's length, read back as its
        # residues mod p, and over QQ in a dict of numerators over the left
        # row's denominator times one common denominator of the right factor.
        right = other.entries
        right_ints = None
        out = []
        for cols, vals in self.entries:
            if len(cols) == 1:
                a = vals[0]
                row = right[cols[0]]
                out.append(row if a == 1 else (row[0], tuple([mul(a, b) for b in row[1]])))
                continue
            if not cols:
                out.append(((), ()))
                continue
            if p:
                acc = [0] * other.cols
                for k, a in zip(cols, vals):
                    for j, b in zip(*right[k]):
                        acc[j] += a * b
                out.append(row_from_dense([v % p for v in acc]))
                continue
            acc = {}
            if right_ints is None:
                den = lcm(*[v.denominator for _, vals_k in right for v in vals_k])
                right_ints = [(cols_k, [v.numerator * (den // v.denominator) for v in vals_k])
                              for cols_k, vals_k in right]
            ratios = [a.as_integer_ratio() for a in vals]
            row_den = lcm(*[d for _, d in ratios])
            for k, (num, d) in zip(cols, ratios):
                a = num * (row_den // d)
                for j, b in zip(*right_ints[k]):
                    acc[j] = acc.get(j, 0) + a * b
            row_den *= den
            out.append(row_from_dict({j: Fraction(v, row_den) for j, v in acc.items()}))
        return Matrix(f, self.rows, other.cols, out)

    def scale(self, scalar) -> "Matrix":
        scalar = self.field.coerce(scalar)
        if not scalar:
            return Matrix.zeros(self.field, self.rows, self.cols)
        mul = self.field.mul
        return Matrix(self.field, self.rows, self.cols,
                      [(cols, tuple([mul(scalar, v) for v in vals]))
                       for cols, vals in self.entries])

    def transpose(self) -> "Matrix":
        rows = [[] for _ in range(self.cols)]
        vals = [[] for _ in range(self.cols)]
        for i, row in enumerate(self.entries):
            for j, v in zip(*row):
                rows[j].append(i)
                vals[j].append(v)
        return Matrix(self.field, self.cols, self.rows,
                      [(tuple(r), tuple(v)) for r, v in zip(rows, vals)])

    # -- structure ----------------------------------------------------

    def entry(self, i: int, j: int):
        cols, vals = self.entries[i]
        k = bisect_left(cols, j)
        return vals[k] if k < len(cols) and cols[k] == j else self.field.zero

    def column_matrix(self, j: int) -> "Matrix":
        return self.submatrix(range(self.rows), (j,))

    def submatrix(self, row_range, col_range) -> "Matrix":
        rows = [self.entries[i] for i in row_range]
        if col_range != range(self.cols):
            where = {}
            for k, c in enumerate(col_range):
                where.setdefault(c, []).append(k)
            rows = [row_from_dict({k: v for j, v in zip(*row) for k in where.get(j, ())})
                    for row in rows]
        return Matrix(self.field, len(rows), len(col_range), rows)

    def is_zero(self) -> bool:
        return not any(cols for cols, _ in self.entries)

    def is_upper_triangular(self) -> bool:
        return all(not cols or cols[0] >= i for i, (cols, _) in enumerate(self.entries))

    def is_lower_triangular(self) -> bool:
        return all(not cols or cols[-1] <= i for i, (cols, _) in enumerate(self.entries))

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
        """The number of pivot rows the forward pass of ``rref`` keeps
        (``_insert``): no back-substitution and no ``Fraction`` is built."""
        p = self.field.characteristic
        pivots = {}
        for row in self.entries:
            if row[0]:
                _insert(row, pivots, p)
        return len(pivots)

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
    return Matrix(mats[0].field, rows, offsets[-1], out)


def vstack(*mats: Matrix) -> Matrix:
    _check_fields(mats)
    cols = mats[0].cols
    if any(m.cols != cols for m in mats):
        raise DimensionMismatch("vstack column mismatch")
    out = [row for m in mats for row in m.entries]
    return Matrix(mats[0].field, len(out), cols, out)


def block_diag(*mats: Matrix) -> Matrix:
    _check_fields(mats)
    out = []
    offset = 0
    for m in mats:
        out.extend(_shifted(row, offset) for row in m.entries)
        offset += m.cols
    return Matrix(mats[0].field, len(out), offset, out)


def _int_entries(row: tuple, p: int) -> dict:
    """The sparse int form ``{column: value}`` of a stored row: canonical
    residues over GF(p) as they are; over QQ (``p`` is 0) the numerators
    of the row times the lcm of its values' denominators."""
    cols, vals = row
    if p:
        return dict(zip(cols, vals))
    ratios = [v.as_integer_ratio() for v in vals]
    den = lcm(*[d for _, d in ratios])
    return {j: num * (den // d) for j, (num, d) in zip(cols, ratios)}


def _reduce(row: dict, pivots: dict, p: int) -> dict:
    """Reduce the sparse int ``row`` in place by the pivot rows
    ``pivots`` (sparse int rows keyed by their leading column), in
    increasing column order and only at pivot columns the row holds.

    Clearing column ``c`` touches only the pivot row's entries.  Over
    GF(p) the pivot is one: ``row[j] -= f * pivot[j]`` mod p, with
    ``f = row[c]``.  Over QQ (``p`` is 0) the step is fraction-free: with
    pivot ``pv`` and ``g = gcd(pv, f)`` the row becomes
    ``(pv/g) row - (f/g) pivot``, divided by its content.  A pivot row's
    other columns lie right of ``c``, so fill-in is queued and cleared in
    the same pass.
    """
    todo = [j for j in row if j in pivots]
    heapify(todo)
    while todo:
        c = heappop(todo)
        f = row.get(c)
        if f is None:
            continue
        pivot = pivots[c]
        if not p:
            pv = pivot[c]
            g = gcd(pv, f)
            if g != pv:
                scale = pv // g
                for j in row:
                    row[j] *= scale
            f //= g
        for j, y in pivot.items():
            if j in row:
                v = row[j] - f * y
                if p:
                    v %= p
                if v:
                    row[j] = v
                else:
                    del row[j]
            else:
                row[j] = -f * y % p if p else -f * y
                if j in pivots:
                    heappush(todo, j)
        if not p and row:
            g = gcd(*row.values())
            if g > 1:
                for j in row:
                    row[j] //= g
    return row


def _insert(row: tuple, pivots: dict, p: int, width: Optional[int] = None) -> dict:
    """Reduce the stored ``row`` by ``pivots`` and return what is left, a
    sparse int row.  If it holds an entry left of column ``width`` (any
    entry when ``width`` is None), it is kept as the pivot row of its
    leading column, over GF(p) scaled so that this entry is one."""
    row = _reduce(_int_entries(row, p), pivots, p)
    if row:
        c = min(row)
        if width is None or c < width:
            if p and row[c] != 1:
                inv = pow(row[c], -1, p)
                row = {j: v * inv % p for j, v in row.items()}
            pivots[c] = row
    return row


def rref(m: Matrix) -> tuple[Matrix, int, tuple[int, ...]]:
    """Reduced row echelon form of ``m``.

    Returns ``(echelon, rank, pivot_columns)``.  Elimination runs on
    sparse int rows (``_int_entries``) with the steps ``EchelonTracker``
    uses too: a forward pass reduces each row of ``m.entries`` by the
    pivot rows found so far and keeps it as a new pivot row if anything
    is left (``_insert``); back-substitution then clears each pivot row
    by the ones right of it (``_reduce``), in decreasing pivot order, and
    divides it by its leading entry once.  The reduced echelon form of a
    matrix is unique, so the order in which pivots are found does not
    change the result.
    """
    field = m.field
    p = field.characteristic
    pivots = {}
    for row in m.entries:
        if row[0]:
            _insert(row, pivots, p)
    order = sorted(pivots)
    done = {}
    for c in reversed(order):
        done[c] = _reduce(pivots[c], done, p)
    out = [row_from_dict(done[c]) for c in order]
    if not p:
        out = [(cols, tuple([Fraction(v, vals[0]) for v in vals])) for cols, vals in out]
    r = len(out)
    out.extend([((), ())] * (m.rows - r))
    return Matrix(field, m.rows, m.cols, out), r, tuple(sorted(pivots))


def canonical_pivot_rows(m: Matrix) -> Optional[list[int]]:
    """The pivot rows of ``m`` when it is in reduced column echelon form
    with no zero column, and None otherwise, from one pass over the
    stored entries.

    The pivot row of column k is the first row with an entry in a column
    k or later: it must hold a single one, at column k.  The rows between
    pivot rows may hold anything in the columns whose pivots lie above."""
    out = []
    for i, (cols, vals) in enumerate(m.entries):
        if cols and cols[-1] >= len(out):
            if len(cols) > 1 or cols[0] != len(out) or vals[0] != 1:
                return None
            out.append(i)
    return out if len(out) == m.cols else None


def _read_at_pivots(a: Matrix, pivots: list[int], b: Matrix) -> Optional[Matrix]:
    """The X with ``a @ X = b`` for an ``a`` that is the identity at the
    rows ``pivots`` and has independent columns: ``b`` read at those
    rows, or None when ``a`` times it misses ``b``."""
    x = b.submatrix(pivots, range(b.cols))
    return x if a @ x == b else None


def solve_right(a: Matrix, b: Matrix) -> Optional[Matrix]:
    """A particular solution X of ``a @ X = b``, or None if inconsistent.

    When ``a`` is in reduced column echelon form with no zero column
    (``canonical_pivot_rows``), as canonical bases and inclusions between
    them are, the solution is unique and is ``b`` read at ``a``'s pivot
    rows, checked by one product.  Any other ``a`` goes through the
    ``rref`` of ``[a | b]``, with free variables set to zero.  Both give
    the same matrix where both apply.
    """
    a._check_same_field(b)
    if a.rows != b.rows:
        raise DimensionMismatch("solve_right row mismatch")
    rows = canonical_pivot_rows(a)
    if rows is not None:
        return _read_at_pivots(a, rows, b)
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
    return Matrix(a.field, n, b.cols, out)


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


# The most points an exhaustive search over a finite field may visit:
# submodule enumeration, and the witness searches of ``find_isomorphism``
# and ``series_isomorphic`` when no bounded scan applies.
ENUMERATION_LIMIT = 1 << 16


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

    Vectors come as stored rows ``(columns, values)`` of canonical field
    elements and are reduced as sparse int rows by the step ``rref``
    uses (``_insert``).  Each one that enlarges the span is kept once, as
    a pivot row (over GF(p) scaled to a leading one) keyed by its leading
    column.  The pivot rows are in echelon form, so reducing a vector by
    them in increasing pivot order, at the columns it holds, leaves zero
    exactly when it lies in their span.

    With a ``width``, the columns from ``width`` on are tags, and a row is
    kept only when what is left of it has an entry left of ``width``.
    The rows then carry coordinates: add the candidate for the j-th kept
    vector b_j as [v | e_(width+j)].  Every pivot row [u | c] has
    u = sum_l c_l b_l, so a candidate that is not kept leaves
    [0 | t] with t_j v = -sum_(l<j) t_l b_l, which ``coordinates`` reads.
    Once the b_j span k^width, the unit vector e_r added as
    [e_r | e_(2 width)] reads row r of B^-T for B = [b_0 .. b_(width-1)],
    and the pivot rows stay as they are: one elimination in all.
    """

    def __init__(self, field, width: Optional[int] = None):
        self.field = field
        self.width = width
        self.rows: dict[int, dict] = {}
        self.remainder: dict = {}

    def add(self, row: tuple) -> bool:
        """Insert a vector given as a stored row; True if it enlarged the
        span."""
        kept = len(self.rows)
        self.remainder = _insert(row, self.rows, self.field.characteristic, self.width)
        return len(self.rows) > kept

    def coordinates(self) -> tuple:
        """After an ``add`` of a tagged candidate [v | e_(width+j)] that
        returned False, the coordinates of v in b_0, .., b_(j-1) as a
        stored row: v = sum_l (-t_l / t_j) b_l for the tags t left."""
        rest, width, p = self.remainder, self.width, self.field.characteristic
        cols = sorted(rest)
        t = rest[cols.pop()]
        if p:
            s = pow(-t, -1, p)
            vals = [rest[c] * s % p for c in cols]
        else:
            vals = [Fraction(-rest[c], t) for c in cols]
        return tuple([c - width for c in cols]), tuple(vals)


class Subspace:
    """A subspace of k^n held by its canonical basis: the unique matrix in
    reduced column echelon form with no zero column whose columns span it.

    The basis is the one value a subspace holds; ``field`` and
    ``ambient_dim`` are the basis' own.  The constructor reads the basis'
    pivot rows once (``canonical_pivot_rows``), keeps them as
    ``pivot_rows``, and raises InternalInvariantViolation on a basis that
    is not canonical.  Two subspaces are equal iff their basis matrices
    are identical, so structural equality is set equality.
    """

    __slots__ = ("basis", "pivot_rows")

    def __init__(self, basis: Matrix):
        rows = canonical_pivot_rows(basis)
        if rows is None:
            raise InternalInvariantViolation(
                "subspace basis is not in reduced column echelon form")
        self.basis = basis
        self.pivot_rows = rows

    @classmethod
    def from_columns(cls, mat: Matrix) -> "Subspace":
        """The span of the columns of ``mat``: ``mat`` itself when it is
        already canonical, its pivot rows read once, and otherwise the
        transpose of the nonzero rows of ``rref(mat.transpose())``."""
        rows = canonical_pivot_rows(mat)
        if rows is None:
            ech, rank, _ = rref(mat.transpose())
            return cls(Matrix(mat.field, rank, mat.rows, ech.entries[:rank]).transpose())
        out = object.__new__(cls)
        out.basis = mat
        out.pivot_rows = rows
        return out

    @classmethod
    def zero(cls, field, ambient_dim: int) -> "Subspace":
        return cls(Matrix.zeros(field, ambient_dim, 0))

    @classmethod
    def full(cls, field, ambient_dim: int) -> "Subspace":
        return cls(Matrix.identity(field, ambient_dim))

    @property
    def field(self):
        return self.basis.field

    @property
    def ambient_dim(self) -> int:
        return self.basis.rows

    @property
    def dim(self) -> int:
        return self.basis.cols

    def __eq__(self, other):
        return isinstance(other, Subspace) and self.basis == other.basis

    def __hash__(self):
        return hash((self.ambient_dim, self.basis))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of k^{self.ambient_dim} over {self.field})"

    def coordinates(self, mat: Matrix) -> Optional[Matrix]:
        """The X with ``basis @ X = mat``: ``mat`` read at the pivot rows,
        or None when a column of ``mat`` leaves the span."""
        return _read_at_pivots(self.basis, self.pivot_rows, mat)

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
        """self meet other: the basis B of self times the canonical basis
        of ``preimage(B, other)``.  B is the identity at its pivot rows
        and zero above them, so the product has a leading one at the pivot
        row of each preimage column's leading one and is zero at the
        others' leading rows: it is canonical as it stands, and the
        constructor checks it."""
        if other.ambient_dim != self.ambient_dim:
            raise DimensionMismatch("ambient dimensions differ")
        return Subspace(self.basis @ preimage(self.basis, other).basis)

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
        tracker = EchelonTracker(self.field)
        for col in self.basis.transpose().entries:
            tracker.add(col)
        need = within.dim - self.dim
        chosen = []
        if need > 0:
            # In reduced column echelon form e_i lies in ``within`` iff it
            # is a basis column, one with a single nonzero entry.
            candidates = list(within.basis.transpose().entries)
            candidates[:0] = [c for c in candidates if len(c[0]) == 1]
            for cand in candidates:
                if tracker.add(cand):
                    chosen.append(cand)
                    if len(chosen) == need:
                        break
        return Matrix(self.field, len(chosen), self.ambient_dim, chosen).transpose()


def kernel(m: Matrix) -> Subspace:
    """The solution space of m . v = 0 inside k^cols, from one ``rref``.

    The elimination runs on m with its columns reversed (j -> cols-1-j),
    so that the solution of each free column j reads, in m's order, a
    leading one at j and minus the echelon column at pivot columns that
    all lie to its right.  The solutions are then zero at each other's
    leading columns, so they are already the reduced echelon rows of the
    null space: the canonical basis, each row of which is read straight
    off one echelon row or is a unit row at a free column.  The free
    columns are its pivot rows, which ``Subspace`` reads and checks once.
    A matrix with no stored entry has every column free: its kernel is the
    whole space, with no elimination."""
    if m.is_zero():
        return Subspace.full(m.field, m.cols)
    n = m.cols
    ech, rank, pivots = rref(Matrix(m.field, m.rows, n, [
        (tuple([n - 1 - j for j in reversed(cols)]), vals[::-1])
        for cols, vals in m.entries]))
    field = m.field
    neg, one = field.neg, field.one
    # Free column j of m is column n-1-j of the echelon form; the basis
    # orders the solutions by increasing j.
    pivot_set = set(pivots)
    place = {c: k for k, c in enumerate(
        [c for c in range(n - 1, -1, -1) if c not in pivot_set])}
    out = [None] * n
    for c, k in place.items():
        out[n - 1 - c] = ((k,), (one,))
    for c, (cols, vals) in zip(pivots, ech.entries[:rank]):
        out[n - 1 - c] = (tuple([place[j] for j in reversed(cols[1:])]),
                          tuple([neg(v) for v in reversed(vals[1:])]))
    return Subspace(Matrix(field, n, len(place), out))


def image(m: Matrix) -> Subspace:
    return Subspace.from_columns(m)


def preimage(m: Matrix, s: Subspace) -> Subspace:
    """{ v : m . v lies in s }: the kernel of m minus s's basis times m
    read at s's pivot rows, which is zero exactly on the span of s."""
    if s.ambient_dim != m.rows:
        raise DimensionMismatch("subspace does not live in the codomain")
    return kernel(m - s.basis @ m.submatrix(s.pivot_rows, range(m.cols)))
