"""Exact linear algebra: worked examples and algebraic invariants."""

import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from moddeg.algebras import hom_dim
from moddeg.errors import (DimensionMismatch, FieldMismatch,
                           InternalInvariantViolation, NotContained)
from moddeg.fields import GF, QQ, PrimeField
from moddeg.fixtures import jordan_module
from moddeg.linalg import (EchelonTracker, Matrix, Subspace, block_diag,
                           canonical_pivot_rows, hstack, inverse, kernel,
                           preimage, row_from_dense, rref, solve_right, vstack)

from support import (all_vectors, dense_add, dense_block_diag, dense_hstack,
                     dense_is_upper_triangular, dense_is_zero, dense_matmul,
                     dense_rows, dense_rref, dense_scale, dense_solve_right,
                     dense_span_basis, dense_sub, dense_submatrix,
                     dense_transpose, dense_vstack, independent_rank,
                     random_canonical_basis, random_invertible, random_matrix,
                     random_subspace, unit_column)

F2 = GF(2)
F101 = GF(101)
FIELDS = [QQ, F2, F101]


def test_rref_identity():
    m = Matrix.identity(QQ, 3)
    ech, rank, pivots = rref(m)
    assert ech == m and rank == 3 and pivots == (0, 1, 2)


@pytest.mark.parametrize("rows", [[[1, 2], [3, 4, 5]], [[1, 2, 3], [4, 5]]],
                         ids=["longer-later", "shorter-later"])
def test_from_rows_refuses_ragged_rows(rows):
    with pytest.raises(DimensionMismatch):
        Matrix.from_rows(QQ, rows)


def test_from_rows_refuses_a_contradicting_column_count():
    with pytest.raises(DimensionMismatch):
        Matrix.from_rows(QQ, [[1, 2]], cols=5)


def test_random_invertible_of_size_zero_is_the_empty_matrix():
    # a zero-dimensional module is conjugated by the 0 x 0 matrix, with
    # no special case in the caller
    m = random_invertible(GF(5), random.Random(0), 0)
    assert m == Matrix.zeros(GF(5), 0, 0) and (m.rows, m.cols) == (0, 0)


def test_rref_zero():
    m = Matrix.zeros(QQ, 2, 4)
    ech, rank, pivots = rref(m)
    assert ech == m and rank == 0 and pivots == ()


def test_rref_dependent_rows():
    m = Matrix.from_rows(QQ, [[1, 2], [2, 4]])
    ech, rank, _ = rref(m)
    assert ech == Matrix.from_rows(QQ, [[1, 2], [0, 0]])
    assert rank == 1


def test_kernel_identity_and_zero():
    assert kernel(Matrix.identity(QQ, 3)).dim == 0
    full = kernel(Matrix.zeros(QQ, 4, 4))
    assert full.dim == full.ambient_dim == 4


def test_kernel_f2_example():
    k = kernel(Matrix.from_rows(F2, [[1, 1]]))
    assert k.dim == 1
    assert k.basis.transpose().data == ((1, 1),)


def test_intersect_examples():
    full = Subspace.full(QQ, 2)
    assert full.intersect(full) == full
    u1 = Subspace.from_columns(Matrix.from_rows(F2, [[1, 0, 0], [0, 1, 0]]).transpose())
    u2 = Subspace.from_columns(Matrix.from_rows(F2, [[0, 1, 0], [0, 0, 1]]).transpose())
    expected = Subspace.from_columns(Matrix.from_rows(F2, [[0, 1, 0]]).transpose())
    assert u1.intersect(u2) == expected


def test_preimage_of_zero_map():
    pre = preimage(Matrix.zeros(QQ, 2, 3), Subspace.zero(QQ, 2))
    assert pre.dim == pre.ambient_dim


def test_complement_requires_containment():
    line = Subspace.from_columns(Matrix.from_rows(QQ, [[1, 0, 0]]).transpose())
    other = Subspace.from_columns(Matrix.from_rows(QQ, [[0, 1, 0]]).transpose())
    with pytest.raises(NotContained):
        line.complement_basis(within=other)


def test_complement_prefers_unit_vectors():
    line = Subspace.from_columns(Matrix.from_rows(QQ, [[1, 1, 0]]).transpose())
    ext = line.complement_basis()
    assert ext.transpose().data == ((1, 0, 0), (0, 0, 1))


@st.composite
def matrices(draw, max_dim=4):
    fld = draw(st.sampled_from(FIELDS))
    rows = draw(st.integers(0, max_dim))
    cols = draw(st.integers(0, max_dim))
    entries = draw(st.lists(
        st.lists(st.integers(-4, 4), min_size=cols, max_size=cols),
        min_size=rows, max_size=rows))
    return Matrix.from_rows(fld, entries, cols=cols)


@given(matrices())
@settings(max_examples=150, deadline=None)
def test_rref_idempotent(m):
    once = rref(m)[0]
    again = rref(once)[0]
    assert once == again


@given(matrices())
@settings(max_examples=150, deadline=None)
def test_rank_nullity(m):
    assert rref(m)[1] + kernel(m).dim == m.cols


@given(st.integers(0, 2 ** 30), st.sampled_from(FIELDS), st.integers(1, 5))
@settings(max_examples=150, deadline=None)
def test_modular_law_dimensions(seed, fld, dim):
    rng = random.Random(seed)
    a = random_subspace(fld, rng, dim)
    b = random_subspace(fld, rng, dim)
    assert a.dim + b.dim == a.sum(b).dim + a.intersect(b).dim


@given(st.integers(0, 2 ** 30), st.sampled_from(FIELDS), st.integers(1, 4))
@settings(max_examples=100, deadline=None)
def test_canonical_equality(seed, fld, dim):
    # shuffling and rescaling spanning vectors gives the same subspace object
    rng = random.Random(seed)
    s = random_subspace(fld, rng, dim)
    cols = list(s.basis.transpose().data)
    rng.shuffle(cols)
    mixed = []
    for i, col in enumerate(cols):
        scalar = fld.coerce(rng.choice([1, 2, 3])) if fld != F2 else fld.one
        mixed.append(tuple(fld.mul(scalar, v) for v in col))
        if i > 0:
            mixed.append(tuple(fld.add(a, b) for a, b in zip(mixed[0], col)))
    rebuilt = Subspace.from_columns(
        Matrix.from_rows(fld, mixed, cols=dim).transpose())
    assert rebuilt == s


def test_preimage_exactness_by_enumeration():
    # over F_2 in dimension <= 4: v in preimage(m, s) iff m.v in s
    rng = random.Random(7)
    for _ in range(25):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        m = random_matrix(F2, rng, rows, cols)
        s = random_subspace(F2, rng, rows)
        pre = preimage(m, s)
        for vec in all_vectors(2, cols):
            v = Matrix.from_rows(F2, [[x] for x in vec], cols=1)
            assert pre.contains_vector(v) == s.contains_vector(m @ v)


def _wide_matrix(fld, rng, rows, cols):
    """Half the entries zero; over QQ the others with numerators up to
    10^6 and denominators up to 10^4."""
    def entry():
        if rng.random() < 0.5:
            return 0
        if fld.finite:
            return rng.randrange(fld.p)
        return Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**4))
    return Matrix.from_rows(fld, [[entry() for _ in range(cols)]
                                  for _ in range(rows)], cols=cols)


@pytest.mark.parametrize("fld", FIELDS, ids=repr)
def test_coordinates_against_independent_rank_and_solve_right(fld):
    rng = random.Random(41)
    p = fld.p if fld.finite else 0
    for trial in range(80):
        n = rng.randint(1, 5)
        if trial % 8 == 0:
            s = Subspace.zero(fld, n)
        elif trial % 8 == 1:
            s = Subspace.full(fld, n)
        else:
            s = Subspace.from_columns(_wide_matrix(fld, rng, n, rng.randint(0, n)))
        members = s.basis @ _wide_matrix(fld, rng, s.dim, rng.randint(0, 3))
        for v in (members, _wide_matrix(fld, rng, n, rng.randint(0, 3))):
            inside = (independent_rank(hstack(s.basis, v).data, p)
                      == independent_rank(s.basis.data, p))
            x = s.coordinates(v)
            assert (x is not None) == inside
            assert x == dense_solve_right(s.basis, v) == solve_right(s.basis, v)
            assert s.contains(Subspace.from_columns(v)) == inside
            for j in range(v.cols):
                col = v.column_matrix(j)
                grown = independent_rank(hstack(s.basis, col).data, p)
                assert s.contains_vector(col) == (grown == s.dim)


def _points(s: Subspace, p: int) -> set:
    b = s.basis
    return {tuple(sum(b.data[i][j] * c[j] for j in range(b.cols)) % p
                  for i in range(b.rows))
            for c in all_vectors(p, b.cols)}


@pytest.mark.parametrize("p", [2, 3])
def test_intersect_and_preimage_against_enumerated_points(p):
    fld = GF(p)
    rng = random.Random(p)
    for _ in range(40):
        n, cols = rng.randint(1, 4), rng.randint(1, 4)
        a, b = (Subspace.from_columns(_wide_matrix(fld, rng, n, rng.randint(0, n)))
                for _ in range(2))
        assert _points(a.intersect(b), p) == _points(a, p) & _points(b, p)
        m = _wide_matrix(fld, rng, n, cols)
        inside = _points(a, p)
        expected = {v for v in all_vectors(p, cols)
                    if tuple(sum(m.data[i][j] * v[j] for j in range(cols)) % p
                             for i in range(n)) in inside}
        assert _points(preimage(m, a), p) == expected


@pytest.mark.parametrize("fld", FIELDS, ids=repr)
def test_left_annihilator_rows_annihilate_and_have_full_rank(fld):
    rng = random.Random(43)
    p = fld.p if fld.finite else 0
    for trial in range(40):
        n = rng.randint(1, 5)
        s = Subspace.from_columns(_wide_matrix(fld, rng, n, rng.randint(0, n)))
        if trial < 2:
            s = (Subspace.zero, Subspace.full)[trial](fld, n)
        ann = s.left_annihilator()
        assert (ann.rows, ann.cols) == (n - s.dim, n)
        assert dense_matmul(ann, s.basis).is_zero()
        assert independent_rank(ann.data, p) == n - s.dim


def test_solve_and_inverse_roundtrip():
    rng = random.Random(3)
    for fld in FIELDS:
        for _ in range(10):
            n = rng.randint(1, 4)
            from support import random_invertible
            a = random_invertible(fld, rng, n)
            inv = inverse(a)
            assert a @ inv == Matrix.identity(fld, n)
            b = random_matrix(fld, rng, n, 2)
            x = solve_right(a, b)
            assert a @ x == b


def test_complement_extends_to_basis():
    rng = random.Random(11)
    for fld in FIELDS:
        for _ in range(10):
            dim = rng.randint(1, 5)
            s = random_subspace(fld, rng, dim)
            ext = s.complement_basis()
            combined = hstack(s.basis, ext)
            assert combined.rank() == dim


@st.composite
def sparse_matrices(draw, rows=None, cols=None, fld=None):
    """Matrices of shape 0..7 x 0..7 whose cells are nonzero with
    probability 0, 0.05, 0.3 or 1; QQ entries include proper fractions."""
    if fld is None:
        fld = draw(st.sampled_from(FIELDS))
    if rows is None:
        rows = draw(st.integers(0, 7))
    if cols is None:
        cols = draw(st.integers(0, 7))
    density = draw(st.sampled_from([0, 0.05, 0.3, 1]))
    rng = draw(st.randoms(use_true_random=False))

    def cell():
        if rng.random() >= density:
            return 0
        value = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))
        return value if fld == QQ else int(value.numerator) % fld.p or 1
    return Matrix.from_rows(fld, [[cell() for _ in range(cols)] for _ in range(rows)],
                            cols=cols)


@given(sparse_matrices())
@settings(max_examples=300, deadline=None)
def test_rref_matches_dense_reference(m):
    assert rref(m) == dense_rref(m)


@given(sparse_matrices())
@settings(max_examples=300, deadline=None)
def test_rank_counts_the_rref_pivots(m):
    assert m.rank() == rref(m)[1]


@given(sparse_matrices())
@example(Matrix.zeros(QQ, 3, 4))
@settings(max_examples=300, deadline=None)
def test_kernel_basis_is_canonical_and_killed(m):
    """The kernel basis is its own reduced echelon form (transposed), m
    kills it, and it has cols - rank columns."""
    basis = kernel(m).basis
    rows = basis.transpose()
    assert rref(rows)[0] == rows
    assert basis.rows == m.cols and basis.cols == m.cols - rref(m)[1]
    assert (m @ basis).is_zero()


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_kernel_matches_enumerated_null_vectors(data):
    fld = data.draw(st.sampled_from([F2, GF(3)]))
    m = data.draw(sparse_matrices(rows=data.draw(st.integers(0, 4)),
                                  cols=data.draw(st.integers(0, 4)), fld=fld))
    p = fld.p
    expected = {v for v in all_vectors(p, m.cols)
                if all(sum(a * b for a, b in zip(row, v)) % p == 0 for row in m.data)}
    assert _points(kernel(m), p) == expected


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_intersect_is_the_canonical_image_of_the_preimage(data):
    fld = data.draw(st.sampled_from(FIELDS))
    n = data.draw(st.integers(0, 7))
    a, b = (Subspace.from_columns(data.draw(sparse_matrices(rows=n, fld=fld)))
            for _ in range(2))
    assert a.intersect(b) == Subspace.from_columns(
        a.basis @ preimage(a.basis, b).basis)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_matmul_matches_dense_reference(data):
    a = data.draw(sparse_matrices())
    b = data.draw(sparse_matrices(rows=a.cols, fld=a.field))
    assert a @ b == dense_matmul(a, b)


def _enlarges(tracker: EchelonTracker, row: tuple) -> bool:
    """Whether adding ``row`` enlarges the tracker's span, asked of a copy
    of its pivot rows so that the tracker itself is left as it is."""
    probe = EchelonTracker(tracker.field)
    probe.rows = dict(tracker.rows)
    return probe.add(row)


@given(sparse_matrices(), st.data())
@settings(max_examples=200, deadline=None)
def test_echelon_tracker_agrees_with_independent_rank(m, data):
    fld = m.field
    p = 0 if fld == QQ else fld.p
    tracker = EchelonTracker(fld)
    for i, row in enumerate(m.entries):
        before = len(tracker.rows)
        grew = tracker.add(row)
        assert len(tracker.rows) == before + grew == independent_rank(m.data[:i + 1], p)
    probes = data.draw(sparse_matrices(cols=m.cols, fld=fld))
    for row, dense in zip(probes.entries, probes.data):
        grown = independent_rank(list(m.data) + [dense], p)
        assert _enlarges(tracker, row) == (grown > len(tracker.rows))


@st.composite
def wide_matrices(draw, cols=None, fld=None):
    """Matrices of shape 0..10 x 0..10 at densities 0.05, 0.3 or 1: over QQ
    with signed numerators up to 2**64 and denominators up to 10**6, so
    pivots come negative and rows need wide denominators cleared; over
    GF(2) and GF(101) with arbitrary residues."""
    if fld is None:
        fld = draw(st.sampled_from(FIELDS))
    rows = draw(st.integers(0, 10))
    if cols is None:
        cols = draw(st.integers(0, 10))
    density = draw(st.sampled_from([0.05, 0.3, 1]))
    rng = draw(st.randoms(use_true_random=False))

    def cell():
        if rng.random() >= density:
            return 0
        if fld == QQ:
            return Fraction(rng.randint(-2 ** 64, 2 ** 64), rng.randint(1, 10 ** 6))
        return rng.randrange(fld.p)
    return Matrix.from_rows(fld, [[cell() for _ in range(cols)] for _ in range(rows)],
                            cols=cols)


@given(wide_matrices())
@settings(max_examples=200, deadline=None)
def test_integer_kernel_matches_dense_reference_on_wide_entries(m):
    echelon, rank, pivots = rref(m)
    assert (echelon, rank, pivots) == dense_rref(m)
    entries = [v for row in echelon.data for v in row]
    if m.field == QQ:
        assert all(type(v) is Fraction for v in entries)
    else:
        assert all(type(v) is int and 0 <= v < m.field.p for v in entries)


@given(wide_matrices(), st.data())
@settings(max_examples=100, deadline=None)
def test_echelon_tracker_agrees_with_independent_rank_on_wide_entries(m, data):
    fld = m.field
    p = 0 if fld == QQ else fld.p
    tracker = EchelonTracker(fld)
    for row in m.entries:
        tracker.add(row)
    assert len(tracker.rows) == independent_rank(m.data, p)
    # Probes in the span (random combinations of the rows) and, mostly,
    # outside it (rows of another wide matrix).
    probes = list(data.draw(wide_matrices(cols=m.cols, fld=fld)).data)
    for _ in range(2):
        coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=m.rows, max_size=m.rows))
        probes.append([fld.coerce(sum((c * row[j] for c, row in zip(coeffs, m.data)), 0))
                       for j in range(m.cols)])
    for probe in probes:
        grown = independent_rank(list(m.data) + [probe], p)
        assert _enlarges(tracker, row_from_dense(probe)) == (grown > len(tracker.rows))


def _tagged(fld, column: tuple, tag: int) -> tuple:
    """The stored row [v | e_tag] of a stored column v."""
    cols, vals = column
    return cols + (tag,), vals + (fld.one,)


@given(st.sampled_from(FIELDS), st.integers(0, 6), st.data())
@settings(max_examples=150, deadline=None)
def test_tagged_tracker_reads_coordinates_and_the_inverse_transpose(fld, n, data):
    """Columns b_0, .., b_(k-1) of an invertible B, added as [b_j | e_(n+j)]
    to a tracker of width n, are all kept.  A vector v = B x of their span,
    added as [v | e_(n+k)], is not, and ``coordinates`` reads
    ``solve_right`` of v; once all n columns are in, the coordinates of
    the unit vectors, added as [e_r | e_(2n)], are the rows of
    ``inverse(B).transpose()``, and no unit vector is kept.
    QQ entries are fractions a/d with d from 2 to 7."""
    rng = data.draw(st.randoms(use_true_random=False))

    def cell():
        if rng.random() < 0.3:
            return 0
        if fld == QQ:
            return Fraction(rng.randint(-9, 9), rng.randint(2, 7))
        return rng.randrange(fld.p)
    while True:
        b = Matrix.from_rows(fld, [[cell() for _ in range(n)] for _ in range(n)], cols=n)
        if b.rank() == n:
            break
    columns = b.transpose().entries
    k = data.draw(st.integers(0, n))
    part = b.submatrix(range(n), range(k))
    tracker = EchelonTracker(fld, n)
    for j in range(k):
        assert tracker.add(_tagged(fld, columns[j], n + j))
    for _ in range(3):
        x = Matrix.from_rows(fld, [[cell()] for _ in range(k)], cols=1)
        v = part @ x
        assert not tracker.add(_tagged(fld, v.transpose().entries[0], n + k))
        assert tracker.coordinates() == solve_right(part, v).transpose().entries[0]
    for j in range(k, n):
        assert tracker.add(_tagged(fld, columns[j], n + j))
    rows = []
    for r in range(n):
        assert not tracker.add(((r, 2 * n), (fld.one, fld.one)))
        rows.append(tracker.coordinates())
    assert Matrix(fld, n, n, rows) == inverse(b).transpose()


F32003 = GF(32003)


@st.composite
def large_sparse_matrices(draw):
    """Tall or wide matrices up to 80 x 80 at 1-5% density, the regime of
    flags, inclusions and triangular stages: over QQ with signed proper
    fractions, over GF(32003) with arbitrary nonzero residues.  Some rows
    and columns are forced to zero."""
    fld = draw(st.sampled_from([QQ, F32003]))
    long, short = draw(st.integers(20, 80)), draw(st.integers(0, 60))
    rows, cols = (long, short) if draw(st.booleans()) else (short, long)
    density = draw(st.sampled_from([0.01, 0.03, 0.05]))
    # One drawn seed: drawing every cell would exceed hypothesis' entropy
    # budget at this size.
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    zero_rows = set(rng.sample(range(rows), rows // 8))
    zero_cols = set(rng.sample(range(cols), cols // 8))

    def cell(i, j):
        if i in zero_rows or j in zero_cols or rng.random() >= density:
            return 0
        if fld == QQ:
            return Fraction(rng.choice([-1, 1]) * rng.randint(1, 99), rng.randint(1, 30))
        return rng.randrange(1, fld.p)
    return Matrix.from_rows(fld, [[cell(i, j) for j in range(cols)] for i in range(rows)],
                            cols=cols)


@given(large_sparse_matrices(), st.data())
@settings(max_examples=40, deadline=None)
def test_sparse_kernels_match_dense_references_on_large_sparse_matrices(m, data):
    fld = m.field
    p = fld.characteristic
    reference = dense_rref(m)
    assert rref(m) == reference
    # The kernel: vectors that m kills, as many as the nullity, independent.
    ker = kernel(m)
    assert ker.dim == m.cols - reference[1]
    for col in ker.basis.transpose().data:
        for cols, vals in m.entries:
            total = sum((v * col[j] for j, v in zip(cols, vals)), 0)
            assert (total % p if p else total) == 0
    assert independent_rank(ker.basis.transpose().data, p) == ker.dim
    # Products whose left rows mostly hold one stored entry, one or not,
    # next to empty rows and rows of two entries.
    rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
    other = fld.coerce(rng.choice([2, -3, Fraction(5, 7)]) if fld == QQ
                       else rng.randrange(2, fld.p))
    left = []
    for _ in range(data.draw(st.integers(0, 24))):
        row = [0] * m.rows
        picks = rng.sample(range(m.rows), min(m.rows, rng.choice([0, 1, 1, 1, 2])))
        for k in picks:
            row[k] = rng.choice([fld.one, other])
        left.append(row)
    a = Matrix.from_rows(fld, left, cols=m.rows)
    product = a @ m
    assert_stored_rows_canonical(product)
    assert product == dense_matmul(a, m)


@st.composite
def dense_gf_factors(draw):
    """Two factors over GF(2), GF(101) or GF(32003) whose cells are nonzero
    with probability 1/2 or 1, with about a third of the left rows forced
    to zero, in shapes up to 12 x 12 times 12 x 12 that are often 1 x n or
    n x 1.  Over GF(2) at full density every product entry sums ones and
    cancels to zero when the inner dimension is even."""
    fld = draw(st.sampled_from([F2, F101, F32003]))
    rows, inner, cols = (draw(st.one_of(st.just(1), st.integers(1, 12)))
                         for _ in range(3))
    density = draw(st.sampled_from([0.5, 1]))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    zero_rows = set(rng.sample(range(rows), rows // 3))

    def factor(nrows, ncols, zero_rows=()):
        return Matrix.from_rows(fld, [[rng.randrange(1, fld.p)
                                       if i not in zero_rows and rng.random() < density
                                       else 0 for _ in range(ncols)]
                                      for i in range(nrows)])
    return factor(rows, inner, zero_rows), factor(inner, cols)


def ones(fld, rows, cols):
    return Matrix.from_rows(fld, [[1] * cols for _ in range(rows)])


@given(dense_gf_factors())
@settings(max_examples=200, deadline=None)
@example((ones(F2, 3, 4), ones(F2, 4, 2)))
@example((Matrix.from_rows(F2, [[1, 1, 0], [0, 0, 0], [1, 1, 1]]), ones(F2, 3, 5)))
@example((Matrix.from_rows(F101, [[1, 100]]), Matrix.from_rows(F101, [[5], [5]])))
def test_dense_gf_products_match_dense_reference(factors):
    a, b = factors
    product = a @ b
    assert_stored_rows_canonical(product)
    assert product == dense_matmul(a, b)


class CountingField(PrimeField):
    """GF(p) that counts its add, sub and mul calls."""

    def __init__(self, p):
        super().__init__(p)
        self.calls = Counter()

    def add(self, a, b):
        self.calls["add"] += 1
        return super().add(a, b)

    def sub(self, a, b):
        self.calls["sub"] += 1
        return super().sub(a, b)

    def mul(self, a, b):
        self.calls["mul"] += 1
        return super().mul(a, b)


def _permutation(fld, rng, n, scalar=1):
    order = list(range(n))
    rng.shuffle(order)
    return Matrix.from_rows(
        fld, [[scalar if j == order[i] else 0 for j in range(n)] for i in range(n)])


@pytest.mark.parametrize("n", [1, 5, 12])
def test_permutation_product_multiplies_only_nonzeros(n):
    # Every left row holds one stored entry: a one copies the right row
    # and makes no field call, any other value makes one multiplication
    # per stored entry of that right row and no addition.
    fld = CountingField(101)
    rng = random.Random(n)
    plain, other = _permutation(fld, rng, n), _permutation(fld, rng, n)
    scaled = _permutation(fld, rng, n, scalar=7)
    fld.calls.clear()
    product = plain @ other
    assert fld.calls == Counter()
    assert product == dense_matmul(plain, other)
    for left, right in ((scaled, plain), (plain, scaled)):
        fld.calls.clear()
        product = left @ right
        assert fld.calls == (Counter(mul=n) if left is scaled else Counter())
        assert product == dense_matmul(left, right)


def test_hom_dim_field_operation_counts():
    # The dense kernels and the dense system builder spent 3456 adds,
    # 8640 subs and 10368 muls here; the bounds are the zero-skipping counts.
    fld = CountingField(101)
    m = jordan_module(fld, 12, (2,) * 6)
    fld.calls.clear()
    assert hom_dim(m, m) == 72
    assert fld.calls["add"] <= 216
    assert fld.calls["sub"] <= 252
    assert fld.calls["mul"] <= 72


@pytest.mark.parametrize("stack", [hstack, vstack, block_diag])
def test_stacking_rejects_mixed_fields(stack):
    with pytest.raises(FieldMismatch):
        stack(Matrix.identity(QQ, 2), Matrix.identity(GF(3), 2))


@st.composite
def dense_inputs(draw, fld=None, rows=None, cols=None):
    """``(field, dense rows, cols)``: canonical entries in a 0..7 x 0..7
    shape, each nonzero with probability 0, 0.05, 0.3 or 1."""
    if fld is None:
        fld = draw(st.sampled_from(FIELDS))
    if rows is None:
        rows = draw(st.integers(0, 7))
    if cols is None:
        cols = draw(st.integers(0, 7))
    density = draw(st.sampled_from([0, 0.05, 0.3, 1]))
    rng = draw(st.randoms(use_true_random=False))

    def cell():
        if rng.random() >= density:
            return fld.zero
        if fld == QQ:
            return Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))
        return rng.randrange(1, fld.p)
    return fld, [[cell() for _ in range(cols)] for _ in range(rows)], cols


def assert_stored_rows_canonical(m):
    """Each stored row lists its columns in increasing order, inside the
    matrix, with one nonzero value per column."""
    assert len(m.entries) == m.rows
    for cols, vals in m.entries:
        assert len(cols) == len(vals)
        assert list(cols) == sorted(set(cols))
        assert all(0 <= j < m.cols for j in cols)
        assert not any(m.field.is_zero(v) for v in vals)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_row_sparse_storage_matches_dense_references(data):
    fld, rows, nc = data.draw(dense_inputs())
    nr = len(rows)
    m = Matrix.from_rows(fld, rows, cols=nc)
    assert_stored_rows_canonical(m)
    assert m.data == tuple(map(tuple, rows))
    assert all(type(v) is type(fld.zero) for row in m.data for v in row)

    _, other, _ = data.draw(dense_inputs(fld, nr, nc))
    b = Matrix.from_rows(fld, other, cols=nc)
    for twin in (other, [list(row) for row in rows]):
        same = Matrix.from_rows(fld, twin, cols=nc)
        assert (m == same) == (twin == rows)
        if twin == rows:
            assert hash(m) == hash(same)

    pick_rows = data.draw(st.lists(st.integers(0, nr - 1), max_size=7)) if nr else []
    pick_cols = data.draw(st.one_of(st.just(range(nc)),
                                    st.lists(st.integers(0, nc - 1), max_size=7))
                          ) if nc else range(0)
    scalar = data.draw(st.sampled_from([0, 1, -1, 2]))
    _, right, right_cols = data.draw(dense_inputs(fld, rows=nr))
    _, below, _ = data.draw(dense_inputs(fld, cols=nc))
    _, corner, corner_cols = data.draw(dense_inputs(fld))
    results = [
        (m.transpose(), dense_transpose(rows, nc)),
        (m.submatrix(pick_rows, pick_cols), dense_submatrix(rows, pick_rows, pick_cols)),
        (m + b, dense_add(fld, rows, other)),
        (m - b, dense_sub(fld, rows, other)),
        (m.scale(scalar), dense_scale(fld, fld.coerce(scalar), rows)),
        (hstack(m, Matrix.from_rows(fld, right, cols=right_cols)),
         dense_hstack(rows, right)),
        (vstack(m, Matrix.from_rows(fld, below, cols=nc)), dense_vstack(rows, below)),
        (block_diag(m, Matrix.from_rows(fld, corner, cols=corner_cols)),
         dense_block_diag(fld, rows, nc, corner, corner_cols)),
    ]
    for result, reference in results:
        assert_stored_rows_canonical(result)
        assert dense_rows(result) == reference
    assert m.is_zero() == dense_is_zero(fld, rows)
    assert m.is_upper_triangular() == dense_is_upper_triangular(fld, rows)


def _leading_rows(m: Matrix) -> list:
    """The first row holding a nonzero entry of each column, from the
    dense cells."""
    cells = m.data
    return [next(i for i in range(m.rows) if cells[i][j]) for j in range(m.cols)]


def _with_cells(m: Matrix, cells: dict) -> Matrix:
    """``m`` with the dense cells ``(i, j)`` set to the given values."""
    rows = [list(row) for row in m.data]
    for (i, j), v in cells.items():
        rows[i][j] = v
    return Matrix.from_rows(m.field, rows, cols=m.cols)


def _solved_and_spanned_like_the_reference(a: Matrix, rhs) -> None:
    for b in rhs:
        assert solve_right(a, b) == dense_solve_right(a, b)
    assert Subspace.from_columns(a).basis == dense_span_basis(a)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_canonical_inputs_are_read_at_their_pivot_rows(data):
    """On a matrix in reduced column echelon form with no zero column, a
    random subspace basis or the inclusion of one canonical subspace in
    another, ``solve_right`` and ``Subspace.from_columns`` agree with the
    dense references: the basis is the matrix itself, a right-hand side in
    its span is solved and one pushed off it at a non-pivot row is not."""
    fld = data.draw(st.sampled_from(FIELDS))
    rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
    n = data.draw(st.integers(0, 7))
    density = data.draw(st.sampled_from([0.1, 0.5, 1]))
    if data.draw(st.booleans(), label="inclusion"):
        big = random_canonical_basis(fld, rng, n, rng.randint(0, n), density)
        small = dense_span_basis(dense_matmul(
            big, random_matrix(fld, rng, big.cols, rng.randint(0, big.cols))))
        cells = small.data
        a = Matrix.from_rows(fld, [cells[i] for i in _leading_rows(big)], cols=small.cols)
    else:
        a = random_canonical_basis(fld, rng, n, rng.randint(0, n), density)
    pivots = _leading_rows(a)
    assert canonical_pivot_rows(a) == pivots
    for s in (Subspace.from_columns(a), Subspace(a)):
        assert (s.basis, s.field, s.ambient_dim, s.pivot_rows) == (a, fld, a.rows, pivots)
    inside = dense_matmul(a, random_matrix(fld, rng, a.cols, rng.randint(1, 3)))
    rhs = [inside]
    off = [i for i in range(a.rows) if i not in pivots]
    if off:
        i = rng.choice(off)
        rhs.append(_with_cells(inside, {(i, 0): fld.add(inside.data[i][0], fld.one)}))
        assert dense_solve_right(a, rhs[-1]) is None
    assert dense_solve_right(a, inside) is not None
    _solved_and_spanned_like_the_reference(a, rhs)


@pytest.mark.parametrize("fld", FIELDS, ids=repr)
@pytest.mark.parametrize("rows,cols", [(0, 0), (3, 0), (0, 2)])
def test_empty_shapes_solve_like_the_reference(fld, rows, cols):
    """0 x 0 and n x 0 are canonical; 0 x n has zero columns and is
    eliminated.  Zero and nonzero right-hand sides of one and two columns."""
    a = Matrix.zeros(fld, rows, cols)
    assert (canonical_pivot_rows(a) is not None) == (cols == 0)
    if cols:
        with pytest.raises(InternalInvariantViolation):
            Subspace(a)
    else:
        assert Subspace(a) == Subspace.zero(fld, rows)
    rhs = [Matrix.zeros(fld, rows, 1), Matrix.zeros(fld, rows, 2)]
    if rows:
        rhs.append(unit_column(fld, rows, 1))
    assert solve_right(a, rhs[0]) == Matrix.zeros(fld, cols, 1)
    _solved_and_spanned_like_the_reference(a, rhs)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_near_canonical_inputs_are_eliminated_and_agree(data):
    """A canonical basis spoilt in one place (a leading 2, an extra entry
    in a pivot row, a zero column, or two columns whose pivots are out of
    order) is not read as canonical, is refused as a ``Subspace`` basis,
    and ``solve_right`` and ``Subspace.from_columns`` still agree with the
    dense references."""
    fld = data.draw(st.sampled_from(FIELDS))
    rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
    n = data.draw(st.integers(1, 7))
    k = data.draw(st.integers(1, n))
    flaw = data.draw(st.sampled_from(["leading 2", "pivot row", "zero column", "order"]))
    assume(not (flaw == "leading 2" and fld == F2))
    assume(k >= 2 or flaw in ("leading 2", "zero column"))
    base = random_canonical_basis(fld, rng, n, k, data.draw(st.sampled_from([0.1, 0.5, 1])))
    pivots = _leading_rows(base)
    j, other = rng.sample(range(k), 2) if k >= 2 else (0, None)
    if flaw == "leading 2":
        a = _with_cells(base, {(pivots[j], j): fld.coerce(2)})
    elif flaw == "pivot row":
        a = _with_cells(base, {(pivots[j], other): fld.coerce(rng.randint(1, fld.p - 1)
                                                             if fld.finite else 3)})
    elif flaw == "zero column":
        at = rng.randint(0, k)
        a = hstack(base.submatrix(range(n), range(at)), Matrix.zeros(fld, n, 1),
                   base.submatrix(range(n), range(at, k)))
    else:
        order = list(range(k))
        order[j], order[other] = other, j
        a = base.submatrix(range(n), order)
    assert canonical_pivot_rows(a) is None
    with pytest.raises(InternalInvariantViolation):
        Subspace(a)
    _solved_and_spanned_like_the_reference(
        a, [dense_matmul(a, random_matrix(fld, rng, a.cols, rng.randint(0, 3))),
            random_matrix(fld, rng, n, rng.randint(0, 3))])


@given(sparse_matrices(), st.data())
@settings(max_examples=200, deadline=None)
def test_stored_pivot_rows_match_the_canonical_and_dense_pivots(m, data):
    """The pivot rows that ``from_columns``, ``kernel`` and ``intersect``
    keep are those ``canonical_pivot_rows`` reads off their bases and the
    pivot columns that dense elimination finds in the spanning vectors
    written as rows."""
    span = Subspace.from_columns(m)
    other = Subspace.from_columns(data.draw(sparse_matrices(rows=m.rows, fld=m.field)))
    null = kernel(m)
    meet = span.intersect(other)
    for s, spanning in ((span, m), (null, null.basis), (meet, meet.basis)):
        assert s.pivot_rows == canonical_pivot_rows(s.basis)
        assert s.pivot_rows == list(dense_rref(spanning.transpose())[2])
