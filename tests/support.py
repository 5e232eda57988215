"""Independent brute-force oracles and random generators for the tests.

Everything here is deliberately coded without reusing the library's
elimination or enumeration routines, so cross-checks stay honest.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, product

from moddeg import AlgebraPresentation, Matrix, Representation, Subspace


def independent_rank(rows: list[list[Fraction]], p: int = 0) -> int:
    """Fraction-based Gaussian elimination written from scratch (no pivot
    normalization, row-max pivot choice); with a prime ``p``, the rank of
    the integer entries reduced mod p instead."""
    rows = [[Fraction(v) % p if p else Fraction(v) for v in r] for r in rows]
    rank = 0
    cols = len(rows[0]) if rows else 0
    used = set()
    for c in range(cols):
        pivot = None
        best = None
        for i, r in enumerate(rows):
            if i in used or r[c] == 0:
                continue
            size = abs(r[c].numerator) + r[c].denominator
            if best is None or size > best:
                best, pivot = size, i
        if pivot is None:
            continue
        used.add(pivot)
        rank += 1
        prow = rows[pivot]
        for i, r in enumerate(rows):
            if i != pivot and r[c] != 0:
                if p:
                    factor = r[c] * pow(int(prow[c]), -1, p)
                    rows[i] = [(x - factor * y) % p for x, y in zip(r, prow)]
                else:
                    factor = r[c] / prow[c]
                    rows[i] = [x - factor * y for x, y in zip(r, prow)]
    return rank


def dense_rref(m: Matrix) -> tuple[Matrix, int, tuple[int, ...]]:
    """Reduced row echelon form by plain dense Gauss-Jordan elimination:
    the leftmost column with a nonzero entry at or below the current row
    gives the pivot, the first such row is swapped up and normalized, and
    every other row subtracts its multiple of it across all columns.  The
    reference the zero-skipping ``rref`` must match exactly."""
    fld = m.field
    a = [list(row) for row in m.data]
    pivots = []
    for c in range(m.cols):
        r = len(pivots)
        below = [i for i in range(r, m.rows) if not fld.is_zero(a[i][c])]
        if not below:
            continue
        a[r], a[below[0]] = a[below[0]], a[r]
        scale = fld.inv(a[r][c])
        a[r] = [fld.mul(scale, v) for v in a[r]]
        for i in range(m.rows):
            if i != r:
                factor = a[i][c]
                a[i] = [fld.sub(x, fld.mul(factor, y)) for x, y in zip(a[i], a[r])]
        pivots.append(c)
    return Matrix.from_rows(fld, a, cols=m.cols), len(pivots), tuple(pivots)


def dense_solve_right(a: Matrix, b: Matrix):
    """The solution X of a . X = b with every free variable at zero, or
    None when there is none: read off ``dense_rref`` of the dense
    augmented matrix [a | b].  The reference for ``solve_right`` and
    ``Subspace.coordinates``."""
    fld, n = a.field, a.cols
    aug = Matrix.from_rows(fld, [list(ra) + list(rb) for ra, rb in zip(a.data, b.data)],
                           cols=n + b.cols)
    ech, _, pivots = dense_rref(aug)
    if any(c >= n for c in pivots):
        return None
    x = [[fld.zero] * b.cols for _ in range(n)]
    for r, c in enumerate(pivots):
        x[c] = list(ech.data[r][n:])
    return Matrix.from_rows(fld, x, cols=b.cols)


def dense_span_basis(m: Matrix) -> Matrix:
    """The canonical basis of the column span of ``m``: the nonzero rows
    of ``dense_rref`` of its dense transpose, written as columns.  The
    reference for ``Subspace.from_columns``."""
    cells = m.data
    ech, rank, _ = dense_rref(Matrix.from_rows(
        m.field, [[cells[i][j] for i in range(m.rows)] for j in range(m.cols)], cols=m.rows))
    rows = ech.data
    return Matrix.from_rows(
        m.field, [[rows[k][i] for k in range(rank)] for i in range(m.rows)], cols=rank)


def random_canonical_basis(fld, rng: random.Random, n: int, k: int,
                           density: float = 0.5) -> Matrix:
    """A random n x k matrix in reduced column echelon form with no zero
    column (k <= n), written cell by cell: column j holds a one at the
    j-th of k increasing random pivot rows, zeros above it and at the
    other pivot rows, and below it, with probability ``density``, a random
    element at each other row."""
    pivots = sorted(rng.sample(range(n), k))
    rows = [[fld.zero] * k for _ in range(n)]
    for j, r in enumerate(pivots):
        rows[r][j] = fld.one
        for i in range(r + 1, n):
            if i not in pivots and rng.random() < density:
                rows[i][j] = fld.sample(rng, 3)
    return Matrix.from_rows(fld, rows, cols=k)


def dense_matmul(a: Matrix, b: Matrix) -> Matrix:
    """The product a . b as the dense triple loop over every cell: the
    reference the zero-skipping product must match exactly."""
    fld = a.field
    left, right = a.data, b.data
    out = []
    for i in range(a.rows):
        row = []
        for j in range(b.cols):
            acc = fld.zero
            for k in range(a.cols):
                acc = fld.add(acc, fld.mul(left[i][k], right[k][j]))
            row.append(acc)
        out.append(row)
    return Matrix.from_rows(fld, out, cols=b.cols)


def kronecker_rows(m: Representation, n: Representation) -> list[list[Fraction]]:
    """The Kronecker-product system of the intertwiners m -> n: one row of
    vec(H A - B H) per generator (A, B) and output coordinate, over the
    row-major entries of H, with rational entries."""
    dm, dn = m.dim, n.dim
    rows = []
    for a, b in zip(m.mats, n.mats):
        for i in range(dn):
            for j in range(dm):
                row = [Fraction(0)] * (dn * dm)
                for r in range(dn):
                    for c in range(dm):
                        coeff = Fraction(0)
                        if r == i:
                            coeff += Fraction(a.data[c][j])
                        if c == j:
                            coeff -= Fraction(b.data[i][r])
                        row[r * dm + c] += coeff
                rows.append(row)
    return rows


def independent_hom_dim(m: Representation, n: Representation) -> int:
    """Intertwiner-space dimension via the Kronecker-product system, over
    the rationals or, for a prime field, with its ranks taken mod p (meant
    for d <= 6)."""
    rows = kronecker_rows(m, n)
    if not rows or not rows[0]:
        return 0
    return n.dim * m.dim - independent_rank(rows, m.field.characteristic)


def dense_intertwiner_basis(m: Representation, n: Representation,
                            support=None) -> list[Matrix]:
    """The canonical basis of the intertwiners m -> n held to ``support``
    (increasing row-major indices of H; default: all of them): the kernel
    of the Kronecker-product rows read at the supported entries, one
    vector per free column of their ``dense_rref``, reduced by
    ``dense_rref`` again and unflattened into n.dim x m.dim matrices."""
    fld, dm, dn = m.field, m.dim, n.dim
    if support is None:
        support = range(dn * dm)
    nvars = len(support)
    rows = [[row[k] for k in support] for row in kronecker_rows(m, n)]
    ech, _, pivots = dense_rref(Matrix.from_rows(fld, rows, cols=nvars))
    a = ech.data
    vectors = []
    for j in range(nvars):
        if j in pivots:
            continue
        vec = [fld.zero] * nvars
        vec[j] = fld.one
        for r, c in enumerate(pivots):
            vec[c] = fld.neg(a[r][j])
        vectors.append(vec)
    if not vectors:
        return []
    out = []
    for vec in dense_rref(Matrix.from_rows(fld, vectors, cols=nvars))[0].data:
        h = [[fld.zero] * dm for _ in range(dn)]
        for k, flat in enumerate(support):
            h[flat // dm][flat % dm] = vec[k]
        out.append(Matrix.from_rows(fld, h, cols=dm))
    return out


def dense_is_isomorphism(m: Representation, n: Representation,
                         h: list[list[int]]) -> bool:
    """Whether the dense integer matrix ``h`` is, mod the characteristic p
    of a prime field, an invertible intertwiner m -> n of equal dimension:
    h . m_g = n_g . h for every generator g by plain integer products, and
    rank ``m.dim`` by ``independent_rank``."""
    p, d = m.field.p, m.dim
    for a, b in zip(m.mats, n.mats):
        a, b = a.data, b.data
        for i in range(d):
            for j in range(d):
                if (sum(h[i][k] * a[k][j] for k in range(d))
                        - sum(b[i][k] * h[k][j] for k in range(d))) % p:
                    return False
    return independent_rank(h, p) == d


def all_vectors(p: int, d: int):
    for tup in product(range(p), repeat=d):
        yield tup


def brute_submodules(rep: Representation) -> set:
    """Second, slower enumeration: close every small generating set under
    the action and the span, then dedupe.

    Returns frozensets of vector tuples (the full point sets), which are
    basis-independent.
    """
    fld = rep.field
    p = fld.p
    d = rep.dim
    vectors = [v for v in all_vectors(p, d)]

    def act(mat: Matrix, vec):
        return tuple(sum(mat.data[i][j] * vec[j] for j in range(d)) % p
                     for i in range(d))

    def span_closure(gens):
        span = {tuple([0] * d)}
        frontier = list(gens)
        while frontier:
            v = frontier.pop()
            new = set()
            for w in span:
                for c in range(p):
                    u = tuple((wi + c * vi) % p for wi, vi in zip(w, v))
                    if u not in span:
                        new.add(u)
            span |= new
        # close under the generator matrices
        changed = True
        while changed:
            changed = False
            for mat in rep.mats:
                for v in list(span):
                    w = act(mat, v)
                    if w not in span:
                        for u in list(span):
                            for c in range(p):
                                x = tuple((ui + c * wi) % p
                                          for ui, wi in zip(u, w))
                                span.add(x)
                        changed = True
        return frozenset(span)

    found = {frozenset({tuple([0] * d)})}
    nonzero = [v for v in vectors if any(v)]
    for size in range(1, d + 1):
        for gens in combinations(nonzero, size):
            found.add(span_closure(gens))
    return found


def submodule_point_set(sub) -> frozenset:
    """All points of a submodule over a prime field, for comparison with
    brute_submodules output."""
    fld = sub.ambient.field
    p = fld.p
    basis = sub.space.basis
    d, k = basis.rows, basis.cols
    points = set()
    for coeffs in product(range(p), repeat=k):
        vec = tuple(sum(basis.data[i][j] * coeffs[j] for j in range(k)) % p
                    for i in range(d))
        points.add(vec)
    return frozenset(points)


def unit_column(fld, n: int, i: int) -> Matrix:
    """The n x 1 column with a one in row i and zeros elsewhere."""
    return Matrix.from_rows(fld, [[int(k == i) for k in range(n)]]).transpose()


def random_matrix(fld, rng: random.Random, rows: int, cols: int) -> Matrix:
    return Matrix.from_rows(
        fld, [[fld.sample(rng, 3) for _ in range(cols)] for _ in range(rows)], cols=cols)


def random_invertible(fld, rng: random.Random, n: int) -> Matrix:
    while True:
        m = random_matrix(fld, rng, n, n)
        if m.rank() == n:
            return m


def random_subspace(fld, rng: random.Random, dim: int) -> Subspace:
    k = rng.randint(0, dim)
    return Subspace.from_columns(random_matrix(fld, rng, dim, k))


def random_nilpotent_rep(alg: AlgebraPresentation, fld, rng: random.Random,
                         dim: int, degree: int) -> Representation:
    """A random representation of k[X]/(X^degree): conjugate a Jordan-type
    nilpotent by a random invertible matrix."""
    from moddeg.fixtures import jordan_module
    parts = []
    left = dim
    while left:
        size = rng.randint(1, min(left, degree))
        parts.append(size)
        left -= size
    base = jordan_module(fld, degree, tuple(sorted(parts, reverse=True)))
    g = random_invertible(fld, rng, dim)
    from moddeg.linalg import inverse
    ginv = inverse(g)
    mats = tuple(ginv @ (m @ g) for m in base.mats)
    return Representation(alg, fld, dim, mats)


def random_kronecker(fld, rng: random.Random, a: int, b: int,
                     density: float = 1.0) -> Representation:
    """A Kronecker representation of dimension vector (a, b): e1 and e2
    project onto the first a and the last b coordinates, and each arrow
    entry from vertex 1 to vertex 2 is random and nonzero with probability
    ``density``."""
    from moddeg.fixtures import kronecker_algebra, make_rep
    d = a + b
    idem = [[[int(i == j and (i < a) == (v == 0)) for j in range(d)]
             for i in range(d)] for v in (0, 1)]
    arrows = [[[rng.randrange(1, 4) * rng.choice([-1, 1])
                if i >= a > j and rng.random() < density else 0
                for j in range(d)] for i in range(d)] for _ in range(2)]
    return make_rep(kronecker_algebra(), fld, idem + arrows)


def dense_psi(rep: Representation) -> list[Matrix]:
    """The generator images of psi for a triangular representation, built
    entry by entry from the generator matrices: stage i (the first i
    coordinates) sits at offset i(i-1)/2 of a d(d+1)/2-dimensional space.
    Each lifted generator holds its top-left i x i block on stage i; E_ii
    is the identity on stage d+1-i; E_{i,i+1} is [I; 0] from stage d-i
    into stage d+1-i.  The order is lifts, then E_ii, then E_{i,i+1}."""
    fld, d = rep.field, rep.dim
    size = d * (d + 1) // 2

    def start(i):
        return i * (i - 1) // 2

    def blank():
        return [[fld.zero] * size for _ in range(size)]

    out = []
    for m in rep.mats:
        img = blank()
        for i in range(1, d + 1):
            for r in range(i):
                for c in range(i):
                    img[start(i) + r][start(i) + c] = m.data[r][c]
        out.append(img)
    for i in range(1, d + 1):
        img, s = blank(), d + 1 - i
        for r in range(s):
            img[start(s) + r][start(s) + r] = fld.one
        out.append(img)
    for i in range(1, d):
        img, rows, cols = blank(), d + 1 - i, d - i
        for r in range(cols):
            img[start(rows) + r][start(cols) + r] = fld.one
        out.append(img)
    return [Matrix.from_rows(fld, img, cols=size) for img in out]


def random_strict_triangular_nilpotent(fld, rng: random.Random, d: int):
    """A d-dimensional k[X]/(X^d) representation whose X is a random
    strictly upper-triangular matrix (so X^d = 0)."""
    from moddeg.fixtures import make_rep, truncated_polynomial_algebra
    x = [[rng.randint(-2, 2) if c > r and rng.random() < 0.6 else 0
          for c in range(d)] for r in range(d)]
    ident = [[int(r == c) for c in range(d)] for r in range(d)]
    return make_rep(truncated_polynomial_algebra(d), fld, [ident, x])


# Dense references for the row-sparse matrix operations: each works on the
# dense rows of ``Matrix.data`` (lists of lists) with one field call per
# cell, and returns dense rows.

def dense_rows(m: Matrix) -> list[list]:
    return [list(row) for row in m.data]


def dense_transpose(a: list[list], cols: int) -> list[list]:
    return [[row[j] for row in a] for j in range(cols)]


def dense_submatrix(a: list[list], rows, cols) -> list[list]:
    return [[a[i][j] for j in cols] for i in rows]


def dense_add(fld, a: list[list], b: list[list]) -> list[list]:
    return [[fld.add(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def dense_sub(fld, a: list[list], b: list[list]) -> list[list]:
    return [[fld.sub(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def dense_scale(fld, scalar, a: list[list]) -> list[list]:
    return [[fld.mul(scalar, x) for x in row] for row in a]


def dense_hstack(a: list[list], b: list[list]) -> list[list]:
    return [ra + rb for ra, rb in zip(a, b)]


def dense_vstack(a: list[list], b: list[list]) -> list[list]:
    return a + b


def dense_block_diag(fld, a: list[list], a_cols: int,
                     b: list[list], b_cols: int) -> list[list]:
    return ([row + [fld.zero] * b_cols for row in a]
            + [[fld.zero] * a_cols + row for row in b])


def dense_is_zero(fld, a: list[list]) -> bool:
    return all(fld.is_zero(x) for row in a for x in row)


def dense_is_upper_triangular(fld, a: list[list]) -> bool:
    return all(fld.is_zero(x) for i, row in enumerate(a) for x in row[:i])
