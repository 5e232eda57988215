"""The intertwiner solvers, cross-checked against independent oracles:
the spin system behind ``hom_dim`` and ``hom_basis`` and the kernel of
the supported system ``intertwiner_system`` against the dense
Kronecker-product reference in ``support``, brute-force counts of
upper-triangular intertwiners over tiny prime fields, and the
Kronecker-product rank in ``support``."""

import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

from moddeg import Representation, direct_sum, hom_basis, hom_dim, series_isomorphic
from moddeg.algebras import (acting_generators, conjugate, hom_spin,
                             intertwiner_equations, intertwiner_system,
                             transposed, unflatten)
from moddeg.errors import AlgebraMismatch
from moddeg.fields import GF, QQ
from moddeg.fixtures import (bidir_m, bidir_n, bidirectional_quiver_algebra,
                             jordan_module, kron_i2, kron_regular, kron_s1, kron_s2,
                             kronecker_algebra, make_rep,
                             mu_corner_triangular, simple_module,
                             truncated_polynomial_algebra)
from moddeg.ladders import psi_embed
from moddeg.linalg import Matrix, block_diag, kernel
from moddeg.series import TriangularRep, upper_triangular_hom_basis

from support import (dense_intertwiner_basis, independent_hom_dim,
                     random_invertible, random_kronecker,
                     random_strict_triangular_nilpotent)

KX3 = truncated_polynomial_algebra(3)
KRON = kronecker_algebra()
FIELDS = {"QQ": QQ, "GF(2)": GF(2), "GF(101)": GF(101)}
ORIENTATION_FIELDS = {**FIELDS, "GF(3)": GF(3)}
KINDS = ("identity", "idempotent", "zero", "sparse", "dense", "lower", "upper")


def generator_matrix(fld, d: int, kind: str, rng) -> Matrix:
    """A d x d matrix of one kind: the identity, a diagonal idempotent, zero,
    random entries with about a third or all of them nonzero, or random
    entries with about two thirds of those on and below (lower) or on and
    above (upper) the diagonal nonzero."""
    def cell():
        if fld == QQ:
            return Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))
        return rng.randrange(1, fld.p)
    if kind == "identity":
        rows = [[int(i == j) for j in range(d)] for i in range(d)]
    elif kind == "idempotent":
        diag = [rng.randrange(2) for _ in range(d)]
        rows = [[diag[i] if i == j else 0 for j in range(d)] for i in range(d)]
    elif kind in ("lower", "upper"):
        rows = [[cell() if (j <= i if kind == "lower" else j >= i)
                 and rng.random() < 2 / 3 else 0 for j in range(d)]
                for i in range(d)]
    else:
        density = {"zero": 0, "sparse": 0.3, "dense": 1}[kind]
        rows = [[cell() if rng.random() < density else 0 for _ in range(d)]
                for _ in range(d)]
    return Matrix.from_rows(fld, rows, cols=d)


def tuple_rep(alg, fld, d: int, kinds, seed: int) -> Representation:
    """One generator matrix per kind; the relations need not hold."""
    rng = random.Random(seed)
    return Representation(alg, fld, d, tuple(generator_matrix(fld, d, kind, rng)
                                             for kind in kinds))


def assert_spin_matches_full_system(m, n):
    basis = [h.mat for h in hom_basis(m, n)]
    assert basis == dense_intertwiner_basis(m, n)
    assert hom_dim(m, n) == len(basis) == independent_hom_dim(m, n)


@st.composite
def generator_tuples(draw):
    """A pair of generator tuples for k[X]/(X^3) or the Kronecker quiver
    over QQ, GF(2) or GF(101), of dimensions drawn independently.  Half
    the time the second tuple is the first one conjugated by a random
    invertible matrix, so that Hom is often nonzero."""
    fld = FIELDS[draw(st.sampled_from(sorted(FIELDS)))]
    alg = draw(st.sampled_from([KX3, KRON]))
    conjugated = draw(st.booleans())

    def draw_tuple(least):
        return tuple_rep(alg, fld, draw(st.integers(least, 6)),
                         draw(st.lists(st.sampled_from(KINDS),
                                       min_size=len(alg.generators),
                                       max_size=len(alg.generators))),
                         draw(st.integers(0, 2 ** 30)))
    m = draw_tuple(1 if conjugated else 0)
    if not conjugated:
        return m, draw_tuple(0)
    rng = random.Random(draw(st.integers(0, 2 ** 30)))
    return m, conjugate(m, random_invertible(fld, rng, m.dim))


@given(generator_tuples())
@settings(max_examples=120, deadline=None)
@example((tuple_rep(KRON, GF(2), 5, ("idempotent",) * 4, 1),
          tuple_rep(KRON, GF(2), 0, ("idempotent",) * 4, 1)))
@example((tuple_rep(KX3, QQ, 0, ("identity", "dense"), 2),
          tuple_rep(KX3, QQ, 4, ("identity", "dense"), 3)))
def test_spin_hom_matches_full_system(pair):
    assert_spin_matches_full_system(*pair)


@st.composite
def supported_pairs(draw):
    """A pair of generator tuples of dimension at most 5, as in
    ``generator_tuples``, with a support for H: its upper-triangular
    entries or a random set of them.  The second tuple is drawn
    independently, or is the first one conjugated by a random invertible
    matrix, so that Hom is often nonzero."""
    fld = FIELDS[draw(st.sampled_from(sorted(FIELDS)))]
    alg = draw(st.sampled_from([KX3, KRON]))
    m, n = (tuple_rep(alg, fld, draw(st.integers(0, 5)),
                      draw(st.lists(st.sampled_from(KINDS),
                                    min_size=len(alg.generators),
                                    max_size=len(alg.generators))),
                      draw(st.integers(0, 2 ** 30)))
            for _ in range(2))
    if m.dim and draw(st.booleans()):
        rng = random.Random(draw(st.integers(0, 2 ** 30)))
        n = conjugate(m, random_invertible(fld, rng, m.dim))
    if draw(st.booleans()):
        support = [r * m.dim + c for r in range(n.dim) for c in range(r, m.dim)]
    elif m.dim * n.dim:
        support = sorted(draw(st.sets(st.integers(0, m.dim * n.dim - 1))))
    else:
        support = []
    return m, n, support


def supported_basis(m, n, support) -> list[Matrix]:
    """The kernel of ``intertwiner_system``, unflattened: the canonical
    basis of the intertwiners m -> n held to ``support``."""
    return [unflatten(m.field, n.dim, m.dim, vec, support) for vec in
            kernel(intertwiner_system(m, n, support)).basis.transpose().entries]


@given(supported_pairs())
@settings(max_examples=100, deadline=None)
def test_canonical_hom_bases_match_the_dense_reference(case):
    m, n, support = case
    full = dense_intertwiner_basis(m, n)
    assert [h.mat for h in hom_basis(m, n)] == full
    assert supported_basis(m, n, range(n.dim * m.dim)) == full
    assert supported_basis(m, n, support) == dense_intertwiner_basis(m, n, support)


def every_pair_system(m, n, support) -> Matrix:
    """``intertwiner_system`` with rows written for every generator pair,
    the identity on both sides included."""
    fld, dm, dn = m.field, m.dim, n.dim
    unknown = [None] * (dn * dm)
    for k, flat in enumerate(support):
        unknown[flat] = k
    pending = [(b, j, col) for a, b in zip(m.mats, n.mats)
               for j, col in enumerate(a.transpose().entries)]
    return intertwiner_equations(fld, len(support), [Matrix.identity(fld, dn)] * dm,
                                 [unknown[j::dm] for j in range(dm)], pending)


@pytest.mark.parametrize("name", sorted(FIELDS))
@pytest.mark.parametrize("unit", ["identity", "sparse"])
def test_intertwiner_system_matches_the_system_of_every_generator_pair(name, unit):
    """Leaving out the generators that are the identity on both sides
    keeps the system row for row, on full, upper-triangular and random
    supports; a unit acting as the identity on only one side keeps its
    rows."""
    fld = FIELDS[name]
    rng = random.Random(f"{name}:{unit}")
    for d in range(5):
        m = tuple_rep(KX3, fld, d, (unit, "sparse"), rng.randrange(1 << 30))
        same_unit = [m, tuple_rep(KX3, fld, d, (unit, "dense"), rng.randrange(1 << 30)),
                     conjugate(m, random_invertible(fld, rng, d))]
        if unit == "identity":
            assert all(0 not in acting_generators(m, n) for n in same_unit)
        for n in same_unit + [tuple_rep(KX3, fld, rng.randint(0, 4), ("sparse", "dense"),
                                        rng.randrange(1 << 30))]:
            full = range(n.dim * m.dim)
            upper = [r * m.dim + c for r in range(n.dim) for c in range(r, m.dim)]
            some = sorted(rng.sample(full, len(full) // 2))
            for support in (full, upper, some):
                got = intertwiner_system(m, n, support)
                want = every_pair_system(m, n, support)
                assert (got.rows, got.cols) == (want.rows, want.cols)
                assert got.entries == want.entries


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_spin_hom_with_three_or_more_roots_matches_full_system(name):
    fld = FIELDS[name]
    rng = random.Random(len(name))
    jordan = [conjugate(jordan_module(fld, 3, part),
                        random_invertible(fld, rng, sum(part)))
              for part in [(2, 1, 1), (1, 1, 1, 1), (2, 2, 1)]]
    kron = [conjugate(rep, random_invertible(fld, rng, rep.dim)) for rep in (
        direct_sum(direct_sum(kron_s1(fld), kron_s1(fld)),
                   direct_sum(kron_s1(fld), kron_s2(fld))),
        direct_sum(direct_sum(kron_i2(fld), kron_s1(fld)), kron_s1(fld)))]
    for pool in (jordan, kron):
        for m in pool:
            assert hom_spin(m, m).equations.cols // m.dim >= 3
            for n in pool:
                assert_spin_matches_full_system(m, n)


def lower_triangular(rep) -> bool:
    return all(g.is_lower_triangular() for g in rep.mats)


@pytest.mark.parametrize("name", sorted(ORIENTATION_FIELDS))
def test_hom_basis_matches_the_dense_reference_in_both_orientations(name):
    """``hom_basis`` spins the transposed pair unless every generator of
    the target is lower triangular.  Conjugated Jordan targets take the
    transposed spin, Kronecker targets with the source vertex first the
    direct one, and a zero-dimensional side either; every basis equals
    the dense reference."""
    fld = ORIENTATION_FIELDS[name]
    rng = random.Random(f"orientations:{name}")
    jordan = [conjugate(jordan_module(fld, 3, part), random_invertible(fld, rng, sum(part)))
              for part in [(3, 1), (2, 2, 1), (3, 2, 1)]]
    kron = [random_kronecker(fld, rng, a, b, density)
            for a, b, density in [(2, 3, 1.0), (3, 2, 0.5), (3, 3, 0.7)]]
    kron.append(conjugate(kron[0], random_invertible(fld, rng, 5)))
    zero = [jordan_module(fld, 3, ()), random_kronecker(fld, rng, 0, 0)]
    assert not any(lower_triangular(n) for n in jordan + kron[3:])
    assert all(lower_triangular(n) for n in kron[:3] + zero)
    orientations = set()
    for pool in (jordan, kron, [jordan[0], zero[0]], [kron[0], zero[1]]):
        for m in pool:
            for n in pool:
                assert_spin_matches_full_system(m, n)
                orientations.add(lower_triangular(n))
    assert orientations == {False, True}


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_transposed_spin_keeps_every_root_exactly_on_lower_triangular_targets(name):
    """The spin of n^T from greedy unit vectors keeps n.dim roots, one
    unknown row of H each, exactly when every generator of n is lower
    triangular: the spans of e_0 .. e_i are then all invariant under
    the upper-triangular n_g^T."""
    fld = FIELDS[name]
    rng = random.Random(f"roots:{name}")
    seen = set()
    for alg in (KX3, KRON):
        for _ in range(40):
            d = rng.randint(1, 5)
            n = tuple_rep(alg, fld, d, [rng.choice(KINDS) for _ in alg.generators],
                          rng.randrange(1 << 30))
            m = tuple_rep(alg, fld, rng.randint(1, 4),
                          [rng.choice(KINDS) for _ in alg.generators],
                          rng.randrange(1 << 30))
            roots = len(hom_spin(transposed(n), transposed(m)).roots)
            assert (roots == d) == lower_triangular(n)
            seen.add(roots == d)
    assert seen == {False, True}


def vertex_shuffled(rep, rng, split: int):
    """``rep`` conjugated by a random invertible matrix that keeps the
    first ``split`` coordinates (vertex 1) and the rest (vertex 2) apart,
    then by a random permutation: the idempotents stay diagonal 0/1 and
    every arrow still maps one vertex into the other."""
    fld, d = rep.field, rep.dim
    order = rng.sample(range(d), d)
    perm = Matrix.from_rows(fld, [[int(order[c] == r) for c in range(d)] for r in range(d)],
                            cols=d)
    return conjugate(rep, block_diag(random_invertible(fld, rng, split),
                                     random_invertible(fld, rng, d - split)) @ perm)


def random_bidirectional(fld, rng, a: int, b: int):
    """A ``bidirectional_quiver_algebra`` module of dimension vector
    (a, b): the arrow 1 -> 2 sends the first p coordinates of vertex 1
    into the first q of vertex 2, the arrow 2 -> 1 the others of vertex 2
    into the others of vertex 1, so both two-step cycles vanish."""
    p, q = rng.randint(0, a), rng.randint(0, b)
    d = a + b
    idem = [[[int(i == j and (i < a) == (v == 0)) for j in range(d)]
             for i in range(d)] for v in (0, 1)]
    there = [[rng.randint(-2, 2) if a <= i < a + q and j < p else 0
              for j in range(d)] for i in range(d)]
    back = [[rng.randint(-2, 2) if p <= i < a and a + q <= j else 0
             for j in range(d)] for i in range(d)]
    return make_rep(bidirectional_quiver_algebra(), fld, idem + [there, back])


def class_size(rep, vertex: int) -> int:
    """The number of coordinates on which e_vertex acts as one."""
    return sum(1 for cols, _ in rep.mats[vertex].entries if cols)


@pytest.mark.parametrize("name", sorted(ORIENTATION_FIELDS))
def test_coordinate_idempotents_held_as_a_support_match_the_dense_reference(name):
    """Quiver modules with diagonal idempotents, psi modules with their
    diagonal matrix units E_ii, and tuples whose arrow mixes two vertices:
    every ``hom_basis`` equals the dense reference and every ``hom_dim``
    its length.  On Kronecker pairs each root e_i has unknowns only at the
    coordinates of N at the vertex of i; once an arrow mixes the vertices,
    every generator is spun and every root has n.dim unknowns."""
    fld = ORIENTATION_FIELDS[name]
    rng = random.Random(f"support:{name}")

    def check(m, n):
        basis = [h.mat for h in hom_basis(m, n)]
        assert basis == dense_intertwiner_basis(m, n)
        assert hom_dim(m, n) == len(basis)

    for _ in range(6):
        dims = [(rng.randint(0, 3), rng.randint(0, 3)) for _ in range(2)]
        base = random_kronecker(fld, rng, *dims[0], rng.random())
        m, again = (vertex_shuffled(base, rng, dims[0][0]) for _ in range(2))
        n = vertex_shuffled(random_kronecker(fld, rng, *dims[1], rng.random()), rng, dims[1][0])
        for source, target in ((m, n), (m, again), (n, m), (m, base)):
            check(source, target)
            spin = hom_spin(source, target)
            vertex = [bool(source.mats[0].entries[i][0]) for i, _ in spin.roots]
            assert spin.equations.cols == sum(
                class_size(target, 0 if v else 1) for v in vertex)
        m, n = (random_bidirectional(fld, rng, a, b) for a, b in dims)
        for source, target in ((m, n), (m, vertex_shuffled(m, rng, dims[0][0]))):
            check(source, target)
    for d in (1, 2, 3):
        t = TriangularRep(random_strict_triangular_nilpotent(fld, rng, d))
        u = Matrix.from_rows(fld, [[int(i == j) or rng.randint(-2, 2) * (j > i)
                                    for j in range(d)] for i in range(d)])
        other = TriangularRep(random_strict_triangular_nilpotent(fld, rng, d))
        for n in (psi_embed(TriangularRep(conjugate(t.rep, u))), psi_embed(other)):
            check(psi_embed(t), n)
    for _ in range(4):
        a, b = rng.randint(1, 3), rng.randint(1, 3)
        mixed = random_kronecker(fld, rng, a, b)
        arrow = [list(row) for row in mixed.mats[2].data]
        c = rng.randrange(a)        # sent into vertex 1 and vertex 2 at once
        arrow[rng.randrange(a)][c] = arrow[a + rng.randrange(b)][c] = fld.one
        mixed = Representation(mixed.algebra, fld, a + b, (
            *mixed.mats[:2], Matrix.from_rows(fld, arrow), mixed.mats[3]))
        for source, target in ((mixed, random_kronecker(fld, rng, b, a)),
                               (mixed, vertex_shuffled(mixed, rng, a)),
                               (random_kronecker(fld, rng, a, b), mixed)):
            check(source, target)
            spin = hom_spin(source, target)
            assert spin.equations.cols == len(spin.roots) * target.dim


def test_spin_system_of_a_conjugated_jordan_module_has_t_dim_n_unknowns():
    fld = GF(101)
    m = conjugate(jordan_module(fld, 3, (3, 3, 2)),
                  random_invertible(fld, random.Random(8), 8))
    spin = hom_spin(m, m)
    assert spin.equations.cols // m.dim == 3
    assert spin.equations.cols == 24 < m.dim * m.dim
    assert hom_dim(m, m) == sum(min(a, b) for a in (3, 3, 2) for b in (3, 3, 2))


def brute_upper_triangular_intertwiners(a: TriangularRep,
                                        b: TriangularRep) -> int:
    """Number of upper-triangular H with H . a_g = b_g . H for every
    generator g, by enumerating all of them with integer arithmetic mod p."""
    p, d = a.rep.field.p, a.dim
    pairs = [(ma.data, mb.data) for ma, mb in zip(a.rep.mats, b.rep.mats)]
    slots = [(r, c) for r in range(d) for c in range(r, d)]
    count = 0
    for values in product(range(p), repeat=len(slots)):
        h = [[0] * d for _ in range(d)]
        for (r, c), v in zip(slots, values):
            h[r][c] = v
        if all((sum(h[i][k] * am[k][j] for k in range(d))
                - sum(bm[i][k] * h[k][j] for k in range(d))) % p == 0
               for am, bm in pairs for i in range(d) for j in range(d)):
            count += 1
    return count


def random_triangular_nilpotent(fld, rng, d: int) -> TriangularRep:
    """k[X]/(X^3) acting by a random strictly upper-triangular X (d <= 3)."""
    ident = [[int(i == j) for j in range(d)] for i in range(d)]
    x = [[rng.randrange(fld.p) if j > i else 0 for j in range(d)]
         for i in range(d)]
    return TriangularRep(make_rep(KX3, fld, [ident, x]))


def random_triangular_kronecker(fld, rng, d: int) -> TriangularRep:
    """A Kronecker module on a random vertex sequence: the arrows (vertex 1
    to vertex 2) act by random entries above the diagonal."""
    vertex = [rng.randrange(2) for _ in range(d)]
    idem = [[[int(i == j and vertex[i] == v) for j in range(d)]
             for i in range(d)] for v in (0, 1)]
    arrows = [[[rng.randrange(fld.p) if j > i and vertex[i] == 1
                and vertex[j] == 0 else 0 for j in range(d)]
               for i in range(d)] for _ in range(2)]
    return TriangularRep(make_rep(KRON, fld, idem + arrows))


def random_upper_conjugate(tri: TriangularRep, rng) -> TriangularRep:
    """Conjugate by a random invertible upper-triangular matrix."""
    fld, d = tri.rep.field, tri.dim
    u = Matrix.from_rows(fld, [[rng.randrange(1, fld.p) if i == j
                                else rng.randrange(fld.p) if j > i else 0
                                for j in range(d)] for i in range(d)])
    return TriangularRep(conjugate(tri.rep, u))


@pytest.mark.parametrize("p", [2, 3])
def test_upper_triangular_hom_basis_counts_match_brute_force(p):
    fld = GF(p)
    rng = random.Random(40 + p)
    checked = 0
    for d in (1, 2, 3):
        for make in (random_triangular_nilpotent, random_triangular_kronecker):
            for _ in range(6):
                a = make(fld, rng, d)
                for b in (make(fld, rng, d), random_upper_conjugate(a, rng), a):
                    basis = upper_triangular_hom_basis(a, b)
                    assert all(h.is_upper_triangular() for h in basis)
                    assert p ** len(basis) == brute_upper_triangular_intertwiners(a, b)
                    checked += 1
    assert checked == 2 * 3 * 6 * 3


def test_hom_basis_matches_independent_solver_on_conjugated_pairs():
    rng = random.Random(17)
    pools = [
        [kron_s1(QQ), kron_s2(QQ), kron_regular(QQ, 1, 0),
         kron_regular(QQ, 1, 2), kron_i2(QQ)],
        [jordan_module(QQ, 3, part) for part in
         [(1,), (2,), (3,), (1, 1), (2, 1), (2, 2), (3, 1), (1, 1, 1)]],
        [bidir_m(QQ), bidir_n(QQ)],
    ]
    for pool in pools:
        for _ in range(8):
            m, n = (rng.choice(pool) for _ in range(2))
            m = conjugate(m, random_invertible(QQ, rng, m.dim))
            n = conjugate(n, random_invertible(QQ, rng, n.dim))
            basis = hom_basis(m, n)
            assert all(h.is_intertwiner() for h in basis)
            assert len(basis) == independent_hom_dim(m, n)


def test_triangular_intertwiners_refuse_different_algebras():
    s = simple_module(QQ, 2)
    s3 = TriangularRep(direct_sum(direct_sum(s, s), s))
    mu = mu_corner_triangular(QQ)
    assert s3.dim == mu.dim == 3
    with pytest.raises(AlgebraMismatch):
        upper_triangular_hom_basis(s3, mu)
    with pytest.raises(AlgebraMismatch):
        series_isomorphic(mu, s3)
