"""The shared intertwiner-system builder, cross-checked against independent
oracles: brute-force counts of upper-triangular intertwiners over tiny
prime fields, and the Kronecker-product solver in ``support``."""

import random
from itertools import product

import pytest

from moddeg import direct_sum, hom_basis, series_isomorphic
from moddeg.algebras import conjugate
from moddeg.errors import AlgebraMismatch
from moddeg.fields import GF, QQ
from moddeg.fixtures import (bidir_m, bidir_n, jordan_module, kron_i2,
                             kron_regular, kron_s1, kron_s2,
                             kronecker_algebra, make_rep,
                             mu_corner_triangular, simple_module,
                             truncated_polynomial_algebra)
from moddeg.linalg import Matrix
from moddeg.series import TriangularRep, upper_triangular_hom_basis

from support import independent_hom_dim, random_invertible

KX3 = truncated_polynomial_algebra(3)
KRON = kronecker_algebra()


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
    s3 = TriangularRep(direct_sum(direct_sum(s, s)[0], s)[0])
    mu = mu_corner_triangular(QQ)
    assert s3.dim == mu.dim == 3
    with pytest.raises(AlgebraMismatch):
        upper_triangular_hom_basis(s3, mu)
    with pytest.raises(AlgebraMismatch):
        series_isomorphic(mu, s3)
