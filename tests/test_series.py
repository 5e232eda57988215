"""Composition series, triangular forms, composition vectors and
series-level isomorphism."""

import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from moddeg import (Matrix, Submodule, Subspace, composition_series,
                    composition_vector, direct_sum, is_isomorphic,
                    series_chain, series_isomorphic, series_to_triangular,
                    simultaneous_triangularize, socle,
                    tc_idempotent_matrices, tc_membership,
                    triangular_to_series, validate)
from moddeg.algebras import ModuleMap, conjugate, zero_representation
from moddeg.errors import FieldTooSmall, VectorMismatch
from moddeg.fields import GF, QQ
from moddeg.fixtures import (bidir_m, bidir_n, jordan_module, kron_i2,
                             kron_r2_mu, kronecker_algebra, make_rep,
                             mu_corner_triangular, nu_prime_triangular,
                             nu_shift_triangular, regular_module,
                             simple_module, truncated_polynomial_algebra,
                             y_module)
from moddeg.linalg import (ENUMERATION_LIMIT, first_combination, kernel,
                           row_from_dense, rref)
from moddeg.series import (ModuleChain, TriangularRep, triangularize_flags,
                           upper_triangular_hom_basis)
from support import (random_invertible, random_kronecker, random_nilpotent_rep,
                     random_strict_triangular_nilpotent)

F2 = GF(2)
KX3 = truncated_polynomial_algebra(3)


def test_socle_cases():
    s2 = direct_sum(simple_module(QQ), simple_module(QQ))
    assert socle(s2).space.dim == s2.dim
    lam = regular_module(QQ, 2)
    assert socle(lam).dim == 1
    assert socle(kron_i2(QQ)).space.basis.transpose().data[0] == (0, 0, 1)


@given(st.integers(0, 2 ** 30), st.sampled_from([QQ, F2, GF(101)]))
@settings(max_examples=60, deadline=None)
def test_socle_is_the_chained_intersection_of_generator_kernels(seed, fld):
    rng = random.Random(seed)
    reps = [random_kronecker(fld, rng, rng.randint(0, 3), rng.randint(1, 3),
                             rng.choice([0.3, 1.0])),
            random_nilpotent_rep(KX3, fld, rng, rng.randint(0, 5), 3),
            simple_module(fld)]
    for rep in reps:
        space = Subspace.full(fld, rep.dim)
        for idx in rep.algebra.radical_indices:
            space = space.intersect(kernel(rep.mats[idx]))
        assert socle(rep).space == space


def test_composition_series_simple():
    s = simple_module(QQ)
    cs = composition_series(s)
    assert cs.length == 1 and cs.factor_names() == ("e",)


def test_composition_series_regular_dual_numbers():
    lam = regular_module(QQQ := QQ, 2)
    cs = composition_series(lam)
    assert [f.dim for f in cs.flags] == [1, 2]
    assert cs.factor_names() == ("e", "e")
    assert cs.flags[0].space.basis.transpose().data[0] == (0, 1)   # the socle first


def test_composition_series_s_plus_y_levels():
    s = make_rep(KX3, QQ, [[[1]], [[0]]])
    y = y_module(QQ)
    sy = direct_sum(s, y)
    cs = composition_series(sy)
    chain = series_chain(cs)
    # level isomorphism types: S, S (+) S, S (+) Y
    assert chain.stages[0].dim == 1
    assert chain.stages[1].mats[1].is_zero()
    assert is_isomorphic(chain.stages[2], sy)
    assert chain.validate()


def test_chain_validate_refuses_wrong_stage_dimensions_and_stages():
    lam = regular_module(QQ, 2)
    chain = series_chain(composition_series(lam))
    assert chain.validate()
    assert not ModuleChain((lam,), ()).validate()       # stage 1 of dimension 2
    s2 = direct_sum(simple_module(QQ), simple_module(QQ))
    wrong = ModuleMap(chain.stages[0], s2, chain.inclusions[0].mat)
    assert not ModuleChain(chain.stages, (wrong,)).validate()


def test_series_to_triangular_already_adapted():
    tri = mu_corner_triangular(QQ)
    cs = triangular_to_series(tri)
    again = series_to_triangular(cs)
    assert again.rep == tri.rep


def test_mu_series_triangularizes_to_corner():
    # the series threading the socle of the 2-dimensional summand
    s = make_rep(KX3, QQ, [[[1]], [[0]]])
    y = y_module(QQ)
    sy = direct_sum(s, y)
    flags = [Subspace.from_columns(Matrix.from_rows(QQ, [[0, 1, 0]]).transpose()),
             Subspace.from_columns(Matrix.from_rows(QQ, [[1, 0, 0], [0, 1, 0]]).transpose()),
             Subspace.full(QQ, 3)]
    tri = triangularize_flags(sy, flags)
    assert tri.rep.mats[1] == Matrix.from_rows(
        QQ, [[0, 0, 1], [0, 0, 0], [0, 0, 0]])


def test_triangular_round_trip_random():
    rng = random.Random(17)
    for _ in range(10):
        rep = random_nilpotent_rep(KX3, F2, rng, rng.randint(1, 4), 3)
        cs = composition_series(rep)
        tri = series_to_triangular(cs)
        assert is_isomorphic(tri.rep, rep)
        back = triangular_to_series(tri)
        assert [f.dim for f in back.flags] == [f.dim for f in cs.flags]
        assert back.factors == cs.factors


def test_triangular_to_series_zero_action_reads_diagonals():
    alg = kron_i2(QQ).algebra
    rep = make_rep(alg, QQ, [
        [[1, 0], [0, 0]], [[0, 0], [0, 1]],
        [[0, 0], [0, 0]], [[0, 0], [0, 0]]])
    cs = triangular_to_series(TriangularRep(rep))
    assert cs.factor_names() == ("e1", "e2")
    for i, flag in enumerate(cs.flags):
        assert flag.space == Subspace.from_columns(
            Matrix.identity(QQ, 2).submatrix(range(2), range(i + 1)))


def test_triangular_to_series_flags_and_stages():
    tri = nu_shift_triangular(QQ)
    cs = triangular_to_series(tri)
    for i, flag in enumerate(cs.flags):
        assert flag.dim == i + 1
        flag.require_invariant()
    # stage i is the top-left truncation
    for i in range(1, 4):
        stage = tri.stage(i)
        assert stage.mats[1] == tri.rep.mats[1].submatrix(range(i), range(i))


def test_composition_vector_examples():
    s2 = kron_i2(QQ)  # only to fetch the algebra
    cs = triangular_to_series(kron_r2_mu(QQ))
    assert cs.factor_names() == ("e2", "e2", "e1", "e1")
    simple2 = composition_series(
        make_rep(kron_i2(QQ).algebra, QQ, [[[0]], [[1]], [[0]], [[0]]]))
    assert simple2.factor_names() == ("e2",)


def test_composition_vector_invariant_under_series_isomorphism():
    mu = kron_r2_mu(QQ)
    witness = series_isomorphic(mu, mu)
    assert witness is not None
    assert composition_vector(triangular_to_series(mu)) == \
        composition_vector(triangular_to_series(mu))


def test_tc_matrices():
    alg = kron_i2(QQ).algebra
    mats = tc_idempotent_matrices(alg, QQ, (0,))
    assert mats[0] == Matrix.identity(QQ, 1) and mats[1].is_zero()
    cvec = (1, 1, 0, 0)
    a1, a2 = tc_idempotent_matrices(alg, QQ, cvec)
    mu = kron_r2_mu(QQ)
    assert mu.rep.mats[0] == a1 and mu.rep.mats[1] == a2
    total = a1 + a2
    assert total == Matrix.identity(QQ, 4)
    assert tc_membership(mu, cvec)
    assert not tc_membership(mu, (0, 0, 1, 1))


def test_simultaneous_triangularize_equal_inputs():
    lam = regular_module(QQ, 3)
    cs = composition_series(lam)
    tm, tn = simultaneous_triangularize(lam, lam, cs, cs)
    assert tm.rep == tn.rep


def test_simultaneous_triangularize_vector_mismatch():
    m, n = bidir_m(QQ), bidir_n(QQ)
    sm, sn = composition_series(m), composition_series(n)
    assert sm.factor_names() == ("e2", "e1")
    assert sn.factor_names() == ("e1", "e2")
    with pytest.raises(VectorMismatch):
        simultaneous_triangularize(m, n, sm, sn)
    # each module individually still triangularizes
    series_to_triangular(sm)
    series_to_triangular(sn)


def test_simultaneous_triangularize_nontrivial_pair():
    s = make_rep(KX3, QQ, [[[1]], [[0]]])
    y = y_module(QQ)
    sy = direct_sum(s, y)
    mu_flags = [Subspace.from_columns(Matrix.from_rows(QQ, [[0, 1, 0]]).transpose()),
                Subspace.from_columns(Matrix.from_rows(QQ, [[1, 0, 0], [0, 1, 0]]).transpose()),
                Subspace.full(QQ, 3)]
    nup_flags = [Subspace.from_columns(Matrix.from_rows(QQ, [[1, 0, 0]]).transpose()),
                 Subspace.from_columns(Matrix.from_rows(QQ, [[1, 0, 0], [0, 1, 0]]).transpose()),
                 Subspace.full(QQ, 3)]
    from moddeg.series import CompositionSeries
    sm = CompositionSeries(sy, tuple(Submodule(sy, f) for f in mu_flags), (0, 0, 0))
    sn = CompositionSeries(sy, tuple(Submodule(sy, f) for f in nup_flags), (0, 0, 0))
    tm, tn = simultaneous_triangularize(sy, sy, sm, sn)
    assert tm.rep.mats[0] == tn.rep.mats[0]
    assert tc_membership(tm, (0, 0, 0)) and tc_membership(tn, (0, 0, 0))


def test_series_isomorphic_reflexive_and_negative_pairs():
    mu = mu_corner_triangular(QQ)
    nu = nu_shift_triangular(QQ)
    nup = nu_prime_triangular(QQ)
    assert series_isomorphic(mu, mu) is not None
    assert series_isomorphic(mu, nu) is None
    assert series_isomorphic(mu, nup) is None
    assert series_isomorphic(nu, nup) is None


def test_series_isomorphism_implies_module_isomorphism():
    mu = mu_corner_triangular(QQ)
    nu = nu_shift_triangular(QQ)
    # the converse fails on this pair
    assert is_isomorphic(mu.rep, nu.rep)
    assert series_isomorphic(mu, nu) is None
    # a genuinely series-isomorphic pair: conjugate by a unitriangular matrix
    g = Matrix.from_rows(QQ, [[1, 2, 0], [0, 1, 1], [0, 0, 1]])
    from moddeg.linalg import inverse
    conj = TriangularRep(type(mu.rep)(
        mu.rep.algebra, QQ, 3,
        tuple(inverse(g) @ (m @ g) for m in mu.rep.mats)))
    w = series_isomorphic(mu, conj)
    assert w is not None
    assert is_isomorphic(mu.rep, conj.rep)


def test_series_isomorphic_witness_over_prime_fields():
    # tiny field: exhaustive fallback; default fixture prime: the
    # deterministic scan has more than d(k-1) scalars to try
    from moddeg.fields import DEFAULT_PRIME
    for fld in (F2, GF(DEFAULT_PRIME)):
        mu = mu_corner_triangular(fld)
        w = series_isomorphic(mu, mu)
        assert w is not None and w.mat.is_upper_triangular()
        assert series_isomorphic(mu, nu_shift_triangular(fld)) is None


@pytest.mark.parametrize("fld", [QQ, F2], ids=str)
def test_series_isomorphic_in_dimension_zero_is_the_empty_map(fld):
    zero = TriangularRep(zero_representation(KX3, fld))
    w = series_isomorphic(zero, zero)
    assert w is not None and w.mat == Matrix.zeros(fld, 0, 0)
    assert w.source == w.target == zero.rep


def zero_action(fld, d: int) -> TriangularRep:
    """X = 0 on k^d over k[X]/(X^2): every upper-triangular matrix
    intertwines it with itself."""
    return TriangularRep(make_rep(truncated_polynomial_algebra(2), fld,
                                  [[[int(i == j) for j in range(d)] for i in range(d)],
                                   [[0] * d for _ in range(d)]]))


def test_series_isomorphic_field_too_small_guard():
    # at d = 17 the diagonals need 17 maps: the scan's degree bound
    # 17 * 16 exceeds |F_2|, and 2^17 combinations exceed the enumeration
    # bound
    zero = zero_action(F2, 17)
    with pytest.raises(FieldTooSmall):
        series_isomorphic(zero, zero)
    # over QQ the scan applies and the same query decides
    zero = zero_action(QQ, 17)
    w = series_isomorphic(zero, zero)
    assert w is not None and w.mat.is_upper_triangular()


def test_series_isomorphic_searches_only_the_diagonals_the_space_reaches():
    # every upper-triangular matrix intertwines the zero action, so the
    # space has dimension 21, but six maps reach every diagonal: the
    # search covers 2^6 points, not 2^21
    m = TriangularRep(make_rep(truncated_polynomial_algebra(2), F2,
                               [[[int(i == j) for j in range(6)] for i in range(6)],
                                [[0] * 6 for _ in range(6)]]))
    w = series_isomorphic(m, m)
    assert w is not None and w.is_intertwiner() and w.mat.is_upper_triangular()
    assert all(w.mat.entry(j, j) == 1 for j in range(6))


def test_composition_series_of_kronecker_injective():
    i2 = kron_i2(QQ)
    cs = composition_series(i2)
    assert cs.factor_names() == ("e2", "e1", "e1")
    assert [f.dim for f in cs.flags] == [1, 2, 3]
    tri = series_to_triangular(cs)
    assert is_isomorphic(tri.rep, i2)


def test_upper_triangular_invertibility_criterion():
    # an upper-triangular matrix is invertible iff its diagonal is nonzero
    rng = random.Random(23)
    for _ in range(50):
        d = rng.randint(1, 4)
        rows = [[QQ.coerce(rng.randint(-3, 3)) if j >= i else QQ.zero
                 for j in range(d)] for i in range(d)]
        m = Matrix.from_rows(QQ, rows, cols=d)
        invertible = m.rank() == d
        diag_nonzero = all(m.entry(i, i) != 0 for i in range(d))
        assert invertible == diag_nonzero


def _upper_group(p: int, d: int):
    """Every invertible upper-triangular d x d matrix over GF(p) with its
    inverse, as plain integer rows."""
    slots = [(i, j) for i in range(d) for j in range(i, d)]
    for values in product(range(p), repeat=len(slots)):
        g = [[0] * d for _ in range(d)]
        for (i, j), v in zip(slots, values):
            g[i][j] = v
        if all(g[i][i] for i in range(d)):
            inv = [[0] * d for _ in range(d)]
            for j in range(d):          # back substitution, column by column
                for i in range(j, -1, -1):
                    acc = (1 if i == j else 0) - sum(
                        g[i][k] * inv[k][j] for k in range(i + 1, j + 1))
                    inv[i][j] = acc * pow(g[i][i], -1, p) % p
            yield g, inv


def _mul(a, b, p):
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) % p
                       for col in zip(*b)) for row in a)


def _triangular_reps(alg, p: int, d: int):
    """Every triangular representation of dimension d over GF(p) of
    k[X]/(X^n) (X strictly upper triangular with X^n = 0) or of the
    Kronecker algebra (diagonal idempotents, arrows from vertex 1 to 2)."""
    fld = GF(p)
    kronecker = alg.generators == ("e1", "e2", "a", "b")
    vertex_lists = product((0, 1), repeat=d) if kronecker else [(0,) * d]
    for vertices in vertex_lists:
        slots = [(i, j) for i in range(d) for j in range(i + 1, d)
                 if not kronecker or (vertices[i], vertices[j]) == (1, 0)]
        arrows = 2 if kronecker else 1
        for values in product(range(p), repeat=arrows * len(slots)):
            mats = []
            for k in range(arrows):
                m = [[0] * d for _ in range(d)]
                for (i, j), v in zip(slots, values[k * len(slots):]):
                    m[i][j] = v
                mats.append(m)
            if kronecker:
                idem = [[[int(i == j and vertices[i] == v) for j in range(d)]
                         for i in range(d)] for v in (0, 1)]
            else:
                idem = [[[int(i == j) for j in range(d)] for i in range(d)]]
            rep = make_rep(alg, fld, idem + mats)
            if validate(rep).ok:
                yield rep


@pytest.mark.parametrize("p", [2, 3])
def test_series_isomorphic_against_the_triangular_group(p):
    """series_isomorphic agrees with the orbits of the invertible
    upper-triangular group acting by conjugation, and every witness is an
    invertible upper-triangular intertwiner."""
    cases = [(truncated_polynomial_algebra(n), d) for n in (2, 3)
             for d in (1, 2, 3)]
    cases += [(kronecker_algebra(), d) for d in ((1, 2, 3) if p == 2 else (1, 2))]
    for alg, d in cases:
        group = list(_upper_group(p, d))
        reps = list(_triangular_reps(alg, p, d))
        plain = [tuple(tuple(map(tuple, m.data)) for m in rep.mats)
                 for rep in reps]
        orbits = [{tuple(_mul(_mul(g, m, p), inv, p) for m in mats)
                   for g, inv in group} for mats in plain]
        for i, a in enumerate(reps):
            for j, b in enumerate(reps):
                w = series_isomorphic(TriangularRep(a), TriangularRep(b))
                assert (w is not None) == (plain[j] in orbits[i]), (alg.name, d, i, j)
                if w is not None:
                    h = w.mat
                    assert h.is_upper_triangular()
                    assert all(not GF(p).is_zero(h.entry(k, k)) for k in range(d))
                    assert all(h @ x == y @ h for x, y in zip(a.mats, b.mats))


def unflatten_every_map_series_isomorphic(a: TriangularRep, b: TriangularRep):
    """``series_isomorphic`` by the route that unflattens every map: the
    whole canonical triangular Hom basis as matrices, its d diagonal
    functionals read with ``entry(j, j)``, the maps at their ``rref``
    pivots kept, then the same witness search."""
    basis = upper_triangular_hom_basis(a, b)
    d = a.dim
    fld = a.rep.field
    if d == 0:
        return ModuleMap(a.rep, b.rep, Matrix.zeros(fld, 0, 0))
    functionals = Matrix(fld, d, len(basis), [
        row_from_dense([h.entry(j, j) for h in basis]) for j in range(d)])
    if not all(cols for cols, _ in functionals.entries):
        return None
    basis = [basis[c] for c in rref(functionals)[2]]
    k = len(basis)

    def invertible(acc):
        return not any(fld.is_zero(acc.entry(j, j)) for j in range(d))

    def moment_curve(t):
        coeffs, tval = [fld.one], fld.coerce(t)
        for _ in range(k - 1):
            coeffs.append(fld.mul(coeffs[-1], tval))
        return coeffs

    degree = d * (k - 1)
    if not fld.finite or fld.p > degree:
        acc = first_combination(basis, invertible,
                                map(moment_curve, range(degree + 1)))
    elif fld.p ** k <= ENUMERATION_LIMIT:
        acc = first_combination(basis, invertible)
        if acc is None:
            return None
    else:
        raise FieldTooSmall("exhaustive search disabled")
    return ModuleMap(a.rep, b.rep, acc)


def random_upper_conjugate(tri: TriangularRep, rng) -> TriangularRep:
    """``tri`` conjugated by a random invertible upper-triangular matrix,
    so the two are series-isomorphic."""
    fld, d = tri.rep.field, tri.dim
    rows = [[fld.sample(rng, 3) if j >= i else fld.zero for j in range(d)]
            for i in range(d)]
    for i in range(d):
        while fld.is_zero(rows[i][i]):
            rows[i][i] = fld.sample(rng, 3)
    return TriangularRep(conjugate(tri.rep, Matrix.from_rows(fld, rows, cols=d)))


def random_triangular(fld, rng, kind: str, d: int) -> TriangularRep:
    """A d-dimensional triangular module of one kind: a Jordan module over
    k[X]/(X^3) in a random basis or k[X]/(X^d) with a random strictly
    upper-triangular X, or a random Kronecker module, each but the second
    triangularized along its composition series."""
    if kind == "jordan":
        part = []
        while sum(part) < d:
            part.append(rng.randint(1, min(3, d - sum(part))))
        rep = conjugate(jordan_module(fld, 3, tuple(part)),
                        random_invertible(fld, rng, d))
    elif kind == "strict":
        return TriangularRep(random_strict_triangular_nilpotent(fld, rng, d))
    else:
        top = rng.randint(1, d - 1)
        rep = random_kronecker(fld, rng, top, d - top, rng.choice([0.4, 1.0]))
    return series_to_triangular(composition_series(rep))


def series_outcome(decide, a, b):
    try:
        w = decide(a, b)
    except FieldTooSmall:
        return "FieldTooSmall"
    return None if w is None else w.mat


@pytest.mark.parametrize("fld", [QQ, GF(2), GF(3), GF(101)], ids=str)
def test_series_isomorphic_matches_the_route_unflattening_every_map(fld):
    """Reading the diagonal functionals off the kernel basis and
    unflattening only the pivot maps gives the same witness, None or
    FieldTooSmall as unflattening every map of the basis; over GF(2) and
    GF(3) the 17-dimensional zero action reaches FieldTooSmall."""
    rng = random.Random(f"series:{fld}")
    pairs = []
    for kind in ("jordan", "strict", "kronecker"):
        for _ in range(6):
            d = rng.randint(2, 6)
            a = random_triangular(fld, rng, kind, d)
            pairs.extend((a, b) for b in (a, random_upper_conjugate(a, rng),
                                          random_triangular(fld, rng, kind, d)))
    if fld.finite and fld.p < 5:
        pairs.append((zero_action(fld, 17), zero_action(fld, 17)))
    outcomes = []
    for a, b in pairs:
        got = series_outcome(series_isomorphic, a, b)
        assert got == series_outcome(unflatten_every_map_series_isomorphic, a, b)
        outcomes.append("witness" if isinstance(got, Matrix) else got)
    assert "witness" in outcomes and None in outcomes
    if fld.finite and fld.p < 5:
        assert "FieldTooSmall" in outcomes
