"""Representations, module maps, Hom spaces and module constructions."""

import random
from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

from moddeg import (Matrix, ModuleMap, Subspace, Submodule, direct_sum,
                    cokernel_module, find_isomorphism, hom_basis, hom_dim,
                    image_module, is_isomorphic, kernel_module,
                    quotient_module, sub_representation,
                    submodule_generated, validate)
from moddeg import algebras, linalg
from moddeg.algebras import conjugate, hom_spin
from moddeg.errors import AlgebraMismatch, NotSubmodule, Undecided
from moddeg.fields import GF, QQ
from moddeg.fixtures import (bidir_m, bidir_n, jordan_module, kron_i2,
                             kron_regular, kron_s1, kron_s2, kron_dtr_s1,
                             make_rep, regular_module, simple_module,
                             truncated_polynomial_algebra, y_module)
from moddeg.linalg import block_diag, combination, first_combination

from support import (dense_is_isomorphism, independent_hom_dim, random_invertible,
                     random_kronecker, random_nilpotent_rep, unit_column)

F2 = GF(2)
KX2 = truncated_polynomial_algebra(2)
KX3 = truncated_polynomial_algebra(3)
S2_QQ = direct_sum(simple_module(QQ), simple_module(QQ))


def test_validate_zero_action():
    rep = make_rep(KX2, QQ, [[[1, 0], [0, 1]], [[0, 0], [0, 0]]])
    assert validate(rep).ok


def test_validate_rejects_non_nilpotent():
    rep = make_rep(KX2, QQ, [[[1, 0], [0, 1]], [[1, 0], [0, 1]]])
    report = validate(rep)
    assert not report.ok
    assert any("relation" in item.name for item in report.failures())


def test_validate_kronecker_i2():
    assert validate(kron_i2(QQ)).ok


def test_direct_sum_block_structure():
    s = simple_module(QQ)
    ds = direct_sum(s, s)
    assert ds.dim == 2 and ds.mats[1].is_zero()


@pytest.mark.parametrize("fld", [QQ, F2, GF(101)], ids=repr)
def test_zero_dimensional_jordan_module_has_no_homs(fld):
    zero = jordan_module(fld, 3, ())
    assert zero.dim == 0 and validate(zero).ok
    for other in (zero, y_module(fld), jordan_module(fld, 3, (3, 1))):
        assert hom_dim(zero, other) == hom_dim(other, zero) == 0


def test_direct_sum_needs_same_algebra():
    with pytest.raises(AlgebraMismatch):
        direct_sum(simple_module(QQ, 2), simple_module(QQ, 3))


def test_example_middle_term_dimension():
    # R (+) S1 over the Kronecker algebra is the 3-dimensional middle type
    middle = direct_sum(kron_regular(QQ, 1, 0), kron_s1(QQ))
    assert middle.dim == 3 and validate(middle).ok


def test_hom_dims_small():
    s = simple_module(QQ)
    lam = regular_module(QQ, 2)
    assert hom_dim(s, s) == 1
    assert hom_dim(lam, lam) == 2     # End(regular) = the algebra itself
    assert hom_dim(s, lam) == 1 and hom_dim(lam, s) == 1


def test_hom_example_defect_values():
    dtr = kron_dtr_s1(QQ)
    assert hom_dim(dtr, kron_i2(QQ)) == 2
    assert hom_dim(dtr, direct_sum(kron_regular(QQ, 1, 0), kron_s1(QQ))) == 3
    assert hom_dim(dtr, direct_sum(kron_s1(QQ), kron_s2(QQ))) == 3
    assert hom_dim(dtr, kron_regular(QQ, 0, 1)) == 0


def test_hom_basis_intertwines_and_is_independent():
    lam = regular_module(QQ, 3)
    sy = direct_sum(simple_module(QQ, 3), y_module(QQ))
    basis = hom_basis(lam, sy)
    assert all(h.is_intertwiner() for h in basis)
    stacked = Matrix.from_rows(
        QQ, [[v for row in h.mat.data for v in row] for h in basis],
        cols=lam.dim * sy.dim).transpose()
    assert stacked.rank() == len(basis)
    assert len(basis) == hom_dim(lam, sy)


def test_hom_dim_against_independent_solver():
    rng = random.Random(5)
    for _ in range(15):
        m = random_nilpotent_rep(KX2, QQ, rng, rng.randint(1, 4), 2)
        n = random_nilpotent_rep(KX2, QQ, rng, rng.randint(1, 4), 2)
        assert hom_dim(m, n) == independent_hom_dim(m, n)


def test_hom_bilinearity_random():
    rng = random.Random(9)
    for _ in range(20):
        a = random_nilpotent_rep(KX2, F2, rng, rng.randint(1, 2), 2)
        b = random_nilpotent_rep(KX2, F2, rng, rng.randint(1, 2), 2)
        c = random_nilpotent_rep(KX2, F2, rng, rng.randint(1, 2), 2)
        ab = direct_sum(a, b)
        assert ab.dim == a.dim + b.dim
        assert hom_dim(ab, c) == hom_dim(a, c) + hom_dim(b, c)
        assert hom_dim(c, ab) == hom_dim(c, a) + hom_dim(c, b)


def test_kernel_image_cokernel_exactness():
    lam = regular_module(QQ, 2)
    mult_x = ModuleMap(lam, lam, lam.mats[1])
    ker, ker_inc = kernel_module(mult_x)
    img, img_inc = image_module(mult_x)
    cok, proj = cokernel_module(mult_x)
    assert ker.dim + img.dim == lam.dim
    assert ker_inc.is_intertwiner() and img_inc.is_intertwiner()
    assert proj.is_intertwiner()
    assert (proj.mat @ mult_x.mat).is_zero()
    assert kernel_module(ModuleMap(lam, lam, Matrix.identity(QQ, lam.dim)))[0].dim == 0


def test_cokernel_of_zero_map_is_target():
    s = simple_module(QQ)
    lam = regular_module(QQ, 2)
    cok, proj = cokernel_module(ModuleMap(s, lam, Matrix.zeros(QQ, lam.dim, s.dim)))
    assert cok.dim == lam.dim
    assert proj.mat == Matrix.identity(QQ, 2)


def test_image_matches_brute_force_span():
    # projection of a submodule of a direct sum, checked pointwise over F_2
    lam = regular_module(F2, 2)
    both = direct_sum(lam, lam)
    sub = Submodule(both, Subspace.from_columns(
        Matrix.from_rows(F2, [[1, 0, 1, 0], [0, 1, 0, 1]]).transpose()))
    sub.require_invariant()
    m_rep, m_inc = sub_representation(both, sub.space)
    proj_to_first = m_inc.mat.submatrix(range(2), range(m_rep.dim))
    img, _ = image_module(ModuleMap(m_rep, lam, proj_to_first))
    from support import all_vectors
    points = set()
    for c in all_vectors(2, m_rep.dim):
        v = m_inc.mat @ Matrix.from_rows(F2, [[x] for x in c], cols=1)
        points.add((v.entry(0, 0), v.entry(1, 0)))
    assert len(points) == 2 ** img.dim


def test_submodule_generated_cases():
    lam = regular_module(QQ, 2)
    full = submodule_generated(lam, [unit_column(QQ, 2, 0), unit_column(QQ, 2, 1)])
    assert full.space.dim == full.space.ambient_dim
    socle_only = submodule_generated(lam, [unit_column(QQ, 2, 1)])
    assert socle_only.dim == 1
    i2 = kron_i2(QQ)
    vertex2 = submodule_generated(i2, [unit_column(QQ, 3, 2)])
    assert vertex2.dim == 1


def test_submodule_generated_matches_word_orbit():
    from itertools import product
    rng = random.Random(13)
    for _ in range(10):
        rep = random_nilpotent_rep(KX2, F2, rng, 3, 2)
        vec = Matrix.from_rows(F2, [[rng.randrange(2)] for _ in range(3)], cols=1)
        sub = submodule_generated(rep, [vec])
        # orbit of the generator under all words of length <= dim
        spanned = [vec]
        for length in range(1, 4):
            for word in product(rep.mats, repeat=length):
                w = vec
                for m in word:
                    w = m @ w
                spanned.append(w)
        from moddeg.linalg import hstack
        orbit_span = Subspace.from_columns(hstack(*spanned))
        assert orbit_span == sub.space


def test_quotients():
    lam = regular_module(QQ, 2)
    zero_sub = Submodule(lam, Subspace.zero(QQ, 2))
    q, _ = quotient_module(lam, zero_sub)
    assert q.dim == 2
    full_sub = Submodule(lam, Subspace.full(QQ, 2))
    q, _ = quotient_module(lam, full_sub)
    assert q.dim == 0
    # Y / S is simple over k[X]/(X^3)
    y = y_module(QQ)
    soc = Submodule(y, Subspace.from_columns(Matrix.from_rows(QQ, [[1, 0]]).transpose()))
    q, proj = quotient_module(y, soc)
    assert q.dim == 1 and q.mats[1].is_zero()
    assert proj.is_intertwiner()


def test_quotient_module_refuses_a_submodule_of_another_representation():
    y = y_module(QQ)
    soc = Submodule(regular_module(QQ, 2), Subspace.zero(QQ, 2))
    with pytest.raises(NotSubmodule):
        quotient_module(y, soc)


def test_isomorphism_basics():
    s = simple_module(QQ)
    lam = regular_module(QQ, 2)
    assert find_isomorphism(s, lam) is None          # dimension mismatch
    witness = find_isomorphism(lam, lam)
    assert witness is not None and witness.mat.rank() == 2
    assert is_isomorphic(s, s)


def test_isomorphism_reflexive_symmetric_on_fixtures():
    mods = [simple_module(F2), regular_module(F2, 2),
            direct_sum(simple_module(F2), regular_module(F2, 2))]
    for m in mods:
        assert is_isomorphic(m, m)
    for m in mods:
        for n in mods:
            if m.dim == n.dim:
                assert is_isomorphic(m, n) == is_isomorphic(n, m)


def test_isomorphism_detects_conjugates_and_refuses_fakes():
    rng = random.Random(21)
    every_matrix = [[list(cells[r:r + 3]) for r in (0, 3, 6)]
                    for cells in product(range(2), repeat=9)]
    answers = set()
    for _ in range(10):
        rep = random_nilpotent_rep(KX3, F2, rng, 3, 3)
        other = random_nilpotent_rep(KX3, F2, rng, 3, 3)
        w = find_isomorphism(rep, other, seed=1)
        answers.add(w is None)
        if w is not None:
            # a returned witness is always verified invertible + intertwining
            assert w.mat.rank() == 3 and w.is_intertwiner()
        else:
            # a "no" is checked by trying all 2^9 matrices over GF(2)
            assert not any(dense_is_isomorphism(rep, other, h) for h in every_matrix)
    assert answers == {True, False}


def test_hom_dim_zero_module():
    from moddeg import zero_representation
    z = zero_representation(KX2, QQ)
    s = simple_module(QQ)
    assert hom_dim(z, s) == 0 and hom_dim(s, z) == 0
    assert is_isomorphic(z, z)


def test_undecided_is_distinguished_from_false():
    s2 = direct_sum(simple_module(QQ), simple_module(QQ))
    # hom dimensions agree and no basis element is invertible, so with the
    # search budget exhausted the answer must be Undecided, not False
    with pytest.raises(Undecided):
        find_isomorphism(s2, s2, max_trials=0)
    assert find_isomorphism(s2, s2) is not None


@pytest.mark.parametrize("fld", [F2, GF(3)], ids=str)
def test_find_isomorphism_exhaustive_no_over_small_fields(fld):
    # Hom(m, n), End m and End n are all one-dimensional, so neither
    # shortcut proves "no": the exhaustive search of the p combinations does
    m, n = bidir_m(fld), bidir_n(fld)
    assert hom_dim(m, n) == hom_dim(m, m) == hom_dim(n, n) == 1
    assert find_isomorphism(m, n) is None
    every_matrix = [[list(cells[:2]), list(cells[2:])]
                    for cells in product(range(fld.p), repeat=4)]
    assert not any(dense_is_isomorphism(m, n, h) for h in every_matrix)


def test_find_isomorphism_undecided_over_qq_at_the_default_budget():
    # the same pair over QQ: no exhaustive search, and no random trial
    # finds an invertible multiple of the one non-invertible Hom map
    with pytest.raises(Undecided):
        find_isomorphism(bidir_m(QQ), bidir_n(QQ))


def test_find_isomorphism_spins_once_when_the_hom_basis_holds_a_witness(monkeypatch):
    fld = GF(101)
    rng = random.Random(5)
    m = random_kronecker(fld, rng, 5, 5)
    n = conjugate(m, block_diag(random_invertible(fld, rng, 5),
                                random_invertible(fld, rng, 5)))
    assert hom_basis(m, n)[0].mat.is_injective()
    spins = []

    def counted(*args):
        spins.append(args)
        return hom_spin(*args)
    monkeypatch.setattr(algebras, "hom_spin", counted)
    witness = find_isomorphism(m, n)
    assert len(spins) == 1
    assert witness.mat.is_injective() and witness.is_intertwiner()


@pytest.mark.parametrize("fld", [QQ, GF(2), GF(101)], ids=repr)
def test_hom_queries_eliminate_the_spin_basis_once(monkeypatch, fld):
    """``hom_dim`` and ``hom_basis`` read the coordinates of the spun
    images and B^-T off the spin's own tracker: neither calls
    ``solve_right`` or ``inverse``, ``hom_dim`` runs no ``rref`` at all,
    and ``hom_basis`` runs exactly one, inside the ``kernel`` of the spin
    system, or none when that system has no stored entry.  The pairs
    cover both orientations of ``hom_basis``: a conjugated Jordan target
    is spun transposed, and the simple and Kronecker targets, lower
    triangular, directly."""
    rng = random.Random(21)
    jordan = jordan_module(fld, 3, (3, 2, 1))
    pairs = [(jordan, conjugate(jordan, random_invertible(fld, rng, 6))),
             (simple_module(fld), simple_module(fld)),
             (random_kronecker(fld, rng, 3, 4), kron_i2(fld))]
    expected = [[h.mat for h in hom_basis(m, n)] for m, n in pairs]
    calls = []

    def counted(module, name):
        orig = getattr(module, name)

        def wrapper(*args):
            calls.append(name)
            return orig(*args)
        monkeypatch.setattr(module, name, wrapper)
    for name in ("solve_right", "inverse"):
        counted(algebras, name)
    for name in ("solve_right", "inverse", "rref"):
        counted(linalg, name)
    kernel = algebras.kernel

    def kernel_of(mat):
        calls.append(("kernel", mat.is_zero()))
        return kernel(mat)
    monkeypatch.setattr(algebras, "kernel", kernel_of)
    for (m, n), maps in zip(pairs, expected):
        assert hom_dim(m, n) == len(maps) == independent_hom_dim(m, n)
        assert calls == []
        assert [h.mat for h in hom_basis(m, n)] == maps
        (name, zero), *rest = calls
        assert name == "kernel" and rest == ([] if zero else ["rref"])
        calls.clear()


def test_find_isomorphism_tries_one_combination_before_proving_a_no(monkeypatch):
    """J_(3,2) and J_(3,1,1) over QQ have nonzero Hom, no invertible Hom
    basis element and unequal End dimensions: one random combination is
    tried, then the End-dimension proof answers "no"."""
    m, n = jordan_pair(QQ, (3, 2), (3, 1, 1), 4)
    basis = hom_basis(m, n)
    assert basis and not any(h.mat.is_injective() for h in basis)
    combinations = []

    def counted(coeffs, mats):
        combinations.append(coeffs)
        return combination(coeffs, mats)
    monkeypatch.setattr(linalg, "combination", counted)
    assert find_isomorphism(m, n) is None
    assert len(combinations) == 1

def proof_first_isomorphism(m, n, seed=0, max_trials=32):
    """``find_isomorphism`` as it ran before the witness search came
    first: the End-dimension proof right after the Hom basis is computed,
    then the search of the basis, then the exhaustive or seeded random
    search."""
    if m.dim != n.dim:
        return None
    if m.dim == 0:
        return ModuleMap(m, n, Matrix.zeros(m.field, 0, 0))
    basis = hom_basis(m, n)
    if not basis:
        return None
    k = len(basis)
    if not (k == hom_dim(m, m) == hom_dim(n, n)):
        return None
    for h in basis:
        if h.mat.is_injective():
            return h
    mats = [h.mat for h in basis]
    fld = m.field
    if fld.finite and k <= 8 and fld.p ** k <= 1 << 16:
        mat = first_combination(mats, Matrix.is_injective)
        return None if mat is None else ModuleMap(m, n, mat)
    rng = random.Random(seed)
    trials = ([fld.sample(rng, 1 + trial // 8) for _ in range(k)]
              for trial in range(max_trials))
    mat = first_combination(mats, Matrix.is_injective, trials)
    if mat is not None:
        return ModuleMap(m, n, mat)
    raise Undecided("search exhausted")


def jordan_pair(fld, lam, mu, seed):
    """J_lam and J_mu over k[X]/(X^3), each conjugated at random."""
    rng = random.Random(seed)
    return tuple(conjugate(jordan_module(fld, 3, part),
                           random_invertible(fld, rng, sum(part)))
                 for part in (lam, mu))


def partitions(d, largest=None):
    if d == 0:
        yield ()
        return
    for part in range(min(d, largest or d), 0, -1):
        for rest in partitions(d - part, part):
            yield (part, *rest)


@st.composite
def isomorphism_queries(draw):
    """``(m, n, seed, max_trials)`` over QQ, GF(2) or GF(101) at dimension
    at most 5: Jordan modules of k[X]/(X^3) of two drawn types of one
    dimension (non-isomorphic pairs such as (3) and (2, 1) share
    [M, N] = [M, M]), or a random k[X]/(X^3) or Kronecker module with a
    conjugate or an independent draw of the same shape."""
    fld = draw(st.sampled_from([QQ, GF(2), GF(101)]))
    rng = random.Random(draw(st.integers(0, 2 ** 30)))
    kind = draw(st.sampled_from(["jordan", "conjugate", "independent"]))
    if kind == "jordan":
        d = draw(st.integers(1, 5))
        lam, mu = (draw(st.sampled_from([part for part in partitions(d)
                                         if part[0] <= 3]))
                   for _ in range(2))
        m, n = jordan_pair(fld, lam, mu, rng.randrange(2 ** 30))
    else:
        if draw(st.booleans()):
            a, b = draw(st.integers(0, 3)), draw(st.integers(1, 2))
            density = draw(st.sampled_from([0.3, 1.0]))
            m, n = (random_kronecker(fld, rng, a, b, density) for _ in range(2))
        else:
            d = draw(st.integers(1, 5))
            m, n = (random_nilpotent_rep(KX3, fld, rng, d, 3) for _ in range(2))
        if kind == "conjugate":
            n = conjugate(m, random_invertible(fld, rng, m.dim))
    return m, n, draw(st.integers(0, 3)), draw(st.integers(0, 2))


def isomorphism_outcome(find, m, n, seed, max_trials):
    try:
        found = find(m, n, seed=seed, max_trials=max_trials)
    except Undecided:
        return "undecided"
    return None if found is None else found.mat


@given(isomorphism_queries())
@settings(max_examples=150, deadline=None)
@example((*jordan_pair(GF(101), (3,), (2, 1), 1), 0, 2))
@example((*jordan_pair(QQ, (3, 2), (3, 1, 1), 2), 1, 0))
@example((*jordan_pair(GF(2), (2, 1), (2, 1), 3), 0, 1))
@example((S2_QQ, S2_QQ, 0, 0))
def test_witness_first_isomorphism_agrees_with_proof_first_order(query):
    outcomes = [isomorphism_outcome(find, *query)
                for find in (find_isomorphism, proof_first_isomorphism)]
    assert outcomes[0] == outcomes[1]


def test_unit_generator_rule():
    from moddeg import AlgebraPresentation
    alg = AlgebraPresentation(
        name="dual numbers, explicit unit", generators=("one", "x"),
        idempotents=(), radical_generators=("x",),
        relations=(((1, (1, 1)),),), unit_generator="one")
    good = make_rep(alg, QQ, [[[1, 0], [0, 1]], [[0, 0], [1, 0]]])
    assert validate(good).ok
    bad = make_rep(alg, QQ, [[[1, 0], [0, 0]], [[0, 0], [1, 0]]])
    report = validate(bad)
    assert not report.ok
    assert any("unit" in item.name for item in report.failures())
