"""Ladder certificates, monicization, deformation families, the
upper-triangular embedding and orbit dimensions."""

import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

from moddeg import (AlgebraPresentation, LadderCertificate, Matrix,
                    ModuleMap, build_family, direct_sum, evaluate_family,
                    ladder_from_columns, make_monic, orbit_dim_ud, psi_embed,
                    series_isomorphic, validate, verify_certificate,
                    verify_ladder)
from moddeg.algebras import sub_representation, zero_representation
from moddeg.errors import BadParameter, VerificationFailed
from moddeg.fields import GF, QQ
from moddeg.fixtures import (kron_r2_mu, kron_r2_nu, ladder_nilp3_corner,
                             ladder_nilp3_shift, make_rep,
                             mu_corner_triangular, nu_prime_triangular,
                             nu_shift_triangular, regular_module,
                             simple_module, trivial_ladder,
                             truncated_polynomial_algebra, y_module)
from moddeg.linalg import hstack, image, vstack
from moddeg.series import (ModuleChain, TriangularRep, chain_to_triangular,
                           upper_triangular_hom_basis)
from moddeg.oracles import nilpotent_degenerates, nilpotent_rank_profile

from support import dense_psi, random_strict_triangular_nilpotent

KX2 = truncated_polynomial_algebra(2)


def test_both_shipped_ladders_verify():
    assert verify_ladder(ladder_nilp3_corner(QQ)).ok
    assert verify_ladder(ladder_nilp3_shift(QQ)).ok


def test_h_map_off_the_x_slots_is_a_failed_item_not_a_crash():
    lad = ladder_nilp3_corner(QQ)
    y = y_module(QQ)
    bad = dataclasses.replace(
        lad, h=(ModuleMap(y, y, Matrix.identity(QQ, y.dim)),) + lad.h[1:])
    report = verify_ladder(bad)
    assert [it.name for it in report.failures()] == ["h_1 intertwines"]
    with pytest.raises(VerificationFailed):
        make_monic(bad)


@pytest.mark.parametrize("trim", [
    lambda lc: dataclasses.replace(lc, columns=lc.columns[:-1]),
    lambda lc: dataclasses.replace(lc, h=lc.h[:-1]),
], ids=["columns", "h"])
def test_verify_ladder_stops_when_the_counts_miss_the_chain(trim):
    report = verify_ladder(trim(ladder_nilp3_corner(QQ)))
    assert [it.name for it in report.items] == [
        "top border is a composition-series chain",
        "bottom border is a composition-series chain",
        "column count matches chain length"]
    assert [it.name for it in report.failures()] == ["column count matches chain length"]


def test_single_column_ladder_is_certificate_check():
    s = simple_module(QQ)
    lam = regular_module(QQ, 2)
    chain = ModuleChain((s,), ())
    good = ladder_from_columns(chain, chain, x=[s],
                               h=[], f=[Matrix.from_rows(QQ, [[1]])],
                               g=[Matrix.zeros(QQ, 1, 1)],
                               q=[Matrix.from_rows(QQ, [[0, 1]])])
    assert verify_ladder(good).ok
    assert verify_certificate(good.columns[0]).ok
    bad = ladder_from_columns(chain, chain, x=[s],
                              h=[], f=[Matrix.from_rows(QQ, [[1]])],
                              g=[Matrix.zeros(QQ, 1, 1)],
                              q=[Matrix.zeros(QQ, 1, 2)])
    assert not verify_ladder(bad).ok


def test_verify_ladder_ties_the_columns_to_the_borders():
    # the trivial ladder of nu under the borders of mu: every column is a
    # valid certificate and every square commutes, but columns 2 and 3
    # certify nu's stages, not mu's, and nu is not in mu's orbit closure
    mu, nu = mu_corner_triangular(QQ), nu_shift_triangular(QQ)
    assert orbit_dim_ud(mu) < orbit_dim_ud(nu)
    tl = trivial_ladder(nu)
    bad = LadderCertificate(mu.chain(), nu.chain(), tl.columns, tl.h)
    report = verify_ladder(bad)
    assert [it.name for it in report.failures()] == [
        "column 2 is a valid certificate", "column 3 is a valid certificate"]
    with pytest.raises(VerificationFailed):
        make_monic(bad)
    # h_1 with the matrix [1] but between simples of another algebra
    lc = ladder_nilp3_corner(QQ)
    s2 = simple_module(QQ, 2)
    h = (ModuleMap(s2, s2, lc.h[0].mat),) + lc.h[1:]
    report = verify_ladder(LadderCertificate(lc.m_chain, lc.n_chain,
                                             lc.columns, h))
    assert [it.name for it in report.failures()] == ["h_1 intertwines"]


def test_make_monic_noop_on_monic_ladder():
    lad = ladder_nilp3_corner(QQ)
    mono = make_monic(lad)
    assert [x.dim for x in mono.x] == [x.dim for x in lad.x]
    assert all(a.mat == b.mat for a, b in zip(mono.h, lad.h))


def test_make_monic_shrinks_zero_map_column():
    s = simple_module(QQ)
    ss = direct_sum(s, s)
    chain = ModuleChain((s, ss), (ModuleMap(s, ss, Matrix.from_rows(QQ, [[0], [1]])),))
    lad = ladder_from_columns(
        chain, chain,
        x=[s, s],
        h=[Matrix.zeros(QQ, 1, 1)],
        f=[Matrix.from_rows(QQ, [[1]]), Matrix.from_rows(QQ, [[1]])],
        g=[Matrix.zeros(QQ, 1, 1), Matrix.zeros(QQ, 2, 1)],
        q=[Matrix.from_rows(QQ, [[0, 1]]),
           Matrix.from_rows(QQ, [[0, 1, 0], [0, 0, 1]])])
    assert verify_ladder(lad).ok
    mono = make_monic(lad)
    assert [x.dim for x in mono.x] == [0, 1]
    assert verify_ladder(mono).ok
    # dimension bookkeeping of the replaced column
    assert mono.x[0].dim + mono.m_chain.stages[0].dim == \
        mono.x[0].dim + mono.n_chain.stages[0].dim


def _make_monic_by_rounds(lc: LadderCertificate) -> LadderCertificate:
    """The reference monicization: every round recomputes which h maps
    are not injective and replaces the column of the largest such index,
    until none is left."""
    cols, h = list(lc.columns), list(lc.h)
    while True:
        bad = [r for r in range(lc.length - 1) if not h[r].mat.is_injective()]
        if not bad:
            return LadderCertificate(lc.m_chain, lc.n_chain, tuple(cols), tuple(h))
        r = bad[-1]
        im_rep, im_inc = sub_representation(cols[r + 1].x, image(h[r].mat))
        proj = im_inc.factor(h[r].mat)
        cols[r] = cols[r + 1].restrict(im_inc, lc.m_chain.inclusions[r],
                                       lc.n_chain.inclusions[r])
        h[r] = im_inc
        if r > 0:
            h[r - 1] = ModuleMap(h[r - 1].source, im_rep, proj @ h[r - 1].mat)


def _split_ladder(x_dims: list[int], h: list[Matrix]) -> LadderCertificate:
    """The ladder on the border chain S, S^2, .., S^d of the simple module
    (each stage included as the last coordinates of the next) whose column
    i is the split certificate X_i = S^k, (f; g) = (1; 0), q = [0 | 1],
    with k = ``x_dims[i]``.  S is killed by X, so every linear map between
    the X_i intertwines and both squares commute over any ``h``."""
    d = len(x_dims)
    s = simple_module(QQ)
    stages = [s]
    for _ in range(d - 1):
        stages.append(direct_sum(stages[-1], s))
    xs = [zero_representation(s.algebra, QQ)] + stages
    chain = ModuleChain(tuple(stages), tuple(
        ModuleMap(stages[i], stages[i + 1],
                  vstack(Matrix.zeros(QQ, 1, i + 1), Matrix.identity(QQ, i + 1)))
        for i in range(d - 1)))
    return ladder_from_columns(
        chain, chain, x=[xs[k] for k in x_dims], h=h,
        f=[Matrix.identity(QQ, k) for k in x_dims],
        g=[Matrix.zeros(QQ, i + 1, k) for i, k in enumerate(x_dims)],
        q=[hstack(Matrix.zeros(QQ, i + 1, k), Matrix.identity(QQ, i + 1))
           for i, k in enumerate(x_dims)])


@pytest.mark.parametrize("x_dims,h", [
    ([1, 1, 1], [Matrix.zeros(QQ, 1, 1)] * 2),
    ([1, 1, 1, 1], [Matrix.zeros(QQ, 1, 1)] * 3),
    ([2, 1, 1], [Matrix.from_rows(QQ, [[1, 0]]), Matrix.zeros(QQ, 1, 1)]),
], ids=["zero-3", "zero-4", "rank-1-then-zero"])
def test_make_monic_cascades_down_the_ladder(x_dims, h):
    """Every replacement makes the h map below it non-injective, so all
    columns below the top are replaced, as the round-by-round reference
    replaces them.  In the last case h_1 has rank 1: a pass upwards would
    replace X_1 by its image S before h_2 is replaced, and leave h_1 not
    injective."""
    lad = _split_ladder(x_dims, h)
    assert verify_ladder(lad).ok
    mono = make_monic(lad)
    assert mono == _make_monic_by_rounds(lad)
    assert [x.dim for x in mono.x] == [0] * (len(x_dims) - 1) + [1]
    assert verify_ladder(mono).ok


def test_family_on_zero_top_row_is_constant():
    tri = mu_corner_triangular(QQ)
    lad = trivial_ladder(tri)
    fam = build_family(make_monic(lad))
    for t in (0, 1, 5):
        member = evaluate_family(fam, t)
        assert member.rep.mats[1] == tri.rep.mats[1]


def test_family_reproduces_borders():
    lad = ladder_nilp3_corner(QQ)
    fam = build_family(make_monic(lad))
    mu = chain_to_triangular(lad.n_chain)
    nu = chain_to_triangular(lad.m_chain)
    assert series_isomorphic(evaluate_family(fam, 0), mu) is not None
    members = [evaluate_family(fam, t) for t in (1, 2, 3)]
    for member in members:
        assert series_isomorphic(member, nu) is not None
    assert series_isomorphic(members[0], members[1]) is not None
    assert series_isomorphic(members[1], members[2]) is not None


def test_family_bad_parameter_reported():
    # a column with f = -id makes phi_t vanish at t = 1
    s = simple_module(QQ)
    chain = ModuleChain((s,), ())
    lad = ladder_from_columns(
        chain, chain, x=[s], h=[],
        f=[Matrix.from_rows(QQ, [[-1]])],
        g=[Matrix.zeros(QQ, 1, 1)],
        q=[Matrix.from_rows(QQ, [[0, 1]])])
    assert verify_ladder(lad).ok
    fam = build_family(lad)
    assert evaluate_family(fam, 0).rep.dim == 1
    assert evaluate_family(fam, 2).rep.dim == 1
    with pytest.raises(BadParameter):
        evaluate_family(fam, 1)


def test_family_with_idempotent_constraint():
    mu = kron_r2_mu(QQ)
    lad = trivial_ladder(mu)
    cvec = (1, 1, 0, 0)
    fam = build_family(make_monic(lad), constraint=cvec)
    ambient = fam.ambient
    for i, pos in enumerate(cvec):
        e_mat = ambient.mats[ambient.algebra.idempotent_indices[pos]]
        col = fam.basis.column_matrix(i)
        assert (e_mat @ col) == col
    member = evaluate_family(fam, 2)
    assert member.rep.mats[0] == mu.rep.mats[0]
    assert member.rep.mats[1] == mu.rep.mats[1]


def test_psi_dimension_one_is_identity():
    s = simple_module(QQ)
    tri = TriangularRep(s)
    out = psi_embed(tri)
    assert out.dim == 1
    assert out.mats[0] == s.mats[0] and out.mats[1] == s.mats[1]
    assert validate(out).ok


def test_psi_d2_zero_action_patterns():
    rep = make_rep(KX2, QQ, [[[1, 0], [0, 1]], [[0, 0], [0, 0]]])
    out = psi_embed(TriangularRep(rep))
    assert out.dim == 3
    by_name = dict(zip(out.algebra.generators, out.mats))
    assert by_name["L_x"].is_zero()
    assert by_name["E1_1"] == Matrix.from_rows(QQ, [[0, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert by_name["E2_2"] == Matrix.from_rows(QQ, [[1, 0, 0], [0, 0, 0], [0, 0, 0]])
    assert by_name["E1_2"] == Matrix.from_rows(QQ, [[0, 0, 0], [1, 0, 0], [0, 0, 0]])
    assert validate(out).ok


def test_psi_matrix_unit_identities_d3():
    mu = mu_corner_triangular(QQ)
    out = psi_embed(mu)
    assert out.dim == 6
    assert validate(out).ok
    by_name = dict(zip(out.algebra.generators, out.mats))
    ident = Matrix.identity(QQ, 6)
    total = by_name["E1_1"] + by_name["E2_2"] + by_name["E3_3"]
    assert total == ident
    for i in (1, 2):
        e_cur = by_name[f"E{i}_{i}"]
        e_next = by_name[f"E{i + 1}_{i + 1}"]
        arrow = by_name[f"E{i}_{i + 1}"]
        assert (e_cur @ arrow) == arrow
        assert (arrow @ e_next) == arrow
    # stage blocks of the lifted generators sit on the diagonal in order
    for g_index, name in enumerate(("e", "x")):
        lifted = by_name[f"L_{name}"]
        off = 0
        for i in range(1, 4):
            stage = mu.stage(i).mats[g_index]
            block = lifted.submatrix(range(off, off + i), range(off, off + i))
            assert block == stage
            off += i


def test_psi_respects_all_declared_relations():
    for tri in (mu_corner_triangular(QQ), nu_shift_triangular(QQ),
                nu_prime_triangular(QQ), kron_r2_mu(QQ)):
        out = psi_embed(tri)
        report = validate(out)
        assert report.ok, report.failures()


def test_psi_over_a_base_algebra_with_a_unit_generator():
    # k[X]/(X^3) with its unit declared as the generator "one": the lift
    # L_one, not the lifted idempotents, must equal the sum of the E_ii
    base = AlgebraPresentation(
        name="k[X]/(X^3) with a unit generator", generators=("one", "e", "x"),
        idempotents=("e",), radical_generators=("x",),
        relations=(((1, (2, 2, 2)),),), unit_generator="one")
    ident = [[int(i == j) for j in range(3)] for i in range(3)]
    rep = make_rep(base, QQ, [ident, ident, [[0, 1, 0], [0, 0, 1], [0, 0, 0]]])
    assert validate(rep).ok
    out = psi_embed(TriangularRep(rep))
    assert out.algebra.unit_generator is None
    assert list(out.mats) == dense_psi(rep)
    report = validate(out)
    assert report.ok, report.failures()
    assert "relation L_one + -1*E1_1 + -1*E2_2 + -1*E3_3 = 0" in [
        item.name for item in report.items]


@pytest.mark.parametrize("fld", [QQ, GF(3)], ids=["QQ", "GF3"])
def test_psi_embed_against_a_block_reference(fld):
    rng = random.Random(8)
    tris = [make(fld) for make in (mu_corner_triangular, nu_shift_triangular,
                                   nu_prime_triangular, kron_r2_mu, kron_r2_nu)]
    tris += [TriangularRep(random_strict_triangular_nilpotent(
        fld, rng, rng.randint(1, 5))) for _ in range(25)]
    for tri in tris:
        assert list(psi_embed(tri).mats) == dense_psi(tri.rep)


def test_orbit_dim_ud_values():
    s = simple_module(QQ)
    assert orbit_dim_ud(TriangularRep(s)) == 0
    mu = mu_corner_triangular(QQ)
    nu = nu_shift_triangular(QQ)
    assert orbit_dim_ud(mu) == 1      # closure is the one-parameter corner set
    assert orbit_dim_ud(nu) == 2      # closure is the two-parameter top row
    # a verified ladder exhibits the bottom border inside the top's closure
    assert orbit_dim_ud(nu) >= orbit_dim_ud(mu)


@given(st.integers(0, 2 ** 30), st.sampled_from([QQ, GF(2), GF(101)]))
@settings(max_examples=60, deadline=None)
def test_orbit_dim_ud_is_dim_ud_less_the_triangular_self_homs(seed, fld):
    rng = random.Random(seed)
    tris = [TriangularRep(random_strict_triangular_nilpotent(fld, rng, rng.randint(1, 5))),
            mu_corner_triangular(fld), nu_shift_triangular(fld),
            nu_prime_triangular(fld), kron_r2_mu(fld), kron_r2_nu(fld)]
    for tri in tris:
        d = tri.dim
        homs = upper_triangular_hom_basis(tri, tri)
        assert orbit_dim_ud(tri) == d * (d + 1) // 2 - len(homs)


def test_nilpotent_orbit_consistency():
    mu = mu_corner_triangular(QQ)
    nu = nu_shift_triangular(QQ)
    nup = nu_prime_triangular(QQ)
    # all three are conjugate as plain modules: equal rank profiles
    assert nilpotent_rank_profile(mu.rep) == nilpotent_rank_profile(nu.rep)
    assert nilpotent_rank_profile(mu.rep) == nilpotent_rank_profile(nup.rep)
    assert nilpotent_degenerates(mu.rep, nu.rep)
    assert nilpotent_degenerates(nu.rep, mu.rep)
    # the upper-triangular order is strictly finer: membership in the
    # corner closure requires both upper entries of the first row pattern
    x_nu = nu.rep.mats[1]
    in_corner_set = x_nu.entry(0, 1) == QQ.zero and x_nu.entry(1, 2) == QQ.zero
    assert not in_corner_set
    assert series_isomorphic(mu, nu) is None


def test_mutation_sweep_rejects_corrupted_ladders():
    fld = QQ
    for builder in (ladder_nilp3_corner, ladder_nilp3_shift):
        lad = builder(fld)
        total, rejected = 0, 0
        for mutant in _mutants(lad):
            total += 1
            if not verify_ladder(mutant).ok:
                rejected += 1
            else:
                assert verify_ladder(mutant).ok
        assert total > 50
        assert rejected / total >= 0.95


def _mutants(lad):
    """Yield copies of the ladder with one matrix entry bumped by one."""
    fld = lad.x[0].field

    def bump(mat, i, j):
        rows = [list(r) for r in mat.data]
        rows[i][j] = fld.add(rows[i][j], fld.one)
        return Matrix.from_rows(fld, rows, cols=mat.cols)

    groups = {
        "h": [m.mat for m in lad.h],
        "f": [m.mat for m in lad.f],
        "g": [m.mat for m in lad.g],
        "q": [m.mat for m in lad.q],
        "m_inc": [m.mat for m in lad.m_chain.inclusions],
        "n_inc": [m.mat for m in lad.n_chain.inclusions],
    }
    for key, mats in groups.items():
        for idx, mat in enumerate(mats):
            for i in range(mat.rows):
                for j in range(mat.cols):
                    new = {k: list(v) for k, v in groups.items()}
                    new[key][idx] = bump(mat, i, j)
                    m_chain = ModuleChain(
                        lad.m_chain.stages,
                        tuple(ModuleMap(lad.m_chain.stages[t],
                                        lad.m_chain.stages[t + 1], mm)
                              for t, mm in enumerate(new["m_inc"])))
                    n_chain = ModuleChain(
                        lad.n_chain.stages,
                        tuple(ModuleMap(lad.n_chain.stages[t],
                                        lad.n_chain.stages[t + 1], mm)
                              for t, mm in enumerate(new["n_inc"])))
                    yield ladder_from_columns(
                        m_chain, n_chain, list(lad.x),
                        new["h"], new["f"], new["g"], new["q"])
    # stage and top-row generator matrices are part of the data too
    rep_groups = [("x", list(lad.x)), ("m_stages", list(lad.m_chain.stages)),
                  ("n_stages", list(lad.n_chain.stages))]
    from moddeg import Representation
    for key, reps in rep_groups:
        for ridx, rep in enumerate(reps):
            for gidx, mat in enumerate(rep.mats):
                for i in range(mat.rows):
                    for j in range(mat.cols):
                        mats = list(rep.mats)
                        mats[gidx] = bump(mat, i, j)
                        mutated = Representation(rep.algebra, fld, rep.dim,
                                                 tuple(mats))
                        xs = list(lad.x)
                        m_stages = list(lad.m_chain.stages)
                        n_stages = list(lad.n_chain.stages)
                        if key == "x":
                            xs[ridx] = mutated
                        elif key == "m_stages":
                            m_stages[ridx] = mutated
                        else:
                            n_stages[ridx] = mutated
                        m_chain = ModuleChain(
                            tuple(m_stages),
                            tuple(ModuleMap(m_stages[t], m_stages[t + 1], mm.mat)
                                  for t, mm in enumerate(lad.m_chain.inclusions)))
                        n_chain = ModuleChain(
                            tuple(n_stages),
                            tuple(ModuleMap(n_stages[t], n_stages[t + 1], mm.mat)
                                  for t, mm in enumerate(lad.n_chain.inclusions)))
                        yield ladder_from_columns(
                            m_chain, n_chain, xs,
                            [m.mat for m in lad.h], [m.mat for m in lad.f],
                            [m.mat for m in lad.g], [m.mat for m in lad.q])
