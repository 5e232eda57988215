"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line.  Every tolerance is exact (integer or structural equality); nothing
is deferred to calibration.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import random
import time
from importlib import resources

from moddeg import (Submodule, Subspace, codim, composition_series,
                    direct_sum, enum_submodules,
                    hom_defect, hom_dim, is_isomorphic, orbit_dim_ud,
                    push_submodule, quotient_module, series_to_triangular,
                    simultaneous_triangularize, series_isomorphic,
                    sub_representation, triangular_to_series,
                    verify_certificate, verify_ladder, format_document,
                    parse_document, document_for)
from moddeg.errors import VectorMismatch
from moddeg.fields import GF, QQ
from moddeg.fixtures import (cert_dual_eta, cert_dual_theta, cert_kron_i2,
                             cert_nilp3_21, cert_nilp3_31, cert_nilp3_32,
                             dual_numbers_modules, kron_dtr_s1, kron_i2,
                             kron_r2_mu, kron_r2_nu, kron_regular, kron_s1,
                             kron_s2, bidir_m, bidir_n, ladder_nilp3_corner,
                             ladder_nilp3_shift, make_rep,
                             mu_corner_triangular, nilp3_type_modules,
                             nu_shift_triangular, regular_module,
                             simple_module, sub_dual_lambda_s,
                             truncated_polynomial_algebra, y_module)
from moddeg.ladders import build_family, evaluate_family, make_monic
from moddeg.oracles import nilpotent_degenerates
from moddeg.series import chain_to_triangular

from support import random_matrix, random_nilpotent_rep, random_subspace
from test_ladders import _mutants

F2 = GF(2)
DATA = resources.files("moddeg") / "data"


def _report(number: int, label: str):
    print(f"ACCEPTANCE {number:02d} PASS: {label}")


def _s_power(fld, k):
    s = simple_module(fld)
    out = s
    for _ in range(k - 1):
        out = direct_sum(out, s)
    return out


def test_criterion_01_submodule_pushforward_replication():
    lam, s, lam2, s2, lam_s2 = dual_numbers_modules(QQ)
    assert codim(lam2, lam_s2) == 2
    mprime = sub_dual_lambda_s(QQ)
    r_eta = push_submodule(cert_dual_eta(QQ), mprime)
    assert is_isomorphic(r_eta.cert.n, _s_power(QQ, 3))
    assert codim(r_eta.cert.m, r_eta.cert.n) == 4
    r_theta = push_submodule(cert_dual_theta(QQ), mprime)
    lam_s = direct_sum(lam, s)
    assert is_isomorphic(r_theta.cert.n, lam_s)
    assert codim(r_theta.cert.m, r_theta.cert.n) == 0
    _report(1, "pushforward along both sequences over the dual numbers")


def test_criterion_02_hom_defects_and_certificate():
    i2 = kron_i2(QQ)
    r_s1 = direct_sum(kron_regular(QQ, 1, 0), kron_s1(QQ))
    dtr = kron_dtr_s1(QQ)
    assert hom_defect(i2, r_s1, [dtr]).values == [1]
    rprime = kron_regular(QQ, 0, 1)
    s1_s2 = direct_sum(kron_s1(QQ), kron_s2(QQ))
    assert hom_defect(rprime, s1_s2, [dtr]).values == [3]
    shipped = parse_document(
        (DATA / "cert_kron_i2.json").read_text(encoding="utf-8"))
    assert shipped.kind == "certificate"
    assert verify_certificate(shipped.value).ok
    assert shipped.value.m == i2 and is_isomorphic(shipped.value.n, r_s1)
    _report(2, "two-arrow quiver Hom defects and shipped certificate")


def test_criterion_03_ladder_fixtures_and_mutations():
    for builder in (ladder_nilp3_corner, ladder_nilp3_shift):
        lad = builder(QQ)
        assert verify_ladder(lad).ok
        total, rejected = 0, 0
        for mutant in _mutants(lad):
            total += 1
            if not verify_ladder(mutant).ok:
                rejected += 1
        assert total > 50
        assert rejected / total >= 0.95
    _report(3, "both ladders verify; single-entry mutations are rejected")


def test_criterion_04_deformation_family_closure():
    lad = ladder_nilp3_corner(QQ)
    fam = build_family(make_monic(lad))
    mu_border = chain_to_triangular(lad.n_chain)
    nu_border = chain_to_triangular(lad.m_chain)
    at_zero = evaluate_family(fam, 0)
    assert series_isomorphic(at_zero, mu_border) is not None
    x0 = at_zero.rep.mats[1]
    assert x0.entry(0, 1) == QQ.zero and x0.entry(1, 2) == QQ.zero
    for t in (1, 2, 3):
        member = evaluate_family(fam, t)
        assert series_isomorphic(member, nu_border) is not None
        xt = member.rep.mats[1]
        assert xt.entry(1, 2) == QQ.zero and xt.entry(0, 1) != QQ.zero
    _report(4, "family hits the displayed closure sets at t = 0 and t != 0")


def test_criterion_05_asymmetry_of_triangular_degeneration():
    mu = mu_corner_triangular(QQ)
    nu = nu_shift_triangular(QQ)
    assert series_isomorphic(mu, nu) is None
    assert orbit_dim_ud(nu) == 2
    assert orbit_dim_ud(mu) == 1
    assert orbit_dim_ud(nu) > orbit_dim_ud(mu)
    x_nu = nu.rep.mats[1]
    in_corner_set = (x_nu.entry(0, 1) == QQ.zero
                     and x_nu.entry(1, 2) == QQ.zero)
    assert not in_corner_set
    _report(5, "no reverse membership: orbit dimensions 2 > 1")


def test_criterion_06_pushforward_soundness_sweep():
    certs = [cert_dual_eta(F2), cert_dual_theta(F2), cert_nilp3_32(F2),
             cert_nilp3_21(F2), cert_kron_i2(F2)]
    algebras = {c.m.algebra.name for c in certs}
    assert len(algebras) >= 3
    checked = 0
    for cert in certs:
        assert 2 ** cert.m.dim <= 2 ** 10
        for sub in enum_submodules(cert.m):
            result = push_submodule(cert, sub)
            assert verify_certificate(result.cert).ok
            assert result.nprime.dim == sub.dim
            assert result.nprime.is_invariant()
            checked += 1
    assert checked >= 30
    _report(6, f"pushforward sound on all {checked} enumerated submodules")


def test_criterion_07_composition_series_transport():
    certs = [cert_dual_eta(F2), cert_dual_theta(F2), cert_nilp3_32(F2),
             cert_nilp3_21(F2), cert_kron_i2(F2)]
    for cert in certs:
        series = composition_series(cert.m)
        pushed = [push_submodule(cert, sub).nprime for sub in series.flags]
        prev_m = Subspace.zero(F2, cert.m.dim)
        prev_n = Subspace.zero(F2, cert.n.dim)
        for m_sub, n_sub in zip(series.flags, pushed):
            assert n_sub.space.contains(prev_n)
            m_stage, m_inc = sub_representation(cert.m, m_sub.space)
            n_stage, n_inc = sub_representation(cert.n, n_sub.space)
            from moddeg.linalg import solve_right
            m_prev_local = solve_right(m_inc.mat, prev_m.basis)
            n_prev_local = solve_right(n_inc.mat, prev_n.basis)
            m_factor, _ = quotient_module(
                m_stage, Submodule(m_stage, Subspace.from_columns(m_prev_local)))
            n_factor, _ = quotient_module(
                n_stage, Submodule(n_stage, Subspace.from_columns(n_prev_local)))
            assert is_isomorphic(m_factor, n_factor)
            prev_m, prev_n = m_sub.space, n_sub.space
    _report(7, "transported flags have matching simple factors")


def test_criterion_08_composition_vectors_and_common_form():
    mu = kron_r2_mu(QQ)
    nu = kron_r2_nu(QQ)
    assert triangular_to_series(mu).factor_names() == ("e2", "e2", "e1", "e1")
    assert is_isomorphic(mu.rep, nu.rep)
    assert series_isomorphic(mu, nu) is None
    m, n = bidir_m(QQ), bidir_n(QQ)
    sm, sn = composition_series(m), composition_series(n)
    try:
        simultaneous_triangularize(m, n, sm, sn)
        raise AssertionError("expected VectorMismatch")
    except VectorMismatch:
        pass
    series_to_triangular(sm)
    series_to_triangular(sn)
    _report(8, "composition vectors separate the series; common form fails "
               "exactly when they differ")


def test_criterion_09_oracle_certificate_agreement():
    t3, t21, t111 = nilp3_type_modules(QQ)
    poset = {"3": t3, "21": t21, "111": t111}
    certs = {("3", "21"): cert_nilp3_32(QQ),
             ("21", "111"): cert_nilp3_21(QQ),
             ("3", "111"): cert_nilp3_31(QQ)}
    s = make_rep(truncated_polynomial_algebra(3), QQ, [[[1]], [[0]]])
    lam = regular_module(QQ, 3)
    tests = [s, y_module(QQ), lam]
    pairs = 0
    for a in poset:
        for b in poset:
            if a == b:
                continue
            pairs += 1
            oracle = nilpotent_degenerates(poset[a], poset[b])
            if (a, b) in certs:
                cert = certs[(a, b)]
                assert oracle
                assert verify_certificate(cert).ok
                assert is_isomorphic(cert.m, poset[a])
                assert is_isomorphic(cert.n, poset[b])
                assert not any(v < 0 for v in hom_defect(cert.m, cert.n, tests).values)
            else:
                assert not oracle
                assert any(v < 0 for v in hom_defect(poset[a], poset[b], tests).values)
    assert pairs == 6
    _report(9, "rank oracle agrees with certificates on all six pairs")


def test_criterion_10_randomized_property_suite():
    started = time.monotonic()
    rng = random.Random(12345)
    fields = [F2, GF(101), QQ]

    from moddeg.linalg import kernel, rref
    for _ in range(1000):
        fld = rng.choice(fields)
        m = random_matrix(fld, rng, rng.randint(1, 4), rng.randint(1, 4))
        assert rref(m)[1] + kernel(m).dim == m.cols

    for _ in range(1000):
        fld = rng.choice(fields)
        dim = rng.randint(1, 4)
        a = random_subspace(fld, rng, dim)
        b = random_subspace(fld, rng, dim)
        assert a.dim + b.dim == a.sum(b).dim + a.intersect(b).dim

    kx2 = truncated_polynomial_algebra(2)
    for _ in range(1000):
        fld = rng.choice([F2, GF(101)])
        a = random_nilpotent_rep(kx2, fld, rng, rng.randint(1, 2), 2)
        b = random_nilpotent_rep(kx2, fld, rng, rng.randint(1, 2), 2)
        c = random_nilpotent_rep(kx2, fld, rng, rng.randint(1, 2), 2)
        ab = direct_sum(a, b)
        assert hom_dim(ab, c) == hom_dim(a, c) + hom_dim(b, c)
        assert hom_dim(c, ab) == hom_dim(c, a) + hom_dim(c, b)

    for _ in range(1000):
        fld = rng.choice(fields)
        rep = random_nilpotent_rep(kx2, fld, rng, rng.randint(1, 3), 2)
        text = format_document(document_for(rep))
        assert format_document(parse_document(text)) == text

    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"property suite took {elapsed:.1f}s"
    _report(10, f"4 x 1000 randomized checks in {elapsed:.1f}s")
