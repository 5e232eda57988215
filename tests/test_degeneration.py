"""Certificates, codimension arithmetic, submodule transport, splitting,
composition and the virtual-degeneration chain."""

import random
from itertools import product

import pytest

from moddeg import (Matrix, ModuleMap, Submodule, Subspace, codim,
                    compose_certificates, direct_sum, hom_defect,
                    is_isomorphic, orbit_dim_gl, push_submodule,
                    split_submodule, trivial_certificate, verify_certificate,
                    virtual_chain)
from moddeg.algebras import conjugate
from moddeg.degeneration import RiedtmannCertificate
from moddeg.errors import DimensionMismatch, NoLift
from moddeg.fields import GF, QQ
from moddeg.fixtures import (cert_dual_chain, cert_dual_eta,
                             cert_dual_s2_to_s4, cert_dual_theta,
                             cert_kron_i2, cert_nilp3_21, cert_nilp3_31,
                             cert_nilp3_32, dual_numbers_modules, kron_i2,
                             kron_regular, kron_s1, kron_s2, kron_dtr_s1,
                             regular_module, simple_module,
                             sub_dual_lambda_s)
from moddeg.linalg import vstack
from moddeg.oracles import enum_submodules

from support import dense_rref, kronecker_rows, random_invertible

F2 = GF(2)


def lam_s(fld):
    lam, s, *_ = dual_numbers_modules(fld)
    return direct_sum(lam, s)


def s_power(fld, k):
    s = simple_module(fld)
    out = s
    for _ in range(k - 1):
        out = direct_sum(out, s)
    return out


def test_trivial_certificate_verifies():
    lam = regular_module(QQ, 2)
    report = verify_certificate(trivial_certificate(lam))
    assert report.ok


def test_fixture_certificates_verify():
    for cert in (cert_dual_eta(QQ), cert_dual_theta(QQ), cert_kron_i2(QQ),
                 cert_nilp3_32(QQ), cert_nilp3_21(QQ), cert_nilp3_31(QQ),
                 cert_dual_s2_to_s4(QQ), cert_dual_chain(QQ)):
        assert verify_certificate(cert).ok


def test_zero_quotient_is_rejected():
    c = cert_dual_eta(QQ)
    broken = RiedtmannCertificate.build(
        c.x, c.m, c.n, c.f.mat, c.g.mat, Matrix.zeros(QQ, 4, 5))
    report = verify_certificate(broken)
    assert not report.ok
    assert any("surjective" in item.name for item in report.failures())


def test_codim_examples():
    lam, s, lam2, s2, lam_s2 = dual_numbers_modules(QQ)
    assert codim(lam2, lam2) == 0
    assert codim(lam2, lam_s2) == 2
    assert codim(lam_s(QQ), s_power(QQ, 3)) == 4
    with pytest.raises(DimensionMismatch):
        codim(lam, lam2)


def test_orbit_dim_gl_examples():
    lam, s, *_ = dual_numbers_modules(QQ)
    assert orbit_dim_gl(s) == 0          # 1 - 1
    assert orbit_dim_gl(lam) == 2        # 4 - 2
    assert orbit_dim_gl(kron_i2(QQ)) == 8  # 9 - 1


def test_push_full_submodule_recovers_target():
    c = cert_dual_eta(QQ)
    full = Submodule(c.m, Subspace.full(QQ, c.m.dim))
    result = push_submodule(c, full)
    assert result.nprime.space.dim == result.nprime.space.ambient_dim
    assert verify_certificate(result.cert).ok


def test_push_eta_and_theta_examples():
    eta, theta = cert_dual_eta(QQ), cert_dual_theta(QQ)
    mprime = sub_dual_lambda_s(QQ)
    r_eta = push_submodule(eta, mprime)
    assert is_isomorphic(r_eta.cert.n, s_power(QQ, 3))
    assert codim(r_eta.cert.m, r_eta.cert.n) == 4
    r_theta = push_submodule(theta, mprime)
    assert is_isomorphic(r_theta.cert.n, lam_s(QQ))
    assert codim(r_theta.cert.m, r_theta.cert.n) == 0


def test_codim_can_grow_under_pushforward():
    # the deliberate negative test: transported codimension 4 exceeds the
    # ambient codimension 2
    eta = cert_dual_eta(QQ)
    r = push_submodule(eta, sub_dual_lambda_s(QQ))
    assert codim(eta.m, eta.n) == 2
    assert codim(r.cert.m, r.cert.n) == 4


def test_split_full_submodule():
    lam = regular_module(QQ, 2)
    s = simple_module(QQ)
    both = direct_sum(lam, s)
    full = Submodule(both, Subspace.full(QQ, 3))
    result = split_submodule(lam, s, full)
    assert all(sub.space.dim == sub.space.ambient_dim
               for sub in (result.xprime, result.yprime))
    assert verify_certificate(result.cert).ok


def test_split_diagonal_simple():
    s = simple_module(QQ)
    both = direct_sum(s, s)
    diag = Submodule(both, Subspace.from_columns(
        Matrix.from_rows(QQ, [[1, 1]]).transpose()))
    result = split_submodule(s, s, diag)
    assert result.xprime.dim == 1 and result.yprime.dim == 0
    assert result.cert.x.dim == 0
    assert verify_certificate(result.cert).ok


def test_split_lambda_s_inside_lambda2():
    lam = regular_module(F2, 2)
    both = direct_sum(lam, lam)
    sub = Submodule(both, Subspace.from_columns(
        Matrix.from_rows(F2, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1]]).transpose()))
    result = split_submodule(lam, lam, sub)
    assert result.xprime.dim == 2          # the full first factor
    assert result.yprime.dim == 1          # the socle of the second
    assert verify_certificate(result.cert).ok
    # brute-force check of image and kernel of the projection over F_2
    from support import submodule_point_set
    pts = submodule_point_set(sub)
    projected = {p[:2] for p in pts}
    assert len(projected) == 4
    killed = {p for p in pts if p[:2] == (0, 0)}
    assert len(killed) == 2


def test_compose_with_trivial_sides():
    eta = cert_dual_eta(QQ)
    left = compose_certificates(trivial_certificate(eta.m), eta)
    right = compose_certificates(eta, trivial_certificate(eta.n))
    for cert in (left, right):
        assert verify_certificate(cert).ok
        assert cert.m == eta.m and cert.n == eta.n


def test_compose_chain_to_semisimple():
    eta = cert_dual_eta(QQ)
    second = cert_dual_s2_to_s4(QQ)
    composed = compose_certificates(eta, second)
    assert verify_certificate(composed).ok
    assert composed.x.dim == eta.x.dim + second.x.dim
    assert composed.m == eta.m and composed.n == second.n


def test_compose_reports_missing_lift():
    # the nilpotent chain (3) -> (2,1) -> (1,1,1) admits no lift of this
    # shape; the direct certificate exists separately
    with pytest.raises(NoLift):
        compose_certificates(cert_nilp3_32(QQ), cert_nilp3_21(QQ))
    assert verify_certificate(cert_nilp3_31(QQ)).ok


FIXTURE_CERTS = (cert_dual_chain, cert_dual_eta, cert_dual_s2_to_s4,
                 cert_dual_theta, cert_kron_i2, cert_nilp3_21, cert_nilp3_31,
                 cert_nilp3_32)


def chained_pairs(fld) -> list:
    """Every pair of fixture certificates that chains (c1.n = c2.m), and
    every fixture composed with the trivial certificate on either side."""
    certs = [make(fld) for make in FIXTURE_CERTS]
    pairs = [(c1, c2) for c1, c2 in product(certs, repeat=2) if c1.n == c2.m]
    for cert in certs:
        pairs += [(trivial_certificate(cert.m), cert),
                  (cert, trivial_certificate(cert.n))]
    return pairs


def recast(cert, bx, bm, bn):
    """The certificate with X, M and N rewritten in the columns of the
    invertible bx, bm and bn (each module R becomes b^-1 R b)."""
    return cert.restrict(*[ModuleMap(conjugate(rep, b), rep, b)
                           for rep, b in ((cert.x, bx), (cert.m, bm), (cert.n, bn))])


def conjugated_pair(c1, c2, rng):
    """The chained pair with the shared module c1.n = c2.m, the lift's
    source W = c2.x and the summands X = c1.x and A = c1.m of its target
    conjugated by seeded random invertible matrices, so the lifts are not
    all identities."""
    fld = c1.m.field

    def basis(rep):
        return random_invertible(fld, rng, rep.dim)
    shared = basis(c1.n)
    return (recast(c1, basis(c1.x), basis(c1.m), shared),
            recast(c2, basis(c2.x), shared, Matrix.identity(fld, c2.n.dim)))


def dense_lift(c1, c2):
    """The lift H: W -> X (+) A with q1 . H = g2 as one dense system: the
    Kronecker-product rows of the intertwiners W -> X (+) A with right-hand
    side zero, then per column j of H the rows q1 . (H e_j) = g2 e_j, solved
    by ``dense_rref`` with every free variable at zero; None when the
    system is inconsistent."""
    fld, w, xm = c1.m.field, c2.x, c1.middle
    dw, nvars = w.dim, xm.dim * w.dim
    rows = [row + [0] for row in kronecker_rows(w, xm)]
    g2 = c2.g.mat.data
    for j in range(dw):
        for i, q_row in enumerate(c1.q.mat.data):
            row = [0] * (nvars + 1)
            for s, v in enumerate(q_row):
                row[s * dw + j] = v
            row[nvars] = g2[i][j]
            rows.append(row)
    ech, _, pivots = dense_rref(Matrix.from_rows(fld, rows, cols=nvars + 1))
    if nvars in pivots:
        return None
    flat = [fld.zero] * nvars
    for r, c in enumerate(pivots):
        flat[c] = ech.data[r][nvars]
    return Matrix.from_rows(fld, [flat[r * dw:(r + 1) * dw] for r in range(xm.dim)], cols=dw)


@pytest.mark.parametrize("fld", [QQ, F2, GF(3), GF(101)], ids=str)
def test_compose_lift_matches_the_dense_reference(fld):
    rng = random.Random(17)
    outcomes = []
    for c1, c2 in chained_pairs(fld):
        c1, c2 = conjugated_pair(c1, c2, rng)
        assert verify_certificate(c1).ok and verify_certificate(c2).ok
        expected = dense_lift(c1, c2)
        outcomes.append(expected is not None)
        if expected is None:
            with pytest.raises(NoLift):
                compose_certificates(c1, c2)
            continue
        composed = compose_certificates(c1, c2)
        dx, dw = c1.x.dim, c2.x.dim
        lift = vstack(composed.f.mat.submatrix(range(dx), range(dx, dx + dw)),
                      composed.g.mat.submatrix(range(c1.m.dim), range(dx, dx + dw)))
        assert lift == expected
        assert composed.m == c1.m and composed.n == c2.n
    assert True in outcomes and False in outcomes


def test_hom_defect_values():
    i2 = kron_i2(QQ)
    r_s1 = direct_sum(kron_regular(QQ, 1, 0), kron_s1(QQ))
    dtr = kron_dtr_s1(QQ)
    assert hom_defect(i2, i2, [i2]).values == [0]
    assert hom_defect(i2, r_s1, [dtr]).values == [1]
    rprime = kron_regular(QQ, 0, 1)
    s1_s2 = direct_sum(kron_s1(QQ), kron_s2(QQ))
    report = hom_defect(rprime, s1_s2, [dtr])
    assert report.values == [3]


def test_hom_defect_negative_certifies_non_degeneration():
    lam, s, lam2, s2, lam_s2 = dual_numbers_modules(QQ)
    report = hom_defect(lam_s2, lam2, [s])
    assert any(v < 0 for v in report.values)


def test_hom_defect_nonnegative_on_certified_degenerations():
    # wherever a verified certificate exists, no test module may give a
    # negative defect
    for cert in (cert_dual_eta(QQ), cert_dual_theta(QQ), cert_kron_i2(QQ),
                 cert_nilp3_32(QQ), cert_nilp3_21(QQ), cert_nilp3_31(QQ)):
        assert verify_certificate(cert).ok
        tests = [cert.m, cert.n, cert.x] if cert.x.dim else [cert.m, cert.n]
        assert not any(v < 0 for v in hom_defect(cert.m, cert.n, tests).values)


def test_virtual_chain_trivial_and_small():
    cert = cert_dual_chain(QQ)
    lam = regular_module(QQ, 2)
    # full submodule: terminates immediately with the whole N and Y
    full = Submodule(lam, Subspace.full(QQ, 2))
    r = virtual_chain(cert, full)
    assert all(sub.space.dim == sub.space.ambient_dim
               for sub in (r.nfinal, r.yfinal))
    assert len(r.trace) == 1
    # the socle: stabilizes within two rounds with a verified certificate
    soc = Submodule(lam, Subspace.from_columns(Matrix.from_rows(QQ, [[0, 1]]).transpose()))
    r = virtual_chain(cert, soc)
    assert len(r.trace) <= 2
    assert verify_certificate(r.cert).ok
    assert r.cert.m.dim == soc.dim + r.yfinal.dim
    assert r.nfinal.dim <= 2 and r.yfinal.dim == 2
    # descending traces
    prev_n, prev_y = None, None
    for n_sub, y_sub in r.trace:
        if prev_n is not None:
            assert prev_n.space.contains(n_sub.space)
            assert prev_y.space.contains(y_sub.space)
        prev_n, prev_y = n_sub, y_sub


def test_virtual_chain_with_zero_y():
    from moddeg import zero_representation
    eta = cert_dual_eta(QQ)
    z = zero_representation(eta.m.algebra, QQ)
    m_ext = direct_sum(eta.m, z)
    n_ext = direct_sum(eta.n, z)
    cert = RiedtmannCertificate.build(eta.x, m_ext, n_ext,
                                      eta.f.mat, eta.g.mat, eta.q.mat)
    sub = sub_dual_lambda_s(QQ)
    ext_sub = Submodule(m_ext, sub.space)
    r = virtual_chain(cert, ext_sub)
    assert len(r.trace) == 1 and r.yfinal.dim == 0
    assert is_isomorphic(r.cert.n, s_power(QQ, 3))


def test_pushforward_neither_injective_nor_surjective():
    # two distinct submodules with the same image, and a submodule of N
    # missed entirely, exhibited by enumeration over a small field
    cert = cert_kron_i2(F2)
    subs = enum_submodules(cert.m)
    images = {}
    for sub in subs:
        key = push_submodule(cert, sub).nprime.space
        images.setdefault(key, []).append(sub)
    assert any(len(group) > 1 for group in images.values())
    target_subs = {s.space for s in enum_submodules(cert.n)}
    assert not target_subs.issubset(set(images))
