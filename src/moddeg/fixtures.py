"""Worked fixtures: the algebras, modules, certificates and ladders the
test corpus is built on, plus generation of the shipped JSON data files.

Builders take the ground field as a parameter so the same fixture runs
over the rationals and over small prime fields.
"""

from __future__ import annotations

from pathlib import Path

from .fields import GF, QQ
from .algebras import (AlgebraPresentation, ModuleMap, Representation,
                       Submodule, direct_sum, zero_representation)
from .degeneration import RiedtmannCertificate
from .io_json import CompositionVectorDoc, Document, document_for, format_document
from .ladders import LadderCertificate, ladder_from_columns
from .linalg import Matrix, Subspace
from .series import (ModuleChain, TriangularRep, composition_series,
                     triangular_to_series)


# -- algebras ----------------------------------------------------------

def truncated_polynomial_algebra(n: int) -> AlgebraPresentation:
    """k[X]/(X^n), generated by the unit idempotent e and the radical X."""
    return AlgebraPresentation(
        name=f"k[X]/(X^{n})", generators=("e", "x"), idempotents=("e",),
        radical_generators=("x",), relations=(((1, (1,) * n),),))


def kronecker_algebra() -> AlgebraPresentation:
    """Path algebra of the two-arrow quiver 1 => 2."""
    # indices: e1=0, e2=1, a=2, b=3; arrows start at vertex 1, end at 2
    rels = tuple(((1, (arrow, 0)), (-1, (arrow,))) for arrow in (2, 3)) + \
        tuple(((1, (1, arrow)), (-1, (arrow,))) for arrow in (2, 3))
    return AlgebraPresentation(
        name="kronecker", generators=("e1", "e2", "a", "b"),
        idempotents=("e1", "e2"), radical_generators=("a", "b"),
        relations=rels)


def bidirectional_quiver_algebra() -> AlgebraPresentation:
    """Quiver 1 <=> 2 with both two-step cycles set to zero."""
    # indices: e1=0, e2=1, a=2 (1 -> 2), b=3 (2 -> 1)
    rels = (
        ((1, (2, 0)), (-1, (2,))), ((1, (1, 2)), (-1, (2,))),
        ((1, (3, 1)), (-1, (3,))), ((1, (0, 3)), (-1, (3,))),
        ((1, (2, 3)),), ((1, (3, 2)),),
    )
    return AlgebraPresentation(
        name="two-way quiver mod cycles", generators=("e1", "e2", "a", "b"),
        idempotents=("e1", "e2"), radical_generators=("a", "b"),
        relations=rels)


def make_rep(alg: AlgebraPresentation, fld, mats) -> Representation:
    ms = tuple(Matrix.from_rows(fld, m, cols=len(m)) for m in mats)
    return Representation(alg, fld, ms[0].rows, ms)


# -- modules over k[X]/(X^n) ------------------------------------------

def simple_module(fld, n: int = 2) -> Representation:
    return jordan_module(fld, n, (1,))


def regular_module(fld, n: int) -> Representation:
    """k[X]/(X^n) over itself, basis 1, X, .., X^{n-1}."""
    return jordan_module(fld, n, (n,))


def y_module(fld) -> Representation:
    """The 2-dimensional indecomposable over k[X]/(X^3), basis (socle, top)."""
    return make_rep(truncated_polynomial_algebra(3), fld,
                    [[[1, 0], [0, 1]], [[0, 1], [0, 0]]])


def jordan_module(fld, n: int, partition: tuple[int, ...]) -> Representation:
    """Nilpotent module over k[X]/(X^n) with the given Jordan block sizes."""
    d = sum(partition)
    mat = [[0] * d for _ in range(d)]
    off = 0
    for size in partition:
        if size > n:
            raise ValueError("block size exceeds nilpotency degree")
        for i in range(size - 1):
            mat[off + i + 1][off + i] = 1
        off += size
    ident = [[1 if i == j else 0 for j in range(d)] for i in range(d)]
    return make_rep(truncated_polynomial_algebra(n), fld, [ident, mat])


def mu_corner_triangular(fld) -> TriangularRep:
    """d = 3 over k[X]/(X^3): X maps the third coordinate to the first."""
    return TriangularRep(make_rep(
        truncated_polynomial_algebra(3), fld,
        [[[1, 0, 0], [0, 1, 0], [0, 0, 1]],
         [[0, 0, 1], [0, 0, 0], [0, 0, 0]]]))


def nu_shift_triangular(fld) -> TriangularRep:
    """d = 3 over k[X]/(X^3): X maps the second coordinate to the first."""
    return TriangularRep(make_rep(
        truncated_polynomial_algebra(3), fld,
        [[[1, 0, 0], [0, 1, 0], [0, 0, 1]],
         [[0, 1, 0], [0, 0, 0], [0, 0, 0]]]))


def nu_prime_triangular(fld) -> TriangularRep:
    """d = 3 over k[X]/(X^3): X maps the third coordinate to the second."""
    return TriangularRep(make_rep(
        truncated_polynomial_algebra(3), fld,
        [[[1, 0, 0], [0, 1, 0], [0, 0, 1]],
         [[0, 0, 0], [0, 0, 1], [0, 0, 0]]]))


# -- modules over the Kronecker algebra --------------------------------

def kron_s1(fld) -> Representation:
    return make_rep(kronecker_algebra(), fld,
                    [[[1]], [[0]], [[0]], [[0]]])


def kron_s2(fld) -> Representation:
    return make_rep(kronecker_algebra(), fld,
                    [[[0]], [[1]], [[0]], [[0]]])


def kron_regular(fld, a: int, b: int) -> Representation:
    """A (1,1)-dimensional module: the arrows act by the scalars a and b."""
    return make_rep(kronecker_algebra(), fld,
                    [[[1, 0], [0, 0]], [[0, 0], [0, 1]],
                     [[0, 0], [a, 0]], [[0, 0], [b, 0]]])


def kron_i2(fld) -> Representation:
    """Dimension vector (2,1); the arrows are the two coordinate
    projections."""
    return make_rep(kronecker_algebra(), fld, [
        [[1, 0, 0], [0, 1, 0], [0, 0, 0]],
        [[0, 0, 0], [0, 0, 0], [0, 0, 1]],
        [[0, 0, 0], [0, 0, 0], [1, 0, 0]],
        [[0, 0, 0], [0, 0, 0], [0, 1, 0]]])


def kron_dtr_s1(fld) -> Representation:
    """Dimension vector (3,2); the arrows are the two shifts."""
    return make_rep(kronecker_algebra(), fld, [
        [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0],
         [0, 0, 0, 0, 0], [0, 0, 0, 0, 0]],
        [[0, 0, 0, 0, 0], [0, 0, 0, 0, 0], [0, 0, 0, 0, 0],
         [0, 0, 0, 1, 0], [0, 0, 0, 0, 1]],
        [[0, 0, 0, 0, 0], [0, 0, 0, 0, 0], [0, 0, 0, 0, 0],
         [1, 0, 0, 0, 0], [0, 1, 0, 0, 0]],
        [[0, 0, 0, 0, 0], [0, 0, 0, 0, 0], [0, 0, 0, 0, 0],
         [0, 1, 0, 0, 0], [0, 0, 1, 0, 0]]])


def kron_r2_mu(fld) -> TriangularRep:
    """Triangular form of the (2,2) regular module whose third flag step
    is the projective cover of the first simple."""
    return TriangularRep(make_rep(kronecker_algebra(), fld, [
        [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
        [[0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0]],
        [[0, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0], [0, 0, 0, 0]]]))


def kron_r2_nu(fld) -> TriangularRep:
    """Triangular form of the same module whose third flag step splits."""
    return TriangularRep(make_rep(kronecker_algebra(), fld, [
        [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
        [[0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0]],
        [[0, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]]))


# -- modules over the two-way quiver -----------------------------------

def bidir_m(fld) -> Representation:
    """Arrow 1 -> 2 acts by 1, the other by 0; the socle is the second
    simple."""
    return make_rep(bidirectional_quiver_algebra(), fld,
                    [[[1, 0], [0, 0]], [[0, 0], [0, 1]],
                     [[0, 0], [1, 0]], [[0, 0], [0, 0]]])


def bidir_n(fld) -> Representation:
    """Arrow 2 -> 1 acts by 1, the other by 0; the socle is the first
    simple."""
    return make_rep(bidirectional_quiver_algebra(), fld,
                    [[[1, 0], [0, 0]], [[0, 0], [0, 1]],
                     [[0, 0], [0, 0]], [[0, 1], [0, 0]]])


# -- certificates ------------------------------------------------------

def dual_numbers_modules(fld):
    lam = regular_module(fld, 2)
    s = simple_module(fld, 2)
    lam2 = direct_sum(lam, lam)
    s2 = direct_sum(s, s)
    lam_s2 = direct_sum(lam, s2)
    return lam, s, lam2, s2, lam_s2


def cert_dual_eta(fld) -> RiedtmannCertificate:
    """Lambda^2 degenerates to Lambda (+) S^2 over k[X]/(X^2); the kernel
    threads the socle of the first regular summand."""
    lam, s, lam2, s2, lam_s2 = dual_numbers_modules(fld)
    M = lambda rows: Matrix.from_rows(fld, rows)
    return RiedtmannCertificate.build(
        s, lam2, lam_s2,
        Matrix.zeros(fld, 1, 1),
        M([[0], [1], [0], [0]]),
        M([[0, 0, 0, 1, 0],
           [0, 0, 0, 0, 1],
           [0, 1, 0, 0, 0],
           [1, 0, 0, 0, 0]]))


def cert_dual_theta(fld) -> RiedtmannCertificate:
    """Same degeneration, kernel through the second summand's socle."""
    lam, s, lam2, s2, lam_s2 = dual_numbers_modules(fld)
    M = lambda rows: Matrix.from_rows(fld, rows)
    return RiedtmannCertificate.build(
        s, lam2, lam_s2,
        Matrix.zeros(fld, 1, 1),
        M([[0], [0], [0], [1]]),
        M([[0, 1, 0, 0, 0],
           [0, 0, 1, 0, 0],
           [0, 0, 0, 1, 0],
           [1, 0, 0, 0, 0]]))


def sub_dual_lambda_s(fld) -> Submodule:
    """Lambda (+) soc inside Lambda^2: the image of (1, 0; 0, i)."""
    lam2 = dual_numbers_modules(fld)[2]
    basis = Matrix.from_rows(fld, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1]]).transpose()
    return Submodule(lam2, Subspace.from_columns(basis))


def cert_dual_chain(fld) -> RiedtmannCertificate:
    """The eta degeneration with its target reordered as S^2 (+) Lambda,
    so both slots carry a literally identified Lambda factor."""
    lam, s, lam2, s2, _ = dual_numbers_modules(fld)
    s2_lam = direct_sum(s2, lam)
    M = lambda rows: Matrix.from_rows(fld, rows)
    return RiedtmannCertificate.build(
        s, lam2, s2_lam,
        Matrix.zeros(fld, 1, 1),
        M([[0], [1], [0], [0]]),
        M([[0, 1, 0, 0, 0],
           [1, 0, 0, 0, 0],
           [0, 0, 0, 1, 0],
           [0, 0, 0, 0, 1]]))


def cert_dual_s2_to_s4(fld) -> RiedtmannCertificate:
    """Lambda (+) S^2 degenerates to S^4 over k[X]/(X^2), with a
    semisimple kernel chosen so the composite lift exists."""
    lam, s, lam2, s2, lam_s2 = dual_numbers_modules(fld)
    s4 = direct_sum(s2, s2)
    M = lambda rows: Matrix.from_rows(fld, rows)
    return RiedtmannCertificate.build(
        s2, lam_s2, s4,
        Matrix.zeros(fld, 2, 2),
        M([[0, 0], [1, 0], [0, 0], [0, 1]]),
        M([[1, 0, 0, 0, 0, 0],
           [0, 1, 0, 0, 0, 0],
           [0, 0, 1, 0, 0, 0],
           [0, 0, 0, 0, 1, 0]]))


def cert_kron_i2(fld) -> RiedtmannCertificate:
    """The (2,1)-dimensional module degenerates to R (+) S_1 over the
    Kronecker algebra; the kernel is a regular submodule."""
    M = lambda rows: Matrix.from_rows(fld, rows)
    r = kron_regular(fld, 1, 0)
    i2 = kron_i2(fld)
    n = direct_sum(r, kron_s1(fld))
    return RiedtmannCertificate.build(
        r, i2, n,
        Matrix.zeros(fld, 2, 2),
        M([[1, 0], [0, 0], [0, 1]]),
        M([[1, 0, 0, 0, 0],
           [0, 1, 0, 0, 0],
           [0, 0, 0, 1, 0]]))


def nilp3_type_modules(fld):
    """The three nilpotent types of dimension 3 over k[X]/(X^3)."""
    return (jordan_module(fld, 3, (3,)),
            jordan_module(fld, 3, (2, 1)),
            jordan_module(fld, 3, (1, 1, 1)))


def cert_nilp3_32(fld) -> RiedtmannCertificate:
    """Type (3) degenerates to type (2,1): regular module to Y (+) S."""
    lam = regular_module(fld, 3)
    s = simple_module(fld, 3)
    n = direct_sum(y_module(fld), s)
    M = lambda rows: Matrix.from_rows(fld, rows)
    return RiedtmannCertificate.build(
        s, lam, n,
        Matrix.zeros(fld, 1, 1),
        M([[0], [0], [1]]),
        M([[0, 0, 1, 0],
           [0, 1, 0, 0],
           [1, 1, 0, 0]]))


def cert_nilp3_21(fld) -> RiedtmannCertificate:
    """Type (2,1) degenerates to type (1,1,1): Y (+) S to S^3."""
    s = simple_module(fld, 3)
    m = direct_sum(y_module(fld), s)
    s3 = direct_sum(direct_sum(s, s), s)
    M = lambda rows: Matrix.from_rows(fld, rows)
    return RiedtmannCertificate.build(
        s, m, s3,
        Matrix.zeros(fld, 1, 1),
        M([[1], [0], [0]]),
        M([[0, 0, 1, 0],
           [1, 0, 0, 0],
           [0, 0, 0, 1]]))


def cert_nilp3_31(fld) -> RiedtmannCertificate:
    """Type (3) degenerates to type (1,1,1) directly, with kernel
    Y (+) S."""
    lam = regular_module(fld, 3)
    s = simple_module(fld, 3)
    x = direct_sum(y_module(fld), s)
    s3 = direct_sum(direct_sum(s, s), s)
    M = lambda rows: Matrix.from_rows(fld, rows)
    return RiedtmannCertificate.build(
        x, lam, s3,
        M([[0, 1, 1], [0, 0, 0], [0, 0, 0]]),
        M([[0, 0, 0], [0, 1, 0], [1, 0, 0]]),
        M([[0, 1, 0, 0, 0, 0],
           [0, 0, 1, 0, 0, 0],
           [0, 0, 0, 1, 0, 0]]))


# -- ladders -----------------------------------------------------------

def ladder_nilp3_corner(fld) -> LadderCertificate:
    """The ladder taking the shift triangular form down to the corner
    form over k[X]/(X^3)."""
    s = simple_module(fld, 3)
    y = y_module(fld)
    sy = direct_sum(s, y)
    ss = direct_sum(s, s)
    M = lambda rows: Matrix.from_rows(fld, rows)
    Z = lambda r, c: Matrix.zeros(fld, r, c)
    m_chain = ModuleChain((s, y, sy), (
        ModuleMap(s, y, M([[1], [0]])),
        ModuleMap(y, sy, M([[0, 0], [1, 0], [0, 1]]))))
    n_chain = ModuleChain((s, ss, sy), (
        ModuleMap(s, ss, M([[0], [1]])),
        ModuleMap(ss, sy, M([[1, 0], [0, 1], [0, 0]]))))
    return ladder_from_columns(
        m_chain, n_chain,
        x=[s, s, y],
        h=[M([[1]]), M([[1], [0]])],
        f=[Z(1, 1), Z(1, 1), Z(2, 2)],
        g=[M([[1]]), M([[1], [0]]), M([[0, -1], [1, 0], [0, 1]])],
        q=[M([[1, 0]]),
           M([[0, 0, 1], [1, 0, 0]]),
           M([[0, 0, 1, 0, 1], [1, 0, 0, 0, 0], [0, 1, 0, 0, 0]])])


def ladder_nilp3_shift(fld) -> LadderCertificate:
    """The ladder taking the split triangular form down to the corner
    form over k[X]/(X^3); its first column is trivial."""
    s = simple_module(fld, 3)
    y = y_module(fld)
    sy = direct_sum(s, y)
    ss = direct_sum(s, s)
    z = zero_representation(s.algebra, fld)
    M = lambda rows: Matrix.from_rows(fld, rows)
    Z = lambda r, c: Matrix.zeros(fld, r, c)
    m_chain = ModuleChain((s, ss, sy), (
        ModuleMap(s, ss, M([[1], [0]])),
        ModuleMap(ss, sy, M([[1, 0], [0, 1], [0, 0]]))))
    n_chain = ModuleChain((s, ss, sy), (
        ModuleMap(s, ss, M([[0], [1]])),
        ModuleMap(ss, sy, M([[1, 0], [0, 1], [0, 0]]))))
    return ladder_from_columns(
        m_chain, n_chain,
        x=[z, s, s],
        h=[Z(1, 0), M([[1]])],
        f=[Z(0, 0), Z(1, 1), Z(1, 1)],
        g=[Z(1, 0), M([[1], [-1]]), M([[1], [-1], [0]])],
        q=[M([[1]]),
           M([[1, 0, 0], [0, 1, 1]]),
           M([[1, 0, 0, 0], [0, 1, 1, 0], [0, 0, 0, 1]])])


def trivial_ladder(tri: TriangularRep) -> LadderCertificate:
    """The ladder with zero top row certifying that a series degenerates
    to itself; each column is the trivial certificate."""
    chain = tri.chain()
    fld = tri.rep.field
    d = tri.dim
    z = zero_representation(tri.rep.algebra, fld)
    return ladder_from_columns(
        chain, chain,
        x=[z] * d,
        h=[Matrix.zeros(fld, 0, 0)] * (d - 1),
        f=[Matrix.zeros(fld, 0, 0)] * d,
        g=[Matrix.zeros(fld, i + 1, 0) for i in range(d)],
        q=[Matrix.identity(fld, i + 1) for i in range(d)])


# -- shipped data files -------------------------------------------------

def fixture_documents() -> dict[str, Document]:
    """Every shipped fixture, keyed by file name."""
    lam, s, lam2, s2, lam_s2 = dual_numbers_modules(QQ)
    s3 = direct_sum(direct_sum(s, s), s)
    lam_s = direct_sum(lam, s)
    t3, t21, t111 = nilp3_type_modules(QQ)
    docs = {
        "rep_dual_lambda2.json": document_for(lam2),
        "rep_dual_lambda_s2.json": document_for(lam_s2),
        "rep_dual_lambda_s.json": document_for(lam_s),
        "rep_dual_s3.json": document_for(s3),
        "cert_dual_eta.json": document_for(cert_dual_eta(QQ)),
        "cert_dual_theta.json": document_for(cert_dual_theta(QQ)),
        "cert_dual_chain.json": document_for(cert_dual_chain(QQ)),
        "cert_dual_s2_to_s4.json": document_for(cert_dual_s2_to_s4(QQ)),
        "sub_dual_lambda_s.json": document_for(sub_dual_lambda_s(QQ)),
        "rep_kron_i2.json": document_for(kron_i2(QQ)),
        "rep_kron_r_s1.json": document_for(
            direct_sum(kron_regular(QQ, 1, 0), kron_s1(QQ))),
        "rep_kron_rprime.json": document_for(kron_regular(QQ, 0, 1)),
        "rep_kron_s1_s2.json": document_for(
            direct_sum(kron_s1(QQ), kron_s2(QQ))),
        "rep_kron_dtr_s1.json": document_for(kron_dtr_s1(QQ)),
        "cert_kron_i2.json": document_for(cert_kron_i2(QQ)),
        "rep_nilp3_type3.json": document_for(t3),
        "rep_nilp3_type21.json": document_for(t21),
        "rep_nilp3_type111.json": document_for(t111),
        "cert_nilp3_32.json": document_for(cert_nilp3_32(QQ)),
        "cert_nilp3_21.json": document_for(cert_nilp3_21(QQ)),
        "cert_nilp3_31.json": document_for(cert_nilp3_31(QQ)),
        "rep_nilp3_mu.json": document_for(mu_corner_triangular(QQ).rep),
        "rep_nilp3_nu.json": document_for(nu_shift_triangular(QQ).rep),
        "rep_nilp3_nu_prime.json": document_for(nu_prime_triangular(QQ).rep),
        "ladder_nilp3_corner.json": document_for(ladder_nilp3_corner(QQ)),
        "ladder_nilp3_shift.json": document_for(ladder_nilp3_shift(QQ)),
        "rep_r2_mu.json": document_for(kron_r2_mu(QQ).rep),
        "rep_r2_nu.json": document_for(kron_r2_nu(QQ).rep),
        "series_r2_mu.json": document_for(
            triangular_to_series(kron_r2_mu(QQ))),
        "rep_bidir_m.json": document_for(bidir_m(QQ)),
        "rep_bidir_n.json": document_for(bidir_n(QQ)),
        "cvec_r2.json": document_for(
            CompositionVectorDoc(kronecker_algebra(), (1, 1, 0, 0)), QQ),
        "rep_dual_lambda.json": document_for(lam),
        "rep_dual_lambda_f2.json": document_for(regular_module(GF(2), 2)),
        "sub_dual_soc.json": document_for(Submodule(
            lam, Subspace.from_columns(Matrix.from_rows(QQ, [[0, 1]]).transpose()))),
        "ladder_r2_trivial.json": document_for(trivial_ladder(kron_r2_mu(QQ))),
        "series_dual_lambda2.json": document_for(composition_series(lam2)),
        "series_bidir_m.json": document_for(composition_series(bidir_m(QQ))),
        "series_bidir_n.json": document_for(composition_series(bidir_n(QQ))),
    }
    return docs


def write_fixture_files(directory) -> None:
    """Write the fixture corpus into a directory."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for name, doc in fixture_documents().items():
        (directory / name).write_text(format_document(doc), encoding="utf-8")
