"""Degeneration certificates and the operations that transport them.

A certificate for M <=deg N is a short exact sequence

    0 -> X -> X (+) M -> N -> 0

given by an endomorphism f of X, a map g: X -> M and a surjection
q: X (+) M -> N.  Injectivity of the column map (f; g), surjectivity of q,
q o (f; g) = 0 and dim M = dim N force exactness by dimension count, so
verification is pure linear algebra with no basis-choice coupling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .errors import (AlgebraMismatch, DimensionMismatch,
                     InternalInvariantViolation, NoLift, NotSubmodule,
                     VerificationFailed)
from .algebras import (CheckItem, ModuleMap, Report, Representation,
                       Submodule, direct_sum, hom_dim, intertwiner_system,
                       sub_representation, unflatten, zero_representation)
from .linalg import (Matrix, Subspace, block_diag, hstack, image, kernel,
                     preimage, solve_right, vstack)


@dataclass(frozen=True)
class RiedtmannCertificate:
    """Witness for M <=deg N.  ``middle`` is the literal block sum X (+) M."""

    x: Representation
    m: Representation
    n: Representation
    f: ModuleMap          # X -> X
    g: ModuleMap          # X -> M
    q: ModuleMap          # X (+) M -> N
    middle: Representation

    @classmethod
    def build(cls, x: Representation, m: Representation, n: Representation,
              f_mat: Matrix, g_mat: Matrix, q_mat: Matrix) -> "RiedtmannCertificate":
        middle = direct_sum(x, m)
        return cls(x=x, m=m, n=n,
                   f=ModuleMap(x, x, f_mat),
                   g=ModuleMap(x, m, g_mat),
                   q=ModuleMap(middle, n, q_mat),
                   middle=middle)

    def column_map(self) -> Matrix:
        """The matrix of (f; g): X -> X (+) M."""
        return vstack(self.f.mat, self.g.mat)

    def restrict(self, x_inc: ModuleMap, m_inc: ModuleMap,
                 n_inc: ModuleMap) -> "RiedtmannCertificate":
        """The certificate on the sources of monic maps into X, M and N,
        through which f, g and q factor: f' = x_inc^-1 f x_inc,
        g' = m_inc^-1 g x_inc and q' = n_inc^-1 q (x_inc (+) m_inc)."""
        b = x_inc.mat
        return RiedtmannCertificate.build(
            x_inc.source, m_inc.source, n_inc.source,
            x_inc.factor(self.f.mat @ b), m_inc.factor(self.g.mat @ b),
            n_inc.factor(self.q.mat @ block_diag(b, m_inc.mat)))


def trivial_certificate(m: Representation) -> RiedtmannCertificate:
    """The certificate for M <=deg M with zero X and identity quotient."""
    x = zero_representation(m.algebra, m.field)
    return RiedtmannCertificate.build(
        x, m, m,
        Matrix.zeros(m.field, 0, 0), Matrix.zeros(m.field, m.dim, 0),
        Matrix.identity(m.field, m.dim))


def verify_certificate(cert: RiedtmannCertificate) -> Report:
    """Line-item verification of every certificate invariant."""
    items = []
    consistent = (cert.x.algebra == cert.m.algebra == cert.n.algebra
                  and cert.x.field == cert.m.field == cert.n.field)
    items.append(CheckItem("algebra and field consistent", consistent))
    items.append(CheckItem("dim M = dim N", cert.m.dim == cert.n.dim,
                           f"{cert.m.dim} vs {cert.n.dim}"))
    items.append(CheckItem("f intertwines", cert.f.is_intertwiner()))
    items.append(CheckItem("g intertwines", cert.g.is_intertwiner()))
    items.append(CheckItem("q intertwines", cert.q.is_intertwiner()))
    col = cert.column_map()
    items.append(CheckItem("column map (f; g) injective", col.is_injective()))
    items.append(CheckItem("q surjective", cert.q.mat.rank() == cert.n.dim))
    items.append(CheckItem("q o (f; g) = 0", (cert.q.mat @ col).is_zero()))
    return Report(tuple(items))


def codim(m: Representation, n: Representation) -> int:
    """Orbit codimension [N,N] - [M,M] of a degeneration M <=deg N."""
    if m.dim != n.dim:
        raise DimensionMismatch("codimension needs equal dimensions")
    if m.algebra != n.algebra:
        raise AlgebraMismatch("codimension needs one algebra")
    return hom_dim(n, n) - hom_dim(m, m)


def orbit_dim_gl(m: Representation) -> int:
    """Dimension d^2 - [M,M] of the conjugation orbit of m."""
    return m.dim * m.dim - hom_dim(m, m)


@dataclass(frozen=True)
class HomDefectReport:
    """Per test module X, the integer [X,N] - [X,M].

    Any negative value certifies that M cannot degenerate (even virtually)
    to N.
    """

    pairs: tuple[tuple[Representation, int], ...]

    @property
    def values(self) -> list[int]:
        return [v for _, v in self.pairs]


def hom_defect(m: Representation, n: Representation,
               tests: list[Representation]) -> HomDefectReport:
    pairs = tuple((x, hom_dim(x, n) - hom_dim(x, m)) for x in tests)
    return HomDefectReport(pairs)


def _verified(cert: RiedtmannCertificate, context: str) -> RiedtmannCertificate:
    report = verify_certificate(cert)
    if not report.ok:
        raise VerificationFailed(f"{context}: constructed certificate failed "
                                 f"verification: {report.failures()}", report)
    return cert


class PushResult(NamedTuple):
    nprime: Submodule
    cert: RiedtmannCertificate


def push_submodule(cert: RiedtmannCertificate, mprime: Submodule) -> PushResult:
    """Transport a submodule M' of M to a submodule N' of N along a
    certificate, with a certificate for M' <=deg N'.

    X' is computed as the greatest fixed point of
    ``S_0 = g^{-1}(M'), S_{k+1} = S_k intersect f^{-1}(S_k)``; the chain is
    descending in finite dimension, so it stabilizes within dim X steps.
    N' is the image of X' (+) M' under q, which equals the cokernel of the
    restricted column map; its injective identification inside N is
    asserted at runtime even though it is guaranteed, to catch faults.
    """
    if mprime.ambient != cert.m:
        raise NotSubmodule("submodule does not live in the certificate's M")
    space = preimage(cert.g.mat, mprime.space)
    for _ in range(cert.x.dim + 1):
        refined = space.intersect(preimage(cert.f.mat, space))
        if refined == space:
            break
        space = refined
    else:
        raise InternalInvariantViolation("fixed-point iteration failed to stabilize")

    # restrict() fails unless f(X') lies in X' and g(X') in M'.
    xp_inc = sub_representation(cert.x, space)[1]
    mp_inc = sub_representation(cert.m, mprime.space)[1]
    # The image of X' (+) M' under q, in ambient N coordinates.
    nprime_space = image(cert.q.mat @ block_diag(xp_inc.mat, mp_inc.mat))
    if nprime_space.dim != mprime.dim:
        raise InternalInvariantViolation(
            "induced inclusion of the cokernel into N is not injective")
    np_inc = sub_representation(cert.n, nprime_space)[1]
    out = cert.restrict(xp_inc, mp_inc, np_inc)
    return PushResult(Submodule(cert.n, nprime_space),
                      _verified(out, "push_submodule"))


class SplitResult(NamedTuple):
    xprime: Submodule
    yprime: Submodule
    cert: RiedtmannCertificate


def split_submodule(x: Representation, y: Representation,
                    sub: Submodule) -> SplitResult:
    """Degenerate a submodule of X (+) Y into a sum of submodules of the
    factors.

    With i the inclusion and p the projection onto X, the result is
    X' = im(p o i) and Y' = ker(p o i) (living inside Y), together with
    the certificate 0 -> K -> K (+) M -> X' (+) Y' -> 0 built from the
    kernel inclusion and the image projection.
    """
    ambient = direct_sum(x, y)
    if sub.ambient != ambient:
        raise NotSubmodule("submodule does not live in the stated direct sum")
    fld = ambient.field
    m_rep, m_inc = sub_representation(ambient, sub.space)
    pi_mat = m_inc.mat.submatrix(range(x.dim), range(sub.dim))  # p o i

    xprime_space = image(pi_mat)
    xp_rep, xp_inc = sub_representation(x, xprime_space)

    k_space = kernel(pi_mat)
    k_rep, k_inc = sub_representation(m_rep, k_space)
    k_ambient = m_inc.mat @ k_inc.mat    # kernel vectors in X (+) Y coordinates
    top = k_ambient.submatrix(range(x.dim), range(k_ambient.cols))
    if not top.is_zero():
        raise InternalInvariantViolation("kernel of p o i has a nonzero X part")
    y_part = k_ambient.submatrix(range(x.dim, x.dim + y.dim), range(k_ambient.cols))
    yprime_space = image(y_part)
    yp_rep, yp_inc = sub_representation(y, yprime_space)

    pi_res = xp_inc.factor(pi_mat)      # M -> X' coordinates
    kappa = yp_inc.factor(y_part)       # K -> Y' coordinates

    n_rep = direct_sum(xp_rep, yp_rep)
    q_mat = vstack(
        hstack(Matrix.zeros(fld, xp_rep.dim, k_rep.dim), pi_res),
        hstack(kappa, Matrix.zeros(fld, yp_rep.dim, m_rep.dim)))
    cert = RiedtmannCertificate.build(
        k_rep, m_rep, n_rep,
        Matrix.zeros(fld, k_rep.dim, k_rep.dim), k_inc.mat, q_mat)
    return SplitResult(Submodule(x, xprime_space), Submodule(y, yprime_space),
                       _verified(cert, "split_submodule"))


def compose_certificates(c1: RiedtmannCertificate,
                         c2: RiedtmannCertificate) -> RiedtmannCertificate:
    """Explicit certificate for A <=deg C from certificates A <=deg B and
    B <=deg C.

    Solves for a module map (s; t): W -> X (+) A with q1 o (s; t) = g2: the
    maps held to Hom(W, X (+) A) by the intertwiner equations on every
    entry (``intertwiner_system`` with full support), under an affine
    right-hand side.  The operation is partial by design: when no lift
    exists it raises NoLift, although the composed degeneration still
    holds mathematically.
    """
    if c1.n != c2.m:
        raise AlgebraMismatch(
            "certificates do not chain: first N differs from second M")
    fld = c1.m.field
    w, xm = c2.x, c1.middle
    dw, dxm = w.dim, xm.dim
    q1 = c1.q.mat
    # The lift H is row-major flattened.  The intertwiner equations hold H
    # in Hom(W, X (+) A); below them, the rows q1 . (H e_j) = g2 e_j for
    # each column j read q1's stored rows at the entries H[s][j].
    homs = intertwiner_system(w, xm, range(dxm * dw))
    lifts = [(tuple([s * dw + j for s in cols]), vals)
             for j in range(dw) for cols, vals in q1.entries]
    g2 = c2.g.mat
    sol = solve_right(
        vstack(homs, Matrix(fld, len(lifts), dxm * dw, lifts)),
        vstack(Matrix.zeros(fld, homs.rows, 1),
               *[g2.column_matrix(j) for j in range(dw)]))
    if sol is None:
        raise NoLift("no module map (s; t) with q1 o (s; t) = g2 exists; "
                     "composition by this construction is unavailable")
    lift = unflatten(fld, dxm, dw, sol.transpose().entries[0])
    dx, da = c1.x.dim, c1.m.dim
    sigma = lift.submatrix(range(dx), range(dw))
    tau = lift.submatrix(range(dx, dxm), range(dw))

    v_rep = direct_sum(c1.x, c2.x)
    f_v = vstack(hstack(c1.f.mat, sigma),
                 hstack(Matrix.zeros(fld, dw, dx), c2.f.mat))
    g_v = hstack(c1.g.mat, tau)
    # q(x, w, a) = q2(w, q1(x, a))
    q_v = c2.q.mat @ vstack(
        hstack(Matrix.zeros(fld, dw, dx), Matrix.identity(fld, dw),
               Matrix.zeros(fld, dw, da)),
        hstack(q1.submatrix(range(c1.n.dim), range(dx)),
               Matrix.zeros(fld, c1.n.dim, dw),
               q1.submatrix(range(c1.n.dim), range(dx, dx + da))))
    cert = RiedtmannCertificate.build(v_rep, c1.m, c2.n, f_v, g_v, q_v)
    return _verified(cert, "compose_certificates")


@dataclass(frozen=True)
class ChainResult:
    nfinal: Submodule
    yfinal: Submodule
    cert: RiedtmannCertificate
    trace: tuple[tuple[Submodule, Submodule], ...]


def _split_blocks(rep: Representation, k: int):
    """Extract the two diagonal blocks, of sizes k and dim - k, of a literal
    block-diagonal representation, or None if k is out of range or any
    off-diagonal block is nonzero."""
    if not 0 <= k <= rep.dim:
        return None
    top, bottom = rep.block(0, k), rep.block(k, rep.dim)
    return (top, bottom) if direct_sum(top, bottom) == rep else None


def virtual_chain(cert: RiedtmannCertificate, mprime: Submodule,
                  ) -> ChainResult:
    """Descend a virtual degeneration to a submodule.

    ``cert`` must certify M (+) Y <=deg N (+) Y with literally identified
    block factors, where M is the ambient of ``mprime``.  Each round pushes
    M' (+) Y_i through the current certificate, splits the result over
    (N_i, Y_i) and composes; the Y_i form a descending chain of subspaces
    of Y, so the loop stops within dim Y + 1 rounds, when Y stabilizes.

    NoLift from composition is re-raised with the completed trace attached.
    """
    m_rep = mprime.ambient
    dm = m_rep.dim
    blocks = _split_blocks(cert.m, dm)
    if blocks is None or blocks[0] != m_rep:
        raise AlgebraMismatch(
            "certificate M-slot is not the literal block sum M (+) Y")
    y_rep = blocks[1]
    dy = y_rep.dim
    nblocks = _split_blocks(cert.n, cert.n.dim - dy)
    if nblocks is None or nblocks[1] != y_rep:
        raise AlgebraMismatch(
            "certificate N-slot is not the literal block sum N (+) Y")
    n_rep = nblocks[0]

    fld = m_rep.field
    mp_local = mprime.space                      # M' in M coordinates, fixed
    cur_cert = cert
    cur_n, cur_y = n_rep, y_rep                  # materialized stage factors
    bn = Matrix.identity(fld, n_rep.dim)         # stage N in original N coords
    by = Matrix.identity(fld, y_rep.dim)
    y_local = Subspace.full(fld, dy)             # Y_i inside Y_{i-1}
    trace: list[tuple[Submodule, Submodule]] = []

    for _ in range(dy + 1):
        sub_space = Subspace.from_columns(block_diag(mp_local.basis, y_local.basis))
        sub = Submodule(cur_cert.m, sub_space)
        pushed = push_submodule(cur_cert, sub)
        split = split_submodule(cur_n, cur_y, pushed.nprime)
        try:
            composed = compose_certificates(pushed.cert, split.cert)
        except NoLift as err:
            raise NoLift(str(err), trace=trace) from err

        bn_next = bn @ split.xprime.space.basis
        by_next = by @ split.yprime.space.basis
        n_sub = Submodule(n_rep, Subspace.from_columns(bn_next))
        y_sub = Submodule(y_rep, Subspace.from_columns(by_next))
        trace.append((n_sub, y_sub))
        if split.yprime.dim == cur_y.dim:
            return ChainResult(n_sub, y_sub, composed, tuple(trace))
        cur_n, cur_y = _split_blocks(split.cert.n, split.xprime.dim)
        # Later rounds work inside the materialized M' (+) Y_i, where the
        # M' block is full by construction.
        mp_local = Subspace.full(fld, mprime.dim)
        y_local = split.yprime.space
        bn, by = bn_next, by_next
        cur_cert = composed
    raise InternalInvariantViolation("descending chain failed to stabilize")
