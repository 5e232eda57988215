"""Ladder certificates for composition-series degenerations, their
verification and normalization, the one-parameter deformation family, and
the embedding into modules over the upper-triangular matrix algebra.

A ladder is a commutative diagram with exact columns

    X_1  ->  X_2  -> ... ->  X_d
     |        |               |
    X_1+M_1 -> X_2+M_2 -> .. -> X_d+M_d
     |        |               |
    N_1  ->  N_2  -> ... ->  N_d

whose borders are composition-series chains and whose columns are
degeneration certificates M_i <=deg N_i.  It certifies that the bottom
series lies in the upper-triangular orbit closure of the top series.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Optional

from .errors import (BadParameter, DimensionMismatch,
                     InternalInvariantViolation, NoAdaptedBasis,
                     VerificationFailed)
from .algebras import (AlgebraPresentation, CheckItem, ModuleMap, Report,
                       Representation, intertwiner_system, read_on_complement,
                       sub_representation, validate)
from .degeneration import RiedtmannCertificate, verify_certificate
from .linalg import EchelonTracker, Matrix, block_diag, image, kernel, vstack
from .series import (ModuleChain, TriangularRep, chain_embeddings,
                     upper_triangular_support)


@dataclass(frozen=True)
class LadderCertificate:
    """Columns of degeneration certificates joined by a chain map.

    ``m_chain`` and ``n_chain`` are the two composition-series borders;
    column i certifies stage i of ``m_chain`` <=deg stage i of ``n_chain``,
    and the maps ``h`` join the columns' X slots into the top chain.
    """

    m_chain: ModuleChain
    n_chain: ModuleChain
    columns: tuple[RiedtmannCertificate, ...]
    h: tuple[ModuleMap, ...]

    @property
    def length(self) -> int:
        return self.m_chain.length

    @property
    def x(self) -> tuple[Representation, ...]:
        return tuple(c.x for c in self.columns)

    @property
    def f(self) -> tuple[ModuleMap, ...]:
        return tuple(c.f for c in self.columns)

    @property
    def g(self) -> tuple[ModuleMap, ...]:
        return tuple(c.g for c in self.columns)

    @property
    def q(self) -> tuple[ModuleMap, ...]:
        return tuple(c.q for c in self.columns)


def ladder_from_columns(m_chain: ModuleChain, n_chain: ModuleChain,
                        x: list[Representation], h: list[Matrix],
                        f: list[Matrix], g: list[Matrix],
                        q: list[Matrix]) -> LadderCertificate:
    d = m_chain.length
    h_maps = tuple(ModuleMap(x[i], x[i + 1], h[i]) for i in range(d - 1))
    columns = tuple(
        RiedtmannCertificate.build(x[i], m_chain.stages[i], n_chain.stages[i],
                                   f[i], g[i], q[i])
        for i in range(d))
    return LadderCertificate(m_chain, n_chain, columns, h_maps)


def verify_ladder(lc: LadderCertificate) -> Report:
    """Line-item verification: border chains, per-column certificates of
    the border stages joined by the h maps, and both commuting squares."""
    items = [CheckItem("top border is a composition-series chain",
                       lc.m_chain.validate()),
             CheckItem("bottom border is a composition-series chain",
                       lc.n_chain.validate()),
             CheckItem("column count matches chain length",
                       len(lc.columns) == lc.length
                       and len(lc.h) == lc.length - 1)]
    if not items[-1].ok:
        return Report(tuple(items))
    d = lc.length
    reps_ok = all(validate(r).ok for r in lc.x) and \
        all(validate(r).ok for r in lc.m_chain.stages) and \
        all(validate(r).ok for r in lc.n_chain.stages)
    items.append(CheckItem("all member representations satisfy the algebra "
                           "relations", reps_ok))
    cols = lc.columns
    for i, column in enumerate(cols):
        col = verify_certificate(column)
        staged = (column.m, column.n) == (lc.m_chain.stages[i], lc.n_chain.stages[i])
        items.append(CheckItem(
            f"column {i + 1} is a valid certificate", col.ok and staged,
            str(col.failures()) if not col.ok else
            "" if staged else "its M and N are not the border stages"))
    for i in range(d - 1):
        hm = lc.h[i]
        joins = (hm.source, hm.target) == (cols[i].x, cols[i + 1].x)
        items.append(CheckItem(
            f"h_{i + 1} intertwines", joins and hm.is_intertwiner(),
            "" if joins else "it does not run between the columns' X slots"))
        if not joins:
            continue
        mid = block_diag(hm.mat, lc.m_chain.inclusions[i].mat)
        top_left = cols[i + 1].column_map() @ hm.mat
        top_right = mid @ cols[i].column_map()
        items.append(CheckItem(f"square {i + 1}: columns commute over h",
                               top_left == top_right))
        bot_left = lc.n_chain.inclusions[i].mat @ cols[i].q.mat
        bot_right = cols[i + 1].q.mat @ mid
        items.append(CheckItem(f"square {i + 1}: quotients commute over j",
                               bot_left == bot_right))
    return Report(tuple(items))


def make_monic(lc: LadderCertificate) -> LadderCertificate:
    """Replace columns until every horizontal map in the top chain is
    injective, working down from the largest offending index.

    Column r is restricted to the image of the chain-complex map into
    column r+1; exactness of the new column follows from the dimension
    count dim(im h_r (+) M_r) = dim im h_r + dim N_r.  The X-row
    dimensions weakly decrease.  The output verifies or the call fails.
    """
    cols, h = list(lc.columns), list(lc.h)
    # Replacing column r leaves h[r] injective and changes only h[r - 1]
    # below it, so one downward pass meets every offending index.
    for r in reversed(range(lc.length - 1)):
        if h[r].mat.is_injective():
            continue
        im_rep, im_inc = sub_representation(cols[r + 1].x, image(h[r].mat))
        proj = im_inc.factor(h[r].mat)
        cols[r] = cols[r + 1].restrict(im_inc, lc.m_chain.inclusions[r],
                                       lc.n_chain.inclusions[r])
        h[r] = im_inc
        if r > 0:
            h[r - 1] = ModuleMap(h[r - 1].source, im_rep, proj @ h[r - 1].mat)

    out = LadderCertificate(lc.m_chain, lc.n_chain, tuple(cols), tuple(h))
    report = verify_ladder(out)
    if not report.ok:
        raise VerificationFailed("monicized ladder failed verification",
                                 report)
    return out


@dataclass(frozen=True)
class DeformationFamily:
    """The one-parameter family attached to a monic ladder.

    ``basis`` spans a complement V of the image of the last column map in
    X_d (+) M_d, adapted so that the i-th vector comes from X_i (+) M_i.
    Evaluation at a scalar t deforms the last column map by t times the
    identity of X_d and reads the algebra action on V; the result is
    triangular in this basis.
    """

    ladder: LadderCertificate
    basis: Matrix

    @property
    def ambient(self) -> Representation:
        return self.ladder.columns[-1].middle


def build_family(lc: LadderCertificate,
                 constraint: Optional[tuple[int, ...]] = None) -> DeformationFamily:
    """Choose the adapted complement basis b_1, .., b_d with
    b_i in X_i (+) M_i, greedily extending modulo the image of the last
    column map.

    Under a composition-vector constraint each b_i must additionally be
    fixed by the matching idempotent.  Raises NoAdaptedBasis with the
    failing index when the greedy step runs out of candidates; all h maps
    must already be injective (run make_monic first).
    """
    d = lc.length
    if not all(hm.mat.is_injective() for hm in lc.h):
        raise DimensionMismatch(
            "deformation family needs injective row maps; run make_monic")
    ambient = lc.columns[-1].middle
    fld = ambient.field
    if constraint is not None and len(constraint) != d:
        raise DimensionMismatch("constraint length differs from ladder length")
    # Embeddings of X_i (+) M_i into X_d (+) M_d along the monic rows.
    embs = chain_embeddings(
        [block_diag(hm.mat, inc.mat)
         for hm, inc in zip(lc.h, lc.m_chain.inclusions)],
        Matrix.identity(fld, ambient.dim))
    w = image(lc.columns[-1].column_map())
    tracker = EchelonTracker(fld)
    for col in w.basis.transpose().entries:
        tracker.add(col)
    chosen = []
    for i in range(d):
        candidates = image(embs[i])
        if constraint is not None:
            idem = ambient.mats[
                ambient.algebra.idempotent_indices[constraint[i]]]
            fixed = kernel(idem - Matrix.identity(fld, ambient.dim))
            candidates = candidates.intersect(fixed)
        pick = next((col for col in candidates.basis.transpose().entries
                     if tracker.add(col)), None)
        if pick is None:
            raise NoAdaptedBasis(
                f"no adapted basis vector at position {i + 1}", index=i + 1)
        chosen.append(pick)
    basis = Matrix(fld, d, ambient.dim, chosen).transpose()
    return DeformationFamily(lc, basis)


def evaluate_family(fam: DeformationFamily, t) -> TriangularRep:
    """The member of the family at parameter t.

    Forms phi_t = (f_d + t . id; g_d), requires im phi_t to complement the
    chosen basis span (else BadParameter), and reads the algebra action on
    the basis by projecting along im phi_t.  The result is asserted
    triangular and relation-satisfying; failures of those assertions are
    bug signals, not inputs.
    """
    top = fam.ladder.columns[-1]
    d = fam.ladder.length
    ambient = fam.ambient
    fld = ambient.field
    t = fld.coerce(t)
    xd = top.x
    phi = vstack(top.f.mat + Matrix.identity(fld, xd.dim).scale(t), top.g.mat)
    if not phi.is_injective():
        raise BadParameter(f"phi_t is not injective at t = {fld.fmt(t)}")
    read = read_on_complement(ambient, phi, fam.basis)
    if read is None:
        raise BadParameter(
            f"im phi_t does not complement the basis span at t = {fld.fmt(t)}")
    member = TriangularRep(Representation(ambient.algebra, fld, d, read[1]))
    report = validate(member.rep)
    if not report.ok:
        raise InternalInvariantViolation(
            f"family member violates the algebra relations: {report.failures()}")
    return member


@cache
def upper_triangular_algebra(base: AlgebraPresentation, d: int) -> AlgebraPresentation:
    """Presentation of the d x d upper-triangular matrix algebra over the
    base algebra.

    Generators: one scalar-diagonal lift L_<g> per base generator, the
    diagonal matrix units E<i>_<i>, and the superdiagonal units E<i>_<i+1>.
    A presentation is frozen, so each (base, d) is built once and shared:
    ``psi_embed`` reads it on every call.
    """
    lifts = [f"L_{g}" for g in base.generators]
    diag = [f"E{i}_{i}" for i in range(1, d + 1)]
    arrows = [f"E{i}_{i + 1}" for i in range(1, d)]
    gens = lifts + diag + arrows
    idx = {g: i for i, g in enumerate(gens)}
    nl = len(lifts)

    relations = list(base.relations)
    # diagonal units absorb the superdiagonal ones
    for i in range(1, d):
        a = idx[f"E{i}_{i + 1}"]
        relations.append(((1, (idx[f"E{i}_{i}"], a)), (-1, (a,))))
        relations.append(((1, (a, idx[f"E{i + 1}_{i + 1}"])), (-1, (a,))))
        for j in range(1, d + 1):
            if j != i:
                relations.append(((1, (idx[f"E{j}_{j}"], a)),))
            if j != i + 1:
                relations.append(((1, (a, idx[f"E{j}_{j}"])),))
    for i in range(1, d):
        for j in range(1, d):
            if j != i + 1:
                relations.append(((1, (idx[f"E{i}_{i + 1}"], idx[f"E{j}_{j + 1}"])),))
    # scalar-diagonal lifts are central for the unit pattern
    for li in range(nl):
        for i in range(1, d + 1):
            e = idx[f"E{i}_{i}"]
            relations.append(((1, (li, e)), (-1, (e, li))))
        for i in range(1, d):
            a = idx[f"E{i}_{i + 1}"]
            relations.append(((1, (li, a)), (-1, (a, li))))
    # the lifted unit equals the sum of the new diagonal units
    if base.unit_generator is None:
        unit_terms = [(1, (idx[f"L_{g}"],)) for g in base.idempotents]
    else:
        unit_terms = [(1, (idx[f"L_{base.unit_generator}"],))]
    for i in range(1, d + 1):
        unit_terms.append((-1, (idx[f"E{i}_{i}"],)))
    relations.append(tuple(unit_terms))

    radical = [f"L_{g}" for g in base.radical_generators] + arrows
    return AlgebraPresentation(
        name=f"U_{d}({base.name})",
        generators=tuple(gens),
        idempotents=tuple(diag),
        radical_generators=tuple(radical),
        relations=tuple(relations))


def psi_embed(tri: TriangularRep) -> Representation:
    """Embed a triangular representation as a d(d+1)/2-dimensional module
    over the upper-triangular matrix algebra.

    The carrier space is the sum of the stages M_1, .., M_d of
    ``tri.chain()``, stage i at offset i(i-1)/2.  The scalar-diagonal lift
    of a base generator acts block-diagonally through the stages; the unit
    E_{i,i} projects onto the (d+1-i)-th stage; E_{i,i+1} is the chain
    inclusion M_{d-i} -> M_{d+1-i} placed between those stages.  With this
    placement the images satisfy all matrix-unit identities and commute
    with the lifts, which the stage truncation property makes exact.
    Raises DimensionMismatch when d = 0, which has no stages.
    """
    rep = tri.rep
    d = rep.dim
    if d == 0:
        raise DimensionMismatch("psi needs a representation of positive dimension")
    fld = rep.field
    chain = tri.chain()
    a = d * (d + 1) // 2

    def place(*blocks) -> Matrix:
        """The a x a matrix holding each (mat, i, j) on the rows of stage i
        and the columns of stage j, and zero elsewhere; no two blocks
        share a stage's rows."""
        out = [((), ())] * a
        for mat, i, j in blocks:
            r0, c0 = i * (i - 1) // 2, j * (j - 1) // 2
            for k, (cols, vals) in enumerate(mat.entries, r0):
                out[k] = tuple([c0 + c for c in cols]), vals
        return Matrix(fld, a, a, out)

    stages = list(enumerate(chain.stages, 1))
    mats = [place(*[(stage.mats[g], i, i) for i, stage in stages])
            for g in range(len(rep.mats))]
    mats += [place((Matrix.identity(fld, i), i, i)) for i in range(d, 0, -1)]
    mats += [place((chain.inclusions[i - 1].mat, i + 1, i))
             for i in range(d - 1, 0, -1)]
    return Representation(upper_triangular_algebra(rep.algebra, d), fld, a,
                          tuple(mats))


def orbit_dim_ud(tri: TriangularRep) -> int:
    """Dimension of the upper-triangular conjugation orbit: dim U_d minus
    the dimension of the triangular self-intertwiner space.  The system of
    that space has the d(d+1)/2 entries of U_d as its unknowns, so this is
    its rank, read without solving it.  The system has no rows for a
    generator that acts as the identity, such as the unit of k[X]/(X^n)."""
    return intertwiner_system(tri.rep, tri.rep,
                              upper_triangular_support(tri, tri)).rank()
