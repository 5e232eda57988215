"""Composition series, triangular representations, and their conversions.

A triangular representation encodes a composition series through its
coordinate flags: the span of the first i unit vectors is a submodule for
every i, and conjugation by invertible upper-triangular matrices is
exactly isomorphism of composition series.  The extractors here are
deterministic (socle-based, least idempotent index first), so every
derived basis is reproducible.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import (DimensionMismatch, FieldTooSmall,
                     InternalInvariantViolation, NotSubmodule,
                     SimpleNotOneDimensional, TriangularityViolated,
                     VectorMismatch, VerificationFailed)
from .algebras import (ModuleMap, Representation, Submodule, conjugate,
                       intertwiner_system, quotient_by_subspace,
                       sub_representation, unflatten)
from .linalg import (ENUMERATION_LIMIT, Matrix, Subspace, first_combination,
                     hstack, image, kernel, rref, vstack)


def socle(rep: Representation) -> Submodule:
    """Common kernel of the radical generators' action: the kernel of
    their matrices stacked, from one elimination.

    For the declared-radical presentations in scope this is the socle; the
    result is verified to be a submodule and the call fails otherwise.
    """
    sub = Submodule(rep, kernel(vstack(
        Matrix.zeros(rep.field, 0, rep.dim),
        *[rep.mats[idx] for idx in rep.algebra.radical_indices])))
    sub.require_invariant()
    return sub


@dataclass(frozen=True)
class CompositionSeries:
    """An ascending flag of submodules with one-dimensional steps.

    ``factors[i]`` indexes into the algebra's declared idempotent list and
    identifies the simple quotient at step i+1.
    """

    ambient: Representation
    flags: tuple[Submodule, ...]
    factors: tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.flags)

    def factor_names(self) -> tuple[str, ...]:
        idem = self.ambient.algebra.idempotents
        return tuple(idem[i] for i in self.factors)


def composition_series(rep: Representation) -> CompositionSeries:
    """Deterministic socle-based extraction of a composition series.

    At each step: take the socle of the current quotient, pick the least
    declared idempotent acting nonzero on it, adjoin the first canonical
    basis vector of that eigenpiece to the flag, and recurse.
    """
    alg = rep.algebra
    if not alg.idempotents:
        raise SimpleNotOneDimensional(
            "composition factors need a declared idempotent set")
    fld = rep.field
    flag = Subspace.zero(fld, rep.dim)
    flags: list[Submodule] = []
    factors: list[int] = []
    while flag.dim < rep.dim:
        quot, proj, section = quotient_by_subspace(rep, flag)
        soc = socle(quot)
        step = None
        for pos, idx in enumerate(alg.idempotent_indices):
            piece = image(quot.mats[idx] @ soc.space.basis)
            if piece.dim > 0:
                step = (pos, piece.basis.column_matrix(0))
                break
        if step is None:
            raise SimpleNotOneDimensional(
                "no declared idempotent acts on the socle of the quotient")
        pos, vec = step
        lifted = section @ vec
        flag = flag.sum(Subspace.from_columns(lifted))
        sub = Submodule(rep, flag)
        if not sub.is_invariant():
            raise SimpleNotOneDimensional(
                "chosen socle vector does not span a submodule step")
        flags.append(sub)
        factors.append(pos)
    return CompositionSeries(rep, tuple(flags), tuple(factors))


@dataclass(frozen=True)
class ModuleChain:
    """An ascending chain of representations joined by injective maps.

    This is the shape of a composition series presented abstractly: stage
    dimensions are 1..d and each inclusion is a monic intertwiner.
    """

    stages: tuple[Representation, ...]
    inclusions: tuple[ModuleMap, ...]

    def __post_init__(self):
        if len(self.inclusions) != len(self.stages) - 1:
            raise DimensionMismatch("a chain of d stages needs d-1 inclusions")

    @property
    def length(self) -> int:
        return len(self.stages)

    def validate(self) -> bool:
        for i, stage in enumerate(self.stages):
            if stage.dim != i + 1:
                return False
        for i, inc in enumerate(self.inclusions):
            if inc.source != self.stages[i] or inc.target != self.stages[i + 1]:
                return False
            if not inc.is_intertwiner() or not inc.mat.is_injective():
                return False
        return True


def chain_embeddings(maps: Sequence[Matrix], top: Matrix) -> list[Matrix]:
    """Embeddings of every stage of a chain with stage maps ``maps[i]``
    (stage i -> stage i+1) along the embedding ``top`` of its last stage:
    stage i embeds as top . maps[-1] ... maps[i]."""
    embs = [top]
    for mat in reversed(maps):
        embs.append(embs[-1] @ mat)
    embs.reverse()
    return embs


def series_chain(series: CompositionSeries) -> ModuleChain:
    """Materialize a flag-based series as an abstract chain."""
    stages = []
    incs = []
    prev = None
    for sub in series.flags:
        stage, inc = sub_representation(series.ambient, sub.space)
        if prev is not None:
            incs.append(ModuleMap(prev[0], stage, inc.factor(prev[1].mat)))
        stages.append(stage)
        prev = (stage, inc)
    return ModuleChain(tuple(stages), tuple(incs))


@dataclass(frozen=True)
class TriangularRep:
    """A representation whose generator matrices are all upper triangular."""

    rep: Representation

    def __post_init__(self):
        bad = [name for name, m in zip(self.rep.algebra.generators, self.rep.mats)
               if not m.is_upper_triangular()]
        if bad:
            raise TriangularityViolated(
                f"generators {bad} are not upper triangular")

    @property
    def dim(self) -> int:
        return self.rep.dim

    def stage(self, i: int) -> Representation:
        """The representation carried by the first i coordinates."""
        return self.rep.block(0, i)

    def chain(self) -> ModuleChain:
        """The stages 1..d, each included in the next as its first
        coordinates."""
        stages = tuple(self.stage(i) for i in range(1, self.dim + 1))
        ident = Matrix.identity(self.rep.field, self.dim)
        return ModuleChain(stages, tuple(
            ModuleMap(a, b, ident.submatrix(range(b.dim), range(a.dim)))
            for a, b in zip(stages, stages[1:])))


def flag_basis(rep: Representation, flags: list[Subspace]) -> Matrix:
    """The basis adapted to an ascending flag of subspaces: the columns
    added at step i extend the previous flag inside flag i via the
    deterministic complement."""
    prevs = [Subspace.zero(rep.field, rep.dim), *flags]
    return hstack(prevs[0].basis, *[prev.complement_basis(within=flag)
                                     for prev, flag in zip(prevs, flags)])


def triangularize_flags(rep: Representation,
                        flags: list[Subspace]) -> TriangularRep:
    """Change of basis adapted to an ascending flag of invariant subspaces.

    The output representation is triangular in the ``flag_basis`` and
    conjugate to the input.
    """
    return TriangularRep(conjugate(rep, flag_basis(rep, flags)))


def series_to_triangular(series: CompositionSeries) -> TriangularRep:
    """Rewrite the ambient module in a basis adapted to the series."""
    return triangularize_flags(series.ambient,
                               [f.space for f in series.flags])


def chain_to_triangular(chain: ModuleChain) -> TriangularRep:
    """Realize an abstract chain as a triangular representation of its top
    stage, using the composed inclusion images as flags.  Raises
    NotSubmodule unless the chain is a composition-series chain."""
    if not chain.validate():
        raise NotSubmodule("chain is not a composition-series chain")
    top = Matrix.identity(chain.stages[-1].field, chain.length)
    embs = chain_embeddings([inc.mat for inc in chain.inclusions], top)
    return triangularize_flags(
        chain.stages[-1], [Subspace.from_columns(e) for e in embs])


def triangular_to_series(tri: TriangularRep) -> CompositionSeries:
    """The coordinate flags of a triangular representation, with factors
    read off the idempotents' diagonals."""
    rep = tri.rep
    alg = rep.algebra
    fld = rep.field
    if not alg.idempotents:
        raise SimpleNotOneDimensional(
            "composition factors need a declared idempotent set")
    # Every coordinate flag is invariant, since TriangularRep holds only
    # upper-triangular generators; its canonical basis is the identity's
    # first columns.
    ident = Matrix.identity(fld, rep.dim)
    flags = [Submodule(rep, Subspace(ident.submatrix(range(rep.dim), range(i))))
             for i in range(1, rep.dim + 1)]
    factors = []
    for i in range(rep.dim):
        hits = [pos for pos, idx in enumerate(alg.idempotent_indices)
                if not fld.is_zero(rep.mats[idx].entry(i, i))]
        if len(hits) != 1:
            raise SimpleNotOneDimensional(
                f"diagonal position {i} is not hit by exactly one idempotent")
        factors.append(hits[0])
    return CompositionSeries(rep, tuple(flags), tuple(factors))


def composition_vector(series: CompositionSeries) -> tuple[int, ...]:
    """The sequence of idempotent indices naming the simple factors."""
    return series.factors


def tc_idempotent_matrices(algebra, fld, cvec: tuple[int, ...]) -> list[Matrix]:
    """The prescribed diagonal 0/1 idempotent images for a composition
    vector: entry (j, j) of the i-th matrix is 1 exactly when c_j = e_i."""
    d = len(cvec)
    return [Matrix(fld, d, d, [
        ((j,), (fld.one,)) if c == i else ((), ()) for j, c in enumerate(cvec)])
        for i in range(len(algebra.idempotents))]


def tc_membership(tri: TriangularRep, cvec: tuple[int, ...]) -> bool:
    """Triangularity plus prescribed idempotent images."""
    rep = tri.rep
    if len(cvec) != rep.dim:
        raise DimensionMismatch("composition vector length differs from dim")
    wanted = tc_idempotent_matrices(rep.algebra, rep.field, cvec)
    return all(rep.mats[idx] == w
               for idx, w in zip(rep.algebra.idempotent_indices, wanted))


def simultaneous_triangularize(m: Representation, n: Representation,
                               sm: CompositionSeries, sn: CompositionSeries
                               ) -> tuple[TriangularRep, TriangularRep]:
    """Common triangular form for two modules with matching composition
    vectors: both outputs have the same (prescribed) idempotent images.

    Column i of the series' ``flag_basis`` is replaced by e.v for the
    idempotent e naming the factor of step i; e.v and v agree modulo the
    previous flag, so the result is again adapted.  Raises NotSubmodule
    when a series belongs to another module, and VectorMismatch when the
    composition vectors differ, in which case no common triangularization
    on these series exists.
    """
    if sm.ambient != m or sn.ambient != n:
        raise NotSubmodule("a series does not belong to its module")
    if composition_vector(sm) != composition_vector(sn):
        raise VectorMismatch(
            f"composition vectors differ: {sm.factor_names()} vs {sn.factor_names()}")

    def adapted(rep: Representation, series: CompositionSeries) -> Matrix:
        raw = flag_basis(rep, [sub.space for sub in series.flags])
        idem = rep.algebra.idempotent_indices
        basis = hstack(Matrix.zeros(rep.field, rep.dim, 0), *[
            rep.mats[idem[pos]] @ raw.column_matrix(i)
            for i, pos in enumerate(series.factors)])
        if not basis.is_injective():
            raise InternalInvariantViolation(
                "idempotent image fell into the previous flag")
        return basis

    tm = TriangularRep(conjugate(m, adapted(m, sm)))
    tn = TriangularRep(conjugate(n, adapted(n, sn)))
    for idx in m.algebra.idempotent_indices:
        if tm.rep.mats[idx] != tn.rep.mats[idx]:
            raise VerificationFailed(
                "outputs disagree on an idempotent image despite matching vectors")
    return tm, tn


def upper_triangular_support(a: TriangularRep, b: TriangularRep) -> list[int]:
    """The row-major indices ``r * d + c`` (c >= r) of the entries of an
    upper-triangular d x d intertwiner a -> b, the unknowns of the
    triangular Hom system (``intertwiner_system``)."""
    d = a.dim
    if b.dim != d:
        raise DimensionMismatch("triangular intertwiners need equal dimension")
    return [r * d + c for r in range(d) for c in range(r, d)]


def upper_triangular_hom_basis(a: TriangularRep, b: TriangularRep) -> list[Matrix]:
    """Canonical basis of the space of upper-triangular intertwiners: the
    kernel of the triangular system (``intertwiner_system``), unflattened."""
    support = upper_triangular_support(a, b)
    return [unflatten(a.rep.field, b.dim, a.dim, vec, support) for vec in
            kernel(intertwiner_system(a.rep, b.rep, support)).basis.transpose().entries]


def series_isomorphic(a: TriangularRep, b: TriangularRep) -> Optional[ModuleMap]:
    """Decide whether two triangular representations are conjugate under
    invertible upper-triangular matrices; returns a verified witness or
    None.

    An upper-triangular matrix is invertible iff its diagonal is nonzero,
    so existence reduces to the d diagonal coordinate functionals on the
    intertwiner space: if any vanishes identically the answer is no.  They
    are the rows of the kernel basis of the triangular system
    (``intertwiner_system``) at the unknowns (j, j), read with no map
    unflattened.  Otherwise the s <= d kernel vectors at the functionals'
    pivot columns reach every diagonal; only they are unflattened into
    maps of the canonical basis, and a witness among their combinations is
    found by a deterministic Vandermonde scan (exhaustively over tiny
    fields).  Raises FieldTooSmall when neither route is feasible.
    """
    support = upper_triangular_support(a, b)
    homs = kernel(intertwiner_system(a.rep, b.rep, support)).basis
    d = a.dim
    fld = a.rep.field
    if d == 0:
        return ModuleMap(a.rep, b.rep, Matrix.zeros(fld, 0, 0))
    functionals = homs.submatrix([bisect_left(support, j * (d + 1)) for j in range(d)],
                                 range(homs.cols))
    if not all(cols for cols, _ in functionals.entries):
        return None
    vectors = homs.transpose().entries
    basis = [unflatten(fld, d, d, vectors[c], support) for c in rref(functionals)[2]]
    k = len(basis)

    def invertible(acc: Matrix) -> bool:
        return not any(fld.is_zero(acc.entry(j, j)) for j in range(d))

    def moment_curve(t: int) -> list:
        coeffs, tval = [fld.one], fld.coerce(t)
        for _ in range(k - 1):
            coeffs.append(fld.mul(coeffs[-1], tval))
        return coeffs

    # The product of the d diagonal functionals evaluated on the moment
    # curve (1, t, .., t^{k-1}) is a nonzero polynomial of degree at most
    # d*(k-1), so scanning d*(k-1)+1 distinct scalars must succeed.
    degree = d * (k - 1)
    if not fld.finite or fld.p > degree:
        acc = first_combination(basis, invertible,
                                map(moment_curve, range(degree + 1)))
        if acc is None:
            raise InternalInvariantViolation("Vandermonde scan failed unexpectedly")
    elif fld.p ** k <= ENUMERATION_LIMIT:
        acc = first_combination(basis, invertible)
        if acc is None:
            return None
    else:
        raise FieldTooSmall(
            f"field with {fld.p} elements is too small for dimension {d} and "
            f"exhaustive search over {fld.p}^{k} combinations is disabled")
    out = ModuleMap(a.rep, b.rep, acc)
    if not out.is_intertwiner() or not acc.is_upper_triangular():
        raise InternalInvariantViolation("witness fails its own checks")
    return out
