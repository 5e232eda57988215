"""Algebra presentations, representations, module maps and the standard
module constructions (kernel, image, cokernel, direct sum, submodule,
quotient), plus the intertwiner solvers and isomorphism testing.

A representation of dimension d assigns one d x d matrix to every declared
generator; relations are checked by evaluating them on those matrices,
never symbolically.  Module elements are column vectors and a word
``(i, j)`` in a relation acts as ``mats[i] @ mats[j]``.

One builder, ``intertwiner_equations``, writes the equations
n_g (H b_j) = H (m_g b_j) of an intertwiner H on a basis b of M.  Every
full Hom(M, N) is solved on a spin basis (``hom_spin``): H is fixed by
its values on the roots from which the generators spin b.  The coordinate
idempotents, generators that are diagonal 0/1 matrices on both sides such
as the vertex idempotents of a quiver module or the E_ii of a
triangular-algebra module, are held as a support rather than spun
(``coordinate_classes``) whenever the other generators map their classes
consistently: the image of a root then has unknowns only at the
coordinates of N in the root's class, so the system has the sum of the
roots' class sizes as unknowns, at most t * dim N for t roots, and the
idempotents write no equations.  The spin eliminates its basis B once:
its tracker rows carry coordinates in B, so each image that lies in the
span has its coordinates read off its own echelon row.  ``hom_dim`` spins
M and needs only the rank, with no back-substitution.  ``hom_basis``
spins the transposed pair (N^T, M^T), whose unknowns are entries of rows
of H, or M when every generator of N is lower triangular, with its
unknowns sorted row-major; either way the canonical basis of the kernel
is the reduced echelon form of Hom at its unknowns, and each kernel
vector lifts to one basis map through B^-T, whose row r the same tracker
reads as the coordinates of e_r in B, with no further elimination.
``intertwiner_system`` takes the unit vectors, one unknown per entry of
H, for intertwiners held to a support: ``series`` unflattens its kernel
into the triangular Hom basis, or reads the kernel's flattened vectors
and unflattens only the maps it combines, ``ladders.orbit_dim_ud`` needs
only its rank, and with full support its rows hold the certificate lift
of ``degeneration`` to Hom.  Both bases write no equations for a
generator that is the identity on both sides (``acting_generators``),
such as the unit of k[X]/(X^n): each of them would read H v = H v.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Optional, Sequence

from .errors import (AlgebraMismatch, DimensionMismatch, FieldMismatch,
                     InternalInvariantViolation, NotSubmodule, Undecided)
from .linalg import (ENUMERATION_LIMIT, EchelonTracker, Matrix, Subspace,
                     block_diag, first_combination, hstack, image, inverse,
                     kernel, row_from_dict, solve_right, vstack)

# A relation is a sum of terms; each term is (integer coefficient, word),
# a word being a nonempty tuple of generator indices.  Integer coefficients
# keep presentations field-agnostic.
Relation = tuple[tuple[int, tuple[int, ...]], ...]


@dataclass(frozen=True)
class AlgebraPresentation:
    """A finite presentation of the ambient algebra.

    ``idempotents`` is the declared complete orthogonal set of primitive
    idempotents E, ``radical_generators`` the subset spanning the radical
    multiplicatively.  ``unit_generator`` is None when the unit is the sum
    of the declared idempotents, otherwise the name of the generator that
    must act as the identity.
    """

    name: str
    generators: tuple[str, ...]
    idempotents: tuple[str, ...]
    radical_generators: tuple[str, ...]
    relations: tuple[Relation, ...]
    unit_generator: Optional[str] = None

    def __post_init__(self):
        seen = set(self.generators)
        if len(seen) != len(self.generators):
            raise ValueError("duplicate generator names")
        for name in self.idempotents + self.radical_generators:
            if name not in seen:
                raise ValueError(f"unknown generator {name!r}")
        if set(self.idempotents) & set(self.radical_generators):
            raise ValueError("idempotents and radical generators must be disjoint")
        if self.unit_generator is not None and self.unit_generator not in seen:
            raise ValueError(f"unknown unit generator {self.unit_generator!r}")
        for rel in self.relations:
            for coeff, word in rel:
                if coeff == 0:
                    raise ValueError("zero coefficient in relation")
                if not word:
                    raise ValueError("empty word in relation")
                if any(not (0 <= g < len(self.generators)) for g in word):
                    raise ValueError("relation references unknown generator")

    def index(self, name: str) -> int:
        return self.generators.index(name)

    @property
    def idempotent_indices(self) -> tuple[int, ...]:
        return tuple(self.index(n) for n in self.idempotents)

    @property
    def radical_indices(self) -> tuple[int, ...]:
        return tuple(self.index(n) for n in self.radical_generators)


@dataclass(frozen=True)
class Representation:
    """A point of the representation space: one matrix per generator."""

    algebra: AlgebraPresentation
    field: object
    dim: int
    mats: tuple[Matrix, ...]

    def __post_init__(self):
        if len(self.mats) != len(self.algebra.generators):
            raise DimensionMismatch("one matrix per generator required")
        for m in self.mats:
            if m.rows != self.dim or m.cols != self.dim:
                raise DimensionMismatch("generator matrices must be dim x dim")
            if m.field != self.field:
                raise FieldMismatch("matrix field differs from representation field")

    def mat(self, gen_name: str) -> Matrix:
        return self.mats[self.algebra.index(gen_name)]

    def block(self, lo: int, hi: int) -> "Representation":
        """The representation carried by every generator's diagonal block
        on the coordinates lo..hi-1."""
        mats = tuple(m.submatrix(range(lo, hi), range(lo, hi)) for m in self.mats)
        return Representation(self.algebra, self.field, hi - lo, mats)


def zero_representation(algebra: AlgebraPresentation, fld) -> Representation:
    mats = tuple(Matrix.zeros(fld, 0, 0) for _ in algebra.generators)
    return Representation(algebra, fld, 0, mats)


@dataclass(frozen=True)
class CheckItem:
    name: str
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class Report:
    items: tuple[CheckItem, ...]

    @property
    def ok(self) -> bool:
        return all(it.ok for it in self.items)

    def failures(self) -> list[CheckItem]:
        return [it for it in self.items if not it.ok]

    def as_dict(self) -> dict:
        return {"ok": self.ok,
                "items": [{"name": it.name, "ok": it.ok, "detail": it.detail}
                          for it in self.items]}


def evaluate_word(rep: Representation, word: Sequence[int]) -> Matrix:
    out = rep.mats[word[0]]
    for g in word[1:]:
        out = out @ rep.mats[g]
    return out


def evaluate_relation(rep: Representation, rel: Relation) -> Matrix:
    acc = Matrix.zeros(rep.field, rep.dim, rep.dim)
    for coeff, word in rel:
        acc = acc + evaluate_word(rep, word).scale(rep.field.coerce(Fraction(coeff)))
    return acc


def _relation_str(alg: AlgebraPresentation, rel: Relation) -> str:
    terms = []
    for coeff, word in rel:
        w = "*".join(alg.generators[g] for g in word)
        terms.append(f"{coeff}*{w}" if coeff != 1 else w)
    return " + ".join(terms)


def validate(rep: Representation) -> Report:
    """Check membership in the representation space: every relation
    evaluates to zero, idempotent images behave, the unit acts as one."""
    alg = rep.algebra
    items = []
    for rel in alg.relations:
        value = evaluate_relation(rep, rel)
        items.append(CheckItem(
            f"relation {_relation_str(alg, rel)} = 0", value.is_zero(),
            "" if value.is_zero() else f"evaluates to {value!r}"))
    idem = [(n, rep.mat(n)) for n in alg.idempotents]
    for n, m in idem:
        ok = (m @ m) == m
        items.append(CheckItem(f"idempotent {n}^2 = {n}", ok))
    for i, (n1, m1) in enumerate(idem):
        for n2, m2 in idem[i + 1:]:
            ok = (m1 @ m2).is_zero() and (m2 @ m1).is_zero()
            items.append(CheckItem(f"orthogonality {n1}*{n2} = {n2}*{n1} = 0", ok))
    if alg.unit_generator is None:
        if idem:
            total = idem[0][1]
            for _, m in idem[1:]:
                total = total + m
            ok = total == Matrix.identity(rep.field, rep.dim)
            items.append(CheckItem("idempotents sum to the identity", ok))
    else:
        ok = rep.mat(alg.unit_generator) == Matrix.identity(rep.field, rep.dim)
        items.append(CheckItem(f"unit generator {alg.unit_generator} acts as identity", ok))
    return Report(tuple(items))


@dataclass(frozen=True)
class ModuleMap:
    """A linear map intertwining two representations of the same algebra."""

    source: Representation
    target: Representation
    mat: Matrix

    def __post_init__(self):
        if self.mat.rows != self.target.dim or self.mat.cols != self.source.dim:
            raise DimensionMismatch("module map matrix must be target.dim x source.dim")

    def is_intertwiner(self) -> bool:
        return all((self.mat @ a) == (b @ self.mat)
                   for a, b in zip(self.source.mats, self.target.mats))

    def factor(self, mat: Matrix) -> Matrix:
        """The X with ``self.mat @ X = mat``, for a monic map: ``mat``
        factored through this inclusion.  An inclusion between canonical
        bases is itself canonical, and ``solve_right`` then reads ``mat``
        at its pivot rows with no elimination.  Raises
        InternalInvariantViolation when ``mat`` does not factor."""
        x = solve_right(self.mat, mat)
        if x is None:
            raise InternalInvariantViolation(
                "map fails to factor through the inclusion")
        return x


@dataclass(frozen=True)
class Submodule:
    """A generator-invariant subspace of a representation's carrier space."""

    ambient: Representation
    space: Subspace

    def __post_init__(self):
        if self.space.ambient_dim != self.ambient.dim:
            raise DimensionMismatch("subspace does not live in the module")

    @property
    def dim(self) -> int:
        return self.space.dim

    def is_invariant(self) -> bool:
        return all(self.space.coordinates(m @ self.space.basis) is not None
                   for m in self.ambient.mats)

    def require_invariant(self):
        if not self.is_invariant():
            raise NotSubmodule("subspace is not invariant under the algebra action")


def _check_compatible(a: Representation, b: Representation):
    if a.algebra != b.algebra:
        raise AlgebraMismatch("representations over different algebras")
    if a.field != b.field:
        raise FieldMismatch("representations over different fields")


def direct_sum(a: Representation, b: Representation) -> Representation:
    """The block-diagonal sum of two representations; the ``a`` block
    comes first."""
    _check_compatible(a, b)
    mats = tuple(block_diag(ma, mb) for ma, mb in zip(a.mats, b.mats))
    return Representation(a.algebra, a.field, a.dim + b.dim, mats)


def acting_generators(m: Representation, n: Representation) -> list[int]:
    """The indices of the generators that are not the identity on both m
    and n.  A generator that is the identity on both sides, such as the
    unit of k[X]/(X^n), makes every intertwiner equation n_g (H v) = H (m_g v)
    read H v = H v, so the intertwiner solvers write no rows for it."""
    _check_compatible(m, n)
    one_m, one_n = Matrix.identity(m.field, m.dim), Matrix.identity(n.field, n.dim)
    return [g for g, (a, b) in enumerate(zip(m.mats, n.mats))
            if a != one_m or b != one_n]


def intertwiner_equations(fld, nvars: int, words: Sequence[Matrix],
                          places: Sequence[Sequence], pending) -> Matrix:
    """For a basis b of M and an unknown H: M -> N, the rows of
    n_g (H b_j) - sum_l c_l (H b_l) = 0 over ``nvars`` unknowns, one per
    coordinate of N and pending image m_g b_j; rows that come out
    identically zero are left out.

    H b_l is ``words[l]`` times the unknowns at ``places[l]``, where None
    holds an entry at zero.  Each pending ``(lead, j, c)`` carries the lead
    n_g W_j, already computed, and the coordinates c of m_g b_j in b as a
    stored row."""
    sub, neg, mul = fld.sub, fld.neg, fld.mul
    rows = []
    for lead, j, (ls, cs) in pending:
        place = places[j]
        acc = [{place[s]: v for s, v in zip(*row) if place[s] is not None}
               for row in lead.entries]
        for l, c in zip(ls, cs):
            place = places[l]
            for a, row in zip(acc, words[l].entries):
                for s, w in zip(*row):
                    k = place[s]
                    if k is not None:
                        cw = c if w == 1 else mul(c, w)
                        a[k] = sub(a[k], cw) if k in a else neg(cw)
        for a in acc:
            row = row_from_dict(a)
            if row[0]:
                rows.append(row)
    return Matrix(fld, len(rows), nvars, rows)


def unflatten(fld, rows: int, cols: int, vector: tuple,
              support: Optional[Sequence[int]] = None) -> Matrix:
    """The rows x cols matrix holding entry k of the stored row ``vector``
    at row-major index ``support[k]`` (default: every index in order) and
    zero elsewhere; ``support`` must increase."""
    flat, vals = vector
    if support is not None:
        flat = [support[k] for k in flat]
    out = []
    lo = 0
    for i in range(rows):
        start = i * cols
        hi = bisect_left(flat, start + cols, lo)
        out.append((tuple([k - start for k in flat[lo:hi]]), vals[lo:hi]))
        lo = hi
    return Matrix(fld, rows, cols, out)


def intertwiner_system(m: Representation, n: Representation,
                       support: Sequence[int]) -> Matrix:
    """The equations of the n.dim x m.dim intertwiners H: m -> n held to
    ``support``.  The unknowns are the entries H[r][c] at the increasing
    row-major indices ``r * m.dim + c`` listed in ``support``, in that
    order, and every other entry of H is held at zero.  The equations are
    ``intertwiner_equations`` on the unit vectors e_j of M, with column j
    of H as H e_j and the identity as every word, for the generators of
    ``acting_generators`` only: every row of a generator that is the
    identity on both sides would come out zero and be left out.  They are
    written with no elimination; with full support,
    ``range(n.dim * m.dim)``, their null space is exactly the flattened
    Hom(m, n)."""
    gens = acting_generators(m, n)
    fld, dm, dn = m.field, m.dim, n.dim
    unknown = [None] * (dn * dm)
    for k, flat in enumerate(support):
        unknown[flat] = k
    pending = [(n.mats[g], j, col) for g in gens
               for j, col in enumerate(m.mats[g].transpose().entries)]
    return intertwiner_equations(fld, len(support), [Matrix.identity(fld, dn)] * dm,
                                 [unknown[j::dm] for j in range(dm)], pending)


def coordinate_classes(m: Representation, n: Representation,
                       gens: Sequence[int]) -> tuple[list, list, list]:
    """The generators of ``gens`` that ``hom_spin`` spins, with the class
    of every coordinate of m and of n.

    A coordinate idempotent is a generator that is a diagonal 0/1 matrix
    on both m and n (the zero matrix included), and a coordinate's class
    is its 0/1 pattern across them, as a bit mask.  H commutes with them
    exactly when H[r][c] = 0 wherever N-row r and M-column c differ in
    class.  They are held as that support, and left out of the spin, when
    every other generator sends each class into one class by one class
    map on m and n alike; otherwise every generator is spun and every
    coordinate has class 0."""
    idem = [g for g in gens if all(
        not cols or (cols == (r,) and vals[0] == 1)
        for a in (m.mats[g], n.mats[g]) for r, (cols, vals) in enumerate(a.entries))]
    classes = []
    for rep in (m, n):
        cls = [0] * rep.dim
        for bit, g in enumerate(idem):
            for r, (cols, _) in enumerate(rep.mats[g].entries):
                if cols:
                    cls[r] |= 1 << bit
        classes.append(cls)
    rest = [g for g in gens if g not in idem]
    for g in rest:
        image = {}          # the class map of g: a class -> the class it lands in
        for a, cls in zip((m.mats[g], n.mats[g]), classes):
            for r, (cols, _) in enumerate(a.entries):
                for c in cols:
                    if image.setdefault(cls[c], cls[r]) != cls[r]:
                        return list(gens), [0] * m.dim, [0] * n.dim
    return rest, *classes


@dataclass(frozen=True)
class HomSpin:
    """The intertwiner equations of m -> n in the images of m's spin roots.

    The coordinate idempotents of ``coordinate_classes`` are held as a
    support: an unknown H[s][c] exists only where N-coordinate s and
    M-coordinate c lie in one class.  m is spun from greedy unit vectors
    e_0, e_1, .. under the other generators that are not the identity on
    both sides (``acting_generators``), into the spin basis b_0, b_1, ..
    of k^m.dim; each b_j lies in one class.  An intertwiner H is fixed by
    the images h_k = H e_i of the roots e_i, stacked in order as the
    unknowns: H b_j = W_j h_k for the root of b_j, with ``words[j]`` the
    word W_j in the n_g that spun b_j (the identity at a root) and
    ``places[j]`` the place of h_k: entry s is the unknown H[s][i], or
    None where s is of another class than i and H[s][i] is held at zero.
    ``roots`` lists, in order, each root's unit-vector index i with its
    place.  ``equations`` are ``intertwiner_equations`` on the spin basis
    with these words and places, for every image m_g b_j that did not
    become a basis vector; its column count is the number of unknowns,
    the sum over the roots of their class sizes in n.  ``tracker`` is the
    one elimination of the spin basis B: its rows carry coordinates in B
    (``EchelonTracker`` with width m.dim), those of e_r being row r of
    B^-T.  ``hom_basis`` builds it for the transposed pair (n^T, m^T)
    unless every generator of n is lower triangular.
    """

    words: tuple
    places: tuple
    roots: tuple
    tracker: EchelonTracker
    equations: Matrix


def hom_spin(m: Representation, n: Representation) -> HomSpin:
    """The spin system of Hom(m, n) (see ``HomSpin``).  It never uses the
    presentation's relations, so it serves any tuples of matrices.

    Vectors are stored rows, and m_g v is the row v times the transpose of
    m_g, taken once per generator.  The candidate for b_j enters the
    tracker tagged [v | e_(m.dim+j)]; one that is not kept lies in the
    span, and the tracker reads its coordinates off what is left of it.
    An image with no stored entry has empty coordinates and is not added;
    it yields equations n_g W_j h_k = 0 only when the lead n_g W_j has a
    stored entry.  Each word is a product taken once per generator path:
    the lead n_g W_j of an image is keyed by g and the path of b_j, so
    roots that spin along the same paths, as the roots of a Jordan-type
    module do along the powers of X, share their products."""
    gens, class_m, class_n = coordinate_classes(m, n, acting_generators(m, n))
    fld, dm, dn = m.field, m.dim, n.dim
    one, empty = fld.one, ((), ())
    acts = [(g, m.mats[g].transpose(), n.mats[g]) for g in gens]
    in_class = {}         # class -> the coordinates of n in it
    for s, c in enumerate(class_n):
        in_class.setdefault(c, []).append(s)
    leads = {(): Matrix.identity(fld, dn)}    # generator path -> its word in the n_g
    tracker = EchelonTracker(fld, dm)
    vectors, paths, places, roots = [], [], [], []
    pending = []          # (n_g W_j, j, coordinates of m_g b_j) for images in the span
    nvars = 0
    for i in range(dm):
        if len(vectors) == dm:
            break
        if not tracker.add(((i, dm + len(vectors)), (one, one))):
            continue
        j = len(vectors)
        place = [None] * dn
        for s in in_class.get(class_m[i], ()):
            place[s] = nvars
            nvars += 1
        vectors.append(((i,), (one,)))
        paths.append(())
        places.append(place)
        roots.append((i, place))
        while j < len(vectors):
            row = Matrix(fld, 1, dm, (vectors[j],))
            for g, mt, ng in acts:
                cols, vals = (row @ mt).entries[0]
                path = (g, *paths[j])
                if path not in leads:
                    leads[path] = ng @ leads[paths[j]] if paths[j] else ng
                if not cols:
                    if not leads[path].is_zero():
                        pending.append((leads[path], j, empty))
                elif tracker.add((cols + (dm + len(vectors),), vals + (one,))):
                    vectors.append((cols, vals))
                    paths.append(path)
                    places.append(places[j])
                else:
                    pending.append((leads[path], j, tracker.coordinates()))
            j += 1
    words = [leads[path] for path in paths]
    return HomSpin(tuple(words), tuple(places), tuple(roots), tracker,
                   intertwiner_equations(fld, nvars, words, places, pending))


def transposed(rep: Representation) -> Representation:
    """The tuple of the transposed generator matrices.  Its intertwiners
    into ``transposed(m)`` are the transposes H^T of those of Hom(m, rep);
    it need not satisfy the presentation's relations."""
    return Representation(rep.algebra, rep.field, rep.dim,
                          tuple(g.transpose() for g in rep.mats))


def hom_basis(m: Representation, n: Representation) -> list[ModuleMap]:
    """The canonical basis of the intertwiner space Hom(m, n): the rows of
    the reduced row echelon form of the row-major flattened maps, which is
    unique, so the output is deterministic.

    It is the kernel basis of a spin system (``hom_spin``) whose unknowns,
    entries of H, are sorted by their row-major (row, column), lifted with
    no further elimination.  Mostly the transposed pair (n^T, m^T) is
    spun: H^T is fixed on the greedy roots r_0 < r_1 < .. of the spin of
    n^T, so the unknowns are the entries of the rows r_k of H in the class
    of r_k, already in row-major order.  A row r that is not a root has
    e_r in the span of the spin of the roots before r, so row r of every H
    is a function of those rows: the leading row-major entry of every
    nonzero H lies in a root row, at an unknown since every other entry of
    that row is held at zero.  When every generator of n is lower
    triangular, every row would be a root (the spin of n^T keeps n.dim
    roots exactly then), so m and n are spun as in ``hom_dim``, and the
    unknowns, the entries H[r][root_k] in the class of root_k, are sorted
    by (r, root_k).  Here a column c that is not a root has H e_c a sum of
    words in the n_g, all lower triangular, times columns of H at roots
    before c, so in the first nonzero row of H the first nonzero entry
    lies in a root column.  Either way the unknowns hold every leading
    position in row-major order, so the kernel's canonical basis is the
    reduced echelon form read at them, and each kernel vector lifts to
    one basis map.

    The lift: let G be H^T when n^T was spun and H otherwise, B the spin
    basis and K the kernel basis.  The block W_j K[places[j]], with a zero
    row at each None of the place, holds G b_j for every kernel vector at
    once; stacked, row j * w + a holds entry a of G b_j, for w the length
    of each place.  Since G^T = B^-T (G B)^T, the Kronecker product of
    B^-T with the w x w identity turns each column into G^T flattened
    row-major: H itself when n^T was spun, its transpose otherwise.  Row
    r of B^-T holds the coordinates of e_r in B, which the spin tracker
    reads as for any vector of its span, and B is eliminated once."""
    fld, dm, dn = m.field, m.dim, n.dim
    direct = all(g.is_lower_triangular() for g in n.mats)
    spin = hom_spin(m, n) if direct else hom_spin(transposed(n), transposed(m))
    s, w = (dm, dn) if direct else (dn, dm)
    equations = spin.equations
    at = [None] * equations.cols            # unknown -> its (row, column) in H
    for i, place in spin.roots:
        for a, k in enumerate(place):
            if k is not None:
                at[k] = (a, i) if direct else (i, a)
    order = sorted(range(equations.cols), key=at.__getitem__)
    if direct:      # the transposed spin numbers its unknowns row-major
        equations = equations.submatrix(range(equations.rows), order)
    ker = kernel(equations).basis
    kb = ker.cols
    if not kb:
        return []
    at_unknown, empty = [None] * len(order), ((), ())
    for k, row in zip(order, ker.entries):
        at_unknown[k] = row         # the kernel basis at unknown k
    spun = vstack(*[word @ Matrix(
        fld, w, kb, [empty if k is None else at_unknown[k] for k in place])
        for word, place in zip(spin.words, spin.places)])
    # B^-T (x) I_w: row b * w + a holds row b of B^-T, the coordinates of
    # e_b in B, at the columns j * w + a
    tracker, one = spin.tracker, fld.one
    rows = []
    for b in range(s):
        tracker.add(((b, 2 * s), (one, one)))
        cols, vals = tracker.coordinates()
        rows += [(tuple([j * w + a for j in cols]), vals) for a in range(w)]
    lift = Matrix(fld, s * w, s * w, rows)
    maps = (lift @ spun).transpose()
    return [ModuleMap(m, n, g.transpose() if direct else g)
            for g in (unflatten(fld, s, w, row) for row in maps.entries)]


def hom_dim(m: Representation, n: Representation) -> int:
    """dim Hom(m, n): the unknowns of the spin system (``hom_spin``) less
    its rank.  The spin basis is eliminated once, forward only: no
    back-substitution."""
    equations = hom_spin(m, n).equations
    return equations.cols - equations.rank()


def conjugate(rep: Representation, basis: Matrix) -> Representation:
    """``rep`` rewritten in the columns of an invertible ``basis``: every
    generator matrix g becomes basis^-1 . g . basis."""
    read = read_on_complement(rep, Matrix.zeros(rep.field, rep.dim, 0), basis)
    if read is None:
        raise InternalInvariantViolation("adapted basis is singular")
    return Representation(rep.algebra, rep.field, rep.dim, read[1])


def sub_representation(rep: Representation, space: Subspace):
    """The induced representation on a canonical basis of an invariant
    subspace, with its inclusion map.  Raises NotSubmodule otherwise."""
    b = space.basis
    mats = tuple(space.coordinates(m @ b) for m in rep.mats)
    if None in mats:
        raise NotSubmodule("subspace is not invariant under the algebra action")
    sub = Representation(rep.algebra, rep.field, space.dim, mats)
    return sub, ModuleMap(sub, rep, b)


def read_on_complement(rep: Representation, span: Matrix, comp: Matrix):
    """The projection along the columns of ``span`` onto coordinates on
    the columns of ``comp``, and every generator g read through it as
    proj . g . comp; None when ``[span | comp]`` is singular."""
    inv = inverse(hstack(span, comp))
    if inv is None:
        return None
    proj = inv.submatrix(range(span.cols, rep.dim), range(rep.dim))
    return proj, tuple(proj @ (m @ comp) for m in rep.mats)


def quotient_by_subspace(rep: Representation, space: Subspace):
    """Quotient of ``rep`` by an invariant subspace.

    Returns ``(quotient, projection, section)`` where the quotient acts on
    the deterministic complement basis and ``section`` embeds quotient
    coordinates back into the ambient space (a right inverse of the
    projection, linear but generally not a module map).
    """
    comp = space.complement_basis()
    read = read_on_complement(rep, space.basis, comp)
    if read is None:
        raise DimensionMismatch("complement basis failed to complete")
    proj, mats = read
    quot = Representation(rep.algebra, rep.field, comp.cols, mats)
    Submodule(rep, space).require_invariant()
    return quot, ModuleMap(rep, quot, proj), comp


def kernel_module(f: ModuleMap):
    """Kernel with its inclusion, as an honest representation."""
    return sub_representation(f.source, kernel(f.mat))


def image_module(f: ModuleMap):
    """Image inside the target, with its inclusion."""
    return sub_representation(f.target, image(f.mat))


def cokernel_module(f: ModuleMap):
    """Cokernel on the deterministic complement basis, with projection."""
    quot, proj, _ = quotient_by_subspace(f.target, image(f.mat))
    return quot, proj


def quotient_module(rep: Representation, sub: Submodule):
    if sub.ambient != rep:
        raise NotSubmodule("submodule belongs to a different representation")
    quot, proj, _ = quotient_by_subspace(rep, sub.space)
    return quot, proj


def submodule_generated(rep: Representation, vectors: Sequence[Matrix]) -> Submodule:
    """Least invariant subspace containing the vectors, by closure
    iteration: apply all generator matrices until the span stabilizes."""
    space = Subspace.from_columns(
        hstack(*vectors) if vectors else Matrix.zeros(rep.field, rep.dim, 0))
    while True:
        grown = space
        for m in rep.mats:
            if space.dim:
                grown = grown.sum(image(m @ space.basis))
        if grown == space:
            break
        space = grown
    return Submodule(rep, space)


def find_isomorphism(m: Representation, n: Representation, seed: int = 0,
                     max_trials: int = 32) -> Optional[ModuleMap]:
    """An invertible intertwiner m -> n, or None when provably none exists.

    Unequal dimensions or Hom(m, n) = 0 prove non-isomorphism at once.
    Otherwise the Hom basis is searched for an invertible element, then
    one seeded random combination of it is tried, and only then is the
    End-dimension proof computed (an isomorphism makes dim End m,
    dim Hom(m, n) and dim End n equal); the remaining random combinations
    come after it, so a "no" costs at most one trial.  Over small finite
    fields the proof comes right after the basis and is followed by the
    exhaustive enumeration of combinations, which proves the negative
    case when it finds none.  Raises Undecided when every bounded
    strategy is exhausted without either outcome.
    """
    _check_compatible(m, n)
    if m.dim != n.dim:
        return None
    if m.dim == 0:
        return ModuleMap(m, n, Matrix.zeros(m.field, 0, 0))
    basis = hom_basis(m, n)
    if not basis:
        return None
    for h in basis:
        if h.mat.is_injective():
            return h
    k = len(basis)
    mats = [h.mat for h in basis]
    fld = m.field
    exhaustive = fld.finite and k <= 8 and fld.p ** k <= ENUMERATION_LIMIT
    mat = trials = None
    if not exhaustive:
        rng = random.Random(seed)
        trials = ([fld.sample(rng, 1 + trial // 8) for _ in range(k)]
                  for trial in range(max_trials))
        mat = first_combination(mats, Matrix.is_injective, islice(trials, 1))
    if mat is None:
        if not (k == hom_dim(m, m) == hom_dim(n, n)):
            return None
        mat = first_combination(mats, Matrix.is_injective, trials)
    if mat is not None:
        return ModuleMap(m, n, mat)
    if exhaustive:
        return None
    raise Undecided(
        f"no invertible intertwiner found in {max_trials} trials; "
        "hom dimensions agree so non-isomorphism is not proven")


def is_isomorphic(m: Representation, n: Representation, seed: int = 0,
                  max_trials: int = 32) -> bool:
    """True iff an invertible intertwiner was found and verified.

    Raises Undecided rather than guessing; never returns True without a
    witness.
    """
    return find_isomorphism(m, n, seed=seed, max_trials=max_trials) is not None
