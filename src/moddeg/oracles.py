"""Brute-force oracles: exhaustive submodule enumeration over small prime
fields, and the rank-profile test for nilpotent one-generator algebras."""

from __future__ import annotations

from itertools import combinations, product

from .errors import AlgebraMismatch, DimensionMismatch, TooLarge
from .algebras import Representation, Submodule
from .linalg import ENUMERATION_LIMIT, Matrix, Subspace


def enum_submodules(rep: Representation) -> list[Submodule]:
    """All generator-invariant subspaces, by enumerating echelon bases.

    Exhaustive and deterministic; requires a prime field with
    p^dim <= ``ENUMERATION_LIMIT``.  Every reduced-row-echelon matrix over
    F_p is visited once, so each subspace appears exactly once and already
    carries its canonical basis.
    """
    fld = rep.field
    if not getattr(fld, "finite", False):
        raise TooLarge("submodule enumeration needs a finite field")
    d = rep.dim
    if fld.p ** d > ENUMERATION_LIMIT:
        raise TooLarge(f"{fld.p}^{d} exceeds the enumeration guard {ENUMERATION_LIMIT}")

    out = [Submodule(rep, Subspace.zero(fld, d))]
    for k in range(1, d + 1):
        for pivots in combinations(range(d), k):
            pivot_set = set(pivots)
            free_slots = [(i, j) for i in range(k)
                          for j in range(pivots[i] + 1, d) if j not in pivot_set]
            for values in product(fld.elements(), repeat=len(free_slots)):
                rows = [[fld.zero] * d for _ in range(k)]
                for i, p in enumerate(pivots):
                    rows[i][p] = fld.one
                for (i, j), v in zip(free_slots, values):
                    rows[i][j] = v
                sub = Submodule(rep, Subspace(Matrix.from_rows(fld, rows).transpose()))
                if sub.is_invariant():
                    out.append(sub)
    return out


def nilpotent_rank_profile(rep: Representation) -> tuple[int, ...]:
    """Ranks of the powers of the unique radical generator, until zero.

    Only meaningful for one-radical-generator presentations such as
    k[X]/(X^n); the profile determines the module up to isomorphism there.
    """
    idx = rep.algebra.radical_indices
    if len(idx) != 1:
        raise AlgebraMismatch("rank profile needs exactly one radical generator")
    x = rep.mats[idx[0]]
    profile = []
    power = x
    for _ in range(rep.dim):
        r = power.rank()
        profile.append(r)
        if r == 0:
            break
        power = power @ x
    while profile and profile[-1] == 0:
        profile.pop()
    return tuple(profile)


def nilpotent_degenerates(m: Representation, n: Representation) -> bool:
    """Orbit-closure test for nilpotent one-generator modules: m
    degenerates to n iff every power of n's generator has rank at most the
    corresponding power of m's."""
    if m.algebra != n.algebra:
        raise AlgebraMismatch("rank profiles of different algebras")
    pm = nilpotent_rank_profile(m)
    pn = nilpotent_rank_profile(n)
    if m.dim != n.dim:
        raise DimensionMismatch("degeneration needs equal dimensions")
    length = max(len(pm), len(pn))
    pm = pm + (0,) * (length - len(pm))
    pn = pn + (0,) * (length - len(pn))
    return all(b <= a for a, b in zip(pm, pn))
