"""Digest snapshot of the library's outputs.

``library_snapshot.json`` holds one SHA-256 per group of seeded library
calls, each run over QQ, GF(2), GF(3) and GF(101): the text of every
result (or of every ``ModdegError`` raised) is written one line per call
and the group's lines are hashed together.  The groups are

* ``subspaces``: containment, sums, intersections, complements,
  annihilators, kernels, images and preimages of random subspaces;
* ``submodules``: ``sub_representation``, ``quotient_by_subspace`` and
  ``push_submodule`` over enumerated and generated submodules of the
  fixture certificates, and the kernel, image and cokernel modules of
  their maps;
* ``split``: ``split_submodule`` and ``virtual_chain``;
* ``series``: composition series and triangular forms;
* ``series_isomorphic``: positive ``series_isomorphic`` witnesses;
* ``ladders``: ``make_monic``, families at t = -2..5 and ``psi_embed``.

Regenerate the snapshot with

    PYTHONPATH=src python tests/test_library_snapshot.py

which prints every group whose digest changed.  Regenerating it is a
change to the library's outputs: name the changed groups in CHANGES.md,
and why.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
from fractions import Fraction
from itertools import product
from pathlib import Path

from moddeg.algebras import (AlgebraPresentation, Submodule, cokernel_module,
                             direct_sum, image_module, kernel_module,
                             quotient_by_subspace, sub_representation,
                             submodule_generated)
from moddeg.degeneration import (push_submodule, split_submodule,
                                 trivial_certificate, virtual_chain)
from moddeg.errors import ModdegError
from moddeg.fields import GF, QQ
from moddeg.fixtures import (bidir_m, bidir_n, cert_dual_chain, cert_dual_eta,
                             cert_dual_s2_to_s4, cert_dual_theta,
                             cert_kron_i2, cert_nilp3_21, cert_nilp3_31,
                             cert_nilp3_32, jordan_module, kron_dtr_s1,
                             kron_i2, kron_r2_mu, kron_r2_nu, kron_regular,
                             kron_s1, ladder_nilp3_corner, ladder_nilp3_shift,
                             mu_corner_triangular, nu_prime_triangular,
                             nu_shift_triangular, regular_module,
                             simple_module, trivial_ladder, y_module)
from moddeg.ladders import (build_family, evaluate_family, make_monic,
                            psi_embed, verify_ladder)
from moddeg.linalg import Matrix, Subspace, image, kernel, preimage
from moddeg.oracles import enum_submodules
from moddeg.series import (TriangularRep, chain_to_triangular,
                           composition_series, series_chain,
                           series_isomorphic, series_to_triangular,
                           simultaneous_triangularize, socle,
                           triangular_to_series)

SNAPSHOT = Path(__file__).with_name("library_snapshot.json")
FIELDS = (QQ, GF(2), GF(3), GF(101))


def show(value) -> str:
    """A deterministic text form of a library value; an algebra shows
    only its name."""
    if isinstance(value, Matrix):
        return repr(value)
    if isinstance(value, (tuple, list)):
        return "[" + ", ".join(show(v) for v in value) + "]"
    if isinstance(value, Subspace):
        return f"Subspace({value.ambient_dim}, {show(value.basis)})"
    if isinstance(value, AlgebraPresentation):
        return repr(value.name)
    if dataclasses.is_dataclass(value):
        return type(value).__name__ + "(" + ", ".join(
            show(getattr(value, f.name)) for f in dataclasses.fields(value)) + ")"
    return repr(value)


def call(fn, *args, **kwargs) -> str:
    """The text of ``fn(*args, **kwargs)``, or of the ModdegError it
    raises."""
    try:
        return show(fn(*args, **kwargs))
    except ModdegError as err:
        return f"{type(err).__name__}: {err}"


def entry(fld, rng: random.Random):
    """A random field element, zero half the time; over QQ a small
    fraction."""
    if rng.random() < 0.5:
        return fld.zero
    if fld.finite:
        return fld.coerce(rng.randrange(1, fld.p))
    return Fraction(rng.choice((-3, -2, -1, 1, 2, 5)), rng.choice((1, 1, 2, 3)))


def rand_matrix(fld, rng: random.Random, rows: int, cols: int) -> Matrix:
    return Matrix.from_rows(
        fld, [[entry(fld, rng) for _ in range(cols)] for _ in range(rows)], cols=cols)


def rand_subspace(fld, rng: random.Random, n: int) -> Subspace:
    return Subspace.from_columns(rand_matrix(fld, rng, n, rng.randint(0, n)))


def submodules(rep, rng: random.Random, count: int = 2,
               limit: int = 32) -> list[Submodule]:
    """Every submodule when the module has at most ``limit`` vectors, else
    the zero and full submodules and ``count`` generated by one or two
    random vectors."""
    fld = rep.field
    if fld.finite and fld.p ** rep.dim <= limit:
        return enum_submodules(rep)
    out = [Submodule(rep, Subspace.zero(fld, rep.dim)),
           Submodule(rep, Subspace.full(fld, rep.dim))]
    for _ in range(count):
        vecs = [rand_matrix(fld, rng, rep.dim, 1) for _ in range(rng.randint(1, 2))]
        out.append(submodule_generated(rep, vecs))
    return out


def certificates(fld) -> list:
    return [build(fld) for build in (
        cert_dual_eta, cert_dual_theta, cert_dual_chain, cert_dual_s2_to_s4,
        cert_kron_i2, cert_nilp3_32, cert_nilp3_21, cert_nilp3_31)]


def modules(fld) -> list:
    return [simple_module(fld, 3), regular_module(fld, 3), y_module(fld),
            jordan_module(fld, 3, (2, 1)), jordan_module(fld, 2, (2, 1, 1)),
            kron_s1(fld), kron_regular(fld, 1, 0), kron_regular(fld, 1, 1),
            kron_i2(fld), kron_dtr_s1(fld), bidir_m(fld), bidir_n(fld),
            direct_sum(bidir_m(fld), bidir_n(fld))]


def triangular_forms(fld) -> list[TriangularRep]:
    return [build(fld) for build in (mu_corner_triangular, nu_shift_triangular,
                                     nu_prime_triangular, kron_r2_mu,
                                     kron_r2_nu)]


def group_subspaces(fld, rng: random.Random) -> list[str]:
    lines = []
    for _ in range(40):
        n = rng.randint(1, 5)
        a, b = rand_subspace(fld, rng, n), rand_subspace(fld, rng, n)
        inner = Subspace.from_columns(
            a.basis @ rand_matrix(fld, rng, a.dim, rng.randint(0, a.dim)))
        m = rand_matrix(fld, rng, n, rng.randint(1, 5))
        outside = rand_matrix(fld, rng, n, 1)
        inside = a.basis @ rand_matrix(fld, rng, a.dim, 1)
        lines += [show((a, b, inner)),
                  show((a.contains(b), b.contains(a), a.contains(inner),
                        a.contains_vector(outside), a.contains_vector(inside))),
                  show((a.sum(b), a.intersect(b), b.intersect(a),
                        a.intersect(inner))),
                  show(a.left_annihilator()),
                  call(a.complement_basis), call(inner.complement_basis, a),
                  call(b.complement_basis, a),
                  show((kernel(m), image(m), preimage(m, a)))]
    return lines


def group_submodules(fld, rng: random.Random) -> list[str]:
    lines = []
    for cert in certificates(fld):
        for sub in submodules(cert.m, rng):
            lines += [show(sub.is_invariant()),
                      call(sub_representation, cert.m, sub.space),
                      call(quotient_by_subspace, cert.m, sub.space),
                      call(push_submodule, cert, sub)]
        for _ in range(2):
            space = rand_subspace(fld, rng, cert.m.dim)
            lines += [show(Submodule(cert.m, space).is_invariant()),
                      call(sub_representation, cert.m, space),
                      call(quotient_by_subspace, cert.m, space)]
        for f in (cert.f, cert.g, cert.q):
            lines += [call(kernel_module, f), call(image_module, f),
                      call(cokernel_module, f)]
    return lines


def group_split(fld, rng: random.Random) -> list[str]:
    lines = []
    pairs = [(regular_module(fld, 2), simple_module(fld, 2)),
             (simple_module(fld, 2), simple_module(fld, 2)),
             (regular_module(fld, 2), regular_module(fld, 2)),
             (y_module(fld), simple_module(fld, 3)),
             (kron_regular(fld, 1, 0), kron_s1(fld)),
             (bidir_m(fld), bidir_n(fld))]
    for x, y in pairs:
        for sub in submodules(direct_sum(x, y), rng):
            lines.append(call(split_submodule, x, y, sub))
    certs = certificates(fld)
    for c in certs + [trivial_certificate(cert.m) for cert in certs[:4]]:
        for k in range(1, c.m.dim):
            for sub in submodules(c.m.block(0, k), rng, count=1, limit=8):
                lines.append(call(virtual_chain, c, sub))
    return lines


def group_series(fld, rng: random.Random) -> list[str]:
    lines = []
    for rep in modules(fld):
        lines.append(call(socle, rep))
        try:
            series = composition_series(rep)
        except ModdegError as err:
            lines.append(f"{type(err).__name__}: {err}")
            continue
        chain = series_chain(series)
        tri = series_to_triangular(series)
        lines += [show(series), show(chain), show(tri),
                  call(chain_to_triangular, chain),
                  call(triangular_to_series, tri)]
    for cert in certificates(fld):
        sm, sn = composition_series(cert.m), composition_series(cert.n)
        lines.append(call(simultaneous_triangularize, cert.m, cert.n, sm, sn))
    for tri in triangular_forms(fld):
        lines += [call(triangular_to_series, tri),
                  call(chain_to_triangular, tri.chain())]
    return lines


def upper_conjugate(tri: TriangularRep, rng: random.Random) -> TriangularRep:
    """``tri`` conjugated by a random invertible upper-triangular matrix
    with a unit diagonal."""
    fld, d = tri.rep.field, tri.dim
    u = Matrix.from_rows(fld, [[fld.one if r == c else
                                entry(fld, rng) if c > r else fld.zero
                                for c in range(d)] for r in range(d)], cols=d)
    # The inverse of a unit upper-triangular u is sum_k (1 - u)^k.
    nil = Matrix.identity(fld, d) - u
    inv, power = Matrix.identity(fld, d), Matrix.identity(fld, d)
    for _ in range(d):
        power = power @ nil
        inv = inv + power
    mats = tuple(inv @ (g @ u) for g in tri.rep.mats)
    return TriangularRep(dataclasses.replace(tri.rep, mats=mats))


def group_series_isomorphic(fld, rng: random.Random) -> list[str]:
    lines = []
    tris = triangular_forms(fld) + [series_to_triangular(composition_series(rep))
                                    for rep in modules(fld)[::2]]
    tris.append(TriangularRep(jordan_module(fld, 2, (1,) * 6)))
    for tri in tris:
        lines += [call(series_isomorphic, tri, tri),
                  call(series_isomorphic, tri, upper_conjugate(tri, rng))]
    return lines


def group_ladders(fld, rng: random.Random) -> list[str]:
    lines = []
    ladders = [ladder_nilp3_corner(fld), ladder_nilp3_shift(fld)]
    ladders += [trivial_ladder(tri) for tri in triangular_forms(fld)]
    for lc in ladders:
        lines.append(show(verify_ladder(lc)))
        try:
            monic = make_monic(lc)
        except ModdegError as err:
            lines.append(f"{type(err).__name__}: {err}")
            continue
        lines.append(show(monic))
        alg = lc.m_chain.stages[0].algebra
        cvecs = [None] + list(product(range(len(alg.idempotents)),
                                      repeat=lc.length))[:4]
        for cvec in cvecs:
            try:
                fam = build_family(monic, cvec)
            except ModdegError as err:
                lines.append(f"{type(err).__name__}: {err}")
                continue
            lines.append(show(fam.basis))
            for t in range(-2, 6):
                try:
                    member = evaluate_family(fam, t)
                except ModdegError as err:
                    lines.append(f"{type(err).__name__}: {err}")
                    continue
                lines += [show(member), call(psi_embed, member)]
    return lines


GROUPS = {
    "subspaces": group_subspaces,
    "submodules": group_submodules,
    "split": group_split,
    "series": group_series,
    "series_isomorphic": group_series_isomorphic,
    "ladders": group_ladders,
}


def digests() -> dict[str, str]:
    """One SHA-256 per group over its lines for every field, each group
    and field with its own seeded generator."""
    out = {}
    for name, group in GROUPS.items():
        sha = hashlib.sha256()
        for fld in FIELDS:
            for line in group(fld, random.Random(f"{name} {fld!r}")):
                sha.update(f"{fld!r} {line}\n".encode("utf-8"))
        out[name] = sha.hexdigest()
    return out


def load_snapshot() -> dict[str, str]:
    return json.loads(SNAPSHOT.read_text(encoding="utf-8"))


def test_library_outputs_match_the_snapshot():
    expected, found = load_snapshot(), digests()
    changed = [name for name in GROUPS if expected.get(name) != found[name]]
    assert changed == []
    assert set(expected) == set(GROUPS)


if __name__ == "__main__":
    old = load_snapshot() if SNAPSHOT.exists() else {}
    new = digests()
    SNAPSHOT.write_text(json.dumps(new, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(new)} group digests to {SNAPSHOT}")
    for name, digest in new.items():
        if old.get(name) != digest:
            print(f"changed: {name}")
