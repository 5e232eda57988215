"""Seeded input generators for the benchmark workloads.

Every input reaches moddeg as single-line JSON text, built here from plain
integer matrices; expected answers come from closed formulas or from the
independent arithmetic in ``exact``.  The same seed gives the same text.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import exact

QQ = None          # the rationals, in the ``p`` convention of ``exact``
GOLDEN_P = 101
HOM_P = 101
LADDER_P = 32003
NILPOTENCY = 3     # Jordan modules live over k[X]/(X^3)

DATA = Path(__file__).resolve().parent.parent / "src" / "moddeg" / "data"


def field_tag(p) -> str:
    return "qq" if p is None else "gf"


# -- documents -----------------------------------------------------------

def _field_payload(p) -> dict:
    return {"rationals": True} if p is None else {"p": p}


def truncated_algebra(n: int = NILPOTENCY) -> dict:
    return {"name": f"k[X]/(X^{n})", "generators": ["e", "x"],
            "idempotents": ["e"], "radical": ["x"],
            "relations": [[["1", ["x"] * n]]], "unit": None}


def kronecker_algebra() -> dict:
    rels = [[["1", [arrow, "e1"]], ["-1", [arrow]]] for arrow in ("a", "b")]
    rels += [[["1", ["e2", arrow]], ["-1", [arrow]]] for arrow in ("a", "b")]
    return {"name": "kronecker", "generators": ["e1", "e2", "a", "b"],
            "idempotents": ["e1", "e2"], "radical": ["a", "b"],
            "relations": rels, "unit": None}


def _entries(m, p) -> list:
    return [[str(v if p is None else v % p) for v in row] for row in m]


def _rep_payload(mats, p) -> dict:
    return {"dim": len(mats[0]), "mats": [_entries(m, p) for m in mats]}


def _dump(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def rep_doc(alg: dict, p, mats) -> str:
    return _dump({"kind": "representation", "field": _field_payload(p),
                  "algebra": alg, **_rep_payload(mats, p)})


def submodule_doc(alg: dict, p, ambient, basis) -> str:
    return _dump({"kind": "submodule", "field": _field_payload(p),
                  "algebra": alg, "ambient": _rep_payload(ambient, p),
                  "basis": _entries(basis, p)})


def cert_doc(alg: dict, p, c: dict) -> str:
    return _dump({"kind": "certificate", "field": _field_payload(p),
                  "algebra": alg,
                  "x": _rep_payload(c["x"], p), "m": _rep_payload(c["m"], p),
                  "n": _rep_payload(c["n"], p), "f": _entries(c["f"], p),
                  "g": _entries(c["g"], p), "q": _entries(c["q"], p)})


def plain_mats(text: str, p, key=None) -> list:
    """The generator matrices of a representation document (or of its
    ``key`` slot) as exact plain lists, read without moddeg."""
    obj = json.loads(text)
    rep = obj if key is None else obj[key]
    return [[[exact.reduce(v, p) for v in row] for row in m] for m in rep["mats"]]


# -- matrices ------------------------------------------------------------

def identity(k: int) -> list:
    return [[int(i == j) for j in range(k)] for i in range(k)]


def zeros(r: int, c: int) -> list:
    return [[0] * c for _ in range(r)]


def block_diag(*blocks) -> list:
    rows = sum(len(b) for b in blocks)
    cols = sum(len(b[0]) if b else 0 for b in blocks)
    out = zeros(rows, cols)
    r = c = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[r + i][c:c + len(row)] = row
        r += len(b)
        c += len(b[0]) if b else 0
    return out


def jordan_mats(partition) -> list:
    """[e, x] for the nilpotent module with the given Jordan blocks; x maps
    basis vector i of a block to vector i + 1."""
    x = block_diag(*[[[int(i == j + 1) for j in range(k)] for i in range(k)]
                     for k in partition])
    return [identity(len(x)), x]


def unimodular(rng: random.Random, d: int):
    """P = L . U with unit triangular factors over {-1, 0, 1}, and its
    integral inverse U^-1 . L^-1."""
    lower = [[1 if i == j else (rng.choice((-1, 0, 1)) if i > j else 0)
              for j in range(d)] for i in range(d)]
    upper = [[1 if i == j else (rng.choice((-1, 0, 1)) if i < j else 0)
              for j in range(d)] for i in range(d)]
    return (exact.matmul(lower, upper, None),
            exact.matmul(_unit_upper_inverse(upper),
                         _unit_lower_inverse(lower), None))


def _unit_lower_inverse(low: list) -> list:
    d = len(low)
    inv = identity(d)
    for i in range(d):
        for j in range(i):
            inv[i][j] = -sum(low[i][k] * inv[k][j] for k in range(j, i))
    return inv


def _unit_upper_inverse(up: list) -> list:
    transposed = _unit_lower_inverse([list(r) for r in zip(*up)])
    return [list(r) for r in zip(*transposed)]


def conjugate(mats, pair) -> list:
    p_mat, p_inv = pair
    return [[[int(v) for v in row]
             for row in exact.matmul(exact.matmul(p_mat, m, None), p_inv, None)]
            for m in mats]


def random_partition(rng: random.Random, d: int, largest: int = NILPOTENCY) -> list:
    parts = []
    while d:
        k = rng.randint(1, min(largest, d))
        parts.append(k)
        d -= k
    return sorted(parts, reverse=True)


def kronecker(rng: random.Random, a: int, b: int):
    """A Kronecker representation of dimension vector (a, b) with arrow
    entries in [-3, 3]: its generator matrices and its block form."""
    arrows = [[[rng.randint(-3, 3) for _ in range(a)] for _ in range(b)]
              for _ in range(2)]
    d = a + b
    e1 = [[int(i == j and i < a) for j in range(d)] for i in range(d)]
    e2 = [[int(i == j and i >= a) for j in range(d)] for i in range(d)]
    mats = [e1, e2] + [[[arrow[i - a][j] if i >= a and j < a else 0
                         for j in range(d)] for i in range(d)] for arrow in arrows]
    return mats, (a, b, *arrows)


def _rng(*key) -> random.Random:
    return random.Random(":".join(str(k) for k in key))


# -- golden-replay ---------------------------------------------------------

def retype(text: str, p: int) -> str:
    """The same document with its field header replaced by GF(p)."""
    obj = json.loads(text)
    obj["field"] = _field_payload(p)
    return _dump(obj)


def golden_cases() -> list:
    """The shipped CLI replays, with every file argument replaced by ``-``
    and its document handed over on stdin, once per field."""
    manifest = json.loads((DATA / "golden.json").read_text(encoding="utf-8"))
    cases = []
    for entry in manifest:
        argv, texts = [], []
        for arg in entry["argv"]:
            if arg.endswith(".json"):
                argv.append("-")
                texts.append((DATA / arg).read_text(encoding="utf-8").strip())
            else:
                argv.append(arg)
        for p in (QQ, GOLDEN_P):
            docs = texts if p is QQ else [retype(t, p) for t in texts]
            cases.append({"field": p, "name": entry["name"], "argv": argv,
                          "docs": docs, "expect_exit": entry["expect_exit"],
                          "expect_stdout": entry.get("expect_stdout"),
                          "expect_kinds": entry.get("expect_kinds")})
    return cases


def golden_order(seed: int, round_no: int, count: int) -> list:
    order = list(range(count))
    _rng("golden", seed, round_no).shuffle(order)
    return order


# -- hom-dense -------------------------------------------------------------

# One round per field.  Jordan entries are (tier, query, "J", lambda, mu):
# conjugates of J_lambda and J_mu over k[X]/(X^3), mu unused by one-module
# queries.  Kronecker entries are (tier, query, "K", d): random
# representations of dimension vector (d // 2, d - d // 2).  The tiers order
# the classes by cost so that the 50th percentile of a field's op latencies
# falls in the middle of tier M (ranks 8-11 of 20) and the 90th in the
# middle of tier T (ranks 16-19), where a tier's ops are densest; fixed
# shapes keep the spread between seeds small, and the seed varies the
# entries.
HOM_ROUND = {
    QQ: [("L", "hom_dim", "J", (3, 1), (2, 2)),
         ("L", "hom_basis", "J", (2, 2), (3, 1)),
         ("L", "find_isomorphism", "J", (2, 1, 1), None),
         ("L", "codim", "J", (3, 1), (2, 1, 1)),
         ("L", "hom_dim", "K", 4), ("L", "find_isomorphism", "K", 4),
         ("L", "hom_basis", "K", 5),
         ("L", "hom_defect", "J", (3, 2), (2, 2, 1)),
         *[("M", "hom_dim", "K", 6)] * 4,
         ("H", "hom_dim", "J", (3, 3), (2, 2, 2)),
         ("H", "hom_basis", "J", (3, 3), (2, 2, 2)),
         ("H", "hom_dim", "K", 7),
         ("H", "orbit_dim_gl", "J", (3, 2, 1), None),
         *[("T", "hom_dim", "J", (3, 3, 1), (2, 2, 2, 1))] * 4],
    HOM_P: [("L", "hom_dim", "J", (3, 3), (2, 2, 2)),
            ("L", "hom_dim", "J", (3, 3, 1), (2, 2, 2, 1)),
            ("L", "hom_basis", "J", (3, 2, 1), (2, 2, 2)),
            ("L", "orbit_dim_gl", "J", (3, 2, 2), None),
            ("L", "find_isomorphism", "K", 6), ("L", "hom_basis", "K", 8),
            ("L", "find_isomorphism", "J", (3, 3), None),
            ("L", "hom_dim", "K", 7),
            *[("M", "hom_basis", "J", (3, 3, 2), (2, 2, 2, 2))] * 4,
            ("H", "hom_basis", "K", 10),
            ("H", "find_isomorphism", "J", (3, 3, 2), None),
            ("H", "hom_dim", "J", (3, 3, 3, 1), (2, 2, 2, 2, 2)),
            ("H", "find_isomorphism", "K", 10),
            *[("T", "hom_dim", "J", (3, 3, 3, 2), (2, 2, 2, 2, 2, 1))] * 4],
}
DEFECT_TEST = (2, 1)   # the test module J_(2,1) of hom_defect queries


def _jordan_op(rng, p, query, lam, mu) -> dict:
    alg = truncated_algebra()
    d = sum(lam)
    mu = lam if mu is None else mu
    m = conjugate(jordan_mats(lam), unimodular(rng, d))
    n = conjugate(jordan_mats(mu), unimodular(rng, d))
    hom = exact.jordan_hom_dim
    mats = [m, n]
    expect = {"hom_dim": hom(lam, mu), "hom_basis": hom(lam, mu),
              "codim": hom(mu, mu) - hom(lam, lam),
              "orbit_dim_gl": d * d - hom(lam, lam),
              "find_isomorphism": True}.get(query)
    if query == "orbit_dim_gl":
        mats = [m]
    if query == "hom_defect":
        mats.append(jordan_mats(DEFECT_TEST))
        expect = [hom(DEFECT_TEST, mu) - hom(DEFECT_TEST, lam)]
    return {"docs": [rep_doc(alg, p, x) for x in mats], "mats": mats,
            "expect": expect, "label": f"{query} J{d}"}


def _kronecker_op(rng, p, query, d) -> dict:
    a, b = d // 2, d - d // 2
    m, m_block = kronecker(rng, a, b)
    if query == "find_isomorphism":
        (p1, i1), (p2, i2) = unimodular(rng, a), unimodular(rng, b)
        n = conjugate(m, (block_diag(p1, p2), block_diag(i1, i2)))
        expect = True
    else:
        n, n_block = kronecker(rng, a, b)
        expect = exact.kronecker_hom_dim(m_block, n_block, p)
    alg = kronecker_algebra()
    return {"docs": [rep_doc(alg, p, m), rep_doc(alg, p, n)], "mats": [m, n],
            "expect": expect, "label": f"{query} K{d}"}


def hom_round(seed: int, round_no: int, smoke: bool = False) -> list:
    """One round of intertwiner queries over both fields, shuffled; the
    smoke round keeps only the cheapest tier."""
    rng = _rng("hom-dense", seed, round_no)
    ops = []
    for p, spec in HOM_ROUND.items():
        for tier, query, family, *shape in spec:
            if smoke and tier != "L":
                continue
            make = _jordan_op if family == "J" else _kronecker_op
            op = make(rng, p, query, *shape)
            op.update(field=p, tier=tier, query=query)
            op["mats"] = [[[[exact.reduce(v, p) for v in row] for row in m]
                           for m in rep] for rep in op["mats"]]
            ops.append(op)
    rng.shuffle(ops)
    return ops


def hom_cold_cases(seed: int) -> list:
    """Cold CLI cases on the smallest Jordan and Kronecker inputs."""
    rng = _rng("hom-dense-cold", seed)
    hom = exact.jordan_hom_dim
    cases = []
    for p in HOM_ROUND:
        d = 4 if p is QQ else 6
        alg = truncated_algebra()
        lam, mu = random_partition(rng, d), random_partition(rng, d)
        tau = random_partition(rng, 2)
        m = rep_doc(alg, p, conjugate(jordan_mats(lam), unimodular(rng, d)))
        n = rep_doc(alg, p, conjugate(jordan_mats(mu), unimodular(rng, d)))
        t = rep_doc(alg, p, jordan_mats(tau))
        k, k_block = kronecker(rng, d // 2, d - d // 2)
        l, l_block = kronecker(rng, d // 2, d - d // 2)
        kalg = kronecker_algebra()
        for argv, docs, out in (
                (["hom", "-", "-"], [m, n], f"{hom(lam, mu)}\n"),
                (["codim", "-", "-"], [m, n], f"{hom(mu, mu) - hom(lam, lam)}\n"),
                (["orbit-dim", "-"], [m], f"{d * d - hom(lam, lam)}\n"),
                (["hom-defect", "-", "-", "-"], [m, n, t],
                 f"[{hom(tau, mu) - hom(tau, lam)}]\n"),
                (["hom", "-", "-"], [rep_doc(kalg, p, k), rep_doc(kalg, p, l)],
                 f"{exact.kronecker_hom_dim(k_block, l_block, p)}\n"),
                (["validate", "-"], [m], None)):
            cases.append({"field": p, "name": f"{argv[0]} d{d}", "argv": argv,
                          "docs": docs, "expect_exit": 0, "expect_stdout": out,
                          "expect_kinds": None})
    return cases


# -- flag-ladder -----------------------------------------------------------

LADDER_SIZES = {QQ: (6, 9, 12), LADDER_P: (12, 18, 24)}
Y_BLOCK = 2        # the trivial summand Y = J_2 of the virtual degeneration


def ses_certificate(pairs, scales) -> dict:
    """Block sum of the certificates J_{a+b} <=deg J_a (+) J_b from the
    sequences 0 -> J_a -> J_{a+b} -> J_b -> 0: X = J_a, f = 0, g the
    inclusion and q = diag(id, projection), each block of g and q times
    its nonzero scalar from ``scales`` (one triple per pair)."""
    xs = [a for a, _ in pairs]
    dx, dm = sum(xs), sum(a + b for a, b in pairs)
    g, q = zeros(dm, dx), zeros(dm, dx + dm)
    xo = mo = 0
    for (a, b), (sg, sx, sm) in zip(pairs, scales):
        for i in range(a):
            g[mo + b + i][xo + i] = sg
            q[mo + i][xo + i] = sx
        for i in range(b):
            q[mo + a + i][dx + mo + i] = sm
        xo += a
        mo += a + b
    return {"x": jordan_mats(xs), "m": jordan_mats([a + b for a, b in pairs]),
            "n": jordan_mats([k for pair in pairs for k in pair]),
            "f": zeros(dx, dx), "g": g, "q": q}


def with_trivial_summand(c: dict, y: list) -> dict:
    """The certificate c (+) trivial_certificate(Y) for M (+) Y <= N (+) Y."""
    ky, dx, dm = len(y[0]), len(c["f"]), len(c["m"][0])
    q = [row + [0] * ky for row in c["q"]]
    q += [[0] * (dx + dm) + [int(i == j) for j in range(ky)] for i in range(ky)]
    return {"x": c["x"], "m": [block_diag(a, b) for a, b in zip(c["m"], y)],
            "n": [block_diag(a, b) for a, b in zip(c["n"], y)],
            "f": c["f"], "g": c["g"] + zeros(ky, dx), "q": q}


def _unit(rng, p) -> int:
    """A seeded nonzero scalar: small over QQ, any unit of GF(p)."""
    return rng.choice((-3, -2, -1, 1, 2, 3)) if p is None else rng.randrange(1, p)


def ladder_pipeline(rng, p, d) -> dict:
    """One pipeline's documents: d / 3 blocks, alternately J_3 <= J_1 (+) J_2
    and J_3 <= J_2 (+) J_1, with seeded scalars on the blocks of g and q.
    The block order is fixed: reordering the blocks moves the pipeline's
    cost by up to a third, scaling them hardly does."""
    pairs = [((1, 2), (2, 1))[i % 2] for i in range(d // 3)]
    scales = [tuple(_unit(rng, p) for _ in range(3)) for _ in pairs]
    alg = truncated_algebra()
    c = ses_certificate(pairs, scales)
    return {"field": p, "d": d, "cert": cert_doc(alg, p, c),
            "vcert": cert_doc(alg, p, with_trivial_summand(c, jordan_mats([Y_BLOCK]))),
            "mprime": submodule_doc(alg, p, c["m"], c["g"]),
            "m_doc": rep_doc(alg, p, c["m"]), "n_doc": rep_doc(alg, p, c["n"]),
            "m_part": [a + b for a, b in pairs],
            "n_part": [k for pair in pairs for k in pair],
            "mprime_dim": sum(a for a, _ in pairs)}


def ladder_round(seed: int, smoke: bool = False) -> list:
    """The pipelines of one round, alternating fields, smallest first; the
    smoke round keeps the smallest pair."""
    rng = _rng("flag-ladder", seed)
    out = []
    for dq, dg in zip(LADDER_SIZES[QQ], LADDER_SIZES[LADDER_P]):
        out.append(ladder_pipeline(rng, QQ, dq))
        out.append(ladder_pipeline(rng, LADDER_P, dg))
        if smoke:
            break
    return out


def ladder_cold_cases(pipelines) -> list:
    """Cold CLI cases on the smallest pipeline of each field."""
    hom = exact.jordan_hom_dim
    cases = []
    for p in LADDER_SIZES:
        pipe = min((x for x in pipelines if x["field"] == p), key=lambda x: x["d"])
        d, mp, np_ = pipe["d"], pipe["m_part"], pipe["n_part"]
        for argv, docs, out, kinds in (
                (["check-cert", "-"], [pipe["cert"]], None, None),
                (["series", "-"], [pipe["m_doc"]], None, ["series"]),
                (["orbit-dim", "-"], [pipe["m_doc"]], f"{d * d - hom(mp, mp)}\n", None),
                (["codim", "-", "-"], [pipe["m_doc"], pipe["n_doc"]],
                 f"{hom(np_, np_) - hom(mp, mp)}\n", None),
                (["push-sub", "-", "-"], [pipe["cert"], pipe["mprime"]], None,
                 ["submodule", "certificate"]),
                (["vchain", "-", "-"], [pipe["vcert"], pipe["mprime"]], None,
                 None)):
            cases.append({"field": p, "name": f"{argv[0]} d{d}", "argv": argv,
                          "docs": docs, "expect_exit": 0, "expect_stdout": out,
                          "expect_kinds": kinds})
    return cases
