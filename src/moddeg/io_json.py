"""Line-oriented JSON documents for every object the CLI exchanges.

One document per line: a top-level object with a ``kind`` tag, a ``field``
header ({"rationals": true} or {"p": 101}), an embedded algebra
presentation, and the kind-specific payload.  All matrix entries are
strings holding exact integers, fractions or residues; unknown keys are
rejected.  Printing a parsed document reproduces the input byte for byte
on canonical forms.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

from .errors import ParseError
from .fields import GF, QQ
from .algebras import (AlgebraPresentation, ModuleMap, Representation,
                       Submodule)
from .degeneration import RiedtmannCertificate
from .linalg import Matrix, Subspace
from .series import CompositionSeries, ModuleChain
from .ladders import LadderCertificate, ladder_from_columns

KINDS = ("algebra", "representation", "map", "submodule", "certificate",
         "ladder", "series", "cvector")

_INT_RE = re.compile(r"^[+-]?\d+$")


@dataclass(frozen=True)
class CompositionVectorDoc:
    """A composition vector carried with its algebra context."""

    algebra: AlgebraPresentation
    entries: tuple[int, ...]

    def names(self) -> tuple[str, ...]:
        return tuple(self.algebra.idempotents[i] for i in self.entries)


@dataclass(frozen=True)
class Document:
    kind: str
    field: object
    value: object


def _fail(msg: str, path: str):
    raise ParseError(msg, path=path)


def _expect_keys(obj: dict, required: tuple[str, ...], path: str):
    if not isinstance(obj, dict):
        _fail("expected an object", path)
    missing = [k for k in required if k not in obj]
    if missing:
        _fail(f"missing keys {missing}", path)
    unknown = [k for k in obj if k not in required]
    if unknown:
        _fail(f"unknown keys {unknown}", path)


def _parse_field(obj, path: str):
    if obj == {"rationals": True}:
        return QQ
    if isinstance(obj, dict) and set(obj) == {"p"} and isinstance(obj["p"], int):
        try:
            return GF(obj["p"])
        except ValueError as err:
            _fail(str(err), path)
    _fail('field must be {"rationals": true} or {"p": <prime>}', path)


def _field_payload(fld) -> dict:
    if fld == QQ:
        return {"rationals": True}
    return {"p": fld.p}


def _parse_scalar(text, fld, path: str):
    if not isinstance(text, str):
        _fail("scalar entries must be strings", path)
    try:
        return fld.parse(text)
    except ValueError as err:
        _fail(str(err), path)


def _parse_matrix(obj, fld, rows: int, cols, path: str) -> Matrix:
    if not isinstance(obj, list) or len(obj) != rows:
        _fail(f"expected {rows} matrix rows", path)
    if cols is None:
        if obj and not isinstance(obj[0], list):
            _fail("row 0 must be a list", f"{path}[0]")
        cols = len(obj[0]) if obj else 0
    data = []
    for i, row in enumerate(obj):
        if not isinstance(row, list) or len(row) != cols:
            _fail(f"row {i} must have {cols} entries", f"{path}[{i}]")
        data.append([_parse_scalar(v, fld, f"{path}[{i}][{j}]")
                     for j, v in enumerate(row)])
    return Matrix(fld, rows, cols, data)


def _matrix_payload(m: Matrix) -> list:
    return [[m.field.fmt(v) for v in row] for row in m.data]


def _parse_algebra(obj, path: str) -> AlgebraPresentation:
    _expect_keys(obj, ("name", "generators", "idempotents", "radical",
                       "relations", "unit"), path)
    if not isinstance(obj["name"], str):
        _fail("name must be a string", path + ".name")
    gens = obj["generators"]
    if (not isinstance(gens, list) or not gens
            or any(not isinstance(g, str) for g in gens)):
        _fail("generators must be a nonempty list of names", path + ".generators")
    index = {g: i for i, g in enumerate(gens)}

    def is_name(n) -> bool:
        return isinstance(n, str) and n in index

    def names(key):
        lst = obj[key]
        if not isinstance(lst, list) or not all(map(is_name, lst)):
            _fail(f"{key} must list generator names", f"{path}.{key}")
        return lst

    relations = []
    if not isinstance(obj["relations"], list):
        _fail("relations must be a list", path + ".relations")
    for i, rel in enumerate(obj["relations"]):
        rpath = f"{path}.relations[{i}]"
        if not isinstance(rel, list) or not rel:
            _fail("a relation is a nonempty list of terms", rpath)
        terms = []
        for j, term in enumerate(rel):
            if (not isinstance(term, list) or len(term) != 2
                    or not isinstance(term[0], str)
                    or not isinstance(term[1], list) or not term[1]):
                _fail("a term is [coefficient, [generator, ..]]", f"{rpath}[{j}]")
            if not _INT_RE.match(term[0]):
                _fail(f"integer coefficient expected, got {term[0]!r}", f"{rpath}[{j}]")
            word = []
            for g in term[1]:
                if not is_name(g):
                    _fail(f"unknown generator {g!r} in relation", f"{rpath}[{j}]")
                word.append(index[g])
            terms.append((int(term[0]), tuple(word)))
        relations.append(tuple(terms))
    unit = obj["unit"]
    if unit is not None and not is_name(unit):
        _fail("unit must be null or a generator name", path + ".unit")
    try:
        return AlgebraPresentation(
            name=obj["name"], generators=tuple(gens),
            idempotents=tuple(names("idempotents")),
            radical_generators=tuple(names("radical")),
            relations=tuple(relations), unit_generator=unit)
    except ValueError as err:
        _fail(str(err), path)


def _algebra_payload(alg: AlgebraPresentation) -> dict:
    return {
        "name": alg.name,
        "generators": list(alg.generators),
        "idempotents": list(alg.idempotents),
        "radical": list(alg.radical_generators),
        "relations": [[[str(c), [alg.generators[g] for g in w]] for c, w in rel]
                      for rel in alg.relations],
        "unit": alg.unit_generator,
    }


def _parse_rep(obj, alg, fld, path: str) -> Representation:
    _expect_keys(obj, ("dim", "mats"), path)
    dim = obj["dim"]
    if not isinstance(dim, int) or dim < 0:
        _fail("dim must be a nonnegative integer", path + ".dim")
    mats = obj["mats"]
    if not isinstance(mats, list) or len(mats) != len(alg.generators):
        _fail("one matrix per generator required", path + ".mats")
    parsed = tuple(_parse_matrix(m, fld, dim, dim, f"{path}.mats[{i}]")
                   for i, m in enumerate(mats))
    return Representation(alg, fld, dim, parsed)


def _rep_payload(rep: Representation) -> dict:
    return {"dim": rep.dim, "mats": [_matrix_payload(m) for m in rep.mats]}


def parse_document(text: str) -> Document:
    """Parse one JSON document; raises ParseError with position info."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as err:
        raise ParseError(err.msg, line=err.lineno, column=err.colno) from err
    if not isinstance(obj, dict) or "kind" not in obj:
        _fail('top level must be an object with a "kind"', "$")
    kind = obj["kind"]
    if kind not in KINDS:
        _fail(f"unknown kind {kind!r}", "$.kind")

    keys = {
        "algebra": ("kind", "field", "algebra"),
        "representation": ("kind", "field", "algebra", "dim", "mats"),
        "map": ("kind", "field", "algebra", "source", "target", "matrix"),
        "submodule": ("kind", "field", "algebra", "ambient", "basis"),
        "certificate": ("kind", "field", "algebra", "x", "m", "n", "f", "g", "q"),
        "ladder": ("kind", "field", "algebra", "x", "h", "m_stages", "m_inc",
                   "n_stages", "n_inc", "f", "g", "q"),
        "series": ("kind", "field", "algebra", "ambient", "flags", "factors"),
        "cvector": ("kind", "field", "algebra", "entries"),
    }[kind]
    _expect_keys(obj, keys, "$")
    fld = _parse_field(obj["field"], "$.field")
    alg = _parse_algebra(obj["algebra"], "$.algebra")

    if kind == "algebra":
        return Document(kind, fld, alg)

    if kind == "representation":
        rep = _parse_rep({"dim": obj["dim"], "mats": obj["mats"]}, alg, fld, "$")
        return Document(kind, fld, rep)

    if kind == "map":
        src = _parse_rep(obj["source"], alg, fld, "$.source")
        tgt = _parse_rep(obj["target"], alg, fld, "$.target")
        mat = _parse_matrix(obj["matrix"], fld, tgt.dim, src.dim, "$.matrix")
        return Document(kind, fld, ModuleMap(src, tgt, mat))

    if kind == "submodule":
        amb = _parse_rep(obj["ambient"], alg, fld, "$.ambient")
        basis = _parse_matrix(obj["basis"], fld, amb.dim, None, "$.basis")
        return Document(kind, fld,
                        Submodule(amb, Subspace.from_columns(basis)))

    if kind == "certificate":
        x = _parse_rep(obj["x"], alg, fld, "$.x")
        m = _parse_rep(obj["m"], alg, fld, "$.m")
        n = _parse_rep(obj["n"], alg, fld, "$.n")
        f = _parse_matrix(obj["f"], fld, x.dim, x.dim, "$.f")
        g = _parse_matrix(obj["g"], fld, m.dim, x.dim, "$.g")
        q = _parse_matrix(obj["q"], fld, n.dim, x.dim + m.dim, "$.q")
        return Document(kind, fld, RiedtmannCertificate.build(x, m, n, f, g, q))

    if kind == "ladder":
        if not isinstance(obj["x"], list):
            _fail("x must be a list of representations", "$.x")
        xs = [_parse_rep(o, alg, fld, f"$.x[{i}]") for i, o in enumerate(obj["x"])]
        d = len(xs)

        def chain(stage_key, inc_key):
            if not isinstance(obj[stage_key], list):
                _fail(f"{stage_key} must have {d} stages", f"$.{stage_key}")
            stages = [_parse_rep(o, alg, fld, f"$.{stage_key}[{i}]")
                      for i, o in enumerate(obj[stage_key])]
            if len(stages) != d:
                _fail(f"{stage_key} must have {d} stages", f"$.{stage_key}")
            incs = obj[inc_key]
            if not isinstance(incs, list) or len(incs) != d - 1:
                _fail(f"{inc_key} must have {d - 1} maps", f"$.{inc_key}")
            maps = tuple(
                ModuleMap(stages[i], stages[i + 1],
                          _parse_matrix(incs[i], fld, stages[i + 1].dim,
                                        stages[i].dim, f"$.{inc_key}[{i}]"))
                for i in range(d - 1))
            return ModuleChain(tuple(stages), maps)

        m_chain = chain("m_stages", "m_inc")
        n_chain = chain("n_stages", "n_inc")
        for key, count in (("h", d - 1), ("f", d), ("g", d), ("q", d)):
            if not isinstance(obj[key], list) or len(obj[key]) != count:
                _fail(f"{key} must have {count} matrices", f"$.{key}")
        h = [_parse_matrix(obj["h"][i], fld, xs[i + 1].dim, xs[i].dim, f"$.h[{i}]")
             for i in range(d - 1)]
        f = [_parse_matrix(obj["f"][i], fld, xs[i].dim, xs[i].dim, f"$.f[{i}]")
             for i in range(d)]
        g = [_parse_matrix(obj["g"][i], fld, m_chain.stages[i].dim, xs[i].dim,
                           f"$.g[{i}]") for i in range(d)]
        q = [_parse_matrix(obj["q"][i], fld, n_chain.stages[i].dim,
                           xs[i].dim + m_chain.stages[i].dim, f"$.q[{i}]")
             for i in range(d)]
        return Document(kind, fld,
                        ladder_from_columns(m_chain, n_chain, xs, h, f, g, q))

    if kind == "series":
        amb = _parse_rep(obj["ambient"], alg, fld, "$.ambient")
        flags = obj["flags"]
        if not isinstance(flags, list) or len(flags) != amb.dim:
            _fail(f"flags must have {amb.dim} entries", "$.flags")
        subs = tuple(
            Submodule(amb, Subspace.from_columns(
                _parse_matrix(flags[i], fld, amb.dim, i + 1, f"$.flags[{i}]")))
            for i in range(amb.dim))
        factors = _parse_factor_names(obj["factors"], alg, amb.dim, "$.factors")
        return Document(kind, fld, CompositionSeries(amb, subs, factors))

    # cvector
    factors = _parse_factor_names(obj["entries"], alg, None, "$.entries")
    return Document(kind, fld, CompositionVectorDoc(alg, factors))


def _parse_factor_names(lst, alg, expected_len, path: str) -> tuple[int, ...]:
    if not isinstance(lst, list) or (expected_len is not None
                                     and len(lst) != expected_len):
        _fail("wrong factor list length", path)
    out = []
    for i, name in enumerate(lst):
        if name not in alg.idempotents:
            _fail(f"{name!r} is not a declared idempotent", f"{path}[{i}]")
        out.append(alg.idempotents.index(name))
    return tuple(out)


def _document_payload(doc: Document) -> dict:
    kind, fld, value = doc.kind, doc.field, doc.value
    out = {"kind": kind, "field": _field_payload(fld)}
    if kind == "algebra":
        out["algebra"] = _algebra_payload(value)
        return out
    if kind == "representation":
        out["algebra"] = _algebra_payload(value.algebra)
        out.update(_rep_payload(value))
        return out
    if kind == "map":
        out["algebra"] = _algebra_payload(value.source.algebra)
        out["source"] = _rep_payload(value.source)
        out["target"] = _rep_payload(value.target)
        out["matrix"] = _matrix_payload(value.mat)
        return out
    if kind == "submodule":
        out["algebra"] = _algebra_payload(value.ambient.algebra)
        out["ambient"] = _rep_payload(value.ambient)
        out["basis"] = _matrix_payload(value.space.basis)
        return out
    if kind == "certificate":
        out["algebra"] = _algebra_payload(value.m.algebra)
        out["x"] = _rep_payload(value.x)
        out["m"] = _rep_payload(value.m)
        out["n"] = _rep_payload(value.n)
        out["f"] = _matrix_payload(value.f.mat)
        out["g"] = _matrix_payload(value.g.mat)
        out["q"] = _matrix_payload(value.q.mat)
        return out
    if kind == "ladder":
        out["algebra"] = _algebra_payload(value.m_chain.stages[0].algebra)
        out["x"] = [_rep_payload(r) for r in value.x]
        out["h"] = [_matrix_payload(m.mat) for m in value.h]
        out["m_stages"] = [_rep_payload(r) for r in value.m_chain.stages]
        out["m_inc"] = [_matrix_payload(m.mat) for m in value.m_chain.inclusions]
        out["n_stages"] = [_rep_payload(r) for r in value.n_chain.stages]
        out["n_inc"] = [_matrix_payload(m.mat) for m in value.n_chain.inclusions]
        out["f"] = [_matrix_payload(m.mat) for m in value.f]
        out["g"] = [_matrix_payload(m.mat) for m in value.g]
        out["q"] = [_matrix_payload(m.mat) for m in value.q]
        return out
    if kind == "series":
        out["algebra"] = _algebra_payload(value.ambient.algebra)
        out["ambient"] = _rep_payload(value.ambient)
        out["flags"] = [_matrix_payload(s.space.basis) for s in value.flags]
        out["factors"] = list(value.factor_names())
        return out
    if kind == "cvector":
        out["algebra"] = _algebra_payload(value.algebra)
        out["entries"] = list(value.names())
        return out
    raise ParseError(f"cannot print kind {kind!r}")


def format_document(doc: Document) -> str:
    """Canonical single-line rendering, newline terminated."""
    return json.dumps(_document_payload(doc), separators=(",", ":")) + "\n"


def document_for(value, fld=None) -> Document:
    """Wrap a library object in a Document, inferring its kind."""
    if isinstance(value, AlgebraPresentation):
        return Document("algebra", fld, value)
    if isinstance(value, Representation):
        return Document("representation", value.field, value)
    if isinstance(value, ModuleMap):
        return Document("map", value.source.field, value)
    if isinstance(value, Submodule):
        return Document("submodule", value.ambient.field, value)
    if isinstance(value, RiedtmannCertificate):
        return Document("certificate", value.m.field, value)
    if isinstance(value, LadderCertificate):
        return Document("ladder", value.m_chain.stages[0].field, value)
    if isinstance(value, CompositionSeries):
        return Document("series", value.ambient.field, value)
    if isinstance(value, CompositionVectorDoc):
        return Document("cvector", fld, value)
    raise TypeError(f"no document kind for {type(value).__name__}")
