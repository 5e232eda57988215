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
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .errors import ParseError
from .fields import GF, INT_RE, QQ
from .algebras import (AlgebraPresentation, ModuleMap, Representation,
                       Submodule)
from .degeneration import RiedtmannCertificate
from .linalg import Matrix, Subspace, row_from_dense
from .series import CompositionSeries, ModuleChain
from .ladders import LadderCertificate, ladder_from_columns


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


# A JSON integer is read by ``type(v) is int``: true and false load as
# bools, which ``isinstance(v, int)`` accepts, and 1 and 1.0 equal True.

def _parse_field(obj, path: str):
    if obj == {"rationals": True} and obj["rationals"] is True:
        return QQ
    if isinstance(obj, dict) and set(obj) == {"p"} and type(obj["p"]) is int:
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
    # Each distinct scalar string is parsed once; anything else goes to
    # ``_parse_scalar``, which fails on it with its path.
    parsed = {}
    entries = []
    for i, row in enumerate(obj):
        if not isinstance(row, list) or len(row) != cols:
            _fail(f"row {i} must have {cols} entries", f"{path}[{i}]")
        values = []
        for j, text in enumerate(row):
            if not (isinstance(text, str) and text in parsed):
                parsed[text] = _parse_scalar(text, fld, f"{path}[{i}][{j}]")
            values.append(parsed[text])
        entries.append(row_from_dense(values))
    return Matrix(fld, rows, cols, entries)


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
            if not INT_RE.match(term[0]):
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
    if type(dim) is not int or dim < 0:
        _fail("dim must be a nonnegative integer", path + ".dim")
    mats = obj["mats"]
    if not isinstance(mats, list) or len(mats) != len(alg.generators):
        _fail("one matrix per generator required", path + ".mats")
    parsed = tuple(_parse_matrix(m, fld, dim, dim, f"{path}.mats[{i}]")
                   for i, m in enumerate(mats))
    return Representation(alg, fld, dim, parsed)


def _parse_map(obj, alg, fld, path) -> ModuleMap:
    src = _parse_rep(obj["source"], alg, fld, path + ".source")
    tgt = _parse_rep(obj["target"], alg, fld, path + ".target")
    mat = _parse_matrix(obj["matrix"], fld, tgt.dim, src.dim, path + ".matrix")
    return ModuleMap(src, tgt, mat)


def _parse_submodule(obj, alg, fld, path) -> Submodule:
    amb = _parse_rep(obj["ambient"], alg, fld, path + ".ambient")
    basis = _parse_matrix(obj["basis"], fld, amb.dim, None, path + ".basis")
    return Submodule(amb, Subspace.from_columns(basis))


def _parse_certificate(obj, alg, fld, path) -> RiedtmannCertificate:
    x = _parse_rep(obj["x"], alg, fld, path + ".x")
    m = _parse_rep(obj["m"], alg, fld, path + ".m")
    n = _parse_rep(obj["n"], alg, fld, path + ".n")
    f = _parse_matrix(obj["f"], fld, x.dim, x.dim, path + ".f")
    g = _parse_matrix(obj["g"], fld, m.dim, x.dim, path + ".g")
    q = _parse_matrix(obj["q"], fld, n.dim, x.dim + m.dim, path + ".q")
    return RiedtmannCertificate.build(x, m, n, f, g, q)


def _parse_ladder(obj, alg, fld, path) -> LadderCertificate:
    if not isinstance(obj["x"], list):
        _fail("x must be a list of representations", path + ".x")
    if not obj["x"]:
        _fail("a ladder needs at least one column", path + ".x")
    xs = [_parse_rep(o, alg, fld, f"{path}.x[{i}]") for i, o in enumerate(obj["x"])]
    d = len(xs)

    def chain(stage_key, inc_key):
        if not isinstance(obj[stage_key], list):
            _fail(f"{stage_key} must have {d} stages", f"{path}.{stage_key}")
        stages = [_parse_rep(o, alg, fld, f"{path}.{stage_key}[{i}]")
                  for i, o in enumerate(obj[stage_key])]
        if len(stages) != d:
            _fail(f"{stage_key} must have {d} stages", f"{path}.{stage_key}")
        incs = obj[inc_key]
        if not isinstance(incs, list) or len(incs) != d - 1:
            _fail(f"{inc_key} must have {d - 1} maps", f"{path}.{inc_key}")
        maps = tuple(
            ModuleMap(stages[i], stages[i + 1],
                      _parse_matrix(incs[i], fld, stages[i + 1].dim,
                                    stages[i].dim, f"{path}.{inc_key}[{i}]"))
            for i in range(d - 1))
        return ModuleChain(tuple(stages), maps)

    m_chain = chain("m_stages", "m_inc")
    n_chain = chain("n_stages", "n_inc")
    for key, count in (("h", d - 1), ("f", d), ("g", d), ("q", d)):
        if not isinstance(obj[key], list) or len(obj[key]) != count:
            _fail(f"{key} must have {count} matrices", f"{path}.{key}")
    h = [_parse_matrix(obj["h"][i], fld, xs[i + 1].dim, xs[i].dim, f"{path}.h[{i}]")
         for i in range(d - 1)]
    f = [_parse_matrix(obj["f"][i], fld, xs[i].dim, xs[i].dim, f"{path}.f[{i}]")
         for i in range(d)]
    g = [_parse_matrix(obj["g"][i], fld, m_chain.stages[i].dim, xs[i].dim,
                       f"{path}.g[{i}]") for i in range(d)]
    q = [_parse_matrix(obj["q"][i], fld, n_chain.stages[i].dim,
                       xs[i].dim + m_chain.stages[i].dim, f"{path}.q[{i}]")
         for i in range(d)]
    return ladder_from_columns(m_chain, n_chain, xs, h, f, g, q)


def _parse_series(obj, alg, fld, path) -> CompositionSeries:
    """A composition series, checked: flag i is an invariant subspace of
    dimension i + 1 that contains flag i - 1, and factor i names the
    idempotent e with (e - 1) flag i inside flag i - 1."""
    amb = _parse_rep(obj["ambient"], alg, fld, path + ".ambient")
    flags = obj["flags"]
    if not isinstance(flags, list) or len(flags) != amb.dim:
        _fail(f"flags must have {amb.dim} entries", path + ".flags")
    subs = []
    for i in range(amb.dim):
        fpath = f"{path}.flags[{i}]"
        sub = Submodule(amb, Subspace.from_columns(
            _parse_matrix(flags[i], fld, amb.dim, i + 1, fpath)))
        if sub.dim != i + 1:
            _fail(f"flag has dimension {sub.dim}, not {i + 1}", fpath)
        if subs and not sub.space.contains(subs[-1].space):
            _fail("flag does not contain the previous flag", fpath)
        if not sub.is_invariant():
            _fail("flag is not invariant under the algebra action", fpath)
        subs.append(sub)
    factors = _parse_factor_names(obj["factors"], alg, amb.dim, path + ".factors")
    prev = Subspace.zero(fld, amb.dim)
    for i, (sub, pos) in enumerate(zip(subs, factors)):
        shift = amb.mats[alg.idempotent_indices[pos]] - Matrix.identity(fld, amb.dim)
        if prev.coordinates(shift @ sub.space.basis) is None:
            _fail(f"{alg.idempotents[pos]!r} does not act as the identity on "
                  "the flag modulo the previous flag", f"{path}.factors[{i}]")
        prev = sub.space
    return CompositionSeries(amb, tuple(subs), factors)


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


def _encode(value):
    """The JSON form of a payload value: a representation as its dimension
    and matrices, a module map as its matrix."""
    if isinstance(value, Representation):
        return {"dim": value.dim, "mats": _encode(value.mats)}
    if isinstance(value, ModuleMap):
        return _encode(value.mat)
    if isinstance(value, Matrix):
        return [[value.field.fmt(v) for v in row] for row in value.data]
    if isinstance(value, (tuple, list)):
        return [_encode(v) for v in value]
    return value


class _Kind(NamedTuple):
    """How one document kind maps to a library value and back."""

    type: type                # the class of the value
    keys: tuple[str, ...]     # payload keys after kind, field and algebra
    context: Callable         # value -> (field or None, algebra)
    parse: Callable           # (payload, algebra, field, JSON path) -> value
    payload: Callable         # value -> payload values in key order


_KINDS = {
    "algebra": _Kind(
        AlgebraPresentation, (), lambda alg: (None, alg),
        lambda obj, alg, fld, path: alg, lambda alg: ()),
    "representation": _Kind(
        Representation, ("dim", "mats"), lambda rep: (rep.field, rep.algebra),
        _parse_rep, lambda rep: (rep.dim, rep.mats)),
    "map": _Kind(
        ModuleMap, ("source", "target", "matrix"),
        lambda m: (m.source.field, m.source.algebra), _parse_map,
        lambda m: (m.source, m.target, m)),
    "submodule": _Kind(
        Submodule, ("ambient", "basis"),
        lambda sub: (sub.ambient.field, sub.ambient.algebra), _parse_submodule,
        lambda sub: (sub.ambient, sub.space.basis)),
    "certificate": _Kind(
        RiedtmannCertificate, ("x", "m", "n", "f", "g", "q"),
        lambda c: (c.m.field, c.m.algebra), _parse_certificate,
        lambda c: (c.x, c.m, c.n, c.f, c.g, c.q)),
    "ladder": _Kind(
        LadderCertificate, ("x", "h", "m_stages", "m_inc", "n_stages", "n_inc",
                            "f", "g", "q"),
        lambda lc: (lc.m_chain.stages[0].field, lc.m_chain.stages[0].algebra),
        _parse_ladder,
        lambda lc: (lc.x, lc.h, lc.m_chain.stages, lc.m_chain.inclusions,
                    lc.n_chain.stages, lc.n_chain.inclusions, lc.f, lc.g, lc.q)),
    "series": _Kind(
        CompositionSeries, ("ambient", "flags", "factors"),
        lambda s: (s.ambient.field, s.ambient.algebra), _parse_series,
        lambda s: (s.ambient, [sub.space.basis for sub in s.flags],
                   s.factor_names())),
    "cvector": _Kind(
        CompositionVectorDoc, ("entries",), lambda vec: (None, vec.algebra),
        lambda obj, alg, fld, path: CompositionVectorDoc(
            alg, _parse_factor_names(obj["entries"], alg, None, path + ".entries")),
        lambda vec: (vec.names(),)),
}


def parse_document(text: str) -> Document:
    """Parse one JSON document; raises ParseError with position info."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as err:
        raise ParseError(err.msg, line=err.lineno, column=err.colno) from err
    if not isinstance(obj, dict) or "kind" not in obj:
        _fail('top level must be an object with a "kind"', "$")
    kind = obj["kind"]
    if not isinstance(kind, str) or kind not in _KINDS:
        _fail(f"unknown kind {kind!r}", "$.kind")
    spec = _KINDS[kind]
    _expect_keys(obj, ("kind", "field", "algebra") + spec.keys, "$")
    fld = _parse_field(obj["field"], "$.field")
    alg = _parse_algebra(obj["algebra"], "$.algebra")
    payload = {key: obj[key] for key in spec.keys}
    return Document(kind, fld, spec.parse(payload, alg, fld, "$"))


def format_document(doc: Document) -> str:
    """Canonical single-line rendering, newline terminated."""
    spec = _KINDS[doc.kind]
    out = {"kind": doc.kind, "field": _field_payload(doc.field),
           "algebra": _algebra_payload(spec.context(doc.value)[1])}
    out.update(zip(spec.keys, map(_encode, spec.payload(doc.value))))
    return json.dumps(out, separators=(",", ":")) + "\n"


def document_for(value, fld=None) -> Document:
    """Wrap a library object in a Document, inferring its kind; ``fld`` is
    the field of the kinds whose value carries none (algebra, cvector)."""
    for kind, spec in _KINDS.items():
        if isinstance(value, spec.type):
            fld = spec.context(value)[0] or fld
            if fld is None:
                raise TypeError(f"a {kind} document needs a field")
            return Document(kind, fld, value)
    raise TypeError(f"no document kind for {type(value).__name__}")
