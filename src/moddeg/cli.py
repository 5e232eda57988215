"""Command-line interface.

Every command reads and writes the JSON documents of ``io_json`` on file
paths (or ``-`` for stdin, one document per line) and exits with 0 for
success / verified-true, 1 for verified-false, and 2 for errors or
undecided outcomes; errors are reported as a structured JSON object on
stderr.

Each command is declared once, as an entry of ``COMMANDS``.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Callable, NamedTuple

from .errors import AlgebraMismatch, FieldMismatch, ModdegError, ParseError
from .algebras import Report, Representation, hom_dim, validate
from .degeneration import (codim, compose_certificates, hom_defect,
                           orbit_dim_gl, push_submodule, split_submodule,
                           verify_certificate, virtual_chain)
from .io_json import (CompositionVectorDoc, document_for, format_document,
                      parse_document)
from .ladders import (build_family, evaluate_family, make_monic,
                      orbit_dim_ud, psi_embed, verify_ladder)
from .oracles import (enum_submodules, nilpotent_degenerates,
                      nilpotent_rank_profile)
from .series import (TriangularRep, chain_to_triangular, composition_series,
                     composition_vector, series_isomorphic,
                     series_to_triangular, simultaneous_triangularize)

REP = "representation"


def _stdin_lines():
    """The lines of stdin, read when the first one is asked for."""
    yield from sys.stdin.read().splitlines()
    raise ParseError("expected another document on stdin")


def _load(path: str, kinds: tuple[str, ...], stdin, fields: set):
    """The value of the document of one of ``kinds`` at ``path`` (``-``: the
    next line of ``stdin``); its field is added to ``fields``."""
    try:
        if path == "-":
            text = next(stdin)
        else:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
    except UnicodeDecodeError as err:
        raise ParseError(f"not UTF-8 text ({err.reason})", path=path) from None
    doc = parse_document(text)
    if doc.kind not in kinds:
        raise ParseError(
            f"expected a {' or '.join(kinds)} document, got {doc.kind!r}",
            path=path)
    fields.add(doc.field)
    return doc.value


def _emit(result, fld) -> int:
    """Print a command's result and return its exit code.  A tuple prints
    item by item.  A Report prints as compact JSON; it, a bool or None that
    is false means verified false (exit 1).  Numbers, lists and dicts print
    as JSON, anything else as its document over ``fld``."""
    code = 0
    for item in result if isinstance(result, tuple) else (result,):
        if isinstance(item, Report):
            sys.stdout.write(json.dumps(item.as_dict(), separators=(",", ":")) + "\n")
            item = item.ok
        if item is None or isinstance(item, bool):
            code = 0 if item else 1
        elif isinstance(item, (int, list, dict)):
            sys.stdout.write(json.dumps(item) + "\n")
        else:
            sys.stdout.write(format_document(document_for(item, fld)))
    return code


def _vchain(cert, submodule):
    result = virtual_chain(cert, submodule)
    dims = [[n.dim, y.dim] for n, y in result.trace]
    return result.nfinal, result.yfinal, result.cert, {"trace_dims": dims}


def _deform(ladder, t, cvec):
    if cvec and cvec.algebra != ladder.m_chain.stages[0].algebra:
        raise AlgebraMismatch("composition vector is over another algebra")
    family = build_family(make_monic(ladder), cvec.entries if cvec else None)
    fld = ladder.m_chain.stages[0].field
    try:
        ts = [fld.parse(text.strip()) for text in t.split(",")]
    except ValueError as err:
        raise ParseError(str(err), path="--t") from None
    return tuple(evaluate_family(family, value).rep for value in ts)


def _psi(doc):
    if isinstance(doc, Representation):
        return psi_embed(TriangularRep(doc))
    return tuple(psi_embed(chain_to_triangular(chain))
                 for chain in (doc.m_chain, doc.n_chain))


def _oracle_nilp(m, n):
    ok = nilpotent_degenerates(m, n)
    return {"m_profile": list(nilpotent_rank_profile(m)),
            "n_profile": list(nilpotent_rank_profile(n)), "degenerates": ok}, ok


def _arg(name: str, *kinds: str, **options):
    """A command argument: a path to a document of one of ``kinds``, or a
    plain value when ``kinds`` is empty; ``options`` go to argparse."""
    return name, kinds, options


class Command(NamedTuple):
    help: str
    args: tuple      # _arg(..) per argument, documents in loading order
    run: Callable    # the parsed values, in argument order -> result to _emit


M, N = _arg("m", REP), _arg("n", REP)
CERT, SUB = _arg("cert", "certificate"), _arg("submodule", "submodule")
SERIES, LADDER = _arg("series", "series"), _arg("ladder", "ladder")

COMMANDS = {
    "validate": Command("check a representation's invariants",
                        (_arg("file", REP),), validate),
    "hom": Command("dimension of the intertwiner space", (M, N), hom_dim),
    "codim": Command("orbit codimension [N,N]-[M,M]", (M, N), codim),
    "orbit-dim": Command(
        "conjugation orbit dimension",
        (M, _arg("--ud", action="store_true",
                 help="use the upper-triangular group on a triangular input")),
        lambda m, ud: orbit_dim_ud(TriangularRep(m)) if ud else orbit_dim_gl(m)),
    "check-cert": Command("verify a degeneration certificate", (CERT,),
                          verify_certificate),
    "push-sub": Command("transport a submodule along a certificate",
                        (CERT, SUB), push_submodule),
    "split-sub": Command(
        "degenerate a submodule of a direct sum into factor parts",
        (_arg("x", REP), _arg("y", REP), SUB), split_submodule),
    "compose": Command("compose two certificates",
                       (_arg("c1", "certificate"), _arg("c2", "certificate")),
                       compose_certificates),
    "vchain": Command("descend a virtual degeneration to a submodule",
                      (CERT, SUB), _vchain),
    "hom-defect": Command(
        "[X,N]-[X,M] over test modules", (M, N, _arg("tests", REP, nargs="+")),
        lambda m, n, tests: hom_defect(m, n, tests).values),
    "series": Command("socle-based composition series", (M,),
                      composition_series),
    "triangularize": Command("series-adapted triangular form", (SERIES,),
                             lambda series: series_to_triangular(series).rep),
    "comp-vector": Command(
        "composition vector of a series", (SERIES,),
        lambda series: CompositionVectorDoc(series.ambient.algebra,
                                            composition_vector(series))),
    "sim-tri": Command(
        "simultaneous triangularization along matching series",
        (M, N, _arg("sm", "series"), _arg("sn", "series")),
        lambda m, n, sm, sn: tuple(
            t.rep for t in simultaneous_triangularize(m, n, sm, sn))),
    "series-iso": Command(
        "upper-triangular conjugacy of triangular representations",
        (_arg("a", REP), _arg("b", REP)),
        lambda a, b: series_isomorphic(TriangularRep(a), TriangularRep(b))),
    "check-ladder": Command("verify a ladder certificate", (LADDER,),
                            verify_ladder),
    "make-monic": Command("make the ladder's top row injective", (LADDER,),
                          make_monic),
    "deform": Command(
        "evaluate the deformation family",
        (LADDER, _arg("--t", required=True,
                      help="comma-separated parameter values"),
         _arg("--cvec", "cvector", help="composition-vector constraint document")),
        _deform),
    "psi": Command(
        "embed triangular data into the upper-triangular matrix algebra",
        (_arg("doc", REP, "ladder"),), _psi),
    "oracle-nilp": Command(
        "rank-profile degeneration test for one-generator nilpotents",
        (M, N), _oracle_nilp),
    "enum-subs": Command("enumerate all submodules over a small field", (M,),
                         lambda m: tuple(enum_submodules(m))),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="moddeg",
        description="exact computations with module degenerations")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for arg, _, options in command.args:
            p.add_argument(arg, **options)
    return parser


def main(argv=None) -> int:
    """Run one command: load its documents in argument order (which fixes
    the order they are read from stdin), check that they share one field,
    and emit the handler's result.  Errors print as JSON on stderr."""
    args = build_parser().parse_args(argv)
    command = COMMANDS[args.command]
    values, fields, stdin = [], set(), _stdin_lines()
    try:
        for name, kinds, _ in command.args:
            value = getattr(args, name.lstrip("-"))
            if kinds and isinstance(value, list):
                value = [_load(path, kinds, stdin, fields) for path in value]
            elif kinds and value is not None:
                value = _load(value, kinds, stdin, fields)
            values.append(value)
        if len(fields) > 1:
            raise FieldMismatch("documents use different ground fields")
        return _emit(command.run(*values), fields.pop())
    except (ModdegError, OSError) as err:
        name = "IOError" if isinstance(err, OSError) else type(err).__name__
        sys.stderr.write(json.dumps({"error": name, "message": str(err)}) + "\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
