"""Command-line interface.

Every command reads and writes the JSON documents of ``io_json`` on file
paths (or ``-`` for stdin, one document per line) and exits with 0 for
success / verified-true, 1 for verified-false, and 2 for errors or
undecided outcomes; errors are reported as a structured JSON object on
stderr.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import FieldMismatch, ModdegError, ParseError
from .algebras import hom_dim, validate
from .degeneration import (codim, compose_certificates, hom_defect,
                           orbit_dim_gl, push_submodule, split_submodule,
                           verify_certificate, virtual_chain)
from .io_json import (CompositionVectorDoc, Document, document_for,
                      format_document, parse_document)
from .ladders import (build_family, evaluate_family, make_monic,
                      orbit_dim_ud, psi_embed, verify_ladder)
from .oracles import (enum_submodules, nilpotent_degenerates,
                      nilpotent_rank_profile)
from .series import (TriangularRep, chain_to_triangular, composition_series,
                     composition_vector, series_isomorphic,
                     series_to_triangular, simultaneous_triangularize)


class _DocSource:
    """Loads documents from paths, reading stdin lazily line by line."""

    def __init__(self):
        self._stdin_lines = None

    def load(self, path: str) -> Document:
        if path == "-":
            if self._stdin_lines is None:
                self._stdin_lines = iter(sys.stdin.read().splitlines())
            try:
                text = next(self._stdin_lines)
            except StopIteration:
                raise ParseError("expected another document on stdin")
        else:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
        return parse_document(text)

    def expect(self, path: str, *kinds: str):
        doc = self.load(path)
        if doc.kind not in kinds:
            raise ParseError(
                f"expected a {' or '.join(kinds)} document, got {doc.kind!r}",
                path=path)
        return doc


def _emit(value):
    sys.stdout.write(format_document(document_for(value)))


def _emit_report(report) -> int:
    sys.stdout.write(json.dumps(report.as_dict(), separators=(",", ":")) + "\n")
    return 0 if report.ok else 1


def _check_same_field(*docs):
    fields = {doc.field for doc in docs}
    if len(fields) > 1:
        raise FieldMismatch("documents use different ground fields")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="moddeg",
        description="exact computations with module degenerations")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for randomized searches")
    parser.add_argument("--max-trials", type=int, default=32,
                        help="trial bound for randomized searches")
    sub = parser.add_subparsers(dest="command", required=True)

    def cmd(name, *args, **kwargs):
        p = sub.add_parser(name, **kwargs)
        for spec in args:
            p.add_argument(spec)
        return p

    cmd("validate", "file", help="check a representation's invariants")
    cmd("hom", "m", "n", help="dimension of the intertwiner space")
    cmd("codim", "m", "n", help="orbit codimension [N,N]-[M,M]")
    p = cmd("orbit-dim", "m", help="conjugation orbit dimension")
    p.add_argument("--ud", action="store_true",
                   help="use the upper-triangular group on a triangular input")
    cmd("check-cert", "cert", help="verify a degeneration certificate")
    cmd("push-sub", "cert", "submodule",
        help="transport a submodule along a certificate")
    cmd("split-sub", "x", "y", "submodule",
        help="degenerate a submodule of a direct sum into factor parts")
    cmd("compose", "c1", "c2", help="compose two certificates")
    cmd("vchain", "cert", "submodule",
        help="descend a virtual degeneration to a submodule")
    p = cmd("hom-defect", "m", "n", help="[X,N]-[X,M] over test modules")
    p.add_argument("tests", nargs="+")
    cmd("series", "m", help="socle-based composition series")
    cmd("triangularize", "series", help="series-adapted triangular form")
    cmd("comp-vector", "series", help="composition vector of a series")
    cmd("sim-tri", "m", "n", "sm", "sn",
        help="simultaneous triangularization along matching series")
    cmd("series-iso", "a", "b",
        help="upper-triangular conjugacy of triangular representations")
    cmd("check-ladder", "ladder", help="verify a ladder certificate")
    cmd("make-monic", "ladder", help="make the ladder's top row injective")
    p = cmd("deform", "ladder", help="evaluate the deformation family")
    p.add_argument("--t", required=True,
                   help="comma-separated parameter values")
    p.add_argument("--cvec", help="composition-vector constraint document")
    cmd("psi", "doc",
        help="embed triangular data into the upper-triangular matrix algebra")
    cmd("oracle-nilp", "m", "n",
        help="rank-profile degeneration test for one-generator nilpotents")
    cmd("enum-subs", "m", help="enumerate all submodules over a small field")
    return parser


def _run(args, src: _DocSource) -> int:
    command = args.command

    if command == "validate":
        rep = src.expect(args.file, "representation").value
        return _emit_report(validate(rep))

    if command == "hom":
        md, nd = src.expect(args.m, "representation"), src.expect(args.n, "representation")
        _check_same_field(md, nd)
        sys.stdout.write(f"{hom_dim(md.value, nd.value)}\n")
        return 0

    if command == "codim":
        md, nd = src.expect(args.m, "representation"), src.expect(args.n, "representation")
        _check_same_field(md, nd)
        sys.stdout.write(f"{codim(md.value, nd.value)}\n")
        return 0

    if command == "orbit-dim":
        rep = src.expect(args.m, "representation").value
        if args.ud:
            sys.stdout.write(f"{orbit_dim_ud(TriangularRep(rep))}\n")
        else:
            sys.stdout.write(f"{orbit_dim_gl(rep)}\n")
        return 0

    if command == "check-cert":
        cert = src.expect(args.cert, "certificate").value
        return _emit_report(verify_certificate(cert))

    if command == "push-sub":
        cd = src.expect(args.cert, "certificate")
        sd = src.expect(args.submodule, "submodule")
        _check_same_field(cd, sd)
        result = push_submodule(cd.value, sd.value)
        _emit(result.nprime)
        _emit(result.cert)
        return 0

    if command == "split-sub":
        xd = src.expect(args.x, "representation")
        yd = src.expect(args.y, "representation")
        sd = src.expect(args.submodule, "submodule")
        _check_same_field(xd, yd, sd)
        result = split_submodule(xd.value, yd.value, sd.value)
        _emit(result.xprime)
        _emit(result.yprime)
        _emit(result.cert)
        return 0

    if command == "compose":
        c1 = src.expect(args.c1, "certificate")
        c2 = src.expect(args.c2, "certificate")
        _check_same_field(c1, c2)
        _emit(compose_certificates(c1.value, c2.value))
        return 0

    if command == "vchain":
        cd = src.expect(args.cert, "certificate")
        sd = src.expect(args.submodule, "submodule")
        _check_same_field(cd, sd)
        result = virtual_chain(cd.value, sd.value)
        _emit(result.nfinal)
        _emit(result.yfinal)
        _emit(result.cert)
        dims = [[n.dim, y.dim] for n, y in result.trace]
        sys.stdout.write(json.dumps({"trace_dims": dims}) + "\n")
        return 0

    if command == "hom-defect":
        md = src.expect(args.m, "representation")
        nd = src.expect(args.n, "representation")
        tests = [src.expect(t, "representation") for t in args.tests]
        _check_same_field(md, nd, *tests)
        report = hom_defect(md.value, nd.value, [t.value for t in tests])
        sys.stdout.write(json.dumps(report.values) + "\n")
        return 0

    if command == "series":
        rep = src.expect(args.m, "representation").value
        _emit(composition_series(rep))
        return 0

    if command == "triangularize":
        series = src.expect(args.series, "series").value
        _emit(series_to_triangular(series).rep)
        return 0

    if command == "comp-vector":
        series = src.expect(args.series, "series").value
        vec = CompositionVectorDoc(series.ambient.algebra,
                                   composition_vector(series))
        sys.stdout.write(format_document(
            Document("cvector", series.ambient.field, vec)))
        return 0

    if command == "sim-tri":
        md = src.expect(args.m, "representation")
        nd = src.expect(args.n, "representation")
        smd = src.expect(args.sm, "series")
        snd = src.expect(args.sn, "series")
        _check_same_field(md, nd, smd, snd)
        tm, tn = simultaneous_triangularize(md.value, nd.value,
                                            smd.value, snd.value)
        _emit(tm.rep)
        _emit(tn.rep)
        return 0

    if command == "series-iso":
        ad = src.expect(args.a, "representation")
        bd = src.expect(args.b, "representation")
        _check_same_field(ad, bd)
        witness = series_isomorphic(TriangularRep(ad.value),
                                    TriangularRep(bd.value))
        if witness is None:
            return 1
        _emit(witness)
        return 0

    if command == "check-ladder":
        ladder = src.expect(args.ladder, "ladder").value
        return _emit_report(verify_ladder(ladder))

    if command == "make-monic":
        ladder = src.expect(args.ladder, "ladder").value
        _emit(make_monic(ladder))
        return 0

    if command == "deform":
        ld = src.expect(args.ladder, "ladder")
        constraint = None
        if args.cvec:
            cd = src.expect(args.cvec, "cvector")
            _check_same_field(ld, cd)
            constraint = cd.value.entries
        family = build_family(make_monic(ld.value), constraint)
        try:
            ts = [ld.field.parse(text.strip()) for text in args.t.split(",")]
        except ValueError as err:
            raise ParseError(str(err), path="--t") from None
        for t in ts:
            _emit(evaluate_family(family, t).rep)
        return 0

    if command == "psi":
        doc = src.expect(args.doc, "representation", "ladder")
        if doc.kind == "representation":
            _emit(psi_embed(TriangularRep(doc.value)))
        else:
            for chain in (doc.value.m_chain, doc.value.n_chain):
                _emit(psi_embed(chain_to_triangular(chain)))
        return 0

    if command == "oracle-nilp":
        md = src.expect(args.m, "representation")
        nd = src.expect(args.n, "representation")
        _check_same_field(md, nd)
        ok = nilpotent_degenerates(md.value, nd.value)
        sys.stdout.write(json.dumps({
            "m_profile": list(nilpotent_rank_profile(md.value)),
            "n_profile": list(nilpotent_rank_profile(nd.value)),
            "degenerates": ok}) + "\n")
        return 0 if ok else 1

    if command == "enum-subs":
        rep = src.expect(args.m, "representation").value
        for sub in enum_submodules(rep):
            _emit(sub)
        return 0

    raise ModdegError(f"unhandled command {command!r}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _run(args, _DocSource())
    except ModdegError as err:
        payload = {"error": type(err).__name__, "message": str(err)}
        sys.stderr.write(json.dumps(payload) + "\n")
        return 2
    except OSError as err:
        sys.stderr.write(json.dumps(
            {"error": "IOError", "message": str(err)}) + "\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
