"""The benchmark workloads: closed-loop ops on one client, with a check on
every output.

An op is one public moddeg call, one in-process CLI case, or one cold CLI
subprocess.  Ops look their target up in the moddeg module at call time,
so a traced run reaches the tracer's wrappers.  A check returns None when
the output is right and a description of the fault otherwise.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter

import exact
import gen


def lib(module: str, name: str):
    return getattr(importlib.import_module(f"moddeg.{module}"), name)


def plain(mat) -> list:
    return [list(row) for row in mat.data]


class Failure(Exception):
    """An op failed; the pipeline it belongs to cannot go on."""


class Runner:
    """Times each op, checks its output and keeps the tallies of one run.

    An op instance is one input of one round slot: the ``n``-th op with a
    given label after ``start_round(slot)``.  A run that repeats a slot
    times each of its instances once per repeat.  With a ``clock``, the
    host's speed is sampled between ops and latencies read at reference
    speed.  ``between_ops``, when set, runs before each op, untimed."""

    def __init__(self, tracer=None, clock=None):
        self.samples = {"qq": {}, "gf": {}}
        self.clock = clock
        self.between_ops = None
        self.timings: list[tuple[float, float]] = []
        self.slot = 0
        self.seen = Counter()
        self.busy = 0.0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.tracer = tracer

    def call(self, p, label, fn, *args, check=None):
        self.attempted += 1
        tag = gen.field_tag(p)
        key = (self.slot, label, self.seen[tag, label])
        self.seen[tag, label] += 1
        if self.between_ops is not None:
            self.between_ops()
        if self.clock is not None:
            self.clock.tick()
        span = self.tracer.begin_op(label) if self.tracer else None
        error = None
        start = time.perf_counter()
        try:
            out = fn(*args)
        except Exception as err:  # an unexpected raise is a failed op
            out, error = None, err
        elapsed = time.perf_counter() - start
        if span is not None:
            self.tracer.close(span)
        self.busy += elapsed
        self.timings.append((start, elapsed))
        if error is not None:
            problem = f"raised {type(error).__name__}: {error}"
        else:
            problem = check(out) if check else None
        if problem:
            self.failed += 1
            self.problems.append(f"{tag} {label}: {problem}")
            raise Failure(problem)
        self.samples[tag].setdefault(key, []).append((start, elapsed))
        return out

    def start_round(self, slot: int):
        self.slot = slot
        self.seen = Counter()

    def timed(self, start: float, elapsed: float) -> float:
        return elapsed if self.clock is None else self.clock.reference(start, elapsed)

    def latencies(self, tag: str) -> list:
        """One latency per op instance: the median over its repeats, so a
        transient stall of the host moves no instance by itself."""
        return [statistics.median([self.timed(*s) for s in v])
                for v in self.samples[tag].values()]

    def op_time(self) -> float:
        return sum(self.timed(*s) for s in self.timings)

    def sample_count(self, tag: str) -> int:
        return sum(len(v) for v in self.samples[tag].values())


# -- CLI cases -------------------------------------------------------------

def run_cli(case) -> tuple[int, str]:
    """One CLI case in this process, its documents fed on stdin."""
    saved = sys.stdin
    sys.stdin = io.StringIO("\n".join(case["docs"]) + "\n")
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = lib("cli", "main")(list(case["argv"]))
    finally:
        sys.stdin = saved
    return code, out.getvalue()


def check_cli(case, code: int, out: str):
    if code != case["expect_exit"]:
        return f"exit code {code}, expected {case['expect_exit']}"
    if case["expect_stdout"] is not None and out != case["expect_stdout"]:
        return f"stdout {out!r}, expected {case['expect_stdout']!r}"
    if case["expect_kinds"]:
        try:
            kinds = [json.loads(line)["kind"] for line in out.splitlines()]
        except (ValueError, KeyError, TypeError) as err:
            return f"stdout is not a document per line: {err}"
        if kinds != case["expect_kinds"]:
            return f"document kinds {kinds}, expected {case['expect_kinds']}"
    return None


def cold_cli(case, src: str) -> tuple[int, str, float, float]:
    """One CLI case in a fresh ``python -m moddeg.cli``; its start and
    wall time from spawn to exit."""
    env = dict(os.environ, PYTHONPATH=src)
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "moddeg.cli", *case["argv"]],
                          input="\n".join(case["docs"]) + "\n", env=env,
                          capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout, start, time.perf_counter() - start


def replay_cases(run: Runner, cases):
    for case in cases:
        try:
            run.call(case["field"], case["name"],
                     lambda c=case: run_cli(c),
                     check=lambda res, c=case: check_cli(c, *res))
        except Failure:
            pass


# -- golden-replay ---------------------------------------------------------

class GoldenReplay:
    """The shipped CLI replays in-process, over QQ and retyped to GF(101)."""

    min_rounds = 3
    cold_repeats = 1

    def __init__(self, seed: int, smoke: bool = False):
        self.seed = seed
        self.cases = gen.golden_cases()
        self.cold_cases = [c for c in self.cases if c["field"] is gen.QQ]

    def documents(self) -> list[str]:
        return [doc for case in self.cases for doc in case["docs"]]

    def prepare(self):
        pass

    def run_round(self, run: Runner, round_no: int):
        run.start_round(0)
        order = gen.golden_order(self.seed, round_no, len(self.cases))
        replay_cases(run, [self.cases[i] for i in order])


# -- hom-dense -------------------------------------------------------------

QUERIES = {"hom_dim": ("algebras", "hom_dim"),
           "hom_basis": ("algebras", "hom_basis"),
           "find_isomorphism": ("algebras", "find_isomorphism"),
           "codim": ("degeneration", "codim"),
           "orbit_dim_gl": ("degeneration", "orbit_dim_gl"),
           "hom_defect": ("degeneration", "hom_defect")}


def _check_hom_op(op, out):
    p, expect, mats = op["field"], op["expect"], op["mats"]
    query = op["query"]
    if query in ("hom_dim", "codim", "orbit_dim_gl"):
        return None if out == expect else f"got {out}, expected {expect}"
    if query == "hom_defect":
        return None if out.values == expect else f"got {out.values}, expected {expect}"
    if query == "hom_basis":
        if len(out) != expect:
            return f"{len(out)} basis maps, expected {expect}"
        hs = [plain(h.mat) for h in out]
        if not all(exact.intertwines(h, mats[0], mats[1], p) for h in hs):
            return "a basis map does not intertwine"
        if exact.rank([[v for row in h for v in row] for h in hs], p) != len(hs):
            return "basis maps are linearly dependent"
        return None
    # find_isomorphism on a conjugate pair
    if out is None:
        return "no isomorphism found between conjugate modules"
    h = plain(out.mat)
    if exact.rank(h, p) != len(h):
        return "witness is not invertible"
    if not exact.intertwines(h, mats[0], mats[1], p):
        return "witness does not intertwine"
    return None


class HomDense:
    """Intertwiner queries on conjugated Jordan modules and random Kronecker
    representations, over QQ and GF(101).  The rounds share one op mix on
    distinct inputs; a run that fits more than ``min_rounds`` repeats them
    from the first."""

    min_rounds = 5
    cold_repeats = 3

    def __init__(self, seed: int, smoke: bool = False):
        self.rounds = [gen.hom_round(seed, r, smoke)
                       for r in range(1 if smoke else self.min_rounds)]
        self.cold_cases = gen.hom_cold_cases(seed)

    def documents(self) -> list[str]:
        return [doc for ops in self.rounds for op in ops for doc in op["docs"]]

    def prepare(self):
        parse = lib("io_json", "parse_document")
        for ops in self.rounds:
            for op in ops:
                op["values"] = [parse(doc).value for doc in op["docs"]]

    def run_round(self, run: Runner, round_no: int):
        run.start_round(round_no % len(self.rounds))
        for op in self.rounds[round_no % len(self.rounds)]:
            args = op["values"]
            if op["query"] == "hom_defect":
                args = [*args[:2], args[2:]]
            try:
                run.call(op["field"], op["label"], lib(*QUERIES[op["query"]]),
                         *args, check=lambda out, o=op: _check_hom_op(o, out))
            except Failure:
                pass


# -- flag-ladder -----------------------------------------------------------

def _report_ok(report):
    return None if report.ok else f"report fails: {[i.name for i in report.failures()]}"


def _dim_is(expected):
    return lambda obj: None if obj.dim == expected else f"dim {obj.dim}, expected {expected}"


def _certificate_ok(cert, p):
    """Independent check of a certificate's exactness conditions."""
    mats = {slot: [plain(m) for m in getattr(cert, slot).mats] for slot in "xmn"}
    middle = [gen.block_diag(a, b) for a, b in zip(mats["x"], mats["m"])]
    f, g, q = plain(cert.f.mat), plain(cert.g.mat), plain(cert.q.mat)
    column = f + g
    dx, dn = cert.x.dim, cert.n.dim
    if cert.m.dim != dn:
        return "dim M differs from dim N"
    if dx and not (exact.intertwines(f, mats["x"], mats["x"], p)
                   and exact.intertwines(g, mats["x"], mats["m"], p)):
        return "f or g does not intertwine"
    if not exact.intertwines(q, middle, mats["n"], p):
        return "q does not intertwine"
    if dx and exact.rank(column, p) != dx:
        return "column map is not injective"
    if exact.rank(q, p) != dn:
        return "q is not surjective"
    if dx and any(exact.reduce(v, p) for row in exact.matmul(q, column, p) for v in row):
        return "q o (f; g) is not zero"
    return None


def _witness_ok(a, b, p):
    def check(w):
        if w is None:
            return "no series isomorphism found"
        h = plain(w.mat)
        if not exact.is_upper_triangular(h, p) or any(
                exact.reduce(h[i][i], p) == 0 for i in range(len(h))):
            return "witness is not invertible upper triangular"
        if not exact.intertwines(h, [plain(m) for m in a.rep.mats],
                                 [plain(m) for m in b.rep.mats], p):
            return "witness does not intertwine"
        return None
    return check


def assemble_ladder(cert, flags, pushes):
    """The ladder whose columns are the pushed certificates: X'_i recomputed
    as the preimage fixed point, h_i the inclusions X'_i in X'_{i+1}."""
    preimage, solve_right = lib("linalg", "preimage"), lib("linalg", "solve_right")
    module_map, chain = lib("algebras", "ModuleMap"), lib("series", "ModuleChain")
    xs = []
    for flag in flags:
        space = preimage(cert.g.mat, flag.space)
        while True:
            refined = space.intersect(preimage(cert.f.mat, space))
            if refined == space:
                break
            space = refined
        xs.append(space)

    def inclusions(spaces):
        return [solve_right(big.basis, small.basis)
                for small, big in zip(spaces, spaces[1:])]

    def border(stages, spaces):
        maps = [module_map(s, t, mat) for s, t, mat
                in zip(stages, stages[1:], inclusions(spaces))]
        return chain(tuple(stages), tuple(maps))

    cols = [pu.cert for pu in pushes]
    return lib("ladders", "ladder_from_columns")(
        border([c.m for c in cols], [f.space for f in flags]),
        border([c.n for c in cols], [pu.nprime.space for pu in pushes]),
        [c.x for c in cols], inclusions(xs), [c.f.mat for c in cols],
        [c.g.mat for c in cols], [c.q.mat for c in cols])


def ladder_pipeline(run: Runner, pipe: dict):
    """Certificate -> flags -> ladder -> deformation family, step by step."""
    p, d = pipe["field"], pipe["d"]
    cert, vcert, mprime = pipe["values"]

    def call(label, module, name, *args, check=None):
        return run.call(p, f"{label} d{d}", lib(module, name), *args, check=check)

    call("verify_certificate", "degeneration", "verify_certificate", cert,
         check=_report_ok)
    series = call("composition_series", "series", "composition_series", cert.m,
                  check=lambda s: None if s.length == d else f"length {s.length}")
    pushes = [call("push_submodule", "degeneration", "push_submodule", cert, flag,
                   check=lambda pu, i=i: _dim_is(i + 1)(pu.nprime))
              for i, flag in enumerate(series.flags)]
    lc = run.call(p, f"assemble_ladder d{d}", assemble_ladder,
                  cert, series.flags, pushes)
    call("verify_ladder", "ladders", "verify_ladder", lc, check=_report_ok)
    monic = call("make_monic", "ladders", "make_monic", lc, check=lambda m: next(
        (f"h_{i + 1} is not injective" for i, h in enumerate(m.h)
         if exact.rank(plain(h.mat), p) != h.source.dim), None))
    family = call("build_family", "ladders", "build_family", monic,
                  check=lambda f: None if f.basis.cols == d else "basis size")
    members = {t: call(f"evaluate_family t={t}", "ladders", "evaluate_family",
                       family, t, check=lambda m: None if m.dim == d and
                       exact.is_upper_triangular(plain(m.rep.mats[1]), p)
                       else "member is not a triangular d-dimensional module")
               for t in (0, 1, 2)}
    top = call("chain_to_triangular", "series", "chain_to_triangular", lc.m_chain)
    bottom = call("chain_to_triangular", "series", "chain_to_triangular", lc.n_chain)
    call("series_isomorphic t=1 top", "series", "series_isomorphic",
         members[1], top, check=_witness_ok(members[1], top, p))
    call("series_isomorphic t=0 bottom", "series", "series_isomorphic",
         members[0], bottom, check=_witness_ok(members[0], bottom, p))
    call("series_isomorphic t=0 top", "series", "series_isomorphic",
         members[0], top, check=lambda w: None if w is None
         else "t=0 member is series-isomorphic to the top border")
    size = d * (d + 1) // 2
    for border in (top, bottom):
        call("psi_embed", "ladders", "psi_embed", border, check=_dim_is(size))
    top_dim = call("orbit_dim_ud", "ladders", "orbit_dim_ud", top)
    call("orbit_dim_ud", "ladders", "orbit_dim_ud", bottom,
         check=lambda v: None if top_dim > v
         else f"orbit_dim_ud(top) = {top_dim} is not above {v}")

    def chain_ok(res):
        if res.nfinal.dim != pipe["mprime_dim"] or res.yfinal.dim != gen.Y_BLOCK:
            return f"final dims {res.nfinal.dim}, {res.yfinal.dim}"
        return _certificate_ok(res.cert, p)
    call("virtual_chain", "degeneration", "virtual_chain", vcert, mprime,
         check=chain_ok)


class FlagLadder:
    """The paper's pipeline on block sums of short-exact-sequence
    certificates, over QQ and GF(32003).  Every round runs the same
    pipelines, so a run's op mix does not depend on how many rounds fit."""

    min_rounds = 3
    cold_repeats = 3

    def __init__(self, seed: int, smoke: bool = False):
        self.pipelines = gen.ladder_round(seed, smoke)
        self.cold_cases = gen.ladder_cold_cases(self.pipelines)

    def documents(self) -> list[str]:
        return [pipe[key] for pipe in self.pipelines
                for key in ("cert", "vcert", "mprime")]

    def prepare(self):
        parse = lib("io_json", "parse_document")
        for pipe in self.pipelines:
            pipe["values"] = [parse(pipe[key]).value
                              for key in ("cert", "vcert", "mprime")]
            problem = _certificate_ok(pipe["values"][0], pipe["field"])
            if problem:
                raise ValueError(f"generated certificate is wrong: {problem}")

    def run_round(self, run: Runner, round_no: int):
        run.start_round(0)
        for pipe in self.pipelines:
            try:
                ladder_pipeline(run, pipe)
            except Failure:
                pass


WORKLOADS = {"golden-replay": GoldenReplay, "hom-dense": HomDense,
             "flag-ladder": FlagLadder}
