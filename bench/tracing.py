"""Per-layer tracing of moddeg from outside the library.

Only a traced run installs anything.  ``install_spans`` wraps the public
functions named in ``FUNCTIONS``, rebinding each wrapper in every
``moddeg`` module namespace that holds the original, and the methods in
``METHODS`` on their classes.  Each wrapped call records a span (name, op,
parent, start, end) in flat arrays held in memory; ``write_spans`` writes
them once, at the end.  The statistics a wrapper gathers after a call run
inside a child span named ``trace``, so they do not count as the caller's
own time.

``install_counters`` patches the field classes' arithmetic with call
counters.  It is meant for a pass of its own: a counter on every scalar
operation would swamp the self times of the kernels that call them.

A layer's self time is the total of its spans' durations minus the time
covered by their direct child spans.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
import time
from array import array
from collections import Counter, defaultdict


def _matmul_stats(tr, args, out, err):
    """Multiply-adds, and how many of them have both factors nonzero."""
    a, b = args
    if err is not None:
        return
    madds = a.rows * a.cols * b.cols
    tr.counts["linalg.matmul.madds"] += madds
    tr.counts["linalg.matmul.cells"] += madds
    col_nnz = [0] * a.cols
    for row in a.data:
        for k, v in enumerate(row):
            if v:
                col_nnz[k] += 1
    useful = sum(c * sum(1 for v in b.data[k] if v) for k, c in enumerate(col_nnz) if c)
    tr.counts["linalg.matmul.nonzero"] += useful


def _bits(v) -> int:
    num = getattr(v, "numerator", v)
    den = getattr(v, "denominator", 1)
    return max(int(num).bit_length(), int(den).bit_length())


def _rref_stats(tr, args, out, err):
    """Input cells and nonzeros, rank, and the widest output entry in bits
    (numerator or denominator), which shows coefficient growth."""
    (m,) = args
    if err is not None:
        return
    tr.counts["linalg.rref.cells"] += m.rows * m.cols
    tr.counts["linalg.rref.nonzero"] += sum(1 for row in m.data for v in row if v)
    echelon, rank, _ = out
    tr.counts["linalg.rref.rank_sum"] += rank
    top = max((_bits(v) for row in echelon.data for v in row), default=0)
    tr.maxima["linalg.rref.entry_bits_max"] = max(
        tr.maxima.get("linalg.rref.entry_bits_max", 0), top)


def _system_stats(name):
    def stats(tr, args, out, err):
        m, n = args[:2]
        unknowns = m.dim * n.dim
        tr.counts[f"{name}.system_cells"] += len(m.mats) * unknowns * unknowns
    return stats


def _raised(name, stat, error_name):
    def stats(tr, args, out, err):
        if err is not None and type(err).__name__ == error_name:
            tr.counts[f"{name}.{stat}"] += 1
    return stats


def _chain_stats(tr, args, out, err):
    if err is None:
        tr.counts["degeneration.virtual_chain.rounds"] += len(out.trace)


def _monic_stats(tr, args, out, err):
    if err is None:
        tr.counts["ladders.make_monic.replacements"] += sum(
            1 for before, after in zip(args[0].x, out.x) if before.dim != after.dim)


def _bytes_in(tr, args, out, err):
    tr.counts["io_json.parse_document.bytes"] += len(args[0])


def _bytes_out(tr, args, out, err):
    if err is None:
        tr.counts["io_json.format_document.bytes"] += len(out)


# (module, function, extra statistics) for every traced public function.
FUNCTIONS = [
    ("linalg", "rref", _rref_stats),
    ("linalg", "solve_right", None),
    ("linalg", "kernel", None),
    ("algebras", "hom_dim", _system_stats("algebras.hom_dim")),
    ("algebras", "hom_basis", _system_stats("algebras.hom_basis")),
    ("algebras", "find_isomorphism",
     _raised("algebras.find_isomorphism", "undecided", "Undecided")),
    ("algebras", "validate", None),
    ("algebras", "sub_representation", None),
    ("algebras", "quotient_by_subspace", None),
    ("degeneration", "verify_certificate", None),
    ("degeneration", "push_submodule", None),
    ("degeneration", "virtual_chain", _chain_stats),
    ("degeneration", "compose_certificates",
     _raised("degeneration.compose_certificates", "nolift", "NoLift")),
    ("series", "composition_series", None),
    ("series", "series_to_triangular", None),
    ("series", "upper_triangular_hom_basis", None),
    ("series", "series_isomorphic", None),
    ("ladders", "verify_ladder", None),
    ("ladders", "make_monic", _monic_stats),
    ("ladders", "build_family", None),
    ("ladders", "evaluate_family", None),
    ("ladders", "psi_embed", None),
    ("ladders", "orbit_dim_ud", None),
    ("io_json", "parse_document", _bytes_in),
    ("io_json", "format_document", _bytes_out),
    ("cli", "main", None),
    ("cli", "build_parser", None),
]

# (class, method names, span name) for traced methods.
METHODS = [
    ("Matrix", ("__matmul__",), "linalg.matmul"),
    ("Subspace", ("from_columns", "zero", "full", "contains_vector", "contains",
                  "sum", "intersect", "left_annihilator", "complement_basis"),
     "linalg.Subspace"),
    ("EchelonTracker", ("add",), "linalg.EchelonTracker.add"),
]

# Field methods patched with counters, and the counter each one feeds.
FIELD_COUNTERS = {"mul": "fields.mul.calls", "add": "fields.add.calls",
                  "sub": "fields.add.calls", "neg": "fields.add.calls",
                  "inv": "fields.inv.calls"}


class Tracer:
    """Spans and counters of one traced run."""

    def __init__(self):
        self.names: list[str] = []
        self.ops: list[str] = []
        self.span_name = array("i")
        self.span_op = array("i")
        self.span_parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.maxima: dict = {}
        self.field_ops: dict[str, list] = {}
        self._undo: list = []

    # -- spans --------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def open(self, name_id: int) -> int:
        idx = len(self.start)
        self.span_name.append(name_id)
        self.span_op.append(len(self.ops) - 1)
        self.span_parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int):
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def begin_op(self, label: str) -> int:
        """Open the root span of one op; its children share its op id."""
        self.ops.append(label)
        return self.open(self._name_id("op"))

    def wrap(self, name: str, fn, stats=None):
        name_id, trace_id = self._name_id(name), self._name_id("trace")
        calls = f"{name}.calls"

        def after(args, out, err):
            self.counts[calls] += 1
            if stats:
                idx = self.open(trace_id)
                stats(self, args, out, err)
                self.close(idx)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name_id)
            try:
                out = fn(*args, **kwargs)
            except Exception as err:
                self.close(idx)
                after(args, None, err)
                raise
            self.close(idx)
            after(args, out, None)
            return out
        return wrapper

    # -- installation -------------------------------------------------

    def install_spans(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "moddeg" or name.startswith("moddeg.")]
        for mod_name, fn_name, stats in FUNCTIONS:
            orig = getattr(importlib.import_module(f"moddeg.{mod_name}"), fn_name)
            wrapper = self.wrap(f"{mod_name}.{fn_name}", orig, stats)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._set(mod, attr, wrapper)
        linalg = importlib.import_module("moddeg.linalg")
        for cls_name, methods, span in METHODS:
            cls = getattr(linalg, cls_name)
            for meth in methods:
                raw = cls.__dict__[meth]
                stats = _matmul_stats if span == "linalg.matmul" else None
                if isinstance(raw, classmethod):
                    self._set(cls, meth, classmethod(self.wrap(span, raw.__func__)))
                else:
                    self._set(cls, meth, self.wrap(span, raw, stats))

    def install_counters(self):
        fields = importlib.import_module("moddeg.fields")
        for cls in (fields.Rationals, fields.PrimeField):
            for meth, key in FIELD_COUNTERS.items():
                self._set(cls, meth, self._counting(cls.__dict__[meth], key))

    def _counting(self, orig, key: str):
        cell = self.field_ops.setdefault(key, [0])
        if orig.__code__.co_argcount == 2:
            def unary(obj, a):
                cell[0] += 1
                return orig(obj, a)
            return functools.wraps(orig)(unary)

        def binary(obj, a, b):
            cell[0] += 1
            return orig(obj, a, b)
        return functools.wraps(orig)(binary)

    def _set(self, owner, attr: str, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results ------------------------------------------------------

    def self_times(self) -> dict:
        child = [0.0] * len(self.start)
        for i, parent in enumerate(self.span_parent):
            if parent >= 0:
                child[parent] += self.end[i] - self.start[i]
        out = defaultdict(float)
        for i, name_id in enumerate(self.span_name):
            out[self.names[name_id]] += self.end[i] - self.start[i] - child[i]
        return dict(out)

    def write_spans(self, path):
        """One gzip'd TSV row per span: op id and label, parent span index,
        name, start and end in seconds."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write("op\tlabel\tparent\tname\tstart\tend\n")
            for i, name_id in enumerate(self.span_name):
                op = self.span_op[i]
                label = self.ops[op] if op >= 0 else ""
                out.write(f"{op}\t{label}\t{self.span_parent[i]}\t"
                          f"{self.names[name_id]}\t{self.start[i]:.9f}\t"
                          f"{self.end[i]:.9f}\n")
