"""Byte snapshot of the CLI's outputs.

``cli_snapshot.json`` holds one entry per CLI call: every golden case, then
a seeded sweep of every ``cli.COMMANDS`` entry over the shipped documents
of the kinds it accepts.  An entry records the argument list, the exit code
and the SHA-256 of stdout and of stderr.  The test replays every call from
inside the data directory, so the arguments are bare file names and no
path of the machine reaches the outputs.

Regenerate the snapshot with

    PYTHONPATH=src python tests/test_cli_snapshot.py

Regenerating it is a change to the CLI's outputs: a change that does so
must name in CHANGES.md the calls whose outputs changed, and why.  The
regenerator prints the argument list and the old and new exit codes of
every entry that differs from the file it replaces.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
import sys
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from importlib import resources
from pathlib import Path

from moddeg.cli import COMMANDS, main

DATA = resources.files("moddeg") / "data"
SNAPSHOT = Path(__file__).with_name("cli_snapshot.json")

# Values for the options that take a plain value rather than a document.
SWEEP_VALUES = {"--t": "0,1"}


def snapshot_calls(rounds: int = 20, seed: int = 7) -> list[list[str]]:
    """The golden cases' argument lists, then ``rounds`` rounds of every
    command on seeded draws of shipped documents of the kinds it accepts
    (1-3 files for a variadic argument, optional arguments half the
    time)."""
    golden = json.loads((DATA / "golden.json").read_text(encoding="utf-8"))
    calls = [case["argv"] for case in golden]
    by_kind = {}
    for path in sorted(DATA.iterdir(), key=lambda p: p.name):
        if path.name.endswith(".json") and path.name != "golden.json":
            kind = json.loads(path.read_text(encoding="utf-8"))["kind"]
            by_kind.setdefault(kind, []).append(path.name)
    rng = random.Random(seed)
    for _ in range(rounds):
        for name, command in COMMANDS.items():
            argv = [name]
            for arg, kinds, options in command.args:
                pool = [p for kind in kinds for p in by_kind.get(kind, [])]
                if not arg.startswith("--"):
                    count = rng.randint(1, 3) if options.get("nargs") == "+" else 1
                    argv += [rng.choice(pool) for _ in range(count)]
                elif kinds or options.get("action") == "store_true":
                    if rng.random() < 0.5:
                        argv += [arg, rng.choice(pool)] if kinds else [arg]
                else:
                    argv += [arg, SWEEP_VALUES[arg]]
            calls.append(argv)
    return calls


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def record(argv: list[str]) -> dict:
    """Run one call with empty stdin and record its exit code and the
    digests of what it printed."""
    out, err = io.StringIO(), io.StringIO()
    saved, sys.stdin = sys.stdin, io.StringIO("")
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = saved
    return {"argv": argv, "exit": code, "stdout": _sha256(out.getvalue()),
            "stderr": _sha256(err.getvalue())}


@contextmanager
def inside(directory):
    saved = os.getcwd()
    os.chdir(directory)
    try:
        yield
    finally:
        os.chdir(saved)


def load_snapshot() -> list[dict]:
    return json.loads(SNAPSHOT.read_text(encoding="utf-8"))


def test_cli_outputs_match_the_snapshot():
    expected = load_snapshot()
    with inside(DATA):
        changed = [entry["argv"] for entry in expected
                   if record(entry["argv"]) != entry]
    assert changed == []


def test_snapshot_covers_the_golden_cases_and_every_command():
    argvs = [entry["argv"] for entry in load_snapshot()]
    golden = json.loads((DATA / "golden.json").read_text(encoding="utf-8"))
    assert argvs[:len(golden)] == [case["argv"] for case in golden]
    assert {argv[0] for argv in argvs} == set(COMMANDS)


if __name__ == "__main__":
    old = {json.dumps(e["argv"]): e for e in load_snapshot()} \
        if SNAPSHOT.exists() else {}
    with inside(DATA):
        entries = [record(argv) for argv in snapshot_calls()]
    SNAPSHOT.write_text(
        "[\n" + ",\n".join(json.dumps(e) for e in entries) + "\n]\n",
        encoding="utf-8")
    print(f"wrote {len(entries)} entries to {SNAPSHOT}")
    for entry in entries:
        before = old.get(json.dumps(entry["argv"]))
        if before != entry:
            was = "new" if before is None else f"exit {before['exit']}"
            print(f"changed: {' '.join(entry['argv'])}: {was} -> "
                  f"exit {entry['exit']}")
