"""Source layout rules checked on the syntax tree of every library module."""

import ast
from pathlib import Path

import moddeg

SOURCES = sorted(Path(moddeg.__file__).parent.glob("*.py"))


def test_no_imports_inside_functions():
    assert SOURCES
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [f"{path.name}:{node.lineno} in {func.name}"
                          for node in ast.walk(func)
                          if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert found == []
