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


def test_every_module_level_import_is_used():
    """Names bound by a module-level import must be read somewhere in the
    module (the package ``__init__`` re-exports, so it is exempt)."""
    found = []
    for path in SOURCES:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    imported[name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        found += [f"{path.name}:{line} imports unused {name}"
                  for name, line in imported.items()
                  if name not in used and name != "annotations"]
    assert found == []


def test_no_module_imports_another_modules_private_name():
    """A name with a leading underscore stays in its own module: the
    elimination steps of ``linalg`` are reached through ``rref`` and
    ``EchelonTracker``, never imported."""
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [f"{path.name}:{node.lineno} imports {alias.name}"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom) and node.module != "__future__"
                  for alias in node.names if alias.name.startswith("_")]
    assert found == []


def test_no_module_reads_a_private_attribute_of_an_imported_name():
    """Nor is a private attribute read through an imported name: a
    ``Matrix`` is built by its constructor outside ``linalg`` too."""
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {(alias.asname or alias.name).split(".")[0] for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    for alias in node.names}
        found += [f"{path.name}:{node.lineno} reads {node.value.id}.{node.attr}"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in imported and node.attr.startswith("_")
                  and not node.attr.startswith("__")]
    assert found == []


def _library_trees() -> tuple[dict, set, set]:
    """The syntax tree of every library module but ``fixtures``, which
    builds the shipped data files and the test inputs, with the sets of
    names read anywhere in the package by name and as an attribute."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in SOURCES}
    nodes = [node for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, (ast.Name, ast.Attribute))
             and isinstance(node.ctx, ast.Load)]
    return ({name: tree for name, tree in trees.items() if name != "fixtures.py"},
            {node.id for node in nodes if isinstance(node, ast.Name)},
            {node.attr for node in nodes if isinstance(node, ast.Attribute)})


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def test_every_top_level_definition_is_exported_or_read():
    """Every module-level function and class is in ``moddeg.__all__`` or
    read somewhere in the package, so no helper is left behind dead."""
    trees, names, attributes = _library_trees()
    found = [f"{name}:{node.lineno} defines unused {node.name}"
             for name, tree in trees.items() for node in tree.body
             if isinstance(node, (*FUNCTIONS, ast.ClassDef))
             and node.name not in moddeg.__all__
             and node.name not in names | attributes]
    assert found == []


# Read only by ``bench/tracing.py``: it wraps the two ``Subspace`` methods
# by name to time them, and patches the ``inv`` of each field class with a
# call counter.
TRACED_METHODS = {"Subspace.left_annihilator", "Subspace.contains_vector",
                  "Rationals.inv", "PrimeField.inv"}


def _class_reads(trees: dict) -> set:
    """The pairs (class name, attribute) read as ``Class.attr`` anywhere
    in ``trees``, or as ``cls.attr`` or ``self.attr`` inside ``Class``."""
    reads = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                reads |= {(node.name, read.attr) for read in ast.walk(node)
                          if isinstance(read, ast.Attribute)
                          and isinstance(read.value, ast.Name)
                          and read.value.id in ("cls", "self")}
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and isinstance(node.ctx, ast.Load)):
                reads.add((node.value.id, node.attr))
    return reads


def _is_classmethod(node) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "classmethod"
               for d in node.decorator_list)


def test_every_method_is_read():
    """Every non-dunder method of a library class is read as an attribute
    somewhere in the package, so no method is kept alive by the tests
    alone.  A method is reached only through an attribute, so a local
    name or a stored attribute of the same name does not count.

    An instance method counts as read when any attribute of its name is.
    A classmethod counts only when it is read through its own class, as
    ``Class.method`` or as ``cls.method`` or ``self.method`` inside the
    class, in a library module other than ``fixtures``: another class's
    method of the same name, or the test inputs ``fixtures`` builds, do
    not keep it alive."""
    trees, _, attributes = _library_trees()
    class_reads = _class_reads(trees)
    found = [f"{name}:{node.lineno} defines unused {cls.name}.{node.name}"
             for name, tree in trees.items() for cls in tree.body
             if isinstance(cls, ast.ClassDef)
             for node in cls.body if isinstance(node, FUNCTIONS)
             and not node.name.startswith("__")
             and ((cls.name, node.name) not in class_reads if _is_classmethod(node)
                  else node.name not in attributes)
             and f"{cls.name}.{node.name}" not in TRACED_METHODS]
    assert found == []


def _data_reads(node, where=None):
    """The innermost enclosing function name of every ``.data`` read below
    ``node`` (None outside any function)."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _data_reads(child, child.name)
            continue
        if isinstance(child, ast.Attribute) and child.attr == "data":
            yield where
        yield from _data_reads(child, where)


def test_dense_view_is_read_only_by_the_encoder_and_repr():
    """``Matrix.data`` builds a dense copy on every read, so library code
    reads the stored rows; only the JSON encoder and ``Matrix.__repr__``,
    which print every cell, read ``.data``."""
    found = {(path.name, where) for path in SOURCES
             for where in _data_reads(ast.parse(path.read_text(encoding="utf-8")))}
    assert found == {("io_json.py", "_encode"), ("linalg.py", "__repr__")}


def test_the_enumeration_bound_is_written_once():
    """``1 << 16`` (or 65536) appears in the library only as the value of
    ``linalg.ENUMERATION_LIMIT``, which every exhaustive search reads."""
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = {id(node.value): node.targets for node in ast.walk(tree)
                 if isinstance(node, ast.Assign)}
        for node in ast.walk(tree):
            shifted = (isinstance(node, ast.BinOp) and isinstance(node.op, ast.LShift)
                       and all(isinstance(side, ast.Constant)
                               for side in (node.left, node.right))
                       and node.left.value << node.right.value == 1 << 16)
            if shifted or (isinstance(node, ast.Constant) and node.value == 1 << 16):
                targets = [t.id for t in owner.get(id(node), ())
                           if isinstance(t, ast.Name)]
                found.append((path.name, targets))
    assert found == [("linalg.py", ["ENUMERATION_LIMIT"])]
