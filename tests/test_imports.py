"""Every name a library module imports is read somewhere in that module, importing the package
loads neither ``dataclasses`` nor ``inspect``, and every immutable class is built on ``polys.Frozen``.

No linter ships with the project, so this parses each module of ``bernring`` with ``ast``: an
import left behind by deleted code fails here.  ``__init__.py`` is exempt, since its imports
are the public API.  The import set is checked in a fresh interpreter, since this one has loaded
both modules already: ``dataclasses`` pulls in ``inspect``, ``ast``, ``dis`` and ``tokenize``,
several milliseconds of every command's start-up.  The same parse finds a class that freezes
itself other than through ``Frozen``: only ``polys.Frozen`` defines ``__setattr__``, only
``polys.py`` calls ``object.__setattr__``, and every class with a non-empty ``__slots__`` is a
``Frozen``.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bernring

SOURCES = sorted(Path(bernring.__file__).parent.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]

#: modules the package must not load, and the imports that must not load them
UNWANTED = ("dataclasses", "inspect")
IMPORTS = ("import bernring, bernring.exprparse", "import bernring.cli", "import bernring.selftest")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items()) if name not in read]


def test_detector_flags_an_unused_import():
    assert unused_imports("import math\nfrom os import path, sep\nprint(path)\n") == ["math (line 1)", "sep (line 2)"]
    assert unused_imports("from __future__ import annotations\nimport a.b\na.b.c()\n") == []


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_no_unused_import(module):
    assert unused_imports(module.read_text()) == []


def class_bindings(node: ast.ClassDef) -> dict[str, ast.AST]:
    """The names a class body binds, with ``def`` (to the def) or with ``=`` (to the value)."""
    bound = {}
    for item in node.body:
        if isinstance(item, ast.FunctionDef):
            bound[item.name] = item
        elif isinstance(item, ast.Assign):
            for target in item.targets:
                bound.update((n.id, item.value) for n in ast.walk(target) if isinstance(n, ast.Name))
    return bound


def freezing_violations(source: str, module: str) -> list[str]:
    """Where ``module`` freezes a class other than through ``polys.Frozen``, by line."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr == "__setattr__" and module != "polys.py":
            if isinstance(node.value, ast.Name) and node.value.id == "object":
                found.append((node.lineno, "object.__setattr__"))
        elif isinstance(node, ast.ClassDef):
            bound = class_bindings(node)
            if "__setattr__" in bound and (module, node.name) != ("polys.py", "Frozen"):
                found.append((node.lineno, f"{node.name} defines __setattr__"))
            slots = bound.get("__slots__")
            if slots is not None and not (isinstance(slots, ast.Tuple) and not slots.elts):
                if not any(isinstance(base, ast.Name) and base.id == "Frozen" for base in node.bases):
                    found.append((node.lineno, f"{node.name} has __slots__ but is not a Frozen"))
    return [f"{what} (line {line})" for line, what in sorted(found)]


def test_detector_flags_a_class_frozen_by_hand():
    by_hand = (
        "class Point:\n"
        "    __slots__ = ('x',)\n"
        "    def __init__(self, x):\n"
        "        object.__setattr__(self, 'x', x)\n"
        "    def __setattr__(self, name, value):\n"
        "        raise AttributeError\n"
        "class Empty:\n"
        "    __slots__ = ()\n"
        "class Kept(Frozen):\n"
        "    __slots__ = ('y',)\n"
        "    __setattr__ = None\n"
    )
    assert freezing_violations(by_hand, "weyl.py") == [
        "Point defines __setattr__ (line 1)",
        "Point has __slots__ but is not a Frozen (line 1)",
        "object.__setattr__ (line 4)",
        "Kept defines __setattr__ (line 9)",
    ]
    assert freezing_violations(by_hand, "polys.py") == [
        "Point defines __setattr__ (line 1)",
        "Point has __slots__ but is not a Frozen (line 1)",
        "Kept defines __setattr__ (line 9)",
    ]


@pytest.mark.parametrize("module", SOURCES, ids=lambda p: p.name)
def test_every_immutable_class_is_a_frozen(module):
    assert freezing_violations(module.read_text(), module.name) == []


def test_frozen_is_the_one_class_that_defines_setattr():
    owners = [
        (module.name, node.name)
        for module in SOURCES
        for node in ast.walk(ast.parse(module.read_text()))
        if isinstance(node, ast.ClassDef) and "__setattr__" in class_bindings(node)
    ]
    assert owners == [("polys.py", "Frozen")]


def test_equality_is_bound_by_frozen_poly_and_series_only():
    """Every other value compares its fields through ``Frozen.__eq__``: ``Poly`` also equals scalars, and a
    series equals only itself."""
    owners = sorted(
        (module.name, node.name)
        for module in SOURCES
        for node in ast.walk(ast.parse(module.read_text()))
        if isinstance(node, ast.ClassDef) and "__eq__" in class_bindings(node)
    )
    assert owners == [("polys.py", "Frozen"), ("polys.py", "Poly"), ("series.py", "TruncatedSeries")]


def modules_loaded_by(statement: str) -> set[str]:
    """The modules a fresh interpreter adds to ``sys.modules`` while it runs ``statement``."""
    code = f"import sys\nbefore = set(sys.modules)\n{statement}\nprint(*sorted(set(sys.modules) - before))"
    path = os.pathsep.join(filter(None, (str(Path(bernring.__file__).parents[1]), os.environ.get("PYTHONPATH"))))
    run = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return set(run.stdout.split())


def test_import_set_detector_sees_a_loaded_module():
    assert "dataclasses" in modules_loaded_by("import dataclasses")


@pytest.mark.parametrize("statement", IMPORTS)
def test_import_loads_neither_dataclasses_nor_inspect(statement):
    loaded = modules_loaded_by(statement)
    assert "bernring" in loaded
    assert sorted(set(UNWANTED) & loaded) == []
