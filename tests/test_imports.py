"""Every name a library module imports is read somewhere in that module, and importing the package
loads neither ``dataclasses`` nor ``inspect``.

No linter ships with the project, so this parses each module of ``bernring`` with ``ast``: an
import left behind by deleted code fails here.  ``__init__.py`` is exempt, since its imports
are the public API.  The import set is checked in a fresh interpreter, since this one has loaded
both modules already: ``dataclasses`` pulls in ``inspect``, ``ast``, ``dis`` and ``tokenize``,
several milliseconds of every command's start-up.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bernring

MODULES = sorted(p for p in Path(bernring.__file__).parent.glob("*.py") if p.name != "__init__.py")

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
