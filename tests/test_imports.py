"""Package hygiene: a module's underscore names stay its own, and it
imports no name it does not use.

An ``ffsynth`` module that needs another one's private helper is a sign
that the two hold copies of one piece of logic; the helper's owner
should offer the whole step instead.  An unused import is a leftover of
a step that moved, and a dependency between modules that no longer
holds.  No linter is a dependency of the package, so both are checked
here on the syntax tree.
"""

from __future__ import annotations

import ast
import pathlib

import ffsynth

PACKAGE = pathlib.Path(ffsynth.__file__).parent


def private_imports(source: str) -> list[str]:
    """``module.name`` for each underscore name that ``source`` imports
    from the package, by a relative or an absolute ``from`` import."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] != "ffsynth":
            continue
        found += [f"{module}.{a.name}" for a in node.names if a.name.startswith("_")]
    return found


def test_no_module_imports_a_private_name_of_another():
    offenders = {
        path.name: names
        for path in sorted(PACKAGE.glob("*.py"))
        if (names := private_imports(path.read_text(encoding="utf-8")))
    }
    assert offenders == {}


def test_the_check_sees_relative_and_absolute_imports():
    assert private_imports("from .ffst import _fill_singular, synthesize_control") == [
        "ffst._fill_singular"
    ]
    assert private_imports("from ffsynth.ffst import _half_grid_samples") == [
        "ffsynth.ffst._half_grid_samples"
    ]
    assert private_imports("from . import _x") == ["._x"]
    assert private_imports("from os.path import _get_sep") == []


def unused_imports(source: str) -> list[str]:
    """Each name that ``source`` binds by an import (``__future__`` aside)
    and never reads, annotations included."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {a.asname or a.name for a in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read)


def test_no_module_imports_a_name_it_never_uses():
    """``__init__.py`` imports to re-export, so it is left out."""
    offenders = {
        path.name: names
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
        and (names := unused_imports(path.read_text(encoding="utf-8")))
    }
    assert offenders == {}


def test_the_unused_import_check_sees_every_binding():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from .ffst import FfstPhaseModel, synthesize_control as synth\n"
        "def f(x: np.ndarray):\n"
        "    return synth(x)\n"
    )
    assert unused_imports(source) == ["FfstPhaseModel", "os"]
    assert unused_imports("import os.path\nos.path.join('a')") == []
