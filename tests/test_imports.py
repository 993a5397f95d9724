"""Package hygiene: a module's underscore names stay its own.

An ``ffsynth`` module that needs another one's private helper is a sign
that the two hold copies of one piece of logic; the helper's owner
should offer the whole step instead.
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
