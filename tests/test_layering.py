"""The shipped package never imports the test tree.

An installed ``repro`` has no ``tests/`` beside it, and the judges the
runtime is held to (``tests/_oracles/``) sit one directory away from
``src/``: an import across that line works in a checkout and breaks on
install.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def _imported_modules(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_src_never_imports_tests():
    offenders = [
        f"{path.relative_to(SRC.parent)}: {name}"
        for path in sorted(SRC.rglob("*.py"))
        for name in _imported_modules(ast.parse(path.read_text(), str(path)))
        if name == "tests" or name.startswith("tests.")
    ]
    assert not offenders, f"src/ imports the test tree: {offenders}"
