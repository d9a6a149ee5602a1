"""Every name a package module imports is used in it.

No linter runs on the tree, so this keeps deletions honest: a helper that
loses its last caller must also leave the import lists.  A name counts as
used when the module reads it (``name`` or ``name.attr``) or lists it in
``__all__``; ``from __future__`` imports are exempt.
"""

import ast
from pathlib import Path

import pytest

import cechtower

PACKAGE = Path(cechtower.__file__).resolve().parent
MODULES = sorted(PACKAGE.glob("*.py"))


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
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        targets = node.targets if isinstance(node, ast.Assign) else []
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            used |= {elt.value for elt in node.value.elts}
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used]


def test_the_check_sees_an_unused_name():
    source = ("from a import b, c\nimport d.e\nfrom __future__ import annotations\n"
              "print(c)\n")
    assert unused_imports(source) == ["b (line 1)", "d (line 2)"]
    assert unused_imports("from a import b\n__all__ = ['b']\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
