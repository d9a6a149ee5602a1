"""Every name a package module imports is used in it, and every private
module-level helper is referenced somewhere in the package.

No linter runs on the tree, so this keeps deletions honest: a helper that
loses its last caller must also leave the import lists, and a private
function or class left behind by a deletion must go too.  A name counts as
used when the module reads it (``name`` or ``name.attr``) or lists it in
``__all__``; ``from __future__`` imports are exempt.  A private helper
(one leading underscore, not a dunder) counts as referenced when any
package module reads it or imports it outside its own definition; public
names are exempt.
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


def _referenced(node: ast.AST) -> set[str]:
    """Names read (``name``, ``x.name``) or imported under ``node``."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            out |= {alias.name for alias in sub.names}
    return out


def unreferenced_helpers(sources: dict[str, str]) -> list[str]:
    """Private module-level functions and classes that no module references
    outside their own definition, as "module: name"."""
    nodes = [(module, node) for module, source in sources.items()
             for node in ast.parse(source).body]
    refs = [_referenced(node) for _, node in nodes]
    out = []
    for i, (module, node) in enumerate(nodes):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) \
                and node.name.startswith("_") and not node.name.startswith("__") \
                and not any(node.name in r for j, r in enumerate(refs) if j != i):
            out.append(f"{module}: {node.name}")
    return out


def test_the_check_sees_an_unused_name():
    source = ("from a import b, c\nimport d.e\nfrom __future__ import annotations\n"
              "print(c)\n")
    assert unused_imports(source) == ["b (line 1)", "d (line 2)"]
    assert unused_imports("from a import b\n__all__ = ['b']\n") == []


def test_the_check_sees_a_leftover_helper():
    # _group_of calls only itself; _used is called, _Shared imported
    # elsewhere, and _helper read in its own module.
    spectral = ("def _group_of(lattice, rel):\n    return _group_of(lattice, rel)\n\n"
                "def _used():\n    pass\n\n"
                "class _Shared:\n    pass\n\n"
                "def filtered_terms():\n    return _used()\n")
    other = "from spectral import _Shared\n\ndef _helper():\n    pass\n\nx = _helper\n"
    assert unreferenced_helpers({"spectral": spectral, "other": other}) == \
        ["spectral: _group_of"]
    assert unreferenced_helpers({"spectral": spectral + "y = _group_of\n",
                                 "other": other}) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_every_private_helper_is_referenced():
    sources = {path.name: path.read_text(encoding="utf-8") for path in MODULES}
    assert unreferenced_helpers(sources) == []
