"""Every name a package module imports is used in it, every private
module-level helper is referenced somewhere in the package, importing
the CLI loads no code-generating or typing module, and no record class
stores its own fields outside ``Record.__init__``.

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
import os
import subprocess
import sys
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


def test_cli_import_loads_no_code_generation_or_typing():
    # Under -S no site .pth file imports anything first, so the modules
    # loaded are the package's own imports.  dataclasses generated code for
    # every record class, and it, inspect and typing each cost start-up
    # time in every CLI process.
    code = ("import sys, cechtower.cli; "
            "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_generates_no_code(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    calls = {node.func.id for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    assert not calls & {"exec", "eval", "compile"}
    modules = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names}
    modules |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert "dataclasses" not in modules


def field_stores(source: str) -> list[str]:
    """``object.__setattr__(self, "<name>", ...)`` calls for a name in the
    enclosing class's own ``_fields``, as "Class.name": ``Record.__init__``
    stores every field."""
    out = []
    for cls in ast.walk(ast.parse(source)):
        if not isinstance(cls, ast.ClassDef):
            continue
        fields = next((stmt.value for stmt in cls.body if isinstance(stmt, ast.Assign)
                       and any(isinstance(t, ast.Name) and t.id == "_fields"
                               for t in stmt.targets)), None)
        if not isinstance(fields, ast.Tuple):
            continue
        names = {elt.value for elt in fields.elts if isinstance(elt, ast.Constant)}
        for call in ast.walk(cls):
            if (isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
                    and call.func.attr == "__setattr__"
                    and isinstance(call.func.value, ast.Name)
                    and call.func.value.id == "object"
                    and len(call.args) > 1 and isinstance(call.args[1], ast.Constant)
                    and call.args[1].value in names):
                out.append(f"{cls.name}.{call.args[1].value}")
    return out


def test_the_check_sees_a_field_store():
    source = ("class A(Record):\n    _fields = ('x', 'y')\n\n"
              "    def __init__(self, x, y):\n"
              "        object.__setattr__(self, 'x', x)\n"
              "        object.__setattr__(self, '_derived', y)\n"
              "        Record.__init__(self, x, y)\n\n"
              "class B(Record):\n    _fields = ('x',)\n\n"
              "    def __init__(self, x):\n        object.__setattr__(self, 'x', x)\n")
    assert field_stores(source) == ["A.x", "B.x"]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "_record.py"],
                         ids=lambda p: p.name)
def test_records_store_fields_through_the_shared_constructor(path):
    assert field_stores(path.read_text(encoding="utf-8")) == []
