"""Layering guard: the RDF model and the local SPARQL engine sit below
the distributed system and import nothing from it.

Every import statement of every module under ``repro/rdf`` and
``repro/sparql`` is read from source, deferred imports inside functions
included, and resolved to an absolute module name.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
LOWER = ("rdf", "sparql")
UPPER = ("repro.query", "repro.overlay", "repro.net", "repro.cache")


def imported_modules(path: Path, root: Path = SRC):
    """(line, absolute module name) for every import in *path*, a module
    under the source *root*."""
    package = path.relative_to(root).with_suffix("").parts[:-1]
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom):
            base = list(package[:len(package) - node.level + 1]
                        if node.level else [])
            if node.module:
                base.append(node.module)
            yield node.lineno, ".".join(base)
            for alias in node.names:  # `from .. import query`
                yield node.lineno, ".".join(base + [alias.name])


def upward(module: str) -> bool:
    return any(module == up or module.startswith(up + ".") for up in UPPER)


def test_rdf_and_sparql_import_nothing_above_them():
    modules = sorted(p for layer in LOWER
                     for p in (SRC / "repro" / layer).rglob("*.py"))
    assert len(modules) > 10
    bad = [f"{path.relative_to(SRC)}:{line} imports {module}"
           for path in modules
           for line, module in imported_modules(path) if upward(module)]
    assert bad == []


def test_the_resolver_sees_deferred_relative_imports(tmp_path):
    module = tmp_path / "repro" / "sparql" / "probe.py"
    module.parent.mkdir(parents=True)
    module.write_text("def f():\n    from ..query.physical import x\n"
                      "from .. import net\n", encoding="utf-8")
    found = {name for _, name in imported_modules(module, tmp_path)}
    assert "repro.query.physical" in found and "repro.net" in found
