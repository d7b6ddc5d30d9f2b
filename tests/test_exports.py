"""Every exported name resolves: each module's __all__ and the package's
re-exports."""

import ast
import importlib
from pathlib import Path

import resloc

MODULES = ("symcore", "linalg", "residues", "spaces", "kernels", "weylgrp",
           "datasets", "cli")


def test_exported_names_resolve():
    missing = []
    for name in MODULES:
        module = importlib.import_module(f"resloc.{name}")
        missing += [f"resloc.{name}.{n}" for n in module.__all__
                    if not hasattr(module, n)]
    tree = ast.parse(Path(resloc.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            missing += [f"resloc.{a.name}" for a in node.names
                        if not hasattr(resloc, a.asname or a.name)]
    assert not missing


ROOT = Path(__file__).resolve().parent.parent


def _unused_imports(path: Path) -> list[str]:
    """Names bound by an import and never named again in the file (a name in
    a quoted annotation is not seen: the modules use postponed annotations
    instead).  An import line marked "# noqa: F401" is kept on purpose."""
    source = path.read_text()
    lines = source.splitlines()
    imported: dict[str, int] = {}
    read: set[str] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) != "__future__" \
                    and "# noqa: F401" not in lines[node.lineno - 1]:
                imported.update((a.asname or a.name.split(".")[0], node.lineno)
                                for a in node.names)
        elif isinstance(node, ast.Name):
            read.add(node.id)
    return [f"{path.relative_to(ROOT)}:{line}: {name}"
            for name, line in imported.items() if name not in read]


def test_no_unused_imports():
    # a package's __init__ imports only to re-export, which the test above checks
    files = sorted(p for d in ("src/resloc", "tests", "scripts")
                   for p in (ROOT / d).rglob("*.py") if p.name != "__init__.py")
    assert files
    assert [u for p in files for u in _unused_imports(p)] == []
