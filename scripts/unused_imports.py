#!/usr/bin/env python3
"""Report names that a module imports and never reads, with the stdlib ``ast``
alone.

A name counts as read when it appears as a name anywhere in the module.  Not
reported: the imports of a package ``__init__.py``, which are its re-exports;
``from __future__`` imports; and an import on a line marked ``# noqa: F401``.

usage: python scripts/unused_imports.py PATH...   (files or directories)
Exits 1 and prints path:line: name for each unused import, else exits 0.
"""

import ast
import pathlib
import sys


def unused_imports(path: pathlib.Path) -> list[tuple[int, str]]:
    if path.name == "__init__.py":
        return []
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source, str(path))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound != "*" and "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported.append((alias.lineno, bound))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in imported if name not in read]


def main(argv: list[str]) -> int:
    files = []
    for arg in argv:
        path = pathlib.Path(arg)
        files += sorted(path.rglob("*.py")) if path.is_dir() else [path]
    found = [(path, line, name) for path in files for line, name in unused_imports(path)]
    for path, line, name in found:
        print(f"{path}:{line}: {name} imported and never read")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
