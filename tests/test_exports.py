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
