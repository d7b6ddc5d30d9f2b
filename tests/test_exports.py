"""Every exported name resolves: each module's __all__ and the package's
re-exports."""

import ast
import importlib.util
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


_spec = importlib.util.spec_from_file_location("unused_imports",
                                               ROOT / "scripts" / "unused_imports.py")
unused_imports = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(unused_imports)


def test_no_unused_imports():
    # the directories CI's unused-import step checks
    assert unused_imports.main([str(ROOT / d) for d in ("src", "tests", "scripts",
                                                          "perfbench")]) == 0


def test_unused_import_check_finds_only_the_import_nothing_reads(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "from fractions import Fraction as Q\n"
        "from itertools import (\n"
        "    chain,\n"
        "    count,\n"
        ")\n"
        "from math import gcd  # noqa: F401\n"
        "from typing import Sequence\n"
        "def f(x: Sequence[int]) -> int:\n"
        "    return os.path.sep + Q(1) + chain\n")
    assert unused_imports.unused_imports(module) == [(6, "count")]
    # a package's __init__ imports only to re-export, which the test above checks
    (tmp_path / "__init__.py").write_text("from .module import f\n")
    assert unused_imports.unused_imports(tmp_path / "__init__.py") == []
    assert unused_imports.main([str(tmp_path)]) == 1


def test_readme_quick_start_runs(capsys):
    # the first python block of README.md, run as it is written
    block = (ROOT / "README.md").read_text().split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out
