"""The exit-code contract on malformed input: every command ends in 0, 1 or 2
and never in a traceback; exit 2 prints nothing on stdout and one "error:"
line on stderr, and from ``validate`` that line names the JSON path at fault.

The inputs are the bundled datasets, and residue expression files, with one
or two of their nodes deleted or replaced by a value of another type; and an
``--output`` path that cannot be written."""

import contextlib
import copy
import io
import json
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resloc.cli import main
from resloc.datasets import BUNDLED

ORIGINALS = {name: json.loads(resources.files("resloc").joinpath("data", f"{name}.json")
                              .read_text()) for name in BUNDLED}
# a generic direction of each original, for --circle
CIRCLES = {"s2": "1", "s2xs2-t2": "1,2", "s2xs2-nonisolated": "1", "s2cubed-su2": "1"}
EXPRESSIONS = [
    {"variables": ["X", "Y"], "numerator": [{"coeff": "1", "exponents": [2, 0]}],
     "denominator": [{"form": ["1", "-1"], "multiplicity": 2}, {"form": ["1", "1"]},
                     {"form": ["0", "2"]}]},
    {"variables": ["X", "Y"], "variable": "Y", "numerator": [{"coeff": "3/2", "exponents": [0, 4]}],
     "denominator": [{"form": ["1", "-1"], "multiplicity": 2}, {"form": ["3", "1"]}]},
]
REPLACEMENTS = ("1/2", "1/0", [], {}, None, True, 7, "x")


def node_paths(node, prefix=()):
    yield prefix
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from node_paths(child, prefix + (key,))


def mutate(draw, obj):
    """obj with one or two of its nodes deleted or replaced."""
    obj = copy.deepcopy(obj)
    for _ in range(draw(st.integers(1, 2))):
        *keys, last = draw(st.sampled_from(list(node_paths(obj))[1:]))
        parent = obj
        for key in keys:
            parent = parent[key]
        replacement = draw(st.sampled_from(("delete",) + REPLACEMENTS))
        if replacement == "delete":
            del parent[last]
        else:
            parent[last] = copy.deepcopy(replacement)
    return obj


@st.composite
def mutants(draw):
    name = draw(st.sampled_from(BUNDLED))
    return name, mutate(draw, ORIGINALS[name])


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def assert_contract(argv, names_path):
    code, out, err = run(*argv)
    assert code in (0, 1, 2), argv
    if code == 2:
        assert not out and err.startswith("error: ") and err.count("\n") == 1, (argv, err)
        if names_path:
            assert "$" in err, err


@settings(max_examples=400, derandomize=True, deadline=None, database=None)
@given(mutants())
def test_mutated_datasets_keep_the_exit_code_contract(tmp_path_factory, mutant):
    name, obj = mutant
    path = tmp_path_factory.getbasetemp() / "mutant.json"
    path.write_text(json.dumps(obj))
    for argv in (("validate", str(path)),
                 ("kernel", str(path), "--full", "--max-degree", "2"),
                 ("kernel", str(path), f"--circle={CIRCLES[name]}", "--max-degree", "2"),
                 ("kernel", str(path), "--nonabelian", "--max-degree", "2")):
        assert_contract(argv, names_path=argv[0] == "validate")


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(st.data())
def test_mutated_expressions_keep_the_exit_code_contract(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "mutant-expression.json"
    path.write_text(json.dumps(mutate(data.draw, data.draw(st.sampled_from(EXPRESSIONS)))))
    assert_contract(("residue", str(path)), names_path=True)


@pytest.mark.parametrize("argv", [("validate", "s2"), ("residue",),
                                  ("kernel", "s2", "--circle=1"), ("kernel", "s2", "--full"),
                                  ("kernel", "s2cubed-su2", "--nonabelian")],
                         ids=["validate", "residue", "circle", "full", "nonabelian"])
@pytest.mark.parametrize("target", ["missing-directory", "directory"])
def test_unwritable_output_exits_two(tmp_path, argv, target):
    if argv == ("residue",):
        expression = tmp_path / "expression.json"
        expression.write_text(json.dumps(EXPRESSIONS[0]))
        argv += (str(expression),)
    output = tmp_path / "missing" / "report.json" if target == "missing-directory" else tmp_path
    code, out, err = run(*argv, "--output", str(output))
    assert code == 2 and not out, (code, out)
    assert err.startswith("error: --output: ") and err.count("\n") == 1, err
