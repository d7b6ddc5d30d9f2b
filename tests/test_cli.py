"""Command-line interface: exit codes, report shape, and byte determinism."""

import builtins
import hashlib
import io
import json
import os
import sys
from fractions import Fraction as Q
from importlib import resources
from pathlib import Path

import pytest
from conftest import grassmannian

from resloc import cli, kernels, spaces
from resloc.cli import main
from resloc.datasets import dataset_to_json, load_dataset


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


# -- validate --------------------------------------------------------------------


def test_validate_bundled_pass(capsys):
    code, report, _ = run_json(capsys, "validate", "s2")
    assert code == 0
    assert report["pass"] is True
    assert report["input"]["source"] == "s2"
    assert len(report["input"]["sha256"]) == 64
    names = [c["name"] for c in report["checks"]]
    assert names == ["schema", "generic-direction", "abbv-polynomiality"]
    assert report["results"]["products_checked"] > 0


@pytest.mark.parametrize("name", ["s2xs2-t2", "s2xs2-nonisolated", "s2cubed-su2"])
def test_validate_all_bundled(capsys, name):
    code, report, _ = run_json(capsys, "validate", name)
    assert code == 0 and report["pass"]


def test_validate_flipped_weights_fails(capsys, tmp_path):
    obj = dataset_to_json(load_dataset("s2"))
    for comp in obj["components"]:
        for line in comp["normal_lines"]:
            line["weight"] = ["1"]
    p = tmp_path / "flipped.json"
    p.write_text(json.dumps(obj))
    code, report, _ = run_json(capsys, "validate", str(p))
    assert code == 1
    assert report["pass"] is False
    failing = [c for c in report["checks"] if not c["pass"]]
    assert failing and report["results"]["failures"]


def test_validate_one_negated_weight_names_the_pole(capsys, tmp_path):
    # the unit's sum 1/X + 1/X keeps its pole; u's sum is still polynomial
    obj = dataset_to_json(load_dataset("s2"))
    line = obj["components"][0]["normal_lines"][0]
    line["weight"] = [-line["weight"][0]]
    p = tmp_path / "s2-flipped.json"
    p.write_text(json.dumps(obj))
    code, report, err = run_json(capsys, "validate", str(p))
    assert code == 1 and not err
    [failure] = report["results"]["failures"]
    assert failure.startswith("one: localization sum has a pole")
    assert report["results"]["products_checked"] == 1


def test_validate_deep_products(capsys):
    # s2's one generator to the 1000th power: the product walk and the
    # localization sums need no recursion as deep as the product
    code, report, err = run_json(capsys, "validate", "s2", "--max-degree", "2000")
    assert code == 0 and err == ""
    assert report["results"]["products_checked"] == 1001
    # and the kernel checks build the model to that degree, each slice from
    # the one below, in a fraction of a second
    for mode in ("--full", "--circle=1"):
        code, report, err = run_json(capsys, "kernel", "s2", mode, "--max-degree", "2000")
        assert code == 0 and err == "" and report["pass"] is True
        assert len(report["results"]["degrees"]) == 1001


def test_validate_schema_error_exits_two(capsys, tmp_path):
    obj = dataset_to_json(load_dataset("s2"))
    del obj["components"]
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(obj))
    code, out, err = run(capsys, "validate", str(p))
    assert code == 2
    assert "components" in err and not out


def test_validate_missing_file_exits_two(capsys):
    code, _, err = run(capsys, "validate", "/nonexistent/ds.json")
    assert code == 2 and "error" in err


def _set(obj, path, value):
    *keys, last = path
    for key in keys:
        obj = obj[key]
    obj[last] = value


@pytest.mark.parametrize("dataset, where, value, json_path", [
    ("s2xs2-nonisolated", ("components", 0, "algebra", "mult_table", 0, 0), "a",
     "$.components[0].algebra.mult_table[0][0]: expected an integer"),
    ("s2xs2-nonisolated", ("components", 0, "algebra", "degrees", 1), "two",
     "$.components[0].algebra.degrees[1]: expected an integer"),
    ("s2cubed-su2", ("weyl", "elements", 1, "perm", 0), "7",
     "$.weyl.elements[1].perm[0]: expected an integer"),
    ("s2cubed-su2", ("weyl", "elements", 1, "algebra_maps", 0), 1,
     "$.weyl.elements[1].algebra_maps[0]: expected an array"),
    ("s2cubed-su2", ("weyl", "elements", 1, "matrix", 0), -1,
     "$.weyl.elements[1].matrix[0]: expected an array"),
    ("s2cubed-su2", ("weyl", "elements", 1, "matrix", 0), "-1",
     "$.weyl.elements[1].matrix[0]: expected an array"),
    ("s2cubed-su2", ("weyl", "elements", 1, "algebra_maps"), [[["1"]]],
     "$.weyl: group element needs one algebra map per component"),
    ("s2xs2-t2", ("variables",), ["X", "X"],
     "$.variables: expected torus_rank distinct variable names"),
    ("s2", ("generators", 0, "restrictions", "N", 0, "coeff"), "1/2",
     "$.generators[0]: a degree-0 generator must restrict to one and the same constant"),
    ("s2", ("generators", 0, "restrictions"),
     {f: [{"basis_index": 0, "coeff": "1/2", "exponents": [0]}] for f in ("N", "S")},
     '$.generators[0].name: "one" is kept for the unit class'),
    ("s2xs2-nonisolated", ("components", 0, "algebra", "basis"), [0, 1],
     "$.components[0].algebra: algebra basis names must be distinct strings"),
    ("s2xs2-nonisolated", ("components", 0, "algebra", "basis"), ["one", "one"],
     "$.components[0].algebra: algebra basis names must be distinct strings"),
], ids=["mult-table-index", "degree", "weyl-perm", "algebra-maps-entry",
        "matrix-scalar-row", "matrix-string-row", "algebra-maps-count", "variables-not-distinct",
        "degree-0-not-constant", "one-not-the-unit", "basis-not-strings",
        "basis-not-distinct"])
def test_dataset_loader_type_errors_exit_two(capsys, tmp_path, dataset, where, value,
                                             json_path):
    obj = dataset_to_json(load_dataset(dataset))
    _set(obj, where, value)
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(obj))
    code, out, err = run(capsys, "validate", str(p))
    assert code == 2 and not out
    assert json_path in err


@pytest.mark.parametrize("dataset, edit, message", [
    ("s2xs2-nonisolated",
     lambda obj: obj["components"][0]["algebra"]["mult_table"].append([5, 5, 0, "1"]),
     "$.components[0].algebra: multiplication table index out of range at (5,5)"),
    ("s2xs2-nonisolated",
     lambda obj: obj["components"][0]["algebra"]["mult_table"].append([-1, 0, 0, "1"]),
     "$.components[0].algebra: multiplication table index out of range at (-1,0)"),
    ("s2xs2-nonisolated",
     lambda obj: obj["components"][0]["algebra"]["mult_table"].append([1, 1, 7, "0"]),
     "$.components[0].algebra: multiplication table index out of range at (1,1)"),
    ("s2", lambda obj: obj.update(torus_rank=0, variables=[]),
     "$.torus_rank: torus rank must be at least 1, got 0"),
    ("s2", lambda obj: obj["generators"].append(
        {"name": "z", "degree": 1, "restrictions": {"N": [], "S": []}}),
     "$.generators[2].degree: degree must be even and nonnegative, got 1"),
    ("s2", lambda obj: obj["generators"].append(
        {"name": "z", "degree": -2, "restrictions": {"N": [], "S": []}}),
     "$.generators[2].degree: degree must be even and nonnegative, got -2"),
    ("s2xs2-nonisolated", lambda obj: [c["algebra"].update(integral=["0", "0"])
                                       for c in obj["components"]],
     "$.components[0].algebra: integral pairing is degenerate: rank 0 of 2"),
], ids=["mult-table-row-past-the-basis", "mult-table-row-before-the-basis",
        "mult-table-zero-row-past-the-basis", "rank-zero", "generator-odd-degree",
        "generator-negative-degree", "degenerate-integral-pairing"])
def test_dataset_loader_range_errors_exit_two(capsys, tmp_path, dataset, edit, message):
    # each is refused with one line naming its JSON path, under every command:
    # a table index outside the basis (with a zero coefficient too), rank 0,
    # a generator of odd or negative degree, which could only be zero, and a
    # component algebra whose integral pairing is degenerate
    obj = dataset_to_json(load_dataset(dataset))
    edit(obj)
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(obj))
    for argv in (("validate", str(p)), ("kernel", str(p), "--full"),
                 ("kernel", str(p), "--circle=1")):
        code, out, err = run(capsys, *argv)
        assert code == 2 and not out
        assert err == f"error: {message}\n"


def test_misspelt_weyl_section_exits_two(capsys, tmp_path):
    # an optional section under a wrong name is an error, not an absent section
    obj = dataset_to_json(load_dataset("s2cubed-su2"))
    obj["wyel"] = obj.pop("weyl")
    p = tmp_path / "wyel.json"
    p.write_text(json.dumps(obj))
    for argv in (("validate", str(p)), ("kernel", str(p), "--nonabelian")):
        code, out, err = run(capsys, *argv)
        assert code == 2 and not out
        assert err == "error: $.wyel: unknown key\n"


@pytest.mark.parametrize("roots, message", [
    ([["0", "1"]], "0 must be nonzero with 1 entries"),
    ([["0"]], "0 must be nonzero with 1 entries"),
    ([[]], "0 must be nonzero with 1 entries"),
    ([["1"], ["0"]], "1 must be nonzero with 1 entries"),
    ([["1/2"]], "0 must be integral"),
], ids=["longer-than-the-rank", "zero", "empty", "second-zero", "fractional"])
def test_bad_positive_root_exits_two(capsys, tmp_path, roots, message):
    # a root of the wrong length crashed in the root product, a zero root
    # passed validate and divided by zero in --nonabelian, and a root of 1/2
    # (roots are weights of T, so integral) scaled the calibration by 1/4
    obj = dataset_to_json(load_dataset("s2cubed-su2"))
    obj["weyl"]["positive_roots"] = roots
    p = tmp_path / "roots.json"
    p.write_text(json.dumps(obj))
    for argv in (("validate", str(p)), ("kernel", str(p), "--nonabelian")):
        code, out, err = run(capsys, *argv)
        assert code == 2 and not out
        assert err == f"error: $.weyl: positive root {message}\n"


@pytest.mark.parametrize("dim", [3, -2])
def test_bad_dimension_names_dim_m(capsys, tmp_path, dim):
    obj = dataset_to_json(load_dataset("s2"))
    obj["dim_M"] = dim
    p = tmp_path / "dim.json"
    p.write_text(json.dumps(obj))
    code, out, err = run(capsys, "validate", str(p))
    assert code == 2 and not out
    assert err == f"error: $.dim_M: dim must be even and nonnegative, got {dim}\n"


@pytest.mark.parametrize("where, json_path", [
    (("dim",), "$.dim"),
    (("components", 0, "momentt"), "$.components[0].momentt"),
    (("components", 0, "algebra", "top-degree"), "$.components[0].algebra.top-degree"),
    (("components", 0, "normal_lines", 0, "weights"),
     "$.components[0].normal_lines[0].weights"),
    (("generators", 1, "degre"), "$.generators[1].degre"),
    (("generators", 1, "restrictions", "SSS", 0, "basis"),
     "$.generators[1].restrictions.SSS[0].basis"),
    (("weyl", "positive_root"), "$.weyl.positive_root"),
    (("weyl", "elements", 1, "permutation"), "$.weyl.elements[1].permutation"),
], ids=["root", "component", "algebra", "normal-line", "generator", "term", "weyl",
        "element"])
def test_dataset_loader_rejects_unknown_keys(capsys, tmp_path, where, json_path):
    # a key outside the schema, beside the keys it may be a misspelling of
    obj = dataset_to_json(load_dataset("s2cubed-su2"))
    _set(obj, where, 0)
    p = tmp_path / "extra.json"
    p.write_text(json.dumps(obj))
    code, out, err = run(capsys, "validate", str(p))
    assert code == 2 and not out
    assert err == f"error: {json_path}: unknown key\n"


# -- residue ---------------------------------------------------------------------


def write_expression(tmp_path, obj):
    p = tmp_path / "expr.json"
    p.write_text(json.dumps(obj))
    return str(p)


def test_residue_simple_pole(capsys, tmp_path):
    path = write_expression(tmp_path, {
        "variables": ["X"],
        "numerator": [{"coeff": "1", "exponents": [0]}],
        "denominator": [{"form": ["1"], "multiplicity": 1}],
    })
    code, report, _ = run_json(capsys, "residue", path)
    assert code == 0
    assert report["results"]["poles"] == "1"
    assert report["results"]["series"] == "1"
    assert report["checks"][0]["name"] == "methods-agree"


def test_residue_two_poles_cancel(capsys, tmp_path):
    path = write_expression(tmp_path, {
        "variables": ["X", "Y1"],
        "numerator": [{"coeff": "1", "exponents": [0, 0]}],
        "denominator": [{"form": ["1", "0"]}, {"form": ["1", "-1"]}],
    })
    code, report, _ = run_json(capsys, "residue", path)
    assert code == 0 and report["results"]["poles"] == "0"


def test_residue_order_three_pole(capsys, tmp_path):
    path = write_expression(tmp_path, {
        "variables": ["X", "Y1"],
        "numerator": [{"coeff": "1", "exponents": [2, 0]}],
        "denominator": [{"form": ["1", "-1"], "multiplicity": 3}],
    })
    code, report, _ = run_json(capsys, "residue", path)
    assert code == 0 and report["results"]["poles"] == "1"


def test_residue_explicit_variable(capsys, tmp_path):
    path = write_expression(tmp_path, {
        "variables": ["X", "Y1"],
        "numerator": [{"coeff": "1", "exponents": [0, 0]}],
        "denominator": [{"form": ["0", "1"]}],
        "variable": "Y1",
    })
    code, report, _ = run_json(capsys, "residue", path)
    assert code == 0 and report["results"]["poles"] == "1"
    assert report["parameters"]["variable"] == "Y1"


def test_residue_invalid_json_reports_location(capsys, tmp_path):
    p = tmp_path / "expr.json"
    p.write_text('{"variables": ["X"],')
    code, _, err = run(capsys, "residue", str(p))
    assert code == 2 and "line" in err


def test_residue_zero_form_rejected(capsys, tmp_path):
    path = write_expression(tmp_path, {
        "variables": ["X"],
        "numerator": [{"coeff": "1", "exponents": [0]}],
        "denominator": [{"form": ["0"]}],
    })
    code, _, err = run(capsys, "residue", path)
    assert code == 2 and "zero form" in err


GOOD_EXPRESSION = {
    "variables": ["X"],
    "numerator": [{"coeff": "1", "exponents": [0]}],
    "denominator": [{"form": ["1"]}],
}


@pytest.mark.parametrize("where, value, json_path", [
    ((), [GOOD_EXPRESSION], "$: expected an object"),
    (("numerator", 0), "1", "$.numerator[0]: expected an object"),
    (("numerator", 0, "exponents"), 0, "$.numerator[0].exponents: expected an array"),
    (("numerator", 0, "exponents"), [-1], "$.numerator[0].exponents: expected 1 nonnegative"),
    (("denominator", 0, "form"), 1, "$.denominator[0].form: expected an array"),
    (("variables",), [1], "$.variables: expected a nonempty array of distinct names"),
    (("variables",), ["X", "X"], "$.variables: expected a nonempty array of distinct names"),
    # a misspelt key read as multiplicity 1 gives the residue of 1/X, not of 1/X^2
    (("denominator", 0, "multiplicty"), 2, "error: $.denominator[0].multiplicty: unknown key"),
    (("numerator", 0, "basis_index"), 0, "error: $.numerator[0].basis_index: unknown key"),
], ids=["top-level-array", "term-not-object", "exponents-not-array", "negative-exponent",
        "form-not-array", "variables-not-strings", "variables-not-distinct",
        "misspelt-multiplicity", "basis-index-in-a-term"])
def test_residue_loader_rejects_malformed_input(capsys, tmp_path, where, value, json_path):
    obj = json.loads(json.dumps(GOOD_EXPRESSION))
    if where:
        _set(obj, where, value)
    else:
        obj = value
    code, out, err = run(capsys, "residue", write_expression(tmp_path, obj))
    assert code == 2 and not out
    assert json_path in err


def test_residue_rejects_a_dataset_file(capsys, tmp_path):
    # a dataset has "variables" too, but no numerator or denominator
    path = tmp_path / "s2.json"
    path.write_text(json.dumps(dataset_to_json(load_dataset("s2"))))
    code, out, err = run(capsys, "residue", str(path))
    assert code == 2 and not out
    assert err.startswith("error: $.") and err.count("\n") == 1, err


@pytest.mark.parametrize("key, json_path", [
    ("denominator", "error: $.denominator: missing"),
    ("numerator", "error: $.numerator: missing"),
], ids=["denominator", "numerator"])
def test_residue_requires_numerator_and_denominator(capsys, tmp_path, key, json_path):
    obj = {k: v for k, v in GOOD_EXPRESSION.items() if k != key}
    code, out, err = run(capsys, "residue", write_expression(tmp_path, obj))
    assert code == 2 and not out
    assert err == json_path + "\n"


def test_residue_rejects_a_misspelt_key(capsys, tmp_path):
    # "variabel" would otherwise fall back to the first variable
    obj = {"variables": ["X", "Y"], "variabel": "Y",
           "numerator": [{"coeff": "1", "exponents": [0, 0]}],
           "denominator": [{"form": ["0", "1"]}]}
    code, out, err = run(capsys, "residue", write_expression(tmp_path, obj))
    assert code == 2 and not out
    assert err == "error: $.variabel: unknown key\n"


# -- kernel ----------------------------------------------------------------------


def test_kernel_circle_s2(capsys):
    code, report, _ = run_json(capsys, "kernel", "s2", "--circle", "1")
    assert code == 0 and report["pass"]
    assert report["parameters"]["mode"] == "circle"
    degrees = report["results"]["degrees"]
    assert [d["degree"] for d in degrees] == [0, 2]
    assert degrees[1]["residue_kernel"]["model_basis"] == ["X", "u"]
    assert degrees[1]["one_sided_plus"]["basis"] == [["0", "1"]]


def test_kernel_circle_nongeneric_exits_two(capsys):
    code, _, err = run(capsys, "kernel", "s2xs2-t2", "--circle", "1,0")
    assert code == 2
    assert "violated by" in err and "weight" in err


def test_kernel_circle_wrong_arity(capsys):
    code, _, err = run(capsys, "kernel", "s2xs2-t2", "--circle", "1")
    assert code == 2 and "expected 2 integers" in err


def test_kernel_circle_builds_one_integral(capsys, cancelled, expansion_builds):
    # the calibration value comes from the integral the check used, so no
    # entry is computed twice: one per (positive-side component, monomial),
    # and one expansion at infinity per distinct nonempty cancelled
    # denominator: 3, where the 16 (component, denominator) pairs each built
    # one when the components did not share them
    code, _, _ = run(capsys, "kernel", "s2cubed-su2", "--circle=1")
    assert code == 0
    assert len(cancelled) == len(set(cancelled)) == 24
    assert len({(name, denom) for name, _, denom in cancelled}) == 16
    denominators = {denom for *_, denom in cancelled} - {frozenset()}
    assert len(expansion_builds) == len(denominators) == 3


def test_kernel_full_s2xs2(capsys):
    code, report, _ = run_json(capsys, "kernel", "s2xs2-t2", "--full", "--max-degree", "4")
    assert code == 0 and report["pass"]
    chambers = report["results"]["chambers"]
    assert chambers["count"] == chambers["expected"] == 8
    assert report["results"]["calibration"]["value"] == "1"


@pytest.mark.parametrize("mode", ["--full", "--circle=1,2"])
def test_kernel_rejects_inconsistent_data(capsys, tmp_path, mode):
    obj = dataset_to_json(load_dataset("s2xs2-t2"))
    sn = next(c for c in obj["components"] if c["name"] == "SN")
    sn["normal_lines"][0]["weight"] = [-v for v in sn["normal_lines"][0]["weight"]]
    path = tmp_path / "negated.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, "kernel", str(path), mode)
    assert code == 2 and not out
    assert "inconsistent fixed-point data" in err and "localization sum has a pole" in err
    code, report, _ = run_json(capsys, "validate", str(path))
    assert code == 1 and not report["pass"]


@pytest.mark.parametrize("mode", ["--circle=x", "--nonabelian"])
def test_inconsistent_data_is_reported_before_other_errors(capsys, tmp_path, mode):
    # the model refuses the data before a malformed --circle or a missing
    # weyl section is seen
    obj = dataset_to_json(load_dataset("s2xs2-t2"))
    sn = next(c for c in obj["components"] if c["name"] == "SN")
    sn["normal_lines"][0]["weight"] = [-v for v in sn["normal_lines"][0]["weight"]]
    path = tmp_path / "negated.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, "kernel", str(path), mode)
    assert code == 2 and not out
    assert err.startswith("error: inconsistent fixed-point data (run validate): ")
    assert "localization sum has a pole" in err and err.count("\n") == 1


def test_moment_zero_names_the_component(capsys, tmp_path):
    # a fixed point at moment 0 pairs to zero with every direction, so no
    # direction is generic; both commands name the component at once
    obj = dataset_to_json(load_dataset("s2xs2-t2"))
    nn = next(c for c in obj["components"] if c["name"] == "NN")
    nn["moment"] = ["0", "0"]
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, "kernel", str(path), "--full")
    assert code == 2 and not out
    assert err.endswith("; violated by moment:NN\n")
    code, report, _ = run_json(capsys, "validate", str(path))
    generic = next(c for c in report["checks"] if c["name"] == "generic-direction")
    assert code == 1 and not generic["pass"]
    assert generic["detail"].endswith("; violated by moment:NN")


def test_kernel_full_with_delta(capsys):
    code, report, _ = run_json(capsys, "kernel", "s2", "--full",
                               "--ordering", "0", "--delta", "5")
    assert code == 0 and report["pass"]
    assert report["results"]["calibration"]["value"] == "-5"


@pytest.mark.parametrize("spaced, joined", [
    (("kernel", "s2", "--full", "--ordering", "0", "--delta", "-3/2"),
     ("kernel", "s2", "--full", "--ordering=0", "--delta=-3/2")),
    (("kernel", "s2xs2-t2", "--circle", "-1,2"), ("kernel", "s2xs2-t2", "--circle=-1,2")),
    (("kernel", "s2", "--circle", "-1", "--format", "text"),
     ("kernel", "s2", "--circle=-1", "--format", "text")),
    # exits 2: on s2xs2-t2 every first-applied axis annihilates a weight
    (("kernel", "s2xs2-t2", "--full", "--ordering", "1,0", "--delta", "-3/2"),
     ("kernel", "s2xs2-t2", "--full", "--ordering=1,0", "--delta=-3/2")),
    (("kernel", "s2", "--full", "--ordering", "-1"), ("kernel", "s2", "--full", "--ordering=-1")),
])
def test_negative_value_as_separate_argument(capsys, spaced, joined):
    """A flag value starting with "-" reads the same given after a space as
    after "=": the same exit code and the same bytes on stdout and stderr."""
    assert run(capsys, *spaced) == run(capsys, *joined)
    _, _, err = run(capsys, *spaced)
    assert "expected one argument" not in err


def test_flag_is_not_taken_as_a_negative_value(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["kernel", "s2", "--circle", "--full"])
    assert exc.value.code == 2
    assert "argument --circle: expected one argument" in capsys.readouterr().err


@pytest.mark.parametrize("argv, flag", [
    (("kernel", "s2", "--full", "--ordering", "a"), "--ordering"),
    (("kernel", "s2", "--full", "--delta", "x"), "--delta"),
    (("kernel", "s2", "--full", "--max-degree", "-2"), "--max-degree"),
    (("validate", "s2", "--max-degree", "-1"), "--max-degree"),
    (("kernel", "s2", "--full", "--ordering", "1"), "--ordering"),
    (("kernel", "s2", "--full", "--delta", "0"), "--delta"),
    (("kernel", "s2", "--circle=x"), "--circle"),
    (("kernel", "s2", "--circle=1,"), "--circle"),
])
def test_malformed_flag_exits_two(capsys, argv, flag):
    code, out, err = run(capsys, *argv)
    assert code == 2 and flag in err and not out


def test_kernel_nonabelian_s2cubed(capsys):
    code, report, _ = run_json(capsys, "kernel", "s2cubed-su2", "--nonabelian",
                               "--max-degree", "4")
    assert code == 0 and report["pass"]
    assert report["results"]["calibration"]["value"] == "2"
    assert report["results"]["degrees"]
    assert report["results"]["antisymmetrized_spans"]


def test_kernel_nonabelian_requires_weyl(capsys):
    code, _, err = run(capsys, "kernel", "s2", "--nonabelian")
    assert code == 2 and "weyl" in err


def test_kernel_requires_exactly_one_mode(capsys):
    code, _, err = run(capsys, "kernel", "s2")
    assert code == 2 and "exactly one" in err
    code, _, err = run(capsys, "kernel", "s2", "--full", "--nonabelian")
    assert code == 2 and "exactly one" in err


@pytest.mark.parametrize("dataset, flags", [
    ("s2", ("--ordering=",)), ("s2", ("--ordering", "0", "--delta", "2")),
    ("s2", ("--delta", "-3/2")), ("missing.json", ("--ordering", "0")),
], ids=["empty-ordering", "ordering-and-delta", "delta", "before-the-load"])
def test_circle_refuses_ordering_and_delta(capsys, dataset, flags):
    # the circle split reads neither, so the report must not record them
    code, out, err = run(capsys, "kernel", dataset, "--circle=1", *flags)
    assert code == 2 and not out
    assert err == "error: --ordering and --delta apply to --full and --nonabelian only\n"


def test_kernel_calibrate_flag(capsys):
    code, report, _ = run_json(capsys, "kernel", "s2", "--circle", "1",
                               "--calibrate", "u")
    assert code == 0
    assert report["results"]["calibration"]["class"] == "u"


@pytest.mark.parametrize("mode", ["--circle=1", "--circle=-1", "--full"])
def test_default_calibration_with_the_unit_under_another_name(capsys, tmp_path, mode):
    # "one" is the unit class whatever the dataset calls its unit generator
    obj = dataset_to_json(load_dataset("s2"))
    [unit] = [g for g in obj["generators"] if g["name"] == "one"]
    unit["name"] = "unit"
    p = tmp_path / "s2-unit.json"
    p.write_text(json.dumps(obj))
    code, report, err = run_json(capsys, "kernel", str(p), mode)
    assert code == 0 and not err
    _, bundled, _ = run_json(capsys, "kernel", "s2", mode)
    assert report["results"]["calibration"] == bundled["results"]["calibration"]
    assert report["results"]["calibration"]["class"] == "one"


def test_kernel_unknown_calibrate(capsys, monkeypatch):
    # the name is looked up before the integral and the model are built
    def no_model(*args):
        raise AssertionError("model built before --calibrate was resolved")

    monkeypatch.setattr(kernels, "build_model", no_model)
    for mode in ("--circle=1", "--full", "--nonabelian"):
        code, out, err = run(capsys, "kernel", "s2cubed-su2", mode, "--calibrate", "zz")
        assert code == 2 and not out
        assert err == "error: --calibrate: no generator named 'zz'\n"


@pytest.mark.parametrize("argv, depth", [
    (("s2xs2-t2", "--circle=1,2"), 4),
    (("s2xs2-t2", "--full", "--max-degree", "6"), 6),
    (("s2cubed-su2", "--nonabelian", "--max-degree", "2"), 6),
])
def test_kernel_walks_the_generator_products_once(capsys, monkeypatch, argv, depth):
    # one walk, to max(dim M, --max-degree), serves both the consistency
    # check and the model
    walks = []
    real = spaces.generator_products

    def counted(space, generators, max_degree):
        walks.append(max_degree)
        return real(space, generators, max_degree)

    for module in list(sys.modules.values()):
        if module.__name__.startswith("resloc") and \
                getattr(module, "generator_products", None) is real:
            monkeypatch.setattr(module, "generator_products", counted)
    code, _, _ = run(capsys, "kernel", *argv)
    assert code == 0
    assert walks == [depth]


@pytest.mark.parametrize("name, modes", [
    ("s2cubed-su2", ["--full", "--nonabelian", "--circle=1"]),
    ("s2xs2-nonisolated", ["--full", "--circle=1"]),  # no weyl section
])
def test_checks_leave_the_generators_unchanged(capsys, monkeypatch, name, modes):
    # a product's restriction at a zero factor is that factor's own zero
    # polynomial: no check may change one in place
    loaded = []
    real = cli.load_dataset

    def recorded(source):
        loaded.append(real(source))
        return loaded[-1]

    monkeypatch.setattr(cli, "load_dataset", recorded)
    for argv in [("validate", name)] + [("kernel", name, mode) for mode in modes]:
        assert run(capsys, *argv)[0] == 0
    fresh = load_dataset(name).generators
    assert len(loaded) == 1 + len(modes)
    for ds in loaded:
        assert [(n, cls.degree, cls.restrictions) for n, cls in ds.generators] == \
            [(n, cls.degree, cls.restrictions) for n, cls in fresh]


GR24_LEVEL = (Q(1, 2) + Q(1, 17), Q(1, 2) + Q(1, 19), Q(1, 2) - Q(1, 23))
GR24_CIRCLE = ["kernel dim 0 vs 0+0, direct=True", "kernel dim 0 vs 0+0, direct=True",
               "kernel dim 2 vs 1+1, direct=True", "kernel dim 8 vs 4+4, direct=True",
               "kernel dim 20 vs 10+10, direct=True"]


@pytest.mark.parametrize("argv, details", [
    (("validate",), ["6 components, 3 generators", "found [-2, -1, 1]",
                     "9 products through degree 8"]),
    # M//T is a sphere, so ker kappa_T is not all of positive degree and a
    # chamber sum that misses part of it shows
    (("kernel", "--full"), [f"kernel dim {k} vs chamber sum dim {k}" for k in (0, 3, 11, 23, 41)]),
    (("kernel", "--circle=1,2,4"), GR24_CIRCLE),
    (("kernel", "--circle=-3,1,2"), GR24_CIRCLE),
], ids=["validate", "full", "circle", "circle-negative"])
def test_grassmannian_passes(capsys, tmp_path, argv, details):
    # Gr(2,4) at a generic level, a space that is not toric, through degree 8
    path = tmp_path / "gr24.json"
    path.write_text(json.dumps(dataset_to_json(grassmannian(4, GR24_LEVEL))))
    code, report, _ = run_json(capsys, argv[0], str(path), *argv[1:])
    assert code == 0 and report["pass"]
    assert [check["detail"] for check in report["checks"]] == details


# -- output handling ---------------------------------------------------------------


@pytest.mark.parametrize("argv", [
    ("validate", "{path}"), ("kernel", "s2", "--full"), ("residue", "{expression}"),
], ids=["dataset-path", "bundled-name", "expression-file"])
def test_each_input_is_read_once(capsys, monkeypatch, tmp_path, argv):
    dataset = tmp_path / "s2.json"
    dataset.write_text(json.dumps(dataset_to_json(load_dataset("s2"))))
    expression = write_expression(tmp_path, GOOD_EXPRESSION)
    argv = [a.format(path=dataset, expression=expression) for a in argv]
    target = (Path(argv[1]) if argv[1].endswith(".json")
              else Path(str(resources.files("resloc") / "data" / f"{argv[1]}.json")))
    digest = hashlib.sha256(target.read_bytes()).hexdigest()
    opened = []
    real_open = io.open

    def counted(file, *args, **kwargs):
        opened.append(file)
        return real_open(file, *args, **kwargs)

    # pathlib opens through io.open, and the loaders through the builtin
    monkeypatch.setattr(io, "open", counted)
    monkeypatch.setattr(builtins, "open", counted)
    code, report, _ = run_json(capsys, *argv)
    assert code == 0
    reads = [f for f in opened if isinstance(f, (str, os.PathLike))
             and Path(f).resolve() == target.resolve()]
    assert len(reads) == 1, reads
    assert report["input"]["sha256"] == digest


def test_reports_are_byte_identical(capsys):
    argv = ("kernel", "s2xs2-t2", "--full", "--max-degree", "2")
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second


def test_output_file_matches_stdout(capsys, tmp_path):
    _, out, _ = run(capsys, "kernel", "s2", "--circle", "1")
    dest = tmp_path / "report.json"
    code, silent, _ = run(capsys, "kernel", "s2", "--circle", "1",
                          "--output", str(dest))
    assert code == 0 and silent == ""
    assert dest.read_text() == out


def test_text_format(capsys):
    code, out, _ = run(capsys, "kernel", "s2", "--circle", "1", "--format", "text")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "command: kernel"
    assert any(line.startswith("check circle-split-degree-2: PASS") for line in lines)
    assert lines[-1] == "overall: PASS"


def test_json_keys_sorted(capsys):
    _, out, _ = run(capsys, "validate", "s2")
    report = json.loads(out)
    assert list(report) == sorted(report)
    assert out == json.dumps(report, indent=2, sort_keys=True) + "\n"
