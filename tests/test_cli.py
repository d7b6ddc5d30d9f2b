"""Command-line interface: exit codes, report shape, and byte determinism."""

import json

import pytest

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


def test_kernel_full_s2xs2(capsys):
    code, report, _ = run_json(capsys, "kernel", "s2xs2-t2", "--full", "--max-degree", "4")
    assert code == 0 and report["pass"]
    chambers = report["results"]["chambers"]
    assert chambers["count"] == 8 and chambers["complete"]
    assert report["results"]["calibration"]["value"] == "1"


def test_kernel_full_with_delta(capsys):
    code, report, _ = run_json(capsys, "kernel", "s2", "--full",
                               "--ordering", "0", "--delta", "5")
    assert code == 0 and report["pass"]
    assert report["results"]["calibration"]["value"] == "-5"


@pytest.mark.parametrize("argv, flag", [
    (("kernel", "s2", "--full", "--ordering", "a"), "--ordering"),
    (("kernel", "s2", "--full", "--delta", "x"), "--delta"),
    (("kernel", "s2", "--full", "--max-degree", "-2"), "--max-degree"),
    (("validate", "s2", "--max-degree", "-1"), "--max-degree"),
    (("kernel", "s2", "--full", "--ordering", "1"), "--ordering"),
    (("kernel", "s2", "--full", "--delta", "0"), "--delta"),
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


def test_kernel_calibrate_flag(capsys):
    code, report, _ = run_json(capsys, "kernel", "s2", "--circle", "1",
                               "--calibrate", "u")
    assert code == 0
    assert report["results"]["calibration"]["class"] == "u"


def test_kernel_unknown_calibrate(capsys):
    code, _, err = run(capsys, "kernel", "s2", "--circle", "1", "--calibrate", "zz")
    assert code == 2


# -- output handling ---------------------------------------------------------------


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
