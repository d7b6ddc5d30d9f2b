"""Golden digests of whole reports: the sha256 of stdout and of stderr, and
the exit code, for the bundled datasets through every command and mode, and
for generated spaces whose chambers, span rows and circle sides the bundled
ones do not reach.

A refactor that leaves every report byte-identical leaves these unchanged;
one that moves a byte of stdout or stderr, or an exit code, fails here.
"""

import hashlib
import json
import pathlib
from fractions import Fraction as Q

import pytest

from resloc.cli import main
from resloc.datasets import (dataset_to_json, projective, sphere_product,
                             sphere_product_diagonal)

# the double pole, second simple pole and X-free factor of the CI smoke step
EXPRESSION = {"variables": ["X", "Y"],
              "numerator": [{"coeff": "1", "exponents": [2, 0]}],
              "denominator": [{"form": ["1", "-1"], "multiplicity": 2},
                              {"form": ["1", "1"]}, {"form": ["0", "2"]}]}

# the same with X and Y swapped and its residue taken in Y, so that the series
# route contracts slices of a variable other than the first
EXPRESSION_Y = {"variables": ["X", "Y"], "variable": "Y",
                "numerator": [{"coeff": "1", "exponents": [0, 2]}],
                "denominator": [{"form": ["-1", "1"], "multiplicity": 2},
                                {"form": ["1", "1"]}, {"form": ["2", "0"]}]}

# generated inputs: CP^3's moments lie off the axes, so its chamber sides are
# not coordinate signs; diagonal (S^2)^5 has span rows from larger slices;
# diagonal (S^2)^3 to degree 12 is the benchmark's slowest nonabelian op
GENERATED = {
    "cp3.json": lambda: projective(3, tuple(Q(i + 1, 50) for i in range(3))),
    "s2x5-diag.json": lambda: sphere_product_diagonal(5),
    "s2x3.json": lambda: sphere_product(3),
    "s2x3-diag.json": lambda: sphere_product_diagonal(3),
}

EMPTY = hashlib.sha256(b"").hexdigest()

# argv -> (exit code, sha256 of stdout, sha256 of stderr)
GOLDEN = {
    "validate s2":
        (0, "c4ca14841808678ef73e2da2173d60b9932d65b733658eee697bfe1923d38cb8",
         EMPTY),
    "validate s2xs2-t2":
        (0, "6efd5b465704f0a4e262eb636417369f57885a7add2425d06daef579e3af68de",
         EMPTY),
    "validate s2xs2-nonisolated":
        (0, "40121cc5b6a3be6e04b6d0e318357ca3f2064bb546f56597d4188c97f5d6d43a",
         EMPTY),
    "validate s2cubed-su2":
        (0, "a20baa2c654eda24e63d23392af9fc772eefb5cc294a82ec3baebaf6842b3283",
         EMPTY),
    "kernel s2 --full":
        (0, "0d70d3a7843f549cb489d2734b0a8a5024e327ebe6a5c12deb6ab425fdfecde9",
         EMPTY),
    "kernel s2xs2-t2 --full":
        (0, "f59e1b2fa97c1d3a18102b3567abc38ee72c710a88f13052135e3866374acd4e",
         EMPTY),
    "kernel s2xs2-nonisolated --full":
        (0, "9e5d6cc661d03d4e3b72f42c76f98fb82ab41f4e32cf2c921b63a6f0121b9322",
         EMPTY),
    "kernel s2 --circle=1":
        (0, "fb7e0bd736dee664ddbc3f816be194cbae7e24ce3260cc225bdc8e3faea58024",
         EMPTY),
    "kernel s2xs2-t2 --circle=1,2":
        (0, "f4726d024001ba9c0b669121e18da164cb6e6742db36b7b1f85493752d84330b",
         EMPTY),
    "kernel s2xs2-t2 --circle=-1,2":
        (0, "570d28c143efe3c53205986148571e0718c6310487e3e5f0981ff83d5cb95ca6",
         EMPTY),
    # the same value as a separate argument gives the same bytes
    "kernel s2xs2-t2 --circle -1,2":
        (0, "570d28c143efe3c53205986148571e0718c6310487e3e5f0981ff83d5cb95ca6",
         EMPTY),
    "kernel s2xs2-nonisolated --circle=1":
        (0, "19aafe261c1e4c2a2fcc8110d6ab8d49b05b22378e23d9eac5a27307e97b7478",
         EMPTY),
    "kernel s2cubed-su2 --nonabelian":
        (0, "5ad8ffee3d30dff6b7e1ead22a7a9a7b6ca79dc4f1f01d0f90a54d7ae51aafaa",
         EMPTY),
    "kernel s2cubed-su2 --nonabelian --ordering 0 --delta 2 --format text":
        (0, "71a072bf39f312bde421fefd23b13c24d7a3b4090c1ebf735591130e5aab23f9",
         EMPTY),
    "kernel s2 --full --ordering 0 --delta -3/2":
        (0, "f64cc84a54259b5524e5857950a7d78c8da5386b4d4ee617ab401c7911969b71",
         EMPTY),
    "kernel s2xs2-t2 --full --ordering 1,0 --delta -3/2":
        (2, EMPTY,
         "7ac5f926a3e14b93943777a6c88dee5342b66943003c10d365a565e4dc192dce"),
    "kernel s2 --circle 1 --format text":
        (0, "a31f92157693c96e0b157508ce512751d1fe99bcd511eca76735286059af3d16",
         EMPTY),
    # a negative leading entry: the calibration integrates along xi as given
    "kernel s2 --circle=-1":
        (0, "47896a1ec6eaac0159753b5b727afe4c19ef8daef160a64bb61dc355a45ca12a",
         EMPTY),
    # pairings whose keys multiply algebra basis elements, on the negative
    # side of a circle, and a rank-one circle on a rank-two torus
    "kernel s2xs2-nonisolated --circle=-1 --max-degree 6":
        (0, "8de3de9515e05785cf32a32dd2fdae599d153229065d46aee77bbcf592317394",
         EMPTY),
    "kernel s2cubed-su2 --circle 1":
        (0, "771343dbd00ad3fd7fb0e8bf2ae473125406da8191676767a84a21f17a169fd6",
         EMPTY),
    "kernel cp3.json --full":
        (0, "4656c8e573c7e20be65e2512ce56bb8481a1426143872c577816ce5f57770c30",
         EMPTY),
    "kernel s2x5-diag.json --nonabelian --max-degree 6":
        (0, "7eb11c65a09e49cf866c2dc1727f042b125d51db8dd495e3fc8c69d6f167bd5e",
         EMPTY),
    "kernel s2x3-diag.json --nonabelian --max-degree 12":
        (0, "34753eb887b587d68e8501dce0d81b09e306389e42b2934e882a36363f9e9aa1",
         EMPTY),
    "kernel s2x3.json --circle=1,2,4 --max-degree 4":
        (0, "debc9d98a61b2eac7b6ff17afbeaec20d40cf33491f14b6767a16b2f63cbed1e",
         EMPTY),
    "residue expr.json":
        (0, "0c7c88d5297a485d809de109b7f50dead9338c4c71526e7e6d7345d035a71c5d",
         EMPTY),
    "residue expr-y.json":
        (0, "c80ca485d8f2501e0cd053f3fd19b2a54f66ace1270b5b0f8b9ab699a16e5c30",
         EMPTY),
    # the rank-one space that is not toric: a chamber sum that drops a
    # component from a vanishing set shows here
    "kernel s2cubed-su2 --full":
        (0, "04668519e23a76dc0e887c0e845cd75ae0dcfbe93eabe47f27daea032110b82a",
         EMPTY),
}


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def write_inputs(argv: str, directory: pathlib.Path) -> None:
    """Write the files that argv reads into directory.  Reports record the
    input path, so argv names them relative to it."""
    (directory / "expr.json").write_text(json.dumps(EXPRESSION) + "\n")
    (directory / "expr-y.json").write_text(json.dumps(EXPRESSION_Y) + "\n")
    for name in set(argv.split()) & set(GENERATED):
        (directory / name).write_text(json.dumps(dataset_to_json(GENERATED[name]())) + "\n")


@pytest.mark.parametrize("argv", list(GOLDEN), ids=list(GOLDEN))
def test_report_digest(argv, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_inputs(argv, tmp_path)
    code = main(argv.split())
    captured = capsys.readouterr()
    assert (code, sha(captured.out), sha(captured.err)) == GOLDEN[argv]
