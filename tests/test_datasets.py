"""Dataset JSON schema: loading, validation error paths, serialization
round-trips, and the data-validity signal on a deliberately broken input."""

import copy
import json
from fractions import Fraction
from pathlib import Path

import pytest

from resloc.cli import main
from resloc.datasets import (
    BUILDERS,
    BUNDLED,
    SchemaError,
    dataset_from_json,
    dataset_to_json,
    load_dataset,
    projective,
    sphere_product,
    sphere_product_diagonal,
)
from resloc.spaces import RestrictedClass, localization_sum


@pytest.fixture(scope="module")
def s2_json():
    return dataset_to_json(load_dataset("s2"))


@pytest.fixture(scope="module")
def nonisolated_json():
    return dataset_to_json(load_dataset("s2xs2-nonisolated"))


def test_bundled_datasets_load():
    for name in BUNDLED:
        ds = load_dataset(name)
        assert ds.name == name
        assert ds.space.components
        assert any(n == "one" for n, _ in ds.generators)


def test_builders_match_bundled_files():
    assert sorted(BUILDERS) == sorted(BUNDLED)
    for name, build in BUILDERS.items():
        assert dataset_to_json(build()) == dataset_to_json(load_dataset(name))


def test_families_match_the_benchmarks(monkeypatch):
    # CI's smoke inputs are built here and the benchmark's by its own copy of
    # the families: both must be the same spaces, at the benchmark's CP^3 and
    # CP^4 offsets for both recorded seeds and CI's CP^6 offset
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    import families
    import workloads

    pairs = [(sphere_product(k), families.sphere_product(k)) for k in range(1, 7)]
    pairs += [(sphere_product_diagonal(k), families.sphere_product_diagonal(k))
              for k in (3, 5, 7)]
    offsets = [workloads.projective_offset(seed, n) for n in (3, 4)
               for seed in (workloads.DEFAULT_SEED, workloads.HELD_OUT_SEED)]
    offsets.append(tuple(Fraction(i + 1, 72) for i in range(6)))
    pairs += [(projective(len(o), o), families.projective(len(o), o)) for o in offsets]
    for ours, theirs in pairs:
        assert ours.name == theirs.name
        assert dataset_to_json(ours) == dataset_to_json(theirs), ours.name


@pytest.mark.parametrize("k", [2, 4])
def test_diagonal_family_refuses_even_k(k):
    # the fixed points with as many N as S factors sit at moment 0, where no
    # circle direction is generic
    with pytest.raises(ValueError, match="needs odd k"):
        sphere_product_diagonal(k)


def test_round_trip_is_identity():
    for name in BUNDLED:
        obj = dataset_to_json(load_dataset(name))
        again = dataset_to_json(dataset_from_json(copy.deepcopy(obj), name))
        assert again == obj


def test_load_from_file(tmp_path, s2_json):
    p = tmp_path / "custom.json"
    p.write_text(json.dumps(s2_json))
    ds = load_dataset(str(p))
    assert ds.name == "custom"
    assert len(ds.space.components) == 2


def test_components_share_one_algebra_per_distinct_json_algebra(tmp_path):
    # (S^2)^5 has 32 point components with one and the same JSON algebra
    p = tmp_path / "s2x5.json"
    p.write_text(json.dumps(dataset_to_json(sphere_product(5))))
    components = load_dataset(str(p)).space.components
    assert len(components) == 32
    assert len({id(f.algebra) for f in components}) == 1


def test_bad_algebra_named_at_its_first_component():
    # the two components of s2xs2-nonisolated share one JSON algebra: a
    # degenerate integral on the second alone names the second, on both the first
    obj = dataset_to_json(load_dataset("s2xs2-nonisolated"))
    assert obj["components"][0]["algebra"] == obj["components"][1]["algebra"]
    obj["components"][1]["algebra"]["integral"] = ["0", "0"]
    with pytest.raises(SchemaError, match=r"^\$\.components\[1\]\.algebra: integral pairing"):
        dataset_from_json(copy.deepcopy(obj), "bad")
    obj["components"][0]["algebra"]["integral"] = ["0", "0"]
    with pytest.raises(SchemaError, match=r"^\$\.components\[0\]\.algebra: integral pairing"):
        dataset_from_json(obj, "bad")


def test_load_rejects_invalid_json(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    with pytest.raises(SchemaError, match="not valid JSON"):
        load_dataset(str(p))


def test_unit_generator_inserted(s2_json):
    obj = copy.deepcopy(s2_json)
    obj["generators"] = [g for g in obj["generators"] if g["name"] != "one"]
    ds = dataset_from_json(obj, "s2")
    assert ds.generators[0][0] == "one"
    assert ds.generators[0][1] == RestrictedClass.unit(ds.space)


def test_one_names_only_the_unit_class(s2_json):
    # the unit generator under another name, and "one" naming u
    obj = copy.deepcopy(s2_json)
    for g in obj["generators"]:
        g["name"] = {"one": "unit", "u": "one"}[g["name"]]
    with pytest.raises(SchemaError, match=r'generators\[1\]\.name: "one" is kept for the unit'):
        dataset_from_json(obj, "s2")


def test_generator_lookup(s2_json):
    ds = dataset_from_json(copy.deepcopy(s2_json), "s2")
    assert ds.generator("u").degree == 2
    with pytest.raises(KeyError):
        ds.generator("nope")


# -- schema error paths, with the offending location in the message ---------------


def test_missing_top_level_key(s2_json):
    obj = copy.deepcopy(s2_json)
    del obj["components"]
    with pytest.raises(SchemaError, match=r"\$\.components: missing"):
        dataset_from_json(obj, "s2")


def test_bad_fraction_string(s2_json):
    obj = copy.deepcopy(s2_json)
    obj["components"][0]["moment"][0] = "one half"
    with pytest.raises(SchemaError, match="rational 'p/q'"):
        dataset_from_json(obj, "s2")


def test_wrong_moment_length(s2_json):
    obj = copy.deepcopy(s2_json)
    obj["components"][0]["moment"] = ["1", "2"]
    with pytest.raises(SchemaError, match="components"):
        dataset_from_json(obj, "s2")


def test_unknown_component_in_restrictions(s2_json):
    obj = copy.deepcopy(s2_json)
    gen = next(g for g in obj["generators"] if g["name"] == "u")
    gen["restrictions"]["W"] = gen["restrictions"]["S"]
    with pytest.raises(SchemaError, match=r"unknown components.*W"):
        dataset_from_json(obj, "s2")


def test_missing_restriction(s2_json):
    obj = copy.deepcopy(s2_json)
    gen = next(g for g in obj["generators"] if g["name"] == "u")
    del gen["restrictions"]["S"]
    with pytest.raises(SchemaError, match=r"restrictions\.S: missing"):
        dataset_from_json(obj, "s2")


def test_exponent_arity_checked(s2_json):
    obj = copy.deepcopy(s2_json)
    gen = next(g for g in obj["generators"] if g["name"] == "u")
    gen["restrictions"]["S"][0]["exponents"] = [1, 0]
    with pytest.raises(SchemaError, match="exponents"):
        dataset_from_json(obj, "s2")


def test_duplicate_generator_names(s2_json):
    obj = copy.deepcopy(s2_json)
    obj["generators"].append(copy.deepcopy(obj["generators"][-1]))
    with pytest.raises(SchemaError, match="distinct"):
        dataset_from_json(obj, "s2")


def test_nonassociative_algebra_rejected_naming_triple(s2_json):
    obj = copy.deepcopy(s2_json)
    obj["dim_M"] = 8
    obj["components"][0]["algebra"] = {
        "basis": ["one", "a", "b", "t", "s"],
        "degrees": [0, 2, 2, 4, 6],
        "mult_table": [
            [0, 0, 0, "1"], [0, 1, 1, "1"], [0, 2, 2, "1"], [0, 3, 3, "1"],
            [0, 4, 4, "1"], [1, 1, 3, "1"], [1, 3, 4, "1"], [2, 3, 4, "1"],
        ],
        "integral": ["0", "0", "0", "0", "1"],
        "top_degree": 6,
    }
    obj["components"][0]["normal_lines"] = [
        {"weight": ["-1"], "chern": ["0", "0", "0", "0", "0"]}]
    with pytest.raises(SchemaError, match=r"associative.*\(a,a,b\)"):
        dataset_from_json(obj, "s2")


def test_bad_weyl_perm_reported():
    obj = dataset_to_json(load_dataset("s2cubed-su2"))
    obj["weyl"]["elements"][1]["perm"] = [0, 1, 2, 3, 4, 5, 6, 6]
    with pytest.raises(SchemaError, match=r"\$\.weyl.*permute"):
        dataset_from_json(obj, "s2cubed-su2")


# -- each distinct raw value parsed once per load ----------------------------------


def set_slot(obj, kind, component, value):
    """obj with one rational slot of this kind set to value: in the given
    component (a moment, a weight or the Chern entry of its top basis
    element), or in the restriction there of the given generator (a term's
    coefficient)."""
    comp = obj["components"][component]
    if kind == "moment":
        comp["moment"][0] = value
    elif kind in ("weight", "chern"):
        comp["normal_lines"][0][kind][-1] = value
    else:
        obj["generators"][component]["restrictions"][comp["name"]][0]["coeff"] = value
    return obj


SLOT_PATHS = {"weight": r"$.components[1].normal_lines[0].weight",
              "moment": r"$.components[1].moment",
              "chern": r"$.components[1].normal_lines[0].chern",
              "coeff": r"$.generators[1].restrictions.FS[0].coeff"}


@pytest.mark.parametrize("kind", sorted(SLOT_PATHS))
def test_true_after_a_parsed_one_exits_two(capsys, tmp_path, nonisolated_json, kind):
    # True == 1 and hash(True) == hash(1) in Python: the parse memo is keyed
    # by JSON type, so a true after an integer 1 of its slot kind is refused
    obj = set_slot(set_slot(copy.deepcopy(nonisolated_json), kind, 0, 1), kind, 1, True)
    path = tmp_path / "true.json"
    path.write_text(json.dumps(obj))
    assert main(["validate", str(path)]) == 2
    out, err = capsys.readouterr()
    assert not out and err.count("\n") == 1
    assert err.startswith(f"error: {SLOT_PATHS[kind]}: expected a rational"), err
    # the same input with 1 in place of true is read
    dataset_from_json(set_slot(obj, kind, 1, 1), "edited")


@pytest.mark.parametrize("kind", sorted(SLOT_PATHS))
def test_one_as_integer_string_and_fraction_loads_equal(nonisolated_json, kind):
    loads = [dataset_to_json(dataset_from_json(set_slot(set_slot(
                 copy.deepcopy(nonisolated_json), kind, 0, raw), kind, 1, raw), "edited"))
             for raw in (1, "1", "2/2")]
    assert loads[0] == loads[1] == loads[2]


def test_no_parse_outlives_its_load(s2_json):
    # nothing parsed by one load, refused or not, is read by the next
    fresh = dataset_to_json(dataset_from_json(copy.deepcopy(s2_json), "s2"))
    dataset_from_json(set_slot(copy.deepcopy(s2_json), "moment", 0, 1), "s2")
    with pytest.raises(SchemaError, match=r"components\[0\]\.moment"):
        dataset_from_json(set_slot(copy.deepcopy(s2_json), "moment", 0, True), "s2")
    with pytest.raises(SchemaError, match=r"components\[1\]\.moment"):
        dataset_from_json(set_slot(set_slot(copy.deepcopy(s2_json), "moment", 0, 1),
                                   "moment", 1, True), "s2")
    assert dataset_to_json(dataset_from_json(copy.deepcopy(s2_json), "s2")) == fresh


def test_equal_weight_lists_share_one_form(tmp_path):
    # (S^2)^2's four fixed points hold eight weight lists, four distinct;
    # a string list equal to an integer one is the same form too
    obj = dataset_to_json(sphere_product(2))
    obj["components"][3]["normal_lines"][1]["weight"] = [
        str(v) for v in obj["components"][3]["normal_lines"][1]["weight"]]
    ds = dataset_from_json(obj, "s2x2")
    forms: dict = {}
    for f in ds.space.components:
        for w, _ in f.normal_lines:
            forms.setdefault(w.coeffs, set()).add(id(w))
    assert len(forms) == 4 and all(len(ids) == 1 for ids in forms.values())


# -- structurally valid but inconsistent data --------------------------------------


def test_flipped_weight_loads_but_fails_validity(s2_json):
    obj = copy.deepcopy(s2_json)
    for comp in obj["components"]:
        for line in comp["normal_lines"]:
            line["weight"] = ["1"]
    ds = dataset_from_json(obj, "s2-flipped")
    total = localization_sum(ds.space, RestrictedClass.unit(ds.space))
    assert total.denom
