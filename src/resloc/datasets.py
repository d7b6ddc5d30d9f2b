"""Dataset files: JSON schema for fixed-point data, loaders with itemized
schema errors, writers, builders for the bundled examples and three families
of generated test spaces, (S^2)^k, the diagonal (S^2)^k with its Z/2 and CP^n;
also the loader of residue expression files (see the README), with the same
errors.

Schema (all rationals are strings "p/q" in lowest terms; weights and exponents
are integer arrays; a key outside the schema is an error):

    {
      "torus_rank": 1,
      "dim_M": 2,
      "variables": ["X"],
      "components": [
        {"name": "N",
         "moment": ["1"],
         "algebra": {"basis": ["one"], "degrees": [0],
                     "mult_table": [[0, 0, 0, "1"]],
                     "integral": ["1"], "top_degree": 0},
         "normal_lines": [{"weight": [-1], "chern": ["0"]}]}
      ],
      "generators": [
        {"name": "u", "degree": 2,
         "restrictions": {"N": [], "S": [{"coeff": "1", "exponents": [1],
                                          "basis_index": 0}]}}
      ],
      "weyl": {"elements": [{"matrix": [["-1"]], "perm": [1, 0],
                             "algebra_maps": [[["1"]], [["1"]]]}],
               "positive_roots": [["1"]]}       (optional)
    }
"""

from __future__ import annotations

import hashlib
import io
import json
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from itertools import product

from .spaces import FixedComponent, HamiltonianSpace, RestrictedClass
from .symcore import (
    POINT_ALGEBRA,
    EquivariantPolynomial,
    GradedAlgebra,
    LinearForm,
    Q,
    RationalSection,
    ValidationError,
    Variables,
)
from .weylgrp import WeylData, WeylElement

__all__ = [
    "SchemaError",
    "Dataset",
    "dataset_from_json",
    "dataset_to_json",
    "load_dataset",
    "load_expression",
    "BUNDLED",
    "build_s2",
    "build_s2xs2_nonisolated",
    "sphere_product",
    "sphere_product_diagonal",
    "projective",
    "BUILDERS",
]

BUNDLED = ("s2", "s2xs2-t2", "s2xs2-nonisolated", "s2cubed-su2")


class SchemaError(ValueError):
    """Malformed dataset file; the message carries the offending path."""


@dataclass
class Dataset:
    name: str
    space: HamiltonianSpace
    generators: list[tuple[str, RestrictedClass]]
    weyl: WeylData | None = None
    sha256: str | None = None  # of the file it was loaded from

    def generator(self, name: str) -> RestrictedClass:
        for n, cls in self.generators:
            if n == name:
                return cls
        if name == "one":  # the loader keeps this name for the unit class
            return RestrictedClass.unit(self.space)
        raise KeyError(f"no generator named {name!r}")


# -- parsing -------------------------------------------------------------------


class _Rationals(dict):
    """The rational slots of one load, each distinct raw value parsed once,
    keyed by JSON type too: True == 1, but a ``true`` is no rational."""

    def __call__(self, value, path: str) -> Fraction:
        if type(value) in (int, str):
            key = (type(value), value)
            if (q := self.get(key)) is not None:
                return q
            try:
                q = self[key] = Fraction(value)
                return q
            except (ValueError, ZeroDivisionError):
                pass
        raise SchemaError(f"{path}: expected a rational 'p/q' string, got {value!r}")


_KINDS = {int: "an integer", list: "an array", str: "a string", dict: "an object"}


def _typed(value, kind, path: str):
    """The value, if it has this JSON type; a bool is not an integer."""
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise SchemaError(f"{path}: expected {_KINDS[kind]}")
    return value


def _rational_rows(rows: list, path: str, frac: _Rationals) -> tuple[tuple[Fraction, ...], ...]:
    """An array of arrays of rationals, e.g. a matrix."""
    return tuple(tuple(frac(v, f"{path}[{r}]") for v in _typed(row, list, f"{path}[{r}]"))
                 for r, row in enumerate(rows))


def _known_keys(obj, keys: tuple[str, ...], path: str) -> None:
    """Reject a key of the object outside the schema's keys for it."""
    for key in _typed(obj, dict, path):
        if key not in keys:
            raise SchemaError(f"{path}.{key}: unknown key")


def _expect(obj, key, kind, path: str):
    _typed(obj, dict, path)
    if key not in obj:
        raise SchemaError(f"{path}.{key}: missing")
    return obj[key] if kind is None else _typed(obj[key], kind, f"{path}.{key}")


def _algebra_from_json(obj, path: str, frac: _Rationals) -> GradedAlgebra:
    _known_keys(obj, ("basis", "degrees", "mult_table", "integral", "top_degree"), path)
    basis = _expect(obj, "basis", list, path)
    degrees = [_typed(d, int, f"{path}.degrees[{n}]")
               for n, d in enumerate(_expect(obj, "degrees", list, path))]
    table_rows = _expect(obj, "mult_table", list, path)
    integral = _expect(obj, "integral", list, path)
    top = _expect(obj, "top_degree", int, path)
    table: dict[tuple[int, int], dict[int, Fraction]] = {}
    for t, row in enumerate(table_rows):
        if not (isinstance(row, list) and len(row) == 4):
            raise SchemaError(f"{path}.mult_table[{t}]: expected [i, j, k, 'p/q']")
        i, j, k = (_typed(v, int, f"{path}.mult_table[{t}][{n}]") for n, v in enumerate(row[:3]))
        c = row[3]
        table.setdefault((i, j), {})[k] = (
            table.get((i, j), {}).get(k, Q(0))
            + frac(c, f"{path}.mult_table[{t}]"))
    try:
        return GradedAlgebra(basis, degrees, table,
                             [frac(v, f"{path}.integral") for v in integral], top)
    except ValidationError as exc:
        raise SchemaError(f"{path}: {exc}") from exc


def _term(term, count: int, path: str, frac: _Rationals) -> tuple[tuple[int, ...], Fraction]:
    """The exponents and the coefficient of one {"coeff", "exponents"} term."""
    coeff = frac(_expect(term, "coeff", None, path), f"{path}.coeff")
    exps = _expect(term, "exponents", list, path)
    if len(exps) != count or any(
            isinstance(e, bool) or not isinstance(e, int) or e < 0 for e in exps):
        raise SchemaError(f"{path}.exponents: expected {count} nonnegative integers")
    return tuple(exps), coeff


def _poly_from_terms(vars: Variables, algebra: GradedAlgebra, terms, path: str,
                     frac: _Rationals) -> EquivariantPolynomial:
    if not isinstance(terms, list):
        raise SchemaError(f"{path}: expected an array of terms")
    out: dict[tuple[tuple[int, ...], int], Fraction] = {}
    for t, term in enumerate(terms):
        _known_keys(term, ("coeff", "exponents", "basis_index"), f"{path}[{t}]")
        exps, coeff = _term(term, vars.count, f"{path}[{t}]", frac)
        b = _expect(term, "basis_index", int, f"{path}[{t}]")
        if not 0 <= b < len(algebra.basis):
            raise SchemaError(f"{path}[{t}].basis_index: out of range")
        key = (exps, b)
        out[key] = out.get(key, Q(0)) + coeff
    return EquivariantPolynomial(vars, algebra, out)


def dataset_from_json(obj: dict, name: str) -> Dataset:
    _known_keys(obj, ("torus_rank", "dim_M", "variables", "components", "generators",
                      "weyl"), "$")
    rank = _expect(obj, "torus_rank", int, "$")
    if rank < 1:
        raise SchemaError(f"$.torus_rank: torus rank must be at least 1, got {rank}")
    dim = _expect(obj, "dim_M", int, "$")
    if dim % 2 or dim < 0:
        raise SchemaError(f"$.dim_M: dim must be even and nonnegative, got {dim}")
    var_names = _expect(obj, "variables", list, "$")
    if (len(var_names) != rank or any(not isinstance(v, str) for v in var_names)
            or len(set(var_names)) != rank):
        raise SchemaError("$.variables: expected torus_rank distinct variable names")
    vars = Variables(tuple(var_names))

    # once per load: each distinct raw rational is parsed, and each distinct
    # weight, all-integer weight array and JSON algebra made into one object
    frac, components, weights, raw_weights, algebras = _Rationals(), [], {}, {}, {}
    for c, cobj in enumerate(_expect(obj, "components", list, "$")):
        path = f"$.components[{c}]"
        _known_keys(cobj, ("name", "moment", "algebra", "normal_lines"), path)
        cname = _expect(cobj, "name", str, path)
        moment = tuple(frac(v, f"{path}.moment")
                       for v in _expect(cobj, "moment", list, path))
        aobj = _expect(cobj, "algebra", dict, path)
        key = json.dumps(aobj, sort_keys=True)
        if key not in algebras:
            algebras[key] = _algebra_from_json(aobj, f"{path}.algebra", frac)
        algebra = algebras[key]
        lines = []
        for l, lobj in enumerate(_expect(cobj, "normal_lines", list, path)):
            lpath = f"{path}.normal_lines[{l}]"
            _known_keys(lobj, ("weight", "chern"), lpath)
            wraw = _expect(lobj, "weight", list, lpath)
            # a bool is no integer, though True == 1: an array with one is read afresh
            raw = tuple(wraw) if all(type(v) is int for v in wraw) else None
            if raw is None or (weight := raw_weights.get(raw)) is None:
                weight = LinearForm.make([frac(v, f"{lpath}.weight") for v in wraw])
                raw_weights[raw] = weight = weights.setdefault(weight, weight)
            craw = _expect(lobj, "chern", list, lpath)
            if len(craw) != len(algebra.basis):
                raise SchemaError(f"{lpath}.chern: expected one coefficient per "
                                  "algebra basis element")
            chern = EquivariantPolynomial.from_algebra_element(
                vars, algebra,
                {i: frac(v, f"{lpath}.chern") for i, v in enumerate(craw)})
            lines.append((weight, chern))
        components.append(FixedComponent(cname, moment, algebra, tuple(lines)))

    try:
        space = HamiltonianSpace(vars, dim, tuple(components))
    except ValidationError as exc:
        raise SchemaError(f"$.components: {exc}") from exc

    unit = RestrictedClass.unit(space)
    generators = []
    for g, gobj in enumerate(_expect(obj, "generators", list, "$")):
        path = f"$.generators[{g}]"
        _known_keys(gobj, ("name", "degree", "restrictions"), path)
        gname = _expect(gobj, "name", str, path)
        degree = _expect(gobj, "degree", int, path)
        if degree % 2 or degree < 0:
            # every class here is even, so such a generator could only be zero
            raise SchemaError(f"{path}.degree: degree must be even and nonnegative, "
                              f"got {degree}")
        rmap = _expect(gobj, "restrictions", dict, path)
        restrictions = {}
        for f in space.components:
            if f.name not in rmap:
                raise SchemaError(f"{path}.restrictions.{f.name}: missing")
            restrictions[f.name] = _poly_from_terms(
                vars, f.algebra, rmap[f.name], f"{path}.restrictions.{f.name}", frac)
        unknown = set(rmap) - {f.name for f in space.components}
        if unknown:
            raise SchemaError(f"{path}.restrictions: unknown components "
                              f"{sorted(unknown)}")
        try:
            cls = RestrictedClass(space, degree, restrictions)
        except ValidationError as exc:
            raise SchemaError(f"{path}: {exc}") from exc
        if degree == 0:
            first = restrictions[space.components[0].name]
            if cls != unit.scale(first.terms.get((vars.zero_exps(), 0), Q(0))):
                raise SchemaError(f"{path}: a degree-0 generator must restrict to "
                                  "one and the same constant on every component")
        generators.append((gname, cls))
    if len({n for n, _ in generators}) != len(generators):
        raise SchemaError("$.generators: names must be distinct")
    taken = next((g for g, (n, cls) in enumerate(generators) if n == "one" and cls != unit),
                 None)
    if taken is not None:
        raise SchemaError(f"$.generators[{taken}].name: \"one\" is kept for the unit class")
    if not any(cls.degree == 0 and cls == unit for _, cls in generators):
        generators.insert(0, ("one", unit))

    weyl = None
    if "weyl" in obj:
        weyl = _weyl_from_json(obj["weyl"], space, frac)
    return Dataset(name, space, generators, weyl)


def _weyl_from_json(wobj, space: HamiltonianSpace, frac: _Rationals) -> WeylData:
    path = "$.weyl"
    _known_keys(wobj, ("elements", "positive_roots"), path)
    elements = []
    for e, eobj in enumerate(_expect(wobj, "elements", list, path)):
        epath = f"{path}.elements[{e}]"
        _known_keys(eobj, ("matrix", "perm", "algebra_maps"), epath)
        matrix = _rational_rows(_expect(eobj, "matrix", list, epath), f"{epath}.matrix", frac)
        perm = tuple(_typed(v, int, f"{epath}.perm[{n}]")
                     for n, v in enumerate(_expect(eobj, "perm", list, epath)))
        maps = tuple(_rational_rows(_typed(mat, list, f"{epath}.algebra_maps[{m}]"),
                                    f"{epath}.algebra_maps[{m}]", frac)
                     for m, mat in enumerate(_expect(eobj, "algebra_maps", list, epath)))
        elements.append(WeylElement(matrix, perm, maps))
    roots = [LinearForm.make(row) for row in
             _rational_rows(_expect(wobj, "positive_roots", list, path),
                            f"{path}.positive_roots", frac)]
    try:
        return WeylData(space, elements, roots)
    except ValidationError as exc:
        raise SchemaError(f"{path}: {exc}") from exc


# -- serialization -------------------------------------------------------------


def _fs(q) -> str:
    """A rational (or an int) as its canonical "p/q" report string."""
    return str(Fraction(q))


def _algebra_to_json(a: GradedAlgebra) -> dict:
    rows = []
    for i in range(len(a.basis)):
        for j in range(i, len(a.basis)):
            for k, c in sorted(a.mul_basis(i, j).items()):
                rows.append([i, j, k, _fs(c)])
    return {"basis": list(a.basis), "degrees": list(a.degrees),
            "mult_table": rows, "integral": [_fs(v) for v in a.integral],
            "top_degree": a.top_degree}


def _poly_to_terms(p: EquivariantPolynomial) -> list:
    return [{"coeff": _fs(c), "exponents": list(e), "basis_index": b}
            for (e, b), c in p.sorted_items()]


def dataset_to_json(ds: Dataset) -> dict:
    space = ds.space
    out = {
        "torus_rank": space.vars.count,
        "dim_M": space.dim,
        "variables": list(space.vars.names),
        "components": [
            {"name": f.name,
             "moment": [_fs(v) for v in f.moment],
             "algebra": _algebra_to_json(f.algebra),
             "normal_lines": [
                 {"weight": [int(v) if v.denominator == 1 else _fs(v)
                             for v in w.coeffs],
                  "chern": [_fs(sum((cv for (e, b), cv in c.terms.items() if b == i),
                                    Q(0)))
                            for i in range(len(f.algebra.basis))]}
                 for w, c in f.normal_lines]}
            for f in space.components],
        "generators": [
            {"name": name, "degree": cls.degree,
             "restrictions": {f.name: _poly_to_terms(cls.restrictions[f.name])
                              for f in space.components}}
            for name, cls in ds.generators],
    }
    if ds.weyl is not None:
        out["weyl"] = {
            "elements": [
                {"matrix": [[_fs(v) for v in row] for row in w.matrix],
                 "perm": list(w.perm),
                 "algebra_maps": [[[_fs(v) for v in row] for row in mat]
                                  for mat in w.algebra_maps]}
                for w in ds.weyl.elements],
            "positive_roots": [[_fs(v) for v in r.coeffs]
                               for r in ds.weyl.positive_roots],
        }
    return out


def _read(source: str, bundled: bool = False) -> tuple[str, str]:
    """The one read of an input, a file path or a bundled dataset's name: its
    text, decoded as a text-mode open decodes it, and the sha256 of the bytes
    read, which a report records."""
    if bundled:
        raw = resources.files("resloc").joinpath("data", f"{source}.json").read_bytes()
    else:
        with open(source, "rb") as fh:
            raw = fh.read()
    return io.TextIOWrapper(io.BytesIO(raw)).read(), hashlib.sha256(raw).hexdigest()


def load_dataset(source: str) -> Dataset:
    """Load a bundled dataset by name or any dataset from a file path."""
    bundled = source in BUNDLED
    text, digest = _read(source, bundled)
    name = source if bundled else source.rsplit("/", 1)[-1].removesuffix(".json")
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"not valid JSON: {exc}") from exc
    ds = dataset_from_json(obj, name)
    ds.sha256 = digest
    return ds


def load_expression(path: str) -> tuple[RationalSection, int, str, str]:
    """Load a residue expression file: the rational section, the index and
    name of the variable to take the residue in, and the file's sha256."""
    text, digest = _read(path)
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(
            f"parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    _known_keys(obj, ("variables", "variable", "numerator", "denominator"), "$")
    names = obj.get("variables")
    if (not isinstance(names, list) or not names
            or any(not isinstance(n, str) for n in names) or len(set(names)) != len(names)):
        raise SchemaError("$.variables: expected a nonempty array of distinct names")
    vars = Variables(tuple(names))
    frac, terms = _Rationals(), {}
    for t, term in enumerate(_expect(obj, "numerator", list, "$")):
        _known_keys(term, ("coeff", "exponents"), f"$.numerator[{t}]")
        exps, coeff = _term(term, vars.count, f"$.numerator[{t}]", frac)
        terms[(exps, 0)] = terms.get((exps, 0), Q(0)) + coeff
    numer = EquivariantPolynomial(vars, POINT_ALGEBRA, terms)
    denom: dict[LinearForm, int] = {}
    for d, factor in enumerate(_expect(obj, "denominator", list, "$")):
        dpath = f"$.denominator[{d}]"
        _known_keys(factor, ("form", "multiplicity"), dpath)
        coeffs = [frac(v, f"{dpath}.form") for v in _expect(factor, "form", list, dpath)]
        if len(coeffs) != vars.count:
            raise SchemaError(f"{dpath}.form: expected {vars.count} entries")
        form = LinearForm.make(coeffs)
        if form.is_zero():
            raise SchemaError(f"{dpath}.form: zero form")
        mult = _typed(factor.get("multiplicity", 1), int, f"{dpath}.multiplicity")
        if mult < 1:
            raise SchemaError(f"{dpath}.multiplicity: must be >= 1")
        denom[form] = denom.get(form, 0) + mult
    section = RationalSection(numer, denom)
    var_name = obj.get("variable", names[0])
    if var_name not in names:
        raise SchemaError(f"$.variable: unknown variable {var_name!r}")
    return section, names.index(var_name), var_name, digest


# -- builders: the bundled examples and three families of test spaces ----------


def _point_lines(vars: Variables, weights) -> tuple:
    zero = EquivariantPolynomial.zero(vars, POINT_ALGEBRA)
    return tuple((LinearForm.make(w), zero) for w in weights)


def build_s2() -> Dataset:
    """Rotation of the two-sphere: two fixed points at moment levels +-1, the
    (S^2)^k family at k = 1 with its generator u1 named u."""
    ds = sphere_product(1, ("X",))
    return Dataset("s2", ds.space, [ds.generators[0], ("u", ds.generators[1][1])])


def build_s2xs2_nonisolated() -> Dataset:
    """Circle rotating one sphere factor: the fixed set is two spheres, so the
    components carry a nontrivial coefficient algebra."""
    vars = Variables(("X",))
    cp1 = GradedAlgebra(("one", "vol"), (0, 2),
                        {(0, 0): {0: Q(1)}, (0, 1): {1: Q(1)}, (1, 1): {}},
                        (Q(0), Q(1)), 2)
    zero = EquivariantPolynomial.zero(vars, cp1)
    fn = FixedComponent("FN", (Q(1),), cp1, ((LinearForm.make([Q(-1)]), zero),))
    fs = FixedComponent("FS", (Q(-1),), cp1, ((LinearForm.make([Q(1)]), zero),))
    space = HamiltonianSpace(vars, 4, (fn, fs))
    vol = EquivariantPolynomial.from_algebra_element(vars, cp1, {1: Q(1)})
    x = EquivariantPolynomial.variable(vars, 0, cp1)
    v = RestrictedClass(space, 2, {"FN": vol, "FS": vol})
    w = RestrictedClass(space, 2, {"FN": zero, "FS": x})
    return Dataset("s2xs2-nonisolated", space,
                   [("one", RestrictedClass.unit(space)), ("v", v), ("w", w)])


def _spheres(vars: Variables, k: int, moment, axis) -> tuple[HamiltonianSpace, list]:
    """(S^2)^k: a fixed point per sign vector s, named by N for +1 and S for
    -1, with the given moment and the weight -s_i on variable axis(i), and
    generators u_i restricting to that variable where s_i = -1."""
    signs = list(product((1, -1), repeat=k))
    names = ["".join("N" if e > 0 else "S" for e in s) for s in signs]
    comps = [FixedComponent(name, moment(s), POINT_ALGEBRA, _point_lines(
                 vars, [[-e if j == axis(i) else 0 for j in range(vars.count)]
                        for i, e in enumerate(s)]))
             for name, s in zip(names, signs)]
    space = HamiltonianSpace(vars, 2 * k, comps)
    zero = EquivariantPolynomial.zero(vars, POINT_ALGEBRA)
    gens = [("one", RestrictedClass.unit(space))] + [
        (f"u{i + 1}", RestrictedClass(space, 2, {
            name: EquivariantPolynomial.variable(vars, axis(i)) if s[i] < 0 else zero
            for name, s in zip(names, signs)}))
        for i in range(k)]
    return space, gens


def sphere_product(k: int, variables: tuple[str, ...] | None = None) -> Dataset:
    """(S^2)^k under T^k, 2^k fixed points: moment s in {+-1}^k and weight
    -s_i e_i on axis i.  The variables default to X1..Xk."""
    vars = Variables(variables or tuple(f"X{i + 1}" for i in range(k)))
    space, gens = _spheres(vars, k, lambda s: tuple(map(Q, s)), lambda i: i)
    return Dataset(f"s2x{k}-t{k}", space, gens)


def sphere_product_diagonal(k: int) -> Dataset:
    """(S^2)^k under the diagonal circle, with the antipodal flip as Weyl
    group Z/2.  Only odd k: for even k some fixed points have moment 0 and no
    circle direction is generic."""
    if k % 2 == 0:
        raise ValueError("the diagonal family needs odd k: even k puts "
                         "fixed points at moment 0")
    space, gens = _spheres(Variables(("X",)), k, lambda s: (Q(sum(s)),), lambda i: 0)
    count = len(space.components)
    ident_maps = tuple(((Q(1),),) for _ in range(count))
    ident = WeylElement(((Q(1),),), tuple(range(count)), ident_maps)
    # signs are listed in binary order, so index count-1-i is the antipode of i
    flip = WeylElement(((Q(-1),),), tuple(count - 1 - i for i in range(count)),
                       ident_maps)
    weyl = WeylData(space, [ident, flip], [LinearForm.make([Q(1)])])
    return Dataset(f"s2x{k}-diag", space, gens, weyl)


def projective(n: int, offset: tuple[Fraction, ...]) -> Dataset:
    """CP^n under T^n: fixed points p_0..p_n with x_0 = 0, weights x_j - x_i
    at p_i, moment e_i (e_0 = 0) minus the offset, and the hyperplane class u
    restricting to x_i at p_i."""
    vars = Variables(tuple(f"X{i + 1}" for i in range(n)))
    e = [[0] * n] + [[int(j == i) for j in range(n)] for i in range(n)]
    comps = [FixedComponent(f"p{i}", tuple(Q(a) - c for a, c in zip(e[i], offset)),
                            POINT_ALGEBRA, _point_lines(
                                vars, [[a - b for a, b in zip(e[j], e[i])]
                                       for j in range(n + 1) if j != i]))
             for i in range(n + 1)]
    space = HamiltonianSpace(vars, 2 * n, comps)
    zero = EquivariantPolynomial.zero(vars, POINT_ALGEBRA)
    u = RestrictedClass(space, 2, {f"p{i}": EquivariantPolynomial.variable(vars, i - 1)
                                   if i else zero for i in range(n + 1)})
    return Dataset(f"cp{n}-t{n}", space, [("one", RestrictedClass.unit(space)), ("u", u)])


BUILDERS = {
    "s2": build_s2,
    "s2xs2-t2": lambda: sphere_product(2, ("X", "Y")),
    "s2xs2-nonisolated": build_s2xs2_nonisolated,
    "s2cubed-su2": lambda: sphere_product_diagonal(3),
}
