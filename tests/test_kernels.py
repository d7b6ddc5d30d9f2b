"""Degree-truncated models, one-sided vanishing subspaces, circle and torus
kernel comparisons, and chamber enumeration."""

import hashlib
from fractions import Fraction as Q
from itertools import combinations, combinations_with_replacement, product

import pytest

from resloc import kernels, linalg, spaces
from resloc.datasets import (
    BUNDLED,
    Dataset,
    dataset_from_json,
    dataset_to_json,
    load_dataset,
    projective,
    sphere_product,
    sphere_product_diagonal,
)
from resloc.kernels import (
    build_model,
    check_circle_kernel_split,
    check_full_kernel,
    circle_kernel,
    circle_testing_classes,
    enumerate_generic_directions,
    pairing_kernel,
    torus_kernel,
    vanishing_subspace,
)
from resloc.residues import ReciprocalSeries, VariableOrdering
from resloc.spaces import (
    CircleDirection,
    FixedComponent,
    HamiltonianSpace,
    NonGenericError,
    RestrictedClass,
    circle_integral,
    find_generic_direction,
    is_generic,
    positive_side,
    torus_integral,
)
from resloc.symcore import (
    POINT_ALGEBRA,
    EquivariantPolynomial,
    LinearForm,
    ValidationError,
    Variables,
    monomial_sort_key,
    substitution,
)
from resloc.weylgrp import check_nonabelian_kernels


def lf(*coeffs):
    return LinearForm.make([Q(c) for c in coeffs])


@pytest.fixture(scope="module")
def s2():
    return load_dataset("s2")


@pytest.fixture(scope="module")
def s2xs2():
    return load_dataset("s2xs2-t2")


@pytest.fixture(scope="module")
def nonisolated():
    return load_dataset("s2xs2-nonisolated")


@pytest.fixture(scope="module")
def s2_model(s2):
    return build_model(s2.space, s2.generators, 6)


@pytest.fixture(scope="module")
def s2xs2_model(s2xs2):
    return build_model(s2xs2.space, s2xs2.generators, 6)


# -- model construction -------------------------------------------------------


def test_model_slice_dimensions(s2_model, s2xs2_model):
    assert {d: len(b) for d, b in s2_model.basis_by_degree.items()} == \
        {0: 1, 2: 2, 4: 2, 6: 2}
    assert {d: len(b) for d, b in s2xs2_model.basis_by_degree.items()} == \
        {0: 1, 2: 4, 4: 8, 6: 12}


def test_model_labels(s2xs2_model):
    assert [el.label for el in s2xs2_model.basis_by_degree[2]] == ["X", "Y", "u1", "u2"]
    assert "X*u1" in [el.label for el in s2xs2_model.basis_by_degree[4]]


def test_model_relation_found(s2, s2_model):
    # u^2 and X*u restrict identically on the sphere, so degree 4 stays rank 2
    u = s2.generator("u")
    x = EquivariantPolynomial.variable(s2.space.vars, 0)
    assert u * u == u.mul_pure(x)
    basis = [el.vector for el in s2_model.basis_by_degree[4]]
    assert len(basis) == 2
    vector = s2_model.class_vector(u * u, 4)
    assert vector is not None
    assert linalg.rank(basis + [vector]) == len(basis)


def test_model_coefficients_roundtrip(s2xs2_model):
    for el in s2xs2_model.basis_by_degree[4]:
        assert s2xs2_model.class_vector(el.cls, 4) == el.vector
    [unit] = s2xs2_model.basis_by_degree[0]
    assert s2xs2_model.class_vector(RestrictedClass.unit(s2xs2_model.space), 0) == unit.vector


def test_model_coefficients_reject_terms_outside_the_slice(nonisolated):
    # without v the degree-2 keys hold no vol term, so v, which is vol on
    # both spheres, must not read as the zero combination
    gens = [g for g in nonisolated.generators if g[0] != "v"]
    model = build_model(nonisolated.space, gens, 2)
    assert model.class_vector(nonisolated.generator("v"), 2) is None


def test_model_rejects_duplicate_generator_names(s2):
    with pytest.raises(ValidationError, match="distinct"):
        build_model(s2.space, s2.generators + [("u", s2.generator("u"))], 4)


def test_model_requires_unit(s2):
    with pytest.raises(ValidationError, match="unit"):
        build_model(s2.space, [("u", s2.generator("u"))], 4)


def test_model_refuses_inconsistent_data(s2xs2):
    # SN's first weight negated: the kernel checks on such a model read
    # equal=True or report false FAILs, so the model refuses the data
    obj = dataset_to_json(s2xs2)
    sn = next(c for c in obj["components"] if c["name"] == "SN")
    sn["normal_lines"][0]["weight"] = [-v for v in sn["normal_lines"][0]["weight"]]
    negated = dataset_from_json(obj, "negated")
    with pytest.raises(ValidationError, match="inconsistent fixed-point data") as exc:
        build_model(negated.space, negated.generators, 4)
    assert "localization sum has a pole" in str(exc.value)


def full_candidate_slices(space, generators, max_degree):
    """The slices as every generator product times every variable monomial of
    the right degree gives them, each slice reduced from its full candidate
    list: per degree, the kept (labels, vectors), the keys and the restriction
    rows."""
    names = [name for name, cls in generators if cls.degree > 0]
    products = [(cls, "*".join(names[i] + (f"^{e}" if e > 1 else "")
                               for i, e in enumerate(exps) if e) or "1")
                for exps, cls in spaces.generator_products(space, generators, max_degree)]
    n = space.vars.count
    out = {}
    for degree in range(0, max_degree + 1, 2):
        candidates = []
        for cls, label in products:
            if cls.degree <= degree and (degree - cls.degree) % 2 == 0:
                monomials = sorted((tuple(c.count(i) for i in range(n)) for c in
                                    combinations_with_replacement(range(n),
                                                                  (degree - cls.degree) // 2)),
                                   key=monomial_sort_key)
                for mono in monomials:
                    pure = EquivariantPolynomial(space.vars, POINT_ALGEBRA, {(mono, 0): 1})
                    parts = [v + (f"^{e}" if e > 1 else "")
                             for v, e in zip(space.vars.names, mono) if e]
                    parts += [label] if label != "1" else []
                    candidates.append(("*".join(parts) or "1", cls.mul_pure(pure)))
        keys = sorted({(ci, exps, b) for _, cls in candidates
                       for ci, f in enumerate(space.components)
                       for exps, b in cls.restrictions[f.name].terms})
        position = {(space.components[ci].name, exps, b): pos
                    for pos, (ci, exps, b) in enumerate(keys)}
        vectors = [dict(sorted((position[(name, exps, b)], c)
                               for name, poly in cls.restrictions.items()
                               for (exps, b), c in poly.terms.items() if c))
                   for _, cls in candidates]
        kept = linalg.independent_indices(vectors)
        rows = linalg.transpose([vectors[i] for i in kept])
        by_component = {f.name: [] for f in space.components}
        for pos, (ci, _, _) in enumerate(keys):
            if pos in rows:
                by_component[space.components[ci].name].append(rows[pos])
        out[degree] = ([candidates[i][0] for i in kept], [vectors[i] for i in kept],
                       [(space.components[ci].name, exps, b) for ci, exps, b in keys],
                       by_component)
    return out


def with_dependent_generator():
    # u1 + u2 is a whole generator product that the slices already span
    ds = load_dataset("s2xs2-t2")
    return Dataset(ds.name, ds.space,
                   ds.generators + [("w", ds.generator("u1") + ds.generator("u2"))])


@pytest.mark.parametrize("build, degree", [
    *[pytest.param(lambda name=name: load_dataset(name), 12, id=name) for name in BUNDLED],
    pytest.param(lambda: load_dataset("s2xs2-nonisolated"), 14, id="s2xs2-nonisolated-14"),
    pytest.param(lambda: sphere_product(3), 8, id="s2x3"),
    pytest.param(lambda: projective(3, CP3_OFFSET), 8, id="cp3"),
    pytest.param(lambda: sphere_product_diagonal(3), 8, id="s2x3-diag"),
    pytest.param(with_dependent_generator, 12, id="s2xs2-t2-dependent-generator"),
])
def test_grown_slices_match_the_full_candidate_slices(build, degree):
    # each slice grown from the one below keeps what every product times every
    # monomial keeps: the same labels, vectors, keys and restriction rows
    ds = build()
    model = build_model(ds.space, ds.generators, degree)
    oracle = full_candidate_slices(ds.space, ds.generators, degree)
    assert sorted(model.basis_by_degree) == sorted(oracle)
    for d, (labels, vectors, keys, rows) in oracle.items():
        assert [el.label for el in model.basis_by_degree[d]] == labels, d
        assert [el.vector for el in model.basis_by_degree[d]] == vectors, d
        assert model.keys[d] == keys, d
        assert model.restriction_rows[d] == rows, d


def test_model_build_is_linear_in_the_degree(s2, monkeypatch):
    # one variable multiple per (kept class, variable) of the slice below:
    # s2's 501 slices to degree 1000 take 1 + 2 * 499 products; every product
    # times every monomial would take 125,751
    calls = []
    mul_pure = RestrictedClass.mul_pure
    monkeypatch.setattr(RestrictedClass, "mul_pure",
                        lambda self, poly: calls.append(1) or mul_pure(self, poly))
    model = build_model(s2.space, s2.generators, 1000)
    below = sum(len(model.basis_by_degree[d]) for d in range(0, 1000, 2))
    assert len(calls) == below * s2.space.vars.count == 999


def test_subspace_classes_reconstruction(s2_model):
    sub = vanishing_subspace(s2_model, frozenset({"N"}), 2)
    [cls] = sub.classes(s2_model)
    assert cls.restrictions["N"].is_zero()


# -- one-sided vanishing subspaces ----------------------------------------------


def test_positive_side_both_directions(s2):
    assert positive_side(s2.space, CircleDirection((1,))) == frozenset({"N"})
    assert positive_side(s2.space, CircleDirection((-1,))) == frozenset({"S"})


def test_vanishing_subspace_s2(s2_model):
    xi = CircleDirection((1,))
    plus = vanishing_subspace(s2_model, positive_side(s2_model.space, xi), 2)
    minus = vanishing_subspace(s2_model, frozenset({"S"}), 2)
    assert plus.dim == minus.dim == 1
    # the plus side vanishes on N, so it is spanned by u; the minus side by u - X
    assert plus.coeffs == [{1: Q(1)}]
    assert minus.coeffs == [{0: Q(-1), 1: Q(1)}]


def test_circle_split_rejects_nongeneric(s2xs2_model):
    # the circle integral the check takes cannot be built for (1, 0)
    with pytest.raises(NonGenericError):
        check_circle_kernel_split(
            s2xs2_model, circle_integral(s2xs2_model.space, CircleDirection((1, 0))))


# -- circle-level kernel -----------------------------------------------------------


def test_circle_split_s2_all_chambers(s2_model):
    for xi in ((1,), (-1,)):
        integral = circle_integral(s2_model.space, CircleDirection(xi))
        rows = check_circle_kernel_split(s2_model, integral)
        assert [(r.degree, r.kernel.dim, r.minus.dim, r.plus.dim) for r in rows[:3]] == \
            [(0, 0, 0, 0), (2, 2, 1, 1), (4, 2, 1, 1)]
        assert all(r.ok for r in rows)


def test_circle_split_sides_follow_the_integral_direction(s2_model):
    # the check reads xi from the integral: reversing it swaps the sides
    for xi, plus_names in (((1,), {"N"}), ((-1,), {"S"})):
        integral = circle_integral(s2_model.space, CircleDirection(xi))
        [row] = [r for r in check_circle_kernel_split(s2_model, integral) if r.degree == 2]
        minus_names = {"N", "S"} - plus_names
        assert row.plus.dim == row.minus.dim == 1
        assert all(cls.restrictions[n].is_zero()
                   for cls in row.plus.classes(s2_model) for n in plus_names)
        assert all(cls.restrictions[n].is_zero()
                   for cls in row.minus.classes(s2_model) for n in minus_names)


def test_circle_split_s2xs2(s2xs2_model):
    integral = circle_integral(s2xs2_model.space, CircleDirection((1, 2)))
    rows = check_circle_kernel_split(s2xs2_model, integral)
    assert [(r.degree, r.kernel.dim, r.minus.dim, r.plus.dim) for r in rows[:3]] == \
        [(0, 0, 0, 0), (2, 2, 1, 1), (4, 6, 3, 3)]
    assert all(r.ok for r in rows)


def test_circle_split_nonisolated(nonisolated):
    model = build_model(nonisolated.space, nonisolated.generators, 4)
    integral = circle_integral(nonisolated.space, CircleDirection((1,)))
    rows = check_circle_kernel_split(model, integral)
    assert [(r.degree, r.kernel.dim, r.minus.dim, r.plus.dim) for r in rows] == \
        [(0, 0, 0, 0), (2, 2, 1, 1), (4, 4, 2, 2)]
    assert all(r.ok for r in rows)


def test_circle_kernel_stable_under_testing_slack(s2xs2_model):
    # testing against the slices two degrees past dim - 2 finds the same kernel
    integral = circle_integral(s2xs2_model.space, CircleDirection((1, 2)))
    cap = s2xs2_model.space.dim - 2 + 2
    assert cap <= s2xs2_model.max_degree
    enlarged = [el.cls for zdeg in range(0, cap + 1, 2)
                for el in s2xs2_model.basis_by_degree[zdeg]]
    testing = circle_testing_classes(s2xs2_model, integral.xi)
    for d in (2, 4):
        base = circle_kernel(s2xs2_model, d, integral, testing)
        classes = [el.cls for el in s2xs2_model.basis_by_degree[d]]
        assert len(pairing_kernel(integral, classes, enlarged)) == base.dim


def test_circle_kernel_methods_agree(s2xs2_model, poles_circle_integral):
    # the pairing values themselves agree, not only the kernel they leave,
    # which a wrong entry can leave unchanged
    xi = CircleDirection((2, 1))
    testing = circle_testing_classes(s2xs2_model, xi)
    series = circle_integral(s2xs2_model.space, xi)
    poles = poles_circle_integral(s2xs2_model.space, xi)
    a = circle_kernel(s2xs2_model, 4, series, testing)
    b = circle_kernel(s2xs2_model, 4, poles, testing)
    assert a.coeffs == b.coeffs
    for degree in (0, 2, 4):
        classes = [el.cls for el in s2xs2_model.basis_by_degree[degree]]
        assert all(series.values(classes, zeta) == poles.values(classes, zeta)
                   for zeta in testing)


@pytest.mark.parametrize("method", ["poles", "series"])
def test_circle_split_shared_integral_matches_fresh(s2xs2_model, nonisolated, method,
                                                    poles_circle_integral):
    # one integral serves every degree; a fresh one per degree, with its
    # residues taken by the other route, gives the same kernels
    routes = {"poles": poles_circle_integral, "series": circle_integral}
    shared_route = routes[method]
    fresh_route = routes["series" if method == "poles" else "poles"]
    nonisolated_model = build_model(nonisolated.space, nonisolated.generators, 4)
    cases = [(s2xs2_model, (1, 2)), (nonisolated_model, (1,))]
    shared = [check_circle_kernel_split(model, shared_route(model.space, CircleDirection(xi)))
              for model, xi in cases]
    for (model, xi), rows in zip(cases, shared):
        testing = circle_testing_classes(model, CircleDirection(xi))
        for r in rows:
            fresh = fresh_route(model.space, CircleDirection(xi))
            assert r.kernel.coeffs == circle_kernel(model, r.degree, fresh, testing).coeffs
        # and both routes give the same pairing values, degree by degree
        a = shared_route(model.space, CircleDirection(xi))
        b = fresh_route(model.space, CircleDirection(xi))
        for r in rows:
            classes = [el.cls for el in model.basis_by_degree[r.degree]]
            assert all(a.values(classes, zeta) == b.values(classes, zeta) for zeta in testing)


def whole_slice_kernel(model, degree, integral):
    """The circle kernel against every model class of degree at most dim - 2:
    the testing set the module generators replace."""
    testing = [el.cls for zdeg in range(0, model.space.dim - 1, 2)
               for el in model.basis_by_degree[zdeg]]
    classes = [el.cls for el in model.basis_by_degree[degree]]
    return pairing_kernel(integral, classes, testing)


CP3_OFFSET = (Q(1, 18), Q(2, 18), Q(3, 18))  # (i+1)/(2n^2) at n = 3


def reexpressed(ds, matrix):
    """The dataset's space and generators in the torus basis whose j-th vector is
    column j of the unimodular matrix: covectors pair with the columns, and
    old variable i is row i of the matrix in the new variables."""
    space = ds.space
    n = space.vars.count

    def pair(covector):
        return tuple(sum(Q(c) * row[j] for c, row in zip(covector, matrix)) for j in range(n))

    substitute = substitution([EquivariantPolynomial.from_linear_form(space.vars, lf(*row))
                               for row in matrix])
    new = HamiltonianSpace(space.vars, space.dim, [
        FixedComponent(f.name, pair(f.moment), f.algebra,
                       tuple((LinearForm.make(pair(w.coeffs)), c) for w, c in f.normal_lines))
        for f in space.components])
    return Dataset(ds.name, new, [(name, RestrictedClass(new, cls.degree, {
        k: substitute(p) for k, p in cls.restrictions.items()})) for name, cls in ds.generators])


def spans_every_slice(model, xi, testing):
    """Whether the multiples of the testing classes by polynomials vanishing
    on xi span every model slice up to dim - 2.  The forms
    xi_j X_k - xi_k X_j (j < k) span the annihilator of xi whatever its
    zero entries."""
    vars, vec = model.space.vars, xi.vector
    unit = [tuple(int(m == k) for m in range(vars.count)) for k in range(vars.count)]
    forms = [EquivariantPolynomial(vars, POINT_ALGEBRA, {(unit[k], 0): vec[j], (unit[j], 0): -vec[k]})
             for j, k in combinations(range(vars.count), 2)]
    for zdeg in range(0, model.space.dim - 1, 2):
        span = []
        for cls in testing:
            if cls.degree <= zdeg:
                for monomial in combinations_with_replacement(forms, (zdeg - cls.degree) // 2):
                    multiple = cls
                    for form in monomial:
                        multiple = multiple.mul_pure(form)
                    span.append(model.class_vector(multiple, zdeg))
        basis = [el.vector for el in model.basis_by_degree[zdeg]]
        if linalg.rank(span + basis) != linalg.rank(span):
            return False
    return True


CIRCLE_ORACLE_CASES = (
    [(name, lambda name=name: load_dataset(name), [(1,), (-1,)])
     for name in ("s2", "s2xs2-nonisolated", "s2cubed-su2")]
    + [("s2xs2-t2", lambda: load_dataset("s2xs2-t2"), [(1, 2), (-1, 2), (2, -1)]),
       ("s2x3", lambda: sphere_product(3), [(1, 2, 4), (-1, 2, 4)]),
       ("cp3", lambda: projective(3, CP3_OFFSET), [(1, 2, 4), (-2, -1, 1)]),
       # the directions (1, 2) and (1, 2, 4) of the spaces above, with xi_0 = 0
       ("s2xs2-t2-reexpressed",
        lambda: reexpressed(load_dataset("s2xs2-t2"), [[1, 1], [1, 2]]), [(0, 1), (0, -1)]),
       ("s2x3-reexpressed",
        lambda: reexpressed(sphere_product(3), [[0, 0, 1], [1, 0, 2], [2, 1, 4]]),
        [(0, 0, 1)])])


@pytest.mark.parametrize("build, directions",
                         [pytest.param(b, d, id=n) for n, b, d in CIRCLE_ORACLE_CASES])
def test_circle_kernel_matches_the_whole_slice_kernel(build, directions):
    # the module generators over Sym(ann xi) span the slices up to dim - 2
    # over it, and find the kernel the whole slices find, basis for basis
    ds = build()
    space = ds.space
    model = build_model(space, ds.generators, 4)
    for xi in directions:
        xi = CircleDirection(xi)
        assert spans_every_slice(model, xi, circle_testing_classes(model, xi))
        integral = circle_integral(space, xi)
        rows = check_circle_kernel_split(model, integral)
        assert all(r.ok for r in rows)
        for r in rows:
            assert r.kernel.coeffs == whole_slice_kernel(model, r.degree, integral)


@pytest.mark.parametrize("build, directions",
                         [pytest.param(b, d, id=n) for n, b, d in CIRCLE_ORACLE_CASES])
def test_circle_testing_classes_are_minimal(build, directions):
    # graded Nakayama: the testing classes span every slice over Sym(ann xi),
    # and leaving any one of them out loses part of some slice
    ds = build()
    model = build_model(ds.space, ds.generators, 4)
    for xi in directions:
        xi = CircleDirection(xi)
        testing = circle_testing_classes(model, xi)
        assert spans_every_slice(model, xi, testing)
        for k in range(len(testing)):
            assert not spans_every_slice(model, xi, testing[:k] + testing[k + 1:])


@pytest.mark.parametrize("build, xi, kept, whole", [
    pytest.param(lambda: sphere_product(3), (1, 2, 4), 12, 25, id="s2x3"),
    pytest.param(lambda: projective(3, CP3_OFFSET), (1, 2, 4), 6, 15, id="cp3"),
])
def test_circle_testing_classes_are_module_generators(build, xi, kept, whole):
    ds = build()
    model = build_model(ds.space, ds.generators, 4)
    testing = circle_testing_classes(model, CircleDirection(xi))
    assert sum(len(model.basis_by_degree[d]) for d in (0, 2, 4)) == whole
    assert len(testing) == kept


def test_circle_integral_computes_each_residue_once(s2xs2_model, cancelled, expansion_builds):
    # one entry per (positive-side component, monomial key), shared by every
    # class whose restriction there has that monomial, and none on
    # re-evaluation; the six entries have six (component, denominator) pairs
    # but three denominators, one of them empty: a polynomial has no residue,
    # and each other denominator has one expansion at infinity
    xi = CircleDirection((1, 2))
    integral = circle_integral(s2xs2_model.space, xi)
    classes = [el.cls for el in s2xs2_model.basis_by_degree[4]]
    values = [integral(cls) for cls in classes]
    plus = positive_side(s2xs2_model.space, xi)
    distinct = {(name, key) for cls in classes for name in plus
                for key in cls.restrictions[name].terms}
    assert len(cancelled) == len(set(cancelled)) == len(distinct) == 6
    denominators = {denom for *_, denom in cancelled}
    assert len(denominators) == 3 and frozenset() in denominators
    assert len(expansion_builds) == 2
    assert {frozenset(denom.items()) for denom in expansion_builds} == denominators - {frozenset()}
    assert [integral(cls) for cls in classes] == values
    assert (len(cancelled), len(expansion_builds)) == (6, 2)


def test_circle_integral_adapts_only_on_residue_misses(s2xs2, cancelled, expansion_builds):
    # a monomial is cancelled and its adapted term built only when its entry
    # is computed, never for a table hit or a whole class, and an expansion
    # at infinity only for a denominator not seen before: 3 for the 18
    # entries of the split check, whose other entries cancel to polynomials
    model = build_model(s2xs2.space, s2xs2.generators, 4)
    integral = circle_integral(s2xs2.space, CircleDirection((1, 2)))
    check_circle_kernel_split(model, integral)
    assert len(cancelled) == len(set(cancelled)) == 18
    assert len(expansion_builds) == len({denom for *_, denom in cancelled} - {frozenset()}) == 3


def test_circle_integral_keeps_no_entry_that_raises(s2xs2, monkeypatch, cancelled):
    # u2 and u1 both vanish at NN, on the positive side of (1, 2), and differ
    # at SN, the other component on that side
    xi = CircleDirection((1, 2))
    assert positive_side(s2xs2.space, xi) == frozenset({"NN", "SN"})
    u1, u2 = s2xs2.generator("u1"), s2xs2.generator("u2")
    assert u1.restrictions["NN"] == u2.restrictions["NN"]
    assert u1.restrictions["SN"] != u2.restrictions["SN"]
    want = circle_integral(s2xs2.space, xi)(u1)
    integral = circle_integral(s2xs2.space, xi)
    assert integral(u2).is_zero()
    filled = len(cancelled)
    # From here on every series coefficient raises.  u2 reads only entries
    # already filled.  u1 needs the entry of its monomial X at SN, which
    # raises as it is filled; an entry that raises is not kept, so every
    # later evaluation, also inside a pairing, computes it again and raises
    # again.
    real = ReciprocalSeries.coefficient

    def failing(self, r):
        raise ArithmeticError("no coefficient")

    monkeypatch.setattr(ReciprocalSeries, "coefficient", failing)
    assert integral(u2).is_zero()
    assert len(cancelled) == filled
    for n in (1, 2):
        with pytest.raises(ArithmeticError, match="no coefficient"):
            integral(u1)
        assert len(cancelled) == filled + n
    with pytest.raises(ArithmeticError, match="no coefficient"):
        pairing_kernel(integral, [u2, u1], [RestrictedClass.unit(s2xs2.space)])
    assert len(cancelled) == filled + 3
    # the same entry each time, and once the coefficients come back it is
    # filled with the value a fresh integral gives
    assert len(set(cancelled[filled:])) == 1 and cancelled[-1][0] == "SN"
    monkeypatch.setattr(ReciprocalSeries, "coefficient", real)
    assert integral(u1) == want
    assert len(cancelled) == filled + 4


def test_circle_pairing_matches_integral(s2xs2):
    # with a negative leading entry the residue is still taken along xi itself
    reversed_xi = CircleDirection((-1, 2))
    u1 = s2xs2.generator("u1")
    assert circle_integral(s2xs2.space, reversed_xi)(u1).constant_value() == Q(-1, 2)


def test_circle_pairing_rejects_nongeneric():
    # genericity forces every adapted weight to involve the circle variable,
    # which is exactly what keeps the pairing values polynomial
    vars = Variables(("X", "Y"))
    comp = FixedComponent("p", (Q(1), Q(1)), POINT_ALGEBRA,
                          ((lf(1, 0), EquivariantPolynomial.zero(vars)),
                           (lf(0, 1), EquivariantPolynomial.zero(vars))))
    space = HamiltonianSpace(vars, 4, [comp])
    with pytest.raises(NonGenericError):
        circle_integral(space, CircleDirection((1, 0)))


# -- pairing rows as a bilinear form on the tau tables --------------------------------


def product_rows(integral, classes, testing):
    """The pairing rows from integral(b * zeta), one class product per pair."""
    rows = []
    for zeta in testing:
        values = [integral(b * zeta) for b in classes]
        if not isinstance(values[0], EquivariantPolynomial):
            rows.append(dict(enumerate(values)))
            continue
        rows.extend(linalg.transpose([v.terms for v in values]).values())
    return rows


def value_terms(value):
    if isinstance(value, EquivariantPolynomial):
        return value.terms
    return {(): value} if value else {}


PAIRING_CASES = (
    [(name, "circle", xi, None) for name in BUNDLED
     for xi in ([(1, 2), (-1, 2)] if name == "s2xs2-t2" else [(1,), (-1,)])]
    + [(name, "torus", None, None) for name in BUNDLED]
    + [("s2xs2-t2", "torus", (3, -2), VariableOrdering((1, 0), Q(-3, 2)))])


@pytest.mark.parametrize("name, level, xi, ordering", PAIRING_CASES)
def test_bilinear_pairing_rows_match_class_products(name, level, xi, ordering):
    # every value of the pairing, read off the table without forming b * zeta,
    # is the integral of the product class, and the null spaces agree; on
    # s2xs2-nonisolated the keys k1 k2 multiply algebra basis elements
    ds = load_dataset(name)
    model = build_model(ds.space, ds.generators, 4)
    if level == "circle":
        integral = circle_integral(ds.space, CircleDirection(xi))
    else:
        integral = torus_integral(ds.space, xi and CircleDirection(xi), ordering)
    testing = [el.cls for d in (0, 2, 4) for el in model.basis_by_degree[d]]
    nonzero = 0
    for d in (0, 2, 4):
        classes = [el.cls for el in model.basis_by_degree[d]]
        for zeta in testing:
            values = integral.values(classes, zeta)
            assert values == [value_terms(integral(b * zeta)) for b in classes]
            nonzero += sum(map(bool, values))
        assert pairing_kernel(integral, classes, testing) == \
            linalg.nullspace(product_rows(integral, classes, testing), len(classes))
    assert nonzero


# -- chamber enumeration -------------------------------------------------------------


def test_chamber_counts_on_datasets(s2, s2xs2, nonisolated):
    for ds, count in ((s2, 2), (s2xs2, 8), (nonisolated, 2)):
        chambers = enumerate_generic_directions(ds.space)
        assert chambers.expected == count
        assert len(chambers.chambers) == count


def test_chamber_representatives_are_generic_and_distinct(s2xs2):
    chambers = enumerate_generic_directions(s2xs2.space)
    seen = set()
    for ch in chambers.chambers:
        assert ch.signs not in seen
        seen.add(ch.signs)
        assert is_generic(s2xs2.space, ch.representative) == []


def test_chambers_rank_one_weight_arrangement():
    vars = Variables(("X",))
    comp = FixedComponent("p", (Q(1),), POINT_ALGEBRA,
                          ((lf(1), EquivariantPolynomial.zero(vars)),))
    space = HamiltonianSpace(vars, 2, [comp])
    chambers = enumerate_generic_directions(space)
    assert {c.representative.vector for c in chambers.chambers} == {(1,), (-1,)}


def projective_off_axes(n):
    # CP^n with the moments moved off the axes by the offset (i + 1)/50
    return projective(n, tuple(Q(i + 1, 50) for i in range(n)))


# builder, chamber count, and whether the +-3 lattice sweep meets every
# chamber (None: not swept).  CP^3's chambers at this offset are too thin for
# the sweep: it meets 30 of the 72.
CHAMBER_ORACLES = {
    "3-32": (lambda: sphere_product(3), 32, True),
    "4-192": (lambda: sphere_product(4), 192, None),
    "s2xs2-t2": (lambda: load_dataset("s2xs2-t2"), 8, True),
    "cp3": (lambda: projective_off_axes(3), 72, False),
}


@pytest.mark.parametrize("build, count, swept_all", list(CHAMBER_ORACLES.values()),
                         ids=list(CHAMBER_ORACLES))
def test_chambers_exact_on_sphere_products(build, count, swept_all):
    # (S^2)^k with the full k-torus: k coordinate hyperplanes and 2^(k-1)
    # hyperplanes orthogonal to the moment values (+-1, ..., +-1); CP^3 with
    # its 10 normals, the moments off the axes.  Neither oracle shares code
    # with the deletion-restriction recursion.
    space = build().space
    chambers = enumerate_generic_directions(space)
    normals = spaces._arrangement_normals(space)
    # Whitney's formula: r(A) = sum over subsets S of A of (-1)^(|S| - rank S)
    rows = [dict(enumerate(map(Q, w))) for w in normals]
    whitney = sum((-1) ** (size - linalg.rank(list(subset)))
                  for size in range(len(rows) + 1)
                  for subset in combinations(rows, size))
    assert len(chambers.chambers) == chambers.expected == whitney == count
    patterns = {c.signs for c in chambers.chambers}
    assert len(patterns) == count
    for ch in chambers.chambers:
        assert is_generic(space, ch.representative) == []
        assert ch.signs == tuple(1 if ch.representative.pair(w) > 0 else -1
                                 for w in normals)
    if swept_all is None:
        return
    # every sign pattern of a lattice sweep is a chamber found, and where the
    # sweep meets them all it finds nothing else
    swept = set()
    for x in product(range(-3, 4), repeat=space.vars.count):
        signs = tuple(sum(a * b for a, b in zip(w, x)) for w in normals)
        if 0 not in signs:
            swept.add(tuple(1 if s > 0 else -1 for s in signs))
    assert swept <= patterns
    assert (swept == patterns) == swept_all


# sha256 of the ordered (signs, representative, sorted positive side) lines,
# as the recursion that re-paired every point with every normal gave them
REPRESENTATIVE_DIGESTS = {
    "s2x4": (lambda: sphere_product(4), 192,
             "23b3d4cbb1f2476b36095f98ba6e84dcea7a2ebfe9c125545018e99be8816c3a"),
    "s2x5": (lambda: sphere_product(5), 2592,
             "661bff97d8529a07b78e41392fb96a48f840fb044edc0734937756f89d9b9bd5"),
    "cp4": (lambda: projective_off_axes(4), 480,
            "e7c0690010d173d116b386b97c2223df91516ae6bba0dff66fbae26f307a4121"),
    "cp5": (lambda: projective_off_axes(5), 3600,
            "21f1626d666459385f1db6b8ef76feb2ab5228726d380536919ab2e83c92622e"),
}


@pytest.mark.parametrize("build, count, digest", list(REPRESENTATIVE_DIGESTS.values()),
                         ids=list(REPRESENTATIVE_DIGESTS))
def test_chamber_representatives_pinned(build, count, digest):
    chambers = enumerate_generic_directions(build().space)
    assert len(chambers.chambers) == chambers.expected == count
    h = hashlib.sha256()
    for ch in chambers.chambers:
        h.update(repr((ch.signs, ch.representative.vector, sorted(ch.plus))).encode() + b"\n")
    assert h.hexdigest() == digest


def test_each_sub_arrangement_is_solved_once_per_call(monkeypatch):
    # the recursion meets 383 sub-arrangements of (S^2)^4, 51 of them distinct
    solve = kernels._chamber_points
    solved, stores = [], []

    def counted(normals, n, sub):
        solved.append((normals, n))
        stores.append(sub)
        return solve(normals, n, sub)

    monkeypatch.setattr(kernels, "_chamber_points", counted)
    space = sphere_product(4).space
    for _ in range(2):
        solved.clear()
        stores.clear()
        assert len(enumerate_generic_directions(space).chambers) == 192
        assert len(solved) == len(set(solved)) == 51
        # one store per call, emptied by the last read of each solution
        assert len({id(sub) for sub in stores}) == 1
        assert not stores[0]._found and not any(stores[0]._readers.values())


# -- torus-level kernel ----------------------------------------------------------------


def test_torus_kernel_s2xs2(s2xs2_model):
    rows, chambers = check_full_kernel(s2xs2_model, torus_integral(s2xs2_model.space))
    assert len(chambers.chambers) == chambers.expected == 8
    assert [(r.degree, r.kernel.dim, r.chamber_sum_dim) for r in rows[:3]] == \
        [(0, 0, 0), (2, 4, 4), (4, 8, 8)]
    assert all(r.equal for r in rows)


def test_full_kernel_reduces_each_vanishing_set_once(s2xs2, monkeypatch):
    calls = []
    real = kernels.vanishing_subspace

    def counted(model, names, degree):
        calls.append((names, degree))
        return real(model, names, degree)

    monkeypatch.setattr(kernels, "vanishing_subspace", counted)
    model = build_model(s2xs2.space, s2xs2.generators, 4)
    rows, chambers = check_full_kernel(model, torus_integral(s2xs2.space))
    assert all(r.equal for r in rows)
    everything = frozenset(f.name for f in s2xs2.space.components)
    sides = {frozenset(f.name for f in s2xs2.space.components
                       if ch.representative.pair(f.moment) > 0)
             for ch in chambers.chambers}
    distinct = sides | {everything - side for side in sides}
    # 8 chambers, 16 (chamber, side) pairs, 4 distinct sets of two components
    assert len(distinct) == 4 < 2 * len(chambers.chambers)
    assert len(calls) == len(set(calls))
    assert set(calls) == {(names, d) for names in distinct for d in (0, 2, 4)}


def test_full_kernel_rank_four_sphere_product():
    """(S^2)^4 through degree 4, against the rows the dense Gauss-Jordan
    elimination gave before the sparse echelon replaced it; the chamber sides
    read from the signs are the moment pairings of the representatives."""
    ds = sphere_product(4)
    space = ds.space
    model = build_model(space, ds.generators, 4)
    rows, chambers = check_full_kernel(model, torus_integral(space))
    assert len(chambers.chambers) == chambers.expected == 192
    assert [(r.degree, r.kernel.dim, r.chamber_sum_dim) for r in rows] == \
        [(0, 0, 0), (2, 8, 8), (4, 32, 32)]
    assert all(r.equal for r in rows)
    assert [ch.plus for ch in chambers.chambers] == [
        positive_side(space, ch.representative) for ch in chambers.chambers]


def test_positive_sides_follow_moment_orientation():
    # moments of both signs and a non-primitive one: the sides still match
    vars = Variables(("X", "Y"))
    zero = EquivariantPolynomial.zero(vars)
    moments = {"a": (Q(2), Q(-4)), "b": (Q(-1, 3), Q(2, 3)), "c": (Q(0), Q(1)),
               "d": (Q(-3), Q(0))}
    comps = [FixedComponent(name, m, POINT_ALGEBRA, ((lf(1, 1), zero), (lf(1, -2), zero)))
             for name, m in moments.items()]
    space = HamiltonianSpace(vars, 4, comps)
    chambers = enumerate_generic_directions(space)
    sides = [ch.plus for ch in chambers.chambers]
    assert sides == [positive_side(space, ch.representative) for ch in chambers.chambers]
    assert len(set(sides)) > 2


def test_torus_kernel_s2(s2_model):
    rows, chambers = check_full_kernel(s2_model, torus_integral(s2_model.space))
    assert len(chambers.chambers) == chambers.expected == 2
    assert [(r.degree, r.kernel.dim, r.chamber_sum_dim) for r in rows[:3]] == \
        [(0, 0, 0), (2, 2, 2), (4, 2, 2)]
    assert all(r.equal for r in rows)


def test_torus_kernel_unconstrained_above_complementary_range(s2xs2_model):
    # complementary degree is negative from degree 2 on: no constraints
    integral = torus_integral(s2xs2_model.space)
    sub = torus_kernel(s2xs2_model, 6, integral)
    assert sub.dim == len(s2xs2_model.basis_by_degree[6])


def test_torus_pairing_fixed_direction_matches_default(s2xs2_model):
    unit = RestrictedClass.unit(s2xs2_model.space)
    for xi in ((1, 2), (-1, 2), (2, -1)):
        integral = torus_integral(s2xs2_model.space, CircleDirection(xi))
        assert integral(unit * unit) == 1



# -- the model's depth -------------------------------------------------------------


DEPTH_CASES = (
    [pytest.param(lambda name=name: load_dataset(name), id=name) for name in BUNDLED]
    + [pytest.param(lambda: sphere_product(3), id="s2x3"),
       pytest.param(lambda: projective(3, CP3_OFFSET), id="cp3"),
       pytest.param(lambda: sphere_product_diagonal(3), id="s2x3-diag"),
       pytest.param(lambda: sphere_product_diagonal(5), id="s2x5-diag")])


def all_check_rows(ds, max_degree):
    """Every check's rows on the model of this max_degree: the circle split
    along the generic direction, the full kernel and, with a Weyl group, the
    nonabelian and antisymmetrized-span rows."""
    model = build_model(ds.space, ds.generators, max_degree)
    integral = torus_integral(ds.space)
    rows = {"circle": check_circle_kernel_split(
                model, circle_integral(ds.space, find_generic_direction(ds.space))),
            "full": check_full_kernel(model, integral)[0]}
    if ds.weyl is not None:
        rows["nonabelian"], rows["span"] = check_nonabelian_kernels(model, ds.weyl, integral)
    return rows


@pytest.mark.parametrize("build", DEPTH_CASES)
def test_checks_do_not_depend_on_the_requested_depth(build):
    # a check on a shallow model reads the leading rows of the same check on
    # the model through dim M: the model itself reaches dim - 2
    ds = build()
    deepest = all_check_rows(ds, ds.space.dim)
    for max_degree in range(0, ds.space.dim + 1, 2):
        rows = all_check_rows(ds, max_degree)
        assert [r.degree for r in rows["circle"]] == list(range(0, max_degree + 1, 2))
        for check, got in rows.items():
            assert got == deepest[check][:len(got)], (check, max_degree)
