"""Fixed-point spaces, localization sums, and the circle / torus / nonabelian
Kirwan-map integrals on the bundled examples."""

import operator
import random
import time
from collections import Counter
from fractions import Fraction as Q
from functools import reduce
from itertools import product
from math import gcd

import pytest

from resloc import spaces, symcore
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
from resloc.kernels import build_model
from resloc.residues import (
    MomentTerm,
    VariableOrdering,
    iterated_residue_selected,
    res_x_plus,
)
from resloc.spaces import (
    CircleDirection,
    FixedComponent,
    HamiltonianSpace,
    NonGenericError,
    RestrictedClass,
    adapt_space,
    circle_integral,
    find_generic_direction,
    generator_products,
    is_generic,
    localization_sum,
    positive_side,
    torus_integral,
    unimodular_completion,
)
from resloc.symcore import (
    POINT_ALGEBRA,
    EquivariantPolynomial,
    LinearForm,
    RationalSection,
    ValidationError,
    Variables,
)

V2 = Variables(("X", "Y1"))
CP3_OFFSET = (Q(1, 5), Q(1, 6), Q(1, 7))


def lf(*coeffs):
    return LinearForm.make([Q(c) for c in coeffs])


def localization_term(space, f, restriction):
    """The componentwise integral of restriction / euler at f, over the full
    Euler denominator and not cancelled: the summand of the fold oracle.  The
    product is multiplied out and the algebra integral applied to each of its
    coefficients, the route the pairing contraction replaces."""
    inv = space.euler_inverse(f)
    product, integral = restriction * inv.numer, {}
    for (e, b), c in product.terms.items():
        integral[e, 0] = integral.get((e, 0), 0) + c * product.algebra.integral[b]
    return RationalSection(EquivariantPolynomial(space.vars, POINT_ALGEBRA, integral),
                           inv.denom, cancel=False)


def adapt(adapted, poly):
    """A restriction of the original space in the adapted variables, by
    substituting each variable's axis: the oracle for the tables' own
    adapted images."""
    return symcore.substitution([EquivariantPolynomial.from_linear_form(adapted.space.vars, a)
                                 for a in adapted.axes])(poly)


def zero2():
    return EquivariantPolynomial.zero(V2, POINT_ALGEBRA)


def point(name, moment, weights):
    return FixedComponent(name, tuple(Q(m) for m in moment), POINT_ALGEBRA,
                          tuple((lf(*w), zero2()) for w in weights))


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
def s2cubed():
    return load_dataset("s2cubed-su2")


# -- construction and validation ----------------------------------------------


def test_euler_class_single_line():
    sp = HamiltonianSpace(V2, 2, [point("p", (1, 0), [(1, 0)]),
                                  point("q", (-1, 0), [(-1, 0)])])
    assert sp.euler_inverse(sp.components[0]) == RationalSection(
        EquivariantPolynomial.one(V2), {lf(1, 0): 1})


def test_euler_class_two_lines():
    sp = HamiltonianSpace(V2, 4, [point("p", (1, 1), [(1, 0), (-1, 1)]),
                                  point("q", (-1, -1), [(-1, 0), (1, -1)])])
    assert sp.euler_inverse(sp.components[0]) == RationalSection(
        EquivariantPolynomial.one(V2), {lf(1, 0): 1, lf(-1, 1): 1})


def test_euler_class_with_line_class(nonisolated):
    # synthetic sphere component whose normal line carries a curvature class
    alg = nonisolated.space.components[0].algebra
    vol = EquivariantPolynomial.from_algebra_element(V2, alg, {1: Q(1)})
    comp = FixedComponent("F", (Q(1), Q(0)), alg, ((lf(1, 0), vol),))
    sp = HamiltonianSpace(V2, 4, [comp])
    inv = sp.euler_inverse(comp)
    x = EquivariantPolynomial.variable(V2, 0, alg)
    assert inv == RationalSection(x + vol.scale(-1), {lf(1, 0): 2})


def test_space_rejects_odd_dim():
    with pytest.raises(ValidationError):
        HamiltonianSpace(V2, 3, [point("p", (1, 0), [(1, 0)])])


def test_space_rejects_wrong_normal_count():
    with pytest.raises(ValidationError, match="do not add up"):
        HamiltonianSpace(V2, 4, [point("p", (1, 0), [(1, 0)])])


def test_space_rejects_zero_weight():
    with pytest.raises(ValidationError, match="zero normal weight"):
        HamiltonianSpace(V2, 2, [point("p", (1, 0), [(0, 0)])])


def test_space_rejects_fractional_weight():
    comp = FixedComponent("p", (Q(1), Q(0)), POINT_ALGEBRA,
                          ((LinearForm.make([Q(1, 2), Q(0)]), zero2()),))
    with pytest.raises(ValidationError, match="integral"):
        HamiltonianSpace(V2, 2, [comp])


def test_space_rejects_duplicate_names():
    with pytest.raises(ValidationError, match="distinct"):
        HamiltonianSpace(V2, 2, [point("p", (1, 0), [(1, 0)]),
                                 point("p", (-1, 0), [(-1, 0)])])


def test_restricted_class_degree_check(s2):
    sp = s2.space
    x = EquivariantPolynomial.variable(sp.vars, 0)
    with pytest.raises(ValidationError, match="degree"):
        RestrictedClass(sp, 4, {"N": x, "S": x})
    with pytest.raises(ValidationError, match="missing"):
        RestrictedClass(sp, 2, {"N": x})


def test_restricted_class_arithmetic(s2):
    u = s2.generator("u")
    sq = u * u
    # u restricts to (0, X) so u^2 restricts to (0, X^2)
    assert sq.degree == 4
    assert sq.restrictions["S"] == EquivariantPolynomial.variable(s2.space.vars, 0) ** 2
    assert (u + u.scale(-1)).is_zero()
    with pytest.raises(ValidationError):
        u + RestrictedClass.unit(s2.space)


# -- genericity and adaptation ---------------------------------------------------


def test_is_generic_reports_violations(s2xs2):
    sp = s2xs2.space
    bad = is_generic(sp, CircleDirection((1, 0)))
    assert bad and all(kind == "weight" for kind, _ in bad)
    assert is_generic(sp, CircleDirection((1, 2))) == []


def test_find_generic_direction(s2, s2xs2):
    # smallest max-norm first, then the lexicographically first direction
    assert find_generic_direction(s2.space).vector == (-1,)
    xi = find_generic_direction(s2xs2.space)
    assert is_generic(s2xs2.space, xi) == []


def sweep_direction(space, radius=8):
    """The lattice sweep the pruned search replaced: every integer point of
    max-norm r for r = 1, 2, ..., sorted, tested with is_generic one by one."""
    n = space.vars.count
    for r in range(1, radius + 1):
        for vec in sorted(v for v in product(range(-r, r + 1), repeat=n)
                          if max(map(abs, v)) == r):
            xi = CircleDirection(vec)
            if gcd(*vec) == 1 and not is_generic(space, xi):
                return xi
    return None


def search_cases():
    cases = [(name, lambda name=name: load_dataset(name).space) for name in BUNDLED]
    cases += [(f"s2x{k}", lambda k=k: sphere_product(k).space) for k in (2, 3, 4)]
    cases += [(f"s2x{k}-diag", lambda k=k: sphere_product_diagonal(k).space) for k in (3, 5)]
    offsets = {"1/(5+i)": lambda i, n: Q(1, 5 + i), "(i+1)/2n^2": lambda i, n: Q(i + 1, 2 * n * n),
               "i/7n": lambda i, n: Q(i, 7 * n), "-1/(i+3)": lambda i, n: Q(-1, i + 3)}
    cases += [(f"cp{n}:{label}", lambda n=n, off=off: projective(
        n, tuple(off(i, n) for i in range(n))).space)
              for n in (2, 3, 4) for label, off in offsets.items()]
    return cases


@pytest.mark.parametrize("build", [pytest.param(b, id=n) for n, b in search_cases()])
def test_find_generic_direction_is_the_sweeps_direction(build):
    space = build()
    xi = find_generic_direction(space)
    assert xi == sweep_direction(space)
    assert is_generic(space, xi) == []


@pytest.mark.parametrize("build, expected", [
    pytest.param(lambda: projective(5, tuple(Q(i + 1, 50) for i in range(5))).space,
                 (-3, -2, -1, 1, 2), id="cp5"),
    pytest.param(lambda: projective(6, tuple(Q(i + 1, 72) for i in range(6))).space,
                 (-3, -2, -1, 1, 2, 3), id="cp6"),
    pytest.param(lambda: sphere_product(6).space, (-2, -2, -2, -2, -2, -1), id="s2x6"),
])
def test_find_generic_direction_at_rank_five_and_six(build, expected):
    # the sweep's answers (offset (i+1)/(2n^2) on CP^n), recorded once: the
    # sweep takes seconds to a minute here
    space = build()
    xi = find_generic_direction(space)
    assert xi.vector == expected
    assert is_generic(space, xi) == []


def killed_up_to(radius):
    """A rank-2 point at moment (1, 0) with one weight orthogonal to each
    primitive direction of max-norm at most radius."""
    lines = sorted({(a, b) for a in range(-radius, radius + 1) for b in range(-radius, radius + 1)
                    if gcd(a, b) == 1 and (a, b) > (0, 0)})
    return HamiltonianSpace(V2, 2 * len(lines), [point("p", (1, 0), [(-b, a) for a, b in lines])])


def test_find_generic_direction_searches_the_whole_box():
    # every direction of max-norm up to 7 is killed: the first survivor has
    # max-norm 8
    space = killed_up_to(7)
    assert len(space.components[0].normal_lines) == 72
    xi = find_generic_direction(space)
    assert xi.vector == (-8, -7) and xi == sweep_direction(space)
    assert is_generic(space, xi) == []


@pytest.mark.parametrize("radius", [8, 20])
def test_find_generic_direction_has_no_search_bound(radius):
    # every direction of max-norm up to radius is killed, and the search goes
    # on past it, within the bound its docstring states
    space = killed_up_to(radius)
    start = time.perf_counter()
    xi = find_generic_direction(space)
    assert time.perf_counter() - start < 3
    assert xi.vector == (-radius - 1, -radius)
    assert is_generic(space, xi) == []
    ending = Counter(max(i for i, c in enumerate(w) if c)
                     for w in spaces._arrangement_normals(space))
    assert radius + 1 <= max(1, -(-max(ending.values()) // 2))


def test_find_generic_direction_names_moment_zero():
    # a fixed point at moment 0 pairs to zero with every direction, so no
    # search can succeed; the certificate names it instead of coming back empty
    sp = HamiltonianSpace(V2, 4, [point("p", (0, 0), [(1, 0), (0, 1)]),
                                  point("q", (1, 1), [(-1, 0), (0, -1)])])
    with pytest.raises(NonGenericError) as info:
        find_generic_direction(sp)
    assert info.value.violations == [("moment", "p")]


def test_unimodular_completion_is_unimodular():
    def det(m):
        if len(m) == 1:
            return m[0][0]
        return sum((-1) ** j * m[0][j] * det([row[:j] + row[j + 1:] for row in m[1:]])
                   for j in range(len(m)))

    for xi in product(range(-3, 4), repeat=3):
        if any(xi):
            mat = unimodular_completion(xi)
            assert [row[0] for row in mat] == [v // gcd(*xi) for v in xi]
            assert det(mat) == 1
    for xi, mat in UNIMODULAR_COMPLETIONS:
        assert unimodular_completion(xi) == mat
        assert det(mat) == (1 if len(xi) > 1 else xi[0] // abs(xi[0]))


# matrices recorded from the completion that inverted its row steps by
# elimination; building the inverse alongside the steps gives the same ones
UNIMODULAR_COMPLETIONS = [
    ((1,), [[1]]),
    ((-3,), [[-1]]),
    ((2, 3), [[2, -1], [3, -1]]),
    ((1, 2), [[1, 0], [2, 1]]),
    ((-1, 0), [[-1, 0], [0, -1]]),
    ((0, -1), [[0, 1], [-1, 0]]),
    ((4, -6), [[2, 1], [-3, -1]]),
    ((6, 10, 15), [[6, 1, -3], [10, 2, -5], [15, 0, -7]]),
    ((0, 0, 1), [[0, 0, -1], [0, 1, 0], [1, 0, 0]]),
    ((-1, 0, 0), [[-1, 0, 0], [0, -1, 0], [0, 0, 1]]),
    ((3, -4, 0, 5), [[3, 1, 0, 0], [-4, -1, 0, 0], [0, 0, 1, 0], [5, 0, 0, 1]]),
    ((-3, -2, -1, 1, 2), [[-3, -1, -3, 3, 0], [-2, -1, -2, 2, 0], [-1, 0, 0, 1, 0],
                          [1, 0, 0, 0, 0], [2, 0, 0, 0, 1]]),
]


def test_adapted_moment_is_pairing(s2xs2):
    sp = s2xs2.space
    xi = CircleDirection((1, 2))
    adapted = adapt_space(sp, xi)
    for f, g in zip(sp.components, adapted.space.components):
        assert g.moment[0] == xi.pair(f.moment)


# -- localization sums -----------------------------------------------------------


def test_generator_products_depth_first(s2xs2):
    u1, u2 = s2xs2.generator("u1"), s2xs2.generator("u2")
    got = list(generator_products(s2xs2.space, s2xs2.generators, 4))
    assert [exps for exps, _ in got] == [(0, 0), (1, 0), (2, 0), (1, 1), (0, 1), (0, 2)]
    assert got[0][1] == RestrictedClass.unit(s2xs2.space)
    assert got[3][1] == u1 * u2 and got[5][1] == u2 * u2


def test_localization_sum_s2(s2):
    sp = s2.space
    u = s2.generator("u")
    x = EquivariantPolynomial.variable(sp.vars, 0)
    zero = EquivariantPolynomial.zero(sp.vars)
    assert localization_sum(sp, RestrictedClass.unit(sp)).is_zero()
    assert localization_sum(sp, u) == RationalSection(EquivariantPolynomial.one(sp.vars))
    flipped = RestrictedClass(sp, 2, {"N": x, "S": zero})
    assert localization_sum(sp, flipped) == RationalSection(
        EquivariantPolynomial.one(sp.vars).scale(-1))


@pytest.mark.parametrize("name", [*BUNDLED, "s2x3", "cp3"])
def test_products_pass_the_constructor_check(monkeypatch, name):
    """Products are built without the constructor's homogeneity check, which
    they always pass: every generator product to max(dim M, 8) and every
    model candidate grown by ``mul_pure`` is rebuilt through the constructor."""
    ds = {"s2x3": lambda: sphere_product(3),
          "cp3": lambda: projective(3, CP3_OFFSET)}.get(name, lambda: load_dataset(name))()
    space = ds.space
    grown = []
    real = RestrictedClass.mul_pure

    def recorded(self, poly):
        grown.append(real(self, poly))
        return grown[-1]

    monkeypatch.setattr(RestrictedClass, "mul_pure", recorded)
    build_model(space, ds.generators, 8)
    products = [cls for _, cls in generator_products(space, ds.generators, max(space.dim, 8))]
    assert grown and len(products) > len(ds.generators)
    for cls in products + grown:
        assert RestrictedClass(space, cls.degree, cls.restrictions) == cls


def test_localization_polynomial_on_all_datasets():
    for name in ("s2", "s2xs2-t2", "s2xs2-nonisolated", "s2cubed-su2"):
        ds = load_dataset(name)
        classes = [RestrictedClass.unit(ds.space)] + [c for _, c in ds.generators]
        for a in classes:
            for b in classes:
                assert not localization_sum(ds.space, a * b).denom


def flipped_weight(s2):
    # flip one Euler weight: the fixed-point sum stops being polynomial
    sp = s2.space
    return HamiltonianSpace(sp.vars, 2, [
        sp.components[0],
        FixedComponent("S", sp.components[1].moment, sp.components[1].algebra,
                       sp.components[0].normal_lines)])


def test_localization_detects_bad_data(s2):
    broken = flipped_weight(s2)
    assert localization_sum(broken, RestrictedClass.unit(broken)).denom


def test_localization_sum_checks_the_algebra_of_each_restriction(nonisolated):
    # the pairing contraction keeps the check of the product it replaces: a
    # restriction over another algebra than its component's is rejected
    sp = nonisolated.space
    assert sp.components[0].algebra != POINT_ALGEBRA
    cls = RestrictedClass(sp, 0, {
        f.name: EquivariantPolynomial.one(sp.vars, POINT_ALGEBRA if i == 0 else f.algebra)
        for i, f in enumerate(sp.components)})
    with pytest.raises(ValidationError, match="algebra mismatch"):
        localization_sum(sp, cls)


def only_at(space, name, poly, degree):
    """The class restricting to poly at one component and to 0 elsewhere."""
    return RestrictedClass(space, degree, {
        f.name: poly if f.name == name else EquivariantPolynomial.zero(space.vars, f.algebra)
        for f in space.components})


def euler_lcm(space):
    return RationalSection.common_denominator(space.euler_inverse(f) for f in space.components)


def test_localization_sum_matches_left_fold_term_for_term(s2, s2xs2):
    # one common Euler denominator per space and one cancellation give the
    # very numerator and denominator that adding the component terms one by
    # one gives, also where the fold never reaches that denominator
    cases = []
    for name in BUNDLED:
        ds = load_dataset(name)
        cases += [(ds.space, cls, False) for _, cls in
                  generator_products(ds.space, ds.generators, ds.space.dim)]
    cp3_ds = projective(3, CP3_OFFSET)
    cp3 = cp3_ds.space
    cases += [(cp3, cls, False) for _, cls in generator_products(cp3, cp3_ds.generators, cp3.dim)]
    # on CP^3 the common denominator is larger than every component's
    assert all(cp3.euler_inverse(f).denom != euler_lcm(cp3) for f in cp3.components)
    # zero on every component but one, so the fold adds over a smaller
    # denominator: X at NN only, and the equivariant class of the point p0
    x = EquivariantPolynomial.variable(s2xs2.space.vars, 0)
    p0_class = EquivariantPolynomial.one(cp3.vars)
    for w, _ in cp3.components[0].normal_lines:
        p0_class = p0_class * EquivariantPolynomial.from_linear_form(cp3.vars, w)
    lone = [(s2xs2.space, only_at(s2xs2.space, "NN", x, 2)),
            (cp3, only_at(cp3, "p0", p0_class, cp3.dim))]
    cases += [(space, cls, True) for space, cls in lone]
    broken = flipped_weight(s2)
    cases.append((broken, RestrictedClass.unit(broken), False))
    for space, cls, is_lone in cases:
        terms = [localization_term(space, f, cls.restrictions[f.name]) for f in space.components]
        fold = RationalSection(EquivariantPolynomial.zero(space.vars))
        for term in terms:
            fold = RationalSection.sum(space.vars, (fold, term))
        one_shot = localization_sum(space, cls)
        assert one_shot.numer.terms == fold.numer.terms
        assert one_shot.denom == fold.denom
        assert str(one_shot) == str(fold)
        if is_lone:
            # the one-shot sum cancels down from C to the fold's denominator;
            # on CP^3 the fold never reaches C, its one nonzero term being
            # over the Euler denominator of p0 alone
            assert fold.denom != euler_lcm(space)
    assert str(localization_sum(*lone[0])) == "(1) / ((Y))"
    assert localization_sum(*lone[1]) == RationalSection(EquivariantPolynomial.one(cp3.vars))
    # the text the command line prints for the pole
    assert str(localization_sum(broken, RestrictedClass.unit(broken))) == "(-2) / ((X))"
    empty = RationalSection.sum(V2, [])
    assert empty.numer.terms == {} and empty.denom == {}


def test_localization_sum_builds_the_common_denominator_once(monkeypatch):
    # the first sum on a space builds C and the extended Euler numerators;
    # a later sum on another class only contracts its restrictions with the
    # kept numerators and cancels
    cp3 = projective(3, CP3_OFFSET)
    space, gens = cp3.space, cp3.generators
    localization_sum(space, gens[0][1])
    calls = {"invert_euler": 0, "euler_inverse": 0, "numer_over": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(symcore, "invert_euler", counted("invert_euler", symcore.invert_euler))
    monkeypatch.setattr(HamiltonianSpace, "euler_inverse",
                        counted("euler_inverse", HamiltonianSpace.euler_inverse))
    monkeypatch.setattr(RationalSection, "numer_over",
                        counted("numer_over", RationalSection.numer_over))
    u = gens[1][1]
    cube = u * u * u
    total = localization_sum(space, cube)
    assert calls == {"invert_euler": 0, "euler_inverse": 0, "numer_over": 0}
    monkeypatch.undo()
    assert total == RationalSection.sum(space.vars, (
        localization_term(space, f, cube.restrictions[f.name]) for f in space.components))
    assert not total.is_zero()


# -- circle-level integral ---------------------------------------------------------


def test_kappa_s_unit_both_sides(s2):
    sp = s2.space
    plus = circle_integral(sp, CircleDirection((1,)))(RestrictedClass.unit(sp))
    assert plus == EquivariantPolynomial.constant(sp.vars, -1)
    # reversing the circle swaps the selected side and, as the residue is
    # taken along xi itself, also the residue variable: the value is unchanged
    minus = circle_integral(sp, CircleDirection((-1,)))(RestrictedClass.unit(sp))
    assert minus == EquivariantPolynomial.constant(sp.vars, -1)


def test_kappa_s_kills_class_supported_on_minus_side(s2):
    sp = s2.space
    x = EquivariantPolynomial.variable(sp.vars, 0)
    eta = RestrictedClass(sp, 2, {"N": x, "S": EquivariantPolynomial.zero(sp.vars)})
    got = circle_integral(sp, CircleDirection((1,)))(eta)
    assert got.is_zero()


def test_kappa_s_rejects_nongeneric(s2xs2):
    with pytest.raises(NonGenericError) as info:
        circle_integral(s2xs2.space, CircleDirection((1, 0)))
    assert info.value.violations


def test_kappa_s_refuses_a_denominator_factor_free_of_x0(s2xs2, monkeypatch):
    # past the genericity check, a weight that (1, 0) annihilates stays in a
    # denominator free of the circle variable: its pole would not be a
    # residue at x0 = infinity, so the entry raises rather than drop it
    monkeypatch.setattr(spaces, "is_generic", lambda space, xi: [])
    integral = circle_integral(s2xs2.space, CircleDirection((1, 0)))
    with pytest.raises(ValidationError, match="free of x0"):
        integral(RestrictedClass.unit(s2xs2.space))


def test_kappa_s_methods_agree_on_generators(s2xs2, poles_circle_integral):
    # on the generators and their products of two
    sp = s2xs2.space
    xi = CircleDirection((1, 2))
    classes = [g for _, g in s2xs2.generators]
    classes += [g * h for g in classes for h in classes]
    by_series = [circle_integral(sp, xi)(g) for g in classes]
    assert [poles_circle_integral(sp, xi)(g) for g in classes] == by_series


# -- torus-level integral ----------------------------------------------------------


def test_kappa_t_s2_chamber_independent(s2):
    sp = s2.space
    unit = RestrictedClass.unit(sp)
    assert torus_integral(sp, CircleDirection((1,)))(unit) == -1
    assert torus_integral(sp, CircleDirection((-1,)))(unit) == -1


def test_kappa_t_s2xs2_unit(s2xs2):
    sp = s2xs2.space
    unit = RestrictedClass.unit(sp)
    for xi in [(1, 2), (2, 1), (-1, 2), (1, -2)]:
        assert torus_integral(sp, CircleDirection(xi))(unit) == 1


def test_kappa_t_positive_degree_classes_die(s2xs2):
    # ring map to the quotient of a point: positive degree lands in zero
    u1 = s2xs2.generator("u1")
    u2 = s2xs2.generator("u2")
    integral = torus_integral(s2xs2.space)
    assert integral(u1 * u2) == 0
    assert integral(u1) == 0


def test_kappa_t_ordering_prefactor(s2):
    unit = RestrictedClass.unit(s2.space)
    ordering = VariableOrdering((0,), Q(-3))
    assert torus_integral(s2.space, ordering=ordering)(unit) == 3


def test_kappa_t_rejects_bad_ordering(s2xs2):
    unit = RestrictedClass.unit(s2xs2.space)
    with pytest.raises(ValidationError):
        torus_integral(s2xs2.space, ordering=VariableOrdering((0, 0)))(unit)


def test_kappa_t_checks_first_applied_direction_when_built(s2xs2):
    # adapted to (1, 2), the second coordinate pairs to zero with the weight X
    # at NN, so applying its residue first is not generic
    with pytest.raises(NonGenericError) as info:
        torus_integral(s2xs2.space, CircleDirection((1, 2)), VariableOrdering((1, 0)))
    assert info.value.violations == [("weight", "NN")]


def test_kappa_t_against_root_square_s2cubed(s2cubed):
    # the nonabelian integral of the unit: the torus integral against D^2
    sp = s2cubed.space
    x = EquivariantPolynomial.variable(sp.vars, 0)
    assert torus_integral(sp)(RestrictedClass.unit(sp).mul_pure(x * x)) == 2


# -- the integrals as tables on restriction monomials --------------------------


TABLE_SPACES = {"s2xs2-t2": 4, "s2cubed-su2": 6, "s2xs2-nonisolated": 4}


@pytest.fixture(scope="module")
def slice_products():
    """Per table space: the space and, by degree, every product of two model
    slice classes within the model's degree."""
    out = {}
    for name, max_degree in TABLE_SPACES.items():
        ds = load_dataset(name)
        slices = build_model(ds.space, ds.generators, max_degree).basis_by_degree
        products: dict[int, list[RestrictedClass]] = {}
        for d1, d2 in product(slices, repeat=2):
            if d1 <= d2 and d1 + d2 <= max_degree:
                products.setdefault(d1 + d2, []).extend(
                    a.cls * b.cls for a in slices[d1] for b in slices[d2])
        out[name] = (ds.space, products)
    return out


def random_combinations(products, seed, count=12):
    """Random rational combinations of up to four products of one degree."""
    rng = random.Random(seed)
    for _ in range(count):
        degree = rng.choice(sorted(products))
        picked = rng.sample(products[degree], min(4, len(products[degree])))
        scaled = [cls.scale(Q(rng.randint(-9, 9), rng.randint(1, 7))) for cls in picked]
        yield reduce(operator.add, scaled)


@pytest.mark.parametrize("name, xi, ordering", [
    ("s2xs2-t2", None, None),
    ("s2xs2-t2", (3, -2), VariableOrdering((1, 0), Q(-3, 2))),
    ("s2cubed-su2", None, None),
    ("s2cubed-su2", (-1,), VariableOrdering((0,), Q(5, 3))),
    ("s2xs2-nonisolated", None, None),
])
def test_kappa_t_table_matches_whole_class_residue(slice_products, name, xi, ordering):
    # oracle: one iterated residue of the whole fixed-point sum per class
    space, products = slice_products[name]
    integral = torus_integral(space, xi and CircleDirection(xi), ordering)
    adapted = adapt_space(space, integral.xi)
    ordering = ordering or VariableOrdering(tuple(range(space.vars.count)))
    values = []
    for seed in range(3):
        for eta in random_combinations(products, seed):
            whole = iterated_residue_selected(
                [MomentTerm(f.moment, localization_term(
                    adapted.space, f, adapt(adapted, eta.restrictions[f.name])))
                 for f in adapted.space.components], ordering)
            assert integral(eta) == whole
            values.append(whole)
    assert any(values)


@pytest.mark.parametrize("route", ["poles", "series"])
@pytest.mark.parametrize("name, xi", [
    ("s2xs2-t2", (1, 2)),
    ("s2xs2-t2", (-1, 2)),
    ("s2cubed-su2", (1,)),
    ("s2xs2-nonisolated", (1,)),
    ("s2xs2-nonisolated", (-1,)),
])
def test_kappa_s_table_matches_whole_class_residues(slice_products, poles_circle_integral,
                                                    name, xi, route):
    # oracle: the residue along xi of each positive-side component's whole
    # localization term, added one by one
    space, products = slice_products[name]
    xi = CircleDirection(xi)
    adapted = adapt_space(space, xi)
    plus = positive_side(space, xi)
    integral = (poles_circle_integral if route == "poles" else circle_integral)(space, xi)
    values = []
    for seed in range(3):
        for eta in random_combinations(products, seed):
            whole = RationalSection(EquivariantPolynomial.zero(space.vars))
            for f in adapted.space.components:
                if f.name in plus:
                    whole = RationalSection.sum(space.vars, (whole, res_x_plus(localization_term(
                        adapted.space, f, adapt(adapted, eta.restrictions[f.name])),
                        0, method="poles")))
            assert not whole.denom and integral(eta) == whole.numer
            values.append(whole)
    assert any(not v.is_zero() for v in values)


def exponents_up_to(top, n):
    """Exponent tuples of n variables of total degree at most top."""
    return [e for e in product(range(top + 1), repeat=n) if sum(e) <= top]


def table_cases():
    """Every bundled space and the generated CP^3 and (S^2)^3, each with a
    direction of positive and one of negative leading entry."""
    circles = [(1,), (-1,)]
    cases = [(load_dataset(name).space, [(1, 2), (-1, 2)] if name == "s2xs2-t2" else circles)
             for name in BUNDLED]
    return cases + [(projective(3, CP3_OFFSET).space, [(1, 2, 4), (-1, -2, 4)]),
                    (sphere_product(3).space, [(1, 2, 4), (-1, 2, 4)])]


def test_table_term_is_the_fully_cancelled_localization_term():
    # the term a table builds for a monomial, cancelled against the Euler
    # denominator before it is adapted, is the uncancelled adapted term after
    # full trial division, term for term; on CP^3 the weights are not axes
    cases = table_cases()
    directions = 0
    for space, xis in cases:
        for xi in xis:
            adapted = adapt_space(space, CircleDirection(xi))
            for f in adapted.space.components:
                for exps in exponents_up_to(4, space.vars.count):
                    for b in range(len(f.algebra.basis)):
                        monomial = EquivariantPolynomial(space.vars, f.algebra, {(exps, b): 1})
                        whole = localization_term(adapted.space, f, adapt(adapted, monomial))
                        want = RationalSection(whole.numer, whole.denom)
                        got = adapted.section(f, (exps, b))
                        assert got.numer.terms == want.numer.terms
                        assert got.denom == want.denom
            directions += 1
    assert directions == 2 * len(cases)


def reversed_variables(h):
    """h with the order of its variables reversed."""
    return RationalSection(
        EquivariantPolynomial(h.vars, h.algebra, {
            (e[::-1], b): c for (e, b), c in h.numer.terms.items()}),
        {LinearForm(f.coeffs[::-1]): m for f, m in h.denom.items()}, cancel=False)


def test_kappa_s_entries_match_both_residue_routes():
    # every entry read off a kept expansion at infinity is the residue of its
    # table term pole by pole, and by the series route built afresh, also
    # with the variables reversed, so that the series route contracts slices
    # of the last variable rather than of x0
    entries = algebra_valued = 0
    for space, xis in table_cases():
        for xi in xis:
            integral = circle_integral(space, CircleDirection(xi))
            adapted = adapt_space(space, integral.xi)
            for f in integral.components:
                for exps in exponents_up_to(4, space.vars.count):
                    for b in range(len(f.algebra.basis)):
                        numerators, den = integral.tau(f, (exps, b))
                        assert den > 0 and all(type(v) is int for v in numerators.values())
                        got = RationalSection(EquivariantPolynomial(
                            space.vars, POINT_ALGEBRA, numerators).scale(Q(1, den)))
                        term = adapted.section(f, (exps, b))
                        assert got == res_x_plus(term, 0, "poles")
                        assert got == res_x_plus(term, 0, "series")
                        assert reversed_variables(got) == res_x_plus(
                            reversed_variables(term), space.vars.count - 1, "series")
                        entries += 1
                        algebra_valued += b > 0 and not got.is_zero()
    assert (entries, algebra_valued) == (515, 2)


def test_circle_integral_builds_each_expansion_once(expansion_builds):
    # one expansion per distinct nonempty cancelled denominator of the entries
    # filled, none on re-evaluation; on (S^2)^3 entries of one component share
    # denominators, and so do the components
    space = sphere_product(3).space
    integral = circle_integral(space, CircleDirection((1, 2, 4)))
    adapted = adapt_space(space, integral.xi)
    keys = [(f, (exps, 0)) for f in integral.components for exps in exponents_up_to(4, 3)]
    for f, key in keys:
        integral.tau(f, key)
    pairs = {(f.name, frozenset(adapted.section(f, key).denom.items())) for f, key in keys}
    denominators = {denom for _, denom in pairs} - {frozenset()}
    assert len(expansion_builds) == len(denominators)
    assert {frozenset(denom.items()) for denom in expansion_builds} == denominators
    assert len(denominators) < len(pairs) < len(keys)
    for f, key in keys:
        integral.tau(f, key)
    integral(RestrictedClass.unit(space))
    assert len(expansion_builds) == len(denominators)


def test_trial_division_only_where_it_can_succeed(monkeypatch, nonisolated):
    # a nonzero numerator free of the variables has no linear factor, so the
    # Euler inverses of a point-only space and an algebra-valued constant
    # over a form are built without one trial division
    calls = []
    real = EquivariantPolynomial.div_exact_linear

    def counted(self, form):
        calls.append(form)
        return real(self, form)

    monkeypatch.setattr(EquivariantPolynomial, "div_exact_linear", counted)
    loaded = dataset_from_json(dataset_to_json(
        Dataset("s2x3", sphere_product(3).space, [])), "s2x3").space
    adapted = adapt_space(loaded, CircleDirection((1, 2, 4))).space
    for space in (loaded, adapted):
        # one object per distinct weight: 6 among the 24 lines
        weights = {}
        for f in space.components:
            assert len(space.euler_inverse(f).denom) == 3
            for w, _ in f.normal_lines:
                assert weights.setdefault(w, w) is w
        assert len(weights) == 6
    u = EquivariantPolynomial.from_algebra_element(
        V2, nonisolated.space.components[0].algebra, {1: Q(1)})
    assert RationalSection(u, {lf(2, 0): 1}).denom == {lf(1, 0): 1}
    assert calls == []
    # with a variable in the numerator the cancellation still runs
    x, y = (EquivariantPolynomial.variable(V2, i) for i in range(2))
    xy = RationalSection(x * y, {lf(1, 0): 1})
    assert xy.numer == y and xy.denom == {}
    assert calls == [lf(1, 0)]
