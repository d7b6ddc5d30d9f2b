"""Fixed-point spaces, localization sums, and the circle / torus / nonabelian
Kirwan-map integrals on the bundled examples."""

from fractions import Fraction as Q

import pytest

from resloc.datasets import load_dataset
from resloc.residues import VariableOrdering
from resloc.spaces import (
    CircleDirection,
    FixedComponent,
    HamiltonianSpace,
    NonGenericError,
    RestrictedClass,
    adapt_space,
    find_generic_direction,
    generator_products,
    is_generic,
    kappa_s_integral,
    kappa_t_integral,
    localization_sum,
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


def lf(*coeffs):
    return LinearForm.make([Q(c) for c in coeffs])


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
    f = sp.component("p")
    assert str(sp.euler_class(f)) == "X"
    assert sp.euler_inverse(f) == RationalSection(
        EquivariantPolynomial.one(V2), {lf(1, 0): 1})


def test_euler_class_two_lines():
    sp = HamiltonianSpace(V2, 4, [point("p", (1, 1), [(1, 0), (-1, 1)]),
                                  point("q", (-1, -1), [(-1, 0), (1, -1)])])
    assert str(sp.euler_class(sp.component("p"))) == "-X^2 + X*Y1"


def test_euler_class_with_line_class(nonisolated):
    # synthetic sphere component whose normal line carries a curvature class
    alg = nonisolated.space.components[0].algebra
    vol = EquivariantPolynomial.from_algebra_element(V2, alg, {1: Q(1)})
    comp = FixedComponent("F", (Q(1), Q(0)), alg, ((lf(1, 0), vol),))
    sp = HamiltonianSpace(V2, 4, [comp])
    assert str(sp.euler_class(comp)) == "X + vol"
    inv = sp.euler_inverse(comp)
    x = EquivariantPolynomial.variable(V2, 0, alg)
    assert inv == RationalSection(x - vol, {lf(1, 0): 2})


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
    assert (u - u).is_zero()
    with pytest.raises(ValidationError):
        u + RestrictedClass.unit(s2.space)


# -- genericity and adaptation ---------------------------------------------------


def test_is_generic_reports_violations(s2xs2):
    sp = s2xs2.space
    bad = is_generic(sp, CircleDirection.make((1, 0)))
    assert bad and all(kind == "weight" for kind, _ in bad)
    assert is_generic(sp, CircleDirection.make((1, 2))) == []


def test_find_generic_direction(s2, s2xs2):
    # deterministic sweep: smallest box radius, candidates in sorted order
    assert find_generic_direction(s2.space).vector == (-1,)
    xi = find_generic_direction(s2xs2.space)
    assert is_generic(s2xs2.space, xi) == []


def test_unimodular_completion_is_unimodular():
    def det(m):
        if len(m) == 1:
            return m[0][0]
        return sum((-1) ** j * m[0][j] * det([row[:j] + row[j + 1:] for row in m[1:]])
                   for j in range(len(m)))

    for xi in [(1,), (2, 3), (1, 2), (6, 10, 15), (0, 0, 1)]:
        mat = unimodular_completion(xi)
        cols = [[mat[i][j] for i in range(len(xi))] for j in range(len(xi))]
        assert cols[0] == list(xi)
        assert det(mat) in (1, -1)


def test_adapted_moment_is_pairing(s2xs2):
    sp = s2xs2.space
    xi = CircleDirection.make((1, 2))
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
    assert localization_sum(sp, u) == RationalSection.one(sp.vars)
    flipped = RestrictedClass(sp, 2, {"N": x, "S": zero})
    assert localization_sum(sp, flipped) == RationalSection.from_polynomial(
        EquivariantPolynomial.one(sp.vars).scale(-1))


def test_localization_polynomial_on_all_datasets():
    for name in ("s2", "s2xs2-t2", "s2xs2-nonisolated", "s2cubed-su2"):
        ds = load_dataset(name)
        classes = [RestrictedClass.unit(ds.space)] + [c for _, c in ds.generators]
        for a in classes:
            for b in classes:
                assert localization_sum(ds.space, a * b).is_polynomial()


def test_localization_detects_bad_data(s2):
    sp = s2.space
    # flip one Euler weight: the fixed-point sum stops being polynomial
    broken = HamiltonianSpace(sp.vars, 2, [
        sp.components[0],
        FixedComponent("S", sp.components[1].moment, sp.components[1].algebra,
                       sp.components[0].normal_lines)])
    assert not localization_sum(broken, RestrictedClass.unit(broken)).is_polynomial()


# -- circle-level integral ---------------------------------------------------------


def test_kappa_s_unit_both_sides(s2):
    sp = s2.space
    plus = kappa_s_integral(sp, RestrictedClass.unit(sp), CircleDirection.make((1,)))
    assert plus == EquivariantPolynomial.constant(sp.vars, -1)
    # reversing the circle swaps the selected side; the fixed-point sum of the
    # two one-sided values is the full localization sum, which vanishes here
    minus = kappa_s_integral(sp, RestrictedClass.unit(sp), CircleDirection.make((-1,)))
    assert minus == EquivariantPolynomial.constant(sp.vars, 1)


def test_kappa_s_kills_class_supported_on_minus_side(s2):
    sp = s2.space
    x = EquivariantPolynomial.variable(sp.vars, 0)
    eta = RestrictedClass(sp, 2, {"N": x, "S": EquivariantPolynomial.zero(sp.vars)})
    got = kappa_s_integral(sp, eta, CircleDirection.make((1,)))
    assert got.is_zero()


def test_kappa_s_rejects_nongeneric(s2xs2):
    with pytest.raises(NonGenericError) as info:
        kappa_s_integral(s2xs2.space, RestrictedClass.unit(s2xs2.space),
                         CircleDirection.make((1, 0)))
    assert info.value.violations


def test_kappa_s_methods_agree_on_generators(s2xs2):
    sp = s2xs2.space
    xi = CircleDirection.make((1, 2))
    for _, g in s2xs2.generators:
        a = kappa_s_integral(sp, g, xi, method="poles")
        b = kappa_s_integral(sp, g, xi, method="series")
        assert a == b


# -- torus-level integral ----------------------------------------------------------


def test_kappa_t_s2_chamber_independent(s2):
    sp = s2.space
    unit = RestrictedClass.unit(sp)
    assert kappa_t_integral(sp, unit, CircleDirection.make((1,))) == -1
    assert kappa_t_integral(sp, unit, CircleDirection.make((-1,))) == -1


def test_kappa_t_s2xs2_unit(s2xs2):
    sp = s2xs2.space
    unit = RestrictedClass.unit(sp)
    for xi in [(1, 2), (2, 1), (-1, 2), (1, -2)]:
        assert kappa_t_integral(sp, unit, CircleDirection.make(xi)) == 1


def test_kappa_t_positive_degree_classes_die(s2xs2):
    # ring map to the quotient of a point: positive degree lands in zero
    u1 = s2xs2.generator("u1")
    u2 = s2xs2.generator("u2")
    assert kappa_t_integral(s2xs2.space, u1 * u2) == 0
    assert kappa_t_integral(s2xs2.space, u1) == 0


def test_kappa_t_ordering_prefactor(s2):
    unit = RestrictedClass.unit(s2.space)
    ordering = VariableOrdering((0,), Q(-3))
    assert kappa_t_integral(s2.space, unit, ordering=ordering) == 3


def test_kappa_t_rejects_bad_ordering(s2xs2):
    unit = RestrictedClass.unit(s2xs2.space)
    with pytest.raises(ValidationError):
        kappa_t_integral(s2xs2.space, unit, ordering=VariableOrdering((0, 0)))


def test_kappa_t_against_root_square_s2cubed(s2cubed):
    # the nonabelian integral of the unit; weylgrp.kappa_k_integral gives the same
    sp = s2cubed.space
    x = EquivariantPolynomial.variable(sp.vars, 0)
    assert kappa_t_integral(sp, RestrictedClass.unit(sp).mul_pure(x * x)) == 2
