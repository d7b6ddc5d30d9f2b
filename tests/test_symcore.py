"""Exact core layer: linear forms, graded algebras, equivariant polynomials,
factored rational sections, and Euler-class inversion."""

from fractions import Fraction as Q
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resloc.datasets import build_s2xs2_nonisolated
from resloc.symcore import (
    POINT_ALGEBRA,
    EquivariantPolynomial,
    ExactDivisionError,
    GradedAlgebra,
    LinearForm,
    RationalSection,
    ValidationError,
    Variables,
    invert_euler,
    substitution,
)

V1 = Variables(("X",))
V2 = Variables(("X", "Y1"))
V3 = Variables(("X", "Y1", "Y2"))


def lf(*coeffs):
    return LinearForm.make([Q(c) for c in coeffs])


def cp1_algebra():
    return GradedAlgebra(("one", "u"), (0, 2),
                         {(0, 0): {0: Q(1)}, (0, 1): {1: Q(1)}, (1, 1): {}},
                         (Q(0), Q(1)), 2)


def two_line_algebra():
    # H*(CP1 x CP1): two degree-2 generators a, b with a^2 = b^2 = 0
    return GradedAlgebra(
        ("one", "a", "b", "ab"), (0, 2, 2, 4),
        {(0, 0): {0: Q(1)}, (0, 1): {1: Q(1)}, (0, 2): {2: Q(1)},
         (0, 3): {3: Q(1)}, (1, 1): {}, (1, 2): {3: Q(1)}, (1, 3): {},
         (2, 2): {}, (2, 3): {}, (3, 3): {}},
        (Q(0), Q(0), Q(0), Q(1)), 4)


# -- LinearForm ----------------------------------------------------------------


def test_linear_form_normalization():
    scale, prim = lf(-4, 6).normalized()
    assert prim == lf(2, -3)
    assert scale == Q(-2)
    assert lf(0, 0).is_zero()


def normalized_by_formula(coeffs):
    """scale and primitive coefficients of a nonzero form, written out"""
    den = 1
    for c in coeffs:
        den = den * c.denominator // gcd(den, c.denominator)
    ints = [int(c * den) for c in coeffs]
    g = 0
    for v in ints:
        g = gcd(g, v)
    if next(v for v in ints if v) < 0:
        g = -g
    return Q(g, den), tuple(Q(v // g) for v in ints)


# a run of zero leading entries, then rationals of either sign
form_coeffs = st.tuples(
    st.integers(0, 2),
    st.lists(st.fractions(min_value=-6, max_value=6, max_denominator=6), min_size=1, max_size=3),
).map(lambda zeros_rest: (Q(0),) * zeros_rest[0] + tuple(zeros_rest[1]))


@settings(max_examples=150, deadline=None)
@given(form_coeffs, st.booleans())
def test_linear_form_normalization_is_kept(coeffs, normalize_twin_first):
    form, twin = LinearForm(coeffs), LinearForm(coeffs)
    if normalize_twin_first and any(coeffs):
        twin.normalized()
    assert form == twin and hash(form) == hash(twin) == hash((coeffs,))
    if not any(coeffs):
        for _ in range(2):
            with pytest.raises(ValidationError):
                form.normalized()
        vars = Variables(tuple(f"v{i}" for i in range(len(coeffs))))
        with pytest.raises(ZeroDivisionError):
            RationalSection(EquivariantPolynomial.one(vars), {form: 1})
        return
    scale, prim_coeffs = normalized_by_formula(coeffs)
    first = form.normalized()
    assert first == (scale, LinearForm(prim_coeffs))
    assert form.normalized() == first
    prim = first[1]
    assert prim.normalized() == (1, prim)
    assert prim.normalized()[1] is prim
    assert hash(prim) == hash(LinearForm(prim_coeffs)) and hash(form) == hash(twin)


def test_linear_form_render():
    assert lf(1, -1).render(("X", "Y1")) == "X-Y1"
    assert lf(-2, 3).render(("X", "Y1")) == "-2*X+3*Y1"
    assert lf(0, 0).render(("X", "Y1")) == "0"


@pytest.mark.parametrize("coeffs, matrix", [
    ((1, -2), ((3, 0, 1), (1, 5, -1))),                       # 2 x 3
    ((Q(1, 2), 3, -1), ((Q(2, 3), 1), (0, Q(-1, 4)), (7, 2))),  # 3 x 2, Fractions
])
def test_linear_form_times_is_the_covector_product(coeffs, matrix):
    got = lf(*coeffs).times(matrix)
    want = tuple(sum(Q(coeffs[i]) * Q(matrix[i][k]) for i in range(len(coeffs)))
                 for k in range(len(matrix[0])))
    assert got.coeffs == want
    assert all(type(c) is Q for c in got.coeffs)


# -- GradedAlgebra validation ----------------------------------------------------


def test_point_algebra():
    assert POINT_ALGEBRA.top_degree == 0
    assert POINT_ALGEBRA.integral == (Q(1),)
    assert POINT_ALGEBRA.mul_basis(0, 0) == {0: Q(1)}


def test_algebra_rejects_odd_degree():
    with pytest.raises(ValidationError):
        GradedAlgebra(("one", "x"), (0, 1), {(0, 0): {0: Q(1)}, (0, 1): {1: Q(1)},
                                             (1, 1): {}}, (Q(0), Q(1)), 1)


def test_algebra_rejects_nonunit_first():
    with pytest.raises(ValidationError):
        GradedAlgebra(("v",), (2,), {(0, 0): {}}, (Q(1),), 2)


def test_algebra_rejects_degree_breaking_product():
    # u*u would have degree 4 but lands on a degree-2 element
    with pytest.raises(ValidationError):
        GradedAlgebra(("one", "u"), (0, 2),
                      {(0, 0): {0: Q(1)}, (0, 1): {1: Q(1)}, (1, 1): {1: Q(1)}},
                      (Q(0), Q(1)), 2)


def test_algebra_rejects_nonassociative_table_naming_triple():
    # (a*a)*b = t*b = s but a*(a*b) = 0; all products degree-legal
    with pytest.raises(ValidationError, match="a.*a.*b"):
        GradedAlgebra(
            ("one", "a", "b", "t", "s"), (0, 2, 2, 4, 6),
            {(0, 0): {0: Q(1)}, (0, 1): {1: Q(1)}, (0, 2): {2: Q(1)},
             (0, 3): {3: Q(1)}, (0, 4): {4: Q(1)},
             (1, 1): {3: Q(1)}, (1, 2): {}, (2, 2): {},
             (1, 3): {4: Q(1)}, (2, 3): {4: Q(1)}, (1, 4): {}, (2, 4): {},
             (3, 3): {}, (3, 4): {}, (4, 4): {}},
            (Q(0), Q(0), Q(0), Q(0), Q(1)), 6)


def test_algebra_rejects_integral_off_top_degree():
    with pytest.raises(ValidationError):
        GradedAlgebra(("one", "u"), (0, 2),
                      {(0, 0): {0: Q(1)}, (0, 1): {1: Q(1)}, (1, 1): {}},
                      (Q(1), Q(1)), 2)


def test_nilpotency_order():
    alg = two_line_algebra()
    assert alg.nilpotency_order({1: Q(1)}) == 2
    assert alg.nilpotency_order({1: Q(1), 2: Q(1)}) == 3  # (a+b)^2 = 2ab != 0
    assert alg.nilpotency_order({}) == 1


# -- EquivariantPolynomial -------------------------------------------------------


def x(vars=V2, algebra=POINT_ALGEBRA):
    return EquivariantPolynomial.variable(vars, 0, algebra)


def y1(vars=V2, algebra=POINT_ALGEBRA):
    return EquivariantPolynomial.variable(vars, 1, algebra)


def test_polynomial_rendering_is_graded_lex():
    p = x() * x() + y1() * x().scale(-3) + EquivariantPolynomial.one(V2, POINT_ALGEBRA)
    assert str(p) == "X^2 - 3*X*Y1 + 1"


def test_degree_and_homogeneity():
    alg = cp1_algebra()
    u = EquivariantPolynomial.from_algebra_element(V2, alg, {1: Q(1)})
    p = x(V2, alg) + u
    assert p.degree() == 2 and p.is_homogeneous()
    q = p + EquivariantPolynomial.one(V2, alg)
    assert not q.is_homogeneous()


def test_integrate_cp1_example():
    # over the CP1 algebra the integral of (X*u + Y1) * 1 is X, and of
    # (X*u + Y1) * u it is Y1, since u^2 = 0
    alg = cp1_algebra()
    u = EquivariantPolynomial.from_algebra_element(V2, alg, {1: Q(1)})
    p = x(V2, alg) * u + y1(V2, alg)
    assert p.integrate_product(EquivariantPolynomial.one(V2, alg), {}) == {((1, 0), 0): 1}
    assert p.integrate_product(u, {}) == {((0, 1), 0): 1}
    with pytest.raises(ValidationError):
        p.integrate_product(y1(), {})


def test_integrate_point_algebra_is_identity():
    p = x() * x() + y1().scale(-7)
    assert p.integrate_product(EquivariantPolynomial.one(V2), {}) == p.terms
    # terms are added into the dict given, and a sum of zero leaves no term
    out = p.integrate_product(EquivariantPolynomial.one(V2), {})
    assert p.integrate_product(EquivariantPolynomial.constant(V2, -1), out) is out
    assert out == {}


def test_derivative_and_substitution():
    p = (x() + y1()) ** 3
    assert p.derivative(0) == ((x() + y1()) ** 2).scale(3)
    q = substitution([y1().scale(-1), y1()])(p)  # X -> -Y1
    assert q.is_zero()


def test_substitution_of_a_deep_power():
    # the powers of an image are built upward in a loop, not by recursion
    p = EquivariantPolynomial(V1, POINT_ALGEBRA, {((1500,), 0): 1})
    q = substitution([EquivariantPolynomial.variable(V1, 0).scale(2)])(p)
    assert q.terms == {((1500,), 0): 2 ** 1500}


def test_exact_division_by_linear_form():
    p = x() * x() + y1() * y1().scale(-1)
    quotient = p.div_exact_linear(lf(1, -1))
    assert quotient == x() + y1()
    with pytest.raises(ExactDivisionError):
        (x() * x() + y1()).div_exact_linear(lf(1, -1))


def test_mul_pure_cross_algebra():
    alg = cp1_algebra()
    u = EquivariantPolynomial.from_algebra_element(V2, alg, {1: Q(1)})
    pure = x() + y1()
    assert u.mul_pure(pure) == x(V2, alg) * u + y1(V2, alg) * u


# -- ring axioms (randomized) -----------------------------------------------------


@st.composite
def polys(draw, vars=V2):
    terms = {}
    for _ in range(draw(st.integers(0, 3))):
        exps = tuple(draw(st.integers(0, 2)) for _ in range(vars.count))
        coeff = Q(draw(st.integers(-4, 4)), draw(st.integers(1, 3)))
        if coeff:
            terms[(exps, 0)] = terms.get((exps, 0), Q(0)) + coeff
    return EquivariantPolynomial(vars, POINT_ALGEBRA, terms)


@settings(max_examples=60, deadline=None)
@given(polys(), polys(), polys())
def test_ring_axioms(p, q, r):
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + q == q + p
    assert (p + p.scale(-1)).is_zero()


@settings(max_examples=60, deadline=None)
@given(polys(), polys())
def test_derivative_is_a_derivation(p, q):
    lhs = (p * q).derivative(0)
    assert lhs == p.derivative(0) * q + p * q.derivative(0)


# -- exact division on the term dict (randomized) ---------------------------------

# the nilpotent coefficient algebra of the fixed spheres of s2xs2-nonisolated
ONE_VOL = build_s2xs2_nonisolated().space.components[0].algebra


@st.composite
def algebra_polys(draw, algebra):
    """A polynomial in three variables over the point algebra or one/vol."""
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        exps = tuple(draw(st.integers(0, 3)) for _ in range(V3.count))
        b = draw(st.integers(0, len(algebra.basis) - 1))
        terms[(exps, b)] = Q(draw(st.integers(-4, 4)), draw(st.integers(1, 3)))
    return EquivariantPolynomial(V3, algebra, terms)


@st.composite
def forms_off_index_0(draw):
    """A nonzero form free of X, so its pivot, the first variable with a
    nonzero coefficient, is Y1 or Y2."""
    return lf(0, *draw(st.lists(st.integers(-3, 3), min_size=2, max_size=2).filter(any)))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([POINT_ALGEBRA, ONE_VOL]).flatmap(algebra_polys), forms_off_index_0())
def test_division_undoes_multiplication_by_a_form(p, w):
    product = p.mul_pure(EquivariantPolynomial.from_linear_form(V3, w))
    assert product.div_exact_linear(w) == p


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([POINT_ALGEBRA, ONE_VOL]).flatmap(algebra_polys), forms_off_index_0(),
       st.data())
def test_division_raises_on_a_remainder_at_pivot_power_0(p, w, data):
    # w has a unit coefficient and is not a monomial times it, so it divides
    # no single term free of its pivot, over either algebra
    pivot = next(i for i, c in enumerate(w.coeffs) if c)
    exps = [data.draw(st.integers(0, 3)) for _ in range(V3.count)]
    exps[pivot] = 0
    b = data.draw(st.integers(0, len(p.algebra.basis) - 1))
    term = EquivariantPolynomial(V3, p.algebra, {(tuple(exps), b): data.draw(
        st.sampled_from([Q(-3, 2), Q(1), Q(5)]))})
    product = p.mul_pure(EquivariantPolynomial.from_linear_form(V3, w))
    with pytest.raises(ExactDivisionError, match="does not divide"):
        (product + term).div_exact_linear(w)


# -- RationalSection ---------------------------------------------------------------


def test_section_cancels_common_factor():
    p = x() * x() + y1() * y1().scale(-1)
    s = RationalSection(p, {lf(1, -1): 1})
    assert not s.denom
    assert s.numer == x() + y1()


def test_section_equality_cross_multiplied():
    one = EquivariantPolynomial.one(V2, POINT_ALGEBRA)
    a = RationalSection(x() + y1(), {lf(1, 0): 1, lf(1, 1): 1})
    b = RationalSection((x() + y1()) * x(), {lf(1, 0): 2, lf(1, 1): 1})
    assert a == b == RationalSection(one, {lf(1, 0): 1})
    assert a != RationalSection(one, {lf(1, 1): 1})


def test_section_denominator_absorbs_scalars():
    # 1/(2X) is stored as (1/2)/X
    one = EquivariantPolynomial.one(V2, POINT_ALGEBRA)
    s = RationalSection(one, {lf(2, 0): 1})
    assert s.denom == {lf(1, 0): 1}
    assert s.numer == one.scale(Q(1, 2))


def test_section_sum_over_common_denominator():
    one = EquivariantPolynomial.one(V1, POINT_ALGEBRA)
    xx = EquivariantPolynomial.variable(V1, 0)
    a = RationalSection(one, {lf(1): 1})
    b = RationalSection(one.scale(-1), {lf(1): 2})
    total = RationalSection.sum(V1, (a, b))
    assert total == RationalSection(xx + one.scale(-1), {lf(1): 2})


@st.composite
def point_sections(draw):
    """A section over the point algebra with factors from a small set of forms,
    so that sums share factors and cancel."""
    denom = {form: draw(st.integers(0, 2))
             for form in (lf(1, 0), lf(1, -1), lf(0, 1), lf(2, 1))}
    return RationalSection(draw(polys()), denom)


@settings(max_examples=80, deadline=None)
@given(st.lists(point_sections(), max_size=5))
def test_section_sum_is_the_left_fold(sections):
    fold = RationalSection(EquivariantPolynomial.zero(V2))
    for s in sections:
        fold = RationalSection.sum(V2, (fold, s))
    total = RationalSection.sum(V2, sections)
    assert total.numer == fold.numer
    assert total.denom == fold.denom


def test_section_derivative_quotient_rule():
    one = EquivariantPolynomial.one(V2, POINT_ALGEBRA)
    s = RationalSection(one, {lf(1, 0): 1})  # 1/X
    ds = s.derivative(0)
    assert ds == RationalSection(one.scale(-1), {lf(1, 0): 2})


def test_section_substitution_into_denominator():
    one = EquivariantPolynomial.one(V2, POINT_ALGEBRA)
    s = RationalSection(one, {lf(1, 1): 1})  # 1/(X + Y1)
    t = s.subst_linear(0, (Q(0), Q(1)))  # X -> Y1
    assert t == RationalSection(one, {lf(0, 2): 1})


def test_section_substitution_rejects_the_substituted_variable():
    s = RationalSection(x() * y1(), {lf(1, 1): 1})
    with pytest.raises(ValidationError, match="must not involve the substituted variable"):
        s.subst_linear(0, (Q(1), Q(1)))  # X -> X + Y1


# -- Euler inversion ----------------------------------------------------------------


def test_invert_single_plain_line():
    one = EquivariantPolynomial.one(V2, POINT_ALGEBRA)
    inv = invert_euler(V2, POINT_ALGEBRA, [(lf(1, 0), EquivariantPolynomial.zero(V2, POINT_ALGEBRA))])
    assert inv == RationalSection(one, {lf(1, 0): 1})


def test_invert_line_with_nilpotent_chern():
    # 1/(X + u) = 1/X - u/X^2 when u^2 = 0
    alg = cp1_algebra()
    u = EquivariantPolynomial.from_algebra_element(V2, alg, {1: Q(1)})
    inv = invert_euler(V2, alg, [(lf(1, 0), u)])
    assert inv == RationalSection(x(V2, alg) + u.scale(-1), {lf(1, 0): 2})


def test_invert_two_plain_lines():
    one = EquivariantPolynomial.one(V2, POINT_ALGEBRA)
    inv = invert_euler(V2, POINT_ALGEBRA,
                       [(lf(1, 0), EquivariantPolynomial.zero(V2, POINT_ALGEBRA)),
                        (lf(-1, 1), EquivariantPolynomial.zero(V2, POINT_ALGEBRA))])
    assert inv == RationalSection(one, {lf(1, 0): 1, lf(-1, 1): 1})


def test_invert_rejects_zero_weight():
    with pytest.raises(ValidationError):
        invert_euler(V2, POINT_ALGEBRA,
                     [(lf(0, 0), EquivariantPolynomial.zero(V2, POINT_ALGEBRA))])


@st.composite
def euler_lines(draw):
    alg = two_line_algebra()
    lines = []
    for _ in range(draw(st.integers(1, 4))):
        coeffs = [draw(st.integers(-2, 2)) for _ in range(2)]
        if not any(coeffs):
            coeffs[0] = 1
        chern = EquivariantPolynomial.from_algebra_element(
            V2, alg, {1: Q(draw(st.integers(-2, 2))), 2: Q(draw(st.integers(-2, 2)))})
        lines.append((lf(*coeffs), chern))
    return alg, lines


@settings(max_examples=40, deadline=None)
@given(euler_lines())
def test_invert_euler_times_euler_is_one(data):
    alg, lines = data
    euler = EquivariantPolynomial.one(V2, alg)
    for w, c in lines:
        euler = euler * (EquivariantPolynomial.from_linear_form(V2, w, alg) + c)
    inv = invert_euler(V2, alg, lines)
    product = RationalSection(inv.numer * euler, inv.denom)
    assert not product.denom
    assert product.numer == EquivariantPolynomial.one(V2, alg)


def invert_euler_by_lines(vars, alg, lines):
    """The per-line fold: each line's 1/(w + c), written over w^order and
    not cancelled, multiplied into a product that is cancelled at every step."""
    result = RationalSection(EquivariantPolynomial.one(vars, alg))
    for form, chern in lines:
        elt = {b: c for (e, b), c in chern.terms.items()}
        order = alg.nilpotency_order(elt) if elt else 1
        w = EquivariantPolynomial.from_linear_form(vars, form)
        factor = EquivariantPolynomial.zero(vars, alg)
        for r in range(order):
            factor = factor + (chern.scale(-1) ** r).mul_pure(w ** (order - 1 - r))
        result = RationalSection(result.numer * factor, [*result.denom.items(), (form, order)])
    return result


def assert_per_line_fold(vars, alg, lines):
    got, want = invert_euler(vars, alg, lines), invert_euler_by_lines(vars, alg, lines)
    assert got.numer.terms == want.numer.terms
    assert got.denom == want.denom
    return got


@settings(max_examples=60, deadline=None)
@given(euler_lines())
def test_invert_euler_is_the_per_line_fold_term_for_term(data):
    # one product cancelled once is the canonical form the fold reaches
    alg, lines = data
    assert_per_line_fold(V2, alg, lines)


def test_invert_euler_cancels_the_product_once():
    # 1/(X + u)^2 = (X - u)^2 / X^4 = (X^2 - 2*X*u) / X^4: one X cancels
    alg = cp1_algebra()
    u = EquivariantPolynomial.from_algebra_element(V2, alg, {1: Q(1)})
    twice = assert_per_line_fold(V2, alg, [(lf(1, 0), u), (lf(1, 0), u)])
    assert str(twice) == "(X - 2*u) / ((X)^3)"
    # proportional weights merge, their scales move to the numerator
    zero = EquivariantPolynomial.zero(V2, POINT_ALGEBRA)
    mixed = assert_per_line_fold(
        V2, POINT_ALGEBRA, [(lf(1, 0), zero), (lf(-2, 0), zero), (lf(1, 1), zero)])
    assert str(mixed) == "(-1/2) / ((X)^2*(X + Y1))"
