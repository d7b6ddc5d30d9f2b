"""One-variable residue operators, series expansion at infinity, and the
moment-selected iterated residues built from them."""

from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resloc.residues import (
    MomentTerm,
    VariableOrdering,
    iterated_residue_selected,
    res_x_plus,
    residues_at_poles,
)
from resloc.symcore import (
    POINT_ALGEBRA,
    EquivariantPolynomial,
    LinearForm,
    RationalSection,
    ValidationError,
    Variables,
    invert_euler,
)

V1 = Variables(("X",))
V2 = Variables(("X", "Y1"))
V3 = Variables(("X", "Y1", "Y2"))


def lf(*coeffs):
    return LinearForm.make([Q(c) for c in coeffs])


def one(vars):
    return EquivariantPolynomial.one(vars, POINT_ALGEBRA)


def var(vars, i):
    return EquivariantPolynomial.variable(vars, i)


def sec(numer, denom):
    return RationalSection(numer, denom)


def res(h, var, method):
    """res_x_plus by one route, or by both for method "check", asserting
    that they agree."""
    if method != "check":
        return res_x_plus(h, var, method)
    by_poles = res_x_plus(h, var, "poles")
    assert by_poles == res_x_plus(h, var, "series")
    return by_poles


# -- frozen one-variable examples, both methods ----------------------------------


@pytest.mark.parametrize("method", ["poles", "series", "check"])
def test_res_of_inverse_x(method):
    h = sec(one(V1), {lf(1): 1})
    assert res(h, 0, method) == RationalSection(one(V1))


@pytest.mark.parametrize("method", ["poles", "series", "check"])
def test_res_two_simple_poles(method):
    # X / ((X-Y1)(X-Y2)) has residue sum 1
    h = sec(var(V3, 0), {lf(1, -1, 0): 1, lf(1, 0, -1): 1})
    assert res(h, 0, method) == RationalSection(one(V3))


@pytest.mark.parametrize("method", ["poles", "series", "check"])
def test_res_cancelling_pair(method):
    # 1 / (X(X-Y1)): residues -1/Y1 and 1/Y1 cancel
    h = sec(one(V2), {lf(1, 0): 1, lf(1, -1): 1})
    assert res(h, 0, method).is_zero()


@pytest.mark.parametrize("method", ["poles", "series", "check"])
def test_res_order_three_pole(method):
    # X^2 / (X-Y1)^3: second derivative of X^2 over 2!
    h = sec(var(V2, 0) ** 2, {lf(1, -1): 3})
    assert res(h, 0, method) == RationalSection(one(V2))


def test_res_unknown_method():
    for method in ("newton", "check"):
        with pytest.raises(ValidationError):
            res_x_plus(sec(one(V1), {lf(1): 1}), 0, method)


def test_residues_at_poles_with_exponential_weight():
    # residue of exp(3x)/x^2 at 0 picks up the linear series coefficient
    h = sec(one(V1), {lf(1): 2})
    [(pole, contribution)] = residues_at_poles(h, 0, weight=Q(3))
    assert pole == (Q(0),)
    assert contribution == RationalSection(one(V1).scale(3))


# -- an inverted Euler class through both routes ----------------------------------


def test_euler_series_matches_pole_residue():
    # (X^2 + 2Y1) / (X (X - Y1)): residues -2 at X = 0 and Y1 + 2 at X = Y1
    z = EquivariantPolynomial.zero(V2, POINT_ALGEBRA)
    lines = [(lf(1, 0), z), (lf(1, -1), z)]
    alpha = var(V2, 0) ** 2 + var(V2, 1).scale(2)
    inv = invert_euler(V2, POINT_ALGEBRA, lines)
    h = RationalSection(inv.numer * alpha, inv.denom)
    assert res(h, 0, "check") == RationalSection(var(V2, 1))


# -- iterated residues --------------------------------------------------------------


def test_ordering_validation():
    with pytest.raises(ValidationError):
        VariableOrdering((0, 0)).validated(2)
    with pytest.raises(ValidationError):
        VariableOrdering((0, 1), Q(0)).validated(2)
    assert VariableOrdering((1, 0)).validated(2).order == (1, 0)


def plain(h):
    """A term at moment 0, whose selected residue at every stage is the plain
    residue sum."""
    return [MomentTerm((Q(0),) * h.vars.count, h)]


def test_iterated_res_product_of_variables():
    h = sec(one(V2), {lf(1, 0): 1, lf(0, 1): 1})
    assert iterated_residue_selected(plain(h), VariableOrdering((1, 0))) == 1
    assert iterated_residue_selected(plain(h), VariableOrdering((1, 0), Q(5))) == 5


def test_iterated_res_vanishing_sum():
    h = sec(one(V2), {lf(1, 0): 1, lf(1, 1): 1, lf(0, 1): 1})
    assert iterated_residue_selected(plain(h), VariableOrdering((1, 0))) == 0


def test_selected_residue_keeps_moment_side():
    # two-point sphere data: merged residue cancels, selected one does not
    north = MomentTerm((Q(1),), sec(one(V1).scale(-1), {lf(1): 1}))
    south = MomentTerm((Q(-1),), sec(one(V1), {lf(1): 1}))
    ordering = VariableOrdering((0,))
    assert iterated_residue_selected([north, south], ordering) == -1
    merged = RationalSection.sum(V1, (north.section, south.section))
    assert iterated_residue_selected(plain(merged), ordering) == 0


def test_selected_residue_zero_moment_falls_back_to_plain():
    term = MomentTerm((Q(0),), sec(one(V1), {lf(1): 1}))
    assert iterated_residue_selected([term], VariableOrdering((0,))) == 1


def test_selected_residue_weights_are_exact():
    # the residue of exp(x) / x^4 at 0 is 1/3!, whether the moment is an int
    # or a Fraction; a prefactor that is not rational is refused
    quartic = sec(one(V1), {lf(1): 4})
    for moment in ((1,), (Q(1),)):
        value = iterated_residue_selected([MomentTerm(moment, quartic)], VariableOrdering((0,)))
        assert value == Q(1, 6) and type(value) is Q
    with pytest.raises(ValidationError, match="rational"):
        iterated_residue_selected([MomentTerm((1,), quartic)], VariableOrdering((0,), 0.5))


# -- randomized residue laws ---------------------------------------------------------


@st.composite
def sections(draw, vars=V3, max_factors=3, pole_var=None):
    nv = vars.count
    terms = {}
    for _ in range(draw(st.integers(1, 3))):
        exps = tuple(draw(st.integers(0, 2)) for _ in range(nv))
        terms[(exps, 0)] = Q(draw(st.integers(-4, 4).filter(bool)))
    numer = EquivariantPolynomial(vars, POINT_ALGEBRA, terms)
    denom = []
    for _ in range(draw(st.integers(1, max_factors))):
        coeffs = [Q(draw(st.integers(-2, 2))) for _ in range(nv)]
        if pole_var is not None and coeffs[pole_var] == 0:
            coeffs[pole_var] = Q(draw(st.sampled_from((-2, -1, 1, 2))))
        if not any(coeffs):
            coeffs[0] = Q(1)
        denom.append((LinearForm.make(coeffs), draw(st.integers(1, 2))))
    return RationalSection(numer, denom)


@settings(max_examples=60, deadline=None)
@given(sections())
def test_law_methods_agree(h):
    res(h, 0, "check")


@settings(max_examples=40, deadline=None)
@given(sections())
def test_law_residue_of_derivative_vanishes(h):
    assert res(h.derivative(0), 0, "check").is_zero()


@settings(max_examples=40, deadline=None)
@given(sections(), sections(), st.integers(-3, 3), st.integers(-3, 3))
def test_law_linearity(g, h, a, b):
    lhs = res_x_plus(RationalSection.sum(V3, (g.scale(a), h.scale(b))), 0)
    assert lhs == RationalSection.sum(V3, (res_x_plus(g, 0).scale(a), res_x_plus(h, 0).scale(b)))


@settings(max_examples=40, deadline=None)
@given(sections())
def test_law_multiplier_free_of_the_variable_factors_out(h):
    p = var(V3, 1) + one(V3).scale(2)
    r = res_x_plus(h, 0)
    assert res_x_plus(RationalSection(h.numer * p, h.denom), 0) == \
        RationalSection(r.numer * p, r.denom)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2), st.integers(-3, 3))
def test_law_polynomials_have_no_residue(k, c):
    p = RationalSection((var(V2, 0) ** k).scale(c))
    assert res(p, 0, "check").is_zero()


@settings(max_examples=40, deadline=None)
@given(sections(pole_var=0))
def test_law_degree_gap_two_vanishes(h):
    # variable-degree of denominator exceeds the numerator's by >= 2
    numer = EquivariantPolynomial(
        V3, POINT_ALGEBRA,
        {((0,) + e[1:], b): c for (e, b), c in h.numer.terms.items()})
    denom = dict(h.denom)
    denom[lf(1, 0, 0)] = denom.get(lf(1, 0, 0), 0) + 2
    g = RationalSection(numer, denom)
    gap = sum(m for f, m in g.denom.items() if f.involves(0)) \
        - max((e[0] for e, _ in g.numer.terms), default=-1)
    if gap >= 2:
        assert res(g, 0, "check").is_zero()
