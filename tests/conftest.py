"""Fixtures shared by the test modules."""

from fractions import Fraction
from math import lcm

import pytest

from resloc import spaces, weylgrp
from resloc.residues import ReciprocalSeries, res_x_plus_poles


def act(weyl, w, cls):
    """w, one of the group's elements, applied to cls, class by class: the
    oracle for the action the nonabelian check reads off the moved keys."""
    return spaces.RestrictedClass(weyl.space, cls.degree, dict(
        weyl.move(w, i, cls.restrictions[f.name].terms)
        for i, f in enumerate(weyl.space.components)))


def brion_divide(weyl, cls):
    """Exact division of cls by the product of the positive roots, class by
    class: the oracle for the check's division of restriction vectors."""
    return spaces.RestrictedClass(weyl.space, cls.degree - 2 * len(weyl.positive_roots), {
        f.name: weylgrp._divide_by_roots(weyl, f.name, cls.restrictions[f.name])
        for f in weyl.space.components})


@pytest.fixture
def antisymmetrize():
    """The antisymmetrization (1/|W|) sum_w sign(w) w.cls, class by class:
    the oracle for the nonabelian check, which antisymmetrizes in the model's
    restriction coordinates."""

    def anti(weyl, cls):
        total = cls
        for w in weyl.nonidentity:
            total = total + act(weyl, w, cls).scale(w.sign())
        return total.scale(Fraction(1, weyl.order))

    return anti


@pytest.fixture
def poles_circle_integral():
    """A reference for ``spaces.circle_integral(space, xi)``: the same
    functional over the same positive-side components, each entry of its
    table the residue of the cancelled localization term taken pole by pole
    (``res_x_plus_poles``), so that a value can be checked through both
    residue routes."""

    def entry(f, term):
        residue = res_x_plus_poles(term, 0)
        assert not residue.denom
        terms = residue.numer.terms
        den = lcm(*(c.denominator for c in terms.values()))
        return {k: c.numerator * (den // c.denominator) for k, c in terms.items()}, den

    def build(space, xi):
        adapted = spaces.adapt_space(space, xi)
        plus = spaces.positive_side(space, xi)
        return spaces.KirwanIntegral(
            adapted.xi, tuple(f for f in adapted.space.components if f.name in plus),
            spaces._monomial_table(adapted, entry), space.vars)

    return build


@pytest.fixture
def expansion_builds(monkeypatch):
    """The denominators of the expansions at infinity built from here on,
    in the order they were built."""
    builds = []
    real = ReciprocalSeries.of_denominator

    def counted(denom, var, vars, algebra):
        builds.append(dict(denom))
        return real(denom, var, vars, algebra)

    monkeypatch.setattr(ReciprocalSeries, "of_denominator", staticmethod(counted))
    return builds


@pytest.fixture
def cancelled(monkeypatch):
    """(component, monomial key, cancelled denominator) of every circle or
    torus table entry computed from here on, in order:
    ``AdaptedSpace.term`` runs once per entry."""
    calls = []
    real = spaces.AdaptedSpace.term

    def counted(self, f, key):
        result = real(self, f, key)
        calls.append((f.name, key, frozenset(result[2].items())))
        return result

    monkeypatch.setattr(spaces.AdaptedSpace, "term", counted)
    return calls
