"""Fixtures shared by the test modules."""

from fractions import Fraction

import pytest

from resloc import spaces
from resloc.residues import ReciprocalSeries, res_x_plus_poles


@pytest.fixture
def antisymmetrize():
    """The antisymmetrization (1/|W|) sum_w sign(w) w.cls, class by class:
    the oracle for the nonabelian check, which antisymmetrizes in the model's
    restriction coordinates."""

    def anti(weyl, cls):
        total = cls
        for w in weyl.nonidentity:
            total = total + weyl.act(w, cls).scale(w.sign())
        return total.scale(Fraction(1, weyl.order))

    return anti


@pytest.fixture
def poles_route(monkeypatch):
    """Call to make the circle integral take every residue pole by pole
    instead of from its kept expansion at infinity, so a value can be
    checked through both routes."""

    def use():
        def by_poles(h, var, series):
            return res_x_plus_poles(h, var)

        monkeypatch.setattr(spaces, "res_x_plus_series", by_poles)

    return use


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
