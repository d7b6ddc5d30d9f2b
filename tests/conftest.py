"""Fixtures shared by the test modules."""

from fractions import Fraction
from itertools import combinations

import pytest

from resloc import spaces, weylgrp
from resloc.datasets import Dataset
from resloc.residues import ReciprocalSeries, _integer_terms, res_x_plus_poles
from resloc.symcore import POINT_ALGEBRA, EquivariantPolynomial, LinearForm, Variables


def class_sum(classes, start):
    """start plus the classes, all of start's degree, restriction by
    restriction: the oracles' addition, which the checks never need."""
    classes = list(classes)
    return spaces.RestrictedClass(start.space, start.degree, {
        name: sum((cls.restrictions[name] for cls in classes), p)
        for name, p in start.restrictions.items()})


def class_is_zero(cls):
    return all(p.is_zero() for p in cls.restrictions.values())


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


def grassmannian(n, level):
    """Gr(2, n) under T^(n-1) with x_n = 0, a space that is not toric (n < 10):
    a fixed point per 2-subset S = {i, j} of 1..n, with weights x_b - x_a for
    a in S and b not in S and moment e_i + e_j - level, and the generators
    c1 = x_i + x_j and c2 = x_i * x_j at S, the equivariant Chern classes of
    the tautological bundle.  dim M = 4(n - 2)."""
    vars = Variables(tuple(f"X{i + 1}" for i in range(n - 1)))
    e = [[int(k == i) for k in range(n - 1)] for i in range(n)]
    x = [EquivariantPolynomial.variable(vars, i) for i in range(n - 1)]
    x.append(EquivariantPolynomial.zero(vars))
    zero = EquivariantPolynomial.zero(vars)
    subsets = {f"S{i + 1}{j + 1}": (i, j) for i, j in combinations(range(n), 2)}
    space = spaces.HamiltonianSpace(vars, 4 * (n - 2), [spaces.FixedComponent(
        name, tuple(a + b - Fraction(c) for a, b, c in zip(e[i], e[j], level)), POINT_ALGEBRA,
        tuple((LinearForm.make([p - q for p, q in zip(e[b], e[a])]), zero)
              for a in (i, j) for b in range(n) if b not in (i, j)))
        for name, (i, j) in subsets.items()])

    def chern(degree, c):
        return spaces.RestrictedClass(space, degree, {
            name: c(x[i], x[j]) for name, (i, j) in subsets.items()})

    return Dataset(f"gr2-{n}", space, [("one", spaces.RestrictedClass.unit(space)),
                                        ("c1", chern(2, lambda a, b: a + b)),
                                        ("c2", chern(4, lambda a, b: a * b))])


# generic levels near the centre of the moment polytopes of Gr(2,4), Gr(2,5)
GR24_LEVEL = (Fraction(1, 2) + Fraction(1, 17), Fraction(1, 2) + Fraction(1, 19),
              Fraction(1, 2) - Fraction(1, 23))
GR25_LEVEL = tuple(Fraction(2, 5) + Fraction(1, p) for p in (101, 103, 107, 109))


@pytest.fixture
def antisymmetrize():
    """The antisymmetrization (1/|W|) sum_w sign(w) w.cls, class by class:
    the oracle for the nonabelian check, which antisymmetrizes in the model's
    restriction coordinates."""

    def anti(weyl, cls):
        moved = [act(weyl, w, cls).scale(w.sign()) for w in weyl.nonidentity]
        return class_sum(moved, cls).scale(Fraction(1, weyl.order))

    return anti


@pytest.fixture
def poles_circle_integral():
    """A reference for ``spaces.circle_integral(space, xi)``: the same
    functional over the same positive-side components, each entry of its
    table the residue of the cancelled localization term taken pole by pole
    (``res_x_plus_poles``), so that a value can be checked through both
    residue routes."""

    def build(space, xi):
        adapted = spaces.adapt_space(space, xi)
        plus = spaces.positive_side(space, xi)

        def compute(f, key):
            residue = res_x_plus_poles(adapted.section(f, key), 0)
            assert not residue.denom
            return _integer_terms(residue.numer.terms)

        return spaces.KirwanIntegral(
            adapted.xi, tuple(f for f in adapted.space.components if f.name in plus),
            spaces._lazy_table(compute), space.vars)

    return build


@pytest.fixture
def expansion_builds(monkeypatch):
    """The denominators of the expansions at infinity built from here on,
    in the order they were built."""
    builds = []
    real = ReciprocalSeries.__init__

    def counted(self, denom, var, vars):
        builds.append(dict(denom))
        real(self, denom, var, vars)

    monkeypatch.setattr(ReciprocalSeries, "__init__", counted)
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
