"""Residue operators on rational sections.

res_x_plus sums the residues of a rational section at all of its finite poles
in one variable, the remaining variables being treated as parameters.  Two
independent implementations are kept deliberately:

* ``res_x_plus_poles`` groups denominator factors by pole location and applies
  the higher-order residue formula res = d^(k-1)/dx^(k-1)[(x-b)^k h] / (k-1)!
  evaluated at x = b; the pieces of each pole, and the poles, are each added
  by one ``RationalSection.sum``, cancelled once;
* ``res_x_plus_series`` expands the section as a Laurent series at infinity
  and reads off the coefficient of 1/x, in integers over the point algebra.

Both the series route and the circle-level Kirwan integral contract through
``ReciprocalSeries.residue``, the one contraction of numerator slices with
the expansion of 1 over a denominator; the integral keeps one series per
distinct cancelled denominator, shared by the components.  The pole route
cross-checks it: the test suite sends every circle-level table entry through
both routes, and the ``residue`` command runs both and insists they agree.

The iterated operator composes one-variable residues over an ordering of the
variables.  ``iterated_residue_selected`` additionally carries a moment
covector on each summand (the exponential weight of a fixed component) and
lets only poles of summands with positive current weight contribute; the
covector is updated at every pole substitution; the contributions that meet at
one shifted covector are added by one ``RationalSection.sum``.  This is what
the torus-level Kirwan integrals use.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, lcm
from operator import add
from typing import Mapping

from .symcore import (
    POINT_ALGEBRA,
    EquivariantPolynomial,
    LinearForm,
    Q,
    RationalSection,
    ValidationError,
    Variables,
)

__all__ = [
    "VariableOrdering",
    "res_x_plus",
    "res_x_plus_poles",
    "res_x_plus_series",
    "ReciprocalSeries",
    "residues_at_poles",
    "MomentTerm",
    "iterated_residue_selected",
]


@dataclass(frozen=True)
class VariableOrdering:
    """Order in which one-variable residues are applied (first entry first),
    together with the scalar prefactor fixed by the chosen basis."""

    order: tuple[int, ...]
    delta: Fraction = Q(1)

    def validated(self, nvars: int) -> "VariableOrdering":
        if sorted(self.order) != list(range(nvars)):
            raise ValidationError("ordering must be a permutation of all variable indices")
        if not isinstance(self.delta, (int, Fraction)):
            raise ValidationError("ordering prefactor must be rational")
        if self.delta == 0:
            raise ValidationError("ordering prefactor must be nonzero")
        return self


def residues_at_poles(h: RationalSection, var: int,
                      weight: Fraction = Q(0)) -> list[tuple[tuple[Fraction, ...], RationalSection]]:
    """Residues of exp(weight*x_var) * h at each finite pole in x_var.

    Returns (pole coefficient vector, contribution) pairs; the pole location is
    the linear function sum(b_j * x_j) of the other variables.  For weight 0
    this is the classical residue list.  Contributions do not involve x_var.
    """
    if h.is_zero():
        return []
    pole_forms = {form: mult for form, mult in h.denom.items() if form.involves(var)}
    out = []
    for form in sorted(pole_forms, key=lambda f: f.coeffs):
        k = pole_forms[form]
        n = form.coeffs[var]
        b_coeffs = tuple(Q(0) if i == var else -c / n for i, c in enumerate(form.coeffs))
        rest = {f: m for f, m in h.denom.items() if f != form}
        derivatives = [RationalSection(h.numer.scale(Q(1) / n ** k), rest, cancel=False)]
        for _ in range(k - 1):
            derivatives.append(derivatives[-1].derivative(var))
        # the j-th power of the weight comes from differentiating the exponential
        pieces = [derivatives[k - 1 - j].subst_linear(var, b_coeffs).scale(
                      Fraction(weight ** j, factorial(j) * factorial(k - 1 - j)))
                  for j in range(k if weight else 1)]
        out.append((b_coeffs, RationalSection.sum(h.vars, pieces, h.algebra)))
    return out


def res_x_plus_poles(h: RationalSection, var: int) -> RationalSection:
    """Sum of residues at all finite poles, by the pole-by-pole formula."""
    return RationalSection.sum(h.vars, (c for _, c in residues_at_poles(h, var)), h.algebra)


def _integer_terms(terms: Mapping) -> tuple[dict, int]:
    """Rational terms as integer numerators over their least common denominator."""
    den = lcm(*(c.denominator for c in terms.values()))
    return {k: c.numerator * (den // c.denominator) for k, c in terms.items()}, den


class ReciprocalSeries:
    """Laurent expansion at x_var = infinity, over the point algebra, of 1
    over the factors (n * x_var + u)^m of denom that involve x_var, with n a
    nonzero rational and u a linear form free of x_var.  ``coefficient(r)``
    is S_r, the polynomial coefficient of x_var^(-r), computed on first use
    and kept; ``residue`` keeps each S_r it reads as integer terms over one
    denominator, so the expansion grows as deeper ones are asked for.

    With N the total multiplicity, a0 the product of the n^m and b_i the
    coefficients of D / a0 = sum b_i x_var^(N-i), the expansion is
    x_var^(-N) * sum_k c_k x_var^(-k) with c_0 = 1/a0 and
    c_k = -sum_{i=1..min(k,N)} b_i c_(k-i), so S_r = c_(r-N).
    """

    def __init__(self, denom: Mapping[LinearForm, int], var: int, vars: Variables):
        self.vars = vars
        self.var = var
        zero = EquivariantPolynomial.zero(vars)
        monic = [EquivariantPolynomial.one(vars)]
        lead = Q(1)
        for form, mult in denom.items():
            if not (n := form.coeffs[var]):
                continue
            u = EquivariantPolynomial.from_linear_form(vars, LinearForm(tuple(
                Q(0) if i == var else c / n for i, c in enumerate(form.coeffs))))
            for _ in range(mult):
                lead *= n
                monic = [p + q * u for p, q in zip(monic + [zero], [zero] + monic)]
        self._order = len(monic) - 1
        self._steps = [b.scale(-1) for b in monic[1:]]
        self._c = [EquivariantPolynomial.constant(vars, Q(1) / lead)]
        self._known: list[tuple[dict[tuple[int, ...], int], int]] = []

    def coefficient(self, r: int) -> EquivariantPolynomial:
        """S_r, the coefficient of x_var^(-r)."""
        k = r - self._order
        if k < 0:
            return EquivariantPolynomial.zero(self.vars)
        c = self._c
        while len(c) <= k:
            j = len(c)
            c.append(EquivariantPolynomial.sum(self.vars, (
                step * c[j - i] for i, step in enumerate(self._steps[:j], 1))))
        return c[k]

    def residue(self, terms: Mapping[tuple[int, ...], int]) -> tuple[dict, int]:
        """Minus the residue at x_var = infinity of the numerator sum c * x^e
        (integer terms by exponents) over the denominator: the sum over d of
        its x_var^d slice times S_(d+1), as integer terms free of x_var over
        their common denominator, not reduced."""
        var, known = self.var, self._known
        slices = {e[var] for e in terms}
        while len(known) <= max(slices, default=-1) + 1:
            coefficients, d = _integer_terms(self.coefficient(len(known)).terms)
            known.append(({e: c for (e, _), c in coefficients.items()}, d))
        common = lcm(*(known[d + 1][1] for d in slices))
        total: dict[tuple[int, ...], int] = {}
        for e, c in terms.items():
            coefficients, d = known[e[var] + 1]
            c *= common // d
            e = e[:var] + (0,) + e[var + 1:]
            for rest, s in coefficients.items():
                r = tuple(map(add, e, rest))
                total[r] = total.get(r, 0) + c * s
        return {r: v for r, v in total.items() if v}, common


def res_x_plus_series(h: RationalSection, var: int) -> RationalSection:
    """Sum of residues at all finite poles, read off as the coefficient of
    1/x_var in the Laurent expansion of h at infinity by the contraction the
    circle-level integral runs, ``ReciprocalSeries.residue``; the factors
    free of x_var stay in the denominator.  h must be over the point algebra."""
    if h.algebra != POINT_ALGEBRA:
        raise ValidationError("the series route takes sections over the point algebra")
    numer, den = _integer_terms(h.numer.terms)
    total, common = ReciprocalSeries(h.denom, var, h.vars).residue(
        {e: c for (e, _), c in numer.items()})
    keep = {f: m for f, m in h.denom.items() if not f.involves(var)}
    return RationalSection(EquivariantPolynomial(h.vars, POINT_ALGEBRA, {
        (e, 0): Q(c, den * common) for e, c in total.items()}), keep)


def res_x_plus(h: RationalSection, var: int, method: str = "poles") -> RationalSection:
    """Residue sum over all finite poles in one variable, by method "poles"
    (partial fractions) or "series" (expansion at infinity)."""
    if method == "poles":
        return res_x_plus_poles(h, var)
    if method == "series":
        return res_x_plus_series(h, var)
    raise ValidationError(f"unknown residue method {method!r}")


@dataclass
class MomentTerm:
    """A rational summand carrying the moment covector of its fixed component,
    i.e. the exponent of the suppressed exponential weight."""

    moment: tuple[Fraction, ...]
    section: RationalSection


def iterated_residue_selected(terms: list[MomentTerm], ordering: VariableOrdering) -> Fraction:
    """Iterated residue of a sum of moment-weighted rational terms.

    At each stage a term contributes the residues at its finite poles when its
    current moment coefficient on the stage variable is positive, nothing when
    it is negative, and the plain residue sum when it is exactly zero; pole
    substitution shifts the covector by pole location times the coefficient.
    """
    if terms:
        ordering = ordering.validated(terms[0].section.vars.count)
    current = terms
    for var in ordering.order:
        merged: dict[tuple[Fraction, ...], list[RationalSection]] = {}
        for term in current:
            lam = term.moment[var]
            if lam < 0:
                continue
            for b_coeffs, contribution in residues_at_poles(term.section, var, lam):
                shifted = tuple(Q(0) if i == var else m + lam * b
                                for i, (m, b) in enumerate(zip(term.moment, b_coeffs)))
                merged.setdefault(shifted, []).append(contribution)
        current = [MomentTerm(mom, sec) for mom, pieces in sorted(merged.items())
                   if not (sec := RationalSection.sum(pieces[0].vars, pieces,
                                                      pieces[0].algebra)).is_zero()]
    total = Q(0)
    for term in current:
        total += term.section.constant_value()
    return total * ordering.delta
