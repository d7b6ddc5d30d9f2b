"""Residue operators on rational sections.

res_x_plus sums the residues of a rational section at all of its finite poles
in one variable, the remaining variables being treated as parameters.  Two
independent implementations are kept deliberately:

* ``res_x_plus_poles`` groups denominator factors by pole location and applies
  the higher-order residue formula res = d^(k-1)/dx^(k-1)[(x-b)^k h] / (k-1)!
  evaluated at x = b;
* ``res_x_plus_series`` expands the section as a Laurent series at infinity
  and reads off the coefficient of 1/x.

They are cross-checked in the test suite and by the command line front end.

The iterated operator composes one-variable residues over an ordering of the
variables.  ``iterated_residue_selected`` additionally carries a moment
covector on each summand (the exponential weight of a fixed component) and
lets only poles of summands with positive current weight contribute; the
covector is updated at every pole substitution.  This is what the torus-level
Kirwan integrals use.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

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
    "residues_at_poles",
    "euler_series_residue",
    "iterated_res",
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
        b_poly = EquivariantPolynomial.from_linear_form(h.vars, LinearForm(b_coeffs))
        rest = {f: m for f, m in h.denom.items() if f != form}
        g = RationalSection(h.numer.scale(Q(1) / n ** k), rest, cancel=False)
        contribution = RationalSection.zero(h.vars, h.algebra)
        derivatives = [g]
        for _ in range(k - 1):
            derivatives.append(derivatives[-1].derivative(var))
        for j in range(k):
            # j-th power of the weight comes from differentiating the exponential
            if j and weight == 0:
                break
            coeff = weight ** j / (factorial(j) * factorial(k - 1 - j))
            if coeff:
                piece = derivatives[k - 1 - j].subst_linear(var, b_poly, b_coeffs)
                contribution = contribution + piece.scale(coeff)
        out.append((b_coeffs, contribution))
    return out


def res_x_plus_poles(h: RationalSection, var: int) -> RationalSection:
    """Sum of residues at all finite poles, by the pole-by-pole formula."""
    total = RationalSection.zero(h.vars, h.algebra)
    for _, contribution in residues_at_poles(h, var):
        total = total + contribution
    return total


def _series_of_inverse_factor(vars: Variables, form: LinearForm, var: int,
                              depth: int) -> dict[int, EquivariantPolynomial]:
    """Laurent coefficients of 1/form at infinity in x_var, as a dict
    {power of 1/x_var: polynomial in the other variables}, up to depth."""
    n = form.coeffs[var]
    tail = LinearForm(tuple(Q(0) if i == var else c for i, c in enumerate(form.coeffs)))
    tail_poly = EquivariantPolynomial.from_linear_form(vars, tail)
    series: dict[int, EquivariantPolynomial] = {}
    power = EquivariantPolynomial.one(vars, POINT_ALGEBRA)
    for r in range(depth):
        series[r + 1] = power.scale(Q((-1) ** r) / n ** (r + 1))
        if r + 1 < depth:
            power = power * tail_poly
    return series


def _series_mul(a: dict[int, EquivariantPolynomial], b: dict[int, EquivariantPolynomial],
                depth: int) -> dict[int, EquivariantPolynomial]:
    out: dict[int, EquivariantPolynomial] = {}
    for i, p in a.items():
        for j, q in b.items():
            k = i + j
            if k > depth:
                continue
            pq = p * q
            out[k] = out[k] + pq if k in out else pq
    return {k: v for k, v in out.items() if not v.is_zero()}


def res_x_plus_series(h: RationalSection, var: int) -> RationalSection:
    """Sum of residues at all finite poles, read off as the coefficient of
    1/x_var in the Laurent expansion of h at infinity."""
    if h.is_zero():
        return RationalSection.zero(h.vars, h.algebra)
    pole_forms = [(f, m) for f, m in sorted(h.denom.items(), key=lambda kv: kv[0].coeffs)
                  if f.involves(var)]
    keep = {f: m for f, m in h.denom.items() if not f.involves(var)}
    if not pole_forms:
        return RationalSection.zero(h.vars, h.algebra)
    depth = h.numer.var_degree(var) + 1
    series: dict[int, EquivariantPolynomial] = {0: EquivariantPolynomial.one(h.vars, POINT_ALGEBRA)}
    for form, mult in pole_forms:
        factor = _series_of_inverse_factor(h.vars, form, var, depth)
        for _ in range(mult):
            series = _series_mul(series, factor, depth)
    slices = h.numer.coefficients_in(var)
    total = EquivariantPolynomial.zero(h.vars, h.algebra)
    for d, slice_poly in slices.items():
        coeff = series.get(d + 1)
        if coeff is not None:
            total = total + slice_poly.mul_pure(coeff)
    return RationalSection(total, keep)


def res_x_plus(h: RationalSection, var: int, method: str = "poles") -> RationalSection:
    """Residue sum over all finite poles in one variable.

    method: "poles" (partial fractions), "series" (expansion at infinity) or
    "check" to run both and insist they agree.
    """
    if method == "poles":
        return res_x_plus_poles(h, var)
    if method == "series":
        return res_x_plus_series(h, var)
    if method == "check":
        a = res_x_plus_poles(h, var)
        b = res_x_plus_series(h, var)
        if a != b:
            raise ArithmeticError("residue implementations disagree")
        return a
    raise ValidationError(f"unknown residue method {method!r}")


def euler_series_residue(alpha: EquivariantPolynomial,
                         lines: list[tuple[LinearForm, EquivariantPolynomial]]) -> EquivariantPolynomial:
    """Integral over the component of the 1/x coefficient of alpha/euler.

    The reciprocal Euler class is expanded as a Laurent series in 1/x with
    coefficients in H*(F)[Y]; only components whose weights all involve the
    first variable admit such an expansion.  Returns a polynomial in the
    remaining variables (point-algebra valued).
    """
    vars = alpha.vars
    algebra = alpha.algebra
    for form, _ in lines:
        if form.coeffs[0] == 0:
            raise ValidationError(
                "series residue needs every normal weight to involve the first variable")
    depth = max(alpha.var_degree(0) + 1, 1)
    series: dict[int, EquivariantPolynomial] = {0: EquivariantPolynomial.one(vars, algebra)}
    for form, chern in lines:
        m = form.coeffs[0]
        tail = LinearForm(tuple(Q(0) if i == 0 else c for i, c in enumerate(form.coeffs)))
        u = EquivariantPolynomial.from_linear_form(vars, tail, algebra) + chern
        factor: dict[int, EquivariantPolynomial] = {}
        power = EquivariantPolynomial.one(vars, algebra)
        for r in range(depth):
            factor[r + 1] = power.scale(Q((-1) ** r) / m ** (r + 1))
            if r + 1 < depth:
                power = power * u
        series = _series_mul(series, factor, depth)
    gamma = EquivariantPolynomial.zero(vars, algebra)
    for d, slice_poly in alpha.coefficients_in(0).items():
        coeff = series.get(d + 1)
        if coeff is not None:
            gamma = gamma + slice_poly * coeff
    return gamma.integrate()


def iterated_res(h: RationalSection, ordering: VariableOrdering,
                 method: str = "poles") -> Fraction:
    """Compose one-variable residues over all variables, first entry first,
    and multiply by the ordering prefactor."""
    ordering = ordering.validated(h.vars.count)
    cur = h
    for var in ordering.order:
        cur = res_x_plus(cur, var, method=method)
        if cur.involves(var):
            raise ArithmeticError("residue output still involves the consumed variable")
    return cur.constant_value() * ordering.delta


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
        merged: dict[tuple[Fraction, ...], RationalSection] = {}
        for term in current:
            lam = term.moment[var]
            if lam < 0:
                continue
            for b_coeffs, contribution in residues_at_poles(term.section, var, lam):
                shifted = tuple(Q(0) if i == var else m + lam * b
                                for i, (m, b) in enumerate(zip(term.moment, b_coeffs)))
                if shifted in merged:
                    merged[shifted] = merged[shifted] + contribution
                else:
                    merged[shifted] = contribution
        current = [MomentTerm(mom, sec) for mom, sec in sorted(merged.items())
                   if not sec.is_zero()]
    total = Q(0)
    for term in current:
        total += term.section.constant_value()
    return total * ordering.delta
