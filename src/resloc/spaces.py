"""Hamiltonian torus spaces presented by fixed-point data, and the
localization-style integrals built on them.

A space is a list of fixed components; each component carries its moment
value, the cohomology of the component as a structure-constant algebra, and
the normal bundle split into weighted lines.  Cohomology classes of the total
space are handled purely through their restrictions to the components.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from . import linalg
from .residues import (
    MomentTerm,
    ReciprocalSeries,
    VariableOrdering,
    iterated_residue_selected,
    res_x_plus_series,
)
from .symcore import (
    POINT_ALGEBRA,
    EquivariantPolynomial,
    GradedAlgebra,
    LinearForm,
    Q,
    RationalSection,
    ValidationError,
    Variables,
    coefficient,
    invert_euler,
    substitution,
)

_Key = tuple[tuple[int, ...], int]   # (exponents, algebra basis index)

__all__ = [
    "NonGenericError",
    "FixedComponent",
    "HamiltonianSpace",
    "RestrictedClass",
    "CircleDirection",
    "AdaptedSpace",
    "unimodular_completion",
    "adapt_space",
    "is_generic",
    "positive_side",
    "find_generic_direction",
    "generator_products",
    "localization_sum",
    "localization_failures",
    "KirwanIntegral",
    "circle_integral",
    "torus_integral",
]


class NonGenericError(ValueError):
    """A circle direction pairs to zero with a moment value or a weight."""

    def __init__(self, message: str, violations: list[tuple[str, str]]):
        super().__init__(message)
        self.violations = violations


@dataclass(frozen=True)
class CircleDirection:
    """Integer direction vector in the torus Lie algebra."""

    vector: tuple[int, ...]

    def primitive(self) -> "CircleDirection":
        g = gcd(*self.vector)
        return CircleDirection(tuple(v // g for v in self.vector))

    def pair(self, covector: Iterable[Fraction]) -> Fraction:
        return sum((Q(c) * v for c, v in zip(covector, self.vector)), Q(0))


@dataclass(frozen=True)
class FixedComponent:
    """One connected component of the fixed-point set."""

    name: str
    moment: tuple[Fraction, ...]
    algebra: GradedAlgebra
    normal_lines: tuple[tuple[LinearForm, EquivariantPolynomial], ...]


class HamiltonianSpace:
    """Fixed-point presentation of a compact Hamiltonian torus space."""

    def __init__(self, vars: Variables, dim: int, components: Iterable[FixedComponent]):
        self.vars = vars
        self.dim = int(dim)
        self.components = tuple(components)
        self._euler_inverse_cache: dict[str, RationalSection] = {}
        self._common_euler_cache: tuple[dict[LinearForm, int],
                                        dict[str, EquivariantPolynomial]] | None = None
        self._validate()

    def _validate(self):
        if self.dim % 2 or self.dim < 0:
            raise ValidationError("dim must be even and nonnegative")
        if not self.components:
            raise ValidationError("need at least one fixed component")
        names = [f.name for f in self.components]
        if len(set(names)) != len(names):
            raise ValidationError("fixed component names must be distinct")
        n = self.vars.count
        for f in self.components:
            if len(f.moment) != n:
                raise ValidationError(f"component {f.name}: moment has wrong length")
            if 2 * len(f.normal_lines) + f.algebra.top_degree != self.dim:
                raise ValidationError(
                    f"component {f.name}: normal lines and component dimension "
                    f"do not add up to dim {self.dim}")
            for w, c in f.normal_lines:
                if len(w.coeffs) != n:
                    raise ValidationError(f"component {f.name}: weight has wrong length")
                if w.is_zero():
                    raise ValidationError(f"component {f.name}: zero normal weight")
                if any(v.denominator != 1 for v in w.coeffs):
                    raise ValidationError(f"component {f.name}: weights must be integral")
                if not c.is_zero() and (not c.is_homogeneous() or c.degree() != 2
                                        or c.involves_any_variable()):
                    raise ValidationError(
                        f"component {f.name}: line class must be a degree-2 element of "
                        f"the component algebra")

    def euler_inverse(self, f: FixedComponent) -> RationalSection:
        sec = self._euler_inverse_cache.get(f.name)
        if sec is None:
            sec = invert_euler(self.vars, f.algebra, list(f.normal_lines))
            self._euler_inverse_cache[f.name] = sec
        return sec

    def _common_euler(self) -> tuple[dict[LinearForm, int], dict[str, EquivariantPolynomial]]:
        """The least common multiple C of the components' Euler denominators,
        and each component's Euler numerator extended to C, by component
        name; built on first use and kept."""
        if self._common_euler_cache is None:
            inverses = {f.name: self.euler_inverse(f) for f in self.components}
            common = RationalSection.common_denominator(inverses.values())
            self._common_euler_cache = (common, {
                name: inv.numer_over(common) for name, inv in inverses.items()})
        return self._common_euler_cache


class RestrictedClass:
    """Equivariant cohomology class given by its restrictions to the fixed
    components; the faithful representation when restriction is injective."""

    __slots__ = ("space", "degree", "restrictions")

    def __init__(self, space: HamiltonianSpace, degree: int,
                 restrictions: Mapping[str, EquivariantPolynomial]):
        self.space = space
        self.degree = int(degree)
        self.restrictions = {}
        for f in space.components:
            p = restrictions.get(f.name)
            if p is None:
                raise ValidationError(f"missing restriction to component {f.name}")
            if not p.is_zero() and (not p.is_homogeneous() or p.degree() != self.degree):
                raise ValidationError(
                    f"restriction to {f.name} is not homogeneous of degree {self.degree}")
            self.restrictions[f.name] = p

    @staticmethod
    def unit(space: HamiltonianSpace) -> "RestrictedClass":
        return RestrictedClass(space, 0, {
            f.name: EquivariantPolynomial.one(space.vars, f.algebra)
            for f in space.components})

    def is_zero(self) -> bool:
        return all(p.is_zero() for p in self.restrictions.values())

    def __add__(self, other: "RestrictedClass") -> "RestrictedClass":
        if self.space is not other.space:
            raise ValidationError("classes live on different spaces")
        degree = self.degree if not self.is_zero() else other.degree
        if not self.is_zero() and not other.is_zero() and self.degree != other.degree:
            raise ValidationError("cannot add classes of different degrees")
        return RestrictedClass(self.space, degree, {
            name: p + other.restrictions[name] for name, p in self.restrictions.items()})

    def __mul__(self, other: "RestrictedClass") -> "RestrictedClass":
        if self.space is not other.space:
            raise ValidationError("classes live on different spaces")
        return RestrictedClass(self.space, self.degree + other.degree, {
            name: p * other.restrictions[name] for name, p in self.restrictions.items()})

    def mul_pure(self, poly: EquivariantPolynomial) -> "RestrictedClass":
        """Multiply by a homogeneous polynomial in the variables."""
        if not poly.is_homogeneous():
            raise ValidationError("pure factor must be homogeneous")
        return RestrictedClass(self.space, self.degree + max(poly.degree(), 0), {
            name: p.mul_pure(poly) for name, p in self.restrictions.items()})

    def scale(self, value) -> "RestrictedClass":
        return RestrictedClass(self.space, self.degree, {
            name: p.scale(value) for name, p in self.restrictions.items()})

    def __eq__(self, other) -> bool:
        return (isinstance(other, RestrictedClass) and self.space is other.space
                and self.restrictions == other.restrictions)

    def __repr__(self) -> str:
        inner = ", ".join(f"{n}: {p}" for n, p in self.restrictions.items())
        return f"RestrictedClass(deg {self.degree}; {inner})"


def generator_products(space: HamiltonianSpace,
                       generators: list[tuple[str, RestrictedClass]],
                       max_degree: int) -> Iterator[tuple[tuple[int, ...], RestrictedClass]]:
    """Every product of the positive-degree generators with total degree at
    most max_degree, as (exponents, class).

    Exponents are indexed by the positive-degree generators in their given
    order.  Products come depth first, starting from the unit, and each is
    multiplied out in generator order, so callers see a fixed sequence.  The
    walk keeps its own stack, so a deep product needs no deep recursion.
    """
    nonunit = [cls for _, cls in generators if cls.degree > 0]
    # (first generator index a child may use, exponents, class)
    stack = [(0, (0,) * len(nonunit), RestrictedClass.unit(space))]
    while stack:
        idx, exps, cls = stack.pop()
        yield exps, cls
        # pushed last to first, so the first generator's subtree comes next
        for i in range(len(nonunit) - 1, idx - 1, -1):
            if cls.degree + nonunit[i].degree <= max_degree:
                stack.append((i, exps[:i] + (exps[i] + 1,) + exps[i + 1:], cls * nonunit[i]))


# -- circle directions and coordinate adaptation ----------------------------


def is_generic(space: HamiltonianSpace, xi: CircleDirection) -> list[tuple[str, str]]:
    """Violation certificate for a circle direction; empty means generic."""
    violations: list[tuple[str, str]] = []
    for f in space.components:
        if xi.pair(f.moment) == 0:
            violations.append(("moment", f.name))
        for w, _ in f.normal_lines:
            if xi.pair(w.coeffs) == 0:
                violations.append(("weight", f"{f.name}:{w.render(space.vars.names)}"))
    return violations


def positive_side(space: HamiltonianSpace, xi: CircleDirection) -> frozenset[str]:
    """Names of the components whose moment pairs positively with xi."""
    return frozenset(f.name for f in space.components if xi.pair(f.moment) > 0)


def _primitive_signed(vec: tuple[int, ...]) -> tuple[int, ...]:
    g = gcd(*vec)
    if g == 0:
        return vec
    vec = tuple(v // g for v in vec)
    lead = next(v for v in vec if v != 0)
    return vec if lead > 0 else tuple(-v for v in vec)


def _integral_moment(moment: tuple[Fraction, ...]) -> tuple[int, ...]:
    """The moment scaled by the lcm of its denominators."""
    den = lcm(*(c.denominator for c in moment))
    return tuple(int(c * den) for c in moment)


def _arrangement_normals(space: HamiltonianSpace) -> list[tuple[int, ...]]:
    """The distinct primitive normals of the nonzero moments and the weights,
    sorted: a direction is generic when it pairs to nonzero with each one."""
    seen = set()
    for f in space.components:
        vec = _integral_moment(f.moment)
        if any(vec):
            seen.add(_primitive_signed(vec))
        seen.update(_primitive_signed(tuple(int(c) for c in w.coeffs)) for w, _ in f.normal_lines)
    return sorted(seen)


def find_generic_direction(space: HamiltonianSpace) -> CircleDirection:
    """The generic direction of smallest max-norm, the lexicographically first
    of that norm.  A component at moment 0 pairs to zero with every direction,
    so it is named; otherwise a generic direction exists and is found.

    The search fixes xi_0, xi_1, ... in turn, each from -r to r, depth first,
    for r = 1, 2, ...  A normal whose last nonzero entry is j pairs to a final
    value once xi_0..xi_j are fixed, so it rules out at most one value of
    xi_j, skipped there.  The search meets the directions of max-norm r in
    sorted order and passes over only non-generic ones.  What it finds is
    primitive: if xi/g is integral, it is generic too and has a smaller
    max-norm.

    It stops by r = max(1, ceil(max_j m_j / 2)), where m_j is the number of
    normals whose last nonzero entry is j.  Only (c, 0, ..., 0) ends at entry
    0, ruling out 0 alone, so xi_0 = -r survives; after it every later entry
    ranges over 2r + 1 values, of which at most m_j are ruled out.
    """
    at_zero = [("moment", f.name) for f in space.components if not any(f.moment)]
    if at_zero:
        raise NonGenericError("no direction is generic for a component at moment 0", at_zero)
    n = space.vars.count
    ending: list[list[tuple[int, ...]]] = [[] for _ in range(n)]
    for w in _arrangement_normals(space):
        ending[max(i for i, c in enumerate(w) if c)].append(w)

    def search(prefix: list[int], radius: int) -> tuple[int, ...] | None:
        j = len(prefix)
        if j == n:
            return tuple(prefix)
        partials = ((sum(a * b for a, b in zip(prefix, w)), w[j]) for w in ending[j])
        ruled_out = {-p // c for p, c in partials if p % c == 0}
        # the last entry must have max-norm r if no earlier one has
        full = j < n - 1 or radius in map(abs, prefix)
        for v in range(-radius, radius + 1) if full else (-radius, radius):
            if v not in ruled_out and (found := search(prefix + [v], radius)):
                return found
        return None

    radius = 1
    while (found := search([], radius)) is None:
        radius += 1
    return CircleDirection(found)


def _extended_gcd(a: int, b: int) -> tuple[int, int, int]:
    if b == 0:
        return (abs(a), 1 if a >= 0 else -1, 0)
    g, s, t = _extended_gcd(b, a % b)
    return (g, t, s - (a // b) * t)


def unimodular_completion(xi: tuple[int, ...]) -> list[list[int]]:
    """Integer matrix of determinant +1 (for more than one entry) whose first
    column is the primitive multiple of xi; used to rotate a circle direction
    onto the first axis.

    Extended-gcd row steps of determinant 1 carry the primitive vector to
    (d, 0, ..., 0); the returned matrix is their inverse, built column-wise
    alongside them."""
    n = len(xi)
    g = gcd(*xi)
    if g == 0:
        raise ValidationError("zero direction")
    v = [x // g for x in xi]
    cols = [[1 if i == j else 0 for i in range(n)] for j in range(n)]
    for i in range(1, n):
        a, b = v[0], v[i]
        if b == 0:
            continue
        d, s, t = _extended_gcd(a, b)
        p, q = -(b // d), a // d
        # the step on rows 0, i is [[s, t], [p, q]]; its inverse is [[q, -t], [-p, s]]
        cols[0], cols[i] = ([q * x - p * y for x, y in zip(cols[0], cols[i])],
                            [s * y - t * x for x, y in zip(cols[0], cols[i])])
        v[0], v[i] = d, 0
    if v[0] < 0:
        # negating column 0 alone would leave determinant -1
        cols[0] = [-x for x in cols[0]]
        if n > 1:
            cols[1] = [-x for x in cols[1]]
    return [[col[i] for col in cols] for i in range(n)]


@dataclass
class AdaptedSpace:
    """A space re-expressed in a basis whose first direction is a given circle."""

    space: HamiltonianSpace
    xi: CircleDirection
    axes: tuple[LinearForm, ...]   # old variable i in the new ones

    @cached_property
    def _substitute(self):  # one substitution keeps the axis images' powers for every call
        return substitution([EquivariantPolynomial.from_linear_form(self.space.vars, a) for a in self.axes])

    def adapt(self, poly: EquivariantPolynomial) -> EquivariantPolynomial:
        """A restriction of the original space in the adapted variables."""
        return self._substitute(poly)


def adapt_space(space: HamiltonianSpace, xi: CircleDirection) -> AdaptedSpace:
    """Rotate coordinates by a unimodular map so xi becomes the first axis.

    Moments and weights are re-expressed by pairing with the new basis
    vectors, each distinct weight once, so equal weights stay one object.
    The first adapted moment coordinate is the pairing of the moment with xi.
    """
    xi = xi.primitive()
    basis_cols = unimodular_completion(xi.vector)
    images = {w: w.times(basis_cols)
              for w in {w for f in space.components for w, _ in f.normal_lines}}
    components = []
    for f in space.components:
        lines = tuple((images[w], c) for w, c in f.normal_lines)
        components.append(FixedComponent(f.name, LinearForm(f.moment).times(basis_cols).coeffs,
                                         f.algebra, lines))
    # old variable i is row i of the basis matrix in the new variables
    return AdaptedSpace(HamiltonianSpace(space.vars, space.dim, components), xi,
                        tuple(LinearForm.make(row) for row in basis_cols))


# -- localization integrals --------------------------------------------------


def localization_sum(space: HamiltonianSpace, eta: RestrictedClass) -> RationalSection:
    """Fixed-point sum of the integrals of eta_F / e_F over the common Euler
    denominator C, cancelled once: each eta_F is contracted with F's Euler
    numerator extended to C through the algebra's pairing, into one sum.

    A fully cancelled section over the point algebra is unique, each
    normalized form being a nonzerodivisor, so this is the numerator and
    denominator of a left fold of the terms eta_F / e_F, even where a zero
    term would have let the fold use a smaller denominator.

    For restrictions of a genuine equivariant class this is the equivariant
    integral over the total space, hence a polynomial; failure of the
    polynomiality is the data-validity signal used throughout.
    """
    common, numers = space._common_euler()
    terms: dict = {}
    for f in space.components:
        eta.restrictions[f.name].integrate_product(numers[f.name], terms)
    return RationalSection(EquivariantPolynomial(space.vars, POINT_ALGEBRA, terms), common)


def localization_failures(space: HamiltonianSpace,
                          generators: list[tuple[str, RestrictedClass]],
                          products: Iterable[tuple[tuple[int, ...], RestrictedClass]],
                          max_degree: int) -> tuple[int, list[str]]:
    """Localization sums of the generator products through max_degree, read
    from a walk of ``generator_products`` at least that far: the number that
    are polynomials, and a line for each that has a pole (the ABBV identities
    fail).  The sum is fully cancelled, so it is a polynomial exactly when its
    denominator is empty.  Each term is homogeneous of degree deg - dim M, so
    below the top degree a sum without a pole is 0."""
    names = [name for name, cls in generators if cls.degree > 0]
    failures = []
    checked = 0
    for exps, cls in products:
        if cls.degree > max_degree:
            continue
        label = "*".join(names[i] for i, e in enumerate(exps) for _ in range(e)) or "one"
        total = localization_sum(space, cls)
        if total.denom:
            failures.append(f"{label}: localization sum has a pole: {total}")
        else:
            checked += 1
    return checked, failures


_Entry = tuple[dict, int]   # integer terms over one positive denominator


def _add_over(total: dict, den: int, c, entry: _Entry) -> int:
    """total / den += c * terms / d in place, for integer terms over d;
    returns the new denominator, lcm(den, d * the denominator of c)."""
    terms, d = entry
    if terms:
        d *= c.denominator
        if (common := lcm(den, d)) != den:
            for k in total:
                total[k] *= common // den
        linalg.add_scaled(total, c.numerator * (common // d), terms)
        den = common
    return den


@dataclass(frozen=True)
class KirwanIntegral:
    """A Kirwan integral: a linear functional on restriction data, read off a
    table.  ``xi`` is the primitive circle direction along which the first
    residue is taken, and the sum runs over ``components``.  ``tau(f, k)`` is
    the value on the single monomial k at f, as integer numerators over one
    positive denominator: the terms of a polynomial in ``vars``, or for a
    scalar integral (``vars`` None) one term keyed ()."""

    xi: CircleDirection
    components: tuple[FixedComponent, ...]
    tau: Callable[[FixedComponent, _Key], _Entry]
    vars: Variables | None = None

    def __call__(self, eta: RestrictedClass) -> int | Fraction | EquivariantPolynomial:
        [terms] = self.values([eta])
        if self.vars is None:
            return terms.get((), 0)
        return EquivariantPolynomial(self.vars, POINT_ALGEBRA, terms)

    def values(self, classes: Sequence[RestrictedClass],
               zeta: RestrictedClass | None = None) -> list[dict]:
        """The terms of the integral of b * zeta for each class b (zeta None
        is the unit), read off the table bilinearly: the sum over F, k1, k2
        of b_F[k1] * zeta_F[k2] * tau[F, k1 k2], where k1 k2 adds exponents
        and multiplies basis elements by the algebra's structure constants.
        No product class is formed, and zeta is contracted with tau once per
        (F, k1) for all the classes.  Each sum runs on integers over a
        running common denominator, divided out once at the end."""
        contracted: dict[tuple[str, _Key], _Entry] = {}
        out = []
        for b in classes:
            total, den = {}, 1
            for f in self.components:
                for k1, c1 in b.restrictions[f.name].terms.items():
                    entry = contracted.get((f.name, k1))
                    if entry is None:
                        entry = contracted[f.name, k1] = self._contract(f, k1, zeta)
                    den = _add_over(total, den, c1, entry)
            out.append(total if den == 1 else
                       {k: coefficient(Fraction(v, den)) for k, v in total.items()})
        return out

    def _contract(self, f: FixedComponent, k1: _Key, zeta: RestrictedClass | None) -> _Entry:
        if zeta is None:
            return self.tau(f, k1)
        (e1, b1), terms, den = k1, {}, 1
        for (e2, b2), c2 in zeta.restrictions[f.name].terms.items():
            exps = tuple(a + b for a, b in zip(e1, e2))
            for k, s in f.algebra.mul_basis(b1, b2).items():
                den = _add_over(terms, den, c2 * s, self.tau(f, (exps, k)))
        return terms, den


def _monomial_table(adapted: AdaptedSpace, entry: Callable[[FixedComponent, RationalSection], _Entry]
                    ) -> Callable[[FixedComponent, _Key], _Entry]:
    """The lazy table tau of a fixed-point functional that is linear in each
    component's restriction: tau(F, k) is ``entry`` applied to the adapted
    localization term of the single monomial k = (exponents, algebra basis
    index) at F, computed on first use and kept (an entry that raises is not).

    The term is cancelled as it is built, so the residues see low pole
    orders: the adapted image s_i * P_i of variable i (P_i primitive) cancels
    min(k_i, mult of P_i) times against the Euler denominator, s_i moving to
    the numerator.  At a point no other form can divide what is left; a
    factor left elsewhere would raise a pole order, not change a residue.
    """
    space = adapted.space
    axes = [form.normalized() for form in adapted.axes]
    own_axes: dict[str, list[tuple[Fraction, LinearForm]]] = {}
    tau: dict[tuple[str, _Key], _Entry] = {}

    def lookup(f: FixedComponent, key: _Key) -> _Entry:
        value = tau.get((f.name, key))
        if value is None:
            inv = space.euler_inverse(f)
            denom, exps, scale = dict(inv.denom), list(key[0]), Q(1)
            if f.name not in own_axes:  # F's own forms, which denom finds by identity
                own_axes[f.name] = [(s, next((w for w in denom if w == p), p)) for s, p in axes]
            for i, (s, prim) in enumerate(own_axes[f.name]):
                if m := min(exps[i], denom.get(prim, 0)):
                    exps[i] -= m
                    denom[prim] -= m
                    scale *= s ** m
            monomial = EquivariantPolynomial(space.vars, f.algebra, {(tuple(exps), key[1]): scale})
            numer = EquivariantPolynomial(space.vars, POINT_ALGEBRA,
                                          adapted.adapt(monomial).integrate_product(inv.numer, {}))
            value = tau[f.name, key] = entry(f, RationalSection(numer, denom, cancel=False))
        return value

    return lookup


def circle_integral(space: HamiltonianSpace, xi: CircleDirection) -> KirwanIntegral:
    """Residue form of the circle-level Kirwan integral: sum over the components
    on the positive side of xi of the residue along xi.  Values are polynomials
    in the non-circle variables, up to a global constant.

    The integral is linear in each component's restriction, so it is read off
    a table: tau[F, k] is the residue along xi of the localization term of
    monomial k at a positive-side component F, computed once on first use and
    kept for the life of the returned object; reuse one object across many
    classes.  Every adapted weight involves the circle variable x0, so the
    residue is minus the residue at x0 = infinity: the sum over d of the x0^d
    slice of the term's numerator times S_(d+1), the coefficient of x0^(-d-1)
    in the expansion of 1 over its denominator.  Terms share few
    denominators, so the object also keeps one ``ReciprocalSeries`` per
    (component, denominator), grown as deeper coefficients are needed.  Each
    entry is a polynomial free of x0, as no denominator factor is free of x0.
    """
    violations = is_generic(space, xi)
    if violations:
        raise NonGenericError(f"direction {xi.vector} is not generic", violations)
    adapted = adapt_space(space, xi)
    plus_names = positive_side(space, xi)
    expansions: dict[tuple[str, frozenset], ReciprocalSeries] = {}

    def entry(f: FixedComponent, term: RationalSection) -> _Entry:
        key = (f.name, frozenset(term.denom.items()))
        series = expansions.get(key)
        if series is None:
            series = expansions[key] = ReciprocalSeries.of_denominator(
                term.denom, 0, term.vars, term.algebra)
        terms = res_x_plus_series(term, 0, series).numer.terms
        den = lcm(*(c.denominator for c in terms.values()))
        return {k: c.numerator * (den // c.denominator) for k, c in terms.items()}, den

    return KirwanIntegral(adapted.xi,
                          tuple(f for f in adapted.space.components if f.name in plus_names),
                          _monomial_table(adapted, entry), space.vars)


def torus_integral(space: HamiltonianSpace, xi: CircleDirection | None = None,
                   ordering: VariableOrdering | None = None) -> KirwanIntegral:
    """Torus-level Kirwan integral (up to a global constant) as a moment-
    weighted iterated residue of the fixed-point sum, innermost residue taken
    along a generic circle direction (``find_generic_direction``'s if None).
    The first-applied direction of the ordering must be generic; that is
    checked here, once.

    The iterated residue is linear in each component's restriction, so the
    integral is read off a table of rationals: tau[F, k] is the iterated
    residue of the moment-weighted localization term of monomial k at
    component F alone, computed once on first use, and a class's value is the
    sum of eta_F[k] * tau[F, k].
    """
    if xi is None:
        xi = find_generic_direction(space)
    adapted = adapt_space(space, xi)
    n = space.vars.count
    ordering = (ordering or VariableOrdering(tuple(range(n)))).validated(n)
    first = ordering.order[0]
    for f in adapted.space.components:
        if f.moment[first] == 0:
            raise NonGenericError(
                f"first-applied direction meets the moment of {f.name}",
                [("moment", f.name)])
        for w, _ in f.normal_lines:
            if w.coeffs[first] == 0:
                raise NonGenericError(
                    f"first-applied direction annihilates a weight at {f.name}",
                    [("weight", f.name)])

    def entry(f: FixedComponent, term: RationalSection) -> _Entry:
        value = iterated_residue_selected([MomentTerm(f.moment, term)], ordering)
        return {(): value.numerator} if value else {}, value.denominator

    return KirwanIntegral(adapted.xi, adapted.space.components, _monomial_table(adapted, entry))
