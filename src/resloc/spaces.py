"""Hamiltonian torus spaces presented by fixed-point data, and the
localization-style integrals built on them.

A space is a list of fixed components; each component carries its moment
value, the cohomology of the component as a structure-constant algebra, and
the normal bundle split into weighted lines.  Cohomology classes of the total
space are handled purely through their restrictions to the components.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import add
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from . import linalg
from .residues import (
    MomentTerm,
    ReciprocalSeries,
    VariableOrdering,
    _integer_terms,
    iterated_residue_selected,
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

    def pair(self, covector: Sequence[Fraction]) -> Fraction:
        """The pairing with a rational covector, added in integers."""
        den = lcm(*(c.denominator for c in covector))
        return Q(sum(c.numerator * (den // c.denominator) * v
                     for c, v in zip(covector, self.vector)), den)


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

    @cached_property
    def _common_euler(self) -> tuple[dict[LinearForm, int], dict[str, EquivariantPolynomial]]:
        """The least common multiple C of the components' Euler denominators,
        and each component's Euler numerator extended to C, by component
        name; built on first use and kept."""
        inverses = {f.name: self.euler_inverse(f) for f in self.components}
        common = RationalSection.common_denominator(inverses.values())
        return common, {name: inv.numer_over(common) for name, inv in inverses.items()}


class RestrictedClass:
    """Equivariant cohomology class given by its restrictions to the fixed
    components; the faithful representation when restriction is injective.

    The constructor checks each restriction is zero or homogeneous of the
    class's degree, for classes from outside data (the loader, the family
    builders, ``vector_class``).  Products of checked classes are not checked
    again: ``GradedAlgebra`` puts each basis product in the summed degree.  A
    product keeps a factor's zero restriction, the same object, unchanged."""

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

    @staticmethod
    def _product(space: HamiltonianSpace, degree: int, restrictions: dict) -> "RestrictedClass":
        """A product of checked classes, built without the constructor's check."""
        out = object.__new__(RestrictedClass)
        out.space, out.degree, out.restrictions = space, degree, restrictions
        return out

    def __mul__(self, other: "RestrictedClass") -> "RestrictedClass":
        if self.space is not other.space:
            raise ValidationError("classes live on different spaces")
        restrictions = {}
        for name, p in self.restrictions.items():
            q = other.restrictions[name]
            restrictions[name] = p * q if p.terms and q.terms else q if p.terms else p
        return RestrictedClass._product(self.space, self.degree + other.degree, restrictions)

    def mul_pure(self, poly: EquivariantPolynomial) -> "RestrictedClass":
        """Multiply by a homogeneous polynomial in the variables."""
        if not poly.is_homogeneous():
            raise ValidationError("pure factor must be homogeneous")
        return RestrictedClass._product(self.space, self.degree + max(poly.degree(), 0), {
            name: p.mul_pure(poly) if p.terms else p for name, p in self.restrictions.items()})

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
    """Violation certificate for a circle direction: each moment value and
    weight that pairs to zero with it, in component order; empty means generic."""
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


def _arrangement_normals(space: HamiltonianSpace) -> list[tuple[int, ...]]:
    """The distinct primitive normals (``LinearForm.normalized``) of the
    nonzero moments and the weights, sorted: a direction is generic when it
    pairs to nonzero with each one."""
    forms = {w for f in space.components for w, _ in f.normal_lines}
    forms.update(LinearForm(f.moment) for f in space.components if any(f.moment))
    return sorted({tuple(map(int, w.normalized()[1].coeffs)) for w in forms})


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
    """A space re-expressed in a basis whose first direction is a given circle.
    ``term`` builds one monomial's cancelled localization term in integers,
    ``section`` the same as a RationalSection.  It keeps the adapted image of
    each monomial met and, per component, its Euler numerator integrated
    against each basis element."""

    space: HamiltonianSpace
    xi: CircleDirection
    axes: tuple[LinearForm, ...]   # old variable i in the new ones
    _images: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _weights: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _own_axes: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @cached_property
    def _substitute(self):  # one substitution keeps the axis images' powers for every call
        return substitution([EquivariantPolynomial.from_linear_form(self.space.vars, a) for a in self.axes])

    def term(self, f: FixedComponent, key: _Key
             ) -> tuple[dict[tuple[int, ...], int], int, dict[LinearForm, int]]:
        """The localization term of the monomial key = (exponents, basis index
        b) at f, a component of this space, in the adapted variables: integer
        numerator terms by exponents, their positive denominator, and the
        linear forms left in the denominator.

        The term is cancelled as it is built, so the residues see low pole
        orders: the adapted image s_i * P_i of variable i (P_i primitive)
        cancels min(k_i, mult of P_i) times against the Euler denominator, s_i
        moving to the numerator.  At a point no other form can divide what is
        left; a factor left elsewhere would raise a pole order, not change a
        residue.  The numerator is then s times the image of the x^e left
        times the integral over f of b times the Euler numerator."""
        inv = self.space.euler_inverse(f)
        denom, exps, scale = dict(inv.denom), list(key[0]), Q(1)
        if (own := self._own_axes.get(f.name)) is None:  # f's own forms, found by identity
            own = self._own_axes[f.name] = [(s, next((w for w in denom if w == p), p))
                                            for s, p in map(LinearForm.normalized, self.axes)]
        for i, (s, prim) in enumerate(own):
            if m := min(exps[i], denom.get(prim, 0)):
                exps[i] -= m
                denom[prim] -= m
                scale *= s ** m
        if (weights := self._weights.get((f.name, key[1]))) is None:
            unit = EquivariantPolynomial(self.space.vars, f.algebra,
                                         {(self.space.vars.zero_exps(), key[1]): 1})
            weights = self._weights[f.name, key[1]] = _integer_terms(
                unit.integrate_product(inv.numer, {}))
        if (image := self._images.get(exps := tuple(exps))) is None:  # x^exps adapted, once
            image = self._images[exps] = self._substitute(
                EquivariantPolynomial(self.space.vars, POINT_ALGEBRA, {(exps, 0): 1})).terms
        terms: dict[tuple[int, ...], int] = {}
        for (e1, _), c1 in image.items():
            for (e2, _), c2 in weights[0].items():
                e = tuple(map(add, e1, e2))
                terms[e] = terms.get(e, 0) + c1 * c2 * scale.numerator
        return ({e: c for e, c in terms.items() if c}, weights[1] * scale.denominator,
                {p: k for p, k in denom.items() if k})

    def section(self, f: FixedComponent, key: _Key) -> RationalSection:
        """What ``term`` returns, as a section over the point algebra, not
        cancelled further."""
        terms, den, denom = self.term(f, key)
        return RationalSection(EquivariantPolynomial(self.space.vars, POINT_ALGEBRA, {
            (e, 0): Fraction(c, den) for e, c in terms.items()}), denom, cancel=False)


def adapt_space(space: HamiltonianSpace, xi: CircleDirection) -> AdaptedSpace:
    """Rotate coordinates by a unimodular map so xi becomes the first axis.

    Moments and weights are re-expressed by pairing with the new basis
    vectors (``CircleDirection.pair``, in integers), each distinct weight
    once, so equal weights stay one object.  The first adapted moment
    coordinate is the pairing of the moment with xi.
    """
    xi = xi.primitive()
    basis_cols = unimodular_completion(xi.vector)
    columns = [CircleDirection(col) for col in zip(*basis_cols)]
    images = {w: LinearForm(tuple(col.pair(w.coeffs) for col in columns))
              for w in {w for f in space.components for w, _ in f.normal_lines}}
    components = []
    for f in space.components:
        lines = tuple((images[w], c) for w, c in f.normal_lines)
        components.append(FixedComponent(f.name, tuple(col.pair(f.moment) for col in columns),
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
    common, numers = space._common_euler
    terms: dict = {}
    for f in space.components:
        if (p := eta.restrictions[f.name]).terms:  # a zero restriction adds nothing
            p.integrate_product(numers[f.name], terms)
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
        [terms] = self.values([eta], RestrictedClass.unit(eta.space))
        if self.vars is None:
            return terms.get((), 0)
        return EquivariantPolynomial(self.vars, POINT_ALGEBRA, terms)

    def values(self, classes: Sequence[RestrictedClass], zeta: RestrictedClass) -> list[dict]:
        """The terms of the integral of b * zeta for each class b (``__call__``
        passes the unit), read off the table bilinearly: the sum over F, k1, k2
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

    def _contract(self, f: FixedComponent, k1: _Key, zeta: RestrictedClass) -> _Entry:
        (e1, b1), terms, den = k1, {}, 1
        for (e2, b2), c2 in zeta.restrictions[f.name].terms.items():
            exps = tuple(a + b for a, b in zip(e1, e2))
            for k, s in f.algebra.mul_basis(b1, b2).items():
                den = _add_over(terms, den, c2 * s, self.tau(f, (exps, k)))
        return terms, den


def _lazy_table(compute: Callable[[FixedComponent, _Key], _Entry]
                ) -> Callable[[FixedComponent, _Key], _Entry]:
    """tau(F, k) = compute(F, k), computed on first use and kept (an entry
    that raises is not)."""
    tau: dict[tuple[str, _Key], _Entry] = {}

    def lookup(f: FixedComponent, key: _Key) -> _Entry:
        if (value := tau.get((f.name, key))) is None:
            value = tau[f.name, key] = compute(f, key)
        return value

    return lookup


def circle_integral(space: HamiltonianSpace, xi: CircleDirection) -> KirwanIntegral:
    """Residue form of the circle-level Kirwan integral: sum over the components
    on the positive side of xi of the residue along xi.  Values are polynomials
    in the non-circle variables, up to a global constant.

    The integral is linear in each component's restriction, so it is read off
    a table, kept for the life of the returned object (reuse one object
    across many classes): tau[F, k] is the residue along xi of the
    localization term of monomial k at a positive-side component F
    (``AdaptedSpace.term``, over a cancelled denominator D).  Every adapted
    weight involves the circle variable x0, so that is minus the residue at
    x0 = infinity: ``ReciprocalSeries.residue`` of the term, reduced once.
    The components share one series per distinct D.  A factor of D free of
    x0 would leave a pole in the entry, and raises.
    """
    violations = is_generic(space, xi)
    if violations:
        raise NonGenericError(f"direction {xi.vector} is not generic", violations)
    adapted = adapt_space(space, xi)
    plus_names = positive_side(space, xi)
    expansions: dict[frozenset, ReciprocalSeries] = {}

    def compute(f: FixedComponent, key: _Key) -> _Entry:
        terms, den, denom = adapted.term(f, key)
        if not (terms and denom):  # zero, or a polynomial: no residue
            return {}, 1
        if (series := expansions.get(dkey := frozenset(denom.items()))) is None:
            if free := [w for w in denom if not w.involves(0)]:
                raise ValidationError(f"denominator factor {free[0]} at {f.name} is free of x0")
            series = expansions[dkey] = ReciprocalSeries(denom, 0, space.vars)
        total, common = series.residue(terms)
        g = gcd(den * common, *total.values())
        return {(e, 0): v // g for e, v in total.items()}, den * common // g

    return KirwanIntegral(adapted.xi,
                          tuple(f for f in adapted.space.components if f.name in plus_names),
                          _lazy_table(compute), space.vars)


def torus_integral(space: HamiltonianSpace, xi: CircleDirection | None = None,
                   ordering: VariableOrdering | None = None) -> KirwanIntegral:
    """Torus-level Kirwan integral (up to a global constant) as a moment-
    weighted iterated residue of the fixed-point sum, innermost residue taken
    along a generic circle direction (``find_generic_direction``'s if None).
    The ordering's first-applied direction, the column of xi's unimodular
    completion that its first index names, must be generic: ``is_generic``
    checks it here, once, as it checks xi in ``circle_integral``.

    The iterated residue is linear in each component's restriction, so the
    integral is read off a table of rationals: tau[F, k] is the iterated
    residue of the moment-weighted localization term of monomial k at
    component F alone (``AdaptedSpace.section``), computed once on first use,
    and a class's value is the sum of eta_F[k] * tau[F, k].
    """
    if xi is None:
        xi = find_generic_direction(space)
    adapted = adapt_space(space, xi)
    n = space.vars.count
    ordering = (ordering or VariableOrdering(tuple(range(n)))).validated(n)
    k = ordering.order[0]  # adapted coordinate k pairs with column k of the completion
    first = CircleDirection(tuple(int(a.coeffs[k]) for a in adapted.axes))
    if violations := is_generic(space, first):
        raise NonGenericError(f"first-applied direction {first.vector} is not generic", violations)

    def compute(f: FixedComponent, key: _Key) -> _Entry:
        value = iterated_residue_selected([MomentTerm(f.moment, adapted.section(f, key))], ordering)
        return {(): value.numerator} if value else {}, value.denominator

    return KirwanIntegral(adapted.xi, adapted.space.components, _lazy_table(compute))
