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
from math import gcd
from typing import Callable, Iterable, Iterator, Mapping

from .residues import (
    MomentTerm,
    VariableOrdering,
    iterated_residue_selected,
    res_x_plus,
)
from .symcore import (
    POINT_ALGEBRA,
    EquivariantPolynomial,
    ExactDivisionError,
    GradedAlgebra,
    LinearForm,
    Q,
    RationalSection,
    ValidationError,
    Variables,
)

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
    "find_generic_direction",
    "generator_products",
    "localization_sum",
    "KirwanIntegral",
    "circle_integral",
    "torus_integral",
    "kappa_s_integral",
    "kappa_t_integral",
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

    @staticmethod
    def make(entries: Iterable[int]) -> "CircleDirection":
        vec = tuple(int(v) for v in entries)
        if not any(vec):
            raise ValidationError("circle direction must be nonzero")
        return CircleDirection(vec)

    def primitive(self) -> "CircleDirection":
        g = 0
        for v in self.vector:
            g = gcd(g, v)
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

    def dim(self) -> int:
        return self.algebra.top_degree


class HamiltonianSpace:
    """Fixed-point presentation of a compact Hamiltonian torus space."""

    def __init__(self, vars: Variables, dim: int, components: Iterable[FixedComponent]):
        self.vars = vars
        self.dim = int(dim)
        self.components = tuple(components)
        self._euler_inverse_cache: dict[str, RationalSection] = {}
        self._adapt_cache: dict[tuple[int, ...], "AdaptedSpace"] = {}
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

    def component(self, name: str) -> FixedComponent:
        for f in self.components:
            if f.name == name:
                return f
        raise KeyError(name)

    def euler_class(self, f: FixedComponent) -> EquivariantPolynomial:
        """Product of the line factors, expanded."""
        out = EquivariantPolynomial.one(self.vars, f.algebra)
        for w, c in f.normal_lines:
            out = out * (EquivariantPolynomial.from_linear_form(self.vars, w, f.algebra) + c)
        return out

    def euler_inverse(self, f: FixedComponent) -> RationalSection:
        from .symcore import invert_euler
        sec = self._euler_inverse_cache.get(f.name)
        if sec is None:
            sec = invert_euler(self.vars, f.algebra, list(f.normal_lines))
            self._euler_inverse_cache[f.name] = sec
        return sec

    def localization_term(self, f: FixedComponent,
                          restriction: EquivariantPolynomial) -> RationalSection:
        """Componentwise integral of restriction / euler, a pure rational section."""
        inv = self.euler_inverse(f)
        return RationalSection((restriction * inv.numer).integrate(), inv.denom)


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

    @staticmethod
    def zero(space: HamiltonianSpace, degree: int = 0) -> "RestrictedClass":
        return RestrictedClass(space, degree, {
            f.name: EquivariantPolynomial.zero(space.vars, f.algebra)
            for f in space.components})

    @staticmethod
    def from_pure(space: HamiltonianSpace, poly: EquivariantPolynomial) -> "RestrictedClass":
        """Pullback of a polynomial in the variables (same restriction everywhere)."""
        if not poly.is_homogeneous():
            raise ValidationError("pure class must be homogeneous")
        return RestrictedClass(space, max(poly.degree(), 0), {
            f.name: EquivariantPolynomial(space.vars, f.algebra,
                                          {(e, 0): c for (e, b), c in poly.terms.items()})
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

    def __neg__(self) -> "RestrictedClass":
        return self.scale(-1)

    def __sub__(self, other: "RestrictedClass") -> "RestrictedClass":
        return self + (-other)

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
    multiplied out in generator order, so callers see a fixed sequence.
    """
    nonunit = [cls for _, cls in generators if cls.degree > 0]
    exps = [0] * len(nonunit)

    def grow(idx: int, cls: RestrictedClass):
        yield tuple(exps), cls
        for i in range(idx, len(nonunit)):
            if cls.degree + nonunit[i].degree <= max_degree:
                exps[i] += 1
                yield from grow(i, cls * nonunit[i])
                exps[i] -= 1

    yield from grow(0, RestrictedClass.unit(space))


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


def find_generic_direction(space: HamiltonianSpace, box: int = 8) -> CircleDirection:
    """First generic primitive direction in a deterministic lattice sweep."""
    n = space.vars.count
    for radius in range(1, box + 1):
        candidates = []
        def walk(prefix):
            if len(prefix) == n:
                if max(abs(v) for v in prefix) == radius:
                    candidates.append(tuple(prefix))
                return
            for v in range(-radius, radius + 1):
                walk(prefix + [v])
        walk([])
        for vec in sorted(candidates):
            g = 0
            for v in vec:
                g = gcd(g, v)
            if g != 1:
                continue
            xi = CircleDirection(vec)
            if not is_generic(space, xi):
                return xi
    raise NonGenericError(f"no generic direction in box of radius {box}", [])


def _extended_gcd(a: int, b: int) -> tuple[int, int, int]:
    if b == 0:
        return (abs(a), 1 if a >= 0 else -1, 0)
    g, s, t = _extended_gcd(b, a % b)
    return (g, t, s - (a // b) * t)


def unimodular_completion(xi: tuple[int, ...]) -> list[list[int]]:
    """Integer matrix with determinant +-1 whose first column is the primitive
    multiple of xi; used to rotate a circle direction onto the first axis."""
    n = len(xi)
    g = 0
    for v in xi:
        g = gcd(g, v)
    if g == 0:
        raise ValidationError("zero direction")
    vec = [v // g for v in xi]
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    v = list(vec)
    for i in range(1, n):
        a, b = v[0], v[i]
        if b == 0:
            continue
        d, s, t = _extended_gcd(a, b)
        p, q = -(b // d), a // d
        row0 = [s * u[0][j] + t * u[i][j] for j in range(n)]
        rowi = [p * u[0][j] + q * u[i][j] for j in range(n)]
        u[0], u[i] = row0, rowi
        v[0], v[i] = d, 0
    if v[0] < 0:
        u[0] = [-x for x in u[0]]
        v[0] = -v[0]
    # invert u exactly; the inverse is integral because det u = +-1
    aug = [[Q(u[i][j]) for j in range(n)] + [Q(1 if j == i else 0) for j in range(n)]
           for i in range(n)]
    from .linalg import row_reduce
    rref, pivots = row_reduce(aug)
    if pivots != list(range(n)):
        raise ValidationError("completion matrix is singular")
    inv = [[rref[i][n + j] for j in range(n)] for i in range(n)]
    basis = [[int(inv[i][j]) for j in range(n)] for i in range(n)]
    det = _int_det(basis)
    if det == -1 and n > 1:
        for i in range(n):
            basis[i][1] = -basis[i][1]
    return basis


def _int_det(mat: list[list[int]]) -> int:
    n = len(mat)
    if n == 1:
        return mat[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in mat[1:]]
        total += (-1) ** j * mat[0][j] * _int_det(minor)
    return total


@dataclass
class AdaptedSpace:
    """A space re-expressed in a basis whose first direction is a given circle."""

    space: HamiltonianSpace
    basis: tuple[tuple[int, ...], ...]   # columns are the new basis vectors
    xi: CircleDirection

    def variable_images(self, vars: Variables) -> list[EquivariantPolynomial]:
        """Old variable i as a polynomial in the new variables (row i of basis)."""
        images = []
        for i in range(vars.count):
            form = LinearForm.make([self.basis[i][j] for j in range(vars.count)])
            images.append(EquivariantPolynomial.from_linear_form(vars, form))
        return images

    def transform_class(self, eta: RestrictedClass) -> RestrictedClass:
        images = self.variable_images(eta.space.vars)
        return RestrictedClass(self.space, eta.degree, {
            name: p.substitute_variables(images)
            for name, p in eta.restrictions.items()})


def adapt_space(space: HamiltonianSpace, xi: CircleDirection) -> AdaptedSpace:
    """Rotate coordinates by a unimodular map so xi becomes the first axis.

    Weights and moments are re-expressed by pairing with the new basis vectors;
    after adaptation the first moment coordinate of a component equals the
    pairing of its moment with xi.
    """
    xi = xi.primitive()
    cached = space._adapt_cache.get(xi.vector)
    if cached is not None:
        return cached
    n = space.vars.count
    basis_cols = unimodular_completion(xi.vector)
    cols = tuple(tuple(basis_cols[i][j] for i in range(n)) for j in range(n))

    def transform_covector(cov: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
        return tuple(sum((Q(c) * Q(fj) for c, fj in zip(cov, col)), Q(0)) for col in cols)

    components = []
    for f in space.components:
        lines = tuple((LinearForm(transform_covector(w.coeffs)), c)
                      for w, c in f.normal_lines)
        components.append(FixedComponent(f.name, transform_covector(f.moment),
                                         f.algebra, lines))
    adapted = AdaptedSpace(HamiltonianSpace(space.vars, space.dim, components),
                           tuple(tuple(row) for row in basis_cols), xi)
    space._adapt_cache[xi.vector] = adapted
    return adapted


# -- localization integrals --------------------------------------------------


def localization_sum(space: HamiltonianSpace, eta: RestrictedClass) -> RationalSection:
    """Fixed-point sum of the componentwise integrals of eta / euler.

    For restrictions of a genuine equivariant class this is the equivariant
    integral over the total space, hence a polynomial; failure of the
    polynomiality is the data-validity signal used throughout.
    """
    total = RationalSection.zero(space.vars, POINT_ALGEBRA)
    for f in space.components:
        total = total + space.localization_term(f, eta.restrictions[f.name])
    return total


@dataclass(frozen=True)
class KirwanIntegral:
    """A Kirwan integral: a linear functional on restriction data, bound to the
    adapted space its residues are taken in.

    ``adapt`` moves a class into the adapted coordinates and ``of_adapted``
    evaluates a class already there, so a caller pairing many products adapts
    each factor once and multiplies adapted classes.
    """

    adapted: AdaptedSpace
    of_adapted: Callable[[RestrictedClass], Fraction | EquivariantPolynomial]

    def adapt(self, eta: RestrictedClass) -> RestrictedClass:
        return self.adapted.transform_class(eta)

    def __call__(self, eta: RestrictedClass) -> Fraction | EquivariantPolynomial:
        return self.of_adapted(self.adapt(eta))


def circle_integral(space: HamiltonianSpace, xi: CircleDirection,
                    axis: CircleDirection | None = None,
                    method: str = "poles") -> KirwanIntegral:
    """Residue form of the circle-level Kirwan integral: sum over the components
    on the positive side of xi of the residue in the circle variable.  Values
    are polynomials in the non-circle variables, up to a global constant.

    The residue is taken along ``axis``, which is xi (the default) or -xi; the
    two choices give different operators, e.g. on the 2-sphere with xi = (-1)
    the unit integrates to -1 along xi and to 1 along -xi.
    """
    violations = is_generic(space, xi)
    if violations:
        raise NonGenericError(f"direction {xi.vector} is not generic", violations)
    xi = xi.primitive()
    axis = xi if axis is None else axis.primitive()
    if axis.vector not in (xi.vector, tuple(-c for c in xi.vector)):
        raise ValidationError("the residue axis must be the circle direction or its negative")
    adapted = adapt_space(space, axis)
    # the components on xi's positive side, whichever way the axis points
    plus = [f for f in adapted.space.components if (f.moment[0] > 0) == (axis == xi)]

    def of_adapted(eta: RestrictedClass) -> EquivariantPolynomial:
        total = RationalSection.zero(space.vars, POINT_ALGEBRA)
        for f in plus:
            term = adapted.space.localization_term(f, eta.restrictions[f.name])
            total = total + res_x_plus(term, 0, method=method)
        if total.involves(0):
            raise ArithmeticError("circle-level integral still involves the circle variable")
        try:
            return total.as_polynomial()
        except ExactDivisionError as exc:
            raise ValidationError(
                "circle-level Kirwan integral is not a polynomial; "
                "the fixed-point data is inconsistent") from exc

    return KirwanIntegral(adapted, of_adapted)


def torus_integral(space: HamiltonianSpace, xi: CircleDirection | None = None,
                   ordering: VariableOrdering | None = None) -> KirwanIntegral:
    """Torus-level Kirwan integral (up to a global constant) as a moment-
    weighted iterated residue of the fixed-point sum, innermost residue taken
    along a generic circle direction (the first one found when xi is None)."""
    if xi is None:
        xi = find_generic_direction(space)
    adapted = adapt_space(space, xi)
    if ordering is None:
        ordering = VariableOrdering(tuple(range(space.vars.count)))

    def of_adapted(eta: RestrictedClass) -> Fraction:
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
        terms = [MomentTerm(f.moment,
                            adapted.space.localization_term(f, eta.restrictions[f.name]))
                 for f in adapted.space.components]
        return iterated_residue_selected(terms, ordering)

    return KirwanIntegral(adapted, of_adapted)


def kappa_s_integral(space: HamiltonianSpace, eta: RestrictedClass,
                     xi: CircleDirection, method: str = "poles") -> EquivariantPolynomial:
    """The circle-level integral of one class, with the residue axis the
    sign-normalized generator of the circle's line: reversing the circle then
    swaps the selected side without flipping the operator, and the two values
    cancel against each other in the fixed-point sum."""
    lead = next((c for c in xi.vector if c), 0)
    axis = CircleDirection(tuple(-c for c in xi.vector)) if lead < 0 else None
    return circle_integral(space, xi, axis, method)(eta)


def kappa_t_integral(space: HamiltonianSpace, eta: RestrictedClass,
                     xi: CircleDirection | None = None,
                     ordering: VariableOrdering | None = None) -> Fraction:
    """The torus-level integral of one class; see ``torus_integral``."""
    return torus_integral(space, xi, ordering)(eta)
