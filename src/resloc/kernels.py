"""Kernel subspaces of the Kirwan-style integrals, computed degree by degree
on a truncated model of the equivariant cohomology.

The model basis in each degree consists of products of the declared ring
generators with monomials in the torus variables, reduced to a linearly
independent set.  All subspaces are recorded as coefficient vectors over the
model basis of their degree, so span comparisons are exact rank computations.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd

from . import linalg
# Not called here; the name stays because perfbench/test_perfbench.py checks
# that tracing rebinds kernels.res_x_plus.
from .residues import res_x_plus  # noqa: F401
from .spaces import (
    CircleDirection,
    HamiltonianSpace,
    KirwanIntegral,
    NonGenericError,
    RestrictedClass,
    circle_integral,
    generator_products,
    is_generic,
    torus_integral,
)
from .symcore import (
    POINT_ALGEBRA,
    EquivariantPolynomial,
    Q,
    ValidationError,
    monomial_sort_key,
)

__all__ = [
    "SignPattern",
    "partition",
    "ModelElement",
    "DegreeTruncatedModel",
    "build_model",
    "Subspace",
    "tw_subspace",
    "pairing_kernel",
    "residue_kernel_circle",
    "CircleKernelRow",
    "check_circle_kernel_split",
    "Chamber",
    "ChamberSet",
    "enumerate_generic_directions",
    "torus_kernel",
    "FullKernelRow",
    "check_full_kernel",
    "FlowupReport",
    "validate_flowup_class",
]


@dataclass(frozen=True)
class SignPattern:
    """Partition of the fixed components by the sign of the moment pairing."""

    plus: tuple[str, ...]
    minus: tuple[str, ...]


def partition(space: HamiltonianSpace, xi: CircleDirection) -> SignPattern:
    violations = is_generic(space, xi)
    if violations:
        raise NonGenericError(f"direction {xi.vector} is not generic", violations)
    plus, minus = [], []
    for f in space.components:
        (plus if xi.pair(f.moment) > 0 else minus).append(f.name)
    return SignPattern(tuple(plus), tuple(minus))


# -- truncated model ---------------------------------------------------------


@dataclass
class ModelElement:
    label: str
    cls: RestrictedClass
    vector: list[Fraction]


class DegreeTruncatedModel:
    """Independent spanning sets for the even-degree slices up to max_degree."""

    def __init__(self, space: HamiltonianSpace,
                 generators: list[tuple[str, RestrictedClass]], max_degree: int):
        self.space = space
        self.generators = generators
        self.max_degree = max_degree
        self.keys_by_degree: dict[int, list[tuple[int, tuple[int, ...], int]]] = {}
        self.basis_by_degree: dict[int, list[ModelElement]] = {}
        self._build()

    def class_vector(self, cls: RestrictedClass, degree: int) -> list[Fraction]:
        keys = self.keys_by_degree[degree]
        out = []
        for ci, exps, b in keys:
            name = self.space.components[ci].name
            out.append(cls.restrictions[name].terms.get((exps, b), Q(0)))
        return out

    def coefficients_of(self, cls: RestrictedClass, degree: int) -> list[Fraction] | None:
        """Coefficients over the degree basis, or None when outside the span."""
        basis = [el.vector for el in self.basis_by_degree[degree]]
        return linalg.solve_in_span(basis, self.class_vector(cls, degree))

    def _build(self):
        space = self.space
        names = [name for name, cls in self.generators if cls.degree > 0]
        # all multisets of non-unit generators within the degree budget
        monomials: list[tuple[RestrictedClass, str]] = []
        for exps, cls in generator_products(space, self.generators, self.max_degree):
            label_parts = [names[i] + (f"^{e}" if e > 1 else "")
                           for i, e in enumerate(exps) if e]
            monomials.append((cls, "*".join(label_parts) or "1"))

        nvars = space.vars.count
        var_monomials: dict[int, list[tuple[int, ...]]] = {}
        for half in range(self.max_degree // 2 + 1):
            var_monomials[half] = sorted(_exponent_tuples(nvars, half), key=monomial_sort_key)

        for degree in range(0, self.max_degree + 1, 2):
            candidates: list[tuple[str, RestrictedClass]] = []
            for cls, label in monomials:
                gdeg = cls.degree
                if gdeg > degree or (degree - gdeg) % 2:
                    continue
                for mono in var_monomials[(degree - gdeg) // 2]:
                    pure = EquivariantPolynomial(space.vars, POINT_ALGEBRA,
                                                 {(mono, 0): Q(1)})
                    lifted = cls.mul_pure(pure)
                    candidates.append((_monomial_label(space.vars, mono, label), lifted))
            keyset = set()
            for _, cls in candidates:
                for ci, f in enumerate(space.components):
                    for key in cls.restrictions[f.name].terms:
                        keyset.add((ci, key[0], key[1]))
            keys = sorted(keyset)
            self.keys_by_degree[degree] = keys
            vectors = []
            for _, cls in candidates:
                vectors.append(self.class_vector(cls, degree))
            kept = linalg.independent_indices(vectors)
            self.basis_by_degree[degree] = [
                ModelElement(candidates[i][0], candidates[i][1], vectors[i]) for i in kept]


def _exponent_tuples(nvars: int, total: int) -> list[tuple[int, ...]]:
    if nvars == 1:
        return [(total,)]
    out = []
    for first in range(total, -1, -1):
        for rest in _exponent_tuples(nvars - 1, total - first):
            out.append((first,) + rest)
    return out


def _monomial_label(vars, mono: tuple[int, ...], gen_label: str) -> str:
    parts = []
    for i, e in enumerate(mono):
        if e == 1:
            parts.append(vars.names[i])
        elif e > 1:
            parts.append(f"{vars.names[i]}^{e}")
    if gen_label != "1":
        parts.append(gen_label)
    return "*".join(parts) or "1"


def build_model(space: HamiltonianSpace, generators: list[tuple[str, RestrictedClass]],
                max_degree: int) -> DegreeTruncatedModel:
    names = [n for n, _ in generators]
    if len(set(names)) != len(names):
        raise ValidationError("generator names must be distinct")
    if not any(cls.degree == 0 and cls == RestrictedClass.unit(space)
               for _, cls in generators):
        raise ValidationError("generator list must contain the unit class")
    return DegreeTruncatedModel(space, generators, max_degree)


# -- subspaces of a degree slice ---------------------------------------------


@dataclass
class Subspace:
    """Subspace of one degree slice, as coefficient vectors over the model basis."""

    degree: int
    coeffs: list[list[Fraction]]

    @property
    def dim(self) -> int:
        return len(self.coeffs)

    def classes(self, model: DegreeTruncatedModel) -> list[RestrictedClass]:
        basis = model.basis_by_degree[self.degree]
        out = []
        for vec in self.coeffs:
            cls = RestrictedClass.zero(model.space, self.degree)
            for c, el in zip(vec, basis):
                if c:
                    cls = cls + el.cls.scale(c)
            out.append(cls)
        return out


def tw_subspace(model: DegreeTruncatedModel, xi: CircleDirection, side: str,
                degree: int) -> Subspace:
    """Classes in the degree slice vanishing on the chosen moment side.

    side "plus" kills restrictions to components with positive moment pairing,
    side "minus" the other half.  These are the two one-sided kernels whose
    direct sum the circle-level kernel theorem is about.
    """
    if side not in ("plus", "minus"):
        raise ValidationError("side must be 'plus' or 'minus'")
    pat = partition(model.space, xi)
    names = set(pat.plus if side == "plus" else pat.minus)
    keys = model.keys_by_degree[degree]
    basis = model.basis_by_degree[degree]
    rows = []
    for row_idx, (ci, exps, b) in enumerate(keys):
        if model.space.components[ci].name in names:
            rows.append([el.vector[row_idx] for el in basis])
    return Subspace(degree, linalg.nullspace(rows, ncols=len(basis)))


# -- pairing kernels -----------------------------------------------------------


def pairing_kernel(integral: KirwanIntegral, classes: list[RestrictedClass],
                   testing: list[RestrictedClass]) -> list[list[Fraction]]:
    """Null space, in the coordinates of ``classes``, of the pairing
    (eta, zeta) -> integral(eta * zeta) against every testing class.

    Every class is adapted once and the products of adapted classes are
    evaluated.  A scalar value gives one row per testing class, a polynomial
    value one row per monomial.
    """
    if not classes:
        return []
    rows: list[list[Fraction]] = []
    if testing:
        adapted = [integral.adapt(cls) for cls in classes]
        for zeta in testing:
            z = integral.adapt(zeta)
            values = [integral.of_adapted(b * z) for b in adapted]
            if not isinstance(values[0], EquivariantPolynomial):
                rows.append(values)
                continue
            monomials = sorted({key for v in values for key in v.terms},
                               key=lambda key: (monomial_sort_key(key[0]), key[1]))
            rows.extend([v.terms.get(mono, Q(0)) for v in values] for mono in monomials)
    return linalg.nullspace(rows, ncols=len(classes))


def _testing_degrees(model: DegreeTruncatedModel, slack: int = 0) -> list[int]:
    cap = min(model.space.dim - 2 + slack, model.max_degree)
    return list(range(0, cap + 1, 2))


def residue_kernel_circle(model: DegreeTruncatedModel, xi: CircleDirection,
                          degree: int, testing_slack: int = 0,
                          method: str = "poles") -> Subspace:
    """Null space of the circle-level pairing against the truncated testing set.

    The testing classes run over the model slices up to total degree dim - 2
    (module generators of the quotient cohomology); enlarging by
    ``testing_slack`` degrees lets callers confirm the null space is stable.
    """
    integral = circle_integral(model.space, xi, method=method)
    testing = [el.cls for zdeg in _testing_degrees(model, testing_slack)
               for el in model.basis_by_degree[zdeg]]
    classes = [el.cls for el in model.basis_by_degree[degree]]
    return Subspace(degree, pairing_kernel(integral, classes, testing))


@dataclass
class CircleKernelRow:
    degree: int
    kernel: Subspace
    minus: Subspace
    plus: Subspace
    sum_direct: bool
    equal: bool

    @property
    def kernel_dim(self) -> int:
        return self.kernel.dim

    @property
    def minus_dim(self) -> int:
        return self.minus.dim

    @property
    def plus_dim(self) -> int:
        return self.plus.dim

    @property
    def ok(self) -> bool:
        return self.sum_direct and self.equal


def check_circle_kernel_split(model: DegreeTruncatedModel, xi: CircleDirection,
                              degrees: list[int] | None = None,
                              testing_slack: int = 0) -> list[CircleKernelRow]:
    """Degreewise comparison: circle-level residue kernel against the direct
    sum of the two one-sided vanishing subspaces."""
    if degrees is None:
        degrees = list(range(0, model.max_degree + 1, 2))
    rows = []
    for d in degrees:
        kernel = residue_kernel_circle(model, xi, d, testing_slack=testing_slack)
        minus = tw_subspace(model, xi, "minus", d)
        plus = tw_subspace(model, xi, "plus", d)
        direct = linalg.intersect_trivially(minus.coeffs, plus.coeffs)
        equal = linalg.span_equal(kernel.coeffs, minus.coeffs + plus.coeffs)
        rows.append(CircleKernelRow(d, kernel, minus, plus, direct, equal))
    return rows


# -- chamber enumeration ------------------------------------------------------


@dataclass(frozen=True)
class Chamber:
    signs: tuple[int, ...]
    representative: CircleDirection


@dataclass
class ChamberSet:
    normals: tuple[tuple[int, ...], ...]
    chambers: tuple[Chamber, ...]
    complete: bool
    expected: int | None = None


def _primitive_signed(vec: tuple[int, ...]) -> tuple[int, ...]:
    g = 0
    for v in vec:
        g = gcd(g, v)
    if g == 0:
        return vec
    vec = tuple(v // g for v in vec)
    lead = next(v for v in vec if v != 0)
    return vec if lead > 0 else tuple(-v for v in vec)


def _arrangement_normals(space: HamiltonianSpace) -> list[tuple[int, ...]]:
    seen = []
    for f in space.components:
        den = 1
        for c in f.moment:
            den = den * c.denominator // gcd(den, c.denominator)
        vec = tuple(int(c * den) for c in f.moment)
        if any(vec):
            vec = _primitive_signed(vec)
            if vec not in seen:
                seen.append(vec)
        for w, _ in f.normal_lines:
            vec = _primitive_signed(tuple(int(c) for c in w.coeffs))
            if vec not in seen:
                seen.append(vec)
    return sorted(seen)


def _chamber_count(normals: list[tuple[int, ...]], n: int) -> int:
    """Number of chambers of the central arrangement, by Moebius counting on
    the intersection lattice; exact for ambient rank up to 3."""
    total = 1  # ambient flat
    total += len(normals)  # each hyperplane contributes |mu| = 1
    if n == 1 or not normals:
        return 2 if normals else 1
    # codimension-2 flats: group hyperplane pairs by their intersection
    flats: dict[tuple, list[int]] = {}
    for i, j in combinations(range(len(normals)), 2):
        if n == 2:
            key = ("origin",)
        else:
            a, b = normals[i], normals[j]
            cross = (a[1] * b[2] - a[2] * b[1],
                     a[2] * b[0] - a[0] * b[2],
                     a[0] * b[1] - a[1] * b[0])
            if not any(cross):
                continue
            key = _primitive_signed(cross)
        flats.setdefault(key, [])
    for key in flats:
        if n == 2:
            members = list(range(len(normals)))
        else:
            members = [i for i, w in enumerate(normals)
                       if sum(a * b for a, b in zip(w, key)) == 0]
        flats[key] = members
    mu2_sum = 0
    for members in flats.values():
        mu2_sum += len(members) - 1
    total += mu2_sum
    if n == 3:
        if linalg.rank([[Q(v) for v in w] for w in normals]) == 3:
            mu3 = -(1 - len(normals) + mu2_sum)
            total += abs(mu3)
    return total


def _lattice_sweep(n: int, radius: int):
    for vec in sorted(_box_points(n, radius)):
        g = 0
        for v in vec:
            g = gcd(g, v)
        if g == 1:
            yield vec


def _box_points(n: int, radius: int) -> list[tuple[int, ...]]:
    if n == 0:
        return [()]
    out = []
    for rest in _box_points(n - 1, radius):
        for v in range(-radius, radius + 1):
            out.append((v,) + rest)
    return out


def enumerate_generic_directions(space: HamiltonianSpace, box: int = 8) -> ChamberSet:
    """Chambers of the arrangement cut out by the moment values and weights.

    For ambient rank up to 3 the chamber count is computed exactly and the
    lattice sweep is widened until every chamber has a representative, so the
    enumeration is complete.  In higher rank a bounded sweep is used and the
    result is flagged as possibly incomplete.
    """
    n = space.vars.count
    normals = _arrangement_normals(space)
    found: dict[tuple[int, ...], CircleDirection] = {}

    def sweep(radius: int):
        for vec in _lattice_sweep(n, radius):
            signs = []
            generic = True
            for w in normals:
                s = sum(a * b for a, b in zip(w, vec))
                if s == 0:
                    generic = False
                    break
                signs.append(1 if s > 0 else -1)
            if generic:
                found.setdefault(tuple(signs), CircleDirection(vec))

    if n <= 3:
        expected = _chamber_count(normals, n)
        radius = max(2, box)
        while True:
            sweep(radius)
            if len(found) >= expected:
                break
            radius *= 2
            if radius > 4096:
                raise ArithmeticError("chamber sweep failed to reach the expected count")
        complete = True
    else:
        expected = None
        sweep(box)
        complete = False
    chambers = tuple(Chamber(signs, rep) for signs, rep in sorted(found.items()))
    return ChamberSet(tuple(normals), chambers, complete, expected)


# -- torus-level kernel -------------------------------------------------------


def torus_kernel(model: DegreeTruncatedModel, degree: int,
                 integral: KirwanIntegral | None = None) -> Subspace:
    """Null space of the torus-level pairing against the complementary-degree
    model slice; slices with no complementary classes are unconstrained."""
    if integral is None:
        integral = torus_integral(model.space)
    comp_degree = model.space.dim - 2 * model.space.vars.count - degree
    testing = ([el.cls for el in model.basis_by_degree[comp_degree]]
               if 0 <= comp_degree <= model.max_degree else [])
    classes = [el.cls for el in model.basis_by_degree[degree]]
    return Subspace(degree, pairing_kernel(integral, classes, testing))


@dataclass
class FullKernelRow:
    degree: int
    kernel: Subspace
    chamber_sum_dim: int
    equal: bool

    @property
    def kernel_dim(self) -> int:
        return self.kernel.dim

    @property
    def ok(self) -> bool:
        return self.equal


def check_full_kernel(model: DegreeTruncatedModel,
                      degrees: list[int] | None = None,
                      chamber_box: int = 8,
                      integral: KirwanIntegral | None = None
                      ) -> tuple[list[FullKernelRow], ChamberSet]:
    """Degreewise comparison of the torus-level kernel with the span, over all
    chambers, of the two one-sided vanishing subspaces."""
    if degrees is None:
        degrees = list(range(0, model.max_degree + 1, 2))
    chambers = enumerate_generic_directions(model.space, box=chamber_box)
    if integral is None:
        integral = torus_integral(model.space)
    rows = []
    for d in degrees:
        kernel = torus_kernel(model, d, integral)
        stacked: list[list[Fraction]] = []
        for chamber in chambers.chambers:
            for side in ("minus", "plus"):
                stacked.extend(tw_subspace(model, chamber.representative, side, d).coeffs)
        # span_equal(kernel, stacked), reusing the rank of the stacked rows
        sum_dim = linalg.rank(stacked)
        equal = (linalg.rank(kernel.coeffs) == sum_dim
                 == linalg.rank(kernel.coeffs + stacked))
        rows.append(FullKernelRow(d, kernel, sum_dim, equal))
    return rows, chambers


# -- flow-up class validation -------------------------------------------------


@dataclass
class FlowupReport:
    component: str
    ok: bool
    failures: list[str]


def validate_flowup_class(space: HamiltonianSpace, component_name: str,
                          candidate: RestrictedClass, xi: CircleDirection) -> FlowupReport:
    """Check the two defining properties of a flow-up class at a component:
    it vanishes on every component strictly above in the moment order, and it
    restricts at the component itself to the Euler class of the upward normal
    directions."""
    violations = is_generic(space, xi)
    if violations:
        raise NonGenericError(f"direction {xi.vector} is not generic", violations)
    f0 = space.component(component_name)
    level = xi.pair(f0.moment)
    failures = []
    for g in space.components:
        if xi.pair(g.moment) > level and not candidate.restrictions[g.name].is_zero():
            failures.append(f"nonzero restriction above: {g.name}")
    upward = EquivariantPolynomial.one(space.vars, f0.algebra)
    for w, c in f0.normal_lines:
        if xi.pair(w.coeffs) > 0:
            upward = upward * (EquivariantPolynomial.from_linear_form(space.vars, w, f0.algebra) + c)
    if candidate.restrictions[component_name] != upward:
        failures.append("restriction at the component is not the upward Euler class")
    return FlowupReport(component_name, not failures, failures)
