"""Kernel subspaces of the Kirwan-style integrals, computed degree by degree
on a truncated model of the equivariant cohomology.

The model basis in each degree consists of products of the declared ring
generators with monomials in the torus variables, reduced to a linearly
independent set.  All subspaces are recorded as coefficient vectors over the
model basis of their degree, so span comparisons are exact rank computations.

Each slice grows from the one below.  The candidates g * m of slice d (g a
generator product, m a monomial), in (product, graded-lex monomial) order, are
the products of degree d and each kept element of slice d - 2 times each
variable; the first independent ones are kept.  That keeps what every product
times every monomial would.  A candidate g * m left out has no kept quotient
g * (m / X_j), so each quotient is a combination of kept elements before it;
times X_j, as the monomial order is multiplicative, g * m is a combination of
candidates before it, and adds neither a key nor a kept element.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .linalg import Row
# Not called here; the name stays because perfbench/test_perfbench.py checks
# that tracing rebinds kernels.res_x_plus.
from .residues import res_x_plus  # noqa: F401
from .spaces import (
    CircleDirection,
    HamiltonianSpace,
    KirwanIntegral,
    RestrictedClass,
    _arrangement_normals,
    _integral_moment,
    _primitive_signed,
    generator_products,
    localization_failures,
    positive_side,
)
from .symcore import (
    POINT_ALGEBRA,
    EquivariantPolynomial,
    ValidationError,
    coefficient,
    monomial_sort_key,
)

__all__ = [
    "ModelElement",
    "DegreeTruncatedModel",
    "build_model",
    "Subspace",
    "vanishing_subspace",
    "pairing_kernel",
    "circle_testing_classes",
    "circle_kernel",
    "CircleKernelRow",
    "check_circle_kernel_split",
    "Chamber",
    "ChamberSet",
    "enumerate_generic_directions",
    "positive_sides",
    "complementary_slice",
    "torus_kernel",
    "FullKernelRow",
    "check_full_kernel",
]


# -- truncated model ---------------------------------------------------------


@dataclass
class ModelElement:
    label: str
    cls: RestrictedClass
    vector: Row


class DegreeTruncatedModel:
    """Independent spanning sets for the even-degree slices.  The checks run
    through max_degree; the slices are built through max(max_degree, dim - 2),
    as the checks pair against slices up to dim - 2.

    The model walks ``generator_products`` once, to max(max_degree, dim), and
    refuses the data unless every localization sum through dim on that walk
    is a polynomial, so no check runs on inconsistent data.  The slices are
    built from the products of that walk up to their depth.

    Slice d is grown from slice d - 2, one ``mul_pure`` by a variable per
    (kept element, variable), and keeps the labels, vectors and keys that
    every product times every monomial gives (see the module docstring).

    A slice's coordinates are its restriction keys (component index, torus
    exponents, algebra basis index), sorted; a class's vector holds its
    nonzero restriction terms by key position.  ``restriction_rows`` keeps,
    per degree and component, the rows of the basis at that component's keys:
    a class vanishes there exactly when its basis coefficients annihilate them.
    """

    def __init__(self, space: HamiltonianSpace,
                 generators: list[tuple[str, RestrictedClass]], max_degree: int):
        names = [n for n, _ in generators]
        if len(set(names)) != len(names):
            raise ValidationError("generator names must be distinct")
        if not any(cls.degree == 0 and cls == RestrictedClass.unit(space)
                   for _, cls in generators):
            raise ValidationError("generator list must contain the unit class")
        products = list(generator_products(space, generators, max(max_degree, space.dim)))
        _, failures = localization_failures(space, generators, products, space.dim)
        if failures:
            raise ValidationError(f"inconsistent fixed-point data (run validate): {failures[0]}")
        self.space = space
        self.max_degree = max_degree
        depth = max(max_degree, space.dim - 2)
        self.basis_by_degree: dict[int, list[ModelElement]] = {}
        self.restriction_rows: dict[int, dict[str, list[Row]]] = {}
        self._positions: dict[int, dict[tuple[str, tuple[int, ...], int], int]] = {}
        self._keys: dict[int, list[tuple[str, tuple[int, ...], int]]] = {}
        # filtering the deeper walk keeps generator_products' depth-first order
        self._build(depth, [(exps, cls) for exps, cls in products if cls.degree <= depth],
                    [name for name, cls in generators if cls.degree > 0])

    def class_vector(self, cls: RestrictedClass, degree: int) -> Row | None:
        """The restriction terms of cls by key position, or None when cls has
        a term at another key (so it lies outside every span of the slice)."""
        positions = self._positions[degree]
        out = []
        for name, poly in cls.restrictions.items():
            for (exps, b), c in poly.terms.items():
                if c:
                    pos = positions.get((name, exps, b))
                    if pos is None:
                        return None
                    out.append((pos, c))
        return dict(sorted(out))

    def vector_class(self, vec: Row, degree: int) -> RestrictedClass:
        """The class whose restriction terms are vec by key position: the
        inverse of class_vector."""
        polys = {f.name: EquivariantPolynomial(self.space.vars, f.algebra)
                 for f in self.space.components}
        for pos, c in vec.items():
            if c:
                name, exps, b = self._keys[degree][pos]
                polys[name].terms[(exps, b)] = coefficient(c)
        return RestrictedClass(self.space, degree, polys)

    def _build(self, depth: int, products: list[tuple[tuple[int, ...], RestrictedClass]],
               names: list[str]):
        space = self.space
        nvars = space.vars.count
        variables = [EquivariantPolynomial.variable(space.vars, j) for j in range(nvars)]
        # the candidates keyed (product index, exponents): the products first
        grown_by_degree: dict[int, dict[tuple[int, tuple[int, ...]], RestrictedClass]] = {}
        for p, (_, cls) in enumerate(products):
            grown_by_degree.setdefault(cls.degree, {})[(p, (0,) * nvars)] = cls
        # the kept elements of the slice below, with their keys
        below: list[tuple[tuple[int, tuple[int, ...]], ModelElement]] = []
        for degree in range(0, depth + 1, 2):
            # then the slice below times each variable
            grown = grown_by_degree.pop(degree, {})
            for (p, mono), el in below:
                for j in range(nvars):
                    key = (p, mono[:j] + (mono[j] + 1,) + mono[j + 1:])
                    if key not in grown:
                        grown[key] = el.cls.mul_pure(variables[j])
            order = sorted(grown, key=lambda k: (k[0], monomial_sort_key(k[1])))
            candidates = [grown[k] for k in order]
            keys = sorted({(ci, exps, b) for cls in candidates
                           for ci, f in enumerate(space.components)
                           for exps, b in cls.restrictions[f.name].terms})
            self._keys[degree] = [(space.components[ci].name, exps, b)
                                  for ci, exps, b in keys]
            self._positions[degree] = {key: pos for pos, key in enumerate(self._keys[degree])}
            vectors = [self.class_vector(cls, degree) for cls in candidates]
            kept = linalg.independent_indices(vectors)
            below = []
            for i in kept:
                p, mono = order[i]
                label = "*".join(_powers(space.vars.names, mono)
                                 + _powers(names, products[p][0])) or "1"
                below.append((order[i], ModelElement(label, candidates[i], vectors[i])))
            self.basis_by_degree[degree] = [el for _, el in below]
            rows = linalg.transpose([vectors[i] for i in kept])
            by_component = self.restriction_rows[degree] = {f.name: [] for f in space.components}
            for pos, (ci, _, _) in enumerate(keys):
                if pos in rows:
                    by_component[space.components[ci].name].append(rows[pos])


def _powers(names, exps: tuple[int, ...]) -> list[str]:
    return [name + (f"^{e}" if e > 1 else "") for name, e in zip(names, exps) if e]


def build_model(space: HamiltonianSpace, generators: list[tuple[str, RestrictedClass]],
                max_degree: int) -> DegreeTruncatedModel:
    """The model checked through max_degree (see ``DegreeTruncatedModel``)."""
    return DegreeTruncatedModel(space, generators, max_degree)


# -- subspaces of a degree slice ---------------------------------------------


@dataclass
class Subspace:
    """Subspace of one degree slice, as sparse coefficient vectors over the
    model basis (basis index to coefficient)."""

    degree: int
    coeffs: list[Row]

    @property
    def dim(self) -> int:
        return len(self.coeffs)

    def classes(self, model: DegreeTruncatedModel) -> list[RestrictedClass]:
        """Each vector's class, combined in the model's restriction coordinates."""
        vectors = [el.vector for el in model.basis_by_degree[self.degree]]
        return [model.vector_class(linalg.combine(vec, vectors), self.degree)
                for vec in self.coeffs]


def vanishing_subspace(model: DegreeTruncatedModel, names: frozenset[str],
                       degree: int) -> Subspace:
    """Classes in the degree slice vanishing on the named components: the null
    space of their restriction rows.  For the components on one side of a
    generic circle, these are the one-sided subspaces of the kernel theorems."""
    rows = [row for f in model.space.components if f.name in names
            for row in model.restriction_rows[degree][f.name]]
    return Subspace(degree, linalg.nullspace(rows, len(model.basis_by_degree[degree])))


# -- pairing kernels -----------------------------------------------------------


def pairing_kernel(integral: KirwanIntegral, classes: list[RestrictedClass],
                   testing: list[RestrictedClass]) -> list[Row]:
    """Null space, in the coordinates of ``classes``, of the pairing
    (eta, zeta) -> integral(eta * zeta) against every testing class, read off
    the integral's table as a bilinear form (``KirwanIntegral.values``).

    A scalar value gives one row per testing class, a polynomial value one
    row per monomial.
    """
    rows = [row for zeta in testing
            for row in linalg.transpose(integral.values(classes, zeta)).values()]
    return linalg.nullspace(rows, len(classes))


def circle_testing_classes(model: DegreeTruncatedModel,
                           xi: CircleDirection) -> list[RestrictedClass]:
    """Testing classes for the circle-level pairing along xi: module
    generators, over Sym(ann xi), of the model slices up to total degree
    cap = dim - 2, which the model always builds.

    The circle integral is linear over the polynomials on t/s: it takes
    p * eta to p * (its value on eta) for p in Sym(ann xi), so module
    generators of the slices give the pairing the null space the whole slices
    give.  By graded Nakayama a minimal set of them is a basis of each slice
    modulo (ann xi) times the slice below: by degree, in model order, a basis
    class is kept only if it lies outside the span of the kept classes of its
    degree and of the products of the basis xi_i X_k - xi_k X_i (k != i, i the
    first index where xi_i != 0) of ann xi with the model slice below.
    """
    space = model.space
    cap = space.dim - 2
    n, vec = space.vars.count, xi.vector
    i = next(k for k, v in enumerate(vec) if v)
    e = [tuple(int(m == k) for m in range(n)) for k in range(n)]
    forms = [EquivariantPolynomial(space.vars, POINT_ALGEBRA,
                                   {(e[k], 0): vec[i], (e[i], 0): -vec[k]})
             for k in range(n) if k != i]
    kept: list[RestrictedClass] = []
    for zdeg in range(0, cap + 1, 2):
        echelon = linalg.Echelon(model.class_vector(el.cls.mul_pure(f), zdeg)
                                 for el in model.basis_by_degree.get(zdeg - 2, ())
                                 for f in forms)
        kept += [el.cls for el in model.basis_by_degree[zdeg] if echelon.add(el.vector)]
    return kept


def circle_kernel(model: DegreeTruncatedModel, degree: int, integral: KirwanIntegral,
                  testing: list[RestrictedClass]) -> Subspace:
    """Null space of the circle-level pairing against the testing classes
    (``circle_testing_classes`` of the integral's direction)."""
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
    def ok(self) -> bool:
        return self.sum_direct and self.equal


def check_circle_kernel_split(model: DegreeTruncatedModel,
                              integral: KirwanIntegral) -> list[CircleKernelRow]:
    """Degreewise through max_degree: a circle integral's kernel against the
    direct sum of the two one-sided vanishing subspaces of its direction.

    The one integral and the one set of testing classes serve every degree,
    so the integral's tau table of residues, one per (positive-side
    component, monomial), is filled once for all of them.
    """
    plus_side = positive_side(model.space, integral.xi)
    minus_side = frozenset(f.name for f in model.space.components) - plus_side
    testing = circle_testing_classes(model, integral.xi)
    rows = []
    for d in range(0, model.max_degree + 1, 2):
        kernel = circle_kernel(model, d, integral, testing)
        minus = vanishing_subspace(model, minus_side, d)
        plus = vanishing_subspace(model, plus_side, d)
        # reduced once for both checks; null-space bases are independent, so
        # the sum is direct when its rank is the sum of their dims
        both = linalg.Echelon(minus.coeffs + plus.coeffs)
        direct = len(both.rows) == minus.dim + plus.dim
        equal = linalg.span_equal(both, kernel.coeffs)
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
    expected: int


def _dot(a: tuple[int, ...], b: tuple[int, ...]) -> int:
    return sum(x * y for x, y in zip(a, b))


def _signs(normals: list[tuple[int, ...]], point: tuple[int, ...]) -> tuple[int, ...]:
    return tuple((d > 0) - (d < 0) for d in (_dot(w, point) for w in normals))


def _chamber_points(normals: list[tuple[int, ...]], n: int) -> list[tuple[int, ...]]:
    """One primitive integer point inside each chamber of the central
    arrangement in Q^n with these pairwise non-proportional normals.

    Deletion-restriction on the last hyperplane H (Zaslavsky 1975): a chamber
    of A minus H either misses H and is a chamber of A, or meets H in a chamber
    of the restriction A^H and splits into the two chambers on either side of
    it, so r(A) = r(A minus H) + r(A^H).
    """
    if not normals:
        return [tuple(int(i == 0) for i in range(n))]
    *rest, w = normals
    # integer basis of H (the null space of w scaled by its leading entry, which
    # is positive), and the other normals restricted to it
    lead = next(i for i, v in enumerate(w) if v)
    basis = []
    for j in range(n):
        if j != lead:
            b = [0] * n
            b[j], b[lead] = w[lead], -w[j]
            basis.append(b)
    restricted = sorted({_primitive_signed(tuple(_dot(u, b) for b in basis))
                         for u in rest})
    on_h = [tuple(sum(c * b[k] for c, b in zip(p, basis)) for k in range(n))
            for p in _chamber_points(restricted, n - 1)]
    cut = {_signs(rest, q) for q in on_h}
    points = [p for p in _chamber_points(rest, n) if _signs(rest, p) not in cut]
    for q in on_h:
        # m*q +- w keeps the sign of every other normal u, as m*|u.q| > |u.w|
        m = 1 + max((abs(_dot(u, w)) // abs(_dot(u, q)) for u in rest), default=0)
        for side in (1, -1):
            points.append(CircleDirection(tuple(m * a + side * b for a, b in zip(q, w)))
                          .primitive().vector)
    return points


def enumerate_generic_directions(space: HamiltonianSpace) -> ChamberSet:
    """Chambers of the arrangement cut out by the moment values and weights,
    sorted by sign vector, each with a primitive generic representative.

    The enumeration is exact at every rank; ``expected`` is the chamber count
    of the deletion-restriction recursion, and the distinct generic sign
    vectors of the representatives must reach it.
    """
    normals = _arrangement_normals(space)
    points = _chamber_points(normals, space.vars.count)
    signs = [_signs(normals, p) for p in points]
    generic = {s for s in signs if 0 not in s}
    if len(generic) != len(points):
        raise ArithmeticError(f"{len(points)} chambers but {len(generic)} distinct "
                              "generic sign vectors among their representatives")
    chambers = tuple(Chamber(s, CircleDirection(p)) for s, p in sorted(zip(signs, points)))
    return ChamberSet(tuple(normals), chambers, len(points))


def positive_sides(space: HamiltonianSpace, chambers: ChamberSet) -> list[frozenset[str]]:
    """Each chamber's positive side (``positive_side`` of its representative),
    read from its signs: a nonzero moment's primitive normal is in the
    arrangement, and pairs with the chamber as the moment does, up to the
    sign of the moment's leading entry."""
    index = {w: k for k, w in enumerate(chambers.normals)}
    axes = []
    for f in space.components:
        vec = _integral_moment(f.moment)
        if any(vec):
            lead = next(v for v in vec if v)
            axes.append((f.name, index[_primitive_signed(vec)], 1 if lead > 0 else -1))
    return [frozenset(name for name, k, sign in axes if chamber.signs[k] == sign)
            for chamber in chambers.chambers]


# -- torus-level kernel -------------------------------------------------------


def complementary_slice(model: DegreeTruncatedModel, degree: int) -> list[RestrictedClass]:
    """The testing classes of the torus-level pairing on classes of this
    degree: the model slice of degree dim - 2 * rank - degree, which is at
    most dim - 2 and so built, or none when that degree is negative."""
    comp = model.space.dim - 2 * model.space.vars.count - degree
    return [el.cls for el in model.basis_by_degree[comp]] if comp >= 0 else []


def torus_kernel(model: DegreeTruncatedModel, degree: int,
                 integral: KirwanIntegral) -> Subspace:
    """Null space of the torus-level pairing against the complementary slice;
    slices with no complementary classes are unconstrained."""
    classes = [el.cls for el in model.basis_by_degree[degree]]
    return Subspace(degree, pairing_kernel(integral, classes,
                                           complementary_slice(model, degree)))


@dataclass
class FullKernelRow:
    degree: int
    kernel: Subspace
    chamber_sum_dim: int
    equal: bool


def check_full_kernel(model: DegreeTruncatedModel, integral: KirwanIntegral
                      ) -> tuple[list[FullKernelRow], ChamberSet]:
    """Degreewise comparison through max_degree of the torus-level kernel with
    the span, over all chambers, of the two one-sided vanishing subspaces.
    Chambers share sides, so each distinct set (a chamber's positive side or
    its complement) is reduced once per degree."""
    chambers = enumerate_generic_directions(model.space)
    everything = frozenset(f.name for f in model.space.components)
    vanishing_sets: dict[frozenset[str], None] = {}
    for plus in positive_sides(model.space, chambers):
        vanishing_sets.update(dict.fromkeys((everything - plus, plus)))
    rows = []
    for d in range(0, model.max_degree + 1, 2):
        kernel = torus_kernel(model, d, integral)
        stacked = [vec for names in vanishing_sets
                   for vec in vanishing_subspace(model, names, d).coeffs]
        # the stacked rows, reduced once, give the rank and the comparison
        chamber_sum = linalg.Echelon(stacked)
        sum_dim = len(chamber_sum.rows)
        equal = linalg.span_equal(chamber_sum, kernel.coeffs)
        rows.append(FullKernelRow(d, kernel, sum_dim, equal))
    return rows, chambers
