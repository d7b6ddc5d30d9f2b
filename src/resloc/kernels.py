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
from math import gcd
from operator import mul

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
    generator_products,
    localization_failures,
)
from .symcore import (
    EquivariantPolynomial,
    LinearForm,
    ValidationError,
    coefficient,
    monomial_sort_key,
)

__all__ = [
    "Slice",
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
    "complementary_slice",
    "torus_kernel",
    "FullKernelRow",
    "check_full_kernel",
]


# -- truncated model ---------------------------------------------------------


@dataclass
class Slice:
    """One even-degree slice: its basis as ``labels``, ``classes`` and
    ``vectors``, index-aligned; its coordinates, the restriction keys (component
    name, torus exponents, algebra basis index) sorted in component order, in
    ``keys`` and inverted in ``positions``, a vector holding a class's nonzero
    terms by key position; and per component the ``rows`` of the basis at its
    keys, which a class's basis coefficients annihilate iff it vanishes there."""

    labels: list[str]
    classes: list[RestrictedClass]
    vectors: list[Row]
    keys: list[tuple[str, tuple[int, ...], int]]
    positions: dict[tuple[str, tuple[int, ...], int], int]
    rows: dict[str, list[Row]]


class DegreeTruncatedModel:
    """Independent spanning sets for the even-degree slices, checked through
    max_degree.  The model walks ``generator_products`` once, to
    max(max_degree, dim), and refuses the data unless every localization sum
    through dim on that walk is a polynomial, so no check runs on
    inconsistent data.  The walk starts at the unit and skips degree-0
    generators, so the generator list need not name the unit.

    A slice is built from the products of that walk the first time it is
    read (``slice``); each check reads the slices it pairs against, and none
    reads past the walk.  Slice d grows from slice d - 2, one ``mul_pure`` by
    a variable per (kept class, variable), and keeps the labels, vectors and
    keys that every product times every monomial gives (module docstring).
    """

    def __init__(self, space: HamiltonianSpace,
                 generators: list[tuple[str, RestrictedClass]], max_degree: int):
        names = [n for n, _ in generators]
        if len(set(names)) != len(names):
            raise ValidationError("generator names must be distinct")
        products = list(generator_products(space, generators, max(max_degree, space.dim)))
        _, failures = localization_failures(space, generators, products, space.dim)
        if failures:
            raise ValidationError(f"inconsistent fixed-point data (run validate): {failures[0]}")
        self.space = space
        self.max_degree = max_degree
        self.slices: dict[int, Slice] = {}
        # the growth state: each unbuilt slice's candidates, keyed (product
        # index, exponents), the products first; the generator names and the
        # products' exponents, for labels; the top slice's kept keys and classes
        self._candidates: dict[int, dict[tuple[int, tuple[int, ...]], RestrictedClass]] = {}
        for p, (_, cls) in enumerate(products):
            self._candidates.setdefault(cls.degree, {})[(p, (0,) * space.vars.count)] = cls
        self._names = [name for name, cls in generators if cls.degree > 0]
        self._exponents = [exps for exps, _ in products]
        self._kept: list[tuple[tuple[int, tuple[int, ...]], RestrictedClass]] = []

    def slice(self, degree: int) -> Slice:
        """Slice degree, grown with every slice below it that is not yet built."""
        if degree > max(self.max_degree, self.space.dim):
            raise ValueError(f"slice {degree} lies past the product walk")
        for d in range(2 * len(self.slices), degree + 1, 2):
            self.slices[d] = self._grow(d)
        return self.slices[degree]

    def class_vector(self, cls: RestrictedClass, degree: int) -> Row | None:
        """The restriction terms of cls by key position, or None when cls has
        a term at another key (so it lies outside every span of the slice)."""
        vec = self.place(degree, cls.restrictions.items())
        return None if any(type(k) is tuple for k in vec) else dict(sorted(vec.items()))

    def place(self, degree: int, pieces) -> Row:
        """The nonzero terms of (component name, restriction) pieces by key
        position; a term at another key stays under the key itself."""
        positions, out = self.slice(degree).positions, {}
        for name, poly in pieces:
            for (exps, b), c in poly.terms.items():
                if c:
                    out[positions.get((name, exps, b), (name, exps, b))] = c
        return out

    def restrictions(self, vec: Row, degree: int) -> dict[str, EquivariantPolynomial]:
        """The restrictions whose terms are vec by key position, by component."""
        keys = self.slice(degree).keys
        polys = {f.name: EquivariantPolynomial(self.space.vars, f.algebra)
                 for f in self.space.components}
        for pos, c in vec.items():
            if c:
                name, exps, b = keys[pos]
                polys[name].terms[(exps, b)] = coefficient(c)
        return polys

    def vector_class(self, vec: Row, degree: int) -> RestrictedClass:
        """The class whose restriction terms are vec: the inverse of class_vector."""
        return RestrictedClass(self.space, degree, self.restrictions(vec, degree))

    def _grow(self, degree: int) -> Slice:
        # the products of this degree, then the slice below times each variable
        space = self.space
        grown = self._candidates.pop(degree, {})
        for (p, mono), cls in self._kept:
            for j in range(space.vars.count):
                key = (p, mono[:j] + (mono[j] + 1,) + mono[j + 1:])
                if key not in grown:
                    grown[key] = cls.mul_pure(EquivariantPolynomial.variable(space.vars, j))
        order = sorted(grown, key=lambda k: (k[0], monomial_sort_key(k[1])))
        candidates = [grown[k] for k in order]
        keys = [(space.components[ci].name, exps, b) for ci, exps, b in sorted({
            (ci, exps, b) for cls in candidates for ci, f in enumerate(space.components)
            for exps, b in cls.restrictions[f.name].terms})]
        positions = {key: pos for pos, key in enumerate(keys)}
        vectors = [dict(sorted((positions[(name, exps, b)], c)
                               for name, poly in cls.restrictions.items()
                               for (exps, b), c in poly.terms.items() if c))
                   for cls in candidates]
        kept = linalg.independent_indices(vectors)
        self._kept = [(order[i], candidates[i]) for i in kept]
        rows = linalg.transpose([vectors[i] for i in kept])
        by_component: dict[str, list[Row]] = {f.name: [] for f in space.components}
        for pos in sorted(rows):
            by_component[keys[pos][0]].append(rows[pos])
        return Slice(["*".join(_powers(space.vars.names, mono)
                               + _powers(self._names, self._exponents[p])) or "1"
                      for (p, mono), _ in self._kept],
                     [candidates[i] for i in kept], [vectors[i] for i in kept],
                     keys, positions, by_component)


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
        vectors = model.slice(self.degree).vectors
        return [model.vector_class(linalg.combine(vec, vectors), self.degree)
                for vec in self.coeffs]


def vanishing_subspace(model: DegreeTruncatedModel, names: frozenset[str],
                       degree: int) -> Subspace:
    """Classes in the degree slice vanishing on the named components: the null
    space of their restriction rows.  For the components on one side of a
    generic circle, these are the one-sided subspaces of the kernel theorems."""
    piece = model.slice(degree)
    rows = [row for f in model.space.components if f.name in names for row in piece.rows[f.name]]
    return Subspace(degree, linalg.nullspace(rows, len(piece.vectors)))


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
    cap = dim - 2.

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
    forms = [EquivariantPolynomial.from_linear_form(space.vars, LinearForm.make(
                 vec[i] if m == k else -vec[k] if m == i else 0 for m in range(n)))
             for k in range(n) if k != i]
    kept: list[RestrictedClass] = []
    for zdeg in range(0, cap + 1, 2):
        below = model.slice(zdeg - 2).classes if zdeg else []
        echelon = linalg.Echelon(model.class_vector(cls.mul_pure(f), zdeg)
                                 for cls in below for f in forms)
        piece = model.slice(zdeg)
        kept += [cls for cls, vec in zip(piece.classes, piece.vectors) if echelon.add(vec)]
    return kept


def circle_kernel(model: DegreeTruncatedModel, degree: int, integral: KirwanIntegral,
                  testing: list[RestrictedClass]) -> Subspace:
    """Null space of the circle-level pairing against the testing classes
    (``circle_testing_classes`` of the integral's direction)."""
    return Subspace(degree, pairing_kernel(integral, model.slice(degree).classes, testing))


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
    component, monomial), is filled once for all of them.  Its components
    are the positive side.
    """
    plus_side = frozenset(f.name for f in integral.components)
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
    plus: frozenset[str]  # the representative's spaces.positive_side


@dataclass
class ChamberSet:
    chambers: tuple[Chamber, ...]
    expected: int


Normals = tuple[tuple[int, ...], ...]
# a point with its pairings against the normals of the arrangement it is for
Found = tuple[tuple[int, ...], tuple[int, ...]]
# lead, the restriction's normals, and (index, factor) per other normal
Restriction = tuple[int, Normals, tuple[tuple[int, int], ...]]


def _dot(a: tuple[int, ...], b: tuple[int, ...]) -> int:
    return sum(map(mul, a, b))


def _signs(normals: Normals, point: tuple[int, ...]) -> tuple[int, ...]:
    return tuple([(d > 0) - (d < 0) for d in (_dot(w, point) for w in normals)])


def _sides(pairings: tuple[int, ...]) -> tuple[bool, ...]:
    # the sign vector of pairings that are all nonzero
    return tuple([d > 0 for d in pairings])


def _restriction(normals: Normals, n: int) -> Restriction:
    """The restriction A^H of an arrangement A in Q^n to the hyperplane H of
    its last normal w, in the integer basis b_j = w_lead e_j - w_j e_lead
    (j != lead) of H, lead the index of w's first nonzero entry (positive):
    lead, the sorted primitive normals of A^H, and for each other normal u of
    A the index k of its restriction among them and the integer c with
    u . sum_j p_j b_j = c * (normals of A^H)[k] . p."""
    *rest, w = normals
    lead = next(i for i, v in enumerate(w) if v)
    scaled = []
    for u in rest:
        # u . b_j, nonzero somewhere as u and w are not proportional
        row = tuple(w[lead] * u[j] - w[j] * u[lead] for j in range(n) if j != lead)
        g = gcd(*row)
        c = g if next(v for v in row if v) > 0 else -g
        scaled.append((c, tuple(v // c for v in row)))
    restricted = tuple(sorted({prim for _, prim in scaled}))
    index = {prim: k for k, prim in enumerate(restricted)}
    return lead, restricted, tuple((index[prim], c) for c, prim in scaled)


class _SubArrangements:
    """The sub-arrangements, keyed by (normals, n), that the deletion-
    restriction recursion of one arrangement meets.  Each is solved once;
    its points are kept until the last arrangement that reads them has read
    them, and then dropped."""

    def __init__(self, normals: Normals, n: int):
        self._restrictions: dict[tuple[Normals, int], Restriction] = {}
        self._readers: dict[tuple[Normals, int], int] = {}
        self._found: dict[tuple[Normals, int], list[Found]] = {}
        self._plan(normals, n)

    def _plan(self, normals: Normals, n: int) -> None:
        key = (normals, n)
        self._readers[key] = self._readers.get(key, 0) + 1
        if self._readers[key] == 1 and normals:
            restriction = self._restrictions[key] = _restriction(normals, n)
            self._plan(restriction[1], n - 1)
            self._plan(normals[:-1], n)

    def restriction(self, normals: Normals, n: int) -> Restriction:
        return self._restrictions.pop((normals, n))

    def points(self, normals: Normals, n: int) -> list[Found]:
        key = (normals, n)
        found = self._found.pop(key, None)
        if found is None:
            found = _chamber_points(normals, n, self)
        self._readers[key] -= 1
        if self._readers[key]:
            self._found[key] = found
        return found


def _chamber_points(normals: Normals, n: int, sub: _SubArrangements) -> list[Found]:
    """One primitive integer point inside each chamber of the central
    arrangement in Q^n with these pairwise non-proportional normals, each
    with its integer pairings against them.

    Deletion-restriction on the last hyperplane H (Zaslavsky 1975): a chamber
    of A minus H either misses H and is a chamber of A, or meets H in a chamber
    of the restriction A^H and splits into the two chambers on either side of
    it, so r(A) = r(A minus H) + r(A^H).  Both come from ``sub``, which solves
    each sub-arrangement once.  The pairings are carried up, not recomputed:
    a point of A^H pairs with u as c times its pairing with u's restriction;
    a lifted point (m q +- w) / g pairs with u as (m (u.q) +- u.w) / g; only
    a point of A minus H is paired anew, with w alone.
    """
    if not normals:
        return [(tuple(int(i == 0) for i in range(n)), ())]
    rest, w = normals[:-1], normals[-1]
    lead, restricted, factors = sub.restriction(normals, n)
    w_others = w[:lead] + w[lead + 1:]
    on_h = []
    for p, pairings in sub.points(restricted, n - 1):
        # sum_j p_j b_j
        q = [w[lead] * c for c in p]
        q.insert(lead, -_dot(w_others, p))
        on_h.append((q, tuple([c * pairings[k] for k, c in factors])))
    cut = {_sides(pairings) for _, pairings in on_h}
    found = [(p, pairings + (_dot(w, p),)) for p, pairings in sub.points(rest, n)
             if _sides(pairings) not in cut]
    uw = [_dot(u, w) for u in rest]
    ww = _dot(w, w)
    for q, uq in on_h:
        # m*q +- w keeps the sign of every other normal u, as m*|u.q| > |u.w|
        m = 1 + max([abs(a) // abs(b) for a, b in zip(uw, uq)], default=0)
        for side in (1, -1):
            point = [m * a + side * b for a, b in zip(q, w)]
            g = gcd(*point)
            found.append((tuple([a // g for a in point]),
                          tuple([(m * a + side * b) // g for a, b in zip(uq, uw)])
                          + (side * ww // g,)))
    return found


def enumerate_generic_directions(space: HamiltonianSpace) -> ChamberSet:
    """Chambers of the arrangement cut out by the moment values and weights,
    sorted by sign vector, each with a primitive generic representative and
    its positive side.

    The enumeration is exact at every rank; ``expected`` is the chamber count
    of the deletion-restriction recursion, and the distinct generic sign
    vectors of the representatives must reach it.
    """
    normals = tuple(_arrangement_normals(space))
    n = space.vars.count
    points = [p for p, _ in _SubArrangements(normals, n).points(normals, n)]
    # the representatives are paired anew, not trusted from the recursion
    signs = [_signs(normals, p) for p in points]
    generic = {s for s in signs if 0 not in s}
    if len(generic) != len(points):
        raise ArithmeticError(f"{len(points)} chambers but {len(generic)} distinct "
                              "generic sign vectors among their representatives")
    # a nonzero moment is scale * primitive, the primitive one of the normals:
    # it pairs positively with a chamber where that normal's sign is the scale's
    index = {w: k for k, w in enumerate(normals)}
    sides = []
    for f in space.components:
        if any(f.moment):
            scale, prim = LinearForm(f.moment).normalized()
            sides.append((f.name, index[tuple(map(int, prim.coeffs))], 1 if scale > 0 else -1))
    chambers = tuple(Chamber(s, CircleDirection(p),
                             frozenset(name for name, k, sign in sides if s[k] == sign))
                     for s, p in sorted(zip(signs, points)))
    return ChamberSet(chambers, len(points))


# -- torus-level kernel -------------------------------------------------------


def complementary_slice(model: DegreeTruncatedModel, degree: int) -> list[RestrictedClass]:
    """The testing classes of the torus-level pairing on classes of this
    degree: the model slice of degree dim - 2 * rank - degree, or none when
    that degree is negative."""
    comp = model.space.dim - 2 * model.space.vars.count - degree
    return model.slice(comp).classes if comp >= 0 else []


def torus_kernel(model: DegreeTruncatedModel, degree: int,
                 integral: KirwanIntegral) -> Subspace:
    """Null space of the torus-level pairing against the complementary slice;
    slices with no complementary classes are unconstrained."""
    return Subspace(degree, pairing_kernel(integral, model.slice(degree).classes,
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
    for c in chambers.chambers:
        vanishing_sets.update(dict.fromkeys((everything - c.plus, c.plus)))
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
