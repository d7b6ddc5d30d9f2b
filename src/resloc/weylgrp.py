"""Finite group actions on fixed-point data and the nonabelian kernel checks.

A group element carries a matrix acting on the torus variables (row i is the
image of variable i as a covector), a permutation of the fixed components, and
per-component algebra isomorphisms.  All group axioms and compatibility with
the fixed-point data are verified at load time, so downstream computations can
assume a genuine action.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from . import linalg
from .kernels import (
    DegreeTruncatedModel,
    Subspace,
    complementary_slice,
    pairing_kernel,
    torus_kernel,
)
from .spaces import HamiltonianSpace, KirwanIntegral
from .symcore import (
    POINT_ALGEBRA,
    EquivariantPolynomial,
    ExactDivisionError,
    LinearForm,
    Q,
    ValidationError,
    substitution,
)

__all__ = [
    "WeylElement",
    "WeylData",
    "InvariantSlice",
    "invariant_subspace",
    "NonabelianRow",
    "AntisymmetrizedSpanRow",
    "check_nonabelian_kernels",
]


@dataclass(frozen=True)
class WeylElement:
    matrix: tuple[tuple[Fraction, ...], ...]
    perm: tuple[int, ...]
    algebra_maps: tuple[tuple[tuple[Fraction, ...], ...], ...]

    def variable_images(self, space: HamiltonianSpace) -> list[EquivariantPolynomial]:
        return [EquivariantPolynomial.from_linear_form(space.vars, LinearForm(row))
                for row in self.matrix]

    def sign(self) -> Fraction:
        return linalg.det(self.matrix)


def _matmul(a, b):
    return tuple(LinearForm(row).times(b).coeffs for row in a)


class WeylData:
    """A verified finite group acting on a Hamiltonian space's fixed-point data."""

    def __init__(self, space: HamiltonianSpace, elements: list[WeylElement],
                 positive_roots: list[LinearForm]):
        self.space = space
        self.elements = tuple(elements)
        self.positive_roots = tuple(positive_roots)
        self._validate()

    @property
    def order(self) -> int:
        return len(self.elements)

    def compose(self, second: WeylElement, first: WeylElement) -> WeylElement:
        """first, then second (matrices act by substitution, rows are images)."""
        matrix = _matmul(first.matrix, second.matrix)
        perm = tuple(second.perm[first.perm[i]] for i in range(len(first.perm)))
        maps = tuple(_matmul(first.algebra_maps[i], second.algebra_maps[first.perm[i]])
                     for i in range(len(first.perm)))
        return WeylElement(matrix, perm, maps)

    def identity(self) -> WeylElement:
        n = self.space.vars.count
        eye = tuple(tuple(Q(1) if i == j else Q(0) for j in range(n)) for i in range(n))
        maps = tuple(
            tuple(tuple(Q(1) if i == j else Q(0) for j in range(len(f.algebra.basis)))
                  for i in range(len(f.algebra.basis)))
            for f in self.space.components)
        return WeylElement(eye, tuple(range(len(self.space.components))), maps)

    def move(self, w: WeylElement, i: int, terms: dict) -> tuple[str, EquivariantPolynomial]:
        """w applied to the restriction terms at component i: where they land, by name."""
        source, target = self.space.components[i], self.space.components[w.perm[i]]
        poly = EquivariantPolynomial(self.space.vars, source.algebra, terms)
        return target.name, self._substitute[w](poly).map_basis(target.algebra, w.algebra_maps[i])

    def d_polynomial(self) -> EquivariantPolynomial:
        """Product of the positive roots, as a polynomial in the torus variables."""
        out = EquivariantPolynomial.one(self.space.vars, POINT_ALGEBRA)
        for root in self.positive_roots:
            out = out * EquivariantPolynomial.from_linear_form(self.space.vars, root)
        return out

    # -- load-time verification ---------------------------------------------

    def _validate(self):
        space = self.space
        n = space.vars.count
        ncomp = len(space.components)
        # substitution of each element's variable images, built once
        self._substitute = {}
        checked: set = set()  # (source algebra, target algebra, map) triples
        if not self.elements:
            raise ValidationError("group must be nonempty")
        for w in self.elements:
            if len(w.matrix) != n or any(len(r) != n for r in w.matrix):
                raise ValidationError("group element matrix has wrong shape")
            if sorted(w.perm) != list(range(ncomp)):
                raise ValidationError("group element does not permute the components")
            if len(w.algebra_maps) != ncomp:
                raise ValidationError("group element needs one algebra map per component")
            if w.sign() not in (Q(1), Q(-1)):
                raise ValidationError("group element matrix must have determinant +-1")
            self._substitute[w] = substitution(w.variable_images(space))
            self._check_space_preserved(w, checked)
        ident = self.identity()
        if ident not in self.elements:
            raise ValidationError("group must contain the identity")
        # the elements that can move a class; the identity acts trivially
        self.nonidentity = tuple(w for w in self.elements if w != ident)
        for a in self.elements:
            for b in self.elements:
                if self.compose(a, b) not in self.elements:
                    raise ValidationError("group is not closed under composition")
        # closed, finite and invertible: a^k = e for some k, so a^(k-1) inverts a
        for r, root in enumerate(self.positive_roots):
            if len(root.coeffs) != n or root.is_zero():
                raise ValidationError(f"positive root {r} must be nonzero with {n} entries")
            if any(v.denominator != 1 for v in root.coeffs):
                raise ValidationError(f"positive root {r} must be integral")
        dpoly = self.d_polynomial()
        for w in self.elements:
            moved = self._substitute[w](dpoly)
            if moved != dpoly.scale(w.sign()):
                raise ValidationError(
                    "positive-root product is not alternating under the group")

    def _check_space_preserved(self, w: WeylElement, checked: set):
        space = self.space
        substitute = self._substitute[w]
        for i, f in enumerate(space.components):
            g = space.components[w.perm[i]]
            moved_moment = LinearForm(f.moment).times(w.matrix).coeffs
            if moved_moment != g.moment:
                raise ValidationError(
                    f"moment of {f.name} does not map to moment of {g.name}")
            amap = w.algebra_maps[i]
            if (triple := (f.algebra, g.algebra, amap)) not in checked:
                checked.add(triple)
                self._check_algebra_map(*triple, f.name, g.name)
            moved_lines = []
            for wgt, chern in f.normal_lines:
                moved_lines.append((wgt.times(w.matrix),
                                    substitute(chern).map_basis(g.algebra, amap)))
            remaining = list(g.normal_lines)
            for line in moved_lines:
                match = next((k for k, cand in enumerate(remaining)
                              if cand[0] == line[0] and cand[1] == line[1]), None)
                if match is None:
                    raise ValidationError(
                        f"normal data of {f.name} does not map to {g.name}")
                remaining.pop(match)

    def _check_algebra_map(self, src, dst, amap, src_name, dst_name):
        nb = len(src.basis)
        if len(amap) != nb or any(len(r) != len(dst.basis) for r in amap):
            raise ValidationError(
                f"algebra map {src_name}->{dst_name} has wrong shape")
        images = [{k: Q(v) for k, v in enumerate(r) if v} for r in amap]
        if linalg.rank(images) != nb:
            raise ValidationError(f"algebra map {src_name}->{dst_name} is singular")
        if images[0] != {0: 1}:
            raise ValidationError(f"algebra map {src_name}->{dst_name} moves the unit")
        for i, image in enumerate(images):
            if any(src.degrees[i] != dst.degrees[k] for k in image):
                raise ValidationError(
                    f"algebra map {src_name}->{dst_name} is not degree-preserving")
            if sum(v * dst.integral[k] for k, v in image.items()) != src.integral[i]:
                raise ValidationError(
                    f"algebra map {src_name}->{dst_name} does not preserve the integral")
        for i in range(nb):
            for j in range(i, nb):
                lhs = linalg.combine(src.mul_basis(i, j), images)
                if lhs != dst._mul_elt(images[i], images[j]):
                    raise ValidationError(
                        f"algebra map {src_name}->{dst_name} is not multiplicative")


def _divide_by_roots(weyl: WeylData, name: str, poly: EquivariantPolynomial):
    """The restriction poly at component name, divided exactly by each root."""
    for root in weyl.positive_roots:
        try:
            poly = poly.div_exact_linear(root)
        except ExactDivisionError as exc:
            raise ExactDivisionError(f"restriction at {name} is not divisible by {root}") from exc
    return poly


def _brion_divide_vector(model: DegreeTruncatedModel, weyl: WeylData, vec: linalg.Row,
                         degree: int) -> linalg.Row:
    """Exact division by the product of the positive roots, restriction by
    restriction, on restriction vectors: from this degree's slice to the slice
    2r degrees down, where a term at another key stays under the key."""
    return model.place(degree - 2 * len(weyl.positive_roots), [
        (name, _divide_by_roots(weyl, name, poly))
        for name, poly in model.restrictions(vec, degree).items() if poly])


# -- nonabelian kernel comparisons --------------------------------------------


@dataclass
class InvariantSlice(Subspace):
    """The invariant classes of a degree slice, with the group action they are
    read off: moved[k][i] is the vector of basis class i under the k-th
    non-identity element; span is the slice basis, reduced once."""

    moved: list[list[linalg.Row]]
    span: linalg.Echelon


def invariant_subspace(model: DegreeTruncatedModel, weyl: WeylData,
                       degree: int) -> InvariantSlice:
    """Coefficient vectors of the group-invariant classes in a degree slice.

    Each non-identity w moves once each restriction key the basis reads, and
    basis class b_i moves to its vector's combination of the key images; c is
    invariant when sum_i c_i (w.b_i - b_i) = 0 for every w, read off in the
    model's restriction coordinates, where the basis is independent."""
    index = {f.name: i for i, f in enumerate(model.space.components)}
    piece = model.slice(degree)
    vectors = piece.vectors
    span = linalg.Echelon(vectors)
    read = {pos: piece.keys[pos] for vec in vectors for pos in vec}
    moved, rows = [], []
    for w in weyl.nonidentity:
        images = {pos: model.place(degree, [weyl.move(w, index[name], {(exps, b): 1})])
                  for pos, (name, exps, b) in read.items()}
        moved.append([linalg.combine(vec, images) for vec in vectors])
        if any(span.remainder(m) for m in moved[-1]):
            raise ValidationError(f"model slice of degree {degree} is not stable under the group")
        differences = [linalg.combine({0: 1, 1: -1}, pair) for pair in zip(moved[-1], vectors)]
        rows.extend(linalg.transpose(differences).values())  # (w - 1) b_i, by key
    return InvariantSlice(degree, linalg.nullspace(rows, len(vectors)), moved, span)


@dataclass
class NonabelianRow:
    degree: int
    invariant_dim: int
    pairing_kernel_dim: int
    once_divided_dim: int
    twice_divided_dim: int
    equal: bool


@dataclass
class AntisymmetrizedSpanRow:
    source_degree: int
    target_degree: int
    span_dim: int
    kernel_dim: int
    equal: bool


def check_nonabelian_kernels(model: DegreeTruncatedModel, weyl: WeylData,
                             integral: KirwanIntegral
                             ) -> tuple[list[NonabelianRow], list[AntisymmetrizedSpanRow]]:
    """The nonabelian kernel relations, degree by degree through max_degree.

    Each row compares, inside the invariant slice, three descriptions of the
    nonabelian kernel: the null space of the nonabelian pairing against
    invariant classes of complementary degree, the classes whose product with
    the positive-root factor D lies in the torus-level kernel, and the classes
    whose product with D^2 does.  Each span row takes a checked degree of at
    least 2r (r positive roots) as source: the antisymmetrizations of a basis
    of the torus-level kernel there, divided by D, should span the nonabelian
    pairing kernel in the invariant slice 2r degrees down.

    The degree rows solve each invariant slice and pairing kernel once, and
    the span rows read them, with the group action each slice keeps; the
    antisymmetrizations are divided as vectors, and D * eta and D^2 * eta are
    built only for a pairing with testing classes.
    """
    space = model.space
    r = len(weyl.positive_roots)
    dpoly = weyl.d_polynomial()
    factors = {1: dpoly, 2: dpoly * dpoly}
    signs = [w.sign() for w in weyl.nonidentity]
    top = space.dim - 2 * space.vars.count - 4 * r  # degree plus its complement
    slices: dict[int, InvariantSlice] = {}
    k_pair: dict[int, list[linalg.Row]] = {}

    def invariant(degree: int) -> InvariantSlice:
        if degree not in slices:
            slices[degree] = invariant_subspace(model, weyl, degree)
        return slices[degree]

    invariant_classes = cache(lambda degree: invariant(degree).classes(model))  # for pairings

    degrees = range(0, model.max_degree + 1, 2)
    rows = []
    for d in degrees:
        dim, comp = invariant(d).dim, top - d
        multiple = cache(lambda k: [cls.mul_pure(factors[k]) for cls in invariant_classes(d)])
        # D^k * eta against each testing list, the whole slice against none:
        # (i) the pairing kernel, kappa_T(eta * zeta * D^2) over invariant zeta;
        # D * eta (ii) and D^2 * eta (iii) in the torus-level kernel
        k_pair[d], k_once, k_twice = [
            pairing_kernel(integral, multiple(k), tests) if tests else linalg.nullspace([], dim)
            for k, tests in ((2, invariant_classes(comp) if comp >= 0 else []),
                             (1, complementary_slice(model, d + 2 * r)),
                             (2, complementary_slice(model, d + 4 * r)))]
        once_span = linalg.Echelon(k_once)  # reduced once for both comparisons
        equal = (linalg.span_equal(once_span, k_pair[d])
                 and linalg.span_equal(once_span, k_twice))
        rows.append(NonabelianRow(d, dim, len(k_pair[d]), len(k_once), len(k_twice), equal))

    span_rows = []
    for source in degrees:
        target = source - 2 * r
        if target < 0:
            continue
        # both spans are compared in the slice's restriction coordinates,
        # into which the slice's coordinates map injectively
        vectors = model.slice(source).vectors
        moved = slices[source].moved
        below = slices.pop(target)  # no later row reads the target slice
        produced: list[linalg.Row] = []
        for coeffs in torus_kernel(model, source, integral).coeffs:
            # the antisymmetrization (1/|W|) sum_w sign(w) w.eta, in coordinates
            anti = linalg.combine(coeffs, vectors)
            for sign, images in zip(signs, moved):
                linalg.add_scaled(anti, sign, linalg.combine(coeffs, images))
            if anti:
                produced.append(_brion_divide_vector(
                    model, weyl, {k: v * Q(1, weyl.order) for k, v in anti.items()}, source))
        if any(below.span.remainder(p) for p in produced):
            raise ValidationError("divided antisymmetrization left the model span")
        basis = model.slice(target).vectors
        inv_vectors = [linalg.combine(c, basis) for c in below.coeffs]
        kernel = [linalg.combine(k, inv_vectors) for k in k_pair[target]]
        produced_span = linalg.Echelon(produced)
        span_rows.append(AntisymmetrizedSpanRow(
            source, target, len(produced_span.rows), len(kernel),
            linalg.span_equal(produced_span, kernel)))
    return rows, span_rows
