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

from . import linalg
from .kernels import DegreeTruncatedModel, Subspace, pairing_kernel, torus_kernel
from .spaces import (
    HamiltonianSpace,
    KirwanIntegral,
    RestrictedClass,
    kappa_t_integral,
    torus_integral,
)
from .symcore import (
    POINT_ALGEBRA,
    EquivariantPolynomial,
    ExactDivisionError,
    LinearForm,
    Q,
    ValidationError,
)

__all__ = [
    "WeylElement",
    "WeylData",
    "kappa_k_integral",
    "brion_divide",
    "invariant_subspace",
    "NonabelianRow",
    "check_nonabelian_kernels",
    "AntisymmetrizedSpanRow",
    "check_antisymmetrized_span",
]


@dataclass(frozen=True)
class WeylElement:
    matrix: tuple[tuple[Fraction, ...], ...]
    perm: tuple[int, ...]
    algebra_maps: tuple[tuple[tuple[Fraction, ...], ...], ...]

    def variable_images(self, space: HamiltonianSpace) -> list[EquivariantPolynomial]:
        return [EquivariantPolynomial.from_linear_form(space.vars, LinearForm(row))
                for row in self.matrix]

    def transform_form(self, form: LinearForm) -> LinearForm:
        n = len(self.matrix)
        return LinearForm(tuple(
            sum((form.coeffs[i] * self.matrix[i][k] for i in range(n)), Q(0))
            for k in range(n)))

    def sign(self) -> Fraction:
        return _det([list(row) for row in self.matrix])


def _det(rows: list[list[Fraction]]) -> Fraction:
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = Q(0)
    for j in range(n):
        if rows[0][j]:
            minor = [[rows[i][k] for k in range(n) if k != j] for i in range(1, n)]
            total += (-1) ** j * rows[0][j] * _det(minor)
    return total


def _matmul(a, b):
    return tuple(tuple(sum((a[i][j] * b[j][k] for j in range(len(b))), Q(0))
                       for k in range(len(b[0]))) for i in range(len(a)))


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

    def act(self, w: WeylElement, cls: RestrictedClass) -> RestrictedClass:
        space = self.space
        images = w.variable_images(space)
        out: dict[str, EquivariantPolynomial] = {}
        for i, f in enumerate(space.components):
            target = space.components[w.perm[i]]
            poly = cls.restrictions[f.name].substitute_variables(images)
            out[target.name] = poly.map_basis(target.algebra,
                                              [list(r) for r in w.algebra_maps[i]])
        return RestrictedClass(space, cls.degree, out)

    def symmetrize(self, cls: RestrictedClass) -> RestrictedClass:
        total = RestrictedClass.zero(self.space, cls.degree)
        for w in self.elements:
            total = total + self.act(w, cls)
        return total.scale(Q(1, self.order))

    def antisymmetrize(self, cls: RestrictedClass) -> RestrictedClass:
        total = RestrictedClass.zero(self.space, cls.degree)
        for w in self.elements:
            total = total + self.act(w, cls).scale(w.sign())
        return total.scale(Q(1, self.order))

    def d_polynomial(self) -> EquivariantPolynomial:
        """Product of the positive roots, as a polynomial in the torus variables."""
        out = EquivariantPolynomial.one(self.space.vars, POINT_ALGEBRA)
        for root in self.positive_roots:
            out = out * EquivariantPolynomial.from_linear_form(self.space.vars, root)
        return out

    def d_class(self) -> RestrictedClass:
        return RestrictedClass.from_pure(self.space, self.d_polynomial())

    def is_invariant(self, cls: RestrictedClass) -> bool:
        return all(self.act(w, cls) == cls for w in self.elements)

    # -- load-time verification ---------------------------------------------

    def _validate(self):
        space = self.space
        n = space.vars.count
        ncomp = len(space.components)
        if not self.elements:
            raise ValidationError("group must be nonempty")
        for w in self.elements:
            if len(w.matrix) != n or any(len(r) != n for r in w.matrix):
                raise ValidationError("group element matrix has wrong shape")
            if sorted(w.perm) != list(range(ncomp)):
                raise ValidationError("group element does not permute the components")
            if w.sign() not in (Q(1), Q(-1)):
                raise ValidationError("group element matrix must have determinant +-1")
            self._check_space_preserved(w)
        ident = self.identity()
        if ident not in self.elements:
            raise ValidationError("group must contain the identity")
        for a in self.elements:
            for b in self.elements:
                if self.compose(a, b) not in self.elements:
                    raise ValidationError("group is not closed under composition")
        for a in self.elements:
            if not any(self.compose(a, b) == ident for b in self.elements):
                raise ValidationError("group element has no inverse")
        dpoly = self.d_polynomial()
        for w in self.elements:
            moved = dpoly.substitute_variables(w.variable_images(space))
            if moved != dpoly.scale(w.sign()):
                raise ValidationError(
                    "positive-root product is not alternating under the group")

    def _check_space_preserved(self, w: WeylElement):
        space = self.space
        for i, f in enumerate(space.components):
            g = space.components[w.perm[i]]
            moved_moment = w.transform_form(LinearForm(f.moment)).coeffs
            if moved_moment != g.moment:
                raise ValidationError(
                    f"moment of {f.name} does not map to moment of {g.name}")
            amap = [list(r) for r in w.algebra_maps[i]]
            self._check_algebra_map(f.algebra, g.algebra, amap, f.name, g.name)
            moved_lines = []
            for wgt, chern in f.normal_lines:
                moved_lines.append((w.transform_form(wgt),
                                    chern.substitute_variables(w.variable_images(space))
                                    .map_basis(g.algebra, amap)))
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
        if linalg.rank([list(map(Q, r)) for r in amap]) != nb:
            raise ValidationError(f"algebra map {src_name}->{dst_name} is singular")
        unit = [Q(1) if k == 0 else Q(0) for k in range(len(dst.basis))]
        if [Q(v) for v in amap[0]] != unit:
            raise ValidationError(f"algebra map {src_name}->{dst_name} moves the unit")
        for i in range(nb):
            for k, v in enumerate(amap[i]):
                if Q(v) and src.degrees[i] != dst.degrees[k]:
                    raise ValidationError(
                        f"algebra map {src_name}->{dst_name} is not degree-preserving")
            image = {k: Q(v) for k, v in enumerate(amap[i]) if Q(v)}
            lhs = sum((v * dst.integral[k] for k, v in image.items()), Q(0))
            if lhs != src.integral[i]:
                raise ValidationError(
                    f"algebra map {src_name}->{dst_name} does not preserve the integral")
        for i in range(nb):
            for j in range(i, nb):
                prod_src = src.mul_basis(i, j)
                lhs = {}
                for k, v in prod_src.items():
                    for t, m in enumerate(amap[k]):
                        if Q(m):
                            lhs[t] = lhs.get(t, Q(0)) + v * Q(m)
                rhs = {}
                for a, va in enumerate(amap[i]):
                    for b, vb in enumerate(amap[j]):
                        if Q(va) and Q(vb):
                            for t, m in dst.mul_basis(a, b).items():
                                rhs[t] = rhs.get(t, Q(0)) + Q(va) * Q(vb) * m
                if {k: v for k, v in lhs.items() if v} != {k: v for k, v in rhs.items() if v}:
                    raise ValidationError(
                        f"algebra map {src_name}->{dst_name} is not multiplicative")


def kappa_k_integral(weyl: WeylData, eta: RestrictedClass,
                     xi=None, ordering=None) -> Fraction:
    """Nonabelian Kirwan integral (up to a global constant) of a group-invariant
    class: the torus-level integral against the square of the positive-root
    product."""
    if not weyl.is_invariant(eta):
        raise ValidationError("class is not invariant under the group")
    d = weyl.d_polynomial()
    return kappa_t_integral(weyl.space, eta.mul_pure(d * d), xi, ordering)


def brion_divide(weyl: WeylData, cls: RestrictedClass) -> RestrictedClass:
    """Exact componentwise division by the product of the positive roots."""
    out: dict[str, EquivariantPolynomial] = {}
    for f in weyl.space.components:
        poly = cls.restrictions[f.name]
        for root in weyl.positive_roots:
            try:
                poly = poly.div_exact_linear(root)
            except ExactDivisionError as exc:
                raise ExactDivisionError(
                    f"restriction at {f.name} is not divisible by {root}") from exc
        out[f.name] = poly
    return RestrictedClass(weyl.space, cls.degree - 2 * len(weyl.positive_roots), out)


# -- nonabelian kernel comparisons --------------------------------------------


def _action_matrix(model: DegreeTruncatedModel, weyl: WeylData, w: WeylElement,
                   degree: int) -> list[list[Fraction]]:
    basis = model.basis_by_degree[degree]
    rows = []
    for el in basis:
        moved = weyl.act(w, el.cls)
        coeffs = model.coefficients_of(moved, degree)
        if coeffs is None:
            raise ValidationError(
                f"model slice of degree {degree} is not stable under the group")
        rows.append(coeffs)
    return rows


def invariant_subspace(model: DegreeTruncatedModel, weyl: WeylData,
                       degree: int) -> Subspace:
    """Coefficient vectors of the group-invariant classes in a degree slice.

    A coefficient vector c is invariant when c A_w = c for every w, with A_w
    the action matrix on the slice basis (rows = images of basis elements)."""
    k = len(model.basis_by_degree[degree])
    rows: list[list[Fraction]] = []
    for w in weyl.elements:
        a = _action_matrix(model, weyl, w, degree)
        for j in range(k):
            rows.append([a[i][j] - (Q(1) if i == j else Q(0)) for i in range(k)])
    return Subspace(degree, linalg.nullspace(rows, ncols=k))


@dataclass
class NonabelianRow:
    degree: int
    invariant_dim: int
    pairing_kernel_dim: int
    once_divided_dim: int
    twice_divided_dim: int
    equal: bool


def check_nonabelian_kernels(model: DegreeTruncatedModel, weyl: WeylData,
                             degrees: list[int],
                             integral: KirwanIntegral | None = None
                             ) -> list[NonabelianRow]:
    """Compare, inside each invariant slice, three descriptions of the
    nonabelian kernel: the null space of the nonabelian pairing against
    invariant classes of complementary degree, the classes whose product with
    the positive-root factor lies in the torus-level kernel, and the classes
    whose product with its square does."""
    if integral is None:
        integral = torus_integral(model.space)
    space = model.space
    n = space.vars.count
    r = len(weyl.positive_roots)
    dcls = weyl.d_class()
    d2cls = dcls * dcls
    rows = []
    for d in degrees:
        inv = invariant_subspace(model, weyl, d)
        inv_classes = Subspace(d, inv.coeffs).classes(model)
        once = [cls * dcls for cls in inv_classes]
        twice = [cls * d2cls for cls in inv_classes]

        # (i) pairing kernel: kappa_T(eta * zeta * D^2) over invariant zeta
        comp = space.dim - 2 * n - 4 * r - d
        in_range = 0 <= comp <= model.max_degree
        testing: list[RestrictedClass] = []
        if in_range:
            testing = Subspace(comp, invariant_subspace(model, weyl, comp).coeffs
                               ).classes(model)
        k_pair = pairing_kernel(integral, twice, testing)

        # (ii) once-divided: D * eta in the torus-level kernel
        comp1 = comp + 2 * r
        testing1 = ([el.cls for el in model.basis_by_degree[comp1]]
                    if 0 <= comp1 <= model.max_degree else [])
        k_once = pairing_kernel(integral, once, testing1)

        # (iii) twice-divided: D^2 * eta in the torus-level kernel
        testing2 = [el.cls for el in model.basis_by_degree[comp]] if in_range else []
        k_twice = pairing_kernel(integral, twice, testing2)

        equal = (linalg.span_equal(k_pair, k_once)
                 and linalg.span_equal(k_once, k_twice))
        rows.append(NonabelianRow(d, len(inv_classes), len(k_pair),
                                  len(k_once), len(k_twice), equal))
    return rows


@dataclass
class AntisymmetrizedSpanRow:
    source_degree: int
    target_degree: int
    span_dim: int
    kernel_dim: int
    equal: bool


def check_antisymmetrized_span(model: DegreeTruncatedModel, weyl: WeylData,
                               source_degree: int,
                               integral: KirwanIntegral | None = None
                               ) -> AntisymmetrizedSpanRow:
    """The antisymmetrizations of a basis of the torus-level kernel, divided by
    the positive-root product, should span the nonabelian pairing kernel in the
    invariant slice of the complementary lower degree."""
    if integral is None:
        integral = torus_integral(model.space)
    r = len(weyl.positive_roots)
    target = source_degree - 2 * r
    kernel = torus_kernel(model, source_degree, integral)
    produced: list[list[Fraction]] = []
    for cls in kernel.classes(model):
        anti = weyl.antisymmetrize(cls)
        if all(p.is_zero() for p in anti.restrictions.values()):
            continue
        divided = brion_divide(weyl, anti)
        coeffs = model.coefficients_of(divided, target)
        if coeffs is None:
            raise ValidationError("divided antisymmetrization left the model span")
        produced.append(coeffs)

    inv = invariant_subspace(model, weyl, target)
    inv_classes = Subspace(target, inv.coeffs).classes(model)
    comp = model.space.dim - 2 * model.space.vars.count - 4 * r - target
    testing = (Subspace(comp, invariant_subspace(model, weyl, comp).coeffs
                        ).classes(model)
               if 0 <= comp <= model.max_degree else [])
    d2cls = weyl.d_class() * weyl.d_class()
    k_sub = pairing_kernel(integral, [cls * d2cls for cls in inv_classes], testing)
    # k_sub is in invariant-basis coordinates; convert to slice coordinates
    kernel_vecs = []
    for c in k_sub:
        vec = [Q(0)] * len(model.basis_by_degree[target])
        for ci, ivec in zip(c, inv.coeffs):
            for idx, val in enumerate(ivec):
                vec[idx] += ci * val
        kernel_vecs.append(vec)
    equal = linalg.span_equal(produced, kernel_vecs)
    return AntisymmetrizedSpanRow(source_degree, target, len(
        linalg.row_reduce(produced)[0]) if produced else 0,
        len(kernel_vecs), equal)
