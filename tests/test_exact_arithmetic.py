"""The representation of exact values: an integral coefficient is an int and
any other a Fraction, from the data through the models, the echelon rows and
null spaces to the integral tables; and the Kirwan integrals' bilinear
contraction, run on integer numerators over a running denominator, against a
plain Fraction oracle."""

import random
from fractions import Fraction
from itertools import product

import pytest

from resloc import linalg, spaces
from resloc.datasets import BUNDLED, load_dataset
from resloc.kernels import build_model, check_circle_kernel_split, check_full_kernel
from resloc.spaces import (
    FixedComponent,
    HamiltonianSpace,
    RestrictedClass,
    circle_integral,
    find_generic_direction,
    torus_integral,
)
from resloc.symcore import POINT_ALGEBRA, EquivariantPolynomial, LinearForm, Variables


def spheres(k, diagonal=False):
    """(S^2)^k under T^k, or under the diagonal circle: a fixed point per sign
    vector s with moment s (summed on the diagonal) and weights -s_i on the
    i-th variable, and generators u_a restricting to that variable where
    s_a < 0."""
    vars = Variables(("X",) if diagonal else tuple(f"X{i}" for i in range(1, k + 1)))
    zero = EquivariantPolynomial.zero(vars)
    signs = list(product((1, -1), repeat=k))

    def axis(i):
        return 0 if diagonal else i

    space = HamiltonianSpace(vars, 2 * k, [
        FixedComponent(str(s), (Fraction(sum(s)),) if diagonal else tuple(map(Fraction, s)),
                       POINT_ALGEBRA, tuple(
                           (LinearForm.make([-e if j == axis(i) else 0 for j in range(vars.count)]),
                            zero) for i, e in enumerate(s)))
        for s in signs])
    generators = [("one", RestrictedClass.unit(space))] + [
        (f"u{a + 1}", RestrictedClass(space, 2, {
            str(s): EquivariantPolynomial.variable(vars, axis(a)) if s[a] < 0 else zero
            for s in signs}))
        for a in range(k)]
    return space, generators


def projective3():
    """CP^3 under T^3: p_0..p_3 with x_0 = 0, weights x_j - x_i at p_i, moment
    e_i minus the offset (1/5, 1/6, 1/7), and u restricting to x_i at p_i."""
    vars = Variables(("X1", "X2", "X3"))
    zero = EquivariantPolynomial.zero(vars)

    def x(i):
        return [int(j + 1 == i) for j in range(3)]

    space = HamiltonianSpace(vars, 6, [
        FixedComponent(f"p{i}", tuple(Fraction(e) - Fraction(1, 5 + j) for j, e in enumerate(x(i))),
                       POINT_ALGEBRA, tuple(
                           (LinearForm.make([a - b for a, b in zip(x(j), x(i))]), zero)
                           for j in range(4) if j != i))
        for i in range(4)])
    u = RestrictedClass(space, 2, {f"p{i}": EquivariantPolynomial.variable(vars, i - 1)
                                   if i else zero for i in range(4)})
    return space, [("one", RestrictedClass.unit(space)), ("u", u)]


def bundled(name):
    ds = load_dataset(name)
    return ds.space, ds.generators


SPACES = {**{name: (lambda name=name: bundled(name)) for name in BUNDLED},
          "s2x3": lambda: spheres(3), "cp3": projective3,
          "s2x3-diag": lambda: spheres(3, diagonal=True)}


def assert_exact(values):
    """No float, and every integral value an int."""
    for v in values:
        assert type(v) is int or (type(v) is Fraction and v.denominator != 1), repr(v)


@pytest.mark.parametrize("name", sorted(SPACES))
def test_integral_values_are_ints_everywhere(name, monkeypatch):
    # model polynomials and vectors, every reduced echelon row and every
    # null-space vector of both kernel checks, and every table numerator the
    # checks filled
    space, generators = SPACES[name]()
    reduced, kernels = [], []
    real_reduce, real_nullspace = linalg.row_reduce, linalg.nullspace

    def recorded_reduce(rows):
        out = real_reduce(rows)
        reduced.extend(out[0])
        return out

    def recorded_nullspace(rows, ncols):
        out = real_nullspace(rows, ncols)
        kernels.extend(out)
        return out

    monkeypatch.setattr(linalg, "row_reduce", recorded_reduce)
    monkeypatch.setattr(linalg, "nullspace", recorded_nullspace)
    model = build_model(space, generators, 4)
    degrees = [0, 2, 4]
    xi = find_generic_direction(space)
    integrals = [circle_integral(space, xi), torus_integral(space, xi)]
    check_circle_kernel_split(model, degrees, integrals[0])
    check_full_kernel(model, degrees, integrals[1])
    assert reduced and kernels
    for els in model.basis_by_degree.values():
        for el in els:
            assert_exact(el.vector.values())
            for poly in el.cls.restrictions.values():
                assert_exact(poly.terms.values())
    for row in reduced + kernels:
        assert_exact(row.values())
    entries = 0
    for integral in integrals:
        for f in integral.components:
            keys = {k for els in model.basis_by_degree.values() for el in els
                    for k in el.cls.restrictions[f.name].terms}
            for key in keys:
                terms, den = integral.tau(f, key)
                assert type(den) is int and den > 0
                assert all(type(v) is int for v in terms.values())
                entries += 1
    assert entries


def oracle(integral, b, zeta):
    """sum over F, k1, k2 of b_F[k1] * zeta_F[k2] * tau[F, k1 k2] in Fractions,
    one term at a time."""
    total = {}
    for f in integral.components:
        zterms = zeta.restrictions[f.name].terms if zeta else {((0,) * len(f.moment), 0): 1}
        for (e1, b1), c1 in b.restrictions[f.name].terms.items():
            for (e2, b2), c2 in zterms.items():
                exps = tuple(a + c for a, c in zip(e1, e2))
                for k, s in f.algebra.mul_basis(b1, b2).items():
                    terms, den = integral.tau(f, (exps, k))
                    for key, v in terms.items():
                        total[key] = total.get(key, Fraction(0)) + \
                            Fraction(c1) * c2 * s * Fraction(v, den)
    return {k: v for k, v in total.items() if v}


@pytest.mark.parametrize("name, level", [(name, level) for name in ("s2xs2-t2", "s2x3", "cp3")
                                         for level in ("circle", "torus")])
def test_integer_contraction_matches_fraction_oracle(name, level, monkeypatch):
    # classes with non-integral coefficients, against the unit and against
    # model classes.  The last class of each degree scales its restriction at
    # the i-th component by 1/(i + 2): it is no equivariant class, but the
    # contraction is linear in each restriction, and on the circle level its
    # rows' running denominators must grow past one.  These torus tables are
    # nonzero only at one vertex's unit monomial, so a torus row has one
    # contribution, whose denominator comes from the class.
    space, generators = SPACES[name]()
    model = build_model(space, generators, 4)
    xi = find_generic_direction(space)
    integral = (circle_integral if level == "circle" else torus_integral)(space, xi)
    grown = []
    real = spaces._add_over

    def recorded(total, den, c, entry):
        new = real(total, den, c, entry)
        grown.append(1 < den < new if level == "circle" else new > 1)
        return new

    monkeypatch.setattr(spaces, "_add_over", recorded)
    rng = random.Random(name + level)
    nonzero = 0
    for degree in (0, 2, 4):
        basis = [el.cls for el in model.basis_by_degree[degree]]
        classes = basis + [
            sum((cls.scale(Fraction(rng.randint(-9, 9), rng.randint(1, 7)))
                 for cls in rng.sample(basis, min(3, len(basis)))[1:]),
                basis[0].scale(Fraction(rng.randint(1, 9), rng.randint(2, 7))))
            for _ in range(4)]
        classes.append(RestrictedClass(space, degree, {
            f.name: basis[-1].restrictions[f.name].scale(Fraction(1, i + 2))
            for i, f in enumerate(space.components)}))
        for zeta in [None] + [el.cls for d in (0, 2) for el in model.basis_by_degree[d]]:
            values = integral.values(classes, zeta)
            assert values == [oracle(integral, b, zeta) for b in classes]
            for row in values:
                assert_exact(row.values())
            nonzero += sum(map(bool, values))
    assert nonzero and any(grown)
