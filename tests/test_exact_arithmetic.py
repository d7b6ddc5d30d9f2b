"""The representation of exact values: an integral coefficient is an int and
any other a Fraction, from the data through the models, the echelon rows and
null spaces to the integral tables; and the Kirwan integrals' bilinear
contraction, run on integer numerators over a running denominator, against a
plain Fraction oracle."""

import random
from fractions import Fraction

import pytest

from resloc import linalg, spaces
from resloc.datasets import (
    BUNDLED,
    load_dataset,
    projective,
    sphere_product,
    sphere_product_diagonal,
)
from resloc.kernels import build_model, check_circle_kernel_split, check_full_kernel
from resloc.spaces import (
    RestrictedClass,
    circle_integral,
    find_generic_direction,
    torus_integral,
)


SPACES = {**{name: (lambda name=name: load_dataset(name)) for name in BUNDLED},
          "s2x3": lambda: sphere_product(3),
          "cp3": lambda: projective(3, (Fraction(1, 5), Fraction(1, 6), Fraction(1, 7))),
          "s2x3-diag": lambda: sphere_product_diagonal(3)}


def assert_exact(values):
    """No float, and every integral value an int."""
    for v in values:
        assert type(v) is int or (type(v) is Fraction and v.denominator != 1), repr(v)


@pytest.mark.parametrize("name", sorted(SPACES))
def test_integral_values_are_ints_everywhere(name, monkeypatch):
    # model polynomials and vectors, every reduced echelon row and every
    # null-space vector of both kernel checks, and every table numerator the
    # checks filled
    ds = SPACES[name]()
    space, generators = ds.space, ds.generators
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
    xi = find_generic_direction(space)
    integrals = [circle_integral(space, xi), torus_integral(space, xi)]
    check_circle_kernel_split(model, integrals[0])
    check_full_kernel(model, integrals[1])
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
    ds = SPACES[name]()
    space, generators = ds.space, ds.generators
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
