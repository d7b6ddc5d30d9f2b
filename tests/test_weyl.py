"""Weyl-group actions on fixed-point data, antisymmetrization, root-product
division, and the nonabelian kernel comparisons."""

import random
from fractions import Fraction as Q

import pytest

from resloc.datasets import load_dataset
from resloc.kernels import build_model
from resloc.spaces import RestrictedClass, torus_integral
from resloc.symcore import (
    EquivariantPolynomial,
    ExactDivisionError,
    ValidationError,
)
from resloc.weylgrp import (
    WeylData,
    WeylElement,
    brion_divide,
    check_antisymmetrized_span,
    check_nonabelian_kernels,
    invariant_subspace,
    kappa_k_integral,
)


@pytest.fixture(scope="module")
def ds():
    return load_dataset("s2cubed-su2")


@pytest.fixture(scope="module")
def model(ds):
    return build_model(ds.space, ds.generators, 6)


def x_poly(ds):
    return EquivariantPolynomial.variable(ds.space.vars, 0)


def flip_of(ds):
    return next(w for w in ds.weyl.elements if w.sign() == -1)


# -- group structure ------------------------------------------------------------


def test_group_order_and_signs(ds):
    weyl = ds.weyl
    assert weyl.order == 2
    assert sorted(w.sign() for w in weyl.elements) == [-1, 1]
    for v in weyl.elements:
        for w in weyl.elements:
            assert weyl.compose(v, w).sign() == v.sign() * w.sign()


def test_identity_element(ds):
    e = ds.weyl.identity()
    assert e.sign() == 1
    u1 = ds.generator("u1")
    assert ds.weyl.act(e, u1) == u1


def test_d_polynomial_is_root_product(ds):
    assert ds.weyl.d_polynomial() == x_poly(ds)


def test_flip_action_on_generator(ds):
    # the reflection sends u1 to u1 - X (degree-2 sphere class convention)
    u1 = ds.generator("u1")
    expected = u1 - RestrictedClass.unit(ds.space).mul_pure(x_poly(ds))
    assert ds.weyl.act(flip_of(ds), u1) == expected


def test_symmetrize_and_antisymmetrize(ds):
    weyl = ds.weyl
    u1 = ds.generator("u1")
    unit = RestrictedClass.unit(ds.space)
    half_x = unit.mul_pure(x_poly(ds)).scale(Q(1, 2))
    assert weyl.symmetrize(u1) == u1 - half_x
    assert weyl.antisymmetrize(u1) == half_x
    assert weyl.is_invariant(weyl.symmetrize(u1))
    assert not weyl.is_invariant(u1)


def test_antisymmetrization_divides_by_root_product(ds):
    weyl = ds.weyl
    u1 = ds.generator("u1")
    anti = weyl.antisymmetrize(u1.mul_pure(x_poly(ds)))
    quotient = brion_divide(weyl, anti)
    assert quotient == weyl.symmetrize(u1)


def test_brion_divide_error_names_component(ds):
    with pytest.raises(ExactDivisionError, match="not divisible"):
        brion_divide(ds.weyl, RestrictedClass.unit(ds.space))


# -- load-time validation ----------------------------------------------------------


def test_weyl_requires_identity(ds):
    with pytest.raises(ValidationError, match="identity"):
        WeylData(ds.space, [flip_of(ds)], ds.weyl.positive_roots)


def test_weyl_rejects_bad_matrix_shape(ds):
    e = ds.weyl.identity()
    bad = WeylElement(((Q(1), Q(0)),), e.perm, e.algebra_maps)
    with pytest.raises(ValidationError, match="shape"):
        WeylData(ds.space, [bad], ds.weyl.positive_roots)


def test_weyl_rejects_non_permutation(ds):
    e = ds.weyl.identity()
    bad = WeylElement(e.matrix, (0,) * len(e.perm), e.algebra_maps)
    with pytest.raises(ValidationError, match="permute"):
        WeylData(ds.space, [bad], ds.weyl.positive_roots)


def test_weyl_rejects_moment_mismatch(ds):
    # reflection matrix with the identity permutation cannot preserve the data
    f = flip_of(ds)
    e = ds.weyl.identity()
    bad = WeylElement(f.matrix, e.perm, f.algebra_maps)
    with pytest.raises(ValidationError, match="moment"):
        WeylData(ds.space, [e, bad], ds.weyl.positive_roots)


def test_weyl_rejects_non_alternating_root_product(ds):
    roots = list(ds.weyl.positive_roots) * 2  # even power is flip-invariant
    with pytest.raises(ValidationError, match="alternating"):
        WeylData(ds.space, list(ds.weyl.elements), roots)


def test_weyl_rejects_singular_algebra_map(ds):
    e = ds.weyl.identity()
    maps = tuple(((Q(0),),) for _ in e.algebra_maps)
    bad = WeylElement(e.matrix, e.perm, maps)
    with pytest.raises(ValidationError, match="singular|unit"):
        WeylData(ds.space, [bad], ds.weyl.positive_roots)


# -- invariants and the nonabelian integral ------------------------------------------


def test_invariant_dimensions(model, ds):
    assert [invariant_subspace(model, ds.weyl, d).dim for d in (0, 2, 4, 6)] == \
        [1, 3, 4, 4]


def test_kappa_k_unit(ds):
    assert kappa_k_integral(ds.weyl, RestrictedClass.unit(ds.space)) == 2


def test_kappa_k_symmetrized_generator(ds):
    assert kappa_k_integral(ds.weyl, ds.weyl.symmetrize(ds.generator("u1"))) == 0


def test_kappa_k_rejects_noninvariant(ds):
    with pytest.raises(ValidationError, match="invariant"):
        kappa_k_integral(ds.weyl, ds.generator("u1"))


def test_nonabelian_kernel_rows(model, ds):
    rows = check_nonabelian_kernels(model, ds.weyl, [0, 2, 4, 6])
    assert [(r.degree, r.invariant_dim, r.pairing_kernel_dim,
             r.once_divided_dim, r.twice_divided_dim) for r in rows] == \
        [(0, 1, 0, 0, 0), (2, 3, 3, 3, 3), (4, 4, 4, 4, 4), (6, 4, 4, 4, 4)]
    assert all(r.equal for r in rows)


def test_antisymmetrized_span_rows(model, ds):
    got = [check_antisymmetrized_span(model, ds.weyl, src) for src in (2, 4, 6)]
    assert [(r.source_degree, r.target_degree, r.span_dim, r.kernel_dim)
            for r in got] == [(2, 0, 0, 0), (4, 2, 3, 3), (6, 4, 4, 4)]
    assert all(r.equal for r in got)


# -- randomized group laws ------------------------------------------------------------


def random_class(model, rng, degree):
    basis = model.basis_by_degree[degree]
    cls = RestrictedClass.zero(model.space, degree)
    for el in basis:
        c = rng.randint(-3, 3)
        if c:
            cls = cls + el.cls.scale(c)
    return cls


def test_pairing_is_group_invariant(model, ds):
    rng = random.Random(7)
    integral = torus_integral(ds.space)
    weyl = ds.weyl
    for _ in range(15):
        d1 = rng.choice((0, 2, 4))
        eta = random_class(model, rng, d1)
        zeta = random_class(model, rng, 4 - d1 if d1 <= 4 else 0)
        base = integral(eta * zeta)
        for w in weyl.elements:
            assert integral(weyl.act(w, eta) * weyl.act(w, zeta)) == base


def test_divided_pairing_shuffle(model, ds):
    # <D eta, D zeta> agrees with <D^2 eta, zeta>
    rng = random.Random(11)
    integral = torus_integral(ds.space)
    d = ds.weyl.d_polynomial()
    for _ in range(15):
        eta = random_class(model, rng, rng.choice((0, 2)))
        zeta = random_class(model, rng, rng.choice((0, 2)))
        lhs = integral(eta.mul_pure(d) * zeta.mul_pure(d))
        rhs = integral(eta.mul_pure(d * d) * zeta)
        assert lhs == rhs


def test_antisymmetrizations_always_divide(model, ds):
    rng = random.Random(13)
    weyl = ds.weyl
    for _ in range(15):
        eta = random_class(model, rng, rng.choice((2, 4, 6)))
        anti = weyl.antisymmetrize(eta)
        if anti.is_zero():
            continue
        quotient = brion_divide(weyl, anti)  # must not raise
        assert quotient.degree == anti.degree - 2
