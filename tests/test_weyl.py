"""Weyl-group actions on fixed-point data, antisymmetrization, root-product
division, and the nonabelian kernel comparisons."""

import random
from fractions import Fraction as Q

import pytest

from resloc import cli, linalg, weylgrp
from resloc.datasets import load_dataset, sphere_product_diagonal
from resloc.kernels import build_model, torus_kernel
from resloc.spaces import FixedComponent, HamiltonianSpace, RestrictedClass, torus_integral
from resloc.symcore import (
    EquivariantPolynomial,
    ExactDivisionError,
    GradedAlgebra,
    LinearForm,
    ValidationError,
    Variables,
)
from resloc.weylgrp import (
    WeylData,
    WeylElement,
    brion_divide,
    check_nonabelian_kernels,
    invariant_subspace,
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
    expected = u1 + RestrictedClass.unit(ds.space).mul_pure(x_poly(ds)).scale(-1)
    assert ds.weyl.act(flip_of(ds), u1) == expected


def half_x(ds):
    return RestrictedClass.unit(ds.space).mul_pure(x_poly(ds)).scale(Q(1, 2))


def test_symmetrize_and_antisymmetrize(ds, antisymmetrize):
    # with two elements, u1 is its antisymmetrization plus an invariant class
    weyl = ds.weyl
    u1 = ds.generator("u1")
    assert antisymmetrize(weyl, u1) == half_x(ds)
    fixed = u1 + half_x(ds).scale(-1)
    assert all(weyl.act(w, fixed) == fixed for w in weyl.elements)
    assert weyl.act(flip_of(ds), u1) != u1


def test_antisymmetrization_divides_by_root_product(ds, antisymmetrize):
    weyl = ds.weyl
    u1 = ds.generator("u1")
    anti = antisymmetrize(weyl, u1.mul_pure(x_poly(ds)))
    quotient = brion_divide(weyl, anti)
    assert quotient == u1 + half_x(ds).scale(-1)


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


def two_projective_planes():
    """The circle rotating S^2 in CP^2 x S^2: two fixed copies of CP^2, with
    cohomology Q[h]/h^3, at moments 1 and -1."""
    vars = Variables(("X",))
    cp2 = GradedAlgebra(("one", "h", "h2"), (0, 2, 4),
                        {(0, 0): {0: 1}, (0, 1): {1: 1}, (0, 2): {2: 1}, (1, 1): {2: 1}},
                        (0, 0, 1), 4)
    zero = EquivariantPolynomial.zero(vars, cp2)
    return HamiltonianSpace(vars, 6, [
        FixedComponent("N", (Q(1),), cp2, ((LinearForm.make([-1]), zero),)),
        FixedComponent("S", (Q(-1),), cp2, ((LinearForm.make([1]), zero),))])


@pytest.mark.parametrize("images, message", [
    # h -> 2h, h^2 -> h^2 keeps the unit, the degrees and the integral
    (((1, 0, 0), (0, 2, 0), (0, 0, 1)), "is not multiplicative"),
    (((1, 0, 0), (0, 1, 1), (0, 0, 1)), "is not degree-preserving"),
    (((1, 0, 0), (0, 1, 0), (0, 0, 2)), "does not preserve the integral"),
], ids=["multiplicative", "degree", "integral"])
def test_weyl_rejects_algebra_map(images, message):
    space = two_projective_planes()
    eye = tuple(tuple(Q(int(i == j)) for j in range(3)) for i in range(3))
    assert WeylData(space, [WeylElement(((Q(1),),), (0, 1), (eye, eye))], []).order == 1
    amap = tuple(tuple(Q(v) for v in row) for row in images)
    with pytest.raises(ValidationError, match=f"algebra map N->N {message}"):
        WeylData(space, [WeylElement(((Q(1),),), (0, 1), (amap, eye))], [])


# -- invariants and the nonabelian integral ------------------------------------------


def test_invariant_dimensions(model, ds):
    assert [invariant_subspace(model, ds.weyl, d).dim for d in (0, 2, 4, 6)] == \
        [1, 3, 4, 4]


def kappa_k(ds, eta):
    """The nonabelian integral of an invariant class: the torus-level integral
    against the square of the root product, as the nonabelian check pairs."""
    d = ds.weyl.d_polynomial()
    return torus_integral(ds.space)(eta.mul_pure(d * d))


def test_kappa_k_unit(ds):
    assert kappa_k(ds, RestrictedClass.unit(ds.space)) == 2


def test_kappa_k_symmetrized_generator(ds):
    assert kappa_k(ds, ds.generator("u1") + half_x(ds).scale(-1)) == 0


def test_nonabelian_kernel_rows(model, ds):
    rows, _ = check_nonabelian_kernels(model, ds.weyl, torus_integral(ds.space))
    assert [(r.degree, r.invariant_dim, r.pairing_kernel_dim,
             r.once_divided_dim, r.twice_divided_dim) for r in rows] == \
        [(0, 1, 0, 0, 0), (2, 3, 3, 3, 3), (4, 4, 4, 4, 4), (6, 4, 4, 4, 4)]
    assert all(r.equal for r in rows)


def test_nonabelian_checks_solve_each_invariant_slice_once(ds, monkeypatch):
    solved = []
    real = weylgrp.invariant_subspace

    def counted(model, weyl, degree):
        solved.append(degree)
        return real(model, weyl, degree)

    monkeypatch.setattr(weylgrp, "invariant_subspace", counted)
    check_nonabelian_kernels(build_model(ds.space, ds.generators, 6), ds.weyl,
                             torus_integral(ds.space))
    assert sorted(solved) == [0, 2, 4, 6]


def test_invariant_subspace_rejects_unstable_slice(ds, monkeypatch):
    model = build_model(ds.space, [("one", ds.generator("one")),
                                   ("u1", ds.generator("u1"))], 4)
    assert invariant_subspace(model, ds.weyl, 2).dim == 1
    u2 = ds.generator("u2")  # not in the span of X and u1
    monkeypatch.setattr(WeylData, "act", lambda self, w, cls: u2)
    with pytest.raises(ValidationError, match="degree 2 is not stable"):
        invariant_subspace(model, ds.weyl, 2)


def test_antisymmetrized_span_rows(model, ds):
    _, got = check_nonabelian_kernels(model, ds.weyl, torus_integral(ds.space))
    assert [(r.source_degree, r.target_degree, r.span_dim, r.kernel_dim)
            for r in got] == [(2, 0, 0, 0), (4, 2, 3, 3), (6, 4, 4, 4)]
    assert all(r.equal for r in got)


def test_antisymmetrized_span_rejects_class_outside_the_slice(ds, monkeypatch):
    # on a [one, u1] model the degree-2 slice is spanned by X and u1; a
    # division of a degree-4 class landing on u2 has left it
    model = build_model(ds.space, [("one", ds.generator("one")),
                                   ("u1", ds.generator("u1"))], 4)
    u2 = ds.generator("u2")
    real = weylgrp.brion_divide
    monkeypatch.setattr(weylgrp, "brion_divide",
                        lambda weyl, cls: u2 if cls.degree == 4 else real(weyl, cls))
    with pytest.raises(ValidationError, match="left the model span"):
        check_nonabelian_kernels(model, ds.weyl, torus_integral(ds.space))


def test_nonabelian_check_acts_once_per_element_and_basis_class(model, ds, monkeypatch):
    # the invariants and the antisymmetrizations share one action per slice
    acted = []
    real = WeylData.act

    def counted(self, w, cls):
        acted.append((w, cls))
        return real(self, w, cls)

    monkeypatch.setattr(WeylData, "act", counted)
    check_nonabelian_kernels(model, ds.weyl, torus_integral(ds.space))
    sizes = [len(model.basis_by_degree[d]) for d in (0, 2, 4, 6)]
    assert sizes == [1, 4, 7, 8]
    assert len(acted) == len(ds.weyl.nonidentity) * sum(sizes) == 20
    assert not any(v == w and a == b for k, (v, a) in enumerate(acted) for w, b in acted[:k])


def test_each_element_builds_its_variable_images_once(monkeypatch, tmp_path):
    # load-time checks and the action share each element's substitution
    built = []
    real = WeylElement.variable_images

    def counted(self, space):
        built.append(self)
        return real(self, space)

    monkeypatch.setattr(WeylElement, "variable_images", counted)
    assert cli.main(["kernel", "s2cubed-su2", "--nonabelian",
                     "--output", str(tmp_path / "report.json")]) == 0
    assert len(built) == 2 and built[0] != built[1]


def folded_classes(model, subspace):
    """The subspace's classes as a fold of scale and + over the basis classes."""
    basis = model.basis_by_degree[subspace.degree]
    zero = {f.name: EquivariantPolynomial.zero(model.space.vars, f.algebra)
            for f in model.space.components}
    out = []
    for vec in subspace.coeffs:
        cls = RestrictedClass(model.space, subspace.degree, zero)
        for i, c in vec.items():
            cls = cls + basis[i].cls.scale(c)
        out.append(cls)
    return out


@pytest.mark.parametrize("generated, max_degree", [(False, 6), (True, 10)],
                         ids=["s2cubed-su2", "diagonal-s2x3"])
def test_coordinate_route_equals_class_route(ds, antisymmetrize, monkeypatch,
                                             generated, max_degree):
    """The check antisymmetrizes in restriction coordinates and combines the
    invariant classes as rows; both must give the classes of the class-by-class
    route, not just the same spans (a lost 1/|W| would keep every span)."""
    data = sphere_product_diagonal(3) if generated else ds
    weyl, integral = data.weyl, torus_integral(data.space)
    model = build_model(data.space, data.generators, max_degree)
    degrees = list(range(0, max_degree + 1, 2))
    r = len(weyl.positive_roots)
    divided = []
    real = weylgrp.brion_divide

    def recorded(weyl, cls):
        quotient = real(weyl, cls)
        divided.append((cls.degree, cls, model.class_vector(quotient, quotient.degree)))
        return quotient

    monkeypatch.setattr(weylgrp, "brion_divide", recorded)
    check_nonabelian_kernels(model, weyl, integral)
    expected = []
    for source in degrees[r:]:
        for cls in folded_classes(model, torus_kernel(model, source, integral)):
            anti = antisymmetrize(weyl, cls)
            if not anti.is_zero():
                expected.append((source, anti,
                                 model.class_vector(real(weyl, anti), source - 2 * r)))
    assert expected and divided == expected
    for d in degrees:
        inv = invariant_subspace(model, weyl, d)
        assert inv.classes(model) == folded_classes(model, inv)


def test_nonabelian_check_never_acts_with_the_identity(model, ds, monkeypatch):
    acted = []
    real = WeylData.act

    def counted(self, w, cls):
        acted.append(w)
        return real(self, w, cls)

    monkeypatch.setattr(WeylData, "act", counted)
    check_nonabelian_kernels(model, ds.weyl, torus_integral(ds.space))
    assert acted
    assert ds.weyl.identity() not in acted


# -- randomized group laws ------------------------------------------------------------


def random_class(model, rng, degree):
    vec = {}
    for el in model.basis_by_degree[degree]:
        if c := rng.randint(-3, 3):
            linalg.add_scaled(vec, c, el.vector)
    return model.vector_class(vec, degree)


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


def test_antisymmetrizations_always_divide(model, ds, antisymmetrize):
    rng = random.Random(13)
    weyl = ds.weyl
    for _ in range(15):
        eta = random_class(model, rng, rng.choice((2, 4, 6)))
        anti = antisymmetrize(weyl, eta)
        if anti.is_zero():
            continue
        quotient = brion_divide(weyl, anti)  # must not raise
        assert quotient.degree == anti.degree - 2
