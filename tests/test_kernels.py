"""Degree-truncated models, one-sided vanishing subspaces, circle and torus
kernel comparisons, chamber enumeration, and flow-up checks."""

from fractions import Fraction as Q

import pytest

from resloc.datasets import load_dataset
from resloc.kernels import (
    SignPattern,
    build_model,
    check_circle_kernel_split,
    check_full_kernel,
    enumerate_generic_directions,
    partition,
    residue_kernel_circle,
    torus_kernel,
    tw_subspace,
    validate_flowup_class,
)
from resloc.spaces import (
    CircleDirection,
    FixedComponent,
    HamiltonianSpace,
    NonGenericError,
    RestrictedClass,
    circle_integral,
    kappa_s_integral,
    torus_integral,
)
from resloc.symcore import (
    POINT_ALGEBRA,
    EquivariantPolynomial,
    LinearForm,
    ValidationError,
    Variables,
)


def lf(*coeffs):
    return LinearForm.make([Q(c) for c in coeffs])


@pytest.fixture(scope="module")
def s2():
    return load_dataset("s2")


@pytest.fixture(scope="module")
def s2xs2():
    return load_dataset("s2xs2-t2")


@pytest.fixture(scope="module")
def nonisolated():
    return load_dataset("s2xs2-nonisolated")


@pytest.fixture(scope="module")
def s2_model(s2):
    return build_model(s2.space, s2.generators, 6)


@pytest.fixture(scope="module")
def s2xs2_model(s2xs2):
    return build_model(s2xs2.space, s2xs2.generators, 6)


# -- model construction -------------------------------------------------------


def test_model_slice_dimensions(s2_model, s2xs2_model):
    assert {d: len(b) for d, b in s2_model.basis_by_degree.items()} == \
        {0: 1, 2: 2, 4: 2, 6: 2}
    assert {d: len(b) for d, b in s2xs2_model.basis_by_degree.items()} == \
        {0: 1, 2: 4, 4: 8, 6: 12}


def test_model_labels(s2xs2_model):
    assert [el.label for el in s2xs2_model.basis_by_degree[2]] == ["X", "Y", "u1", "u2"]
    assert "X*u1" in [el.label for el in s2xs2_model.basis_by_degree[4]]


def test_model_relation_found(s2, s2_model):
    # u^2 and X*u restrict identically on the sphere, so degree 4 stays rank 2
    u = s2.generator("u")
    x = EquivariantPolynomial.variable(s2.space.vars, 0)
    assert u * u == u.mul_pure(x)
    coeffs = s2_model.coefficients_of(u * u, 4)
    assert coeffs is not None


def test_model_coefficients_roundtrip(s2xs2_model):
    basis = s2xs2_model.basis_by_degree[4]
    for i, el in enumerate(basis):
        coeffs = s2xs2_model.coefficients_of(el.cls, 4)
        assert coeffs == [Q(j == i) for j in range(len(basis))]
    outside = RestrictedClass.unit(s2xs2_model.space)
    assert s2xs2_model.coefficients_of(outside, 0) == [Q(1)]


def test_model_rejects_duplicate_generator_names(s2):
    with pytest.raises(ValidationError, match="distinct"):
        build_model(s2.space, s2.generators + [("u", s2.generator("u"))], 4)


def test_model_requires_unit(s2):
    with pytest.raises(ValidationError, match="unit"):
        build_model(s2.space, [("u", s2.generator("u"))], 4)


def test_subspace_classes_reconstruction(s2_model):
    sub = tw_subspace(s2_model, CircleDirection.make((1,)), "plus", 2)
    [cls] = sub.classes(s2_model)
    assert cls.restrictions["N"].is_zero()


# -- one-sided vanishing subspaces ----------------------------------------------


def test_partition_both_directions(s2):
    assert partition(s2.space, CircleDirection.make((1,))) == SignPattern(("N",), ("S",))
    pat = partition(s2.space, CircleDirection.make((-1,)))
    assert pat.plus == ("S",) and pat.minus == ("N",)


def test_tw_subspace_s2(s2_model):
    xi = CircleDirection.make((1,))
    plus = tw_subspace(s2_model, xi, "plus", 2)
    minus = tw_subspace(s2_model, xi, "minus", 2)
    assert plus.dim == minus.dim == 1
    # side plus vanishes on N, so it is spanned by u; minus by u - X
    assert plus.coeffs == [[Q(0), Q(1)]]
    assert minus.coeffs == [[Q(-1), Q(1)]]


def test_tw_subspace_rejects_bad_side(s2_model):
    with pytest.raises(ValidationError):
        tw_subspace(s2_model, CircleDirection.make((1,)), "up", 2)


def test_tw_subspace_rejects_nongeneric(s2xs2_model):
    with pytest.raises(NonGenericError):
        tw_subspace(s2xs2_model, CircleDirection.make((1, 0)), "plus", 2)


# -- circle-level kernel -----------------------------------------------------------


def test_circle_split_s2_all_chambers(s2_model):
    for xi in ((1,), (-1,)):
        rows = check_circle_kernel_split(s2_model, CircleDirection.make(xi),
                                         degrees=[0, 2, 4])
        assert [(r.degree, r.kernel_dim, r.minus_dim, r.plus_dim) for r in rows] == \
            [(0, 0, 0, 0), (2, 2, 1, 1), (4, 2, 1, 1)]
        assert all(r.ok for r in rows)


def test_circle_split_s2xs2(s2xs2_model):
    rows = check_circle_kernel_split(s2xs2_model, CircleDirection.make((1, 2)),
                                     degrees=[0, 2, 4])
    assert [(r.degree, r.kernel_dim, r.minus_dim, r.plus_dim) for r in rows] == \
        [(0, 0, 0, 0), (2, 2, 1, 1), (4, 6, 3, 3)]
    assert all(r.ok for r in rows)


def test_circle_split_nonisolated(nonisolated):
    model = build_model(nonisolated.space, nonisolated.generators, 4)
    rows = check_circle_kernel_split(model, CircleDirection.make((1,)))
    assert [(r.degree, r.kernel_dim, r.minus_dim, r.plus_dim) for r in rows] == \
        [(0, 0, 0, 0), (2, 2, 1, 1), (4, 4, 2, 2)]
    assert all(r.ok for r in rows)


def test_circle_kernel_stable_under_testing_slack(s2xs2_model):
    xi = CircleDirection.make((1, 2))
    for d in (2, 4):
        base = residue_kernel_circle(s2xs2_model, xi, d)
        enlarged = residue_kernel_circle(s2xs2_model, xi, d, testing_slack=2)
        assert base.dim == enlarged.dim


def test_circle_kernel_methods_agree(s2xs2_model):
    xi = CircleDirection.make((2, 1))
    a = residue_kernel_circle(s2xs2_model, xi, 4, method="poles")
    b = residue_kernel_circle(s2xs2_model, xi, 4, method="series")
    assert a.coeffs == b.coeffs


def test_circle_pairing_matches_integral(s2xs2):
    # the pairing used for kernel rows integrates products along xi itself;
    # kappa_s_integral takes the sign-normalized axis, which is xi here
    sp = s2xs2.space
    xi = CircleDirection.make((1, 2))
    integral = circle_integral(sp, xi)
    u1 = s2xs2.generator("u1")
    unit = RestrictedClass.unit(sp)
    for eta, zeta in ((unit, unit), (u1, unit), (u1, u1)):
        assert integral(eta * zeta) == kappa_s_integral(sp, eta * zeta, xi)
        assert integral.of_adapted(integral.adapt(eta) * integral.adapt(zeta)) == \
            integral(eta * zeta)
    # with a negative leading entry the two axes differ
    reversed_xi = CircleDirection.make((-1, 2))
    along_xi = circle_integral(sp, reversed_xi)(u1).constant_value()
    assert along_xi == -kappa_s_integral(sp, u1, reversed_xi).constant_value() == Q(-1, 2)


def test_circle_pairing_rejects_nongeneric():
    # genericity forces every adapted weight to involve the circle variable,
    # which is exactly what keeps the pairing values polynomial
    vars = Variables(("X", "Y"))
    comp = FixedComponent("p", (Q(1), Q(1)), POINT_ALGEBRA,
                          ((lf(1, 0), EquivariantPolynomial.zero(vars)),
                           (lf(0, 1), EquivariantPolynomial.zero(vars))))
    space = HamiltonianSpace(vars, 4, [comp])
    with pytest.raises(NonGenericError):
        circle_integral(space, CircleDirection.make((1, 0)))


# -- chamber enumeration -------------------------------------------------------------


def test_chamber_counts_on_datasets(s2, s2xs2, nonisolated):
    for ds, count in ((s2, 2), (s2xs2, 8), (nonisolated, 2)):
        chambers = enumerate_generic_directions(ds.space)
        assert chambers.complete
        assert chambers.expected == count
        assert len(chambers.chambers) == count


def test_chamber_representatives_are_generic_and_distinct(s2xs2):
    chambers = enumerate_generic_directions(s2xs2.space)
    seen = set()
    for ch in chambers.chambers:
        assert ch.signs not in seen
        seen.add(ch.signs)
        pat = partition(s2xs2.space, ch.representative)  # raises if non-generic
        assert set(pat.plus) | set(pat.minus) == {f.name for f in s2xs2.space.components}


def test_chambers_rank_one_weight_arrangement():
    vars = Variables(("X",))
    comp = FixedComponent("p", (Q(1),), POINT_ALGEBRA,
                          ((lf(1), EquivariantPolynomial.zero(vars)),))
    space = HamiltonianSpace(vars, 2, [comp])
    chambers = enumerate_generic_directions(space)
    assert {c.representative.vector for c in chambers.chambers} == {(1,), (-1,)}


def test_chambers_rank_three_complete():
    # (S^2)^3 with the full 3-torus: 3 coordinate planes + 4 diagonal planes
    vars = Variables(("X", "Y1", "Y2"))
    zero = EquivariantPolynomial.zero(vars)
    comps = []
    for a in (1, -1):
        for b in (1, -1):
            for c in (1, -1):
                name = f"{a}{b}{c}"
                lines = ((lf(-a, 0, 0), zero), (lf(0, -b, 0), zero), (lf(0, 0, -c), zero))
                comps.append(FixedComponent(name, (Q(a), Q(b), Q(c)), POINT_ALGEBRA, lines))
    space = HamiltonianSpace(vars, 6, comps)
    chambers = enumerate_generic_directions(space)
    assert chambers.complete
    assert len(chambers.chambers) == chambers.expected
    # a wider sweep discovers no new sign patterns
    patterns = {c.signs for c in chambers.chambers}
    normals = chambers.normals
    extra = set()
    for x in range(-3, 4):
        for y in range(-3, 4):
            for z in range(-3, 4):
                signs = []
                for w in normals:
                    s = w[0] * x + w[1] * y + w[2] * z
                    if s == 0:
                        break
                    signs.append(1 if s > 0 else -1)
                else:
                    extra.add(tuple(signs))
    assert extra == patterns


# -- torus-level kernel ----------------------------------------------------------------


def test_torus_kernel_s2xs2(s2xs2_model):
    rows, chambers = check_full_kernel(s2xs2_model, degrees=[0, 2, 4])
    assert chambers.complete and len(chambers.chambers) == 8
    assert [(r.degree, r.kernel_dim, r.chamber_sum_dim) for r in rows] == \
        [(0, 0, 0), (2, 4, 4), (4, 8, 8)]
    assert all(r.ok for r in rows)


def test_torus_kernel_s2(s2_model):
    rows, chambers = check_full_kernel(s2_model, degrees=[0, 2, 4])
    assert chambers.complete and len(chambers.chambers) == 2
    assert [(r.degree, r.kernel_dim, r.chamber_sum_dim) for r in rows] == \
        [(0, 0, 0), (2, 2, 2), (4, 2, 2)]
    assert all(r.ok for r in rows)


def test_torus_kernel_unconstrained_above_complementary_range(s2xs2_model):
    # complementary degree is negative from degree 2 on: no constraints
    integral = torus_integral(s2xs2_model.space)
    sub = torus_kernel(s2xs2_model, 6, integral)
    assert sub.dim == len(s2xs2_model.basis_by_degree[6])


def test_torus_pairing_fixed_direction_matches_default(s2xs2_model):
    unit = RestrictedClass.unit(s2xs2_model.space)
    for xi in ((1, 2), (-1, 2), (2, -1)):
        integral = torus_integral(s2xs2_model.space, CircleDirection.make(xi))
        assert integral(unit * unit) == 1


# -- flow-up classes ---------------------------------------------------------------------


def test_flowup_class_valid(s2):
    sp = s2.space
    xi = CircleDirection.make((1,))
    report = validate_flowup_class(sp, "S", s2.generator("u"), xi)
    assert report.ok, report.failures
    report = validate_flowup_class(sp, "N", RestrictedClass.unit(sp), xi)
    assert report.ok, report.failures


def test_flowup_class_failures_itemized(s2):
    sp = s2.space
    xi = CircleDirection.make((1,))
    x_class = RestrictedClass.from_pure(sp, EquivariantPolynomial.variable(sp.vars, 0))
    report = validate_flowup_class(sp, "S", x_class, xi)
    assert not report.ok
    assert any("above" in msg for msg in report.failures)
    report = validate_flowup_class(sp, "N", s2.generator("u"), xi)
    assert not report.ok
    assert any("upward Euler" in msg for msg in report.failures)
