"""Acceptance suite: one test per shipped guarantee, each printing a single
pass/fail line under pytest -v and asserting its own runtime budget.

Everything here is exact rational arithmetic; there are no tolerances.
"""

import hashlib
import os
import pathlib
import random
import subprocess
import sys
import time
from fractions import Fraction as Q

from conftest import act, brion_divide
from test_report_digests import GOLDEN, write_inputs

import resloc
from resloc import linalg
from resloc.datasets import BUNDLED, load_dataset
from resloc.kernels import build_model, check_circle_kernel_split, check_full_kernel
from resloc.residues import res_x_plus
from resloc.spaces import (
    circle_integral,
    generator_products,
    localization_sum,
    torus_integral,
)
from resloc.symcore import (
    POINT_ALGEBRA,
    EquivariantPolynomial,
    LinearForm,
    RationalSection,
    Variables,
    substitution,
)
from resloc.weylgrp import check_nonabelian_kernels

VARS = {n: Variables(("X", "Y1", "Y2")[:n]) for n in (1, 2, 3)}


def random_polynomial(rng, vars, max_terms=3, max_exp=2):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = tuple(rng.randint(0, max_exp) for _ in range(vars.count))
        c = Q(rng.choice([v for v in range(-5, 6) if v]), rng.randint(1, 3))
        terms[(exps, 0)] = terms.get((exps, 0), Q(0)) + c
    return EquivariantPolynomial(vars, POINT_ALGEBRA, terms)


def random_form(rng, vars, need_x=False):
    while True:
        coeffs = [Q(rng.randint(-2, 2)) for _ in range(vars.count)]
        if need_x and coeffs[0] == 0:
            coeffs[0] = Q(rng.choice((-2, -1, 1, 2)))
        if any(coeffs):
            return LinearForm.make(coeffs)


def random_section(rng, vars, max_factors=5, max_mult=3, need_x=False):
    numer = random_polynomial(rng, vars)
    denom = []
    for _ in range(rng.randint(1, max_factors)):
        denom.append((random_form(rng, vars, need_x=need_x),
                      rng.randint(1, max_mult)))
    return RationalSection(numer, denom)


def by_both_routes(h):
    """The residue sum in X by the pole route, asserted equal to the series
    route's."""
    by_poles = res_x_plus(h, 0, method="poles")
    assert by_poles == res_x_plus(h, 0, method="series")
    return by_poles


def test_residue_methods_agree_on_randomized_sections():
    """Partial-fraction and series-at-infinity residues match on 500 sections,
    half of them a polynomial over an Euler class of simple lines through X."""
    rng = random.Random(2024)
    start = time.monotonic()
    checked = euler_checked = 0
    for i in range(500):
        vars = VARS[rng.choice((1, 2, 3))]
        if i % 2 == 0:
            # factored Euler shape: simple lines through X
            lines = [random_form(rng, vars, need_x=True) for _ in range(rng.randint(1, 5))]
            h = RationalSection(random_polynomial(rng, vars), [(w, 1) for w in lines])
            euler_checked += 1
        else:
            h = random_section(rng, vars)
        by_both_routes(h)
        checked += 1
    elapsed = time.monotonic() - start
    assert checked == 500 and euler_checked == 250
    assert elapsed <= 60, f"residue equivalence took {elapsed:.1f}s"


def test_residue_calculus_laws_randomized():
    """Exact-derivative, linearity, polynomial, and degree-gap laws, 200 cases each."""
    rng = random.Random(77)
    for _ in range(200):
        vars = VARS[rng.choice((1, 2, 3))]
        h = random_section(rng, vars, max_factors=3, max_mult=2)
        assert by_both_routes(h.derivative(0)).is_zero()
    for _ in range(200):
        vars = VARS[rng.choice((1, 2, 3))]
        g = random_section(rng, vars, max_factors=3, max_mult=2)
        h = random_section(rng, vars, max_factors=3, max_mult=2)
        a, b = rng.randint(-4, 4), rng.randint(-4, 4)
        assert res_x_plus(RationalSection.sum(vars, (g.scale(a), h.scale(b))), 0) == \
            RationalSection.sum(vars, (res_x_plus(g, 0).scale(a), res_x_plus(h, 0).scale(b)))
    for _ in range(200):
        vars = VARS[rng.choice((1, 2, 3))]
        p = RationalSection(random_polynomial(rng, vars))
        assert by_both_routes(p).is_zero()
    for _ in range(200):
        vars = VARS[rng.choice((1, 2, 3))]
        # numerator free of X, denominator involving X to order >= deg + 2
        numer = random_polynomial(rng, vars)
        numer = EquivariantPolynomial(
            vars, POINT_ALGEBRA,
            {((0,) + e[1:], b): c for (e, b), c in numer.terms.items()})
        denom = [(random_form(rng, vars, need_x=True), rng.randint(1, 2))
                 for _ in range(rng.randint(1, 2))]
        denom.append((LinearForm.make([Q(1)] + [Q(0)] * (vars.count - 1)), 2))
        h = RationalSection(numer, denom)
        if not h.is_zero():
            gap = sum(m for f, m in h.denom.items() if f.involves(0)) \
                - max(e[0] for e, _ in h.numer.terms)
            assert gap >= 2
        assert by_both_routes(h).is_zero()


def test_localization_sums_polynomial_on_all_datasets():
    """Fixed-point sums of all generator products through degree dim are
    polynomial, and exactly zero strictly below degree dim."""
    start = time.monotonic()
    for name in BUNDLED:
        ds = load_dataset(name)
        dim = ds.space.dim
        products = [cls for _, cls in generator_products(ds.space, ds.generators, dim)]
        assert len(products) > 1
        for eta in products:
            total = localization_sum(ds.space, eta)
            assert not total.denom, f"{name}: sum is not a polynomial"
            if eta.degree < dim:
                assert total.is_zero(), f"{name}: nonzero sum below top degree"
    elapsed = time.monotonic() - start
    assert elapsed <= 30, f"localization validity took {elapsed:.1f}s"


def test_circle_kernel_splits_as_direct_sum_in_every_chamber():
    """Per degree through 4: the circle-level residue kernel equals the direct
    sum of the two one-sided vanishing subspaces, in every chamber."""
    from resloc.kernels import enumerate_generic_directions

    start = time.monotonic()
    for name in ("s2", "s2xs2-t2", "s2xs2-nonisolated"):
        ds = load_dataset(name)
        model = build_model(ds.space, ds.generators, 4)
        chambers = enumerate_generic_directions(ds.space)
        assert len(chambers.chambers) == chambers.expected
        for chamber in chambers.chambers:
            integral = circle_integral(ds.space, chamber.representative)
            rows = check_circle_kernel_split(model, integral)
            for r in rows:
                assert r.sum_direct and r.equal, (name, chamber.signs, r)
            total = sum(r.kernel.dim for r in rows)
            assert total > 0, f"{name}: kernel trivial in every degree"
    elapsed = time.monotonic() - start
    assert elapsed <= 120, f"circle splits took {elapsed:.1f}s"


def test_torus_kernel_is_sum_of_chamber_subspaces():
    """Per degree through 4: the iterated-residue kernel equals the span over
    all chambers of the one-sided subspaces; chamber enumeration is exact."""
    start = time.monotonic()
    for name in ("s2", "s2xs2-t2"):
        ds = load_dataset(name)
        model = build_model(ds.space, ds.generators, 4)
        rows, chambers = check_full_kernel(model, torus_integral(ds.space))
        assert chambers.expected == len(chambers.chambers)
        for r in rows:
            assert r.equal, (name, r)
    elapsed = time.monotonic() - start
    assert elapsed <= 120, f"torus kernels took {elapsed:.1f}s"


def test_nonabelian_kernel_descriptions_coincide():
    """Per degree through 6 on the triple-sphere reflection example: the
    pairing null space and the one- and two-step root-product pullbacks of the
    torus kernel cut out the same invariant subspace."""
    start = time.monotonic()
    ds = load_dataset("s2cubed-su2")
    model = build_model(ds.space, ds.generators, 6)
    rows, _ = check_nonabelian_kernels(model, ds.weyl, torus_integral(ds.space))
    for r in rows:
        assert r.equal, r
    assert [r.pairing_kernel_dim for r in rows] == [0, 3, 4, 4]
    elapsed = time.monotonic() - start
    assert elapsed <= 120, f"nonabelian comparisons took {elapsed:.1f}s"


def test_antisymmetrized_torus_kernel_spans_nonabelian_kernel():
    """Dividing antisymmetrized torus-kernel classes by the root product spans
    the nonabelian kernel two degrees down, per degree."""
    ds = load_dataset("s2cubed-su2")
    model = build_model(ds.space, ds.generators, 6)
    _, span_rows = check_nonabelian_kernels(model, ds.weyl, torus_integral(ds.space))
    assert [(r.source_degree, r.target_degree, r.span_dim, r.kernel_dim)
            for r in span_rows] == [(2, 0, 0, 0), (4, 2, 3, 3), (6, 4, 4, 4)]
    for row in span_rows:
        assert row.equal, row


def test_weyl_group_laws_randomized(antisymmetrize):
    """Sign multiplicativity, root-product anti-invariance, pairing invariance,
    the divided-pairing shuffle, and divisibility of antisymmetrizations."""
    ds = load_dataset("s2cubed-su2")
    model = build_model(ds.space, ds.generators, 6)
    weyl = ds.weyl
    integral = torus_integral(ds.space)
    rng = random.Random(5)
    substitutions = {id(w): substitution(w.variable_images(ds.space)) for w in weyl.elements}
    dpoly = weyl.d_polynomial()

    def rand_class(degree):
        vec = {}
        for el in model.basis_by_degree[degree]:
            if c := rng.randint(-2, 2):
                linalg.add_scaled(vec, c, el.vector)
        return model.vector_class(vec, degree)

    for _ in range(100):
        v, w = rng.choice(weyl.elements), rng.choice(weyl.elements)
        assert weyl.compose(v, w).sign() == v.sign() * w.sign()
    for _ in range(100):
        w = rng.choice(weyl.elements)
        assert substitutions[id(w)](dpoly) == \
            dpoly.scale(w.sign())
    for _ in range(100):
        w = rng.choice(weyl.elements)
        eta, zeta = rand_class(rng.choice((0, 2, 4))), rand_class(rng.choice((0, 2)))
        assert integral(act(weyl, w, eta) * act(weyl, w, zeta)) == integral(eta * zeta)
    for _ in range(100):
        eta, zeta = rand_class(rng.choice((0, 2))), rand_class(rng.choice((0, 2)))
        assert integral(eta.mul_pure(dpoly) * zeta.mul_pure(dpoly)) == \
            integral(eta.mul_pure(dpoly * dpoly) * zeta)
    divided = 0
    for _ in range(100):
        anti = antisymmetrize(weyl, rand_class(rng.choice((2, 4, 6))))
        if not anti.is_zero():
            brion_divide(weyl, anti)  # exactness: must not raise
            divided += 1
    assert divided >= 50


def test_cli_reports_are_deterministic(tmp_path):
    """Every command of the golden digest table, run twice in fresh
    interpreters, emits byte-identical reports with the recorded exit code
    and digests."""
    src = str(pathlib.Path(resloc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    for argv, expected in GOLDEN.items():
        write_inputs(argv, tmp_path)
        runs = []
        for _ in range(2):
            proc = subprocess.run([sys.executable, "-m", "resloc", *argv.split()],
                                  capture_output=True, cwd=tmp_path, env=env)
            runs.append((proc.returncode, hashlib.sha256(proc.stdout).hexdigest(),
                         hashlib.sha256(proc.stderr).hexdigest()))
        assert runs[0] == runs[1], f"nondeterministic report for {argv}"
        assert runs[0] == expected, f"report bytes changed for {argv}"
