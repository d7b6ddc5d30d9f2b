"""Acceptance suite: one test per shipped guarantee, each printing a single
pass/fail line under pytest -v and asserting its own runtime budget.

Everything here is exact rational arithmetic; there are no tolerances.
"""

import hashlib
import json
import random
import subprocess
import sys
import time
from fractions import Fraction as Q

from resloc.datasets import bundled_names, load_dataset
from resloc.kernels import build_model, check_circle_kernel_split, check_full_kernel
from resloc.residues import euler_series_residue, res_x_plus
from resloc.spaces import RestrictedClass, localization_sum, torus_integral
from resloc.symcore import (
    POINT_ALGEBRA,
    EquivariantPolynomial,
    LinearForm,
    RationalSection,
    Variables,
)
from resloc.weylgrp import (
    brion_divide,
    check_antisymmetrized_span,
    check_nonabelian_kernels,
)

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


def test_residue_methods_agree_on_randomized_sections():
    """Partial-fraction and series-at-infinity residues match on 500 sections;
    the Euler-series shortcut agrees whenever every factor involves X."""
    rng = random.Random(2024)
    start = time.monotonic()
    checked = gk_checked = 0
    for i in range(500):
        vars = VARS[rng.choice((1, 2, 3))]
        if i % 2 == 0:
            # factored Euler shape: simple lines through X, shortcut applicable
            lines = [(random_form(rng, vars, need_x=True),
                      EquivariantPolynomial.zero(vars))
                     for _ in range(rng.randint(1, 5))]
            alpha = random_polynomial(rng, vars)
            h = RationalSection(alpha, [(w, 1) for w, _ in lines])
            got = res_x_plus(h, 0, method="check")
            gamma = euler_series_residue(alpha, lines)
            assert got == RationalSection.from_polynomial(gamma)
            gk_checked += 1
        else:
            h = random_section(rng, vars)
            res_x_plus(h, 0, method="check")
        checked += 1
    elapsed = time.monotonic() - start
    assert checked == 500 and gk_checked == 250
    assert elapsed <= 60, f"residue equivalence took {elapsed:.1f}s"


def test_residue_calculus_laws_randomized():
    """Exact-derivative, linearity, polynomial, and degree-gap laws, 200 cases each."""
    rng = random.Random(77)
    for _ in range(200):
        vars = VARS[rng.choice((1, 2, 3))]
        h = random_section(rng, vars, max_factors=3, max_mult=2)
        assert res_x_plus(h.derivative(0), 0, method="check").is_zero()
    for _ in range(200):
        vars = VARS[rng.choice((1, 2, 3))]
        g = random_section(rng, vars, max_factors=3, max_mult=2)
        h = random_section(rng, vars, max_factors=3, max_mult=2)
        a, b = rng.randint(-4, 4), rng.randint(-4, 4)
        assert res_x_plus(g.scale(a) + h.scale(b), 0) == \
            res_x_plus(g, 0).scale(a) + res_x_plus(h, 0).scale(b)
    for _ in range(200):
        vars = VARS[rng.choice((1, 2, 3))]
        p = RationalSection.from_polynomial(random_polynomial(rng, vars))
        assert res_x_plus(p, 0, method="check").is_zero()
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
                - h.numer.var_degree(0)
            assert gap >= 2
        assert res_x_plus(h, 0, method="check").is_zero()


def test_localization_sums_polynomial_on_all_datasets():
    """Fixed-point sums of all generator products through degree dim are
    polynomial, and exactly zero strictly below degree dim."""
    start = time.monotonic()
    for name in bundled_names():
        ds = load_dataset(name)
        dim = ds.space.dim
        products = [RestrictedClass.unit(ds.space)]
        frontier = [RestrictedClass.unit(ds.space)]
        while frontier:
            nxt = []
            for cls in frontier:
                for _, g in ds.generators:
                    if g.degree and cls.degree + g.degree <= dim:
                        nxt.append(cls * g)
            products.extend(nxt)
            frontier = nxt
        assert len(products) > 1
        for eta in products:
            total = localization_sum(ds.space, eta)
            poly = total.as_polynomial()  # raises if not a polynomial
            if eta.degree < dim:
                assert poly.is_zero(), f"{name}: nonzero sum below top degree"
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
        assert chambers.complete
        for chamber in chambers.chambers:
            rows = check_circle_kernel_split(model, chamber.representative,
                                             degrees=[0, 2, 4])
            for r in rows:
                assert r.sum_direct and r.equal, (name, chamber.signs, r)
            total = sum(r.kernel_dim for r in rows)
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
        rows, chambers = check_full_kernel(model, degrees=[0, 2, 4])
        assert chambers.complete
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
    rows = check_nonabelian_kernels(model, ds.weyl, [0, 2, 4, 6])
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
    for source in (2, 4, 6):
        row = check_antisymmetrized_span(model, ds.weyl, source)
        assert row.equal, row


def test_weyl_group_laws_randomized():
    """Sign multiplicativity, root-product anti-invariance, pairing invariance,
    the divided-pairing shuffle, and divisibility of antisymmetrizations."""
    ds = load_dataset("s2cubed-su2")
    model = build_model(ds.space, ds.generators, 6)
    weyl = ds.weyl
    integral = torus_integral(ds.space)
    rng = random.Random(5)
    images_cache = {id(w): w.variable_images(ds.space) for w in weyl.elements}
    dpoly = weyl.d_polynomial()

    def rand_class(degree):
        cls = RestrictedClass.zero(ds.space, degree)
        for el in model.basis_by_degree[degree]:
            c = rng.randint(-2, 2)
            if c:
                cls = cls + el.cls.scale(c)
        return cls

    for _ in range(100):
        v, w = rng.choice(weyl.elements), rng.choice(weyl.elements)
        assert weyl.compose(v, w).sign() == v.sign() * w.sign()
    for _ in range(100):
        w = rng.choice(weyl.elements)
        assert dpoly.substitute_variables(images_cache[id(w)]) == \
            dpoly.scale(w.sign())
    for _ in range(100):
        w = rng.choice(weyl.elements)
        eta, zeta = rand_class(rng.choice((0, 2, 4))), rand_class(rng.choice((0, 2)))
        assert integral(weyl.act(w, eta) * weyl.act(w, zeta)) == integral(eta * zeta)
    for _ in range(100):
        eta, zeta = rand_class(rng.choice((0, 2))), rand_class(rng.choice((0, 2)))
        assert integral(eta.mul_pure(dpoly) * zeta.mul_pure(dpoly)) == \
            integral(eta.mul_pure(dpoly * dpoly) * zeta)
    divided = 0
    for _ in range(100):
        anti = weyl.antisymmetrize(rand_class(rng.choice((2, 4, 6))))
        if not anti.is_zero():
            brion_divide(weyl, anti)  # exactness: must not raise
            divided += 1
    assert divided >= 50


def test_cli_reports_are_deterministic(tmp_path):
    """Every CLI command, run twice in fresh interpreters on bundled data,
    emits byte-identical reports, and those reports hash to the recorded
    digests.  The residue report embeds its input path, so it has none."""
    expr = tmp_path / "expr.json"
    expr.write_text(json.dumps({
        "variables": ["X", "Y1"],
        "numerator": [{"coeff": "1", "exponents": [1, 0]}],
        "denominator": [{"form": ["1", "-1"]}, {"form": ["1", "1"]}],
    }))
    commands = [
        (["validate", "s2"],
         "c4ca14841808678ef73e2da2173d60b9932d65b733658eee697bfe1923d38cb8"),
        (["validate", "s2xs2-t2"],
         "6efd5b465704f0a4e262eb636417369f57885a7add2425d06daef579e3af68de"),
        (["validate", "s2xs2-nonisolated"],
         "40121cc5b6a3be6e04b6d0e318357ca3f2064bb546f56597d4188c97f5d6d43a"),
        (["validate", "s2cubed-su2"],
         "a20baa2c654eda24e63d23392af9fc772eefb5cc294a82ec3baebaf6842b3283"),
        (["residue", str(expr)], None),
        (["kernel", "s2", "--circle", "1"],
         "b6802cc28e42a4086169fdc3467bd25b59dc2bbe46182f26320bdab2a6dcbed8"),
        (["kernel", "s2xs2-t2", "--circle", "1,2"],
         "174109630b62fd9877ae5c1f4bd46568addb8eee229982152b45962c08dd1c4b"),
        (["kernel", "s2xs2-nonisolated", "--circle", "1"],
         "bdf97245cd2a13e0b288b519feb01e61734842b15fe34150a2b9616d2916121c"),
        (["kernel", "s2", "--full"],
         "d1daa56eb2c2cbddffc5ad3621a83b2b4d015985a1c90c43d875ca710ad4c788"),
        (["kernel", "s2xs2-t2", "--full"],
         "72ab973176ac5d3f129d37190f1fded1a0e1df2b87c6d9339b4457a5991caba1"),
        (["kernel", "s2cubed-su2", "--nonabelian"],
         "7c4d7ad25888b1582849c26f05740aa95e36ccd336c3de5105d8139f57cd0ef0"),
        (["kernel", "s2", "--circle", "1", "--format", "text"],
         "37b64c17bb52be5db504e6d86adf33400fd01cda4308103cdc07684c5f8d45b5"),
        # a negative leading entry: the calibration integrates along xi as given
        (["kernel", "s2", "--circle=-1"],
         "968aaa1f7328e4e722ee31156f80f9fb0464aff0637b43b5537f2c312a201eb2"),
        (["kernel", "s2xs2-t2", "--circle=-1,2"],
         "eebb1a5320a0f4dc787861fab084bf841eab457dff406095114983c194cee817"),
    ]
    for argv, digest in commands:
        outs = []
        for _ in range(2):
            proc = subprocess.run([sys.executable, "-m", "resloc", *argv],
                                  capture_output=True)
            assert proc.returncode == 0, (argv, proc.stderr)
            outs.append(proc.stdout)
        assert outs[0] == outs[1], f"nondeterministic report for {argv}"
        assert outs[0], f"empty report for {argv}"
        if digest is not None:
            assert hashlib.sha256(outs[0]).hexdigest() == digest, \
                f"report bytes changed for {argv}"
