"""Generated Hamiltonian spaces for the benchmark, written from code.

Three families, each returned as a ``resloc.datasets.Dataset`` and written to
disk through ``dataset_to_json`` so that resloc only ever sees JSON files:

* ``sphere_product(k)``: (S^2)^k with the full torus T^k, 2^k fixed points.
* ``projective(n, offset)``: CP^n with T^n, fixed points p_0..p_n.  The weights
  at p_i are x_j - x_i (x_0 = 0), the generator u restricts to x_i at p_i, and
  the moment of p_i is e_i (e_0 = 0) minus a rational offset.
* ``sphere_product_diagonal(k)``: (S^2)^k with the diagonal circle and the
  antipodal Z/2 as Weyl group.  Only odd k: for even k some fixed points have
  moment 0 and no circle direction is generic.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import product

from resloc.datasets import Dataset, dataset_to_json
from resloc.spaces import FixedComponent, HamiltonianSpace, RestrictedClass
from resloc.symcore import POINT_ALGEBRA, EquivariantPolynomial, LinearForm, Variables
from resloc.weylgrp import WeylData, WeylElement

Q = Fraction


def _point_lines(vars: Variables, weights) -> tuple:
    zero = EquivariantPolynomial.zero(vars, POINT_ALGEBRA)
    return tuple((LinearForm.make(w), zero) for w in weights)


def _sign_name(signs) -> str:
    return "".join("N" if s > 0 else "S" for s in signs)


def sphere_product(k: int) -> Dataset:
    """(S^2)^k under T^k: moment s in {+-1}^k, weight -s_i e_i on axis i."""
    vars = Variables(tuple(f"X{i + 1}" for i in range(k)))
    signs = list(product((1, -1), repeat=k))
    comps = []
    for s in signs:
        weights = [[-s[i] if j == i else 0 for j in range(k)] for i in range(k)]
        comps.append(FixedComponent(_sign_name(s), tuple(Q(v) for v in s),
                                    POINT_ALGEBRA, _point_lines(vars, weights)))
    space = HamiltonianSpace(vars, 2 * k, comps)
    zero = EquivariantPolynomial.zero(vars, POINT_ALGEBRA)
    gens = [("one", RestrictedClass.unit(space))]
    for axis in range(k):
        x = EquivariantPolynomial.variable(vars, axis)
        gens.append((f"u{axis + 1}", RestrictedClass(
            space, 2, {_sign_name(s): (x if s[axis] < 0 else zero) for s in signs})))
    return Dataset(f"s2x{k}-t{k}", space, gens)


def projective(n: int, offset: tuple[Fraction, ...]) -> Dataset:
    """CP^n under T^n with the moment of p_i equal to e_i - offset."""
    vars = Variables(tuple(f"X{i + 1}" for i in range(n)))

    def unit(i: int) -> list[int]:
        return [1 if j + 1 == i else 0 for j in range(n)]

    comps = []
    for i in range(n + 1):
        weights = [[a - b for a, b in zip(unit(j), unit(i))]
                   for j in range(n + 1) if j != i]
        moment = tuple(Q(e) - c for e, c in zip(unit(i), offset))
        comps.append(FixedComponent(f"p{i}", moment, POINT_ALGEBRA,
                                    _point_lines(vars, weights)))
    space = HamiltonianSpace(vars, 2 * n, comps)
    restrictions = {"p0": EquivariantPolynomial.zero(vars, POINT_ALGEBRA)}
    for i in range(1, n + 1):
        restrictions[f"p{i}"] = EquivariantPolynomial.variable(vars, i - 1)
    gens = [("one", RestrictedClass.unit(space)),
            ("u", RestrictedClass(space, 2, restrictions))]
    return Dataset(f"cp{n}-t{n}", space, gens)


def sphere_product_diagonal(k: int) -> Dataset:
    """(S^2)^k under the diagonal circle, with the antipodal flip as Z/2."""
    if k % 2 == 0:
        raise ValueError("the diagonal family needs odd k: even k puts "
                         "fixed points at moment 0")
    vars = Variables(("X",))
    signs = list(product((1, -1), repeat=k))
    names = [_sign_name(s) for s in signs]
    comps = tuple(
        FixedComponent(name, (Q(sum(s)),), POINT_ALGEBRA,
                       _point_lines(vars, [[-e] for e in s]))
        for name, s in zip(names, signs))
    space = HamiltonianSpace(vars, 2 * k, comps)
    zero = EquivariantPolynomial.zero(vars, POINT_ALGEBRA)
    x = EquivariantPolynomial.variable(vars, 0)
    gens = [("one", RestrictedClass.unit(space))]
    for axis in range(k):
        gens.append((f"u{axis + 1}", RestrictedClass(
            space, 2, {name: (x if s[axis] < 0 else zero)
                       for name, s in zip(names, signs)})))
    count = len(signs)
    ident_maps = tuple(((Q(1),),) for _ in signs)
    ident = WeylElement(((Q(1),),), tuple(range(count)), ident_maps)
    # signs are listed in binary order, so index count-1-i is the antipode of i
    flip = WeylElement(((Q(-1),),), tuple(count - 1 - i for i in range(count)),
                       ident_maps)
    weyl = WeylData(space, [ident, flip], [LinearForm.make([Q(1)])])
    return Dataset(f"s2x{k}-diag", space, gens, weyl)


# -- directions and files ------------------------------------------------------


def is_generic_direction(ds: Dataset, xi: tuple[int, ...]) -> bool:
    """No moment value and no normal weight is orthogonal to xi.  The
    benchmark checks this itself, so its inputs do not rest on the code
    under test."""
    for f in ds.space.components:
        if sum(Q(m) * v for m, v in zip(f.moment, xi)) == 0:
            return False
        for w, _ in f.normal_lines:
            if sum(c * v for c, v in zip(w.coeffs, xi)) == 0:
                return False
    return True


def positive_side(ds: Dataset, xi: tuple[int, ...]) -> int:
    """Number of fixed points whose moment pairs positively with xi."""
    return sum(1 for f in ds.space.components
               if sum(Q(m) * v for m, v in zip(f.moment, xi)) > 0)


def write_dataset(ds: Dataset, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(dataset_to_json(ds), fh, indent=1, sort_keys=True)
        fh.write("\n")
