"""The benchmark's workloads: which inputs each one generates from the seed and
which CLI checks ("ops") it runs on them, in order.

Every seeded choice draws from its own ``random.Random`` keyed by the seed and
the choice's name, so a given seed yields the same CP^3 offset in every
workload that uses CP^3.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

import families

DEFAULT_SEED = 1
HELD_OUT_SEED = 7

# Denominator of the CP^n moment offset, by n.  The offset's numerators are
# distinct, positive and sum below it, so that 0 stays inside the moment
# simplex (the reduced space is a point for every seed).  The denominator is
# fixed because the chamber sweep's cost depends on it: at denominator 9 every
# CP^3 offset needs a single sweep of radius 8, while some offsets over 10, 11
# or 13 force the radius to 16 and cost 8 times as much (see README.md).
# CP^4 only meets `validate`, which uses the moments just for genericity.
OFFSET_DENOMINATOR = {3: 9, 4: 13}

# The circle directions.  The seed varies a direction only within a class of
# equal work, so that runs of different seeds measure the same amount of it:
# on (S^2)^3 the cost of --circle grows from 1.2 s to 3 s at degree 4 as
# entries grow within the box of absolute value 4.  Among the permutations of
# (1, 2, 4), these four cost the same within 2% on (S^2)^3; (2, 4, 1) and
# (4, 2, 1) cost 17% more.  On CP^3 the signed permutations of (1, 2, 4) with
# one fixed point on the positive side cost 0.53 to 0.72 s, so the direction
# is fixed and the seed draws the moment offset instead: over the 14 offsets
# that leave this direction generic with one point on its positive side, the
# cost varies by 2%.  (Times at the probe's nominal speed, see probe.py.)
SPHERE_DIRECTIONS = ((1, 2, 4), (1, 4, 2), (2, 1, 4), (4, 1, 2))
CP3_DIRECTION = (-1, -2, 4)

WORKLOADS = ("torus-full", "circle-split", "nonabelian", "validate")


@dataclass(frozen=True)
class Op:
    label: str
    argv: tuple[str, ...]

    @property
    def source(self) -> str:
        """The dataset argument: a bundled name or a generated file name."""
        return self.argv[1]


def _rng(seed: int, what: str) -> random.Random:
    return random.Random(f"{seed}:{what}")


def projective_offset(seed: int, n: int) -> tuple[Fraction, ...]:
    """The CP^n moment offset.  On CP^3 it leaves CP3_DIRECTION generic with
    exactly one fixed point on its positive side."""
    rng = _rng(seed, f"cp{n}-offset")
    den = OFFSET_DENOMINATOR[n]
    while True:
        nums = rng.sample(range(1, den), n)
        if sum(nums) >= den:
            continue
        offset = tuple(Fraction(v, den) for v in nums)
        if n != 3:
            return offset
        ds = families.projective(3, offset)
        if (families.positive_side(ds, CP3_DIRECTION) == 1
                and families.is_generic_direction(ds, CP3_DIRECTION)):
            return offset


def sphere_direction(seed: int, ds) -> tuple[int, ...]:
    """A generic direction drawn from SPHERE_DIRECTIONS."""
    rng = _rng(seed, f"{ds.name}-circle")
    while True:
        xi = rng.choice(SPHERE_DIRECTIONS)
        if families.is_generic_direction(ds, xi):
            return xi


def generated_inputs(workload: str, seed: int) -> dict:
    """File stem -> generated dataset, for the inputs the workload needs."""
    builders = {
        "torus-full": {"s2x3-t3": lambda: families.sphere_product(3),
                       "cp3-t3": lambda: families.projective(3, projective_offset(seed, 3))},
        "circle-split": {"s2x3-t3": lambda: families.sphere_product(3),
                         "cp3-t3": lambda: families.projective(3, projective_offset(seed, 3))},
        "nonabelian": {"s2x3-diag": lambda: families.sphere_product_diagonal(3)},
        "validate": {"s2x5-t5": lambda: families.sphere_product(5),
                     "cp4-t4": lambda: families.projective(4, projective_offset(seed, 4))},
    }[workload]
    return {stem: build() for stem, build in builders.items()}


def workload_ops(workload: str, seed: int, inputs: dict) -> list[Op]:
    """The ops of one pass.  Generated inputs are named "<stem>.json"."""
    if workload == "torus-full":
        return [Op("s2x3-full", ("kernel", "s2x3-t3.json", "--full", "--max-degree", "4")),
                Op("cp3-full", ("kernel", "cp3-t3.json", "--full", "--max-degree", "4")),
                Op("s2xs2-full", ("kernel", "s2xs2-t2", "--full"))]
    if workload == "circle-split":
        # "--circle=XI": argparse reads "--circle -1,2,4" as a missing value
        xi_s = ",".join(map(str, sphere_direction(seed, inputs["s2x3-t3"])))
        xi_p = ",".join(map(str, CP3_DIRECTION))
        return [Op("s2x3-circle", ("kernel", "s2x3-t3.json", f"--circle={xi_s}",
                                   "--max-degree", "4")),
                Op("cp3-circle", ("kernel", "cp3-t3.json", f"--circle={xi_p}",
                                  "--max-degree", "4"))]
    if workload == "nonabelian":
        return [Op("s2x3-nonabelian", ("kernel", "s2x3-diag.json", "--nonabelian",
                                       "--max-degree", "12")),
                Op("s2cubed-nonabelian", ("kernel", "s2cubed-su2", "--nonabelian"))]
    if workload == "validate":
        return [Op("s2x5-validate", ("validate", "s2x5-t5.json", "--max-degree", "6")),
                Op("cp4-validate", ("validate", "cp4-t4.json"))]
    raise ValueError(f"unknown workload {workload!r}")
