"""Exact equivariant localization on fixed-point data.

Represents a compact Hamiltonian torus space by the restrictions of classes to
its fixed components, and computes residue operators, localization sums,
Kirwan-map integrals, and the kernel subspaces of those integrals, all in
exact rational arithmetic.
"""

from .symcore import (
    ExactDivisionError,
    EquivariantPolynomial,
    GradedAlgebra,
    LinearForm,
    POINT_ALGEBRA,
    Q,
    RationalSection,
    ValidationError,
    Variables,
    invert_euler,
)
from .residues import (
    MomentTerm,
    VariableOrdering,
    iterated_residue_selected,
    res_x_plus,
)
from .spaces import (
    AdaptedSpace,
    CircleDirection,
    FixedComponent,
    HamiltonianSpace,
    NonGenericError,
    RestrictedClass,
    adapt_space,
    circle_integral,
    find_generic_direction,
    is_generic,
    kappa_s_integral,
    kappa_t_integral,
    localization_sum,
    torus_integral,
)
from .kernels import (
    ChamberSet,
    DegreeTruncatedModel,
    Subspace,
    build_model,
    check_circle_kernel_split,
    check_full_kernel,
    enumerate_generic_directions,
    residue_kernel_circle,
    torus_kernel,
    tw_subspace,
)
from .weylgrp import (
    WeylData,
    WeylElement,
    brion_divide,
    check_antisymmetrized_span,
    check_nonabelian_kernels,
    invariant_subspace,
)
from .datasets import (
    Dataset,
    SchemaError,
    bundled_names,
    dataset_from_json,
    dataset_to_json,
    load_dataset,
)

__version__ = "0.1.0"
