"""helmlab: exact rational verification of helm graph distance matrix identities.

The distance matrix D of the helm graph on 2n-1 vertices has an inverse
(n even) or Moore-Penrose inverse (n odd) of the form

    -1/2 * L + 4/(3(n-1)) * w w'

with L a symmetric zero-row-sum matrix built from circulant rim blocks
and w = (5-n, -e', 2e')'/4.  This package constructs both sides of that
identity independently (closed forms vs elimination and BFS oracles)
and checks them for exact equality, along with the determinant, rank,
inertia and positive-semidefiniteness facts that surround it.
"""

from .exact_core import (
    Decomposition,
    InertiaTriple,
    RatMatrix,
    VerificationError,
    determinant,
    inertia,
    inverse,
    null_space_basis,
    penrose_check,
    pseudoinverse,
    rank,
    solve,
)
from .circulant import (
    alternating_signs,
    circulant_product,
    cycle_signless_laplacian_spec,
    materialize,
    rim_distance_spec,
)
from .graphs import bfs_distance_matrix, build_helm, helm_distance_block
from .closed_form import (
    HelmCase,
    HelmVectors,
    closed_form_inverse,
    closed_form_mp_inverse,
    make_even_case,
    make_odd_case,
    make_w_alpha,
    rank_one_scale,
)
from .characterization import (
    SixConditions,
    build_kernel_projector,
    check_conditions_i_vi,
    check_equiv_formulation,
    check_uniqueness,
    correction_matrix,
    rank_l_check,
    schur_psd_check,
)

__version__ = "0.1.0"

__all__ = [
    "Decomposition",
    "HelmCase",
    "HelmVectors",
    "InertiaTriple",
    "RatMatrix",
    "SixConditions",
    "VerificationError",
    "alternating_signs",
    "bfs_distance_matrix",
    "build_helm",
    "build_kernel_projector",
    "check_conditions_i_vi",
    "check_equiv_formulation",
    "check_uniqueness",
    "circulant_product",
    "closed_form_inverse",
    "closed_form_mp_inverse",
    "correction_matrix",
    "cycle_signless_laplacian_spec",
    "determinant",
    "helm_distance_block",
    "inertia",
    "inverse",
    "make_even_case",
    "make_odd_case",
    "make_w_alpha",
    "materialize",
    "null_space_basis",
    "penrose_check",
    "pseudoinverse",
    "rank",
    "rank_l_check",
    "rank_one_scale",
    "rim_distance_spec",
    "schur_psd_check",
    "solve",
]
