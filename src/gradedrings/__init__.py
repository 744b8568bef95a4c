"""Exact computation with finite-dimensional group-graded algebras.

The package represents a G-graded algebra by structure constants over the
rationals or a prime field, and decides the structural properties of the
gradation: strong gradation, nondegenerate products, graded and ungraded
simplicity, whether subsets of the group classify the identity-component
sub-bimodules, crossed-product structure with its twisting data, and the
subgroup/subring correspondence.  Every decision procedure has a matching
brute-force oracle usable at tiny scale.
"""

from .algebra import Element, GradedAlgebra, validate_algebra
from .analysis import (
    CheckResult,
    CrossedProductData,
    centralizer_of_Re,
    check_centralizer_condition,
    check_controlled,
    check_crossed_controlled,
    check_graded_simple,
    check_necessary_conditions,
    check_nondegenerate,
    check_picard_injective,
    check_simple,
    check_strongly_graded,
    check_valid,
    detect_crossed_product,
    is_inner,
    subring_correspondence,
    verify_crossed_identities,
)
from .bimodule import Verdict
from .builders import (
    crossed_product,
    full_matrix_algebra,
    galois_skew_example,
    group_algebra,
    inner_automorphism_matrix,
    m3_example,
    skew_group_ring,
    twisted_group_algebra,
)
from .errors import BudgetError, InternalInconsistency, InvalidInput
from .groups import (
    FiniteGroup,
    cyclic_group,
    direct_product,
    klein_four_group,
    symmetric_group,
    trivial_group,
    validate_group,
)
from .linalg import GF, RATIONALS, Field, Matrix, Subspace
from .oracle import (
    controlled_oracle,
    enumerate_sub_bimodules,
    ideal_oracle,
    subring_oracle,
)
from .serialize import algebra_from_json, algebra_to_json, load_algebra, save_algebra

__all__ = [
    "BudgetError",
    "CheckResult",
    "CrossedProductData",
    "Element",
    "Field",
    "FiniteGroup",
    "GF",
    "GradedAlgebra",
    "InternalInconsistency",
    "InvalidInput",
    "Matrix",
    "RATIONALS",
    "Subspace",
    "Verdict",
    "algebra_from_json",
    "algebra_to_json",
    "centralizer_of_Re",
    "check_centralizer_condition",
    "check_controlled",
    "check_crossed_controlled",
    "check_graded_simple",
    "check_necessary_conditions",
    "check_nondegenerate",
    "check_picard_injective",
    "check_simple",
    "check_strongly_graded",
    "check_valid",
    "controlled_oracle",
    "crossed_product",
    "cyclic_group",
    "detect_crossed_product",
    "direct_product",
    "enumerate_sub_bimodules",
    "full_matrix_algebra",
    "galois_skew_example",
    "group_algebra",
    "ideal_oracle",
    "inner_automorphism_matrix",
    "is_inner",
    "klein_four_group",
    "load_algebra",
    "m3_example",
    "save_algebra",
    "skew_group_ring",
    "subring_correspondence",
    "subring_oracle",
    "symmetric_group",
    "trivial_group",
    "twisted_group_algebra",
    "validate_algebra",
    "validate_group",
    "verify_crossed_identities",
]

__version__ = "0.1.0"
