"""Minimum-uncertainty products for multipartite continuous-variable states.

Closed forms, quadrature oracles and spectral tools for the family of
states minimizing products of quadrature-combination variances, with
entanglement detection thresholds for two, four and six parties.
"""

from .bipartite import (
    PRODUCT_INFIMUM_2,
    SEPARABLE_BOUND_2,
    AngularProfile,
    UncertaintyReport,
    XiParameter,
    coeff,
    f_closed,
    f_profile,
    fock_coeff,
    fock_normalization_defect,
    overlap,
    r_closed,
    residual_norm_sq,
    shell_identity_check,
    shell_sum,
    uncertainty_product,
)
from .multipartite import (
    PRODUCT_INFIMUM_4,
    PRODUCT_INFIMUM_6,
    SEPARABLE_BOUND_4,
    SEPARABLE_BOUND_6,
    OdeFamilyProfile,
    OperatorCoefficients,
    alpha_beta_certificate,
    b_coefficients,
    functional_z,
    g_family,
    h_family,
    pascal_matrix_pair,
    pochhammer_root_residual,
    z4_product,
    z6_product,
)
from .simple_state import SimpleStateSolution, c1_c2, minimize_q0, q0
from .spectral import (
    BandedSymmetricForm,
    EigenPair,
    build_q_form,
    min_eigenpair,
)

__version__ = "0.1.0"

__all__ = [
    "XiParameter",
    "AngularProfile",
    "UncertaintyReport",
    "SEPARABLE_BOUND_2",
    "PRODUCT_INFIMUM_2",
    "SEPARABLE_BOUND_4",
    "PRODUCT_INFIMUM_4",
    "SEPARABLE_BOUND_6",
    "PRODUCT_INFIMUM_6",
    "coeff",
    "r_closed",
    "uncertainty_product",
    "residual_norm_sq",
    "f_closed",
    "f_profile",
    "overlap",
    "fock_coeff",
    "fock_normalization_defect",
    "shell_sum",
    "shell_identity_check",
    "OperatorCoefficients",
    "OdeFamilyProfile",
    "b_coefficients",
    "pascal_matrix_pair",
    "pochhammer_root_residual",
    "functional_z",
    "g_family",
    "h_family",
    "z4_product",
    "z6_product",
    "alpha_beta_certificate",
    "SimpleStateSolution",
    "c1_c2",
    "q0",
    "minimize_q0",
    "BandedSymmetricForm",
    "EigenPair",
    "build_q_form",
    "min_eigenpair",
    "__version__",
]
