"""Numerics for the su_q(2) representation realized on the plane."""
from .qcore import (
    HalfInt,
    QParam,
    Regime,
    check_not_root_of_unity,
    inv_q_factorial,
    j_values,
    m_values,
    q_factorial,
    q_number,
    validate_triple,
)
from .qinner import (
    GramReport,
    adjoint_residual,
    b_one,
    gram,
    hermitian_symmetry_residual,
    inner,
)
from .qops import (
    IrrepMatrices,
    PlaneFamily,
    apply_casimir,
    apply_h_minus,
    apply_h_plus,
    apply_q_h3_power,
    casimir_matrix,
    combine,
    matrix_irrep,
    psi_family,
    with_fixed_param,
)
from .qspecial import (
    QFunctionMethod,
    default_construction,
    l_function,
    norm_constant,
    psi,
    q_finite_product,
    q_function,
    q_infinite_product,
    q_integral_exp,
    r_polynomial,
    vilenkin,
)
from .quadrature import (
    PlaneIntegral,
    radial_integral,
    radial_rule,
)
from .suites import SUITE_NAMES, Case, run_suite

__all__ = [
    "HalfInt", "QParam", "Regime", "check_not_root_of_unity",
    "inv_q_factorial", "j_values", "m_values", "q_factorial", "q_number", "validate_triple",
    "QFunctionMethod", "default_construction", "l_function", "norm_constant", "psi",
    "q_finite_product", "q_function", "q_infinite_product", "q_integral_exp",
    "r_polynomial", "vilenkin",
    "PlaneIntegral", "radial_integral", "radial_rule",
    "IrrepMatrices", "PlaneFamily", "apply_casimir",
    "apply_h_minus", "apply_h_plus", "apply_q_h3_power",
    "casimir_matrix", "combine", "matrix_irrep", "psi_family", "with_fixed_param",
    "GramReport", "adjoint_residual", "b_one", "gram",
    "hermitian_symmetry_residual", "inner",
    "SUITE_NAMES", "Case", "run_suite",
]
