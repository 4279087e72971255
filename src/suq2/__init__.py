"""Numerics for the su_q(2) representation realized on the plane."""
from .qcore import (
    HalfInt,
    QParam,
    Regime,
    check_not_root_of_unity,
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
    psi_tower,
    with_fixed_param,
)
from .qspecial import (
    l_function,
    norm_constant,
    psi,
    q_function,
    q_infinite_product,
    q_integral_exp,
    r_polynomial,
    vilenkin,
)
from .quadrature import (
    PlaneIntegral,
    radial_integral,
)
from .suites import SUITE_NAMES, Case, run_suite

__all__ = [
    "HalfInt", "QParam", "Regime", "check_not_root_of_unity",
    "j_values", "m_values", "q_factorial", "q_number", "validate_triple",
    "l_function", "norm_constant", "psi", "q_function",
    "q_infinite_product", "q_integral_exp", "r_polynomial", "vilenkin",
    "PlaneIntegral", "radial_integral",
    "IrrepMatrices", "PlaneFamily", "apply_casimir",
    "apply_h_minus", "apply_h_plus", "apply_q_h3_power",
    "casimir_matrix", "combine", "matrix_irrep", "psi_family", "psi_tower",
    "with_fixed_param",
    "GramReport", "adjoint_residual", "b_one", "gram",
    "hermitian_symmetry_residual", "inner",
    "SUITE_NAMES", "Case", "run_suite",
]
