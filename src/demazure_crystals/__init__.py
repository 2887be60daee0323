"""Exact Kashiwara-crystal combinatorics for finite root systems.

Builds highest-weight crystals inside a concrete realization of the
infinity crystal, constructs Demazure subsets along reduced words, applies
the Demazure operator on integer formal sums, and verifies the structural
statements (string property, starred-operator identities, reduced-word
independence) against crystal-free character and dimension oracles.
"""

from .cartan import (
    CartanData,
    SUPPORTED_TYPES,
    Weight,
    WeylGroup,
    apply_word,
    cartan_matrix,
    enumerate_weyl,
    reflect,
    w_add,
    w_scale,
    w_sub,
)
from .core import (
    NEG_INF,
    ElementaryCrystal,
    FormalSum,
    TensorCrystal,
)
from .binf import (
    BInfRealization,
    CapacityError,
    b_inf,
)
from .blambda import (
    BLambdaCrystal,
    b_lambda,
    char_map,
    clear_caches,
)
from .charring import (
    WeightPolynomial,
    algebraic_demazure,
    apply_demazure_word,
    freudenthal_character,
    render_polynomial,
    render_weight,
    weyl_dim,
)
from .demazure import (
    CheckReport,
    STRUCTURAL_STATEMENTS,
    binf_consistency_check,
    braid_order,
    braid_witness_search,
    demazure_binf,
    demazure_blambda,
    demazure_chain,
    demazure_operator,
    refined_formula_check,
    star_involution_check,
    string_property_check,
    structural_check,
    word_independence_check,
)
from .grids import DEFAULT_DEPTH, GRID_TYPES, grid_lambdas, star_depth

__version__ = "0.1.0"

__all__ = [
    "CartanData",
    "SUPPORTED_TYPES",
    "Weight",
    "WeylGroup",
    "apply_word",
    "cartan_matrix",
    "enumerate_weyl",
    "reflect",
    "w_add",
    "w_scale",
    "w_sub",
    "NEG_INF",
    "ElementaryCrystal",
    "FormalSum",
    "TensorCrystal",
    "BInfRealization",
    "CapacityError",
    "b_inf",
    "BLambdaCrystal",
    "b_lambda",
    "char_map",
    "clear_caches",
    "WeightPolynomial",
    "algebraic_demazure",
    "apply_demazure_word",
    "freudenthal_character",
    "render_polynomial",
    "render_weight",
    "weyl_dim",
    "CheckReport",
    "STRUCTURAL_STATEMENTS",
    "binf_consistency_check",
    "braid_order",
    "braid_witness_search",
    "demazure_binf",
    "demazure_blambda",
    "demazure_chain",
    "demazure_operator",
    "refined_formula_check",
    "star_involution_check",
    "string_property_check",
    "structural_check",
    "word_independence_check",
    "DEFAULT_DEPTH",
    "GRID_TYPES",
    "grid_lambdas",
    "star_depth",
    "__version__",
]
