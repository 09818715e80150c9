"""Weak second-order stochastic Runge-Kutta methods for Ito and Stratonovich
SDEs with multiplicative noise, with exact order-condition verification via
decorated/exotic forest combinatorics and a Monte Carlo convergence harness."""

from .forests import (
    CoefficientMap,
    DecoratedForest,
    ForestSum,
    bck_coproduct,
    concat,
    convolution_exp,
    deshuffle,
    elementary_differential_string,
    enumerate_forests,
    exact_flow_coefficients,
    finer_decorations,
    generator_map,
    generator_sum,
    gl_exponential,
    parse_forest,
    rk_coefficient_map,
    symmetry,
)
from .randvars import (
    ITO,
    STRATONOVICH,
    AtomTable,
    NoiseDraw,
    RvFamily,
    enumerate_atoms,
    moment,
    sample_draw,
)
from .tableau import (
    MethodTableau,
    load_method,
    make_tableau,
    registry_get,
    registry_names,
    save_method,
    stage_evaluation_order,
    tableaux_equal,
    validate,
)
from .conditions import (
    ConditionRecord,
    ConditionReport,
    check_all_table,
    check_reduced,
    condition_table,
)

__version__ = "0.1.0"
