"""Numerical engine for monogenic functions in commutative associative algebras.

The package exports the user API; everything else is reached through its module.
"""

from .algebra import (
    AlgebraSpec,
    AlgebraError,
    algebra_from_dict,
    load_algebra,
    validate_algebra,
)
from .holo import (
    HoloDomainError,
    HoloFn,
    UnstableQuadrature,
    holo_from_dict,
)
from .monogenic import (
    MonogenicSpec,
    TriadSpec,
    cr_residual,
    eval_explicit,
    eval_integral,
    eval_special,
    gateaux_derivative,
    monogenic_from_dict,
    validate_triad,
)
from .pde import (
    NoZeroFound,
    PdeSpec,
    ZeroAt,
    characteristic_residual,
    operator_identity_check,
    p_nonvanishing_scan,
    pde_from_dict,
    pde_residual,
)

__all__ = [
    # the specs, their loaders and validators
    "AlgebraSpec", "TriadSpec", "HoloFn", "MonogenicSpec", "PdeSpec",
    "algebra_from_dict", "load_algebra", "holo_from_dict", "monogenic_from_dict", "pde_from_dict",
    "validate_algebra", "validate_triad",
    # the three routes and the Gateaux derivative
    "eval_explicit", "eval_integral", "eval_special", "gateaux_derivative",
    # the checks of monogenicity and of a PDE
    "cr_residual", "characteristic_residual", "pde_residual", "operator_identity_check",
    "p_nonvanishing_scan", "NoZeroFound", "ZeroAt",
    # the errors
    "AlgebraError", "HoloDomainError", "UnstableQuadrature",
]

__version__ = "0.1.0"
