"""Numerical engine for monogenic functions in commutative associative algebras."""

from .algebra import (
    AlgebraSpec,
    AlgebraError,
    Element,
    SpecialCase,
    algebra_from_dict,
    load_algebra,
    validate_algebra,
)
from .holo import (
    Contour,
    HoloDomainError,
    HoloFn,
    UnstableQuadrature,
    contour_integrate,
    enclosing_contour,
)
from .monogenic import (
    MonogenicSpec,
    TriadSpec,
    cr_residual,
    eval_explicit,
    eval_integral,
    eval_special,
    extract_components,
    gateaux_derivative,
    monogenic_from_dict,
    validate_triad,
)
from .pde import (
    LAPLACE,
    NoZeroFound,
    PdeSpec,
    ZeroAt,
    central_stencil,
    characteristic_residual,
    definite_sign,
    operator_identity_check,
    p_nonvanishing_scan,
    p_poly,
    pde_from_dict,
    pde_residual,
)
from .resolvent import (
    LineL,
    b_coeffs,
    noninvertible_lines,
    q_table,
    t_coeffs,
)

__version__ = "0.1.0"
