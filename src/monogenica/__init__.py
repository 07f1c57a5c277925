"""Numerical engine for monogenic functions in commutative associative algebras."""

from .algebra import (
    AlgebraSpec,
    AlgebraError,
    Element,
    Singular,
    SpecialCase,
    ValidationReport,
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
    embed,
    eval_explicit,
    eval_integral,
    eval_special,
    extract_components,
    gateaux_derivative,
    monogenic_from_dict,
    validate_triad,
    xi,
)
from .pde import (
    LAPLACE,
    NoZeroFound,
    PdeSpec,
    ZeroAt,
    apply_operator,
    central_stencil,
    characteristic_residual,
    operator_identity_check,
    p_nonvanishing_scan,
    p_poly,
    pde_from_dict,
    pde_residual,
    pde_to_dict,
)
from .resolvent import (
    LineL,
    OnSpectrum,
    b_coeffs,
    lemma2_audit,
    noninvertible_lines,
    q_table,
    resolvent_closed,
    resolvent_recurrence,
    t_coeffs,
)

__version__ = "0.1.0"
