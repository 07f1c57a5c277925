"""Constant-coefficient PDEs solved by components of monogenic functions.

A triad satisfying the characteristic equation
sum C_{a,b,g} * e2^b * e3^g = 0 makes every component of every monogenic
function a solution of the corresponding order-N equation.  This module
evaluates the characteristic residual, the scalar symbol P(a, b), a scan
for the real zeros of P, and finite-difference verification of the PDE and
of the operator identity L_N(Phi) = Phi^(N) * (characteristic sum).

The scan's NoZeroFound is a proof for a definite symbol, a constant plus
even monomials of that constant's sign (definite_sign), which is settled
from the signs of its terms without a sample; for any other symbol it is
evidence from samples.  A ZeroAt is a sampled or bisected point near a
zero.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence, Union

import numpy as np

from .algebra import AlgebraSpec, Element
from .holo import parse_int, parse_list, parse_real
from .monogenic import (
    MonogenicSpec,
    Point,
    TriadSpec,
    eval_explicit,
    gateaux_derivative,
    read_step,
    stencil_points,
)


@dataclass(frozen=True)
class PdeSpec:
    """L_N = sum over alpha+beta+gamma = N of C * d^N / dx^a dy^b dz^g."""

    N: int
    terms: tuple[tuple[int, int, int, float], ...]

    @classmethod
    def create(cls, N: int, terms: Sequence[Sequence]) -> "PdeSpec":
        """N and the exponents are read by holo.parse_int, each coefficient by parse_real, a term as four."""
        N = parse_int(N)
        if N < 1:
            raise ValueError("PDE order must be positive")
        clean = []
        for alpha, beta, gamma, c in map(parse_list, parse_list(terms)):
            alpha, beta, gamma = parse_int(alpha), parse_int(beta), parse_int(gamma)
            if min(alpha, beta, gamma) < 0 or alpha + beta + gamma != N:
                raise ValueError(f"exponents ({alpha},{beta},{gamma}) must be >= 0 and sum to N={N}")
            clean.append((alpha, beta, gamma, parse_real(c)))
        if not clean:
            raise ValueError("PDE needs at least one term")
        return cls(N, tuple(clean))

    @cached_property
    def stencil(self) -> tuple[np.ndarray, np.ndarray]:
        """Distinct grid offsets (K, 3) of discrete L_N, and weights (terms, K).

        Row t of the weights is the tensor product of 1-D central stencils
        of term t, without its coefficient or 1/h^N; an offset shared by
        several terms is sampled once.  The sample points are p + h *
        offsets.  Built once per PdeSpec.
        """
        index: dict[tuple[int, int, int], int] = {}
        rows = []
        for *exponents, _ in self.terms:
            (ox, wx), (oy, wy), (oz, wz) = map(central_stencil, exponents)
            row = {}
            # Python ints and floats throughout, one array per output at the end.
            for i, cx in zip(ox, wx):
                for j, cy in zip(oy, wy):
                    for k, cz in zip(oz, wz):
                        w = cx * cy * cz
                        if w != 0.0:
                            row[index.setdefault((i, j, k), len(index))] = w
            rows.append(row)
        weights = [[row.get(c, 0.0) for c in range(len(index))] for row in rows]
        return np.array(list(index), dtype=float), np.array(weights)


LAPLACE = PdeSpec.create(2, [(2, 0, 0, 1.0), (0, 2, 0, 1.0), (0, 0, 2, 1.0)])


@dataclass(frozen=True)
class ZeroAt:
    a: float
    b: float


@dataclass(frozen=True)
class NoZeroFound:
    pass


def characteristic_residual(spec: AlgebraSpec, triad: TriadSpec, pde: PdeSpec) -> Element:
    """sum C * e2^beta * e3^gamma as an algebra element; zero means characteristic."""
    e2 = triad.a_vec
    e3 = triad.b_vec
    out = np.zeros(spec.n, dtype=np.complex128)
    for _, beta, gamma, c in pde.terms:
        if beta and gamma:
            term = spec.multiply(spec.power(e2, beta), spec.power(e3, gamma))
        else:  # one factor is the unit
            term = spec.power(e2, beta) if beta else spec.power(e3, gamma)
        out += c * term
    return out


def p_poly(terms: Sequence[tuple[int, int, int, float]], a, b):
    """The symbol P(a, b) = sum C * a^beta * b^gamma over terms, broadcasting over a and b.

    terms are (alpha, beta, gamma, C) rows, such as PdeSpec.terms.  Each
    term is (C a^beta) b^gamma, summed in term order; a factor x^0 = 1
    changes no bit.
    """
    P = 0.0
    for _, beta, gamma, c in terms:
        P = P + c * a**beta * b**gamma
    return P


# The grid of p_nonvanishing_scan, [-SCAN_BOX, SCAN_BOX]^2 sampled 101 times
# per axis, and the directions of its leading-part test: 720 angles around
# the circle, with their cosines and sines.
SCAN_BOX = 10.0
_AXIS = np.linspace(-SCAN_BOX, SCAN_BOX, 101)
_THETA = np.linspace(0.0, 2.0 * np.pi, 720, endpoint=False)
_COS, _SIN = np.cos(_THETA), np.sin(_THETA)


def definite_sign(terms: Sequence[tuple[int, int, int, float]]) -> float:
    """The sign P(a, b) keeps on all of R^2 by the signs of its terms: 1.0, -1.0, or 0.0 if none.

    terms are (alpha, beta, gamma, C) rows, such as PdeSpec.terms.  The
    terms with a nonzero coefficient settle the sign when every one has
    even beta and gamma and a finite coefficient, at least one is a
    constant (beta = gamma = 0), and all have one sign: then P is a
    constant c0 plus even monomials of c0's sign, and |P| >= |c0|
    everywhere.  This is P's natural interval extension over the
    unbounded box, each even power taken as [0, inf] (Moore, Kearfott and
    Cloud, Introduction to Interval Analysis, SIAM 2009, ch. 5-6), on the
    symbols whose constants share one sign.  No sum is formed: constants
    of both signs settle nothing, and the scan samples such a symbol.
    """
    live = [(beta, gamma, c) for _, beta, gamma, c in terms if c != 0.0]
    if (not any(beta == gamma == 0 for beta, gamma, _ in live)
            or any(beta % 2 or gamma % 2 or not math.isfinite(c) for beta, gamma, c in live)):
        return 0.0
    if all(c > 0.0 for _, _, c in live):
        return 1.0
    if all(c < 0.0 for _, _, c in live):
        return -1.0
    return 0.0


def p_nonvanishing_scan(pde: PdeSpec) -> Union[NoZeroFound, ZeroAt]:
    """Whether P(a, b) has a real zero: NoZeroFound, or ZeroAt a point near one.

    A definite symbol (definite_sign) is settled first, from the signs of
    its terms: its NoZeroFound is a proof, and no value of P is computed.
    Any other symbol is sampled on a uniform grid on [-SCAN_BOX, SCAN_BOX]^2,
    then its leading homogeneous part is sign-checked along a circle of
    directions (zeros escaping the box); its NoZeroFound is evidence, not a
    proof.  Every value of P, on the grid, along the directions (the
    top-degree terms at their cosines and sines), on the ray and in the
    bisection, comes from p_poly.  The grid is read by one argmin and one
    argmax: they give min P and max P, hence max |P|, and where P keeps one
    sign the sample nearest zero; only a grid on which P takes both signs
    (or holds a NaN) takes |P| as well.
    """
    if definite_sign(pde.terms):
        return NoZeroFound()
    P = p_poly(pde.terms, _AXIS[:, None], _AXIS)
    k_min, k_max = int(P.argmin()), int(P.argmax())
    p_min, p_max = P.flat[k_min], P.flat[k_max]
    scale = max(1.0, -p_min, p_max)  # max(1, max |P|); a NaN compares false in both
    if p_min >= 0.0:
        k = k_min
    elif p_max <= 0.0:
        k = k_max
    else:
        k = int(np.abs(P).argmin())
    ia, ib = divmod(k, len(_AXIS))
    if abs(P[ia, ib]) <= 1e-9 * scale:
        return ZeroAt(float(_AXIS[ia]), float(_AXIS[ib]))
    if p_min < 0.0 < p_max:
        # Continuity forces a zero inside the box; bisect toward it along
        # the segment joining a negative and a positive sample.
        return _bisect(pde, _AXIS[list(divmod(k_min, len(_AXIS)))],
                       _AXIS[list(divmod(k_max, len(_AXIS)))], operator.lt)

    # Leading homogeneous part along directions: a sign change there means
    # P takes both signs far outside any box.
    deg = max(beta + gamma for _, beta, gamma, _ in pde.terms)
    if deg > 0:
        lead = p_poly([t for t in pde.terms if t[1] + t[2] == deg], _COS, _SIN)
        if lead.min() < 0.0 < lead.max():
            k = int(np.argmin(lead))
            direction = np.array([np.cos(_THETA[k]), np.sin(_THETA[k])])
            r = SCAN_BOX
            while p_poly(pde.terms, *(r * direction)) >= 0 and r < 1e9:
                r *= 2.0
            if p_poly(pde.terms, *(r * direction)) < 0:
                return _bisect(pde, np.zeros(2), r * direction, operator.ge)
    return NoZeroFound()


def _bisect(pde: PdeSpec, lo: np.ndarray, hi: np.ndarray, keeps_lo) -> ZeroAt:
    """The midpoint after 200 halvings of the segment from lo to hi.

    Each midpoint replaces lo where keeps_lo(P(mid), 0), hi otherwise, so
    a NaN value replaces hi under both tests that are used, < 0 and >= 0.
    """
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if keeps_lo(p_poly(pde.terms, mid[0], mid[1]), 0):
            lo = mid
        else:
            hi = mid
    return ZeroAt(float(mid[0]), float(mid[1]))


# -- finite-difference machinery -------------------------------------------------


H_PDE = 1e-3  # the default step of the PDE stencil (check --h-pde)


def central_stencil(order: int) -> tuple[range, list[float]]:
    """Offsets and weights of the O(h^2) central stencil for d^order/dx^order.

    [1, -2, 1] convolved order // 2 times, then [-1/2, 0, 1/2] for an odd
    order, in Python floats; the weights are small dyadic numbers, exact in
    any summation order.
    """
    coeffs = [1.0]
    for factor in [(1.0, -2.0, 1.0)] * (order // 2) + [(-0.5, 0.0, 0.5)] * (order % 2):
        out = [0.0] * (len(coeffs) + 2)
        for i, c in enumerate(coeffs):
            for j, f in enumerate(factor):
                out[i + j] += c * f
        coeffs = out
    half = len(coeffs) // 2
    return range(-half, half + 1), coeffs


def _combine(pde: PdeSpec, weights: np.ndarray, values: np.ndarray, h: float) -> Element:
    """sum_t C_t * (stencil of term t applied to values) / h^N.

    values is (..., K, n), one stencil per leading index.  Each term's
    stencil is summed on its own first, so its differences of nearby
    samples cancel before the 1/h^N scaling.
    """
    coeffs = np.array([c for *_, c in pde.terms])
    return coeffs @ (weights @ values) / h**pde.N


def pde_stencil(pde: PdeSpec, p: Union[Point, np.ndarray], h: float) -> np.ndarray:
    """The distinct sample points of discrete L_N at every point: (K N, 3), K rows per point."""
    return stencil_points(p, h, pde.stencil[0])


def pde_residual(
    ms: MonogenicSpec,
    pde: PdeSpec,
    p: Union[Point, np.ndarray],
    h: float = H_PDE,
    values: np.ndarray | None = None,
) -> Element:
    """Discrete L_N applied to the components of the monogenic function.

    p is one point, giving an (n,) residual, or an (N, 3) array, giving
    (N, n).  The distinct stencil points of all of them go through
    eval_explicit in one batched call, unless values, the values at
    pde_stencil(pde, p, h), are given.  h is read by monogenic.read_step.
    """
    h = read_step(h)
    offsets, weights = pde.stencil
    shape = np.shape(p)[:-1]
    if values is None:
        values = eval_explicit(ms, stencil_points(p, h, offsets))
    values = np.reshape(values, (-1, len(offsets), ms.algebra.n))
    return _combine(pde, weights, values, h).reshape(shape + (ms.algebra.n,))


def operator_identity_check(
    ms: MonogenicSpec,
    pde: PdeSpec,
    p: Point,
    h: float = H_PDE,
    discrete: Element | None = None,
    char: Element | None = None,
    derivative: Element | None = None,
) -> Element:
    """Difference Phi^(N) * (sum C e2^b e3^g) - discrete L_N(Phi); near zero on valid data.

    Phi^(N) comes from the explicit route, so no quadrature runs here.
    discrete is pde_residual(ms, pde, p, h), char is
    characteristic_residual(ms.algebra, ms.triad, pde) and derivative is
    Phi^(N) at p, if the caller already has them.
    """
    spec = ms.algebra
    if char is None:
        char = characteristic_residual(spec, ms.triad, pde)
    if derivative is None:
        derivative = gateaux_derivative(ms, p, pde.N)
    analytic = spec.multiply(derivative, char)
    if discrete is None:
        discrete = pde_residual(ms, pde, p, h)
    return analytic - discrete


def pde_from_dict(data: Mapping) -> PdeSpec:
    """The JSON form, {"N": N, "terms": [...]}, which PdeSpec.create reads; ValueError if it is malformed."""
    try:
        return PdeSpec.create(data["N"], data["terms"])
    except (LookupError, TypeError) as exc:
        raise ValueError(f"malformed pde spec: {exc}") from exc
