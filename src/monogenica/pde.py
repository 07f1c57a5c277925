"""Constant-coefficient PDEs solved by components of monogenic functions.

A triad satisfying the characteristic equation
sum C_{a,b,g} * e2^b * e3^g = 0 makes every component of every monogenic
function a solution of the corresponding order-N equation.  This module
evaluates the characteristic residual, the scalar symbol P(a, b), a
heuristic non-vanishing scan for it, and finite-difference verification of
the PDE and of the operator identity L_N(Phi) = Phi^(N) * (characteristic sum).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence, Union

import numpy as np

from .algebra import AlgebraSpec, Element
from .monogenic import MonogenicSpec, Point, TriadSpec, eval_explicit, gateaux_derivative


@dataclass(frozen=True)
class PdeSpec:
    """L_N = sum over alpha+beta+gamma = N of C * d^N / dx^a dy^b dz^g."""

    N: int
    terms: tuple[tuple[int, int, int, float], ...]

    @classmethod
    def create(cls, N: int, terms: Sequence[Sequence]) -> "PdeSpec":
        if N < 1:
            raise ValueError("PDE order must be positive")
        clean = []
        for alpha, beta, gamma, c in terms:
            alpha, beta, gamma = int(alpha), int(beta), int(gamma)
            if min(alpha, beta, gamma) < 0 or alpha + beta + gamma != N:
                raise ValueError(f"exponents ({alpha},{beta},{gamma}) must be >= 0 and sum to N={N}")
            clean.append((alpha, beta, gamma, float(c)))
        if not clean:
            raise ValueError("PDE needs at least one term")
        return cls(N, tuple(clean))


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
        out += c * spec.multiply(spec.power(e2, beta), spec.power(e3, gamma))
    return out


def p_poly(pde: PdeSpec, a: float, b: float) -> float:
    """Scalar symbol P(a, b) = sum C * a^beta * b^gamma."""
    return float(sum(c * a**beta * b**gamma for _, beta, gamma, c in pde.terms))


def p_nonvanishing_scan(
    pde: PdeSpec, box: float = 10.0, grid: int = 101
) -> Union[NoZeroFound, ZeroAt]:
    """Heuristic witness that P(a, b) != 0 on the reals.

    Samples a uniform grid on [-box, box]^2, then sign-checks the leading
    homogeneous part along a circle of directions (zeros escaping the box).
    A reported NoZeroFound is evidence, not a proof.
    """
    axis = np.linspace(-box, box, grid)
    A, B = np.meshgrid(axis, axis, indexing="ij")
    P = np.zeros_like(A)
    for _, beta, gamma, c in pde.terms:
        P += c * A**beta * B**gamma
    scale = max(1.0, float(np.max(np.abs(P))))
    flat = int(np.argmin(np.abs(P)))
    ia, ib = np.unravel_index(flat, P.shape)
    if abs(P[ia, ib]) <= 1e-9 * scale:
        return ZeroAt(float(A[ia, ib]), float(B[ia, ib]))
    if P.min() < 0.0 < P.max():
        # Continuity forces a zero inside the box; bisect toward it along
        # the segment joining a negative and a positive sample.
        neg = np.unravel_index(int(np.argmin(P)), P.shape)
        pos = np.unravel_index(int(np.argmax(P)), P.shape)
        lo = np.array([A[neg], B[neg]])
        hi = np.array([A[pos], B[pos]])
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if p_poly(pde, mid[0], mid[1]) < 0:
                lo = mid
            else:
                hi = mid
        return ZeroAt(float(mid[0]), float(mid[1]))

    # Leading homogeneous part along directions: a sign change there means
    # P takes both signs far outside any box.
    deg = max(beta + gamma for _, beta, gamma, _ in pde.terms)
    if deg > 0:
        theta = np.linspace(0.0, 2.0 * np.pi, 720, endpoint=False)
        lead = np.zeros_like(theta)
        for _, beta, gamma, c in pde.terms:
            if beta + gamma == deg:
                lead += c * np.cos(theta) ** beta * np.sin(theta) ** gamma
        if lead.min() < 0.0 < lead.max():
            k = int(np.argmin(lead))
            direction = np.array([np.cos(theta[k]), np.sin(theta[k])])
            r = box
            while p_poly(pde, *(r * direction)) >= 0 and r < 1e9:
                r *= 2.0
            if p_poly(pde, *(r * direction)) < 0:
                lo, hi = np.zeros(2), r * direction
                for _ in range(200):
                    mid = 0.5 * (lo + hi)
                    if p_poly(pde, mid[0], mid[1]) >= 0:
                        lo = mid
                    else:
                        hi = mid
                return ZeroAt(float(mid[0]), float(mid[1]))
    return NoZeroFound()


# -- finite-difference machinery -------------------------------------------------


def central_stencil(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Offsets and weights of the O(h^2) central stencil for d^order/dx^order."""
    coeffs = np.array([1.0])
    for _ in range(order // 2):
        coeffs = np.convolve(coeffs, [1.0, -2.0, 1.0])
    if order % 2:
        coeffs = np.convolve(coeffs, [-0.5, 0.0, 0.5])
    half = len(coeffs) // 2
    offsets = np.arange(-half, half + 1)
    return offsets, coeffs


def _operator_stencil(pde: PdeSpec, p: Point, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Distinct sample points (K, 3) of discrete L_N at p, and weights (terms, K).

    Row t of the weights is the tensor product of 1-D central stencils of
    term t, without its coefficient or 1/h^N; a point shared by several
    terms is sampled once.
    """
    index: dict[tuple[int, int, int], int] = {}
    rows = []
    for alpha, beta, gamma, _ in pde.terms:
        ox, wx = central_stencil(alpha)
        oy, wy = central_stencil(beta)
        oz, wz = central_stencil(gamma)
        row = {}
        for i, cx in zip(ox, wx):
            for j, cy in zip(oy, wy):
                for k, cz in zip(oz, wz):
                    w = cx * cy * cz
                    if w != 0.0:
                        row[index.setdefault((int(i), int(j), int(k)), len(index))] = w
        rows.append(row)
    weights = np.zeros((len(rows), len(index)))
    for t, row in enumerate(rows):
        weights[t, list(row)] = list(row.values())
    points = np.asarray(p, dtype=float) + h * np.array(list(index), dtype=float)
    return points, weights


def _combine(pde: PdeSpec, weights: np.ndarray, values: np.ndarray, h: float) -> Element:
    """sum_t C_t * (stencil of term t applied to values) / h^N.

    Each term's stencil is summed on its own first, so its differences of
    nearby samples cancel before the 1/h^N scaling.
    """
    coeffs = np.array([c for *_, c in pde.terms])
    return coeffs @ (weights @ values) / h**pde.N


def apply_operator(
    fn: Callable[[Point], Element], pde: PdeSpec, p: Point, h: float
) -> Element:
    """L_N applied to a pointwise fn at p by tensor products of 1-D central stencils."""
    points, weights = _operator_stencil(pde, p, h)
    values = np.array([np.asarray(fn(tuple(q))) for q in points])
    return _combine(pde, weights, values, h)


def pde_residual(ms: MonogenicSpec, pde: PdeSpec, p: Point, h: float = 1e-3) -> Element:
    """Discrete L_N applied to the components of the monogenic function.

    The distinct stencil points go through eval_explicit in one batched call.
    """
    points, weights = _operator_stencil(pde, p, h)
    return _combine(pde, weights, eval_explicit(ms, points), h)


def operator_identity_check(
    ms: MonogenicSpec, pde: PdeSpec, p: Point, h: float = 1e-3, nodes: int = 256
) -> Element:
    """Difference Phi^(N) * (sum C e2^b e3^g) - discrete L_N(Phi); near zero on valid data."""
    spec = ms.algebra
    char = characteristic_residual(spec, ms.triad, pde)
    analytic = spec.multiply(gateaux_derivative(ms, p, pde.N, nodes=nodes), char)
    discrete = pde_residual(ms, pde, p, h)
    return analytic - discrete


def pde_from_dict(data: Mapping) -> PdeSpec:
    return PdeSpec.create(int(data["N"]), data["terms"])


def pde_to_dict(pde: PdeSpec) -> dict:
    return {"N": pde.N, "terms": [list(t) for t in pde.terms]}
