"""Holomorphic functions of one complex variable and circular contour quadrature.

Each function is a scaled/shifted instance of a stock variant,
f(xi) = amp * g(scale * xi + shift), so derivatives of every order are exact
(polynomial differentiation, cyclic exp/sin/cos rules, term-wise power
series).  Contours are circles; by Cauchy's theorem the integral value is
contour-independent, and the trapezoid rule on a circle converges
exponentially for integrands analytic in an annulus around it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

QUAD_TOL = 1e-10
MAX_NODES = 4096

_KINDS = ("poly", "exp", "sin", "cos", "series")


class HoloDomainError(Exception):
    """Evaluation outside the declared domain or derivative cap."""


class CoincidentSpectrum(Exception):
    """Two spectrum points too close to separate by a contour."""


class UnstableQuadrature(RuntimeWarning):
    """Contour quadrature did not converge within the node limit."""


@dataclass(frozen=True)
class HoloFn:
    """f(xi) = amp * g(scale * xi + shift) with g a stock holomorphic variant."""

    kind: str
    coeffs: tuple[complex, ...] = ()
    center: complex = 0.0 + 0.0j
    radius: float = math.inf
    amp: complex = 1.0 + 0.0j
    scale: complex = 1.0 + 0.0j
    shift: complex = 0.0 + 0.0j

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise HoloDomainError(f"unknown holomorphic variant {self.kind!r}")
        if self.kind == "series" and not self.radius > 0:
            raise HoloDomainError("power series needs a positive radius")
        object.__setattr__(self, "coeffs", tuple(complex(c) for c in self.coeffs))

    # -- constructors --------------------------------------------------

    @classmethod
    def poly(cls, coeffs: Sequence[complex], **kw) -> "HoloFn":
        return cls("poly", coeffs=tuple(coeffs), **kw)

    @classmethod
    def exp(cls, **kw) -> "HoloFn":
        return cls("exp", **kw)

    @classmethod
    def sin(cls, **kw) -> "HoloFn":
        return cls("sin", **kw)

    @classmethod
    def cos(cls, **kw) -> "HoloFn":
        return cls("cos", **kw)

    @classmethod
    def series(cls, center: complex, coeffs: Sequence[complex], radius: float, **kw) -> "HoloFn":
        return cls("series", coeffs=tuple(coeffs), center=center, radius=radius, **kw)

    @classmethod
    def zero(cls) -> "HoloFn":
        return cls("poly", coeffs=())

    @classmethod
    def square(cls) -> "HoloFn":
        return cls("poly", coeffs=(0.0, 0.0, 1.0))

    def __add__(self, other: "HoloFn") -> "HoloSum":
        return HoloSum((self, other))

    # -- evaluation ------------------------------------------------------

    def _g_derivative(self, k: int, w):
        if self.kind == "poly":
            c = np.asarray(self.coeffs, dtype=np.complex128)
            for _ in range(k):
                c = c[1:] * np.arange(1, len(c))
            if len(c) == 0:
                return np.zeros_like(np.asarray(w, dtype=np.complex128))
            return np.polynomial.polynomial.polyval(w, c)
        if self.kind == "exp":
            return np.exp(w)
        if self.kind == "sin":
            return (np.sin, np.cos, lambda v: -np.sin(v), lambda v: -np.cos(v))[k % 4](w)
        if self.kind == "cos":
            return (np.cos, lambda v: -np.sin(v), lambda v: -np.cos(v), np.sin)[k % 4](w)
        # series
        dist = np.max(np.abs(np.asarray(w) - self.center))
        if dist > 0.9 * self.radius:
            raise HoloDomainError(
                f"series evaluated at distance {dist:.3g} from its center; "
                f"safe radius is {0.9 * self.radius:.3g}"
            )
        c = np.asarray(self.coeffs, dtype=np.complex128)
        for _ in range(k):
            c = c[1:] * np.arange(1, len(c))
        if len(c) == 0:
            return np.zeros_like(np.asarray(w, dtype=np.complex128))
        return np.polynomial.polynomial.polyval(np.asarray(w) - self.center, c)

    def eval(self, k: int, xi):
        """k-th derivative of f at xi; xi may be a scalar or ndarray."""
        if k < 0:
            raise HoloDomainError("negative derivative order")
        w = self.scale * np.asarray(xi, dtype=np.complex128) + self.shift
        return self.amp * self.scale**k * self._g_derivative(k, w)


@dataclass(frozen=True)
class HoloSum:
    """Pointwise sum of holomorphic functions (used by linearity tests)."""

    parts: tuple

    def eval(self, k: int, xi):
        return sum(p.eval(k, xi) for p in self.parts)


def holo_eval(f, k: int, xi):
    return f.eval(k, xi)


# -- JSON form ---------------------------------------------------------------


def parse_complex(pair) -> complex:
    """A JSON complex number: a real number or a [re, im] pair."""
    if isinstance(pair, (int, float)):
        return complex(pair)
    return complex(pair[0], pair[1])


def holo_from_dict(data: Mapping) -> HoloFn:
    kw = {}
    if "coeffs" in data:
        kw["coeffs"] = tuple(parse_complex(p) for p in data["coeffs"])
    if "center" in data:
        kw["center"] = parse_complex(data["center"])
    if "radius" in data:
        kw["radius"] = float(data["radius"])
    if "amp" in data:
        kw["amp"] = parse_complex(data["amp"])
    if "scale" in data:
        kw["scale"] = parse_complex(data["scale"])
    if "shift" in data:
        kw["shift"] = parse_complex(data["shift"])
    return HoloFn(data["kind"], **kw)


def holo_to_dict(f: HoloFn) -> dict:
    out: dict = {"kind": f.kind}
    if f.coeffs:
        out["coeffs"] = [[c.real, c.imag] for c in f.coeffs]
    if f.kind == "series":
        out["center"] = [f.center.real, f.center.imag]
        out["radius"] = f.radius
    if f.amp != 1:
        out["amp"] = [f.amp.real, f.amp.imag]
    if f.scale != 1:
        out["scale"] = [f.scale.real, f.scale.imag]
    if f.shift != 0:
        out["shift"] = [f.shift.real, f.shift.imag]
    return out


# -- contours ----------------------------------------------------------------


@dataclass(frozen=True)
class Contour:
    center: complex
    radius: float
    nodes: int = 256

    def __post_init__(self):
        if not self.radius > 0:
            raise ValueError("contour radius must be positive")
        if self.nodes < 16:
            raise ValueError("need at least 16 quadrature nodes")


def default_contour(xi_u: complex, others: Sequence[complex], nodes: int = 256) -> Contour:
    """Circle around xi_u avoiding every other spectrum point."""
    others = [o for o in others]
    if not others:
        return Contour(xi_u, 1.0, nodes)
    dmin = min(abs(complex(o) - xi_u) for o in others)
    if dmin <= 1e-10:
        raise CoincidentSpectrum(
            f"spectrum point within {dmin:.3g} of {xi_u}; cannot separate contours"
        )
    return Contour(xi_u, 0.5 * dmin, nodes)


def contour_integrate(g, contour: Contour, tol: float = QUAD_TOL, max_nodes: int = MAX_NODES):
    """(1 / 2*pi*i) * integral of g over the circle, adaptive trapezoid rule.

    g is called with an ndarray of nodes t_j and must return an array whose
    last axis runs over the nodes.  The node count doubles until two
    successive quadratures agree to tol or max_nodes is reached (an
    UnstableQuadrature warning is emitted in the latter case).
    """

    def node_sum(nn: int, offset: float):
        w = np.exp(2j * np.pi * (np.arange(nn) + offset) / nn)
        vals = np.asarray(g(contour.center + contour.radius * w), dtype=np.complex128)
        return vals @ w

    # The 2n-node rule is the n-node rule plus the n nodes halfway between
    # its nodes, so each doubling evaluates g only at the new nodes.
    n = contour.nodes
    acc = node_sum(n, 0.0)
    prev = contour.radius / n * acc
    while n < max_nodes:
        acc = acc + node_sum(n, 0.5)
        n *= 2
        cur = contour.radius / n * acc
        if np.max(np.abs(cur - prev)) <= tol * (1.0 + np.max(np.abs(cur))):
            return cur
        prev = cur
    warnings.warn(
        f"contour quadrature did not stabilize to {tol:g} at {max_nodes} nodes",
        UnstableQuadrature,
        stacklevel=2,
    )
    return prev
