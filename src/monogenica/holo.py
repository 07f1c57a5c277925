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
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

QUAD_TOL = 1e-10
MIN_NODES = 16
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

    def _series_arg(self, w):
        """w - center, after checking that w stays inside the safe radius."""
        v = np.asarray(w) - self.center
        dist = np.max(np.abs(v))
        if dist > 0.9 * self.radius:
            raise HoloDomainError(
                f"series evaluated at distance {dist:.3g} from its center; "
                f"safe radius is {0.9 * self.radius:.3g}"
            )
        return v

    @cached_property
    def _coeff_table(self) -> np.ndarray:
        """table[j, k]: coefficient of w^j in the k-th derivative of a poly/series.

        Derivatives of order >= len(coeffs) vanish and have no column; the
        zero entries at the top of a column leave Horner's rule exact.
        """
        L = len(self.coeffs)
        table = np.zeros((L, L), dtype=np.complex128)
        c = np.asarray(self.coeffs, dtype=np.complex128)
        for k in range(L):
            table[: len(c), k] = c
            c = c[1:] * np.arange(1, len(c))
        return table

    def _g_derivative(self, k: int, w):
        if self.kind == "exp":
            return np.exp(w)
        if self.kind == "sin":
            return (np.sin, np.cos, lambda v: -np.sin(v), lambda v: -np.cos(v))[k % 4](w)
        if self.kind == "cos":
            return (np.cos, lambda v: -np.sin(v), lambda v: -np.cos(v), np.sin)[k % 4](w)
        if self.kind == "series":
            w = self._series_arg(w)
        if k >= len(self.coeffs):
            return np.zeros_like(np.asarray(w, dtype=np.complex128))
        return np.polynomial.polynomial.polyval(w, self._coeff_table[:, k])

    def eval(self, k: int, xi):
        """k-th derivative of f at xi; xi may be a scalar or ndarray."""
        if k < 0:
            raise HoloDomainError("negative derivative order")
        w = self.scale * np.asarray(xi, dtype=np.complex128) + self.shift
        return self.amp * self.scale**k * self._g_derivative(k, w)

    def derivatives(self, K: int, xi) -> np.ndarray:
        """f, f', ..., f^(K) at xi, stacked on a new first axis.

        The one-row case of DerivativeStack; row k equals eval(k, xi).
        """
        return _one_row(self, K, xi)


@dataclass(frozen=True)
class HoloSum:
    """Pointwise sum of holomorphic functions (used by linearity tests)."""

    parts: tuple

    def eval(self, k: int, xi):
        return sum(p.eval(k, xi) for p in self.parts)

    def derivatives(self, K: int, xi) -> np.ndarray:
        return _one_row(self, K, xi)


def holo_eval(f, k: int, xi):
    return f.eval(k, xi)


# -- stacked derivatives -------------------------------------------------------


def _leaves(f) -> list:
    """The HoloFn terms of f, the parts of a HoloSum expanded in order."""
    if isinstance(f, HoloSum):
        return [leaf for part in f.parts for leaf in _leaves(part)]
    return [f]


class _Gather:
    """Table entries filled from one base function at the leaves' arguments.

    out[entries] = fac * base(w[leaves])[src], each leaf evaluated once.
    """

    def __init__(self):
        self.loc: dict[int, int] = {}
        self.entries: list = []
        self.src: list = []
        self.fac: list = []

    def add(self, leaf: int, entry: int, fac: complex) -> None:
        self.src.append(self.loc.setdefault(leaf, len(self.loc)))
        self.entries.append(entry)
        self.fac.append(fac)

    def freeze(self) -> "_Gather":
        self.leaves = np.array(list(self.loc), dtype=int)
        self.entries = np.array(self.entries, dtype=int)
        self.src = np.array(self.src, dtype=int)
        self.fac = np.array(self.fac, dtype=np.complex128).reshape(-1, 1)
        return self


class DerivativeStack:
    """Derivatives of a sequence of holomorphic functions in one pass.

    Row i holds f_i^(lo), ..., f_i^(lo + K_i) at its own arguments xi[i].
    The rows follow one another in one flat table, row i from entry
    offsets[i] = sum_{i' < i} (K_i' + 1) on.  All functions of one kind go
    together, however many there are: one exp; one sin and one cos, cycled
    with signs; one Horner sweep over a padded table of derivative
    coefficients for every polynomial and series, after one domain check
    for all series.  A HoloSum row adds up the rows of its parts.  The
    constants (amp * scale^k, the tables, the index arrays) are built here,
    once.  Every operation is elementwise over the points, so a column of
    the table does not depend on the other columns.
    """

    def __init__(self, fns: Sequence, K: Sequence[int], lo: int = 0):
        K = [int(k) for k in K]
        if lo < 0 or min(K, default=0) < 0:
            raise HoloDomainError("negative derivative order")
        counts = np.array(K, dtype=int) + 1
        self.offsets = np.cumsum(counts) - counts
        self.size = int(counts.sum())
        leaves = [(i, leaf) for i, f in enumerate(fns) for leaf in _leaves(f)]
        rows = [i for i, _ in leaves]
        self._leaf_row = None if rows == list(range(len(fns))) else np.array(rows, dtype=int)
        self._scale = np.array([[f.scale] for _, f in leaves], dtype=np.complex128)
        self._shift = np.array([[f.shift] for _, f in leaves], dtype=np.complex128)

        bases = {np.exp: _Gather(), np.sin: _Gather(), np.cos: _Gather()}
        poly = []  # (terms, entry, leaf, fac, coefficients) of nonzero poly/series entries
        centers, radii = {}, {}  # of the poly/series leaves; radii of the series
        first = self.offsets.tolist()
        targets = []  # the row entry of each leaf entry
        for li, (i, f) in enumerate(leaves):
            if f.kind == "poly":
                centers[li] = 0.0
            elif f.kind == "series":
                centers[li], radii[li] = f.center, f.radius
            for k in range(lo, lo + K[i] + 1):
                entry, fac = len(targets), f.amp * f.scale**k
                targets.append(first[i] + k - lo)
                if f.kind == "exp":
                    bases[np.exp].add(li, entry, fac)
                elif f.kind in ("sin", "cos"):
                    # sin, cos, -sin, -cos, ... from phase p on.
                    p = k + (f.kind == "cos")
                    bases[np.cos if p % 2 else np.sin].add(li, entry, -fac if p % 4 >= 2 else fac)
                elif k < len(f.coeffs):
                    # Derivatives of order >= len(coeffs) vanish: no entry.
                    poly.append((len(f.coeffs) - k, entry, li, fac, f._coeff_table[:, k]))
        self._leaf_size = len(targets)
        self._bases = [(fn, g.freeze()) for fn, g in bases.items() if g.entries]
        self._poly = None
        if centers:
            # Longest first, so step j of the sweep runs over a prefix: the
            # entries with a coefficient of w^j or above.
            poly.sort(key=lambda t: -t[0])
            g = _Gather()
            for leaf in centers:
                g.loc[leaf] = len(g.loc)
            for _, entry, leaf, fac, _ in poly:
                g.add(leaf, entry, fac)
            terms = np.array([t[0] for t in poly], dtype=int)
            L = int(terms.max(initial=0))
            table = np.zeros((L, len(poly), 1), dtype=np.complex128)
            for col, (n, *_, c) in enumerate(poly):
                table[:n, col, 0] = c[:n]
            active = (terms > np.arange(L)[:, None]).sum(axis=1).tolist()
            self._poly = (
                g.freeze(),
                np.array(list(centers.values()), dtype=np.complex128).reshape(-1, 1),
                np.array([g.loc[leaf] for leaf in radii], dtype=int),
                np.array(list(radii.values())),
                list(zip(table[::-1], active[::-1])),
            )
        self._sum = None
        if self._leaf_row is not None:
            # Leaf entries ordered by the row entry they add to, parts in order.
            targets = np.array(targets, dtype=int)
            order = np.argsort(targets, kind="stable")
            sums, starts = np.unique(targets[order], return_index=True)
            self._sum = (order, starts, sums)

    def __call__(self, xi) -> np.ndarray:
        """The flat table, shape (size, N), for arguments xi of shape (rows, N)."""
        xi = np.asarray(xi, dtype=np.complex128)
        X = xi if self._leaf_row is None else xi[self._leaf_row]
        # Constants on the left of every product, as in eval: numpy's complex
        # multiply is not bitwise commutative, and `a * b` on a large
        # temporary b may be computed as b * a, so np.multiply is explicit.
        w = np.multiply(self._scale, X)
        w += self._shift
        out = np.zeros((self._leaf_size, w.shape[1]), dtype=np.complex128)
        for fn, g in self._bases:
            out[g.entries] = np.multiply(g.fac, fn(w[g.leaves])[g.src])
        if self._poly is not None:
            g, center, series, radius, sweep = self._poly
            v = w[g.leaves]
            v -= center
            if series.size:
                dist = np.max(np.abs(v[series]), axis=1, initial=0.0)
                over = np.flatnonzero(dist > 0.9 * radius)
                if over.size:
                    i = over[0]
                    raise HoloDomainError(
                        f"series evaluated at distance {dist[i]:.3g} from its center; "
                        f"safe radius is {0.9 * radius[i]:.3g}"
                    )
            if g.entries.size:
                # Horner as in polyval; an entry joins at its top coefficient,
                # where 0 * w + c = c.
                v = v[g.src]
                acc = np.zeros_like(v)
                for c, n in sweep:
                    a = acc[:n]
                    a *= v[:n]
                    a += c[:n]
                out[g.entries] = np.multiply(g.fac, acc)
        if self._sum is None:
            return out
        order, starts, sums = self._sum
        total = np.zeros((self.size, out.shape[1]), dtype=np.complex128)
        total[sums] = np.add.reduceat(out[order], starts, axis=0)
        return total


def _one_row(f, K: int, xi) -> np.ndarray:
    """f, ..., f^(K) at xi (any shape), stacked on a new first axis."""
    x = np.asarray(xi, dtype=np.complex128)
    return DerivativeStack([f], [K])(x.reshape(1, -1)).reshape((K + 1,) + x.shape)


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
        if self.nodes < MIN_NODES:
            raise ValueError(f"need at least {MIN_NODES} quadrature nodes")


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
