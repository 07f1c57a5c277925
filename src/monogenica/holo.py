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
from functools import cached_property, lru_cache
from itertools import accumulate
from typing import Mapping, Sequence

import numpy as np

QUAD_TOL = 1e-10
MIN_NODES = 16
# The first rule's node count.  On a circle of radius at least 2 delta
# around the poles (enclosing_contour) the N-node rule's error falls like
# (delta / radius)^N <= 2^-N (Trefethen & Weideman, SIAM Rev. 56 (2014)), so
# the 32- and 64-node rules usually already agree to QUAD_TOL.
DEFAULT_NODES = 32
MAX_NODES = 4096
SAFE_FRACTION = 0.9  # a series is evaluated within this fraction of its radius

_KINDS = ("poly", "exp", "sin", "cos", "series")


class HoloDomainError(Exception):
    """Evaluation outside the declared domain or derivative cap."""


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
        if dist > SAFE_FRACTION * self.radius:
            raise HoloDomainError(
                f"series evaluated at distance {dist:.3g} from its center; "
                f"safe radius is {SAFE_FRACTION * self.radius:.3g}"
            )
        return v

    @cached_property
    def _coeff_table(self) -> np.ndarray:
        """table[j, k]: coefficient of w^j in the k-th derivative of a poly/series.

        Derivatives of order >= len(coeffs) vanish and have no column; the
        zero entries at the top of a column leave Horner's rule exact.
        """
        return _derivative_coeffs([self.coeffs])[:, 0, :].T

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


@dataclass(frozen=True)
class HoloSum:
    """Pointwise sum of holomorphic functions (used by linearity tests)."""

    parts: tuple

    def eval(self, k: int, xi):
        return sum(p.eval(k, xi) for p in self.parts)


# -- stacked derivatives -------------------------------------------------------


def multiply_in_place(a: np.ndarray, b) -> None:
    """a *= b, rounded as numpy rounds the same product inside a longer array.

    numpy multiplies a one-element complex array in place by a scalar loop
    whose rounding differs from the vector loop of longer arrays and of
    out-of-place products, so a row of a batch would differ from the same
    point evaluated alone; a one-element a takes the out-of-place product.
    """
    if a.size > 1:
        a *= b
    else:
        a[...] = np.multiply(a, b)


def _leaves(f) -> list:
    """The HoloFn terms of f, the parts of a HoloSum expanded in order."""
    if isinstance(f, HoloSum):
        return [leaf for part in f.parts for leaf in _leaves(part)]
    return [f]


def _derivative_coeffs(coeffs: Sequence[Sequence[complex]]) -> np.ndarray:
    """D[k, i, j]: coefficient of w^j in the k-th derivative of polynomial i.

    Polynomial i has the coefficients coeffs[i], padded with zeros to the
    longest, and k and j run to that length.  Each order takes the one
    before it shifted down and times j + 1, for all polynomials at once; a
    multiplier with no imaginary part rounds the same in every layout, so
    each entry has the same bits whatever polynomials are stacked with it.
    """
    L = max(map(len, coeffs), default=0)
    D = np.zeros((L, len(coeffs), L), dtype=np.complex128)
    D[:1] = [[*c, *(0,) * (L - len(c))] for c in coeffs]
    factors = np.arange(1, L)
    for k in range(1, L):
        np.multiply(D[k - 1, :, 1 : L - k + 1], factors[: L - k], out=D[k, :, : L - k])
    return D


class DerivativeStack:
    """Derivatives of a sequence of holomorphic functions in one pass.

    Row i holds f_i^(lo), ..., f_i^(lo + K_i) at its own arguments xi[i].
    The rows follow one another in one flat table, row i from entry
    offsets[i] = sum_{i' < i} (K_i' + 1) on.  All functions of one kind go
    together, however many there are: one exp; one sin and one cos, cycled
    with signs; one Horner sweep over a padded table of derivative
    coefficients for every polynomial and series, after one domain check
    for all series.  Each exp, sin and cos value is taken once per leaf,
    and one gather and one product by amp * scale^k place them all.  A
    HoloSum row adds up the rows of its parts.  The constants (amp *
    scale^k, the tables, the index arrays) are built here, once: list
    operations per leaf, then one array per kind of constant.  Every
    operation is elementwise over the points, so a column of the table
    does not depend on the other columns.
    """

    def __init__(self, fns: Sequence, K: Sequence[int], lo: int = 0):
        K = np.asarray(K, dtype=int).tolist()
        if lo < 0 or min(K, default=0) < 0:
            raise HoloDomainError("negative derivative order")
        first = [0, *accumulate(k + 1 for k in K)]
        self.offsets = np.array(first[:-1], dtype=int)
        self.size = first[-1]
        leaves = [(i, leaf) for i, f in enumerate(fns) for leaf in _leaves(f)]
        rows = [i for i, _ in leaves]
        self._leaf_row = None if rows == list(range(len(fns))) else np.array(rows, dtype=int)
        self._scale, self._shift = np.array(
            [[f.scale for _, f in leaves], [f.shift for _, f in leaves]], dtype=np.complex128
        ).reshape(2, -1, 1)

        # exp is taken at the exp leaves, sin and cos at the sin and cos
        # leaves whose orders need them (phases from lo on, lo + 1 for cos).
        # Their values are stacked exp, sin, cos, and table entry entries[t]
        # is fac[t] times row src[t] of the stack.
        taken = {np.exp: [], np.sin: [], np.cos: []}
        for li, (i, f) in enumerate(leaves):
            if f.kind == "exp":
                taken[np.exp].append(li)
            elif f.kind in ("sin", "cos"):
                p = lo + (f.kind == "cos")
                for fn, parity in ((np.sin, 0), (np.cos, 1)):
                    if K[i] or p % 2 == parity:
                        taken[fn].append(li)
        row, self._bases = {}, []
        for fn, at in taken.items():
            if at:
                self._bases.append((fn, np.array(at, dtype=int), slice(len(row), len(row) + len(at))))
                row.update({(fn, li): len(row) + r for r, li in enumerate(at)})
        self._rows = len(row)
        entries, src, fac = [], [], []
        # Per poly/series entry: table entry, leaf (its place among the
        # poly/series leaves), factor, coefficient count and order.
        poly = ([], [], [], [], [])
        poly_leaves, coeffs, centers, series, radii = [], [], [], [], []
        # Leaf li fills the entries from start on, orders lo.. in turn.
        start = 0
        for li, (i, f) in enumerate(leaves):
            leaf_entries = range(start, start + K[i] + 1)
            start = leaf_entries.stop
            # Python's power, not numpy's: the two differ in the last bit.
            try:
                leaf_fac = [f.amp * f.scale**k for k in range(lo, lo + K[i] + 1)]
            except OverflowError:
                raise HoloDomainError(f"scale^{lo + K[i]} of a {f.kind} overflows") from None
            if f.kind == "exp":
                src += [row[np.exp, li]] * len(leaf_entries)
            elif f.kind in ("sin", "cos"):
                # sin, cos, -sin, -cos, ... from phase lo (lo + 1 for cos) on.
                p = lo + (f.kind == "cos")
                leaf_fac = [-c if (p + t) % 4 >= 2 else c for t, c in enumerate(leaf_fac)]
                src += [row[np.cos, li] if (p + t) % 2 else row[np.sin, li] for t in range(len(leaf_entries))]
            else:
                if f.kind == "series":
                    series.append(len(coeffs))
                    radii.append(f.radius)
                centers.append(f.center if f.kind == "series" else 0.0)
                # Derivatives of order >= len(coeffs) vanish: no entry.
                top = len(f.coeffs) - lo
                count = max(0, min(K[i] + 1, top))
                for column, values in zip(poly, (leaf_entries[:count], [len(coeffs)] * count,
                                                 leaf_fac[:count], range(top, top - count, -1),
                                                 range(lo, lo + count))):
                    column += values
                poly_leaves.append(li)
                coeffs.append(f.coeffs)
                continue
            entries += leaf_entries
            fac += leaf_fac
        self._leaf_size = start
        self._gather = (np.array(entries, dtype=int), np.array(src, dtype=int),
                        np.array(fac, dtype=np.complex128).reshape(-1, 1))

        self._poly = None
        if coeffs:
            # Longest first (a stable sort), so step j of the sweep runs over
            # a prefix: the entries with a coefficient of w^j or above.
            terms = poly[3]
            order = sorted(range(len(terms)), key=terms.__getitem__, reverse=True)
            entries, src, fac, terms, orders = ([column[c] for c in order] for column in poly)
            L = terms[0] if terms else 0
            # Column c of the table holds the coefficients of entry c, zero
            # above its top coefficient, where Horner's rule stays exact.
            table = _derivative_coeffs(coeffs).transpose(2, 0, 1)[:L, orders, src]
            tops = [0] * L  # entries by their top coefficient, w^(terms - 1)
            for t in terms:
                tops[t - 1] += 1
            self._poly = (
                np.array(poly_leaves, dtype=int),
                np.array(centers, dtype=np.complex128).reshape(-1, 1),
                (np.array(series, dtype=int), np.array(radii)) if series else None,
                np.array(src, dtype=int),
                list(zip(table[::-1, :, None], accumulate(tops[::-1]))),
                np.array(entries, dtype=int),
                np.array(fac, dtype=np.complex128).reshape(-1, 1),
            )
        self._sum = None
        if self._leaf_row is not None:
            # Leaf entries ordered by the row entry they add to, parts in order:
            # a leaf's entries add to its row's, from offsets[row] on.
            c = np.array(K, dtype=int)[self._leaf_row] + 1
            targets = (self.offsets[self._leaf_row] + c - c.cumsum()).repeat(c) + np.arange(start)
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
        if self._bases:
            entries, src, fac = self._gather
            values = np.empty((self._rows, w.shape[1]), dtype=np.complex128)
            for fn, at, rows in self._bases:
                fn(w[at], out=values[rows])
            out[entries] = np.multiply(fac, values[src])
        if self._poly is not None:
            leaves, center, series, src, sweep, entries, fac = self._poly
            v = w[leaves]
            v -= center
            if series is not None:
                series, radius = series
                dist = np.max(np.abs(v[series]), axis=1, initial=0.0)
                over = np.flatnonzero(dist > SAFE_FRACTION * radius)
                if over.size:
                    i = over[0]
                    raise HoloDomainError(
                        f"series evaluated at distance {dist[i]:.3g} from its center; "
                        f"safe radius is {SAFE_FRACTION * radius[i]:.3g}"
                    )
            if entries.size:
                # Horner as in polyval; an entry joins at its top coefficient,
                # where 0 * w + c = c.
                v = v[src]
                acc = np.zeros_like(v)
                for c, n in sweep:
                    a = acc[:n]
                    multiply_in_place(a, v[:n])
                    a += c[:n]
                out[entries] = np.multiply(fac, acc)
        if self._sum is None:
            return out
        order, starts, sums = self._sum
        total = np.zeros((self.size, out.shape[1]), dtype=np.complex128)
        total[sums] = np.add.reduceat(out[order], starts, axis=0)
        return total


# -- JSON form ---------------------------------------------------------------


def parse_real(value) -> float:
    """A finite JSON number, a Python int or float, as a float; ValueError otherwise.

    JSON true and false are not numbers, though Python's bool is a subclass of int.
    """
    if type(value) in (float, int):
        try:
            if math.isfinite(value):
                return float(value)
        except OverflowError:  # an int beyond the float range
            pass
    raise ValueError(f"not a finite number: {value!r}")


def parse_int(value) -> int:
    """A JSON integer: a Python int, not a bool or float, not even 3.0; ValueError otherwise."""
    if type(value) is int:
        return value
    raise ValueError(f"not an integer: {value!r}")


def parse_complex(pair) -> complex:
    """A JSON complex number: a finite real number or a [re, im] pair of them; ValueError otherwise."""
    re, im = pair if isinstance(pair, (list, tuple)) and len(pair) == 2 else (pair, 0.0)
    try:
        return complex(parse_real(re), parse_real(im))
    except ValueError:
        raise ValueError(f"not a complex number (a finite number or [re, im]): {pair!r}") from None


def holo_from_dict(data: Mapping) -> HoloFn:
    kw = {}
    if "coeffs" in data:
        kw["coeffs"] = tuple(parse_complex(p) for p in data["coeffs"])
    if "center" in data:
        kw["center"] = parse_complex(data["center"])
    if "radius" in data:
        kw["radius"] = parse_real(data["radius"])
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
    nodes: int = DEFAULT_NODES

    def __post_init__(self):
        if not self.radius > 0:
            raise ValueError("contour radius must be positive")
        if self.nodes < MIN_NODES:
            raise ValueError(f"need at least {MIN_NODES} quadrature nodes")


def enclosing_contour(xi, fns: Sequence, nodes: int = DEFAULT_NODES) -> Contour:
    """One circle around every point of xi, inside every series' safe disc.

    The centre is the mean of the points and the radius max(2 delta, 1),
    delta the largest distance of a point from the centre.  The radius is
    capped so that the circle stays inside the disc where each series leaf
    of fns (HoloSum parts included) may be evaluated: radius
    SAFE_FRACTION * radius / |scale| about (center - shift) / scale, less a
    rounding margin.  If the cap leaves no radius above 1.1 delta, too
    little room between the circle and the points for the trapezoid rule,
    HoloDomainError is raised.
    """
    points = [complex(v) for v in np.ravel(xi)]
    center = sum(points) / len(points)
    delta = max(abs(v - center) for v in points)
    radius = max(2.0 * delta, 1.0)
    for leaf in (leaf for f in fns for leaf in _leaves(f)):
        if leaf.kind != "series" or leaf.scale == 0 or not math.isfinite(leaf.radius):
            continue
        size = abs(leaf.scale)
        reach = SAFE_FRACTION * leaf.radius / size
        disc = (leaf.center - leaf.shift) / leaf.scale
        # Rounding in scale * t + shift - center, in units of t.
        slack = 1e-13 * (abs(center) + reach + (abs(leaf.center) + abs(leaf.shift)) / size)
        radius = min(radius, reach - abs(center - disc) - slack)
    if not radius > 1.1 * delta:
        raise HoloDomainError(
            f"no circle around the spectrum points (within {delta:.3g} of {center:.6g}) "
            f"fits inside every series' safe disc"
        )
    return Contour(center, radius, nodes)


@lru_cache(maxsize=32)
def _unit_roots(nn: int, offset: float) -> np.ndarray:
    """exp(2 pi i (j + offset) / nn) for j < nn, read-only: the nodes on the unit circle."""
    w = np.exp(2j * np.pi * (np.arange(nn) + offset) / nn)
    w.flags.writeable = False
    return w


def contour_integrate(
    g, contour: Contour, tol: float = QUAD_TOL, max_nodes: int = MAX_NODES, contract=None
):
    """(1 / 2*pi*i) * integral of g over the circle, adaptive trapezoid rule.

    g is called with an ndarray of nodes t_j and must return an array whose
    last axis runs over the nodes.  contract, if given, maps each
    quadrature of g to the value that is tested and returned (for example
    the algebra arithmetic that turns integrated moments into an element).
    The first call evaluates g on the 2n nodes of the 2n-node rule,
    n = contour.nodes (DEFAULT_NODES = 32 unless set): the n-node rule's
    nodes (the even ones) first, then the n halfway between them.  The node
    count then doubles, each time evaluating g only at the new nodes
    halfway between the old ones, until two successive rules agree to tol
    or the rule has max_nodes nodes (an UnstableQuadrature warning is
    emitted in the latter case, and the last rule returned).
    """
    finish = contract or (lambda v: v)

    def values(w: np.ndarray) -> np.ndarray:
        return np.asarray(g(contour.center + contour.radius * w), dtype=np.complex128)

    # Each rule's sum runs over a contiguous slice of the first call.
    n = contour.nodes
    w0, w1 = _unit_roots(n, 0.0), _unit_roots(n, 0.5)
    vals = values(np.concatenate([w0, w1]))
    acc = vals[..., :n] @ w0
    prev = finish(contour.radius / n * acc)
    acc = acc + vals[..., n:] @ w1
    n *= 2
    while True:
        cur = finish(contour.radius / n * acc)
        if np.max(np.abs(cur - prev)) <= tol * (1.0 + np.max(np.abs(cur))):
            return cur
        if n >= max_nodes:
            break
        w = _unit_roots(n, 0.5)
        acc = acc + values(w) @ w
        n *= 2
        prev = cur
    warnings.warn(
        f"contour quadrature did not stabilize to {tol:g} at {n} nodes",
        UnstableQuadrature,
        stacklevel=2,
    )
    return cur
