"""Holomorphic functions of one complex variable and circular contour quadrature.

Each function is a scaled/shifted instance of a stock variant,
f(xi) = amp * g(scale * xi + shift), so derivatives of every order are exact
(polynomial differentiation, cyclic exp/sin/cos rules, term-wise power
series).  Contours are circles; by Cauchy's theorem the integral value is
contour-independent, and the trapezoid rule on a circle converges
exponentially for integrands analytic in an annulus around it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import accumulate
from operator import neg
from typing import Mapping, Sequence

import numpy as np

# The contour rule, the same for every caller.  Two successive rules must
# agree to QUAD_TOL; the first has DEFAULT_NODES nodes and the last at most
# MAX_NODES.  On a circle of radius at least 2 delta around the poles
# (enclosing_contour) the N-node rule's error falls like
# (delta / radius)^N <= 2^-N (Trefethen & Weideman, SIAM Rev. 56 (2014)), so
# the 32- and 64-node rules usually already agree to QUAD_TOL.
QUAD_TOL = 1e-10
DEFAULT_NODES = 32
MAX_NODES = 4096
SAFE_FRACTION = 0.9  # a series is evaluated within this fraction of its radius

_KINDS = ("poly", "exp", "sin", "cos", "series")


class HoloDomainError(Exception):
    """Evaluation outside the declared domain or derivative cap."""


class UnstableQuadrature(Exception):
    """Contour quadrature did not converge within the node limit."""


class NonFiniteIntegrand(HoloDomainError):
    """The first call's integrand is not finite: no rule can converge."""


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
    def _safe_disc(self) -> tuple[float, complex, float] | None:
        """A series' safe disc in units of xi, for enclosing_contour; None if it caps nothing.

        The radius SAFE_FRACTION * radius / |scale|, the centre (center - shift) / scale
        and (|center| + |shift|) / |scale|, the rounding margin's scale.
        """
        if self.kind != "series" or self.scale == 0 or not math.isfinite(self.radius):
            return None
        size = abs(self.scale)
        return (SAFE_FRACTION * self.radius / size, (self.center - self.shift) / self.scale,
                (abs(self.center) + abs(self.shift)) / size)

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
    factors = np.arange(1, L, dtype=np.complex128)  # as exact as ints, and not cast per product
    for k in range(1, L):
        np.multiply(D[k - 1, :, 1 : L - k + 1], factors[: L - k], out=D[k, :, : L - k])
    return D


class DerivativeStack:
    """Derivatives of a sequence of holomorphic functions in one pass.

    Row i holds f_i^(lo), ..., f_i^(lo + K_i) at its own arguments xi[i].
    The rows follow one another in one flat table, row i from entry
    offsets[i] = sum_{i' < i} (K_i' + 1) on.  The functions are kept in
    blocks by kind: exp; the sin and cos that need sin only, both, cos
    only; series; poly.  So each kind is one slice of the arguments w =
    scale * xi + shift: one exp, one sin and one cos, each taken once per
    function that needs it; one domain check for all series; one Horner
    sweep over a padded table of derivative coefficients for every
    polynomial and series.  Their results are rows of one array of values,
    and the table is one gather of those values times one product by amp *
    scale^k (signed for the sin and cos cycle); an entry that vanishes
    reads a zero row.  The constants (amp * scale^k, the tables, the index
    arrays) are built here, once: list operations per function, then one
    array per kind of constant.  Every operation is elementwise over the
    points, so a column of the table does not depend on the other columns.
    """

    def __init__(self, fns: Sequence[HoloFn], K: Sequence[int], lo: int = 0):
        K = np.asarray(K, dtype=int).tolist()
        if lo < 0 or min(K, default=0) < 0:
            raise HoloDomainError("negative derivative order")
        start = [0, *accumulate(k + 1 for k in K)]
        self.offsets = np.array(start[:-1], dtype=int)
        self.size = start[-1]

        def block(i: int, f: HoloFn) -> int:
            """0 exp, 1 sin only, 2 sin and cos, 3 cos only, 4 series, 5 poly."""
            if f.kind in ("sin", "cos"):
                # One order needs one of the two: sin at an even phase lo
                # (lo + 1 for cos), cos at an odd one.
                return 2 if K[i] else 1 + 2 * ((lo + (f.kind == "cos")) % 2)
            return {"exp": 0, "series": 4, "poly": 5}[f.kind]

        blocks = [block(i, f) for i, f in enumerate(fns)]
        order = sorted(range(len(fns)), key=blocks.__getitem__)
        exp_end, sin_end, both_end, cos_end = accumulate(blocks.count(b) for b in range(4))
        self._order = None if order == list(range(len(fns))) else np.array(order, dtype=int)
        self._scale, self._shift = np.array(
            [*(fns[i].scale for i in order), *(fns[i].shift for i in order)], dtype=np.complex128,
        ).reshape(2, -1, 1)
        # Rows of the values: exp, sin and cos at the functions of their
        # blocks (sin of the q-th function in block order at row q, cos at
        # row q + cos_shift), then the Horner sums, one per poly/series
        # entry, then a row of zeros.
        cos_shift = both_end - sin_end
        self._bases = [
            (fn, slice(a, b), slice(a + shift, b + shift))
            for fn, a, b, shift in ((np.exp, 0, exp_end, 0), (np.sin, exp_end, both_end, 0),
                                    (np.cos, sin_end, cos_end, cos_shift))
            if b > a
        ]
        horner = cos_end + cos_shift

        # Entry e of the table is fac[e] times row src[e] of the values.
        # An entry that vanishes (a derivative of a poly or series beyond its
        # degree) is 0 times the last row, which stays zero: +0, as 0 * 0 is.
        src, fac = [-1] * self.size, [0j] * self.size
        # Per poly/series entry: table entry, function (its place in the
        # poly/series block), factor, coefficient count and order.
        poly = ([], [], [], [], [])
        coeffs, centers, radii = [], [], []
        for q, i in enumerate(order):
            f = fns[i]
            at = slice(start[i], start[i] + K[i] + 1)
            # Python's power, not numpy's: the two differ in the last bit.
            try:
                row_fac = [f.amp * f.scale**k for k in range(lo, lo + K[i] + 1)]
            except OverflowError:
                raise HoloDomainError(f"scale^{lo + K[i]} of a {f.kind} overflows") from None
            if f.kind == "exp":
                src[at] = [q] * (K[i] + 1)
            elif f.kind in ("sin", "cos"):
                # sin, cos, -sin, -cos, ... from phase p = lo (lo + 1 for cos)
                # on: rows q and q + cos_shift in turn, every other pair
                # negated, the orders t with (p + t) % 4 = 2 or 3.
                p = lo + (f.kind == "cos")
                for t in ((2 - p) % 4, (3 - p) % 4):
                    row_fac[t::4] = map(neg, row_fac[t::4])
                src[at] = ([q, q + cos_shift] * (K[i] // 2 + 2))[p % 2 : p % 2 + K[i] + 1]
            else:
                if f.kind == "series":
                    radii.append(f.radius)
                centers.append(f.center if f.kind == "series" else 0.0)
                # Derivatives of order >= len(coeffs) vanish: no entry.
                top = len(f.coeffs) - lo
                count = max(0, min(K[i] + 1, top))
                for column, values in zip(poly, (range(at.start, at.stop)[:count], [len(coeffs)] * count,
                                                 row_fac[:count], range(top, top - count, -1),
                                                 range(lo, lo + count))):
                    column += values
                coeffs.append(f.coeffs)
                continue
            fac[at] = row_fac

        self._poly = None
        if coeffs:
            # Longest first (a stable sort), so step j of the sweep runs over
            # a prefix: the entries with a coefficient of w^j or above.
            terms = poly[3]
            by_terms = sorted(range(len(terms)), key=terms.__getitem__, reverse=True)
            poly_entries, member, poly_fac, terms, orders = ([column[c] for c in by_terms] for column in poly)
            L = terms[0] if terms else 0
            # Column c of the table holds the coefficients of entry c, zero
            # above its top coefficient, where Horner's rule stays exact.
            table = _derivative_coeffs(coeffs).transpose(2, 0, 1)[:L, orders, member]
            tops = [0] * L  # entries by their top coefficient, w^(terms - 1)
            for t in terms:
                tops[t - 1] += 1
            self._poly = (
                cos_end,
                np.array(centers, dtype=np.complex128).reshape(-1, 1),
                SAFE_FRACTION * np.array(radii).reshape(-1, 1),
                np.array(member, dtype=int),
                horner,
                [(c[:n], n) for c, n in zip(table[::-1, :, None], accumulate(tops[::-1]))],
            )
            for c, e in enumerate(poly_entries):
                src[e], fac[e] = horner + c, poly_fac[c]
        self._rows = horner + len(poly[0]) + 1
        self._gather = (np.array(src, dtype=int), np.array(fac, dtype=np.complex128).reshape(-1, 1))

    def __call__(self, xi) -> np.ndarray:
        """The flat table, shape (size, N), for arguments xi of shape (rows, N).

        xi may also have one row, the argument of every row (the contour
        nodes of the integral route): it is broadcast, not gathered.
        """
        src, fac = self._gather
        return np.multiply(fac, self._values(xi).take(src, axis=0))

    def _values(self, xi) -> np.ndarray:
        """The rows the table gathers: exp, sin, cos, the Horner sums and a zero row.

        A method of its own, so that its temporaries are freed before the
        table is formed.
        """
        xi = np.asarray(xi, dtype=np.complex128)
        X = xi if self._order is None or len(xi) == 1 else xi.take(self._order, axis=0)
        # Constants on the left of every product, as in eval: numpy's complex
        # multiply is not bitwise commutative, and `a * b` on a large
        # temporary b may be computed as b * a, so np.multiply is explicit.
        w = np.multiply(self._scale, X)
        w += self._shift
        values = np.zeros((self._rows, w.shape[1]), dtype=np.complex128)
        for fn, at, rows in self._bases:
            fn(w[at], out=values[rows])
        if self._poly is not None:
            first, center, safe, member, horner, sweep = self._poly
            v = w[first:]
            v -= center
            # The series lead the block, in row order.  A series whose
            # largest distance is beyond its safe radius has a node beyond
            # it, so one elementwise test passes every valid call; the
            # largest distances (NaN if a distance is) are taken only when
            # some node is beyond.
            k = len(safe)
            if k and np.count_nonzero(np.abs(v[:k]) > safe):
                dist = np.maximum.reduce(np.abs(v[:k]), axis=1)
                over = dist > safe[:, 0]
                if over.any():
                    i = over.argmax()
                    raise HoloDomainError(
                        f"series evaluated at distance {dist[i]:.3g} from its center; "
                        f"safe radius is {safe[i, 0]:.3g}"
                    )
            # Horner as in polyval, into the rows from horner on; an entry
            # joins at its top coefficient, where 0 * w + c = c.
            v = v.take(member, axis=0)
            acc = values[horner:]
            for c, n in sweep:
                a = acc[:n]
                multiply_in_place(a, v[:n])
                a += c
        return values


# -- JSON form ---------------------------------------------------------------


def parse_real(value) -> float:
    """A finite JSON number, a Python int or float, as a float; ValueError otherwise.

    JSON true and false are not numbers, though Python's bool is a subclass of int.
    """
    if type(value) is float:  # most job numbers: the float itself
        if math.isfinite(value):
            return value
    elif type(value) is int:
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
    if type(pair) is list and len(pair) == 2 and type(pair[0]) is float and type(pair[1]) is float:
        # Most job numbers: [re, im] as two floats.
        value = complex(*pair)
        if cmath.isfinite(value):
            return value
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


# -- contours ----------------------------------------------------------------


@dataclass(frozen=True)
class Contour:
    center: complex
    radius: float

    def __post_init__(self):
        if not self.radius > 0:
            raise ValueError("contour radius must be positive")


def enclosing_contour(xi, fns: Sequence) -> Contour:
    """One circle around every point of xi, inside every series' safe disc.

    The centre is the mean of the points and the radius max(2 delta, 1),
    delta the largest distance of a point from the centre.  The radius is
    capped so that the circle stays inside the disc where each series of
    fns may be evaluated: radius SAFE_FRACTION * radius / |scale| about
    (center - shift) / scale, less a rounding margin (HoloFn._safe_disc,
    built once per series).  If the cap leaves no radius above 1.1 delta,
    too little room between the circle and the points for the trapezoid
    rule, HoloDomainError is raised.  A function of another kind, or a
    series that caps nothing, has no safe disc and is skipped.
    """
    points = np.asarray(xi, dtype=np.complex128).ravel().tolist()
    center = sum(points) / len(points)
    delta = max(abs(v - center) for v in points)
    radius = max(2.0 * delta, 1.0)
    for leaf in fns:
        if leaf._safe_disc is None:
            continue
        reach, disc, offset = leaf._safe_disc
        # Rounding in scale * t + shift - center, in units of t.
        slack = 1e-13 * (abs(center) + reach + offset)
        radius = min(radius, reach - abs(center - disc) - slack)
    if not radius > 1.1 * delta:
        raise HoloDomainError(
            f"no circle around the spectrum points (within {delta:.3g} of {center:.6g}) "
            f"fits inside every series' safe disc"
        )
    return Contour(center, radius)


@lru_cache(maxsize=32)
def _unit_roots(nn: int, offset: float) -> np.ndarray:
    """exp(2 pi i (j + offset) / nn) for j < nn, read-only: the nodes on the unit circle."""
    w = np.exp(2j * np.pi * (np.arange(nn) + offset) / nn)
    w.flags.writeable = False
    return w


@lru_cache(maxsize=1)
def _first_rules() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The first call's 2n nodes and the n- and 2n-node rules on them, read-only.

    n = DEFAULT_NODES; the nodes on the unit circle are the n-node rule's
    (the even ones), then the n halfway between them.  The two rules' (2n,
    2) weights are the nodes, and zero for the n-node rule on the new nodes,
    kept in real form, (4n, 4): one real matrix product of the integrand's
    real view gives both sums as (re, im) pairs, rounded about as each
    rule's own dot product is, where a complex matrix product rounded them
    two to three times worse.  The counts n and 2n divide the two sums.
    """
    n = DEFAULT_NODES
    nodes = np.concatenate([_unit_roots(n, 0.0), _unit_roots(n, 0.5)])
    W = np.zeros((2 * n, 2), dtype=np.complex128)
    W[:n, 0], W[:, 1] = nodes[:n], nodes
    # R[node, re/im of the value, rule, re/im of the sum]
    R = np.empty((2 * n, 2, 2, 2))
    R[:, 0, :, 0] = R[:, 1, :, 1] = W.real
    R[:, 1, :, 0], R[:, 0, :, 1] = -W.imag, W.imag
    R = R.reshape(4 * n, 4)
    counts = np.array([n, 2 * n], dtype=float)
    for a in (nodes, R, counts):
        a.flags.writeable = False
    return nodes, R, counts


def contour_integrate(g, contour: Contour, contract=None):
    """(1 / 2*pi*i) * integral of g over the circle, adaptive trapezoid rule.

    g is called with an ndarray of nodes t_j and must return an array whose
    last axis runs over the nodes.  contract, if given, maps each
    quadrature of g to the value that is tested and returned (for example
    the algebra arithmetic that turns integrated moments into an element);
    it must keep a trailing axis, as a matrix product from the left does,
    since the first two rules come to it stacked on a last axis of two.
    The first call evaluates g on the 2n nodes of the 2n-node rule,
    n = DEFAULT_NODES: the n-node rule's nodes (the even ones) first, then
    the n halfway between them, and one product with a (2n, 2) weight
    matrix, in real form (_first_rules), gives both rules' sums.  If they
    are not finite, NonFiniteIntegrand (a HoloDomainError) is raised: no
    rule would converge.  The node count then doubles, each time evaluating
    g only at the new nodes halfway between the old ones, until two
    successive rules agree to QUAD_TOL; it raises UnstableQuadrature when
    the MAX_NODES-node rule still disagrees with the rule before it, so no
    unconverged rule is returned.  The tests use count_nonzero and ndarray
    methods: the np.max and .all() wrappers cost more than the arithmetic
    at one point.
    """
    finish = contract or (lambda v: v)

    def values(w: np.ndarray) -> np.ndarray:
        return np.asarray(g(contour.center + contour.radius * w), dtype=np.complex128)

    nodes, R, counts = _first_rules()
    n = len(nodes)
    vals = np.ascontiguousarray(values(nodes))
    acc = vals.view(np.float64).dot(R).view(np.complex128)  # the two rules' sums, (..., 2)
    rules = finish(acc * (contour.radius / counts))
    if np.count_nonzero(np.isfinite(rules)) < rules.size:
        raise NonFiniteIntegrand("the integrand is not finite on the contour")
    prev, cur = rules[..., 0], rules[..., 1]
    acc = acc[..., 1]
    # max |cur - prev| <= QUAD_TOL (1 + max |cur|).  The right side is at
    # least QUAD_TOL, so a change within it passes without the second
    # maximum; NaN or inf in cur makes the change NaN or inf, failing both.
    while not ((change := abs(cur - prev).max()) <= QUAD_TOL or change <= QUAD_TOL * (1.0 + abs(cur).max())):
        if n >= MAX_NODES:
            raise UnstableQuadrature(f"contour quadrature did not stabilize to {QUAD_TOL:g} at {n} nodes")
        w = _unit_roots(n, 0.5)
        acc = acc + values(w).dot(w)
        n *= 2
        prev, cur = cur, finish(contour.radius / n * acc)
    return cur
