"""Monogenic functions of zeta = x*e1 + y*e2 + z*e3 with algebra values.

A monogenic function is determined by one holomorphic function F_u per
idempotent and one G_s per radical basis index.  Three evaluation routes
are provided: the explicit partial-fraction formula, the Cauchy-type
contour integral, and fast paths for the special algebra classes; all
agree on valid data, which the test suite uses as a standing cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable, Mapping, Sequence, Union

import numpy as np

from . import resolvent as rsv
from .algebra import (
    AlgebraSpec,
    Element,
    SpecialCase,
    ValidationReport,
    algebra_from_dict,
    load_algebra,
)
from .holo import DerivativeStack, contour_integrate, default_contour, holo_from_dict, parse_complex

Point = tuple[float, float, float]


class NotSpecial(Exception):
    """Algebra has no special-case fast path."""


@dataclass(frozen=True)
class TriadSpec:
    """Coefficient vectors of e2 and e3 over the basis; e1 = 1 is implicit."""

    a: tuple[complex, ...]
    b: tuple[complex, ...]

    @classmethod
    def create(cls, a: Sequence[complex], b: Sequence[complex]) -> "TriadSpec":
        return cls(tuple(complex(v) for v in a), tuple(complex(v) for v in b))

    @cached_property
    def a_vec(self) -> np.ndarray:
        return np.asarray(self.a, dtype=np.complex128)

    @cached_property
    def b_vec(self) -> np.ndarray:
        return np.asarray(self.b, dtype=np.complex128)


def validate_triad(spec: AlgebraSpec, triad: TriadSpec) -> ValidationReport:
    """Real linear independence of {e1, e2, e3} plus the surjectivity condition."""
    report = ValidationReport()
    if len(triad.a) != spec.n or len(triad.b) != spec.n:
        report.add("dimension", (len(triad.a), len(triad.b)), f"expected length {spec.n}")
        return report
    e1 = spec.unit()
    cols = np.stack([e1, triad.a_vec, triad.b_vec], axis=1)
    real_mat = np.vstack([cols.real, cols.imag])  # 2n x 3
    rank = np.linalg.matrix_rank(real_mat, tol=1e-10)
    if rank < 3:
        report.add("rank", (rank,), "e1, e2, e3 are linearly dependent over R")
    for u in range(1, spec.m + 1):
        if abs(triad.a[u - 1].imag) <= 1e-12 and abs(triad.b[u - 1].imag) <= 1e-12:
            report.add(
                "surjectivity",
                (u,),
                "both a_u and b_u are real, so f_u does not map onto C",
            )
    return report


def embed(spec: AlgebraSpec, triad: TriadSpec, p: Point) -> Element:
    """Coefficients of zeta = x*e1 + y*e2 + z*e3 over the basis."""
    x, y, z = p
    return x * spec.unit() + y * triad.a_vec + z * triad.b_vec


def xi(triad: TriadSpec, p: Point, u: int) -> complex:
    """The complex shadow f_u(zeta) = x + y*a_u + z*b_u."""
    x, y, z = p
    return complex(x + y * triad.a[u - 1] + z * triad.b[u - 1])


def xi_all(spec: AlgebraSpec, triad: TriadSpec, p: Point) -> np.ndarray:
    x, y, z = p
    return rsv.spectrum(triad, spec.m, x, y, z)


@dataclass(frozen=True)
class MonogenicSpec:
    """Algebra + triad + the holomorphic data determining one monogenic function."""

    algebra: AlgebraSpec
    triad: TriadSpec
    F: tuple  # m holomorphic functions, one per idempotent
    G: tuple  # n - m holomorphic functions, indexed s = m+1..n

    @classmethod
    def create(cls, algebra: AlgebraSpec, triad: TriadSpec, F: Sequence, G: Sequence = ()) -> "MonogenicSpec":
        F = tuple(F)
        G = tuple(G)
        if len(F) != algebra.m:
            raise ValueError(f"need {algebra.m} F functions, got {len(F)}")
        if len(G) != algebra.n - algebra.m:
            raise ValueError(f"need {algebra.n - algebra.m} G functions, got {len(G)}")
        return cls(algebra, triad, F, G)

    def validate(self) -> ValidationReport:
        return validate_triad(self.algebra, self.triad)

    @cached_property
    def _stacks(self) -> dict:
        return {}

    def derivative_stack(self, order: int = 0) -> DerivativeStack:
        """F_u then G_q as rows, with the orders order.. that the term list needs."""
        stack = self._stacks.get(order)
        if stack is None:
            orders = self.algebra.explicit_plan.orders
            stack = self._stacks[order] = DerivativeStack(self.F + self.G, orders, order)
        return stack


def extract_components(v: Element) -> list[complex]:
    """Coordinates U_k of v over the basis; Re/Im are the PDE-facing fields."""
    return [complex(c) for c in np.asarray(v)]


# -- explicit evaluation -------------------------------------------------------


def eval_explicit(ms: MonogenicSpec, p: Union[Point, np.ndarray], order: int = 0) -> Element:
    """Partial-fraction representation: exact holomorphic derivatives, no quadrature.

    p is one point (x, y, z), giving the (n,) element, or an (N, 3) array of
    points, giving an (N, n) array with one row per point.  A call costs a
    fixed number of numpy calls whatever n is, each over the whole batch:

    1. the spectrum xi_u, T, B and the Q-table for every point;
    2. one DerivativeStack call: every F_u and G_q with the derivative
       orders the algebra's term list needs, at its own xi_u;
    3. the values F_u(xi_u) and G_q(xi_{u_q}) as the first estimate;
    4. one elementwise product per (term, order) of the term list
       (`AlgebraSpec.explicit_plan`): weight * Q-table cell * derivative;
    5. one reduceat that sums the products into their components.

    The term list and the stack's constants are built on the first call
    and kept on the algebra and on ms.

    order = r gives the r-th Gateaux derivative Phi^(r), the monogenic
    function with data F_u^(r) and G_q^(r): differentiating the Cauchy-type
    integral r times and integrating by parts on its closed contour turns
    the integral of W R^(r+1) r! into that of W^(r) R.  So every derivative
    stack starts at order r and the arithmetic is otherwise unchanged.
    """
    if order < 0:
        raise ValueError("derivative order must be >= 0")
    spec = ms.algebra
    plan = spec.explicit_plan
    shape = np.shape(p)[:-1]
    # One point is a batch of one, so it takes the same arithmetic (and the
    # same rounding) as a row of a larger batch.
    pts = np.asarray(p, dtype=float).reshape(-1, 3)
    x, y, z = pts.T
    xi_v = rsv.spectrum(ms.triad, spec.m, x, y, z)
    T = rsv.t_coeffs(spec, ms.triad, y, z)
    Q = rsv.q_table(spec, T, rsv.b_coeffs(spec, T))
    D = ms.derivative_stack(order)(xi_v.T[plan.owner])  # (entries, N)
    out = D[plan.offsets]
    if plan.starts.size:
        # No BLAS contraction here: its rounding depends on the batch size,
        # and a row of a batch must equal the same point evaluated alone.
        # The products are taken in place because numpy's complex multiply
        # is not bitwise commutative, and `a * b` on a large temporary b
        # may be computed as b * a.
        terms = Q.reshape(len(pts), Q.shape[1] * Q.shape[2]).T[plan.cells]
        terms *= plan.weights
        terms *= D[plan.entries]
        out[plan.targets] += np.add.reduceat(terms, plan.starts, axis=0)
    return out.T.reshape(shape + (spec.n,))


# -- integral evaluation -------------------------------------------------------


def _clusters(xi_v: np.ndarray) -> list[list[int]]:
    """Group 0-based idempotent indices whose xi values coincide exactly.

    Distinct clusters separated by <= 1e-10 are rejected upstream by
    default_contour (CoincidentSpectrum).
    """
    groups: dict[complex, list[int]] = {}
    for u, val in enumerate(xi_v):
        groups.setdefault(complex(val), []).append(u)
    return list(groups.values())


def _integral_assembly(ms: MonogenicSpec, p: Point, power: int, nodes: int) -> Element:
    """Sum of cluster contour integrals of W(t) * R(t)^power.

    W collects F_u on the cluster's idempotents and G_s on the radical
    indices attached to them; power = 1 gives the function itself,
    power = r + 1 (with an r! factor applied by the caller) the r-th
    Gateaux derivative.
    """
    spec, triad = ms.algebra, ms.triad
    x, y, z = p
    xi_v = xi_all(spec, triad, p)
    T = rsv.t_coeffs(spec, triad, y, z)
    Q = rsv.q_table(spec, T, rsv.b_coeffs(spec, T))
    # Everything but W(t) and the powers of 1/(t - xi_u) is the same at
    # every node, so it is computed once per point.
    weights = rsv.closed_weights(spec, Q, power)

    total = np.zeros(spec.n, dtype=np.complex128)
    clusters = _clusters(xi_v)
    centers = [xi_v[c[0]] for c in clusters]
    for ci, cluster in enumerate(clusters):
        others = [centers[j] for j in range(len(clusters)) if j != ci]
        contour = default_contour(centers[ci], others, nodes)
        # F_u for u in the cluster, and G_s for the radical indices they own.
        parts = [(u, ms.F[u]) for u in cluster]
        parts += [(spec.m + si, ms.G[si]) for si, u in enumerate(spec.radical_owner) if u in cluster]

        def integrand(t: np.ndarray) -> np.ndarray:
            W = np.zeros((spec.n, len(t)), dtype=np.complex128)
            for i, f in parts:
                W[i] = f.eval(0, t)
            Rp = rsv.assemble_closed(spec, xi_v, Q, t, power, weights)  # (n, N)
            return spec.multiply_columns(W, Rp)

        total += contour_integrate(integrand, contour)
    return total


def eval_integral(ms: MonogenicSpec, p: Point, nodes: int = 256) -> Element:
    """Cauchy-type integral representation over circles around the xi_u."""
    return _integral_assembly(ms, p, power=1, nodes=nodes)


def gateaux_derivative(
    ms: MonogenicSpec,
    p: Union[Point, np.ndarray],
    r: int,
    nodes: int = 256,
    method: str = "explicit",
) -> Element:
    """r-th Gateaux derivative Phi^(r).

    method "explicit" is eval_explicit(ms, p, order=r): no quadrature, and p
    may be an (N, 3) array.  "integral" is the contour quadrature of
    W(t) * R(t)^(r+1) * r! at one point, kept as the cross-check.
    """
    if r < 1:
        raise ValueError("derivative order must be >= 1")
    if method == "explicit":
        return eval_explicit(ms, p, order=r)
    if method == "integral":
        return math.factorial(r) * _integral_assembly(ms, p, power=r + 1, nodes=nodes)
    raise ValueError(f"unknown method {method!r}: use 'explicit' or 'integral'")


# -- special-case evaluation ---------------------------------------------------


def eval_special(ms: MonogenicSpec, p: Point) -> Element:
    """Fast path for semi-simple, single-idempotent-action, and all-distinct cases."""
    spec, triad = ms.algebra, ms.triad
    case = spec.classify_special_case()
    xi_v = xi_all(spec, triad, p)

    if case is SpecialCase.SEMI_SIMPLE:
        return np.array(
            [ms.F[u].eval(0, xi_v[u]) for u in range(spec.m)], dtype=np.complex128
        )

    if case is SpecialCase.PROP2:
        x, y, z = p
        T = rsv.t_coeffs(spec, triad, y, z)
        out = np.zeros(spec.n, dtype=np.complex128)
        for u in range(spec.m):
            out[u] = ms.F[u].eval(0, xi_v[u])
        for s in range(spec.m + 1, spec.n + 1):
            si = s - spec.m - 1
            xi_us = xi_v[spec.u_map[s] - 1]
            out[s - 1] = (
                ms.G[si].eval(0, xi_us)
                + T[si] * ms.F[spec.u_map[s] - 1].eval(1, xi_us)
            )
        return out

    if case is SpecialCase.PROP1:
        # All radical indices share one idempotent; the general formula
        # collapses to a single evaluation argument xi_eta.
        return eval_explicit(ms, p)

    raise NotSpecial("algebra is neither semi-simple nor Prop1/Prop2")


# -- differential checks ---------------------------------------------------------


_CR_OFFSETS = np.array([
    (1, 0, 0), (-1, 0, 0),
    (0, 1, 0), (0, -1, 0),
    (0, 0, 1), (0, 0, -1),
], dtype=float)


def cr_residual(
    ms: MonogenicSpec,
    p: Union[Point, np.ndarray],
    h: float = 1e-5,
    evaluator: Callable[[Point], Element] | None = None,
) -> tuple[Element, Element]:
    """Cauchy-Riemann residuals (dPhi/dy - dPhi/dx * e2, dPhi/dz - dPhi/dx * e3).

    Central differences of the explicit evaluation (one batched call on the
    six stencil points of every point) or of a pointwise evaluator.  p is
    one point, giving two (n,) residuals, or an (N, 3) array, giving two
    (N, n) arrays.  Near-zero certifies monogenicity at the point, a large
    value is a broken-data signal.
    """
    spec = ms.algebra
    shape = np.shape(p)[:-1]
    pts = np.asarray(p, dtype=float).reshape(-1, 1, 3)
    stencil = (pts + h * _CR_OFFSETS).reshape(-1, 3)  # six rows per point
    if evaluator is None:
        v = eval_explicit(ms, stencil)
    else:
        v = np.array([evaluator(tuple(q)) for q in stencil])
    v = v.reshape(-1, 6, spec.n)
    dx = (v[:, 0] - v[:, 1]) / (2 * h)
    dy = (v[:, 2] - v[:, 3]) / (2 * h)
    dz = (v[:, 4] - v[:, 5]) / (2 * h)
    # Row-wise products dx * e2 and dx * e3 by the multiplication matrices.
    ry = dy - dx @ spec.mult_matrix(ms.triad.a_vec).T
    rz = dz - dx @ spec.mult_matrix(ms.triad.b_vec).T
    return ry.reshape(shape + (spec.n,)), rz.reshape(shape + (spec.n,))


# -- JSON form ---------------------------------------------------------------


def monogenic_from_dict(data: Mapping, base_dir: Union[str, Path, None] = None) -> MonogenicSpec:
    alg = data["algebra"]
    if isinstance(alg, str):
        path = Path(alg)
        if base_dir is not None and not path.is_absolute():
            path = Path(base_dir) / path
        algebra = load_algebra(path)
    else:
        algebra = algebra_from_dict(alg)
    triad = TriadSpec.create(
        [parse_complex(v) for v in data["triad"]["a"]],
        [parse_complex(v) for v in data["triad"]["b"]],
    )
    F = [holo_from_dict(d) for d in data.get("F", [])]
    G = [holo_from_dict(d) for d in data.get("G", [])]
    return MonogenicSpec.create(algebra, triad, F, G)
