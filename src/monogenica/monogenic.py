"""Monogenic functions of zeta = x*e1 + y*e2 + z*e3 with algebra values.

A monogenic function is determined by one holomorphic function F_u per
idempotent and one G_s per radical basis index.  Three evaluation routes
are provided, on every algebra and at every Gateaux order: the explicit
partial-fraction formula, the Cauchy-type contour integral, and the Taylor
sum in the algebra (eval_special), which uses no resolvent coefficient; all
agree on valid data, which the test suite uses as a standing cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence, Union

import numpy as np

from . import resolvent as rsv
from .algebra import AlgebraSpec, Element, Violation, algebra_from_dict, load_algebra
from .holo import (
    DerivativeStack,
    HoloDomainError,
    NonFiniteIntegrand,
    contour_integrate,
    enclosing_contour,
    holo_from_dict,
    multiply_in_place,
    parse_complex,
)

Point = tuple[float, float, float]


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


def validate_triad(spec: AlgebraSpec, triad: TriadSpec) -> list[Violation]:
    """Real linear independence of {e1, e2, e3} plus the surjectivity condition.

    Returns the violations, none on a valid triad.  The triad has n
    coefficients in a and in b (MonogenicSpec.create checks that).
    """
    violations = []
    # The real 2n x 3 matrix of the columns e1, e2, e3: real parts over
    # imaginary parts.  Its rank is the number of singular values above 1e-10.
    cols = np.array([[1.0] * spec.m + [0.0] * (spec.n - spec.m), triad.a, triad.b])
    real_mat = cols.view(np.float64).reshape(3, spec.n, 2).transpose(2, 1, 0).reshape(-1, 3)
    rank = int((np.linalg.svd(real_mat, compute_uv=False) > 1e-10).sum())
    if rank < 3:
        violations.append(Violation("rank", (rank,), "e1, e2, e3 are linearly dependent over R"))
    for u in range(1, spec.m + 1):
        if abs(triad.a[u - 1].imag) <= 1e-12 and abs(triad.b[u - 1].imag) <= 1e-12:
            violations.append(Violation("surjectivity", (u,),
                                        "both a_u and b_u are real, so f_u does not map onto C"))
    return violations


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
        if not len(triad.a) == len(triad.b) == algebra.n:
            raise ValueError(f"triad a and b need {algebra.n} coefficients each, "
                             f"got {len(triad.a)} and {len(triad.b)}")
        if len(F) != algebra.m:
            raise ValueError(f"need {algebra.m} F functions, got {len(F)}")
        if len(G) != algebra.n - algebra.m:
            raise ValueError(f"need {algebra.n - algebra.m} G functions, got {len(G)}")
        return cls(algebra, triad, F, G)

    def validate(self) -> list[Violation]:
        return validate_triad(self.algebra, self.triad)

    @cached_property
    def _stacks(self) -> dict:
        return {}

    def derivative_stack(self, lo: int = 0, width: int = 0) -> DerivativeStack:
        """F_u then G_q as rows, row i with the orders lo..lo + K_i + width.

        K_i is the highest order the term list reads from row i
        (explicit_plan.orders), so a point at order lo + w, w <= width,
        reads its orders at entries w on of each row.
        """
        stack = self._stacks.get((lo, width))
        if stack is None:
            orders = self.algebra.explicit_plan.orders + width
            stack = self._stacks[lo, width] = DerivativeStack(self.F + self.G, orders, lo)
        return stack

    @cached_property
    def value_stack(self) -> DerivativeStack:
        """F_u then G_q as rows, order 0 only: W(t) at the contour nodes."""
        return DerivativeStack(self.F + self.G, [0] * self.algebra.n)


def extract_components(v: Element) -> list[complex]:
    """Coordinates U_k of v over the basis; Re/Im are the PDE-facing fields."""
    return [complex(c) for c in np.asarray(v)]


# -- explicit evaluation -------------------------------------------------------


def eval_explicit(
    ms: MonogenicSpec, p: Union[Point, np.ndarray], order: Union[int, Sequence[int], np.ndarray] = 0
) -> Element:
    """Partial-fraction representation: exact holomorphic derivatives, no quadrature.

    p is one point (x, y, z), giving the (n,) element, or an (N, 3) array of
    points, giving an (N, n) array with one row per point.  Each numpy
    call of a call runs over the whole batch, so their number does not
    grow with N; it grows with the radical's dimension d = n - m in step 1
    alone, where b_coeffs makes one pass per level of its terms and
    q_table d - 1 einsum calls, one per column after the first:

    1. zeta's coordinates, the spectrum xi_u and T, from one affine map
       (resolvent.coordinates), then, if the algebra has a radical, B and
       the Q-table, for every point;
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

    order may also hold one order per point, so that one call gives Phi and
    Phi^(N) at once.  Then the stack covers the orders lo..hi of the batch
    on every row (ms.derivative_stack(lo, hi - lo)), and one gather moves
    each point's orders into the term list's layout; a row equals the same
    point evaluated alone at its order, bit for bit.
    """
    spec = ms.algebra
    plan = spec.explicit_plan
    # One point is a batch of one, so it takes the same arithmetic (and the
    # same rounding) as a row of a larger batch.
    pts = np.asarray(p, dtype=float)
    shape = pts.shape[:-1]
    pts = pts.reshape(-1, 3)
    lo = hi = order
    if not isinstance(order, (int, np.integer)):
        order = np.asarray(order)
        if order.shape != (len(pts),) or order.dtype.kind not in "iu":
            raise ValueError(f"order must be an int or {len(pts)} ints, one per point, "
                             f"got {order.dtype} of shape {order.shape}")
        lo, hi = (int(order.min()), int(order.max())) if order.size else (0, 0)
    if lo < 0:
        raise ValueError("derivative order must be >= 0")
    Z = rsv.coordinates(ms.triad, spec.m, pts[:, 0], pts[:, 1], pts[:, 2])
    xi = Z.T.take(plan.owner, axis=0)  # owner < m: each row's xi_u
    if hi > lo:
        # Row i of the wide table has hi - lo more entries than the term
        # list's row i, so entry e of the term list's layout, in row
        # rows[e], is wide entry e + (hi - lo) * rows[e] at order lo; a
        # point at order lo + w reads w entries further on.  The wide table
        # is a temporary, freed before the products below.
        narrow = np.arange(len(plan.rows)) + (hi - lo) * plan.rows
        D = np.take_along_axis(ms.derivative_stack(lo, hi - lo)(xi),
                               narrow[:, None] + (order - lo), axis=0)
    else:
        D = ms.derivative_stack(lo)(xi)  # (entries, N)
    out = D.take(plan.offsets, axis=0)
    if plan.starts.size:  # a term list, so a radical: B and the Q-table
        T = Z[:, spec.m :]
        Q = rsv.q_table(spec, T, rsv.b_coeffs(spec, T))
        # No BLAS contraction here: its rounding depends on the batch size,
        # and a row of a batch must equal the same point evaluated alone.
        # The products are taken in place because numpy's complex multiply
        # is not bitwise commutative, and `a * b` on a large temporary b
        # may be computed as b * a.  The cells are gathered by indexing, not
        # take: take first copies this transposed view whole, which costs
        # more than the gather itself at hundreds of points.
        terms = Q.reshape(len(pts), Q.shape[1] * Q.shape[2]).T[plan.cells]
        multiply_in_place(terms, plan.weights)
        multiply_in_place(terms, D.take(plan.entries, axis=0))
        out[spec.m :] += np.add.reduceat(terms, plan.starts, axis=0)
    return out.T.reshape(shape + (spec.n,))


# -- integral evaluation -------------------------------------------------------

MAX_FACTORIAL_ORDER = 170  # the largest r whose r! is a finite float: 171! > 1.8e308


def eval_integral(ms: MonogenicSpec, p: Point, order: int = 0) -> Element:
    """Cauchy-type integral: (r! / 2 pi i) * integral of W(t) * R(t)^(r + 1) over one circle.

    p is one point (x, y, z), a 3-sequence or a (3,) array; any other shape
    raises ValueError (the explicit route takes batches).  order = r gives
    the r-th Gateaux derivative Phi^(r), r = 0 the function itself.  W =
    sum_u I_u F_u + sum_s I_s G_s.  The xi_u and T come from one affine map
    (resolvent.coordinates).  The circle (enclosing_contour, capped by the
    series among F and G) goes around every xi_u at once: W cancels R's
    poles idempotent by idempotent, so they need no separate contours.  R^(r + 1)
    is the Neumann series sum_{u,l} E[u, l] * (t - xi_u)^(-(r + 1 + l)),
    E[u, l] = C(l + r, l) * I_u N^l with N zeta's radical part
    (resolvent.neumann_table), so the route reads no B or Q table.  The
    quadrature integrates the scalar moments W_i(t) * (t - xi_u)^(-(r + 1 + l)):
    per batch of nodes, one order-0 DerivativeStack call for W, its one
    argument row the nodes shared by every row, one in-place cumprod for
    the powers (resolvent.inverse_powers) and one product.  The table
    folded with the product tensor is one (n m (d + 1), n) matrix G,
    G[(i, u, l), k] = sum_j E[u, l, j] * M[j, i, k], one matrix product
    (M is symmetric in i and j), so each rule's algebra arithmetic is one
    product with G; the first two rules are contracted together.  The
    rule is holo's one contour rule (contour_integrate): 32 and 64 nodes
    in the first call, doubled until two successive rules agree; it raises
    UnstableQuadrature when they still disagree at its node cap, so no
    unconverged value is returned.  An order whose r! is beyond the float
    range (r > MAX_FACTORIAL_ORDER) raises HoloDomainError before anything
    is computed, since no value can come out.  An integrand that is not
    finite on the first call (data that overflow on the circle) raises
    HoloDomainError naming the point.  So does a circle
    whose radius is lost in the rounding of its centre, centre + radius or
    centre + i radius equal to the centre in float64 (a point near 1e16
    with a radius-1 circle): its nodes would round onto the centre, and
    onto a spectrum point there.  That test is two scalar sums.
    """
    if order < 0:
        raise ValueError("derivative order must be >= 0")
    if order > MAX_FACTORIAL_ORDER:
        raise HoloDomainError(f"{order}! overflows: the contour route has no value at order {order}")
    spec = ms.algebra
    m, n, d = spec.m, spec.n, spec.n - spec.m
    power = order + 1
    try:
        x, y, z = p
    except (TypeError, ValueError):
        Z = None
    else:
        Z = rsv.coordinates(ms.triad, m, x, y, z)
    if Z is None or Z.shape != (n,):
        try:
            got = f"an array of shape {np.shape(p)}"
        except ValueError:  # a ragged sequence has no shape
            got = repr(p)
        raise ValueError(f"the contour route takes one point (x, y, z), got {got}")
    xi_v, T = Z[:m], Z[m:]
    E = rsv.neumann_table(spec, T, power).reshape(-1, n)  # rows (u, l)
    G = np.dot(E, spec.mult_tensor.reshape(n, -1)).reshape(-1, n, n).transpose(1, 0, 2).reshape(-1, n)
    contour = enclosing_contour(xi_v, ms.F + ms.G)
    c, radius = contour.center, contour.radius
    if c + radius == c or c + 1j * radius == c:
        raise HoloDomainError(f"no contour route at the point {(float(x), float(y), float(z))}: "
                              f"the circle of radius {radius!r} about {c!r} is narrower than "
                              f"the rounding of its centre, so its nodes round onto it")
    stack = ms.value_stack

    def moments(t: np.ndarray) -> np.ndarray:
        W = stack(t[None])  # (n, N)
        pw = rsv.inverse_powers(xi_v, t, power, d)  # (m, d + 1, N)
        return (W[:, None, None] * pw).reshape(-1, len(t))

    try:
        value = contour_integrate(moments, contour, contract=G.T.dot)
    except NonFiniteIntegrand:
        point = (float(x), float(y), float(z))
        raise HoloDomainError(f"the value at {point} is not finite: the data overflow there") from None
    # Not times 0! = 1 at order 0: a complex product by 1 turns -0.0 into 0.0.
    return math.factorial(order) * value if order else value


def gateaux_derivative(ms: MonogenicSpec, p: Union[Point, np.ndarray], r: int) -> Element:
    """r-th Gateaux derivative Phi^(r), r >= 1, by the explicit route.

    p is one point or an (N, 3) array, as for eval_explicit.  The contour
    route at order r is eval_integral(ms, p, r), and the Taylor route
    eval_special(ms, p, r).
    """
    if r < 1:
        raise ValueError("derivative order must be >= 1")
    return eval_explicit(ms, p, order=r)


# -- Taylor evaluation ---------------------------------------------------------


def eval_special(ms: MonogenicSpec, p: Union[Point, np.ndarray], order: int = 0) -> Element:
    """Taylor sum in the algebra, on any algebra: Phi^(r)(zeta) = sum_k c_k N^k / k!.

    zeta = sum_u xi_u I_u + N, N its nilpotent radical part (the Jordan-block
    form of a matrix function, Higham, Functions of Matrices, 2008, 1.2).
    c_k holds F_u^(r+k)(xi_u) on I_u and G_s^(r+k)(xi_{u_s}) on I_s, from
    ms.derivative_stack(r); an order it omits for row i multiplies I_i N^k = 0.
    Horner's rule takes one batched product by N per order over the nonzero
    products I_i I_j -> I_t, j radical, in a fixed order: no T, B or Q table,
    no term list, no contour.  p is one point or an (N, 3) array, as for
    eval_explicit, and a row of a batch equals the point evaluated alone.
    """
    if order < 0:
        raise ValueError("derivative order must be >= 0")
    spec = ms.algebra
    plan = spec.explicit_plan
    pts = np.asarray(p, dtype=float)
    shape = pts.shape[:-1]
    pts = pts.reshape(-1, 3)
    # The coordinates of zeta, one column per point, from the one affine
    # map of every route: the xi_u, then N.
    zeta = rsv.coordinates(ms.triad, spec.m, pts[:, 0], pts[:, 1], pts[:, 2]).T
    stack = ms.derivative_stack(order)
    # c_k / k! at C[k, i]: entry offsets[i] + k of the table is row i at order k.
    rows = plan.rows
    k = np.arange(stack.size) - stack.offsets[rows]
    inv_fact = np.array([1 / math.factorial(j) for j in range(plan.orders.max() + 1)])
    C = np.zeros((len(inv_fact), spec.n, len(pts)), dtype=np.complex128)
    C[k, rows] = np.multiply(stack(zeta[plan.owner]), inv_fact[k, None])
    # The products I_i I_j -> I_t with j radical, by t: Y[i, j, t] N_j at each point.
    (i, j, t), y = spec.radical_terms
    starts = np.flatnonzero(np.diff(t, prepend=-1))
    YN = np.multiply(y[:, None], zeta[j])
    acc = C[-1]
    for c in C[-2::-1]:
        terms = acc[i]
        multiply_in_place(terms, YN)
        c[t[starts]] += np.add.reduceat(terms, starts, axis=0)
        acc = c
    return acc.T.reshape(shape + (spec.n,))


# -- differential checks ---------------------------------------------------------


H_CR = 1e-5  # the default step of the Cauchy-Riemann stencil (check --h-cr)
_CR_OFFSETS = np.array([
    (1, 0, 0), (-1, 0, 0),
    (0, 1, 0), (0, -1, 0),
    (0, 0, 1), (0, 0, -1),
], dtype=float)


def stencil_points(p: Union[Point, np.ndarray], h: float, offsets: np.ndarray) -> np.ndarray:
    """p + h * offsets at every point p: (K N, 3) for K offsets, K rows per point."""
    return (np.asarray(p, dtype=float).reshape(-1, 1, 3) + h * offsets).reshape(-1, 3)


def cr_stencil(p: Union[Point, np.ndarray], h: float) -> np.ndarray:
    """The six central-difference points of every point: (6 N, 3), six rows per point."""
    return stencil_points(p, h, _CR_OFFSETS)


def cr_residual(
    ms: MonogenicSpec,
    p: Union[Point, np.ndarray],
    h: float = H_CR,
    values: np.ndarray | None = None,
) -> tuple[Element, Element]:
    """Cauchy-Riemann residuals (dPhi/dy - dPhi/dx * e2, dPhi/dz - dPhi/dx * e3).

    Central differences of the explicit evaluation, one batched call on the
    six stencil points of every point.  p is one point, giving two (n,)
    residuals, or an (N, 3) array, giving two (N, n) arrays.  values, if
    given, are the values at cr_stencil(p, h), for example rows of a larger
    batched call or of another evaluator, and nothing is evaluated.
    Near-zero certifies monogenicity at the point, a large value is a
    broken-data signal.
    """
    spec = ms.algebra
    shape = np.shape(p)[:-1]
    if values is None:
        values = eval_explicit(ms, cr_stencil(p, h))
    v = np.reshape(values, (-1, 6, spec.n))
    dx = (v[:, 0] - v[:, 1]) / (2 * h)
    dy = (v[:, 2] - v[:, 3]) / (2 * h)
    dz = (v[:, 4] - v[:, 5]) / (2 * h)
    # Row-wise products dx * e2 and dx * e3 by the multiplication matrices.
    ry = dy - dx @ spec.mult_matrix(ms.triad.a_vec).T
    rz = dz - dx @ spec.mult_matrix(ms.triad.b_vec).T
    return ry.reshape(shape + (spec.n,)), rz.reshape(shape + (spec.n,))


# -- JSON form ---------------------------------------------------------------


def monogenic_from_dict(data: Mapping) -> MonogenicSpec:
    """The JSON form; a string algebra is a file path, read as given (cli.build_spec resolves it)."""
    alg = data["algebra"]
    algebra = load_algebra(alg) if isinstance(alg, str) else algebra_from_dict(alg)
    triad = TriadSpec.create(
        [parse_complex(v) for v in data["triad"]["a"]],
        [parse_complex(v) for v in data["triad"]["b"]],
    )
    F = [holo_from_dict(d) for d in data.get("F", [])]
    G = [holo_from_dict(d) for d in data.get("G", [])]
    return MonogenicSpec.create(algebra, triad, F, G)
