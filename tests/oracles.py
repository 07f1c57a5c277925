"""Oracles of the tests: pointwise or dense routes that the package does not use.

Each computes something that monogenica computes another way, so the tests
compare the two: the resolvent (t e1 - zeta)^(-1) by its coefficient
recurrence and by the closed form at one t, inversion in the algebra by a
dense linear system, zeta and xi_u at one point, L_N applied to a
function by central differences, one point at a time, the values of an
evaluator at the samples of a circle stencil, and the derivatives of one
holomorphic function by a one-row DerivativeStack.  nonvanishing_scan is
the symbol scan by |P| on a zero-filled grid, whose results
pde.p_nonvanishing_scan must match bit for bit.  Three take the
floating-point operations of a package function in another arrangement,
so the tests compare their bits: xi_u and T_s as two separate sums, and
the inverse powers of t - xi_u by cumprod over a stack of d + 1 arrays.
The JSON writers of algebras, holomorphic functions and PDEs, which the
package only reads, are the round-trip tests' other half.  basis,
functional_f and radical_project are element helpers only the tests use,
and EXTREMES the extreme numbers that the property tests draw from.
"""

import numpy as np

from monogenica.algebra import AlgebraError, AlgebraSpec, Element
from monogenica.holo import DerivativeStack, HoloFn
from monogenica.monogenic import CR_TERMS, MonogenicSpec, Point, TriadSpec, circle_radius, circle_samples
from monogenica.pde import NoZeroFound, PdeSpec, ZeroAt, p_poly
from monogenica.resolvent import assemble_closed, b_coeffs, coordinates, q_table, t_coeffs


# The extremes of every number a command or the scan reads, each with either sign.
EXTREMES = [s * v for v in (0.0, 5e-324, 1e-300, 1e8, 1e16, 1e200, 1.7e308) for s in (1.0, -1.0)]


class OnSpectrum(Exception):
    """t coincides (to relative tolerance) with a spectrum point xi_u."""


class Singular(AlgebraError):
    """Element is not invertible (some functional f_u vanishes)."""


def basis(spec: AlgebraSpec, k: int) -> Element:
    """Basis vector I_k, 1-based."""
    e = np.zeros(spec.n, dtype=np.complex128)
    e[k - 1] = 1.0
    return e


def functional_f(spec: AlgebraSpec, u: int, a: Element) -> complex:
    """The multiplicative functional f_u: read the u-th coordinate."""
    if not 1 <= u <= spec.m:
        raise AlgebraError(f"functional index {u} outside [1, {spec.m}]")
    return complex(a[u - 1])


def radical_project(spec: AlgebraSpec, a: Element) -> Element:
    """a with its idempotent coordinates set to zero."""
    out = a.astype(np.complex128, copy=True)
    out[: spec.m] = 0.0
    return out


def embed(spec: AlgebraSpec, triad: TriadSpec, p: Point) -> Element:
    """Coefficients of zeta = x*e1 + y*e2 + z*e3 over the basis."""
    x, y, z = p
    return x * spec.unit() + y * triad.a_vec + z * triad.b_vec


def xi(triad: TriadSpec, p: Point, u: int) -> complex:
    """The complex shadow f_u(zeta) = x + y*a_u + z*b_u."""
    x, y, z = p
    return complex(x + y * triad.a[u - 1] + z * triad.b[u - 1])


def spectrum(triad: TriadSpec, m: int, x, y, z) -> np.ndarray:
    """xi_u = x + y*a_u + z*b_u for u = 1..m, along a new last axis: coordinates' first m."""
    return coordinates(triad, m, x, y, z)[..., :m]


def spectrum_sum(triad: TriadSpec, m: int, x, y, z) -> np.ndarray:
    """xi_u = x + y*a_u + z*b_u for u = 1..m, along a new last axis, summed left to right."""
    x, y, z = (np.asarray(v)[..., None] for v in (x, y, z))
    return x + y * triad.a_vec[:m] + z * triad.b_vec[:m]


def t_sum(spec: AlgebraSpec, triad: TriadSpec, y, z) -> np.ndarray:
    """T_s = y*a_s + z*b_s for s = m+1..n, along a new last axis."""
    y, z = (np.asarray(v)[..., None] for v in (y, z))
    return y * triad.a_vec[spec.m :] + z * triad.b_vec[spec.m :]


def wrong_xi_values(ms: MonogenicSpec, q: Point, order: int = 0) -> Element:
    """Negative control on alg_p2: Phi at q with each G_s fed the other idempotent's xi.

    G_3 belongs to xi_1 and G_4 to xi_2; swapped, the values are no longer
    monogenic, so their Cauchy-Riemann residuals must be large.  q may be
    complex; order r gives the r-th x-derivative of these values, each
    derivative order raised by r, as x enters every xi_u with coefficient 1.
    """
    F, G = ms.F, ms.G
    xi_v = spectrum(ms.triad, ms.algebra.m, *q)
    T = t_coeffs(ms.algebra, ms.triad, q[1], q[2])
    out = np.zeros(4, dtype=np.complex128)
    out[0] = F[0].eval(order, xi_v[0])
    out[1] = F[1].eval(order, xi_v[1])
    out[2] = G[0].eval(order, xi_v[1]) + T[0] * F[0].eval(order + 1, xi_v[0])
    out[3] = G[1].eval(order, xi_v[0]) + T[1] * F[1].eval(order + 1, xi_v[1])
    return out


def circle_values(ms: MonogenicSpec, p: Point, evaluate, exponents=CR_TERMS) -> np.ndarray:
    """evaluate(q, r) at each sample q, Gateaux order r, of monogenic.circle_stencil(exponents) about p.

    One call per sample: the values that cr_residual and pde_residual take
    as values= from an evaluator of one point at a time.
    """
    pts = np.array([p], dtype=float)
    samples, orders = circle_samples(pts, circle_radius(ms, pts, exponents), exponents)
    return np.array([evaluate(tuple(q), int(r)) for q, r in zip(samples, orders)])


def stacked_inverse_powers(xi: np.ndarray, t, power: int, d: int) -> np.ndarray:
    """(t - xi_u)^(-(power + l)) for l = 0..d, by cumprod over a stack of d + 1 arrays."""
    t = np.asarray(t, dtype=np.complex128)
    inv = 1.0 / (t - np.reshape(xi, (-1,) + (1,) * t.ndim))
    return np.cumprod(np.stack([inv**power] + [inv] * d, axis=1), axis=1)


def invert(spec: AlgebraSpec, a: Element) -> Element:
    """Solve a * x = 1 by a dense complex linear system.

    Noninvertibility is exactly the vanishing of some f_u(a).
    """
    scale = max(1.0, float(np.max(np.abs(a))))
    for u in range(1, spec.m + 1):
        if abs(functional_f(spec, u, a)) <= 1e-14 * scale:
            raise Singular(f"f_{u}(a) = 0: element lies on line L_{u}")
    x = np.linalg.solve(spec.mult_matrix(a), spec.unit())
    residual = spec.multiply(a, x) - spec.unit()
    if np.max(np.abs(residual)) > 1e-10 * scale:
        raise Singular(f"inversion residual {np.max(np.abs(residual)):.3e}")
    return x


def _check_off_spectrum(t: complex, xi_v: np.ndarray) -> None:
    tol = 1e-12 * max(1.0, abs(t))
    if np.min(np.abs(t - xi_v)) <= tol:
        u = int(np.argmin(np.abs(t - xi_v))) + 1
        raise OnSpectrum(f"t = {t} coincides with xi_{u} = {xi_v[u - 1]}")


def resolvent_recurrence(spec: AlgebraSpec, triad: TriadSpec, point: Point, t: complex) -> Element:
    """Coefficients A_r of (t*e1 - zeta)^(-1) by the direct recurrence."""
    x, y, z = point
    xi_v = spectrum(triad, spec.m, x, y, z)
    _check_off_spectrum(t, xi_v)
    T = t_coeffs(spec, triad, y, z)
    B = b_coeffs(spec, T)
    A = np.zeros(spec.n, dtype=np.complex128)
    A[: spec.m] = 1.0 / (t - xi_v)
    for p in range(spec.m + 1, spec.n + 1):
        xi_up = xi_v[spec.u_map[p] - 1]
        acc = T[p - spec.m - 1] / (t - xi_up) ** 2
        if p > spec.m + 1:
            cross = 0.0 + 0.0j
            for r in range(spec.m + 1, p):
                cross += A[r - 1] * B[r - spec.m - 1, p - spec.m - 1]
            acc += cross / (t - xi_up)
        A[p - 1] = acc
    return A


def resolvent_closed(spec: AlgebraSpec, triad: TriadSpec, point: Point, t: complex) -> Element:
    """Partial-fraction form at one point and one t: sum over idempotents plus Q-table terms."""
    x, y, z = point
    xi_v = spectrum(triad, spec.m, x, y, z)
    _check_off_spectrum(t, xi_v)
    T = t_coeffs(spec, triad, y, z)
    Q = q_table(spec, T, b_coeffs(spec, T))
    return assemble_closed(spec, xi_v, Q, t)


def central_stencil(order: int) -> tuple[range, list[float]]:
    """Offsets and weights of the O(h^2) central stencil for d^order/dx^order.

    [1, -2, 1] convolved order // 2 times, then [-1/2, 0, 1/2] for an odd
    order; the weights are small dyadic numbers, exact in any summation order.
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


def apply_operator(fn, pde: PdeSpec, p: Point, h: float) -> Element:
    """L_N applied to a pointwise fn at real points about p, by central differences of step h.

    The finite-difference oracle: one call of fn per sample of each term's
    tensor-product stencil.  Unlike pde.pde_residual's exact partials it
    needs no holomorphy, so it also differentiates the real part of a
    component.
    """
    total = 0.0
    for alpha, beta, gamma, c in pde.terms:
        (ox, wx), (oy, wy), (oz, wz) = map(central_stencil, (alpha, beta, gamma))
        for i, cx in zip(ox, wx):
            for j, cy in zip(oy, wy):
                for k, cz in zip(oz, wz):
                    q = (p[0] + h * i, p[1] + h * j, p[2] + h * k)
                    total = total + c * cx * cy * cz * np.asarray(fn(q))
    return total / h**pde.N


def derivatives(f, K: int, xi) -> np.ndarray:
    """f, f', ..., f^(K) at xi (any shape), stacked on a new first axis.

    The one-row case of DerivativeStack; row k equals f.eval(k, xi).
    """
    x = np.asarray(xi, dtype=np.complex128)
    return DerivativeStack([f], [K])(x.reshape(1, -1)).reshape((K + 1,) + x.shape)


def nonvanishing_scan(pde: PdeSpec, box: float = 10.0, grid: int = 101):
    """pde.p_nonvanishing_scan by the grid's |P|, its max and argmin, then min and max of P.

    The grid is summed from np.zeros, term after term, and the leading
    part likewise; the results must equal the package's bit for bit.
    """
    axis = np.linspace(-box, box, grid)
    P = np.zeros((len(axis), len(axis)))
    powers = {k: axis**k for k in {e for _, beta, gamma, _ in pde.terms for e in (beta, gamma)}}
    for _, beta, gamma, c in pde.terms:
        P += np.multiply.outer(c * powers[beta], powers[gamma])
    size = np.abs(P)
    scale = max(1.0, float(size.max()))
    ia, ib = np.unravel_index(int(size.argmin()), P.shape)
    if abs(P[ia, ib]) <= 1e-9 * scale:
        return ZeroAt(float(axis[ia]), float(axis[ib]))
    if P.min() < 0.0 < P.max():
        neg = np.unravel_index(int(np.argmin(P)), P.shape)
        pos = np.unravel_index(int(np.argmax(P)), P.shape)
        lo = axis[list(neg)]
        hi = axis[list(pos)]
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if p_poly(pde.terms, mid[0], mid[1]) < 0:
                lo = mid
            else:
                hi = mid
        return ZeroAt(float(mid[0]), float(mid[1]))
    theta = np.linspace(0.0, 2.0 * np.pi, 720, endpoint=False)
    cos, sin = np.cos(theta), np.sin(theta)
    deg = max(beta + gamma for _, beta, gamma, _ in pde.terms)
    if deg > 0:
        lead = np.zeros_like(theta)
        for _, beta, gamma, c in pde.terms:
            if beta + gamma == deg:
                lead += c * cos**beta * sin**gamma
        if lead.min() < 0.0 < lead.max():
            k = int(np.argmin(lead))
            direction = np.array([np.cos(theta[k]), np.sin(theta[k])])
            r = box
            while p_poly(pde.terms, *(r * direction)) >= 0 and r < 1e9:
                r *= 2.0
            if p_poly(pde.terms, *(r * direction)) < 0:
                lo, hi = np.zeros(2), r * direction
                for _ in range(200):
                    mid = 0.5 * (lo + hi)
                    if p_poly(pde.terms, mid[0], mid[1]) >= 0:
                        lo = mid
                    else:
                        hi = mid
                return ZeroAt(float(mid[0]), float(mid[1]))
    return NoZeroFound()


# -- JSON writers ----------------------------------------------------------------


def algebra_to_dict(spec: AlgebraSpec) -> dict:
    return {
        "n": spec.n,
        "m": spec.m,
        "upsilon": [
            [r, s, k, v.real, v.imag] for (r, s, k), v in sorted(spec.upsilon.items())
        ],
        "u_map": {str(s): u for s, u in sorted(spec.u_map.items())},
    }


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


def pde_to_dict(pde: PdeSpec) -> dict:
    return {"N": pde.N, "terms": [list(t) for t in pde.terms]}
