"""Oracles of the tests: pointwise or dense routes that the package does not use.

Each computes something that monogenica computes another way, so the tests
compare the two: the resolvent (t e1 - zeta)^(-1) by its coefficient
recurrence and by the closed form at one t, inversion in the algebra by a
dense linear system, zeta and xi_u at one point, L_N applied to a
function evaluated one point at a time, and the derivatives of one
holomorphic function by a one-row DerivativeStack.
"""

import numpy as np

from monogenica.algebra import AlgebraError, AlgebraSpec, Element
from monogenica.holo import DerivativeStack
from monogenica.monogenic import Point, TriadSpec, stencil_points
from monogenica.pde import PdeSpec
from monogenica.resolvent import assemble_closed, b_coeffs, q_table, spectrum, t_coeffs


class OnSpectrum(Exception):
    """t coincides (to relative tolerance) with a spectrum point xi_u."""


class Singular(AlgebraError):
    """Element is not invertible (some functional f_u vanishes)."""


def embed(spec: AlgebraSpec, triad: TriadSpec, p: Point) -> Element:
    """Coefficients of zeta = x*e1 + y*e2 + z*e3 over the basis."""
    x, y, z = p
    return x * spec.unit() + y * triad.a_vec + z * triad.b_vec


def xi(triad: TriadSpec, p: Point, u: int) -> complex:
    """The complex shadow f_u(zeta) = x + y*a_u + z*b_u."""
    x, y, z = p
    return complex(x + y * triad.a[u - 1] + z * triad.b[u - 1])


def invert(spec: AlgebraSpec, a: Element) -> Element:
    """Solve a * x = 1 by a dense complex linear system.

    Noninvertibility is exactly the vanishing of some f_u(a).
    """
    scale = max(1.0, float(np.max(np.abs(a))))
    for u in range(1, spec.m + 1):
        if abs(spec.functional_f(u, a)) <= 1e-14 * scale:
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


def apply_operator(fn, pde: PdeSpec, p: Point, h: float) -> Element:
    """L_N applied to a pointwise fn at p, one sample per call of fn.

    The same stencil and the same sums as pde.pde_residual, whose batched
    evaluation it checks.
    """
    offsets, weights = pde.stencil
    values = np.array([np.asarray(fn(tuple(q))) for q in stencil_points(p, h, offsets)])
    coeffs = np.array([c for *_, c in pde.terms])
    return coeffs @ (weights @ values) / h**pde.N


def derivatives(f, K: int, xi) -> np.ndarray:
    """f, f', ..., f^(K) at xi (any shape), stacked on a new first axis.

    The one-row case of DerivativeStack; row k equals f.eval(k, xi).
    """
    x = np.asarray(xi, dtype=np.complex128)
    return DerivativeStack([f], [K])(x.reshape(1, -1)).reshape((K + 1,) + x.shape)
