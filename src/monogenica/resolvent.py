"""Resolvent (t*e1 - zeta)^(-1) via recurrences and the Q-table closed form.

The resolvent of the hypercomplex variable zeta = x*e1 + y*e2 + z*e3 is a
rational function of t with poles only at the spectrum points
xi_u = x + y*a_u + z*b_u.  Two equivalent assemblies are provided: the
coefficient recurrence (A-values) and the partial-fraction closed form built
from the Q-table; both are cross-checkable against plain linear-system
inversion in the algebra.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .algebra import AlgebraSpec, Element

if TYPE_CHECKING:  # pragma: no cover
    from .monogenic import TriadSpec

B_NONZERO_TOL = 1e-14


class OnSpectrum(Exception):
    """t coincides (to relative tolerance) with a spectrum point xi_u."""


def spectrum(triad: "TriadSpec", m: int, x, y, z) -> np.ndarray:
    """xi_u = x + y*a_u + z*b_u for u = 1..m, along a new last axis.

    x, y, z are scalars or arrays of one shape (a batch of points).
    """
    x, y, z = (np.asarray(v)[..., None] for v in (x, y, z))
    return x + y * triad.a_vec[:m] + z * triad.b_vec[:m]


def t_coeffs(spec: AlgebraSpec, triad: "TriadSpec", y, z) -> np.ndarray:
    """T_s = y*a_s + z*b_s for the radical indices s = m+1..n, along a new last axis."""
    y, z = (np.asarray(v)[..., None] for v in (y, z))
    return y * triad.a_vec[spec.m :] + z * triad.b_vec[spec.m :]


def b_coeffs(spec: AlgebraSpec, T: np.ndarray) -> np.ndarray:
    """B[..., r, p] = sum_{s < p} T_s * Y[r, s -> p] for r < p; indices offset by m+1.

    T may carry leading batch axes.  The last two axes form a dense
    (n-m) x (n-m) array whose entries outside r < p stay zero.  The sum runs
    over the nonzero Y only, elementwise and in a fixed order: a BLAS
    matmul would round a row differently with the batch size wherever
    several s feed one B[r, p].
    """
    d = spec.n - spec.m
    T = np.asarray(T)
    B = np.zeros(T.shape[:-1] + (d * d,), dtype=np.complex128)
    for s, y, cells in spec.b_terms:
        B[..., cells] += T[..., s] * y
    return B.reshape(T.shape[:-1] + (d, d))


def q_table(spec: AlgebraSpec, T: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Q[..., k, s - m - 1] for k = 2..s-m+1; Q_{2,s} = T_s, higher k by recurrence.

    Q_{k,s} = sum_{r < s} Q_{k-1,r} * B_{r,s}; column s needs only the
    columns before it, so the table fills one column at a time over the
    whole batch.
    """
    d = spec.n - spec.m
    Q = np.zeros(T.shape[:-1] + (d + 3, d), dtype=np.complex128)
    Q[..., 2, :] = T
    for si in range(1, d):
        Q[..., 3 : si + 3, si] = np.einsum(
            "...kr,...r->...k", Q[..., 2 : si + 2, :si], B[..., :si, si]
        )
    return Q


def lemma2_audit(spec: AlgebraSpec, T: np.ndarray, B: np.ndarray) -> list[tuple[int, int]]:
    """Pairs (r, p) with B_{r,p} != 0 but u_r != u_p; empty for valid algebras."""
    bad = []
    for p in range(spec.m + 2, spec.n + 1):
        for r in range(spec.m + 1, p):
            if abs(B[r - spec.m - 1, p - spec.m - 1]) > B_NONZERO_TOL:
                if spec.u_map[r] != spec.u_map[p]:
                    bad.append((r, p))
    return bad


def _check_off_spectrum(t: complex, xi: np.ndarray) -> None:
    tol = 1e-12 * max(1.0, abs(t))
    if np.min(np.abs(t - xi)) <= tol:
        u = int(np.argmin(np.abs(t - xi))) + 1
        raise OnSpectrum(f"t = {t} coincides with xi_{u} = {xi[u - 1]}")


def resolvent_recurrence(
    spec: AlgebraSpec,
    triad: "TriadSpec",
    point: tuple[float, float, float],
    t: complex,
) -> Element:
    """Coefficients A_r of (t*e1 - zeta)^(-1) by the direct recurrence."""
    x, y, z = point
    xi = spectrum(triad, spec.m, x, y, z)
    _check_off_spectrum(t, xi)
    T = t_coeffs(spec, triad, y, z)
    B = b_coeffs(spec, T)
    A = np.zeros(spec.n, dtype=np.complex128)
    A[: spec.m] = 1.0 / (t - xi)
    for p in range(spec.m + 1, spec.n + 1):
        xi_up = xi[spec.u_map[p] - 1]
        acc = T[p - spec.m - 1] / (t - xi_up) ** 2
        if p > spec.m + 1:
            cross = 0.0 + 0.0j
            for r in range(spec.m + 1, p):
                cross += A[r - 1] * B[r - spec.m - 1, p - spec.m - 1]
            acc += cross / (t - xi_up)
        A[p - 1] = acc
    return A


def resolvent_closed(
    spec: AlgebraSpec,
    triad: "TriadSpec",
    point: tuple[float, float, float],
    t: complex,
) -> Element:
    """Partial-fraction form: sum over idempotents plus Q-table terms."""
    x, y, z = point
    xi = spectrum(triad, spec.m, x, y, z)
    _check_off_spectrum(t, xi)
    T = t_coeffs(spec, triad, y, z)
    Q = q_table(spec, T, b_coeffs(spec, T))
    return assemble_closed(spec, xi, Q, t)


def closed_weights(spec: AlgebraSpec, Q: np.ndarray, power: int = 1) -> list:
    """The t-independent part of R(t)^power, one (columns, block) per idempotent.

    block[i, j - 1] = C(j + power - 1, power - 1) * Q_{j+1,s} for the i-th
    radical column s that idempotent u owns, j = 1..d.
    """
    d = spec.n - spec.m
    binom = np.array([math.comb(j + power - 1, power - 1) for j in range(1, d + 1)])
    coef = (binom[:, None] * Q[2 : d + 2]).T
    return [(cols, coef[cols]) for cols in spec.owner_columns]


def assemble_closed(
    spec: AlgebraSpec, xi: np.ndarray, Q: np.ndarray, t, power: int = 1, weights=None
) -> np.ndarray:
    """R(t)^power from precomputed (xi, Q); t may be an array.

    dR/dt = -R^2 gives R^p = (-1)^(p-1)/(p-1)! * d^(p-1)R/dt^(p-1), so the
    idempotent coefficient 1/(t - xi_u) becomes (t - xi_u)^(-p) and each
    term Q_k/(t - xi)^k becomes C(k+p-2, p-1) * Q_k/(t - xi)^(k+p-1).  One
    table of inverse powers per idempotent feeds one matrix product over
    the radical columns it owns.  weights = closed_weights(spec, Q, power)
    may be passed in when one point is assembled at many batches of t.
    Returns shape (n,) for scalar t, or (n, N) for an array of N nodes.
    """
    m, d = spec.m, spec.n - spec.m
    if weights is None:
        weights = closed_weights(spec, Q, power)
    t = np.asarray(t, dtype=np.complex128)
    inv = 1.0 / (t - np.reshape(xi, (-1,) + (1,) * t.ndim))  # (m, ...)
    # pw[u, j] = (t - xi_u)^(-(power + j)) for j = 0..d
    pw = np.cumprod(np.stack([inv**power] + [inv] * d, axis=1), axis=1)
    out = np.empty((spec.n,) + t.shape, dtype=np.complex128)
    out[:m] = pw[:, 0]
    for u, (cols, block) in enumerate(weights):
        out[m + cols] = block @ pw[u, 1:]
    return out


@dataclass(frozen=True)
class LineL:
    """The real line in R^3 on which f_u(zeta) = 0.

    Constraints: x + y*Re(a_u) + z*Re(b_u) = 0 and y*Im(a_u) + z*Im(b_u) = 0.
    """

    u: int
    a_u: complex
    b_u: complex

    @property
    def normals(self) -> tuple[np.ndarray, np.ndarray]:
        n1 = np.array([1.0, self.a_u.real, self.b_u.real])
        n2 = np.array([0.0, self.a_u.imag, self.b_u.imag])
        return n1, n2

    @property
    def direction(self) -> np.ndarray:
        n1, n2 = self.normals
        return np.cross(n1, n2)

    def contains(self, point: tuple[float, float, float], tol: float = 1e-12) -> bool:
        p = np.asarray(point, dtype=float)
        n1, n2 = self.normals
        scale = max(1.0, float(np.max(np.abs(p))))
        return abs(n1 @ p) <= tol * scale and abs(n2 @ p) <= tol * scale


def noninvertible_lines(triad: "TriadSpec", m: int) -> list[LineL]:
    return [
        LineL(u, complex(triad.a[u - 1]), complex(triad.b[u - 1]))
        for u in range(1, m + 1)
    ]
