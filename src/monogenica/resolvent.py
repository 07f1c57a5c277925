"""Resolvent (t*e1 - zeta)^(-1): the Q-table closed form and the Neumann series.

The resolvent of the hypercomplex variable zeta = x*e1 + y*e2 + z*e3 is a
rational function of t with poles only at the spectrum points
xi_u = x + y*a_u + z*b_u.  One affine map gives zeta's coordinates, the
xi_u and the T_s.  From them this module builds, batched over points, the
B and Q coefficients of the paper's partial-fraction form, which the
explicit route reads.  The contour route takes R(t)^p from the Neumann
series in the algebra instead (neumann_table): the powers of zeta's
radical part N = sum_s T_s I_s by the dense product tensor, no B or Q
table.  closed_coeffs and assemble_closed assemble R(t)^p from the
Q-table; the tests check each form against the other, against the
coefficient recurrence and against inversion in the algebra
(tests/oracles.py).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

from .algebra import AlgebraSpec, Element

if TYPE_CHECKING:  # pragma: no cover
    from .monogenic import TriadSpec

B_NONZERO_TOL = 1e-14


def coordinates(triad: "TriadSpec", m: int, x, y, z) -> np.ndarray:
    """zeta's coordinates along a new last axis: xi_u, u = 1..m, then T_s, s = m+1..n.

    xi_u = x + y*a_u + z*b_u and T_s = y*a_s + z*b_s, taken as y*a, plus x
    on the first m, plus z*b: (y*a + x) + z*b is (x + y*a) + z*b with its
    first two operands swapped, which IEEE addition, being commutative,
    leaves bit for bit, signed zeros included.  x, y, z are scalars or
    arrays of one shape (a batch of points).
    """
    Z = np.multiply(np.asarray(y)[..., None], triad.a_vec)
    Z[..., :m] += np.asarray(x)[..., None]
    Z += np.multiply(np.asarray(z)[..., None], triad.b_vec)
    return Z


def t_coeffs(spec: AlgebraSpec, triad: "TriadSpec", y, z) -> np.ndarray:
    """T_s = y*a_s + z*b_s for the radical indices s = m+1..n: coordinates' last n - m."""
    return coordinates(triad, spec.m, 0.0, y, z)[..., spec.m :]


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


def closed_coeffs(spec: AlgebraSpec, Q: np.ndarray, power: int = 1) -> np.ndarray:
    """C[j, u, l]: coefficient of (t - xi_u)^(-(power + l)) in component j of R(t)^power.

    dR/dt = -R^2 gives R^p = (-1)^(p-1)/(p-1)! * d^(p-1)R/dt^(p-1), so the
    idempotent coefficient 1/(t - xi_u) becomes (t - xi_u)^(-p), C[u, u, 0]
    = 1, and each term Q_k/(t - xi)^k of a radical column s owned by u
    becomes C(k+p-2, p-1) * Q_k/(t - xi_u)^(k+p-1), C[s, u, k - 1] for
    k = 2..d+1.  Shape (n, m, d + 1), d = n - m; it does not depend on t.
    """
    m, d = spec.m, spec.n - spec.m
    C = np.zeros((spec.n, m, d + 1), dtype=np.complex128)
    C[np.arange(m), np.arange(m), 0] = 1.0
    C[m + np.arange(d), spec.radical_owner, 1:] = (_binomials(d, power) * Q[2 : d + 2]).T
    return C


@lru_cache(maxsize=64)
def _binomials(d: int, power: int) -> np.ndarray:
    """C(l + power - 1, l) for l = 1..d as a (d, 1) column, read-only."""
    binom = np.array([[math.comb(l + power - 1, l)] for l in range(1, d + 1)], dtype=float)
    binom.flags.writeable = False
    return binom


def neumann_table(spec: AlgebraSpec, T: np.ndarray, power: int = 1) -> np.ndarray:
    """E[u, l] = C(l + power - 1, l) * I_u N^l, l = 0..d, the element coefficients of R(t)^power.

    zeta = sum_u xi_u I_u + N with N = sum_s T_s I_s nilpotent, so on each
    I_u the power is a Neumann series (the Jordan-block form of a matrix
    function, Higham, Functions of Matrices, 2008, 1.2):
    (t e - zeta)^(-power) = sum_{u,l} C(l + power - 1, l) I_u N^l (t - xi_u)^(-(power + l)),
    and N^(d+1) = 0.  T is one point's (d,) radical coordinates.  The
    rows I_u come from the spec (AlgebraSpec.idempotent_rows); N's
    multiplication matrix is one product of T with the radical rows of
    mult_tensor (symmetric in its first two indices), and the powers take
    d products of an (m, n) by that (n, n) matrix, each written in place
    (np.dot: a matmul call costs about twice as much at these sizes); a
    semisimple algebra (d = 0) needs none of them.  Shape (m, d + 1, n):
    the coefficients closed_coeffs(spec, Q, power) holds at [:, u, l],
    from no B or Q table.
    """
    m, n, d = spec.m, spec.n, spec.n - spec.m
    E = np.empty((d + 1, m, n), dtype=np.complex128)
    E[0] = spec.idempotent_rows
    if d:
        # (x N)_k = sum_i x_i N[i, k], N[i, k] = sum_s T_s M[m + s, i, k]
        N = np.dot(T, spec.mult_tensor[m:].reshape(d, n * n)).reshape(n, n)
        for l in range(1, d + 1):
            np.dot(E[l - 1], N, out=E[l])
        if power > 1:
            E[1:] *= _binomials(d, power)[:, :, None]
    return E.transpose(1, 0, 2)


def inverse_powers(xi: np.ndarray, t, power: int, d: int) -> np.ndarray:
    """pw[u, l] = (t - xi_u)^(-(power + l)) for l = 0..d; shape (m, d + 1) + t.shape.

    One cumprod (multiply.accumulate), in place, over (t - xi_u)^(-power)
    and d copies of 1 / (t - xi_u): every slot is filled with 1 / (t - xi_u)
    by one broadcast, the first overwritten only when power > 1 (a power of
    1 is the value itself), and d = 0 needs no product.
    """
    t = np.asarray(t, dtype=np.complex128)
    inv = 1.0 / (t - np.asarray(xi).reshape((-1,) + (1,) * t.ndim))  # (m, ...)
    pw = np.empty((len(inv), d + 1) + t.shape, dtype=np.complex128)
    pw[:] = inv[:, None]
    if power != 1:
        pw[:, 0] = inv**power
    if d:
        np.multiply.accumulate(pw, axis=1, out=pw)
    return pw


def assemble_closed(spec: AlgebraSpec, xi: np.ndarray, Q: np.ndarray, t, power: int = 1) -> np.ndarray:
    """R(t)^power from precomputed (xi, Q); t may be an array.

    One matrix product of the coefficients closed_coeffs(spec, Q, power)
    with the inverse powers of t - xi_u.  Returns shape (n,) for scalar t,
    or (n, N) for an array of N nodes.
    """
    C = closed_coeffs(spec, Q, power).reshape(spec.n, -1)
    pw = inverse_powers(xi, t, power, spec.n - spec.m)
    return (C @ pw.reshape(C.shape[1], -1)).reshape((spec.n,) + pw.shape[2:])


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
