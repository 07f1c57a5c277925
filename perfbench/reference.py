"""Reference values for monogenic functions, computed apart from monogenica.

A monogenic function with holomorphic data F_u (one per idempotent I_u) and
G_s (one per radical vector I_s) is

    Phi(zeta) = sum_u I_u F_u(zeta) + sum_s I_s G_s(zeta),

and its r-th Gateaux derivative replaces every F and G by its r-th
derivative.  Inside the block of idempotent I_u the element
P_u = I_u zeta - xi_u I_u is nilpotent, so each holomorphic function of
zeta is a finite Taylor sum about xi_u = f_u(zeta):

    I_u F(zeta) = sum_k F^(k)(xi_u) / k! * P_u^k      (P_u^0 = I_u).

This module builds its own product tensor from the algebra's JSON form and
its own derivative table for poly, exp, sin, cos and series data.  It uses
neither the resolvent, the Q-table nor any contour, and imports nothing
from monogenica, so agreement with the program is evidence of correctness
rather than of shared code.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

import numpy as np


def cnum(v) -> complex:
    """A JSON complex number: a real number or an [re, im] pair."""
    if isinstance(v, (int, float)):
        return complex(v)
    return complex(v[0], v[1])


def product_tensor(alg: Mapping) -> np.ndarray:
    """M[i, j, k] = coefficient of I_(k+1) in I_(i+1) I_(j+1), from JSON."""
    n, m = int(alg["n"]), int(alg["m"])
    M = np.zeros((n, n, n), dtype=np.complex128)
    for u in range(m):
        M[u, u, u] = 1.0
    for s, u in alg.get("u_map", {}).items():
        s, u = int(s) - 1, int(u) - 1
        M[u, s, s] = M[s, u, s] = 1.0
    for entry in alg.get("upsilon", []):
        r, s, k = (int(v) - 1 for v in entry[:3])
        value = complex(entry[3], entry[4]) if len(entry) == 5 else cnum(entry[3])
        M[r, s, k] = M[s, r, k] = value
    return M


def mul(M: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise algebra product of two (N, n) arrays of elements."""
    n = M.shape[0]
    left = (a @ M.reshape(n, n * n)).reshape(-1, n, n)  # (a I_j)_k per row
    return np.einsum("pj,pjk->pk", b, left)


def holo_derivative(f: Mapping, k: int, xi: np.ndarray) -> np.ndarray:
    """k-th derivative of f(xi) = amp * g(scale * xi + shift) at an array of xi."""
    amp = cnum(f.get("amp", 1.0))
    scale = cnum(f.get("scale", 1.0))
    w = scale * xi + cnum(f.get("shift", 0.0))
    kind = f["kind"]
    if kind == "exp":
        g = np.exp(w)
    elif kind in ("sin", "cos"):
        # d^k sin = sin(w + k pi/2), and cos is sin shifted by one order.
        q = (k + (kind == "cos")) % 4
        g = (np.sin(w), np.cos(w), -np.sin(w), -np.cos(w))[q]
    elif kind in ("poly", "series"):
        w = w - cnum(f.get("center", 0.0))
        g = np.zeros_like(w)
        for j, c in enumerate(f.get("coeffs", [])):
            if j >= k:
                g = g + cnum(c) * math.perm(j, k) * w ** (j - k)
    else:
        raise ValueError(f"unknown holomorphic kind {kind!r}")
    return amp * scale**k * g


def phi(alg: Mapping, triad: Mapping, F: Sequence, G: Sequence,
        points: np.ndarray, r: int = 0) -> np.ndarray:
    """Phi^(r)(zeta) over the basis at each row (x, y, z) of points: (N, n)."""
    n, m = int(alg["n"]), int(alg["m"])
    M = product_tensor(alg)
    a = np.array([cnum(v) for v in triad["a"]])
    b = np.array([cnum(v) for v in triad["b"]])
    unit = np.zeros(n, dtype=np.complex128)
    unit[:m] = 1.0
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    zeta = pts[:, :1] * unit + pts[:, 1:2] * a + pts[:, 2:3] * b
    u_of = {int(s) - 1: int(u) - 1 for s, u in alg.get("u_map", {}).items()}
    basis = np.eye(n, dtype=np.complex128)

    out = np.zeros_like(zeta)
    for u in range(m):
        xi_u = zeta[:, u]
        idem = np.broadcast_to(basis[u], zeta.shape)
        nil = mul(M, idem, zeta) - xi_u[:, None] * idem
        powers = [idem]
        while len(powers) < n and np.any(powers[-1]):
            powers.append(mul(M, powers[-1], nil))

        def taylor(f):
            return sum(
                (holo_derivative(f, k + r, xi_u) / math.factorial(k))[:, None] * pk
                for k, pk in enumerate(powers)
            )

        out += taylor(F[u])
        for s in range(m, n):
            if u_of.get(s) == u:
                out += mul(M, np.broadcast_to(basis[s], zeta.shape), taylor(G[s - m]))
    return out


def characteristic_residual(alg: Mapping, triad: Mapping, terms: Sequence) -> float:
    """max |sum C e2^beta e3^gamma| over the basis; zero for a characteristic triad."""
    n, m = int(alg["n"]), int(alg["m"])
    M = product_tensor(alg)
    unit = np.zeros((1, n), dtype=np.complex128)
    unit[0, :m] = 1.0
    e2 = np.array([[cnum(v) for v in triad["a"]]])
    e3 = np.array([[cnum(v) for v in triad["b"]]])

    def power(e, k):
        out = unit
        for _ in range(k):
            out = mul(M, out, e)
        return out

    total = np.zeros((1, n), dtype=np.complex128)
    for _, beta, gamma, c in terms:
        total += float(c) * mul(M, power(e2, int(beta)), power(e3, int(gamma)))
    return float(np.max(np.abs(total)))


def surjective(alg: Mapping, triad: Mapping) -> bool:
    """Every f_u maps onto C: a_u or b_u has a nonzero imaginary part."""
    return all(
        abs(cnum(triad["a"][u]).imag) > 1e-12 or abs(cnum(triad["b"][u]).imag) > 1e-12
        for u in range(int(alg["m"]))
    )
