"""Finite-dimensional commutative associative algebras over C in Cartan form.

An algebra of dimension n with m idempotents is described by its basis
{I_1, ..., I_n}: the first m vectors are idempotents (I_u I_u = I_u,
I_u I_v = 0 for u != v), the remaining n - m span the nilpotent radical.
Products of radical basis vectors are given by structure constants
Y[r, s -> k] with k > max(r, s); each radical vector I_s is acted on as
identity by exactly one idempotent I_{u_s}.

All basis indices in the public API are 1-based.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from pathlib import Path
from typing import Iterable, Mapping, Sequence, Union

import numpy as np

Element = np.ndarray  # length-n complex128 coefficient vector over {I_k}

ASSOC_TOL = 1e-12


class AlgebraError(Exception):
    """Structural problem with an algebra or element."""


class Singular(AlgebraError):
    """Element is not invertible (some functional f_u vanishes)."""


class SpecialCase(Enum):
    SEMI_SIMPLE = "SemiSimple"
    PROP1 = "Prop1"
    PROP2 = "Prop2"
    GENERAL = "General"


@dataclass(frozen=True)
class Violation:
    kind: str
    where: tuple
    detail: str

    def __str__(self) -> str:
        return f"{self.kind} at {self.where}: {self.detail}"


@dataclass
class ValidationReport:
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, kind: str, where: tuple, detail: str) -> None:
        self.violations.append(Violation(kind, where, detail))

    def raise_if_invalid(self, what: str = "algebra") -> None:
        if not self.ok:
            lines = "\n  ".join(str(v) for v in self.violations)
            raise AlgebraError(f"invalid {what}:\n  {lines}")


UpsilonEntry = tuple[int, int, int, complex]


def _canonicalize_upsilon(
    entries: Iterable[Sequence],
) -> tuple[dict[tuple[int, int, int], complex], list[tuple[tuple, str]]]:
    """Fold (r, s, k, value) entries into a dict keyed by (min, max, k).

    Returns the table and a list of symmetry conflicts: pairs of entries
    that land on the same canonical key with different values.
    """
    table: dict[tuple[int, int, int], complex] = {}
    conflicts: list[tuple[tuple, str]] = []
    for entry in entries:
        if len(entry) == 4:
            r, s, k, value = entry
            value = complex(value)
        elif len(entry) == 5:
            r, s, k, re, im = entry
            value = complex(re, im)
        else:
            raise AlgebraError(f"bad upsilon entry {entry!r}")
        key = (min(int(r), int(s)), max(int(r), int(s)), int(k))
        if key in table and abs(table[key] - value) > 1e-15:
            conflicts.append(
                (key, f"conflicting values {table[key]} and {value}")
            )
        else:
            table[key] = value
    return table, conflicts


@dataclass(frozen=True)
class AlgebraSpec:
    """Multiplication data of an algebra A_n^m in Cartan form.

    upsilon entries may be given as (r, s, k, value); (r, s) is
    canonicalized to r <= s, so symmetry is enforced by construction.
    Conflicting duplicates are kept aside and surfaced by validate().
    """

    n: int
    m: int
    upsilon: dict[tuple[int, int, int], complex]
    u_map: dict[int, int]
    _symmetry_conflicts: tuple = ()

    @classmethod
    def create(
        cls,
        n: int,
        m: int,
        upsilon: Iterable[Sequence] = (),
        u_map: Mapping[int, int] | None = None,
    ) -> "AlgebraSpec":
        if n < 1 or m < 1 or m > n:
            raise AlgebraError(f"need 1 <= m <= n, got n={n}, m={m}")
        table, conflicts = _canonicalize_upsilon(upsilon)
        u_clean = {int(s): int(u) for s, u in (u_map or {}).items()}
        return cls(n, m, table, u_clean, tuple(conflicts))

    # -- basic structure ---------------------------------------------------

    @cached_property
    def mult_tensor(self) -> np.ndarray:
        """M[i, j, k] = coefficient of I_{k+1} in I_{i+1} I_{j+1} (0-based)."""
        n, m = self.n, self.m
        M = np.zeros((n, n, n), dtype=np.complex128)
        for u in range(m):
            M[u, u, u] = 1.0
        for s in range(m, n):
            u = self.u_map.get(s + 1)
            if u is not None and 1 <= u <= m:
                M[u - 1, s, s] = 1.0
                M[s, u - 1, s] = 1.0
        for (r, s, k), value in self.upsilon.items():
            if 1 <= r <= n and 1 <= s <= n and 1 <= k <= n:
                M[r - 1, s - 1, k - 1] = value
                M[s - 1, r - 1, k - 1] = value
        return M

    @cached_property
    def radical_products(self) -> np.ndarray:
        """Y[r, s, p] = coefficient of I_p in I_r I_s over the radical (0-based from m).

        Entries with r >= p or s >= p are zeroed, so only products that the
        Cartan form allows (p > max(r, s)) enter the B coefficients.
        """
        d = self.n - self.m
        idx = np.arange(d)
        allowed = (idx[:, None, None] < idx) & (idx[None, :, None] < idx)
        return np.where(allowed, self.mult_tensor[self.m :, self.m :, self.m :], 0.0)

    @cached_property
    def radical_owner(self) -> np.ndarray:
        """0-based index u_s - 1 of the idempotent acting on each radical I_s."""
        return np.array([self.u_map[s] - 1 for s in range(self.m + 1, self.n + 1)], dtype=int)

    @cached_property
    def b_terms(self) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """The nonzero radical_products Y[r, s, p] in levels (s, Y, r * d + p).

        Level l holds the l-th s, in increasing order, of every (r, p)
        that has more than l of them, so summing the levels in order sums
        each B[r, p] in a fixed order.
        """
        d = self.n - self.m
        Y = self.radical_products
        levels: list = []
        count: dict = {}
        # np.nonzero runs in C order, so the s of one (r, p) come in increasing order.
        for r, s, p in zip(*(i.tolist() for i in np.nonzero(Y))):
            level = count[r, p] = count.get((r, p), -1) + 1
            if level == len(levels):
                levels.append(([], [], []))
            for column, value in zip(levels[level], (s, Y[r, s, p], r * d + p)):
                column.append(value)
        return [
            (np.array(s, dtype=int), np.array(y, dtype=np.complex128), np.array(cells, dtype=int))
            for s, y, cells in levels
        ]

    @cached_property
    def explicit_plan(self) -> "ExplicitPlan":
        """The term list of the explicit formula, built on first use."""
        return ExplicitPlan.build(self)

    @cached_property
    def report(self) -> "ValidationReport":
        """validate_algebra(self), run once per algebra."""
        return validate_algebra(self)

    def unit(self) -> Element:
        e = np.zeros(self.n, dtype=np.complex128)
        e[: self.m] = 1.0
        return e

    def basis(self, k: int) -> Element:
        """Basis vector I_k, 1-based."""
        e = np.zeros(self.n, dtype=np.complex128)
        e[k - 1] = 1.0
        return e

    def element(self, coeffs: Sequence[complex]) -> Element:
        v = np.asarray(coeffs, dtype=np.complex128)
        if v.shape != (self.n,):
            raise AlgebraError(f"expected {self.n} coefficients, got {v.shape}")
        if not np.all(np.isfinite(v.view(np.float64))):
            raise AlgebraError("non-finite coefficient")
        return v

    # -- arithmetic --------------------------------------------------------

    def multiply(self, a: Element, b: Element) -> Element:
        if a.shape != (self.n,) or b.shape != (self.n,):
            raise AlgebraError("dimension mismatch in multiply")
        # Canonical operand order makes multiply(a, b) and multiply(b, a)
        # bit-identical (complex products are not FMA-commutative).
        if b.tobytes() < a.tobytes():
            a, b = b, a
        return np.einsum("i,j,ijk->k", a, b, self.mult_tensor)

    def power(self, a: Element, k: int) -> Element:
        if k < 0:
            raise AlgebraError("negative power; use invert explicitly")
        out = self.unit()
        for _ in range(k):
            out = self.multiply(out, a)
        return out

    def functional_f(self, u: int, a: Element) -> complex:
        """The multiplicative functional f_u: read the u-th coordinate."""
        if not 1 <= u <= self.m:
            raise AlgebraError(f"functional index {u} outside [1, {self.m}]")
        return complex(a[u - 1])

    def radical_project(self, a: Element) -> Element:
        out = a.astype(np.complex128, copy=True)
        out[: self.m] = 0.0
        return out

    def mult_matrix(self, a: Element) -> np.ndarray:
        """Matrix of left multiplication by a: (a * x)_k = sum_j L[k, j] x_j."""
        return np.einsum("i,ijk->kj", a, self.mult_tensor)

    def invert(self, a: Element) -> Element:
        """Solve a * x = 1 by a dense complex linear system.

        Noninvertibility is exactly the vanishing of some f_u(a).
        """
        scale = max(1.0, float(np.max(np.abs(a))))
        for u in range(1, self.m + 1):
            if abs(self.functional_f(u, a)) <= 1e-14 * scale:
                raise Singular(f"f_{u}(a) = 0: element lies on line L_{u}")
        x = np.linalg.solve(self.mult_matrix(a), self.unit())
        residual = self.multiply(a, x) - self.unit()
        if np.max(np.abs(residual)) > 1e-10 * scale:
            raise Singular(f"inversion residual {np.max(np.abs(residual)):.3e}")
        return x

    # -- classification ----------------------------------------------------

    def classify_special_case(self) -> SpecialCase:
        if self.n == self.m:
            return SpecialCase.SEMI_SIMPLE
        u_vals = [self.u_map[s] for s in range(self.m + 1, self.n + 1)]
        if len(set(u_vals)) == len(u_vals):
            if any(abs(v) > 0 for v in self.upsilon.values()):
                raise AlgebraError(
                    "all u_s distinct but nilpotent products are nonzero"
                )
            return SpecialCase.PROP2
        if len(set(u_vals)) == 1:
            return SpecialCase.PROP1
        return SpecialCase.GENERAL


@dataclass(frozen=True)
class ExplicitPlan:
    """Term list of the explicit formula; it depends only on the structure.

    Rows 0..n-1 of the derivative table are F_1..F_m, then G_{m+1}..G_n.
    Row i is evaluated at xi of idempotent owner[i] and needs the orders
    0..orders[i]; the rows follow one another, row i from entry offsets[i]
    on, so entry offsets[i] is the value of row i.  A term is a nonzero
    product I_q I_s -> I_k with s radical: q = u_s, for I_{u_s} I_s = I_s,
    or q radical.  It adds Y[q, s, k] * sum_j Q_{j+2,s} / (j+1)! *
    row_q^(j+1) to component k, for j = 0..s - m - 1.  The terms are
    listed one product per (term, j), sorted by k: entries[t] is the table
    entry of row q at order j + 1, cells[t] the index of Q_{j+2,s} in the
    flattened (d+3, d) Q-table and weights[t] = Y[q, s, k] / (j+1)!.  The
    products of component targets[c] start at starts[c].
    """

    owner: np.ndarray
    orders: np.ndarray
    offsets: np.ndarray
    entries: np.ndarray
    cells: np.ndarray
    weights: np.ndarray  # (products, 1)
    targets: np.ndarray
    starts: np.ndarray

    @classmethod
    def build(cls, spec: AlgebraSpec) -> "ExplicitPlan":
        m, d = spec.m, spec.n - spec.m
        Y = spec.mult_tensor[m:, m:, m:]
        owner = spec.radical_owner.tolist()
        # (k, q, s, Y[q, s, k]) by k, then q and s.
        terms = [(s, owner[s], s, 1.0) for s in range(d)]
        terms += [(k, m + q, s, Y[q, s, k]) for q, s, k in zip(*(i.tolist() for i in np.nonzero(Y)))]
        terms.sort(key=lambda t: t[:3])
        orders = [0] * spec.n
        targets, starts = [], []  # each component k, and its first term
        for i, (k, q, s, _) in enumerate(terms):
            orders[q] = max(orders[q], s + 1)
            if not targets or targets[-1] != m + k:
                targets.append(m + k)
                starts.append(i)
        counts = np.array(orders) + 1
        offsets = np.cumsum(counts) - counts
        q, s = (np.array([t[i] for t in terms], dtype=int) for i in (1, 2))
        y = np.array([t[3] for t in terms], dtype=np.complex128)
        # One product per (term, j), j = 0..s.
        first = np.cumsum(s + 1) - (s + 1)
        term = np.repeat(np.arange(len(terms)), s + 1)
        j = np.arange(len(term)) - first[term]
        inv_fact = np.array([1.0 / math.factorial(i) for i in range(1, d + 1)])
        return cls(
            owner=np.concatenate([np.arange(m), spec.radical_owner]),
            orders=np.array(orders),
            offsets=offsets,
            entries=offsets[q][term] + j + 1,
            cells=(j + 2) * d + s[term],
            weights=(y[term] * inv_fact[j]).reshape(-1, 1),
            targets=np.array(targets, dtype=int),
            starts=first[starts],
        )


def validate_algebra(spec: AlgebraSpec) -> ValidationReport:
    """Check every structural axiom; violations are report entries."""
    report = ValidationReport()
    n, m = spec.n, spec.m

    for key, detail in spec._symmetry_conflicts:
        report.add("symmetry", key, detail)

    for (r, s, k), value in spec.upsilon.items():
        if not (m + 1 <= r <= n and m + 1 <= s <= n):
            report.add("triangularity", (r, s, k), "indices outside radical")
        elif not (max(r, s) + 1 <= k <= n):
            report.add("triangularity", (r, s, k), f"need k > max(r, s) = {max(r, s)}")

    for s in range(m + 1, n + 1):
        u = spec.u_map.get(s)
        if u is None:
            report.add("u-map", (s,), "no idempotent acts as identity on I_s")
        elif not 1 <= u <= m:
            report.add("u-map", (s, u), f"u_s outside [1, {m}]")

    if not report.ok:
        return report  # mult_tensor would be ill-formed

    M = spec.mult_tensor
    scale = max(
        1.0, max((abs(v) for v in spec.upsilon.values()), default=0.0)
    )
    # (I_i I_j) I_p vs I_i (I_j I_p), coefficientwise over all basis triples.
    # P[i, j, p, k] = sum_q M[i, j, q] M[q, p, k] is the left side, one BLAS
    # matmul; M is symmetric in its first two indices by construction, so the
    # right side sum_q M[j, p, q] M[q, i, k] is P[j, p, i, k].
    P = (M.reshape(n * n, n) @ M.reshape(n, n * n)).reshape(n, n, n, n)
    left, right = P, P.transpose(2, 0, 1, 3)
    bad = np.argwhere(np.abs(left - right) > ASSOC_TOL * scale)
    seen = set()
    for i, j, p, _ in bad:
        trip = (int(i) + 1, int(j) + 1, int(p) + 1)
        if trip in seen:
            continue
        seen.add(trip)
        kind = "assoc-A1" if min(trip) > m else "assoc-A2"
        report.add(kind, trip, "triple product mismatch")
    return report


# -- file format -----------------------------------------------------------


def algebra_from_dict(data: Mapping) -> AlgebraSpec:
    """Build and validate an AlgebraSpec from its JSON object form."""
    try:
        n = int(data["n"])
        m = int(data["m"])
        upsilon = data.get("upsilon", [])
        u_map = data.get("u_map", {})
    except (KeyError, TypeError, ValueError) as exc:
        raise AlgebraError(f"malformed algebra spec: {exc}") from exc
    spec = AlgebraSpec.create(n, m, upsilon, u_map)
    spec.report.raise_if_invalid()
    return spec


def algebra_to_dict(spec: AlgebraSpec) -> dict:
    return {
        "n": spec.n,
        "m": spec.m,
        "upsilon": [
            [r, s, k, v.real, v.imag] for (r, s, k), v in sorted(spec.upsilon.items())
        ],
        "u_map": {str(s): u for s, u in sorted(spec.u_map.items())},
    }


def load_algebra(path: Union[str, Path]) -> AlgebraSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return algebra_from_dict(json.load(fh))
