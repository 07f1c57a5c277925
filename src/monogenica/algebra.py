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
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from pathlib import Path
from typing import Iterable, Mapping, Union

import numpy as np

from .holo import parse_complex, parse_int, parse_list

Element = np.ndarray  # length-n complex128 coefficient vector over {I_k}

ASSOC_TOL = 1e-12


class AlgebraError(Exception):
    """Structural problem with an algebra or element."""


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


UpsilonEntry = tuple[int, int, int, complex]


@dataclass(frozen=True)
class AlgebraSpec:
    """Multiplication data of an algebra A_n^m in Cartan form.

    upsilon entries are (r, s, k, value); (r, s) is canonicalized to
    r <= s, so symmetry is enforced by construction.  Conflicting
    duplicates are kept aside and surfaced by validate_algebra.
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
        upsilon: Iterable[UpsilonEntry] = (),
        u_map: Mapping[int, int] | None = None,
    ) -> "AlgebraSpec":
        """Reads n, m, the u_map and each row's r, s, k by holo.parse_int, and its value by parse_complex."""
        n, m = parse_int(n), parse_int(m)
        if n < 1 or m < 1 or m > n:
            raise AlgebraError(f"need 1 <= m <= n, got n={n}, m={m}")
        if u_map is not None and not isinstance(u_map, Mapping):
            raise ValueError(f"u_map must map radical indices to idempotents, got {u_map!r}")
        table, conflicts = {}, []
        for r, s, k, value in map(parse_list, parse_list(upsilon)):
            r, s, k, value = parse_int(r), parse_int(s), parse_int(k), parse_complex(value)
            key = (min(r, s), max(r, s), k)
            if key in table and abs(table[key] - value) > 1e-15:
                conflicts.append((key, f"conflicting values {table[key]} and {value}"))
            else:
                table[key] = value
        owners = {parse_int(s): parse_int(u) for s, u in (u_map or {}).items()}
        return cls(n, m, table, owners, tuple(conflicts))

    # -- basic structure ---------------------------------------------------

    @cached_property
    def products(self) -> tuple[np.ndarray, np.ndarray]:
        """The nonzero M[i, j, k] (0-based) in C order: indices (3, nnz), rows i, j, k, and values.

        I_u I_u = I_u, I_u I_s = I_s for u = u_s, and each upsilon entry in
        both orders of its factors; an entry with an index out of range is
        left out, and a later entry replaces an earlier one at the same
        place.  Validation, the B-coefficient levels and the explicit term
        list are built from this list, so their cost grows with the number
        of nonzero products, not with n; mult_tensor is scattered from it.
        """
        n, m = self.n, self.m
        # Keyed by the C-order flat index (i n + j) n + k.
        table: dict = {u * (n * n + n + 1): 1.0 for u in range(m)}
        for s in range(m, n):
            u = self.u_map.get(s + 1)
            if u is not None and 1 <= u <= m:
                table[((u - 1) * n + s) * n + s] = table[(s * n + u - 1) * n + s] = 1.0
        for (r, s, k), value in self.upsilon.items():
            if 1 <= r <= n and 1 <= s <= n and 1 <= k <= n:
                table[((r - 1) * n + s - 1) * n + k - 1] = value
                table[((s - 1) * n + r - 1) * n + k - 1] = value
        keys = sorted(key for key, value in table.items() if value != 0)
        values = np.array([table[key] for key in keys], dtype=np.complex128)
        return np.array(np.unravel_index(keys, (n, n, n))), values

    @cached_property
    def mult_tensor(self) -> np.ndarray:
        """M[i, j, k] = coefficient of I_{k+1} in I_{i+1} I_{j+1} (0-based)."""
        M = np.zeros((self.n,) * 3, dtype=np.complex128)
        idx, values = self.products
        M[tuple(idx)] = values
        return M

    @cached_property
    def idempotent_rows(self) -> np.ndarray:
        """The coordinates of I_1..I_m, rows of the (m, n) identity, read-only."""
        rows = np.eye(self.m, self.n, dtype=np.complex128)
        rows.flags.writeable = False
        return rows

    @cached_property
    def radical_owner(self) -> np.ndarray:
        """0-based index u_s - 1 of the idempotent acting on each radical I_s."""
        return np.array([self.u_map[s] - 1 for s in range(self.m + 1, self.n + 1)], dtype=int)

    @cached_property
    def radical_terms(self) -> tuple[np.ndarray, np.ndarray]:
        """The nonzero products I_q I_s -> I_k with s and k radical, by k, then q, then s.

        Indices (3, T), rows q, s, k (0-based), and values: I_{u_s} I_s = I_s
        for every s, and the nonzero radical products.  The explicit term
        list and the Taylor route's Horner steps read all of them, the
        B-coefficient levels those with q radical.
        """
        idx, y = self.products
        keep = idx[1:].min(axis=0) >= self.m
        qsk, y = idx[:, keep], y[keep]
        by_k = np.lexsort((qsk[1], qsk[0], qsk[2]))
        return qsk[:, by_k], y[by_k]

    @cached_property
    def b_terms(self) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """The nonzero radical products Y[r, s -> p], r < p and s < p, in levels (s, Y, r * d + p).

        Indices are 0-based from m.  Level l holds the l-th s, in increasing
        order, of every (r, p) that has more than l of them, so summing the
        levels in order sums each B[r, p] in a fixed order; a level adds to
        each B[r, p] at most once, so the order within it does not matter.
        """
        m, d = self.m, self.n - self.m
        rsp, y = self.radical_terms
        r, s, p = rsp
        keep = (r >= m) & (p > np.maximum(r, s))
        # By p, then r, then s: the s of one (r, p) follow one another in
        # increasing order, and the level of an entry is its rank among them.
        (r, s, p), y = rsp[:, keep], y[keep]
        cells = r * d + p - m * (d + 1)
        pr = p * d + r
        level = np.arange(len(pr)) - pr.searchsorted(pr)
        by_level = level.argsort(kind="stable")
        s, y, cells = s[by_level] - m, y[by_level], cells[by_level]
        ends = np.bincount(level).cumsum().tolist()
        return [(s[a:b], y[a:b], cells[a:b]) for a, b in zip([0] + ends, ends)]

    @cached_property
    def explicit_plan(self) -> "ExplicitPlan":
        """The term list of the explicit formula, built on first use."""
        return ExplicitPlan.build(self)

    def unit(self) -> Element:
        e = np.zeros(self.n, dtype=np.complex128)
        e[: self.m] = 1.0
        return e

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
        if k == 0:
            return self.unit()
        out = np.array(a, dtype=np.complex128)
        for _ in range(k - 1):
            out = self.multiply(out, a)
        return out

    def mult_matrix(self, a: Element) -> np.ndarray:
        """Matrix of left multiplication by a: (a * x)_k = sum_j L[k, j] x_j."""
        return np.einsum("i,ijk->kj", a, self.mult_tensor)

    # -- classification ----------------------------------------------------

    def classify_special_case(self) -> SpecialCase:
        if self.n == self.m:
            return SpecialCase.SEMI_SIMPLE
        u_vals = [self.u_map[s] for s in range(self.m + 1, self.n + 1)]
        if len(set(u_vals)) == len(u_vals):
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
    products of radical component m + c start at starts[c]: on a valid
    algebra every radical component has a term (I_{u_s} I_s = I_s), so the
    sums fill the components m..n - 1 in order, a basic slice.
    """

    owner: np.ndarray
    orders: np.ndarray
    offsets: np.ndarray
    entries: np.ndarray
    cells: np.ndarray
    weights: np.ndarray  # (products, 1)
    starts: np.ndarray

    @cached_property
    def rows(self) -> np.ndarray:
        """The row of every derivative-table entry: row i has orders[i] + 1 entries."""
        return np.arange(len(self.orders)).repeat(self.orders + 1)

    @classmethod
    def build(cls, spec: AlgebraSpec) -> "ExplicitPlan":
        m, d = spec.m, spec.n - spec.m
        (q, s, k), y = spec.radical_terms  # the terms (q, s, k) by k, 0-based
        s1 = s - (m - 1)  # the orders j = 0..s - m of each term
        orders = np.zeros(spec.n, dtype=int)
        np.maximum.at(orders, q, s1)
        counts = orders + 1
        offsets = counts.cumsum() - counts
        # One product per (term, j).
        rows = np.arange(len(k))
        first = s1.cumsum() - s1
        term = rows.repeat(s1)
        j = np.arange(len(term)) - first[term]
        head = k.searchsorted(k) == rows  # the first term of each component k
        inv_fact = np.array([1 / math.factorial(f) for f in range(1, d + 1)])
        return cls(
            owner=np.concatenate([np.arange(m), spec.radical_owner]),
            orders=orders,
            offsets=offsets,
            entries=offsets[q][term] + j + 1,
            cells=j * d + s1[term] + (2 * d - 1),  # (j + 2) d + s - m
            weights=(y[term] * inv_fact[j]).reshape(-1, 1),
            starts=first[head],
        )


def validate_algebra(spec: AlgebraSpec) -> list[Violation]:
    """Check every structural axiom; returns the violations, none on a valid algebra."""
    n, m = spec.n, spec.m
    violations = [Violation("symmetry", key, detail) for key, detail in spec._symmetry_conflicts]

    for (r, s, k), value in spec.upsilon.items():
        if not (m + 1 <= r <= n and m + 1 <= s <= n):
            violations.append(Violation("triangularity", (r, s, k), "indices outside radical"))
        elif not (r < k and s < k <= n):
            violations.append(Violation("triangularity", (r, s, k),
                                        f"need k > max(r, s) = {max(r, s)}"))

    # A run of radical indices with no owner is one violation, so an n far
    # beyond the u_map's keys costs no more to check than the keys do.
    last = m
    for s, u in sorted((s, u) for s, u in spec.u_map.items() if m < s <= n) + [(n + 1, 1)]:
        if s > last + 1:
            rest = f" (nor on I_{last + 2} .. I_{s - 1})" if s > last + 2 else ""
            violations.append(Violation("u-map", (last + 1,), f"no idempotent acts as identity on I_s{rest}"))
        if not 1 <= u <= m:
            violations.append(Violation("u-map", (s, u), f"u_s outside [1, {m}]"))
        last = s

    if violations:
        return violations  # the product list would be ill-formed

    scale = max(1.0, max(map(abs, spec.upsilon.values()), default=0.0))
    # (I_i I_j) I_p against I_i (I_j I_p), coefficientwise over the nonzero
    # products only.  P[i, j, p, k] = sum_q M[i, j, q] M[q, p, k] is the left
    # side; M is symmetric in its first two indices by construction, so the
    # right side sum_q M[j, p, q] M[q, i, k] is P[j, p, i, k].  Each nonzero
    # (i, j, q) pairs with every nonzero (q, p, k); those follow one another,
    # from lo on, since the list is in C order.
    idx, value = spec.products
    first, third = idx[0], idx[2]
    lo = first.searchsorted(third)
    hi = first.searchsorted(third, "right")
    count = hi - lo
    ends = count.cumsum()
    partner = np.arange(ends[-1]) + (hi - ends).repeat(count)
    # Pair (i, j, q) x (q, p, k) adds its term to D[i, j, p, k] and takes it
    # from D[p, i, j, k]: two flat C-order keys, each the sum of a part of
    # (i, j, q), i n^3 + j n^2 and i n^2 + j n, and a part of (q, p, k),
    # p n + k and p n^3 + k.
    parts = np.array([[n**3, n**2, 0], [n**2, n, 0], [0, n, 1], [0, n**3, 1]]) @ idx
    flat = parts[:2].repeat(count, axis=1) + parts[2:, partner]
    term = value.repeat(count) * value[partner]
    # Key -1 sorts first, so every change of key below starts a sum.
    keys = np.concatenate((flat.ravel(), [-1]))
    order = keys.argsort(kind="stable")
    keys = keys[order]
    starts = (keys[1:] != keys[:-1]).nonzero()[0]
    D = np.add.reduceat(np.concatenate((term, -term, [0]))[order][1:], starts)
    bad = abs(D) > ASSOC_TOL * scale
    if not bad.any():
        return violations
    last = -1
    for ijp in (keys[1:][starts[bad]] // n).tolist():
        if ijp != last:  # one entry per triple, in C order
            i, jp = divmod(ijp, n * n)
            trip = (i + 1, jp // n + 1, jp % n + 1)
            kind = "assoc-A1" if min(trip) > m else "assoc-A2"
            violations.append(Violation(kind, trip, "triple product mismatch"))
        last = ijp
    return violations


# -- file format -----------------------------------------------------------


def parse_key(text: str) -> int:
    """A u_map key: the text of a JSON integer that is not negative ("3", not "03", "+3" or "3.0")."""
    if isinstance(text, str) and text.isascii() and text.isdigit() and (text[0] != "0" or text == "0"):
        return int(text)
    raise ValueError(f"not the text of a JSON integer: {text!r}")


def algebra_from_dict(data: Mapping) -> AlgebraSpec:
    """Build and validate an AlgebraSpec from its JSON object form; AlgebraSpec.create reads the numbers.

    An upsilon row [r, s, k, re, im] is read as [r, s, k, [re, im]], and a
    u_map key is the text of a JSON integer (parse_key).
    """
    try:
        n, m = data["n"], data["m"]
        upsilon, u_map = data.get("upsilon", []), data.get("u_map", {})
        if not isinstance(upsilon, (list, tuple)) or not isinstance(u_map, Mapping):
            raise TypeError("upsilon must be a list and u_map an object")
        rows = [(r, s, k, v[0] if len(v) == 1 else v) for r, s, k, *v in upsilon]
        spec = AlgebraSpec.create(n, m, rows, {parse_key(s): u for s, u in u_map.items()})
    except (LookupError, TypeError, ValueError) as exc:
        raise AlgebraError(f"malformed algebra spec: {exc}") from exc
    violations = validate_algebra(spec)
    if violations:
        lines = "\n  ".join(map(str, violations))
        raise AlgebraError(f"invalid algebra:\n  {lines}")
    return spec


def load_algebra(path: Union[str, Path]) -> AlgebraSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return algebra_from_dict(json.load(fh))
