import cmath
import contextlib
import io
import json
import math
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from monogenica import (
    AlgebraError,
    AlgebraSpec,
    algebra_from_dict,
    validate_algebra,
)

from monogenica.algebra import ASSOC_TOL, SpecialCase
from monogenica.cli import main

from conftest import random_element
from oracles import Singular, basis, functional_f, invert, radical_project


def poly_mod_rho4(a, b):
    """Oracle: multiplication in C[rho]/rho^4 as plain polynomial truncation."""
    out = np.zeros(4, dtype=np.complex128)
    for i in range(4):
        for j in range(4 - i):
            out[i + j] += a[i] * b[j]
    return out


class TestValidation:
    def test_fixtures_valid(self, all_algebras):
        for name, spec in all_algebras.items():
            violations = validate_algebra(spec)
            assert violations == [], f"{name}: {violations}"

    def test_symmetry_conflict_reported(self):
        spec = AlgebraSpec.create(
            4, 1, [(2, 3, 4, 1.0), (3, 2, 4, 2.0)], {2: 1, 3: 1, 4: 1}
        )
        assert any(v.kind == "symmetry" for v in validate_algebra(spec))

    def test_triangularity_violation(self):
        spec = AlgebraSpec.create(4, 1, [(2, 3, 3, 1.0)], {2: 1, 3: 1, 4: 1})
        assert any(v.kind == "triangularity" for v in validate_algebra(spec))

    def test_more_idempotents_than_dimensions_rejected(self):
        with pytest.raises(AlgebraError, match=r"need 1 <= m <= n, got n=2, m=3"):
            AlgebraSpec.create(2, 3)

    def test_missing_u_map_rejected(self):
        # Rule 3 demands a unique acting idempotent for every radical index.
        spec = AlgebraSpec.create(2, 1, [], {})
        assert any(v.kind == "u-map" for v in validate_algebra(spec))

    def test_missing_owners_are_one_violation_per_run(self):
        # An n far beyond the u_map's keys is checked at the cost of the keys.
        spec = AlgebraSpec.create(10**400, 1, [], {3: 1, 4: 1, 6: 1})
        assert [(v.where, v.detail) for v in validate_algebra(spec)] == [
            ((2,), "no idempotent acts as identity on I_s"),
            ((5,), "no idempotent acts as identity on I_s"),
            ((7,), f"no idempotent acts as identity on I_s (nor on I_8 .. I_{10**400})"),
        ]

    def test_u_map_out_of_range(self):
        spec = AlgebraSpec.create(2, 1, [], {2: 5})
        assert any(v.kind == "u-map" for v in validate_algebra(spec))
        # An owner that is no integer is refused, not truncated to 1.
        with pytest.raises(ValueError, match="not an integer: 1.7"):
            AlgebraSpec.create(2, 1, [], {2: 1.7})

    def test_a1_violation_detected(self):
        # I2^2 = I3, I2*I3 = I4, I2*I4 = I5 but I3^2 = 2*I5: then
        # (I2*I2)*I3 = 2*I5 while I2*(I2*I3) = I5.
        spec = AlgebraSpec.create(
            5,
            1,
            [(2, 2, 3, 1.0), (2, 3, 4, 1.0), (2, 4, 5, 1.0), (3, 3, 5, 2.0)],
            {2: 1, 3: 1, 4: 1, 5: 1},
        )
        assert any(v.kind == "assoc-A1" for v in validate_algebra(spec))

    def test_a1_brute_force_oracle_on_t4(self, alg_t4):
        for r in range(2, 5):
            for s in range(2, 5):
                for p in range(2, 5):
                    lhs = alg_t4.multiply(
                        alg_t4.multiply(basis(alg_t4, r), basis(alg_t4, s)),
                        basis(alg_t4, p),
                    )
                    rhs = alg_t4.multiply(
                        basis(alg_t4, r),
                        alg_t4.multiply(basis(alg_t4, s), basis(alg_t4, p)),
                    )
                    assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_a2_violation_detected(self):
        # Distinct u_s with a nonzero nilpotent product breaks (A2).
        spec = AlgebraSpec.create(4, 2, [(3, 3, 4, 1.0)], {3: 1, 4: 2})
        assert any(v.kind == "assoc-A2" for v in validate_algebra(spec))

    def test_loader_rejects_invalid(self):
        with pytest.raises(AlgebraError):
            algebra_from_dict({"n": 2, "m": 1, "upsilon": [], "u_map": {}})

    @pytest.mark.parametrize("row, value", [([2, 2, 3, 0.5, -1], 0.5 - 1j),
                                            ([2, 2, 3, [0.5, -1]], 0.5 - 1j), ([2, 2, 3, 0.5], 0.5)])
    def test_loader_upsilon_row_forms(self, row, value):
        spec = algebra_from_dict({"n": 3, "m": 1, "upsilon": [row], "u_map": {"2": 1, "3": 1}})
        assert spec.upsilon == {(2, 2, 3): value}
        assert type(spec.upsilon[2, 2, 3]) is complex

    @pytest.mark.parametrize(
        "change",
        [{"n": 3.0}, {"m": "1"}, {"upsilon": [[2, 2, 3.0, 1.0]]}, {"upsilon": [[2, 2, 3]]},
         {"upsilon": [[2, 2, 3, 1.0, 0.0, 0.0]]}, {"upsilon": [[2, 2, 3, True]]},
         {"u_map": {"2": 1, "3": 1.0}}, {"u_map": {"2": 1, "+3": 1}}, {"u_map": {"2": 1, "03": 1}}],
        ids=["n-float", "m-string", "float-index", "short-row", "long-row", "bool-value",
             "float-owner", "signed-key", "zero-padded-key"],
    )
    def test_loader_reads_json_integers(self, change):
        data = {"n": 3, "m": 1, "upsilon": [[2, 2, 3, 1.0]], "u_map": {"2": 1, "3": 1}}
        assert validate_algebra(algebra_from_dict(data)) == []
        with pytest.raises(AlgebraError, match="malformed algebra spec"):
            algebra_from_dict({**data, **change})


def brute_force_assoc(spec):
    """(kind, triple) of every basis triple that breaks associativity, by plain products."""
    scale = max(1.0, max((abs(v) for v in spec.upsilon.values()), default=0.0))
    bad = set()
    for i in range(1, spec.n + 1):
        for j in range(1, spec.n + 1):
            for p in range(1, spec.n + 1):
                I, J, P = basis(spec, i), basis(spec, j), basis(spec, p)
                lhs = spec.multiply(spec.multiply(I, J), P)
                rhs = spec.multiply(I, spec.multiply(J, P))
                if np.max(np.abs(lhs - rhs)) > ASSOC_TOL * scale:
                    bad.add(("assoc-A1" if min(i, j, p) > spec.m else "assoc-A2", (i, j, p)))
    return bad


def mutated(spec, extra, replace=()):
    """spec with extra upsilon entries added and the keys in replace re-valued."""
    upsilon = {**spec.upsilon, **dict(replace)}
    entries = [(r, s, k, v) for (r, s, k), v in upsilon.items()] + list(extra)
    return AlgebraSpec.create(spec.n, spec.m, entries, spec.u_map)


def dense_assoc(spec):
    """(kind, triple) of every basis triple that breaks associativity, in C order.

    The dense check that validate_algebra used before it joined the nonzero
    products: P[i, j, p, k] = sum_q M[i, j, q] M[q, p, k] by one matmul is
    the left side, P[j, p, i, k] the right side, and a triple is listed
    once if any k differs by more than the tolerance.
    """
    n = spec.n
    M = spec.mult_tensor
    scale = max(1.0, max((abs(v) for v in spec.upsilon.values()), default=0.0))
    P = (M.reshape(n * n, n) @ M.reshape(n, n * n)).reshape(n, n, n, n)
    out = []
    for i, j, p, _ in np.argwhere(np.abs(P - P.transpose(2, 0, 1, 3)) > ASSOC_TOL * scale):
        trip = (int(i) + 1, int(j) + 1, int(p) + 1)
        if not out or out[-1][1] != trip:
            out.append(("assoc-A1" if min(trip) > spec.m else "assoc-A2", trip))
    return out


def random_cartan(rng, max_n=7):
    """A random triangular algebra in Cartan form with a complete u_map.

    m and every u_s are random; each upsilon entry (r, s -> k), k > max(r, s),
    joins radical vectors of any idempotents, which breaks (A2) when they
    differ, and chains of entries break (A1).  Values are small exact
    numbers or random complex ones.  Algebras with few entries are mostly
    associative, so both outcomes come up often.
    """
    n = int(rng.integers(2, max_n + 1))
    m = int(rng.integers(1, max(2, n - 1)))
    u_map = {s: int(rng.integers(1, m + 1)) for s in range(m + 1, n + 1)}
    upsilon = {}
    if n - m >= 2:
        for _ in range(int(rng.integers(0, 2 * (n - m) + 1))):
            r, s = sorted(rng.integers(m + 1, n, size=2).tolist())
            k = int(rng.integers(s + 1, n + 1))
            if rng.random() < 0.5:
                upsilon[r, s, k] = complex(*rng.choice([-2.0, -1.0, 0.5, 1.0, 2.0], 2))
            else:
                upsilon[r, s, k] = complex(rng.normal(), rng.normal())
    return AlgebraSpec.create(n, m, [(*key, v) for key, v in upsilon.items()], u_map)


class TestSparseAssociativity:
    def test_matches_dense_and_brute_force_oracles(self):
        rng = np.random.default_rng(20240)
        kinds = {"assoc-A1": 0, "assoc-A2": 0}
        invalid = 0
        for _ in range(320):
            spec = random_cartan(rng)
            got = [(v.kind, v.where) for v in validate_algebra(spec)]
            assert got == dense_assoc(spec)
            assert got == sorted(brute_force_assoc(spec), key=lambda v: v[1])
            invalid += bool(got)
            for kind in {kind for kind, _ in got}:
                kinds[kind] += 1
        # Both outcomes and both kinds of violation are well represented.
        assert 100 <= invalid <= 220, invalid
        assert min(kinds.values()) >= 40, kinds

    def test_load_memory_grows_with_the_products(self):
        # C[eps]/eps^64: loading, validating and both term lists stay far
        # below the 644 MB that the dense n^4 check took.
        n = 64
        data = {
            "n": n,
            "m": 1,
            "upsilon": [[r, s, r + s - 1, 1.0, 0.0] for r in range(2, n + 1)
                        for s in range(r, n + 2 - r)],
            "u_map": {str(s): 1 for s in range(2, n + 1)},
        }
        tracemalloc.start()
        try:
            spec = algebra_from_dict(data)
            spec.explicit_plan, spec.b_terms
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert validate_algebra(spec) == []
        assert peak < 64 * 2**20, peak


class TestAssociativityTensor:
    def test_fixtures_match_brute_force(self, all_algebras):
        for name, spec in all_algebras.items():
            assert brute_force_assoc(spec) == set(), name
            assert validate_algebra(spec) == [], name

    @pytest.mark.parametrize(
        "name, extra, replace, kind",
        [
            ("alg_r5", (), {(3, 3, 5): 2.0}, "assoc-A1"),
            ("alg_t4", [(3, 3, 4, 1.5)], {}, "assoc-A1"),
            ("alg_t4", (), {(2, 3, 4): 0.5 - 1j}, None),
            ("alg_p2", [(3, 3, 4, 1.0)], {}, "assoc-A2"),
            ("alg_d2", (), {}, None),
            # (I2 I2) I3 = (1 + eps) I5 against I2 (I2 I3) = I5, about the tolerance.
            ("alg_r5", (), {(3, 3, 5): 1.0 + 1e-9}, "assoc-A1"),
            ("alg_r5", (), {(3, 3, 5): 1.0 + 1e-14}, None),
        ],
        ids=["r5-A1", "t4-A1", "t4-rescaled", "p2-A2", "d2-unchanged", "r5-above-tol", "r5-within-tol"],
    )
    def test_mutations_match_brute_force(self, all_algebras, name, extra, replace, kind):
        spec = mutated(all_algebras[name], extra, replace)
        violations = validate_algebra(spec)
        found = {(v.kind, v.where) for v in violations if v.kind.startswith("assoc")}
        assert found == brute_force_assoc(spec)
        if kind is None:
            assert violations == []
        else:
            assert any(k == kind for k, _ in found)


class TestArithmetic:
    def test_unit(self, all_algebras):
        assert np.allclose(all_algebras["alg_ss2"].unit(), [1, 1])
        assert np.allclose(all_algebras["alg_d2"].unit(), [1, 0])
        assert np.allclose(all_algebras["alg_t4"].unit(), [1, 0, 0, 0])

    def test_dual_square(self, alg_d2):
        one_plus_rho = np.array([1.0, 1.0], dtype=complex)
        sq = alg_d2.multiply(one_plus_rho, one_plus_rho)
        assert np.allclose(sq, [1.0, 2.0])

    def test_idempotents_orthogonal(self, alg_ss2):
        prod = alg_ss2.multiply(basis(alg_ss2, 1), basis(alg_ss2, 2))
        assert np.allclose(prod, 0.0)

    def test_t4_table_matches_truncated_polynomials(self, alg_t4, rng):
        for _ in range(25):
            a = random_element(alg_t4, rng)
            b = random_element(alg_t4, rng)
            assert np.max(np.abs(alg_t4.multiply(a, b) - poly_mod_rho4(a, b))) < 1e-13

    def test_power(self, alg_d2, alg_t4, rng):
        a = random_element(alg_t4, rng)
        assert np.allclose(alg_t4.power(a, 0), alg_t4.unit())
        rho = basis(alg_d2, 2)
        assert np.allclose(alg_d2.power(rho, 2), 0.0)
        assert np.allclose(alg_t4.power(basis(alg_t4, 2), 3), basis(alg_t4, 4))

    def test_multiply_rejects_a_wrong_shape(self, alg_t4):
        with pytest.raises(AlgebraError, match="dimension mismatch"):
            alg_t4.multiply(alg_t4.unit(), np.ones(3, dtype=complex))

    def test_negative_power_rejected(self, alg_t4):
        with pytest.raises(AlgebraError, match="negative power"):
            alg_t4.power(alg_t4.unit(), -1)

    def test_functional(self, alg_ss2):
        assert functional_f(alg_ss2, 1, alg_ss2.unit()) == 1.0
        assert functional_f(alg_ss2, 2, np.array([3.0, 5.0j], dtype=complex)) == 5.0j
        with pytest.raises(AlgebraError):
            functional_f(alg_ss2, 3, alg_ss2.unit())

    def test_functional_kills_radical(self, alg_t4, rng):
        w = radical_project(alg_t4, random_element(alg_t4, rng))
        assert functional_f(alg_t4, 1, w) == 0.0

    def test_radical_project(self, alg_d2):
        assert np.allclose(radical_project(alg_d2, alg_d2.unit()), 0.0)
        assert np.allclose(radical_project(alg_d2, np.array([2.0, 7.0], dtype=complex)), [0.0, 7.0])

    def test_radical_closed_under_product(self, alg_r5, rng):
        w1 = radical_project(alg_r5, random_element(alg_r5, rng))
        w2 = radical_project(alg_r5, random_element(alg_r5, rng))
        prod = alg_r5.multiply(w1, w2)
        assert np.allclose(prod[: alg_r5.m], 0.0)

    def test_invert_unit(self, alg_t4):
        assert np.allclose(invert(alg_t4, alg_t4.unit()), alg_t4.unit())

    def test_invert_dual(self, alg_d2):
        inv = invert(alg_d2, np.array([1j, 1.0], dtype=complex))
        assert np.max(np.abs(inv - np.array([-1j, 1.0]))) < 1e-14

    def test_invert_singular(self, alg_ss2):
        with pytest.raises(Singular):
            invert(alg_ss2, np.array([1.0, 0.0], dtype=complex))

    def test_invert_roundtrip(self, all_algebras, rng):
        for spec in all_algebras.values():
            for _ in range(20):
                a = random_element(spec, rng)
                if min(abs(functional_f(spec, u, a)) for u in range(1, spec.m + 1)) <= 1e-6:
                    continue
                back = spec.multiply(a, invert(spec, a))
                assert np.max(np.abs(back - spec.unit())) < 1e-10


class TestClassify:
    def test_cases(self, all_algebras):
        assert all_algebras["alg_ss2"].classify_special_case() is SpecialCase.SEMI_SIMPLE
        assert all_algebras["alg_t4"].classify_special_case() is SpecialCase.PROP1
        assert all_algebras["alg_p2"].classify_special_case() is SpecialCase.PROP2
        # A single radical index is both "all u_s equal" and "all u_s
        # distinct"; Prop2 is the more specific tag.
        assert all_algebras["alg_d2"].classify_special_case() is SpecialCase.PROP2

    def test_general_case(self):
        # Two idempotents, three radical indices with a repeated u: General.
        spec = AlgebraSpec.create(5, 2, [], {3: 1, 4: 1, 5: 2})
        assert spec.classify_special_case() is SpecialCase.GENERAL

    def test_prop2_forces_zero_products(self, alg_p2):
        for s in range(3, 5):
            for p in range(3, 5):
                assert np.allclose(alg_p2.multiply(basis(alg_p2, s), basis(alg_p2, p)), 0.0)

    def test_prop2_with_nonzero_products_rejected(self):
        # I_3 I_3 = I_4 with u_3 = 1, u_4 = 2: the A2 triple (1, 3, 3) leaves I_4.
        data = {"n": 4, "m": 2, "upsilon": [[3, 3, 4, 1.0]], "u_map": {"3": 1, "4": 2}}
        with pytest.raises(AlgebraError, match=r"assoc-A2 at \(1, 3, 3\): "):
            algebra_from_dict(data)


@st.composite
def owner_joining_tables(draw):
    """An algebra table with a product Y[r, s -> p], |Y| >= 1e-6, where u_p != u_r.

    Every other entry is triangular and on a key of its own, so validation
    reaches the associativity test.  (I_{u_r} I_r) I_s - I_{u_r} (I_r I_s)
    is then Y I_p exactly: the residual of the A2 triple (u_r, r, s).
    """
    m, d = draw(st.integers(2, 3)), draw(st.integers(2, 4))
    n = m + d
    p = draw(st.integers(m + 2, n))
    r, s = sorted(draw(st.lists(st.integers(m + 1, p - 1), min_size=2, max_size=2)))
    u_map = {q: draw(st.integers(1, m)) for q in range(m + 1, n + 1)}
    u_map[p] = draw(st.sampled_from([u for u in range(1, m + 1) if u != u_map[r]]))
    size, phase = st.floats(1e-6, 1e3), st.floats(0.0, 2 * math.pi)
    rows = {(r, s, p): cmath.rect(draw(size), draw(phase))}
    for key in draw(st.lists(st.tuples(st.integers(m + 1, n), st.integers(m + 1, n),
                                       st.integers(m + 2, n)), max_size=6)):
        a, b, k = sorted(key[:2]) + [key[2]]
        if b < k and (a, b, k) not in rows:
            rows[a, b, k] = cmath.rect(draw(size), draw(phase))
    return {"n": n, "m": m, "u_map": {str(q): u for q, u in u_map.items()},
            "upsilon": [[*key, y.real, y.imag] for key, y in rows.items()]}, (u_map[r], r, s)


@settings(max_examples=60, deadline=None)
@given(case=owner_joining_tables())
# T4's shape with I_3 I_3 = I_4, u_3 = 1 and u_4 = 2.
@example(case=({"n": 4, "m": 2, "u_map": {"3": 1, "4": 2}, "upsilon": [[3, 3, 4, 1.0, 0.0]]},
               (1, 3, 3)))
def test_products_joining_radicals_of_different_owners_are_rejected(case):
    table, triple = case
    with pytest.raises(AlgebraError) as info:
        algebra_from_dict(table)
    assert f"assoc-A2 at {triple}: " in str(info.value)
    job = {"algebra": table, "triad": {"a": [1.0] * table["n"], "b": [0.0] * table["n"]}}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "job.json"
        path.write_text(json.dumps(job))
        for command in ("validate", "check"):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                assert main([command, str(path)]) == 2
            assert out.getvalue() == "" and f"assoc-A2 at {triple}: " in err.getvalue()


coeff = st.floats(-1.0, 1.0, allow_nan=False)


@st.composite
def complex_vectors(draw, n):
    re = draw(st.lists(coeff, min_size=n, max_size=n))
    im = draw(st.lists(coeff, min_size=n, max_size=n))
    return np.array(re, dtype=np.complex128) + 1j * np.array(im)


class TestAlgebraProperties:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_associative_commutative_multiplicative(self, all_algebras, data):
        for spec in all_algebras.values():
            a = data.draw(complex_vectors(spec.n))
            b = data.draw(complex_vectors(spec.n))
            c = data.draw(complex_vectors(spec.n))
            ab = spec.multiply(a, b)
            assert np.array_equal(ab, spec.multiply(b, a))
            lhs = spec.multiply(ab, c)
            rhs = spec.multiply(a, spec.multiply(b, c))
            assert np.max(np.abs(lhs - rhs)) < 1e-12
            for u in range(1, spec.m + 1):
                fu = functional_f(spec, u, ab)
                assert abs(fu - functional_f(spec, u, a) * functional_f(spec, u, b)) < 1e-13

    def test_unit_is_identity(self, all_algebras, rng):
        for spec in all_algebras.values():
            a = random_element(spec, rng)
            assert np.max(np.abs(spec.multiply(spec.unit(), a) - a)) < 1e-15

    def test_random_truncated_sum_algebras_valid(self, rng):
        # Direct sums of truncated polynomial algebras are associative by
        # construction and exercise General-class tables.
        for _ in range(5):
            k1 = int(rng.integers(2, 4))
            k2 = int(rng.integers(2, 4))
            spec = direct_sum_truncated(k1, k2)
            assert validate_algebra(spec) == []


def direct_sum_truncated(k1, k2):
    """C[rho]/rho^k1 (+) C[rho]/rho^k2 in Cartan form: m = 2 idempotents."""
    m = 2
    n = m + (k1 - 1) + (k2 - 1)
    upsilon = []
    # Block 1 radical indices 3..k1+1 are rho^1..rho^(k1-1) of the first summand.
    for i in range(1, k1):
        for j in range(i, k1):
            if i + j < k1:
                upsilon.append((m + i, m + j, m + i + j, 1.0))
    off = k1 - 1
    for i in range(1, k2):
        for j in range(i, k2):
            if i + j < k2:
                upsilon.append((m + off + i, m + off + j, m + off + i + j, 1.0))
    u_map = {m + i: 1 for i in range(1, k1)}
    u_map.update({m + off + i: 2 for i in range(1, k2)})
    return AlgebraSpec.create(n, m, upsilon, u_map)


def skewed_basis(spec, rng):
    """The same algebra in the radical basis J_a = I_a + sum_{b > a} P[b, a] I_b.

    P couples radical indices of one idempotent only, with complex entries,
    so a product J_r J_s has components on several J_k and several s feed
    one B[r, p].  The entries of P are multiples of 1/4 and P^-1 is the
    finite series sum_k (I - P)^k, so the structure constants stay exact
    while they fit in a double.
    """
    n, m = spec.n, spec.m
    P = np.eye(n, dtype=np.complex128)
    for a in range(m, n):
        for b in range(a + 1, n):
            if spec.u_map[a + 1] == spec.u_map[b + 1]:
                P[b, a] = complex(*rng.integers(-4, 5, 2)) / 4
    N = np.eye(n) - P
    P_inv = sum(np.linalg.matrix_power(N, k) for k in range(n))
    MJ = np.einsum("ai,bj,abc,kc->ijk", P, P, spec.mult_tensor, P_inv)
    upsilon = [
        (r + 1, s + 1, k + 1, MJ[r, s, k])
        for r in range(m, n)
        for s in range(r, n)
        for k in range(n)
        if MJ[r, s, k] != 0
    ]
    return AlgebraSpec.create(n, m, upsilon, spec.u_map)
