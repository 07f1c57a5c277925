import itertools

import numpy as np
import pytest

from monogenica import (
    AlgebraError,
    TriadSpec,
    algebra_from_dict,
    b_coeffs,
    noninvertible_lines,
    q_table,
    t_coeffs,
)

from monogenica.resolvent import (
    assemble_closed,
    closed_coeffs,
    coordinates,
    inverse_powers,
    neumann_table,
)

from conftest import fixture_triad, most_terms_per_b, random_triad
from oracles import (
    OnSpectrum,
    embed,
    invert,
    resolvent_closed,
    resolvent_recurrence,
    spectrum,
    spectrum_sum,
    stacked_inverse_powers,
    t_sum,
)
from test_algebra import direct_sum_truncated, skewed_basis


def geometric_series_resolvent(t, x, T):
    """Oracle for C[rho]/rho^4: expand (t - x - w)^(-1), w = T2*rho + T3*rho^2 + T4*rho^3."""
    w = np.array([0.0, T[0], T[1], T[2]], dtype=np.complex128)
    out = np.zeros(4, dtype=np.complex128)
    power = np.array([1.0, 0, 0, 0], dtype=np.complex128)

    def mult(a, b):
        c = np.zeros(4, dtype=np.complex128)
        for i in range(4):
            for j in range(4 - i):
                c[i + j] += a[i] * b[j]
        return c

    for j in range(4):
        out += power / (t - x) ** (j + 1)
        power = mult(power, w)
    return out


class TestTB:
    def test_t_zero(self, alg_t4):
        triad = fixture_triad("alg_t4")
        assert np.allclose(t_coeffs(alg_t4, triad, 0.0, 0.0), 0.0)

    def test_t_direct(self, alg_d2, alg_t4):
        triad = TriadSpec.create([1j, 1.0], [0.0, 0.0])
        assert np.allclose(t_coeffs(alg_d2, triad, 1.0, 5.0), [1.0])
        triad4 = TriadSpec.create([1j, 1, 0, 0], [0.5, 0, 1, 0])
        assert np.allclose(t_coeffs(alg_t4, triad4, 2.0, 3.0), [2.0, 3.0, 0.0])

    def test_b_zero_for_prop2(self, alg_p2, rng):
        T = t_coeffs(alg_p2, random_triad(alg_p2, rng), 1.3, -0.8)
        assert np.allclose(b_coeffs(alg_p2, T), 0.0)

    def test_b_t4_hand_values(self, alg_t4):
        triad = fixture_triad("alg_t4")
        T = t_coeffs(alg_t4, triad, 2.0, 3.0)
        B = b_coeffs(alg_t4, T)
        assert B[0, 1] == T[0]  # B_{2,3} = T2 * Y[2,3->2]
        assert B[1, 2] == T[0]  # B_{3,4} = T2 * Y[3,4->2]
        assert B[0, 2] == T[1]  # B_{2,4} = T3 * Y[2,4->3]


def same_bits(a, b) -> bool:
    """Equal shapes, dtypes and bytes: signed zeros and NaN payloads count."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestCoordinates:
    """zeta's coordinates from one map keep the bits of the separate sums."""

    VALUES = (-0.7, -0.0, 0.0, 0.4)
    # Real and imaginary parts of +-0.0 in every combination, and beside them.
    ZEROS = [complex(re, im) for re in (0.0, -0.0) for im in (0.0, -0.0)]

    def triads(self, spec, name, rng):
        zeros = self.ZEROS * spec.n
        yield name, fixture_triad(name) if name.startswith("alg_") else random_triad(spec, rng)
        yield "zeros", TriadSpec.create(zeros[: spec.n], zeros[spec.n : 2 * spec.n][::-1])
        mixed = [[z, 0.5 - 0.25j][i % 2] for i, z in enumerate(zeros)]
        yield "mixed", TriadSpec.create(mixed[: spec.n], mixed[1 : spec.n + 1])

    @pytest.mark.parametrize("name", ["alg_ss2", "alg_d2", "alg_t4", "alg_p2", "alg_r5", "general"])
    def test_map_equals_the_sums_bit_for_bit(self, all_algebras, rng, name):
        spec = all_algebras.get(name) or skewed_basis(direct_sum_truncated(6, 5), rng)
        grid = np.array(list(itertools.product(self.VALUES, repeat=3))).T
        for label, triad in self.triads(spec, name, rng):
            for x, y, z in (*grid.T, grid):
                Z = coordinates(triad, spec.m, x, y, z)
                xi, T = spectrum_sum(triad, spec.m, x, y, z), t_sum(spec, triad, y, z)
                assert same_bits(Z, np.concatenate([xi, T], axis=-1)), (label, x, y, z)
                assert same_bits(spectrum(triad, spec.m, x, y, z), xi), (label, x, y, z)
                assert same_bits(t_coeffs(spec, triad, y, z), T), (label, y, z)


class TestInversePowers:
    @pytest.mark.parametrize("power", [1, 2, 3, 4])
    def test_equal_the_stacked_cumprod_bit_for_bit(self, rng, power):
        for d in range(10):
            xi = rng.normal(size=1 + d % 3) + 1j * rng.normal(size=1 + d % 3)
            for t in (0.3 - 0.2j, np.complex128(-1.1 + 0.4j),
                      1.5 * np.exp(2j * np.pi * np.arange(64) / 64),
                      rng.normal(size=(2, 5)) + 1j * rng.normal(size=(2, 5))):
                got = inverse_powers(xi, t, power, d)
                assert got.shape == (len(xi), d + 1) + np.shape(t)
                assert same_bits(got, stacked_inverse_powers(xi, t, power, d)), (d, np.shape(t))


class TestQTable:
    def test_base_case(self, all_algebras, rng):
        for spec in all_algebras.values():
            triad = random_triad(spec, rng)
            T = t_coeffs(spec, triad, 0.7, -1.1)
            Q = q_table(spec, T, b_coeffs(spec, T))
            assert np.array_equal(Q[2, :], T)

    def test_t4_closed_forms_against_geometric_series(self, alg_t4, rng):
        # Q_{3,4} = 2*T2*T3 and Q_{4,4} = T2^3 per the series oracle.
        for _ in range(10):
            triad = random_triad(alg_t4, rng)
            y, z = rng.uniform(-2, 2, 2)
            T = t_coeffs(alg_t4, triad, y, z)
            Q = q_table(alg_t4, T, b_coeffs(alg_t4, T))
            assert abs(Q[3, 2] - 2 * T[0] * T[1]) < 1e-13
            assert abs(Q[4, 2] - T[0] ** 3) < 1e-13
            x = float(rng.uniform(-2, 2))
            t = complex(*rng.uniform(2.5, 4.0, 2))
            xi1 = x + y * triad.a[0] + z * triad.b[0]
            oracle = geometric_series_resolvent(t, xi1, T)
            got = resolvent_closed(alg_t4, triad, (x, y, z), t)
            assert np.max(np.abs(got - oracle)) < 1e-12

    def test_degree_bound(self, all_algebras, rng):
        # No Q entry materializes past k = s - m + 1.
        for spec in all_algebras.values():
            triad = random_triad(spec, rng)
            T = t_coeffs(spec, triad, 1.0, 1.0)
            Q = q_table(spec, T, b_coeffs(spec, T))
            for s in range(spec.m + 1, spec.n + 1):
                si = s - spec.m - 1
                for k in range(s - spec.m + 2, Q.shape[0]):
                    assert Q[k, si] == 0.0


def loop_b_coeffs(spec, T):
    """Reference B table by the scalar loops over the upsilon dict."""
    d = spec.n - spec.m
    B = np.zeros((d, d), dtype=np.complex128)
    for p in range(spec.m + 2, spec.n + 1):
        for r in range(spec.m + 1, p):
            for s in range(spec.m + 1, p):
                v = spec.upsilon.get((min(r, s), max(r, s), p))
                if v is not None:
                    B[r - spec.m - 1, p - spec.m - 1] += T[s - spec.m - 1] * v
    return B


def loop_q_table(spec, T, B):
    """Reference Q table by the scalar recurrence loops."""
    d = spec.n - spec.m
    Q = np.zeros((d + 3, d), dtype=np.complex128)
    Q[2, :d] = T
    for si in range(1, d):
        for k in range(3, si + 3):
            Q[k, si] = sum(Q[k - 1, ri] * B[ri, si] for ri in range(si))
    return Q


class TestBatchedTables:
    def test_batch_matches_scalar_loops(self, all_algebras, rng):
        # B and Q for a batch of points at once equal the scalar loops row by row.
        algebras = list(all_algebras.values()) + [direct_sum_truncated(5, 7)]
        for spec in algebras:
            triad = random_triad(spec, rng)
            y, z = rng.uniform(-1.5, 1.5, (2, 9))
            T = t_coeffs(spec, triad, y, z)
            B = b_coeffs(spec, T)
            Q = q_table(spec, T, B)
            d = spec.n - spec.m
            assert T.shape == (9, d) and B.shape == (9, d, d) and Q.shape == (9, d + 3, d)
            for i in range(9):
                assert np.array_equal(T[i], t_coeffs(spec, triad, y[i], z[i]))
                ref_b = loop_b_coeffs(spec, T[i])
                ref_q = loop_q_table(spec, T[i], ref_b)
                scale = 1.0 + np.max(np.abs(ref_q), initial=0.0)
                assert np.max(np.abs(B[i] - ref_b), initial=0.0) <= 1e-14 * scale
                assert np.max(np.abs(Q[i] - ref_q), initial=0.0) <= 1e-14 * scale


    @pytest.mark.parametrize("k1, k2", [(16, 1), (9, 8)])
    def test_rows_match_points_when_several_s_feed_one_b(self, rng, k1, k2):
        # Up to 14 T_s feed one B[r, p] here; a BLAS contraction rounds a row
        # differently with the batch size, the fixed-order sum does not.
        spec = skewed_basis(direct_sum_truncated(k1, k2), rng)
        d = spec.n - spec.m
        assert most_terms_per_b(spec) >= 7
        for count in (7, 40):
            T = rng.uniform(-1, 1, (count, d)) + 1j * rng.uniform(-1, 1, (count, d))
            B = b_coeffs(spec, T)
            Q = q_table(spec, T, B)
            for i in range(count):
                assert np.array_equal(B[i], b_coeffs(spec, T[i]))
                assert np.array_equal(B[i], b_coeffs(spec, T[i : i + 1])[0])
                assert np.array_equal(Q[i], q_table(spec, T[i], B[i]))
            ref_b = loop_b_coeffs(spec, T[0])
            assert np.max(np.abs(B[0] - ref_b)) <= 1e-13 * np.max(np.abs(ref_b))


class TestResolvent:
    def test_semisimple_explicit(self, alg_ss2):
        triad = fixture_triad("alg_ss2")
        p = (0.4, 0.3, -0.7)
        t = 2.0 + 1.5j
        xi = spectrum(triad, alg_ss2.m, *p)
        got = resolvent_recurrence(alg_ss2, triad, p, t)
        assert np.max(np.abs(got - 1.0 / (t - xi))) < 1e-14

    def test_d2_worked_example(self, alg_d2):
        triad = TriadSpec.create([1j, 1.0], [0.0, 0.0])
        got = resolvent_recurrence(alg_d2, triad, (0.0, 1.0, 0.0), 0.0)
        assert np.max(np.abs(got - np.array([1j, -1.0]))) < 1e-14

    def test_on_spectrum_raises(self, alg_ss2):
        triad = fixture_triad("alg_ss2")
        p = (0.4, 0.3, -0.7)
        xi1 = complex(spectrum(triad, alg_ss2.m, *p)[0])
        with pytest.raises(OnSpectrum):
            resolvent_recurrence(alg_ss2, triad, p, xi1)
        with pytest.raises(OnSpectrum):
            resolvent_closed(alg_ss2, triad, p, xi1)

    def test_recurrence_closed_invert_agree(self, all_algebras, rng):
        for spec in all_algebras.values():
            for _ in range(40):
                triad = random_triad(spec, rng)
                p = tuple(rng.uniform(-2, 2, 3))
                xi = spectrum(triad, spec.m, *p)
                t = complex(*rng.uniform(-4, 4, 2))
                if np.min(np.abs(t - xi)) < 0.1:
                    continue
                rec = resolvent_recurrence(spec, triad, p, t)
                clo = resolvent_closed(spec, triad, p, t)
                assert np.max(np.abs(rec - clo)) < 1e-12
                zeta = embed(spec, triad, p)
                ident = spec.multiply(t * spec.unit() - zeta, clo)
                assert np.max(np.abs(ident - spec.unit())) < 1e-12
                oracle = invert(spec, t * spec.unit() - zeta)
                assert np.max(np.abs(clo - oracle)) < 1e-10

    def test_prop2_closed_form(self, alg_p2, rng):
        # Second sum collapses to T_s / (t - xi_{u_s})^2.
        triad = random_triad(alg_p2, rng)
        p = (0.2, 0.9, -0.4)
        t = 3.0 + 0.5j
        xi = spectrum(triad, alg_p2.m, *p)
        T = t_coeffs(alg_p2, triad, p[1], p[2])
        got = resolvent_closed(alg_p2, triad, p, t)
        for s in range(3, 5):
            expect = T[s - 3] / (t - xi[alg_p2.u_map[s] - 1]) ** 2
            assert abs(got[s - 1] - expect) < 1e-14


class TestClosedPower:
    @pytest.mark.parametrize("power", [1, 2, 3, 4])
    def test_power_matches_dense_solve(self, all_algebras, power):
        # R(t)^p from the Q-table against the p-th power of a dense-solve
        # inverse, which shares no code with the Q-table route.
        p = (0.3, 0.4, -0.2)
        ts = np.array([2.0 + 1.5j, -1.5 + 0.3j, 0.1 - 2.2j, 3.0j])
        for name, spec in all_algebras.items():
            triad = fixture_triad(name)
            xi = spectrum(triad, spec.m, *p)
            assert np.min(np.abs(ts[:, None] - xi)) > 0.3
            T = t_coeffs(spec, triad, p[1], p[2])
            Q = q_table(spec, T, b_coeffs(spec, T))
            zeta = embed(spec, triad, p)
            oracle = np.stack(
                [spec.power(invert(spec, t * spec.unit() - zeta), power) for t in ts], axis=-1
            )
            got = assemble_closed(spec, xi, Q, ts, power=power)
            assert got.shape == (spec.n, len(ts))
            assert np.max(np.abs(got - oracle)) <= 1e-12 * np.max(np.abs(oracle)), name
            for j, t in enumerate(ts):
                one = assemble_closed(spec, xi, Q, t, power=power)
                assert one.shape == (spec.n,)
                assert np.max(np.abs(one - oracle[:, j])) <= 1e-12 * np.max(np.abs(oracle[:, j])), name


class TestNeumannTable:
    """R(t)^p's coefficients from the Neumann series, against the Q-table and against inversion."""

    @staticmethod
    def algebras(all_algebras, rng):
        # The five fixtures and a General algebra (m = 2, a skewed radical basis).
        general = skewed_basis(direct_sum_truncated(6, 5), rng)
        return {**{name: (spec, fixture_triad(name)) for name, spec in all_algebras.items()},
                "general": (general, random_triad(general, rng))}

    @pytest.mark.parametrize("power", [1, 2, 4])
    def test_equals_the_closed_coefficients(self, all_algebras, rng, power):
        # The table is the closed form's C[j, u, l] at [u, l, j]: the probe
        # that proposed it found no difference at all.
        for name, (spec, triad) in self.algebras(all_algebras, rng).items():
            for _ in range(5):
                x, y, z = rng.uniform(-1.2, 1.2, 3)
                T = coordinates(triad, spec.m, x, y, z)[spec.m :]
                ref = closed_coeffs(spec, q_table(spec, T, b_coeffs(spec, T)), power).transpose(1, 2, 0)
                got = neumann_table(spec, T, power)
                assert got.shape == (spec.m, spec.n - spec.m + 1, spec.n)
                assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref)), (name, power)

    @pytest.mark.parametrize("power", [1, 2, 3])
    def test_power_matches_dense_solve(self, all_algebras, rng, power):
        # Summed with the inverse powers of t - xi_u, the table is R(t)^p
        # from a dense-solve inverse, which reads no T, B or Q table either.
        p = (0.3, 0.4, -0.2)
        ts = np.array([2.0 + 1.5j, -1.5 + 0.3j, 0.1 - 2.2j, 3.0j])
        for name, (spec, triad) in self.algebras(all_algebras, rng).items():
            Z = coordinates(triad, spec.m, *p)
            xi, T = Z[: spec.m], Z[spec.m :]
            if np.min(np.abs(ts[:, None] - xi)) <= 0.3:
                continue
            E = neumann_table(spec, T, power)
            pw = inverse_powers(xi, ts, power, spec.n - spec.m)
            got = np.einsum("ulj,ulN->jN", E, pw)
            zeta = embed(spec, triad, p)
            oracle = np.stack(
                [spec.power(invert(spec, t * spec.unit() - zeta), power) for t in ts], axis=-1
            )
            assert np.max(np.abs(got - oracle)) <= 1e-12 * np.max(np.abs(oracle)), name


class TestLemma2:
    def test_audit_flags_incoherent_table(self, alg_t4):
        # Force u_3 != u_4 on a T4-shaped table: B_{3,4} != 0 joins radicals
        # of different owners, and loading rejects the table.
        bad = alg_t4.create(4, 2, [(3, 3, 4, 1.0)], {3: 1, 4: 2})
        triad = TriadSpec.create([2j, 1j, 1.0, 0.0], [1.0, 0.0, 0.5, 1.0])
        B = b_coeffs(bad, t_coeffs(bad, triad, 1.0, 0.0))
        assert abs(B[0, 1]) > 0.1
        with pytest.raises(AlgebraError, match=r"assoc-A2 at \(1, 3, 3\): "):
            algebra_from_dict({"n": 4, "m": 2, "upsilon": [[3, 3, 4, 1.0]], "u_map": {"3": 1, "4": 2}})


class TestLines:
    def test_z_axis_line(self):
        triad = TriadSpec.create([1j, 0.3], [0.0, 1.0])
        (line,) = noninvertible_lines(triad, 1)
        assert line.contains((0.0, 0.0, 5.0))
        assert not line.contains((1.0, 0.0, 0.0))

    def test_origin_on_every_line(self, alg_ss2, rng):
        triad = random_triad(alg_ss2, rng)
        for line in noninvertible_lines(triad, alg_ss2.m):
            assert line.contains((0.0, 0.0, 0.0))

    def test_sampled_line_points_kill_xi(self, alg_p2, rng):
        triad = random_triad(alg_p2, rng)
        for line in noninvertible_lines(triad, alg_p2.m):
            d = line.direction
            for tval in (-2.0, 0.5, 3.0):
                p = tuple(tval * d)
                xi = spectrum(triad, alg_p2.m, *p)
                assert abs(xi[line.u - 1]) <= 1e-12 * max(1.0, float(np.max(np.abs(p))))
