"""shortest.fields and shortest.csv_rows against repr, byte for byte."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monogenica import shortest


def texts(values) -> list[str]:
    """The text of every field of shortest.fields(values), which holds no NUL before its end."""
    rows = shortest.fields(np.asarray(values, dtype=np.float64)).reshape(-1, shortest.WIDTH)
    out = []
    for row in rows:
        text = row.tobytes().rstrip(b"\0")
        assert b"\0" not in text
        out.append(text.decode("ascii"))
    return out


def assert_repr(values) -> None:
    values = np.asarray(values, dtype=np.float64).ravel()
    wrong = [(repr(v), t) for v, t in zip(values.tolist(), texts(values)) if repr(v) != t]
    assert not wrong, f"{len(wrong)} of {len(values)} differ, first {wrong[:5]}"


@settings(max_examples=400, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False))
def test_any_float(v):
    assert_repr([v])


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=64))
def test_any_floats_together(vs):
    assert_repr(vs)


def test_random_bit_patterns():
    bits = np.random.default_rng(20181).integers(0, 2**64, size=10**5, dtype=np.uint64)
    values = bits.view(np.float64)
    assert_repr(values[np.isfinite(values)])


def test_powers_of_two():
    p = np.ldexp(1.0, np.arange(-1074, 1024))
    assert_repr(np.concatenate([p, -p]))


def test_powers_of_ten_and_their_neighbours():
    p = np.array([float(f"1e{k}") for k in range(-323, 309)])
    assert_repr(np.concatenate([p, np.nextafter(p, 0.0), np.nextafter(p, np.inf)]))


def test_integers_up_to_2_to_53():
    rng = np.random.default_rng(53)
    ints = np.concatenate([np.arange(10**4), rng.integers(0, 2**53, 10**4, endpoint=True),
                           2**53 - np.arange(100)])
    assert_repr(ints.astype(np.float64))
    assert_repr(-ints.astype(np.float64))


def test_layout_edges():
    # Around the switches between positional and exponential text, zero
    # and the ends of the range.
    assert_repr([1e-5, 1e-4, 9.999999999999999e-05, 1e15, 1e16, 9999999999999998.0,
                 0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                 -2.2250738585072014e-308, 1.7976931348623157e308, 0.1, 0.5, 1.0, 100.0,
                 123456.0, 1e22, 1e23, 1e100, 1.5e-100, -1.25e300])


def test_uniform_values_keep_their_shape():
    v = np.random.default_rng(7).uniform(-1, 1, (13, 7))
    f = shortest.fields(v)
    assert f.shape == (13, 7, shortest.WIDTH) and f.dtype == np.uint8
    assert_repr(v)
    assert shortest.fields(np.empty(0)).shape == (0, shortest.WIDTH)
    assert texts(2.5) == ["2.5"]


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_non_finite_values_are_refused(bad):
    with pytest.raises(ValueError, match="finite"):
        shortest.fields([1.0, bad])


def test_csv_rows_join_fields():
    table = np.array([[0.1, -2.0, 1e16], [3.0, 5e-324, -0.0]])
    data = shortest.csv_rows(shortest.fields(table))
    assert data == b"".join((",".join(map(repr, row)) + "\n").encode() for row in table.tolist())
