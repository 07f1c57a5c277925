"""Exact bits of the explicit route and of the derivative tables.

pinned_bits.json holds float.hex of every real and imaginary part, taken
from the code before the per-algebra and per-job tables were built from
the list of nonzero products.  Building the tables differently must not
move a single bit of these outputs.  `python tests/test_pinned_bits.py`
prints the current values in the file's format.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from monogenica import MonogenicSpec, eval_explicit, load_algebra
from monogenica.fixtures import fixture_path
from monogenica.holo import DerivativeStack

from conftest import fixture_triad, random_triad
from test_holo import TestStackedKernel
from test_monogenic import general_cartan, mixed_data, truncated_poly

PINNED = Path(__file__).with_name("pinned_bits.json")
FIXTURES = ("alg_ss2", "alg_d2", "alg_t4", "alg_p2", "alg_r5")
POINTS = np.array([[0.3, 0.4, -0.2], [-0.1, 0.25, 0.35], [0.05, -0.3, 0.1]])
ORDERS = (0, 1, 2, 3)
STACK_K = [3, 0, 6, 5, 7, 2, 1, 4, 9]


def monospecs() -> dict:
    """The five fixture algebras, C[eps]/eps^16 and a General algebra, each with every kind of data."""
    specs = {name: (load_algebra(fixture_path(name)), fixture_triad(name)) for name in FIXTURES}
    for name, spec in (("trunc16", truncated_poly(16)), ("general", general_cartan(np.random.default_rng(12)))):
        specs[name] = (spec, random_triad(spec, np.random.default_rng(spec.n)))
    return {name: MonogenicSpec.create(spec, triad, *mixed_data(spec)) for name, (spec, triad) in specs.items()}


def hexes(values: np.ndarray) -> list[str]:
    return [float(v).hex() for v in np.ascontiguousarray(values, dtype=np.complex128).view(np.float64).ravel()]


def stack_args():
    rng = np.random.default_rng(9)
    xi = rng.uniform(-2, 2, (len(STACK_K), 4)) + 1j * rng.uniform(-2, 2, (len(STACK_K), 4))
    return TestStackedKernel.ROWS, xi


def capture() -> dict:
    """Every pinned list, keyed "explicit <spec> <order>" or "stack <lo>"."""
    out = {
        f"explicit {name} {r}": hexes(eval_explicit(ms, POINTS, order=r))
        for name, ms in monospecs().items() for r in ORDERS
    }
    rows, xi = stack_args()
    out.update({f"stack {lo}": hexes(DerivativeStack(rows, STACK_K, lo)(xi)) for lo in range(4)})
    return out


@pytest.fixture(scope="module")
def pinned():
    return json.loads(PINNED.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def specs():
    return monospecs()


@pytest.mark.parametrize("name", FIXTURES + ("trunc16", "general"))
def test_explicit_route_bits(pinned, specs, name):
    for r in ORDERS:
        assert hexes(eval_explicit(specs[name], POINTS, order=r)) == pinned[f"explicit {name} {r}"], r


@pytest.mark.parametrize("lo", range(4))
def test_derivative_table_bits(pinned, lo):
    rows, xi = stack_args()
    assert hexes(DerivativeStack(rows, STACK_K, lo)(xi)) == pinned[f"stack {lo}"]


if __name__ == "__main__":
    lines = [f"{json.dumps(key)}: {json.dumps(value)}" for key, value in capture().items()]
    sys.stdout.write("{\n" + ",\n".join(lines) + "\n}\n")
