"""Seeded job files of the three workloads.

The seed changes numbers only: triad coordinates, holomorphic data, grid
ranges and points.  Algebras, function kinds, grid sizes and point counts
are fixed, so the work per round, and with it the figures, does not depend
on the seed.  Every generated input keeps the program inside the region
where it is known to be correct; the two known faults enter on fixed inputs
in `derivative_jobs`.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

import reference

FIXTURES = ("alg_ss2", "alg_d2", "alg_t4", "alg_p2", "alg_r5")
KINDS = ("poly", "exp", "sin", "cos", "series")
LAPLACE = {"N": 2, "terms": [[2, 0, 0, 1.0], [0, 2, 0, 1.0], [0, 0, 2, 1.0]]}

GRID_SHAPE = (9, 8, 7)  # x, y, z counts of every grid job
CHECK_DIMS = (4, 7, 10, 13, 16)  # truncated-polynomial Laplace jobs
CHECK_POINTS = 2
DERIV_POINTS = 3
DERIV_ORDERS = (0, 1, 2, 3)  # 0 is eval_integral, r >= 1 gateaux_derivative
DERIV_TP_DIM = 10
SERIES_RADIUS = 5.0


def rng_for(seed: int, stream: int) -> np.random.Generator:
    """The generator of one input stream; any integer seed is accepted."""
    return np.random.default_rng([seed % 2**64, stream])


def pair(c: complex) -> list[float]:
    return [float(c.real), float(c.imag)]


def crandom(rng, scale: float) -> complex:
    return complex(rng.uniform(-scale, scale), rng.uniform(-scale, scale))


def load_fixture(fixture_dir: Path, name: str) -> dict:
    with open(fixture_dir / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


def truncated_poly_algebra(n: int) -> dict:
    """C[eps]/(eps^n) with I_k = eps^(k-1): I_r I_s = I_(r+s-1) while r+s-1 <= n."""
    upsilon = [
        [r, s, r + s - 1, 1.0, 0.0]
        for r in range(2, n + 1)
        for s in range(r, n + 1)
        if r + s - 1 <= n
    ]
    return {"n": n, "m": 1, "upsilon": upsilon, "u_map": {str(s): 1 for s in range(2, n + 1)}}


def holo(rng, kind: str) -> dict:
    """Holomorphic data of one kind with seeded, moderate parameters.

    Series are centred near 0 with radius SERIES_RADIUS, which keeps every
    evaluation point of the workloads, contour nodes included, in domain.
    """
    if kind == "poly":
        return {"kind": "poly", "coeffs": [pair(crandom(rng, 1.0)) for _ in range(4)]}
    if kind == "series":
        coeffs = [pair(crandom(rng, 1.0) / SERIES_RADIUS**j) for j in range(6)]
        return {"kind": "series", "center": pair(crandom(rng, 0.1)),
                "radius": SERIES_RADIUS, "coeffs": coeffs, "amp": pair(crandom(rng, 1.0))}
    return {"kind": kind, "amp": pair(complex(rng.uniform(0.5, 1.0), rng.uniform(-0.3, 0.3))),
            "scale": pair(complex(rng.uniform(0.6, 1.0), rng.uniform(-0.2, 0.2))),
            "shift": pair(crandom(rng, 0.2))}


def fixture_triad(rng, alg: dict) -> dict:
    """A valid triad whose spectrum points stay apart.

    Im(a_u) grows by at least 0.6 from one idempotent to the next and b_u is
    real there, so |xi_1 - xi_2| >= 0.6 |y|.
    """
    n, m = alg["n"], alg["m"]
    a = [complex(rng.uniform(-0.3, 0.3), 0.6 + 1.0 * u + rng.uniform(0.0, 0.4)) for u in range(m)]
    b = [complex(rng.uniform(-1.0, 1.0), 0.0) for _ in range(m)]
    a += [crandom(rng, 0.5) for _ in range(n - m)]
    b += [crandom(rng, 0.5) for _ in range(n - m)]
    return {"a": [pair(v) for v in a], "b": [pair(v) for v in b]}


def laplace_triad(rng, alg: dict) -> dict:
    """e2 = alpha + N2 and e3 = sqrt(-1 - e2^2), so 1 + e2^2 + e3^2 = 0.

    The square root is the finite binomial series of sqrt(c0 (1 + N / c0))
    with c0 = -1 - alpha^2 and N nilpotent; |alpha| >= 1.5 keeps c0 away
    from 0.
    """
    n = alg["n"]
    M = reference.product_tensor(alg)
    alpha = complex(rng.uniform(-0.3, 0.3), rng.uniform(1.5, 2.5))
    e2 = np.array([[alpha] + [crandom(rng, 0.3) for _ in range(n - 1)]])
    c = -reference.mul(M, e2, e2)
    c[0, 0] -= 1.0
    c0 = c[0, 0]
    nil = c.copy()
    nil[0, 0] = 0.0
    nil /= c0
    term = np.zeros_like(c)
    term[0, 0] = 1.0
    root = term.copy()
    binom = 1.0
    for k in range(1, n):
        binom *= (0.5 - (k - 1)) / k
        term = reference.mul(M, term, nil)
        root = root + binom * term
    e3 = np.sqrt(c0) * root
    return {"a": [pair(v) for v in e2[0]], "b": [pair(v) for v in e3[0]]}


def kinds_for(alg: dict, offset: int, kinds=KINDS) -> tuple[list[str], list[str]]:
    """Cycle function kinds over F then G, starting at offset."""
    names = [kinds[(offset + i) % len(kinds)] for i in range(alg["n"])]
    return names[: alg["m"]], names[alg["m"]:]


def grid_jobs(seed: int, fixture_dir: Path) -> list[dict]:
    """One grid job per bundled algebra, every kind present across the jobs."""
    rng = rng_for(seed, 1)
    jobs = []
    for i, name in enumerate(FIXTURES):
        alg = load_fixture(fixture_dir, name)
        fk, gk = kinds_for(alg, i)
        grid = {}
        for axis, count in zip("xyz", GRID_SHAPE):
            lo = -0.5 + rng.uniform(-0.1, 0.1)
            grid[axis] = [lo, lo + 1.0 + rng.uniform(-0.1, 0.1), count]
        jobs.append({"name": name, "algebra": alg, "triad": fixture_triad(rng, alg),
                     "F": [holo(rng, k) for k in fk], "G": [holo(rng, k) for k in gk],
                     "grid": grid})
    return jobs


def random_points(rng, count: int, y_min: float = 0.0) -> list[list[float]]:
    """Points in [-0.5, 0.5]^3 with |y| >= y_min."""
    pts = []
    for _ in range(count):
        y = rng.uniform(y_min, 0.6) * rng.choice((-1.0, 1.0))
        pts.append([rng.uniform(-0.5, 0.5), float(y), rng.uniform(-0.5, 0.5)])
    return pts


def check_jobs(seed: int, fixture_dir: Path) -> list[dict]:
    """Seeded Laplace jobs on truncated-polynomial algebras, plus one whose
    triad is deliberately non-characteristic (it must FAIL)."""
    rng = rng_for(seed, 2)
    jobs = []
    for i, n in enumerate(CHECK_DIMS):
        alg = truncated_poly_algebra(n)
        fk, gk = kinds_for(alg, i, KINDS[:4])
        jobs.append({"name": f"tp{n}", "algebra": alg, "triad": laplace_triad(rng, alg),
                     "F": [holo(rng, k) for k in fk], "G": [holo(rng, k) for k in gk],
                     "pde": LAPLACE, "points": random_points(rng, CHECK_POINTS)})
    alg = truncated_poly_algebra(6)
    triad = laplace_triad(rng, alg)
    triad["b"][1][0] += 0.5
    fk, gk = kinds_for(alg, 0, KINDS[:4])
    jobs.append({"name": "tp6-noncharacteristic", "algebra": alg, "triad": triad,
                 "F": [holo(rng, k) for k in fk], "G": [holo(rng, k) for k in gk],
                 "pde": LAPLACE, "points": random_points(rng, CHECK_POINTS)})
    return jobs


def derivative_jobs(seed: int, fixture_dir: Path) -> list[dict]:
    """Seeded jobs on every bundled algebra and one truncated-polynomial
    algebra, then the two fixed known-fault jobs (flag "known_fault").

    Seeded points keep |y| >= 0.3, so the two spectrum points of ss2 and p2
    stay at least 0.18 apart and every contour converges.
    """
    rng = rng_for(seed, 3)
    jobs = []
    algebras = [(name, load_fixture(fixture_dir, name)) for name in FIXTURES]
    algebras.append((f"tp{DERIV_TP_DIM}", truncated_poly_algebra(DERIV_TP_DIM)))
    for i, (name, alg) in enumerate(algebras):
        fk, gk = kinds_for(alg, i)
        jobs.append({"name": name, "algebra": alg, "triad": fixture_triad(rng, alg),
                     "F": [holo(rng, k) for k in fk], "G": [holo(rng, k) for k in gk],
                     "points": random_points(rng, DERIV_POINTS, y_min=0.3)})

    # Near-coincident spectrum: xi_2 - xi_1 = 1e-6 i, and the per-cluster
    # contour radius 0.5 * 1e-6 does not converge for r = 2 and r = 3.
    ss2 = load_fixture(fixture_dir, "alg_ss2")
    jobs.append({"name": "ss2-near-coincident", "known_fault": True, "algebra": ss2,
                 "triad": {"a": [[0.0, 2.0], [0.0, 1.0]], "b": [[math.sqrt(3.0), 0.0], [0.0, 0.0]]},
                 "F": [{"kind": "exp"}, {"kind": "exp"}], "G": [],
                 "points": [[0.3, 1e-6, 0.0]]})
    # Series of radius 1 centred on the single spectrum point: the fixed
    # contour radius 1.0 leaves the series' safe disc.
    d2 = load_fixture(fixture_dir, "alg_d2")
    point = (0.2, 0.3, -0.1)
    xi = point[0] + point[1] * 1j + point[2] * complex(0.3, 0.2)
    jobs.append({"name": "d2-series-radius-1", "known_fault": True, "algebra": d2,
                 "triad": {"a": [[0.0, 1.0], [1.0, 0.0]], "b": [[0.3, 0.2], [0.5, 0.0]]},
                 "F": [{"kind": "series", "center": pair(xi), "radius": 1.0,
                        "coeffs": [1.0, 0.5, 0.25, 0.125]}],
                 "G": [{"kind": "exp"}], "points": [list(point)]})
    return jobs
