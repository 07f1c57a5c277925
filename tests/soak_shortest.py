"""Soak check of shortest.fields against repr, byte for byte.

    PYTHONPATH=src python tests/soak_shortest.py

Compares the fields of COUNT seeded random bit patterns (the finite ones)
and of the 1- to 3-ulp neighbours, both ways, of every power of ten and of
two with the text repr gives each value.  Prints the count checked and
exits 0, or prints the first values that differ and exits 1.
A plain script: its name keeps pytest from collecting it.
"""

import sys

import numpy as np

from monogenica import shortest

COUNT = 10**7
SEED = 20201
CHUNK = 1 << 17


def differences(values: np.ndarray) -> list[tuple[str, str]]:
    """(repr, field) of every value whose field is not repr's text."""
    got = shortest.fields(values).view(f"S{shortest.WIDTH}").ravel()
    want = np.array(list(map(float.__repr__, values.tolist())), dtype=f"S{shortest.WIDTH}")
    return [(w.decode(), g.decode()) for w, g in zip(want[got != want], got[got != want])]


def neighbours() -> np.ndarray:
    """Every power of ten and of two, of both signs, and their 1..3-ulp neighbours."""
    tens = [float(f"1e{k}") for k in range(-323, 309)]
    powers = np.concatenate([tens, np.ldexp(1.0, np.arange(-1074, 1024))])
    powers = np.concatenate([powers, -powers])
    out, down, up = [powers], powers, powers
    for _ in range(3):
        down, up = np.nextafter(down, 0.0), np.nextafter(up, np.copysign(np.inf, up))
        out += [down, up]
    values = np.concatenate(out)
    return values[np.isfinite(values)]


def main() -> int:
    rng = np.random.default_rng(SEED)
    values = neighbours()
    wrong, checked = differences(values), len(values)
    for start in range(0, COUNT, CHUNK):
        values = rng.integers(0, 2**64, min(CHUNK, COUNT - start), dtype=np.uint64).view(np.float64)
        values = values[np.isfinite(values)]
        wrong += differences(values)
        checked += len(values)
        if wrong:
            break
    if wrong:
        print(f"{len(wrong)} differ, first (repr, field): {wrong[:10]}")
        return 1
    print(f"{checked} values: every field is repr's text")
    return 0


if __name__ == "__main__":
    sys.exit(main())
