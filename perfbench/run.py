"""Benchmark of monogenica on three workloads: grid, check and derivative.

    python3 perfbench/run.py [--workload grid|check|derivative|all]
                             [--seed N] [--seconds S] [--trace 0|1]

Each workload builds seeded job files, then runs whole rounds of the same
operations in this one process until S seconds have passed, timing every
operation and checking every output against `reference.py`.  The last line
of output is one JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics with --trace 0, the per-layer metrics
with --trace 1.  See README.md for the metrics and the workloads.
"""

import os

# One thread everywhere: set before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("MONOGENICA_FIXTURES", None)

import argparse
import contextlib
import io
import json
import resource
import statistics
import subprocess
import sys
import warnings
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

import reference
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
FIXTURE_DIR = SRC / "monogenica" / "fixtures"
OUT = HERE / "out"
WORKLOADS = ("grid", "check", "derivative")
SETUP_REPEATS = 9
PROBE_EVERY = 0.1  # seconds of operations between two speed probes
# Typical probe time on the machine the bounds were set on (2 shared vCPUs,
# Python 3.11, numpy 2.4); one probe time counts as this many seconds.
PROBE_NOMINAL_S = 0.005
# Agreement asked of the program with the reference, relative to 1 + max |ref|.
TOL = 1e-8


@dataclass
class Op:
    """One timed operation: run() returns its output, check(output) judges it."""

    name: str
    units: int
    run: Callable
    check: Callable
    known_fault: bool = False


def write_job(work: Path, job: dict) -> Path:
    path = work / f"{job['name']}.json"
    path.write_text(json.dumps(job), encoding="utf-8")
    return path


def run_cli(argv: list[str]) -> tuple[int, str]:
    from monogenica import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def close(value, expected: np.ndarray) -> bool:
    value = np.asarray(value)
    return value.shape == expected.shape and bool(
        np.max(np.abs(value - expected)) <= TOL * (1.0 + np.max(np.abs(expected)))
    )


# -- grid --------------------------------------------------------------------


def grid_rows(job: dict) -> np.ndarray:
    """Expected CSV rows: x, y, z, then Re and Im of every component."""
    axes = [np.linspace(lo, hi, int(count)) for lo, hi, count in
            (job["grid"][axis] for axis in "xyz")]
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
    values = reference.phi(job["algebra"], job["triad"], job["F"], job["G"], pts)
    parts = np.stack([values.real, values.imag], axis=-1).reshape(len(pts), -1)
    return np.hstack([pts, parts])


class GridCheck:
    """Checks one grid command's CSV; bytes equal to a verified CSV pass at once."""

    def __init__(self, out: Path, rows: np.ndarray, n: int):
        self.out, self.rows, self.verified = out, rows, None
        self.header = "x,y,z," + ",".join(f"Re_U{k},Im_U{k}" for k in range(1, n + 1))

    def __call__(self, result) -> bool:
        code, text = result
        if code != 0 or not text.startswith(f"wrote {len(self.rows)} rows"):
            return False
        data = self.out.read_bytes()
        if data == self.verified:
            return True
        lines = data.decode("utf-8").splitlines()
        if not lines or lines[0] != self.header:
            return False
        got = np.array([[float(c) for c in line.split(",")] for line in lines[1:]])
        if got.shape != self.rows.shape or not np.array_equal(got[:, :3], self.rows[:, :3]):
            return False
        err = np.abs(got[:, 3:] - self.rows[:, 3:]).max(axis=1)
        if np.any(err > TOL * (1.0 + np.abs(self.rows[:, 3:]).max(axis=1))):
            return False
        self.verified = data
        return True


def grid_ops(seed: int, work: Path) -> tuple[list[Op], list[Path]]:
    ops, paths = [], []
    for job in workloads.grid_jobs(seed, FIXTURE_DIR):
        path = write_job(work, job)
        out = work / f"{job['name']}.csv"
        rows = grid_rows(job)
        ops.append(Op(job["name"], len(rows), partial(run_cli, ["grid", str(path), "--out", str(out)]),
                      GridCheck(out, rows, job["algebra"]["n"])))
        paths.append(path)
    return ops, paths


# -- check -------------------------------------------------------------------


def expected_statuses(job: dict, alg: dict) -> dict[str, list[bool]]:
    """PASS/FAIL verdicts a correct `check` prints, keyed by label.

    The characteristic residual and surjectivity are computed here; every
    other check must pass on a characteristic triad and is skipped (PDE
    lines) on a non-characteristic one.
    """
    npts = len(job["points"])
    char_ok = reference.characteristic_residual(alg, job["triad"], job["pde"]["terms"]) <= 1e-10
    out = {"algebra axioms": [True], "triad": [reference.surjective(alg, job["triad"])],
           "Cauchy-Riemann": [True] * npts, "characteristic residual": [char_ok]}
    if char_ok:
        out.update({"PDE residual": [True] * npts, "operator identity": [True]})
    return out


def parse_statuses(text: str) -> dict[str, list[bool]]:
    out: dict[str, list[bool]] = {}
    for line in text.splitlines():
        status, _, label = line.partition(" ")
        if status in ("PASS", "FAIL"):
            key = label.split("  (")[0].split(" at ")[0]
            out.setdefault(key, []).append(status == "PASS")
    return out


def check_verdict(expected: dict, result) -> bool:
    code, text = result
    want_code = 0 if all(all(v) for v in expected.values()) else 1
    return (code == want_code and parse_statuses(text) == expected
            and "P(a,b) scan: NoZeroFound" in text.splitlines())


def check_ops(seed: int, work: Path) -> tuple[list[Op], list[Path]]:
    ops, paths = [], []
    cases = []
    for name in ("job_laplace_ss2", "job_broken_triad"):
        path = FIXTURE_DIR / f"{name}.json"
        job = json.loads(path.read_text(encoding="utf-8"))
        alg = workloads.load_fixture(FIXTURE_DIR, Path(job["algebra"]).stem)
        cases.append((name, path, job, alg))
    for job in workloads.check_jobs(seed, FIXTURE_DIR):
        cases.append((job["name"], write_job(work, job), job, job["algebra"]))
    for name, path, job, alg in cases:
        ops.append(Op(name, len(job["points"]), partial(run_cli, ["check", str(path)]),
                      partial(check_verdict, expected_statuses(job, alg))))
        paths.append(path)
    return ops, paths


# -- derivative ----------------------------------------------------------------


def derivative_value(ms, point: tuple, order: int):
    from monogenica import monogenic

    if order == 0:
        return monogenic.eval_integral(ms, point)
    return monogenic.gateaux_derivative(ms, point, order)


def derivative_ops(seed: int, work: Path) -> tuple[list[Op], list[Path]]:
    from monogenica import cli

    ops, paths = [], []
    for job in workloads.derivative_jobs(seed, FIXTURE_DIR):
        path = write_job(work, job)
        ms = cli.build_spec(cli.load_job(str(path)))
        points = np.array(job["points"], dtype=float)
        for order in workloads.DERIV_ORDERS:
            expected = reference.phi(job["algebra"], job["triad"], job["F"], job["G"], points, order)
            for point, value in zip(points, expected):
                ops.append(Op(f"{job['name']} r={order} at {tuple(point)}", 1,
                              partial(derivative_value, ms, tuple(float(v) for v in point), order),
                              partial(close, expected=value), job.get("known_fault", False)))
        paths.append(path)
    return ops, paths


OPS = {"grid": grid_ops, "check": check_ops, "derivative": derivative_ops}


# -- measurement ---------------------------------------------------------------


class Tally:
    """Counts of attempted and failed operations, and failures outside the known faults."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.unexpected: dict[str, str] = {}

    def record(self, op: Op, error: str | None) -> None:
        self.attempted += 1
        if error is not None:
            self.failed += 1
            if not op.known_fault:
                self.unexpected.setdefault(op.name, error)


class SpeedProbe:
    """A fixed computation of the benchmark's own, run between operations.

    On shared cores the speed of this process swings by up to 2x within
    seconds and drifts over minutes, in CPU time as much as in wall time.
    The probe's time, taken around each operation, tracks that speed, and
    dividing by it removes most of the swing.  The probe calls no
    monogenica code, so no change to the program moves it.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        alg = workloads.truncated_poly_algebra(8)
        kinds = ["exp", "poly", "sin", "cos", "series", "exp", "poly", "sin"]
        self.args = (alg, workloads.fixture_triad(rng, alg), [workloads.holo(rng, kinds[0])],
                     [workloads.holo(rng, k) for k in kinds[1:]], rng.uniform(-0.5, 0.5, (4, 3)), 1)

    def __call__(self) -> float:
        start = perf_counter()
        for _ in range(3):
            reference.phi(*self.args)
        return perf_counter() - start


def run_round(ops: list[Op], tally: Tally, probe: SpeedProbe, tracer=None) -> tuple[float, float]:
    """Run every operation once.

    Returns the seconds spent inside the operations, and the same time in
    probe units: each operation's seconds divided by the mean of the probe
    times taken just before and just after it.  A probe follows every
    PROBE_EVERY seconds of operations and ends the round.
    """
    busy = in_probes = since_probe = 0.0
    last_probe = probe()
    for i, op in enumerate(ops):
        run = tracer.wrap("bench.op", op.run) if tracer else op.run
        start = perf_counter()
        try:
            result, error = run(), None
        except Exception as exc:  # an escaping error is a failed operation
            result, error = None, f"raised {exc!r}"
        elapsed = perf_counter() - start
        busy += elapsed
        since_probe += elapsed
        if error is None:
            try:
                error = None if op.check(result) else "wrong output"
            except (ValueError, TypeError, OSError) as exc:
                error = f"unreadable output: {exc!r}"
        tally.record(op, error)
        if since_probe >= PROBE_EVERY or i == len(ops) - 1:
            next_probe = probe()
            in_probes += since_probe / (0.5 * (last_probe + next_probe))
            last_probe, since_probe = next_probe, 0.0
    return busy, in_probes


def setup_seconds(paths: list[Path], probe: SpeedProbe) -> float:
    """Median set-up time over fresh interpreters, in reference seconds.

    Each child's time is scaled by PROBE_NOMINAL_S over the mean of the
    probe times taken just before and just after it.
    """
    times = []
    before = probe()
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC)] + [str(p) for p in paths],
            capture_output=True, text=True, timeout=120, check=True)
        after = probe()
        times.append(float(done.stdout.split()[-1]) * PROBE_NOMINAL_S / (0.5 * (before + after)))
        before = after
    return statistics.median(times)


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    warnings.filterwarnings("ignore", message=".*" + spans.UNCONVERGED)
    work = OUT / name
    work.mkdir(parents=True, exist_ok=True)
    ops, paths = OPS[name](seed, work)
    units = sum(op.units for op in ops)
    probe = SpeedProbe()
    setup_s = None if traced else setup_seconds(paths, probe)

    tally = Tally()
    tracer = spans.Tracer() if traced else None
    plain, with_spans, layers, first_spans = [], [], [], None
    run_round(ops, tally, probe)  # warm-up, counted but not timed
    end = perf_counter() + seconds
    # Traced runs alternate plain and traced rounds, so the two rates come
    # from the same stretch of time and their ratio is the tracing overhead.
    while not plain or (traced and not with_spans) or perf_counter() < end:
        if traced and len(plain) > len(with_spans):
            tracer.install()
            try:
                with_spans.append(run_round(ops, tally, probe, tracer))
            finally:
                tracer.remove()
            round_spans = tracer.take()
            layers.append(spans.layer_metrics(round_spans))
            first_spans = first_spans or round_spans
        else:
            plain.append(run_round(ops, tally, probe))

    def per_second(rounds):
        """Median rate in reference seconds (see SpeedProbe)."""
        return statistics.median(units / (in_probes * PROBE_NOMINAL_S) for _, in_probes in rounds)

    def wall_per_second(rounds):
        return statistics.median(units / busy for busy, _ in rounds)

    if traced:
        # Layer times are scaled to reference seconds like the rates.
        scales = [in_probes * PROBE_NOMINAL_S / busy for busy, in_probes in with_spans]
        metrics = {
            m: (statistics.median(r[m] * (k if unit == "s/round" else 1.0) for r, k in zip(layers, scales)), unit)
            for m, unit in spans.LAYER_METRICS}
        metrics["trace.points_per_s"] = (per_second(with_spans), "1/s")
        metrics["trace.wall_points_per_s"] = (wall_per_second(plain), "1/s")
        metrics["trace.overhead_pct"] = (100.0 * (1.0 - per_second(with_spans) / per_second(plain)), "%")
        (OUT / f"trace-{name}-{seed}.json").write_text(json.dumps(
            {"workload": name, "seed": seed, "fields": ["name", "start", "end", "parent", "amount", "flag"],
             "spans": first_spans}), encoding="utf-8")
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {"points_per_s": (per_second(plain), "1/s"),
                   "setup_s": (setup_s, "s"), "peak_rss_mb": (rss_mb, "MB")}

    print(f"{name}: seed {seed}, {len(plain) + len(with_spans)} rounds of {len(ops)} operations "
          f"({units} units), attempted {tally.attempted}, failed {tally.failed}, "
          f"{wall_per_second(plain):.6g} units per wall second")
    for metric, (value, unit) in metrics.items():
        print(f"  {name}/{metric} = {value:.6g} {unit}")
    for op_name, error in sorted(tally.unexpected.items()):
        print(f"incorrect: {op_name}: {error}", file=sys.stderr)
    return {"correct": not tally.unexpected, "attempted": tally.attempted, "failed": tally.failed,
            "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()}}


def run_all(args) -> int:
    """Every workload in its own process; the last line merges their results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(done.stderr)
        if done.returncode != 0 or not lines:
            return done.returncode or 1
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}/{m}": v for m, v in result["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "monogenica" / "__init__.py").is_file():
        print(f"error: no monogenica sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    print(json.dumps(run_workload(args.workload, args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
