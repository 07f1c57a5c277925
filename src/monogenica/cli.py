"""File-driven command line front end.

A single JSON job file describes the algebra, triad, holomorphic data and
optional PDE; subcommands run validations (validate), point evaluations
(eval), CSV grid emission (grid) and residual checks (check).

grid runs one pass per block of at most BLOCK_ROWS rows (fewer where the
explicit plan has many products): it gathers the block's points from the
three axes, evaluates them in one eval_explicit call, checks that the
values are finite and writes the block's rows, every number as the bytes
repr gives it, for a new or regular out to a temporary file that replaces
out when the CSV is complete.  shortest.csv_rows lays a block's fields
and separators into one buffer and removes its NUL padding in one pass;
it formats the values with Dragonbox's main path and repr for the few that
path leaves undecided.  No array of the whole grid is made, so its size is
bounded by its CSV, not by memory.  Each axis value is formatted once,
before the block loop, and every block gathers its x, y and z text from
those per-axis tables, so every block runs the same body.  The argument parser is built once per
process, when this module is imported, so in-process callers of main()
(tests, scripts, benchmarks) do not rebuild it.

Before its first block grid raises glibc's trim threshold (mallopt
M_TRIM_THRESHOLD) to 64 MiB and its mmap threshold to 32 MiB, once per
process (keep_freed_heap), so the memory a block frees stays mapped and
later blocks, and later grid commands of the same process, reuse its
pages instead of faulting them in again.  This policy holds for the rest
of the process; it adds no option, changes no output byte, and does
nothing where libc has no mallopt.

check evaluates a job's points, the samples of their exact partials
(monogenic.circle_stencil: Cauchy-Riemann's and, on a characteristic
triad, the PDE's) and Phi^(N) of the operator identity in one
eval_explicit call, with one derivative order per point: one call and one
derivative table per job, made before check prints its first status line.

eval --order r gives the r-th Gateaux derivative by the route --method
names, on any algebra: explicit (the default) shifts every derivative
stack by r, integral integrates W R^(r+1) r! over one circle around the
spectrum, special sums the Taylor series in the algebra's radical.  The
integral route has one contour rule (holo.contour_integrate) and no
option of its own.  --compare prints the largest deviation from the
explicit value of the integral value and of the printed one (special's
with --method special), at any order, and a FAIL line with exit 1 when it
exceeds QUAD_TOL (1 + max |Phi|), Phi the explicit value.

Every value the command line prints, in eval's U_k lines, check's
ZeroAt line and grid's CSV, is the text repr gives its float, so that
float(text) gives back the computed bits; only error magnitudes (check's
residuals and eval's --compare deviation) print as %.3e.

A malformed job is rejected where its input is read, each of its numbers
by one of holo's readers (parse_real, parse_int, parse_complex).  main holds
the one failure policy: it runs the command under one np.errstate, since a
value that overflows is rejected (require_finite), and maps each exception
the library raises to its exit code and one error: line.

The exit codes, and the case each input falls in, are stated in one
place: README's exit-code table.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import functools
import json
import math
import os
import re
import sys
from pathlib import Path

import numpy as np

from . import monogenic, pde as pde_mod
from .algebra import AlgebraError, validate_algebra  # noqa: F401  (see cmd_validate)
from .fixtures import fixture_path
from .holo import QUAD_TOL, HoloDomainError, UnstableQuadrature, parse_int, parse_real
from .monogenic import MonogenicSpec, validate_triad

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_PARSE = 2
EXIT_SPECTRUM = 3
EXIT_IO = 4

MAX_COUNT = sys.maxsize // 8  # the largest count of a grid axis: float64 values in one array
BLOCK_ROWS = 1024  # the most grid rows evaluated, formatted and written at a time
# check's thresholds: --tol-cr's and --tol-pde's defaults, then the
# characteristic residual's and the operator identity's.
TOL_CR, TOL_PDE, CHARACTERISTIC_TOL, IDENTITY_TOL = 1e-6, 1e-4, 1e-10, 1e-3
# glibc's mallopt(3) parameters and grid's values for them.  The free heap
# top kept mapped must exceed what one BLOCK_ROWS block frees (at its peak
# 3.4 MB on alg_r5, n = 5, and 30 MB on C[eps]/eps^16), so that the next
# block finds those pages mapped.  Setting it stops glibc from raising its
# mmap threshold as large arrays are freed, so that threshold is set too, to
# the 32 MiB cap of glibc's own adjustment: below it a block's arrays stay
# on the heap, not in a mapping made and unmade on every block.
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
TRIM_THRESHOLD, MMAP_THRESHOLD = 64 << 20, 32 << 20


@functools.cache
def keep_freed_heap() -> None:
    """Raise the C allocator's trim and mmap thresholds, once per process.

    glibc hands the freed top of its heap back to the kernel above 128 KiB
    by default, so each grid block would fault in again the pages its
    predecessor freed.  A libc without mallopt keeps its own policy.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, TypeError):  # no mallopt (macOS), no CDLL(None) (Windows)
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD)
    mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)


class JobError(Exception):
    pass


def load_job(path: str) -> dict:
    job_path = Path(path)
    try:
        with open(job_path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    # json raises RecursionError on arrays or objects nested too deep.
    except (OSError, json.JSONDecodeError, RecursionError) as exc:
        raise JobError(f"cannot read job file {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise JobError(f"job file {path} must hold a JSON object, not {type(data).__name__}")
    data["_dir"] = job_path.parent
    return data


def build_spec(job: dict) -> MonogenicSpec:
    data = dict(job)
    alg = data.get("algebra")
    if isinstance(alg, str):
        candidate = Path(alg)
        if not candidate.is_absolute():
            local = job["_dir"] / candidate
            candidate = local if local.exists() else fixture_path(alg)
        data["algebra"] = str(candidate)
    try:
        return monogenic.monogenic_from_dict(data)
    except (KeyError, ValueError, AlgebraError, HoloDomainError, TypeError, OSError) as exc:
        raise JobError(f"bad job spec: {exc}") from exc


def build_pde(job: dict):
    if "pde" not in job:
        return None
    try:
        return pde_mod.pde_from_dict(job["pde"])
    except (KeyError, ValueError, TypeError) as exc:
        raise JobError(f"bad pde spec: {exc}") from exc


def job_points(job: dict) -> list[tuple[float, float, float]]:
    """The job's points, each a list of exactly three finite JSON numbers; JobError otherwise."""
    pts = job.get("points")
    if not isinstance(pts, list) or not pts:
        raise JobError(f"bad points: need a non-empty list of points, got {pts!r}")
    out = []
    for p in pts:
        try:
            x, y, z = p if isinstance(p, list) else ()
            out.append((parse_real(x), parse_real(y), parse_real(z)))
        except ValueError:
            raise JobError(f"bad point {p!r}: need exactly 3 finite numbers") from None
    return out


def check_options(args) -> None:
    """JobError for a numeric option outside its domain."""
    for option in ("tol_cr", "tol_pde"):
        v = getattr(args, option, None)
        if v is not None and not (math.isfinite(v) and v > 0):
            raise JobError(f"--{option.replace('_', '-')} must be a positive finite number, got {v}")
    if getattr(args, "order", 0) < 0:
        raise JobError(f"--order must be >= 0, got {args.order}")
    if not all(math.isfinite(v) for v in getattr(args, "point", None) or ()):
        raise JobError(f"--point needs 3 finite numbers, got {args.point}")


def require_finite(values: np.ndarray, points, name=None) -> None:
    """HoloDomainError naming the first of the points whose value is not finite.

    values holds one row per point.  Data that overflow at a point give inf
    or NaN there, which is no value to print.  name, if given, maps the
    index of that point to the text naming the value.
    """
    finite = np.isfinite(values).reshape(len(points), -1).all(axis=1)
    if not finite.all():
        k = int(finite.argmin())
        what = name(k) if name else f"the value at {tuple(float(v) for v in points[k])}"
        raise HoloDomainError(f"{what} is not finite: the data overflow there")


def _status(ok: bool, label: str, detail: str = "") -> bool:
    tail = f"  ({detail})" if detail else ""
    print(f"{'PASS' if ok else 'FAIL'} {label}{tail}")
    return ok


# -- subcommands ---------------------------------------------------------------


def cmd_validate(args) -> int:
    job = load_job(args.job)
    ms = build_spec(job)
    # build_spec has validated the algebra once (algebra_from_dict) and
    # exits 2 on any violation, so this line always reads PASS.  It stays
    # only because perfbench/run.py's expected_statuses expects it from
    # check, which prints the same line.  The name validate_algebra stays
    # bound in this module so that perfbench/spans.py, which wraps it here
    # too, finds it.
    print("PASS algebra axioms")
    violations = validate_triad(ms.algebra, ms.triad)
    ok = _status(not violations, "triad", "; ".join(map(str, violations)))
    print(f"special-case: {ms.algebra.classify_special_case().value}")
    return EXIT_OK if ok else EXIT_FAIL


def cmd_eval(args) -> int:
    job = load_job(args.job)
    ms = build_spec(job)
    point = tuple(args.point)
    routes = {"explicit": monogenic.eval_explicit, "special": monogenic.eval_special,
              "integral": monogenic.eval_integral}

    def run(method: str):
        return routes[method](ms, point, order=args.order)

    value = run(args.method)
    if args.compare:
        # The chosen route is not run a second time.  The value printed is
        # judged too: special's, when it is the third.
        explicit, integral = (value if m == args.method else run(m) for m in ("explicit", "integral"))
        dev = float(np.max(np.abs(np.stack([integral, value]) - explicit)))
    require_finite(np.stack([explicit, integral, value]) if args.compare else value, [point])
    for k, c in enumerate(monogenic.extract_components(value), start=1):
        im = repr(c.imag)
        print(f"U_{k} = {c.real!r} {im if im.startswith('-') else '+' + im}i")
    if args.compare:
        print(f"max cross-method deviation = {dev:.3e}")
        tol = QUAD_TOL * (1.0 + float(np.max(np.abs(explicit))))
        if not dev <= tol:
            print(f"FAIL cross-method deviation  ({dev:.3e} > tolerance {tol:.3e})")
            return EXIT_FAIL
    return EXIT_OK


def cmd_grid(args) -> int:
    # Imported here, not with this module: no other command and no set-up
    # pays for it.
    from . import shortest

    keep_freed_heap()

    job = load_job(args.job)
    ms = build_spec(job)
    specs = []
    for name in ("x", "y", "z"):
        try:
            lo, hi, count = job["grid"][name]
            lo, hi, count = parse_real(lo), parse_real(hi), parse_int(count)
            # Above MAX_COUNT np.linspace fails, near 2**63 with an IndexError.
            if not 2 <= count <= MAX_COUNT or not hi > lo or not math.isfinite(hi - lo):
                raise ValueError(f"got [{lo!r}, {hi!r}, {count}]")
            specs.append((lo, hi, count))
        except (KeyError, TypeError, ValueError) as exc:
            raise JobError(f"bad grid spec: {exc} (axis {name} must be [lo, hi, count] with "
                           f"finite lo < hi, a finite extent and an integer count from 2 "
                           f"to {MAX_COUNT})") from exc
    counts = tuple(count for _, _, count in specs)
    total = math.prod(counts)
    n = ms.algebra.n
    # Each of a row's 3 + 2n fields takes at least 3 bytes and a separator.
    least = total * 4 * (3 + 2 * n)
    if least > sys.maxsize:
        raise JobError(f"bad grid spec: {' x '.join(map(str, counts))} = {total} points, "
                       f"whose CSV of at least {least} bytes would pass the largest file "
                       f"offset, {sys.maxsize}")

    # argv from the shell holds no NUL, but in-process main(argv) can.
    if "\0" in args.out:
        raise JobError(f"bad --out: need a path without NUL, got {args.out!r}")
    out_path = Path(args.out)
    if not out_path.is_absolute():
        out_path = Path.cwd() / out_path

    header = "x,y,z," + ",".join(f"Re_U{k},Im_U{k}" for k in range(1, n + 1)) + "\n"
    axes = [np.linspace(lo, hi, count) for lo, hi, count in specs]
    # Each axis value's text, formatted once: a (count, WIDTH) table of
    # NUL-padded fields per axis, from which every block gathers its rows'.
    coords = [np.fromiter(map(float.__repr__, a), dtype=f"S{shortest.WIDTH}", count=len(a))
              .view(np.uint8).reshape(-1, shortest.WIDTH) for a in axes]
    # A new or regular out gets the CSV in a new file beside it (beside its
    # target if out is a symlink) that replaces it only when complete: a
    # failed write, or a block whose values are not finite, leaves an
    # earlier out as it was.  A device or a pipe (/dev/null, /dev/stdout, a
    # link to either), and an out whose directory takes no new file, is
    # written directly, and keeps the blocks written before a failure.
    made = None
    try:
        if not os.path.exists(out_path) or os.path.isfile(out_path):
            target = os.path.realpath(out_path) if os.path.islink(out_path) else out_path
            # A random part, as a killed run leaves its file; "x" opens none that exists.
            tmp = f"{target}.{os.getpid()}.{os.urandom(4).hex()}.tmp"
            with contextlib.suppress(PermissionError):  # then out is opened as it is
                fh, made = open(tmp, "xb"), tmp
        if not made:
            fh = open(out_path, "wb")
        with fh:
            fh.write(header.encode("ascii"))
            # x-major rows: x, y, z, then Re and Im of every component.  A
            # block's points are gathered from the axes, so no array of the
            # whole grid is made.
            # A block's two largest arrays hold a complex per product of the
            # explicit plan and row; together below MMAP_THRESHOLD, what a
            # block frees stays below TRIM_THRESHOLD, on the kept heap.
            products = len(ms.algebra.explicit_plan.weights)
            rows = max(1, min(BLOCK_ROWS, MMAP_THRESHOLD // (32 * max(products, 1))))
            for start in range(0, total, rows):
                at = np.unravel_index(np.arange(start, min(start + rows, total)), counts)
                points = np.stack([a[i] for a, i in zip(axes, at)], axis=-1)
                values = monogenic.eval_explicit(ms, points)
                require_finite(values, points)
                block = np.ascontiguousarray(values, dtype=complex).view(np.float64)
                fh.write(shortest.csv_rows([c[i] for c, i in zip(coords, at)], block))
        if made:
            os.replace(made, target)
            made = None
    except OSError as exc:
        print(f"error: cannot write {out_path}: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_IO
    finally:
        if made:  # a failed write, or any other exception after the open
            with contextlib.suppress(OSError):
                os.remove(made)
    print(f"wrote {total} rows to {out_path}")
    return EXIT_OK


def check_samples(ms: MonogenicSpec, pts: np.ndarray, pde: pde_mod.PdeSpec | None = None):
    """Values, CR residuals and (with a pde) PDE residuals and Phi^(N) from one eval_explicit call.

    The batch is the points, then the circle_samples of every point
    (Cauchy-Riemann's stencil, or pde.exponents', which starts with it) at
    their orders, then, with a pde, pts[0] at order pde.N, the Phi^(N) of the
    operator identity.  A row of a batch equals the same point evaluated
    alone at its order, so each result equals its own separate call bit for
    bit.  A value that is not finite raises HoloDomainError (require_finite)
    naming its job point, and the circle's radius for a sample on one.
    Returns (values, (ry, rz), pde residual, Phi^(N) at pts[0]), the last
    two None without a pde.
    """
    exponents = monogenic.CR_TERMS if pde is None else pde.exponents
    rho = monogenic.circle_radius(ms, pts, exponents)
    samples, orders = monogenic.circle_samples(pts, rho, exponents)
    offsets = monogenic.circle_stencil(exponents)[0]
    blocks, order = [pts, samples], [np.zeros(len(pts), dtype=int), orders]
    if pde is not None:
        blocks.append(pts[:1])
        order.append([pde.N])
    order = np.concatenate(order)

    def name(k: int) -> str:
        # Row k is a job point's value, one of its samples, or Phi^(N) at the first.
        if k < len(pts):
            return f"the value at {tuple(pts[k].tolist())}"
        i, s = divmod(k - len(pts), len(offsets))
        i, s = (0, None) if i == len(pts) else (i, s)
        what = f"Phi^({order[k]})" if order[k] else "the value"
        where = "at" if s is None or not offsets[s].any() else f"on the circle of radius {float(rho[i])!r} about"
        return f"{what} {where} the job point {tuple(pts[i].tolist())}"

    batch = np.concatenate(blocks)
    values = monogenic.eval_explicit(ms, batch, order=order)
    require_finite(values, batch, name)
    at_samples = values[len(pts) : len(pts) + len(samples)]
    cr = monogenic.cr_residual(ms, pts, values=at_samples)
    if pde is None:
        return values[: len(pts)], cr, None, None
    return values[: len(pts)], cr, pde_mod.pde_residual(ms, pde, pts, values=at_samples), values[-1]


def cmd_check(args) -> int:
    job = load_job(args.job)
    if "tolerances" in job:
        raise JobError("a job's tolerances are not read: set them with --tol-cr and --tol-pde")
    ms = build_spec(job)
    pde = build_pde(job)
    points = job_points(job)
    triad_ok = not validate_triad(ms.algebra, ms.triad)

    # PDE residuals only on a characteristic triad, so the characteristic
    # residual comes first; it is computed once and handed to the identity.
    char = None if pde is None else pde_mod.characteristic_residual(ms.algebra, ms.triad, pde)
    cres = None if char is None else float(np.max(np.abs(char)))
    characteristic = cres is not None and cres <= CHARACTERISTIC_TOL

    # One batched call for the values and the samples of the CR and PDE
    # partials of all points and Phi^(N) at the first, before the first
    # status line: a value that is not finite, or a circle lost in rounding,
    # exits 3 with no PASS or FAIL line.  1 + max |Phi(p)| scales every
    # tolerance at p.
    pts = np.array(points)
    values, (ry, rz), r, phi_n = check_samples(ms, pts, pde if characteristic else None)
    print("PASS algebra axioms")  # always PASS (see cmd_validate)
    ok = _status(triad_ok, "triad")
    scales = 1.0 + np.max(np.abs(values), axis=-1)
    cr = np.maximum(np.max(np.abs(ry), axis=-1), np.max(np.abs(rz), axis=-1))
    for p, scale, res in zip(points, scales, cr):
        ok &= _status(res <= args.tol_cr * scale, f"Cauchy-Riemann at {p}", f"residual {res:.3e}")

    if pde is not None:
        ok &= _status(characteristic, "characteristic residual", f"{cres:.3e}")

        scan = pde_mod.p_nonvanishing_scan(pde)
        if isinstance(scan, pde_mod.ZeroAt):
            print(f"P(a,b) scan: ZeroAt({scan.a!r}, {scan.b!r})")
        else:
            print("P(a,b) scan: NoZeroFound")

        if characteristic:
            for p, scale, rmax in zip(points, scales, np.max(np.abs(r), axis=-1)):
                ok &= _status(rmax <= args.tol_pde * scale, f"PDE residual at {p}", f"{rmax:.3e}")
            d = pde_mod.operator_identity_check(ms, pde, points[0], discrete=r[0], char=char,
                                                derivative=phi_n)
            dmax = float(np.max(np.abs(d)))
            ok &= _status(dmax <= IDENTITY_TOL * scales[0], "operator identity", f"{dmax:.3e}")
    return EXIT_OK if ok else EXIT_FAIL


# -- entry point -----------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """A usage error is a JobError, so main returns exit 2 for it like any bad spec.

    Options are never abbreviated: --h would otherwise be taken as --help
    by a subcommand with no other option starting with it.  A negative
    number with an exponent, such as --point -1e16 0 0, is a value, not an
    option: argparse before Python 3.13 reads only -1 and -1.5 as numbers.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def error(self, message):
        raise JobError(f"{message} (see {self.prog} --help)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="monogenica",
        description="Monogenic-function engine for commutative algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("job", help="JSON job file")

    sub.add_parser("validate", parents=[common], help="run structural validations")

    eval_parser = sub.add_parser("eval", parents=[common], help="evaluate at one point")
    eval_parser.add_argument("--point", type=float, nargs=3, required=True, metavar=("X", "Y", "Z"))
    eval_parser.add_argument("--method", choices=("explicit", "integral", "special"), default="explicit")
    eval_parser.add_argument("--order", type=int, default=0, help="Gateaux derivative order (0 = value)")
    eval_parser.add_argument("--compare", action="store_true", help="print max cross-method deviation")

    grid_parser = sub.add_parser("grid", parents=[common], help="emit component CSV over a grid")
    grid_parser.add_argument("--out", required=True, help="output CSV path")

    check_parser = sub.add_parser("check", parents=[common], help="run residual checks")
    check_parser.add_argument("--tol-cr", type=float, default=TOL_CR,
                              help="Cauchy-Riemann residual tolerance, relative to 1 + max |Phi|")
    check_parser.add_argument("--tol-pde", type=float, default=TOL_PDE,
                              help="PDE residual tolerance, relative to 1 + max |Phi|")
    return parser


# Built once per process; parse_args leaves it unchanged.
PARSER = build_parser()


def main(argv=None) -> int:
    try:
        args = PARSER.parse_args(argv)
        check_options(args)
        # Looked up by name at call time, so that wrappers installed on
        # cli.cmd_* (perfbench/spans.py) see every command.  Overflow gives
        # inf or NaN, which require_finite rejects: no numpy warning.
        with np.errstate(over="ignore", invalid="ignore"):
            code = globals()[f"cmd_{args.command}"](args)
        # Output still buffered meets a closed stdout here, not at exit.
        sys.stdout.flush()
        return code
    except (JobError, AlgebraError, HoloDomainError, UnstableQuadrature) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return (EXIT_FAIL if isinstance(exc, UnstableQuadrature)
                else EXIT_SPECTRUM if isinstance(exc, HoloDomainError) else EXIT_PARSE)
    except MemoryError as exc:
        # numpy's message names the array it could not allocate.
        print(f"error: the job does not fit in memory ({str(exc) or 'MemoryError'})", file=sys.stderr)
        return EXIT_PARSE
    except BrokenPipeError as exc:
        # Python's recipe for a closed pipe: stdout goes to devnull, so the
        # interpreter's flush at shutdown has nothing more to report.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: cannot write to stdout: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
