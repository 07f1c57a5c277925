"""File-driven command line front end.

A single JSON job file describes the algebra, triad, holomorphic data and
optional PDE; subcommands run validations (validate), point evaluations
(eval), CSV grid emission (grid) and residual checks (check).

Exit codes: 0 success; 1 failed checks (in check, contour quadrature that
did not converge fails the operator identity), or contour quadrature that
did not converge in eval; 2 parse/spec errors, holomorphic data and job
points included; 3 spectrum separation errors and evaluation outside a
holomorphic function's domain; 4 output I/O errors.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from pathlib import Path

import numpy as np

from . import monogenic, pde as pde_mod, resolvent
from .algebra import AlgebraError, validate_algebra
from .fixtures import fixture_path
from .holo import CoincidentSpectrum, HoloDomainError, UnstableQuadrature
from .monogenic import MonogenicSpec, validate_triad
from .resolvent import OnSpectrum

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_PARSE = 2
EXIT_SPECTRUM = 3
EXIT_IO = 4

# (y, z) probes for the data-dependent Lemma-2 audit; two independent
# directions plus a generic combination.
AUDIT_PROBES = ((1.0, 0.0), (0.0, 1.0), (1.0, 0.6180339887498949))


class JobError(Exception):
    pass


def load_job(path: str) -> dict:
    job_path = Path(path)
    try:
        with open(job_path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise JobError(f"cannot read job file {path}: {exc}") from exc
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
    """The job's points, each exactly three finite numbers; JobError otherwise."""
    pts = job.get("points", [[0.3, 0.4, -0.2], [-0.5, 0.1, 0.7]])
    try:
        out = [tuple(float(v) for v in p) for p in pts]
    except (TypeError, ValueError) as exc:
        raise JobError(f"bad points: {exc}") from exc
    if not out:
        raise JobError("bad points: the list is empty")
    for p in out:
        if len(p) != 3 or not np.all(np.isfinite(p)):
            raise JobError(f"bad point {list(p)}: need exactly 3 finite numbers")
    return out


def _fmt_c(c: complex) -> str:
    return f"{c.real:.15g} {c.imag:+.15g}i"


def _status(ok: bool, label: str, detail: str = "") -> bool:
    tail = f"  ({detail})" if detail else ""
    print(f"{'PASS' if ok else 'FAIL'} {label}{tail}")
    return ok


# -- subcommands ---------------------------------------------------------------


def cmd_validate(args) -> int:
    job = load_job(args.job)
    ms = build_spec(job)
    ok = True

    report = validate_algebra(ms.algebra)
    ok &= _status(report.ok, "algebra axioms",
                  "; ".join(str(v) for v in report.violations))
    treport = validate_triad(ms.algebra, ms.triad)
    ok &= _status(treport.ok, "triad",
                  "; ".join(str(v) for v in treport.violations))

    bad: list = []
    for y, z in AUDIT_PROBES:
        T = resolvent.t_coeffs(ms.algebra, ms.triad, y, z)
        B = resolvent.b_coeffs(ms.algebra, T)
        bad.extend(resolvent.lemma2_audit(ms.algebra, T, B))
    ok &= _status(not bad, "coefficient-index coherence", str(sorted(set(bad))) if bad else "")

    print(f"special-case: {ms.algebra.classify_special_case().value}")
    return EXIT_OK if ok else EXIT_FAIL


def cmd_eval(args) -> int:
    job = load_job(args.job)
    ms = build_spec(job)
    point = tuple(args.point)

    def run(method: str):
        if args.order > 0:
            return monogenic.gateaux_derivative(ms, point, args.order, nodes=args.nodes)
        if method == "explicit":
            return monogenic.eval_explicit(ms, point)
        if method == "integral":
            return monogenic.eval_integral(ms, point, nodes=args.nodes)
        return monogenic.eval_special(ms, point)

    compare = args.compare and args.order == 0
    with warnings.catch_warnings():
        # A quadrature that did not converge gives no value to print.
        warnings.simplefilter("error", UnstableQuadrature)
        try:
            value = run(args.method)
            if compare:
                explicit = monogenic.eval_explicit(ms, point)
                integral = monogenic.eval_integral(ms, point, nodes=args.nodes)
        except UnstableQuadrature as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_FAIL
    for k, c in enumerate(monogenic.extract_components(value), start=1):
        print(f"U_{k} = {_fmt_c(c)}")
    if compare:
        dev = float(np.max(np.abs(explicit - integral)))
        print(f"max cross-method deviation = {dev:.3e}")
    return EXIT_OK


def cmd_grid(args) -> int:
    job = load_job(args.job)
    ms = build_spec(job)
    try:
        ranges = job["grid"]
        axes = []
        for name in ("x", "y", "z"):
            lo, hi, count = ranges[name]
            count = int(count)
            if count < 2 or not hi > lo:
                raise JobError(f"grid axis {name} needs positive extent and count >= 2")
            axes.append(np.linspace(float(lo), float(hi), count))
    except (KeyError, TypeError, ValueError) as exc:
        raise JobError(f"bad grid spec: {exc}") from exc

    out = args.out or job.get("out")
    if not out:
        raise JobError("no output path: set 'out' in the job or pass --out")
    out_path = Path(out)
    if not out_path.is_absolute():
        out_path = Path.cwd() / out_path

    n = ms.algebra.n
    header = "x,y,z," + ",".join(f"Re_U{k},Im_U{k}" for k in range(1, n + 1))
    # x-major rows: x, y, z, then Re and Im of every component.
    points = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
    values = monogenic.eval_explicit(ms, points)
    table = np.empty((len(points), 3 + 2 * n))
    table[:, :3] = points
    table[:, 3::2] = values.real
    table[:, 4::2] = values.imag
    lines = [header] + [",".join(map(repr, row)) for row in table.tolist()]
    try:
        out_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot write {out_path}: {exc}", file=sys.stderr)
        return EXIT_IO
    print(f"wrote {len(lines) - 1} rows to {out_path}")
    return EXIT_OK


def cmd_check(args) -> int:
    job = load_job(args.job)
    ms = build_spec(job)
    pde = build_pde(job)
    points = job_points(job)
    tol = job.get("tolerances", {})
    tol_cr = args.tol_cr if args.tol_cr is not None else float(tol.get("cr", 1e-6))
    tol_pde = args.tol_pde if args.tol_pde is not None else float(tol.get("pde", 1e-4))
    ok = True

    ok &= _status(ms.algebra.report.ok, "algebra axioms")
    treport = validate_triad(ms.algebra, ms.triad)
    ok &= _status(treport.ok, "triad")

    # 1 + max |Phi(p)| scales every tolerance at p.
    values = monogenic.eval_explicit(ms, np.reshape(points, (-1, 3)))
    scales = [1.0 + float(s) for s in np.max(np.abs(values), axis=-1)]
    for p, scale in zip(points, scales):
        ry, rz = monogenic.cr_residual(ms, p, h=args.h if args.h else 1e-5)
        res = max(float(np.max(np.abs(ry))), float(np.max(np.abs(rz))))
        ok &= _status(res <= tol_cr * scale, f"Cauchy-Riemann at {p}", f"residual {res:.3e}")

    if pde is not None:
        char = pde_mod.characteristic_residual(ms.algebra, ms.triad, pde)
        cres = float(np.max(np.abs(char)))
        ok &= _status(cres <= 1e-10, "characteristic residual", f"{cres:.3e}")

        scan = pde_mod.p_nonvanishing_scan(pde)
        if isinstance(scan, pde_mod.ZeroAt):
            print(f"P(a,b) scan: ZeroAt({scan.a:g}, {scan.b:g})")
        else:
            print("P(a,b) scan: NoZeroFound")

        h = args.h if args.h else 1e-3
        if cres <= 1e-10:
            for p, scale in zip(points, scales):
                r = pde_mod.pde_residual(ms, pde, p, h=h)
                rmax = float(np.max(np.abs(r)))
                ok &= _status(rmax <= tol_pde * scale, f"PDE residual at {p}", f"{rmax:.3e}")
            try:
                with warnings.catch_warnings():
                    # A Gateaux derivative from unconverged quadrature proves nothing.
                    warnings.simplefilter("error", UnstableQuadrature)
                    d = pde_mod.operator_identity_check(ms, pde, points[0], h=h, nodes=args.nodes)
                dmax = float(np.max(np.abs(d)))
                ok &= _status(dmax <= 1e-3 * scales[0], "operator identity", f"{dmax:.3e}")
            except UnstableQuadrature:
                ok &= _status(False, "operator identity", "quadrature did not converge")
    return EXIT_OK if ok else EXIT_FAIL


# -- entry point -----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="monogenica",
        description="Monogenic-function engine for commutative algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("job", help="JSON job file")
    common.add_argument("--nodes", type=int, default=256, help="quadrature node count")
    common.add_argument("--h", type=float, default=None, help="finite-difference step")

    p_val = sub.add_parser("validate", parents=[common], help="run structural validations")
    p_val.set_defaults(func=cmd_validate)

    p_eval = sub.add_parser("eval", parents=[common], help="evaluate at one point")
    p_eval.add_argument("--point", type=float, nargs=3, required=True, metavar=("X", "Y", "Z"))
    p_eval.add_argument("--method", choices=("explicit", "integral", "special"), default="explicit")
    p_eval.add_argument("--order", type=int, default=0, help="Gateaux derivative order (0 = value)")
    p_eval.add_argument("--compare", action="store_true", help="print max cross-method deviation")
    p_eval.set_defaults(func=cmd_eval)

    p_grid = sub.add_parser("grid", parents=[common], help="emit component CSV over a grid")
    p_grid.add_argument("--out", default=None, help="output CSV path (overrides job)")
    p_grid.set_defaults(func=cmd_grid)

    p_check = sub.add_parser("check", parents=[common], help="run residual checks")
    p_check.add_argument("--tol-cr", type=float, default=None)
    p_check.add_argument("--tol-pde", type=float, default=None)
    p_check.set_defaults(func=cmd_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (JobError, AlgebraError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (OnSpectrum, CoincidentSpectrum, HoloDomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SPECTRUM


if __name__ == "__main__":
    sys.exit(main())
