import cmath
import dataclasses
import errno
import json
import math
import os
import platform
import re
import stat
import subprocess
import sys
import threading
import warnings
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from monogenica import AlgebraError, HoloDomainError, HoloFn, monogenic, pde as pde_mod, resolvent
from monogenica.algebra import AlgebraSpec
from monogenica.cli import build_spec, load_job, main
from monogenica.fixtures import fixture_path

from oracles import EXTREMES, basis


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def values(text):
    """The U_k values printed by eval."""
    return [complex(float(a), float(b)) for a, b in re.findall(r"U_\d+ = (\S+) (\S+)i", text)]


JOB_OK = str(fixture_path("job_laplace_ss2.json"))
JOB_BAD = str(fixture_path("job_broken_triad.json"))
JOB_T4 = str(fixture_path("job_square_t4.json"))
COS_SCALE = 60.0


def grid_job(name):
    """A 2 x 3 x 4 grid job on the bundled algebra alg_<name>."""
    if name == "t4":
        job = json.loads(fixture_path("job_square_t4.json").read_text())
    else:  # r5: n = 5, m = 1
        job = {
            "triad": {"a": [[0.0, 1.0], 1.0, 0.0, 0.2, 0.0],
                      "b": [[0.4, 0.7], 0.0, 1.0, 0.0, 0.3]},
            "F": [{"kind": "exp"}],
            "G": [{"kind": "poly", "coeffs": [0.0, 1.0]}, {"kind": "sin"},
                  {"kind": "poly", "coeffs": [1.0, 0.0, 0.5]}, {"kind": "cos"}],
        }
    job["algebra"] = str(fixture_path(f"alg_{name}"))
    job["grid"] = {"x": [-0.7, 0.2, 2], "y": [-0.45, -0.1, 3], "z": [-0.3, 0.65, 4]}
    return job


LAPLACE_JOB = json.loads(fixture_path("job_laplace_ss2.json").read_text())

# Jobs on a General algebra (m = 2, u_s not all equal).  "kinds" holds every
# kind of data: F = (poly, series of radius 50) runs the Horner sweep and the
# series domain check, G = (exp, sin, cos) the other three kinds.
GENERAL = {"algebra": {"n": 5, "m": 2, "u_map": {"3": 1, "4": 1, "5": 2}},
           "triad": {"a": [[0.0, 1.0], [0.3, 2.0], 1.0, 0.0, 0.5], "b": [0.4, 0.7, 0.0, 1.0, 0.2]}}
GENERAL_JOBS = {
    "general": dict(GENERAL, F=[{"kind": "exp"}, {"kind": "sin"}],
                    G=[{"kind": "cos"}, {"kind": "exp"}, {"kind": "sin"}]),
    "kinds": dict(GENERAL, F=[{"kind": "poly", "coeffs": [1.0, [0.0, -0.5], 0.25, 0.1]},
                              {"kind": "series", "center": [0.1, 0.0], "radius": 50.0,
                               "coeffs": [1.0, 0.5, [0.0, -0.25], 0.125, 0.1]}],
                  G=[{"kind": "exp"}, {"kind": "sin"}, {"kind": "cos"}]),
}


def laplace_job(tmp_path, pin=False, **changes):
    """job_laplace_ss2.json with top-level keys replaced by changes, written to tmp_path.

    A change to None removes its key.  pin replaces the bare algebra name by
    the bundled file's path; without it the command falls back from the
    name to the bundled fixtures.  Returns the job file's path.
    """
    job = dict(LAPLACE_JOB, **changes)
    if pin:
        job["algebra"] = str(fixture_path(job["algebra"]))
    return write_job(tmp_path, {key: value for key, value in job.items() if value is not None})


def bad_grid_error(capsys, tmp_path, grid):
    """The error line of grid on job_laplace_ss2 with this grid: exit 2, a bad grid spec, no CSV."""
    out_file = tmp_path / "grid.csv"
    path = laplace_job(tmp_path, pin=True, grid=grid)
    code, out, err = run(capsys, "grid", path, "--out", str(out_file))
    assert code == 2 and err.startswith("error: bad grid spec")
    assert "wrote" not in out and not out_file.exists()
    return err


class TestValidate:
    def test_good_job_passes(self, capsys):
        code, out, _ = run(capsys, "validate", JOB_OK)
        assert code == 0
        assert "PASS algebra axioms" in out
        assert "PASS triad" in out
        assert "special-case: SemiSimple" in out

    def test_broken_triad_fails(self, capsys):
        code, out, _ = run(capsys, "validate", JOB_BAD)
        assert code == 1
        assert "FAIL triad" in out
        assert "surjectivity" in out

    def test_rank_is_printed_as_an_int(self, capsys):
        code, out, _ = run(capsys, "validate", JOB_BAD)
        assert code == 1
        assert "FAIL triad  (rank at (2,): e1, e2, e3 are linearly dependent over R; " in out

    def test_t4_special_case_tag(self, capsys):
        code, out, _ = run(capsys, "validate", JOB_T4)
        assert code == 0
        assert "special-case: Prop1" in out


class TestEval:
    def test_point_value_format(self, capsys):
        code, out, _ = run(capsys, "eval", JOB_OK, "--point", "0.3", "0.4", "-0.2")
        assert code == 0
        lines = [l for l in out.splitlines() if l.startswith("U_")]
        assert len(lines) == 2
        match = re.match(r"U_1 = (\S+) (\S+)i$", lines[0])
        assert match
        # U_1 = exp(x + 2i*y + sqrt(3)*z) for this job.
        val = complex(float(match.group(1)), float(match.group(2)))
        expect = np.exp(0.3 + 2j * 0.4 + np.sqrt(3.0) * -0.2)
        assert abs(val - expect) < 1e-12

    def test_methods_agree(self, capsys):
        outs = {}
        for method in ("explicit", "integral", "special"):
            code, out, _ = run(
                capsys, "eval", JOB_OK, "--point", "0.3", "0.4", "-0.2", "--method", method
            )
            assert code == 0
            outs[method] = [l for l in out.splitlines() if l.startswith("U_")]
        assert outs["explicit"] == outs["special"]

    def test_compare_flag(self, capsys):
        code, out, _ = run(
            capsys, "eval", JOB_OK, "--point", "0.3", "0.4", "-0.2", "--compare"
        )
        assert code == 0
        match = re.search(r"max cross-method deviation = (\S+)", out)
        assert match and float(match.group(1)) < 1e-8

    @pytest.mark.parametrize("method", ["explicit", "integral", "special"])
    def test_compare_runs_each_route_once(self, capsys, monkeypatch, method):
        calls = []
        for name in ("eval_explicit", "eval_integral", "eval_special"):
            route = getattr(monogenic, name)

            def counting(*args, _route=route, _name=name, **kw):
                calls.append(_name)
                return _route(*args, **kw)

            monkeypatch.setattr(monogenic, name, counting)
        argv = ["eval", JOB_T4, "--point", "0.3", "0.4", "-0.2", "--order", "2", "--method", method]
        code, out, _ = run(capsys, *argv, "--compare")
        assert code == 0
        assert sorted(calls) == sorted({"eval_explicit", "eval_integral", f"eval_{method}"}), calls
        # The values printed are those of the chosen route alone.
        calls.clear()
        code, alone, _ = run(capsys, *argv)
        assert code == 0 and calls == [f"eval_{method}"]
        assert out.splitlines()[:-1] == alone.splitlines()
        match = re.search(r"max cross-method deviation = (\S+)", out.splitlines()[-1])
        assert match and float(match.group(1)) < 1e-8

    def test_derivative_order(self, capsys):
        # First derivative of exp data equals the value itself.
        code0, out0, _ = run(capsys, "eval", JOB_OK, "--point", "0.3", "0.4", "-0.2")
        code1, out1, _ = run(
            capsys, "eval", JOB_OK, "--point", "0.3", "0.4", "-0.2", "--order", "1"
        )
        assert code0 == code1 == 0

        def vals(text):
            return [
                complex(float(a), float(b))
                for a, b in re.findall(r"U_\d+ = (\S+) (\S+)i", text)
            ]

        v0, v1 = vals(out0), vals(out1)
        assert max(abs(x - y) for x, y in zip(v0, v1)) < 1e-8

    @staticmethod
    def assert_printed_round_trip(out, value):
        """Each U_k line is repr of the component's parts, so its text gives back their bits."""
        lines = re.findall(r"^U_(\d+) = (\S+) (\S+)i$", out, re.MULTILINE)
        assert [int(k) for k, _, _ in lines] == list(range(1, len(value) + 1))
        for (_, re_text, im_text), c in zip(lines, monogenic.extract_components(value)):
            assert float(re_text).hex() == c.real.hex() and repr(float(re_text)) == re_text
            im = repr(float(im_text))
            assert float(im_text).hex() == c.imag.hex()
            assert im_text == (im if im.startswith("-") else "+" + im)

    @pytest.mark.parametrize("compare", [False, True], ids=["alone", "compare"])
    @pytest.mark.parametrize("order", [0, 2])
    @pytest.mark.parametrize("method", ["explicit", "integral", "special"])
    @pytest.mark.parametrize("job", [JOB_OK, JOB_T4, JOB_BAD], ids=["ss2", "t4", "broken"])
    def test_printed_values_round_trip(self, capsys, job, method, order, compare):
        point = (0.3, 0.4, -0.2)
        argv = ["eval", job, "--point", *map(str, point), "--method", method, "--order", str(order)]
        code, out, _ = run(capsys, *argv, *["--compare"] * compare)
        assert code == 0
        route = getattr(monogenic, f"eval_{method}")
        self.assert_printed_round_trip(out, route(build_spec(load_job(job)), point, order=order))

    @pytest.mark.parametrize("method", ["explicit", "special"])
    def test_negative_zero_imaginary_part_prints_minus(self, capsys, tmp_path, method):
        # amp = -1 - 0i times exp at a real xi: U_1 = -e^x - 0.0i.
        path = laplace_job(tmp_path, pin=True,
                           F=[dict(LAPLACE_JOB["F"][0], amp=[-1.0, -0.0]), LAPLACE_JOB["F"][1]])
        code, out, _ = run(capsys, "eval", path, "--point", "0.5", "0", "0", "--method", method)
        assert code == 0
        assert out.splitlines()[0] == f"U_1 = {-math.exp(0.5)!r} -0.0i"
        self.assert_printed_round_trip(
            out, getattr(monogenic, f"eval_{method}")(build_spec(load_job(path)), (0.5, 0.0, 0.0)))

    def test_exactly_coincident_spectrum_is_fine(self, capsys):
        # y = z = 0 collapses every xi_u to x; one circle goes around both.
        code, out, _ = run(
            capsys, "eval", JOB_OK, "--point", "0.5", "0.0", "0.0", "--method", "integral"
        )
        assert code == 0
        match = re.match(r"U_1 = (\S+) (\S+)i$", out.splitlines()[0])
        assert abs(complex(float(match.group(1)), float(match.group(2))) - np.exp(0.5)) < 1e-10

    def test_near_coincident_spectrum_exit_code(self, capsys, tmp_path):
        # xi_1 and xi_2 a hair apart share one circle.
        path = laplace_job(tmp_path, triad=dict(LAPLACE_JOB["triad"], a=[[0.0, 1.0], [1e-11, 1.0]]))
        argv = ["eval", path, "--point", "0.5", "1.0", "0.0"]
        code, out, err = run(capsys, *argv, "--method", "integral")
        assert code == 0 and not err
        explicit = values(run(capsys, *argv)[1])
        assert np.max(np.abs(np.array(values(out)) - explicit)) < 1e-10

    def test_unconverged_quadrature_fails(self, capsys, tmp_path):
        # cos(60 t) reaches e^60 on the circle, so rounding alone keeps
        # successive rules apart by far more than the tolerance.
        path = laplace_job(tmp_path, F=[{"kind": "cos", "scale": COS_SCALE}, LAPLACE_JOB["F"][1]])
        code, out, err = run(
            capsys, "eval", path, "--point", "0.3", "1e-6", "0", "--order", "3",
            "--method", "integral",
        )
        assert code == 1
        assert "error:" in err and "did not stabilize" in err
        assert "U_1" not in out

    def test_unconverged_quadrature_fails_under_any_warning_filter(self, capsys, monkeypatch,
                                                                   tmp_path):
        # An exception, not a warning: a filter that records every warning,
        # around main or around the quadrature itself (as a tracer's wrapper
        # is), cannot turn the failure into a printed value.
        quad = monogenic.contour_integrate

        def recording(*args, **kwargs):
            with warnings.catch_warnings(record=True):
                warnings.simplefilter("always")
                return quad(*args, **kwargs)

        monkeypatch.setattr(monogenic, "contour_integrate", recording)
        path = laplace_job(tmp_path, F=[{"kind": "cos", "scale": COS_SCALE}, LAPLACE_JOB["F"][1]])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, "eval", path, "--point", "0.3", "1e-6", "0", "--order", "3",
                                 "--method", "integral")
        assert code == 1 and "U_" not in out and caught == []
        assert err.startswith("error: contour quadrature did not stabilize")

    @pytest.mark.parametrize("y", ["1e-6", "1e-7"])
    def test_order_follows_method(self, capsys, tmp_path, y):
        # The explicit route (the default) needs no contour, so it gives
        # Phi^(3) = (F_1^(3)(xi_1), F_2^(3)(xi_2)) where the integral route
        # does not converge.
        path = laplace_job(tmp_path, F=[{"kind": "cos", "scale": COS_SCALE}, LAPLACE_JOB["F"][1]])
        code, out, err = run(capsys, "eval", path, "--point", "0.3", y, "0", "--order", "3")
        assert code == 0 and not err
        xi = 0.3 + float(y) * np.array([2j, 1j])
        expect = np.array([COS_SCALE**3 * np.sin(COS_SCALE * xi[0]), np.exp(xi[1])])
        assert np.max(np.abs(np.array(values(out)) - expect)) < 1e-12 * np.max(np.abs(expect))
        code, out, err = run(
            capsys, "eval", path, "--point", "0.3", y, "0", "--order", "3",
            "--method", "integral",
        )
        assert code == 1 and "did not stabilize" in err and "U_1" not in out

    def test_near_coincident_integral_converges(self, capsys):
        # xi_2 - xi_1 = 1e-6 i: one circle of radius 1 around both.
        argv = ["eval", JOB_OK, "--point", "0.3", "1e-6", "0", "--order", "3"]
        expect = np.exp(0.3 + 1e-6 * np.array([2j, 1j]))
        code, out, err = run(capsys, *argv)
        assert code == 0 and not err
        assert np.max(np.abs(np.array(values(out)) - expect)) < 1e-12
        code, out, err = run(capsys, *argv, "--method", "integral", "--compare")
        assert code == 0 and not err
        assert np.max(np.abs(np.array(values(out)) - expect)) < 1e-12
        match = re.search(r"max cross-method deviation = (\S+)", out)
        assert match and float(match.group(1)) < 1e-12

    def test_compare_at_order(self, capsys):
        code, out, _ = run(
            capsys, "eval", JOB_T4, "--point", "0.3", "0.4", "-0.2", "--order", "2", "--compare"
        )
        assert code == 0
        match = re.search(r"max cross-method deviation = (\S+)", out)
        assert match and float(match.group(1)) < 1e-8

    def test_compare_deviation_beyond_tolerance_fails(self, capsys):
        # The contour route's 20th derivative is off by about 1e6: the value
        # and deviation lines stay, and a FAIL line names both figures.
        argv = ["eval", JOB_OK, "--point", "0.3", "0.4", "-0.2", "--method", "integral", "--order", "20"]
        code, out, _ = run(capsys, *argv, "--compare")
        assert code == 1
        lines = out.splitlines()
        assert len(lines) == 4 and len(values(out)) == 2
        dev = float(re.fullmatch(r"max cross-method deviation = (\S+)", lines[2]).group(1))
        fail = re.fullmatch(r"FAIL cross-method deviation  \((\S+) > tolerance (\S+)\)", lines[3])
        assert float(fail.group(1)) == dev > 1e5 > float(fail.group(2))

    def test_compare_catches_a_perturbed_explicit_route(self, capsys, monkeypatch):
        # B scaled by 1.01 moves the explicit value only, by about 1.6e-3.
        b_coeffs = resolvent.b_coeffs
        monkeypatch.setattr(resolvent, "b_coeffs", lambda spec, T: 1.01 * b_coeffs(spec, T))
        code, out, _ = run(capsys, "eval", JOB_T4, "--point", "0.3", "0.4", "-0.2", "--compare")
        assert code == 1
        assert out.splitlines()[-1].startswith("FAIL cross-method deviation  (")

    def test_compare_judges_the_printed_special_value(self, capsys, monkeypatch):
        # Special's value 1% off, explicit and integral agreeing: the
        # deviation is that of the printed U_k lines.
        special = monogenic.eval_special
        monkeypatch.setattr(monogenic, "eval_special", lambda *a, **kw: 1.01 * special(*a, **kw))
        argv = ["eval", JOB_T4, "--point", "0.3", "0.4", "-0.2", "--method", "special", "--compare"]
        code, out, _ = run(capsys, *argv)
        assert code == 1
        assert out.splitlines()[-1].startswith("FAIL cross-method deviation  (")

    def test_special_at_order_1_equals_explicit(self, capsys):
        argv = ["eval", JOB_T4, "--point", "0.3", "0.4", "-0.2", "--order", "1"]
        code, out, _ = run(capsys, *argv, "--method", "special")
        assert code == 0
        special = values(out)
        code, out, _ = run(capsys, *argv)
        assert code == 0 and len(special) == 4
        assert np.allclose(special, values(out), rtol=1e-12, atol=1e-12)

    def test_special_on_general_algebra(self, capsys, tmp_path):
        for job in GENERAL_JOBS.values():
            path = write_job(tmp_path, job)
            for order in (0, 2):
                argv = ["eval", path, "--point", "0.1", "0.2", "0.3", "--order", str(order)]
                code, out, _ = run(capsys, *argv)
                assert code == 0 and len(values(out)) == 5
                explicit = np.array(values(out))
                self.assert_printed_round_trip(out, monogenic.eval_explicit(
                    build_spec(load_job(path)), (0.1, 0.2, 0.3), order=order))
                code, out, _ = run(capsys, *argv, "--method", "special")
                assert code == 0 and len(values(out)) == 5
                dev = np.max(np.abs(values(out) - explicit))
                assert dev <= 1e-12 * (1 + np.max(np.abs(explicit))), (job, order)

    @pytest.mark.parametrize("name", list(GENERAL_JOBS))
    def test_integral_on_general_algebra(self, capsys, tmp_path, name):
        # The contour route's Phi^(3) on each General job agrees with explicit.
        argv = ["eval", write_job(tmp_path, GENERAL_JOBS[name]), "--point", "0.1", "0.2", "0.3",
                "--order", "3", "--method", "integral", "--compare"]
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert float(re.search(r"max cross-method deviation = (\S+)", out).group(1)) < 1e-10

    def test_domain_overrun_exit_code(self, capsys, tmp_path):
        # A series F of radius 1 centred on xi: the integral route's circle
        # shrinks to stay inside the series' safe disc.
        point = (0.2, 0.3, -0.1)
        xi = point[0] + point[1] * 1j + point[2] * complex(0.3, 0.2)
        job = {
            "algebra": "alg_d2.json",
            "triad": {"a": [[0.0, 1.0], [1.0, 0.0]], "b": [[0.3, 0.2], [0.5, 0.0]]},
            "F": [{"kind": "series", "center": [xi.real, xi.imag], "radius": 1.0,
                   "coeffs": [1.0, 0.5, 0.25, 0.125]}],
            "G": [{"kind": "exp"}],
        }
        path = write_job(tmp_path, job)
        argv = ["eval", path, "--point"] + [str(v) for v in point]
        code, explicit, _ = run(capsys, *argv)
        assert code == 0
        code, out, err = run(capsys, *argv, "--method", "integral")
        assert code == 0 and not err
        assert np.max(np.abs(np.array(values(out)) - values(explicit))) < 1e-10

    def test_no_enclosing_circle_exit_code(self, capsys, tmp_path):
        # xi_1, xi_2 = -0.6 + 0.6i, 0.6 + 0.6i lie on a chord near the edge
        # of F_1's safe disc (0.9 about 0): no circle around both fits.
        job = {
            "algebra": "alg_ss2.json",
            "triad": {"a": [[0.0, 0.6], [0.0, 0.6]], "b": [-0.6, 0.6]},
            "F": [{"kind": "series", "center": 0.0, "radius": 1.0, "coeffs": [1.0, 0.5]},
                  {"kind": "exp"}],
            "G": [],
        }
        path = write_job(tmp_path, job)
        argv = ["eval", path, "--point", "0", "1", "1"]
        assert run(capsys, *argv)[0] == 0
        code, out, err = run(capsys, *argv, "--method", "integral")
        assert code == 3
        assert err.startswith("error: ") and "series" in err and "Traceback" not in err
        assert "U_1" not in out


class TestGrid:
    def test_grid_csv(self, capsys, tmp_path):
        out_file = tmp_path / "grid.csv"
        code, out, _ = run(capsys, "grid", JOB_OK, "--out", str(out_file))
        assert code == 0
        lines = out_file.read_text().splitlines()
        assert lines[0] == "x,y,z,Re_U1,Im_U1,Re_U2,Im_U2"
        assert len(lines) == 1 + 2 * 2 * 2
        row = lines[1].split(",")
        x, y, z = (float(v) for v in row[:3])
        expect = np.exp(x + 2j * y + np.sqrt(3.0) * z)
        assert abs(complex(float(row[3]), float(row[4])) - expect) < 1e-12

    def test_grid_deterministic(self, capsys, tmp_path):
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(capsys, "grid", JOB_OK, "--out", str(f1))[0] == 0
        assert run(capsys, "grid", JOB_OK, "--out", str(f2))[0] == 0
        assert f1.read_bytes() == f2.read_bytes()

    def test_grid_without_out_fails(self, capsys, tmp_path, monkeypatch):
        # --out is the one source of the output path: a job's "out" is not read.
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, "grid", laplace_job(tmp_path, pin=True, out="grid.csv"))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and "--out" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["job.json"]

    def test_relative_out_is_resolved_in_the_working_directory(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, _ = run(capsys, "grid", JOB_OK, "--out", "rel.csv")
        assert code == 0 and out == f"wrote 8 rows to {Path.cwd() / 'rel.csv'}\n"
        assert (tmp_path / "rel.csv").read_text().count("\n") == 9

    def test_grid_io_error(self, capsys):
        code, _, err = run(capsys, "grid", JOB_OK, "--out", "/nonexistent-dir/x.csv")
        assert code == 4
        assert err == "error: cannot write /nonexistent-dir/x.csv: No such file or directory\n"

    @pytest.mark.parametrize(
        "axis",
        [[float("-inf"), 0.5, 3], [float("nan"), 0.5, 3], [-1.7e308, 1.7e308, 3],
         [-1, 10**400, 3]],
        ids=["minus-infinity", "nan", "overflow", "huge-integer"],
    )
    def test_non_finite_axis_exit_2(self, capsys, tmp_path, axis):
        # json writes and reads -Infinity and NaN; hi - lo = 3.4e308 overflows;
        # a JSON integer of 401 digits has no float.
        bad_grid_error(capsys, tmp_path, dict(LAPLACE_JOB["grid"], x=axis))

    @pytest.mark.parametrize("count", [2**63, sys.maxsize, 2**64])
    def test_count_beyond_any_array_exit_2(self, capsys, tmp_path, count):
        # np.linspace raises IndexError, not ValueError, near 2**63.
        err = bad_grid_error(capsys, tmp_path, dict(LAPLACE_JOB["grid"], x=[-1, 1, count]))
        assert "count" in err

    @pytest.mark.parametrize("count", [2.9, "3", True, 3.0],
                             ids=["fraction", "string", "bool", "float"])
    def test_non_integer_count_exit_2(self, capsys, tmp_path, count):
        # A count that is not a JSON integer was truncated by int().
        err = bad_grid_error(capsys, tmp_path, dict(LAPLACE_JOB["grid"], y=[-1, 1, count]))
        assert "count" in err

    @pytest.mark.parametrize("name", ["t4", "r5"])
    def test_grid_csv_bytes(self, capsys, tmp_path, name):
        # 2 x 3 x 4 on asymmetric negative ranges: the grid is not cubic, so
        # rows in any order but x-major give other bytes.
        job = grid_job(name)
        path = write_job(tmp_path, job)
        out_file = tmp_path / "grid.csv"
        code, out, _ = run(capsys, "grid", path, "--out", str(out_file))
        assert code == 0 and out.startswith("wrote 24 rows")

        xs, ys, zs = (np.linspace(*job["grid"][a]).tolist() for a in "xyz")
        points = np.array([(x, y, z) for x in xs for y in ys for z in zs])
        ms = monogenic.monogenic_from_dict(job)
        values = monogenic.eval_explicit(ms, points)
        n = ms.algebra.n
        lines = ["x,y,z," + ",".join(f"Re_U{k},Im_U{k}" for k in range(1, n + 1))]
        for p, v in zip(points.tolist(), values.tolist()):
            row = p + [part for c in v for part in (c.real, c.imag)]
            lines.append(",".join(map(repr, row)))
        assert out_file.read_bytes() == ("\n".join(lines) + "\n").encode("utf-8")

    def test_grid_csv_bytes_in_blocks_and_both_layouts(self, capsys, tmp_path):
        # 11 x 11 x 11 = 1331 rows, more than one block of BLOCK_ROWS; the
        # values near 1e20 and 1e-7 print as d.ddde+XX and d.ddde-XX, the
        # coordinates positionally.
        grid = {"x": [-0.7, 0.3, 11], "y": [-0.45, 0.55, 11], "z": [-1.0, 1.0, 11]}
        path = laplace_job(tmp_path, pin=True, grid=grid,
                           F=[{"kind": "poly", "coeffs": [[1e20, -3e19], 7e19]},
                              {"kind": "poly", "coeffs": [1e-7, [2e-8, 5e-8]]}])
        out_file = tmp_path / "grid.csv"
        code, out, _ = run(capsys, "grid", path, "--out", str(out_file))
        assert code == 0 and out.startswith("wrote 1331 rows")

        xs, ys, zs = (np.linspace(*grid[a]).tolist() for a in "xyz")
        points = np.array([(x, y, z) for x in xs for y in ys for z in zs])
        values = monogenic.eval_explicit(monogenic.monogenic_from_dict(load_job(path)), points)
        lines = ["x,y,z,Re_U1,Im_U1,Re_U2,Im_U2"]
        for p, v in zip(points.tolist(), values.tolist()):
            lines.append(",".join(map(repr, p + [part for c in v for part in (c.real, c.imag)])))
        text = out_file.read_text()
        assert "e+" in text and "e-" in text
        assert out_file.read_bytes() == ("\n".join(lines) + "\n").encode("utf-8")

    @pytest.mark.parametrize("counts", [(2**21, 2**21, 2**21), (2, 2, sys.maxsize // 8),
                                        (10**6, 10**6, 10**6)])
    def test_more_points_than_one_array_exit_2(self, capsys, tmp_path, counts):
        # Each count is at most MAX_COUNT; their product is not, and 10^18
        # points, which do fit, have a shortest CSV past any file offset.
        err = bad_grid_error(capsys, tmp_path, {a: [0, 1, c] for a, c in zip("xyz", counts)})
        assert f"{math.prod(counts)} points" in err and "largest file offset" in err

    def test_failed_write_keeps_the_old_csv(self, capsys, monkeypatch, tmp_path):
        # 11 x 11 x 11 = 1331 rows, two blocks of BLOCK_ROWS: the disk fills
        # at the second block's write.  The earlier CSV keeps its bytes and
        # no temporary file is left beside it.
        from monogenica import cli

        path = laplace_job(tmp_path, pin=True, grid={a: [-0.5, 0.5, 11] for a in "xyz"})
        out_file = tmp_path / "grid.csv"
        out_file.write_bytes(b"an earlier csv\n")

        class FullDisk:
            """A file opened for writing whose third write, the second block of rows, fails."""

            def __init__(self, fh):
                self.fh = fh
                self.writes = 0

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                self.writes += 1
                if self.writes == 3:
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
                return self.fh.write(data)

        def full_disk_open(file, mode="r", **kwargs):
            fh = open(file, mode, **kwargs)
            return fh if mode == "r" else FullDisk(fh)

        monkeypatch.setattr(cli, "open", full_disk_open, raising=False)
        code, out, err = run(capsys, "grid", path, "--out", str(out_file))
        assert code == 4 and out == ""
        assert err.startswith(f"error: cannot write {out_file}: ") and err.count("\n") == 1
        assert out_file.read_bytes() == b"an earlier csv\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["grid.csv", "job.json"]

    def test_grid_writes_through_a_symlink(self, capsys, tmp_path):
        # The link stays and its target gets the CSV.
        target, link = tmp_path / "target.csv", tmp_path / "link.csv"
        target.write_bytes(b"old\n")
        link.symlink_to(target)
        code, _, _ = run(capsys, "grid", JOB_OK, "--out", str(link))
        assert code == 0 and link.is_symlink()
        assert target.read_text().count("\n") == 9
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv", "target.csv"]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
    def test_grid_writes_a_fifo_in_place(self, capsys, tmp_path):
        # An out that is no regular file (a FIFO here; /dev/null and
        # /dev/stdout alike) is written directly: it stays what it was and no
        # file is made beside it.
        fifo = tmp_path / "pipe.csv"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
        reader.start()
        code, _, _ = run(capsys, "grid", JOB_OK, "--out", str(fifo))
        reader.join(timeout=60)
        assert code == 0 and got and got[0].count(b"\n") == 9
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert [p.name for p in tmp_path.iterdir()] == ["pipe.csv"]

    def test_grid_ignores_a_killed_runs_temporary_file(self, capsys, tmp_path):
        # A run killed mid-write leaves its temporary file; the next run in a
        # process with the same id still writes out and leaves that file be.
        out_file = tmp_path / "grid.csv"
        stale = [tmp_path / f"grid.csv.{os.getpid()}.tmp",
                 tmp_path / f"grid.csv.{os.getpid()}.{os.urandom(4).hex()}.tmp"]
        for path in stale:
            path.write_bytes(b"x,y\n")
        code, _, _ = run(capsys, "grid", JOB_OK, "--out", str(out_file))
        assert code == 0 and out_file.read_text().count("\n") == 9
        assert all(path.read_bytes() == b"x,y\n" for path in stale)
        assert len(list(tmp_path.iterdir())) == 3

    @pytest.mark.parametrize("exists", [True, False])
    def test_grid_in_a_directory_that_refuses_new_files(self, capsys, monkeypatch, tmp_path,
                                                        exists):
        # No new file can be made, the temporary one included: an existing
        # out is written directly, as a writable file in a read-only
        # directory can be; a new out fails, and the error names out alone.
        from monogenica import cli

        def no_new_files(file, mode="r", **kwargs):
            if mode != "r" and not os.path.exists(file):
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), file)
            return open(file, mode, **kwargs)

        out_file = tmp_path / "grid.csv"
        if exists:
            out_file.write_bytes(b"an earlier csv\n")
        monkeypatch.setattr(cli, "open", no_new_files, raising=False)
        code, out, err = run(capsys, "grid", JOB_OK, "--out", str(out_file))
        if exists:
            assert code == 0 and out_file.read_text().count("\n") == 9
        else:
            assert code == 4 and out == "" and not out_file.exists()
            assert err == f"error: cannot write {out_file}: {os.strerror(errno.EACCES)}\n"
        assert [p.name for p in tmp_path.iterdir()] == ["grid.csv"] * exists

    @pytest.mark.parametrize("where", ["points", "values"])
    def test_grid_too_large_to_hold_exit_2(self, capsys, monkeypatch, tmp_path, where):
        # An axis (np.linspace) or a block's values (eval_explicit) that do
        # not fit: main's one line, exit 2, and no CSV or temporary file.
        def too_large(*args, **kwargs):
            raise MemoryError

        if where == "points":
            monkeypatch.setattr(np, "linspace", too_large)
        else:
            monkeypatch.setattr(monogenic, "eval_explicit", too_large)
        out_file = tmp_path / "grid.csv"
        code, out, err = run(capsys, "grid", JOB_OK, "--out", str(out_file))
        assert code == 2
        assert err == "error: the job does not fit in memory (MemoryError)\n"
        assert "wrote" not in out and not out_file.exists()
        assert list(tmp_path.iterdir()) == []

    def test_grid_evaluates_one_block_at_a_time(self, capsys, monkeypatch, tmp_path):
        # 11 x 11 x 11 = 1331 rows: two eval_explicit calls, of BLOCK_ROWS
        # points and of the rest.
        from monogenica import cli

        sizes = []
        eval_explicit = monogenic.eval_explicit

        def counted(ms, points, *args, **kwargs):
            sizes.append(len(points))
            return eval_explicit(ms, points, *args, **kwargs)

        monkeypatch.setattr(monogenic, "eval_explicit", counted)
        path = laplace_job(tmp_path, pin=True, grid={a: [-0.5, 0.5, 11] for a in "xyz"})
        out_file = tmp_path / "grid.csv"
        code, _, _ = run(capsys, "grid", path, "--out", str(out_file))
        assert code == 0 and sizes == [cli.BLOCK_ROWS, 1331 - cli.BLOCK_ROWS]
        assert out_file.read_text().count("\n") == 1332

    def test_grid_peak_memory_does_not_grow_with_the_grid(self, capsys, tmp_path):
        # The tracemalloc peak of a 40^3 grid on alg_r5 (63 blocks) stays
        # near that of a 16^3 grid (4 blocks): one block is held at a time.
        # 2 x 2 x 20,000 and 40 x 20 x 100 are the same 80,000 points: the
        # axis text is formatted once into a table of 24-byte fields, so a
        # long axis adds its table, not the formatter's work on every value.
        # The formatter's memory for a value grows with its magnitude (more
        # for values from 1 up than below 1), so the two grids of a pair
        # hold values of like magnitude: the second pair's x and y span a
        # narrow range, where 2 or 40 values sample nearly the same data.
        import tracemalloc

        def peak(counts, xy):
            job = grid_job("r5")
            job["grid"] = {a: [*(xy if a != "z" else (-0.5, 0.5)), count]
                           for a, count in zip("xyz", counts)}
            path = write_job(tmp_path, job)
            tracemalloc.start()
            try:
                code, _, _ = run(capsys, "grid", path, "--out", str(tmp_path / "grid.csv"))
                return code, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak((2, 2, 2), (-0.5, 0.5))  # builds the formatter's table, which a process keeps
        for small_counts, large_counts, xy in [((16,) * 3, (40,) * 3, (-0.5, 0.5)),
                                               ((40, 20, 100), (2, 2, 20000), (-0.5, -0.45))]:
            (small_code, small), (large_code, large) = peak(small_counts, xy), peak(large_counts, xy)
            assert small_code == large_code == 0
            assert large <= 1.5 * small, (small_counts, large_counts)

    def test_late_non_finite_block_keeps_the_old_csv(self, capsys, tmp_path):
        # 11 x 11 x 11 = 1331 rows; exp overflows from x = 720 on, row 1089,
        # in the second block: the first block was written to the temporary
        # file, which is removed, and the earlier CSV keeps its bytes.
        path = laplace_job(tmp_path, pin=True,
                           grid={"x": [0, 800, 11], "y": [-1, 1, 11], "z": [-1, 1, 11]})
        out_file = tmp_path / "grid.csv"
        out_file.write_bytes(b"an earlier csv\n")
        code, out, err = run(capsys, "grid", path, "--out", str(out_file))
        assert code == 3 and out == ""
        assert err == "error: the value at (720.0, -1.0, -1.0) is not finite: the data overflow there\n"
        assert out_file.read_bytes() == b"an earlier csv\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["grid.csv", "job.json"]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
    def test_late_non_finite_block_in_a_fifo_keeps_the_rows_written(self, capsys, tmp_path):
        # A pipe cannot take back what it was sent: the header and the first
        # block's 1024 rows reach the reader, then exit 3.
        path = laplace_job(tmp_path, pin=True,
                           grid={"x": [0, 800, 11], "y": [-1, 1, 11], "z": [-1, 1, 11]})
        fifo = tmp_path / "pipe.csv"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
        reader.start()
        code, _, err = run(capsys, "grid", path, "--out", str(fifo))
        reader.join(timeout=60)
        assert code == 3 and "(720.0, -1.0, -1.0) is not finite" in err
        assert got and got[0].count(b"\n") == 1 + 1024

    def test_unwritable_out_comes_before_overflowing_data(self, capsys, tmp_path):
        # out is opened before the first block is evaluated: exit 4, not 3.
        path = laplace_job(tmp_path, pin=True, grid=dict(LAPLACE_JOB["grid"], x=[700, 800, 2]))
        code, out, err = run(capsys, "grid", path, "--out", "/nonexistent-dir/x.csv")
        assert code == 4 and out == ""
        assert err == "error: cannot write /nonexistent-dir/x.csv: No such file or directory\n"


# The command line in a process of its own, with this src first on its path.
CLI = [sys.executable, "-m", "monogenica.cli"]
CLI_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    [str(Path(monogenic.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))


# Run by a small interpreter of its own: Linux carries a process's peak
# RSS across exec, so a child forked from the test process would report
# the test process's RSS.  Prints the child's exit code, its stdout's line
# count (read in chunks, not held) and its peak RSS and minor faults.
USAGE = """
import resource, subprocess, sys
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.PIPE)
lines = sum(chunk.count(b"\\n") for chunk in iter(lambda: proc.stdout.read(1 << 16), b""))
code = proc.wait()
usage = resource.getrusage(resource.RUSAGE_CHILDREN)
print(code, lines, usage.ru_maxrss, usage.ru_minflt)
"""


def child_usage(*argv):
    """The command line's exit code, stdout lines, peak RSS (KiB on Linux) and minor faults."""
    done = subprocess.run([sys.executable, "-c", USAGE, *CLI, *argv], capture_output=True,
                          text=True, env=CLI_ENV, timeout=300)
    assert done.returncode == 0, done.stderr
    return tuple(map(int, done.stdout.split()))


@pytest.mark.parametrize("argv, usage", [(["--help"], "usage: monogenica [-h]"),
                                         (["grid", "--help"], "usage: monogenica grid [-h]")],
                         ids=["monogenica", "grid"])
def test_help_exits_0(argv, usage):
    done = subprocess.run([*CLI, *argv], capture_output=True, text=True, env=CLI_ENV, timeout=120)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.startswith(usage)


@pytest.mark.parametrize("command", ["validate", "check", "eval", "grid"])
def test_closed_stdout_exits_4(tmp_path, command):
    # The pipe's read end is closed before the command starts, so its
    # first write to stdout fails.
    argv = {"eval": ["--point", "0.1", "0.2", "0.3"], "grid": ["--out", str(tmp_path / "g.csv")]}
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run([*CLI, command, JOB_OK, *argv.get(command, [])], stdout=write,
                              stderr=subprocess.PIPE, text=True, env=CLI_ENV, timeout=120)
    finally:
        os.close(write)
    assert done.returncode == 4
    assert done.stderr.startswith("error: cannot write to stdout:")
    assert done.stderr.count("\n") == 1 and "Traceback" not in done.stderr


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="needs /dev/stdout")
def test_grid_out_dev_stdout_writes_the_pipe():
    # /dev/stdout links to the pipe, which has no directory to make a
    # temporary file in: the CSV is written to it directly.
    done = subprocess.run([*CLI, "grid", JOB_OK, "--out", "/dev/stdout"], capture_output=True,
                          text=True, env=CLI_ENV, timeout=120)
    assert done.returncode == 0 and done.stderr == ""
    assert done.stdout.startswith("x,y,z,") and done.stdout.count("\n") == 10
    assert done.stdout.endswith("wrote 8 rows to /dev/stdout\n")


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="needs glibc's mallopt")
@pytest.mark.parametrize("name, count, bound", [("r5", 40, 2500), ("eps16", 20, 12000)])
def test_grid_blocks_reuse_freed_pages(tmp_path, name, count, bound):
    # With glibc's default thresholds each block's freed heap went back to
    # the kernel: a 40^3 grid on alg_r5 (63 blocks) faulted in some 26,000
    # to 32,000 pages more than a 2^3 grid (one block), and a 20^3 grid on
    # C[eps]/eps^16 (8 blocks) about 34,000 more.  With the trim threshold
    # alone the latter took 106,000 more, as its large arrays were mapped
    # afresh on every block.  With grid's thresholds later blocks reuse the
    # pages of the first: under 1,000 and about 6,000 more.
    faults = {}
    for c in (count, 2):
        job = grid_job(name) if name == "r5" else truncated_job(16)
        job["grid"] = {a: [lo, hi, c] for a, (lo, hi, _) in job["grid"].items()}
        code, _, _, faults[c] = child_usage("grid", write_job(tmp_path, job), "--out", os.devnull)
        assert code == 0
    assert faults[count] - faults[2] <= bound, faults


@pytest.mark.skipif(not sys.platform.startswith("linux") or not os.path.exists("/dev/stdout"),
                    reason="needs ru_maxrss in KiB and /dev/stdout")
def test_grid_peak_rss_is_bounded(tmp_path):
    # grid holds one block of rows at a time: a 60^3 grid on alg_r5 (211
    # blocks) writes its 216,001 lines at a peak RSS of at most 80 MB,
    # measured on the grid's own process (about 35 MB on Linux x86-64).
    job = grid_job("r5")
    job["grid"] = {a: [lo, hi, 60] for a, (lo, hi, _) in job["grid"].items()}
    code, lines, rss, _ = child_usage("grid", write_job(tmp_path, job), "--out", "/dev/stdout")
    assert code == 0 and lines == 216_001 + 1  # the CSV, then "wrote 216000 rows"
    assert rss / 1024 <= 80, rss


@pytest.mark.parametrize("n, argv", [(48, ["validate"]), (172, ["eval", "--point", "0.1", "0.2", "0.3"])],
                         ids=["validate-eps48", "eval-eps172"])
def test_large_algebra_finishes_in_time(tmp_path, n, argv):
    # C[eps]/eps^n with BLAS at its default thread count, each in a process
    # of its own under a 20 s limit (well under 1 s on a 2-vCPU VM).  At
    # n = 172 the explicit route's weights 1 / f! reach f = 171.
    env = {k: v for k, v in CLI_ENV.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    done = subprocess.run([*CLI, argv[0], write_job(tmp_path, truncated_job(n)), *argv[1:]],
                          capture_output=True, text=True, env=env, timeout=20)
    assert (done.returncode, done.stderr) == (0, "")
    if argv[0] == "eval":
        assert len(values(done.stdout)) == n and np.all(np.isfinite(values(done.stdout)))
    else:
        assert "PASS algebra axioms" in done.stdout and "PASS triad" in done.stdout


class TestCheck:
    def test_good_job_all_pass(self, capsys):
        code, out, _ = run(capsys, "check", JOB_OK)
        assert code == 0
        assert "FAIL" not in out
        assert "PASS characteristic residual" in out
        assert "P(a,b) scan: NoZeroFound" in out
        assert "PASS operator identity" in out

    @pytest.mark.parametrize("terms", [[[2, 0, 0, 1.0], [0, 2, 0, -1.0]],
                                       [[2, 0, 0, -0.5], [0, 2, 0, 1.0]]],
                             ids=["wave-grid-zero", "wave-bisect"])
    def test_zero_at_line_round_trips(self, capsys, tmp_path, terms):
        # The scan's zero prints as repr of its floats: float(text) gives
        # back p_nonvanishing_scan's bits.
        # The Laplace triad is not characteristic for a wave operator: exit 1.
        pde = {"N": 2, "terms": terms}
        code, out, _ = run(capsys, "check", laplace_job(tmp_path, pin=True, pde=pde))
        assert code == 1 and "FAIL characteristic residual" in out
        texts = re.search(r"^P\(a,b\) scan: ZeroAt\((\S+), (\S+)\)$", out, re.MULTILINE).groups()
        scan = pde_mod.p_nonvanishing_scan(pde_mod.pde_from_dict(pde))
        assert [float(t).hex() for t in texts] == [scan.a.hex(), scan.b.hex()]
        assert [repr(float(t)) for t in texts] == list(texts)

    def test_definite_symbol_has_no_zero(self, capsys, tmp_path):
        # 1e-12 + a^2 + b^2 is settled from the signs of its terms, however
        # small its constant; the Laplace triad is not characteristic for it.
        code, out, _ = run(capsys, "check", laplace_job(tmp_path, pde=laplace(c=1e-12)))
        assert code == 1 and "FAIL characteristic residual" in out
        assert "\nP(a,b) scan: NoZeroFound\n" in out

    def test_broken_job_fails(self, capsys):
        code, out, _ = run(capsys, "check", JOB_BAD)
        assert code == 1
        assert "FAIL triad" in out
        assert "FAIL characteristic residual" in out

    def test_t4_without_pde_sections(self, capsys):
        code, out, _ = run(capsys, "check", JOB_T4)
        assert code == 0
        assert "characteristic" not in out

    def test_tight_tolerance_forces_fail(self, capsys):
        code, out, _ = run(capsys, "check", JOB_OK, "--tol-cr", "1e-18")
        assert code == 1
        assert "FAIL Cauchy-Riemann" in out

    @pytest.mark.parametrize("point, F, why", [
        ([0.3, 1e16, -0.2], None, "y or z + it rounds to y or z"),
        ([0.3, 0.4, -0.2], [{"kind": "poly", "coeffs": [0.0, 1.0], "scale": 1e170}, {"kind": "exp"}],
         "1 / radius^2 overflows"),
    ], ids=["rounds-away", "power-underflows"])
    def test_circle_lost_in_rounding_exits_3(self, capsys, tmp_path, point, F, why):
        # rho = 1 / (16 tau c), c = |a_1| = 2: 1e16 + 1/32 is 1e16, and with
        # tau = 1e170 the Laplace partials' 1 / rho^2 has no rho^2 to divide
        # by.  One error line names the point and rho, before any status line.
        path = laplace_job(tmp_path, points=[point], **({"F": F} if F else {}))
        code, out, err = run(capsys, "check", path)
        assert code == 3 and out == ""
        rho = 1.0 / (32.0 * (1e170 if F else 1.0))
        assert err == f"error: no circle of radius {rho!r} about the point {tuple(point)}: {why}\n"

    def test_stencil_names_its_job_point(self, capsys, tmp_path):
        # exp(xi_1) is finite at x = 709.75, but not on the circle of radius
        # 1/32 in y about it, where Re xi_1 = x - 2 Im(y) reaches 709.80: the
        # second job point's circle overflows first, and the error line names
        # that job point and the radius.  The one batched call comes before
        # the first status line, so no PASS or FAIL line.
        path = laplace_job(tmp_path, points=[[0.3, 0.4, -0.2], [709.75, 0.0, 0.0]])
        code, out, err = run(capsys, "check", path)
        assert code == 3 and out == ""
        assert err == ("error: the value on the circle of radius 0.03125 about the job point "
                       "(709.75, 0.0, 0.0) is not finite: the data overflow there\n")

    def test_derivative_beyond_the_data_exits_3(self, capsys, tmp_path):
        # 5e307 xi^3 and its first derivative are finite near the point, at
        # every sample, but its second derivative 3e308 xi is not: the
        # Laplace partial d^2/dx^2, Phi''.
        path = laplace_job(tmp_path, points=[[0.3, 0.4, -0.2]],
                           F=[{"kind": "poly", "coeffs": [0.0, 0.0, 0.0, 5e307]}, {"kind": "exp"}])
        code, out, err = run(capsys, "check", path)
        assert code == 3 and out == ""
        assert err == ("error: Phi^(2) at the job point (0.3, 0.4, -0.2) is not finite: the data "
                       "overflow there\n")

    def test_tolerances_in_the_job_exit_2(self, capsys, tmp_path):
        # Even well-formed tolerances: the flags are their one source.
        path = laplace_job(tmp_path, tolerances={"cr": 1e-6, "pde": 1e-4})
        code, out, err = run(capsys, "check", path)
        assert code == 2 and out == ""
        assert "--tol-cr" in err and "--tol-pde" in err and err.count("\n") == 1

    def test_unconverged_quadrature_fails_operator_identity(self, capsys, tmp_path):
        # xi_2 - xi_1 = 1e-7 i, where the contour route's Phi'' does not
        # converge.  check takes Phi'' from the explicit route, which needs no
        # contour: the identity passes, and Phi'' = exp(xi_u) componentwise.
        path = laplace_job(tmp_path, points=[[0.3, 1e-7, 0.0]])
        code, out, _ = run(capsys, "check", path)
        assert code == 0
        assert "PASS operator identity" in out
        code, out, _ = run(capsys, "eval", path, "--point", "0.3", "1e-7", "0", "--order", "2")
        assert code == 0
        # xi_u = x + y*a_u + z*b_u with a = (2i, i): not e^0.3, which is
        # about 2.7e-7 away at this y.
        expect = np.exp(0.3 + 1e-7 * np.array([2j, 1j]))
        assert np.max(np.abs(np.array(values(out)) - expect)) < 1e-12


class TestParser:
    @pytest.mark.parametrize("command", ["grid", "check"])
    def test_main_calls_patched_command(self, capsys, monkeypatch, tmp_path, command):
        # Wrappers installed on cli.cmd_* after import see every command.
        from monogenica import cli

        calls = []
        original = getattr(cli, f"cmd_{command}")

        def counting(args):
            calls.append(args.command)
            return original(args)

        monkeypatch.setattr(cli, f"cmd_{command}", counting)
        extra = ["--out", str(tmp_path / "g.csv")] if command == "grid" else []
        code, _, _ = run(capsys, command, JOB_OK, *extra)
        assert code == 0 and calls == [command]

    def test_main_does_not_build_a_parser(self, capsys, monkeypatch):
        from monogenica import cli

        def refuse():
            raise AssertionError("main built a parser")

        monkeypatch.setattr(cli, "build_parser", refuse)
        assert run(capsys, "check", JOB_OK)[0] == 0
        assert run(capsys, "eval", JOB_OK, "--point", "0.3", "0.4", "-0.2")[0] == 0

    def test_eval_options_do_not_leak(self, capsys):
        point = ("0.3", "0.4", "-0.2")
        code, d2, _ = run(capsys, "eval", JOB_OK, "--point", *point,
                          "--order", "2", "--method", "integral")
        assert code == 0
        code, out, _ = run(capsys, "eval", JOB_OK, "--point", *point)
        assert code == 0 and out != d2
        ms = build_spec(load_job(JOB_OK))
        expect = monogenic.extract_components(
            monogenic.eval_explicit(ms, tuple(map(float, point))))
        assert np.allclose(values(out), expect, rtol=1e-14, atol=0)

    def test_check_options_do_not_leak(self, capsys):
        code, out, _ = run(capsys, "check", JOB_OK, "--tol-cr", "1e-30")
        assert code == 1 and "FAIL Cauchy-Riemann" in out
        code, out, _ = run(capsys, "check", JOB_OK)
        assert code == 0 and "FAIL" not in out


class TestErrors:
    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "validate", "/no/such/job.json")
        assert code == 2
        assert "cannot read job file" in err

    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "validate", str(path))
        assert code == 2

    def test_deeply_nested_json(self, capsys, tmp_path):
        # json.load gives up on deep nesting with a RecursionError.
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)
        code, out, err = run(capsys, "check", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: cannot read job file") and err.count("\n") == 1

    def test_deeply_nested_algebra_file(self, capsys, tmp_path):
        # The algebra file the job names is too deep for json: one error line.
        (tmp_path / "deep.json").write_text("[" * 100_000)
        code, out, err = run(capsys, "validate", laplace_job(tmp_path, algebra="deep.json"))
        assert code == 2 and out == ""
        assert err.startswith("error: bad job spec: cannot read algebra file") and err.count("\n") == 1

    def test_wrong_function_count(self, capsys, tmp_path):
        code, _, err = run(capsys, "validate", laplace_job(tmp_path, F=LAPLACE_JOB["F"][:1]))
        assert code == 2
        assert "bad job spec" in err

    def test_unknown_algebra_name(self, capsys, tmp_path):
        path = laplace_job(tmp_path, algebra="no_such_algebra.json")
        code, _, err = run(capsys, "validate", path)
        assert code == 2

    @pytest.mark.parametrize(
        "points",
        [[], [[0.1, 0.2]], [[0.1, 0.2, 0.3, 0.4]], [[0.1, float("nan"), 0.3]],
         [[0.1, "y", 0.3]], [0.1, 0.2, 0.3], [[True, 0.4, -0.2]], [[0.1, "0.2", 0.3]],
         [[10**400, 0.2, 0.3]], {"x": 0.1}, None],
        ids=["empty", "two-coords", "four-coords", "nan", "not-a-number", "flat-list", "bool",
             "numeric-string", "huge-int", "object", "missing"],
    )
    def test_bad_points(self, capsys, tmp_path, points):
        # None removes the key: a job's points have no default.
        code, out, err = run(capsys, "check", laplace_job(tmp_path, points=points))
        assert code == 2 and out == ""
        assert err.startswith("error: bad point") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_bad_holomorphic_data(self, capsys, tmp_path):
        for bad in ({"kind": "tan"}, {"kind": "series", "coeffs": [1.0], "radius": 0.0}):
            path = laplace_job(tmp_path, F=[bad, LAPLACE_JOB["F"][1]])
            code, _, err = run(capsys, "eval", path, "--point", "0.3", "0.4", "-0.2")
            assert code == 2, bad
            assert "bad job spec" in err


def write_job(tmp_path, job):
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    return str(path)


def inlined(name):
    """A bundled job with its algebra file read into the job."""
    job = json.loads(fixture_path(name).read_text())
    job["algebra"] = json.loads(fixture_path(job["algebra"]).read_text())
    return job


def set_path(job, path, value):
    """job with the value at path (keys and list indices) replaced."""
    node = job
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return job


def rename_u_map_key(job, key):
    """job with the u_map key "3" of its inlined algebra renamed to key."""
    u_map = job["algebra"]["u_map"]
    u_map[key] = u_map.pop("3")
    return job


def laplace(N=2, c=1.0):
    """The Laplace pde of the bundled jobs, with N and its first coefficient replaced."""
    return {"N": N, "terms": [[2, 0, 0, c], [0, 2, 0, 1.0], [0, 0, 2, 1.0]]}


MALFORMED = {
    "not-an-object": lambda job: [job],
    "string-in-triad": lambda job: set_path(job, ["triad", "a", 0], "ab"),
    "one-char-in-coeffs": lambda job: set_path(job, ["G", 0], {"kind": "poly", "coeffs": ["a"]}),
    "pair-of-strings": lambda job: set_path(job, ["triad", "b", 1], ["1", "2"]),
    "three-part-complex": lambda job: set_path(job, ["triad", "b", 1], [1.0, 0.0, 2.0]),
    # Python's bool is an int, but a JSON true is not the number 1: not a_1 = 1j.
    "bool-pair-in-triad": lambda job: set_path(job, ["triad", "a", 0], [False, True]),
    "bool-in-coeffs": lambda job: set_path(job, ["G", 0], {"kind": "poly", "coeffs": [True]}),
    "huge-int-in-triad": lambda job: set_path(job, ["triad", "b", 1], 10**400),
    "infinite-amp": lambda job: set_path(job, ["F", 0], {"kind": "exp", "amp": float("inf")}),
    "u_map-list": lambda job: set_path(job, ["algebra", "u_map"], [1, 1, 1]),
    "upsilon-number": lambda job: set_path(job, ["algebra", "upsilon"], 3),
    # check's tolerances come from --tol-cr and --tol-pde only: a job's
    # tolerances, whatever they hold, exit 2 rather than go unread.
    **{f"tolerances-{name}": partial(set_path, path=["tolerances"], value=value)
       for name, value in (("list", [1e-6]), ("string", {"cr": "tight"}), ("number", 1e-6),
                           ("bool", {"cr": True}), ("huge-int", {"pde": 10**400}),
                           ("infinite", {"cr": float("inf")}), ("nan", {"pde": float("nan")}),
                           ("negative", {"cr": -1}), ("zero", {"pde": 0}))},
    # Truncated, each of these is a valid number: n = 4, an index of 4, u_2 = 1.
    "n-fraction": lambda job: set_path(job, ["algebra", "n"], 4.9),
    "n-string": lambda job: set_path(job, ["algebra", "n"], "4"),
    "n-bool": lambda job: set_path(job, ["algebra", "n"], True),
    "upsilon-fractional-index": lambda job: set_path(job, ["algebra", "upsilon", 1, 2], 4.5),
    "upsilon-bool-value": lambda job: set_path(job, ["algebra", "upsilon", 0], [2, 2, 3, True]),
    "u_map-fraction": lambda job: set_path(job, ["algebra", "u_map", "2"], 1.5),
    # upsilon tabulates products of radical elements only, not I_1 I_2.
    "upsilon-idempotent-index": lambda job: set_path(job, ["algebra", "upsilon", 0], [1, 2, 3, 1.0]),
    # A u_map key is the text of a JSON integer: "3" is read, none of these.
    **{f"u_map-key-{name}": partial(rename_u_map_key, key=key)
       for name, key in (("leading-zero", "03"), ("plus", "+3"), ("space", " 3"),
                         ("superscript", "\u00b2"), ("fraction", "3.0"))},
    "series-string-radius": lambda job: set_path(
        job, ["F", 0], {"kind": "series", "coeffs": [1.0], "radius": "50"}),
    "series-bool-radius": lambda job: set_path(
        job, ["F", 0], {"kind": "series", "coeffs": [1.0], "radius": True}),
    "pde-fractional-N": lambda job: set_path(job, ["pde"], laplace(N=2.5)),
    "pde-string-coefficient": lambda job: set_path(job, ["pde"], laplace(c="1")),
    "pde-bool-coefficient": lambda job: set_path(job, ["pde"], laplace(c=True)),
    "pde-nan-coefficient": lambda job: set_path(job, ["pde"], laplace(c=float("nan"))),
    "pde-no-terms": lambda job: set_path(job, ["pde"], {"N": 2, "terms": []}),
}


@pytest.mark.parametrize("name", list(MALFORMED))
@pytest.mark.parametrize("command", ["validate", "check", "eval"])
def test_malformed_job_exits_2(capsys, tmp_path, name, command):
    job = MALFORMED[name](inlined("job_square_t4.json"))
    argv = [command, write_job(tmp_path, job)]
    argv += ["--point", "0.3", "0.4", "-0.2"] if command == "eval" else []
    code, _, err = run(capsys, *argv)
    if command != "check" and name.startswith(("tolerances", "pde")):
        assert code == 0  # only check reads the pde and refuses tolerances
    else:
        assert code == 2 and err.startswith("error: "), (code, err)


@pytest.mark.parametrize("out", ["a\u0000b.csv"], ids=["nul"])
def test_grid_out_that_is_no_path_exits_2(capsys, tmp_path, monkeypatch, out):
    # argv from a shell holds no NUL; in-process main(argv) can pass one.
    path = laplace_job(tmp_path, pin=True)
    monkeypatch.chdir(tmp_path)
    code, stdout, err = run(capsys, "grid", path, "--out", out)
    assert code == 2 and stdout == ""
    assert err == f"error: bad --out: need a path without NUL, got {out!r}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["job.json"]


def test_overflowing_scale_exits_3(capsys, tmp_path):
    job = inlined("job_square_t4.json")
    job["F"][0] = {"kind": "exp", "scale": 1e308}
    code, _, err = run(capsys, "check", write_job(tmp_path, job))
    assert code == 3 and "overflows" in err


@pytest.mark.parametrize("method", ["explicit", "special", "integral"])
def test_eval_of_overflowing_data_exits_3(capsys, method):
    # exp(800) overflows: no value to print, one error line naming the point.
    # The integral route stops at its first call, where the integrand is
    # not finite, rather than doubling to 4096 nodes.
    code, out, err = run(capsys, "eval", JOB_OK, "--point", "800", "0.1", "0.1", "--method", method)
    assert (code, out) == (3, "")
    assert err == "error: the value at (800.0, 0.1, 0.1) is not finite: the data overflow there\n"


@pytest.mark.parametrize("method", ["explicit", "integral"])
def test_eval_compare_of_overflowing_data_exits_3(capsys, method):
    code, out, err = run(capsys, "eval", JOB_OK, "--point", "800", "0.1", "0.1", "--method", method, "--compare")
    assert (code, out) == (3, "")
    assert err == "error: the value at (800.0, 0.1, 0.1) is not finite: the data overflow there\n"


@pytest.mark.parametrize("argv", [
    ["--method", "integral"],
    ["--method", "integral", "--compare"],
    ["--method", "explicit", "--compare"],
    ["--method", "special", "--compare"],
])
@pytest.mark.parametrize("job, x, centre", [(JOB_T4, "1e16", "(1e+16+0j)"), (JOB_OK, "1e17", "(1e+17+0j)")],
                         ids=["t4-1e16", "ss2-1e17"])
def test_contour_whose_nodes_round_onto_its_centre_exits_3(capsys, recwarn, job, x, centre, argv):
    # The radius-1 circle about x is lost in x's rounding, so its nodes
    # would round onto the centre and divide by zero.  The explicit route
    # alone has a value there: U_1 = 1e+32 on t4 at 1e16.
    code, out, err = run(capsys, "eval", job, "--point", x, "0", "0", *argv)
    assert (code, out) == (3, "")
    assert err == (f"error: no contour route at the point ({float(x)!r}, 0.0, 0.0): the circle of "
                   f"radius 1.0 about {centre} is narrower than the rounding of its centre, so its "
                   f"nodes round onto it\n")
    assert len(recwarn) == 0


def test_far_point_explicit_route_has_a_value(capsys):
    code, out, err = run(capsys, "eval", JOB_T4, "--point", "1e16", "0", "0")
    assert (code, err) == (0, "")
    assert values(out)[0] == 1e32


def test_negative_exponent_point_is_a_value(capsys):
    # -1e16 and -5e-324 are numbers, not options, whatever argparse's own
    # rule for negative numbers.
    point = (-1e16, -5e-324, -0.2)
    code, out, err = run(capsys, "eval", JOB_T4, "--point", *map(repr, point))
    assert (code, err) == (0, "")
    value = monogenic.eval_explicit(build_spec(load_job(JOB_T4)), point)
    assert values(out) == list(monogenic.extract_components(value))


@pytest.mark.parametrize("compare", [False, True])
@pytest.mark.parametrize("order", [171, 400, 700, 1500, 100000])
def test_integral_route_beyond_the_float_factorial_exits_3(capsys, monkeypatch, order, compare):
    # The contour route multiplies by r!, which is beyond the float range
    # from r = 171 on: no value, one error line, not an OverflowError.  The
    # order is refused before the route integrates: at 100000 the inverse
    # powers on the circle overflow too, yet the data are fine.
    monkeypatch.setattr(monogenic, "contour_integrate", refuse)
    argv = ["eval", JOB_OK, "--point", "0.3", "0.4", "-0.2", "--method", "integral", "--order", str(order)]
    code, out, err = run(capsys, *argv, *["--compare"] * compare)
    assert (code, out) == (3, "")
    assert err == f"error: {order}! overflows: the contour route has no value at order {order}\n"


def refuse(*args, **kwargs):
    raise AssertionError("the contour route integrated")


def truncated_job(n):
    """C[eps]/eps^n with exp and eps-linear data and a valid triad, as an inlined job."""
    return {
        "algebra": {"n": n, "m": 1, "u_map": {str(s): 1 for s in range(2, n + 1)},
                    "upsilon": [[r, s, r + s - 1, 1.0, 0.0] for r in range(2, n + 1) for s in range(r, n + 2 - r)]},
        "triad": {"a": [[0.0, 1.0], [1.0, 0.0]] + [[0.0, 0.0]] * (n - 2),
                  "b": [[0.5, 0.5], [0.0, 0.0], [1.0, 0.0]] + [[0.0, 0.0]] * (n - 3)},
        "F": [{"kind": "exp"}],
        "G": [{"kind": "poly", "coeffs": [0.0, 1.0]}] * (n - 1),
        "grid": {"x": [0.0, 0.1, 2], "y": [0.1, 0.2, 2], "z": [-0.1, 0.3, 2]},
    }


def test_algebra_with_a_radical_beyond_170_evaluates(capsys, tmp_path):
    # The explicit route's weights 1 / f! for f up to n - m = 171: 171! is
    # beyond the float range, and its reciprocal is subnormal.
    path = write_job(tmp_path, truncated_job(172))
    results = {}
    for method in ("explicit", "special", "integral"):
        code, out, err = run(capsys, "eval", path, "--point", "0.1", "0.2", "0.3", "--method", method)
        assert (code, err) == (0, ""), method
        results[method] = np.array(values(out))
        assert len(results[method]) == 172 and np.all(np.isfinite(results[method])), method
    for method in ("special", "integral"):
        dev = np.max(np.abs(results[method] - results["explicit"]))
        assert dev <= 1e-10 * (1 + np.max(np.abs(results["explicit"]))), method
    out_file = tmp_path / "grid.csv"
    code, out, err = run(capsys, "grid", path, "--out", str(out_file))
    assert (code, err) == (0, "")
    assert out_file.read_text().count("\n") == 9


def refused_allocation(self):
    raise MemoryError("Unable to allocate 402. GiB for an array with shape (3000, 3000, 3000) "
                      "and data type complex128")


@pytest.mark.parametrize(
    "attr, argv",
    [
        # The integral route's product tensor holds n^3 values: at n = 3,000
        # numpy refuses it.
        ("mult_tensor", ["eval", "--method", "integral"]),
        ("mult_tensor", ["eval", "--method", "integral", "--compare"]),
        # Every command reads the algebra's nonzero products.
        ("products", ["validate"]),
        ("products", ["check"]),
        ("products", ["eval"]),
        ("products", ["grid"]),
    ],
    ids=["integral", "integral-compare", "validate", "check", "eval", "grid"],
)
def test_out_of_memory_exits_2(capsys, monkeypatch, tmp_path, attr, argv):
    monkeypatch.setattr(AlgebraSpec, attr, property(refused_allocation))
    extra = {"eval": ["--point", "0.3", "0.4", "-0.2"], "grid": ["--out", str(tmp_path / "grid.csv")]}
    code, out, err = run(capsys, argv[0], JOB_OK, *argv[1:], *extra.get(argv[0], []))
    assert (code, out) == (2, "")
    assert err == ("error: the job does not fit in memory (Unable to allocate 402. GiB for an array "
                   "with shape (3000, 3000, 3000) and data type complex128)\n")
    assert not (tmp_path / "grid.csv").exists()


def test_grid_of_overflowing_data_exits_3_and_writes_nothing(capsys, tmp_path):
    path = laplace_job(tmp_path, pin=True, grid=dict(LAPLACE_JOB["grid"], x=[700, 800, 2]))
    out = tmp_path / "grid.csv"
    code, _, err = run(capsys, "grid", path, "--out", str(out))
    assert code == 3 and not out.exists()
    assert err == "error: the value at (800.0, -1.0, -1.0) is not finite: the data overflow there\n"


# check's whole stdout and exit code on four jobs, as printed before the
# per-job set-up (validation, term list, symbol scan, triad test) was
# rewritten to fewer array passes; tests/data holds the two generated jobs.
PINNED_CHECK = {
    "job_laplace_ss2": (0, """\
PASS algebra axioms
PASS triad
PASS Cauchy-Riemann at (0.3, 0.4, -0.2)  (residual 2.258e-11)
PASS Cauchy-Riemann at (-0.5, 0.1, 0.7)  (residual 4.823e-11)
PASS Cauchy-Riemann at (0.9, -0.6, 0.2)  (residual 8.226e-11)
PASS characteristic residual  (4.441e-16)
P(a,b) scan: NoZeroFound
PASS PDE residual at (0.3, 0.4, -0.2)  (1.473e-11)
PASS PDE residual at (-0.5, 0.1, 0.7)  (3.124e-11)
PASS PDE residual at (0.9, -0.6, 0.2)  (5.302e-11)
PASS operator identity  (1.473e-11)
"""),
    "job_broken_triad": (1, """\
PASS algebra axioms
FAIL triad
PASS Cauchy-Riemann at (0.3, 0.4, -0.2)  (residual 6.384e-11)
FAIL characteristic residual  (2.100e+01)
P(a,b) scan: NoZeroFound
"""),
    # Laplace-characteristic on C[eps]/eps^16 (n = 16, m = 1).
    "job_laplace_eps16": (0, """\
PASS algebra axioms
PASS triad
PASS Cauchy-Riemann at (-0.1910403379581106, -0.5314899876449024, -0.32423604371786685)  (residual 1.029e-10)
PASS Cauchy-Riemann at (0.11494474025627532, 0.5091596283812118, -0.33127525378751443)  (residual 5.766e-11)
PASS characteristic residual  (5.551e-16)
P(a,b) scan: NoZeroFound
PASS PDE residual at (-0.1910403379581106, -0.5314899876449024, -0.32423604371786685)  (8.146e-11)
PASS PDE residual at (0.11494474025627532, 0.5091596283812118, -0.33127525378751443)  (4.927e-11)
PASS operator identity  (8.146e-11)
"""),
    # C[eps]/eps^6 with 0.5 added to Re b_2: not characteristic.
    "job_noncharacteristic_eps6": (1, """\
PASS algebra axioms
PASS triad
PASS Cauchy-Riemann at (-0.06796890047869475, -0.022565874702173503, 0.01529371662762724)  (residual 4.225e-12)
PASS Cauchy-Riemann at (-0.15371483368003835, -0.4123626230200045, 0.011932407467607375)  (residual 4.800e-12)
FAIL characteristic residual  (1.856e+00)
P(a,b) scan: NoZeroFound
"""),
}


@pytest.mark.parametrize("name", list(PINNED_CHECK))
def test_check_output_is_pinned(capsys, name):
    path = fixture_path(f"{name}.json")
    if not path.exists():
        path = Path(__file__).parent / "data" / f"{name}.json"
    code, out, _ = run(capsys, "check", str(path))
    assert (code, out) == PINNED_CHECK[name]


def fail_labels(out):
    """The label of every FAIL line, without its point and figure."""
    return [line[5:].split("  (")[0].split(" at ")[0] for line in out.splitlines() if line.startswith("FAIL")]


@pytest.mark.parametrize("name, factor, fails", [
    ("job_laplace_eps16", 1.0001, ["Cauchy-Riemann"] * 2),
    ("job_laplace_eps16", 1.01, ["Cauchy-Riemann"] * 2 + ["PDE residual"] * 2 + ["operator identity"]),
    ("job_square_t4", 1.0001, ["Cauchy-Riemann"]),
], ids=["eps16-b-1.0001", "eps16-b-1.01", "t4-b-1.0001"])
def test_faults_keep_their_fail_lines(capsys, monkeypatch, name, factor, fails):
    # A B table off by a factor (a fault in the explicit route's resolvent
    # coefficients) makes Phi no longer monogenic: exit 1 and exactly these
    # FAIL lines.  The non-characteristic and broken triads' FAIL lines are
    # pinned above.
    from monogenica import resolvent

    path = fixture_path(f"{name}.json")
    if not path.exists():
        path = Path(__file__).parent / "data" / f"{name}.json"
    b_coeffs = resolvent.b_coeffs
    monkeypatch.setattr(resolvent, "b_coeffs", lambda spec, T: b_coeffs(spec, T) * factor)
    code, out, _ = run(capsys, "check", str(path))
    assert (code, fail_labels(out)) == (1, fails)


@pytest.mark.parametrize("s", [10, 30, 60])
def test_steep_harmonic_data_pass(capsys, tmp_path, s):
    # F = (exp(s xi / 10), sin(s xi)) on the Laplace triad is monogenic and
    # harmonic, so every line passes, however steep the data: the partials
    # have no step whose truncation (of order h^2 s^4 for central
    # differences) grows with s.
    code, out, _ = run(capsys, "check", laplace_job(tmp_path, F=[{"kind": "exp", "scale": s / 10},
                                                                 {"kind": "sin", "scale": s}]))
    assert code == 0 and fail_labels(out) == [] and out.count("PASS") == 10


# Values that replace values of a bundled job: any JSON, small and bounded.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 8) | st.text(max_size=3)
    | st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from([1e308, -1e-300]),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


@st.composite
def mutated_jobs(draw):
    """A bundled job, algebra inlined, with one to three values replaced or deleted."""
    job = inlined(draw(st.sampled_from(["job_laplace_ss2.json", "job_square_t4.json",
                                        "job_broken_triad.json"])))
    for _ in range(draw(st.integers(1, 3))):
        if not isinstance(job, (dict, list)) or not job:
            break
        node = job
        while True:
            keys = list(node) if isinstance(node, dict) else list(range(len(node)))
            key = draw(st.sampled_from(keys))
            child = node[key]
            if not isinstance(child, (dict, list)) or not child or draw(st.booleans()):
                break
            node = child
        if draw(st.integers(0, 4)) == 0:
            del node[key]
        else:
            node[key] = draw(JSON_VALUES)
    if isinstance(job, dict) and isinstance(job.get("algebra"), dict):
        algebra = job["algebra"]
        for key in ("n", "m"):  # small algebras only
            if isinstance(algebra.get(key), (int, float)) and not abs(algebra[key]) <= 8:
                algebra[key] = 8
    return job


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(job=mutated_jobs(), order=st.integers(0, 3))
def test_mutated_jobs_map_to_exit_codes(capsys, tmp_path, job, order):
    path = write_job(tmp_path, job)
    point = ["--point", "0.3", "0.4", "-0.2", "--order", str(order)]
    runs = [["validate", path], ["check", path]]
    runs += [["eval", path, *point, "--method", method] for method in ("explicit", "integral", "special")]
    for argv in runs:
        code = main(argv)
        assert code in range(5), argv
    capsys.readouterr()


COORDINATES = st.sampled_from(EXTREMES) | st.sampled_from([0.3, 0.4, -0.2, -0.5])


@st.composite
def contract_cases(draw):
    """(job, argv): a bundled job, algebra inlined, and one command on it with extreme numbers.

    eval takes a drawn point and order (up to 400) on each route, with or
    without --compare; check takes one to three drawn job points; grid takes
    drawn axes of two or three values.  The argv's job path and grid out
    are "JOB" and "OUT", for the test to fill in.
    """
    job = inlined(draw(st.sampled_from(["job_laplace_ss2.json", "job_square_t4.json",
                                        "job_broken_triad.json"])))
    point = [draw(COORDINATES) for _ in range(3)]
    command = draw(st.sampled_from(["eval", "check", "grid"]))
    if command == "eval":
        order = draw(st.integers(0, 400) | st.sampled_from([0, 1, 2, 3, 20, 170, 171, 400]))
        argv = ["eval", "JOB", "--point", *map(repr, point), "--order", str(order),
                "--method", draw(st.sampled_from(["explicit", "integral", "special"]))]
        argv += ["--compare"] * draw(st.booleans())
    elif command == "check":
        # One to three points, extremes among them: a circle lost in the
        # rounding of y or z, or data that overflow on one.
        job["points"] = [point] + [[draw(COORDINATES) for _ in range(3)] for _ in range(draw(st.integers(0, 2)))]
        argv = ["check", "JOB"]
    else:
        job["grid"] = {axis: sorted([draw(COORDINATES), draw(COORDINATES)]) + [draw(st.integers(2, 3))]
                       for axis in "xyz"}
        argv = ["grid", "JOB", "--out", "OUT"]
    return job, argv


def printed_numbers(text):
    """Every token of text that float() reads, a U_k line's imaginary part without its i."""
    numbers = []
    for token in re.split(r"[\s,()=]+", text):
        try:
            numbers.append(float(token[:-1] if token.endswith("i") else token))
        except ValueError:
            pass
    return numbers


@settings(max_examples=400, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=contract_cases())
def test_every_input_gives_one_exit_code_and_one_error_line(capsys, tmp_path, case):
    # No warning filter: a warning fails the test as an exception.
    job, argv = case
    out_file = tmp_path / "grid.csv"
    argv = [write_job(tmp_path, job) if a == "JOB" else str(out_file) if a == "OUT" else a for a in argv]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, *argv)
    assert code in range(5), argv
    if code == 0:
        assert err == "", argv
        assert all(map(math.isfinite, printed_numbers(out))), (argv, out)
        if argv[0] == "grid":
            fields = out_file.read_text().splitlines()[1:]
            assert all(math.isfinite(float(v)) for row in fields for v in row.split(",")), argv
    elif code >= 2:
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), (argv, err)
    out_file.unlink(missing_ok=True)


# Values a library caller may pass where a number, a list or a spec is due.
LIBRARY_VALUES = st.sampled_from([
    *EXTREMES, math.inf, -math.inf, math.nan, np.inf, float("inf"), True, False, None, "", "2", "exp",
    -1, 0, 1, 2, 3, 170, 171, 10**400, 2.0, 1.5, np.int64(2), np.int64(-1), np.float64(0.5),
    np.float64(math.nan), np.complex128(1j), np.complex128(complex(1.0, math.inf)), np.bool_(True),
    [], [1.0], [0.0, 1.0], [[1.0, 0.0]], [2, 2, 3, 1.0], [[2, 2, 3, 1.0]], {"kind": "exp"},
])


def library_calls() -> dict:
    """name: (callable, args, kwargs, the paths it may change, None for every path).

    Every public constructor and loader on valid data, and the four routes
    on job_square_t4 at one valid point, where only the order may change.
    """
    from monogenica import (MonogenicSpec, PdeSpec, TriadSpec, algebra_from_dict,
                            eval_explicit, eval_integral, eval_special, gateaux_derivative,
                            holo_from_dict, monogenic_from_dict, pde_from_dict)

    job = inlined("job_square_t4.json")
    ms = build_spec(load_job(JOB_T4))
    kw = {"amp": 0.5, "scale": 2j, "shift": [0.1, 0.0]}
    laplace = [[2, 0, 0, 1.0], [0, 2, 0, 1.0], [0, 0, 2, 1.0]]
    calls = {
        "AlgebraSpec.create": (AlgebraSpec.create, [4, 1, [[2, 2, 3, 1.0], [2, 3, 4, 1j]],
                                                    {2: 1, 3: 1, 4: 1}], {}, None),
        "algebra_from_dict": (algebra_from_dict, [job["algebra"]], {}, None),
        "TriadSpec.create": (TriadSpec.create, [[2j, 1j], [math.sqrt(3.0), 0.0]], {}, None),
        "HoloFn": (HoloFn, ["series", [1.0, 0.5j], 0.1j, 50.0, 0.7, 1.0, 0.0], {}, None),
        "HoloFn.poly": (HoloFn.poly, [[1.0, 2.0]], kw, None),
        "HoloFn.exp": (HoloFn.exp, [], kw, None),
        "HoloFn.sin": (HoloFn.sin, [], kw, None),
        "HoloFn.cos": (HoloFn.cos, [], kw, None),
        "HoloFn.series": (HoloFn.series, [0.1j, [1.0, 0.5], 50.0], kw, None),
        "holo_from_dict": (holo_from_dict, [{"kind": "series", "coeffs": [[1.0, 0.0], 0.5],
                                             "center": [0.1, 0.0], "radius": 50.0, **kw}], {}, None),
        "MonogenicSpec.create": (MonogenicSpec.create, [ms.algebra, ms.triad, list(ms.F), list(ms.G)],
                                 {}, None),
        "monogenic_from_dict": (monogenic_from_dict, [{key: job[key] for key in ("algebra", "triad", "F", "G")}],
                                {}, None),
        "PdeSpec.create": (PdeSpec.create, [2, laplace], {}, None),
        "pde_from_dict": (pde_from_dict, [{"N": 2, "terms": laplace}], {}, None),
    }
    for route, order in ((eval_explicit, 0), (eval_integral, 0), (eval_special, 0), (gateaux_derivative, 1)):
        calls[route.__name__] = (route, [ms, (0.3, 0.4, -0.2), order], {}, [(0, 2)])
    return calls


LIBRARY_CALLS = library_calls()


def tree_paths(node, path=()):
    """The path of every node below node: list indices and dict keys."""
    items = enumerate(node) if isinstance(node, list) else node.items() if isinstance(node, dict) else ()
    for key, child in items:
        yield path + (key,)
        yield from tree_paths(child, path + (key,))


def replaced(node, path, value):
    """node with the node at path replaced by value; the rest is shared, not copied."""
    if not path:
        return value
    if isinstance(node, list):
        return [replaced(v, path[1:], value) if i == path[0] else v for i, v in enumerate(node)]
    return {k: replaced(v, path[1:], value) if k == path[0] else v for k, v in node.items()}


@st.composite
def library_cases(draw):
    """(name, callable, args, kwargs): one entry of LIBRARY_CALLS with up to two of its nodes replaced."""
    name = draw(st.sampled_from(sorted(LIBRARY_CALLS)))
    fn, args, kwargs, mutable = LIBRARY_CALLS[name]
    tree = [args, kwargs]
    for _ in range(draw(st.integers(0, 2))):
        # Below the args and kwargs themselves: an argument or a part of one.
        path = draw(st.sampled_from(mutable or [p for p in tree_paths(tree) if len(p) > 1]))
        value = draw(LIBRARY_VALUES)
        # A string algebra is a file path, and a missing file is an OSError.
        assume(not (name == "monogenic_from_dict" and path == (0, 0, "algebra") and isinstance(value, str)))
        tree = replaced(tree, path, value)
    return name, fn, *tree


def holds_finite_numbers(obj) -> bool:
    """Whether every number a spec, a container or an array holds is a finite int, float or complex.

    A spec's private fields are skipped, and so are a HoloFn's kind, a
    name, and a radius of +inf, the default, which caps nothing.
    """
    if dataclasses.is_dataclass(obj):
        return all(holds_finite_numbers(getattr(obj, f.name)) for f in dataclasses.fields(obj)
                   if not f.name.startswith("_") and not (isinstance(obj, HoloFn) and (
                       f.name == "kind" or f.name == "radius" and obj.radius == math.inf)))
    if isinstance(obj, (tuple, list)):
        return all(map(holds_finite_numbers, obj))
    if isinstance(obj, dict):
        return all(map(holds_finite_numbers, [*obj, *obj.values()]))
    if isinstance(obj, np.ndarray):
        return obj.dtype.kind in "fc" and bool(np.isfinite(obj).all())
    return type(obj) is int or type(obj) in (float, complex) and cmath.isfinite(obj)


@settings(max_examples=800, deadline=None, derandomize=True, database=None)
@given(case=library_cases())
def test_every_library_input_gives_finite_numbers_or_one_error(case):
    # Each call returns an object that holds only finite numbers or raises
    # ValueError, AlgebraError or HoloDomainError; any other exception, or
    # a warning (an error here), fails the test.
    name, fn, args, kwargs = case
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            got = fn(*args, **kwargs)
        except (ValueError, AlgebraError, HoloDomainError):
            return
    assert holds_finite_numbers(got), (name, args, kwargs, got)


def counting_validations(monkeypatch) -> list:
    """Record every validate_algebra call, where algebra and cli look it up."""
    from monogenica import algebra, cli

    calls = []
    validate = algebra.validate_algebra

    def counting(spec):
        calls.append(spec)
        return validate(spec)

    monkeypatch.setattr(algebra, "validate_algebra", counting)
    monkeypatch.setattr(cli, "validate_algebra", counting)
    return calls


def test_check_validates_algebra_once(capsys, monkeypatch):
    calls = counting_validations(monkeypatch)
    code, out, _ = run(capsys, "check", JOB_OK)
    assert code == 0 and "PASS algebra axioms" in out
    assert len(calls) == 1


def test_validate_validates_algebra_once(capsys, monkeypatch):
    calls = counting_validations(monkeypatch)
    code, out, _ = run(capsys, "validate", JOB_OK)
    assert code == 0 and "PASS algebra axioms" in out
    assert len(calls) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", JOB_OK, "--point", "0.3", "0.4", "-0.2", "--order", "1", "--nodes", "8"],
        ["eval", JOB_OK, "--point", "0.3", "0.4", "-0.2", "--method", "integral", "--nodes", "64"],
        ["check", JOB_OK, "--nodes", "8"],
        ["grid", JOB_OK, "--nodes", "999"],
        ["validate", JOB_OK, "--nodes", "8"],
        ["eval", JOB_OK, "--point", "0.3", "0.4", "-0.2", "--order", "-1"],
        ["eval", JOB_OK, "--point", "nan", "0.4", "0.1"],
        ["eval", JOB_OK, "--point", "0.3", "inf", "0.1"],
        ["check", JOB_OK, "--h-cr", "nan"],
        ["check", JOB_OK, "--h-pde", "0"],
        ["check", JOB_OK, "--h-cr=-1e-3"],
        ["check", JOB_OK, "--h-pde", "inf"],
        ["check", JOB_OK, "--tol-pde", "inf"],
        ["check", JOB_OK, "--tol-cr", "inf"],
        ["check", JOB_OK, "--tol-cr", "nan"],
        ["check", JOB_OK, "--tol-cr=-1"],
        ["check", JOB_OK, "--tol-pde", "0"],
        ["check", JOB_OK, "--h", "1e-6"],
        ["grid", JOB_OK, "--h", "1e-3", "--out", "unwritten.csv"],
        ["eval", JOB_OK, "--point", "0.3", "0.4", "-0.2", "--h", "1e-3"],
        ["validate", JOB_OK, "--h", "1e-3"],
    ],
    ids=["eval-nodes", "eval-integral-nodes", "check-nodes", "grid-nodes", "validate-nodes",
         "negative-order", "nan-point", "inf-point", "nan-h", "zero-h", "negative-h", "inf-h-pde",
         "inf-tol-pde", "inf-tol-cr", "nan-tol-cr", "negative-tol-cr", "zero-tol-pde", "old-h",
         "grid-old-h", "eval-old-h", "validate-old-h"],
)
def test_bad_numeric_options_exit_2(capsys, monkeypatch, tmp_path, argv):
    # The job's out is relative: grid would write it in the working directory.
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error: ")
    assert "Traceback" not in err and "U_1" not in out
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "job, points, rows",
    [(JOB_OK, None, 15), (JOB_OK, [[0.3, 0.4, -0.2]], 15),
     (JOB_OK, [[0.1 * k, 0.2, -0.1 * k] for k in range(1, 6)], 15),
     (JOB_T4, None, 14), (JOB_T4, [[0.1 * k, 0.2, -0.1 * k] for k in range(1, 6)], 14)],
    ids=["ss2", "ss2-1pt", "ss2-5pt", "t4", "t4-5pt"],
)
def test_check_batches_explicit_calls(capsys, monkeypatch, tmp_path, job, points, rows):
    # One call per job on one stencil, point by point: the value at order 0,
    # Phi' at the point and 6 on each of the circles in y and z, and with a
    # pde Phi'' at the point, which is also Phi^(N) of the operator identity.
    from monogenica import monogenic, pde

    seen = []
    explicit = monogenic.eval_explicit

    def counting(ms, p, order=0):
        seen.append((np.shape(p), order))
        return explicit(ms, p, order=order)

    monkeypatch.setattr(monogenic, "eval_explicit", counting)
    monkeypatch.setattr(pde, "eval_explicit", counting)
    stacks = []

    class CountingStack(monogenic.DerivativeStack):
        def __init__(self, *args):
            stacks.append(args[1:])
            super().__init__(*args)

    monkeypatch.setattr(monogenic, "DerivativeStack", CountingStack)
    data = json.loads(open(job).read())
    if points is not None:
        data["points"] = points
        data["algebra"] = str(fixture_path(data["algebra"]))
        job = str(tmp_path / "job.json")
        open(job, "w").write(json.dumps(data))
    code, out, _ = run(capsys, "check", job)
    assert code == 0 and "FAIL" not in out
    npts = len(data["points"])
    assert len(seen) == 1
    shape, order = seen[0]
    samples = [0, 1] + [0] * 12 + [2] * ("pde" in data)
    assert shape == (npts * rows, 3)
    assert np.array_equal(order, samples * npts)
    # One derivative table, from order 0, N = 2 orders wider with a pde, 1 without.
    K = build_spec(load_job(job)).algebra.explicit_plan.orders
    assert len(stacks) == 1 and stacks[0][1] == 0
    assert np.array_equal(stacks[0][0], K + (2 if "pde" in data else 1))


def laplace_c16_job():
    """A Laplace job on C[eps]/(eps^16): e2 = 2i + eps, e3 = sqrt(-1 - e2^2).

    The square root is the binomial series of sqrt(3) * sqrt(1 + x), which
    ends since x = (-1 - e2^2) / 3 - 1 is nilpotent.
    """
    from math import comb

    from monogenica import algebra_from_dict

    n = 16
    alg = {"n": n, "m": 1, "u_map": {str(s): 1 for s in range(2, n + 1)},
           "upsilon": [[r, s, r + s - 1, 1.0, 0.0]
                       for r in range(2, n + 1) for s in range(r, n + 2 - r)]}
    spec = algebra_from_dict(alg)
    e2 = 2j * spec.unit() + basis(spec, 2)
    x = (-spec.unit() - spec.multiply(e2, e2)) / 3.0 - spec.unit()
    e3 = np.zeros(n, dtype=complex)
    for k in range(n):
        # binomial(1/2, k) = (-1)^(k+1) C(2k, k) / (4^k (2k - 1))
        e3 += (-1) ** (k + 1) * comb(2 * k, k) / (4**k * (2 * k - 1)) * spec.power(x, k)
    e3 *= np.sqrt(3.0)
    kinds = [{"kind": "exp"}, {"kind": "sin"}, {"kind": "cos"}, {"kind": "poly", "coeffs": [1.0, 0.5]}]
    return {
        "algebra": alg,
        "triad": {"a": [[v.real, v.imag] for v in e2], "b": [[v.real, v.imag] for v in e3]},
        "F": [{"kind": "exp", "scale": 0.5}],
        "G": [kinds[s % 4] for s in range(n - 1)],
        "pde": {"N": 2, "terms": [[2, 0, 0, 1.0], [0, 2, 0, 1.0], [0, 0, 2, 1.0]]},
        "points": [[0.1, 0.2, -0.1], [-0.2, 0.05, 0.15], [0.3, -0.1, 0.2]],
    }


@pytest.mark.parametrize("name", ["ss2", "t4", "c16"])
def test_merged_samples_match_separate_calls(capsys, tmp_path, name):
    # check's one stencil gives the values, residuals, Phi^(N) and identity
    # of separate calls, bit for bit.
    from monogenica import cli
    from monogenica.pde import LAPLACE, operator_identity_check, pde_residual

    if name == "c16":
        job = laplace_c16_job()
        path = write_job(tmp_path, job)
        code, out, _ = run(capsys, "check", path)
        assert code == 0 and "FAIL" not in out and "PASS operator identity" in out
        ms = cli.build_spec(cli.load_job(path))
    else:
        ms = cli.build_spec(cli.load_job(JOB_OK if name == "ss2" else JOB_T4))
        job = {"points": [[0.3, 0.4, -0.2], [-0.5, 0.1, 0.7], [0.9, -0.6, 0.2]]}
    pts = np.array(job["points"])
    values, (ry, rz), r, partials = cli.check_samples(ms, pts, LAPLACE)
    assert np.array_equal(values, monogenic.eval_explicit(ms, pts))
    sy, sz = monogenic.cr_residual(ms, pts)
    assert np.array_equal(ry, sy) and np.array_equal(rz, sz)
    assert np.array_equal(r, pde_residual(ms, LAPLACE, pts))
    assert np.array_equal(partials[:, -1], monogenic.gateaux_derivative(ms, pts, LAPLACE.N))
    for p, row in zip(pts, partials):
        assert np.array_equal(operator_identity_check(ms, LAPLACE, p, partials=row),
                              operator_identity_check(ms, LAPLACE, p))
    values_cr, cr, none, no_partials = cli.check_samples(ms, pts)
    assert none is None and no_partials is None and np.array_equal(values_cr, values)
    assert np.array_equal(cr[0], sy) and np.array_equal(cr[1], sz)
