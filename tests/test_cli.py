import json
import re

import numpy as np
import pytest

from monogenica.cli import main
from monogenica.fixtures import fixture_path


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


JOB_OK = str(fixture_path("job_laplace_ss2.json"))
JOB_BAD = str(fixture_path("job_broken_triad.json"))
JOB_T4 = str(fixture_path("job_square_t4.json"))


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

    def test_exactly_coincident_spectrum_is_fine(self, capsys):
        # y = z = 0 collapses every xi_u to x; the shared-contour path
        # still evaluates (both idempotents share one cluster).
        code, out, _ = run(
            capsys, "eval", JOB_OK, "--point", "0.5", "0.0", "0.0", "--method", "integral"
        )
        assert code == 0
        match = re.match(r"U_1 = (\S+) (\S+)i$", out.splitlines()[0])
        assert abs(complex(float(match.group(1)), float(match.group(2))) - np.exp(0.5)) < 1e-10

    def test_near_coincident_spectrum_exit_code(self, capsys, tmp_path):
        # xi_1 and xi_2 a hair apart cannot be separated by contours.
        job = json.loads(fixture_path("job_laplace_ss2.json").read_text())
        job["triad"]["a"] = [[0.0, 1.0], [1e-11, 1.0]]
        path = tmp_path / "job.json"
        path.write_text(json.dumps(job))
        code, _, err = run(
            capsys, "eval", str(path), "--point", "0.5", "1.0", "0.0", "--method", "integral"
        )
        assert code == 3
        assert "error:" in err


    def test_unconverged_quadrature_fails(self, capsys):
        # xi_2 - xi_1 = 1e-6 i: the third derivative's contour does not converge.
        code, out, err = run(
            capsys, "eval", JOB_OK, "--point", "0.3", "1e-6", "0", "--order", "3"
        )
        assert code == 1
        assert "error:" in err and "did not stabilize" in err
        assert "U_1" not in out

    def test_domain_overrun_exit_code(self, capsys, tmp_path):
        # A series F of radius 1 centred on xi: the integral route's contour
        # leaves the series' safe disc.
        point = (0.2, 0.3, -0.1)
        xi = point[0] + point[1] * 1j + point[2] * complex(0.3, 0.2)
        job = {
            "algebra": "alg_d2.json",
            "triad": {"a": [[0.0, 1.0], [1.0, 0.0]], "b": [[0.3, 0.2], [0.5, 0.0]]},
            "F": [{"kind": "series", "center": [xi.real, xi.imag], "radius": 1.0,
                   "coeffs": [1.0, 0.5, 0.25, 0.125]}],
            "G": [{"kind": "exp"}],
        }
        path = tmp_path / "job.json"
        path.write_text(json.dumps(job))
        argv = ["eval", str(path), "--point"] + [str(v) for v in point]
        assert run(capsys, *argv)[0] == 0
        code, _, err = run(capsys, *argv, "--method", "integral")
        assert code == 3
        assert "error:" in err and "series" in err


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

    def test_grid_without_out_fails(self, capsys, tmp_path):
        job = json.loads(fixture_path("job_laplace_ss2.json").read_text())
        del job["out"]
        path = tmp_path / "job.json"
        path.write_text(json.dumps(job))
        code, _, err = run(capsys, "grid", str(path))
        assert code == 2
        assert "no output path" in err

    def test_grid_io_error(self, capsys):
        code, _, err = run(capsys, "grid", JOB_OK, "--out", "/nonexistent-dir/x.csv")
        assert code == 4


class TestCheck:
    def test_good_job_all_pass(self, capsys):
        code, out, _ = run(capsys, "check", JOB_OK)
        assert code == 0
        assert "FAIL" not in out
        assert "PASS characteristic residual" in out
        assert "P(a,b) scan: NoZeroFound" in out
        assert "PASS operator identity" in out

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

    def test_unconverged_quadrature_fails_operator_identity(self, capsys, tmp_path):
        # xi_2 - xi_1 = 1e-7 i: Phi'' from the contour route does not converge,
        # and the characteristic sum (about 1e-16) would hide any value of it.
        job = json.loads(fixture_path("job_laplace_ss2.json").read_text())
        job["points"] = [[0.3, 1e-7, 0.0]]
        path = tmp_path / "job.json"
        path.write_text(json.dumps(job))
        code, out, _ = run(capsys, "check", str(path))
        assert code == 1
        assert "FAIL operator identity  (quadrature did not converge)" in out
        assert "PASS operator identity" not in out


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

    def test_wrong_function_count(self, capsys, tmp_path):
        job = json.loads(fixture_path("job_laplace_ss2.json").read_text())
        job["F"] = job["F"][:1]
        path = tmp_path / "job.json"
        path.write_text(json.dumps(job))
        code, _, err = run(capsys, "validate", str(path))
        assert code == 2
        assert "bad job spec" in err

    def test_unknown_algebra_name(self, capsys, tmp_path):
        job = json.loads(fixture_path("job_laplace_ss2.json").read_text())
        job["algebra"] = "no_such_algebra.json"
        path = tmp_path / "job.json"
        path.write_text(json.dumps(job))
        code, _, err = run(capsys, "validate", str(path))
        assert code == 2

    @pytest.mark.parametrize(
        "points",
        [[], [[0.1, 0.2]], [[0.1, 0.2, 0.3, 0.4]], [[0.1, float("nan"), 0.3]],
         [[0.1, "y", 0.3]], [0.1, 0.2, 0.3]],
        ids=["empty", "two-coords", "four-coords", "nan", "not-a-number", "flat-list"],
    )
    def test_bad_points(self, capsys, tmp_path, points):
        job = json.loads(fixture_path("job_laplace_ss2.json").read_text())
        job["points"] = points
        path = tmp_path / "job.json"
        path.write_text(json.dumps(job))
        code, out, err = run(capsys, "check", str(path))
        assert code == 2
        assert "error: bad point" in err
        assert "Traceback" not in err

    def test_bad_holomorphic_data(self, capsys, tmp_path):
        for bad in ({"kind": "tan"}, {"kind": "series", "coeffs": [1.0], "radius": 0.0}):
            job = json.loads(fixture_path("job_laplace_ss2.json").read_text())
            job["F"][0] = bad
            path = tmp_path / "job.json"
            path.write_text(json.dumps(job))
            code, _, err = run(capsys, "eval", str(path), "--point", "0.3", "0.4", "-0.2")
            assert code == 2, bad
            assert "bad job spec" in err


def test_check_validates_algebra_once(capsys, monkeypatch):
    from monogenica import algebra, cli

    calls = []
    validate = algebra.validate_algebra

    def counting(spec):
        calls.append(spec)
        return validate(spec)

    monkeypatch.setattr(algebra, "validate_algebra", counting)
    monkeypatch.setattr(cli, "validate_algebra", counting)
    code, out, _ = run(capsys, "check", JOB_OK)
    assert code == 0 and "PASS algebra axioms" in out
    assert len(calls) == 1
