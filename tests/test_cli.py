"""Command-line interface: file formats, exit codes, round trips."""

import csv
import io
import json
import math
import sys

import numpy as np
import pytest

from circmaxent.cli import main
from circmaxent import BandData, BlockCirculant, project_band_gram, random_feasible_band, scalar_bw1_feasible
from helpers import certificate_holds, channel_band, completion_residuals, is_symmetric


def write_problem(path, m, n, N, blocks):
    payload = {"m": m, "n": n, "N": N, "blocks": blocks}
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def white_problem(tmp_path):
    return write_problem(tmp_path / "white.json", 1, 1, 8, [[1.0], [0.0]])


@pytest.fixture
def n4_problem(tmp_path):
    return write_problem(tmp_path / "n4.json", 1, 1, 4, [[1.0], [0.3]])


@pytest.fixture
def infeasible_problem(tmp_path):
    return write_problem(tmp_path / "inf.json", 1, 1, 7, [[1.0], [-0.91]])


class TestSolveCommand:
    def test_white_noise_identity_solution(self, white_problem, tmp_path, capsys):
        out = tmp_path / "sol.json"
        assert main(["solve", white_problem, "-o", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["m"] == 1 and payload["N"] == 8
        row = np.array(payload["first_block_row"], dtype=float).ravel()
        assert abs(row[0] - 1.0) < 1e-10
        assert np.abs(row[1:]).max() < 1e-10
        assert payload["diagnostics"]["iterations"] <= 1
        assert payload["diagnostics"]["status"] == "converged"
        assert out.read_text().count("\n") == 1  # compact JSON, one line

    def test_n4_solution_row(self, n4_problem, tmp_path):
        out = tmp_path / "sol.json"
        assert main(["solve", n4_problem, "-o", str(out), "--tol", "1e-11"]) == 0
        row = np.array(json.loads(out.read_text())["first_block_row"], dtype=float).ravel()
        x_star = (-1 + math.sqrt(1.72)) / 2
        assert np.abs(row - [1.0, 0.3, x_star, 0.3]).max() < 1e-8

    def test_infeasible_exit_code(self, infeasible_problem, capsys):
        assert main(["solve", infeasible_problem]) == 2
        assert "infeasible" in capsys.readouterr().err

    def test_parse_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["solve", str(bad)]) == 1
        missing = tmp_path / "missing.json"
        assert main(["solve", str(missing)]) == 1
        short = tmp_path / "short.json"
        short.write_text(json.dumps({"m": 1, "n": 1, "N": 3, "blocks": [[1.0], [0.1]]}))
        assert main(["solve", str(short)]) == 1  # violates N >= 2n+2

    @pytest.mark.parametrize("command", ["solve", "feas"])
    @pytest.mark.parametrize("field, value", [
        ("blocks", 5),
        ("blocks", [["a"], [0.3]]),
        ("blocks", [{"a": 1.0}, [0.3]]),
        ("m", 1.7),
        ("m", True),
    ])
    def test_malformed_problem_exits_1(self, command, field, value, tmp_path, capsys):
        payload = {"m": 1, "n": 1, "N": 8, "blocks": [[1.0], [0.3]], field: value}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        assert main([command, str(path), "-o", str(tmp_path / "out.json")]) == 1
        assert "error: problem file" in capsys.readouterr().err

    def test_ips_tol_zero_is_not_the_default(self, n4_problem, tmp_path, capsys):
        # --tol 0 asks for an exact clique match, which rounding never gives,
        # not for the default 1e-9
        out = str(tmp_path / "sol.json")
        assert main(["solve", n4_problem, "-o", out, "--method", "ips", "--max-cycles", "20"]) == 0
        assert main(["solve", n4_problem, "-o", out, "--method", "ips", "--max-cycles", "20", "--tol", "0"]) == 3
        assert "after 20 cycles" in capsys.readouterr().err

    def test_solution_round_trip_and_rerun(self, n4_problem, tmp_path):
        out = tmp_path / "sol.json"
        assert main(["solve", n4_problem, "-o", str(out), "--tol", "1e-11"]) == 0
        payload = json.loads(out.read_text())
        N, m = payload["N"], payload["m"]
        row = np.array(payload["first_block_row"], dtype=float).reshape(N, m, m)
        circ = BlockCirculant(m, N, row)
        assert is_symmetric(circ, 1e-9)
        # floats reparse bit-exactly
        assert json.loads(json.dumps(payload)) == payload
        # re-solving on the embedded band reproduces the same completion
        band_blocks = [[row[0, 0, 0]], [row[1, 0, 0]]]
        prob2 = write_problem(tmp_path / "rerun.json", m, 1, N, band_blocks)
        out2 = tmp_path / "sol2.json"
        assert main(["solve", prob2, "-o", str(out2), "--tol", "1e-11"]) == 0
        row2 = np.array(json.loads(out2.read_text())["first_block_row"], dtype=float)
        assert np.abs(row2.reshape(N, m, m) - row).max() < 1e-8

    def test_trace_file(self, n4_problem, tmp_path):
        out = tmp_path / "sol.json"
        trace = tmp_path / "trace.csv"
        assert main(["solve", n4_problem, "-o", str(out), "--trace", str(trace)]) == 0
        lines = trace.read_text().strip().splitlines()
        assert lines[0] == "iter,jbar,grad_norm,step"
        assert len(lines) >= 2

    def test_non_finite_band_exits_1(self, tmp_path, capsys):
        matrix = write_problem(
            tmp_path / "nan2.json", 2, 1, 8,
            [[1.0, 0.0, 0.0, 1.0], [0.2, float("nan"), 0.0, 0.2]],
        )
        scalar = write_problem(tmp_path / "nan1.json", 1, 1, 8, [[1.0], [float("nan")]])
        for path in (matrix, scalar):
            assert main(["solve", path]) == 1
            assert "finite" in capsys.readouterr().err

    def test_unrepresentable_scale_exits_1(self, tmp_path, capsys):
        for s in (1e200, 1e-200):
            path = write_problem(tmp_path / "scaled.json", 1, 1, 8, [[s], [0.3 * s]])
            assert main(["solve", path, "--max-iter", "20000"]) == 1
            assert "band norm" in capsys.readouterr().err

    def test_stalled_exits_3(self, white_problem, tmp_path, monkeypatch):
        # a solve whose progress stopped below floating-point resolution
        # exits like an exhausted budget
        import dataclasses

        import circmaxent.cli as cli

        real_solve = cli.solve

        def stalled(*args, **kwargs):
            return dataclasses.replace(real_solve(*args, **kwargs), status="stalled", converged=False)

        monkeypatch.setattr(cli, "solve", stalled)
        out = tmp_path / "sol.json"
        assert main(["solve", white_problem, "-o", str(out)]) == 3
        assert json.loads(out.read_text())["diagnostics"]["status"] == "stalled"

    def test_toeplitz_not_pd_exits_2(self, tmp_path, capsys):
        # the (n+1)-block Toeplitz matrix of (I, diag(-1.02, 0.3)) has an
        # eigenvalue 1 - 1.02 < 0 and is a principal submatrix of every
        # completion; the Yule-Walker start raised here (exit 1)
        blocks = [[1.0, 0.0, 0.0, 1.0], [-1.02, 0.0, 0.0, 0.3]]
        prob = write_problem(tmp_path / "np.json", 2, 1, 8, blocks)
        runs = [["solve", prob, "--method", method] for method in ("newton", "gd", "ips")]
        errs = set()
        for argv in runs + [["extend", prob], ["compare", prob]]:
            assert main(argv) == 2
            errs.add(capsys.readouterr().err)
        assert len(errs) == 1 and errs.pop().startswith("infeasible: ")
        out = tmp_path / "feas.json"
        assert main(["feas", prob, "-o", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["feasible"] is False and "positive definite" in payload["reason"]

    def test_baseline_without_answer_exits_3(self, tmp_path, capsys):
        # (1, -0.91) at N = 9 is feasible (the bound is -0.9397): a baseline
        # out of cycles, or without a PD starting completion, proves nothing
        # about the band
        prob = write_problem(tmp_path / "nb.json", 1, 1, 9, [[1.0], [-0.91]])
        for extra in (["--method", "ips", "--max-cycles", "3"], ["--method", "sk1"]):
            assert main(["solve", prob, *extra, "-o", str(tmp_path / "out.json")]) == 3
            assert capsys.readouterr().err.startswith("no further progress: ")

    def test_precision_band(self, tmp_path):
        # the solution's precision band K is the band of the completion's
        # inverse: the inverse of K's banded circulant is the completion
        rng = np.random.default_rng(91)
        m, n, N = 2, 2, 9
        blocks = random_feasible_band(m, n, N, rng).blocks
        prob = write_problem(tmp_path / "p.json", m, n, N, [b.reshape(-1).tolist() for b in blocks])
        for method in ("newton", "gd", "ips"):
            out = tmp_path / f"{method}.json"
            assert main(["solve", prob, "-o", str(out), "--method", method]) == 0
            payload = json.loads(out.read_text())
            if method == "ips":
                assert "precision_band" not in payload
                continue
            K = np.array(payload["precision_band"], dtype=float).reshape(n + 1, m, m)
            precision = project_band_gram(K, m, n, N).to_dense()
            row = np.array(payload["first_block_row"], dtype=float).reshape(N, m, m)
            dense = BlockCirculant(m, N, row).to_dense()
            assert np.linalg.norm(np.linalg.inv(precision) - dense) <= 1e-12 * np.linalg.norm(dense)

    def test_near_boundary_budget_solve(self, tmp_path):
        # (1, -0.90) lies inside the odd-N bound cos(8 pi / 9) = -0.940;
        # gradient descent exhausted a 2,000-iteration budget here (exit 3)
        prob = write_problem(tmp_path / "nb.json", 1, 1, 9, [[1.0], [-0.90]])
        out = tmp_path / "sol.json"
        assert main(["solve", prob, "--max-iter", "2000", "-o", str(out)]) == 0
        diagnostics = json.loads(out.read_text())["diagnostics"]
        assert diagnostics["status"] == "converged" and diagnostics["iterations"] <= 20

    def test_gd_method(self, n4_problem, tmp_path):
        iterations = {}
        for method in ("gd", "newton"):
            out = tmp_path / f"{method}.json"
            assert main(["solve", n4_problem, "-o", str(out), "--method", method, "--tol", "1e-11"]) == 0
            payload = json.loads(out.read_text())
            row = np.array(payload["first_block_row"], dtype=float).ravel()
            assert np.abs(row - [1.0, 0.3, (-1 + math.sqrt(1.72)) / 2, 0.3]).max() < 1e-8
            iterations[method] = payload["diagnostics"]["iterations"]
        assert iterations["gd"] > iterations["newton"]

    def test_newton_trace_one_row_per_step(self, tmp_path):
        prob = write_problem(tmp_path / "nb.json", 1, 1, 9, [[1.0], [-0.90]])
        out = tmp_path / "sol.json"
        trace = tmp_path / "trace.csv"
        assert main(["solve", prob, "-o", str(out), "--trace", str(trace)]) == 0
        iterations = json.loads(out.read_text())["diagnostics"]["iterations"]
        lines = trace.read_text().strip().splitlines()
        assert lines[0] == "iter,jbar,grad_norm,step"
        assert [line.split(",")[0] for line in lines[1:]] == [str(k) for k in range(iterations + 1)]

    def test_scale_free(self, tmp_path):
        # the band (1, 0.3) s: the same rescaled completion in the same
        # number of steps, or at the edges of the range a non-zero exit;
        # never exit 0 with a completion the dense oracle rejects
        out = tmp_path / "sol.json"
        runs = {}
        for s in (1.0, 1e-100, 1e-8, 1e8, 1e100, 1e-160, 1e150):
            prob = write_problem(tmp_path / "s.json", 1, 1, 8, [[s], [0.3 * s]])
            code = main(["solve", prob, "-o", str(out)])
            payload = json.loads(out.read_text()) if out.exists() else None
            out.unlink(missing_ok=True)
            runs[s] = code, payload
            if code == 0:
                row = np.array(payload["first_block_row"], dtype=float).reshape(8, 1, 1)
                blocks = s * np.array([1.0, 0.3]).reshape(2, 1, 1)
                assert max(completion_residuals(row, blocks)) <= 1e-8
        ref = np.array(runs[1.0][1]["first_block_row"], dtype=float)
        for s, (code, payload) in runs.items():
            if code == 0 or abs(math.log10(s)) <= 100:
                assert code == 0
                assert payload["diagnostics"]["iterations"] == runs[1.0][1]["diagnostics"]["iterations"]
                row = np.array(payload["first_block_row"], dtype=float)
                assert np.abs(row / s - ref).max() <= 1e-10

    def test_diagnostics_keys(self, n4_problem, tmp_path):
        # every method writes the same diagnostics; only the dual methods
        # have a precision band
        keys = {"iterations", "grad_norm", "jbar", "band_residual", "dempster_residual",
                "entropy", "status", "init"}
        out = tmp_path / "sol.json"
        for method in ("newton", "gd", "ips", "sk1"):
            assert main(["solve", n4_problem, "-o", str(out), "--method", method]) == 0
            payload = json.loads(out.read_text())
            assert set(payload["diagnostics"]) == keys
            assert ("precision_band" in payload) == (method in ("newton", "gd"))

    def test_ips_method(self, n4_problem, tmp_path):
        out = tmp_path / "sol.json"
        assert main(["solve", n4_problem, "-o", str(out), "--method", "ips"]) == 0
        row = np.array(json.loads(out.read_text())["first_block_row"], dtype=float).ravel()
        x_star = (-1 + math.sqrt(1.72)) / 2
        assert abs(row[2] - x_star) < 1e-6


class TestExtendCommand:
    def test_ar1_geometric_row(self, tmp_path):
        prob = write_problem(tmp_path / "ar.json", 1, 1, 9, [[1.0], [0.4]])
        out = tmp_path / "ext.json"
        assert main(["extend", prob, "-o", str(out)]) == 0
        payload = json.loads(out.read_text())
        row = np.array(payload["first_block_row"], dtype=float).ravel()
        expect = [1.0, 0.4, 0.16, 0.064, 0.0256, 0.0256, 0.064, 0.16, 0.4]
        assert np.abs(row - expect).max() < 1e-12
        assert payload["diagnostics"]["pd"] is True

    def test_white_noise_identity(self, white_problem, tmp_path):
        out = tmp_path / "ext.json"
        assert main(["extend", white_problem, "-o", str(out)]) == 0
        row = np.array(json.loads(out.read_text())["first_block_row"], dtype=float).ravel()
        assert abs(row[0] - 1.0) < 1e-14
        assert np.abs(row[1:]).max() < 1e-14

    def test_offband_norm_non_increasing_in_N(self, tmp_path):
        prob = write_problem(tmp_path / "ar.json", 1, 1, 8, [[1.0], [0.45]])
        norms = []
        for N in (16, 32, 64):
            out = tmp_path / f"ext{N}.json"
            assert main(["extend", prob, "--N", str(N), "-o", str(out)]) == 0
            norms.append(json.loads(out.read_text())["diagnostics"]["inverse_offband_norm"])
        assert norms[2] <= norms[1] <= norms[0]

    def test_zero_size_is_not_the_default(self, n4_problem, tmp_path, capsys):
        # --N 0 is a size (too small), not a request for the file's N
        assert main(["extend", n4_problem, "--N", "0", "-o", str(tmp_path / "ext.json")]) == 1
        assert "N=0" in capsys.readouterr().err

    def test_reports_non_pd_approximant(self, infeasible_problem, tmp_path):
        # the band extension exists (|sigma_1| < sigma_0) but wrapping it at
        # N=7 cannot be PD, otherwise the completion would be feasible
        out = tmp_path / "ext.json"
        assert main(["extend", infeasible_problem, "-o", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["diagnostics"]["pd"] is False
        assert payload["diagnostics"]["inverse_offband_norm"] is None


class TestFeasCommand:
    def test_infeasible_json(self, infeasible_problem, tmp_path):
        out = tmp_path / "feas.json"
        assert main(["feas", infeasible_problem, "-o", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["feasible"] is False
        assert abs(payload["bounds"][0] - (-0.9010)) < 1e-4
        assert len(payload["forms"]) == 4

    def test_feasible_n9(self, tmp_path):
        prob = write_problem(tmp_path / "n9.json", 1, 1, 9, [[1.0], [-0.91]])
        out = tmp_path / "feas.json"
        assert main(["feas", prob, "-o", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["feasible"] is True

    def test_trivial_margin(self, tmp_path):
        prob = write_problem(tmp_path / "d.json", 1, 1, 10, [[1.0], [0.0]])
        out = tmp_path / "feas.json"
        assert main(["feas", prob, "-o", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["feasible"] is True and abs(payload["margin"] - 1.0) < 1e-12

    def test_generic_case_uses_solver(self, tmp_path):
        prob = write_problem(
            tmp_path / "m2.json", 2, 1, 8,
            [[1.0, 0.0, 0.0, 1.0], [0.2, 0.0, 0.0, 0.2]],
        )
        out = tmp_path / "feas.json"
        assert main(["feas", prob, "-o", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["feasible"] is True
        assert payload["evidence"]["status"] == "converged"


    def test_two_channel_verdicts(self, tmp_path):
        # two independent channels in a rotated basis, one of them within
        # 3% of a bound of its odd-N interval: every feasible band is
        # answered "feasible", and every infeasible one "infeasible" with a
        # precision band that certifies it, which also ends solve with exit 2
        rng = np.random.default_rng(71)
        out = tmp_path / "feas.json"
        for k in range(24):
            N = (7, 9)[k % 2]
            lower = math.cos((N - 1) * math.pi / N)
            near = (1.0 - rng.uniform(0.005, 0.03), lower * (1.0 - rng.uniform(0.005, 0.03)),
                    lower * (1.0 + rng.uniform(0.005, 0.03)))[k % 3]
            rhos = [near, float(rng.uniform(-0.5, 0.9))]
            known = all(scalar_bw1_feasible(1.0, r, N).feasible for r in rhos)
            blocks = channel_band(rng, rhos)
            prob = write_problem(tmp_path / "c.json", 2, 1, N, [b.reshape(-1).tolist() for b in blocks])
            assert main(["feas", prob, "-o", str(out)]) == 0
            payload = json.loads(out.read_text())
            assert payload["feasible"] is known
            if not known:
                K = np.array(payload["evidence"]["precision_band"]).reshape(2, 2, 2)
                assert certificate_holds(K, BandData(2, 1, blocks), N)
                assert main(["solve", prob, "-o", str(out)]) == 2
                assert json.loads(out.read_text())["diagnostics"]["status"] == "infeasible"


class TestCompareCommand:
    def test_methods_agree(self, n4_problem, capsys):
        assert main(["compare", n4_problem]) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert [r["method"] for r in rows] == ["gd", "gd", "ips"]
        for r in rows:
            assert float(r["rel_dist_to_gd_toeplitz"]) <= 1e-5
            assert float(r["band_residual"]) <= 1e-6

    def test_builds_no_dense_matrix(self, n4_problem, monkeypatch, capsys):
        # IPS works on its dense given-entry matrix by design; the command
        # itself compares circulant first rows
        to_dense = BlockCirculant.to_dense

        def refuse_from_cli(self):
            if sys._getframe(1).f_globals["__name__"] == "circmaxent.cli":
                raise AssertionError("compare must not assemble dense matrices")
            return to_dense(self)

        monkeypatch.setattr(BlockCirculant, "to_dense", refuse_from_cli)
        assert main(["compare", n4_problem]) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert [r["method"] for r in rows] == ["gd", "gd", "ips"]


class TestBenchCommand:
    def test_csv_schema(self, capsys):
        assert main(
            ["bench", "--m", "2", "--n", "1", "--N", "8", "12", "--seed", "3",
             "--method", "gd", "ips", "--init", "toeplitz"]
        ) == 0
        out = capsys.readouterr().out
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 4  # 2 sizes x (gd + ips)
        assert set(rows[0].keys()) == {
            "N", "m", "n", "method", "init", "iterations", "seconds",
            "band_residual", "dempster_residual",
        }
        for r in rows:
            assert float(r["band_residual"]) < 1e-5

    def test_builds_no_dense_matrix(self, monkeypatch, capsys):
        def refuse(self):
            raise AssertionError("bench must not assemble dense matrices")

        monkeypatch.setattr(BlockCirculant, "to_dense", refuse)
        assert main(["bench", "--m", "2", "--n", "1", "--N", "8", "12", "--seed", "3"]) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert len(rows) == 4  # 2 sizes x 2 inits
