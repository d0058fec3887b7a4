"""End-to-end runs of the command-line interface."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from cohom1 import cli


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


class TestClassify:
    def test_so8_row(self, capsys):
        payload = run_json(
            capsys, "classify", "--space", "so", "--g", "3", "--m0", "2", "--m1", "2"
        )
        rows = {v["k"]: v for v in payload["verdicts"]}
        assert rows[-5]["harmonic"] and rows[-5]["degree"] == -5
        assert payload["manifest"]["subcommand"] == "classify"
        # lifted action: only even j in -4..4
        assert sorted(rows) == [-11, -5, 1, 7, 13]

    def test_g1_harmonic_set(self, capsys):
        payload = run_json(
            capsys, "classify", "--space", "sphere", "--g", "1",
            "--m0", "3", "--m1", "3",
        )
        harmonic = {v["k"] for v in payload["verdicts"] if v["harmonic"]}
        assert harmonic == {0, 1}

    def test_invalid_triple_exits_2(self, capsys):
        code, _out, err = run(
            capsys, "classify", "--space", "sphere", "--g", "3", "--m0", "1", "--m1", "2"
        )
        assert code == 2
        assert "m0 == m1" in err

    @pytest.mark.parametrize("m0, m1", [("1", "2"), ("2", "1")])
    def test_unclassified_g6_pair_exits_2(self, capsys, m0, m1):
        code, out, err = run(
            capsys, "classify", "--space", "sphere", "--g", "6", "--m0", m0, "--m1", m1
        )
        assert code == 2 and out == ""
        assert err.startswith("cohom1 classify: ") and "m0 == m1" in err

    def test_text_format(self, capsys):
        code, out, _ = run(
            capsys, "classify", "--space", "sphere", "--g", "2",
            "--m0", "1", "--m1", "1", "--format", "text",
        )
        assert code == 0
        assert out.splitlines()[0].startswith("ambient")


class TestSolve:
    def test_converged_run_writes_files(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "solve", "--space", "sphere", "--g", "3", "--m0", "2",
            "--m1", "2", "--k", "-2", "--outdir", str(tmp_path),
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["converged"] and payload["residual"] <= 1e-6
        csv_path = tmp_path / "profile.csv"
        meta_path = tmp_path / "solve.json"
        assert csv_path.exists() and meta_path.exists()
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "t,r,rdot"
        assert len(lines) == payload["samples"] + 1
        on_disk = json.loads(meta_path.read_text())
        assert on_disk["slope0"] == payload["slope0"]
        assert 1e-3 < on_disk["conditioning"] == payload["conditioning"] <= 1.0
        assert str(csv_path) in on_disk["manifest"]["outputs"]

    def test_residual_round_trip(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "solve", "--space", "so", "--g", "3", "--m0", "2",
            "--m1", "2", "--k", "-5", "--outdir", str(tmp_path),
        )
        assert code == 0
        reported = json.loads(out)["residual"]
        payload = run_json(
            capsys, "residual", "--space", "so", "--g", "3", "--m0", "2",
            "--m1", "2", "--k", "-5", "--profile", str(tmp_path / "profile.csv"),
        )
        assert payload["max_abs"] == pytest.approx(reported, abs=1e-9)
        assert payload["boundary_err"][0] < 1e-9

    def test_missing_profile_exits_2(self, capsys, tmp_path):
        code, out, err = run(
            capsys, "residual", "--space", "so", "--g", "3", "--m0", "2",
            "--m1", "2", "--k", "-5", "--profile", str(tmp_path / "missing.csv"),
        )
        assert code == 2 and out == ""
        assert err.startswith("cohom1 residual: ") and "missing.csv" in err
        assert len(err.splitlines()) == 1 and "Traceback" not in err

    def test_no_convergence_exits_3_with_metadata(self, capsys, tmp_path):
        code, _out, err = run(
            capsys, "solve", "--space", "sphere", "--g", "4", "--m0", "1",
            "--m1", "1", "--k", "5", "--init", "5,5", "--max-newton", "1",
            "--outdir", str(tmp_path),
        )
        assert code == 3
        meta = json.loads((tmp_path / "solve.json").read_text())
        assert meta["converged"] is False
        assert meta["error"] == "no-convergence"
        assert len(meta["final_gaps"]) == 2

    def test_escape_exits_4_with_metadata(self, capsys, tmp_path):
        code, out, err = run(
            capsys, "solve", "--space", "sphere", "--g", "1", "--m0", "2",
            "--m1", "2", "--k", "1", "--init", "3,3", "--blowup-cap", "1.5",
            "--outdir", str(tmp_path),
        )
        assert code == 4
        assert err.startswith("cohom1 solve: trajectory escaped at t=")
        meta = json.loads((tmp_path / "solve.json").read_text())
        assert json.loads(out) == meta
        assert meta["error"] == "trajectory-escaped"
        assert meta["manifest"]["outputs"] == [str(tmp_path / "solve.json")]

    def test_no_linear_solution_case(self, capsys, tmp_path):
        # k=5 on (4,1,1) has no linear solution; the iteration either gives
        # up or lands on a nonlinear solution, never on the linear ray
        code, out, _err = run(
            capsys, "solve", "--space", "sphere", "--g", "4", "--m0", "1",
            "--m1", "1", "--k", "5", "--init", "5,5", "--max-newton", "25",
            "--outdir", str(tmp_path),
        )
        assert code in (0, 3)
        if code == 0:
            data = np.loadtxt(tmp_path / "profile.csv", delimiter=",", skiprows=1)
            deviation = np.max(np.abs(data[:, 1] - 5.0 * data[:, 0]))
            assert deviation > 1e-3

    def test_invalid_input_exits_2(self, capsys, tmp_path):
        code, _out, _err = run(
            capsys, "solve", "--space", "sphere", "--g", "3", "--m0", "1",
            "--m1", "2", "--k", "1", "--outdir", str(tmp_path),
        )
        assert code == 2

    @pytest.mark.parametrize(
        "g, m0, m1, k, phase",
        [("3", "2", "2", "2", "0.666667"), ("2", "1", "3", "0", "-1"), ("2", "1", "3", "2", "1")],
    )
    def test_k_without_a_right_smooth_branch_exits_2(self, capsys, tmp_path, g, m0, m1, k, phase):
        # the phase 2(k-1)/G is no integer (2/3) or an odd one (-1, 1):
        # rejected before any integration
        code, out, err = run(
            capsys, "solve", "--space", "sphere", "--g", g, "--m0", m0,
            "--m1", m1, "--k", k, "--outdir", str(tmp_path),
        )
        assert code == 2 and out == ""
        assert err.startswith("cohom1 solve: ") and "smooth branch" in err
        assert f"phase 2(k-1)/G = {phase} is not an even integer" in err
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "flag, value",
        [("--rel-tol", "nan"), ("--init", "nan,1"), ("--init", "1,-inf"), ("--eps0", "inf")],
    )
    def test_non_finite_number_exits_2(self, capsys, tmp_path, flag, value):
        code, out, err = run(
            capsys, "solve", "--space", "sphere", "--g", "1", "--m0", "2",
            "--m1", "2", "--k", "1", flag, value, "--outdir", str(tmp_path),
        )
        assert code == 2 and out == ""
        assert err.startswith("cohom1 solve: ") and flag in err

    def test_deterministic_data(self, capsys, tmp_path):
        argv = [
            "solve", "--space", "sphere", "--g", "2", "--m0", "1", "--m1", "3",
            "--k", "-1",
        ]
        code1, _, _ = run(capsys, *argv, "--outdir", str(tmp_path / "a"))
        code2, _, _ = run(capsys, *argv, "--outdir", str(tmp_path / "b"))
        assert code1 == code2 == 0
        csv_a = (tmp_path / "a" / "profile.csv").read_text()
        csv_b = (tmp_path / "b" / "profile.csv").read_text()
        assert csv_a == csv_b
        meta_a = json.loads((tmp_path / "a" / "solve.json").read_text())
        meta_b = json.loads((tmp_path / "b" / "solve.json").read_text())
        for meta in (meta_a, meta_b):
            meta["manifest"].pop("timestamp")
            meta["manifest"].pop("outputs")
            meta.pop("profile_csv")
        assert meta_a == meta_b


class TestResidual:
    def test_nan_interior_time_exits_2(self, capsys, tmp_path):
        t = np.linspace(0.1, 1.0, 20)
        t[7] = np.nan
        path = tmp_path / "p.csv"
        np.savetxt(
            path, np.column_stack([t, t, np.ones_like(t)]),
            delimiter=",", header="t,r,rdot", comments="",
        )
        code, out, err = run(
            capsys, "residual", "--space", "sphere", "--g", "1", "--m0", "2",
            "--m1", "2", "--k", "1", "--profile", str(path),
        )
        assert code == 2 and out == ""
        assert err == "cohom1 residual: profile samples must be strictly increasing in t\n"

    @pytest.mark.parametrize("row, col", [(0, 0), (-1, 0), (7, 1)])
    def test_nan_end_time_or_sample_exits_2(self, capsys, tmp_path, row, col):
        t = np.linspace(0.1, 1.0, 20)
        profile = np.column_stack([t, t, np.ones_like(t)])
        profile[row, col] = np.nan
        path = tmp_path / "p.csv"
        np.savetxt(path, profile, delimiter=",", header="t,r,rdot", comments="")
        code, out, err = run(
            capsys, "residual", "--space", "sphere", "--g", "1", "--m0", "2",
            "--m1", "2", "--k", "1", "--profile", str(path),
        )
        assert code == 2 and out == ""
        assert err.startswith("cohom1 residual: profile ")

    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_two_infinite_interior_times_exit_2_under_warnings_as_errors(self, tmp_path, bad):
        # np.diff warned on inf - inf; -W error turned that into a traceback
        # and exit code 1
        t = np.linspace(0.1, 1.0, 20)
        t[[7, 8]] = bad
        path = tmp_path / "p.csv"
        np.savetxt(
            path, np.column_stack([t, t, np.ones_like(t)]),
            delimiter=",", header="t,r,rdot", comments="",
        )
        proc = subprocess.run(
            [
                sys.executable, "-W", "error", "-m", "cohom1.cli", "residual",
                "--space", "sphere", "--g", "1", "--m0", "2", "--m1", "2", "--k", "1",
                "--profile", str(path),
            ],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parent.parent)},
        )
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr == "cohom1 residual: profile samples must be strictly increasing in t\n"

    def test_huge_finite_r_exits_2_under_warnings_as_errors(self, tmp_path):
        # r = 1e308 overflowed 2(r - t): two numpy warnings, then a bare
        # "math domain error"; under -W error a traceback and exit code 1
        t = np.linspace(0.01, 3.1, 64)
        r = np.full(64, 1.0)
        r[30] = 1e308
        path = tmp_path / "p.csv"
        np.savetxt(
            path, np.column_stack([t, r, np.ones_like(t)]),
            delimiter=",", header="t,r,rdot", comments="",
        )
        proc = subprocess.run(
            [
                sys.executable, "-W", "error", "-m", "cohom1.cli", "residual",
                "--space", "sphere", "--g", "1", "--m0", "2", "--m1", "2", "--k", "1",
                "--profile", str(path),
            ],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parent.parent)},
        )
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr == (
            "cohom1 residual: profile r samples must not exceed 1e+300 in magnitude, "
            "so that the angle 2(r - t) + Gt is finite\n"
        )

    def test_huge_finite_rdot_exits_2_under_warnings_as_errors(self, tmp_path):
        # r' = 1e308 on every sample overflowed P r': under -W error a
        # RuntimeWarning traceback and exit code 1
        t = np.linspace(0.01, 3.1, 64)
        path = tmp_path / "p.csv"
        np.savetxt(
            path, np.column_stack([t, t, np.full(64, 1e308)]),
            delimiter=",", header="t,r,rdot", comments="",
        )
        proc = subprocess.run(
            [
                sys.executable, "-W", "error", "-m", "cohom1.cli", "residual",
                "--space", "sphere", "--g", "1", "--m0", "2", "--m1", "2", "--k", "1",
                "--profile", str(path),
            ],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parent.parent)},
        )
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr == (
            "cohom1 residual: profile rdot samples must not exceed 1e+300 in magnitude, "
            "so that the tension's term P r' is finite\n"
        )

    @staticmethod
    def solved_profile(capsys, tmp_path):
        code, _out, _err = run(
            capsys, "solve", "--space", "sphere", "--g", "1", "--m0", "2",
            "--m1", "2", "--k", "1", "--outdir", str(tmp_path),
        )
        assert code == 0
        return (tmp_path / "profile.csv").read_text().splitlines(keepends=True)

    @pytest.mark.parametrize("header", [None, "r,t,rdot\n"])
    def test_profile_without_the_header_exits_2(self, capsys, tmp_path, header):
        # np.loadtxt(skiprows=1) dropped a headerless file's first sample
        # and read an r,t,rdot file as t,r,rdot, with exit 0
        lines = self.solved_profile(capsys, tmp_path)
        assert lines[0] == "t,r,rdot\n"
        rows = lines[1:]
        first = header or rows[0]
        path = tmp_path / "p.csv"
        path.write_text("".join(rows if header is None else [header, *rows]))
        code, out, err = run(
            capsys, "residual", "--space", "sphere", "--g", "1", "--m0", "2",
            "--m1", "2", "--k", "1", "--profile", str(path),
        )
        assert code == 2 and out == ""
        found = repr(first.rstrip("\n"))
        assert err == (
            f"cohom1 residual: profile {path} must start with the header t,r,rdot, found {found}\n"
        )

    @pytest.mark.parametrize("k", [10**400, 2**1023 + 1])
    def test_huge_k_exits_2(self, capsys, tmp_path, k):
        # the right target k pi/G overflowed: a bare OverflowError with
        # exit 1 at 10**400, an infinite boundary_err at 2**1023 + 1
        self.solved_profile(capsys, tmp_path)
        code, out, err = run(
            capsys, "residual", "--space", "sphere", "--g", "1", "--m0", "2",
            "--m1", "2", "--k", str(k), "--profile", str(tmp_path / "profile.csv"),
        )
        assert code == 2 and out == ""
        assert err.startswith("cohom1 residual: k must ") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("text", ["", "t,r,rdot\n"])
    def test_profile_without_rows_exits_2_under_warnings_as_errors(self, tmp_path, text):
        # numpy warns on a file without data; -W error turned that into a
        # traceback and exit code 1.
        path = tmp_path / "p.csv"
        path.write_text(text)
        proc = subprocess.run(
            [
                sys.executable, "-W", "error", "-m", "cohom1.cli", "residual",
                "--space", "sphere", "--g", "1", "--m0", "2", "--m1", "2", "--k", "1",
                "--profile", str(path),
            ],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parent.parent)},
        )
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr == f"cohom1 residual: profile {path} has no sample rows\n"


class TestSweep:
    def test_brackets_reported(self, capsys):
        payload = run_json(
            capsys, "sweep", "--space", "sphere", "--g", "1", "--m0", "2",
            "--m1", "2", "--k", "1", "--bracket", "0.5,1.5",
            "--sweep-points", "17",
        )
        points = payload["points"]
        assert len(points) == 17
        assert any(p["sign_change"] for p in points)

    def test_json_gives_the_tolerances_of_its_gaps(self, capsys):
        # the lanes run at seed accuracy, so "config" alone would misstate
        # the tolerances of the gaps
        argv = (
            "sweep", "--space", "sphere", "--g", "1", "--m0", "2", "--m1", "2",
            "--k", "1", "--bracket", "0.5,1.5", "--sweep-points", "17",
        )
        payload = run_json(capsys, *argv)
        assert (payload["config"]["rel_tol"], payload["config"]["abs_tol"]) == (1e-10, 1e-12)
        assert payload["gap_tolerances"] == {"rel_tol": 1e-6, "abs_tol": 1e-8}
        coarse = run_json(capsys, *argv, "--rel-tol", "1e-5", "--abs-tol", "1e-9")
        assert coarse["gap_tolerances"] == {"rel_tol": 1e-5, "abs_tol": 1e-9}

    def test_csv_format(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--space", "sphere", "--g", "1", "--m0", "2",
            "--m1", "2", "--k", "1", "--bracket", "0.8,1.2",
            "--sweep-points", "9", "--format", "csv",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "a,sign_change,gap"
        assert len(lines) == 10

    @pytest.mark.parametrize("bracket", ["1,2,3", "1"])
    def test_bracket_not_a_pair_exits_2(self, capsys, bracket):
        code, out, err = run(
            capsys, "sweep", "--space", "sphere", "--g", "1", "--m0", "2",
            "--m1", "2", "--k", "1", "--bracket", bracket,
        )
        assert code == 2 and out == ""
        assert "--bracket expects two comma-separated numbers" in err

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--rel-tol", "nan"),
            ("--abs-tol", "inf"),
            ("--blowup-cap", "nan"),
            ("--bracket", "0,inf"),
            ("--bracket", "nan,1"),
            ("--match-point", "nan"),
        ],
    )
    def test_non_finite_number_exits_2(self, capsys, flag, value):
        # pyproject turns warnings into errors, so a leaked numpy warning fails
        code, out, err = run(
            capsys, "sweep", "--space", "sphere", "--g", "1", "--m0", "2",
            "--m1", "2", "--k", "1", "--sweep-points", "40", flag, value,
        )
        assert code == 2 and out == ""
        assert err.startswith("cohom1 sweep: ") and flag in err


class TestIdentityCheck:
    def test_deviations_within_tolerance(self, capsys):
        payload = run_json(
            capsys, "identity-check", "--g-max", "8", "--samples", "800", "--seed", "3"
        )
        for name, entry in payload["identities"].items():
            assert entry["max_mixed_deviation"] <= 1e-10, name

    def test_out_file(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, out, _ = run(
            capsys, "identity-check", "--samples", "200", "--out", str(out_path)
        )
        assert code == 0 and out == ""
        payload = json.loads(out_path.read_text())
        assert payload["manifest"]["outputs"] == [str(out_path)]


    def test_manifest_records_the_default_seed_and_margin(self, capsys):
        payload = run_json(capsys, "identity-check", "--g-max", "2", "--samples", "10")
        params = payload["manifest"]["parameters"]
        assert params["seed"] == 375011 and params["margin"] == 0.001

    def test_margin_without_room_between_poles_exits_2(self, capsys):
        # pi/(2*12) < 0.2, so no sample could clear the g = 12 poles
        code, out, err = run(capsys, "identity-check", "--margin", "0.2")
        assert code == 2 and out == ""
        assert "--margin" in err

    def test_margin_just_inside_its_bound_exits_2_promptly(self, capsys):
        # pi/24 = 0.13089969389957: a uniform point clears the g = 12 poles
        # with chance below 1e-9, so sampling gives up after its round cap
        # (about 1 s; the bound only catches a cap lost or grown far too big)
        t0 = time.perf_counter()
        code, out, err = run(
            capsys, "identity-check", "--margin", "0.1308996938", "--samples", "100"
        )
        assert time.perf_counter() - t0 < 60.0
        assert code == 2 and out == ""
        assert "--margin" in err and "g = 12" in err

    @pytest.mark.parametrize("flag", ["--g-max", "--samples"])
    def test_zero_count_exits_2(self, capsys, flag):
        code, out, err = run(capsys, "identity-check", flag, "0")
        assert code == 2 and out == ""
        assert flag in err


class TestDegree:
    def test_so14_degree(self, capsys):
        payload = run_json(
            capsys, "degree", "--space", "so", "--g", "6", "--m0", "2",
            "--m1", "2", "--j", "-2",
        )
        assert payload["degree"] == -11 and payload["k"] == -11

    def test_text_format(self, capsys):
        code, out, _ = run(
            capsys, "degree", "--space", "so", "--g", "6", "--m0", "2",
            "--m1", "2", "--j", "-2", "--format", "text",
        )
        assert code == 0 and out.strip() == "-11"

    def test_odd_j_on_lift_exits_2(self, capsys):
        code, _, err = run(
            capsys, "degree", "--space", "so", "--g", "2", "--m0", "1",
            "--m1", "1", "--j", "1",
        )
        assert code == 2 and "not admissible" in err


class TestTable:
    def test_known_rows(self, capsys):
        payload = run_json(capsys, "table")
        rows = {(v["ambient"], v["k"]): v["degree"] for v in payload["verdicts"]}
        assert rows[("SO(10)", -7)] == -7
        assert rows[("SO(26)", -5)] == -5
        assert rows[("Sp(2)", -5)] == 1
        assert len(payload["verdicts"]) == 15

    def test_text_rows_aligned(self, capsys):
        code, out, _ = run(capsys, "table", "--format", "text")
        assert code == 0
        assert len(out.splitlines()) == 16

    def test_csv_rows(self, capsys):
        code, out, _ = run(capsys, "table", "--format", "csv")
        payload = run_json(capsys, "table")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "ambient,g,m0,m1,k,harmonic,degree"
        assert lines[1:] == [
            f"{v['ambient']},{v['action']['g']},{v['action']['m0']},{v['action']['m1']},"
            f"{v['k']},{int(v['harmonic'])},{v['degree']}"
            for v in payload["verdicts"]
        ]
        assert "SO(26),3,8,8,-5,1,-5" in lines and "Sp(2),6,1,1,-5,1,1" in lines
