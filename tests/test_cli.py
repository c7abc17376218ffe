import json
import os
import subprocess
import sys

import pytest

from framelift.cli import main, run
from framelift.geometry import DomainError
from framelift.reporting import strip_wall_times


def run_cli(args, env_extra=None):
    env = dict(os.environ)
    env.pop("FRAMELIFT_SEED", None)
    if env_extra:
        env.update(env_extra)
    proc = subprocess.run(
        [sys.executable, "-m", "framelift.cli", *args],
        capture_output=True, text=True, env=env,
    )
    return proc


class TestList:
    def test_lists_all_entries(self):
        proc = run_cli(["list"])
        assert proc.returncode == 0
        for eid in ("E1", "E2", "E3", "E4", "E5"):
            assert eid in proc.stdout


class TestVerify:
    def test_core_suite_passes(self):
        proc = run_cli(["verify", "E1", "--suite", "core"])
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "failed" in proc.stdout

    def test_theorems_suite_hopf(self):
        # the negative branch: non-conformal lift measured and predicted
        proc = run_cli(["verify", "E3", "--suite", "theorems"])
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_unknown_example_exit_2(self):
        proc = run_cli(["verify", "bogus"])
        assert proc.returncode == 2

    def test_unknown_suite_exit_2(self):
        proc = run_cli(["verify", "E1", "--suite", "nonsense"])
        assert proc.returncode == 2

    def test_bad_samples_exit_2(self):
        proc = run_cli(["verify", "E1", "--suite", "core", "--samples", "0"])
        assert proc.returncode == 2

    def test_bad_steps_exit_2(self):
        proc = run_cli(["verify", "E1", "--suite", "core", "--h", "1e-3", "--h2", "1e-5"])
        assert proc.returncode == 2

    def test_missing_report_directory_exit_2_before_running(self, tmp_path):
        path = tmp_path / "missing" / "x.json"
        proc = run_cli(["verify", "all", "--json", str(path)])
        assert proc.returncode == 2
        assert str(path) in proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""

    def test_non_integer_env_seed_exit_2_with_reason(self):
        proc = run_cli(["verify", "E1", "--suite", "core"], env_extra={"FRAMELIFT_SEED": "abc"})
        assert proc.returncode == 2
        assert "FRAMELIFT_SEED" in proc.stderr and "'abc'" in proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize("extra, where", [
        (["--h", "0.3", "--h2", "0.5"], "stencil leaves chart domain"),
        (["--seed", "5"], "outside chart domain of S2(1/2)"),
    ])
    def test_domain_error_during_run_exit_2_with_message(self, extra, where):
        # seed 5 samples E3's target box outside the domain of S2(1/2)
        proc = run_cli(["verify", "E3", "--suite", "core", *extra])
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "E3 suite core" in proc.stderr and where in proc.stderr

    def test_warped_theorems_exit_1(self):
        # the warped entry is a genuine counterexample to the two-sided
        # conformality expectation, so its theorem suite reports failure
        proc = run_cli(["verify", "E4", "--suite", "theorems"])
        assert proc.returncode == 1
        assert "conformality_two_sided" in proc.stdout


class TestDeterminism:
    def test_identical_reports_for_identical_seeds(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            proc = run_cli(["verify", "E1", "--suite", "core",
                            "--seed", "7", "--json", str(path)])
            assert proc.returncode == 0
        ra = strip_wall_times(a.read_text())
        rb = strip_wall_times(b.read_text())
        assert ra == rb

    def test_seed_changes_report(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run_cli(["verify", "E1", "--suite", "core", "--seed", "7", "--json", str(a)])
        run_cli(["verify", "E1", "--suite", "core", "--seed", "8", "--json", str(b)])
        assert json.loads(a.read_text())["config"]["seed"] == 7
        assert json.loads(b.read_text())["config"]["seed"] == 8

    def test_env_seed_override(self, tmp_path):
        path = tmp_path / "r.json"
        proc = run_cli(["verify", "E1", "--suite", "core", "--json", str(path)],
                       env_extra={"FRAMELIFT_SEED": "123"})
        assert proc.returncode == 0
        assert json.loads(path.read_text())["config"]["seed"] == 123

    def test_flag_beats_env(self, tmp_path):
        path = tmp_path / "r.json"
        run_cli(["verify", "E1", "--suite", "core", "--seed", "5", "--json", str(path)],
                env_extra={"FRAMELIFT_SEED": "123"})
        assert json.loads(path.read_text())["config"]["seed"] == 5


class TestInProcess:
    def test_main_list(self, capsys):
        assert main(["list"]) == 0
        assert "E5" in capsys.readouterr().out

    def test_main_verify_audit_rows_do_not_fail(self, capsys):
        # the frame suite contains audit rows with large residuals by design
        code = main(["verify", "E1", "--suite", "frame", "--samples", "4"])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "(audit)" in out

    def test_main_lets_a_domain_error_through(self, capsys):
        # in-process callers tell a point outside the chart from a failed check
        with pytest.raises(DomainError, match="E3 suite core"):
            main(["verify", "E3", "--suite", "core", "--seed", "5"])

    @pytest.fixture
    def crashing_core(self, monkeypatch):
        import framelift.suites as suites

        def crash(*args, **kwargs):
            raise ValueError("boom")

        monkeypatch.setitem(suites.SUITES, "core", crash)

    def test_run_maps_a_suite_crash_to_exit_2(self, crashing_core, capsys):
        # exit 1 means "a check failed"; a crash must not read as one
        assert run(["verify", "E1", "--suite", "core"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("Traceback")
        assert err.endswith("\nerror: E1 suite core: ValueError: boom\n")

    def test_main_lets_a_suite_crash_through_unchanged(self, crashing_core):
        with pytest.raises(ValueError, match="^boom$") as info:
            main(["verify", "E1", "--suite", "core"])
        assert type(info.value) is ValueError and info.value.unit == ("E1", "core")

    def test_report_schema(self, tmp_path, capsys):
        path = tmp_path / "r.json"
        assert main(["verify", "E1", "--suite", "core", "--json", str(path)]) == 0
        doc = json.loads(path.read_text())
        assert set(doc) == {"version", "config", "results"}
        assert set(doc["config"]) == {"h", "h2", "tol_exact", "tol_fd1", "tol_fd2",
                                      "seed", "samples"}
        for row in doc["results"]:
            assert set(row) == {"name", "identity", "residual", "tolerance",
                                "status", "kind", "samples", "wall_ms"}
            assert row["status"] in ("pass", "fail", "inconclusive")
            assert row["kind"] in ("assert", "audit")
