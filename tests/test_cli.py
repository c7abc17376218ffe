import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from framelift.catalog import entries, get
from framelift.cli import main, run
from framelift.geometry import DomainError, sample_points
from framelift.reporting import strip_wall_times
from framelift.suites import SUITE_ORDER


def python(*argv, env=None):
    """A fresh Python process, with ``env`` added to the environment: (exit status, stdout,
    stderr).  For what only a process shows: its exit status, a fresh import and the
    FRAMELIFT_SEED it is started with."""
    proc = subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                          env={**os.environ, **(env or {})})
    return proc.returncode, proc.stdout, proc.stderr


def run_cli(*args, env=None):
    return python("-m", "framelift.cli", *args, env=env)


@pytest.fixture
def cli(capsys):
    """``cli(*args)``: the process entry point ``run`` in this process, (exit status, stdout,
    stderr) as ``run_cli`` gives them."""
    def call(*args):
        code = run(list(args))
        return (code, *capsys.readouterr())
    return call


class TestList:
    def test_lists_all_entries(self, cli):
        code, out, _ = cli("list")
        assert code == 0
        for eid in ("E1", "E2", "E3", "E4", "E5"):
            assert eid in out
        # every description starts at the same column, after lift_conformal=True or =False
        lines = out.splitlines()
        starts = {line.index(e.description) for line, e in zip(lines, entries(), strict=True)}
        assert len(starts) == 1, out


class TestVerify:
    def test_core_suite_passes(self, cli):
        code, out, err = cli("verify", "E1", "--suite", "core")
        assert code == 0, out + err
        assert "failed" in out

    def test_theorems_suite_hopf(self, cli):
        # the negative branch: non-conformal lift measured and predicted
        code, out, err = cli("verify", "E3", "--suite", "theorems")
        assert code == 0, out + err

    @pytest.mark.parametrize("args", [["bogus"], ["E1", "--suite", "nonsense"],
                                      ["E1", "--suite", "core", "--samples", "0"]],
                             ids=["example", "suite", "samples"])
    def test_unknown_or_bad_argument_exit_2(self, cli, args):
        assert cli("verify", *args)[0] == 2

    def test_bad_steps_exit_2(self, cli):
        # NaN fails every comparison, so a NaN step once reached the suite and was
        # reported as a sample point outside the chart
        for steps in (["--h", "1e-3", "--h2", "1e-5"], ["--h", "nan"], ["--h", "inf", "--h2", "inf"]):
            code, out, err = cli("verify", "E1", "--suite", "core", *steps)
            assert code == 2, steps
            assert "step" in err and "chart" not in err, (steps, err)
            assert "Traceback" not in err and out == "", steps

    def test_missing_report_directory_exit_2_before_running(self, cli, tmp_path):
        path = tmp_path / "missing" / "x.json"
        code, out, err = cli("verify", "all", "--json", str(path))
        assert code == 2
        assert str(path) in err
        assert "Traceback" not in err
        assert out == ""

    def test_non_integer_env_seed_exit_2_with_reason(self):
        code, out, err = run_cli("verify", "E1", "--suite", "core", env={"FRAMELIFT_SEED": "abc"})
        assert code == 2
        assert "FRAMELIFT_SEED" in err and "'abc'" in err
        assert out == ""

    @pytest.mark.parametrize("args, env, source", [
        (["--seed", "-1"], None, "--seed"),
        ([], {"FRAMELIFT_SEED": "-3"}, "FRAMELIFT_SEED"),
    ])
    def test_negative_seed_exit_2_with_one_line(self, cli, args, env, source):
        argv = ["verify", "E1", "--suite", "core", *args]
        code, out, err = run_cli(*argv, env=env) if env else cli(*argv)
        assert code == 2
        assert "Traceback" not in err
        assert err.count("\n") == 1 and source in err and "non-negative" in err
        assert out == ""

    @pytest.mark.parametrize("extra, where", [
        (["--h", "0.3", "--h2", "0.5"], "stencil leaves chart domain"),
        (["--seed", "5"], "outside chart domain of S2(1/2)"),
    ])
    def test_domain_error_during_run_exit_2_with_message(self, cli, extra, where):
        # seed 5 samples E3's target box outside the domain of S2(1/2)
        code, _, err = cli("verify", "E3", "--suite", "core", *extra)
        assert code == 2
        assert "Traceback" not in err
        assert "E3 suite core" in err and where in err

    def test_domain_error_on_a_stack_names_one_point_and_its_index(self, cli):
        # the core suite checks the whole stack of sample points at once; the message
        # names the first point outside, and its place in the stack, not the stack
        code, _, err = cli("verify", "E3", "--suite", "core", "--seed", "5")
        assert code == 2
        found = re.findall(r"point \[([^\]]*)\] \(index (\d+)\) outside chart domain of S2\(1/2\)", err)
        assert len(found) == 1 and err.count("[") == 1
        coords, index = found[0]
        M = get("E3").phi.target
        point = sample_points(M, 5, 10)[int(index)]
        assert not M.contains(point) and M.contains(sample_points(M, 5, 10)[:int(index)])
        assert np.allclose([float(c) for c in coords.split()], point, atol=1e-7)

    def test_warped_theorems_exit_1(self):
        # the warped entry is a genuine counterexample to the two-sided
        # conformality expectation, so its theorem suite reports failure
        code, out, _ = run_cli("verify", "E4", "--suite", "theorems")
        assert code == 1
        assert "conformality_two_sided" in out


class TestDeterminism:
    def test_identical_reports_for_identical_seeds(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            assert run_cli("verify", "E1", "--suite", "core", "--seed", "7", "--json", str(path))[0] == 0
        assert strip_wall_times(a.read_text()) == strip_wall_times(b.read_text())

    def test_seed_changes_report(self, cli, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        cli("verify", "E1", "--suite", "core", "--seed", "7", "--json", str(a))
        cli("verify", "E1", "--suite", "core", "--seed", "8", "--json", str(b))
        assert json.loads(a.read_text())["config"]["seed"] == 7
        assert json.loads(b.read_text())["config"]["seed"] == 8

    def test_env_seed_override(self, tmp_path):
        path = tmp_path / "r.json"
        code, _, _ = run_cli("verify", "E1", "--suite", "core", "--json", str(path),
                             env={"FRAMELIFT_SEED": "123"})
        assert code == 0
        assert json.loads(path.read_text())["config"]["seed"] == 123

    def test_flag_beats_env(self, tmp_path):
        path = tmp_path / "r.json"
        run_cli("verify", "E1", "--suite", "core", "--seed", "5", "--json", str(path),
                env={"FRAMELIFT_SEED": "123"})
        assert json.loads(path.read_text())["config"]["seed"] == 5


class TestStepRobustness:
    """The frame suite at larger second-level steps keeps every status that ``verify all
    --seed 42`` records at the default step (the golden table); the oracle's O(D) fields
    are defined on all of L(M), so its stencils never leave the fields' domain."""

    GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden_seed42.json"

    @staticmethod
    def statuses(rows):
        """Status by (name, identity, kind); an audit row's name without the .best/.alt
        ranking, which moves with the residuals, so per (case, reading)."""
        out = {}
        for r in rows:
            name = re.sub(r"\.(best|alt)$", "", r["name"]) if r["kind"] == "audit" else r["name"]
            out.setdefault((name, r["identity"], r["kind"]), []).append(r["status"])
        return out

    @pytest.mark.parametrize("h2", ["1e-3", "3e-3"])
    def test_frame_suite_keeps_every_status(self, cli, tmp_path, h2):
        path = tmp_path / "frame.json"
        code, out, err = cli("verify", "all", "--suite", "frame", "--seed", "42", "--h2", h2, "--json", str(path))
        assert code == 0, out + err
        golden = [r for r in json.loads(self.GOLDEN.read_text())["rows"] if ".frame." in r["name"]]
        assert self.statuses(json.loads(path.read_text())["results"]) == self.statuses(golden)


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

    @pytest.mark.parametrize("env_seed, seed", [(None, 42), ("3", 3)])
    def test_two_calls_share_no_state(self, tmp_path, monkeypatch, capsys, env_seed, seed):
        # the parser is built once, at import: a second call without --seed or --suite
        # gets the default seed (or FRAMELIFT_SEED) and every suite, as a fresh process does
        env = {} if env_seed is None else {"FRAMELIFT_SEED": env_seed}
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        first, second, fresh = (tmp_path / f"{name}.json" for name in ("first", "second", "fresh"))
        main(["verify", "E1", "--seed", "7", "--suite", "frame", "--json", str(first)])
        code = main(["verify", "E1", "--json", str(second)])
        fresh_code, _, err = run_cli("verify", "E1", "--json", str(fresh))
        assert code == fresh_code, err
        doc = json.loads(second.read_text())
        assert doc["config"]["seed"] == seed
        assert {r["name"].split(".")[1] for r in doc["results"]} == set(SUITE_ORDER)
        assert strip_wall_times(second.read_text()) == strip_wall_times(fresh.read_text())

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


def test_import_leaves_scipy_linalg_unloaded():
    # the chart's matrix functions are numpy closed forms; scipy.linalg would
    # roughly double the import time of every process
    code, out, err = python("-c", "import sys, framelift.cli; print('scipy.linalg' in sys.modules)")
    assert code == 0, err
    assert out.strip() == "False"


def test_import_and_a_run_leave_scipy_unloaded():
    # the library computes with numpy only; SciPy would cost every process its import
    code, _, err = python("-c", "import sys, framelift.cli; framelift.cli.main(['verify', 'E1', '--suite', "
                          "'tangent']); print('scipy' in sys.modules, file=sys.stderr)")
    assert code == 0, err
    assert err.strip() == "False"
