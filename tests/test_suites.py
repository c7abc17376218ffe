"""The check accumulator, and what the suites report through it."""

import numpy as np
import pytest

import framelift.suites as suites
from framelift.catalog import get
from framelift.geometry import DEFAULT_FD
from framelift.reporting import Checks

NAN = float("nan")


class TestChecks:
    def test_row_reports_the_worst_value_and_the_see_count(self):
        checks = Checks("E0.demo")
        checks.see("a", 1e-9, 3e-9)
        checks.see("a", 2e-9)
        r = checks.row("a", "some identity", 1e-8)
        assert (r.name, r.identity, r.residual, r.samples, r.status) == (
            "E0.demo.a", "some identity", 3e-9, 2, "pass")
        assert r.wall_ms >= 0.0
        assert checks.reports == [r]

    def test_rows_are_independent_and_emitted_in_order(self):
        checks = Checks("E0.demo")
        checks.see("a", 2.0)
        checks.see("b", 0.5)
        a = checks.row("a", "big", 1.0)
        b = checks.row("b", "small", 1.0, kind="audit")
        assert [r.name for r in checks.reports] == ["E0.demo.a", "E0.demo.b"]
        assert (a.status, b.status, b.kind, b.samples) == ("fail", "pass", "audit", 1)

    def test_invert_and_inconclusive(self):
        checks = Checks("E0.demo")
        checks.see("big", 0.3)
        checks.see("flag", 1.0)
        assert checks.row("big", "exceeds 0.1", 0.1, invert=True).status == "pass"
        assert checks.row("flag", "verdict", 0.5, inconclusive=True).status == "inconclusive"

    def test_a_row_without_evaluations_reports_zero_samples(self):
        r = Checks("E0.demo").row("a", "nothing seen", 1.0)
        assert (r.residual, r.samples) == (0.0, 0)

    @pytest.mark.parametrize("calls", [
        [(NAN,), (1e-9,)],
        [(1e-9,), (NAN,)],
        [(1e-9,), (NAN,), (2e-9,)],
        [(1e-9, NAN, 2e-9)],
        [(NAN, 1e-9)],
    ], ids=["first", "later", "then-finite", "inside-one-call", "first-of-one-call"])
    @pytest.mark.parametrize("invert", [False, True])
    def test_a_nan_sticks_and_fails_the_row(self, calls, invert):
        checks = Checks("E0.demo")
        for values in calls:
            checks.see("a", *values)
        r = checks.row("a", "some identity", 1e-8, invert=invert)
        assert np.isnan(r.residual) and r.status == "fail"
        assert r.samples == len(calls)


def test_a_nan_at_a_later_sample_fails_its_suite_row(monkeypatch):
    real = suites.christoffel
    calls = []

    def christoffel(M, p, cfg=DEFAULT_FD):
        calls.append(p)
        gamma = real(M, p, cfg)
        return np.full_like(gamma, np.nan) if len(calls) == 2 else gamma

    monkeypatch.setattr(suites, "christoffel", christoffel)
    rows = {r.name: r for r in suites.suite_core(get("E1"), samples=3)}
    row = rows["E1.core.gamma_symmetry.src"]
    assert np.isnan(row.residual) and row.status == "fail"
    assert rows["E1.core.gamma_symmetry.tgt"].status == "pass"


@pytest.mark.parametrize("suite, name, expected", [
    ("tangent", "kernel_distribution", 3),     # max(2, 10 // 3) points
    ("adapted", "difference_skew", 5),          # max(3, 10 // 2) points
    ("lift", "div_duality", 25),                # 5 points, 5 trials each
])
def test_samples_counts_the_evaluations_of_the_row(suite, name, expected):
    entry = get("E1")
    rows = {r.name: r for r in suites.SUITES[suite](entry, samples=10)}
    assert rows[f"E1.{suite}.{name}"].samples == expected


@pytest.mark.parametrize("eid", ["E1", "E3", "E4"])
def test_tangent_suite_differences_each_kernel_vector_once(monkeypatch, eid):
    # 2 kinds x 3 points for the second-differential rows, then at 2 points
    # the 2 kernel vectors and the 1 corrected constant-extension vector
    real = suites.phi_second_differential_fd
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(suites, "phi_second_differential_fd", counting)
    suites.suite_tangent(get(eid), samples=3)
    assert len(calls) == 12
