"""The check accumulator, and what the suites report through it."""

import ast
import dataclasses
import json
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import framelift.suites as suites
from framelift.adapted import adapted_connection_audit, adapted_frame
from framelift.catalog import get, sphere_chart
from framelift.cli import main
from framelift.fields import g_skew_endo_field, polynomial_endo_field, polynomial_vector_field
from framelift.frames import Frame, connection_audit, reference_frame
from framelift.geometry import DEFAULT_FD, christoffel, curvature_tensor, metric_eval, sample_points
from framelift.submersion import adapted_endo_field, derive_geometry
from framelift.reporting import Checks, reports_to_json, strip_wall_times

NAN = float("nan")


class TestChecks:
    def test_row_reports_the_worst_value_and_the_evaluation_count(self):
        checks = Checks("E0.demo")
        r = checks.row("a", "some identity", 1e-8, np.array([1e-9, 3e-9, 2e-9]))
        assert (r.name, r.identity, r.residual, r.samples, r.status) == (
            "E0.demo.a", "some identity", 3e-9, 3, "pass")
        assert r.wall_ms >= 0.0
        assert checks.reports == [r]

    def test_rows_are_independent_and_emitted_in_order(self):
        checks = Checks("E0.demo")
        a = checks.row("a", "big", 1.0, 2.0)
        b = checks.row("b", "small", 1.0, 0.5, kind="audit")
        assert [r.name for r in checks.reports] == ["E0.demo.a", "E0.demo.b"]
        assert (a.status, b.status, b.kind, b.samples) == ("fail", "pass", "audit", 1)

    def test_invert_and_inconclusive(self):
        checks = Checks("E0.demo")
        assert checks.row("big", "exceeds 0.1", 0.1, 0.3, invert=True).status == "pass"
        assert checks.row("flag", "verdict", 0.5, 1.0, inconclusive=True).status == "inconclusive"

    def test_a_row_without_evaluations_raises(self):
        checks = Checks("E0.demo")
        with pytest.raises(ValueError, match="E0.demo.a"):
            checks.row("a", "nothing seen", 1.0)
        assert checks.reports == []

    @pytest.mark.parametrize("values, evaluations", [
        ((np.array([NAN, 1e-9]),), 2),
        ((np.array([1e-9, NAN]),), 2),
        ((np.array([1e-9, NAN]), 2e-9), 2),
        ((1e-9, NAN, 2e-9), 1),
        ((NAN, 1e-9), 1),
        ((np.array([1e-9, NAN, 2e-9]),), 3),
        ((np.array([NAN, 1e-9]), 3e-9), 2),
        ((2e-9, np.array([1e-9, 1e-9]), np.array([3e-9, NAN])), 2),
        ((np.array([NAN]), np.array([5.0, 1e-9])), 2),
    ], ids=["first", "later", "then-finite", "inside-numbers", "first-of-numbers",
            "inside-a-stack", "first-of-a-stack", "last-of-a-second-stack", "before-a-larger-stack"])
    @pytest.mark.parametrize("invert", [False, True])
    def test_a_nan_sticks_and_fails_the_row(self, values, evaluations, invert):
        r = Checks("E0.demo").row("a", "some identity", 1e-8, *values, invert=invert)
        assert np.isnan(r.residual) and r.status == "fail"
        assert r.samples == evaluations

    def test_a_stack_counts_one_evaluation_per_index_and_reports_its_max(self):
        r = Checks("E0.demo").row("a", "some identity", 1e-8, np.array([1e-9, 4e-9, 2e-9]))
        assert (r.residual, r.samples, r.status) == (4e-9, 3, "pass")
        assert type(r.residual) is float

    def test_stacks_broadcast_per_evaluation(self):
        # trailing axes are values of one evaluation
        r = Checks("E0.demo").row("a", "some identity", 1e-8, np.array([1e-9, 2e-9]),
                                  np.array([3e-9, 1e-9]), 5e-10, np.array([[1e-9], [6e-9]]))
        assert (r.residual, r.samples) == (6e-9, 2)

    def test_the_fold_is_order_free(self):
        values = np.array([3e-9, -1.0, 7e-9, 2e-9])
        checks = Checks("E0.demo")
        a, b = checks.row("a", "x", 1.0, values), checks.row("b", "x", 1.0, values[::-1])
        c = checks.row("c", "x", 1.0, *values[::-1])
        assert (a.residual, a.samples) == (b.residual, b.samples) == (7e-9, 4)
        assert (c.residual, c.samples) == (7e-9, 1)

    def test_stacks_of_unequal_length_raise(self):
        with pytest.raises(ValueError):
            Checks("E0.demo").row("a", "x", 1.0, np.zeros(3), np.zeros(4))

    @pytest.mark.parametrize("values", [(1e-9,), (1e-9, 2e-9), (np.float64(1e-9), np.array(2e-9))])
    def test_numbers_alone_are_one_evaluation(self, values):
        assert Checks("E0.demo").row("a", "x", 1.0, *values).samples == 1


def test_a_nan_at_a_later_sample_fails_its_suite_row(monkeypatch):
    # the core suite evaluates the symbols once on each chart's stack of sample points;
    # a NaN at the second point of the source stack fails the source row only
    real = suites.christoffel
    calls = []

    def christoffel(M, p):
        calls.append(p)
        gamma = real(M, p)
        if len(calls) == 1:
            gamma[1] = np.nan
        return gamma

    monkeypatch.setattr(suites, "christoffel", christoffel)
    rows = {r.name: r for r in suites.suite_core(get("E1"), samples=3)}
    row = rows["E1.core.gamma_symmetry.src"]
    assert [len(p) for p in calls] == [3, 3]
    assert np.isnan(row.residual) and row.status == "fail"
    assert rows["E1.core.gamma_symmetry.tgt"].status == "pass"


def test_a_nan_row_is_written_as_strict_json_with_a_null_residual():
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    checks = Checks("E0.demo")
    checks.row("finite", "x", 1.0, 0.5)
    checks.row("nan", "x", 1.0, np.array([0.1, NAN]))
    text = reports_to_json(DEFAULT_FD, 42, 2, checks.reports)
    finite, nan = json.loads(text, parse_constant=refuse)["results"]
    assert (finite["residual"], finite["status"]) == (0.5, "pass")
    assert (nan["residual"], nan["status"]) == (None, "fail")
    stripped = strip_wall_times(text)
    assert json.loads(stripped, parse_constant=refuse)["results"][1]["residual"] is None
    assert strip_wall_times(stripped) == stripped


@pytest.mark.parametrize("suite, name, expected", [
    ("tangent", "kernel_distribution", 3),     # max(2, 10 // 3) points
    ("tangent", "distribution_orthogonality", 3),
    ("tangent", "frame_projection_differential", 3),  # one per column of E1's 3-frame
    ("adapted", "difference_skew", 5),          # max(3, 10 // 2) points
    ("adapted", "w_lemma", 20),                 # two (x, y) pairs at each of 10 points
    ("lift", "div_duality", 25),                # 5 points, 5 trials each
    ("lift", "a_identity", 5),                  # max(3, 10 // 2) points
])
def test_samples_counts_the_evaluations_of_the_row(suite, name, expected):
    entry = get("E1")
    rows = {r.name: r for r in suites.SUITES[suite](entry, samples=10)}
    assert rows[f"E1.{suite}.{name}"].samples == expected


def test_an_entry_without_a_catalog_dilatation_has_no_dilatation_row():
    # E3 without a catalog dilatation has nothing to compare its dilatation with
    rows = suites.suite_lift(dataclasses.replace(get("E3"), expected_lambda=None))
    names = [r.name for r in rows]
    assert "E3.lift.dilatation_value" not in names
    assert "E3.lift.conformality_defect" in names


@pytest.mark.parametrize("eid", ["E1", "E2", "E3", "E4", "E5"])
def test_every_entry_checks_its_exact_jacobian_against_differences(eid):
    # every submersion carries an exact Jacobian, so no entry goes without the row
    rows = {r.name: r for r in suites.suite_lift(get(eid), samples=3)}
    row = rows[f"{eid}.lift.jacobian_vs_fd"]
    assert (row.status, row.samples) == ("pass", 3)


def test_the_report_rows_are_evaluated_and_named_once(tmp_path):
    path = tmp_path / "report.json"
    main(["verify", "all", "--seed", "42", "--json", str(path)])
    rows = json.loads(path.read_text())["results"]
    assert min(r["samples"] for r in rows) >= 1
    # the adapted connection audit names two hv readings alike
    repeated = sorted(name for name, count in Counter(r["name"] for r in rows).items() if count > 1)
    assert repeated == [f"E{k}.frame.adapted_connection.hv.alt" for k in range(1, 6)]
    assert len(rows) == len(set(r["name"] for r in rows)) + 5


def point_loops(source: str, function: str) -> list[int]:
    """The line of every ``for`` statement in ``function`` of source whose iterable reads the
    sample points ``pts``, or a name bound to a subscript of them (``few = pts[:5]``, and so on
    transitively).  A name bound to a value computed at the points, such as the rows of an
    audit there, holds no points and is not followed."""
    fn = next(node for node in ast.walk(ast.parse(source))
              if isinstance(node, ast.FunctionDef) and node.name == function)
    points, grown = {"pts"}, True
    while grown:
        bound = {target.id for node in ast.walk(fn) if isinstance(node, ast.Assign)
                 and isinstance(node.value, ast.Subscript) and isinstance(node.value.value, ast.Name)
                 and node.value.value.id in points
                 for target in node.targets if isinstance(target, ast.Name)}
        grown = not bound <= points
        points |= bound
    return sorted(node.lineno for node in ast.walk(fn) if isinstance(node, ast.For) and any(
        isinstance(name, ast.Name) and name.id in points for name in ast.walk(node.iter)))


# The one suite that still loops over points, and the number of its loops: the tangent
# suite's distribution block builds the kernel's null space at each of its 3 points
POINT_LOOPS = {"suite_tangent": 1}


@pytest.mark.parametrize("suite", [f.__name__ for f in suites.SUITES.values()])
def test_suite_runs_no_loop_over_its_sample_points(suite):
    lines = point_loops(Path(suites.__file__).read_text(), suite)
    assert len(lines) == POINT_LOOPS.get(suite, 0), (
        f"suites.py lines {lines}: run the block once on the stack of points")


def test_the_point_loop_scan_sees_each_loop_over_the_sample_points():
    source = '''
def suite_demo():
    for p in pts:
        f(p)
    for i, p in enumerate(pts[:3]):
        f(p)
    for M in manifolds:
        for q in pts:
            f(q)
    for key in keys:
        f(key)
    few = pts[:5]
    for i, p in enumerate(few):
        f(p)
    two = few[:2]
    for p in two:
        f(p)
    rows = audit(pts)
    for r in rows:
        f(r)
'''
    assert point_loops(source, "suite_demo") == [3, 5, 8, 13, 16]


@pytest.mark.parametrize("eid", ["E1", "E3", "E4"])
def test_tangent_distribution_dimensions_fail_on_a_dependent_kernel(monkeypatch, eid):
    # both lengths hold by construction; a kernel whose last vector repeats its first
    # keeps them, so only its rank fails the row
    real = suites.tm_distributions

    def duplicating(*args):
        kernel, *rest = real(*args)
        return (kernel[:-1] + kernel[:1], *rest)

    def dimensions_row():
        row, = (r for r in suites.suite_tangent(get(eid), seed=42)
                if r.name == f"{eid}.tangent.distribution_dimensions")
        return row.residual, row.status

    assert dimensions_row() == (0.0, "pass")
    monkeypatch.setattr(suites, "tm_distributions", duplicating)
    assert dimensions_row() == (1.0, "fail")


class TestOneTotalSpaceChristoffelPerPoint:
    """The oracle differences the induced metric into Christoffel symbols once per point,
    or once for a stack of points, by one ``christoffel`` on the total space, whose induced
    metric reads the chart Jacobian twice: at the points and on one stencil.  Every oracle
    runs on L(M); the O(M) and O(D) values are one ``gauss_projection`` each, whose Mok
    metric reads the caller's base metric and Christoffel symbols and evaluates none.  The
    frame suite's counts are in ``test_call_budget``."""

    @pytest.fixture
    def total_calls(self, calls):
        """Christoffel evaluations ("gamma": ``christoffel`` on a total space, and any
        evaluation of the kernel inside the projection) and chart Jacobians ("jacobian",
        by chart)."""
        counted = calls("christoffel", "_christoffel_from", "gauss_projection",
                        "FrameChart.jacobian", "LMChart.jacobian")
        return lambda: {
            "gamma": [c.args[0].name for c in counted["christoffel"] if c.args[0].name.startswith("total[")]
            + ["projection" for c in counted["_christoffel_from"] if "gauss_projection" in c.within],
            "jacobian": [c.args[0].name for c in counted["FrameChart.jacobian"] + counted["LMChart.jacobian"]]}

    @pytest.mark.parametrize("bundle", ["L", "O"])
    def test_connection_audit(self, total_calls, bundle):
        S2 = sphere_chart(2)
        rng = np.random.default_rng(25)
        X, Y = polynomial_vector_field(2, rng), polynomial_vector_field(2, rng)
        if bundle == "L":
            P, Q = polynomial_endo_field(2, rng), polynomial_endo_field(2, rng)
        else:
            P, Q = g_skew_endo_field(S2, rng), g_skew_endo_field(S2, rng)
        p = np.array([0.2, -0.1])
        connection_audit(S2, Frame(p, reference_frame(S2, p)), {bundle: dict(X=X, Y=Y, P=P, Q=Q)},
                         metric_eval(S2, p), christoffel(S2, p), curvature_tensor(S2, p))
        assert total_calls() == {"gamma": ["total[L(M)]"], "jacobian": ["L(M)"] * 2}

    def test_adapted_connection_audit(self, total_calls):
        e = get("E3")
        M, geom = e.phi.source, derive_geometry(e.phi)
        rng = np.random.default_rng(26)
        J = np.array([[0.0, -1.0], [1.0, 0.0]])
        fields = dict(X=polynomial_vector_field(3, rng), Y=polynomial_vector_field(3, rng),
                      P=adapted_endo_field(geom, top=0.8 * J),
                      Q=adapted_endo_field(geom, top=-1.3 * J))
        p = sample_points(M, 46, 1)[0]
        adapted_connection_audit(M, geom.horizontal, adapted_frame(M, geom.horizontal, p), fields,
                                 metric_eval(M, p), christoffel(M, p), curvature_tensor(M, p))
        assert total_calls() == {"gamma": ["total[L(M)]"], "jacobian": ["L(M)"] * 2}
