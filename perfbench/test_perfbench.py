"""Self-tests of the benchmark.  Run from the repository root:

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import framelift.cli  # noqa: E402
import golden  # noqa: E402
import run  # noqa: E402
import seedpool  # noqa: E402
import worker  # noqa: E402
from speed import KERNELS, SpeedProbe  # noqa: E402
from tracer import CHART_CLASSES, Tracer  # noqa: E402
from workloads import WORKLOADS, Workload, passes  # noqa: E402

TINY = Workload("tiny", ("core",), 1, "one pass of core on E1-E5")


def bindings() -> dict:
    """Every value the tracer could patch, by where it is bound."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "framelift" or name.startswith("framelift."):
            out.update({(name, k): v for k, v in vars(mod).items()})
    frames = sys.modules["framelift.frames"]
    for cls in CHART_CLASSES:
        out.update({(cls, k): v for k, v in vars(getattr(frames, cls)).items()})
    out.update({("SUITES", k): v for k, v in framelift.suites.SUITES.items()})
    return out


def same(a: dict, b: dict) -> bool:
    return a.keys() == b.keys() and all(a[k] is b[k] for k in a)


@pytest.fixture(scope="module")
def runner(tmp_path_factory):
    r = worker.Runner(framelift.cli, tmp_path_factory.mktemp("work"))
    yield r
    r.close()


def test_tracer_restores_every_binding():
    before = bindings()
    with Tracer():
        during = bindings()
        assert during[("framelift.suites", "christoffel")] is not before[
            ("framelift.suites", "christoffel")]
        assert during[("SUITES", "core")] is not before[("SUITES", "core")]
        assert during[("FrameChart", "encode")] is not before[("FrameChart", "encode")]
        assert during[("framelift.frames", "scipy")] is not before[("framelift.frames", "scipy")]
    assert same(bindings(), before)


def test_traced_unit_yields_untraced_statuses(runner):
    unit = ("E4", "tangent", 3)
    plain = runner.run(unit)
    with Tracer():
        traced = runner.run(unit)
    assert plain["statuses"] and traced["statuses"] == plain["statuses"]
    assert plain["problems"] == traced["problems"] == []


def test_layer_self_times_sum_to_root_wall(runner):
    with Tracer() as tracer:
        record = runner.run(("E1", "core", 3))
    names, name_id, dur, self_t, parent = tracer.arrays()
    roots = parent < 0
    assert [names[i] for i in name_id[roots]] == ["cli.main"]
    assert dur[roots].sum() <= record["wall_s"]
    summary = tracer.summary()
    layer_sum = sum(v["self_s"] for v in summary["layers"].values())
    assert layer_sum == pytest.approx(summary["root_s"], rel=1e-9)
    assert all(v["self_s"] >= 0 for v in summary["layers"].values())


def test_golden_check_flags_a_flipped_status():
    expected = golden.load()[("E2", "core")]
    rows = [dict(r) for r in expected]
    assert golden.check_unit(expected, rows, 0) == (0, [])
    flipped = next(r for r in rows if r["kind"] == "assert")
    flipped["status"] = "fail"
    assert golden.check_unit(expected, rows, 1) == (1, [])
    failed, problems = golden.check_unit(expected, rows, 0)
    assert failed == 1 and problems == ["exit code 0 disagrees with the report"]


def test_crashing_unit_counts_as_failed_not_skipped(runner):
    record = runner.run(("E3", "core", 5))
    assert record["error"].startswith("DomainError")
    assert record["rows"] == 0
    assert record["failed"] == record["asserted"] == 12
    assert record["problems"] == []


def test_chart_calculus_draws_from_the_pool_which_lists_what_it_excludes(runner):
    pool = set(seedpool.load())
    stream = passes(WORKLOADS["chart-calculus"], 3)
    drawn = {seed for _ in range(20) for _, _, seed in next(stream)}
    assert len(drawn) > 150 and drawn <= pool
    excluded = json.loads(seedpool.POOL.read_text())["excluded"]
    assert 5 not in pool and excluded["5"][0].startswith("E3/core: DomainError")
    for seed in sorted(pool)[:3]:
        record = runner.run(("E3", "core", seed))
        assert record["failed"] == 0 and record["problems"] == []


def test_traced_counts_repeat_and_cover_the_declared_metrics(runner, tmp_path):
    first = worker.trace(runner, TINY, 7, tmp_path / "a.npz")[1]["metrics"]
    second = worker.trace(runner, TINY, 7, tmp_path / "b.npz")[1]["metrics"]
    counts = [m for m in first if run.per_layer_unit(m) == "count"]
    assert counts and all(first[m] == second[m] for m in counts)
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())["per_layer"]
    assert sorted(first) == sorted(m["name"] for m in declared)
    assert all(run.per_layer_unit(m["name"]) == m["unit"] for m in declared)


def test_tail_has_ten_units_beyond_or_is_the_maximum():
    assert run.tail([5.0, 1.0, 3.0]) == (5.0, 100.0, 0)
    times = [float(i) for i in range(40)]
    assert run.tail(times) == (29.0, 75.0, 10)


def test_speed_correction_scales_by_the_local_probe_time():
    probe = SpeedProbe()
    at = [0.1 * i for i in range(100)]
    refs = [ref for _, ref in KERNELS]
    probe.at = [at] * len(KERNELS)
    probe.took = [[ref] * 50 + [2 * ref] * 50 for ref in refs]
    own = 10 * sum(refs)  # ten probes of each kernel in a 1 s interval at full speed
    # at full speed only the probes' own time is removed
    assert probe.corrected(1.0, 2.0) == pytest.approx(1.0 - own)
    # the same interval at half speed counts half
    assert probe.corrected(6.0, 7.0) == pytest.approx((1.0 - 2 * own) / 2)
    # a unit spanning no probe takes the speed of its nearest ones
    assert probe.corrected(8.01, 8.02) == pytest.approx(0.01 / 2)


def test_benchmark_json_matches_the_code():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert doc["workloads"] == [{"name": w.name, "why": w.why} for w in WORKLOADS.values()]
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END_UNITS
