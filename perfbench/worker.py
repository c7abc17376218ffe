"""Benchmark worker: one fresh process that sets up framelift and runs units.

``run.py`` starts it with the thread pools pinned and ``src`` on the path;
it writes its raw measurements as JSON to ``--out``.  Each unit is one
in-process ``framelift.cli.main(["verify", E, "--suite", s, "--seed", n,
"--json", path])`` call, so it passes through ``cli``, ``suites`` and
``reporting`` as a user's call does.  The console output goes to
/dev/null; the JSON report is checked against the golden table.

Modes:
  --setup-only   import framelift, prepare the first unit, report setup_s
  --trace 0      closed loop of whole passes for about --seconds
  --trace 1      a fixed number of passes, each unit run once untraced and
                 once traced (alternating which goes first)
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import golden  # noqa: E402
from workloads import WORKLOADS, passes  # noqa: E402

# Per-function metrics of the traced run, as "<function>.<calls|self_s|total_s>".
FUNCTION_METRICS = (
    "geometry.christoffel.calls", "geometry.christoffel.self_s",
    "geometry.metric_eval.calls",
    "geometry.curvature_tensor.calls", "geometry.curvature_tensor.total_s",
    "geometry.covariant_derivative.calls", "geometry.covariant_derivative.total_s",
    "geometry.central_diff.calls",
    "frames.induced_metric_on_chart.calls", "frames.induced_metric_on_chart.total_s",
    "frames.mok_metric.calls", "frames.mok_metric.self_s",
    "frames.vertical_part.calls",
    "frames.lc_total_space_oracle.calls", "frames.lc_total_space_oracle.total_s",
    "frames.FrameChart.chart_to_tangent.calls", "frames.FrameChart.chart_to_tangent.self_s",
    "frames.FrameChart.encode.calls", "frames.FrameChart.encode.self_s",
    "frames.FrameChart.decode.calls",
    "submersion.splitting_projectors.calls", "submersion.splitting_projectors.self_s",
    "submersion.differential_matrix.calls",
    "submersion.lift_differential_fd.calls", "submersion.lift_differential_fd.total_s",
    "submersion.classify.calls", "submersion.classify.total_s",
    "adapted.S_tensor.calls", "adapted.S_tensor.total_s",
    "tangent.connection_map_K.calls",
    "tangent.sasaki_mok_tm.calls",
)


class Runner:
    """Runs units through the CLI and checks each report against the golden table."""

    def __init__(self, cli, work: Path):
        self.cli = cli  # looked up per call, so a traced run enters the wrapped main
        self.table = golden.load()
        self.report = work / "unit-report.json"
        self.sink = open(os.devnull, "w")

    def close(self) -> None:
        self.sink.close()

    def run(self, unit: tuple[str, str, int]) -> dict:
        example, suite, seed = unit
        argv = ["verify", example, "--suite", suite, "--seed", str(seed),
                "--json", str(self.report)]
        with contextlib.suppress(FileNotFoundError):
            self.report.unlink()
        rc, error, unexpected = None, None, ""
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(self.sink):
                rc = self.cli.main(argv)
        except ValueError as exc:  # the library's rejection of a point, e.g. DomainError
            error = f"{type(exc).__name__}: {exc}"
        except (Exception, SystemExit) as exc:  # a defect; the run is not correct
            error, unexpected = f"{type(exc).__name__}: {exc}", traceback.format_exc()
        wall = time.perf_counter() - start
        rows = None
        if error is None and self.report.exists():
            rows = json.loads(self.report.read_text())["results"]
        expected = self.table[(example, suite)]
        failed, problems = golden.check_unit(expected, rows, rc)
        if unexpected:
            problems.append(f"unexpected exception {unexpected}")
        elif error is None and rows is None:
            problems.append(f"exit code {rc} and no report written")
        return {"unit": list(unit), "start_s": start, "wall_s": wall, "rows": len(rows or ()),
                "asserted": golden.asserted_count(expected), "failed": failed,
                "error": error, "problems": problems,
                "statuses": [r["status"] for r in rows or ()]}


def measure(runner: Runner, workload, seed: int, seconds: float) -> tuple[list[dict], object]:
    """Closed loop, one client: whole passes for about ``seconds``.

    Another pass starts only if a pass as long as the last one would end
    within ``seconds``; the first pass always runs.  Each record also gets
    ``speed_s``, its wall time corrected for the machine's speed (speed.py).
    """
    from speed import SpeedProbe

    records = []
    deadline = time.perf_counter() + seconds
    with SpeedProbe() as probe:
        for units in passes(workload, seed):
            began = time.perf_counter()
            records.extend(runner.run(u) for u in units)
            now = time.perf_counter()
            if 2 * now - began > deadline:
                break
    for r in records:
        r["speed_s"] = probe.corrected(r["start_s"], r["start_s"] + r["wall_s"])
    return records, probe


def trace(runner: Runner, workload, seed: int, spans_path: Path) -> tuple[list[dict], dict]:
    """Run ``workload.trace_passes`` passes untraced and traced; per-layer metrics."""
    from tracer import Tracer

    tracer = Tracer()
    with tracer:
        build = getattr(sys.modules["framelift.catalog"], "_build_entries", None)
        if build is not None:  # catalog construction, otherwise run only at import
            build()
    stream = passes(workload, seed)
    units = [u for _ in range(workload.trace_passes) for u in next(stream)]
    records, untraced_s, traced_s = [], 0.0, 0.0
    for i, unit in enumerate(units):
        order = (False, True) if i % 2 == 0 else (True, False)
        for traced in order:
            if traced:
                with tracer:
                    rec = runner.run(unit)
                tracer.end_unit()
                traced_s += rec["wall_s"]
                records.append(rec)
            else:
                plain = runner.run(unit)
                untraced_s += plain["wall_s"]
        if plain["statuses"] != rec["statuses"]:
            rec["problems"].append("traced statuses differ from untraced ones")
    summary = tracer.summary()
    tracer.save(spans_path)
    fn = summary["functions"]
    metrics = {}
    for layer, v in summary["layers"].items():
        metrics[f"{layer}.self_s"] = v["self_s"]
        metrics[f"{layer}.calls"] = v["calls"]
    for name in FUNCTION_METRICS:
        func, stat = name.rsplit(".", 1)
        metrics[name] = fn.get(func, {}).get(stat, 0)
    for name, count in summary["counts"].items():
        metrics[f"{name}.calls"] = count
    calls = fn.get("geometry.christoffel", {}).get("calls", 0)
    metrics["geometry.christoffel.distinct_share"] = tracer.distinct / calls if calls else 0.0
    metrics["suites.units"] = len(records)
    metrics["suites.units_raised"] = sum(1 for r in records if r["error"])
    metrics["trace.overhead_ratio"] = traced_s / untraced_s - 1.0
    extra = {"root_s": summary["root_s"], "spans": summary["spans"],
             "layer_self_sum_s": sum(v["self_s"] for v in summary["layers"].values()),
             "untraced_s": untraced_s, "traced_s": traced_s}
    return records, {"metrics": metrics, "trace": extra}


def library_provenance() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}"}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()

    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the setup clock started")
    start = time.perf_counter()
    import framelift.cli  # every layer, and the catalog, are built here

    runner = Runner(framelift.cli, args.work)
    setup_s = time.perf_counter() - start
    out: dict = {"setup_s": setup_s}
    try:
        if not args.setup_only:
            workload = WORKLOADS[args.workload]
            if args.trace:
                spans = args.work / f"spans-{workload.name}.npz"
                out["units"], traced = trace(runner, workload, args.seed, spans)
                out.update(traced, spans=str(spans.relative_to(ROOT)))
            else:
                out["units"], probe = measure(runner, workload, args.seed, args.seconds)
                out["probes"] = {"at": probe.at, "took": probe.took}
            out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            out["provenance"] = library_provenance()
    finally:
        runner.close()
    args.out.write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
