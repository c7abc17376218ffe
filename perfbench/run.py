"""framelift benchmark: end-to-end and per-layer metrics of `framelift verify`.

Usage, from the root of a framelift checkout:

    python3 perfbench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

With --trace 0 it prints checks_per_s, unit_p50_s, unit_tail_s, setup_s,
failed_share and peak_rss_mb, each with its unit; with --trace 1 the
per-layer metrics of a separate traced run.  The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
``attempted`` counts the asserted rows the golden table expects of the
units run and ``failed`` those whose status differed or that are missing.
A result file with provenance goes to .perfbench/results/.  See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

from workloads import EXAMPLES, WORKLOADS  # noqa: E402

PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
SETUP_PROBES = 4  # fresh processes that only set up, besides the measuring worker
RUN_LIMIT_S = 170.0
TAIL_BEYOND = 10

END_TO_END_UNITS = {"checks_per_s": "1/s", "unit_p50_s": "s", "unit_tail_s": "s",
                    "setup_s": "s", "peak_rss_mb": "MB"}


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_share", "_ratio")):
        return "ratio"
    return "count"


def run_worker(args: list[str], out: Path, deadline: float) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "FRAMELIFT_SEED"}
    env.update(PINNED, PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, str(HERE / "worker.py"), *args, "--work", str(WORK), "--out", str(out)]
    proc = subprocess.run(cmd, env=env, cwd=ROOT,
                          timeout=max(deadline - time.monotonic(), 1.0))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}: {' '.join(cmd)}")
    return json.loads(out.read_text())


def tail(times: list[float]) -> tuple[float, float, int]:
    """(value, percentile, units beyond) at the highest percentile with >= 10 units beyond.

    With 10 units or fewer no percentile has 10 beyond it; the maximum is reported.
    """
    ordered = sorted(times)
    rank = len(ordered) - TAIL_BEYOND if len(ordered) > TAIL_BEYOND else len(ordered)
    return ordered[rank - 1], 100.0 * rank / len(ordered), len(ordered) - rank


def git_sha() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def run_workload(name: str, seed: int, seconds: float, trace: bool, deadline: float) -> dict:
    workload = WORKLOADS[name]
    tag = f"{name}-seed{seed}-trace{int(trace)}"
    common = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
              "--trace", str(int(trace))]
    setups = []
    if not trace:
        for i in range(SETUP_PROBES):
            probe = run_worker([*common, "--setup-only"], WORK / f"{tag}-setup{i}.json", deadline)
            setups.append(probe["setup_s"])
    raw = run_worker(common, WORK / f"{tag}-raw.json", deadline)
    units = raw["units"]
    attempted = sum(u["asserted"] for u in units)
    failed = sum(u["failed"] for u in units)
    problems = [f"{'/'.join(map(str, u['unit']))}: {p}" for u in units for p in u["problems"]]
    if trace:
        metrics = raw["metrics"]
        units_of = {m: per_layer_unit(m) for m in metrics}
    else:
        setups.append(raw["setup_s"])
        rows = sum(u["rows"] for u in units)
        walls = [u["speed_s"] for u in units]
        plain = [u["wall_s"] for u in units]
        value, pct, beyond = tail(walls)
        metrics = {
            "checks_per_s": rows / sum(walls),
            "unit_p50_s": statistics.median(walls),
            "unit_tail_s": value,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": raw["peak_rss_mb"],
        }
        units_of = END_TO_END_UNITS
        uncorrected = {"checks_per_s": rows / sum(plain), "unit_p50_s": statistics.median(plain),
                       "unit_tail_s": tail(plain)[0]}
    result = {
        "workload": name, "why": workload.why, "seed": seed, "seconds": seconds,
        "trace": int(trace), "correct": not problems, "attempted": attempted,
        "failed": failed, "failed_share": failed / attempted if attempted else 0.0,
        "units": len(units), "units_raised": sum(1 for u in units if u["error"]),
        "passes": len(units) // (len(workload.suites) * len(EXAMPLES)),
        "metrics": {m: {"value": v, "unit": units_of[m]} for m, v in metrics.items()},
        "problems": problems,
        "provenance": {
            "git_sha": git_sha(), "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), **raw["provenance"],
            "thread_env": PINNED,
            "seed": seed, "unit_count": {name: len(units)},
            "machine": platform.machine(), "platform": platform.platform(),
        },
        "unit_records": [{k: u.get(k) for k in ("unit", "wall_s", "speed_s", "rows", "failed",
                                                "error")} for u in units],
    }
    if trace:
        result["trace_info"] = raw["trace"] | {"spans_file": raw["spans"]}
    else:
        result["tail"] = {"percentile": pct, "beyond": beyond, "of": len(units)}
        result["setup_samples_s"] = setups
        result["uncorrected"] = uncorrected
    (WORK / "results").mkdir(exist_ok=True)
    path = WORK / "results" / f"{tag}.json"
    path.write_text(json.dumps(result, indent=1))
    result["path"] = str(path.relative_to(ROOT))
    return result


def describe(r: dict) -> None:
    p = r["provenance"]
    print(f"== {r['workload']}  seed={r['seed']}  trace={r['trace']}  "
          f"({r['units']} units in {r['passes']} passes, {r['units_raised']} raised)")
    print(f"   why: {r['why']}")
    m = r["metrics"]
    if r["trace"]:
        for name, v in m.items():
            print(f"   {name:44s} {v['value']:.6g} {v['unit']}")
        t = r["trace_info"]
        print(f"   spans {t['spans']}, root wall {t['root_s']:.4f} s, "
              f"layer self-time sum {t['layer_self_sum_s']:.4f} s; spans in {t['spans_file']}")
    else:
        t = r["tail"]
        print(f"   checks_per_s  {m['checks_per_s']['value']:.6g} 1/s  (rows per second of "
              f"corrected unit wall time)")
        print(f"   unit_p50_s    {m['unit_p50_s']['value']:.6g} s    (median of {r['units']} units)")
        print(f"   unit_tail_s   {m['unit_tail_s']['value']:.6g} s    (p{t['percentile']:.4g} of "
              f"{t['of']} units, {t['beyond']} beyond)")
        print(f"   setup_s       {m['setup_s']['value']:.6g} s    (median of "
              f"{len(r['setup_samples_s'])} fresh processes)")
        print(f"   failed_share  {r['failed_share']:.6g} ratio  ({r['failed']} of {r['attempted']} "
              f"asserted rows)")
        print(f"   peak_rss_mb   {m['peak_rss_mb']['value']:.6g} MB")
        print("   waiting time: none; one client, one thread, no queues")
        print("   uncorrected wall time: " + ", ".join(
            f"{k} {v:.6g}" for k, v in r["uncorrected"].items()))
    print(f"   correct={r['correct']}  problems={len(r['problems'])}")
    for prob in r["problems"][:10]:
        print(f"     {prob}")
    print(f"   sha={p['git_sha']} nproc={p['nproc']} python={p['python']} numpy={p['numpy']} "
          f"scipy={p['scipy']} blas={p['blas']} pinned={PINNED}")
    print(f"   result file: {r['path']}")


def main() -> int:
    ap = argparse.ArgumentParser(description="framelift benchmark")
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "framelift" / "cli.py").is_file():
        print(f"error: no framelift source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        try:
            deadline = time.monotonic() + RUN_LIMIT_S
            results.append(run_workload(name, args.seed, args.seconds, bool(args.trace),
                                        deadline))
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        describe(results[-1])
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    print(json.dumps({"correct": all(r["correct"] for r in results),
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
