"""Seed pool of the ``chart-calculus`` workload, and the seeds left out of it.

``verify E3 --suite core`` raises ``DomainError`` for 88 of the framelift
seeds 0..1199 (the E3 target chart samples the box +-1.5, but its domain is
|p|^2 < 4), and ``metric_compatibility`` misjudges a few seeds of E2, E3 and
E5 ``core``.  A workload whose failures depend on which seeds a timed run
happens to draw reports a different ``failed`` count on every run, so
``chart-calculus`` draws its framelift seeds from a fixed pool: the
candidate seeds on which every one of its units matches the golden table.
Every seed left out is listed in ``seedpool.json`` with the failure that
excluded it; they are known defects of framelift, not of the benchmark.
Rebuild the pool (about 6 minutes) with

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 python3 perfbench/seedpool.py
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
POOL = HERE / "seedpool.json"
CANDIDATES = 1200


def load(path: Path = POOL) -> list[int]:
    return json.loads(path.read_text())["seeds"]


def differing(expected: list[dict], rows: list[dict]) -> list[str]:
    """The asserted rows whose status differs from the golden table."""
    got = {(r["name"], r["identity"]): r["status"] for r in rows if r["kind"] == "assert"}
    return [f"{r['name']} is {got.get((r['name'], r['identity']), 'missing')}, "
            f"not {r['status']}"
            for r in expected
            if r["kind"] == "assert" and got.get((r["name"], r["identity"])) != r["status"]]


def write(path: Path, doc: dict) -> None:
    """The pool on one line, and one line per excluded seed."""
    excluded = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in doc["excluded"].items())
    path.write_text(f'{{"source": {json.dumps(doc["source"])},\n'
                    f' "seeds": {json.dumps(doc["seeds"])},\n'
                    f' "excluded": {{\n{excluded}\n }}}}\n')


def build(path: Path = POOL, candidates: int = CANDIDATES) -> None:
    import framelift.cli
    import worker
    from workloads import EXAMPLES, WORKLOADS

    suites = WORKLOADS["chart-calculus"].suites
    units = [(e, s) for e in EXAMPLES for s in suites]
    seeds, excluded = [], {}
    with tempfile.TemporaryDirectory() as work:
        runner = worker.Runner(framelift.cli, Path(work))
        try:
            for seed in range(candidates):
                why = []
                for example, suite in units:
                    rec = runner.run((example, suite, seed))
                    if rec["error"]:
                        why.append(f"{example}/{suite}: {rec['error']}")
                    elif rec["failed"] or rec["problems"]:
                        rows = json.loads(runner.report.read_text())["results"]
                        why.append(f"{example}/{suite}: " + "; ".join(
                            differing(runner.table[(example, suite)], rows) + rec["problems"]))
                if why:
                    excluded[str(seed)] = why
                else:
                    seeds.append(seed)
        finally:
            runner.close()
    doc = {"source": f"framelift seeds 0..{candidates - 1}, every unit of suites "
                     f"{', '.join(suites)} on {', '.join(EXAMPLES)} checked against "
                     f"the golden table",
           "seeds": seeds, "excluded": excluded}
    write(path, doc)
    print(f"{len(seeds)} of {candidates} seeds kept; {len(excluded)} excluded")


if __name__ == "__main__":
    sys.path.insert(0, str(HERE))
    build()
