"""Check reports and their serialization.

Each residual check becomes one record: what was checked, the measured
residual, the tolerance, and the verdict.  Audit records carry diagnostic
comparisons and never affect an exit status.  Serialized reports are
byte-identical across runs with the same configuration once wall times are
stripped.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

from .geometry import FDConfig

REPORT_VERSION = "1"


@dataclass
class CheckReport:
    """One named residual with its tolerance and verdict."""

    name: str
    identity: str
    residual: float
    tolerance: float
    status: str  # pass | fail | inconclusive
    kind: str = "assert"  # assert | audit
    samples: int = 1
    wall_ms: float = 0.0


class Checks:
    """The rows of one suite, accumulated evaluation by evaluation.

    ``see(key, *values)`` folds one evaluation into the worst residual of
    row ``key``; a NaN among the values sticks, so the row fails.  ``row``
    emits that row as a CheckReport named ``<prefix>.<key>``, whose
    ``samples`` is the number of ``see`` calls for the key and whose
    ``wall_ms`` is the time since the previous row.  ``reports`` lists the
    emitted rows in order.
    """

    def __init__(self, prefix: str):
        self.prefix = prefix
        self.reports: list[CheckReport] = []
        self._seen: dict[str, tuple[float, int]] = {}
        self._last = time.perf_counter()

    def see(self, key: str, *values: float) -> None:
        worst, count = self._seen.get(key, (0.0, 0))
        for v in values:
            v = float(v)
            if v > worst or v != v:  # a NaN replaces the worst, and nothing replaces a NaN
                worst = v
        self._seen[key] = (worst, count + 1)

    def row(self, key: str, identity: str, tolerance: float, kind: str = "assert",
            invert: bool = False, inconclusive: bool = False) -> CheckReport:
        """Emit row ``key``; ``invert`` asserts the residual EXCEEDS the tolerance."""
        residual, samples = self._seen.pop(key, (0.0, 0))
        if inconclusive:
            status = "inconclusive"
        elif invert:
            status = "pass" if residual > tolerance else "fail"
        else:
            status = "pass" if residual < tolerance else "fail"
        now = time.perf_counter()
        report = CheckReport(
            name=f"{self.prefix}.{key}", identity=identity, residual=residual,
            tolerance=float(tolerance), status=status, kind=kind, samples=samples,
            wall_ms=(now - self._last) * 1000.0,
        )
        self._last = now
        self.reports.append(report)
        return report


def _fmt(x: float) -> float:
    """Round to 6 significant digits for stable, diff-able output."""
    return float(f"{x:.6g}")


def report_to_dict(r: CheckReport) -> dict:
    return {
        "name": r.name,
        "identity": r.identity,
        "residual": _fmt(r.residual),
        "tolerance": _fmt(r.tolerance),
        "status": r.status,
        "kind": r.kind,
        "samples": r.samples,
        "wall_ms": _fmt(r.wall_ms),
    }


def reports_to_json(cfg: FDConfig, seed: int, samples: int, results: list[CheckReport]) -> str:
    doc = {
        "version": REPORT_VERSION,
        "config": {
            "h": _fmt(cfg.step_h),
            "h2": _fmt(cfg.step_h2),
            "tol_exact": _fmt(cfg.tol_exact),
            "tol_fd1": _fmt(cfg.tol_fd1),
            "tol_fd2": _fmt(cfg.tol_fd2),
            "seed": seed,
            "samples": samples,
        },
        "results": [report_to_dict(r) for r in results],
    }
    return json.dumps(doc, indent=2)


def strip_wall_times(serialized: str) -> str:
    """Report body with the wall-time fields removed, for identity comparison."""
    doc = json.loads(serialized)
    for r in doc.get("results", []):
        r.pop("wall_ms", None)
    return json.dumps(doc, indent=2)


def summarize(results: list[CheckReport]) -> tuple[int, int, int]:
    """(passed, failed, inconclusive) among asserted checks."""
    asserted = [r for r in results if r.kind == "assert"]
    passed = sum(1 for r in asserted if r.status == "pass")
    failed = sum(1 for r in asserted if r.status == "fail")
    inconc = sum(1 for r in asserted if r.status == "inconclusive")
    return passed, failed, inconc
