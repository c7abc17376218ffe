"""Check reports and their serialization.

Each residual check becomes one record: what was checked, the measured
residual, the tolerance, and the verdict.  A suite emits each record with
one ``Checks.row`` call that takes all of the record's evaluations.  Audit
records carry diagnostic comparisons and never affect an exit status.
Serialized reports are
byte-identical across runs with the same configuration once wall times are
stripped.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

import numpy as np

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
    """The rows of one suite, each emitted from its evaluations in one call.

    ``row(key, identity, tolerance, *values)`` emits row ``key`` as a
    CheckReport named ``<prefix>.<key>`` whose residual is the worst of
    ``values``.  Each value is a number or an array whose leading axis
    indexes evaluations, one per sample point or frame of a stack; the
    values broadcast together, so arrays of unequal length raise ValueError,
    and numbers alone make one evaluation.  ``samples`` is the number of
    evaluations, and a row without values raises ValueError.  The fold is a
    maximum, so the order of the evaluations does not matter, and a NaN at
    any index sticks, so the row fails.  ``wall_ms`` is the time since the
    previous row, and ``reports`` lists the emitted rows in order.
    """

    def __init__(self, prefix: str):
        self.prefix = prefix
        self.reports: list[CheckReport] = []
        self._last = time.perf_counter()

    def row(self, key: str, identity: str, tolerance: float, *values, kind: str = "assert",
            invert: bool = False, inconclusive: bool = False) -> CheckReport:
        """Emit row ``key`` from ``values``; ``invert`` asserts the residual EXCEEDS the tolerance."""
        if not values:
            raise ValueError(f"row {self.prefix}.{key} has no evaluations")
        residual, shape = 0.0, ()
        for v in values:
            if isinstance(v, np.ndarray) and v.ndim:
                shape = np.broadcast_shapes(shape, v.shape)
                v = np.max(v, initial=residual)  # a NaN anywhere propagates
            v = float(v)
            if v > residual or v != v:  # a NaN replaces the worst, and nothing replaces a NaN
                residual = v
        if inconclusive:
            status = "inconclusive"
        elif invert:
            status = "pass" if residual > tolerance else "fail"
        else:
            status = "pass" if residual < tolerance else "fail"
        now = time.perf_counter()
        report = CheckReport(
            name=f"{self.prefix}.{key}", identity=identity, residual=residual,
            tolerance=float(tolerance), status=status, kind=kind,
            samples=shape[0] if shape else 1, wall_ms=(now - self._last) * 1000.0,
        )
        self._last = now
        self.reports.append(report)
        return report


def _fmt(x: float) -> float | None:
    """Round to 6 significant digits for stable, diff-able output; a non-finite value,
    which JSON has no number for, becomes None (null)."""
    return float(f"{x:.6g}") if np.isfinite(x) else None


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
    return json.dumps(doc, indent=2, allow_nan=False)


def strip_wall_times(serialized: str) -> str:
    """Report body with the wall-time fields removed, for identity comparison."""
    doc = json.loads(serialized)
    for r in doc.get("results", []):
        r.pop("wall_ms", None)
    return json.dumps(doc, indent=2, allow_nan=False)


def summarize(results: list[CheckReport]) -> tuple[int, int, int]:
    """(passed, failed, inconclusive) among asserted checks."""
    asserted = [r for r in results if r.kind == "assert"]
    passed = sum(1 for r in asserted if r.status == "pass")
    failed = sum(1 for r in asserted if r.status == "fail")
    inconc = sum(1 for r in asserted if r.status == "inconclusive")
    return passed, failed, inconc
