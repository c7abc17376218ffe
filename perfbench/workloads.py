"""The benchmark's workloads and the unit lists they generate from a seed.

A unit of work is one ``framelift verify <E> --suite <s> --seed <n>`` call.
A pass is every (example, suite) pair of a workload once, in an order and
with framelift seeds drawn from the benchmark seed; a run repeats passes.
Whole passes keep the mix of units, and so every statistic over it, the
same from run to run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator

import seedpool

EXAMPLES = ("E1", "E2", "E3", "E4", "E5")
# framelift seeds are drawn from [0, SEED_RANGE), or from the workload's
# seed pool when it has one (seedpool.py says why chart-calculus does).
SEED_RANGE = 100_000


@dataclass(frozen=True)
class Workload:
    name: str
    suites: tuple[str, ...]
    # Passes of a traced run; fixed so that its call counts repeat exactly.
    trace_passes: int
    why: str
    # Draw framelift seeds from seedpool.json rather than from [0, SEED_RANGE).
    pooled: bool = False


WORKLOADS = {w.name: w for w in (
    Workload("frame-oracle", ("frame",), 1,
             "suite frame on E1-E5: the total-space Levi-Civita oracle, about 80% of "
             "`verify all`; stresses frames and geometry.christoffel at few distinct points"),
    Workload("lift-classify", ("adapted", "lift", "theorems"), 2,
             "suites adapted, lift and theorems on E1-E5: submersion and adapted dominate "
             "and the total-space oracle does not run"),
    Workload("chart-calculus", ("core", "tangent"), 30,
             "suites core and tangent on E1-E5: short units at fresh points, so "
             "cli/suites/reporting overhead shows; the only workload running tangent",
             pooled=True),
)}


def passes(workload: Workload, seed: int) -> Iterator[list[tuple[str, str, int]]]:
    """Endless passes of (example, suite, framelift seed) units for one benchmark seed."""
    rng = random.Random(f"{workload.name}/{seed}")
    seeds = seedpool.load() if workload.pooled else range(SEED_RANGE)
    while True:
        units = [(e, s, rng.choice(seeds)) for e in EXAMPLES for s in workload.suites]
        rng.shuffle(units)
        yield units
