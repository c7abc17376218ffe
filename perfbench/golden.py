"""Golden status table and the check of one unit's report against it.

The table holds every row of ``framelift verify all --seed 42``: name,
identity, kind and status.  The identities hold at every point, so the
table is the expected verdict of every unit at every seed; a seed at which
a verdict differs, or a unit raises, shows a defect.  Rebuild it with

    PYTHONPATH=src python3 perfbench/golden.py

Asserted rows are keyed on (name, identity, kind); names alone are not
unique (``E*.frame.adapted_connection.hv.alt`` appears twice per example).
An asserted row fails when its status differs from the table or when it is
missing, which includes every row of a unit that raised.  Audit rows never
fail: they rank display variants by residual, and which identity wins
``.best`` and which ``.alt`` moves with the seed, so for them only the
multiset of names is checked.
"""

from __future__ import annotations

import json
import os
import sys
from collections import Counter
from pathlib import Path

TABLE = Path(__file__).with_name("golden_seed42.json")
SEED = 42


def unit_of(name: str) -> tuple[str, str]:
    """The (example, suite) unit a check name belongs to."""
    example, suite = name.split(".")[:2]
    return example, suite


def load(path: Path = TABLE) -> dict[tuple[str, str], list[dict]]:
    """Golden rows grouped by (example, suite)."""
    doc = json.loads(path.read_text())
    table: dict[tuple[str, str], list[dict]] = {}
    for row in doc["rows"]:
        table.setdefault(unit_of(row["name"]), []).append(row)
    return table


def asserted_count(expected: list[dict]) -> int:
    return sum(1 for r in expected if r["kind"] == "assert")


def _key(row: dict) -> tuple[str, str, str]:
    return row["name"], row["identity"], row["kind"]


def check_unit(expected: list[dict], rows: list[dict] | None, rc: int | None
               ) -> tuple[int, list[str]]:
    """(failed asserted rows, problems) for one unit.

    ``rows`` is None when the unit raised.  Problems are departures from the
    report format and the exit-code contract, not verdicts: a row the table
    does not know, audit rows other than expected, or an exit code that
    disagrees with the report's own asserted statuses.
    """
    want = {_key(r): r["status"] for r in expected if r["kind"] == "assert"}
    if rows is None:
        return len(want), []
    problems = []
    got = {_key(r): r["status"] for r in rows if r["kind"] == "assert"}
    if len(got) != sum(1 for r in rows if r["kind"] == "assert"):
        problems.append("duplicate asserted rows")
    for key in sorted(set(got) - set(want)):
        problems.append(f"asserted row not in the golden table: {key[0]} ({key[1]})")
    failed = sum(1 for key, status in want.items() if got.get(key) != status)
    audits = Counter(r["name"] for r in rows if r["kind"] == "audit")
    if audits != Counter(r["name"] for r in expected if r["kind"] == "audit"):
        problems.append("audit rows differ from the golden table")
    all_pass = all(s == "pass" for s in got.values())
    if rc != (0 if all_pass else 1):
        problems.append(f"exit code {rc} disagrees with the report")
    return failed, problems


def build(path: Path = TABLE) -> None:
    """Run ``verify all`` at the golden seed and write the table."""
    from framelift.cli import main

    tmp = path.with_suffix(".tmp")
    with open(os.devnull, "w") as sink:
        stdout, sys.stdout = sys.stdout, sink
        try:
            main(["verify", "all", "--seed", str(SEED), "--json", str(tmp)])
        finally:
            sys.stdout = stdout
    report = json.loads(tmp.read_text())
    tmp.unlink()
    rows = [{k: r[k] for k in ("name", "identity", "kind", "status")}
            for r in report["results"]]
    doc = {"source": f"framelift verify all --seed {SEED}", "rows": rows}
    path.write_text(json.dumps(doc, indent=1) + "\n")
    kinds = Counter((r["kind"], r["status"]) for r in rows)
    print(f"{len(rows)} rows written to {path}: {dict(kinds)}")


if __name__ == "__main__":
    build()
