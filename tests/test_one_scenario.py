"""The catalog entry is the whole scenario.

Every fact about one example lives on its ``CatalogEntry`` in ``catalog.py``:
its charts, its expected flags and the chart points at which the theorems
suite measures it.  The suites read those fields and never the entry's name,
so a renamed or re-charted entry keeps every row.  Two scans of
``src/framelift`` keep it so:

- no comparison takes an ``.id`` attribute as an operand, and
- no string literal outside ``catalog.py`` names an entry (``E`` and digits).
"""

import ast
import re
from dataclasses import replace
from pathlib import Path

import pytest

from framelift.catalog import get
from framelift.suites import suite_theorems

SRC = Path(__file__).resolve().parents[1] / "src" / "framelift"
ENTRY_NAME = re.compile(r"\bE\d+\b")


def _nodes(src: Path):
    """(file name, node) for every node of every module in src."""
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            yield path.name, node


def id_comparisons(src: Path = SRC) -> list[str]:
    """``file:line`` of every comparison in src with an ``.id`` attribute as an operand."""
    return [f"{name}:{node.lineno}" for name, node in _nodes(src)
            if isinstance(node, ast.Compare) and any(
                isinstance(o, ast.Attribute) and o.attr == "id" for o in [node.left, *node.comparators])]


def entry_names(src: Path = SRC) -> list[str]:
    """``file:line`` of every string literal outside ``catalog.py`` that names an entry."""
    return [f"{name}:{node.lineno}" for name, node in _nodes(src)
            if name != "catalog.py" and isinstance(node, ast.Constant)
            and isinstance(node.value, str) and ENTRY_NAME.search(node.value)]


def test_no_comparison_reads_an_entry_id():
    found = id_comparisons()
    assert not found, ("these comparisons branch on an entry's name; carry the fact as a "
                       "CatalogEntry field instead: " + ", ".join(found))


def test_no_string_outside_the_catalog_names_an_entry():
    found = entry_names()
    assert not found, "these strings name a catalog entry outside catalog.py: " + ", ".join(found)


def test_the_scans_see_an_id_branch(tmp_path):
    (tmp_path / "m.py").write_text('''
def theorems(entry):
    if entry.id == "E3":
        pass
    if "E4" != entry.id:
        pass
    return entry.id in ("E15",)
''')
    (tmp_path / "catalog.py").write_text('ENTRY = "E1"\n')
    (tmp_path / "clean.py").write_text('''
def name(entry, E0):
    """Rows carry the entry's name as their prefix."""
    return f"{entry.id}.theorems", E0.id
''')
    assert id_comparisons(tmp_path) == ["m.py:3", "m.py:5", "m.py:7"]
    assert entry_names(tmp_path) == ["m.py:3", "m.py:5", "m.py:7"]


@pytest.mark.parametrize("eid", ["E1", "E2", "E3", "E4", "E5"])
def test_a_renamed_entry_keeps_every_theorems_row(eid):
    def rows(entry):
        reports = suite_theorems(entry, seed=42)
        assert all(r.name.startswith(f"{entry.id}.theorems.") for r in reports)
        return [(r.name.partition(".")[2], r.identity, r.kind, r.status, r.residual, r.samples)
                for r in reports]

    entry = get(eid)
    assert rows(replace(entry, id="Z")) == rows(entry)
