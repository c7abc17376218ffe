"""One walk of the package source for the guard scans.

``functions(src)`` yields every top-level function and method of the modules in
``src`` (``src/framelift`` by default), parsed once per call: the module's stem,
the qualified name (``function`` or ``Class.method``), the function node and the
node of its class, None for a function.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "framelift"


def modules(src: Path = SRC) -> list[tuple[str, ast.Module]]:
    """(stem, parsed module) of every module in src, by file name."""
    return [(path.stem, ast.parse(path.read_text())) for path in sorted(src.glob("*.py"))]


def members(module: ast.Module):
    """(qualified name, function node, class node or None) of every top-level function
    and method of module."""
    for top in module.body:
        if isinstance(top, ast.FunctionDef):
            yield top.name, top, None
        elif isinstance(top, ast.ClassDef):
            for f in top.body:
                if isinstance(f, ast.FunctionDef):
                    yield f"{top.name}.{f.name}", f, top


def functions(src: Path = SRC):
    """(stem, qualified name, function node, class node or None) of every top-level
    function and method in src."""
    for stem, module in modules(src):
        for name, fn, cls in members(module):
            yield stem, name, fn, cls
