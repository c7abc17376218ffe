"""One walk of the package source for the guard scans.

``functions(src)`` yields every top-level function and method of the modules in
``src`` (``src/framelift`` by default), parsed once per call: the module's stem,
the qualified name (``function`` or ``Class.method``), the function node and the
node of its class, None for a function.  ``readers(name, src)`` names the functions
that call or name ``name``.
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


def readers(name: str, src: Path = SRC) -> set[str]:
    """``module.function`` (``module.Class.method``) of every top-level function or method
    in src that calls or names ``name``, nested functions included."""
    return {f"{stem}.{qualified}" for stem, qualified, fn, _ in functions(src) if any(
        (isinstance(node, ast.Name) and node.id == name)
        or (isinstance(node, ast.Attribute) and node.attr == name) for node in ast.walk(fn))}
