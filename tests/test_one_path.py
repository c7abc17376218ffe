"""One code path per function: no parameter or field stands in for a value the
function would otherwise compute.

A parameter that defaults to None and that the function tests against None
(``x = f(...) if x is None else x``) gives the function two paths: one that
computes a value and one that takes it from the caller.  A dataclass field that
defaults to None does the same for the code that reads it.  The scan below finds
every such parameter and field in ``src/framelift``.  A parameter counts when

- its function tests it against None,
- ``__init__`` stores it on ``self`` and its class tests that attribute, or
- its function passes it on, unchanged, to a counted parameter of another
  function of the package.

A field counts when package code tests an attribute of its name (``obj.field``)
against None.

Only the options in ``ALLOWED`` remain.  Each is a setting that callers choose,
or a value that some inputs do not have, not a value that a caller may have
computed already.
"""

import ast
from pathlib import Path

from scan import SRC, functions, modules

ALLOWED = {
    "geometry.column_gram.B": "the second stack of the pairing; by default a stack pairs with "
                              "itself (the Gram matrices of W and of the Mok metric)",
    "geometry.VectorField.jacobian": "the total-space fields of the oracle self-check and "
                                     "suite_adapted's Ytop and Ys have no closed-form Jacobian; "
                                     "they are differenced by design",
    "geometry.ChartManifold.domain_sampler": "its None branch raises, and total spaces are "
                                             "never sampled",
    "catalog.CatalogEntry.tension_unit_at": "a point check that an entry may not have; None "
                                            "adds no row",
    "catalog.CatalogEntry.lift_tension_at": "a point check that an entry may not have; None "
                                            "adds no row",
}


def _none_defaults(fn: ast.FunctionDef) -> list[str]:
    args = fn.args
    positional = args.posonlyargs + args.args
    pairs = list(zip(positional[len(positional) - len(args.defaults):], args.defaults))
    pairs += [(a, d) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return [a.arg for a, d in pairs if isinstance(d, ast.Constant) and d.value is None]


def _none_tests(tree: ast.AST) -> list[ast.expr]:
    """Every ``x`` in ``x is None`` or ``x is not None`` in tree."""
    return [node.left for node in ast.walk(tree)
            if isinstance(node, ast.Compare) and len(node.ops) == 1
            and isinstance(node.ops[0], (ast.Is, ast.IsNot))
            and isinstance(node.comparators[0], ast.Constant) and node.comparators[0].value is None]


def _tested_against_none(tree: ast.AST) -> set[str]:
    """The source of every ``x`` in ``x is None`` or ``x is not None`` in tree."""
    return {ast.unparse(x) for x in _none_tests(tree)}


def two_path_fields(src: Path = SRC) -> set[str]:
    """``module.Class.field`` of every dataclass field of the package that defaults to None
    and whose name package code tests against None as an attribute, ``obj.field``."""
    parsed = modules(src)
    tested = {x.attr for _, module in parsed for x in _none_tests(module) if isinstance(x, ast.Attribute)}
    return {f"{stem}.{cls.name}.{item.target.id}" for stem, module in parsed
            for cls in ast.walk(module) if isinstance(cls, ast.ClassDef)
            and any("dataclass" in ast.unparse(d) for d in cls.decorator_list)
            for item in cls.body if isinstance(item, ast.AnnAssign) and isinstance(item.value, ast.Constant)
            and item.value.value is None and item.target.id in tested}


def two_path_parameters(src: Path = SRC) -> set[str]:
    """``module.function.parameter`` (``module.Class.parameter`` for ``__init__``) of
    every parameter of the package that gives its function a second path, and
    ``two_path_fields``."""
    found = {}  # qualified name -> (function node, its None-defaulted parameters)
    counted = set()
    for stem, name, fn, cls in functions(src):
        qualified = f"{stem}.{cls.name if fn.name == '__init__' else name}"
        params = _none_defaults(fn)
        found[qualified] = (fn, params)
        tested = _tested_against_none(fn)
        if fn.name == "__init__":  # an attribute that holds a parameter, tested by any method
            tested |= {a.value.id for a in ast.walk(fn) if isinstance(a, ast.Assign)
                       and isinstance(a.value, ast.Name) for t in a.targets
                       if ast.unparse(t) in _tested_against_none(cls)}
        counted |= {f"{qualified}.{p}" for p in params if p in tested}

    def callees(name):
        return [q for q in found if q.rpartition(".")[2] == name]

    changed = True
    while changed:  # a parameter passed on to a counted parameter counts too
        changed = False
        for qualified, (fn, params) in found.items():
            for call in (n for n in ast.walk(fn) if isinstance(n, ast.Call)):
                if not isinstance(call.func, ast.Name):
                    continue
                for callee in callees(call.func.id):
                    target = found[callee][0].args
                    slots = [a.arg for a in target.posonlyargs + target.args]
                    passed = list(zip(slots, call.args)) + [(k.arg, k.value) for k in call.keywords]
                    for slot, value in passed:
                        if not (isinstance(value, ast.Name) and value.id in params):
                            continue
                        mine = f"{qualified}.{value.id}"
                        if f"{callee}.{slot}" in counted and mine not in counted:
                            counted.add(mine)
                            changed = True
    return counted | two_path_fields(src)


def test_no_parameter_stands_in_for_a_computed_value():
    extra = sorted(two_path_parameters() - set(ALLOWED))
    assert not extra, (
        "each of these parameters defaults to None and is replaced by a computation when "
        "absent; make it required or delete it: " + ", ".join(extra))


def test_every_allowed_option_is_still_an_option():
    assert set(ALLOWED) <= two_path_parameters()


def test_the_scan_sees_each_kind_of_second_path(tmp_path):
    (tmp_path / "m.py").write_text('''
def direct(p, x=None):
    x = f(p) if x is None else x

def statement(p, x=None):
    if x is None:
        x = f(p)

def forwards(p, y=None):
    return direct(p, y)

def by_keyword(p, z=None):
    return statement(p, x=z)

def required(p, x):
    return direct(p, x)

def plain(p, w=None):
    return w

class Chart:
    def __init__(self, basis=None, name=None):
        self._basis = basis
        self.name = name

    def frame(self):
        return self._basis if self._basis is not None else 0

@dataclass(frozen=True)
class Spec:
    jet: object = None
    label: object = None
    size: int = 0

def read_jet(spec):
    return 0 if spec.jet is None else spec.jet
''')
    assert two_path_parameters(tmp_path) == {
        "m.direct.x", "m.statement.x", "m.forwards.y", "m.by_keyword.z", "m.Chart.basis", "m.Spec.jet"}
