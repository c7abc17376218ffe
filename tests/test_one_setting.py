"""One home per setting: every difference step and tolerance comes from ``FDConfig``.

Three scans of ``src/framelift`` keep it so:

- no function has a ``step``, ``tol`` or ``scale`` parameter with a default, a
  second place where a step or a tolerance could be set (``EXEMPT`` lists the
  one geometric ``scale``);
- every call to a package function or chart method that takes ``cfg`` passes
  one.  A call that fell back to ``DEFAULT_FD`` would difference at the default
  step whatever config the run was given, so a step sweep would read its row as
  independent of h;
- no function or method, nested ones included, has a ``cfg`` parameter that its body
  never reads: a function takes ``FDConfig`` exactly when it differences or grades a
  residual, or passes the config to one that does (``UNREAD_EXEMPT`` lists the three
  ``LMChart`` methods that keep the signature of a chart whose Jacobian is differenced).
"""

import ast
from pathlib import Path

from scan import SRC, functions, members, modules

SETTINGS = ("step", "tol", "scale")
EXEMPT = {
    "catalog.sphere_chart.scale": "the sphere's size, a geometric input with two values in use "
                                  "(1 and 1/4), not a difference step or a tolerance",
}
UNREAD_EXEMPT = {
    name: "keeps the signature of a chart whose Jacobian is differenced: induced_metric_on_chart "
          "calls chart.jacobian(q, cfg), and the oracle and the FD bracket call the conversions "
          "with cfg, on any chart; LMChart's Jacobian is constant, so it differences nothing"
    for name in ("frames.LMChart.jacobian", "frames.LMChart.chart_to_tangents",
                 "frames.LMChart.field_to_chart")
}


def defaulted_settings(src: Path = SRC) -> set[str]:
    """``module.function.parameter`` of every step, tol or scale parameter with a default."""
    found = set()
    for stem, name, fn, _ in functions(src):
        args = fn.args
        positional = args.posonlyargs + args.args
        defaulted = positional[len(positional) - len(args.defaults):]
        defaulted += [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
        found |= {f"{stem}.{name}.{a.arg}" for a in defaulted if a.arg in SETTINGS}
    return found


def calls_without_cfg(src: Path = SRC) -> list[str]:
    """``module:line name`` of every call to a package function or method with a ``cfg``
    parameter that passes none, by keyword or in its slot.

    A name that a package class also declares as a callable field (``jacobian`` on
    ``SubmersionSpec`` and ``VectorField``) is read as the method only on ``self`` or on
    a name ending in ``chart``, the package's names for chart objects.
    """
    parsed = modules(src)
    slots: dict[str, int] = {}  # name -> the highest positional slot of its cfg
    fields = set()
    for _, module in parsed:
        for name, fn, owner in members(module):
            params = [a.arg for a in fn.args.posonlyargs + fn.args.args][owner is not None:]
            if "cfg" in params:
                short = name.rpartition(".")[2]
                slots[short] = max(slots.get(short, 0), params.index("cfg"))
        fields |= {item.target.id for cls in ast.walk(module) if isinstance(cls, ast.ClassDef)
                   for item in cls.body
                   if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)}
    missing = []
    for stem, module in parsed:
        for call in (n for n in ast.walk(module) if isinstance(n, ast.Call)):
            if isinstance(call.func, ast.Name):
                name = call.func.id
            elif isinstance(call.func, ast.Attribute):
                name = call.func.attr
                receiver = call.func.value
                if name in fields and not (isinstance(receiver, ast.Name) and (
                        receiver.id == "self" or receiver.id.endswith("chart"))):
                    continue
            else:
                continue
            if name not in slots:
                continue
            passed = (len(call.args) > slots[name]
                      or any(isinstance(a, ast.Starred) for a in call.args)
                      or any(k.arg in ("cfg", None) for k in call.keywords))
            if not passed:
                missing.append(f"{stem}:{call.lineno} {name}")
    return missing


def unread_cfg(src: Path = SRC) -> set[str]:
    """``module.function`` (``module.Class.method``, ``module.function.nested``) of every
    function with a ``cfg`` parameter whose body names no ``cfg``."""
    found = set()
    for stem, name, fn, _ in functions(src):
        for f in (n for n in ast.walk(fn) if isinstance(n, ast.FunctionDef)):
            args = f.args
            if "cfg" in [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs] and not any(
                    isinstance(n, ast.Name) and n.id == "cfg" for s in f.body for n in ast.walk(s)):
                found.add(f"{stem}.{name}" + ("" if f is fn else f".{f.name}"))
    return found


def test_no_step_tol_or_scale_parameter_has_a_default():
    extra = sorted(defaulted_settings() - set(EXEMPT))
    assert not extra, ("a step or a tolerance is set by FDConfig alone, and a scale with one "
                       "value in use is a constant: " + ", ".join(extra))


def test_every_exempt_setting_is_still_a_parameter():
    assert set(EXEMPT) <= defaulted_settings()


def test_every_call_to_a_function_of_cfg_passes_cfg():
    missing = calls_without_cfg()
    assert not missing, "these calls would difference at DEFAULT_FD: " + ", ".join(missing)


def test_every_cfg_parameter_is_read():
    extra = sorted(unread_cfg() - set(UNREAD_EXEMPT))
    assert not extra, "these functions take a cfg that they never read: " + ", ".join(extra)


def test_every_exempt_unread_cfg_is_still_unread():
    assert set(UNREAD_EXEMPT) <= unread_cfg()


def test_the_scans_see_each_kind_of_setting_and_call(tmp_path):
    (tmp_path / "m.py").write_text('''
def f(p, cfg=DEFAULT_FD, step=None):
    return p

def g(p, cfg, tol=1e-9, *, scale=0.3, h=1.0):
    return f(p)

def passes(p, cfg):
    return f(p, cfg), f(p, cfg=cfg), f(*p), f(p, **cfg)

class Chart:
    def jacobian(self, q, cfg=DEFAULT_FD):
        return q

    def rates(self, q, cfg=DEFAULT_FD):
        return self.jacobian(q)

class Spec:
    jacobian: object = None

def field_or_method(phi, chart, src_chart, cfg):
    return phi.jacobian(1), chart.jacobian(1), src_chart.jacobian(1, cfg)

later = lambda p: g(p)

def unread(p, cfg):
    def inner(q, cfg):
        return q
    return inner(p, DEFAULT_FD), p.cfg
''')
    assert defaulted_settings(tmp_path) == {"m.f.step", "m.g.tol", "m.g.scale"}
    assert set(calls_without_cfg(tmp_path)) == {"m:6 f", "m:16 jacobian", "m:22 jacobian", "m:24 g"}
    assert unread_cfg(tmp_path) == {"m.f", "m.g", "m.Chart.jacobian", "m.Chart.rates", "m.unread",
                                    "m.unread.inner"}
