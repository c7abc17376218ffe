"""One call budget: the calls of named functions, through every binding.

``calls(*names)``, the fixture, wraps each named function and returns ``Calls``:
the ``Call`` of every call by name, in order, with its positional arguments and
the counted calls it ran inside.  A name is ``"christoffel"`` (the function,
through every module of the package that binds it), ``"suites.mok_metric"``
(only through that module's binding: the calls its code makes),
``"LMChart.jacobian"`` (a method of a class of the package) or
``"numpy.linalg.eigh"`` (an attribute of any module).  ``recording(f, record)``
wraps a callable that is passed as data, such as a field.
"""

import functools
import importlib
import inspect
from typing import NamedTuple

import pytest

MODULES = {name: importlib.import_module(f"framelift.{name}") for name in (
    "geometry", "fields", "catalog", "frames", "adapted", "submersion", "tangent", "reporting", "suites", "cli")}
CLASSES = {name: c for m in MODULES.values() for name, c in inspect.getmembers(m, inspect.isclass)
           if c.__module__.startswith("framelift.")}


class Call(NamedTuple):
    args: tuple
    within: tuple  # the names of the counted calls in progress, outermost first


class Calls(dict):
    def counts(self) -> dict:
        return {name: len(record) for name, record in self.items()}


def recording(f, record, name=None, active=None):
    """f, appending a ``Call`` to ``record`` at every call; the wrappers of one count
    share ``active``, the stack of their calls in progress."""
    active = [] if active is None else active

    @functools.wraps(f)
    def wrapper(*args, **kwargs):
        record.append(Call(args, tuple(active)))
        active.append(name)
        try:
            return f(*args, **kwargs)
        finally:
            active.pop()

    return wrapper


def _bindings(name):
    """(owner, attribute) of every binding that ``name`` counts through."""
    owner, _, attr = name.rpartition(".")
    if owner:
        return [(MODULES.get(owner) or CLASSES.get(owner) or importlib.import_module(owner), attr)]
    bound = [m for m in MODULES.values() if callable(getattr(m, attr, None))]
    homes = {inspect.unwrap(getattr(m, attr)) for m in bound}
    assert len(homes) == 1, f"{attr} names {len(homes)} functions of the package"
    return [(m, attr) for m in bound]


def count(monkeypatch, *names) -> Calls:
    calls, active = Calls(), []
    for name in names:
        record = calls[name] = []
        for owner, attr in _bindings(name):
            monkeypatch.setattr(owner, attr, recording(getattr(owner, attr), record, name, active))
    return calls


@pytest.fixture
def calls(monkeypatch):
    """``calls(*names)``: see the module; the wrappers go with the test."""
    return functools.partial(count, monkeypatch)
