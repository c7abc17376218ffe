"""One Mok pairing: ``frames._gram`` is the one formula of the Mok and Sasaki-Mok metric.

The Mok metric pairs the base rates under g and the vertical rates
W = Edot + Gamma_xdot E (``frames._vertical_rate``) column by column.  A function
that reads the vertical rate and pairs it itself is a second home of the metric,
with its own contraction and its own rounding.  The scan below finds every
function in ``src/framelift`` that calls or names ``_vertical_rate``.  Only the
readers in ``READERS`` remain: the vertical part, the Gram, and the connection map
K, the one column of the vertical rate on TM.  ``mok_metric``, ``mok_norm`` and
every table read ``mok_gram``.

The pairing, the horizontal lift and the vertical part read the caller's metric and
Christoffel symbols at the frames' base points, and nothing else: none of them takes
a chart to fetch its own, and the chart-fetching twins they once had are gone.
"""

import inspect

import pytest

from framelift import frames
from scan import functions, readers

READERS = {"frames.vertical_part", "frames._gram", "tangent.connection_map_K"}
JET_READERS = ("mok_gram", "mok_norm", "mok_metric", "mok_orthonormalize", "horizontal_lift_frame",
               "vertical_part")
TWINS = ("_lift_gram", "_horizontal_lift", "_vertical_part")


def test_every_reader_of_the_vertical_rate_is_a_pairing_kernel():
    extra = sorted(readers("_vertical_rate") - READERS)
    assert not extra, "these functions read the vertical rate; pair tangents with mok_gram: " + ", ".join(extra)


def test_every_reader_still_reads_the_vertical_rate():
    assert READERS == readers("_vertical_rate")


@pytest.mark.parametrize("name", JET_READERS)
def test_the_pairing_and_the_lifts_take_no_chart(name):
    parameters = inspect.signature(getattr(frames, name)).parameters
    assert not [p for p in parameters.values() if "ChartManifold" in str(p.annotation)]
    assert list(parameters)[:2] in (["g", "gamma"], ["gamma", "X"], ["gamma", "t"])


def test_the_chart_fetching_twins_are_gone():
    assert not [name for name in TWINS if hasattr(frames, name)]
    assert not [f"{stem}.{name}" for stem, name, _, _ in functions() if name in TWINS]


def test_the_scan_sees_a_second_pairing(tmp_path):
    (tmp_path / "m.py").write_text('''
def _vertical_rate(gamma, xdot, E, Edot):
    return Edot + gamma @ E

def pairing(g, gamma, s, t):
    ws = _vertical_rate(gamma, s.base_rate, s.at.columns, s.frame_rate)
    wt = _vertical_rate(gamma, t.base_rate, t.at.columns, t.frame_rate)
    return s.base_rate @ g @ t.base_rate + (ws * (g @ wt)).sum()

def through_the_module(g, gamma, t):
    return frames._vertical_rate(gamma, t.base_rate, t.at.columns, t.frame_rate)

def nested(g, gamma):
    def rate(t):
        return _vertical_rate(gamma, t.base_rate, t.at.columns, t.frame_rate)
    return rate

def handed_on(g, gamma, ts):
    return map(_vertical_rate, [gamma] * len(ts), ts)

class Bundle:
    def metric(self, s, t):
        return _vertical_rate(self.gamma, s.base_rate, s.at.columns, s.frame_rate)

def reads_the_gram(g, gamma, s, t):
    return mok_gram(g, gamma, [s, t])[..., 0, 1]
''')
    assert readers("_vertical_rate", tmp_path) == {
        "m.pairing", "m.through_the_module", "m.nested", "m.handed_on", "m.Bundle.metric"}
