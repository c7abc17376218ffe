"""One Mok pairing: ``frames._gram`` is the one formula of the Mok and Sasaki-Mok metric.

The Mok metric pairs the base rates under g and the vertical rates
W = Edot + Gamma_xdot E (``frames._vertical_rate``) column by column.  A function
that reads the vertical rate and pairs it itself is a second home of the metric,
with its own contraction and its own rounding.  The scan below finds every
function in ``src/framelift`` that calls or names ``_vertical_rate``.  Only the
readers in ``READERS`` remain: the vertical part, the Gram, and the connection map
K, the one column of the vertical rate on TM.  ``mok_metric``, ``mok_norm`` and
every table read ``mok_gram``.
"""

from scan import readers

READERS = {"frames._vertical_part", "frames._gram", "tangent.connection_map_K"}


def test_every_reader_of_the_vertical_rate_is_a_pairing_kernel():
    extra = sorted(readers("_vertical_rate") - READERS)
    assert not extra, "these functions read the vertical rate; pair tangents with mok_gram: " + ", ".join(extra)


def test_every_reader_still_reads_the_vertical_rate():
    assert READERS == readers("_vertical_rate")


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

def reads_the_gram(M, s, t, cfg):
    return mok_gram(M, [s, t], cfg)[..., 0, 1]
''')
    assert readers("_vertical_rate", tmp_path) == {
        "m.pairing", "m.through_the_module", "m.nested", "m.handed_on", "m.Bundle.metric"}
