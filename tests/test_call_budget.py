"""The call budget of every (entry, suite) unit: how often each pinned kernel runs.

Each unit runs once, at seed 42 and the default 10 samples, with the kernels its
row names counted through ``budget``.  ``christoffel`` is pinned in every unit,
so one redundant evaluation in a suite fails exactly that suite's rows.
"""

import numpy as np
import pytest

from framelift.catalog import get
from framelift.frames import Frame, FrameTangent
from framelift.geometry import sample_points
from framelift.suites import SUITES


def stack(call):
    """The stack a call ran on: the shape of its first frame (columns) or frame tangent
    (frame rate), a list of tangents read as its first, else of its first array."""
    args = [a[0] if isinstance(a, list) and a else a for a in call.args]
    frames = [a.columns if isinstance(a, Frame) else a.frame_rate
              for a in args if isinstance(a, (Frame, FrameTangent))]
    return (frames or [a for a in call.args if isinstance(a, np.ndarray)])[0].shape


# A row's key is a name for ``budget``, read as the number of calls, or "name:reading".
READINGS = {
    "stacks": lambda calls, entry: [stack(c) for c in calls],
    # the calls on the total space of a frame bundle, not on a base chart
    "total": lambda calls, entry: sum(c.args[0].name.startswith("total[") for c in calls),
    # for each call, whether it ran on the unit's whole stack of sample points
    "samples": lambda calls, entry: [np.array_equal(c.args[1], sample_points(entry.phi.source, 42, 10))
                                     for c in calls],
    # the calls that compare two frames array by array, not the one Frame object twice
    "arrays": lambda calls, entry: sum(c.args[0] is not c.args[1] for c in calls),
}


def frame_unit(n):
    """Every oracle on L(M) (dim N = n + n^2): the one call of both connection audits on 3
    frames and its projection onto O(M), then the adapted audit's and its projection onto
    O(D).  Each oracle call is one ``christoffel`` on the total space, whose induced
    metric reads 2 chart Jacobians, at the frames and on one stencil; the FD-bracket call
    of the 3 cases reads none, and the oracle self-check's one total-space ``christoffel``
    reads 4 on the generic path.  The Christoffel kernel runs 26 times in all, on the base
    charts and the total spaces, each time inside ``christoffel``: the projections read the
    caller's.  The oracles and the FD bracket answer at the caller's frames, so every
    tangent they return, and every frame field they read, is attached to the one Frame
    object its reader holds: no frame is compared array by array."""
    return {"LMChart.jacobian": 8, "FrameChart.jacobian": 0, "christoffel:total": 3, "_christoffel_from": 26,
            "_same_frame:arrays": 0}


def tangent_unit(n, k):
    """The lift block on the stack of 10 points; at each of 3 distribution points one
    Sasaki-Mok Gram at its one-column frame, whose blocks are the kernel x complement and
    kernel x displayed tables and the kernel's rank, and one stack of its 3(n-k)
    differenced kernel vectors; one horizontal lift on n copies of the frame at pts[0],
    copy i for column i, serves the frame-projection differential and isometry rows."""
    return {"suites.phi_second_differential_fd:stacks": [(10, n, 1)] * 2 + [(3 * (n - k), n, 1)] * 3,
            "suites.mok_metric:stacks": [(10, n, 1), (n, n, n), (n, n, 1)],
            "suites.mok_gram:stacks": [(n, 1)] * 3,
            "suites.horizontal_lift_frame:stacks": [(10, n, 1)] * 2 + [(n, n, n)]}


BUDGET = {(f"E{i + 1}", suite): {"christoffel": n} for suite, row in {
    "core": [8] * 5, "tangent": [13] * 5, "frame": [26] * 5,
    "adapted": [4] * 5, "lift": [7] * 5, "theorems": [14, 7, 7, 10, 7]}.items() for i, n in enumerate(row)}
for unit, pins in {
    # the suite, the batch, and the curvature tensor's centre and stencil, on both charts
    ("E3", "core"): {"curvature_tensor:stacks": [(10, 3), (10, 2)], "covariant_derivatives": 2,
                     "lie_bracket": 2},
    ("E1", "tangent"): tangent_unit(3, 2),
    # S at the distribution points reads the projector there and on one stencil
    ("E3", "tangent"): {**tangent_unit(3, 2), "S_components": 1, "splitting_projectors": 2,
                        "covariant_derivatives": 0},
    ("E4", "tangent"): tangent_unit(2, 1),
    **{(eid, "frame"): frame_unit(2 if eid == "E4" else 3) for eid in ("E1", "E2", "E4", "E5")},
    # one base jet and curvature tensor for all frames; the 3 bracket cases on the 10 frames
    # in one FD-bracket call, 2 Mok lifts and 3 Mok products in the structural block; the
    # frames module evaluates Gamma only in the total-space metric and the oracles' lifts
    ("E3", "frame"): {**frame_unit(3), "frames.christoffel": 15, "suites.horizontal_lift_frame": 2,
                      "suites.mok_metric": 3, "fd_bracket_on_chart": 1, "bracket_residual": 1,
                      "lc_total_space_oracle": 2, "connection_audit": 1, "gauss_projection": 2},
    # S on the sample stack and on the curvature jet's stencil
    ("E3", "adapted"): {"splitting_projectors": 8, "S_components": 2},
    # one split of the sample points, sliced for the first 5, and one S and B there;
    # D's projector on the stencils of S and of the O(D) constraints; the three lift
    # differential cases in one call and one Mok norm, then the kernel basis in one of
    # each; the Mok cross Gram is a block of one Gram of both bases on the 5 frames
    ("E3", "lift"): {"splitting_projectors": 2, "S_components": 1, "second_fundamental_tensor:stacks": [(5, 3)],
                     "suites.lift_differential_fd:stacks": [(3, 5, 3, 3), (1, 5, 3, 3)],
                     "suites.mok_norm:stacks": [(3, 5, 2, 2), (1, 5, 2, 2)],
                     "suites.mok_gram:stacks": [(5, 3, 3)]},
    # classify's stack, for the torsion and the lift measurement
    ("E3", "theorems"): {"splitting_projectors": 3, "S_components": 1},
}.items():
    BUDGET[unit].update(pins)
for eid in ("E2", "E3"):  # one curvature tensor, from Gamma's differences on the stack of all sample frames
    BUDGET[eid, "frame"]["christoffel_derivative:samples"] = [True]
for i in range(1, 6):
    # the split of the sample points, D's projector on two stencils, Pi_X_endo_alt's own
    # stencil, and the seed frame at the points and on the frame stencils of two div_bot calls
    BUDGET[f"E{i}", "lift"]["_horizontal_span"] = 7


def test_the_table_has_every_unit():
    assert set(BUDGET) == {(f"E{i}", s) for i in range(1, 6) for s in SUITES}


UNITS = sorted(BUDGET, key=lambda u: (list(SUITES).index(u[1]), u[0]))


@pytest.mark.parametrize("eid, suite", UNITS, ids=[f"{eid}-{suite}" for eid, suite in UNITS])
def test_unit(calls, eid, suite):
    expected = BUDGET[eid, suite]
    counted = calls(*sorted({key.partition(":")[0] for key in expected}))
    entry = get(eid)
    SUITES[suite](entry, seed=42)
    observed = {}
    for key in expected:
        name, _, reading = key.partition(":")
        observed[key] = READINGS[reading](counted[name], entry) if reading else len(counted[name])
    assert observed == expected
