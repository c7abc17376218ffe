"""The Hopf map as the chart composite S^3 chart -> R^4 -> R^3 -> S^2 chart.

The library evaluates the Hopf map in closed form as the quotient z1/z2
(``catalog.hopf_map`` and ``catalog.hopf_jacobian``).  This composite of the
inverse stereographic chart of the 3-sphere (``catalog._stereo_inverse_s3``),
the ambient Hopf map and the stereographic chart of the 2-sphere is the
reference the tests check it against.  Each function takes one point.
"""

import numpy as np

from framelift.catalog import _stereo_inverse_s3
from framelift.geometry import Array


def _stereo_inverse_s3_jac(x: Array) -> Array:
    w = 1.0 + float(x @ x)
    J = np.zeros((4, 3))
    for i in range(3):
        for j in range(3):
            J[i, j] = 2.0 * (1.0 if i == j else 0.0) / w - 4.0 * x[i] * x[j] / w**2
        J[3, i] = 4.0 * x[i] / w**2
    return J


def _hopf_ambient(P: Array) -> Array:
    """Unit vector (2 Re z1 conj(z2), 2 Im z1 conj(z2), |z1|^2 - |z2|^2)."""
    p1, p2, p3, p4 = P
    return np.array([
        2.0 * (p1 * p3 + p2 * p4),
        2.0 * (p2 * p3 - p1 * p4),
        p1 * p1 + p2 * p2 - p3 * p3 - p4 * p4,
    ])


def _hopf_ambient_jac(P: Array) -> Array:
    p1, p2, p3, p4 = P
    return np.array([
        [2.0 * p3, 2.0 * p4, 2.0 * p1, 2.0 * p2],
        [-2.0 * p4, 2.0 * p3, 2.0 * p2, -2.0 * p1],
        [2.0 * p1, 2.0 * p2, -2.0 * p3, -2.0 * p4],
    ])


def _stereo_s2(m: Array) -> Array:
    return m[:2] / (1.0 - m[2])


def _stereo_s2_jac(m: Array) -> Array:
    d = 1.0 - m[2]
    return np.array([
        [1.0 / d, 0.0, m[0] / d**2],
        [0.0, 1.0 / d, m[1] / d**2],
    ])


def hopf_composite(x):
    return _stereo_s2(_hopf_ambient(_stereo_inverse_s3(x)))


def hopf_composite_jacobian(x):
    P = _stereo_inverse_s3(x)
    return _stereo_s2_jac(_hopf_ambient(P)) @ _hopf_ambient_jac(P) @ _stereo_inverse_s3_jac(x)
