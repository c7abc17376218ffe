"""A function of one point, looped over the leading axes of its argument.

The library's kernels take stacks of points themselves; tests use this loop
to difference a reference written for one point (``central_diff`` and
``directional_diff`` call their function once, on the whole stencil).
"""

import numpy as np


def per_point(f):
    """f, a function of one point (dim,), looped over the leading axes of its argument."""

    def looped(ps):
        ps = np.asarray(ps, dtype=float)
        rows = np.array([f(p) for p in ps.reshape(-1, ps.shape[-1])])
        return rows.reshape(ps.shape[:-1] + rows.shape[1:])

    return looped
