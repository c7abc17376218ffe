"""The reference comparison of a matmul contraction with its einsum definition.

A kernel that contracts by matmul over flattened axes sums in another order
than its einsum definition, so the two differ at roundoff.  ``roundoff`` is
the bound, fixed before any comparison, that such a difference may reach, and
``assert_rows`` checks that a stack's rows equal row-by-row calls bit for bit.
``LEADING`` holds the leading axes the references cover: one point, a stack of
points, and the (2, frames, directions) stencil of the total-space oracle.
"""

import numpy as np

EPS = np.finfo(float).eps
LEADING = [(), (5,), (2, 3, 12)]


def roundoff(terms, magnitude):
    """4 eps per summed term, times each entry's sum of product magnitudes: two orders of a
    sum of ``terms`` products each err by at most terms eps/2 of that magnitude, to first
    order (Higham, *Accuracy and Stability of Numerical Algorithms*, sec. 3.1)."""
    return 4 * terms * EPS * magnitude


def assert_rows(f, shape, *args):
    """f on a stack equals f on each of its rows, bit for bit: every arg carries the
    leading axes ``shape``."""
    whole = f(*args)
    for i in np.ndindex(*shape):
        assert np.array_equal(whole[i], f(*(a[i] for a in args))), i
