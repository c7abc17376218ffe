"""The pullback connection along a map and the horizontal lift of its differential.

The library builds the second fundamental form nabla d(phi) and the display
(Pi_phi)_X in closed form (``submersion.second_fundamental_tensor``,
``Pi_X_endo`` and ``Pi_X_endo_alt``).  These direct constructions are the
references the tests check them against.
"""

import numpy as np

from framelift.geometry import (
    DEFAULT_FD,
    christoffel,
    christoffel_contract,
    directional_diff,
    metric_eval,
)
from framelift.submersion import differential_matrix


def pullback_connection(phi, X, W, cfg=DEFAULT_FD):
    """Pullback covariant derivative of a field along phi.

    W maps source points (..., n) to target tangent components; the result is
    dW(X) + Gamma^N_(phi_* X) W at phi(p), from one stencil of W (X may be a stack).
    """
    p = X.base
    dW = directional_diff(W, p, X.components, cfg.step_h)
    J = differential_matrix(phi, p)
    gx = christoffel_contract(christoffel(phi.target, phi.value(p)),
                              (J @ X.components[..., None])[..., 0])
    return dW + (gx @ np.asarray(W(p), dtype=float)[..., None])[..., 0]


def horizontal_lift_matrix(phi, p):
    """Right inverse A (J A)^-1 of d(phi) = J with image in the horizontal space,
    spanned by the columns of A = g^-1 J^T."""
    J = differential_matrix(phi, p)
    A = np.linalg.solve(metric_eval(phi.source, p), J.swapaxes(-1, -2))
    return A @ np.linalg.inv(J @ A)
