"""The direct tension of the lift, column by column on the generic calculus.

``submersion.lift_tension_direct`` reads each level of its nested differences
from one stack of points.  This construction evaluates every column E_i of
the orthonormal frame as its own ``VectorField``, takes nabla_{E_i} E_i from
``covariant_derivatives`` on the total space and differences the lift along
each column separately: the reference the tests check the stacked function
against, bit for bit.
"""

import numpy as np

from framelift.adapted import adapted_chart
from framelift.frames import LMChart, induced_metric_on_chart, total_space_cfg, total_space_manifold
from framelift.geometry import (
    DEFAULT_FD,
    VectorField,
    _g_norm,
    central_diff,
    christoffel,
    christoffel_contract,
    constant_field,
    covariant_derivatives,
    directional_diff,
    orthonormalizer,
)
from framelift.submersion import lift_map_raw


def lift_tension_by_columns(geom, x0, cfg=DEFAULT_FD):
    """The norms ``lift_tension_direct`` returns, one field and one stencil per column."""
    phi = geom.phi
    M, D = phi.source, geom.horizontal
    src_chart = adapted_chart(M, D)
    tgt_chart = LMChart(phi.target)
    src_total = total_space_manifold(src_chart, cfg)
    tgt_total = total_space_manifold(tgt_chart, cfg)
    k = geom.rank

    def F(q):
        u = src_chart.decode(q)
        y, Fm = lift_map_raw(phi, k, u.base, u.columns)
        return tgt_chart.join(y, Fm)

    q0 = src_chart.join(x0, np.zeros(src_chart.dim - M.dim))
    m = src_chart.dim

    def on_frame(q):
        # columns: the coordinate basis orthonormalised in the induced metric
        return orthonormalizer(induced_metric_on_chart(src_chart, q, cfg)).swapaxes(-1, -2)

    cfg_total = total_space_cfg(cfg)
    E0 = on_frame(q0)
    J_F = central_diff(F, q0, cfg.step_h).T  # (tgt_dim, m)
    y0 = F(q0)
    gamma_tgt = christoffel(tgt_total, y0)

    E_fields = [VectorField(eval=lambda q, i=i: on_frame(q)[..., :, i]) for i in range(m)]
    nabs = covariant_derivatives(
        src_total, [(constant_field(E0[:, i]), Ei) for i, Ei in enumerate(E_fields)], q0, cfg_total)
    tau = np.zeros(tgt_chart.dim)
    for i, (Ei, nab) in enumerate(zip(E_fields, nabs)):
        Ei_val = E0[:, i]

        def pushed(q, Ei=Ei):
            return directional_diff(F, q, Ei.eval(q), cfg.step_h)

        dW = directional_diff(pushed, q0, Ei_val, cfg.step_h2)
        tau += dW + christoffel_contract(gamma_tgt, J_F @ Ei_val) @ pushed(q0)
        tau -= J_F @ nab.components

    G_tgt = induced_metric_on_chart(tgt_chart, y0, cfg)
    span = J_F  # columns span the image tangent space
    A = span.T @ G_tgt @ span
    b = span.T @ G_tgt @ tau
    coef, *_ = np.linalg.lstsq(A, b, rcond=None)
    tang = span @ coef
    return {
        "ambient": float(_g_norm(G_tgt, tau)),
        "tangential": float(_g_norm(G_tgt, tang)),
        "normal": float(_g_norm(G_tgt, tau - tang)),
    }
