"""The O(M) and O(D) charts with their tangent conversions: the chart oracles' reference.

``framelift`` reads O(M) and O(D) through L(M) and ``frames.gauss_projection``; its
``FrameChart`` decodes, encodes and differentiates frames only.  ``RatesChart`` adds
the conversions between chart rates and frame fields or tangents that
``lc_total_space_oracle`` and ``fd_bracket_on_chart`` read a chart through, so that the
tests can run both on O(M) and O(D) and compare the projected L(M) oracle with them.
"""

import numpy as np

from framelift.adapted import adapted_frame
from framelift.frames import FrameChart, FrameTangent, _same_frame, block_skew_basis, skew_basis
from framelift.geometry import DEFAULT_FD, reference_frame


class RatesChart(FrameChart):
    """A ``FrameChart`` whose tangent conversions read the chart Jacobian J(q)."""

    def chart_to_tangents(self, q, qdots, cfg=DEFAULT_FD):
        """Frame tangents of the chart rates in the rows of ``qdots``, all at decode(q): qdot @ J.
        At points q (..., dim) a row has q's shape and gives one tangent per point, bit for bit."""
        u, Jx, JE = self.jacobian(q, cfg)
        JE = JE.reshape(JE.shape[:-2] + (-1,))
        return [FrameTangent(u, qdot @ Jx, (qdot[..., None, :] @ JE)[..., 0, :].reshape(u.columns.shape))
                for qdot in np.asarray(qdots, dtype=float)]

    def chart_to_tangent(self, q, qdot, cfg=DEFAULT_FD):
        return self.chart_to_tangents(q, np.asarray(qdot)[None], cfg)[0]

    def field_to_chart(self, q, F, cfg=DEFAULT_FD):
        """Chart rates at points q (..., dim) of the frame field F, read at the one frame
        decode(q): least squares against J's near-orthonormal skew rows by one stacked
        normal-equations ``solve``.  Raises if F's tangent is attached to other frames or if
        any point's tangent is not tangent to the chart."""
        u = self.decode(q)
        t = F(u)
        _same_frame(u, t.at)
        _, _, JE = self.jacobian(q, cfg)
        n = self.manifold.dim
        rhs = t.frame_rate - np.einsum("...a,...aij->...ij", t.base_rate, JE[..., :n, :, :])
        rhs = rhs.reshape(rhs.shape[:-2] + (n * n,))
        A = JE[..., n:, :, :].reshape(JE.shape[:-3] + (len(self.basis), n * n))
        adot = np.linalg.solve(A @ A.swapaxes(-1, -2), A @ rhs[..., None])[..., 0]
        resid = np.linalg.norm((adot[..., None, :] @ A)[..., 0, :] - rhs, axis=-1)
        scale = 1.0 + np.linalg.norm(t.base_rate, axis=-1) + np.linalg.norm(t.frame_rate, axis=(-2, -1))
        if (resid > 1e-6 * scale).any():
            raise ValueError(f"tangent is not tangent to chart {self.name} "
                             f"(residual {np.max(resid):.3g})")
        return self.join(t.base_rate, adot)


def om_chart(M, name="O(M)"):
    """``frames.om_chart`` with the tangent conversions."""
    return RatesChart(M, basis=skew_basis(M.dim), reference=lambda x: reference_frame(M, x), name=name)


def adapted_chart(M, D, name="O(D)"):
    """``adapted.adapted_chart`` with the tangent conversions."""
    return RatesChart(M, basis=block_skew_basis(M.dim, D.rank),
                      reference=lambda x: adapted_frame(M, D, x).columns, name=name)
