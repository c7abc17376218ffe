"""The tangent bundle TM as the bundle of one-column frames.

A point (x, Z) of TM is the frame ``Frame(x, Z[..., None])`` of the one
column Z and a tangent to TM is a ``FrameTangent`` at it, so the frame
bundle's horizontal lift (``horizontal_lift_frame``, -Gamma_X Z) and Mok
metric (``mok_gram``, the Sasaki-Mok metric on one column) serve TM.
Here are the vertical lift, the Dombrowski connection map K splitting TTM,
the second differential of a submersion between tangent bundles, the
kernel/orthogonal distributions of that second differential, and the
column projections of the frame bundle onto TM.  The kernel at (x, Z) is
spanned by e^v and e^h + (S_Z e)^v for vertical e, S the difference tensor
of the horizontal distribution (``adapted.S_components``), which the caller
builds at x and passes in.

Points (x, Z) and the rates of tangents at them may carry leading axes
(..., n): every function of points but the distributions, built at one
point, takes such stacks, and a stack's rows equal row-by-row calls.
"""

from __future__ import annotations

import numpy as np

from .geometry import (
    Array,
    ChartManifold,
    DEFAULT_FD,
    FDConfig,
    TangentVector,
    christoffel,
    christoffel_contract,
    metric_eval,
    orthonormalizer,
)
from .frames import (
    Frame,
    FrameTangent,
    _gram,
    _vertical_rate,
    frame_diff,
    horizontal_lift_frame,
    vertical_part,
)
from .adapted import adapted_frame
from .submersion import (
    SubmersionSpec,
    SubmersionGeometry,
    differential_matrix,
    second_fundamental_form,
)


def tm_vertical_lift(X: TangentVector, Z: Frame) -> FrameTangent:
    """Vertical lift: derivative of t -> Z + tX."""
    if not np.array_equal(X.base, Z.base):
        raise ValueError("vector and bundle point have different base points")
    return FrameTangent(Z, np.zeros_like(X.components), X.components[..., None].copy())


def connection_map_K(M: ChartManifold, t: FrameTangent) -> TangentVector:
    """Dombrowski connection map K(t) = Zdot + Gamma_xdot Z: the one column of the
    vertical rate that ``mok_gram`` pairs."""
    return TangentVector(t.at.base, _vertical_rate(christoffel(M, t.at.base), t.base_rate,
                                                   t.at.columns, t.frame_rate)[..., 0])


def tm_split(M: ChartManifold, t: FrameTangent) -> tuple[FrameTangent, FrameTangent]:
    """Exact splitting into horizontal and vertical lifts of pi_* t and K(t)."""
    return (horizontal_lift_frame(christoffel(M, t.at.base), TangentVector(t.at.base, t.base_rate), t.at),
            tm_vertical_lift(connection_map_K(M, t), t.at))


# ---------------------------------------------------------------------------
# the second differential of a submersion
# ---------------------------------------------------------------------------

def tm_map(phi: SubmersionSpec, Z: Frame) -> Frame:
    """The induced map of tangent bundles: (x, Z) -> (phi(x), dphi Z)."""
    return Frame(phi.value(Z.base), differential_matrix(phi, Z.base) @ Z.columns)


def phi_second_differential_fd(
    phi: SubmersionSpec, t: FrameTangent, cfg: FDConfig = DEFAULT_FD
) -> FrameTangent:
    """``frame_diff`` of the tangent-bundle map ``tm_map`` along t."""
    return FrameTangent(tm_map(phi, t.at), *frame_diff(lambda x, E: tm_map(phi, Frame(x, E)), t, cfg.step_h))


def phi_second_differential_formula(
    phi: SubmersionSpec, kind: str, X: TangentVector, Z: Frame,
    cfg: FDConfig = DEFAULT_FD,
) -> FrameTangent:
    """Closed form of the second differential on lifts.

      vertical:   X^v  ->  (phi_* X)^v at phi_* Z
      horizontal: X^h  ->  (phi_* X)^h + (second fundamental form of (X, Z))^v
    """
    if not np.array_equal(X.base, Z.base):
        raise ValueError("vector and bundle point have different base points")
    J = differential_matrix(phi, Z.base)
    img = Frame(phi.value(Z.base), J @ Z.columns)
    pushed = TangentVector(img.base, (J @ X.components[..., None])[..., 0])
    if kind == "vertical":
        return tm_vertical_lift(pushed, img)
    if kind == "horizontal":
        out = horizontal_lift_frame(christoffel(phi.target, img.base), pushed, img)
        corr = second_fundamental_form(phi, X, TangentVector(Z.base, Z.vector(0)), cfg)
        return out + tm_vertical_lift(TangentVector(img.base, corr), img)
    raise ValueError(f"unknown kind {kind!r}")


# ---------------------------------------------------------------------------
# kernel and orthogonal distributions of the second differential
# ---------------------------------------------------------------------------

def tm_distributions(
    geom: SubmersionGeometry, Z: Frame, S: Array,
) -> tuple[list[FrameTangent], list[FrameTangent], list[FrameTangent], list[FrameTangent]]:
    """(kernel, complement, kernel_constant_extension, displayed_h) of the tangent-bundle
    map at the one-column frame Z, from S = ``S_components`` at Z's base point and one
    adapted frame and one Christoffel evaluation there.

    S_Z swaps the vertical space V and the horizontal space H; for vertical e, S_Z e is
    the horizontal part of nabla_Z of any vertical extension of e.  The kernel is
    e^v, e^h + (S_Z e)^v over e in V; the complement is the null space of V^T G, G the
    Sasaki-Mok Gram matrix of the 2n chart directions, orthonormalised.  Two diagnostic
    readings: the kernel's corrected half under a bare constant extension,
    e^h + (Pi_H Gamma_Z e)^v over e in V, and the displayed orthogonal-side formula
    e^h, e^v + (S_Z e)^h over e in H.
    """
    M, p, k = geom.phi.source, Z.base, geom.rank
    n = M.dim
    E = adapted_frame(M, geom.horizontal, p).columns
    gamma = christoffel(M, p)
    SE = christoffel_contract(S, Z.vector(0)) @ E  # columns S_Z e over the adapted frame
    # Pi_H Gamma_Z e: the first k coefficients of Gamma_Z e in the adapted frame
    PGE = E[:, :k] @ np.linalg.solve(E, christoffel_contract(gamma, Z.vector(0)) @ E[:, k:])[:k]
    ver, hor = ((lambda x: tm_vertical_lift(TangentVector(p, x), Z)),
                (lambda x: horizontal_lift_frame(gamma, TangentVector(p, x), Z)))
    V, H = E[:, k:].T, E[:, :k].T
    kernel = [ver(e) for e in V] + [hor(e) + ver(s) for e, s in zip(V, SE[:, k:].T)]
    constant = [hor(e) + ver(c) for e, c in zip(V, PGE.T)]
    shown = [hor(e) for e in H] + [ver(e) + hor(s) for e, s in zip(H, SE[:, :k].T)]

    # the chart directions d_x (base rates) and d_Z (fiber rates) lifted at the column Z
    I = np.eye(2 * n)
    G = _gram(metric_eval(M, p), gamma, Z.columns, I[:, :n], I[:, n:, None])
    Vmat = np.array([np.concatenate([v.base_rate, v.frame_rate[:, 0]]) for v in kernel])
    N = np.linalg.svd(Vmat @ G)[2][len(kernel):]  # rows span the null space of V^T G
    C = orthonormalizer(N @ G @ N.T) @ N
    return kernel, [FrameTangent(Z, c[:n], c[n:, None]) for c in C], constant, shown


# ---------------------------------------------------------------------------
# the frame-to-tangent-bundle projections
# ---------------------------------------------------------------------------

def _column(E: Array, i: int | Array) -> Array:
    """Column i of the frames E, (..., n, 1): i is an int, or one index per frame of a stack."""
    return np.take_along_axis(E, np.broadcast_to(np.asarray(i)[..., None, None], E.shape[:-1] + (1,)), -1)


def pi_i_differential(M: ChartManifold, t: FrameTangent, i: int | Array) -> FrameTangent:
    """Differential of the i-th column projection of the frame bundle into TM; i is an
    int, or one column index per frame of a stack.

    Horizontal lifts map to horizontal lifts at the i-th frame vector and
    fundamental verticals of P map to vertical lifts of P(u_i).
    """
    Z = Frame(t.at.base, _column(t.at.columns, i))
    gamma = christoffel(M, Z.base)
    hor = horizontal_lift_frame(gamma, TangentVector(Z.base, t.base_rate), Z)
    ver = tm_vertical_lift(TangentVector(Z.base, (vertical_part(gamma, t) @ Z.columns)[..., 0]), Z)
    return hor + ver


def pi_i_differential_fd(
    M: ChartManifold, t: FrameTangent, i: int | Array, cfg: FDConfig = DEFAULT_FD
) -> FrameTangent:
    """The same differential by central differences of (x, E) -> (x, E[:, i])."""
    rate = frame_diff(lambda x, E: _column(E, i), t, cfg.step_h)
    return FrameTangent(Frame(t.at.base, _column(t.at.columns, i)), t.base_rate.copy(), rate)
