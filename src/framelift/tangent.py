"""The tangent bundle as a chart (x, Z) with the Sasaki-Mok metric.

Horizontal and vertical lifts, the Dombrowski connection map K splitting
TTM, the second differential of a submersion between tangent bundles, and
the kernel/orthogonal distributions of that second differential.

Points (x, Z) and the rates of tangents at them may carry leading axes
(..., n): every function of points but the distributions, built at one
point, takes such stacks, and a stack's rows equal row-by-row calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .geometry import (
    Array,
    ChartManifold,
    DEFAULT_FD,
    FDConfig,
    TangentVector,
    VectorField,
    _pairing_at,
    christoffel,
    christoffel_contract,
    covariant_derivatives,
    constant_field,
    metric_eval,
    orthonormalizer,
)
from .frames import FrameTangent, _lift_gram, vertical_part
from .submersion import (
    SubmersionSpec,
    SubmersionGeometry,
    differential_matrix,
    horizontal_basis,
    second_fundamental_form,
    splitting_projectors,
    vertical_basis,
)


@dataclass(frozen=True)
class TMPoint:
    """A point of the tangent bundle: base coordinates and fiber components."""

    base: Array
    fiber: Array

    def __post_init__(self):
        object.__setattr__(self, "base", np.asarray(self.base, dtype=float))
        object.__setattr__(self, "fiber", np.asarray(self.fiber, dtype=float))
        if self.base.shape != self.fiber.shape:
            raise ValueError("base and fiber must have equal length")


@dataclass(frozen=True)
class TMTangent:
    """A tangent vector to the tangent bundle at ``at``."""

    at: TMPoint
    base_rate: Array
    fiber_rate: Array

    def __post_init__(self):
        object.__setattr__(self, "base_rate", np.asarray(self.base_rate, dtype=float))
        object.__setattr__(self, "fiber_rate", np.asarray(self.fiber_rate, dtype=float))
        if self.base_rate.shape != self.at.base.shape or self.fiber_rate.shape != self.at.base.shape:
            raise ValueError("rate components must match the bundle dimension")

    def __add__(self, other: "TMTangent") -> "TMTangent":
        _same_tm_point(self.at, other.at)
        return TMTangent(self.at, self.base_rate + other.base_rate,
                         self.fiber_rate + other.fiber_rate)

    def __sub__(self, other: "TMTangent") -> "TMTangent":
        _same_tm_point(self.at, other.at)
        return TMTangent(self.at, self.base_rate - other.base_rate,
                         self.fiber_rate - other.fiber_rate)

    @staticmethod
    def stack(ts: Sequence["TMTangent"]) -> "TMTangent":
        """The tangents ts as one tangent at the stack of their points, along a new first axis."""
        return TMTangent(TMPoint(np.stack([t.at.base for t in ts]), np.stack([t.at.fiber for t in ts])),
                         np.stack([t.base_rate for t in ts]), np.stack([t.fiber_rate for t in ts]))


def _same_tm_point(a: TMPoint, b: TMPoint) -> None:
    if np.max(np.abs(a.base - b.base)) > 1e-9 or np.max(np.abs(a.fiber - b.fiber)) > 1e-9:
        raise ValueError("tangent-bundle vectors at different points")


def tm_vertical_lift(X: TangentVector, Z: TMPoint) -> TMTangent:
    """Vertical lift: derivative of t -> Z + tX."""
    if not np.array_equal(X.base, Z.base):
        raise ValueError("vector and bundle point have different base points")
    return TMTangent(Z, np.zeros_like(X.components), X.components.copy())


def tm_horizontal_lift(
    M: ChartManifold, X: TangentVector, Z: TMPoint, cfg: FDConfig = DEFAULT_FD
) -> TMTangent:
    """Horizontal lift: base rate X, fiber rate -Gamma_X Z (kills K)."""
    if not np.array_equal(X.base, Z.base):
        raise ValueError("vector and bundle point have different base points")
    gamma = christoffel(M, Z.base, cfg)
    return TMTangent(Z, X.components.copy(),
                     -(christoffel_contract(gamma, X.components) @ Z.fiber[..., None])[..., 0])


def connection_map_K(M: ChartManifold, t: TMTangent, cfg: FDConfig = DEFAULT_FD) -> TangentVector:
    """Dombrowski connection map: K = fiber_rate + Gamma_{base_rate} Z."""
    return TangentVector(t.at.base, _connection_map(christoffel(M, t.at.base, cfg), t))


def _connection_map(gamma: Array, t: TMTangent) -> Array:
    """The components of K(t) from the Christoffel symbols ``gamma`` at t's base points."""
    return t.fiber_rate + (christoffel_contract(gamma, t.base_rate) @ t.at.fiber[..., None])[..., 0]


def tm_split(M: ChartManifold, t: TMTangent, cfg: FDConfig = DEFAULT_FD) -> tuple[TMTangent, TMTangent]:
    """Exact splitting into horizontal and vertical lifts of pi_* t and K(t)."""
    return (tm_horizontal_lift(M, TangentVector(t.at.base, t.base_rate), t.at, cfg),
            tm_vertical_lift(connection_map_K(M, t, cfg), t.at))


def sasaki_mok_tm(
    M: ChartManifold, s: TMTangent, t: TMTangent, cfg: FDConfig = DEFAULT_FD
) -> Array:
    """Sasaki-Mok metric g(pi_* s, pi_* t) + g(K(s), K(t)), one value per point; one
    Christoffel evaluation serves both connection maps."""
    _same_tm_point(s.at, t.at)
    g = metric_eval(M, s.at.base)
    gamma = christoffel(M, s.at.base, cfg)
    return (_pairing_at(g, s.base_rate, t.base_rate)
            + _pairing_at(g, _connection_map(gamma, s), _connection_map(gamma, t)))


# ---------------------------------------------------------------------------
# the second differential of a submersion
# ---------------------------------------------------------------------------

def tm_map(phi: SubmersionSpec, Z: TMPoint, cfg: FDConfig = DEFAULT_FD) -> TMPoint:
    """The induced map of tangent bundles: (x, Z) -> (phi(x), dphi Z)."""
    J = differential_matrix(phi, Z.base, cfg)
    return TMPoint(phi.value(Z.base), (J @ Z.fiber[..., None])[..., 0])


def phi_second_differential_fd(
    phi: SubmersionSpec, t: TMTangent, cfg: FDConfig = DEFAULT_FD
) -> TMTangent:
    """Central-difference differential of the tangent-bundle map along t: one
    ``tm_map`` call on the two ends of every point's step."""
    Z = t.at
    h = cfg.step_h if phi.jacobian is not None else cfg.step_h2
    s = np.array([h, -h]).reshape((2,) + (1,) * Z.base.ndim)
    ends = tm_map(phi, TMPoint(Z.base + s * t.base_rate, Z.fiber + s * t.fiber_rate), cfg)
    return TMTangent(tm_map(phi, Z, cfg), (ends.base[0] - ends.base[1]) / (2.0 * h),
                     (ends.fiber[0] - ends.fiber[1]) / (2.0 * h))


def phi_second_differential_formula(
    phi: SubmersionSpec, kind: str, X: TangentVector, Z: TMPoint,
    cfg: FDConfig = DEFAULT_FD,
) -> TMTangent:
    """Closed form of the second differential on lifts.

      vertical:   X^v  ->  (phi_* X)^v at phi_* Z
      horizontal: X^h  ->  (phi_* X)^h + (second fundamental form of (X, Z))^v
    """
    if not np.array_equal(X.base, Z.base):
        raise ValueError("vector and bundle point have different base points")
    J = differential_matrix(phi, Z.base, cfg)
    img = TMPoint(phi.value(Z.base), (J @ Z.fiber[..., None])[..., 0])
    pushed = TangentVector(img.base, (J @ X.components[..., None])[..., 0])
    if kind == "vertical":
        return tm_vertical_lift(pushed, img)
    if kind == "horizontal":
        out = tm_horizontal_lift(phi.target, pushed, img, cfg)
        corr = second_fundamental_form(phi, X, TangentVector(Z.base, Z.fiber), cfg)
        return out + tm_vertical_lift(TangentVector(img.base, corr), img)
    raise ValueError(f"unknown kind {kind!r}")


# ---------------------------------------------------------------------------
# kernel and orthogonal distributions of the second differential
# ---------------------------------------------------------------------------

def _extension(geom: SubmersionGeometry, x_val: Array, cfg: FDConfig, part: int) -> VectorField:
    """Extend a vector as the vertical (part 0) or horizontal (part 1) projector
    times its constant extension."""
    return VectorField(eval=lambda q: splitting_projectors(geom.phi, q, cfg)[part] @ x_val)


def _lifted_basis(
    geom: SubmersionGeometry, Z: TMPoint, cfg: FDConfig, part: int,
    extend: Callable[[Array], VectorField],
) -> list[TMTangent]:
    """Lifts of the vertical (part 0) or horizontal (part 1) basis e at Z's base point:
    each e lifted that way, then each e lifted the other way plus that way's lift of
    the other projection of nabla_Z ``extend(e)``."""
    M, p = geom.phi.source, Z.base
    basis = (vertical_basis, horizontal_basis)[part](geom, p)
    Pi = splitting_projectors(geom.phi, p, cfg)[1 - part]
    lifts = (lambda e: tm_vertical_lift(e, Z)), (lambda e: tm_horizontal_lift(M, e, Z, cfg))
    same, other = lifts[part], lifts[1 - part]
    nabs = covariant_derivatives(M, [(constant_field(Z.fiber), extend(e.components)) for e in basis],
                                 p, cfg)
    return [same(e) for e in basis] + [other(e) + same(TangentVector(p, Pi @ nab.components))
                                       for e, nab in zip(basis, nabs)]


def tm_distributions(
    geom: SubmersionGeometry, Z: TMPoint, cfg: FDConfig = DEFAULT_FD,
) -> tuple[list[TMTangent], list[TMTangent]]:
    """Kernel basis and Sasaki-orthogonal complement for the tangent-bundle map.

    The kernel combines vertical lifts of vertical vectors with horizontal
    lifts corrected by the horizontal part of nabla_Z of a vertical
    extension: the vertical projector composed with the constant extension,
    which keeps the extension vertical, the reading under which the kernel
    property is an identity.  The complement is the null space of V^T G, G
    the Sasaki-Mok Gram matrix of the 2n chart directions, orthonormalised.
    """
    M = geom.phi.source
    n = M.dim
    V_basis = _lifted_basis(geom, Z, cfg, 0, lambda x: _extension(geom, x, cfg, 0))

    # the chart directions d_x (base rates) and d_Z (fiber rates) lifted at the column Z
    I = np.eye(2 * n)
    G = _lift_gram(M, Z.base, Z.fiber[:, None], I[:, :n], I[:, n:, None], cfg)
    Vmat = np.array([np.concatenate([v.base_rate, v.fiber_rate]) for v in V_basis])
    N = np.linalg.svd(Vmat @ G)[2][len(V_basis):]  # rows span the null space of V^T G
    H = orthonormalizer(N @ G @ N.T) @ N
    return V_basis, [TMTangent(Z, h[:n], h[n:]) for h in H]


def tm_kernel_constant_extension(
    geom: SubmersionGeometry, Z: TMPoint, cfg: FDConfig = DEFAULT_FD,
) -> list[TMTangent]:
    """The kernel formula of ``tm_distributions`` under the bare constant
    extension of each vertical vector, kept for diagnostics."""
    return _lifted_basis(geom, Z, cfg, 0, constant_field)


def tm_distributions_displayed_h(
    geom: SubmersionGeometry, Z: TMPoint, cfg: FDConfig = DEFAULT_FD,
) -> list[TMTangent]:
    """The displayed orthogonal-side formula, reported for comparison only.

    Horizontal lifts of horizontal vectors, plus vertical lifts corrected by
    the horizontal lift of the vertical part of nabla_Z of a horizontal
    extension.
    """
    return _lifted_basis(geom, Z, cfg, 1, lambda x: _extension(geom, x, cfg, 1))


# ---------------------------------------------------------------------------
# the frame-to-tangent-bundle projections
# ---------------------------------------------------------------------------

def pi_i_differential(
    M: ChartManifold, t: FrameTangent, i: int, cfg: FDConfig = DEFAULT_FD
) -> TMTangent:
    """Differential of the i-th column projection of the frame bundle into TM.

    Horizontal lifts map to horizontal lifts at the i-th frame vector and
    fundamental verticals of P map to vertical lifts of P(u_i).
    """
    u = t.at
    Z = TMPoint(u.base, u.vector(i))
    hor = tm_horizontal_lift(M, TangentVector(u.base, t.base_rate), Z, cfg)
    ver = tm_vertical_lift(
        TangentVector(u.base, (vertical_part(M, t, cfg) @ Z.fiber[..., None])[..., 0]), Z)
    return hor + ver


def pi_i_differential_fd(
    M: ChartManifold, t: FrameTangent, i: int, cfg: FDConfig = DEFAULT_FD
) -> TMTangent:
    """The same differential by central differences of (x, E) -> (x, E[:, i])."""
    u = t.at
    h = cfg.step_h
    Z = TMPoint(u.base, u.vector(i))
    fiber_rate = ((u.columns + h * t.frame_rate) - (u.columns - h * t.frame_rate))[..., :, i] / (2.0 * h)
    return TMTangent(Z, t.base_rate.copy(), fiber_rate)
