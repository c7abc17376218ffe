"""The tangent bundle as a chart (x, Z) with the Sasaki-Mok metric.

Horizontal and vertical lifts, the Dombrowski connection map K splitting
TTM, the second differential of a submersion between tangent bundles, and
the kernel/orthogonal distributions of that second differential.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .geometry import (
    Array,
    ChartManifold,
    DEFAULT_FD,
    FDConfig,
    TangentVector,
    VectorField,
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

    def __mul__(self, c: float) -> "TMTangent":
        return TMTangent(self.at, c * self.base_rate, c * self.fiber_rate)

    __rmul__ = __mul__


def _same_tm_point(a: TMPoint, b: TMPoint, tol: float = 1e-9) -> None:
    if np.max(np.abs(a.base - b.base)) > tol or np.max(np.abs(a.fiber - b.fiber)) > tol:
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
                     -christoffel_contract(gamma, X.components) @ Z.fiber)


def connection_map_K(M: ChartManifold, t: TMTangent, cfg: FDConfig = DEFAULT_FD) -> TangentVector:
    """Dombrowski connection map: K = fiber_rate + Gamma_{base_rate} Z."""
    gamma = christoffel(M, t.at.base, cfg)
    return TangentVector(
        t.at.base, t.fiber_rate + christoffel_contract(gamma, t.base_rate) @ t.at.fiber
    )


def tm_split(M: ChartManifold, t: TMTangent, cfg: FDConfig = DEFAULT_FD) -> tuple[TMTangent, TMTangent]:
    """Exact splitting into horizontal and vertical lifts of pi_* t and K(t)."""
    K = connection_map_K(M, t, cfg)
    hor = tm_horizontal_lift(M, TangentVector(t.at.base, t.base_rate), t.at, cfg)
    ver = tm_vertical_lift(K, t.at)
    return hor, ver


def sasaki_mok_tm(
    M: ChartManifold, s: TMTangent, t: TMTangent, cfg: FDConfig = DEFAULT_FD
) -> float:
    """Sasaki-Mok metric: g(pi_* s, pi_* t) + g(K(s), K(t))."""
    _same_tm_point(s.at, t.at)
    g = metric_eval(M, s.at.base)
    Ks = connection_map_K(M, s, cfg).components
    Kt = connection_map_K(M, t, cfg).components
    return float(s.base_rate @ g @ t.base_rate + Ks @ g @ Kt)


# ---------------------------------------------------------------------------
# the second differential of a submersion
# ---------------------------------------------------------------------------

def tm_map(phi: SubmersionSpec, Z: TMPoint, cfg: FDConfig = DEFAULT_FD) -> TMPoint:
    """The induced map of tangent bundles: (x, Z) -> (phi(x), dphi Z)."""
    J = differential_matrix(phi, Z.base, cfg)
    return TMPoint(phi.value(Z.base), J @ Z.fiber)


def phi_second_differential_fd(
    phi: SubmersionSpec, t: TMTangent, cfg: FDConfig = DEFAULT_FD
) -> TMTangent:
    """Central-difference differential of the tangent-bundle map along t."""
    Z = t.at
    h = cfg.step_h if phi.jacobian is not None else cfg.step_h2

    def val(s: float) -> tuple[Array, Array]:
        x = Z.base + s * t.base_rate
        z = Z.fiber + s * t.fiber_rate
        return phi.value(x), differential_matrix(phi, x, cfg) @ z

    yp, zp = val(h)
    ym, zm = val(-h)
    return TMTangent(tm_map(phi, Z, cfg), (yp - ym) / (2.0 * h), (zp - zm) / (2.0 * h))


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
    img = tm_map(phi, Z, cfg)
    pushed = TangentVector(img.base, J @ X.components)
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


def _kernel_basis(
    geom: SubmersionGeometry, Z: TMPoint, cfg: FDConfig,
    extend: Callable[[Array], VectorField],
) -> list[TMTangent]:
    """Vertical lifts of vertical vectors, then their horizontal lifts
    corrected by the horizontal part of nabla_Z of ``extend(e)``."""
    M = geom.phi.source
    p = Z.base
    _, Pi_H = splitting_projectors(geom.phi, p, cfg)
    Zvec = constant_field(Z.fiber)
    vb = vertical_basis(geom, p)
    out = [tm_vertical_lift(e, Z) for e in vb]
    for e, nab in zip(vb, covariant_derivatives(M, [(Zvec, extend(e.components)) for e in vb],
                                                p, cfg)):
        corr = TangentVector(p, Pi_H @ nab.components)
        out.append(tm_horizontal_lift(M, e, Z, cfg) + tm_vertical_lift(corr, Z))
    return out


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
    V_basis = _kernel_basis(geom, Z, cfg, lambda x: _extension(geom, x, cfg, 0))

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
    return _kernel_basis(geom, Z, cfg, constant_field)


def tm_distributions_displayed_h(
    geom: SubmersionGeometry, Z: TMPoint, cfg: FDConfig = DEFAULT_FD,
) -> list[TMTangent]:
    """The displayed orthogonal-side formula, reported for comparison only.

    Horizontal lifts of horizontal vectors, plus vertical lifts corrected by
    the horizontal lift of the vertical part of nabla_Z of a horizontal
    extension.
    """
    M = geom.phi.source
    p = Z.base
    Pi_V, _ = splitting_projectors(geom.phi, p, cfg)
    Zvec = constant_field(Z.fiber)
    hb = horizontal_basis(geom, p)
    out = [tm_horizontal_lift(M, e, Z, cfg) for e in hb]
    for e, nab in zip(hb, covariant_derivatives(
            M, [(Zvec, _extension(geom, e.components, cfg, 1)) for e in hb], p, cfg)):
        corr = TangentVector(p, Pi_V @ nab.components)
        out.append(tm_vertical_lift(e, Z) + tm_horizontal_lift(M, corr, Z, cfg))
    return out


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
    V = vertical_part(M, t, cfg)
    ver = tm_vertical_lift(TangentVector(u.base, V @ u.vector(i)), Z)
    return hor + ver


def pi_i_differential_fd(
    M: ChartManifold, t: FrameTangent, i: int, cfg: FDConfig = DEFAULT_FD
) -> TMTangent:
    """The same differential by central differences of (x, E) -> (x, E[:, i])."""
    u = t.at
    h = cfg.step_h
    Z = TMPoint(u.base, u.vector(i))
    base_rate = t.base_rate.copy()
    fiber_rate = ((u.columns + h * t.frame_rate)[:, i] - (u.columns - h * t.frame_rate)[:, i]) / (2.0 * h)
    return TMTangent(Z, base_rate, fiber_rate)
