"""Canonical charted submersions with exact metadata.

Five examples drive every verification suite: a flat projection, a product
projection, the Hopf fibration of the round 3-sphere onto the half-radius
2-sphere, a warped plane projecting onto its base line, and a homothety
composed with a flat projection.  Each entry carries exact metric
derivatives, an exact Jacobian, smooth vertical fields, expected flags,
a sampling box away from chart singularities, and the point checks that the
theorems suite makes on it: a vanishing tension, or a chart point at which
to measure the tension or the lift's tension.  Four of the five (E1, E2, E4,
E5) are one construction, ``coordinate_projection``.  The lift's expected
flags are not declared: ``CatalogEntry`` reads them from the prediction rules
of ``submersion`` applied to the entry's own flags.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .geometry import (
    Array, ChartManifold, VectorField, _norm2, _stack, box_sampler, coordinate_field,
)
from .submersion import SubmersionSpec, lift_conformal_rule, lift_harmonic_morphism_rule


# ---------------------------------------------------------------------------
# chart builders
# ---------------------------------------------------------------------------

def euclidean_chart(n: int, half_width: float = 1.5, name: str = "") -> ChartManifold:
    eye = np.eye(n)

    return ChartManifold(
        dim=n,
        metric_field=lambda p: _stack(p, eye),
        metric_derivative=lambda p: np.zeros(p.shape[:-1] + (n, n, n)),
        domain_predicate=lambda p: (abs(p) < 10.0).all(-1),
        domain_sampler=box_sampler([-half_width] * n, [half_width] * n),
        orthonormal_frame=lambda p: _stack(p, eye),
        name=name or f"R^{n}",
    )


def sphere_chart(n: int, scale: float = 1.0, box: float = 0.6, name: str = "") -> ChartManifold:
    """Stereographic chart of the round n-sphere.

    The metric is the conformal one ``scale * 4 / (1 + |x|^2)^2`` times the
    identity; scale 1 gives the unit sphere, scale 1/4 the sphere of radius
    one half.
    """
    s = 4.0 * scale
    eye = np.eye(n)

    def conf(p: Array) -> Array:
        return s / (1.0 + _norm2(p)) ** 2

    def metric(p: Array) -> Array:
        return conf(p)[..., None, None] * eye

    def dmetric(p: Array) -> Array:
        w = 1.0 + _norm2(p)
        # out[..., k, :, :] = (-4 s p_k / w^3) times the identity; w * w * w rounds
        # the same for one point and for many, where w ** 3 may not
        return (-4.0 * s * p / (w * w * w)[..., None])[..., None, None] * eye

    def frame(p: Array) -> Array:
        return eye / np.sqrt(conf(p))[..., None, None]

    return ChartManifold(
        dim=n,
        metric_field=metric,
        metric_derivative=dmetric,
        domain_predicate=lambda p: _norm2(p) < 4.0,
        domain_sampler=box_sampler([-box] * n, [box] * n),
        orthonormal_frame=frame,
        name=name or f"S^{n}(stereo, scale={scale})",
    )


def product_sphere_circle_chart(name: str = "S2xS1") -> ChartManifold:
    """Product of the unit 2-sphere (stereographic) with a unit circle angle."""
    n = 3
    eye = np.eye(n)

    def r2(p: Array) -> Array:
        return p[..., 0] ** 2 + p[..., 1] ** 2

    def metric(p: Array) -> Array:
        g = _stack(p, eye)
        g[..., 0, 0] = g[..., 1, 1] = 4.0 / (1.0 + r2(p)) ** 2
        return g

    def dmetric(p: Array) -> Array:
        w = 1.0 + r2(p)
        out = np.zeros(p.shape[:-1] + (n, n, n))
        for k in range(2):
            out[..., k, 0, 0] = out[..., k, 1, 1] = -16.0 * p[..., k] / (w * w * w)
        return out

    def frame(p: Array) -> Array:
        E = _stack(p, eye)
        E[..., 0, 0] = E[..., 1, 1] = 1.0 / np.sqrt(4.0 / (1.0 + r2(p)) ** 2)
        return E

    return ChartManifold(
        dim=n,
        metric_field=metric,
        metric_derivative=dmetric,
        domain_predicate=lambda p: r2(p) < 4.0,
        domain_sampler=box_sampler([-0.5, -0.5, -1.0], [0.5, 0.5, 1.0]),
        orthonormal_frame=frame,
        name=name,
    )


def warped_plane_chart(name: str = "warped") -> ChartManifold:
    """Plane with metric diag(1, e^{2t}) in coordinates (t, s)."""

    def diag(p: Array, second: Array) -> Array:
        out = np.zeros(p.shape[:-1] + (2, 2))
        out[..., 0, 0] = 1.0
        out[..., 1, 1] = second
        return out

    def dmetric(p: Array) -> Array:
        out = np.zeros(p.shape[:-1] + (2, 2, 2))
        out[..., 0, 1, 1] = 2.0 * np.exp(2.0 * p[..., 0])
        return out

    return ChartManifold(
        dim=2,
        metric_field=lambda p: diag(p, np.exp(2.0 * p[..., 0])),
        metric_derivative=dmetric,
        domain_predicate=lambda p: abs(p[..., 0]) < 3.0,
        domain_sampler=box_sampler([-0.5, -1.0], [0.5, 1.0]),
        orthonormal_frame=lambda p: diag(p, np.exp(-p[..., 0])),
        name=name,
    )


# ---------------------------------------------------------------------------
# the Hopf map in stereographic charts
# ---------------------------------------------------------------------------

def _stereo_inverse_s3(x: Array) -> Array:
    """Chart points (..., 3) to the unit 3-sphere in R^4 (projection from the north pole).

    Unpacking x.T puts the coordinate axis first (numpy scalars at one point)
    and the closing .T restores the leading axes; so do the Hopf helpers below.
    """
    x1, x2, x3 = x.T
    r2 = x1 * x1 + x2 * x2 + x3 * x3
    return (np.array([2.0 * x1, 2.0 * x2, 2.0 * x3, r2 - 1.0]) / (1.0 + r2)).T


def _hopf_parts(x: Array) -> tuple[Array, ...]:
    """(u, v, cr, ci) at points x (..., 3) with the coordinate axis first:
    hopf_map(x) = u + i v = a / b and 1/b = cr + i ci.

    The sphere point (z1, z2) = (a, b) / (1 + |x|^2), with a = 2(x1 + i x2) and
    b = 2 x3 + i s, s = |x|^2 - 1, maps to m with m1 + i m2 = 2 z1 conj(z2) and
    1 - m3 = 2|z2|^2, whose stereographic image (m1 + i m2) / (1 - m3) is
    z1 / z2 = a conj(b) / |b|^2.  Real arithmetic per component, so a stack's
    rows round as single points do.
    """
    x1, x2, x3 = x.T
    s = x1 * x1 + x2 * x2 + x3 * x3 - 1.0
    d = 4.0 * x3 * x3 + s * s  # |b|^2
    return (2.0 * (2.0 * x1 * x3 + x2 * s) / d, 2.0 * (2.0 * x2 * x3 - x1 * s) / d,
            2.0 * x3 / d, -s / d)


def hopf_map(x: Array) -> Array:
    """The Hopf map in the two stereographic charts, at points x (..., 3)."""
    u, v, _, _ = _hopf_parts(x)
    return np.array([u, v]).T


def hopf_jacobian(x: Array) -> Array:
    """d(a / b) = (da - (a / b) db) / b with da = (2, 2i, 0) and db = 2i x + 2 e_3,
    as the real (..., 2, 3) matrix of rows Re and Im."""
    u, v, cr, ci = _hopf_parts(x)
    x1, x2, x3 = x.T
    re = (2.0 + 2.0 * v * x1, 2.0 * v * x2, 2.0 * v * x3 - 2.0 * u)  # da - f db, by column
    im = (-2.0 * u * x1, 2.0 - 2.0 * u * x2, -2.0 * u * x3 - 2.0 * v)
    rows = [t * cr - w * ci for t, w in zip(re, im)] + [t * ci + w * cr for t, w in zip(re, im)]
    # C order, so that a stacked J @ y rounds each row as at one point
    return np.ascontiguousarray(np.array(rows).T).reshape(x.shape[:-1] + (2, 3))


def hopf_vertical_field() -> VectorField:
    """The fiber direction of the Hopf map pulled into the stereographic chart."""

    def ev(x: Array) -> Array:
        p1, p2, p3, p4 = _stereo_inverse_s3(x).T
        # V = i P = (-p2, p1, -p4, p3) upstairs, pushed down the stereographic chart
        return ((np.array([-p2, p1, -p4]) + x.T * p3) / (1.0 - p4)).T

    return VectorField(eval=ev)


# ---------------------------------------------------------------------------
# entries
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CatalogEntry:
    """A charted submersion with its expected geometric flags.  The lift's flags are
    the ``submersion`` prediction rules on them, a catalog dilatation making the map
    horizontally conformal with that constant."""

    id: str
    phi: SubmersionSpec
    expected_lambda: Optional[float]  # None means non-constant
    totally_geodesic: bool
    fibers_totally_geodesic: bool
    h_integrable: bool
    harmonic_morphism: bool
    expected_big_lambda: Optional[float]
    description: str = ""
    # point checks of suites.suite_theorems; the default adds no row
    tension_zero: bool = False  # tau(phi) vanishes at every sample point
    tension_unit_at: Optional[tuple[float, ...]] = None  # chart point with |tau| = 1 = |phi_* H|
    lift_tension_at: Optional[tuple[float, ...]] = None  # chart point for lift_tension_direct
    lift_tension_normal: Optional[float] = None  # its expected normal part, set with the point

    @property
    def lift_conformal(self) -> bool:
        lam_const = self.expected_lambda is not None
        return lift_conformal_rule(lam_const, lam_const, self.totally_geodesic)

    @property
    def lift_harmonic_morphism(self) -> bool:
        return lift_harmonic_morphism_rule(self.harmonic_morphism, self.totally_geodesic,
                                           self.expected_lambda is not None)


def coordinate_projection(source: ChartManifold, target: ChartManifold, factor: float,
                          name: str) -> SubmersionSpec:
    """p -> factor * (p_1, ..., p_k) onto the first k = target.dim coordinates, with the
    constant Jacobian factor * [I_k 0] and the coordinate fields k, ..., n - 1 as kernel."""
    k, n = target.dim, source.dim
    J = factor * np.eye(k, n)
    return SubmersionSpec(
        source=source, target=target,
        map=lambda p: factor * p[..., :k],
        jacobian=lambda p: _stack(p, J),
        vertical_fields=[coordinate_field(i, n) for i in range(k, n)],
        name=name,
    )


def _build_entries() -> list[CatalogEntry]:
    out = []

    # E1: flat projection of R^3 onto R^2
    out.append(CatalogEntry(
        id="E1",
        phi=coordinate_projection(euclidean_chart(3, name="R3"), euclidean_chart(2, name="R2"),
                                  1.0, "flat-projection"),
        expected_lambda=1.0, totally_geodesic=True, fibers_totally_geodesic=True,
        h_integrable=True, harmonic_morphism=True, expected_big_lambda=1.0,
        description="orthogonal projection of flat 3-space onto a flat plane",
        # the image of the lift is R^2 times a circle of radius sqrt(2) in the flat
        # fibre of L(R^2), so the lift's tension is that circle's curvature vector:
        # normal to the image, of norm 1/sqrt(2)
        lift_tension_at=(0.2, -0.3, 0.4), lift_tension_normal=1.0 / np.sqrt(2.0),
    ))

    # E2: product projection of S^2 x S^1 onto S^2
    out.append(CatalogEntry(
        id="E2",
        phi=coordinate_projection(product_sphere_circle_chart(),
                                  sphere_chart(2, scale=1.0, box=0.5, name="S2"), 1.0, "product"),
        expected_lambda=1.0, totally_geodesic=True, fibers_totally_geodesic=True,
        h_integrable=True, harmonic_morphism=True, expected_big_lambda=1.0,
        description="projection of the metric product sphere-times-circle onto the sphere",
    ))

    # E3: Hopf fibration S^3 -> S^2(1/2)
    out.append(CatalogEntry(
        id="E3",
        phi=SubmersionSpec(
            source=sphere_chart(3, scale=1.0, box=0.4, name="S3"),
            target=sphere_chart(2, scale=0.25, box=1.5, name="S2(1/2)"),
            map=hopf_map,
            jacobian=hopf_jacobian,
            vertical_fields=[hopf_vertical_field()],
            name="hopf",
        ),
        expected_lambda=1.0, totally_geodesic=False, fibers_totally_geodesic=True,
        h_integrable=False, harmonic_morphism=True, expected_big_lambda=None,
        description="Hopf fibration of the round 3-sphere over the half-radius 2-sphere",
        tension_zero=True,
    ))

    # E4: warped plane onto its base line
    out.append(CatalogEntry(
        id="E4",
        phi=coordinate_projection(warped_plane_chart(), euclidean_chart(1, name="R"), 1.0, "warped"),
        expected_lambda=1.0, totally_geodesic=False, fibers_totally_geodesic=False,
        h_integrable=True, harmonic_morphism=False, expected_big_lambda=None,
        description="warped product projecting onto the base; fibers are not minimal",
        tension_unit_at=(0.0, 0.25),
    ))

    # E5: homothety (factor 2) composed with the flat projection
    c = 2.0
    out.append(CatalogEntry(
        id="E5",
        phi=coordinate_projection(euclidean_chart(3, name="R3"),
                                  euclidean_chart(2, half_width=3.5, name="R2"), c,
                                  "homothety-projection"),
        expected_lambda=c * c, totally_geodesic=True, fibers_totally_geodesic=True,
        h_integrable=True, harmonic_morphism=True, expected_big_lambda=c * c,
        description="scaling homothety after the flat projection; dilatation 4",
    ))
    return out


_ENTRIES = {e.id: e for e in _build_entries()}


def entries() -> list[CatalogEntry]:
    return [_ENTRIES[k] for k in sorted(_ENTRIES)]


def get(entry_id: str) -> CatalogEntry:
    if entry_id not in _ENTRIES:
        raise KeyError(f"unknown catalog entry {entry_id!r}; known: {sorted(_ENTRIES)}")
    return _ENTRIES[entry_id]
