"""Deterministic smooth test fields for residual checks.

Low-order polynomial coefficients drawn from a seeded generator give
analytic vector and endomorphism fields that exercise every derivative
path without chart-boundary trouble.
"""

from __future__ import annotations

import numpy as np

from .geometry import Array, ChartManifold, EndomorphismField, VectorField, metric_eval

DEFAULT_SCALE = 0.3


def polynomial_vector_field(
    dim: int, rng: np.random.Generator, scale: float = DEFAULT_SCALE,
    exact_jacobian: bool = True,
) -> VectorField:
    """Quadratic polynomial field with optional exact Jacobian."""
    c0 = rng.standard_normal(dim)
    c1 = scale * rng.standard_normal((dim, dim))
    c2 = scale * rng.standard_normal((dim, dim, dim))
    c2 = 0.5 * (c2 + c2.transpose(0, 2, 1))

    def ev(p: Array) -> Array:
        return c0 + c1 @ p + 0.5 * np.einsum("ijk,j,k->i", c2, p, p)

    def jac(p: Array) -> Array:
        return c1 + np.einsum("ijk,k->ij", c2, p)

    return VectorField(eval=ev, jacobian=jac if exact_jacobian else None)


def polynomial_endo_field(
    dim: int, rng: np.random.Generator, scale: float = DEFAULT_SCALE
) -> EndomorphismField:
    """Affine matrix-valued field."""
    c0 = rng.standard_normal((dim, dim))
    c1 = scale * rng.standard_normal((dim, dim, dim))

    def ev(p: Array) -> Array:
        return c0 + np.einsum("ijk,k->ij", c1, p)

    return EndomorphismField(eval=ev)


def g_skew_endo_field(
    M: ChartManifold, rng: np.random.Generator, scale: float = DEFAULT_SCALE
) -> EndomorphismField:
    """g-skew field g^{-1} K(p) with K an antisymmetric affine matrix field."""
    dim = M.dim
    k0 = rng.standard_normal((dim, dim))
    k1 = scale * rng.standard_normal((dim, dim, dim))

    def ev(p: Array) -> Array:
        K = k0 + np.einsum("ijk,k->ij", k1, p)
        K = 0.5 * (K - K.T)
        return np.linalg.solve(metric_eval(M, p), K)

    return EndomorphismField(eval=ev)

