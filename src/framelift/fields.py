"""Deterministic smooth test fields for residual checks.

Low-order polynomial coefficients drawn from a seeded generator give
analytic vector and endomorphism fields that exercise every derivative
path without chart-boundary trouble.  Every field takes points with
leading axes (..., dim), as ``geometry.VectorField`` requires; a vector
field may carry its own coefficients at each point of a stack.
"""

from __future__ import annotations

import numpy as np

from .geometry import Array, ChartManifold, EndomorphismField, VectorField, metric_eval

DEFAULT_SCALE = 0.3


def polynomial_vector_field(
    dim: int, rng: np.random.Generator, exact_jacobian: bool = True,
) -> VectorField:
    """Quadratic polynomial field with optional exact Jacobian."""
    return _polynomial_vector_field(rng.standard_normal(dim + dim**2 + dim**3), dim, exact_jacobian)


def _polynomial_vector_field(draws: Array, dim: int, exact_jacobian: bool = True) -> VectorField:
    """The field of the standard-normal draws (..., dim + dim^2 + dim^3).  Draws (N, ...) give
    a field per point: row i of points (..., N, dim) uses draws i; stencil axes lead."""
    c0 = draws[..., :dim]
    c1 = DEFAULT_SCALE * draws[..., dim:dim + dim**2].reshape(draws.shape[:-1] + (dim, dim))
    c2 = DEFAULT_SCALE * draws[..., dim + dim**2:].reshape(draws.shape[:-1] + (dim,) * 3)
    c2 = 0.5 * (c2 + c2.swapaxes(-1, -2))

    def ev(p: Array) -> Array:
        return c0 + (c1 @ p[..., None])[..., 0] + 0.5 * np.einsum("...ijk,...j,...k->...i", c2, p, p)

    def jac(p: Array) -> Array:
        return c1 + np.einsum("...ijk,...k->...ij", c2, p)

    return VectorField(eval=ev, jacobian=jac if exact_jacobian else None)


def polynomial_endo_field(dim: int, rng: np.random.Generator) -> EndomorphismField:
    """Affine matrix-valued field."""
    c0 = rng.standard_normal((dim, dim))
    c1 = DEFAULT_SCALE * rng.standard_normal((dim, dim, dim))

    def ev(p: Array) -> Array:
        return c0 + np.einsum("ijk,...k->...ij", c1, p)

    return EndomorphismField(eval=ev)


def g_skew_endo_field(M: ChartManifold, rng: np.random.Generator) -> EndomorphismField:
    """g-skew field g^{-1} K(p) with K an antisymmetric affine matrix field."""
    dim = M.dim
    k0 = rng.standard_normal((dim, dim))
    k1 = DEFAULT_SCALE * rng.standard_normal((dim, dim, dim))

    def ev(p: Array) -> Array:
        K = k0 + np.einsum("ijk,...k->...ij", k1, p)
        K = 0.5 * (K - K.swapaxes(-1, -2))
        return np.linalg.solve(metric_eval(M, p), K)

    return EndomorphismField(eval=ev)

