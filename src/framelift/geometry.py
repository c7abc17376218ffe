"""Chart-level Riemannian calculus.

A manifold is represented by a single coordinate chart carrying a metric
field.  Points are plain coordinate vectors, and every geometric operator
(Levi-Civita connection, curvature, Lie brackets, orthonormal frames) is
evaluated pointwise, with second-order central differences wherever an
exact derivative is not supplied.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

Array = np.ndarray


class DomainError(ValueError):
    """A point, or a finite-difference stencil around it, leaves the chart."""


@dataclass(frozen=True)
class FDConfig:
    """Finite-difference steps and graded residual tolerances.

    ``step_h`` differentiates analytic inputs; ``step_h2`` differentiates
    quantities that are themselves finite-difference results (one more
    level of noise).  ``tol_exact``/``tol_fd1``/``tol_fd2`` grade checks by
    how many difference levels feed them.
    """

    step_h: float = 1e-5
    step_h2: float = 1e-4
    tol_exact: float = 1e-10
    tol_fd1: float = 1e-6
    tol_fd2: float = 5e-4

    def __post_init__(self):
        if self.step_h <= 0.0 or self.step_h2 <= 0.0:
            raise ValueError("finite-difference steps must be positive")
        if self.step_h2 < self.step_h:
            raise ValueError("step_h2 must be >= step_h")
        if not (0.0 <= self.tol_exact <= self.tol_fd1 <= self.tol_fd2):
            raise ValueError("tolerances must satisfy tol_exact <= tol_fd1 <= tol_fd2")


DEFAULT_FD = FDConfig()


def _always(_p: Array) -> bool:
    return True


@dataclass(frozen=True)
class ChartManifold:
    """A coordinate chart with a Riemannian metric field.

    Parameters
    ----------
    dim : int
        Chart dimension.
    metric_field : callable
        Point -> symmetric positive-definite (dim, dim) matrix g_ij.
    metric_derivative : callable, optional
        Point -> (dim, dim, dim) array D[k, i, j] = d_k g_ij.  When given it
        is used instead of differencing ``metric_field``.
    domain_predicate : callable
        Point -> bool, True on the chart domain.
    domain_sampler : callable, optional
        (seed, count) -> (count, dim) array of interior points.
    orthonormal_frame : callable, optional
        Exact reference orthonormal frame field p -> (dim, dim) matrix whose
        columns are g-orthonormal.  Defaults to Gram-Schmidt of the
        coordinate basis.
    orthonormal_frame_derivative : callable, optional
        p -> (dim, dim, dim) array D[k] = d_k of the reference frame.
    """

    dim: int
    metric_field: Callable[[Array], Array]
    metric_derivative: Optional[Callable[[Array], Array]] = None
    domain_predicate: Callable[[Array], bool] = _always
    domain_sampler: Optional[Callable[[int, int], Array]] = None
    orthonormal_frame: Optional[Callable[[Array], Array]] = None
    orthonormal_frame_derivative: Optional[Callable[[Array], Array]] = None
    name: str = ""

    def contains(self, p: Array) -> bool:
        return bool(self.domain_predicate(np.asarray(p, dtype=float)))


@dataclass(frozen=True)
class TangentVector:
    """A tangent vector attached to a chart point."""

    base: Array
    components: Array

    def __post_init__(self):
        object.__setattr__(self, "base", np.asarray(self.base, dtype=float))
        object.__setattr__(self, "components", np.asarray(self.components, dtype=float))
        if self.base.shape != self.components.shape:
            raise ValueError("base point and components must have equal length")


@dataclass(frozen=True)
class VectorField:
    """A vector field given by its component function, with optional exact Jacobian."""

    eval: Callable[[Array], Array]
    jacobian: Optional[Callable[[Array], Array]] = None  # J[i, j] = d_j X^i

    def at(self, p: Array) -> TangentVector:
        return TangentVector(p, self.eval(p))


@dataclass(frozen=True)
class EndomorphismField:
    """A field of endomorphisms of the tangent bundle (mixed (1,1) tensors)."""

    eval: Callable[[Array], Array]


def coordinate_field(i: int, dim: int) -> VectorField:
    e = np.zeros(dim)
    e[i] = 1.0
    return VectorField(eval=lambda p, e=e: e.copy(), jacobian=lambda p: np.zeros((dim, dim)))


def constant_field(v: Array) -> VectorField:
    v = np.asarray(v, dtype=float)
    n = v.size
    return VectorField(eval=lambda p: v.copy(), jacobian=lambda p: np.zeros((n, n)))


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------

def central_diff(f: Callable[[Array], Array], p: Array, h: float) -> Array:
    """Stack of central differences d_k f, shape (dim,) + f(p).shape."""
    p = np.asarray(p, dtype=float)
    rows = []
    for k in range(p.size):
        dp = np.zeros_like(p)
        dp[k] = h
        rows.append((np.asarray(f(p + dp)) - np.asarray(f(p - dp))) / (2.0 * h))
    return np.stack(rows, axis=0)


def directional_diff(f: Callable[[Array], Array], p: Array, v: Array, h: float) -> Array:
    """Derivative of f along v at p, linear in v (direction is normalized)."""
    p = np.asarray(p, dtype=float)
    v = np.asarray(v, dtype=float)
    norm = float(np.linalg.norm(v))
    if norm == 0.0:
        return np.zeros_like(np.asarray(f(p), dtype=float))
    u = v / norm
    return norm * (np.asarray(f(p + h * u)) - np.asarray(f(p - h * u))) / (2.0 * h)


def _check_domain(M: ChartManifold, p: Array) -> Array:
    p = np.asarray(p, dtype=float)
    if p.shape != (M.dim,):
        raise ValueError(f"point has shape {p.shape}, expected ({M.dim},)")
    if not M.contains(p):
        raise DomainError(f"point {p} outside chart domain of {M.name or 'manifold'}")
    return p


def _check_stencil(M: ChartManifold, p: Array, h: float) -> None:
    for k in range(M.dim):
        dp = np.zeros(M.dim)
        dp[k] = h
        if not (M.contains(p + dp) and M.contains(p - dp)):
            raise DomainError("finite-difference stencil leaves chart domain")


def sample_points(M: ChartManifold, seed: int, count: int) -> Array:
    """Deterministic interior sample points from the chart's sampler."""
    if M.domain_sampler is None:
        raise ValueError(f"chart {M.name or ''} has no domain sampler")
    pts = np.asarray(M.domain_sampler(seed, count), dtype=float)
    if pts.shape != (count, M.dim):
        raise ValueError("domain sampler returned wrong shape")
    return pts


def box_sampler(lo: Sequence[float], hi: Sequence[float]) -> Callable[[int, int], Array]:
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)

    def sampler(seed: int, count: int) -> Array:
        rng = np.random.default_rng(seed)
        return lo + (hi - lo) * rng.random((count, lo.size))

    return sampler


# ---------------------------------------------------------------------------
# metric-level operators
# ---------------------------------------------------------------------------

def metric_eval(M: ChartManifold, p: Array) -> Array:
    """Metric components g_ij at p (symmetric positive definite)."""
    p = _check_domain(M, p)
    return np.asarray(M.metric_field(p), dtype=float)


def metric_derivative_eval(M: ChartManifold, p: Array, cfg: FDConfig = DEFAULT_FD) -> Array:
    """d_k g_ij at p, exact when supplied, else central differences."""
    if M.metric_derivative is not None:
        return np.asarray(M.metric_derivative(p), dtype=float)
    _check_stencil(M, p, cfg.step_h)
    return central_diff(M.metric_field, p, cfg.step_h)


def inner(M: ChartManifold, p: Array, x: Array, y: Array) -> float:
    return float(x @ metric_eval(M, p) @ y)


def norm(M: ChartManifold, p: Array, x: Array) -> float:
    return float(np.sqrt(max(inner(M, p, x, x), 0.0)))


def christoffel(M: ChartManifold, p: Array, cfg: FDConfig = DEFAULT_FD) -> Array:
    """Levi-Civita Christoffel symbols, G[k, i, j] = Gamma^k_ij.

    Symmetric in (i, j) by construction.
    """
    p = _check_domain(M, p)
    g = metric_eval(M, p)
    dg = metric_derivative_eval(M, p, cfg)
    ginv = np.linalg.inv(g)
    # Gamma^k_ij = 1/2 g^{km} (d_i g_mj + d_j g_mi - d_m g_ij)
    bracket = np.einsum("imj->mij", dg) + np.einsum("jmi->mij", dg) - dg
    return 0.5 * np.einsum("km,mij->kij", ginv, bracket)


def christoffel_contract(gamma: Array, x: Array) -> Array:
    """Matrix (Gamma_x)^k_j = Gamma^k_ij x^i, acting on tangent components."""
    return np.einsum("kij,i->kj", gamma, x)


def christoffel_derivative(M: ChartManifold, p: Array, cfg: FDConfig = DEFAULT_FD) -> Array:
    """d_m Gamma^k_ij by central differences, D[m, k, i, j].

    Uses step_h when the metric derivative is exact (the symbols are then
    analytic) and step_h2 otherwise.
    """
    h = cfg.step_h if M.metric_derivative is not None else cfg.step_h2
    _check_stencil(M, p, h)
    return central_diff(lambda q: christoffel(M, q, cfg), p, h)


def field_derivative(X: VectorField, p: Array, v: Array, h: float) -> Array:
    """Derivative of the components of X along v (exact Jacobian if present)."""
    if X.jacobian is not None:
        return np.asarray(X.jacobian(p), dtype=float) @ v
    return directional_diff(X.eval, p, v, h)


def covariant_derivative(
    M: ChartManifold,
    X: VectorField,
    Y: VectorField,
    p: Array,
    cfg: FDConfig = DEFAULT_FD,
    step: Optional[float] = None,
) -> TangentVector:
    """(nabla_X Y)(p) for the Levi-Civita connection.

    ``step`` overrides the difference step for the field derivative, for
    fields that are themselves finite-difference results.
    """
    p = _check_domain(M, p)
    h = cfg.step_h if step is None else step
    x = np.asarray(X.eval(p), dtype=float)
    y = np.asarray(Y.eval(p), dtype=float)
    dY = field_derivative(Y, p, x, h)
    gamma = christoffel(M, p, cfg)
    return TangentVector(p, dY + np.einsum("kij,i,j->k", gamma, x, y))


def lie_bracket(
    X: VectorField,
    Y: VectorField,
    p: Array,
    cfg: FDConfig = DEFAULT_FD,
    step: Optional[float] = None,
) -> TangentVector:
    """[X, Y](p) = dY(X) - dX(Y), by central differences of the components."""
    p = np.asarray(p, dtype=float)
    h = cfg.step_h if step is None else step
    x = np.asarray(X.eval(p), dtype=float)
    y = np.asarray(Y.eval(p), dtype=float)
    return TangentVector(p, field_derivative(Y, p, x, h) - field_derivative(X, p, y, h))


def curvature_tensor(M: ChartManifold, p: Array, cfg: FDConfig = DEFAULT_FD) -> Array:
    """Curvature R[i, j, k, l] = (R(d_i, d_j) d_k)^l for R(X,Y) = [nabla_X, nabla_Y] - nabla_[X,Y].

    Assembled tensorially from Gamma and its central differences; no field
    extensions are involved.
    """
    gamma = christoffel(M, p, cfg)
    dgamma = christoffel_derivative(M, p, cfg)  # D[m, k, i, j]
    term_a = np.transpose(dgamma, (0, 2, 3, 1))          # A[i,j,k,l] = d_i Gamma^l_jk
    term_b = term_a.swapaxes(0, 1)                        # d_j Gamma^l_ik
    quad_a = np.einsum("lim,mjk->ijkl", gamma, gamma)     # Gamma^l_im Gamma^m_jk
    quad_b = quad_a.swapaxes(0, 1)
    return term_a - term_b + quad_a - quad_b


def curvature(
    M: ChartManifold,
    X: TangentVector,
    Y: TangentVector,
    Z: TangentVector,
    cfg: FDConfig = DEFAULT_FD,
) -> TangentVector:
    """R(X, Y)Z at the common base point of the three vectors."""
    p = X.base
    if not (np.array_equal(p, Y.base) and np.array_equal(p, Z.base)):
        raise ValueError("curvature arguments must share a base point")
    R = curvature_tensor(M, p, cfg)
    out = np.einsum("ijkl,i,j,k->l", R, X.components, Y.components, Z.components)
    return TangentVector(p, out)


def curvature_R_P(
    M: ChartManifold,
    P: Array,
    X: TangentVector,
    onb: Sequence[TangentVector],
    cfg: FDConfig = DEFAULT_FD,
) -> TangentVector:
    """R_P(X) = sum_i R(e_i, P(e_i)) X over a g-orthonormal basis.

    ``P`` is the endomorphism value (matrix) at the base point of X.
    """
    p = X.base
    if orthonormality_defect(M, p, onb) > cfg.tol_exact * 100:
        raise ValueError("basis is not g-orthonormal at the base point")
    R = curvature_tensor(M, p, cfg)
    out = np.zeros(M.dim)
    for e in onb:
        out += np.einsum("ijkl,i,j,k->l", R, e.components, P @ e.components, X.components)
    return TangentVector(p, out)


# ---------------------------------------------------------------------------
# frames and endomorphism inner product
# ---------------------------------------------------------------------------

def gram_schmidt(M: ChartManifold, p: Array, seed_basis: Sequence[Array]) -> list[TangentVector]:
    """g-orthonormalize a linearly independent list of vectors at p.

    Deterministic given the input order; raises on a degenerate seed.
    """
    p = _check_domain(M, p)
    g = metric_eval(M, p)
    out: list[Array] = []
    scale = 0.0
    for v in seed_basis:
        w = np.asarray(v, dtype=float).copy()
        scale = max(scale, float(np.linalg.norm(w)))
        for e in out:
            w = w - (e @ g @ w) * e
        n2 = float(w @ g @ w)
        if n2 <= (1e-12 * max(scale, 1.0)) ** 2:
            raise ValueError("gram_schmidt: seed basis is degenerate")
        out.append(w / np.sqrt(n2))
    return [TangentVector(p, e) for e in out]


def orthonormal_basis(M: ChartManifold, p: Array) -> list[TangentVector]:
    """Reference g-orthonormal basis at p (exact frame field if available)."""
    if M.orthonormal_frame is not None:
        E = np.asarray(M.orthonormal_frame(p), dtype=float)
        return [TangentVector(p, E[:, i]) for i in range(M.dim)]
    return gram_schmidt(M, p, list(np.eye(M.dim)))


def reference_frame(M: ChartManifold, p: Array) -> Array:
    """Reference orthonormal frame as a matrix of column vectors."""
    if M.orthonormal_frame is not None:
        return np.asarray(M.orthonormal_frame(p), dtype=float)
    return np.column_stack([e.components for e in orthonormal_basis(M, p)])


def orthonormality_defect(M: ChartManifold, p: Array, basis: Sequence[TangentVector]) -> float:
    g = metric_eval(M, p)
    E = np.column_stack([e.components for e in basis])
    return float(np.max(np.abs(E.T @ g @ E - np.eye(len(basis)))))


def endo_inner(
    M: ChartManifold,
    p: Array,
    P: Array,
    Q: Array,
    onb: Sequence[TangentVector],
) -> float:
    """<P | Q> = sum_i g(P e_i, Q e_i) over a g-orthonormal basis.

    Basis-independent (equals tr(P^T g Q g^{-1})), which the property suite
    checks by feeding two different orthonormal bases.
    """
    g = metric_eval(M, p)
    total = 0.0
    for e in onb:
        total += float((P @ e.components) @ g @ (Q @ e.components))
    return total


def skew_defect(M: ChartManifold, p: Array, P: Array) -> float:
    """How far the endomorphism value P is from being g-skew at p."""
    g = metric_eval(M, p)
    A = g @ P
    return float(np.max(np.abs(A + A.T)))

