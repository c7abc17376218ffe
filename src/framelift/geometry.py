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
    """

    dim: int
    metric_field: Callable[[Array], Array]
    metric_derivative: Optional[Callable[[Array], Array]] = None
    domain_predicate: Callable[[Array], bool] = _always
    domain_sampler: Optional[Callable[[int, int], Array]] = None
    orthonormal_frame: Optional[Callable[[Array], Array]] = None
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


def covariant_derivatives(
    M: ChartManifold,
    pairs: Sequence[tuple[VectorField, VectorField]],
    p: Array,
    cfg: FDConfig = DEFAULT_FD,
    step: Optional[float] = None,
) -> list[TangentVector]:
    """(nabla_X Y)(p) for the Levi-Civita connection, one per (X, Y) pair.

    The Christoffel symbols at p are evaluated once and contracted for
    every pair, and each distinct field (by identity of its ``eval``) is
    evaluated at p once.  ``step`` overrides the difference step for the
    field derivative, for fields that are themselves finite-difference
    results.
    """
    p = _check_domain(M, p)
    h = cfg.step_h if step is None else step
    gamma = christoffel(M, p, cfg)
    at_p: dict[int, Array] = {}  # this call's field values at p, keyed by id(field.eval)
    out = []
    for X, Y in pairs:
        for F in (X, Y):
            if id(F.eval) not in at_p:
                at_p[id(F.eval)] = np.asarray(F.eval(p), dtype=float)
        x, y = at_p[id(X.eval)], at_p[id(Y.eval)]
        dY = field_derivative(Y, p, x, h)
        out.append(TangentVector(p, dY + np.einsum("kij,i,j->k", gamma, x, y)))
    return out


def covariant_derivative(M: ChartManifold, X: VectorField, Y: VectorField, p: Array,
                         cfg: FDConfig = DEFAULT_FD, step: Optional[float] = None) -> TangentVector:
    """(nabla_X Y)(p): the one-pair case of ``covariant_derivatives``."""
    return covariant_derivatives(M, [(X, Y)], p, cfg, step)[0]


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
    p: Array,
    P: Array,
    onb: Sequence[TangentVector],
    cfg: FDConfig = DEFAULT_FD,
) -> Array:
    """R_P = sum_i R(e_i, P(e_i)) over a g-orthonormal basis, as an endomorphism value at p.

    ``P`` is the endomorphism value (matrix) at p.
    """
    if orthonormality_defect(M, p, onb) > cfg.tol_exact * 100:
        raise ValueError("basis is not g-orthonormal at the base point")
    R = curvature_tensor(M, p, cfg)
    out = np.zeros((M.dim, M.dim))
    for e in onb:
        out += np.einsum("ijkl,i,j->lk", R, e.components, P @ e.components)
    return out


# ---------------------------------------------------------------------------
# frames and endomorphism inner product
# ---------------------------------------------------------------------------

def column_gram(g: Array, A: Array, B: Optional[Array] = None) -> Array:
    """G[a, b] = sum_i g(A_a[:, i], B_b[:, i]) for stacks A, B (default A) of n x m matrices.

    Pairs matrices column by column under g: <P | Q> over a frame E is A = P E,
    B = Q E; the vertical part of the Mok (m = n) and Sasaki-Mok (m = 1) metrics.
    """
    return np.einsum("aki,kl,bli->ab", A, g, A if B is None else B)


def orthonormalizer(B: Array) -> Array:
    """Lower-triangular C with C B C^T = I, for the Gram matrix B of a list.

    C = L^-1 for the Cholesky factor B = L L^T: row a of C combines the first
    a + 1 entries into the a-th Gram-Schmidt vector, and diag(L)^2 holds each
    entry's squared residual against the ones before it (Golub & Van Loan,
    *Matrix Computations*, sections 4.2 and 5.2).  Raises ValueError on a
    degenerate list: a residual at most 1e-6 of its entry's norm, below what
    the factor resolves.
    """
    try:
        L = np.linalg.cholesky(B)
    except np.linalg.LinAlgError:
        raise ValueError("degenerate list: its Gram matrix is not positive definite") from None
    d = L.diagonal()
    if (d * d <= 1e-12 * B.diagonal()).any():
        raise ValueError("degenerate list: an entry lies in the span of the ones before it")
    return np.linalg.inv(L) * np.tri(len(L))  # inv leaves roundoff above the diagonal


def gram_schmidt(M: ChartManifold, p: Array, seed_basis: Sequence[Array]) -> list[TangentVector]:
    """g-orthonormalize a linearly independent list of vectors at p.

    Deterministic given the input order; raises ValueError on a degenerate
    seed (see ``orthonormalizer``).
    """
    p = _check_domain(M, p)
    V = np.array(seed_basis, dtype=float)
    return [TangentVector(p, e) for e in orthonormalizer(V @ metric_eval(M, p) @ V.T) @ V]


def orthonormal_basis(M: ChartManifold, p: Array) -> list[TangentVector]:
    """Reference g-orthonormal basis at p: the columns of ``reference_frame``."""
    E = reference_frame(M, p)
    return [TangentVector(p, E[:, i]) for i in range(M.dim)]


def reference_frame(M: ChartManifold, p: Array) -> Array:
    """Reference orthonormal frame as a matrix of column vectors (exact frame
    field if available, else the coordinate basis orthonormalised)."""
    if M.orthonormal_frame is not None:
        return np.asarray(M.orthonormal_frame(p), dtype=float)
    return orthonormalizer(metric_eval(M, p)).T


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
    E = np.column_stack([e.components for e in onb])
    return float(column_gram(metric_eval(M, p), [P @ E], [Q @ E])[0, 0])


def skew_defect(M: ChartManifold, p: Array, P: Array) -> float:
    """How far the endomorphism value P is from being g-skew at p."""
    g = metric_eval(M, p)
    A = g @ P
    return float(np.max(np.abs(A + A.T)))

