"""Chart-level Riemannian calculus.

A manifold is represented by a single coordinate chart carrying a metric
field.  Points are coordinate vectors and may carry leading axes
(..., dim): the metric, its derivative, the Christoffel symbols, the
reference frame, the orthonormaliser and every vector and endomorphism
field are then evaluated for the whole stack in one call, with the value
axes after the point axes.  A finite-difference stencil is such a stack,
so ``central_diff`` evaluates all 2 dim points of a derivative, and
``directional_diff`` a field along all its m directions, in one call.
One point (dim,) runs the same code as a stack, and so do the
connection, curvature and Lie brackets, from the chart's exact metric
derivative and second-order central differences of the symbols and fields.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, ClassVar, Optional, Sequence

import numpy as np

Array = np.ndarray


class DomainError(ValueError):
    """A point, or a finite-difference stencil around it, leaves the chart."""


@dataclass(frozen=True)
class FDConfig:
    """Finite-difference steps and graded residual tolerances.

    ``step_h`` differentiates analytic inputs; ``step_h2`` differentiates
    quantities that are themselves finite-difference results (one more
    level of noise).  The constants ``tol_exact``/``tol_fd1``/``tol_fd2`` grade
    checks by how many difference levels feed them.
    """

    step_h: float = 1e-5
    step_h2: float = 1e-4
    tol_exact: ClassVar[float] = 1e-10
    tol_fd1: ClassVar[float] = 1e-6
    tol_fd2: ClassVar[float] = 5e-4

    def __post_init__(self):
        if not (0.0 < self.step_h < np.inf and 0.0 < self.step_h2 < np.inf):  # also rejects NaN
            raise ValueError("finite-difference steps must be positive and finite")
        if self.step_h2 < self.step_h:
            raise ValueError("step_h2 must be >= step_h")


DEFAULT_FD = FDConfig()


def _always(_p: Array) -> bool:
    return True


@dataclass(frozen=True)
class ChartManifold:
    """A coordinate chart with a Riemannian metric field.

    The four point fields take points with leading axes, p of shape
    (..., dim), and return their value per point with the same leading
    axes: the finite-difference kernels call them once on a whole stencil.
    A stack's rows equal row-by-row calls bit for bit.

    Parameters
    ----------
    dim : int
        Chart dimension.
    metric_field : callable
        Points (..., dim) -> symmetric positive-definite g_ij, (..., dim, dim).
    metric_derivative : callable
        Points -> D[..., k, i, j] = d_k g_ij, (..., dim, dim, dim).
    orthonormal_frame : callable
        Reference orthonormal frame field, points -> (..., dim, dim)
        matrices whose columns are g-orthonormal.
    domain_predicate : callable
        Points -> bool per point, shape (...), True on the chart domain.
    domain_sampler : callable, optional
        (seed, count) -> (count, dim) array of interior points.
    """

    dim: int
    metric_field: Callable[[Array], Array]
    metric_derivative: Callable[[Array], Array]
    orthonormal_frame: Callable[[Array], Array]
    domain_predicate: Callable[[Array], bool] = _always
    domain_sampler: Optional[Callable[[int, int], Array]] = None
    name: str = ""

    def contains(self, p: Array) -> bool:
        """True when every point of p (..., dim) lies on the chart domain."""
        inside = self.domain_predicate(np.asarray(p, dtype=float))
        return bool(inside.all() if isinstance(inside, np.ndarray) else inside)


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
    """A vector field given by its component function, with optional exact Jacobian
    J[..., i, j] = d_j X^i.  Both take points (..., n), as a ``ChartManifold``'s
    fields do; a stack's rows equal row-by-row calls bit for bit."""

    eval: Callable[[Array], Array]
    jacobian: Optional[Callable[[Array], Array]] = None

    def at(self, p: Array) -> TangentVector:
        return TangentVector(p, self.eval(p))


@dataclass(frozen=True)
class EndomorphismField:
    """A field of endomorphisms (mixed (1,1) tensors), (..., n) -> (..., n, n) as for ``VectorField``."""

    eval: Callable[[Array], Array]


def _stack(p: Array, value: Array) -> Array:
    """A fresh copy of the constant ``value`` for each point of p (..., dim)."""
    return np.zeros(p.shape[:-1] + value.shape) + value


def coordinate_field(i: int, dim: int) -> VectorField:
    return constant_field(np.eye(dim)[i])


def constant_field(v: Array) -> VectorField:
    """The field with components v at every point, for points with leading axes too.  Values
    v (N, dim) give a field per point, as in ``fields``: row i of points (..., N, dim) takes v[i]."""
    v = np.asarray(v, dtype=float)
    return VectorField(eval=lambda p: np.zeros(p.shape) + v,
                       jacobian=lambda p: np.zeros(p.shape + v.shape[-1:]))


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------

def _stencil(p: Array, h: float) -> Array:
    """The points p +- h e_k of central differences at points p (..., dim): (2, ..., dim, dim)."""
    step = h * np.eye(p.shape[-1])
    p = p[..., None, :]
    return np.stack([p + step, p - step])


def central_diff(f: Callable[[Array], Array], p: Array, h: float) -> Array:
    """Central differences d_k f at points p (..., dim), shape (..., dim) + f's value shape.

    f is called once, on the whole stencil (``_stencil``), so it must take
    points with leading axes.
    """
    fs = _on_stencil(f, _stencil(np.asarray(p, dtype=float), h))
    return (fs[0] - fs[1]) / (2.0 * h)


def _on_stencil(f: Callable[[Array], Array], pts: Array) -> Array:
    """f at the stencil points pts (2, ..., dim); raises unless its value keeps their axes."""
    fs = np.asarray(f(pts))
    if fs.shape[: pts.ndim - 1] != pts.shape[:-1]:
        raise ValueError(f"f gave {fs.shape} on points {pts.shape}: it must take leading axes")
    return fs


def directional_diff(f: Callable[[Array], Array], p: Array, v: Array, h: float) -> Array:
    """Derivative of f at p along each direction of v (..., dim), linear in v.

    Each direction is normalised to a step of length h and its difference
    rescaled by its norm; a zero direction gives zeros.  f is called once,
    on the stencil (2, ..., dim) of every direction, so it must take points
    with leading axes.  The result has v's leading axes followed by f's
    value shape.
    """
    pts, norm = _directional_stencil(np.asarray(p, dtype=float), np.asarray(v, dtype=float), h)
    return _difference(_on_stencil(f, pts), norm, h)


def _directional_stencil(p: Array, v: Array, h: float) -> tuple[Array, Array]:
    """The points p +- h v/|v| (2, ..., dim) of ``directional_diff`` and the norms |v|
    (...); a zero direction steps nowhere.  A unit e_k gives ``_stencil``'s points."""
    norm = np.sqrt(_norm2(v))
    hu = h * (v / np.where(norm > 0.0, norm, 1.0)[..., None])
    return p + np.array([hu, -hu]), norm


def _difference(fs: Array, norm: Array, h: float) -> Array:
    """|v| (f(p + h v/|v|) - f(p - h v/|v|)) / 2h from the values fs (2, ...) of f on
    ``_directional_stencil``'s points; for |v| = 1 the quotient of ``central_diff``."""
    norm = norm.reshape(norm.shape + (1,) * (fs.ndim - 1 - norm.ndim))
    return norm * (fs[0] - fs[1]) / (2.0 * h)


def _norm2(p: Array) -> Array:
    """|p|^2 for each vector of p (..., dim), rounded as the dot product p @ p."""
    return (p[..., None, :] @ p[..., :, None])[..., 0, 0]


def _pairing_at(g: Array, y: Array, z: Array) -> Array:
    """y @ g @ z for vectors y, z and metrics g with the same leading axes."""
    return (y[..., None, :] @ g @ z[..., :, None])[..., 0, 0]


def _g_norm(g: Array, v: Array) -> Array:
    """sqrt(max(v g v, 0)) for vectors v (..., n) and metrics g broadcasting with them."""
    return np.sqrt(np.maximum(_pairing_at(g, v, v), 0.0))


def _check_domain(M: ChartManifold, p: Array) -> Array:
    p = np.asarray(p, dtype=float)
    if p.shape[-1:] != (M.dim,):
        raise ValueError(f"point has shape {p.shape}, expected (..., {M.dim})")
    if not M.contains(p):
        raise DomainError(f"{_first_outside(p, M.domain_predicate(p))} outside chart domain of "
                          f"{M.name or 'manifold'}")
    return p


def _check_stencil(M: ChartManifold, p: Array, h: float) -> None:
    """One domain check of the whole central-difference stencil at points p."""
    p = np.asarray(p, dtype=float)
    stencil = _stencil(p, h)
    inside = np.asarray(M.domain_predicate(stencil))
    if not inside.all():  # one predicate call, whose values also name the point
        raise DomainError("finite-difference stencil leaves chart domain at " + _first_outside(
            p, np.broadcast_to(inside, stencil.shape[:-1]).all(axis=(0, -1))))


def _first_outside(p: Array, inside: Array) -> str:
    """The first point of p (..., dim) not ``inside`` (...), with its index in a stack."""
    i = np.argwhere(~np.broadcast_to(inside, p.shape[:-1]))[0]
    return f"point {p[tuple(i)]}" + (f" (index {', '.join(map(str, i))})" if len(i) else "")


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
    """Metric components g_ij at points p (..., dim), symmetric positive definite."""
    p = _check_domain(M, p)
    return np.asarray(M.metric_field(p), dtype=float)


def metric_derivative_eval(M: ChartManifold, p: Array) -> Array:
    """d_k g_ij at points p, [..., k, i, j], from the chart's ``metric_derivative``."""
    return np.asarray(M.metric_derivative(p), dtype=float)


def norm(M: ChartManifold, p: Array, x: Array) -> float:
    return float(_g_norm(metric_eval(M, p), x))


def christoffel(M: ChartManifold, p: Array) -> Array:
    """Levi-Civita Christoffel symbols at points p (..., dim), G[..., k, i, j] = Gamma^k_ij.

    Symmetric in (i, j) by construction.
    """
    p = np.asarray(p, dtype=float)
    return _christoffel_from(metric_eval(M, p), metric_derivative_eval(M, p))


def _christoffel_from(g: Array, dg: Array) -> Array:
    """Gamma^k_ij = 1/2 g^{km} (d_i g_mj + d_j g_mi - d_m g_ij) from the metric g (..., n, n)
    and its derivatives dg[..., k, i, j] = d_k g_ij: the one formula behind ``christoffel``
    and ``frames.gauss_projection``."""
    d_i = dg.swapaxes(-3, -2)  # [m, i, j] = d_i g_mj
    bracket = d_i + d_i.swapaxes(-2, -1) - dg
    return 0.5 * np.einsum("...km,...mij->...kij", np.linalg.inv(g), bracket)


def christoffel_contract(gamma: Array, x: Array) -> Array:
    """Matrix (Gamma_x)^k_j = Gamma^k_ij x^i, acting on tangent components; one
    per vector of x (..., dim), for symbols at one point or per point (..., dim, dim, dim)."""
    return np.einsum("...kij,...i->...kj", gamma, x)


def christoffel_derivative(M: ChartManifold, p: Array, cfg: FDConfig = DEFAULT_FD) -> Array:
    """d_m Gamma^k_ij by central differences at step_h, D[..., m, k, i, j] at points
    p (..., dim): one ``christoffel`` call on the whole stencil."""
    _check_stencil(M, p, cfg.step_h)
    return central_diff(lambda q: christoffel(M, q), p, cfg.step_h)


def field_derivative(X: VectorField, p: Array, v: Array, h: float) -> Array:
    """Derivative of the components of X along each direction of v (..., dim): one
    Jacobian, or one difference stencil of X over every direction."""
    if X.jacobian is not None:
        return (np.asarray(X.jacobian(p), dtype=float) @ np.asarray(v, dtype=float)[..., None])[..., 0]
    return directional_diff(X.eval, p, v, h)


def _field_differences(needs: Sequence[tuple[VectorField, VectorField]], p: Array,
                       h: float) -> tuple[dict, dict]:
    """For (X, Y) pairs of fields, Y to be differenced along X: the value at p of each
    distinct field (by identity of its ``eval``), by id(eval), and each dY(x), by
    (id(Y.eval), id(X.eval)).  Each field is evaluated at p once, and each Y is
    differenced once, along the distinct X of all its pairs at every point."""
    at_p = {id(F.eval): F for pair in needs for F in pair}
    at_p = {key: np.asarray(F.eval(p), dtype=float) for key, F in at_p.items()}
    d: dict[tuple[int, int], Array] = {}
    for Y in {id(Y.eval): Y for _, Y in needs}.values():
        along = list(dict.fromkeys(id(X.eval) for X, Yi in needs if Yi.eval is Y.eval))
        d.update(zip([(id(Y.eval), key) for key in along],
                     field_derivative(Y, p, np.array([at_p[key] for key in along]), h)))
    return at_p, d


def covariant_derivatives(
    M: ChartManifold,
    pairs: Sequence[tuple[VectorField, VectorField]],
    p: Array,
    cfg: FDConfig = DEFAULT_FD,
) -> list[TangentVector]:
    """(nabla_X Y)(p) = dY(x) + Gamma(x, y) for the Levi-Civita connection, one per
    (X, Y) pair, at points p (..., dim).

    The Christoffel symbols at p are evaluated once and contracted for
    every pair, and ``_field_differences`` evaluates each distinct field at
    p once and differences each distinct Y once, along the X of all its pairs.
    """
    p = _check_domain(M, p)
    gamma = christoffel(M, p)
    at_p, dY = _field_differences(pairs, p, cfg.step_h)
    return [TangentVector(p, dY[id(Y.eval), id(X.eval)] + np.einsum(
        "...kij,...i,...j->...k", gamma, at_p[id(X.eval)], at_p[id(Y.eval)])) for X, Y in pairs]


def covariant_derivative(M: ChartManifold, X: VectorField, Y: VectorField, p: Array,
                         cfg: FDConfig = DEFAULT_FD) -> TangentVector:
    """(nabla_X Y)(p): the one-pair case of ``covariant_derivatives``."""
    return covariant_derivatives(M, [(X, Y)], p, cfg)[0]


def lie_brackets(
    pairs: Sequence[tuple[VectorField, VectorField]],
    p: Array,
    cfg: FDConfig = DEFAULT_FD,
) -> list[TangentVector]:
    """[X, Y](p) = dY(x) - dX(y), one per (X, Y) pair, by central differences of the
    components: ``_field_differences`` evaluates each distinct field at p once and
    differences it once, along every field it is paired with."""
    p = np.asarray(p, dtype=float)
    _, d = _field_differences([need for X, Y in pairs for need in ((X, Y), (Y, X))], p, cfg.step_h)
    return [TangentVector(p, d[id(Y.eval), id(X.eval)] - d[id(X.eval), id(Y.eval)]) for X, Y in pairs]


def lie_bracket(X: VectorField, Y: VectorField, p: Array, cfg: FDConfig = DEFAULT_FD) -> TangentVector:
    """[X, Y](p): the one-pair case of ``lie_brackets``."""
    return lie_brackets([(X, Y)], p, cfg)[0]


def curvature_tensor(M: ChartManifold, p: Array, cfg: FDConfig = DEFAULT_FD) -> Array:
    """Curvature R[..., i, j, k, l] = (R(d_i, d_j) d_k)^l for R(X,Y) = [nabla_X, nabla_Y] - nabla_[X,Y],
    at points p (..., dim).

    Assembled tensorially from Gamma and its central differences; no field
    extensions are involved.
    """
    return connection_curvature(christoffel(M, p), christoffel_derivative(M, p, cfg))


def connection_curvature(G: Array, dG: Array) -> Array:
    """Curvature R[i, j, k, l] of the connection with coefficients G[k, i, j] =
    (nabla_{d_i} d_j)^k and their derivatives dG[m, k, i, j] = d_m G^k_ij, with or
    without torsion: the Levi-Civita curvature from Gamma, the adapted one from GD.
    Both may carry the leading axes of points; so does R."""
    term_a = dG.swapaxes(-3, -2).swapaxes(-2, -1)    # A[i,j,k,l] = d_i G^l_jk
    term_b = term_a.swapaxes(-4, -3)                 # d_j G^l_ik
    quad_a = np.einsum("...lim,...mjk->...ijkl", G, G)  # G^l_im G^m_jk
    quad_b = quad_a.swapaxes(-4, -3)
    return term_a - term_b + quad_a - quad_b


def curvature_R_P(
    g: Array,
    P: Array,
    onb: Sequence[TangentVector],
    R: Array,
    cfg: FDConfig = DEFAULT_FD,
) -> Array:
    """R_P = sum_i R(e_i, P(e_i)) over a g-orthonormal basis at p, an endomorphism value there.

    ``P`` is the endomorphism value (matrix) at p, or a stack (..., n, n) of
    them, all served by the caller's metric g and ``R = curvature_tensor(M, p)``
    at p.  At points p (..., n) the basis, g, R and P carry the same leading axes.
    """
    if orthonormality_defect(g, onb) > cfg.tol_exact * 100:
        raise ValueError("basis is not g-orthonormal at the base point")
    P = np.asarray(P, dtype=float)
    out = np.zeros(P.shape)
    for e in onb:
        Pe = (P @ e.components[..., None])[..., 0]
        out += np.einsum("...ijkl,...i,...j->...lk", R, e.components, Pe)
    return out


# ---------------------------------------------------------------------------
# frames and endomorphism inner product
# ---------------------------------------------------------------------------

def column_gram(g: Array, A: Array, B: Optional[Array] = None) -> Array:
    """G[a, b] = sum_i g(A_a[:, i], B_b[:, i]) for stacks A, B (default A) of n x m matrices.

    Pairs matrices column by column under g: <P | Q> over a frame E is A = P E,
    B = Q E; the vertical part of the Mok (m = n) and Sasaki-Mok (m = 1) metrics.
    Leading axes of g (..., n, n), A (..., a, n, m) and B broadcast.  Contracted as
    g B, then one matmul of the flattened stacks.
    """
    A = np.asarray(A)
    gB = g[..., None, :, :] @ (A if B is None else B)
    return A.reshape(A.shape[:-2] + (-1,)) @ gB.reshape(gB.shape[:-2] + (-1,)).swapaxes(-1, -2)


def orthonormalizer(B: Array) -> Array:
    """Lower-triangular C with C B C^T = I, for the Gram matrix B of a list
    (or for each of a stack of them, B of shape (..., m, m)).

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
    d = np.diagonal(L, axis1=-2, axis2=-1)
    if (d * d <= 1e-12 * np.diagonal(B, axis1=-2, axis2=-1)).any():
        raise ValueError("degenerate list: an entry lies in the span of the ones before it")
    return np.linalg.inv(L) * np.tri(L.shape[-1])  # inv leaves roundoff above the diagonal


def gram_schmidt(M: ChartManifold, p: Array, seed_basis: Sequence[Array]) -> list[TangentVector]:
    """g-orthonormalize a linearly independent list of vectors at p.

    Deterministic given the input order; raises ValueError on a degenerate
    seed (see ``orthonormalizer``).
    """
    p = _check_domain(M, p)
    V = np.array(seed_basis, dtype=float)
    return [TangentVector(p, e) for e in orthonormalizer(V @ metric_eval(M, p) @ V.T) @ V]


def orthonormal_basis(M: ChartManifold, p: Array) -> list[TangentVector]:
    """Reference g-orthonormal basis at points p (..., dim): the columns of ``reference_frame``."""
    E = reference_frame(M, p)
    return [TangentVector(p, E[..., :, i]) for i in range(M.dim)]


def reference_frame(M: ChartManifold, p: Array) -> Array:
    """Reference orthonormal frame at points p (..., dim) as matrices of column vectors,
    from the chart's ``orthonormal_frame``."""
    return np.asarray(M.orthonormal_frame(p), dtype=float)


def orthonormality_defect(g: Array, basis: Sequence[TangentVector]) -> float:
    """max |E^T g E - I| over the basis columns E, g the metric at their points: the worst of a stack."""
    E = np.stack([e.components for e in basis], axis=-1)
    return float(np.max(np.abs(E.swapaxes(-1, -2) @ g @ E - np.eye(len(basis)))))


def endo_inner(
    M: ChartManifold,
    p: Array,
    P: Array,
    Q: Array,
    onb: Sequence[TangentVector],
) -> Array:
    """<P | Q> = sum_i g(P e_i, Q e_i) over a g-orthonormal basis, at points p (..., n)
    with a basis per point; P and Q (..., n, n) broadcast with the points.

    Basis-independent (equals tr(P^T g Q g^{-1})), which the property suite
    checks by feeding two different orthonormal bases.
    """
    E = np.stack([e.components for e in onb], axis=-1)
    return column_gram(metric_eval(M, p), (P @ E)[..., None, :, :], (Q @ E)[..., None, :, :])[..., 0, 0]


def skew_defect(M: ChartManifold, p: Array, P: Array) -> Array:
    """How far the endomorphism value P is from being g-skew at p: one value per
    point of a stack p (..., n) with values P (..., n, n)."""
    A = metric_eval(M, p) @ P
    return np.max(np.abs(A + A.swapaxes(-1, -2)), axis=(-2, -1))

