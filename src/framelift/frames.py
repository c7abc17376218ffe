"""Frame bundles over a chart: Mok metric, lifts, and total-space oracles.

The full frame bundle L(M) is charted as (x, E) with E the invertible
matrix of frame columns.  A brute-force Levi-Civita oracle on its induced
total-space metric audits every closed-form connection and bracket identity
used elsewhere, and on O(M) and O(D) its Mok-orthogonal tangential part
(``gauss_projection``) does.  ``FrameChart`` charts O(M) near a reference
orthonormal frame field as (x, a), u = E_ref(x) exp(A(a)) for a skew matrix
A.  The tangent bundle TM is the bundle of one-column frames: its point
(x, Z) is the frame of the column Z, and the horizontal lift and the Mok
metric here are its horizontal lift and Sasaki-Mok metric (``framelift.tangent``).

A field on the total space is a frame field, a function Frame ->
FrameTangent that takes stacks of frames, as the horizontal lift, the
fundamental vertical and the adapted horizontal lift are.  The oracle and
the finite-difference bracket read each as its chart field
q -> field_to_chart(q, F), run ``geometry``'s ``covariant_derivatives`` and
``lie_brackets`` on the total space at encode(u) and answer at the frames u
themselves.  The pairing and the lifts read the caller's g and Gamma.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .geometry import (
    Array,
    ChartManifold,
    DEFAULT_FD,
    EndomorphismField,
    FDConfig,
    TangentVector,
    VectorField,
    _check_stencil,
    central_diff,
    christoffel,
    christoffel_contract,
    column_gram,
    covariant_derivatives,
    curvature_R_P,
    directional_diff,
    lie_bracket,
    lie_brackets,
    metric_derivative_eval,
    metric_eval,
    orthonormal_basis,
    orthonormalizer,
    reference_frame,
)

scipy = None  # no code here calls SciPy; perfbench/tracer.py patches this name


@dataclass(frozen=True)
class Frame:
    """m vectors of the tangent space at ``base``: column i of ``columns`` is u_i.

    The columns are n x m for any m >= 1: m = n on L(M), O(M) and O(D), and
    m = 1 on the tangent bundle, whose point (x, Z) is ``Frame(x, Z[..., None])``.
    A stack of frames has base (..., n) and columns (..., n, m), as a chart
    Jacobian over points with leading axes (``FrameChart.jacobian``) or
    ``adapted_frame`` at a stack of points gives.  Every function of a frame
    takes a stack under the contract the metrics and fields keep: a stack's
    rows equal row-by-row calls, and a function that checks its frame
    raises if any frame of the stack fails.  ``u[i]`` is the i-th frame.
    """

    base: Array
    columns: Array

    def __post_init__(self):
        object.__setattr__(self, "base", np.asarray(self.base, dtype=float))
        object.__setattr__(self, "columns", np.asarray(self.columns, dtype=float))
        if self.base.ndim == 0 or self.columns.shape[:-1] != self.base.shape or not self.columns.shape[-1]:
            raise ValueError("frame columns must have one row per chart dimension")

    def vector(self, i: int) -> Array:
        return self.columns[..., :, i]

    def __getitem__(self, i) -> "Frame":
        return Frame(self.base[i], self.columns[i])


@dataclass(frozen=True)
class FrameTangent:
    """Tangent vector to the frame-bundle total space at ``at``.

    At a stack of frames the rates carry the same leading axes, one tangent
    per frame; ``t[i]`` is the tangent at ``at[i]``.
    """

    at: Frame
    base_rate: Array
    frame_rate: Array

    def __post_init__(self):
        object.__setattr__(self, "base_rate", np.asarray(self.base_rate, dtype=float))
        object.__setattr__(self, "frame_rate", np.asarray(self.frame_rate, dtype=float))
        if self.base_rate.shape != self.at.base.shape:
            raise ValueError("base rate has wrong shape")
        if self.frame_rate.shape != self.at.columns.shape:
            raise ValueError("frame rate has wrong shape")

    def __add__(self, other: "FrameTangent") -> "FrameTangent":
        _same_frame(self.at, other.at)
        return FrameTangent(self.at, self.base_rate + other.base_rate,
                            self.frame_rate + other.frame_rate)

    def __sub__(self, other: "FrameTangent") -> "FrameTangent":
        _same_frame(self.at, other.at)
        return FrameTangent(self.at, self.base_rate - other.base_rate,
                            self.frame_rate - other.frame_rate)

    def __mul__(self, c: float) -> "FrameTangent":
        return FrameTangent(self.at, c * self.base_rate, c * self.frame_rate)

    __rmul__ = __mul__

    def __getitem__(self, i) -> "FrameTangent":
        return FrameTangent(self.at[i], self.base_rate[i], self.frame_rate[i])

    @staticmethod
    def stack(ts: Sequence["FrameTangent"]) -> "FrameTangent":
        """The tangents ts as one tangent at the stack of their frames, along a new first axis."""
        return FrameTangent(Frame(np.stack([t.at.base for t in ts]), np.stack([t.at.columns for t in ts])),
                            np.stack([t.base_rate for t in ts]), np.stack([t.frame_rate for t in ts]))


def frame_diff(f: Callable, t: FrameTangent, h: float):
    """(f(u + h t) - f(u - h t)) / 2h, the step h t unnormalised, for each array f(x, E)
    gives: one, a tuple, or a Frame's base and columns.  f is called once, on the
    stencil (2, ...) of both ends."""
    u = t.at
    s = np.array([h, -h]).reshape((2,) + (1,) * u.base.ndim)
    fs = f(u.base + s * t.base_rate, u.columns + s[..., None] * t.frame_rate)
    diff = lambda a: (a[0] - a[1]) / (2.0 * h)
    if isinstance(fs, np.ndarray):
        return diff(fs)
    return tuple(map(diff, (fs.base, fs.columns) if isinstance(fs, Frame) else fs))


def _same_frame(u: Frame, v: Frame) -> None:
    if u is v:  # tangents from one chart_to_tangents call share its Frame
        return
    if np.max(np.abs(u.base - v.base)) > 1e-9 or np.max(np.abs(u.columns - v.columns)) > 1e-9:
        raise ValueError("frame tangents are attached to different frames")


# ---------------------------------------------------------------------------
# lifts, vertical vectors, Mok metric
# ---------------------------------------------------------------------------

def horizontal_lift_frame(gamma: Array, X: TangentVector, u: Frame) -> FrameTangent:
    """Horizontal lift of X at the frame u, or at a stack of them: parallel transport of the
    columns, from the Christoffel symbols ``gamma`` at u's base points."""
    if not np.array_equal(np.asarray(X.base, dtype=float), u.base):
        raise ValueError("vector and frame are based at different points")
    return FrameTangent(u, X.components.copy(), -christoffel_contract(gamma, X.components) @ u.columns)


def fundamental_vertical(P_value: Array, u: Frame) -> FrameTangent:
    """Vertical vector generated by the endomorphism value P at the frame u.

    Generated by the flow u -> u exp(t u^{-1} P u); in chart coordinates the
    frame rate is simply P E.  A stack of frames takes a stack of values.
    """
    P_value = np.asarray(P_value, dtype=float)
    return FrameTangent(u, np.zeros(u.base.shape), P_value @ u.columns)


def vertical_part(gamma: Array, t: FrameTangent) -> Array:
    """Endomorphism value V with t = horizontal lift of base_rate + V*, from the Christoffel
    symbols ``gamma`` at t's base points.

    The decomposition is exact: V = W E^{-1} for the vertical rate W.
    """
    return _vertical_rate(gamma, t.base_rate, t.at.columns, t.frame_rate) @ np.linalg.inv(t.at.columns)


def _vertical_rate(gamma: Array, xdot: Array, E: Array, Edot: Array) -> Array:
    """W = Edot + Gamma_xdot E of the tangent (xdot, Edot) at the frames E, zero on
    horizontal lifts, from the Christoffel symbols ``gamma`` at the frames' base points:
    V E for the vertical part V on square frames, and the connection map K as its one
    column on the tangent bundle."""
    return Edot + christoffel_contract(gamma, xdot) @ E


def mok_metric(g: Array, gamma: Array, s: FrameTangent, t: FrameTangent) -> Array:
    """Diagonal (Mok) metric on the frame bundle: a scalar at one frame, one value
    per frame, of the frames' leading shape, at a stack.

    Horizontal and vertical parts are orthogonal; two vertical rates pair as
    sum_i g(W_s u_i, W_t u_i) over the frame columns, which on one-column
    frames is the Sasaki-Mok metric g(pi_* s, pi_* t) + g(K s, K t) of TM.
    The off-diagonal entry of ``mok_gram`` of (s, t).
    """
    return mok_gram(g, gamma, [s, t])[..., 0, 1]


def mok_norm(g: Array, gamma: Array, t: FrameTangent) -> Array:
    """sqrt of the one entry of ``mok_gram`` of (t,): its vertical rate is evaluated once."""
    return np.sqrt(np.maximum(mok_gram(g, gamma, [t])[..., 0, 0], 0.0))


def _gram(g: Array, gamma: Array, E: Array, X: Array, Edot: Array) -> Array:
    """Gram matrix of tangents (X_a, Edot_a) to the bundle of n x m frames at (x, E), from the
    metric g and the Christoffel symbols gamma at the base points x.

    G = X g X^T + sum_i W g W^T over the m columns, W_a = Edot_a + Gamma(X_a) E
    the vertical rate (``_vertical_rate``): the Mok table for m = n, and for the
    one column E = Z the Sasaki-Mok table on TM.  Every argument may carry the
    leading axes of points x (..., n); so does G.
    """
    W = _vertical_rate(gamma[..., None, :, :, :], X, E[..., None, :, :], Edot)
    G = X @ g @ X.swapaxes(-1, -2) + column_gram(g, W)
    return 0.5 * (G + G.swapaxes(-1, -2))


def mok_gram(g: Array, gamma: Array, basis: Sequence[FrameTangent]) -> Array:
    """Mok Gram matrix of tangents attached to one frame (or to one stack of frames,
    (..., m, m)), in one pass (``_gram``), from the metric g and the Christoffel symbols
    gamma at the frames' base points; a stack of copies of those frames, as
    ``FrameTangent.stack`` builds, reads them by broadcasting.  Raises ValueError when
    the tangents are attached to different frames."""
    u = basis[0].at
    for t in basis[1:]:
        _same_frame(u, t.at)
    return _gram(g, gamma, u.columns, np.stack([t.base_rate for t in basis], axis=-2),
                 np.stack([t.frame_rate for t in basis], axis=-3))


def mok_orthonormalize(g: Array, gamma: Array, basis: Sequence[FrameTangent]) -> list[FrameTangent]:
    """Gram-Schmidt in the Mok metric, deterministic in the given order: one
    ``mok_gram`` and its ``orthonormalizer``, which raises on a degenerate input."""
    C = orthonormalizer(mok_gram(g, gamma, basis))
    X = np.stack([t.base_rate for t in basis], axis=-2)
    F = np.stack([t.frame_rate for t in basis], axis=-3)
    F = F.reshape(F.shape[:-2] + (-1,))
    # row a of C combines the tangents, one row at a time as for a single frame
    return [FrameTangent(basis[0].at, (c @ X)[..., 0, :],
                         (c @ F)[..., 0, :].reshape(basis[0].frame_rate.shape))
            for c in (C[..., a, None, :] for a in range(len(basis)))]


# ---------------------------------------------------------------------------
# skew parameterizations and bundle charts
# ---------------------------------------------------------------------------

def skew_basis(n: int) -> list[Array]:
    """Basis E_ij - E_ji of so(n), pairs (i, j) with i < j in lexicographic order."""
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            B = np.zeros((n, n))
            B[i, j] = 1.0
            B[j, i] = -1.0
            out.append(B)
    return out


def block_skew_basis(n: int, k: int) -> list[Array]:
    """Basis of so(k) + so(n-k) embedded block-diagonally in so(n): the ``skew_basis(n)``
    matrices that leave the mixed block B[:k, k:] zero."""
    return [B for B in skew_basis(n) if not B[:k, k:].any()]


def offdiag_skew_basis(n: int, k: int) -> list[Array]:
    """Basis of the complementary block: the ``skew_basis(n)`` matrices mixing the two blocks."""
    return [B for B in skew_basis(n) if B[:k, k:].any()]


def _exp_frechet_skew(A: Array, basis: Sequence[Array]) -> tuple[Array, Array]:
    """exp(A) and the Frechet derivatives L(A, B_j) of exp for a real skew A, from one eigh.

    A may be a stack (..., n, n); exp(A) is then (..., n, n) and the rows
    (..., len(basis), n, n).

    With 1j A = U diag(mu) U*, A = U diag(lam) U* for lam = -1j mu, and
    L(A, B) = U (F o U* B U) U* with F the divided differences of exp at the
    lam (Daleckii-Krein; Higham, *Functions of Matrices*, 2008, ch. 3).  The
    form F_kl = exp((lam_k + lam_l)/2) sinc((mu_k - mu_l)/2) is exact at
    repeated eigenvalues, where F_kk = exp(lam_k).  exp(A) takes the same
    operations whatever the basis, so it does not depend on it; an empty
    basis skips the Frechet rows.
    """
    mu, U = np.linalg.eigh(1j * A)
    Uh = U.conj().swapaxes(-1, -2)
    expA = ((U * np.exp(-1j * mu)[..., None, :]) @ Uh).real
    if len(basis) == 0:
        return expA, np.zeros(A.shape[:-2] + (0,) + A.shape[-2:])
    F = np.exp(-0.5j * (mu[..., :, None] + mu[..., None, :])) * np.sinc(
        (mu[..., :, None] - mu[..., None, :]) / (2.0 * np.pi))
    B = np.reshape(basis, (-1,) + A.shape[-2:])
    U, Uh, F = U[..., None, :, :], Uh[..., None, :, :], F[..., None, :, :]
    return expA, (U @ (F * (Uh @ B @ U)) @ Uh).real


def _log_rotation(R: Array) -> Array:
    """Principal log of a rotation R: with C = (I + R)^-1 (I - R), its Cayley transform,
    and 1j C = U diag(mu) U*, log R = U diag(2j arctan(mu)) U* (one solve and one eigh,
    the idiom of ``_exp_frechet_skew``).  A half-turn has no unique principal log: raises
    ValueError when I + R is singular or an eigenvalue angle is within 1e-8 of pi."""
    half_turn = "frame rotation has an eigenvalue angle at pi: no unique principal log"
    I = np.eye(R.shape[-1])
    try:
        C = np.linalg.solve(I + R, I - R)
    except np.linalg.LinAlgError:  # I + R singular
        raise ValueError(half_turn) from None
    mu, U = np.linalg.eigh(1j * C)
    theta = 2.0 * np.arctan(mu)
    if not np.abs(theta).max() <= np.pi - 1e-8:  # also rejects a NaN angle
        raise ValueError(half_turn)
    return -((U * theta[..., None, :]) @ U.conj().swapaxes(-1, -2)).imag  # Re(U diag(1j theta) U*)


class FrameChart:
    """Chart (x, a) on a subbundle of O(M): u = E_ref(x) exp(A(a)).

    ``basis`` spans the allowed skew directions and ``reference`` gives E_ref:
    all of so(n) and the manifold's frame for O(M), the block-diagonal
    subalgebra and the adapted frame for an adapted bundle.  Valid near a = 0.
    exp(A), its Frechet derivatives and the log in ``encode`` are closed
    forms for skew A, one Hermitian eigendecomposition each.  Two users are
    left: the ``om_chart_roundtrip`` row tests the chart, and
    ``submersion.lift_tension_direct`` differences the lift map on ``adapted_chart``.
    """

    def __init__(self, M: ChartManifold, basis: Sequence[Array], reference: Callable[[Array], Array],
                 name: str = "O(M)"):
        self.manifold = M
        self.basis = list(basis)
        self._reference = reference
        self.name = name
        self.dim = M.dim + len(self.basis)

    # -- coordinates ------------------------------------------------------

    def split(self, q: Array) -> tuple[Array, Array]:
        q = np.asarray(q, dtype=float)
        return q[..., : self.manifold.dim], q[..., self.manifold.dim :]

    def join(self, x: Array, a: Array) -> Array:
        return np.concatenate([np.asarray(x, dtype=float), np.asarray(a, dtype=float)], axis=-1)

    def skew_from_coords(self, a: Array) -> Array:
        n = self.manifold.dim
        return (a @ np.reshape(self.basis, (-1, n * n))).reshape(a.shape[:-1] + (n, n))

    def coords_from_skew(self, A: Array) -> Array:
        # the E_ij - E_ji basis is Frobenius-orthogonal with norm^2 = 2
        n = self.manifold.dim
        return A.reshape(A.shape[:-2] + (n * n,)) @ np.reshape(self.basis, (-1, n * n)).T / 2.0

    def reference(self, x: Array) -> Array:
        """Reference frame at base points x (..., n); the callable ``reference`` must take them too."""
        return np.asarray(self._reference(x), dtype=float)

    def reference_derivative(self, x: Array, cfg: FDConfig = DEFAULT_FD) -> Array:
        return central_diff(self.reference, x, cfg.step_h)

    # -- frames -----------------------------------------------------------

    def decode(self, q: Array) -> Frame:
        x, a = self.split(q)
        expA, _ = _exp_frechet_skew(self.skew_from_coords(a), ())
        return Frame(x, self.reference(x) @ expA)

    def encode(self, u: Frame) -> Array:
        """Chart coordinates of a frame; errors if u is not reachable.

        Requires u orthonormal for this chart and its rotation R from the
        reference frame within the span of the chart's skew directions, with
        every eigenvalue angle of R below pi - 1e-8 (a half-turn has no
        unique principal log).  The log comes from the Cayley transform of R.
        A stack of frames gives their points, and raises if any frame fails.
        """
        R = np.linalg.solve(self.reference(u.base), u.columns)
        if np.max(np.abs(R.swapaxes(-1, -2) @ R - np.eye(self.manifold.dim))) > 1e-6:
            raise ValueError("frame is not orthonormal for this chart")
        A = _log_rotation(R)
        a = self.coords_from_skew(A)
        if np.max(np.abs(self.skew_from_coords(a) - A)) > 1e-8:
            raise ValueError("frame rotation leaves the chart's skew directions")
        if np.max(np.abs(_exp_frechet_skew(A, ())[0] - R)) > 1e-6:
            raise ValueError("matrix log inconsistent with the frame rotation")
        return self.join(u.base, a)

    # -- the chart Jacobian -----------------------------------------------

    def jacobian(self, q: Array, cfg: FDConfig = DEFAULT_FD) -> tuple[Frame, Array, Array]:
        """decode(q) and J(q): the (xdot, Edot) images of the dim coordinate directions.

        Jx is dim x n, JE is dim x n x n.  The n base rows of JE are
        dE_ref exp(A); the skew rows are E_ref L(A, B_j), all of them and
        exp(A) from one eigendecomposition of A.  The reference frame and its
        derivative are computed once.  Points q (..., dim) give a stack of
        frames and JE (..., dim, n, n); Jx is the same at every point.
        """
        x, a = self.split(q)
        expA, frechet = _exp_frechet_skew(self.skew_from_coords(a), self.basis)
        ref = self.reference(x)
        JE = np.concatenate([self.reference_derivative(x, cfg) @ expA[..., None, :, :],
                             ref[..., None, :, :] @ frechet], axis=-3)
        return Frame(x, ref @ expA), np.eye(self.dim, x.shape[-1]), JE


class LMChart:
    """Global chart (x, vec(E)) on the full frame bundle L(M)."""

    def __init__(self, M: ChartManifold, name: str = "L(M)"):
        self.manifold = M
        self.name = name
        self.dim = M.dim + M.dim * M.dim

    def split(self, q: Array) -> tuple[Array, Array]:
        n = self.manifold.dim
        q = np.asarray(q, dtype=float)
        return q[..., :n], q[..., n:].reshape(q.shape[:-1] + (n, n))

    def join(self, x: Array, E: Array) -> Array:
        E = np.asarray(E, dtype=float)
        return np.concatenate([np.asarray(x, dtype=float), E.reshape(E.shape[:-2] + (-1,))], axis=-1)

    def decode(self, q: Array) -> Frame:
        x, E = self.split(q)
        return Frame(x, E)

    def encode(self, u: Frame) -> Array:
        return self.join(u.base, u.columns)

    def jacobian(self, q: Array, cfg: FDConfig = DEFAULT_FD) -> tuple[Frame, Array, Array]:
        """decode(q) and the constant J, the same at every point: the chart rates are
        (xdot, vec(Edot)) themselves, so Jx is dim x n and JE dim x n x n."""
        n = self.manifold.dim
        return self.decode(q), np.eye(self.dim, n), np.eye(self.dim)[:, n:].reshape(self.dim, n, n)

    def chart_to_tangents(self, q: Array, qdots: Array, cfg: FDConfig = DEFAULT_FD) -> list[FrameTangent]:
        """Frame tangents of the chart rates in the rows of ``qdots``, all at decode(q):
        each row split as (xdot, Edot)."""
        u = self.decode(q)
        return [FrameTangent(u, *self.split(qdot)) for qdot in np.asarray(qdots, dtype=float)]

    def chart_to_tangent(self, q: Array, qdot: Array, cfg: FDConfig = DEFAULT_FD) -> FrameTangent:
        return self.chart_to_tangents(q, np.asarray(qdot)[None], cfg)[0]

    def field_to_chart(self, q: Array, F: Callable[[Frame], FrameTangent], cfg: FDConfig = DEFAULT_FD) -> Array:
        """Chart rates of the frame field F at decode(q), the one frame F is handed:
        (xdot, vec(Edot)) themselves.  Raises if F's tangent is attached to another frame."""
        u = self.decode(q)
        t = F(u)
        _same_frame(u, t.at)
        return self.join(t.base_rate, t.frame_rate)


def om_chart(M: ChartManifold, name: str = "O(M)") -> FrameChart:
    return FrameChart(M, basis=skew_basis(M.dim), reference=lambda x: reference_frame(M, x), name=name)


# ---------------------------------------------------------------------------
# induced metric on the total space and the Levi-Civita oracle
# ---------------------------------------------------------------------------

def induced_metric_on_chart(chart, q: Array, cfg: FDConfig = DEFAULT_FD) -> Array:
    """Mok metric in the chart coordinates of the total space at points q (..., dim).

    The Mok Gram (``_gram``) of the coordinate directions, read straight from the
    chart Jacobian: row a of J is the tangent of direction a.
    """
    u, Jx, JE = chart.jacobian(q, cfg)
    M = chart.manifold
    return _gram(metric_eval(M, u.base), christoffel(M, u.base), u.columns, Jx, JE)


def total_space_manifold(chart, cfg: FDConfig = DEFAULT_FD) -> ChartManifold:
    """The frame-bundle total space as a ChartManifold with the induced metric, and the
    jets it has no closed form for, derived from that metric: ``metric_derivative`` is one
    stencil-domain check and the central differences of the metric at ``total_space_cfg``'s
    step, ``orthonormal_frame`` the coordinate basis orthonormalised in the metric."""
    base = chart.manifold
    h = total_space_cfg(cfg).step_h

    def predicate(q: Array) -> Array:
        x, fibre = chart.split(q)
        if isinstance(chart, LMChart):
            inside = abs(np.linalg.det(fibre)) > 1e-8
        else:
            inside = np.linalg.norm(fibre, axis=-1) < 2.0
        return base.domain_predicate(x) & inside

    def metric(q: Array) -> Array:
        return induced_metric_on_chart(chart, q, cfg)

    def metric_derivative(q: Array) -> Array:
        _check_stencil(total, q, h)
        return central_diff(metric, q, h)

    total = ChartManifold(
        dim=chart.dim,
        metric_field=metric,
        metric_derivative=metric_derivative,
        orthonormal_frame=lambda q: orthonormalizer(metric(q)).swapaxes(-1, -2),
        domain_predicate=predicate,
        name=f"total[{chart.name}]",
    )
    return total


def total_space_cfg(cfg: FDConfig) -> FDConfig:
    """The config for differencing on a frame-bundle total space: its induced metric
    already contains one level of derived quantities, so its step_h is step_h2."""
    return replace(cfg, step_h=cfg.step_h2)


def lc_total_space_oracle(
    chart, pairs: Sequence[tuple[Callable[[Frame], FrameTangent], Callable[[Frame], FrameTangent]]], u: Frame,
    cfg: FDConfig = DEFAULT_FD,
) -> list[FrameTangent]:
    """Levi-Civita covariant derivatives nabla_A B on the total space, one per (A, B) pair
    of frame fields (Frame -> FrameTangent, as the lifts are), at the frame u or at a
    stack of frames.

    Brute force on the Mok metric of ``induced_metric_on_chart``: ``covariant_derivatives``
    on ``total_space_manifold`` at ``total_space_cfg``, at the chart points encode(u), on
    the chart fields of the pairs (``_chart_fields``), read back as frame tangents at u
    itself (``_tangents_at``).  The audits run it on L(M) only.
    """
    q = chart.encode(u)
    return _tangents_at(chart, u, q, covariant_derivatives(
        total_space_manifold(chart, cfg), _chart_fields(chart, pairs, cfg), q, total_space_cfg(cfg)), cfg)


def gauss_projection(
    M: ChartManifold, ts: Sequence[FrameTangent], g: Array, gamma: Array, dg: Array, P: Array, dP: Array,
    k: int,
) -> list[FrameTangent]:
    """Mok-orthogonal tangential parts on O(D) of the tangents ts to L(M) at frames u of O(D),
    the orthonormal frames whose first k columns span D; O(M) is O(D) of D = TM (k = n,
    P = I, dP = 0).  The rates C of the constraints E^T g E - I, (I - P) E_top and P E_bot
    along each chart direction have the null space T_u O(D): its n + dim so(k) + dim
    so(n-k) singular vectors N, from one SVD, give the projection N (N^T G N)^-1 N^T G for
    L(M)'s Mok metric G.  The Levi-Civita connection of O(D) is the projection of L(M)'s
    (the Gauss formula; do Carmo, *Riemannian Geometry*, ch. 6).  g, Gamma, P and the
    derivatives dg, dP [..., k, i, j] at u's base points serve every tangent.
    """
    lm, u = LMChart(M), ts[0].at
    n = u.base.shape[-1]
    xdot, Edot = lm.split(np.eye(lm.dim))  # row a: chart direction a as a tangent
    gdot, Pdot = (np.einsum("ak,...kij->...aij", xdot, d) for d in (dg, dP))
    g_, P_, E = g[..., None, :, :], P[..., None, :, :], u.columns[..., None, :, :]
    A = Edot.swapaxes(-1, -2) @ g_ @ E
    C = np.concatenate([A + A.swapaxes(-1, -2) + E.swapaxes(-1, -2) @ gdot @ E,
                        (np.eye(n) - P_) @ Edot[..., :k] - Pdot @ E[..., :k],
                        P_ @ Edot[..., k:] + Pdot @ E[..., k:]], axis=-1)
    null = n + (k * (k - 1) + (n - k) * (n - k - 1)) // 2
    N = np.linalg.svd(C.reshape(C.shape[:-2] + (-1,)), full_matrices=False)[0][..., -null:]
    GN = _gram(g, gamma, u.columns, xdot, Edot) @ N
    Pi = N @ np.linalg.solve(N.swapaxes(-1, -2) @ GN, GN.swapaxes(-1, -2))
    v = np.array([lm.join(t.base_rate, t.frame_rate) for t in ts])
    return [FrameTangent(u, *lm.split(rates)) for rates in (Pi @ v[..., None])[..., 0]]


def fd_bracket_on_chart(
    chart, pairs: Sequence[tuple[Callable[[Frame], FrameTangent], Callable[[Frame], FrameTangent]]], u: Frame,
    cfg: FDConfig = DEFAULT_FD,
) -> list[FrameTangent]:
    """Finite-difference Lie brackets [A, B] = dB(a) - dA(b), one per (A, B) pair of frame
    fields, at the frame u or a stack of frames: ``lie_brackets`` on their chart fields
    (``_chart_fields``) at ``total_space_cfg``, at the chart points encode(u), read back as
    frame tangents at u itself (``_tangents_at``)."""
    q = chart.encode(u)
    return _tangents_at(chart, u, q, lie_brackets(_chart_fields(chart, pairs, cfg), q, total_space_cfg(cfg)), cfg)


def _chart_fields(chart, pairs: Sequence[tuple], cfg: FDConfig) -> list[tuple[VectorField, VectorField]]:
    """The pairs of frame fields as pairs of chart fields q -> field_to_chart(q, F), F read
    at the one frame decode(q), one ``VectorField`` per distinct frame field, so each is
    evaluated and differenced once."""
    made = {id(F): VectorField(eval=lambda q, F=F: chart.field_to_chart(q, F, cfg)) for pair in pairs for F in pair}
    return [(made[id(A)], made[id(B)]) for A, B in pairs]


def _tangents_at(chart, u: Frame, q: Array, vs: Sequence[TangentVector], cfg: FDConfig) -> list[FrameTangent]:
    """The chart vectors vs at q = encode(u) as frame tangents at u itself, the frame object
    the caller holds: decode(q) is u, exactly on L(M) and to roundoff on a ``FrameChart``."""
    return [FrameTangent(u, t.base_rate, t.frame_rate)
            for t in chart.chart_to_tangents(q, [v.components for v in vs], cfg)]


# ---------------------------------------------------------------------------
# closed-form Levi-Civita connection and bracket identities
# ---------------------------------------------------------------------------

def endo_covariant_derivative(
    Q: EndomorphismField, x: Array, p: Array, Qp: Array, gamma: Array, cfg: FDConfig = DEFAULT_FD,
) -> Array:
    """(nabla_x Q) at p as a matrix: directional derivative plus [Gamma_x, Q], from the
    caller's value Qp = Q(p) and Christoffel symbols ``gamma`` at p; a stack for points
    p (..., n) and directions x (..., n), from one stencil of Q."""
    dQ = directional_diff(Q.eval, p, x, cfg.step_h)
    gx = christoffel_contract(gamma, x)
    Qp = np.asarray(Qp, dtype=float)
    return dQ + gx @ Qp - Qp @ gx


def lc_connection_formula(
    M: ChartManifold, cases: dict[str, Sequence[tuple[str, tuple]]], u: Frame, g: Array, gamma: Array,
    R: Array, cfg: FDConfig = DEFAULT_FD,
) -> dict[str, list[dict[str, FrameTangent]]]:
    """Closed-form right-hand sides for the Mok Levi-Civita connection, one dict per
    (case, inputs) of each bundle's ``cases``, "L" for L(M) and "O" for O(M), at the
    frame u, or at a stack of frames with g, gamma and R of the same leading axes.

    Cases (first argument differentiates the second):
      hh: nabla_{X^h} Y^h   = (nabla_X Y)^h - 1/2 R(X,Y)*
      hv: nabla_{X^h} Q*    = 1/2 R_Q(X)^h + (nabla_X Q)*
      vh: nabla_{P*}  Y^h   = 1/2 R_P(Y)^h
      vv: nabla_{P*}  Q*    = (Q o P)*  on L(M),  -1/2 [P,Q]*  on O(M)

    Returns the readings by name: "resolved" (the lines above) for every
    case and, for hv and vh, "literal", which moves the (nabla Q)* term from
    the hv to the vh line, the reading in which those display lines are
    usually typeset.  The total-space oracle adjudicates; the audit suite
    asserts "resolved".  Every case reads the caller's metric g, Christoffel
    symbols gamma and ``R = curvature_tensor(M, u.base)`` at u's base points and one
    orthonormal basis there; one ``covariant_derivatives`` call serves the hh case
    of every bundle.
    """
    p = u.base
    onb = orthonormal_basis(M, p)
    nablas = iter(covariant_derivatives(
        M, [inputs for bundle_cases in cases.values() for case, inputs in bundle_cases if case == "hh"], p, cfg))

    def lines(bundle: str, case: str, inputs: tuple) -> dict[str, FrameTangent]:
        if case == "hh":
            X, Y = inputs
            Rxy = np.einsum("...ijkl,...i,...j->...lk", R, X.eval(p), Y.eval(p))
            return {"resolved": horizontal_lift_frame(gamma, next(nablas), u)
                    + (-0.5) * fundamental_vertical(Rxy, u)}
        if case in ("hv", "vh"):
            A, B = inputs
            E, v = (B, A.eval(p)) if case == "hv" else (A, B.eval(p))
            v = np.asarray(v, dtype=float)
            Ep = np.asarray(E.eval(p), dtype=float)
            RE = curvature_R_P(g, Ep, onb, R, cfg)
            base = 0.5 * horizontal_lift_frame(gamma, TangentVector(p, (RE @ v[..., None])[..., 0]), u)
            with_term = base + fundamental_vertical(endo_covariant_derivative(E, v, p, Ep, gamma, cfg), u)
            if case == "hv":
                return {"resolved": with_term, "literal": base}
            return {"resolved": base, "literal": with_term}
        if case == "vv":
            P, Q = inputs
            Pu = np.asarray(P.eval(p), dtype=float)
            Qu = np.asarray(Q.eval(p), dtype=float)
            if bundle == "L":
                return {"resolved": fundamental_vertical(Qu @ Pu, u)}
            return {"resolved": fundamental_vertical(-0.5 * (Pu @ Qu - Qu @ Pu), u)}
        raise ValueError(f"unknown case {case!r}")

    return {bundle: [lines(bundle, case, inputs) for case, inputs in bundle_cases]
            for bundle, bundle_cases in cases.items()}


def bracket_rhs(
    case: str, inputs: tuple, u: Frame, gamma: Array, R: Array, cfg: FDConfig = DEFAULT_FD,
) -> dict[str, FrameTangent]:
    """Closed-form bracket identities on the frame bundle, by reading.

      hh: [X^h, Y^h] = [X,Y]^h - R(X,Y)*
      hv: [X^h, Q*]  = (nabla_X Q)*        ("literal" flips the sign)
      vv: [P*, Q*]   = -[P,Q]*

    The caller's Christoffel symbols gamma and ``R = curvature_tensor(M, u.base)`` at
    u's base points serve the lines; u may be a stack of frames.
    """
    p = u.base
    if case == "hh":
        X, Y = inputs
        br = lie_bracket(X, Y, p, cfg)
        Rxy = np.einsum("...ijkl,...i,...j->...lk", R, X.eval(p), Y.eval(p))
        return {"resolved": horizontal_lift_frame(gamma, br, u)
                + (-1.0) * fundamental_vertical(Rxy, u)}
    if case == "hv":
        X, Q = inputs
        nq = fundamental_vertical(
            endo_covariant_derivative(Q, np.asarray(X.eval(p), dtype=float), p, Q.eval(p), gamma, cfg), u)
        return {"resolved": nq, "literal": -1.0 * nq}
    if case == "vv":
        P, Q = inputs
        Pu = np.asarray(P.eval(p), dtype=float)
        Qu = np.asarray(Q.eval(p), dtype=float)
        return {"resolved": fundamental_vertical(-(Pu @ Qu - Qu @ Pu), u)}
    raise ValueError(f"unknown case {case!r}")


def _case_fields(M: ChartManifold, cases: Sequence[tuple[str, tuple]],
                 horizontal: Callable = lambda M, X, u: horizontal_lift_frame(christoffel(M, u.base), X, u),
                 ) -> list[tuple]:
    """The frame fields (A, B) of each (case, inputs): ``horizontal(M, X, u)`` of a vector
    field ("h"), by default its lift by Gamma at the frames u it is handed, the fundamental
    vertical of an endomorphism field ("v").  A field that several cases share is built
    once, so the oracle evaluates and differences it once."""
    for case in {case for case, _ in cases} - {"hh", "hv", "vh", "vv"}:
        raise ValueError(f"unknown case {case!r}")
    lift = {"h": lambda X: lambda u: horizontal(M, X.at(u.base), u),
            "v": lambda P: lambda u: fundamental_vertical(P.eval(u.base), u)}
    made = {(kind, id(F)): lift[kind](F) for case, AB in cases for kind, F in zip(case, AB)}
    return [tuple(made[kind, id(F)] for kind, F in zip(case, AB)) for case, AB in cases]


def bracket_residual(
    M: ChartManifold, chart, cases: Sequence[tuple[str, tuple]], u: Frame, g: Array, gamma: Array, R: Array,
    cfg: FDConfig = DEFAULT_FD,
) -> list[dict[str, Array]]:
    """Mok norm of (finite-difference bracket) - (closed-form right side), by reading, for
    each (case, inputs) of ``cases``: one value per frame of u.  One ``fd_bracket_on_chart``
    call serves every case, reading and frame, and one ``mok_norm`` measures the stack of
    their differences, from the caller's metric g and Christoffel symbols gamma at u's base
    points; gamma and ``R`` serve ``bracket_rhs``."""
    fds = fd_bracket_on_chart(chart, _case_fields(M, cases), u, cfg)
    rhs = [bracket_rhs(case, inputs, u, gamma, R, cfg) for case, inputs in cases]
    norms = iter(mok_norm(g, gamma, FrameTangent.stack([fd - line for fd, lines in zip(fds, rhs)
                                                        for line in lines.values()])))
    return [{reading: next(norms) for reading in lines} for lines in rhs]


def connection_audit(
    M: ChartManifold, u: Frame, fields: dict, g: Array, gamma: Array, R: Array, cfg: FDConfig = DEFAULT_FD,
) -> list[dict]:
    """Audit table comparing the connection formulas against the oracle.

    ``fields`` maps a bundle, "L" or "O", to its X, Y (vector fields) and P, Q
    (endomorphism fields, g-skew on O(M)) at the orthonormal frames u; g, gamma and
    ``R = curvature_tensor(M, u.base)`` are the caller's metric, Christoffel symbols
    and curvature at u's base points.  One L(M) oracle call serves every bundle, case
    and frame, O(M) takes its ``gauss_projection``, and one ``lc_connection_formula``
    call gives every line.  Each reading of each case is a row, bundle by bundle, its
    residual one value per frame from one ``mok_norm``; the "literal" hv/vh rows are
    unasserted diagnostics.
    """
    chart = LMChart(M)
    cases = {bundle: [("hh", (f["X"], f["Y"])), ("hv", (f["X"], f["Q"])), ("vh", (f["P"], f["Y"])),
                      ("vv", (f["P"], f["Q"]))] for bundle, f in fields.items()}
    values = iter(lc_total_space_oracle(chart, _case_fields(M, sum(cases.values(), [])), u, cfg))
    oracles = {bundle: [next(values) for _ in bundle_cases] for bundle, bundle_cases in cases.items()}
    if "O" in oracles:  # O(M) is O(D) of D = TM
        oracles["O"] = gauss_projection(M, oracles["O"], g, gamma, metric_derivative_eval(M, u.base),
                                        np.eye(M.dim), np.zeros((M.dim,) * 3), M.dim)
    rows, differences = [], []
    lines = lc_connection_formula(M, cases, u, g, gamma, R, cfg)
    for bundle, bundle_cases in cases.items():
        for (case, _), oracle, rhs in zip(bundle_cases, oracles[bundle], lines[bundle]):
            for reading, line in rhs.items():
                rows.append({"bundle": bundle, "case": case, "reading": reading,
                             "asserted": reading == "resolved"})
                differences.append(oracle - line)
    for row, residual in zip(rows, mok_norm(g, gamma, FrameTangent.stack(differences))):
        row["residual"] = residual
    return rows
