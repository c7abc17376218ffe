"""Frame bundles over a chart: Mok metric, lifts, and total-space oracles.

The full frame bundle L(M) is charted as (x, E) with E the invertible
matrix of frame columns; the orthonormal bundle O(M) is charted near a
reference orthonormal frame field as (x, a) with u = E_ref(x) exp(A(a))
for a skew matrix A.  A brute-force Levi-Civita oracle on the induced
total-space metric audits every closed-form connection and bracket
identity used elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np
import scipy.linalg

from .geometry import (
    Array,
    ChartManifold,
    DEFAULT_FD,
    EndomorphismField,
    FDConfig,
    TangentVector,
    VectorField,
    central_diff,
    christoffel,
    christoffel_contract,
    column_gram,
    covariant_derivative,
    covariant_derivatives,
    curvature_R_P,
    curvature_tensor,
    directional_diff,
    lie_bracket,
    metric_eval,
    orthonormal_basis,
    orthonormalizer,
    reference_frame,
)


@dataclass(frozen=True)
class Frame:
    """A frame of the tangent space at ``base``: column i of ``columns`` is u_i."""

    base: Array
    columns: Array

    def __post_init__(self):
        object.__setattr__(self, "base", np.asarray(self.base, dtype=float))
        object.__setattr__(self, "columns", np.asarray(self.columns, dtype=float))
        if self.columns.shape != (self.base.size, self.base.size):
            raise ValueError("frame matrix must be square of the chart dimension")

    def vector(self, i: int) -> Array:
        return self.columns[:, i]


@dataclass(frozen=True)
class FrameTangent:
    """Tangent vector to the frame-bundle total space at ``at``."""

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


def _same_frame(u: Frame, v: Frame, tol: float = 1e-9) -> None:
    if np.max(np.abs(u.base - v.base)) > tol or np.max(np.abs(u.columns - v.columns)) > tol:
        raise ValueError("frame tangents are attached to different frames")


# ---------------------------------------------------------------------------
# lifts, vertical vectors, Mok metric
# ---------------------------------------------------------------------------

def horizontal_lift_frame(
    M: ChartManifold, X: TangentVector, u: Frame, cfg: FDConfig = DEFAULT_FD
) -> FrameTangent:
    """Horizontal lift of X at the frame u: parallel transport of the columns."""
    if not np.array_equal(np.asarray(X.base, dtype=float), u.base):
        raise ValueError("vector and frame are based at different points")
    gamma = christoffel(M, u.base, cfg)
    gx = christoffel_contract(gamma, X.components)
    return FrameTangent(u, X.components.copy(), -gx @ u.columns)


def fundamental_vertical(P_value: Array, u: Frame) -> FrameTangent:
    """Vertical vector generated by the endomorphism value P at the frame u.

    Generated by the flow u -> u exp(t u^{-1} P u); in chart coordinates the
    frame rate is simply P E.
    """
    P_value = np.asarray(P_value, dtype=float)
    return FrameTangent(u, np.zeros(u.base.size), P_value @ u.columns)


def vertical_part(
    M: ChartManifold, t: FrameTangent, cfg: FDConfig = DEFAULT_FD
) -> Array:
    """Endomorphism value V with t = horizontal lift of base_rate + V*.

    The decomposition is exact: V = (Edot + Gamma_xdot E) E^{-1}.
    """
    u = t.at
    gamma = christoffel(M, u.base, cfg)
    gx = christoffel_contract(gamma, t.base_rate)
    return (t.frame_rate + gx @ u.columns) @ np.linalg.inv(u.columns)


def mok_metric(
    M: ChartManifold, s: FrameTangent, t: FrameTangent, cfg: FDConfig = DEFAULT_FD
) -> float:
    """Diagonal (Mok) metric on the frame bundle.

    Horizontal and vertical parts are orthogonal; two vertical vectors pair
    as sum_i g(V_s u_i, V_t u_i) over the frame columns.
    """
    _same_frame(s.at, t.at)
    u = s.at
    g = metric_eval(M, u.base)
    vs = vertical_part(M, s, cfg) @ u.columns
    vt = vertical_part(M, t, cfg) @ u.columns
    return float(s.base_rate @ g @ t.base_rate + np.einsum("ki,kl,li->", vs, g, vt))


def mok_norm(M: ChartManifold, t: FrameTangent, cfg: FDConfig = DEFAULT_FD) -> float:
    return float(np.sqrt(max(mok_metric(M, t, t, cfg), 0.0)))


def _lift_gram(M: ChartManifold, x: Array, E: Array, X: Array, Edot: Array,
               cfg: FDConfig = DEFAULT_FD) -> Array:
    """Gram matrix of tangents (X_a, Edot_a) to the bundle of n x m frames at (x, E).

    G = X g X^T + sum_i W g W^T over the m columns, W_a = Edot_a + Gamma(X_a) E
    = V_a E for the vertical part V_a (whose inverse cancels): the Mok metric
    for m = n, the Sasaki-Mok metric on TM for the one column E = Z.
    """
    g = metric_eval(M, x)
    W = Edot + np.einsum("kij,ai,jl->akl", christoffel(M, x, cfg), X, E)
    G = X @ g @ X.T + column_gram(g, W)
    return 0.5 * (G + G.T)


def mok_gram(
    M: ChartManifold, basis: Sequence[FrameTangent], cfg: FDConfig = DEFAULT_FD
) -> Array:
    """Mok Gram matrix of tangents attached to one frame, in one pass (``_lift_gram``).
    Raises ValueError when the tangents are attached to different frames."""
    u = basis[0].at
    for t in basis[1:]:
        _same_frame(u, t.at)
    return _lift_gram(M, u.base, u.columns, np.array([t.base_rate for t in basis]),
                      np.array([t.frame_rate for t in basis]), cfg)


def mok_orthonormalize(
    M: ChartManifold, basis: Sequence[FrameTangent], cfg: FDConfig = DEFAULT_FD
) -> list[FrameTangent]:
    """Gram-Schmidt in the Mok metric, deterministic in the given order: one
    ``mok_gram`` and its ``orthonormalizer``, which raises on a degenerate input."""
    C = orthonormalizer(mok_gram(M, basis, cfg))
    X = np.array([t.base_rate for t in basis])
    F = np.array([t.frame_rate for t in basis])
    return [FrameTangent(basis[0].at, c @ X, np.tensordot(c, F, axes=1)) for c in C]


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
    """Basis of so(k) + so(n-k) embedded block-diagonally in so(n)."""
    out = []
    for B in skew_basis(k):
        M = np.zeros((n, n))
        M[:k, :k] = B
        out.append(M)
    for B in skew_basis(n - k):
        M = np.zeros((n, n))
        M[k:, k:] = B
        out.append(M)
    return out


def offdiag_skew_basis(n: int, k: int) -> list[Array]:
    """Basis of the complementary block (skew matrices mixing the two blocks)."""
    out = []
    for i in range(k):
        for j in range(k, n):
            B = np.zeros((n, n))
            B[i, j] = 1.0
            B[j, i] = -1.0
            out.append(B)
    return out


def _exp_frechet_skew(A: Array, basis: Sequence[Array]) -> tuple[Array, Array]:
    """exp(A) and the Frechet derivatives L(A, B_j) of exp for a real skew A, from one eigh.

    With 1j A = U diag(mu) U*, A = U diag(lam) U* for lam = -1j mu, and
    L(A, B) = U (F o U* B U) U* with F the divided differences of exp at the
    lam (Daleckii-Krein; Higham, *Functions of Matrices*, 2008, ch. 3).  The
    form F_kl = exp((lam_k + lam_l)/2) sinc((mu_k - mu_l)/2) is exact at
    repeated eigenvalues, where F_kk = exp(lam_k).  exp(A) takes the same
    operations whatever the basis, so it does not depend on it; an empty
    basis skips the Frechet rows.
    """
    mu, U = np.linalg.eigh(1j * A)
    Uh = U.conj().T
    expA = ((U * np.exp(-1j * mu)) @ Uh).real
    if len(basis) == 0:
        return expA, np.zeros((0,) + A.shape)
    F = np.exp(-0.5j * (mu[:, None] + mu[None, :])) * np.sinc(
        (mu[:, None] - mu[None, :]) / (2.0 * np.pi))
    B = np.reshape(basis, (-1,) + A.shape)
    return expA, (U @ (F * (Uh @ B @ U)) @ Uh).real


def _log_rotation(R: Array, tol: float) -> Array:
    """Principal log of a rotation from one complex Schur factorisation R = Z T Z*.

    R is normal, so T is diagonal up to roundoff and log R = Z log(diag T) Z*.
    A half-turn has no unique principal log: raises ValueError when an
    eigenvalue angle of R is within ``tol`` of pi.
    """
    T, Z = scipy.linalg.schur(R, output="complex")
    d = np.diag(T)
    if np.max(np.abs(np.angle(d))) > np.pi - tol:
        raise ValueError("frame rotation has an eigenvalue angle at pi: no unique principal log")
    return (Z * np.log(d)) @ Z.conj().T


class FrameChart:
    """Chart (x, a) on a subbundle of O(M): u = E_ref(x) exp(A(a)).

    ``basis`` spans the allowed skew directions: all of so(n) for O(M), the
    block-diagonal subalgebra for an adapted bundle.  Valid near a = 0.  Both
    tangent conversions read the chart Jacobian J(q) built by ``jacobian``.
    exp(A), its Frechet derivatives and the log in ``encode`` are closed
    forms for skew A, one eigendecomposition or Schur factorisation each.
    """

    def __init__(
        self,
        M: ChartManifold,
        basis: Optional[Sequence[Array]] = None,
        reference: Optional[Callable[[Array], Array]] = None,
        name: str = "O(M)",
    ):
        self.manifold = M
        self.basis = list(basis) if basis is not None else skew_basis(M.dim)
        self._reference = reference
        self.name = name
        self.dim = M.dim + len(self.basis)

    # -- coordinates ------------------------------------------------------

    def split(self, q: Array) -> tuple[Array, Array]:
        q = np.asarray(q, dtype=float)
        return q[: self.manifold.dim], q[self.manifold.dim :]

    def join(self, x: Array, a: Array) -> Array:
        return np.concatenate([np.asarray(x, dtype=float), np.asarray(a, dtype=float)])

    def skew_from_coords(self, a: Array) -> Array:
        A = np.zeros((self.manifold.dim, self.manifold.dim))
        for c, B in zip(a, self.basis):
            A += c * B
        return A

    def coords_from_skew(self, A: Array) -> Array:
        # the E_ij - E_ji basis is Frobenius-orthogonal with norm^2 = 2
        return np.array([np.tensordot(A, B) / 2.0 for B in self.basis])

    def reference(self, x: Array) -> Array:
        if self._reference is not None:
            return np.asarray(self._reference(x), dtype=float)
        return reference_frame(self.manifold, x)

    def reference_derivative(self, x: Array, cfg: FDConfig = DEFAULT_FD) -> Array:
        return central_diff(self.reference, x, cfg.step_h)

    # -- frames -----------------------------------------------------------

    def decode(self, q: Array) -> Frame:
        x, a = self.split(q)
        expA, _ = _exp_frechet_skew(self.skew_from_coords(a), ())
        return Frame(x, self.reference(x) @ expA)

    def encode(self, u: Frame, tol: float = 1e-8) -> Array:
        """Chart coordinates of a frame; errors if u is not reachable.

        Requires u orthonormal for this chart and its rotation R from the
        reference frame within the span of the chart's skew directions, with
        every eigenvalue angle of R below pi - ``tol`` (a half-turn has no
        unique principal log).  The log comes from one Schur factorisation.
        """
        R = np.linalg.solve(self.reference(u.base), u.columns)
        if np.max(np.abs(R.T @ R - np.eye(self.manifold.dim))) > 1e-6:
            raise ValueError("frame is not orthonormal for this chart")
        A = _log_rotation(R, tol)
        if np.max(np.abs(A.imag)) > tol:
            raise ValueError("matrix log did not converge to a real rotation")
        A = A.real
        A = 0.5 * (A - A.T)
        a = self.coords_from_skew(A)
        if np.max(np.abs(self.skew_from_coords(a) - A)) > tol:
            raise ValueError("frame rotation leaves the chart's skew directions")
        if np.max(np.abs(_exp_frechet_skew(A, ())[0] - R)) > 1e-6:
            raise ValueError("matrix log inconsistent with the frame rotation")
        return self.join(u.base, a)

    # -- tangent conversions ----------------------------------------------

    def jacobian(self, q: Array, cfg: FDConfig = DEFAULT_FD) -> tuple[Frame, Array, Array]:
        """decode(q) and J(q): the (xdot, Edot) images of the dim coordinate directions.

        Jx is dim x n, JE is dim x n x n.  The n base rows of JE are
        dE_ref exp(A); the skew rows are E_ref L(A, B_j), all of them and
        exp(A) from one eigendecomposition of A.  The reference frame and its
        derivative are computed once.
        """
        x, a = self.split(q)
        expA, frechet = _exp_frechet_skew(self.skew_from_coords(a), self.basis)
        ref = self.reference(x)
        JE = np.concatenate([self.reference_derivative(x, cfg) @ expA, ref @ frechet])
        return Frame(x, ref @ expA), np.eye(self.dim, x.size), JE

    def chart_to_tangents(self, q: Array, qdots: Array,
                          cfg: FDConfig = DEFAULT_FD) -> list[FrameTangent]:
        """Frame tangents of the chart rates in the rows of ``qdots``, all at decode(q): qdots @ J."""
        u, Jx, JE = self.jacobian(q, cfg)
        # row by row, so that a row's tangent does not depend on the batch it came in
        return [FrameTangent(u, qdot @ Jx, np.tensordot(qdot, JE, axes=1))
                for qdot in np.atleast_2d(qdots)]

    def chart_to_tangent(self, q: Array, qdot: Array, cfg: FDConfig = DEFAULT_FD) -> FrameTangent:
        return self.chart_to_tangents(q, qdot, cfg)[0]

    def tangent_to_chart(self, q: Array, t: FrameTangent, cfg: FDConfig = DEFAULT_FD,
                         tol: float = 1e-6) -> Array:
        """Chart rates at q of a frame tangent at decode(q), by least squares against J.

        Errors if t is attached to another frame or is not tangent to the chart.
        """
        return self._rates_of(q, lambda _u: t, cfg, tol)

    def _rates_of(self, q: Array, tangent_at: Callable[[Frame], FrameTangent],
                  cfg: FDConfig = DEFAULT_FD, tol: float = 1e-6) -> Array:
        """Chart rates at q of ``tangent_at(u)``, u = decode(q); one ``jacobian(q)`` gives u and J."""
        u, _, JE = self.jacobian(q, cfg)
        t = tangent_at(u)
        _same_frame(u, t.at)
        n = self.manifold.dim
        rhs = (t.frame_rate - np.tensordot(t.base_rate, JE[:n], axes=1)).ravel()
        Mcols = JE[n:].reshape(len(self.basis), n * n).T
        adot, *_ = np.linalg.lstsq(Mcols, rhs, rcond=None)
        resid = np.linalg.norm(Mcols @ adot - rhs)
        scale = 1.0 + np.linalg.norm(t.base_rate) + np.linalg.norm(t.frame_rate)
        if resid > tol * scale:
            raise ValueError(f"tangent is not tangent to chart {self.name} (residual {resid:.3g})")
        return self.join(t.base_rate, adot)


class LMChart:
    """Global chart (x, vec(E)) on the full frame bundle L(M)."""

    def __init__(self, M: ChartManifold, name: str = "L(M)"):
        self.manifold = M
        self.name = name
        self.dim = M.dim + M.dim * M.dim

    def split(self, q: Array) -> tuple[Array, Array]:
        n = self.manifold.dim
        q = np.asarray(q, dtype=float)
        return q[:n], q[n:].reshape(n, n)

    def join(self, x: Array, E: Array) -> Array:
        return np.concatenate([np.asarray(x, dtype=float), np.asarray(E, dtype=float).ravel()])

    def decode(self, q: Array) -> Frame:
        x, E = self.split(q)
        return Frame(x, E)

    def encode(self, u: Frame) -> Array:
        return self.join(u.base, u.columns)

    def chart_to_tangents(self, q: Array, qdots: Array,
                          cfg: FDConfig = DEFAULT_FD) -> list[FrameTangent]:
        u = self.decode(q)
        return [FrameTangent(u, *self.split(qdot)) for qdot in np.atleast_2d(qdots)]

    def chart_to_tangent(self, q: Array, qdot: Array, cfg: FDConfig = DEFAULT_FD) -> FrameTangent:
        return self.chart_to_tangents(q, qdot, cfg)[0]

    def tangent_to_chart(self, q: Array, t: FrameTangent, cfg: FDConfig = DEFAULT_FD) -> Array:
        _same_frame(self.decode(q), t.at)
        return self.join(t.base_rate, t.frame_rate)

    def _rates_of(self, q: Array, tangent_at: Callable[[Frame], FrameTangent],
                  cfg: FDConfig = DEFAULT_FD) -> Array:
        """Chart rates at q of ``tangent_at(decode(q))``; decoding is a reshape here."""
        return self.tangent_to_chart(q, tangent_at(self.decode(q)), cfg)


def om_chart(M: ChartManifold, name: str = "O(M)") -> FrameChart:
    return FrameChart(M, basis=skew_basis(M.dim), name=name)


# ---------------------------------------------------------------------------
# induced metric on the total space and the Levi-Civita oracle
# ---------------------------------------------------------------------------

def induced_metric_on_chart(chart, q: Array, cfg: FDConfig = DEFAULT_FD) -> Array:
    """Mok metric expressed in the chart coordinates of the total space."""
    tangents = chart.chart_to_tangents(q, np.eye(chart.dim), cfg)
    return mok_gram(chart.manifold, tangents, cfg)


def total_space_manifold(chart, cfg: FDConfig = DEFAULT_FD) -> ChartManifold:
    """The frame-bundle total space as a ChartManifold with the induced metric."""
    base = chart.manifold

    def predicate(q: Array) -> bool:
        x = np.asarray(q[: base.dim], dtype=float)
        if not base.contains(x):
            return False
        if isinstance(chart, LMChart):
            _, E = chart.split(q)
            return abs(np.linalg.det(E)) > 1e-8
        _, a = chart.split(q)
        return float(np.linalg.norm(a)) < 2.0

    return ChartManifold(
        dim=chart.dim,
        metric_field=lambda q: induced_metric_on_chart(chart, q, cfg),
        domain_predicate=predicate,
        name=f"total[{chart.name}]",
    )


def lc_total_space_oracle(
    chart,
    pairs: Sequence[tuple[Callable[[Array], Array], Callable[[Array], Array]]],
    q: Array,
    cfg: FDConfig = DEFAULT_FD,
) -> list[FrameTangent]:
    """Levi-Civita covariant derivatives nabla_A B on the total space, one per (A, B) pair.

    Each field gives chart-coordinate rates as a function of the chart
    point.  Everything is brute force: the induced metric is differenced at
    step_h2 because its entries already contain one level of derived
    quantities.  Its Christoffel symbols are built once per point q and
    contracted for every pair.
    """
    total = total_space_manifold(chart, cfg)
    out = covariant_derivatives(
        total, [(VectorField(eval=A), VectorField(eval=B)) for A, B in pairs], q,
        replace(cfg, step_h=cfg.step_h2),
    )
    return chart.chart_to_tangents(q, np.array([v.components for v in out]), cfg)


def fd_bracket_on_chart(
    chart,
    A_field: Callable[[Array], Array],
    B_field: Callable[[Array], Array],
    q: Array,
    cfg: FDConfig = DEFAULT_FD,
) -> FrameTangent:
    """Finite-difference Lie bracket [A, B] of two total-space fields."""
    out = lie_bracket(
        VectorField(eval=A_field), VectorField(eval=B_field), q, cfg, step=cfg.step_h2
    )
    return chart.chart_to_tangent(q, out.components, cfg)


# ---------------------------------------------------------------------------
# total-space realizations of the structural vector fields
# ---------------------------------------------------------------------------

def horizontal_field_on_chart(chart, X: VectorField, cfg: FDConfig = DEFAULT_FD):
    """Chart-coordinate field q -> rates of the horizontal lift of X."""
    M = chart.manifold
    return lambda q: chart._rates_of(
        q, lambda u: horizontal_lift_frame(M, TangentVector(u.base, X.eval(u.base)), u, cfg), cfg)


def vertical_field_on_chart(chart, P: EndomorphismField, cfg: FDConfig = DEFAULT_FD):
    """Chart-coordinate field of the fundamental vertical field of P."""
    return lambda q: chart._rates_of(q, lambda u: fundamental_vertical(P.eval(u.base), u), cfg)


# ---------------------------------------------------------------------------
# closed-form Levi-Civita connection and bracket identities
# ---------------------------------------------------------------------------

def endo_covariant_derivative(
    M: ChartManifold, Q: EndomorphismField, x: Array, p: Array,
    cfg: FDConfig = DEFAULT_FD,
) -> Array:
    """(nabla_x Q) at p as a matrix: directional derivative plus [Gamma_x, Q]."""
    dQ = directional_diff(Q.eval, p, x, cfg.step_h)
    gamma = christoffel(M, p, cfg)
    gx = christoffel_contract(gamma, x)
    Qp = np.asarray(Q.eval(p), dtype=float)
    return dQ + gx @ Qp - Qp @ gx


def curvature_endo(M: ChartManifold, p: Array, x: Array, y: Array,
                   cfg: FDConfig = DEFAULT_FD) -> Array:
    """R(x, y) as an endomorphism value at p."""
    R = curvature_tensor(M, p, cfg)
    return np.einsum("ijkl,i,j->lk", R, x, y)


def lc_connection_formula(
    M: ChartManifold,
    bundle: str,
    case: str,
    inputs: tuple,
    u: Frame,
    cfg: FDConfig = DEFAULT_FD,
) -> dict[str, FrameTangent]:
    """Closed-form right-hand sides for the Mok Levi-Civita connection.

    Cases (first argument differentiates the second):
      hh: nabla_{X^h} Y^h   = (nabla_X Y)^h - 1/2 R(X,Y)*
      hv: nabla_{X^h} Q*    = 1/2 R_Q(X)^h + (nabla_X Q)*
      vh: nabla_{P*}  Y^h   = 1/2 R_P(Y)^h
      vv: nabla_{P*}  Q*    = (Q o P)*  on L(M),  -1/2 [P,Q]*  on O(M)

    Returns the readings by name: "resolved" (the lines above) for every
    case and, for hv and vh, "literal", which moves the (nabla Q)* term from
    the hv to the vh line, the reading in which those display lines are
    usually typeset.  The total-space oracle adjudicates; the audit suite
    asserts "resolved".
    """
    p = u.base
    onb = orthonormal_basis(M, p)
    if case == "hh":
        X, Y = inputs
        nab = covariant_derivative(M, X, Y, p, cfg)
        Rxy = curvature_endo(M, p, X.eval(p), Y.eval(p), cfg)
        return {"resolved": horizontal_lift_frame(M, nab, u, cfg)
                + (-0.5) * fundamental_vertical(Rxy, u)}
    if case in ("hv", "vh"):
        A, B = inputs
        E, v = (B, A.eval(p)) if case == "hv" else (A, B.eval(p))
        v = np.asarray(v, dtype=float)
        RE = curvature_R_P(M, p, np.asarray(E.eval(p), dtype=float), onb, cfg)
        base = 0.5 * horizontal_lift_frame(M, TangentVector(p, RE @ v), u, cfg)
        with_term = base + fundamental_vertical(endo_covariant_derivative(M, E, v, p, cfg), u)
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


def bracket_rhs(
    M: ChartManifold,
    case: str,
    inputs: tuple,
    u: Frame,
    cfg: FDConfig = DEFAULT_FD,
) -> dict[str, FrameTangent]:
    """Closed-form bracket identities on the frame bundle, by reading.

      hh: [X^h, Y^h] = [X,Y]^h - R(X,Y)*
      hv: [X^h, Q*]  = (nabla_X Q)*        ("literal" flips the sign)
      vv: [P*, Q*]   = -[P,Q]*
    """
    p = u.base
    if case == "hh":
        X, Y = inputs
        br = lie_bracket(X, Y, p, cfg)
        Rxy = curvature_endo(M, p, X.eval(p), Y.eval(p), cfg)
        return {"resolved": horizontal_lift_frame(M, br, u, cfg)
                + (-1.0) * fundamental_vertical(Rxy, u)}
    if case == "hv":
        X, Q = inputs
        nq = fundamental_vertical(
            endo_covariant_derivative(M, Q, np.asarray(X.eval(p), dtype=float), p, cfg), u)
        return {"resolved": nq, "literal": -1.0 * nq}
    if case == "vv":
        P, Q = inputs
        Pu = np.asarray(P.eval(p), dtype=float)
        Qu = np.asarray(Q.eval(p), dtype=float)
        return {"resolved": fundamental_vertical(-(Pu @ Qu - Qu @ Pu), u)}
    raise ValueError(f"unknown case {case!r}")


def _case_fields(chart, case: str, inputs: tuple, cfg: FDConfig):
    if case in ("hh",):
        A = horizontal_field_on_chart(chart, inputs[0], cfg)
        B = horizontal_field_on_chart(chart, inputs[1], cfg)
    elif case == "hv":
        A = horizontal_field_on_chart(chart, inputs[0], cfg)
        B = vertical_field_on_chart(chart, inputs[1], cfg)
    elif case == "vh":
        A = vertical_field_on_chart(chart, inputs[0], cfg)
        B = horizontal_field_on_chart(chart, inputs[1], cfg)
    elif case == "vv":
        A = vertical_field_on_chart(chart, inputs[0], cfg)
        B = vertical_field_on_chart(chart, inputs[1], cfg)
    else:
        raise ValueError(f"unknown case {case!r}")
    return A, B


def bracket_residual(
    M: ChartManifold,
    chart,
    case: str,
    inputs: tuple,
    u: Frame,
    cfg: FDConfig = DEFAULT_FD,
) -> dict[str, float]:
    """Mok norm of (finite-difference bracket) - (closed-form right side), by reading.

    The finite-difference bracket is taken once for all readings.
    """
    A, B = _case_fields(chart, case, inputs, cfg)
    q = chart.encode(u)
    fd = fd_bracket_on_chart(chart, A, B, q, cfg)
    return {name: mok_norm(M, fd - rhs, cfg)
            for name, rhs in bracket_rhs(M, case, inputs, u, cfg).items()}


def _connection_residuals(M, chart, bundle, cases, u, cfg) -> list[dict[str, float]]:
    q = chart.encode(u)
    oracles = lc_total_space_oracle(
        chart, [_case_fields(chart, case, inputs, cfg) for case, inputs in cases], q, cfg)
    return [{name: mok_norm(M, oracle - rhs, cfg)
             for name, rhs in lc_connection_formula(M, bundle, case, inputs, u, cfg).items()}
            for (case, inputs), oracle in zip(cases, oracles)]


def connection_residual(
    M: ChartManifold,
    chart,
    bundle: str,
    case: str,
    inputs: tuple,
    u: Frame,
    cfg: FDConfig = DEFAULT_FD,
) -> dict[str, float]:
    """Mok norm of (total-space oracle) - (closed-form connection formula), by reading.

    The oracle runs once for all readings.
    """
    return _connection_residuals(M, chart, bundle, [(case, inputs)], u, cfg)[0]


def connection_audit(
    M: ChartManifold,
    bundle: str,
    u: Frame,
    fields: dict,
    cfg: FDConfig = DEFAULT_FD,
) -> list[dict]:
    """Audit table comparing the connection formulas against the oracle.

    ``fields`` supplies X, Y (vector fields) and P, Q (endomorphism fields,
    g-skew for O(M)).  One oracle evaluation per point yields a row for each
    reading of each case; the "literal" hv/vh rows are unasserted diagnostics.
    """
    chart = LMChart(M) if bundle == "L" else om_chart(M)
    X, Y, P, Q = fields["X"], fields["Y"], fields["P"], fields["Q"]
    cases = [("hh", (X, Y)), ("hv", (X, Q)), ("vh", (P, Y)), ("vv", (P, Q))]
    rows = []
    for (case, _), residuals in zip(cases, _connection_residuals(M, chart, bundle, cases, u, cfg)):
        for reading, res in residuals.items():
            rows.append({
                "bundle": bundle,
                "case": case,
                "reading": reading,
                "residual": res,
                "asserted": reading == "resolved",
            })
    return rows
