"""Submersions between charts and their lifts to frame bundles.

Covers the horizontal/vertical geometry of a submersion (projectors,
dilatation, second fundamental form, the A and div operators), the lift
to the adapted orthonormal frame bundle with its differential and
kernel/orthogonal distributions, and the conformality and harmonicity
classification driven by those objects.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field, replace
from typing import Callable, Optional, Sequence

import numpy as np

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
    constant_field,
    covariant_derivative,
    directional_diff,
    metric_eval,
    orthonormalizer,
)
from .frames import (
    Frame,
    FrameTangent,
    LMChart,
    fundamental_vertical,
    horizontal_lift_frame,
    induced_metric_on_chart,
    mok_gram,
    mok_orthonormalize,
    skew_basis,
    total_space_manifold,
)
from .adapted import (
    DistributionSpec,
    S_components,
    W_endo,
    W_inverse_apply,
    _adapted_horizontal_lifts,
    adapted_chart,
    adapted_frame,
    od_membership_defect,
    od_tangency_residual,
    torsion_TD,
)

@dataclass(frozen=True)
class SubmersionSpec:
    """A coordinate submersion between two charts.

    ``jacobian`` (target_dim, source_dim) is used exactly when present and
    replaced by central differences otherwise.  ``vertical_fields`` are
    smooth fields spanning the kernel of the differential; the catalog
    always provides them.
    """

    source: ChartManifold
    target: ChartManifold
    map: Callable[[Array], Array]
    jacobian: Optional[Callable[[Array], Array]] = None
    vertical_fields: Optional[Sequence[VectorField]] = None
    name: str = ""

    def value(self, p: Array) -> Array:
        return np.asarray(self.map(p), dtype=float)


def differential_matrix(phi: SubmersionSpec, p: Array, cfg: FDConfig = DEFAULT_FD) -> Array:
    """Jacobian d(phi) at p, shape (target_dim, source_dim)."""
    if phi.jacobian is not None:
        return np.asarray(phi.jacobian(p), dtype=float)
    return central_diff(phi.map, p, cfg.step_h).T


def differential(phi: SubmersionSpec, X: TangentVector, cfg: FDConfig = DEFAULT_FD) -> TangentVector:
    """Pushforward of a tangent vector."""
    p = X.base
    if not phi.source.contains(p):
        raise ValueError("point outside source domain")
    J = differential_matrix(phi, p, cfg)
    return TangentVector(phi.value(p), J @ X.components)


def splitting_projectors(
    phi: SubmersionSpec, p: Array, cfg: FDConfig = DEFAULT_FD
) -> tuple[Array, Array]:
    """(Pi_V, Pi_H): g-orthogonal projectors onto ker d(phi) and its complement.

    d(phi) is rank deficient when the smallest eigenvalue of the k x k SPD
    matrix J g^-1 J^T is not above k eps times its largest.
    """
    J = differential_matrix(phi, p, cfg)
    g = metric_eval(phi.source, p)
    A = np.linalg.solve(g, J.T)          # columns span the horizontal space
    JA = J @ A
    eig = np.linalg.eigvalsh(JA)  # ascending
    if not eig[0] > JA.shape[0] * np.finfo(float).eps * eig[-1]:
        raise ValueError("differential is rank deficient at the sample point")
    Pi_H = A @ np.linalg.solve(JA, J)
    Pi_V = np.eye(phi.source.dim) - Pi_H
    return Pi_V, Pi_H


def horizontal_lift_matrix(phi: SubmersionSpec, p: Array, cfg: FDConfig = DEFAULT_FD) -> Array:
    """Right inverse of d(phi) with image in the horizontal space."""
    J = differential_matrix(phi, p, cfg)
    g = metric_eval(phi.source, p)
    A = np.linalg.solve(g, J.T)
    return A @ np.linalg.inv(J @ A)


@dataclass(frozen=True)
class SubmersionGeometry:
    """Derived horizontal/vertical geometry of a submersion."""

    phi: SubmersionSpec
    horizontal: DistributionSpec  # D = the horizontal distribution

    @property
    def rank(self) -> int:
        return self.horizontal.rank


def derive_geometry(phi: SubmersionSpec, cfg: FDConfig = DEFAULT_FD) -> SubmersionGeometry:
    """Build the horizontal DistributionSpec: the projector and the seed frame.

    The seed frame at q is g^-1 J^T (one solve) followed by the kernel fields.
    """
    k = phi.target.dim

    def projector(q: Array) -> Array:
        return splitting_projectors(phi, q, cfg)[1]

    def seed_frame(q: Array) -> Array:
        J = differential_matrix(phi, q, cfg)
        g = metric_eval(phi.source, q)
        if phi.vertical_fields is not None:
            vertical = [np.asarray(f.eval(q), dtype=float) for f in phi.vertical_fields]
        else:
            # project the last n-k coordinate directions; adequate only when
            # they stay independent over the sampling region
            vertical = list(splitting_projectors(phi, q, cfg)[0][:, k:].T)
        return np.column_stack([np.linalg.solve(g, J.T), *vertical])

    horizontal = DistributionSpec(rank=k, projector_field=projector, seed_frame=seed_frame)
    return SubmersionGeometry(phi=phi, horizontal=horizontal)


def horizontal_basis(geom: SubmersionGeometry, p: Array) -> list[TangentVector]:
    """Orthonormal basis of the horizontal space at p (first k adapted columns)."""
    E = adapted_frame(geom.phi.source, geom.horizontal, p).columns
    return [TangentVector(p, E[:, a]) for a in range(geom.rank)]


def vertical_basis(geom: SubmersionGeometry, p: Array) -> list[TangentVector]:
    E = adapted_frame(geom.phi.source, geom.horizontal, p).columns
    return [TangentVector(p, E[:, a]) for a in range(geom.rank, geom.phi.source.dim)]


def full_adapted_basis(geom: SubmersionGeometry, p: Array) -> list[TangentVector]:
    E = adapted_frame(geom.phi.source, geom.horizontal, p).columns
    return [TangentVector(p, E[:, a]) for a in range(geom.phi.source.dim)]


def dilatation(
    phi: SubmersionSpec, p: Array, cfg: FDConfig = DEFAULT_FD,
    geom: Optional[SubmersionGeometry] = None,
) -> tuple[float, float]:
    """(lambda, defect): g_N(phi_* X, phi_* Y) = lambda g_M(X, Y) on horizontals.

    lambda is the mean of the horizontal Gram diagonal; the defect is the
    max deviation of the Gram matrix from lambda times the identity, zero
    exactly when the map is horizontally conformal at p.
    """
    geom = geom if geom is not None else derive_geometry(phi, cfg)
    basis = horizontal_basis(geom, p)
    J = differential_matrix(phi, p, cfg)
    gN = metric_eval(phi.target, phi.value(p))
    k = len(basis)
    G = np.zeros((k, k))
    for a in range(k):
        for b in range(k):
            G[a, b] = (J @ basis[a].components) @ gN @ (J @ basis[b].components)
    lam = float(np.trace(G) / k)
    defect = float(np.max(np.abs(G - lam * np.eye(k))))
    if lam <= 0:
        raise ValueError("dilatation must be positive for a submersion")
    return lam, defect


def pullback_connection(
    phi: SubmersionSpec, X: TangentVector, W: Callable[[Array], Array],
    cfg: FDConfig = DEFAULT_FD, step: Optional[float] = None,
) -> Array:
    """Pullback covariant derivative of a field along phi.

    W maps source points to target tangent components; the result is
    dW(X) + Gamma^N_(phi_* X) W at phi(p).
    """
    p = X.base
    h = cfg.step_h if step is None else step
    dW = directional_diff(W, p, X.components, h)
    J = differential_matrix(phi, p, cfg)
    y = phi.value(p)
    gammaN = christoffel(phi.target, y, cfg)
    return dW + christoffel_contract(gammaN, J @ X.components) @ np.asarray(W(p), dtype=float)


def second_fundamental_form(
    phi: SubmersionSpec, X: TangentVector, Y: TangentVector,
    cfg: FDConfig = DEFAULT_FD,
) -> Array:
    """Second fundamental form value at (X, Y), a target tangent vector.

    Tensorial and symmetric; computed with constant-component extensions.
    """
    p = X.base
    Yf = constant_field(Y.components)

    def pushed(q: Array) -> Array:
        return differential_matrix(phi, q, cfg) @ np.asarray(Yf.eval(q), dtype=float)

    first = pullback_connection(phi, X, pushed, cfg)
    nab = covariant_derivative(phi.source, constant_field(X.components), Yf, p, cfg)
    J = differential_matrix(phi, p, cfg)
    return first - J @ nab.components


def A_Y_endos(
    geom: SubmersionGeometry, ys: Sequence[Array], p: Array, cfg: FDConfig = DEFAULT_FD,
) -> list[Array]:
    """A_Y, an endomorphism of the horizontal space, for each vertical Y in ``ys``.

    One S and one projector pair at p serve the whole batch.
    """
    phi = geom.phi
    Pi_V, Pi_H = splitting_projectors(phi, p, cfg)
    S = S_components(phi.source, geom.horizontal, p, cfg)
    out = []
    for y in ys:
        if np.max(np.abs(Pi_V @ y - y)) > 1e-6 * (1 + np.linalg.norm(y)):
            raise ValueError("A_Y requires a vertical argument")
        out.append(Pi_H @ (S @ y) @ Pi_H)  # (S @ y)[:, j] = S_{e_j} Y
    return out


def A_Y_endo(
    geom: SubmersionGeometry, Y: TangentVector, cfg: FDConfig = DEFAULT_FD,
) -> Array:
    """A_Y(X) = S_X Y for vertical Y: the one-Y case of ``A_Y_endos``."""
    return A_Y_endos(geom, [Y.components], Y.base, cfg)[0]


def A_identity_residuals(
    geom: SubmersionGeometry, xs: Sequence[Array], ys: Sequence[Array], p: Array,
    cfg: FDConfig = DEFAULT_FD,
) -> list[dict[str, float]]:
    """Residuals of phi_* A_Y(X) = sign * Pi_phi(X, Y), horizontal X, vertical Y.

    One dict per (x, y) pair, x-major.  The identity holds with sign -1
    ("asserted") under the definitions used here (A via the difference
    tensor, the second fundamental form via the pullback connection); the
    printed sign +1 ("printed") is kept for diagnostics.  Both come from
    one evaluation of J, A_Y and the second fundamental form; every A_Y
    comes from one ``A_Y_endos`` batch.
    """
    phi = geom.phi
    J = differential_matrix(phi, p, cfg)
    gN = metric_eval(phi.target, phi.value(p))
    A = A_Y_endos(geom, ys, p, cfg)
    out = []
    for x in xs:
        for y, A_y in zip(ys, A):
            lhs = J @ (A_y @ x)
            sff = second_fundamental_form(phi, TangentVector(p, x), TangentVector(p, y), cfg)
            out.append({reading: float(np.sqrt(max(d @ gN @ d, 0.0)))
                        for reading, d in (("asserted", lhs + sff), ("printed", lhs - sff))})
    return out


def A_identity_residual(
    geom: SubmersionGeometry, X: TangentVector, Y: TangentVector,
    cfg: FDConfig = DEFAULT_FD,
) -> dict[str, float]:
    """The one-pair case of ``A_identity_residuals``."""
    return A_identity_residuals(geom, [X.components], [Y.components], X.base, cfg)[0]


def Pi_X_endo(
    geom: SubmersionGeometry, X: TangentVector, cfg: FDConfig = DEFAULT_FD,
) -> Array:
    """(Pi_phi)_X: the endomorphism of the horizontal space with
    phi_*((Pi_phi)_X Y) = Pi_phi(X, Y)."""
    phi = geom.phi
    p = X.base
    _, Pi_H = splitting_projectors(phi, p, cfg)
    L = horizontal_lift_matrix(phi, p, cfg)
    n = phi.source.dim
    cols = []
    for j in range(n):
        ej = np.zeros(n)
        ej[j] = 1.0
        val = second_fundamental_form(phi, X, TangentVector(p, Pi_H @ ej), cfg)
        cols.append(L @ val)
    return np.column_stack(cols) @ Pi_H


def Pi_X_endo_alt(
    geom: SubmersionGeometry, X: TangentVector, cfg: FDConfig = DEFAULT_FD,
) -> Array:
    """Cross-check variant: lift(nabla^phi_X phi_* Y) - (nabla_X Y)^top."""
    phi = geom.phi
    p = X.base
    _, Pi_H = splitting_projectors(phi, p, cfg)
    L = horizontal_lift_matrix(phi, p, cfg)
    n = phi.source.dim
    cols = []
    for j in range(n):
        ej = np.zeros(n)
        ej[j] = 1.0
        Yf = VectorField(eval=lambda q, e=ej: splitting_projectors(phi, q, cfg)[1] @ e)

        def pushed(q: Array, Yf=Yf) -> Array:
            return differential_matrix(phi, q, cfg) @ Yf.eval(q)

        first = L @ pullback_connection(phi, X, pushed, cfg)
        nab = covariant_derivative(phi.source, constant_field(X.components), Yf, p, cfg)
        cols.append(first - Pi_H @ nab.components)
    return np.column_stack(cols) @ Pi_H


def pushforward_endo(
    geom: SubmersionGeometry, p: Array, P0: Array, cfg: FDConfig = DEFAULT_FD,
) -> Array:
    """phi_* P0 on the target, by conjugation with the horizontal isomorphism."""
    phi = geom.phi
    Pi_V, Pi_H = splitting_projectors(phi, p, cfg)
    P0 = np.asarray(P0, dtype=float)
    scale = 1.0 + float(np.max(np.abs(P0)))
    if np.max(np.abs(P0 @ Pi_V)) > 1e-6 * scale or np.max(np.abs(Pi_V @ P0 @ Pi_H)) > 1e-6 * scale:
        raise ValueError("pushforward_endo expects an endomorphism of the horizontal space")
    J = differential_matrix(phi, p, cfg)
    L = horizontal_lift_matrix(phi, p, cfg)
    return J @ P0 @ L


def _frame_jet(
    geom: SubmersionGeometry, p: Array, dirs: Sequence[int], cfg: FDConfig,
    of: Callable[[Array, Array], Array] = lambda q, E: E,
) -> tuple[Array, Array, dict[int, Array]]:
    """(E, Gamma, dF) at p: the adapted frame E, the source Christoffel symbols
    and, for each a in ``dirs``, the derivative dF[a] along E[:, a] of the
    matrix field F(q) = of(q, E(q)).  One stencil of F per direction.
    """
    M, D = geom.phi.source, geom.horizontal
    E = adapted_frame(M, D, p).columns
    dF = {a: directional_diff(lambda q: of(q, adapted_frame(M, D, q).columns), p, E[:, a],
                              cfg.step_h) for a in dirs}
    return E, christoffel(M, p, cfg), dF


def div_bot(
    geom: SubmersionGeometry, C_field: Callable[[Array], Array], p: Array,
    cfg: FDConfig = DEFAULT_FD,
) -> Array:
    """Vertical divergence sum_A (nabla_{e_A} C(e_A))_perp of a horizontal endo field.

    One Christoffel evaluation and one stencil of C E per horizontal e_A.
    """
    Pi_V, _ = splitting_projectors(geom.phi, p, cfg)
    E, gamma, dCE = _frame_jet(geom, p, range(geom.rank), cfg,
                               lambda q, Eq: np.asarray(C_field(q), dtype=float) @ Eq)
    C = np.asarray(C_field(p), dtype=float)
    out = np.zeros(geom.phi.source.dim)
    for a, d in dCE.items():
        out += Pi_V @ (d[:, a] + np.einsum("kij,i,j->k", gamma, E[:, a], C @ E[:, a]))
    return out


def adapted_endo_field(
    geom: SubmersionGeometry, top: Optional[Array] = None, bot: Optional[Array] = None,
) -> EndomorphismField:
    """Endomorphism field with constant block coefficients in the adapted frame."""
    M, D = geom.phi.source, geom.horizontal
    n, k = M.dim, D.rank
    blk = np.zeros((n, n))
    if top is not None:
        blk[:k, :k] = np.asarray(top, dtype=float)
    if bot is not None:
        blk[k:, k:] = np.asarray(bot, dtype=float)

    def ev(q: Array) -> Array:
        E = adapted_frame(M, D, q).columns
        g = metric_eval(M, q)
        return E @ blk @ E.T @ g  # E^{-1} = E^T g for an orthonormal frame

    return EndomorphismField(eval=ev)


# ---------------------------------------------------------------------------
# the lift to frame bundles
# ---------------------------------------------------------------------------

def lift_map(geom: SubmersionGeometry, u: Frame, cfg: FDConfig = DEFAULT_FD) -> Frame:
    """Push the first k frame vectors forward: a frame on the target."""
    phi = geom.phi
    if od_membership_defect(phi.source, geom.horizontal, u) > 1e-6:
        raise ValueError("lift_map requires a frame adapted to the horizontal space")
    J = differential_matrix(phi, u.base, cfg)
    return Frame(phi.value(u.base), J @ u.columns[:, : geom.rank])


def lift_map_raw(phi: SubmersionSpec, k: int, x: Array, E: Array, cfg: FDConfig) -> tuple[Array, Array]:
    J = differential_matrix(phi, x, cfg)
    return phi.value(x), J @ E[:, :k]


def lift_differential_fd(
    geom: SubmersionGeometry, t: FrameTangent, cfg: FDConfig = DEFAULT_FD,
    check_tangency: bool = True,
) -> FrameTangent:
    """Central-difference differential of the lift along a frame tangent."""
    phi = geom.phi
    if check_tangency:
        resid = od_tangency_residual(phi.source, geom.horizontal, t, cfg)
        scale = 1.0 + np.linalg.norm(t.base_rate) + np.linalg.norm(t.frame_rate)
        if resid > cfg.tol_fd1 * 100 * scale:
            raise ValueError("input is not tangent to the adapted frame bundle")
    u = t.at
    k = geom.rank
    h = cfg.step_h if phi.jacobian is not None else cfg.step_h2
    yp, Fp = lift_map_raw(phi, k, u.base + h * t.base_rate, u.columns + h * t.frame_rate, cfg)
    ym, Fm = lift_map_raw(phi, k, u.base - h * t.base_rate, u.columns - h * t.frame_rate, cfg)
    at = lift_map(geom, u, cfg)
    return FrameTangent(at, (yp - ym) / (2.0 * h), (Fp - Fm) / (2.0 * h))


def lift_differential_formula(
    geom: SubmersionGeometry, case: str, value, u: Frame, cfg: FDConfig = DEFAULT_FD,
) -> FrameTangent:
    """Closed-form differential of the lift per input type.

      horizontal-of-H: X in the horizontal space ->
          (phi_* X)^h + (phi_*(Pi_phi)_X)*
      horizontal-of-V: Y vertical -> -(phi_* A_Y)*
      vertical: P adapted block-skew value -> (phi_* P_top)*

    The sign of the A-term follows from phi_* A_Y(X) = -Pi_phi(X, Y), which
    is forced by the definitions A_Y(X) = S_X Y and Pi_phi = nabla(phi_*)
    (extend Y vertically: the pullback term vanishes and only
    -phi_*(nabla_X Y) survives); the finite-difference differential
    confirms it.
    """
    phi = geom.phi
    p = u.base
    v = lift_map(geom, u, cfg)
    N = phi.target
    if case == "horizontal-of-H":
        X = TangentVector(p, value)
        img = differential(phi, X, cfg)
        push = pushforward_endo(geom, p, Pi_X_endo(geom, X, cfg), cfg)
        return horizontal_lift_frame(N, img, v, cfg) + fundamental_vertical(push, v)
    if case == "horizontal-of-V":
        Y = TangentVector(p, value)
        push = pushforward_endo(geom, p, A_Y_endo(geom, Y, cfg), cfg)
        return fundamental_vertical(-push, v)
    if case == "vertical":
        P0 = np.asarray(value, dtype=float)
        Pi_V, Pi_H = splitting_projectors(phi, p, cfg)
        top = Pi_H @ P0 @ Pi_H
        return fundamental_vertical(pushforward_endo(geom, p, top, cfg), v)
    raise ValueError(f"unknown case {case!r}")


def lift_distributions(
    geom: SubmersionGeometry, u: Frame, cfg: FDConfig = DEFAULT_FD,
) -> tuple[list[FrameTangent], list[FrameTangent]]:
    """Kernel and Mok-orthogonal bases of the lift differential at u.

    Kernel: adapted lifts of vertical vectors corrected by their A-endo,
    plus vertical directions from the so(n-k) block.  Orthogonal side:
    adapted lifts of W-preimages of horizontals, plus so(k)-block
    directions corrected by the W-preimage of the divergence.  The A and C
    corrections enter with plus signs (see ``lift_differential_formula``:
    the corrected A-identity flips both, and the div-duality then closes
    the cross orthogonality exactly as before).
    """
    phi = geom.phi
    M, D = phi.source, geom.horizontal
    p = u.base
    n, k = M.dim, D.rank
    onb = [TangentVector(p, u.columns[:, i]) for i in range(n)]
    Wm = W_endo(M, D, p, onb, cfg)
    g = metric_eval(M, p)

    Ep = adapted_frame(M, D, p).columns
    C_fields = [adapted_endo_field(geom, top=c) for c in skew_basis(k)]
    # adapted lifts of the verticals, of the W-preimages of the horizontals and
    # of the W-preimages of the divergences, in that order, from one S batch
    lifts = _adapted_horizontal_lifts(M, D, [TangentVector(p, x) for x in [
        *Ep[:, k:].T, *(W_inverse_apply(Wm, Ep[:, a]) for a in range(k)),
        *(W_inverse_apply(Wm, div_bot(geom, C.eval, p, cfg)) for C in C_fields)]], u, cfg)

    V_basis = [lift + fundamental_vertical(A, u)
               for lift, A in zip(lifts, A_Y_endos(geom, Ep[:, k:].T, p, cfg))]
    E = u.columns
    for b in skew_basis(n - k):
        blk = np.zeros((n, n))
        blk[k:, k:] = b
        V_basis.append(fundamental_vertical(E @ blk @ E.T @ g, u))

    H_basis = lifts[n - k:n] + [lift + fundamental_vertical(C.eval(p), u)
                                for lift, C in zip(lifts[n:], C_fields)]
    return V_basis, H_basis


def mean_curvature_fibers(
    geom: SubmersionGeometry, p: Array, cfg: FDConfig = DEFAULT_FD,
) -> TangentVector:
    """Mean curvature of the fiber through p: horizontal trace over vertical frame.

    One Christoffel evaluation and one frame stencil per vertical direction.
    """
    phi = geom.phi
    _, Pi_H = splitting_projectors(phi, p, cfg)
    E, gamma, dE = _frame_jet(geom, p, range(geom.rank, phi.source.dim), cfg)
    out = np.zeros(phi.source.dim)
    for a, d in dE.items():
        out += Pi_H @ (d[:, a] + np.einsum("kij,i,j->k", gamma, E[:, a], E[:, a]))
    return TangentVector(p, out)


def fiber_second_fundamental_defect(
    geom: SubmersionGeometry, p: Array, cfg: FDConfig = DEFAULT_FD,
) -> float:
    """Max horizontal norm of the fibers' second fundamental form at p.

    One Christoffel evaluation and one frame stencil per vertical direction.
    """
    phi = geom.phi
    n = phi.source.dim
    gN_ = metric_eval(phi.source, p)
    _, Pi_H = splitting_projectors(phi, p, cfg)
    E, gamma, dE = _frame_jet(geom, p, range(geom.rank, n), cfg)

    def nabla(a: int, b: int) -> Array:  # nabla_{e_a} e_b
        return dE[a][:, b] + np.einsum("kij,i,j->k", gamma, E[:, a], E[:, b])

    worst = 0.0
    for a in range(geom.rank, n):
        for b in range(a, n):
            B = Pi_H @ (0.5 * (nabla(a, b) + nabla(b, a)))
            worst = max(worst, float(np.sqrt(max(B @ gN_ @ B, 0.0))))
    return worst


def tension_field(
    phi: SubmersionSpec, p: Array, cfg: FDConfig = DEFAULT_FD,
    geom: Optional[SubmersionGeometry] = None,
) -> Array:
    """Tension field at p: the trace of the second fundamental form.

    sum_a nabla^phi_{e_a}(phi_* e_a) - phi_*(nabla_{e_a} e_a), from one
    Christoffel evaluation on each side and one stencil of the stacked
    (J E, E) per frame direction.
    """
    geom = geom if geom is not None else derive_geometry(phi, cfg)
    k = phi.target.dim
    E, gamma, dF = _frame_jet(geom, p, range(phi.source.dim), cfg,
                              lambda q, Eq: np.vstack([differential_matrix(phi, q, cfg) @ Eq, Eq]))
    J = differential_matrix(phi, p, cfg)
    gammaN = christoffel(phi.target, phi.value(p), cfg)
    out = np.zeros(k)
    for a, d in dF.items():
        Je = J @ E[:, a]
        out += d[:k, a] + christoffel_contract(gammaN, Je) @ Je
        out -= J @ (d[k:, a] + np.einsum("kij,i,j->k", gamma, E[:, a], E[:, a]))
    return out


def tension_conformal_display(
    geom: SubmersionGeometry, p: Array, cfg: FDConfig = DEFAULT_FD,
) -> Array:
    """Simplified tension for horizontally conformal maps:
    -(n-2)/2 phi_* grad(ln lambda) - phi_*(H_fibers)."""
    phi = geom.phi
    n = phi.source.dim
    g = metric_eval(phi.source, p)
    dlnlam = central_diff(
        lambda q: np.array([np.log(dilatation(phi, q, cfg, geom)[0])]), p, cfg.step_h
    )[:, 0]
    grad = np.linalg.solve(g, dlnlam)
    J = differential_matrix(phi, p, cfg)
    H = mean_curvature_fibers(geom, p, cfg)
    return -0.5 * (n - 2) * (J @ grad) - J @ H.components


# ---------------------------------------------------------------------------
# measured conformality of the lift and classification
# ---------------------------------------------------------------------------

def lift_conformality_measurement(
    geom: SubmersionGeometry, u: Frame, cfg: FDConfig = DEFAULT_FD,
) -> tuple[float, float]:
    """(Lambda, defect) of the lift at the frame u, measured directly.

    The orthogonal basis is Mok-orthonormalized, pushed through the
    finite-difference lift differential, and its target Mok Gram matrix is
    compared against Lambda times the identity.
    """
    phi = geom.phi
    _, H_basis = lift_distributions(geom, u, cfg)
    W_on = mok_orthonormalize(phi.source, H_basis, cfg)
    imgs = [lift_differential_fd(geom, w, cfg, check_tangency=False) for w in W_on]
    m = len(imgs)
    G = mok_gram(phi.target, imgs, cfg)
    Lam = float(np.trace(G) / m)
    defect = float(np.max(np.abs(G - Lam * np.eye(m))))
    return Lam, defect


def decide(residual: float, cfg: FDConfig = DEFAULT_FD,
           hi: float = 0.01) -> Optional[bool]:
    """Three-way verdict: holds / fails / inconclusive (None).

    Residual below 10 tol_fd2 means the property holds, above ``hi`` it
    fails; anything between is flagged inconclusive so that silent
    misclassification is impossible.
    """
    if residual < 10.0 * cfg.tol_fd2:
        return True
    if residual > hi:
        return False
    return None


@dataclass
class ClassificationReport:
    """Residual-backed flags for a submersion and its lift."""

    name: str = ""
    conformal_defect: float = np.nan
    dilatation_samples: list = dataclass_field(default_factory=list)
    dilatation_std: float = np.nan
    horizontally_conformal: Optional[bool] = None
    dilatation_constant: Optional[bool] = None
    totally_geodesic_defect: float = np.nan
    totally_geodesic: Optional[bool] = None
    fibers_defect: float = np.nan
    fibers_totally_geodesic: Optional[bool] = None
    h_integrability_defect: float = np.nan
    h_integrable: Optional[bool] = None
    tension_max: float = np.nan
    harmonic: Optional[bool] = None
    harmonic_morphism: Optional[bool] = None
    lift_conformal_predicted: Optional[bool] = None
    lift_defect_measured: float = np.nan
    lift_lambda_samples: list = dataclass_field(default_factory=list)
    lift_lambda_std: float = np.nan
    lift_lambda_vs_base_max: float = np.nan
    lift_conformal_measured: Optional[bool] = None
    lift_harmonic_morphism_predicted: Optional[bool] = None
    verdicts_agree: Optional[bool] = None


def classify(
    phi: SubmersionSpec,
    points: Sequence[Array],
    cfg: FDConfig = DEFAULT_FD,
    geom: Optional[SubmersionGeometry] = None,
) -> ClassificationReport:
    """Classify a submersion and measure its lift over the sample points."""
    geom = geom if geom is not None else derive_geometry(phi, cfg)
    rep = ClassificationReport(name=phi.name)
    gN = lambda y: metric_eval(phi.target, y)  # noqa: E731

    lam_list, conf_defect, tg_defect, fib_defect, integ_defect, tension_norms = [], 0.0, 0.0, 0.0, 0.0, []
    for p in points:
        lam, defect = dilatation(phi, p, cfg, geom)
        lam_list.append(lam)
        conf_defect = np.maximum(conf_defect, defect)

        basis = full_adapted_basis(geom, p)
        y = phi.value(p)
        gy = gN(y)
        gp = metric_eval(phi.source, p)
        for i in range(len(basis)):
            for j in range(i, len(basis)):
                val = second_fundamental_form(phi, basis[i], basis[j], cfg)
                tg_defect = np.maximum(tg_defect, float(np.sqrt(max(val @ gy @ val, 0.0))))

        fib_defect = np.maximum(fib_defect, fiber_second_fundamental_defect(geom, p, cfg))

        hb = basis[:geom.rank]
        for a in range(len(hb)):
            for b in range(a + 1, len(hb)):
                td = torsion_TD(
                    phi.source, geom.horizontal,
                    constant_field(hb[a].components), constant_field(hb[b].components),
                    p, cfg,
                )
                integ_defect = np.maximum(
                    integ_defect,
                    float(np.sqrt(max(td.components @ gp @ td.components, 0.0))),
                )

        tau = tension_field(phi, p, cfg, geom)
        tension_norms.append(float(np.sqrt(max(tau @ gy @ tau, 0.0))))

    rep.conformal_defect = conf_defect
    rep.dilatation_samples = lam_list
    rep.dilatation_std = float(np.std(lam_list))
    rep.horizontally_conformal = decide(conf_defect, cfg)
    if not np.isnan(rep.dilatation_std):  # also NaN whenever the mean is
        rep.dilatation_constant = rep.dilatation_std < cfg.tol_fd1 * (1.0 + float(np.mean(lam_list)))
    rep.totally_geodesic_defect = tg_defect
    rep.totally_geodesic = decide(tg_defect, cfg)
    rep.fibers_defect = fib_defect
    rep.fibers_totally_geodesic = decide(fib_defect, cfg)
    rep.h_integrability_defect = integ_defect
    rep.h_integrable = decide(integ_defect, cfg)
    rep.tension_max = float(np.max(tension_norms))
    rep.harmonic = decide(rep.tension_max, cfg)
    if None not in (rep.horizontally_conformal, rep.harmonic):
        rep.harmonic_morphism = rep.horizontally_conformal and rep.harmonic
    if None not in (rep.horizontally_conformal, rep.totally_geodesic, rep.dilatation_constant):
        rep.lift_conformal_predicted = (
            rep.horizontally_conformal and rep.dilatation_constant and rep.totally_geodesic
        )
    if None not in (rep.harmonic_morphism, rep.totally_geodesic, rep.dilatation_constant):
        rep.lift_harmonic_morphism_predicted = (
            rep.harmonic_morphism and rep.totally_geodesic and rep.dilatation_constant
        )

    Lams, lift_defect, vs_base = [], 0.0, 0.0
    for p, lam in zip(points, lam_list):
        u = adapted_frame(phi.source, geom.horizontal, p)
        Lam, defect = lift_conformality_measurement(geom, u, cfg)
        Lams.append(Lam)
        lift_defect = np.maximum(lift_defect, defect)
        vs_base = np.maximum(vs_base, abs(Lam - lam))
    rep.lift_lambda_samples = Lams
    rep.lift_lambda_std = float(np.std(Lams))
    rep.lift_defect_measured = lift_defect
    rep.lift_lambda_vs_base_max = vs_base
    spread = float(np.max(Lams) - np.min(Lams)) if Lams else 0.0
    rep.lift_conformal_measured = decide(np.maximum(lift_defect, spread), cfg)
    if None not in (rep.lift_conformal_measured, rep.lift_conformal_predicted):
        rep.verdicts_agree = rep.lift_conformal_measured == rep.lift_conformal_predicted
    return rep


# ---------------------------------------------------------------------------
# direct tension of the lift on a small total space
# ---------------------------------------------------------------------------

def lift_tension_direct(
    geom: SubmersionGeometry, x0: Array, cfg: FDConfig = DEFAULT_FD,
) -> dict:
    """Ambient tension of the lift as a map of total-space charts.

    Returns the g_{L(N)} norms of the full tension vector, of its component
    tangent to the image of the lift differential, and of the normal
    remainder.  Expensive; intended for low-dimensional examples only.
    """
    phi = geom.phi
    M, D = phi.source, geom.horizontal
    src_chart = adapted_chart(M, D)
    tgt_chart = LMChart(phi.target)
    src_total = total_space_manifold(src_chart, cfg)
    tgt_total = total_space_manifold(tgt_chart, cfg)
    k = geom.rank

    def F(q: Array) -> Array:
        u = src_chart.decode(q)
        y, Fm = lift_map_raw(phi, k, u.base, u.columns, cfg)
        return tgt_chart.join(y, Fm)

    q0 = src_chart.join(x0, np.zeros(src_chart.dim - M.dim))
    m = src_chart.dim

    def on_frame(q: Array) -> Array:
        # columns: the coordinate basis orthonormalised in the induced metric
        return orthonormalizer(induced_metric_on_chart(src_chart, q, cfg)).T

    cfg_total = replace(cfg, step_h=cfg.step_h2)
    E0 = on_frame(q0)
    J_F = central_diff(F, q0, cfg.step_h).T  # (tgt_dim, m)
    y0 = F(q0)
    gamma_tgt = christoffel(tgt_total, y0, cfg_total)

    tau = np.zeros(tgt_chart.dim)
    for i in range(m):
        Ei_val = E0[:, i]

        def Ei_field(q: Array, i=i) -> Array:
            return on_frame(q)[:, i]

        def pushed(q: Array, Ei_field=Ei_field) -> Array:
            return directional_diff(F, q, Ei_field(q), cfg.step_h)

        dW = directional_diff(pushed, q0, Ei_val, cfg.step_h2)
        tau += dW + christoffel_contract(gamma_tgt, J_F @ Ei_val) @ pushed(q0)
        nab = covariant_derivative(
            src_total, constant_field(Ei_val), VectorField(eval=Ei_field), q0, cfg_total
        )
        tau -= J_F @ nab.components

    G_tgt = induced_metric_on_chart(tgt_chart, y0, cfg)
    span = J_F  # columns span the image tangent space
    A = span.T @ G_tgt @ span
    b = span.T @ G_tgt @ tau
    coef, *_ = np.linalg.lstsq(A, b, rcond=None)
    tang = span @ coef
    normal = tau - tang

    def tgt_norm(v: Array) -> float:
        return float(np.sqrt(max(v @ G_tgt @ v, 0.0)))

    return {
        "ambient": tgt_norm(tau),
        "tangential": tgt_norm(tang),
        "normal": tgt_norm(normal),
    }
