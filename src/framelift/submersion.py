"""Submersions between charts and their lifts to frame bundles.

Covers the horizontal/vertical geometry of a submersion (projectors,
dilatation, second fundamental form, the A and div operators), the lift
to the adapted orthonormal frame bundle with its differential and
kernel/orthogonal distributions, and the conformality and harmonicity
classification driven by those objects.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
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
    _christoffel_from,
    _difference,
    _directional_stencil,
    _g_norm,
    central_diff,
    christoffel,
    christoffel_contract,
    directional_diff,
    metric_derivative_eval,
    metric_eval,
    reference_frame,
)
from .frames import (
    Frame,
    FrameTangent,
    LMChart,
    frame_diff,
    fundamental_vertical,
    horizontal_lift_frame,
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
    _torsion,
    adapted_chart,
    adapted_frame,
    od_membership_defect,
    od_tangency_residual,
)

@dataclass(frozen=True)
class SubmersionSpec:
    """A coordinate submersion between two charts.

    ``jacobian`` (target_dim, source_dim) is the exact differential and
    ``vertical_fields`` are smooth fields spanning its kernel; both are
    required, as the horizontal splitting and the adapted seed frame read them.

    ``map``, ``jacobian`` and the fields' ``eval`` take points with leading
    axes, p of shape (..., source_dim), and return their value per point with
    the same leading axes, as the fields of a ``ChartManifold`` do: a
    difference stencil of the splitting is one call.  A stack's rows equal
    row-by-row calls bit for bit.
    """

    source: ChartManifold
    target: ChartManifold
    map: Callable[[Array], Array]
    jacobian: Callable[[Array], Array]
    vertical_fields: Sequence[VectorField]
    name: str = ""

    def value(self, p: Array) -> Array:
        return np.asarray(self.map(p), dtype=float)


def differential_matrix(phi: SubmersionSpec, p: Array) -> Array:
    """Jacobian d(phi) at points p (..., source_dim), shape (..., target_dim, source_dim)."""
    return np.asarray(phi.jacobian(p), dtype=float)


def _horizontal_span(phi: SubmersionSpec, p: Array) -> tuple[Array, Array]:
    """(J, A) at points p: the differential and A = g^-1 J^T, whose columns span
    the horizontal space."""
    J = differential_matrix(phi, p)
    return J, np.linalg.solve(metric_eval(phi.source, p), J.swapaxes(-1, -2))


Split = tuple[Array, Array, Array]  # (J, L, Pi_H), as ``splitting`` returns them


def splitting(phi: SubmersionSpec, p: Array) -> Split:
    """(J, L, Pi_H) at points p (..., n) from one span: the differential, its horizontal
    lift L = A (J A)^-1 for A = g^-1 J^T, and the g-orthogonal projector Pi_H = A (J A)^-1 J
    onto the complement of ker d(phi).  d(phi) is rank deficient where the smallest
    eigenvalue of the k x k SPD matrix J A is not above k eps times its largest; any such
    point of the stack raises.  A slice of the three arrays splits a subset of p."""
    J, A = _horizontal_span(phi, p)
    JA = J @ A
    eig = np.linalg.eigvalsh(JA)  # ascending
    if not (eig[..., 0] > JA.shape[-1] * np.finfo(float).eps * eig[..., -1]).all():
        raise ValueError("differential is rank deficient at a sample point")
    return J, A @ np.linalg.inv(JA), A @ np.linalg.solve(JA, J)


def splitting_projectors(phi: SubmersionSpec, p: Array) -> tuple[Array, Array]:
    """(Pi_V, Pi_H): g-orthogonal projectors onto ker d(phi) and its complement,
    at points p (..., n), each (..., n, n), from ``splitting``."""
    Pi_H = splitting(phi, p)[2]
    return np.eye(phi.source.dim) - Pi_H, Pi_H


@dataclass(frozen=True)
class SubmersionGeometry:
    """Derived horizontal/vertical geometry of a submersion."""

    phi: SubmersionSpec
    horizontal: DistributionSpec  # D = the horizontal distribution

    @property
    def rank(self) -> int:
        return self.horizontal.rank


def derive_geometry(phi: SubmersionSpec) -> SubmersionGeometry:
    """Build the horizontal DistributionSpec: the projector and the seed frame.

    The seed frame at q is g^-1 J^T (one solve) followed by the kernel fields.
    Both take points with leading axes, as ``SubmersionSpec`` does.
    """

    def projector(q: Array) -> Array:
        return splitting_projectors(phi, q)[1]

    def seed_frame(q: Array) -> Array:
        _, A = _horizontal_span(phi, q)
        vertical = [np.asarray(f.eval(q), dtype=float)[..., None] for f in phi.vertical_fields]
        return np.concatenate([A, *vertical], axis=-1)

    horizontal = DistributionSpec(rank=phi.target.dim, projector_field=projector, seed_frame=seed_frame)
    return SubmersionGeometry(phi=phi, horizontal=horizontal)


def horizontal_basis(geom: SubmersionGeometry, p: Array) -> list[TangentVector]:
    """Orthonormal basis of the horizontal space at p (first k adapted columns)."""
    E = adapted_frame(geom.phi.source, geom.horizontal, p).columns
    return [TangentVector(p, E[..., :, a]) for a in range(geom.rank)]


def vertical_basis(geom: SubmersionGeometry, p: Array) -> list[TangentVector]:
    E = adapted_frame(geom.phi.source, geom.horizontal, p).columns
    return [TangentVector(p, E[..., :, a]) for a in range(geom.rank, geom.phi.source.dim)]


def dilatation(geom: SubmersionGeometry, u: Frame) -> tuple[Array, Array]:
    """(lambda, defect): g_N(phi_* X, phi_* Y) = lambda g_M(X, Y) on horizontals.

    lambda is the mean of the horizontal Gram diagonal; the defect is the
    max deviation of the Gram matrix from lambda times the identity, zero
    exactly when the map is horizontally conformal.  Read from the
    horizontal columns of the adapted frame u, ``adapted_frame(M, D, p)``;
    for a stack of frames both have the frames' leading shape, and any point
    with lambda <= 0 raises.
    """
    phi, k, p = geom.phi, geom.rank, u.base
    JE = differential_matrix(phi, p) @ u.columns[..., :, :k]
    G = JE.swapaxes(-1, -2) @ metric_eval(phi.target, phi.value(p)) @ JE  # Gram of the pushed E_H
    lam = np.trace(G, axis1=-2, axis2=-1) / k
    defect = np.max(np.abs(G - lam[..., None, None] * np.eye(k)), axis=(-2, -1))
    if not (lam > 0).all():
        raise ValueError("dilatation must be positive for a submersion")
    return lam, defect


def second_fundamental_tensor(phi: SubmersionSpec, p: Array, cfg: FDConfig = DEFAULT_FD) -> Array:
    """The second fundamental form nabla d(phi) at points p (..., n) as a tensor,

        B[..., c, i, j] = d_i J^c_j + Gamma^N(J d_i, J d_j)^c - J^c_m Gamma^m_ij,

    from one difference stencil of the differential J and one Christoffel
    evaluation on each side.  Symmetric in (i, j) up to the difference error of
    d_i J_j.  Every reader of nabla d(phi) contracts it: the form on vector
    pairs, (Pi_phi)_X, the A-identity, the tension field and ``classify``.
    """
    p = np.asarray(p, dtype=float)
    J = differential_matrix(phi, p)
    dJ = central_diff(lambda q: differential_matrix(phi, q), p, cfg.step_h)  # [..., i, c, j]
    gamma_N = christoffel(phi.target, phi.value(p))
    pulled = J.swapaxes(-1, -2)[..., None, :, :] @ gamma_N @ J[..., None, :, :]
    return (dJ.swapaxes(-3, -2) + pulled
            - np.einsum("...cm,...mij->...cij", J, christoffel(phi.source, p)))


def _bilinear(B: Array, x: Array, y: Array) -> Array:
    """B(x, y)^c = B[c, i, j] x^i y^j for vectors x, y (..., n) broadcasting with B's points."""
    return ((x[..., None, None, :] @ B) @ y[..., None, :, None])[..., 0, 0]


def _metric_trace(B: Array, g: Array) -> Array:
    """g^{ij} B[..., c, i, j]: the trace of B over the metric g."""
    return np.einsum("...ij,...cij->...c", np.linalg.inv(g), B)


def second_fundamental_form(
    phi: SubmersionSpec, X: TangentVector, Y: TangentVector,
    cfg: FDConfig = DEFAULT_FD,
) -> Array:
    """Second fundamental form value at (X, Y), a target tangent vector per point:
    ``second_fundamental_tensor`` at X's base points contracted with X and Y."""
    return _bilinear(second_fundamental_tensor(phi, X.base, cfg), X.components, Y.components)


def A_Y_endos(ys: Sequence[Array], S: Array, Pi_H: Array) -> list[Array]:
    """A_Y, an endomorphism of the horizontal space, for each vertical Y in ``ys``.

    The caller's S = ``S_components`` of the horizontal distribution and Pi_H =
    ``D.projector`` at the points p (..., n) serve the whole batch, whose verticality
    guard reads Pi_V = I - Pi_H.  Each y is a vector per point, and a Y that is not
    vertical at any point raises.
    """
    Pi_V = np.eye(Pi_H.shape[-1]) - Pi_H
    out = []
    for y in ys:
        y = np.asarray(y, dtype=float)
        if (np.max(np.abs((Pi_V @ y[..., None])[..., 0] - y), axis=-1)
                > 1e-6 * (1 + np.linalg.norm(y, axis=-1))).any():
            raise ValueError("A_Y requires a vertical argument")
        out.append(Pi_H @ (S @ y[..., None, :, None])[..., 0] @ Pi_H)  # [:, j] = S_{e_j} Y
    return out


def A_identity_residuals(
    geom: SubmersionGeometry, xs: Sequence[Array], ys: Sequence[Array], p: Array, B: Array,
    S: Array, Pi_H: Array,
) -> list[dict[str, Array]]:
    """Residuals of phi_* A_Y(X) = sign * Pi_phi(X, Y), horizontal X, vertical Y.

    One dict per (x, y) pair, x-major.  The identity holds with sign -1
    ("asserted") under the definitions used here (A via the difference
    tensor, the second fundamental form via the pullback connection); the
    printed sign +1 ("printed") is kept for diagnostics.  Both come from
    one evaluation of J and of every A_Y (one ``A_Y_endos`` batch of the caller's S and Pi_H) and
    the caller's B = ``second_fundamental_tensor(phi, p)``, contracted for all pairs at once.  For
    points p (..., n) each x and y is a vector per point, and so is each residual.
    """
    phi = geom.phi
    J = differential_matrix(phi, p)
    gN = metric_eval(phi.target, phi.value(p))
    A = np.asarray(A_Y_endos(ys, S, Pi_H))  # (len(ys), ..., n, n)
    x = np.asarray(xs, dtype=float)[:, None]  # (len(xs), 1, ..., n): pairs broadcast x-major
    lhs = (J @ (A @ x[..., None]))[..., 0]
    sff = _bilinear(B, x, np.asarray(ys, dtype=float))
    asserted, printed = _g_norm(gN, lhs + sff), _g_norm(gN, lhs - sff)
    return [{"asserted": a, "printed": b}
            for a, b in zip(asserted.reshape(-1, *asserted.shape[2:]),
                            printed.reshape(-1, *printed.shape[2:]))]


def Pi_X_endo(split: Split, x: Array, B: Array) -> Array:
    """(Pi_phi)_X: the endomorphism of the horizontal space with
    phi_*((Pi_phi)_X Y) = Pi_phi(X, Y), L B(X, Pi_H .) for the caller's
    split = (J, L, Pi_H), ``splitting`` at the points of x, and B =
    ``second_fundamental_tensor`` there; a stack for a stack of x."""
    _, L, Pi_H = split
    B_X = (np.asarray(x, dtype=float)[..., None, None, :] @ B)[..., 0, :]
    return L @ B_X @ Pi_H


def Pi_X_endo_alt(
    geom: SubmersionGeometry, X: TangentVector, split: Split, cfg: FDConfig = DEFAULT_FD,
) -> Array:
    """Cross-check variant: lift(nabla^phi_X phi_* Y) - (nabla_X Y)^top for the fields
    Y = Pi_H d_j, the columns of Pi_H, all at once: one ``splitting`` on the stencil of
    Pi_H and J Pi_H along X, and the caller's split = ``splitting`` at X's base points
    for the values there; a stack for a stack of X."""
    phi, p, x = geom.phi, X.base, X.components
    n = phi.source.dim

    def Y_and_pushed(q: Array) -> Array:
        J, _, Pi_H = splitting(phi, q)
        return np.concatenate([Pi_H, J @ Pi_H], axis=-2)

    d = directional_diff(Y_and_pushed, p, x, cfg.step_h)
    J, L, Pi_H = split
    gx = christoffel_contract(christoffel(phi.source, p), x)
    gxN = christoffel_contract(christoffel(phi.target, phi.value(p)), (J @ x[..., None])[..., 0])
    first = L @ (d[..., n:, :] + gxN @ J @ Pi_H)
    nab = d[..., :n, :] + gx @ Pi_H
    return (first - Pi_H @ nab) @ Pi_H


def pushforward_endo(split: Split, P0: Array) -> Array:
    """phi_* P0 on the target, by conjugation with the horizontal isomorphism: J P0 L
    for the caller's split = (J, L, Pi_H), ``splitting`` at P0's points.  P0 must be
    an endomorphism of the horizontal space, which Pi_V = I - Pi_H checks."""
    J, L, Pi_H = split
    Pi_V = np.eye(Pi_H.shape[-1]) - Pi_H
    P0 = np.asarray(P0, dtype=float)
    scale = 1.0 + float(np.max(np.abs(P0)))
    if np.max(np.abs(P0 @ Pi_V)) > 1e-6 * scale or np.max(np.abs(Pi_V @ P0 @ Pi_H)) > 1e-6 * scale:
        raise ValueError("pushforward_endo expects an endomorphism of the horizontal space")
    return J @ P0 @ L


def _frame_jet(
    geom: SubmersionGeometry, u: Frame, dirs: Sequence[int], cfg: FDConfig,
    of: Callable[[Array, Array], Array] = lambda q, E: E,
) -> Array:
    """dF[..., a, ...] at the adapted frames u: the derivative along the column
    u[:, dirs[a]] of the matrix field F(q) = of(q, E(q)) of the adapted frames E.  One
    stencil of F for all directions: ``of`` takes points q (..., n) and frames E (..., n, n)."""
    M, D = geom.phi.source, geom.horizontal
    return directional_diff(lambda q: of(q, adapted_frame(M, D, q).columns), u.base[..., None, :],
                            u.columns[..., :, list(dirs)].swapaxes(-1, -2), cfg.step_h)


def div_bot(
    geom: SubmersionGeometry, tops: Array, u: Frame, gamma: Array, Pi_H: Array,
    cfg: FDConfig = DEFAULT_FD,
) -> Array:
    """Vertical divergence sum_A (nabla_{e_A} C(e_A))_perp of the horizontal endo field
    C = ``adapted_endo_field(geom, top=top)`` for each block of ``tops`` (T, k, k), at
    the adapted frames u, ``adapted_frame(M, D, p)``: (T, ..., n).  Blocks (T, ..., k, k)
    give a block per frame of a stack.

    Linear in top, so the caller's Gamma and Pi_H at u's base points, ``gamma`` and
    ``Pi_H``, and one stencil of C E over the horizontal e_A serve every block; each
    stencil point forms C from the adapted frame it has already built.
    """
    M, k = geom.phi.source, geom.rank
    p, E = u.base, u.columns
    blk = np.moveaxis(_block_coefficients(M.dim, k, tops, None), 0, -3)  # (..., T, n, n)
    Pi_V = np.eye(M.dim) - Pi_H
    dCE = _frame_jet(geom, u, range(k), cfg, lambda q, Eq: _adapted_endo(
        M, blk[..., None, :, :, :], q[..., None, :], Eq[..., None, :, :]) @ Eq[..., None, :, :])
    CE = _adapted_endo(M, blk, p[..., None, :], E[..., None, :, :]) @ E[..., None, :, :k]
    # dCE[..., A, t, :, A] is the derivative of C e_A along e_A
    v = (np.einsum("...atia->...ti", dCE[..., :k])
         + np.einsum("...mij,...ia,...tja->...tm", gamma, E[..., :, :k], CE))
    return np.moveaxis((Pi_V[..., None, :, :] @ v[..., None])[..., 0], -2, 0)


def _block_coefficients(n: int, k: int, top: Optional[Array], bot: Optional[Array]) -> Array:
    """The (n, n) block-diagonal coefficients, a stack of them for a stack of ``top`` blocks."""
    blk = np.zeros(np.shape(top)[:-2] + (n, n))
    if top is not None:
        blk[..., :k, :k] = np.asarray(top, dtype=float)
    if bot is not None:
        blk[..., k:, k:] = np.asarray(bot, dtype=float)
    return blk


def _adapted_endo(M: ChartManifold, blk: Array, q: Array, E: Array) -> Array:
    """E blk E^{-1} at points q for the orthonormal frames E there, where E^{-1} = E^T g."""
    return E @ blk @ E.swapaxes(-1, -2) @ metric_eval(M, q)


def adapted_endo_field(
    geom: SubmersionGeometry, top: Optional[Array] = None, bot: Optional[Array] = None,
) -> EndomorphismField:
    """Endomorphism field with constant block coefficients in the adapted frame."""
    M, D = geom.phi.source, geom.horizontal
    blk = _block_coefficients(M.dim, D.rank, top, bot)
    return EndomorphismField(eval=lambda q: _adapted_endo(M, blk, q, adapted_frame(M, D, q).columns))


# ---------------------------------------------------------------------------
# the lift to frame bundles
# ---------------------------------------------------------------------------

def lift_map(geom: SubmersionGeometry, u: Frame, Pi_H: Array) -> Frame:
    """Push the first k frame vectors forward: a frame on the target (a stack for a stack).
    The O(D) guard reads the caller's Pi_H = ``D.projector`` at u's base points."""
    phi, D = geom.phi, geom.horizontal
    if od_membership_defect(phi.source, D, u, Pi_H) > 1e-6:
        raise ValueError("lift_map requires a frame adapted to the horizontal space")
    return Frame(*lift_map_raw(phi, geom.rank, u.base, u.columns))


def lift_map_raw(phi: SubmersionSpec, k: int, x: Array, E: Array) -> tuple[Array, Array]:
    J = differential_matrix(phi, x)
    return phi.value(x), J @ E[..., :, :k]


def lift_differential_fd(
    geom: SubmersionGeometry, t: FrameTangent, Pi_H: Array, cfg: FDConfig = DEFAULT_FD,
    check_tangency: bool = True,
) -> FrameTangent:
    """Central-difference differential of the lift along a frame tangent, or along a
    stack of them (``FrameTangent.stack`` puts many tangents at one frame in a stack),
    by ``frame_diff`` of ``lift_map_raw``.  Any tangent of a stack that leaves O(D)
    raises; the tangency test builds its own projectors, and the caller's Pi_H at t's
    base points serves only the O(D) guard of ``lift_map`` there."""
    phi = geom.phi
    if check_tangency:
        resid = od_tangency_residual(phi.source, geom.horizontal, t, cfg)
        scale = 1.0 + np.linalg.norm(t.base_rate, axis=-1) + np.linalg.norm(t.frame_rate, axis=(-2, -1))
        if (resid > cfg.tol_fd1 * 100 * scale).any():
            raise ValueError("input is not tangent to the adapted frame bundle")
    dy, dF = frame_diff(lambda x, E: lift_map_raw(phi, geom.rank, x, E), t, cfg.step_h)
    return FrameTangent(lift_map(geom, t.at, Pi_H), dy, dF)


def lift_differential_formula(
    geom: SubmersionGeometry, case: str, value, u: Frame, S: Array, B: Array, split: Split,
) -> FrameTangent:
    """Closed-form differential of the lift per input type, at the frame u or at a
    stack of frames with one value each, from the caller's values at u's base points:
    S = ``S_components`` of the horizontal distribution, which the A-term contracts,
    B = ``second_fundamental_tensor``, which (Pi_phi)_X reads, and split = (J, L, Pi_H)
    = ``splitting``, whose J pushes X forward and conjugates every endomorphism.

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
    J, _, Pi_H = split
    v = lift_map(geom, u, Pi_H)
    if case == "horizontal-of-H":
        x = np.asarray(value, dtype=float)
        pushed = TangentVector(v.base, (J @ x[..., None])[..., 0])
        return (horizontal_lift_frame(christoffel(geom.phi.target, v.base), pushed, v)
                + fundamental_vertical(pushforward_endo(split, Pi_X_endo(split, x, B)), v))
    if case == "horizontal-of-V":
        return fundamental_vertical(-pushforward_endo(split, A_Y_endos([value], S, Pi_H)[0]), v)
    if case == "vertical":
        return fundamental_vertical(pushforward_endo(split, Pi_H @ np.asarray(value, dtype=float) @ Pi_H), v)
    raise ValueError(f"unknown case {case!r}")


def lift_distributions(
    geom: SubmersionGeometry, u: Frame, gamma: Array, Pi_H: Array, S: Array,
    cfg: FDConfig = DEFAULT_FD,
) -> tuple[list[FrameTangent], list[FrameTangent]]:
    """Kernel and Mok-orthogonal bases of the lift differential at u.

    Kernel: adapted lifts of vertical vectors corrected by their A-endo,
    plus vertical directions from the so(n-k) block.  Orthogonal side:
    adapted lifts of W-preimages of horizontals, plus so(k)-block
    directions corrected by the W-preimage of the divergence.  The A and C
    corrections enter with plus signs (see ``lift_differential_formula``:
    the corrected A-identity flips both, and the div-duality then closes
    the cross orthogonality exactly as before).  u is the adapted frame at
    its base points, ``adapted_frame(M, D, p)``, whose columns the bases
    read.  The caller's Gamma, Pi_H = ``D.projector`` and S = ``S_components`` at
    u's base points serve the adapted lifts (with their one O(D) check), the
    A-corrections and the divergences; W contracts S.  At a stack of frames each
    basis tangent is a stack, one per frame.
    """
    phi = geom.phi
    M, D = phi.source, geom.horizontal
    p, Ep = u.base, u.columns
    n, k = M.dim, D.rank
    Wm = W_endo(metric_eval(M, p), u, S)

    verticals = np.moveaxis(Ep[..., :, k:], -1, 0)
    tops = np.reshape(skew_basis(k), (-1, k, k))
    # adapted lifts of the verticals, of the W-preimages of the horizontals and
    # of the W-preimages of the divergences, in that order, in one batch
    lifts = _adapted_horizontal_lifts(M, D, [TangentVector(p, x) for x in [
        *verticals, *(W_inverse_apply(Wm, Ep[..., :, a]) for a in range(k)),
        *W_inverse_apply(Wm, div_bot(geom, tops, u, gamma, Pi_H, cfg))]], u, gamma, Pi_H, S)

    V_basis = [lift + fundamental_vertical(A, u)
               for lift, A in zip(lifts, A_Y_endos(verticals, S, Pi_H))]
    V_basis += [
        fundamental_vertical(_adapted_endo(M, _block_coefficients(n, k, None, b), p, Ep), u)
        for b in skew_basis(n - k)]

    H_basis = lifts[n - k:n] + [
        lift + fundamental_vertical(_adapted_endo(M, _block_coefficients(n, k, c, None), p, Ep), u)
        for lift, c in zip(lifts[n:], tops)]
    return V_basis, H_basis


def fiber_second_fundamental_form(
    geom: SubmersionGeometry, u: Frame, gamma: Array, Pi_H: Array, cfg: FDConfig = DEFAULT_FD,
) -> Array:
    """Second fundamental form of the fibres on the vertical columns e_a of the adapted
    frames u, ``adapted_frame(M, D, p)``: F[..., a, b, :] = Pi_H (nabla_{e_a} e_b +
    nabla_{e_b} e_a) / 2 for a, b < n - k.

    The caller's Gamma and Pi_H at u's base points, and one frame stencil over the
    vertical directions.  Built from the frame alone, not from
    ``second_fundamental_tensor``, so that the tension checks compare two constructions.
    """
    k, n = geom.rank, geom.phi.source.dim
    dE = _frame_jet(geom, u, range(k, n), cfg)
    E_V = u.columns[..., :, k:]
    nab = (dE[..., :, :, k:].swapaxes(-1, -2)  # [..., a, b, :] = nabla_{e_a} e_b
           + np.einsum("...mij,...ia,...jb->...abm", gamma, E_V, E_V))
    return (Pi_H[..., None, None, :, :] @ (0.5 * (nab + nab.swapaxes(-2, -3)))[..., None])[..., 0]


def mean_curvature_fibers(
    geom: SubmersionGeometry, u: Frame, gamma: Array, Pi_H: Array, cfg: FDConfig = DEFAULT_FD,
) -> TangentVector:
    """Mean curvature of the fibres at the adapted frames u: the trace of
    ``fiber_second_fundamental_form`` (Gamma and Pi_H at u's base points)."""
    F = fiber_second_fundamental_form(geom, u, gamma, Pi_H, cfg)
    return TangentVector(u.base, np.trace(F, axis1=-3, axis2=-2))


def fiber_second_fundamental_defect(
    geom: SubmersionGeometry, u: Frame, gamma: Array, Pi_H: Array, cfg: FDConfig = DEFAULT_FD,
) -> Array:
    """Largest g-norm of ``fiber_second_fundamental_form`` at the adapted frames u
    (Gamma and Pi_H at u's base points), over its entries a <= b; one value per frame."""
    F = fiber_second_fundamental_form(geom, u, gamma, Pi_H, cfg)
    a, b = np.triu_indices(F.shape[-2])
    norms = _g_norm(metric_eval(geom.phi.source, u.base)[..., None, :, :], F[..., a, b, :])
    return np.max(norms, axis=-1, initial=0.0)


def tension_field(
    geom: SubmersionGeometry, p: Array, cfg: FDConfig = DEFAULT_FD,
) -> Array:
    """Tension field at points p (..., n): the trace g^{ij} B_ij of the second
    fundamental tensor B."""
    phi = geom.phi
    return _metric_trace(second_fundamental_tensor(phi, p, cfg), metric_eval(phi.source, p))


def tension_conformal_display(
    geom: SubmersionGeometry, p: Array, cfg: FDConfig = DEFAULT_FD,
) -> Array:
    """Simplified tension for horizontally conformal maps:
    -(n-2)/2 phi_* grad(ln lambda) - phi_*(H_fibers), at points p (..., n), with
    one dilatation call on the adapted frames of the whole difference stencil."""
    phi = geom.phi
    M, D = phi.source, geom.horizontal
    p = np.asarray(p, dtype=float)
    dlnlam = central_diff(lambda q: np.log(dilatation(geom, adapted_frame(M, D, q))[0]), p, cfg.step_h)
    grad = np.linalg.solve(metric_eval(M, p), dlnlam[..., None])
    H = mean_curvature_fibers(geom, adapted_frame(M, D, p), christoffel(M, p), D.projector(p),
                              cfg).components
    J = differential_matrix(phi, p)
    return (-0.5 * (M.dim - 2) * (J @ grad) - J @ H[..., None])[..., 0]


# ---------------------------------------------------------------------------
# measured conformality of the lift and classification
# ---------------------------------------------------------------------------

def lift_conformality_measurement(
    geom: SubmersionGeometry, u: Frame, gamma: Array, Pi_H: Array, S: Array,
    cfg: FDConfig = DEFAULT_FD,
) -> tuple[Array, Array]:
    """(Lambda, defect) of the lift at the frame u, measured directly.

    The orthogonal basis of ``lift_distributions`` (from the caller's Gamma, Pi_H and
    S at u's base points) is Mok-orthonormalized, pushed through the finite-difference
    lift differential (one call for the whole basis), and its target Mok Gram matrix is
    compared against Lambda times the identity.  At a stack of frames both have
    the frames' leading shape.
    """
    phi = geom.phi
    _, H_basis = lift_distributions(geom, u, gamma, Pi_H, S, cfg)
    W_on = mok_orthonormalize(metric_eval(phi.source, u.base), gamma, H_basis)
    m = len(W_on)
    imgs = lift_differential_fd(geom, FrameTangent.stack(W_on), Pi_H, cfg, check_tangency=False)
    y = imgs.at.base[0]
    G = mok_gram(metric_eval(phi.target, y), christoffel(phi.target, y), [imgs[a] for a in range(m)])
    Lam = np.trace(G, axis1=-2, axis2=-1) / m
    defect = np.max(np.abs(G - Lam[..., None, None] * np.eye(m)), axis=(-2, -1))
    return Lam, defect


def lift_conformal_rule(horizontally_conformal: Optional[bool], dilatation_constant: Optional[bool],
                        totally_geodesic: Optional[bool]) -> Optional[bool]:
    """The prediction that the lift is conformal: horizontally conformal, constant
    dilatation and totally geodesic; None when any flag is None.  ``classify`` calls it
    with measured flags, ``CatalogEntry`` with the catalog's."""
    if None in (horizontally_conformal, dilatation_constant, totally_geodesic):
        return None
    return horizontally_conformal and dilatation_constant and totally_geodesic


def lift_harmonic_morphism_rule(harmonic_morphism: Optional[bool], totally_geodesic: Optional[bool],
                                dilatation_constant: Optional[bool]) -> Optional[bool]:
    """The prediction that the lift is a harmonic morphism: a harmonic morphism,
    totally geodesic and of constant dilatation; None when any flag is None.
    ``classify`` calls it with measured flags, ``CatalogEntry`` with the catalog's."""
    if None in (harmonic_morphism, totally_geodesic, dilatation_constant):
        return None
    return harmonic_morphism and totally_geodesic and dilatation_constant


FAILS_ABOVE = 0.01


def decide(residual: float, cfg: FDConfig = DEFAULT_FD) -> Optional[bool]:
    """Three-way verdict: holds / fails / inconclusive (None).

    Residual below 10 tol_fd2 means the property holds, above ``FAILS_ABOVE``
    it fails; anything between is flagged inconclusive so that silent
    misclassification is impossible.
    """
    if residual < 10.0 * cfg.tol_fd2:
        return True
    if residual > FAILS_ABOVE:
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
    geom: SubmersionGeometry,
    points: Sequence[Array],
    cfg: FDConfig = DEFAULT_FD,
) -> ClassificationReport:
    """Classify a submersion and measure its lift over the sample points.

    One adapted frame stack at the sample points serves every measurement;
    the dilatations, the second fundamental tensor, the fibres' second
    fundamental form, the torsion of D and the lift's conformality are each
    evaluated once on it, and each defect is the worst over points and
    frame pairs.  Gamma and D's projector at the points are built once: S, the
    fibres' form and the lift measurement read them."""
    phi, M, D, k = geom.phi, geom.phi.source, geom.horizontal, geom.rank
    rep = ClassificationReport(name=phi.name)
    points = np.asarray(points, dtype=float)
    frames = adapted_frame(M, D, points)
    E = frames.columns
    lams, defects = dilatation(geom, frames)
    gy = metric_eval(phi.target, phi.value(points))
    gp = metric_eval(M, points)

    # B(e_a, e_b) on the frame pairs a <= b, and the trace of B
    B = second_fundamental_tensor(phi, points, cfg)
    a, b = np.triu_indices(M.dim)
    B_pairs = (E.swapaxes(-1, -2)[..., None, :, :] @ B @ E[..., None, :, :])[..., a, b]
    tg_defect = np.max(_g_norm(gy, np.moveaxis(B_pairs, -1, 0)))
    tension_norms = _g_norm(gy, _metric_trace(B, gp))

    # torsion T^D(e_a, e_b) on the horizontal pairs a < b, from the S that the lift
    # measurement reads too
    gamma, P = christoffel(M, points), D.projector(points)
    S = S_components(M, D, points, gamma, P, cfg)
    a, b = np.triu_indices(k, 1)
    integ_defect = np.max(_g_norm(gp, _torsion(S, *(np.moveaxis(E[..., :, c], -1, 0) for c in (a, b)))),
                          initial=0.0)

    rep.conformal_defect = np.max(defects)
    rep.dilatation_samples = lams.tolist()
    rep.dilatation_std = float(np.std(lams))
    rep.horizontally_conformal = decide(rep.conformal_defect, cfg)
    if not np.isnan(rep.dilatation_std):  # also NaN whenever the mean is
        rep.dilatation_constant = rep.dilatation_std < cfg.tol_fd1 * (1.0 + float(np.mean(lams)))
    rep.totally_geodesic_defect = tg_defect
    rep.totally_geodesic = decide(tg_defect, cfg)
    rep.fibers_defect = np.max(fiber_second_fundamental_defect(geom, frames, gamma, P, cfg))
    rep.fibers_totally_geodesic = decide(rep.fibers_defect, cfg)
    rep.h_integrability_defect = integ_defect
    rep.h_integrable = decide(integ_defect, cfg)
    rep.tension_max = float(np.max(tension_norms))
    rep.harmonic = decide(rep.tension_max, cfg)
    if None not in (rep.horizontally_conformal, rep.harmonic):
        rep.harmonic_morphism = rep.horizontally_conformal and rep.harmonic
    rep.lift_conformal_predicted = lift_conformal_rule(
        rep.horizontally_conformal, rep.dilatation_constant, rep.totally_geodesic)
    rep.lift_harmonic_morphism_predicted = lift_harmonic_morphism_rule(
        rep.harmonic_morphism, rep.totally_geodesic, rep.dilatation_constant)

    Lams, lift_defects = lift_conformality_measurement(geom, frames, gamma, P, S, cfg)
    rep.lift_lambda_samples = Lams.tolist()
    rep.lift_lambda_std = float(np.std(Lams))
    rep.lift_defect_measured = np.max(lift_defects)
    rep.lift_lambda_vs_base_max = np.max(np.abs(Lams - lams))
    spread = float(np.max(Lams) - np.min(Lams))
    rep.lift_conformal_measured = decide(np.maximum(rep.lift_defect_measured, spread), cfg)
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
    remainder, at one point x0.  Each level of the nested differences reads
    the adapted chart once: the orthonormal frame E at q0, the Christoffel
    symbols there, E on the stencil q0 +- h2 E_i/|E_i| of every column E_i
    of E(q0), and the lift F on one stack of every point it is needed at.
    On the catalog entries a call takes 4-8 ms (2-vCPU x86_64 Xeon, one
    BLAS thread).
    """
    phi = geom.phi
    M, D = phi.source, geom.horizontal
    src_chart = adapted_chart(M, D)
    tgt_chart = LMChart(phi.target)
    src_total = total_space_manifold(src_chart, cfg)
    tgt_total = total_space_manifold(tgt_chart, cfg)
    k = geom.rank
    h, h2 = cfg.step_h, cfg.step_h2

    def F(q: Array) -> Array:
        u = src_chart.decode(q)
        y, Fm = lift_map_raw(phi, k, u.base, u.columns)
        return tgt_chart.join(y, Fm)

    q0 = src_chart.join(x0, np.zeros(src_chart.dim - M.dim))
    m = src_chart.dim

    E0 = reference_frame(src_total, q0)
    gamma_src = christoffel(src_total, q0)
    # E_i at q0 +- h2 E0_i/|E0_i| is column i of the frame at row i of the outer stencil
    outer, outer_norm = _directional_stencil(q0, E0.T, h2)
    E_out = np.diagonal(reference_frame(src_total, outer), axis1=1, axis2=3).swapaxes(-1, -2)  # (2, m, m)
    dE = _difference(E_out, outer_norm, h2)  # row i: d(E_i) along E0_i
    # F at q0, on the stencil of the coordinate directions (J_F) and of the E0_i at q0,
    # and on the stencil of each E_i at the outer points, in one call
    at_q0, at_q0_norm = _directional_stencil(q0, np.concatenate([np.eye(m), E0.T]), h)
    inner, inner_norm = _directional_stencil(outer, E_out, h)
    pts = [q0, at_q0, inner]
    Fs = np.split(F(np.concatenate([p.reshape(-1, m) for p in pts])),
                  np.cumsum([p.size // m for p in pts[:-1]]))
    y0, F_q0, F_inner = (f.reshape(p.shape[:-1] + f.shape[-1:]) for f, p in zip(Fs, pts))
    dF_q0 = _difference(F_q0, at_q0_norm, h)
    J_F, pushed = dF_q0[:m].T, dF_q0[m:]  # (tgt_dim, m) and row i: dF(E_i) at q0
    dW = _difference(_difference(F_inner, inner_norm, h), outer_norm, h2)
    # G(y0) of L(N) serves its Christoffel symbols and the norms below; the source side
    # stays the generic ``christoffel``, whose domain errors the column reference shares
    G_tgt = metric_eval(tgt_total, y0)
    gamma_tgt = _christoffel_from(G_tgt, metric_derivative_eval(tgt_total, y0))

    tau = np.zeros(tgt_chart.dim)
    for i in range(m):
        Ei = E0[:, i]
        nab = dE[i] + (christoffel_contract(gamma_src, Ei) @ Ei[..., None])[..., 0]  # Gamma(E_i, E_i)
        tau += dW[i] + christoffel_contract(gamma_tgt, J_F @ Ei) @ pushed[i]
        tau -= J_F @ nab

    span = J_F  # columns span the image tangent space
    A = span.T @ G_tgt @ span
    b = span.T @ G_tgt @ tau
    coef, *_ = np.linalg.lstsq(A, b, rcond=None)
    tang = span @ coef
    return {
        "ambient": float(_g_norm(G_tgt, tau)),
        "tangential": float(_g_norm(G_tgt, tang)),
        "normal": float(_g_norm(G_tgt, tau - tang)),
    }
