"""Distributions, the adapted connection, and the adapted frame bundle O(D).

A rank-k distribution D is given by its g-orthogonal projector field.  The
adapted connection preserves D and its complement; its difference tensor S
from the Levi-Civita connection drives every frame-bundle lift identity.  S
is one array, ``S_components``, that the block owning the points builds once
and every reader contracts.
The adapted orthonormal bundle O(D) is charted like O(M) but with the skew
coordinates restricted to the block-diagonal subalgebra so(k) + so(n-k).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .geometry import (
    Array,
    ChartManifold,
    DEFAULT_FD,
    FDConfig,
    TangentVector,
    VectorField,
    _g_norm,
    central_diff,
    christoffel,
    christoffel_contract,
    christoffel_derivative,
    column_gram,
    connection_curvature,
    covariant_derivative,
    curvature_R_P,
    directional_diff,
    metric_derivative_eval,
    metric_eval,
    orthonormalizer,
    skew_defect,
)
from .frames import (
    Frame,
    FrameChart,
    FrameTangent,
    LMChart,
    block_skew_basis,
    endo_covariant_derivative,
    frame_diff,
    fundamental_vertical,
    horizontal_lift_frame,
    _case_fields,
    gauss_projection,
    lc_total_space_oracle,
    mok_norm,
    offdiag_skew_basis,
)


@dataclass(frozen=True)
class DistributionSpec:
    """A rank-k distribution via its g-orthogonal projector field.

    ``seed_frame`` maps p to an (n, n) matrix whose first k columns span D
    and whose other n-k columns span its orthogonal complement; it is
    required, as every adapted frame is built from it.

    Both fields take points with leading axes, p of shape (..., n), and
    return (..., n, n), as the fields of a ``ChartManifold`` do; a stack's
    rows equal row-by-row calls bit for bit.  A difference stencil of the
    projector or of the adapted frame is then one call: the derivatives of
    the whole frame along m directions cost one seed frame at 2m points.
    """

    rank: int
    projector_field: Callable[[Array], Array]
    seed_frame: Callable[[Array], Array]

    def projector(self, p: Array) -> Array:
        return np.asarray(self.projector_field(p), dtype=float)


def projector_defects(M: ChartManifold, D: DistributionSpec, p: Array, P: Array) -> dict:
    """Idempotency, g-self-adjointness and trace defects of the caller's projector values
    P = ``D.projector(p)``, one value per point of a stack p (..., n)."""
    g = metric_eval(M, p)
    return {
        "idempotent": np.max(np.abs(P @ P - P), axis=(-2, -1)),
        "self_adjoint": np.max(np.abs(g @ P - P.swapaxes(-1, -2) @ g), axis=(-2, -1)),
        "trace": np.abs(np.trace(P, axis1=-2, axis2=-1) - D.rank),
    }


def adapted_frame(M: ChartManifold, D: DistributionSpec, p: Array) -> Frame:
    """Orthonormal frame whose first k columns span D, the rest its complement,
    at points p (..., n): a stack of frames for a stack of points.

    Gram-Schmidt of the columns of ``D.seed_frame(p)``, one ``orthonormalizer``
    over the stack of their Gram matrices, so the frame varies smoothly with
    p when the seed frame does.  Callers that differentiate the frame take
    one stencil of the whole frame over their directions and read their
    columns from it.
    """
    p = np.asarray(p, dtype=float)
    V = np.asarray(D.seed_frame(p), dtype=float).swapaxes(-1, -2)  # rows: the seed vectors
    E = orthonormalizer(V @ metric_eval(M, p) @ V.swapaxes(-1, -2)) @ V  # rows: the frame
    return Frame(p, E.swapaxes(-1, -2))


def od_membership_defect(M: ChartManifold, D: DistributionSpec, u: Frame, P: Array) -> float:
    """How far a frame (the worst of a stack) is from O(D): the largest entry of its
    ``od_constraints``, read at the projector values P at u's base points."""
    return float(np.max(np.abs(_od_constraints(metric_eval(M, u.base), P, u.columns, D.rank))))


# ---------------------------------------------------------------------------
# block decomposition of endomorphisms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BlockDecomposition:
    """Blocks of an endomorphism relative to TM = D + D_perp.

    ``top`` maps D to D, ``bot`` the complement to itself, ``off1`` is the
    D -> D_perp part and ``off2`` the D_perp -> D part; all are stored as
    full chart matrices so the reassembly top + bot + off1 + off2 is exact.
    """

    top: Array
    bot: Array
    off1: Array
    off2: Array

    def reassemble(self) -> Array:
        return self.top + self.bot + self.off1 + self.off2


def block_decompose(P_value: Array, Pi: Array) -> BlockDecomposition:
    """Blocks of the endomorphism value P_value for the value Pi of D's projector,
    or of a stack of values for a stack of projectors."""
    P_value = np.asarray(P_value, dtype=float)
    Pic = np.eye(P_value.shape[-1]) - Pi
    return BlockDecomposition(
        top=Pi @ P_value @ Pi,
        bot=Pic @ P_value @ Pic,
        off1=Pic @ P_value @ Pi,
        off2=Pi @ P_value @ Pic,
    )


def m_projection(M: ChartManifold, p: Array, P_value: Array, Pi: Array) -> Array:
    """Off-diagonal (block-mixing) part of a g-skew endomorphism value, or of a
    stack of values at a stack of points p, for the caller's projector values Pi of D
    there; any value of the stack that is not g-skew raises."""
    if (skew_defect(M, p, P_value) > 1e-6).any():
        raise ValueError("m_projection expects a g-skew endomorphism")
    b = block_decompose(P_value, Pi)
    return b.off1 + b.off2


# ---------------------------------------------------------------------------
# the adapted connection and its tensors
# ---------------------------------------------------------------------------

def adapted_derivatives(
    M: ChartManifold, D: DistributionSpec, x: Array, Ys: Sequence[VectorField],
    p: Array, gamma: Array, P: Array, cfg: FDConfig = DEFAULT_FD,
) -> tuple[Array, Array]:
    """(nabla^D_x Y, S_x Y) for each field Y of ``Ys`` along the vectors x at points p (..., n),
    each stacked (len(Ys), ..., n), from Gamma(p) and P(p), ``gamma`` and ``P``, and one
    stencil of D's and the complement's parts of every Y along x.

    nabla_x of each part is d_x(part) + Gamma(x, part), as ``covariant_derivatives`` forms
    it.  The adapted connection projects each back on its own block; the difference tensor
    S_x Y = (nabla_x Y_top)_perp + (nabla_x Y_perp)_top of the Levi-Civita and adapted
    connections projects each on the other block: tensorial in both arguments, g-skew in
    the second pair sense, and it swaps D with D_perp.
    """
    def parts(q: Array, Ps: Array) -> Array:  # [..., t, a, :] = part a of Y_t at q
        ys = np.stack([np.asarray(Y.eval(q), dtype=float) for Y in Ys], axis=-2)
        return (Ps[..., None, :, :, :] @ ys[..., :, None, :, None])[..., 0]

    def blocks(P: Array) -> Array:
        return np.stack([P, np.eye(P.shape[-1]) - P], axis=-3)

    Ps = blocks(P)
    d = directional_diff(lambda q: parts(q, blocks(D.projector(q))), p, x, cfg.step_h)
    nab = (d + np.einsum("...kij,...i,...taj->...tak", gamma, x, parts(p, Ps)))[..., None]
    # nabla^D projects each part back on its own block, S on the other
    return tuple(np.moveaxis((Qs[..., None, :, :, :] @ nab).sum(axis=-3)[..., 0], -2, 0)
                 for Qs in (Ps, Ps[..., ::-1, :, :]))


def S_components(
    M: ChartManifold, D: DistributionSpec, p: Array, gamma: Array, P: Array,
    cfg: FDConfig = DEFAULT_FD,
) -> Array:
    """S[..., k, i, j] = (S_{d_i} d_j)^k at points p (..., n), from Gamma(p) and P(p),
    ``gamma`` and ``P``, and one stencil of D's projector along the n coordinate directions.

    S has the index layout of Gamma, so S_x is ``christoffel_contract(S, x)`` for any
    vector x.  Column j of S_{d_i} is Pc nabla_i(P e_j) + P nabla_i(Pc e_j).  With
    nabla_i(P e_j) = (d_i P) e_j + Gamma_i P e_j and d_i Pc = -d_i P this is
    Pc (d_i P + Gamma_i P) + P (Gamma_i Pc - d_i P), where d_i P is the central
    difference of the projector that ``adapted_derivatives`` takes.
    """
    G = gamma.swapaxes(-3, -2)  # [..., i, k, j] = (Gamma_i)^k_j
    P = P[..., None, :, :]
    Pc = np.eye(P.shape[-1]) - P
    dP = central_diff(D.projector, p, cfg.step_h)
    return (Pc @ (dP + G @ P) + P @ (G @ Pc - dP)).swapaxes(-3, -2)


def torsion_TD(X: VectorField, Y: VectorField, p: Array, S: Array) -> TangentVector:
    """Torsion of the adapted connection: -S_X Y + S_Y X, from S = ``S_components`` at p.

    Restricted to two D-arguments it is (minus) an integrability tensor of
    D, and likewise for the complement.  S is tensorial, so this reads X
    and Y at p only.
    """
    x, y = (np.asarray(F.eval(p), dtype=float) for F in (X, Y))
    return TangentVector(p, _torsion(S, x, y))


def _torsion(S: Array, x: Array, y: Array) -> Array:
    """T^D(x, y) = S_y x - S_x y from S and vectors x, y at its points."""
    return (christoffel_contract(S, y) @ x[..., None] - christoffel_contract(S, x) @ y[..., None])[..., 0]


def _GD_S_jet(
    M: ChartManifold, D: DistributionSpec, p: Array, gamma: Array, S: Array, cfg: FDConfig
) -> tuple[Array, Array]:
    """((GD, S), (dGD, dS)) at points p (..., n), from Gamma(p) and S(p), with the central
    differences over step_h2: one Christoffel evaluation, one projector value and one
    ``S_components`` on the whole stencil.

    GD[k, i, j] = (nabla^D_{d_i} d_j)^k = Gamma - S are the adapted
    connection's coefficients; not symmetric in (i, j), as it has torsion.
    """
    def GD_S(gamma: Array, S: Array) -> Array:
        return np.stack([gamma - S, S], axis=-4)

    def at(q: Array) -> Array:
        gamma_q = christoffel(M, q)
        return GD_S(gamma_q, S_components(M, D, q, gamma_q, D.projector(q), cfg))

    return tuple(np.moveaxis(a, -4, 0) for a in (GD_S(gamma, S), central_diff(at, p, cfg.step_h2)))


def curvature_RD_tensor(jet: tuple[Array, Array]) -> Array:
    """Curvature of the adapted connection, RD[..., i, j, k, l], from GD and d(GD) in
    ``jet = _GD_S_jet(...)``."""
    (GD, _), (dGD, _) = jet
    return connection_curvature(GD, dGD)


def nabla_D_S(jet: tuple[Array, Array]) -> dict[str, Array]:
    """Components of (nabla^D_{d_m} S)_{d_i} d_j, indexed [..., m, k, i, j], by reading.

    "standard" differentiates S as a (1,2) tensor; "display" replaces the
    third correction term S_Y(nabla^D_X Z) by S_X(nabla^D_Y Z), the reading
    in which the defining display is sometimes typeset.  Both come from the
    S, GD and dS of one ``jet``, as in ``curvature_RD_tensor``; the full
    curvature relation check adjudicates between them.
    """
    (GD, S), (_, dS) = jet
    # [..., m, k, i, j] = d_m S^k_ij plus the two corrections both readings share
    shared = dS + np.einsum("...kma,...aij->...mkij", GD, S) - np.einsum("...kaj,...ami->...mkij", S, GD)
    return {
        "standard": shared - np.einsum("...kia,...amj->...mkij", S, GD),
        "display": shared - np.einsum("...kma,...aij->...mkij", S, GD),
    }


def curvature_relation_residual(
    M: ChartManifold, D: DistributionSpec,
    x: Array, y: Array, z: Array, p: Array, S: Array,
    cfg: FDConfig = DEFAULT_FD,
) -> dict[str, Array]:
    """Residual of R = RD + (nabla S) terms + S_{T^D} + [S_X, S_Y] at p, by reading: one
    per point of a stack p (..., n), with vectors x, y and z per point.

    One evaluation of R, RD and nabla^D S gives the residual under each
    ``nabla_D_S`` reading; RD and nabla^D S share one stencil of (GD, S), whose
    S at p is the caller's S = ``S_components`` at p, which every S term
    contracts.  Gamma(p) serves R and the jet: three Christoffel evaluations in
    all, with the stencils of R and of the jet.
    """
    gamma = christoffel(M, p)
    R = connection_curvature(gamma, christoffel_derivative(M, p, cfg))
    lhs = np.einsum("...ijkl,...i,...j,...k->...l", R, x, y, z)
    jet = _GD_S_jet(M, D, p, gamma, S, cfg)
    RD_xyz = np.einsum("...ijkl,...i,...j,...k->...l", curvature_RD_tensor(jet), x, y, z)

    Sx, Sy = christoffel_contract(S, x), christoffel_contract(S, y)
    S_td_z = (christoffel_contract(S, _torsion(S, x, y)) @ z[..., None])[..., 0]
    comm_z = ((Sx @ Sy - Sy @ Sx) @ z[..., None])[..., 0]

    g = metric_eval(M, p)
    out = {}
    for reading, NS in nabla_D_S(jet).items():
        d = lhs - (RD_xyz + np.einsum("...mkij,...m,...i,...j->...k", NS, x, y, z)
                   - np.einsum("...mkij,...m,...i,...j->...k", NS, y, x, z) + S_td_z + comm_z)
        out[reading] = _g_norm(g, d)
    return out


# ---------------------------------------------------------------------------
# the W endomorphism and L_P
# ---------------------------------------------------------------------------

def W_endo(g: Array, u: Frame, S: Array) -> Array:
    """W(X) = X + sum_i <S_{e_i} | S_X> e_i as a chart matrix at u's base point, over the
    g-orthonormal columns e_i of the frame u, from the metric g and S = ``S_components``
    at u's base points; (..., n, n) for a stack of frames.

    g-self-adjoint and positive definite (identity plus a Gram matrix), so
    always invertible; reduces to the identity when D is parallel.
    """
    E = u.columns
    G = column_gram(g, _S_of_columns(S, E))  # G[i, j] = <S_{e_i} | S_{e_j}>
    return E @ (np.eye(E.shape[-1]) + G) @ np.linalg.inv(E)


def _S_of_columns(S: Array, E: Array) -> Array:
    """S_{e_i} E for each column e_i of the frames E (..., n, n), stacked (..., n, n, n)."""
    return christoffel_contract(S[..., None, :, :, :], E.swapaxes(-1, -2)) @ E[..., None, :, :]


def W_inverse_apply(W_matrix: Array, v: Array) -> Array:
    """W^-1 v, for one W or a stack (..., n, n) with one v (..., n) each."""
    return np.linalg.solve(W_matrix, np.asarray(v, dtype=float)[..., None])[..., 0]


def L_P_applies(
    g: Array, pairs: Sequence[tuple[Array, Array, Array]], p: Array,
    onb: Sequence[TangentVector], R: Array, P_D: Array, S: Array, cfg: FDConfig = DEFAULT_FD,
) -> list[dict[str, Array]]:
    """L_P(x) = W^{-1}( R_P(x) + sign * sum_i <(nabla_x P)_m | S_{e_i}> e_i ), by m-sign,
    for each (P(p), (nabla_x P)(p), x) of values in ``pairs``, which the caller computes
    once for every reader (``endo_covariant_derivative``).

    The defining display carries sign -1 ("printed"); the total-space
    oracle on the adapted bundle matches the connection lines only with +1
    ("flipped"; see the adapted connection audit).  Both come from one
    assembly of R_P, nabla_x P, S and W.  Every pair shares the caller's metric g,
    curvature tensor ``R = curvature_tensor(M, p)``, D's projector
    ``P_D = D.projector(p)`` and ``S = S_components(...)`` at p, and one W.
    """
    RPs = curvature_R_P(g, np.array([np.asarray(P, dtype=float) for P, _, _ in pairs]), onb, R, cfg)
    signs = {"printed": -1.0, "flipped": +1.0}
    u = Frame(p, np.column_stack([e.components for e in onb]))
    SE = _S_of_columns(S, u.columns)
    W = W_endo(g, u, S)
    out = []
    for (_, nabla_P, x), RP in zip(pairs, RPs):
        b = block_decompose(nabla_P, P_D)
        # sum_i <(nabla_x P)_m | S_{e_i}> e_i
        m_part = u.columns @ column_gram(g, [(b.off1 + b.off2) @ u.columns], SE)[0]
        out.append({name: W_inverse_apply(W, RP @ x + sign * m_part) for name, sign in signs.items()})
    return out


# ---------------------------------------------------------------------------
# adapted horizontal lift and the O(D) chart
# ---------------------------------------------------------------------------

def adapted_horizontal_lift(
    M: ChartManifold, D: DistributionSpec, X: TangentVector, u: Frame,
    cfg: FDConfig = DEFAULT_FD,
) -> FrameTangent:
    """Horizontal lift for the adapted connection: X^h + (S_X)*.

    Tangent to O(D) at adapted frames (checked by ``od_tangency_residual``).
    Builds S at u's base points itself, for a caller that holds none: it is
    exported for use as a frame field; the package's own callers hold Gamma,
    P and S and call ``_adapted_horizontal_lifts``.
    """
    P, gamma = D.projector(u.base), christoffel(M, u.base)
    return _adapted_horizontal_lifts(M, D, [X], u, gamma, P, S_components(M, D, u.base, gamma, P, cfg))[0]


def _adapted_horizontal_lifts(
    M: ChartManifold, D: DistributionSpec, Xs: Sequence[TangentVector], u: Frame,
    gamma: Array, P: Array, S: Array,
) -> list[FrameTangent]:
    """``adapted_horizontal_lift`` of each X in ``Xs`` at u, with one O(D) membership
    check, from Gamma, P and S at u's base points, ``gamma``, ``P`` and ``S``: the
    check reads P, the plain lifts X^h read Gamma and each S_X contracts S.  u may
    be a stack, each X then a vector per frame."""
    if od_membership_defect(M, D, u, P) > 1e-6:
        raise ValueError("frame is not adapted to the distribution")
    return _S_lifts(Xs, u, gamma, S)


def _S_lifts(Xs: Sequence[TangentVector], u: Frame, gamma: Array, S: Array) -> list[FrameTangent]:
    """X^h + (S_X)* of each X in ``Xs`` at the frames u, adapted or not, from Gamma and S
    at u's base points: the adapted horizontal lift, extended to all of L(M)."""
    return [horizontal_lift_frame(gamma, X, u) + fundamental_vertical(christoffel_contract(S, X.components), u)
            for X in Xs]


def od_constraints(M: ChartManifold, D: DistributionSpec, k: int):
    """O(D) membership constraints as a function of (x, E), for tangency tests; one
    row of constraints per frame for a stack, x (..., n) and E (..., n, n)."""

    def constraints(x: Array, E: Array) -> Array:
        return _od_constraints(metric_eval(M, x), D.projector(x), E, k)

    return constraints


def _od_constraints(g: Array, P: Array, E: Array, k: int) -> Array:
    """The entries of E^T g E - I, (I - P) E_top and P E_bot, one row per frame E, for
    metric and projector values g and P at the frames' base points."""
    n = E.shape[-1]
    parts = [E.swapaxes(-1, -2) @ g @ E - np.eye(n)]
    if k > 0:
        parts.append((np.eye(n) - P) @ E[..., :, :k])
    if k < n:
        parts.append(P @ E[..., :, k:])
    return np.concatenate([A.reshape(A.shape[:-2] + (-1,)) for A in parts], axis=-1)


def od_tangency_residual(
    M: ChartManifold, D: DistributionSpec, t: FrameTangent,
    cfg: FDConfig = DEFAULT_FD,
) -> Array:
    """``frame_diff`` of the O(D) membership constraints along t, its largest entry: one
    residual per frame of a stack."""
    return np.max(np.abs(frame_diff(od_constraints(M, D, D.rank), t, cfg.step_h)), axis=-1)


def adapted_chart(M: ChartManifold, D: DistributionSpec, name: str = "O(D)") -> FrameChart:
    """Chart on O(D): adapted reference frame plus block-diagonal skew coordinates."""
    return FrameChart(
        M,
        basis=block_skew_basis(M.dim, D.rank),
        reference=lambda x: adapted_frame(M, D, x).columns,
        name=name,
    )


def adapted_connection_audit(
    M: ChartManifold, D: DistributionSpec, u: Frame, fields: dict, g: Array, gamma: Array, R: Array,
    cfg: FDConfig = DEFAULT_FD,
) -> list[dict]:
    """Audit of the adapted-bundle connection displays against the O(D) oracle.

    Every row is diagnostic (asserted=False): the displays mix symbols and
    lift types, so plausible readings are evaluated against one oracle
    evaluation per point and the best-matching reading is flagged per case.
    The O(D) oracle is the ``gauss_projection`` of the L(M) oracle on X^h + (S_X)*
    (``_S_lifts``) and P*.  g, gamma and ``R = curvature_tensor(M, u.base)`` are the
    caller's at u's base point.  S, P, Q, nabla_X Q and nabla_Y P there are built once
    and serve L_P, the lifted right-hand sides and the RD jet; one ``mok_norm`` of the
    stacked differences gives every residual.
    """
    chart = LMChart(M)
    X, Y, P, Q = fields["X"], fields["Y"], fields["P"], fields["Q"]
    p = u.base
    onb = [TangentVector(p, u.columns[:, i]) for i in range(M.dim)]
    cases = [("hh", (X, Y)), ("hv", (X, Q)), ("vh", (P, Y)), ("vv", (P, Q))]

    P_D = D.projector(p)
    S = S_components(M, D, p, gamma, P_D, cfg)

    def extension(M: ChartManifold, X: TangentVector, v: Frame) -> FrameTangent:
        gamma_v = christoffel(M, v.base)
        return _S_lifts([X], v, gamma_v, S_components(M, D, v.base, gamma_v, D.projector(v.base), cfg))[0]

    xval = np.asarray(X.eval(p), dtype=float)
    yval = np.asarray(Y.eval(p), dtype=float)
    Pval = np.asarray(P.eval(p), dtype=float)
    Qval = np.asarray(Q.eval(p), dtype=float)
    nQ = endo_covariant_derivative(Q, xval, p, Qval, gamma, cfg)
    nP = endo_covariant_derivative(P, yval, p, Pval, gamma, cfg)

    RDxy = curvature_RD_tensor(_GD_S_jet(M, D, p, gamma, S, cfg))
    RD_endo = np.einsum("ijkl,i,j->lk", RDxy, xval, yval)

    rows: list[dict] = []
    differences: list[FrameTangent] = []
    oracle = lc_total_space_oracle(chart, _case_fields(M, cases, extension), u, cfg)
    oracle = dict(zip(("hh", "hv", "vh", "vv"), gauss_projection(
        M, oracle, g, gamma, metric_derivative_eval(M, p), P_D,
        central_diff(D.projector, p, cfg.step_h), D.rank)))

    def case_rows(case, readings):
        for reading, rhs in readings:
            rows.append({"bundle": "O(D)", "case": case, "reading": reading, "asserted": False})
            differences.append(oracle[case] - rhs)

    # the right-hand sides' vectors, lifted in one batch: nabla_X Y and nablaD_X Y
    # for hh, L_Q(X) for hv and L_P(Y) for vh, each with both m-term signs
    LQ, LP = L_P_applies(g, [(Qval, nQ, xval), (Pval, nP, yval)], p, onb, R, P_D, S, cfg)
    nab, nabD, LQm, LQp, LPm, LPp = _adapted_horizontal_lifts(M, D, [TangentVector(p, v) for v in (
        covariant_derivative(M, X, Y, p, cfg).components,
        adapted_derivatives(M, D, xval, [Y], p, gamma, P_D, cfg)[0][0],
        LQ["printed"], LQ["flipped"], LP["printed"], LP["flipped"])], u, gamma, P_D, S)

    # hh: nabla_{X^{h,D}} Y^{h,D}
    case_rows("hh", [
        ("(nabla_X Y)^{h,D} - 1/2 RD(X,Y)*", nab + (-0.5) * fundamental_vertical(RD_endo, u)),
        ("(nablaD_X Y)^{h,D} - 1/2 RD(X,Y)*", nabD + (-0.5) * fundamental_vertical(RD_endo, u)),
    ])

    # hv: nabla_{X^{h,D}} Q*, with both m-term signs inside L
    b = block_decompose(nQ, P_D)
    nDQ = fundamental_vertical(b.top + b.bot, u)
    half_LQp = 0.5 * LQp
    case_rows("hv", [
        ("1/2 L-_Q(X)^{h,D} + (nablaD_X Q)* (printed m-sign)", 0.5 * LQm + nDQ),
        ("1/2 L+_Q(X)^{h,D} + (nablaD_X Q)* (flipped m-sign)", half_LQp + nDQ),
        ("1/2 L+_Q(X)^{h,D}", half_LQp),
    ])

    # vh: nabla_{P*} Y^{h,D}
    case_rows("vh", [
        ("1/2 L-_P(Y)^{h,D} (printed m-sign)", 0.5 * LPm),
        ("1/2 L+_P(Y)^{h,D} (flipped m-sign)", 0.5 * LPp),
    ])

    # vv: nabla_{P*} Q*
    case_rows("vv", [
        ("-1/2 [P,Q]*", fundamental_vertical(-0.5 * (Pval @ Qval - Qval @ Pval), u)),
    ])

    for r, residual in zip(rows, mok_norm(g, gamma, FrameTangent.stack(differences))):
        r["residual"] = residual
    best: dict = {}
    for r in rows:
        if r["case"] not in best or r["residual"] < best[r["case"]]["residual"]:
            best[r["case"]] = r
    for r in rows:
        r["best_match"] = best[r["case"]] is r
    return rows


def reductive_split_defect(n: int, k: int, rng: np.random.Generator) -> float:
    """max norm of the g-block of [A, B] for A block-diagonal skew, B block-mixing.

    Checks [g, m] is contained in m on random block matrices.
    """
    worst = 0.0
    gbasis = block_skew_basis(n, k)
    mbasis = offdiag_skew_basis(n, k)
    for _ in range(20):
        A = sum((c * B for c, B in zip(rng.standard_normal(len(gbasis)), gbasis)),
                np.zeros((n, n)))
        Bm = sum((c * B for c, B in zip(rng.standard_normal(len(mbasis)), mbasis)),
                 np.zeros((n, n)))
        C = A @ Bm - Bm @ A
        diag_part = C.copy()
        diag_part[:k, k:] = 0.0
        diag_part[k:, :k] = 0.0
        worst = max(worst, float(np.max(np.abs(diag_part))))
    return worst
