"""Distributions, the adapted connection, and the adapted frame bundle O(D).

A rank-k distribution D is given by its g-orthogonal projector field.  The
adapted connection preserves D and its complement; its difference tensor S
from the Levi-Civita connection drives every frame-bundle lift identity.
The adapted orthonormal bundle O(D) is charted like O(M) but with the skew
coordinates restricted to the block-diagonal subalgebra so(k) + so(n-k).
"""

from __future__ import annotations

from dataclasses import dataclass
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
    column_gram,
    covariant_derivative,
    curvature_R_P,
    curvature_tensor,
    directional_diff,
    gram_schmidt,
    metric_eval,
    skew_defect,
)
from .frames import (
    Frame,
    FrameChart,
    FrameTangent,
    block_skew_basis,
    endo_covariant_derivative,
    fundamental_vertical,
    horizontal_lift_frame,
    lc_total_space_oracle,
    mok_norm,
    offdiag_skew_basis,
    vertical_field_on_chart,
)


@dataclass(frozen=True)
class DistributionSpec:
    """A rank-k distribution via its g-orthogonal projector field.

    ``seed_frame`` maps p to an (n, n) matrix whose first k columns span D
    and whose other n-k columns span its orthogonal complement.  It is
    required wherever a smooth adapted frame field is built; the catalog
    always provides it.  One adapted frame costs one seed frame, so a
    derivative of the whole frame along one direction costs two.
    """

    rank: int
    projector_field: Callable[[Array], Array]
    seed_frame: Optional[Callable[[Array], Array]] = None

    def projector(self, p: Array) -> Array:
        return np.asarray(self.projector_field(p), dtype=float)

    def complement(self, p: Array) -> Array:
        P = self.projector(p)
        return np.eye(P.shape[0]) - P


def projector_defects(M: ChartManifold, D: DistributionSpec, p: Array) -> dict:
    """Idempotency, g-self-adjointness and trace defects of the projector."""
    P = D.projector(p)
    g = metric_eval(M, p)
    return {
        "idempotent": float(np.max(np.abs(P @ P - P))),
        "self_adjoint": float(np.max(np.abs(g @ P - P.T @ g))),
        "trace": abs(float(np.trace(P)) - D.rank),
    }


def adapted_frame(M: ChartManifold, D: DistributionSpec, p: Array) -> Frame:
    """Orthonormal frame whose first k columns span D, the rest its complement.

    Gram-Schmidt of the columns of ``D.seed_frame(p)``, so the frame varies
    smoothly with p when the seed frame does.  Callers that differentiate
    the frame take one stencil of the whole frame per direction and read
    their columns from it.
    """
    if D.seed_frame is None:
        raise ValueError("adapted frame requires a seed frame")
    basis = gram_schmidt(M, p, list(np.asarray(D.seed_frame(p), dtype=float).T))
    return Frame(p, np.column_stack([e.components for e in basis]))


def od_membership_defect(M: ChartManifold, D: DistributionSpec, u: Frame) -> float:
    """How far a frame is from O(D): orthonormal, adapted to the splitting."""
    k = D.rank
    g = metric_eval(M, u.base)
    P = D.projector(u.base)
    Pc = np.eye(u.base.size) - P
    return float(max(
        np.max(np.abs(u.columns.T @ g @ u.columns - np.eye(u.base.size))),
        np.max(np.abs(Pc @ u.columns[:, :k])) if k > 0 else 0.0,
        np.max(np.abs(P @ u.columns[:, k:])) if k < u.base.size else 0.0,
    ))


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


def block_decompose(P_value: Array, D: DistributionSpec, p: Array) -> BlockDecomposition:
    P_value = np.asarray(P_value, dtype=float)
    Pi = D.projector(p)
    Pic = np.eye(P_value.shape[0]) - Pi
    return BlockDecomposition(
        top=Pi @ P_value @ Pi,
        bot=Pic @ P_value @ Pic,
        off1=Pic @ P_value @ Pi,
        off2=Pi @ P_value @ Pic,
    )


def m_projection(
    M: ChartManifold, D: DistributionSpec, p: Array, P_value: Array,
    cfg: FDConfig = DEFAULT_FD,
) -> Array:
    """Off-diagonal (block-mixing) part of a g-skew endomorphism value."""
    if skew_defect(M, p, P_value) > 1e-6:
        raise ValueError("m_projection expects a g-skew endomorphism")
    b = block_decompose(P_value, D, p)
    return b.off1 + b.off2


def g_block_projection(D: DistributionSpec, p: Array, P_value: Array) -> Array:
    """Block-diagonal part of an endomorphism value."""
    b = block_decompose(P_value, D, p)
    return b.top + b.bot


# ---------------------------------------------------------------------------
# the adapted connection and its tensors
# ---------------------------------------------------------------------------

def _projected_field(D: DistributionSpec, Y: VectorField, top: bool) -> VectorField:
    if top:
        return VectorField(eval=lambda q: D.projector(q) @ np.asarray(Y.eval(q), dtype=float))
    return VectorField(eval=lambda q: D.complement(q) @ np.asarray(Y.eval(q), dtype=float))


def nabla_D(
    M: ChartManifold, D: DistributionSpec, X: VectorField, Y: VectorField,
    p: Array, cfg: FDConfig = DEFAULT_FD,
) -> TangentVector:
    """Adapted connection: project, differentiate, project back on each block."""
    top = covariant_derivative(M, X, _projected_field(D, Y, True), p, cfg)
    bot = covariant_derivative(M, X, _projected_field(D, Y, False), p, cfg)
    P = D.projector(p)
    out = P @ top.components + (np.eye(P.shape[0]) - P) @ bot.components
    return TangentVector(p, out)


def S_tensor(
    M: ChartManifold, D: DistributionSpec, X: VectorField, Y: VectorField,
    p: Array, cfg: FDConfig = DEFAULT_FD,
) -> TangentVector:
    """Difference tensor S_X Y of the Levi-Civita and adapted connections.

    Equals (nabla_X Y_top)_perp + (nabla_X Y_perp)_top; tensorial in both
    arguments, g-skew in the second pair sense, and swaps D with D_perp.
    """
    top = covariant_derivative(M, X, _projected_field(D, Y, True), p, cfg)
    bot = covariant_derivative(M, X, _projected_field(D, Y, False), p, cfg)
    P = D.projector(p)
    out = (np.eye(P.shape[0]) - P) @ top.components + P @ bot.components
    return TangentVector(p, out)


def _S_endos(
    M: ChartManifold, D: DistributionSpec, xs: Sequence[Array], p: Array,
    cfg: FDConfig = DEFAULT_FD, gamma: Optional[Array] = None,
) -> list[Array]:
    """S_x at p for each x in ``xs``, from P(p) and Gamma(p) evaluated once.

    ``gamma`` is Gamma(p) when the caller already holds it.  Column j of S_x is Pc nabla_x(P e_j) + P nabla_x(Pc e_j).  With
    nabla_x(P e_j) = (d_x P) e_j + Gamma_x P e_j and d_x Pc = -d_x P this is
    Pc (d_x P + Gamma_x P) + P (Gamma_x Pc - d_x P), where d_x P is the
    central difference of the projector along x that ``S_tensor`` takes.
    """
    P = D.projector(p)
    Pc = np.eye(P.shape[0]) - P
    gamma = christoffel(M, p, cfg) if gamma is None else gamma
    out = []
    for x in xs:
        dP = directional_diff(D.projector, p, x, cfg.step_h)
        Gx = christoffel_contract(gamma, np.asarray(x, dtype=float))
        out.append(Pc @ (dP + Gx @ P) + P @ (Gx @ Pc - dP))
    return out


def S_endo(
    M: ChartManifold, D: DistributionSpec, x: Array, p: Array,
    cfg: FDConfig = DEFAULT_FD,
) -> Array:
    """S_x as an endomorphism value at p (columns S_x applied to coordinates)."""
    return _S_endos(M, D, [x], p, cfg)[0]


def S_components(
    M: ChartManifold, D: DistributionSpec, p: Array, cfg: FDConfig = DEFAULT_FD
) -> Array:
    """S[k, i, j] = (S_{d_i} d_j)^k at p."""
    return np.stack(_S_endos(M, D, np.eye(p.size), p, cfg), axis=1)


def torsion_TD(
    M: ChartManifold, D: DistributionSpec, X: VectorField, Y: VectorField,
    p: Array, cfg: FDConfig = DEFAULT_FD,
) -> TangentVector:
    """Torsion of the adapted connection: -S_X Y + S_Y X.

    Restricted to two D-arguments it is (minus) an integrability tensor of
    D, and likewise for the complement.
    """
    a = S_tensor(M, D, X, Y, p, cfg)
    b = S_tensor(M, D, Y, X, p, cfg)
    return TangentVector(p, b.components - a.components)


def _GD_S(M: ChartManifold, D: DistributionSpec, q: Array, cfg: FDConfig) -> Array:
    """GD(q) and S(q) stacked, from one Christoffel evaluation.

    GD[k, i, j] = (nabla^D_{d_i} d_j)^k = Gamma - S are the adapted
    connection's coefficients; not symmetric in (i, j), as it has torsion.
    """
    gamma = christoffel(M, q, cfg)
    S = np.stack(_S_endos(M, D, np.eye(q.size), q, cfg, gamma), axis=1)
    return np.stack([gamma - S, S])


def _GD_S_jet(
    M: ChartManifold, D: DistributionSpec, p: Array, cfg: FDConfig
) -> tuple[Array, Array]:
    """(GD, S) at p and its central differences over step_h2, one stencil for both."""
    return _GD_S(M, D, p, cfg), central_diff(lambda q: _GD_S(M, D, q, cfg), p, cfg.step_h2)


def curvature_RD_tensor(
    M: ChartManifold, D: DistributionSpec, p: Array, cfg: FDConfig = DEFAULT_FD,
    jet: Optional[tuple[Array, Array]] = None,
) -> Array:
    """Curvature of the adapted connection, RD[i, j, k, l], from GD and d(GD).

    ``jet`` is ``_GD_S_jet(M, D, p, cfg)`` when the caller already holds it."""
    (GD, _), d_pair = _GD_S_jet(M, D, p, cfg) if jet is None else jet
    term_a = np.transpose(d_pair[:, 0], (0, 2, 3, 1))
    term_b = term_a.swapaxes(0, 1)
    quad_a = np.einsum("lim,mjk->ijkl", GD, GD)
    quad_b = quad_a.swapaxes(0, 1)
    return term_a - term_b + quad_a - quad_b


def nabla_D_S(
    M: ChartManifold, D: DistributionSpec, p: Array, cfg: FDConfig = DEFAULT_FD,
    jet: Optional[tuple[Array, Array]] = None,
) -> dict[str, Array]:
    """Components of (nabla^D_{d_m} S)_{d_i} d_j, indexed [m, k, i, j], by reading.

    "standard" differentiates S as a (1,2) tensor; "display" replaces the
    third correction term S_Y(nabla^D_X Z) by S_X(nabla^D_Y Z), the reading
    in which the defining display is sometimes typeset.  Both come from one
    evaluation of S, GD and dS; the full curvature relation check
    adjudicates between them.  ``jet`` is as in ``curvature_RD_tensor``.
    """
    (GD, S), d_pair = _GD_S_jet(M, D, p, cfg) if jet is None else jet
    # [m, k, i, j] = d_m S^k_ij plus the two corrections both readings share
    shared = d_pair[:, 1] + np.einsum("kma,aij->mkij", GD, S) - np.einsum("kaj,ami->mkij", S, GD)
    return {
        "standard": shared - np.einsum("kia,amj->mkij", S, GD),
        "display": shared - np.einsum("kma,aij->mkij", S, GD),
    }


def curvature_relation_residual(
    M: ChartManifold, D: DistributionSpec,
    x: Array, y: Array, z: Array, p: Array,
    cfg: FDConfig = DEFAULT_FD,
) -> dict[str, float]:
    """Residual of R = RD + (nabla S) terms + S_{T^D} + [S_X, S_Y] at p, by reading.

    One evaluation of R, RD, S and nabla^D S gives the residual under each
    ``nabla_D_S`` reading; RD and nabla^D S share one stencil of (GD, S).
    """
    lhs = np.einsum("ijkl,i,j,k->l", curvature_tensor(M, p, cfg), x, y, z)
    jet = _GD_S_jet(M, D, p, cfg)
    RD_xyz = np.einsum("ijkl,i,j,k->l", curvature_RD_tensor(M, D, p, cfg, jet), x, y, z)

    gamma = christoffel(M, p, cfg)
    Sx, Sy = _S_endos(M, D, [x, y], p, cfg, gamma)
    td = Sy @ x - Sx @ y  # T^D(x, y) = -S_x y + S_y x
    S_td_z = _S_endos(M, D, [td], p, cfg, gamma)[0] @ z
    comm_z = (Sx @ Sy - Sy @ Sx) @ z

    g = metric_eval(M, p)
    out = {}
    for reading, NS in nabla_D_S(M, D, p, cfg, jet).items():
        d = lhs - (RD_xyz + np.einsum("mkij,m,i,j->k", NS, x, y, z)
                   - np.einsum("mkij,m,i,j->k", NS, y, x, z) + S_td_z + comm_z)
        out[reading] = float(np.sqrt(max(d @ g @ d, 0.0)))
    return out


# ---------------------------------------------------------------------------
# the W endomorphism and L_P
# ---------------------------------------------------------------------------

def W_endo(
    M: ChartManifold, D: DistributionSpec, p: Array,
    onb: Sequence[TangentVector], cfg: FDConfig = DEFAULT_FD,
) -> Array:
    """W(X) = X + sum_i <S_{e_i} | S_X> e_i as a chart matrix at p.

    g-self-adjoint and positive definite (identity plus a Gram matrix), so
    always invertible; reduces to the identity when D is parallel.
    """
    S_list = _S_endos(M, D, [e.components for e in onb], p, cfg)
    return _W_matrix(metric_eval(M, p), S_list, onb)


def _W_matrix(g: Array, S_list: Sequence[Array], onb: Sequence[TangentVector]) -> Array:
    """W as a chart matrix from S_{e_i} over the g-orthonormal basis ``onb``."""
    E = np.column_stack([e.components for e in onb])
    G = column_gram(g, np.asarray(S_list) @ E)  # G[i, j] = <S_{e_i} | S_{e_j}>
    return E @ (np.eye(len(onb)) + G) @ np.linalg.inv(E)


def W_inverse_apply(W_matrix: Array, v: Array) -> Array:
    return np.linalg.solve(W_matrix, np.asarray(v, dtype=float))


def L_P_apply(
    M: ChartManifold, D: DistributionSpec, P: EndomorphismField,
    x: Array, p: Array, onb: Sequence[TangentVector],
    cfg: FDConfig = DEFAULT_FD,
) -> dict[str, Array]:
    """L_P(x) = W^{-1}( R_P(x) + sign * sum_i <(nabla_x P)_m | S_{e_i}> e_i ), by m-sign.

    The defining display carries sign -1 ("printed"); the total-space
    oracle on the adapted bundle matches the connection lines only with +1
    ("flipped"; see the adapted connection audit).  Both come from one
    assembly of R_P, nabla_x P, S and W.
    """
    g = metric_eval(M, p)
    RP = curvature_R_P(M, p, np.asarray(P.eval(p), dtype=float), onb, cfg)
    nP = endo_covariant_derivative(M, P, x, p, cfg)
    b = block_decompose(nP, D, p)
    nPm = b.off1 + b.off2
    signs = {"printed": -1.0, "flipped": +1.0}
    S_list = _S_endos(M, D, [e.components for e in onb], p, cfg)
    E = np.column_stack([e.components for e in onb])
    m_part = E @ column_gram(g, [nPm @ E], np.asarray(S_list) @ E)[0]  # sum_i <nPm | S_{e_i}> e_i
    W = _W_matrix(g, S_list, onb)
    return {name: W_inverse_apply(W, RP @ x + sign * m_part) for name, sign in signs.items()}


# ---------------------------------------------------------------------------
# adapted horizontal lift and the O(D) chart
# ---------------------------------------------------------------------------

def adapted_horizontal_lift(
    M: ChartManifold, D: DistributionSpec, X: TangentVector, u: Frame,
    cfg: FDConfig = DEFAULT_FD,
) -> FrameTangent:
    """Horizontal lift for the adapted connection: X^h + (S_X)*.

    Tangent to O(D) at adapted frames (checked by ``od_tangency_residual``).
    """
    return _adapted_horizontal_lifts(M, D, [X], u, cfg)[0]


def _adapted_horizontal_lifts(
    M: ChartManifold, D: DistributionSpec, Xs: Sequence[TangentVector], u: Frame,
    cfg: FDConfig = DEFAULT_FD,
) -> list[FrameTangent]:
    """``adapted_horizontal_lift`` of each X in ``Xs`` at u, with one O(D)
    membership check and every S_X from one ``_S_endos`` batch."""
    if od_membership_defect(M, D, u) > 1e-6:
        raise ValueError("frame is not adapted to the distribution")
    S = _S_endos(M, D, [X.components for X in Xs], u.base, cfg)
    return [horizontal_lift_frame(M, X, u, cfg) + fundamental_vertical(Sx, u)
            for X, Sx in zip(Xs, S)]


def od_constraints(M: ChartManifold, D: DistributionSpec, k: int):
    """O(D) membership constraints as a function of (x, E), for tangency tests."""

    def constraints(x: Array, E: Array) -> Array:
        g = metric_eval(M, x)
        P = D.projector(x)
        Pc = np.eye(x.size) - P
        parts = [(E.T @ g @ E - np.eye(x.size)).ravel()]
        if k > 0:
            parts.append((Pc @ E[:, :k]).ravel())
        if k < x.size:
            parts.append((P @ E[:, k:]).ravel())
        return np.concatenate(parts)

    return constraints


def od_tangency_residual(
    M: ChartManifold, D: DistributionSpec, t: FrameTangent,
    cfg: FDConfig = DEFAULT_FD,
) -> float:
    """Directional derivative of the O(D) membership constraints along t."""
    c = od_constraints(M, D, D.rank)
    u = t.at
    h = cfg.step_h
    plus = c(u.base + h * t.base_rate, u.columns + h * t.frame_rate)
    minus = c(u.base - h * t.base_rate, u.columns - h * t.frame_rate)
    return float(np.max(np.abs((plus - minus) / (2.0 * h))))


def adapted_chart(M: ChartManifold, D: DistributionSpec, name: str = "O(D)") -> FrameChart:
    """Chart on O(D): adapted reference frame plus block-diagonal skew coordinates."""
    return FrameChart(
        M,
        basis=block_skew_basis(M.dim, D.rank),
        reference=lambda x: adapted_frame(M, D, x).columns,
        name=name,
    )


def adapted_horizontal_field_on_chart(
    chart: FrameChart, M: ChartManifold, D: DistributionSpec, X: VectorField,
    cfg: FDConfig = DEFAULT_FD,
):
    """Chart field of the adapted horizontal lift of X (tangent to O(D))."""
    return lambda q: chart._rates_of(
        q, lambda u: adapted_horizontal_lift(M, D, TangentVector(u.base, X.eval(u.base)), u, cfg),
        cfg)


def adapted_connection_audit(
    M: ChartManifold, D: DistributionSpec, u: Frame, fields: dict,
    cfg: FDConfig = DEFAULT_FD,
) -> list[dict]:
    """Audit of the adapted-bundle connection displays against the O(D) oracle.

    Every row is diagnostic (asserted=False): the displays mix symbols and
    lift types, so plausible readings are evaluated against one oracle
    evaluation per point and the best-matching reading is flagged per case.
    """
    chart = adapted_chart(M, D)
    X, Y, P, Q = fields["X"], fields["Y"], fields["P"], fields["Q"]
    p = u.base
    onb = [TangentVector(p, u.columns[:, i]) for i in range(M.dim)]
    q = chart.encode(u)

    hX = adapted_horizontal_field_on_chart(chart, M, D, X, cfg)
    hY = adapted_horizontal_field_on_chart(chart, M, D, Y, cfg)
    vP = vertical_field_on_chart(chart, P, cfg)
    vQ = vertical_field_on_chart(chart, Q, cfg)

    def lift_D(vec: Array) -> FrameTangent:
        return adapted_horizontal_lift(M, D, TangentVector(p, vec), u, cfg)

    def nabla_D_endo(x: Array, E: EndomorphismField) -> Array:
        nE = endo_covariant_derivative(M, E, x, p, cfg)
        return g_block_projection(D, p, nE)

    xval = np.asarray(X.eval(p), dtype=float)
    yval = np.asarray(Y.eval(p), dtype=float)
    Pval = np.asarray(P.eval(p), dtype=float)
    Qval = np.asarray(Q.eval(p), dtype=float)

    RDxy = curvature_RD_tensor(M, D, p, cfg)
    RD_endo = np.einsum("ijkl,i,j->lk", RDxy, xval, yval)

    rows: list[dict] = []
    oracle = dict(zip(("hh", "hv", "vh", "vv"), lc_total_space_oracle(
        chart, [(hX, hY), (hX, vQ), (vP, hY), (vP, vQ)], q, cfg)))

    def case_rows(case, readings):
        for reading, rhs in readings:
            rows.append({
                "bundle": "O(D)",
                "case": case,
                "reading": reading,
                "residual": mok_norm(M, oracle[case] - rhs, cfg),
                "asserted": False,
            })

    # hh: nabla_{X^{h,D}} Y^{h,D}
    nab = covariant_derivative(M, X, Y, p, cfg).components
    nabD = nabla_D(M, D, X, Y, p, cfg).components
    case_rows("hh", [
        ("(nabla_X Y)^{h,D} - 1/2 RD(X,Y)*",
         lift_D(nab) + (-0.5) * fundamental_vertical(RD_endo, u)),
        ("(nablaD_X Y)^{h,D} - 1/2 RD(X,Y)*",
         lift_D(nabD) + (-0.5) * fundamental_vertical(RD_endo, u)),
    ])

    # hv: nabla_{X^{h,D}} Q*, with both m-term signs inside L
    LQ = L_P_apply(M, D, Q, xval, p, onb, cfg)
    nQ = fundamental_vertical(nabla_D_endo(xval, Q), u)
    half_LQp = 0.5 * lift_D(LQ["flipped"])
    case_rows("hv", [
        ("1/2 L-_Q(X)^{h,D} + (nablaD_X Q)* (printed m-sign)",
         0.5 * lift_D(LQ["printed"]) + nQ),
        ("1/2 L+_Q(X)^{h,D} + (nablaD_X Q)* (flipped m-sign)", half_LQp + nQ),
        ("1/2 L+_Q(X)^{h,D}", half_LQp),
    ])

    # vh: nabla_{P*} Y^{h,D}
    LP = L_P_apply(M, D, P, yval, p, onb, cfg)
    case_rows("vh", [
        ("1/2 L-_P(Y)^{h,D} (printed m-sign)", 0.5 * lift_D(LP["printed"])),
        ("1/2 L+_P(Y)^{h,D} (flipped m-sign)", 0.5 * lift_D(LP["flipped"])),
    ])

    # vv: nabla_{P*} Q*
    case_rows("vv", [
        ("-1/2 [P,Q]*", fundamental_vertical(-0.5 * (Pval @ Qval - Qval @ Pval), u)),
    ])

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
