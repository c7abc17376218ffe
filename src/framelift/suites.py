"""Verification suites over catalog entries.

Each suite evaluates one layer of the package against its independent
oracles and returns a list of CheckReports.  The CLI and the acceptance
tests both drive these functions, so a green suite here is exactly a green
run there.
"""

from __future__ import annotations

import numpy as np

from .geometry import (
    DEFAULT_FD,
    FDConfig,
    TangentVector,
    VectorField,
    _g_norm,
    _pairing_at,
    central_diff,
    christoffel,
    christoffel_contract,
    christoffel_derivative,
    connection_curvature,
    constant_field,
    covariant_derivatives,
    curvature_tensor,
    directional_diff,
    endo_inner,
    gram_schmidt,
    lie_bracket,
    metric_eval,
    norm,
    orthonormal_basis,
    sample_points,
)
from .frames import (
    Frame,
    FrameTangent,
    LMChart,
    bracket_residual,
    connection_audit,
    fundamental_vertical,
    horizontal_lift_frame,
    mok_gram,
    mok_metric,
    mok_norm,
    om_chart,
    reference_frame,
    total_space_cfg,
    total_space_christoffel,
    total_space_manifold,
    vertical_part,
)
from .adapted import (
    S_components,
    W_endo,
    _adapted_horizontal_lifts,
    adapted_connection_audit,
    adapted_derivatives,
    adapted_frame,
    block_decompose,
    curvature_relation_residual,
    m_projection,
    od_tangency_residual,
    projector_defects,
    reductive_split_defect,
    torsion_TD,
)
from .submersion import (
    A_identity_residuals,
    A_Y_endos,
    Pi_X_endo,
    Pi_X_endo_alt,
    _adapted_endo,
    _bilinear,
    _block_coefficients,
    adapted_endo_field,
    classify,
    derive_geometry,
    differential_matrix,
    dilatation,
    div_bot,
    lift_differential_fd,
    lift_differential_formula,
    lift_distributions,
    lift_map,
    lift_tension_direct,
    mean_curvature_fibers,
    pushforward_endo,
    second_fundamental_tensor,
    splitting,
    tension_conformal_display,
    tension_field,
)
from .tangent import (
    connection_map_K,
    phi_second_differential_fd,
    phi_second_differential_formula,
    pi_i_differential,
    pi_i_differential_fd,
    tm_distributions,
    tm_split,
    tm_vertical_lift,
)
from .catalog import CatalogEntry
from .fields import (
    _polynomial_vector_field,
    g_skew_endo_field,
    polynomial_endo_field,
    polynomial_vector_field,
)
from .reporting import CheckReport, Checks


def _rng(seed: int, *tags: int) -> np.random.Generator:
    return np.random.default_rng([seed, *tags])


def _tm_size(t: FrameTangent):
    """Largest absolute entry of a tangent-bundle vector's two rates, per point of a stack."""
    return np.max(np.abs(np.concatenate([t.base_rate, t.frame_rate[..., 0]], axis=-1)), axis=-1)


def _pairing(M, Y: VectorField, Z: VectorField, q):
    """g(Y, Z) at points q (..., dim), rounded as y @ g @ z at each point."""
    return _pairing_at(metric_eval(M, q), Y.eval(q), Z.eval(q))


# ---------------------------------------------------------------------------
# core chart calculus
# ---------------------------------------------------------------------------

def suite_core(entry: CatalogEntry, cfg: FDConfig = DEFAULT_FD,
               seed: int = 42, samples: int = 10) -> list[CheckReport]:
    checks = Checks(f"{entry.id}.core")
    for M, tag in ((entry.phi.source, "src"), (entry.phi.target, "tgt")):
        # every block once on the stack of sample points; per point, the draws are the
        # coefficients of X, Y and Z, then the vectors x, y and z
        pts = sample_points(M, seed, samples)
        n = M.dim
        m = n + n * n + n ** 3
        draws = _rng(seed, 1).standard_normal((len(pts), 3 * m + 3 * n))
        X, Y, Z = (_polynomial_vector_field(draws[:, i * m:(i + 1) * m], n) for i in range(3))
        x, y, z = np.split(draws[:, 3 * m:], 3, axis=-1)

        gamma = christoffel(M, pts)
        checks.row(f"gamma_symmetry.{tag}", "Gamma^k_ij = Gamma^k_ji", cfg.tol_exact,
                   np.max(np.abs(gamma - gamma.swapaxes(-1, -2)), axis=(-3, -2, -1)))
        lhs = directional_diff(lambda q: _pairing(M, Y, Z, q), pts, X.eval(pts), cfg.step_h)
        nXY, nXZ, nYX = (v.components for v in covariant_derivatives(
            M, [(X, Y), (X, Z), (Y, X)], pts, gamma, cfg))
        g = metric_eval(M, pts)
        checks.row(f"metric_compatibility.{tag}", "X g(Y,Z) = g(nabla_X Y, Z) + g(Y, nabla_X Z)", 1e-8,
                   np.abs(lhs - _pairing_at(g, nXY, Z.eval(pts)) - _pairing_at(g, Y.eval(pts), nXZ)))
        checks.row(f"torsion_free.{tag}", "nabla_X Y - nabla_Y X = [X, Y]", cfg.tol_fd1,
                   _g_norm(g, nXY - nYX - lie_bracket(X, Y, pts, cfg).components))
        R = curvature_tensor(M, pts, cfg)
        # the cyclic sum of einsum("...ijkl,...i,...j,...k->...l", R, x, y, z): the cyclic sum
        # of x (x) y (x) z, flattened, times R with its (i, j, k) axes flattened
        xyz = sum(a[:, :, None, None] * b[:, None, :, None] * c[:, None, None, :]
                  for a, b, c in ((x, y, z), (y, z, x), (z, x, y)))
        cyclic = (xyz.reshape(-1, 1, n ** 3) @ R.reshape(-1, n ** 3, n))[:, 0]
        checks.row(f"bianchi_first.{tag}", "R(X,Y)Z + R(Y,Z)X + R(Z,X)Y = 0", cfg.tol_fd1,
                   _g_norm(g, cyclic))
        checks.row(f"metric_derivative_vs_fd.{tag}", "supplied d_k g_ij matches central differences",
                   cfg.tol_fd1, np.max(np.abs(central_diff(M.metric_field, pts, cfg.step_h)
                                              - M.metric_derivative(pts)), axis=(-3, -2, -1)))

        # endomorphism inner product: basis independence
        p = pts[0]
        rng2 = _rng(seed, 2)
        P, Q = rng2.standard_normal((2, n, n))
        seeds = list(np.eye(n)[::-1] + 0.1 * rng2.standard_normal((n, n)))
        v1, v2 = (endo_inner(M, p, P, Q, onb)
                  for onb in (orthonormal_basis(M, p), gram_schmidt(M, p, seeds)))
        checks.row(f"endo_inner_basis_independent.{tag}", "<P|Q> equal over two orthonormal bases",
                   cfg.tol_exact * max(1.0, abs(v1)), abs(v1 - v2))
    return checks.reports


# ---------------------------------------------------------------------------
# tangent bundle
# ---------------------------------------------------------------------------

def suite_tangent(entry: CatalogEntry, cfg: FDConfig = DEFAULT_FD,
                  seed: int = 42, samples: int = 10) -> list[CheckReport]:
    checks = Checks(f"{entry.id}.tangent")
    phi = entry.phi
    M = phi.source
    geom = derive_geometry(phi)
    pts = sample_points(M, seed, samples)
    rng = _rng(seed, 3)
    n, k = M.dim, phi.target.dim

    # lifts and the splitting, once on the stack of sample points; per point, the
    # draws are the fiber of Z, the vector x and the two rates of t.  Every block below
    # reads the base jet at the sample points, or its leading rows
    g, gamma = metric_eval(M, pts), christoffel(M, pts)
    zf, x, base_rate, fiber_rate = np.split(rng.standard_normal((len(pts), 4 * n)), 4, axis=-1)
    Z = Frame(pts, 0.7 * zf[..., None])
    v = tm_vertical_lift(TangentVector(pts, x), Z)
    h = horizontal_lift_frame(gamma, TangentVector(pts, x), Z)
    checks.row("lift_identities", "K(X^v)=X, K(X^h)=0, pi(X^h)=X, pi(X^v)=0", cfg.tol_exact,
               *(np.max(np.abs(d), axis=-1) for d in (
                   connection_map_K(gamma, v).components - x, connection_map_K(gamma, h).components,
                   h.base_rate - x, v.base_rate)))
    t = FrameTangent(Z, base_rate, fiber_rate[..., None])
    hh, vv = tm_split(gamma, t)
    checks.row("splitting_exact", "t = (pi_* t)^h + (K t)^v", cfg.tol_exact, _tm_size(hh + vv - t))
    checks.row("horizontal_vertical_orthogonal", "g_TM(X^h, Y^v) = 0", cfg.tol_exact,
               np.abs(mok_metric(g, gamma, h, v)))

    # second differential: formula vs finite differences, each kind once on the stack;
    # per point, the draws are the fiber of Z and the vector X
    for kind in ("vertical", "horizontal"):
        zf, x = np.split(rng.standard_normal((len(pts), 2 * n)), 2, axis=-1)
        Z = Frame(pts, 0.7 * zf[..., None])
        X = TangentVector(pts, x)
        t = tm_vertical_lift(X, Z) if kind == "vertical" else horizontal_lift_frame(gamma, X, Z)
        checks.row(f"second_differential.{kind}", "second differential formula matches central differences",
                   cfg.tol_fd2, _tm_size(phi_second_differential_fd(phi, t, cfg)
                                         - phi_second_differential_formula(phi, kind, X, Z, cfg)))

    # kernel/orthogonal distributions of the tangent-bundle map, point by point: the
    # null space is per point.  S is built once on the distribution points; each point
    # gives one evaluation of each row, the worst of its values
    D = geom.horizontal
    dpts = pts[: max(2, samples // 3)]
    S = S_components(M, D, dpts, gamma[:len(dpts)], D.projector(dpts), cfg)
    dims, kernel, cross, shown_cross, const = [], [], [], [], []
    for p, g_p, gamma_p, S_p in zip(dpts, g, gamma, S):
        Z = Frame(p, 0.7 * rng.standard_normal((n, 1)))
        Vb, Hb, const_ext, shown = tm_distributions(geom, Z, S_p, g_p, gamma_p)
        # one Sasaki-Mok Gram of kernel, complement and displayed vectors; the kernel
        # vectors are independent: their own block has full rank
        G, kv, kh = mok_gram(g_p, gamma_p, Vb + Hb + shown), len(Vb), len(Vb) + len(Hb)
        dims.append(0.0 if (len(Vb), len(Hb)) == (2 * (n - k), 2 * k)
                    and np.linalg.matrix_rank(G[:kv, :kv]) == kv else 1.0)
        # both kernel readings share the vertical lifts e^v; only the corrected half differs
        sizes = _tm_size(phi_second_differential_fd(phi, FrameTangent.stack(Vb + const_ext), cfg))
        kernel.append(np.max(sizes[:kv], initial=0.0))
        cross.append(np.max(np.abs(G[:kv, kv:kh]), initial=0.0))
        # displayed orthogonal-side formula, reported against the complement
        shown_cross.append(np.max(np.abs(G[kh:, :kv]), initial=0.0))
        const.append(np.max(np.concatenate([sizes[:kv // 2], sizes[kv:]]), initial=0.0))
    checks.row("kernel_distribution", "second differential kills the kernel basis", cfg.tol_fd2,
               np.array(kernel))
    checks.row("distribution_orthogonality", "kernel and complement are Sasaki-orthogonal",
               cfg.tol_fd1, np.array(cross))
    checks.row("distribution_dimensions", "dim kernel = 2(n-k), dim complement = 2k", 0.5,
               np.array(dims))
    checks.row("displayed_h_vs_complement", "displayed orthogonal-side formula vs kernel (diagnostic)",
               cfg.tol_fd2, np.array(shown_cross), kind="audit")
    checks.row("kernel_constant_extension", "kernel formula under bare constant extension (diagnostic)",
               cfg.tol_fd2, np.array(const), kind="audit")

    # frame-to-tangent-bundle projections are Riemannian submersions, once on n copies of
    # the frame at the first sample point, copy i for column i; per copy, the draws are
    # the vector x and the endomorphism P
    p = pts[0]
    u = Frame(np.tile(p, (n, 1)), np.tile(reference_frame(M, p), (n, 1, 1)))
    x, P = np.split(_rng(seed, 4).standard_normal((n, n + n * n)), [n], axis=-1)
    th = horizontal_lift_frame(gamma[0], TangentVector(u.base, x), u)
    t = th + fundamental_vertical(P.reshape(n, n, n), u)
    cols = np.arange(n)
    differential = _tm_size(pi_i_differential(M, t, cols) - pi_i_differential_fd(M, t, cols, cfg))
    ti = pi_i_differential(M, th, cols)
    isometry = np.abs(mok_metric(g[0], gamma[0], th, th) - mok_metric(g[0], gamma[0], ti, ti))
    checks.row("frame_projection_differential", "column projection maps lifts to lifts", cfg.tol_fd1,
               differential)
    checks.row("frame_projection_isometry", "column projection is isometric on horizontals",
               cfg.tol_fd1, isometry)
    return checks.reports


# ---------------------------------------------------------------------------
# frame bundle
# ---------------------------------------------------------------------------

def suite_frame(entry: CatalogEntry, cfg: FDConfig = DEFAULT_FD,
                seed: int = 42, samples: int = 10) -> list[CheckReport]:
    checks = Checks(f"{entry.id}.frame")
    phi = entry.phi
    M = phi.source
    pts = sample_points(M, seed, samples)
    rng = _rng(seed, 5)

    # structural identities, evaluated once on the stack of sample frames; per
    # frame, the draws are x, P, K, the matrix behind Q and the chart coordinates a
    chart = om_chart(M)
    frames = Frame(pts, reference_frame(M, pts))
    n = M.dim
    x, P, K, Qd, a = np.split(rng.standard_normal((len(pts), n + 3 * n * n + len(chart.basis))),
                              np.cumsum([n, n * n, n * n, n * n]), axis=-1)
    P, K, Qd = (m.reshape(-1, n, n) for m in (P, K, Qd))
    # the base jet at the sample points, built once: every block below reads it, the
    # connection audits at the first sample points its leading rows
    g, gamma = metric_eval(M, pts), christoffel(M, pts)
    h = horizontal_lift_frame(gamma, TangentVector(pts, x), frames)
    t = h + fundamental_vertical(P, frames)
    rec = (horizontal_lift_frame(gamma, TangentVector(pts, t.base_rate), frames)
           + fundamental_vertical(vertical_part(gamma, t), frames))
    checks.row("decomposition_exact", "t = (pi_* t)^h + V(t)*", cfg.tol_exact,
               np.max(np.abs(rec.frame_rate - t.frame_rate), axis=(-2, -1)),
               np.max(np.abs(rec.base_rate - t.base_rate), axis=-1))
    skew = np.linalg.solve(g, 0.5 * (K - K.swapaxes(-1, -2)))
    checks.row("mok_block_orthogonal", "g_L(X^h, P*) = 0", cfg.tol_exact,
               np.abs(mok_metric(g, gamma, h, fundamental_vertical(skew, frames))))
    # right invariance under a constant orthogonal matrix
    Q, _ = np.linalg.qr(Qd)
    s = h + fundamental_vertical(skew, frames)
    sk = FrameTangent(Frame(pts, frames.columns @ Q), s.base_rate, s.frame_rate @ Q)
    checks.row("mok_right_invariant", "Mok norms invariant under constant right rotation",
               cfg.tol_exact * 100, np.abs(mok_metric(g, gamma, s, s) - mok_metric(g, gamma, sk, sk)))
    # orthonormal chart round trip
    a = 0.4 * a
    _, a2 = chart.split(chart.encode(chart.decode(chart.join(pts, a))))
    checks.row("om_chart_roundtrip", "decode then encode returns the skew coordinates", 1e-10,
               np.max(np.abs(a - a2), axis=-1))

    # bracket identities against the finite-difference bracket, each on the stack of
    # sample frames; the base curvature tensors at the sample points, from the jet's
    # Gamma, serve the bracket, connection and adapted audits
    Rs = connection_curvature(gamma, christoffel_derivative(M, pts, cfg))
    lm = LMChart(M)
    X = polynomial_vector_field(M.dim, rng)
    Y = polynomial_vector_field(M.dim, rng)
    Q = polynomial_endo_field(M.dim, rng)
    P = polynomial_endo_field(M.dim, rng)
    cases = (("hh", (X, Y), "[X^h, Y^h] = [X,Y]^h - R(X,Y)*"), ("hv", (X, Q), "[X^h, Q*] = (nabla_X Q)*"),
             ("vv", (P, Q), "[P*, Q*] = -[P,Q]*"))
    residuals = bracket_residual(M, lm, [c[:2] for c in cases], frames, g, gamma, Rs, cfg)
    for (case, _, ident), res in zip(cases, residuals):
        checks.row(f"bracket.{case}", ident, cfg.tol_fd2, res["resolved"])
        if case == "hv":
            checks.row("bracket.hv_literal_sign", "[X^h, Q*] = -(nabla_X Q)* (diagnostic)", cfg.tol_fd2,
                       res["literal"][:2], kind="audit")

    # connection formulas against the total-space oracle, both bundles on the first three frames;
    # L(M)'s total-space Gamma is built once, there and at the adapted frame at pts[0]
    Qs = g_skew_endo_field(M, rng)
    Ps = g_skew_endo_field(M, rng)
    few, p, geom = min(3, samples), pts[0], derive_geometry(phi)
    u = adapted_frame(M, geom.horizontal, p)
    gamma_total = total_space_christoffel(lm, Frame(np.vstack([pts[:few], p]),
                                                    np.concatenate([frames.columns[:few], u.columns[None]])), cfg)
    rows = connection_audit(M, frames[:few], {"L": dict(X=X, Y=Y, P=P, Q=Q), "O": dict(X=X, Y=Y, P=Ps, Q=Qs)},
                            g[:few], gamma[:few], Rs[:few], gamma_total[:few], cfg)
    # bundle by bundle, asserted rows first, each group in case order
    for r in sorted(rows, key=lambda r: (r["bundle"], not r["asserted"])):
        if r["asserted"]:
            checks.row(f"connection.{r['bundle']}.{r['case']}",
                       "closed-form connection matches total-space oracle", cfg.tol_fd2, r["residual"])
        else:
            checks.row(f"connection.{r['bundle']}.{r['case']}_literal",
                       "displayed hv/vh term placement (diagnostic)", cfg.tol_fd2, r["residual"],
                       kind="audit")

    # oracle self-consistency on the full frame bundle's total space
    total = total_space_manifold(lm, cfg)
    cfg_total = total_space_cfg(cfg)
    q = lm.encode(frames[0])
    rngt = _rng(seed, 6)
    A, B, C = (polynomial_vector_field(total.dim, rngt, exact_jacobian=False) for _ in range(3))
    nAB, nBA, nCA, nCB = (v.components for v in covariant_derivatives(
        total, [(A, B), (B, A), (C, A), (C, B)], q, gamma_total[0], cfg_total))
    br = lie_bracket(A, B, q, cfg_total).components
    tf = nAB - nBA - br
    Gq = metric_eval(total, q)
    checks.row("oracle_torsion_free", "total-space oracle connection is torsion free", cfg.tol_fd2,
               _g_norm(Gq, tf))

    lhs = directional_diff(lambda qq: _pairing(total, A, B, qq), q, C.eval(q), cfg_total.step_h)
    checks.row("oracle_metric_compatible", "total-space oracle connection preserves the induced metric",
               cfg.tol_fd2 * 10,
               abs(lhs - _pairing_at(Gq, nCA, B.eval(q)) - _pairing_at(Gq, A.eval(q), nCB)))

    # adapted-bundle connection displays: diagnostic table
    k = geom.rank
    Ja = np.zeros((k, k))
    if k >= 2:
        Ja[0, 1], Ja[1, 0] = -1.0, 1.0
    Pa = adapted_endo_field(geom, top=0.8 * Ja)
    Qa = adapted_endo_field(geom, top=-1.3 * Ja)
    for r in adapted_connection_audit(M, geom.horizontal, u,
                                      dict(X=X, Y=Y, P=Pa, Q=Qa), g[0], gamma[0], Rs[0], gamma_total[few], cfg):
        checks.row(f"adapted_connection.{r['case']}.{'best' if r['best_match'] else 'alt'}",
                   r["reading"], cfg.tol_fd2, r["residual"], kind="audit")
    return checks.reports


# ---------------------------------------------------------------------------
# adapted bundle
# ---------------------------------------------------------------------------

def suite_adapted(entry: CatalogEntry, cfg: FDConfig = DEFAULT_FD,
                  seed: int = 42, samples: int = 10) -> list[CheckReport]:
    checks = Checks(f"{entry.id}.adapted")
    phi = entry.phi
    M = phi.source
    geom = derive_geometry(phi)
    D = geom.horizontal
    pts = sample_points(M, seed, samples)
    few = pts[: max(3, samples // 2)]
    rng = _rng(seed, 7)

    # the base jet and the difference tensor S at the sample points, built once: every
    # block below reads them, at the first sample points their leading rows
    g, gamma, Pi = metric_eval(M, pts), christoffel(M, pts), D.projector(pts)
    S = S_components(M, D, pts, gamma, Pi, cfg)

    # projector, blocks and m-projection, evaluated once on the stack of sample
    # points; per point, the draws are P and K
    d = projector_defects(M, D, pts, Pi)
    checks.row("projector_invariants", "projector idempotent, self-adjoint, trace k", cfg.tol_exact * 100,
               d["idempotent"], d["self_adjoint"], d["trace"])
    P, K = np.moveaxis(rng.standard_normal((len(pts), 2, M.dim, M.dim)), 1, 0)
    b = block_decompose(P, Pi)
    checks.row("block_reassembly", "top + bot + off-blocks reassemble the endomorphism",
               cfg.tol_exact * 100, np.max(np.abs(b.reassemble() - P), axis=(-2, -1)))
    m1 = m_projection(M, pts, np.linalg.solve(g, 0.5 * (K - K.swapaxes(-1, -2))), Pi)
    m2 = m_projection(M, pts, m1, Pi)
    gm = g @ m1
    checks.row("m_projection", "block-mixing projection idempotent and skew", cfg.tol_exact * 100,
               np.max(np.abs(m2 - m1), axis=(-2, -1)),
               np.max(np.abs(gm + gm.swapaxes(-1, -2)), axis=(-2, -1)))

    # the adapted connection and its difference tensor, once on the stack of the first
    # sample points; per point, the draws are the coefficients of X, Y and Z, then the
    # vectors z, y and x
    n = M.dim
    m = n + n * n + n ** 3
    draws = rng.standard_normal((len(few), 3 * m + 3 * n))
    X, Y, Z = (_polynomial_vector_field(draws[:, i * m:(i + 1) * m], n) for i in range(3))
    z, y, x = np.split(draws[:, 3 * m:], 3, axis=-1)
    gf = g[:len(few)]
    Ytop = VectorField(eval=lambda q: (D.projector(q) @ (1.0 + 0.3 * q)[..., None])[..., 0])
    # tensoriality: rescale Y by a function equal to 1 at each point.  The kernel reads X
    # at the points only, where a rescaled X equals X bit for bit: one direction serves all
    f = lambda q: 1.0 + ((q - few)[..., None, :] @ np.arange(1.0, n + 1.0)[:, None])[..., 0]
    Ys = VectorField(eval=lambda q: f(q) * Y.eval(q))
    xf = X.eval(few)
    (nd, a, b, _), (_, s1, _, s2) = adapted_derivatives(
        M, D, xf, [Ytop, Y, Z, Ys], few, gamma[:len(few)], Pi[:len(few)], cfg)
    checks.row("connection_preserves_blocks", "adapted connection maps sections of D into D", cfg.tol_fd1,
               _g_norm(gf, ((np.eye(n) - Pi[:len(few)]) @ nd[..., None])[..., 0]))
    lhs = directional_diff(lambda q: _pairing(M, Y, Z, q), few, xf, cfg.step_h)
    checks.row("connection_metric_compatible", "adapted connection preserves the metric", cfg.tol_fd1,
               np.abs(lhs - _pairing_at(gf, a, Z.eval(few)) - _pairing_at(gf, Y.eval(few), b)))
    checks.row("difference_tensorial", "difference tensor unchanged by unit-at-p rescalings", cfg.tol_fd1,
               np.max(np.abs(s1 - s2), axis=-1))
    # skew-symmetry of S in its last two slots
    Sx = christoffel_contract(S[:len(few)], x)
    checks.row("difference_skew", "g(S_X Y, Z) + g(Y, S_X Z) = 0", cfg.tol_fd1, np.abs(
        _pairing_at(gf, (Sx @ y[..., None])[..., 0], z) + _pairing_at(gf, y, (Sx @ z[..., None])[..., 0])))

    # torsion restricted to the distribution detects integrability, on each pair of
    # horizontal columns of the adapted frames at the first sample points; a zero per
    # point counts the points when D has no pair
    u = adapted_frame(M, D, pts)
    hb = u.columns[:len(few), :, :D.rank]
    torsions = (np.zeros(len(few)), *(_g_norm(gf, torsion_TD(
        constant_field(hb[..., i]), constant_field(hb[..., j]), few, S[:len(few)]).components)
        for i, j in zip(*np.triu_indices(D.rank, 1))))
    if entry.h_integrable:
        checks.row("torsion_integrable", "adapted torsion vanishes on the distribution", cfg.tol_fd1,
                   *torsions)
    else:
        checks.row("torsion_nonintegrable", "adapted torsion detects non-integrability (> 0.1)", 0.1,
                   *torsions, invert=True)

    # curvature relation between the two connections, once on the stack of the first
    # three sample points; per point, the draws are x, y and z
    three = pts[:3]
    x, y, z = np.moveaxis(rng.standard_normal((len(three), 3, n)), 1, 0)
    res = curvature_relation_residual(M, D, x, y, z, three, S[:len(three)], cfg)
    checks.row("curvature_relation", "R = RD + antisymmetrized nabla S + S_torsion + [S,S]", cfg.tol_fd2,
               res["standard"])
    checks.row("curvature_relation_display_convention",
               "same relation with the displayed nabla-S convention (diagnostic)", cfg.tol_fd2,
               res["display"], kind="audit")

    # W endomorphism: defining identity and positivity, evaluated once on the
    # stack of adapted frames at the sample points; per point, the draws are
    # two (x, y) pairs for the W lemma and one x for the lift identities
    x1, y1, x2, y2, x = np.moveaxis(rng.standard_normal((len(pts), 5, M.dim)), 1, 0)
    Wm = W_endo(g, u, S)
    tx1, ty1, tx2, ty2, t = _adapted_horizontal_lifts(
        M, D, [TangentVector(pts, v) for v in (x1, y1, x2, y2, x)], u, gamma, Pi, S)
    w_lemma = np.concatenate([
        np.abs(_pairing_at(g, a, (Wm @ b[..., None])[..., 0]) - mok_metric(g, gamma, ta, tb))
        for a, b, ta, tb in ((x1, y1, tx1, ty1), (x2, y2, tx2, ty2))])
    W_onb = np.linalg.inv(u.columns) @ Wm @ u.columns
    w_positive = 1.0 - np.min(np.linalg.eigvalsh(0.5 * (W_onb + W_onb.swapaxes(-1, -2))), axis=-1)
    t2 = (horizontal_lift_frame(gamma, TangentVector(pts, x), u)
          + fundamental_vertical(christoffel_contract(S, x), u))
    frame_gap = np.max(np.abs(t.frame_rate - t2.frame_rate), axis=(-2, -1))
    base_gap = np.max(np.abs(t.base_rate - t2.base_rate), axis=-1)
    tangency = od_tangency_residual(M, D, t, cfg)
    checks.row("w_lemma", "g(X, W Y) equals the Mok product of adapted lifts", cfg.tol_fd1, w_lemma)
    checks.row("w_positive", "W has eigenvalues at least 1", cfg.tol_exact * 100, w_positive)
    checks.row("lift_difference_identity", "adapted lift = plain lift + (S_X)* exactly", cfg.tol_exact,
               frame_gap, base_gap)
    checks.row("lift_tangency", "adapted lift is tangent to the adapted bundle", cfg.tol_fd1, tangency)

    # reductive block algebra
    checks.row("reductive_split", "[block-diagonal, block-mixing] stays block-mixing", 1e-12,
               reductive_split_defect(M.dim, D.rank, _rng(seed, 8)))
    return checks.reports


# ---------------------------------------------------------------------------
# submersion lifts
# ---------------------------------------------------------------------------

def suite_lift(entry: CatalogEntry, cfg: FDConfig = DEFAULT_FD,
               seed: int = 42, samples: int = 10) -> list[CheckReport]:
    checks = Checks(f"{entry.id}.lift")
    phi = entry.phi
    M = phi.source
    geom = derive_geometry(phi)
    D = geom.horizontal
    pts = sample_points(M, seed, samples)
    few = pts[: max(3, samples // 2)]
    rng = _rng(seed, 9)
    k = geom.rank

    # differential: exact Jacobian against central differences, and the splitting,
    # evaluated once on the stack of sample points; every block below slices its split
    fd = central_diff(phi.map, pts, cfg.step_h).swapaxes(-1, -2)
    checks.row("jacobian_vs_fd", "exact Jacobian matches central differences", cfg.tol_fd1,
               np.max(np.abs(fd - phi.jacobian(pts)), axis=(-2, -1)))
    J, _, Pi_H = split = splitting(phi, pts)
    Pi_V = np.eye(M.dim) - Pi_H
    checks.row("splitting_projectors", "projectors sum to the identity and kill the kernel",
               cfg.tol_exact * 1e3, np.max(np.abs(Pi_V + Pi_H - np.eye(M.dim)), axis=(-2, -1)),
               np.max(np.abs(J @ Pi_V), axis=(-2, -1)), np.max(np.abs(Pi_H @ Pi_V), axis=(-2, -1)))

    # dilatation against the catalog value, read from the adapted frames at the
    # sample points; every block below reads the frames at the first of them
    frames = adapted_frame(M, D, pts)
    lams, defects = dilatation(geom, frames)
    if entry.expected_lambda is not None:
        checks.row("dilatation_value", "dilatation matches the catalog value", cfg.tol_fd1,
                   np.abs(lams - entry.expected_lambda))
    checks.row("conformality_defect", "horizontal Gram matrix proportional to the identity",
               cfg.tol_fd1, defects)

    # second fundamental form symmetry, A-identity, Pi_X displays, evaluated once on
    # the stack of adapted frames at the first sample points.  Per point, the draws
    # are (x, y) for the symmetry and X for the displays.  g, Gamma, the split, S and B
    # there are built once: every reader below takes them
    frames = frames[:len(few)]
    E = frames.columns
    split_few = tuple(a[:len(few)] for a in split)
    g, gamma, Pi = metric_eval(M, few), christoffel(M, few), split_few[2]
    S = S_components(M, D, few, gamma, Pi, cfg)
    x, y, w = np.moveaxis(rng.standard_normal((len(few), 3, M.dim)), 1, 0)
    B = second_fundamental_tensor(phi, few, cfg)
    checks.row("second_fundamental_symmetric", "second fundamental form symmetric in its arguments",
               cfg.tol_fd2, _g_norm(metric_eval(phi.target, phi.value(few)),
                                    _bilinear(B, x, y) - _bilinear(B, y, x)))
    readings = A_identity_residuals(geom, np.moveaxis(E[..., :, :k], -1, 0),
                                    np.moveaxis(E[..., :, k:], -1, 0), few, B, S, Pi)
    checks.row("a_identity", "pushforward of A_Y(X) is minus the mixed second fundamental form",
               cfg.tol_fd2, *(r["asserted"] for r in readings))
    checks.row("a_identity_printed_sign", "same identity with a plus sign (diagnostic)", cfg.tol_fd2,
               *(r["printed"] for r in readings), kind="audit")
    displays = Pi_X_endo(split_few, w, B) - Pi_X_endo_alt(geom, TangentVector(few, w), split_few, cfg)
    checks.row("pi_x_displays_agree", "two constructions of the horizontal second-form endo agree",
               cfg.tol_fd2, np.max(np.abs(displays), axis=(-2, -1)))

    # pushforward of endomorphisms at the first sample point: identity and multiplicativity
    split_p = tuple(a[0] for a in split)
    Pi_p = split_p[2]
    checks.row("pushforward_identity", "pushforward of the horizontal identity is the identity",
               cfg.tol_exact * 1e3, np.max(np.abs(pushforward_endo(split_p, Pi_p) - np.eye(k))))
    P0 = Pi_p @ rng.standard_normal((M.dim, M.dim)) @ Pi_p
    Q0 = Pi_p @ rng.standard_normal((M.dim, M.dim)) @ Pi_p
    lhs = pushforward_endo(split_p, P0 @ Q0)
    rhs = pushforward_endo(split_p, P0) @ pushforward_endo(split_p, Q0)
    checks.row("pushforward_multiplicative", "pushforward respects composition", cfg.tol_exact * 1e4,
               np.max(np.abs(lhs - rhs)))

    # divergence duality, once on the stack of adapted frames at the first sample points:
    # five random blocks per point, block t against A of vertical column t mod (n - k)
    tops = np.moveaxis(rng.standard_normal((len(few), 5, k, k)), 1, 0)
    ys = np.moveaxis(E[..., :, k + np.arange(5) % (M.dim - k)], -1, 0)
    Cs = _adapted_endo(M, _block_coefficients(M.dim, k, tops, None), few, E)
    onb = [TangentVector(few, e) for e in np.moveaxis(E, -1, 0)]
    duality = endo_inner(M, few, np.asarray(A_Y_endos(ys, S, Pi)), Cs, onb) + _pairing_at(
        g, ys, div_bot(geom, tops, frames, gamma, Pi, cfg))
    checks.row("div_duality", "<A_X | C> = -g(X, vertical divergence of C)", cfg.tol_fd2,
               np.ravel(np.abs(duality)))

    # the lifted frame
    v = lift_map(geom, frames[:3], Pi[:3])
    G = v.columns.swapaxes(-1, -2) @ metric_eval(phi.target, v.base) @ v.columns
    checks.row("lifted_frame_gram", "lifted frame Gram equals the dilatation times identity", cfg.tol_fd1,
               np.max(np.abs(G - lams[:3, None, None] * np.eye(k)), axis=(-2, -1)))

    # lift differential: formula vs finite differences, three input types on the stack
    # of frames, all differenced in one call and normed in one; per point, the draws are
    # the coefficients of x in the horizontal and of y in the vertical columns.  The
    # target jet at the lifted frames' base points phi(few) serves both Mok norms below
    images = phi.value(few)
    g_t, gamma_t = metric_eval(phi.target, images), christoffel(phi.target, images)
    blk = np.zeros((M.dim, M.dim))
    if k >= 2:
        blk[0, 1], blk[1, 0] = 1.0, -1.0
    if M.dim - k >= 2:
        blk[k, k + 1], blk[k + 1, k] = 1.0, -1.0
    coefficients = rng.standard_normal((len(few), M.dim, 1))
    x = (E[..., :, :k] @ coefficients[:, :k])[..., 0]
    y = (E[..., :, k:] @ coefficients[:, k:])[..., 0]
    P0 = _adapted_endo(M, blk, few, E)
    tx, ty = _adapted_horizontal_lifts(M, D, [TangentVector(few, x), TangentVector(few, y)],
                                       frames, gamma, Pi, S)
    cases = (("horizontal-of-H", tx, x), ("horizontal-of-V", ty, y),
             ("vertical", fundamental_vertical(P0, frames), P0))
    d = lift_differential_fd(geom, FrameTangent.stack([t for _, t, _ in cases]), Pi, cfg) - FrameTangent.stack(
        [lift_differential_formula(geom, case, arg, frames, S, B, split_few) for case, _, arg in cases])
    for (case, _, _), residual in zip(cases, mok_norm(g_t, gamma_t, d)):
        checks.row(f"differential.{case}", "lift differential formula matches central differences",
                   cfg.tol_fd2, residual)

    # kernel / orthogonal distributions of the lift, evaluated once on the stack
    # of adapted frames at the sample points
    n = M.dim
    Vb, Hb = lift_distributions(geom, frames, gamma, Pi, S, cfg)
    dims_ok = (len(Vb), len(Hb)) == ((n - k) + (n - k) * (n - k - 1) // 2, k + k * (k - 1) // 2)
    kernel = mok_norm(g_t, gamma_t, lift_differential_fd(
        geom, FrameTangent.stack(Vb), Pi, cfg, check_tangency=False))  # (len(Vb), len(few))
    checks.row("kernel_distribution", "lift differential kills the kernel basis", cfg.tol_fd2, *kernel)
    checks.row("distribution_orthogonality", "kernel and orthogonal bases have zero Mok cross Gram",
               cfg.tol_fd1, np.abs(mok_gram(g, gamma, Vb + Hb)[:, :len(Vb), len(Vb):]))
    checks.row("dimension_identity", "kernel and orthogonal dimensions sum to the bundle dimension",
               0.5, np.full(len(few), 0.0 if dims_ok else 1.0))
    return checks.reports


# ---------------------------------------------------------------------------
# theorems
# ---------------------------------------------------------------------------

def suite_theorems(entry: CatalogEntry, cfg: FDConfig = DEFAULT_FD,
                   seed: int = 42, samples: int = 10) -> list[CheckReport]:
    checks = Checks(f"{entry.id}.theorems")
    phi = entry.phi
    geom = derive_geometry(phi)
    pts = sample_points(phi.source, seed, max(3, samples // 2))
    rep = classify(geom, pts, cfg)

    def verdict(key: str, identity: str, got, expect) -> None:
        checks.row(key, identity, 0.5, 0.0 if got is expect else 1.0, inconclusive=got is None)

    flags = [
        ("horizontally_conformal", rep.horizontally_conformal, True if entry.expected_lambda is not None else None),
        ("totally_geodesic", rep.totally_geodesic, entry.totally_geodesic),
        ("fibers_totally_geodesic", rep.fibers_totally_geodesic, entry.fibers_totally_geodesic),
        ("h_integrable", rep.h_integrable, entry.h_integrable),
        ("harmonic_morphism", rep.harmonic_morphism, entry.harmonic_morphism),
    ]
    for name, got, expect in flags:
        if expect is not None:
            verdict(f"flag.{name}", f"measured {name} verdict matches the catalog", got, expect)

    if entry.expected_lambda is not None:
        checks.row("dilatation_constant", "dilatation constant at the catalog value",
                   cfg.tol_fd1 * (1 + entry.expected_lambda),
                   np.abs(np.asarray(rep.dilatation_samples) - entry.expected_lambda))

    # two-sided conformality of the lift
    if entry.lift_conformal:
        checks.row("lift_defect_small", "measured lift conformality defect below 5e-3", 5e-3,
                   rep.lift_defect_measured)
        checks.row("lift_lambda_constant", "lift dilatation constant (std below 1e-4)", 1e-4,
                   rep.lift_lambda_std)
        checks.row("lift_lambda_matches_base", "lift dilatation equals base dilatation along the projection",
                   1e-4, rep.lift_lambda_vs_base_max)
        if entry.expected_big_lambda is not None:
            checks.row("lift_lambda_value", "lift dilatation matches the catalog value",
                       1e-4 * (1 + entry.expected_big_lambda),
                       np.abs(np.asarray(rep.lift_lambda_samples) - entry.expected_big_lambda))
    else:
        checks.row("lift_defect_large", "measured lift conformality defect above 0.01", 0.01,
                   rep.lift_defect_measured,
                   np.max(rep.lift_lambda_samples) - np.min(rep.lift_lambda_samples), invert=True)

    verdict("conformality_two_sided", "predicted and measured lift conformality agree",
            rep.verdicts_agree, True)

    # harmonic morphism side
    verdict("lift_harmonic_morphism", "lift harmonic-morphism verdict via the characterization",
            rep.lift_harmonic_morphism_predicted, entry.lift_harmonic_morphism)

    # tension magnitude expectations
    if entry.tension_zero:
        checks.row("tension_zero", "tension field vanishes for the Hopf fibration", cfg.tol_fd2,
                   rep.tension_max)
    if entry.tension_unit_at is not None:
        p0 = np.array(entry.tension_unit_at)
        y0 = phi.value(p0)
        tn = norm(phi.target, y0, tension_field(geom, p0, cfg))
        H = mean_curvature_fibers(geom, adapted_frame(phi.source, geom.horizontal, p0),
                                  christoffel(phi.source, p0), geom.horizontal.projector(p0), cfg)
        pushed = differential_matrix(phi, p0) @ H.components
        checks.row("tension_norm_one", "tension norm equals 1 at the warped origin", 5e-3, abs(tn - 1.0))
        checks.row("tension_equals_fiber_curvature", "tension norm equals pushed mean-curvature norm",
                   5e-3, abs(tn - norm(phi.target, y0, pushed)))

    # the two tension displays agree on constant-dilatation entries
    if entry.expected_lambda is not None:
        two = pts[:2]
        d = tension_field(geom, two, cfg) - tension_conformal_display(geom, two, cfg)
        checks.row("tension_displays_agree", "trace form of the tension matches the conformal form",
                   cfg.tol_fd2, _g_norm(metric_eval(phi.target, phi.value(two)), d))

    # direct total-space tension of the lift at one point (4-8 ms on any catalog entry,
    # 2-vCPU x86_64 Xeon, one BLAS thread)
    if entry.lift_tension_at is not None:
        res = lift_tension_direct(geom, np.array(entry.lift_tension_at), cfg)
        checks.row("lift_tension_direct", "ambient tension of the lift into the full frame bundle", 1e-3,
                   res["ambient"])
        checks.row("lift_tension_tangential", "image-tangential tension of the lift (diagnostic)", 1e-3,
                   res["tangential"], kind="audit")
        checks.row("lift_tension_normal", "normal component equals the image curvature (diagnostic)", 1e-3,
                   abs(res["normal"] - entry.lift_tension_normal), kind="audit")
    return checks.reports


SUITES = {
    "core": suite_core,
    "tangent": suite_tangent,
    "frame": suite_frame,
    "adapted": suite_adapted,
    "lift": suite_lift,
    "theorems": suite_theorems,
}

SUITE_ORDER = list(SUITES)


def run_suites(entry: CatalogEntry, suites: list[str], cfg: FDConfig = DEFAULT_FD,
               seed: int = 42, samples: int = 10) -> list[CheckReport]:
    out: list[CheckReport] = []
    for s in suites:
        out.extend(SUITES[s](entry, cfg, seed, samples))
    return out
