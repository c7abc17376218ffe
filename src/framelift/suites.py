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
    central_diff,
    christoffel,
    constant_field,
    covariant_derivative,
    curvature,
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
    mok_metric,
    mok_norm,
    om_chart,
    reference_frame,
    total_space_manifold,
    vertical_part,
)
from .adapted import (
    S_endo,
    S_tensor,
    W_endo,
    adapted_connection_audit,
    adapted_frame,
    adapted_horizontal_lift,
    block_decompose,
    curvature_relation_residual,
    m_projection,
    nabla_D,
    od_tangency_residual,
    projector_defects,
    reductive_split_defect,
    torsion_TD,
)
from .submersion import (
    A_identity_residual,
    A_Y_endo,
    Pi_X_endo,
    Pi_X_endo_alt,
    adapted_endo_field,
    classify,
    derive_geometry,
    differential_matrix,
    dilatation,
    div_bot,
    horizontal_basis,
    lift_differential_fd,
    lift_differential_formula,
    lift_distributions,
    lift_map,
    lift_tension_direct,
    mean_curvature_fibers,
    pushforward_endo,
    second_fundamental_form,
    splitting_projectors,
    tension_conformal_display,
    tension_field,
    vertical_basis,
)
from .tangent import (
    TMPoint,
    TMTangent,
    connection_map_K,
    phi_second_differential_fd,
    phi_second_differential_formula,
    pi_i_differential,
    pi_i_differential_fd,
    sasaki_mok_tm,
    tm_distributions,
    tm_distributions_displayed_h,
    tm_horizontal_lift,
    tm_kernel_constant_extension,
    tm_split,
    tm_vertical_lift,
)
from .catalog import CatalogEntry
from .fields import g_skew_endo_field, polynomial_endo_field, polynomial_vector_field
from .reporting import CheckReport, Checks


def _rng(seed: int, *tags: int) -> np.random.Generator:
    return np.random.default_rng([seed, *tags])


def _tm_size(t: TMTangent) -> float:
    """Largest absolute entry of a tangent-bundle vector's two rates."""
    return np.max(np.abs(np.concatenate([t.base_rate, t.fiber_rate])))


def _single(checks: Checks, key: str, identity: str, residual: float, tolerance: float,
            **kw) -> None:
    """A row of one evaluation."""
    checks.see(key, residual)
    checks.row(key, identity, tolerance, **kw)


# ---------------------------------------------------------------------------
# core chart calculus
# ---------------------------------------------------------------------------

def suite_core(entry: CatalogEntry, cfg: FDConfig = DEFAULT_FD,
               seed: int = 42, samples: int = 10) -> list[CheckReport]:
    checks = Checks(f"{entry.id}.core")
    for M, tag in ((entry.phi.source, "src"), (entry.phi.target, "tgt")):
        pts = sample_points(M, seed, samples)
        rng = _rng(seed, 1)
        exact = M.metric_derivative is not None
        tol_compat = 1e-8 if exact else cfg.tol_fd1

        for p in pts:
            gamma = christoffel(M, p, cfg)
            checks.see(f"gamma_symmetry.{tag}", np.max(np.abs(gamma - gamma.transpose(0, 2, 1))))
            X = polynomial_vector_field(M.dim, rng)
            Y = polynomial_vector_field(M.dim, rng)
            Z = polynomial_vector_field(M.dim, rng)

            def gYZ(q):
                return np.array([float(Y.eval(q) @ metric_eval(M, q) @ Z.eval(q))])

            lhs = directional_diff(gYZ, p, X.eval(p), cfg.step_h)[0]
            nXY = covariant_derivative(M, X, Y, p, cfg).components
            nXZ = covariant_derivative(M, X, Z, p, cfg).components
            g = metric_eval(M, p)
            checks.see(f"metric_compatibility.{tag}",
                       abs(lhs - float(nXY @ g @ Z.eval(p)) - float(Y.eval(p) @ g @ nXZ)))

            br = lie_bracket(X, Y, p, cfg).components
            tf = covariant_derivative(M, X, Y, p, cfg).components - covariant_derivative(M, Y, X, p, cfg).components - br
            checks.see(f"torsion_free.{tag}", norm(M, p, tf))

            x, y, z = (rng.standard_normal(M.dim) for _ in range(3))
            bx = curvature(M, TangentVector(p, x), TangentVector(p, y), TangentVector(p, z), cfg).components
            by = curvature(M, TangentVector(p, y), TangentVector(p, z), TangentVector(p, x), cfg).components
            bz = curvature(M, TangentVector(p, z), TangentVector(p, x), TangentVector(p, y), cfg).components
            checks.see(f"bianchi_first.{tag}", norm(M, p, bx + by + bz))

            if exact:
                fd = central_diff(M.metric_field, p, cfg.step_h)
                checks.see(f"metric_derivative_vs_fd.{tag}", np.max(np.abs(fd - M.metric_derivative(p))))

        checks.row(f"gamma_symmetry.{tag}", "Gamma^k_ij = Gamma^k_ji", cfg.tol_exact)
        checks.row(f"metric_compatibility.{tag}",
                   "X g(Y,Z) = g(nabla_X Y, Z) + g(Y, nabla_X Z)", tol_compat)
        checks.row(f"torsion_free.{tag}", "nabla_X Y - nabla_Y X = [X, Y]", cfg.tol_fd1)
        checks.row(f"bianchi_first.{tag}", "R(X,Y)Z + R(Y,Z)X + R(Z,X)Y = 0", cfg.tol_fd1)
        if exact:
            checks.row(f"metric_derivative_vs_fd.{tag}",
                       "supplied d_k g_ij matches central differences", cfg.tol_fd1)

        # endomorphism inner product: basis independence
        p = pts[0]
        rng2 = _rng(seed, 2)
        P = rng2.standard_normal((M.dim, M.dim))
        Q = rng2.standard_normal((M.dim, M.dim))
        onb1 = orthonormal_basis(M, p)
        seeds = list(np.eye(M.dim)[::-1] + 0.1 * rng2.standard_normal((M.dim, M.dim)))
        onb2 = gram_schmidt(M, p, seeds)
        v1 = endo_inner(M, p, P, Q, onb1)
        v2 = endo_inner(M, p, P, Q, onb2)
        _single(checks, f"endo_inner_basis_independent.{tag}",
                "<P|Q> equal over two orthonormal bases", abs(v1 - v2),
                cfg.tol_exact * max(1.0, abs(v1)))
    return checks.reports


# ---------------------------------------------------------------------------
# tangent bundle
# ---------------------------------------------------------------------------

def suite_tangent(entry: CatalogEntry, cfg: FDConfig = DEFAULT_FD,
                  seed: int = 42, samples: int = 10) -> list[CheckReport]:
    checks = Checks(f"{entry.id}.tangent")
    phi = entry.phi
    M = phi.source
    geom = derive_geometry(phi, cfg)
    pts = sample_points(M, seed, samples)
    rng = _rng(seed, 3)

    for p in pts:
        Z = TMPoint(p, 0.7 * rng.standard_normal(M.dim))
        x = rng.standard_normal(M.dim)
        X = TangentVector(p, x)
        v = tm_vertical_lift(X, Z)
        h = tm_horizontal_lift(M, X, Z, cfg)
        checks.see("lift_identities",
                   np.max(np.abs(connection_map_K(M, v, cfg).components - x)),
                   np.max(np.abs(connection_map_K(M, h, cfg).components)),
                   np.max(np.abs(h.base_rate - x)),
                   np.max(np.abs(v.base_rate)))
        t = TMTangent(Z, rng.standard_normal(M.dim), rng.standard_normal(M.dim))
        hh, vv = tm_split(M, t, cfg)
        checks.see("splitting_exact", _tm_size(hh + vv - t))
        checks.see("horizontal_vertical_orthogonal", abs(sasaki_mok_tm(M, h, v, cfg)))
    checks.row("lift_identities", "K(X^v)=X, K(X^h)=0, pi(X^h)=X, pi(X^v)=0", cfg.tol_exact)
    checks.row("splitting_exact", "t = (pi_* t)^h + (K t)^v", cfg.tol_exact)
    checks.row("horizontal_vertical_orthogonal", "g_TM(X^h, Y^v) = 0", cfg.tol_exact)

    # second differential: formula vs finite differences, both kinds
    for kind in ("vertical", "horizontal"):
        for p in pts:
            Z = TMPoint(p, 0.7 * rng.standard_normal(M.dim))
            X = TangentVector(p, rng.standard_normal(M.dim))
            t = tm_vertical_lift(X, Z) if kind == "vertical" else tm_horizontal_lift(M, X, Z, cfg)
            checks.see(f"second_differential.{kind}", _tm_size(
                phi_second_differential_fd(phi, t, cfg)
                - phi_second_differential_formula(phi, kind, X, Z, cfg)))
        checks.row(f"second_differential.{kind}",
                   "second differential formula matches central differences", cfg.tol_fd2)

    # kernel/orthogonal distributions of the tangent-bundle map
    n, k = M.dim, phi.target.dim
    for p in pts[: max(2, samples // 3)]:
        Z = TMPoint(p, 0.7 * rng.standard_normal(M.dim))
        Vb, Hb = tm_distributions(phi, Z, cfg, geom=geom)
        checks.see("distribution_dimensions",
                   0.0 if (len(Vb), len(Hb)) == (2 * (n - k), 2 * k) else 1.0)
        images = [phi_second_differential_fd(phi, v, cfg) for v in Vb]
        checks.see("kernel_distribution", *map(_tm_size, images))
        checks.see("distribution_orthogonality",
                   *(abs(sasaki_mok_tm(M, v, h, cfg)) for v in Vb for h in Hb))
        # displayed orthogonal-side formula, reported against the complement
        checks.see("displayed_h_vs_complement",
                   *(abs(sasaki_mok_tm(M, v, h, cfg))
                     for h in tm_distributions_displayed_h(phi, Z, cfg, geom=geom) for v in Vb))
        # both kernel bases start with the same vertical lifts; only the
        # corrected horizontal half differs
        half = len(Vb) // 2
        const_ext = tm_kernel_constant_extension(phi, Z, cfg, geom=geom)[half:]
        checks.see("kernel_constant_extension", *map(_tm_size, images[:half]),
                   *(_tm_size(phi_second_differential_fd(phi, v, cfg)) for v in const_ext))
    checks.row("kernel_distribution", "second differential kills the kernel basis", cfg.tol_fd2)
    checks.row("distribution_orthogonality", "kernel and complement are Sasaki-orthogonal",
               cfg.tol_fd1)
    checks.row("distribution_dimensions", "dim kernel = 2(n-k), dim complement = 2k", 0.5)
    checks.row("displayed_h_vs_complement",
               "displayed orthogonal-side formula vs kernel (diagnostic)", cfg.tol_fd2,
               kind="audit")
    checks.row("kernel_constant_extension",
               "kernel formula under bare constant extension (diagnostic)", cfg.tol_fd2,
               kind="audit")

    # frame-to-tangent-bundle projections are Riemannian submersions
    p = pts[0]
    u = Frame(p, reference_frame(M, p))
    rngp = _rng(seed, 4)
    for i in range(M.dim):
        x = rngp.standard_normal(M.dim)
        P = rngp.standard_normal((M.dim, M.dim))
        t = horizontal_lift_frame(M, TangentVector(p, x), u, cfg) + fundamental_vertical(P, u)
        checks.see("frame_projection_differential",
                   _tm_size(pi_i_differential(M, t, i, cfg) - pi_i_differential_fd(M, t, i, cfg)))
        th = horizontal_lift_frame(M, TangentVector(p, x), u, cfg)
        ti = pi_i_differential(M, th, i, cfg)
        checks.see("frame_projection_isometry",
                   abs(mok_metric(M, th, th, cfg) - sasaki_mok_tm(M, ti, ti, cfg)))
    checks.row("frame_projection_differential", "column projection maps lifts to lifts",
               cfg.tol_fd1)
    checks.row("frame_projection_isometry", "column projection is isometric on horizontals",
               cfg.tol_fd1)
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

    # structural identities at sampled frames
    chart = om_chart(M)
    for p in pts:
        u = Frame(p, reference_frame(M, p))
        x = rng.standard_normal(M.dim)
        P = rng.standard_normal((M.dim, M.dim))
        t = horizontal_lift_frame(M, TangentVector(p, x), u, cfg) + fundamental_vertical(P, u)
        V = vertical_part(M, t, cfg)
        rec = horizontal_lift_frame(M, TangentVector(p, t.base_rate), u, cfg) + fundamental_vertical(V, u)
        checks.see("decomposition_exact", np.max(np.abs(rec.frame_rate - t.frame_rate)),
                   np.max(np.abs(rec.base_rate - t.base_rate)))
        g = metric_eval(M, p)
        K = rng.standard_normal((M.dim, M.dim))
        skew = np.linalg.solve(g, 0.5 * (K - K.T))
        checks.see("mok_block_orthogonal", abs(mok_metric(
            M, horizontal_lift_frame(M, TangentVector(p, x), u, cfg),
            fundamental_vertical(skew, u), cfg)))
        # right invariance under a constant orthogonal matrix
        Q, _ = np.linalg.qr(rng.standard_normal((M.dim, M.dim)))
        uk = Frame(p, u.columns @ Q)
        s = horizontal_lift_frame(M, TangentVector(p, x), u, cfg) + fundamental_vertical(skew, u)
        sk = FrameTangent(uk, s.base_rate, s.frame_rate @ Q)
        checks.see("mok_right_invariant", abs(mok_metric(M, s, s, cfg) - mok_metric(M, sk, sk, cfg)))
        # orthonormal chart round trip
        a = 0.4 * rng.standard_normal(len(chart.basis))
        u2 = chart.decode(chart.join(p, a))
        _, a2 = chart.split(chart.encode(u2))
        checks.see("om_chart_roundtrip", np.max(np.abs(a - a2)))
    checks.row("decomposition_exact", "t = (pi_* t)^h + V(t)*", cfg.tol_exact)
    checks.row("mok_block_orthogonal", "g_L(X^h, P*) = 0", cfg.tol_exact)
    checks.row("mok_right_invariant", "Mok norms invariant under constant right rotation",
               cfg.tol_exact * 100)
    checks.row("om_chart_roundtrip", "decode then encode returns the skew coordinates", 1e-10)

    # bracket identities against the finite-difference bracket
    lm = LMChart(M)
    X = polynomial_vector_field(M.dim, rng)
    Y = polynomial_vector_field(M.dim, rng)
    Q = polynomial_endo_field(M.dim, rng)
    P = polynomial_endo_field(M.dim, rng)
    for case, inputs, ident in (
        ("hh", (X, Y), "[X^h, Y^h] = [X,Y]^h - R(X,Y)*"),
        ("hv", (X, Q), "[X^h, Q*] = (nabla_X Q)*"),
        ("vv", (P, Q), "[P*, Q*] = -[P,Q]*"),
    ):
        for i, p in enumerate(pts):
            res = bracket_residual(M, lm, case, inputs, Frame(p, reference_frame(M, p)), cfg)
            checks.see(f"bracket.{case}", res["resolved"])
            if "literal" in res and i < 2:
                checks.see("bracket.hv_literal_sign", res["literal"])
        checks.row(f"bracket.{case}", ident, cfg.tol_fd2)
        if case == "hv":
            checks.row("bracket.hv_literal_sign", "[X^h, Q*] = -(nabla_X Q)* (diagnostic)",
                       cfg.tol_fd2, kind="audit")

    # connection formulas against the total-space oracle
    Qs = g_skew_endo_field(M, rng)
    Ps = g_skew_endo_field(M, rng)
    for bundle, fields in (("L", dict(X=X, Y=Y, P=P, Q=Q)),
                           ("O", dict(X=X, Y=Y, P=Ps, Q=Qs))):
        for p in pts[: min(3, samples)]:
            rows = connection_audit(M, bundle, Frame(p, reference_frame(M, p)), fields, cfg)
            for r in rows:
                checks.see(f"connection.{bundle}.{r['case']}{'' if r['asserted'] else '_literal'}",
                           r["residual"])
        # asserted rows first, each group in case order
        for r in sorted(rows, key=lambda r: not r["asserted"]):
            if r["asserted"]:
                checks.row(f"connection.{bundle}.{r['case']}",
                           "closed-form connection matches total-space oracle", cfg.tol_fd2)
            else:
                checks.row(f"connection.{bundle}.{r['case']}_literal",
                           "displayed hv/vh term placement (diagnostic)", cfg.tol_fd2,
                           kind="audit")

    # oracle self-consistency on the orthonormal-bundle total space
    p = pts[0]
    total = total_space_manifold(chart, cfg)
    cfg_total = FDConfig(step_h=cfg.step_h2, step_h2=cfg.step_h2,
                         tol_exact=cfg.tol_exact, tol_fd1=cfg.tol_fd1, tol_fd2=cfg.tol_fd2)
    q = chart.join(p, np.zeros(len(chart.basis)))
    rngt = _rng(seed, 6)
    A = polynomial_vector_field(total.dim, rngt, exact_jacobian=False)
    B = polynomial_vector_field(total.dim, rngt, exact_jacobian=False)
    br = lie_bracket(A, B, q, cfg_total, step=cfg.step_h2).components
    tf = (covariant_derivative(total, A, B, q, cfg_total).components
          - covariant_derivative(total, B, A, q, cfg_total).components - br)
    Gq = metric_eval(total, q)
    _single(checks, "oracle_torsion_free", "total-space oracle connection is torsion free",
            np.sqrt(max(tf @ Gq @ tf, 0.0)), cfg.tol_fd2)

    def gAB(qq):
        return np.array([float(A.eval(qq) @ metric_eval(total, qq) @ B.eval(qq))])

    C = polynomial_vector_field(total.dim, rngt, exact_jacobian=False)
    lhs = directional_diff(gAB, q, C.eval(q), cfg.step_h2)[0]
    nCA = covariant_derivative(total, C, A, q, cfg_total).components
    nCB = covariant_derivative(total, C, B, q, cfg_total).components
    _single(checks, "oracle_metric_compatible",
            "total-space oracle connection preserves the induced metric",
            abs(lhs - float(nCA @ Gq @ B.eval(q)) - float(A.eval(q) @ Gq @ nCB)), cfg.tol_fd2 * 10)

    # adapted-bundle connection displays: diagnostic table
    geom = derive_geometry(phi, cfg)
    u = adapted_frame(M, geom.horizontal, p)
    k = geom.rank
    Ja = np.zeros((k, k))
    if k >= 2:
        Ja[0, 1], Ja[1, 0] = -1.0, 1.0
    Pa = adapted_endo_field(geom, top=0.8 * Ja)
    Qa = adapted_endo_field(geom, top=-1.3 * Ja)
    for r in adapted_connection_audit(M, geom.horizontal, u,
                                      dict(X=X, Y=Y, P=Pa, Q=Qa), cfg):
        _single(checks, f"adapted_connection.{r['case']}.{'best' if r['best_match'] else 'alt'}",
                r["reading"], r["residual"], cfg.tol_fd2, kind="audit")
    return checks.reports


# ---------------------------------------------------------------------------
# adapted bundle
# ---------------------------------------------------------------------------

def suite_adapted(entry: CatalogEntry, cfg: FDConfig = DEFAULT_FD,
                  seed: int = 42, samples: int = 10) -> list[CheckReport]:
    checks = Checks(f"{entry.id}.adapted")
    phi = entry.phi
    M = phi.source
    geom = derive_geometry(phi, cfg)
    D = geom.horizontal
    pts = sample_points(M, seed, samples)
    few = pts[: max(3, samples // 2)]
    rng = _rng(seed, 7)

    for p in pts:
        d = projector_defects(M, D, p)
        checks.see("projector_invariants", d["idempotent"], d["self_adjoint"], d["trace"])
        P = rng.standard_normal((M.dim, M.dim))
        b = block_decompose(P, D, p)
        checks.see("block_reassembly", np.max(np.abs(b.reassemble() - P)))
        g = metric_eval(M, p)
        K = rng.standard_normal((M.dim, M.dim))
        skew = np.linalg.solve(g, 0.5 * (K - K.T))
        m1 = m_projection(M, D, p, skew, cfg)
        m2 = m_projection(M, D, p, m1, cfg)
        checks.see("m_projection", np.max(np.abs(m2 - m1)), np.max(np.abs(g @ m1 + (g @ m1).T)))
    checks.row("projector_invariants", "projector idempotent, self-adjoint, trace k",
               cfg.tol_exact * 100)
    checks.row("block_reassembly", "top + bot + off-blocks reassemble the endomorphism",
               cfg.tol_exact * 100)
    checks.row("m_projection", "block-mixing projection idempotent and skew", cfg.tol_exact * 100)

    for p in few:
        X = polynomial_vector_field(M.dim, rng)
        Pic = D.complement(p)
        g = metric_eval(M, p)
        Ytop = VectorField(eval=lambda q: D.projector(q) @ (np.ones(M.dim) + 0.3 * q))
        nd = nabla_D(M, D, X, Ytop, p, cfg).components
        checks.see("connection_preserves_blocks", norm(M, p, Pic @ nd))
        Y = polynomial_vector_field(M.dim, rng)
        Z = polynomial_vector_field(M.dim, rng)

        def gYZ(q):
            return np.array([float(Y.eval(q) @ metric_eval(M, q) @ Z.eval(q))])

        lhs = directional_diff(gYZ, p, X.eval(p), cfg.step_h)[0]
        a = nabla_D(M, D, X, Y, p, cfg).components
        b = nabla_D(M, D, X, Z, p, cfg).components
        checks.see("connection_metric_compatible",
                   abs(lhs - float(a @ g @ Z.eval(p)) - float(Y.eval(p) @ g @ b)))

        # tensoriality: rescale fields by functions equal to 1 at p
        f = lambda q: 1.0 + (q - p) @ np.arange(1.0, M.dim + 1.0)
        Xs = VectorField(eval=lambda q: f(q) * X.eval(q))
        Ys = VectorField(eval=lambda q: f(q) * Y.eval(q))
        s1 = S_tensor(M, D, X, Y, p, cfg).components
        s2 = S_tensor(M, D, Xs, Ys, p, cfg).components
        checks.see("difference_tensorial", np.max(np.abs(s1 - s2)))

        # skew-symmetry of S in its last two slots
        z = rng.standard_normal(M.dim)
        y = rng.standard_normal(M.dim)
        x = rng.standard_normal(M.dim)
        Sx = S_endo(M, D, x, p, cfg)
        checks.see("difference_skew", abs(float((Sx @ y) @ g @ z) + float(y @ g @ (Sx @ z))))
    checks.row("connection_preserves_blocks", "adapted connection maps sections of D into D",
               cfg.tol_fd1)
    checks.row("connection_metric_compatible", "adapted connection preserves the metric",
               cfg.tol_fd1)
    checks.row("difference_tensorial", "difference tensor unchanged by unit-at-p rescalings",
               cfg.tol_fd1)
    checks.row("difference_skew", "g(S_X Y, Z) + g(Y, S_X Z) = 0", cfg.tol_fd1)

    # torsion restricted to the distribution detects integrability
    integ = "torsion_integrable" if entry.h_integrable else "torsion_nonintegrable"
    for p in few:
        hb = horizontal_basis(geom, p)
        checks.see(integ, *(norm(M, p, torsion_TD(M, D, constant_field(hb[a].components),
                                                  constant_field(hb[b].components), p, cfg).components)
                            for a in range(len(hb)) for b in range(a + 1, len(hb))))
    if entry.h_integrable:
        checks.row(integ, "adapted torsion vanishes on the distribution", cfg.tol_fd1)
    else:
        checks.row(integ, "adapted torsion detects non-integrability (> 0.1)", 0.1, invert=True)

    # curvature relation between the two connections
    for p in pts[:3]:
        x, y, z = (rng.standard_normal(M.dim) for _ in range(3))
        res = curvature_relation_residual(M, D, x, y, z, p, cfg)
        checks.see("curvature_relation", res["standard"])
        checks.see("curvature_relation_display_convention", res["display"])
    checks.row("curvature_relation", "R = RD + antisymmetrized nabla S + S_torsion + [S,S]",
               cfg.tol_fd2)
    checks.row("curvature_relation_display_convention",
               "same relation with the displayed nabla-S convention (diagnostic)", cfg.tol_fd2,
               kind="audit")

    # W endomorphism: defining identity and positivity
    for p in pts:
        u = adapted_frame(M, D, p)
        onb = [TangentVector(p, u.columns[:, i]) for i in range(M.dim)]
        Wm = W_endo(M, D, p, onb, cfg)
        g = metric_eval(M, p)
        for _ in range(2):
            x, y = rng.standard_normal((2, M.dim))
            tx = adapted_horizontal_lift(M, D, TangentVector(p, x), u, cfg)
            ty = adapted_horizontal_lift(M, D, TangentVector(p, y), u, cfg)
            checks.see("w_lemma", abs(float(x @ g @ (Wm @ y)) - mok_metric(M, tx, ty, cfg)))
        E = u.columns
        W_onb = np.linalg.inv(E) @ Wm @ E
        checks.see("w_positive", 1.0 - np.min(np.linalg.eigvalsh(0.5 * (W_onb + W_onb.T))))
        x = rng.standard_normal(M.dim)
        t = adapted_horizontal_lift(M, D, TangentVector(p, x), u, cfg)
        Sx = S_endo(M, D, x, p, cfg)
        t2 = horizontal_lift_frame(M, TangentVector(p, x), u, cfg) + fundamental_vertical(Sx, u)
        checks.see("lift_difference_identity", np.max(np.abs(t.frame_rate - t2.frame_rate)),
                   np.max(np.abs(t.base_rate - t2.base_rate)))
        checks.see("lift_tangency", od_tangency_residual(M, D, t, cfg))
    checks.row("w_lemma", "g(X, W Y) equals the Mok product of adapted lifts", cfg.tol_fd1)
    checks.row("w_positive", "W has eigenvalues at least 1", cfg.tol_exact * 100)
    checks.row("lift_difference_identity", "adapted lift = plain lift + (S_X)* exactly",
               cfg.tol_exact)
    checks.row("lift_tangency", "adapted lift is tangent to the adapted bundle", cfg.tol_fd1)

    # reductive block algebra
    _single(checks, "reductive_split", "[block-diagonal, block-mixing] stays block-mixing",
            reductive_split_defect(M.dim, D.rank, _rng(seed, 8)), 1e-12)
    return checks.reports


# ---------------------------------------------------------------------------
# submersion lifts
# ---------------------------------------------------------------------------

def suite_lift(entry: CatalogEntry, cfg: FDConfig = DEFAULT_FD,
               seed: int = 42, samples: int = 10) -> list[CheckReport]:
    checks = Checks(f"{entry.id}.lift")
    phi = entry.phi
    M = phi.source
    geom = derive_geometry(phi, cfg)
    D = geom.horizontal
    pts = sample_points(M, seed, samples)
    few = pts[: max(3, samples // 2)]
    rng = _rng(seed, 9)
    k = geom.rank

    # differential: exact Jacobian against central differences
    for p in pts:
        if phi.jacobian is not None:
            fd = central_diff(phi.map, p, cfg.step_h).T
            checks.see("jacobian_vs_fd", np.max(np.abs(fd - phi.jacobian(p))))
        Pi_V, Pi_H = splitting_projectors(phi, p, cfg)
        J = differential_matrix(phi, p, cfg)
        checks.see("splitting_projectors", np.max(np.abs(Pi_V + Pi_H - np.eye(M.dim))),
                   np.max(np.abs(J @ Pi_V)), np.max(np.abs(Pi_H @ Pi_V)))
    if phi.jacobian is not None:
        checks.row("jacobian_vs_fd", "exact Jacobian matches central differences", cfg.tol_fd1)
    checks.row("splitting_projectors", "projectors sum to the identity and kill the kernel",
               cfg.tol_exact * 1e3)

    # dilatation against the catalog value
    for p in pts:
        lam, defect = dilatation(phi, p, cfg, geom)
        checks.see("conformality_defect", defect)
        if entry.expected_lambda is not None:
            checks.see("dilatation_value", abs(lam - entry.expected_lambda))
    checks.row("dilatation_value", "dilatation matches the catalog value", cfg.tol_fd1)
    checks.row("conformality_defect", "horizontal Gram matrix proportional to the identity",
               cfg.tol_fd1)

    # second fundamental form symmetry, A-identity, Pi_X displays
    for p in few:
        x, y = rng.standard_normal((2, M.dim))
        v1 = second_fundamental_form(phi, TangentVector(p, x), TangentVector(p, y), cfg)
        v2 = second_fundamental_form(phi, TangentVector(p, y), TangentVector(p, x), cfg)
        checks.see("second_fundamental_symmetric", norm(phi.target, phi.value(p), v1 - v2))
        readings = [A_identity_residual(geom, X, Y, cfg)
                    for X in horizontal_basis(geom, p) for Y in vertical_basis(geom, p)]
        checks.see("a_identity", *(r["asserted"] for r in readings))
        checks.see("a_identity_printed_sign", *(r["printed"] for r in readings))
        X = TangentVector(p, rng.standard_normal(M.dim))
        checks.see("pi_x_displays_agree",
                   np.max(np.abs(Pi_X_endo(geom, X, cfg) - Pi_X_endo_alt(geom, X, cfg))))
    checks.row("second_fundamental_symmetric",
               "second fundamental form symmetric in its arguments", cfg.tol_fd2)
    checks.row("a_identity", "pushforward of A_Y(X) is minus the mixed second fundamental form",
               cfg.tol_fd2)
    checks.row("a_identity_printed_sign", "same identity with a plus sign (diagnostic)",
               cfg.tol_fd2, kind="audit")
    checks.row("pi_x_displays_agree", "two constructions of the horizontal second-form endo agree",
               cfg.tol_fd2)

    # pushforward of endomorphisms: identity and multiplicativity
    p = pts[0]
    Pi_V, Pi_H = splitting_projectors(phi, p, cfg)
    _single(checks, "pushforward_identity", "pushforward of the horizontal identity is the identity",
            np.max(np.abs(pushforward_endo(geom, p, Pi_H, cfg) - np.eye(k))), cfg.tol_exact * 1e3)
    P0 = Pi_H @ rng.standard_normal((M.dim, M.dim)) @ Pi_H
    Q0 = Pi_H @ rng.standard_normal((M.dim, M.dim)) @ Pi_H
    lhs = pushforward_endo(geom, p, P0 @ Q0, cfg)
    rhs = pushforward_endo(geom, p, P0, cfg) @ pushforward_endo(geom, p, Q0, cfg)
    _single(checks, "pushforward_multiplicative", "pushforward respects composition",
            np.max(np.abs(lhs - rhs)), cfg.tol_exact * 1e4)

    # divergence duality
    for p in few:
        for trial in range(5):
            C0 = rng.standard_normal((k, k))
            C_field = adapted_endo_field(geom, top=C0)
            d = div_bot(geom, C_field.eval, p, cfg)
            Xv = vertical_basis(geom, p)[trial % (M.dim - k)]
            A = A_Y_endo(geom, Xv, cfg)
            onb = [TangentVector(p, adapted_frame(M, D, p).columns[:, i]) for i in range(M.dim)]
            val = endo_inner(M, p, A, C_field.eval(p), onb)
            g = metric_eval(M, p)
            checks.see("div_duality", abs(val + float(Xv.components @ g @ d)))
    checks.row("div_duality", "<A_X | C> = -g(X, vertical divergence of C)", cfg.tol_fd2)

    # the lifted frame
    for p in pts[:3]:
        u = adapted_frame(M, D, p)
        v = lift_map(geom, u, cfg)
        gN = metric_eval(phi.target, v.base)
        lam, _ = dilatation(phi, p, cfg, geom)
        G = v.columns.T @ gN @ v.columns
        checks.see("lifted_frame_gram", np.max(np.abs(G - lam * np.eye(k))))
    checks.row("lifted_frame_gram", "lifted frame Gram equals the dilatation times identity",
               cfg.tol_fd1)

    # lift differential: formula vs finite differences, three input types
    blk = np.zeros((M.dim, M.dim))
    if k >= 2:
        blk[0, 1], blk[1, 0] = 1.0, -1.0
    if M.dim - k >= 2:
        blk[k, k + 1], blk[k + 1, k] = 1.0, -1.0
    for p in few:
        u = adapted_frame(M, D, p)
        g = metric_eval(M, p)
        hb = horizontal_basis(geom, p)
        vb = vertical_basis(geom, p)
        x = sum(c * e.components for c, e in zip(rng.standard_normal(k), hb))
        y = sum(c * e.components for c, e in zip(rng.standard_normal(M.dim - k), vb))
        P0 = u.columns @ blk @ u.columns.T @ g
        for case, t, arg in (
            ("horizontal-of-H", adapted_horizontal_lift(M, D, TangentVector(p, x), u, cfg), x),
            ("horizontal-of-V", adapted_horizontal_lift(M, D, TangentVector(p, y), u, cfg), y),
            ("vertical", fundamental_vertical(P0, u), P0),
        ):
            d = lift_differential_fd(geom, t, cfg) - lift_differential_formula(geom, case, arg, u, cfg)
            checks.see(f"differential.{case}", mok_norm(phi.target, d, cfg))
    for case in ("horizontal-of-H", "horizontal-of-V", "vertical"):
        checks.row(f"differential.{case}", "lift differential formula matches central differences",
                   cfg.tol_fd2)

    # kernel / orthogonal distributions of the lift
    n = M.dim
    for p in few:
        u = adapted_frame(M, D, p)
        Vb, Hb = lift_distributions(geom, u, cfg)
        checks.see("dimension_identity", 0.0 if (len(Vb), len(Hb)) == (
            (n - k) + (n - k) * (n - k - 1) // 2, k + k * (k - 1) // 2) else 1.0)
        checks.see("kernel_distribution", *(mok_norm(phi.target, lift_differential_fd(
            geom, v, cfg, check_tangency=False), cfg) for v in Vb))
        checks.see("distribution_orthogonality",
                   *(abs(mok_metric(M, v, h, cfg)) for v in Vb for h in Hb))
    checks.row("kernel_distribution", "lift differential kills the kernel basis", cfg.tol_fd2)
    checks.row("distribution_orthogonality",
               "kernel and orthogonal bases have zero Mok cross Gram", cfg.tol_fd1)
    checks.row("dimension_identity",
               "kernel and orthogonal dimensions sum to the bundle dimension", 0.5)
    return checks.reports


# ---------------------------------------------------------------------------
# theorems
# ---------------------------------------------------------------------------

def suite_theorems(entry: CatalogEntry, cfg: FDConfig = DEFAULT_FD,
                   seed: int = 42, samples: int = 10) -> list[CheckReport]:
    checks = Checks(f"{entry.id}.theorems")
    phi = entry.phi
    geom = derive_geometry(phi, cfg)
    pts = sample_points(phi.source, seed, max(3, samples // 2))
    rep = classify(phi, pts, cfg, geom)

    def verdict(key: str, identity: str, got, expect) -> None:
        checks.see(key, 0.0 if got is expect else 1.0)
        checks.row(key, identity, 0.5, inconclusive=got is None)

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
        for lam in rep.dilatation_samples:
            checks.see("dilatation_constant", abs(lam - entry.expected_lambda))
        checks.row("dilatation_constant", "dilatation constant at the catalog value",
                   cfg.tol_fd1 * (1 + entry.expected_lambda))

    # two-sided conformality of the lift
    if entry.lift_conformal:
        _single(checks, "lift_defect_small", "measured lift conformality defect below 5e-3",
                rep.lift_defect_measured, 5e-3)
        _single(checks, "lift_lambda_constant", "lift dilatation constant (std below 1e-4)",
                rep.lift_lambda_std, 1e-4)
        _single(checks, "lift_lambda_matches_base",
                "lift dilatation equals base dilatation along the projection",
                rep.lift_lambda_vs_base_max, 1e-4)
        if entry.expected_big_lambda is not None:
            for lam in rep.lift_lambda_samples:
                checks.see("lift_lambda_value", abs(lam - entry.expected_big_lambda))
            checks.row("lift_lambda_value", "lift dilatation matches the catalog value",
                       1e-4 * (1 + entry.expected_big_lambda))
    else:
        checks.see("lift_defect_large", rep.lift_defect_measured,
                   np.max(rep.lift_lambda_samples) - np.min(rep.lift_lambda_samples))
        checks.row("lift_defect_large", "measured lift conformality defect above 0.01", 0.01,
                   invert=True)

    verdict("conformality_two_sided", "predicted and measured lift conformality agree",
            rep.verdicts_agree, True)

    # harmonic morphism side
    expected_lift_hm = entry.harmonic_morphism and entry.totally_geodesic and (
        entry.expected_lambda is not None)
    verdict("lift_harmonic_morphism", "lift harmonic-morphism verdict via the characterization",
            rep.lift_harmonic_morphism_predicted, expected_lift_hm)

    # tension magnitude expectations
    if entry.id == "E3":
        _single(checks, "tension_zero", "tension field vanishes for the Hopf fibration",
                rep.tension_max, cfg.tol_fd2)
    if entry.id == "E4":
        p0 = np.array([0.0, 0.25])
        y0 = phi.value(p0)
        tn = norm(phi.target, y0, tension_field(phi, p0, cfg, geom))
        pushed = differential_matrix(phi, p0, cfg) @ mean_curvature_fibers(geom, p0, cfg).components
        _single(checks, "tension_norm_one", "tension norm equals 1 at the warped origin",
                abs(tn - 1.0), 5e-3)
        _single(checks, "tension_equals_fiber_curvature",
                "tension norm equals pushed mean-curvature norm",
                abs(tn - norm(phi.target, y0, pushed)), 5e-3)

    # the two tension displays agree on constant-dilatation entries
    if entry.expected_lambda is not None:
        for p in pts[:2]:
            d = tension_field(phi, p, cfg, geom) - tension_conformal_display(geom, p, cfg)
            checks.see("tension_displays_agree", norm(phi.target, phi.value(p), d))
        checks.row("tension_displays_agree",
                   "trace form of the tension matches the conformal form", cfg.tol_fd2)

    # direct total-space tension of the lift (small example only).  The image
    # of the E1 lift is R^2 times a circle of radius sqrt(2) in the flat fibre
    # of L(R^2), so the tension is that circle's curvature vector: normal to
    # the image, of norm 1/sqrt(2)
    if entry.id == "E1":
        res = lift_tension_direct(geom, np.array([0.2, -0.3, 0.4]), cfg)
        _single(checks, "lift_tension_direct",
                "ambient tension of the lift into the full frame bundle", res["ambient"], 1e-3)
        _single(checks, "lift_tension_tangential",
                "image-tangential tension of the lift (diagnostic)", res["tangential"], 1e-3,
                kind="audit")
        _single(checks, "lift_tension_normal",
                "normal component equals the image curvature (diagnostic)",
                abs(res["normal"] - 1.0 / np.sqrt(2.0)), 1e-3, kind="audit")
    return checks.reports


SUITES = {
    "core": suite_core,
    "tangent": suite_tangent,
    "frame": suite_frame,
    "adapted": suite_adapted,
    "lift": suite_lift,
    "theorems": suite_theorems,
}

SUITE_ORDER = ["core", "tangent", "frame", "adapted", "lift", "theorems"]


def run_suites(entry: CatalogEntry, suites: list[str], cfg: FDConfig = DEFAULT_FD,
               seed: int = 42, samples: int = 10) -> list[CheckReport]:
    out: list[CheckReport] = []
    for s in suites:
        out.extend(SUITES[s](entry, cfg, seed, samples))
    return out
