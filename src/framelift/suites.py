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
from .reporting import CheckReport, Stopwatch, make_check


def _rng(seed: int, *tags: int) -> np.random.Generator:
    return np.random.default_rng([seed, *tags])


# ---------------------------------------------------------------------------
# core chart calculus
# ---------------------------------------------------------------------------

def suite_core(entry: CatalogEntry, cfg: FDConfig = DEFAULT_FD,
               seed: int = 42, samples: int = 10) -> list[CheckReport]:
    out: list[CheckReport] = []
    sw = Stopwatch()
    for M, tag in ((entry.phi.source, "src"), (entry.phi.target, "tgt")):
        pts = sample_points(M, seed, samples)
        rng = _rng(seed, 1)
        exact = M.metric_derivative is not None
        tol_compat = 1e-8 if exact else cfg.tol_fd1

        gamma_sym = 0.0
        compat = 0.0
        torsion = 0.0
        bianchi = 0.0
        dg_agree = 0.0
        for p in pts:
            gamma = christoffel(M, p, cfg)
            gamma_sym = max(gamma_sym, float(np.max(np.abs(gamma - gamma.transpose(0, 2, 1)))))
            X = polynomial_vector_field(M.dim, rng)
            Y = polynomial_vector_field(M.dim, rng)
            Z = polynomial_vector_field(M.dim, rng)

            def gYZ(q):
                return np.array([float(Y.eval(q) @ metric_eval(M, q) @ Z.eval(q))])

            lhs = directional_diff(gYZ, p, X.eval(p), cfg.step_h)[0]
            nXY = covariant_derivative(M, X, Y, p, cfg).components
            nXZ = covariant_derivative(M, X, Z, p, cfg).components
            g = metric_eval(M, p)
            compat = max(compat, abs(lhs - float(nXY @ g @ Z.eval(p)) - float(Y.eval(p) @ g @ nXZ)))

            br = lie_bracket(X, Y, p, cfg).components
            tf = covariant_derivative(M, X, Y, p, cfg).components - covariant_derivative(M, Y, X, p, cfg).components - br
            torsion = max(torsion, norm(M, p, tf))

            onb = orthonormal_basis(M, p)
            x, y, z = (rng.standard_normal(M.dim) for _ in range(3))
            bx = curvature(M, TangentVector(p, x), TangentVector(p, y), TangentVector(p, z), cfg).components
            by = curvature(M, TangentVector(p, y), TangentVector(p, z), TangentVector(p, x), cfg).components
            bz = curvature(M, TangentVector(p, z), TangentVector(p, x), TangentVector(p, y), cfg).components
            bianchi = max(bianchi, norm(M, p, bx + by + bz))

            if exact:
                fd = central_diff(M.metric_field, p, cfg.step_h)
                dg_agree = max(dg_agree, float(np.max(np.abs(fd - M.metric_derivative(p)))))

        out.append(make_check(f"{entry.id}.core.gamma_symmetry.{tag}",
                              "Gamma^k_ij = Gamma^k_ji", gamma_sym, cfg.tol_exact,
                              samples=samples, wall_ms=sw.lap_ms()))
        out.append(make_check(f"{entry.id}.core.metric_compatibility.{tag}",
                              "X g(Y,Z) = g(nabla_X Y, Z) + g(Y, nabla_X Z)",
                              compat, tol_compat, samples=samples, wall_ms=sw.lap_ms()))
        out.append(make_check(f"{entry.id}.core.torsion_free.{tag}",
                              "nabla_X Y - nabla_Y X = [X, Y]", torsion, cfg.tol_fd1,
                              samples=samples, wall_ms=sw.lap_ms()))
        out.append(make_check(f"{entry.id}.core.bianchi_first.{tag}",
                              "R(X,Y)Z + R(Y,Z)X + R(Z,X)Y = 0", bianchi, cfg.tol_fd1,
                              samples=samples, wall_ms=sw.lap_ms()))
        if exact:
            out.append(make_check(f"{entry.id}.core.metric_derivative_vs_fd.{tag}",
                                  "supplied d_k g_ij matches central differences",
                                  dg_agree, cfg.tol_fd1, samples=samples, wall_ms=sw.lap_ms()))

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
        out.append(make_check(f"{entry.id}.core.endo_inner_basis_independent.{tag}",
                              "<P|Q> equal over two orthonormal bases",
                              abs(v1 - v2), cfg.tol_exact * max(1.0, abs(v1)),
                              wall_ms=sw.lap_ms()))
    return out


# ---------------------------------------------------------------------------
# tangent bundle
# ---------------------------------------------------------------------------

def suite_tangent(entry: CatalogEntry, cfg: FDConfig = DEFAULT_FD,
                  seed: int = 42, samples: int = 10) -> list[CheckReport]:
    out: list[CheckReport] = []
    sw = Stopwatch()
    phi = entry.phi
    M = phi.source
    geom = derive_geometry(phi, cfg)
    pts = sample_points(M, seed, samples)
    rng = _rng(seed, 3)

    ident = 0.0
    split_res = 0.0
    mixed = 0.0
    for p in pts:
        Z = TMPoint(p, 0.7 * rng.standard_normal(M.dim))
        x = rng.standard_normal(M.dim)
        X = TangentVector(p, x)
        v = tm_vertical_lift(X, Z)
        h = tm_horizontal_lift(M, X, Z, cfg)
        ident = max(
            ident,
            float(np.max(np.abs(connection_map_K(M, v, cfg).components - x))),
            float(np.max(np.abs(connection_map_K(M, h, cfg).components))),
            float(np.max(np.abs(h.base_rate - x))),
            float(np.max(np.abs(v.base_rate))),
        )
        t = TMTangent(Z, rng.standard_normal(M.dim), rng.standard_normal(M.dim))
        hh, vv = tm_split(M, t, cfg)
        rec = hh + vv
        split_res = max(split_res,
                        float(np.max(np.abs(rec.base_rate - t.base_rate))),
                        float(np.max(np.abs(rec.fiber_rate - t.fiber_rate))))
        mixed = max(mixed, abs(sasaki_mok_tm(M, h, v, cfg)))
    out.append(make_check(f"{entry.id}.tangent.lift_identities",
                          "K(X^v)=X, K(X^h)=0, pi(X^h)=X, pi(X^v)=0",
                          ident, cfg.tol_exact, samples=samples, wall_ms=sw.lap_ms()))
    out.append(make_check(f"{entry.id}.tangent.splitting_exact",
                          "t = (pi_* t)^h + (K t)^v", split_res, cfg.tol_exact,
                          samples=samples, wall_ms=sw.lap_ms()))
    out.append(make_check(f"{entry.id}.tangent.horizontal_vertical_orthogonal",
                          "g_TM(X^h, Y^v) = 0", mixed, cfg.tol_exact,
                          samples=samples, wall_ms=sw.lap_ms()))

    # second differential: formula vs finite differences, both kinds
    for kind in ("vertical", "horizontal"):
        worst = 0.0
        for p in pts:
            Z = TMPoint(p, 0.7 * rng.standard_normal(M.dim))
            X = TangentVector(p, rng.standard_normal(M.dim))
            t = tm_vertical_lift(X, Z) if kind == "vertical" else tm_horizontal_lift(M, X, Z, cfg)
            fd = phi_second_differential_fd(phi, t, cfg)
            fm = phi_second_differential_formula(phi, kind, X, Z, cfg)
            d = fd - fm
            worst = max(worst, float(np.max(np.abs(d.base_rate))), float(np.max(np.abs(d.fiber_rate))))
        out.append(make_check(f"{entry.id}.tangent.second_differential.{kind}",
                              "second differential formula matches central differences",
                              worst, cfg.tol_fd2, samples=samples, wall_ms=sw.lap_ms()))

    # kernel/orthogonal distributions of the tangent-bundle map
    kern = 0.0
    cross = 0.0
    dims_ok = True
    disp_gap = 0.0
    const_ext_gap = 0.0
    for p in pts[: max(2, samples // 3)]:
        Z = TMPoint(p, 0.7 * rng.standard_normal(M.dim))
        Vb, Hb = tm_distributions(phi, Z, cfg, geom=geom)
        n, k = M.dim, phi.target.dim
        dims_ok = dims_ok and (len(Vb), len(Hb)) == (2 * (n - k), 2 * k)
        for v in Vb:
            img = phi_second_differential_fd(phi, v, cfg)
            kern = max(kern, float(np.max(np.abs(img.base_rate))), float(np.max(np.abs(img.fiber_rate))))
        for v in Vb:
            for h in Hb:
                cross = max(cross, abs(sasaki_mok_tm(M, v, h, cfg)))
        # displayed orthogonal-side formula, reported against the complement
        for h in tm_distributions_displayed_h(phi, Z, cfg, geom=geom):
            for v in Vb:
                disp_gap = max(disp_gap, abs(sasaki_mok_tm(M, v, h, cfg)))
        for v in tm_kernel_constant_extension(phi, Z, cfg, geom=geom):
            img = phi_second_differential_fd(phi, v, cfg)
            const_ext_gap = max(const_ext_gap, float(np.max(np.abs(img.base_rate))),
                                float(np.max(np.abs(img.fiber_rate))))
    out.append(make_check(f"{entry.id}.tangent.kernel_distribution",
                          "second differential kills the kernel basis",
                          kern, cfg.tol_fd2, samples=samples, wall_ms=sw.lap_ms()))
    out.append(make_check(f"{entry.id}.tangent.distribution_orthogonality",
                          "kernel and complement are Sasaki-orthogonal",
                          cross, cfg.tol_fd1, samples=samples, wall_ms=sw.lap_ms()))
    out.append(make_check(f"{entry.id}.tangent.distribution_dimensions",
                          "dim kernel = 2(n-k), dim complement = 2k",
                          0.0 if dims_ok else 1.0, 0.5, wall_ms=sw.lap_ms()))
    out.append(make_check(f"{entry.id}.tangent.displayed_h_vs_complement",
                          "displayed orthogonal-side formula vs kernel (diagnostic)",
                          disp_gap, cfg.tol_fd2, kind="audit", wall_ms=sw.lap_ms()))
    out.append(make_check(f"{entry.id}.tangent.kernel_constant_extension",
                          "kernel formula under bare constant extension (diagnostic)",
                          const_ext_gap, cfg.tol_fd2, kind="audit", wall_ms=sw.lap_ms()))

    # frame-to-tangent-bundle projections are Riemannian submersions
    p = pts[0]
    u = Frame(p, reference_frame(M, p))
    rngp = _rng(seed, 4)
    worst_pi = 0.0
    worst_iso = 0.0
    for i in range(M.dim):
        x = rngp.standard_normal(M.dim)
        P = rngp.standard_normal((M.dim, M.dim))
        t = horizontal_lift_frame(M, TangentVector(p, x), u, cfg) + fundamental_vertical(P, u)
        lemma = pi_i_differential(M, t, i, cfg)
        fd = pi_i_differential_fd(M, t, i, cfg)
        d = lemma - fd
        worst_pi = max(worst_pi, float(np.max(np.abs(d.base_rate))), float(np.max(np.abs(d.fiber_rate))))
        th = horizontal_lift_frame(M, TangentVector(p, x), u, cfg)
        worst_iso = max(worst_iso, abs(
            mok_metric(M, th, th, cfg) - sasaki_mok_tm(M, pi_i_differential(M, th, i, cfg),
                                                       pi_i_differential(M, th, i, cfg), cfg)))
    out.append(make_check(f"{entry.id}.tangent.frame_projection_differential",
                          "column projection maps lifts to lifts",
                          worst_pi, cfg.tol_fd1, wall_ms=sw.lap_ms()))
    out.append(make_check(f"{entry.id}.tangent.frame_projection_isometry",
                          "column projection is isometric on horizontals",
                          worst_iso, cfg.tol_fd1, wall_ms=sw.lap_ms()))
    return out


# ---------------------------------------------------------------------------
# frame bundle
# ---------------------------------------------------------------------------

def suite_frame(entry: CatalogEntry, cfg: FDConfig = DEFAULT_FD,
                seed: int = 42, samples: int = 10) -> list[CheckReport]:
    out: list[CheckReport] = []
    sw = Stopwatch()
    phi = entry.phi
    M = phi.source
    pts = sample_points(M, seed, samples)
    rng = _rng(seed, 5)

    # structural identities at sampled frames
    decomp = 0.0
    block_orth = 0.0
    right_inv = 0.0
    roundtrip = 0.0
    chart = om_chart(M)
    for p in pts:
        u = Frame(p, reference_frame(M, p))
        x = rng.standard_normal(M.dim)
        P = rng.standard_normal((M.dim, M.dim))
        t = horizontal_lift_frame(M, TangentVector(p, x), u, cfg) + fundamental_vertical(P, u)
        V = vertical_part(M, t, cfg)
        rec = horizontal_lift_frame(M, TangentVector(p, t.base_rate), u, cfg) + fundamental_vertical(V, u)
        decomp = max(decomp,
                     float(np.max(np.abs(rec.frame_rate - t.frame_rate))),
                     float(np.max(np.abs(rec.base_rate - t.base_rate))))
        g = metric_eval(M, p)
        K = rng.standard_normal((M.dim, M.dim))
        skew = np.linalg.solve(g, 0.5 * (K - K.T))
        block_orth = max(block_orth, abs(mok_metric(
            M, horizontal_lift_frame(M, TangentVector(p, x), u, cfg),
            fundamental_vertical(skew, u), cfg)))
        # right invariance under a constant orthogonal matrix
        Q, _ = np.linalg.qr(rng.standard_normal((M.dim, M.dim)))
        uk = Frame(p, u.columns @ Q)
        s = horizontal_lift_frame(M, TangentVector(p, x), u, cfg) + fundamental_vertical(skew, u)
        sk = FrameTangent(uk, s.base_rate, s.frame_rate @ Q)
        right_inv = max(right_inv, abs(mok_metric(M, s, s, cfg) - mok_metric(M, sk, sk, cfg)))
        # orthonormal chart round trip
        a = 0.4 * rng.standard_normal(len(chart.basis))
        u2 = chart.decode(chart.join(p, a))
        _, a2 = chart.split(chart.encode(u2))
        roundtrip = max(roundtrip, float(np.max(np.abs(a - a2))))
    out.append(make_check(f"{entry.id}.frame.decomposition_exact",
                          "t = (pi_* t)^h + V(t)*", decomp, cfg.tol_exact,
                          samples=samples, wall_ms=sw.lap_ms()))
    out.append(make_check(f"{entry.id}.frame.mok_block_orthogonal",
                          "g_L(X^h, P*) = 0", block_orth, cfg.tol_exact,
                          samples=samples, wall_ms=sw.lap_ms()))
    out.append(make_check(f"{entry.id}.frame.mok_right_invariant",
                          "Mok norms invariant under constant right rotation",
                          right_inv, cfg.tol_exact * 100, samples=samples, wall_ms=sw.lap_ms()))
    out.append(make_check(f"{entry.id}.frame.om_chart_roundtrip",
                          "decode then encode returns the skew coordinates",
                          roundtrip, 1e-10, samples=samples, wall_ms=sw.lap_ms()))

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
        worst = 0.0
        lit = 0.0
        for i, p in enumerate(pts):
            res = bracket_residual(M, lm, case, inputs, Frame(p, reference_frame(M, p)), cfg)
            worst = max(worst, res["resolved"])
            if "literal" in res and i < 2:
                lit = max(lit, res["literal"])
        out.append(make_check(f"{entry.id}.frame.bracket.{case}", ident, worst,
                              cfg.tol_fd2, samples=samples, wall_ms=sw.lap_ms()))
        if case == "hv":
            out.append(make_check(f"{entry.id}.frame.bracket.hv_literal_sign",
                                  "[X^h, Q*] = -(nabla_X Q)* (diagnostic)", lit,
                                  cfg.tol_fd2, kind="audit", wall_ms=sw.lap_ms()))

    # connection formulas against the total-space oracle
    npts = min(3, samples)
    Qs = g_skew_endo_field(M, rng)
    Ps = g_skew_endo_field(M, rng)
    for bundle, fields in (("L", dict(X=X, Y=Y, P=P, Q=Q)),
                           ("O", dict(X=X, Y=Y, P=Ps, Q=Qs))):
        tracked: dict[str, float] = {}
        tracked_lit: dict[str, float] = {}
        for p in pts[:npts]:
            u = Frame(p, reference_frame(M, p))
            for row in connection_audit(M, bundle, u, fields, cfg):
                key = row["case"]
                d = tracked if row["asserted"] else tracked_lit
                d[key] = max(d.get(key, 0.0), row["residual"])
        for case, worst in tracked.items():
            out.append(make_check(f"{entry.id}.frame.connection.{bundle}.{case}",
                                  "closed-form connection matches total-space oracle",
                                  worst, cfg.tol_fd2, samples=npts, wall_ms=sw.lap_ms()))
        for case, worst in tracked_lit.items():
            out.append(make_check(f"{entry.id}.frame.connection.{bundle}.{case}_literal",
                                  "displayed hv/vh term placement (diagnostic)",
                                  worst, cfg.tol_fd2, kind="audit", wall_ms=sw.lap_ms()))

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
    out.append(make_check(f"{entry.id}.frame.oracle_torsion_free",
                          "total-space oracle connection is torsion free",
                          float(np.sqrt(max(tf @ Gq @ tf, 0.0))), cfg.tol_fd2, wall_ms=sw.lap_ms()))

    def gAB(qq):
        return np.array([float(A.eval(qq) @ metric_eval(total, qq) @ B.eval(qq))])

    C = polynomial_vector_field(total.dim, rngt, exact_jacobian=False)
    lhs = directional_diff(gAB, q, C.eval(q), cfg.step_h2)[0]
    nCA = covariant_derivative(total, C, A, q, cfg_total).components
    nCB = covariant_derivative(total, C, B, q, cfg_total).components
    compat = abs(lhs - float(nCA @ Gq @ B.eval(q)) - float(A.eval(q) @ Gq @ nCB))
    out.append(make_check(f"{entry.id}.frame.oracle_metric_compatible",
                          "total-space oracle connection preserves the induced metric",
                          compat, cfg.tol_fd2 * 10, wall_ms=sw.lap_ms()))

    # adapted-bundle connection displays: diagnostic table
    geom = derive_geometry(phi, cfg)
    p = pts[0]
    u = adapted_frame(M, geom.horizontal, p)
    k = geom.rank
    Ja = np.zeros((k, k))
    if k >= 2:
        Ja[0, 1], Ja[1, 0] = -1.0, 1.0
    Pa = adapted_endo_field(geom, top=0.8 * Ja)
    Qa = adapted_endo_field(geom, top=-1.3 * Ja)
    for row in adapted_connection_audit(M, geom.horizontal, u,
                                        dict(X=X, Y=Y, P=Pa, Q=Qa), cfg):
        tag = "best" if row["best_match"] else "alt"
        out.append(make_check(
            f"{entry.id}.frame.adapted_connection.{row['case']}.{tag}",
            row["reading"], row["residual"], cfg.tol_fd2, kind="audit", wall_ms=sw.lap_ms()))
    return out


# ---------------------------------------------------------------------------
# adapted bundle
# ---------------------------------------------------------------------------

def suite_adapted(entry: CatalogEntry, cfg: FDConfig = DEFAULT_FD,
                  seed: int = 42, samples: int = 10) -> list[CheckReport]:
    out: list[CheckReport] = []
    sw = Stopwatch()
    phi = entry.phi
    M = phi.source
    geom = derive_geometry(phi, cfg)
    D = geom.horizontal
    pts = sample_points(M, seed, samples)
    rng = _rng(seed, 7)

    proj = 0.0
    reasm = 0.0
    mproj = 0.0
    for p in pts:
        d = projector_defects(M, D, p)
        proj = max(proj, d["idempotent"], d["self_adjoint"], d["trace"])
        P = rng.standard_normal((M.dim, M.dim))
        b = block_decompose(P, D, p)
        reasm = max(reasm, float(np.max(np.abs(b.reassemble() - P))))
        g = metric_eval(M, p)
        K = rng.standard_normal((M.dim, M.dim))
        skew = np.linalg.solve(g, 0.5 * (K - K.T))
        m1 = m_projection(M, D, p, skew, cfg)
        m2 = m_projection(M, D, p, m1, cfg)
        mproj = max(mproj, float(np.max(np.abs(m2 - m1))),
                    float(np.max(np.abs(g @ m1 + (g @ m1).T))))
    out.append(make_check(f"{entry.id}.adapted.projector_invariants",
                          "projector idempotent, self-adjoint, trace k", proj,
                          cfg.tol_exact * 100, samples=samples, wall_ms=sw.lap_ms()))
    out.append(make_check(f"{entry.id}.adapted.block_reassembly",
                          "top + bot + off-blocks reassemble the endomorphism",
                          reasm, cfg.tol_exact * 100, samples=samples, wall_ms=sw.lap_ms()))
    out.append(make_check(f"{entry.id}.adapted.m_projection",
                          "block-mixing projection idempotent and skew", mproj,
                          cfg.tol_exact * 100, samples=samples, wall_ms=sw.lap_ms()))

    preserve = 0.0
    compat = 0.0
    tensorial = 0.0
    antisym = 0.0
    for p in pts[: max(3, samples // 2)]:
        X = polynomial_vector_field(M.dim, rng)
        Pi = D.projector(p)
        Pic = D.complement(p)
        g = metric_eval(M, p)
        Ytop = VectorField(eval=lambda q: D.projector(q) @ (np.ones(M.dim) + 0.3 * q))
        nd = nabla_D(M, D, X, Ytop, p, cfg).components
        preserve = max(preserve, norm(M, p, Pic @ nd))
        Y = polynomial_vector_field(M.dim, rng)
        Z = polynomial_vector_field(M.dim, rng)

        def gYZ(q):
            return np.array([float(Y.eval(q) @ metric_eval(M, q) @ Z.eval(q))])

        lhs = directional_diff(gYZ, p, X.eval(p), cfg.step_h)[0]
        a = nabla_D(M, D, X, Y, p, cfg).components
        b = nabla_D(M, D, X, Z, p, cfg).components
        compat = max(compat, abs(lhs - float(a @ g @ Z.eval(p)) - float(Y.eval(p) @ g @ b)))

        # tensoriality: rescale fields by functions equal to 1 at p
        f = lambda q: 1.0 + (q - p) @ np.arange(1.0, M.dim + 1.0)
        Xs = VectorField(eval=lambda q: f(q) * X.eval(q))
        Ys = VectorField(eval=lambda q: f(q) * Y.eval(q))
        s1 = S_tensor(M, D, X, Y, p, cfg).components
        s2 = S_tensor(M, D, Xs, Ys, p, cfg).components
        tensorial = max(tensorial, float(np.max(np.abs(s1 - s2))))

        # skew-symmetry of S in its last two slots
        z = rng.standard_normal(M.dim)
        y = rng.standard_normal(M.dim)
        x = rng.standard_normal(M.dim)
        Sx = S_endo(M, D, x, p, cfg)
        antisym = max(antisym, abs(float((Sx @ y) @ g @ z) + float(y @ g @ (Sx @ z))))
    out.append(make_check(f"{entry.id}.adapted.connection_preserves_blocks",
                          "adapted connection maps sections of D into D",
                          preserve, cfg.tol_fd1, wall_ms=sw.lap_ms()))
    out.append(make_check(f"{entry.id}.adapted.connection_metric_compatible",
                          "adapted connection preserves the metric",
                          compat, cfg.tol_fd1, wall_ms=sw.lap_ms()))
    out.append(make_check(f"{entry.id}.adapted.difference_tensorial",
                          "difference tensor unchanged by unit-at-p rescalings",
                          tensorial, cfg.tol_fd1, wall_ms=sw.lap_ms()))
    out.append(make_check(f"{entry.id}.adapted.difference_skew",
                          "g(S_X Y, Z) + g(Y, S_X Z) = 0", antisym, cfg.tol_fd1,
                          wall_ms=sw.lap_ms()))

    # torsion restricted to the distribution detects integrability
    integ = 0.0
    for p in pts[: max(3, samples // 2)]:
        hb = horizontal_basis(geom, p)
        for a in range(len(hb)):
            for b in range(a + 1, len(hb)):
                td = torsion_TD(M, D, constant_field(hb[a].components),
                                constant_field(hb[b].components), p, cfg)
                integ = max(integ, norm(M, p, td.components))
    if entry.h_integrable:
        out.append(make_check(f"{entry.id}.adapted.torsion_integrable",
                              "adapted torsion vanishes on the distribution",
                              integ, cfg.tol_fd1, wall_ms=sw.lap_ms()))
    else:
        out.append(make_check(f"{entry.id}.adapted.torsion_nonintegrable",
                              "adapted torsion detects non-integrability (> 0.1)",
                              integ, 0.1, invert=True, wall_ms=sw.lap_ms()))

    # curvature relation between the two connections
    rel = 0.0
    rel_disp = 0.0
    for p in pts[:3]:
        x, y, z = (rng.standard_normal(M.dim) for _ in range(3))
        res = curvature_relation_residual(M, D, x, y, z, p, cfg)
        rel = max(rel, res["standard"])
        rel_disp = max(rel_disp, res["display"])
    out.append(make_check(f"{entry.id}.adapted.curvature_relation",
                          "R = RD + antisymmetrized nabla S + S_torsion + [S,S]",
                          rel, cfg.tol_fd2, samples=3, wall_ms=sw.lap_ms()))
    out.append(make_check(f"{entry.id}.adapted.curvature_relation_display_convention",
                          "same relation with the displayed nabla-S convention (diagnostic)",
                          rel_disp, cfg.tol_fd2, kind="audit", wall_ms=sw.lap_ms()))

    # W endomorphism: defining identity and positivity
    wlem = 0.0
    wpos = 1.0
    lift_id = 0.0
    tangency = 0.0
    for p in pts:
        u = adapted_frame(M, D, p)
        onb = [TangentVector(p, u.columns[:, i]) for i in range(M.dim)]
        Wm = W_endo(M, D, p, onb, cfg)
        g = metric_eval(M, p)
        for _ in range(2):
            x, y = rng.standard_normal((2, M.dim))
            tx = adapted_horizontal_lift(M, D, TangentVector(p, x), u, cfg)
            ty = adapted_horizontal_lift(M, D, TangentVector(p, y), u, cfg)
            wlem = max(wlem, abs(float(x @ g @ (Wm @ y)) - mok_metric(M, tx, ty, cfg)))
        E = u.columns
        W_onb = np.linalg.inv(E) @ Wm @ E
        wpos = min(wpos, float(np.min(np.linalg.eigvalsh(0.5 * (W_onb + W_onb.T)))))
        x = rng.standard_normal(M.dim)
        t = adapted_horizontal_lift(M, D, TangentVector(p, x), u, cfg)
        Sx = S_endo(M, D, x, p, cfg)
        t2 = horizontal_lift_frame(M, TangentVector(p, x), u, cfg) + fundamental_vertical(Sx, u)
        lift_id = max(lift_id,
                      float(np.max(np.abs(t.frame_rate - t2.frame_rate))),
                      float(np.max(np.abs(t.base_rate - t2.base_rate))))
        tangency = max(tangency, od_tangency_residual(M, D, t, cfg))
    out.append(make_check(f"{entry.id}.adapted.w_lemma",
                          "g(X, W Y) equals the Mok product of adapted lifts",
                          wlem, cfg.tol_fd1, samples=samples, wall_ms=sw.lap_ms()))
    out.append(make_check(f"{entry.id}.adapted.w_positive",
                          "W has eigenvalues at least 1", 1.0 - wpos,
                          cfg.tol_exact * 100, samples=samples, wall_ms=sw.lap_ms()))
    out.append(make_check(f"{entry.id}.adapted.lift_difference_identity",
                          "adapted lift = plain lift + (S_X)* exactly",
                          lift_id, cfg.tol_exact, samples=samples, wall_ms=sw.lap_ms()))
    out.append(make_check(f"{entry.id}.adapted.lift_tangency",
                          "adapted lift is tangent to the adapted bundle",
                          tangency, cfg.tol_fd1, samples=samples, wall_ms=sw.lap_ms()))

    # reductive block algebra
    res = reductive_split_defect(M.dim, D.rank, _rng(seed, 8))
    out.append(make_check(f"{entry.id}.adapted.reductive_split",
                          "[block-diagonal, block-mixing] stays block-mixing",
                          res, 1e-12, wall_ms=sw.lap_ms()))
    return out


# ---------------------------------------------------------------------------
# submersion lifts
# ---------------------------------------------------------------------------

def suite_lift(entry: CatalogEntry, cfg: FDConfig = DEFAULT_FD,
               seed: int = 42, samples: int = 10) -> list[CheckReport]:
    out: list[CheckReport] = []
    sw = Stopwatch()
    phi = entry.phi
    M = phi.source
    geom = derive_geometry(phi, cfg)
    D = geom.horizontal
    pts = sample_points(M, seed, samples)
    rng = _rng(seed, 9)
    k = geom.rank

    # differential: exact Jacobian against central differences
    jd = 0.0
    split_id = 0.0
    for p in pts:
        if phi.jacobian is not None:
            fd = central_diff(phi.map, p, cfg.step_h).T
            jd = max(jd, float(np.max(np.abs(fd - phi.jacobian(p)))))
        Pi_V, Pi_H = splitting_projectors(phi, p, cfg)
        J = differential_matrix(phi, p, cfg)
        split_id = max(split_id,
                       float(np.max(np.abs(Pi_V + Pi_H - np.eye(M.dim)))),
                       float(np.max(np.abs(J @ Pi_V))),
                       float(np.max(np.abs(Pi_H @ Pi_V))))
    if phi.jacobian is not None:
        out.append(make_check(f"{entry.id}.lift.jacobian_vs_fd",
                              "exact Jacobian matches central differences",
                              jd, cfg.tol_fd1, samples=samples, wall_ms=sw.lap_ms()))
    out.append(make_check(f"{entry.id}.lift.splitting_projectors",
                          "projectors sum to the identity and kill the kernel",
                          split_id, cfg.tol_exact * 1e3, samples=samples, wall_ms=sw.lap_ms()))

    # dilatation against the catalog value
    lam_err = 0.0
    defect = 0.0
    for p in pts:
        lam, dfc = dilatation(phi, p, cfg, geom)
        defect = max(defect, dfc)
        if entry.expected_lambda is not None:
            lam_err = max(lam_err, abs(lam - entry.expected_lambda))
    out.append(make_check(f"{entry.id}.lift.dilatation_value",
                          "dilatation matches the catalog value",
                          lam_err, cfg.tol_fd1, samples=samples, wall_ms=sw.lap_ms()))
    out.append(make_check(f"{entry.id}.lift.conformality_defect",
                          "horizontal Gram matrix proportional to the identity",
                          defect, cfg.tol_fd1, samples=samples, wall_ms=sw.lap_ms()))

    # second fundamental form symmetry, A-identity, Pi_X displays
    sym = 0.0
    aid = 0.0
    aid_plus = 0.0
    pix = 0.0
    for p in pts[: max(3, samples // 2)]:
        x, y = rng.standard_normal((2, M.dim))
        gN = metric_eval(phi.target, phi.value(p))
        v1 = second_fundamental_form(phi, TangentVector(p, x), TangentVector(p, y), cfg)
        v2 = second_fundamental_form(phi, TangentVector(p, y), TangentVector(p, x), cfg)
        sym = max(sym, float(np.sqrt(max((v1 - v2) @ gN @ (v1 - v2), 0.0))))
        for X in horizontal_basis(geom, p):
            for Y in vertical_basis(geom, p):
                res = A_identity_residual(geom, X, Y, cfg)
                aid = max(aid, res["asserted"])
                aid_plus = max(aid_plus, res["printed"])
        X = TangentVector(p, rng.standard_normal(M.dim))
        pix = max(pix, float(np.max(np.abs(Pi_X_endo(geom, X, cfg) - Pi_X_endo_alt(geom, X, cfg)))))
    out.append(make_check(f"{entry.id}.lift.second_fundamental_symmetric",
                          "second fundamental form symmetric in its arguments",
                          sym, cfg.tol_fd2, wall_ms=sw.lap_ms()))
    out.append(make_check(f"{entry.id}.lift.a_identity",
                          "pushforward of A_Y(X) is minus the mixed second fundamental form",
                          aid, cfg.tol_fd2, wall_ms=sw.lap_ms()))
    out.append(make_check(f"{entry.id}.lift.a_identity_printed_sign",
                          "same identity with a plus sign (diagnostic)",
                          aid_plus, cfg.tol_fd2, kind="audit", wall_ms=sw.lap_ms()))
    out.append(make_check(f"{entry.id}.lift.pi_x_displays_agree",
                          "two constructions of the horizontal second-form endo agree",
                          pix, cfg.tol_fd2, wall_ms=sw.lap_ms()))

    # pushforward of endomorphisms: identity and multiplicativity
    p = pts[0]
    Pi_V, Pi_H = splitting_projectors(phi, p, cfg)
    idH = pushforward_endo(geom, p, Pi_H, cfg)
    comp = 0.0
    P0 = Pi_H @ rng.standard_normal((M.dim, M.dim)) @ Pi_H
    Q0 = Pi_H @ rng.standard_normal((M.dim, M.dim)) @ Pi_H
    lhs = pushforward_endo(geom, p, P0 @ Q0, cfg)
    rhs = pushforward_endo(geom, p, P0, cfg) @ pushforward_endo(geom, p, Q0, cfg)
    comp = float(np.max(np.abs(lhs - rhs)))
    out.append(make_check(f"{entry.id}.lift.pushforward_identity",
                          "pushforward of the horizontal identity is the identity",
                          float(np.max(np.abs(idH - np.eye(k)))), cfg.tol_exact * 1e3,
                          wall_ms=sw.lap_ms()))
    out.append(make_check(f"{entry.id}.lift.pushforward_multiplicative",
                          "pushforward respects composition", comp,
                          cfg.tol_exact * 1e4, wall_ms=sw.lap_ms()))

    # divergence duality
    dual = 0.0
    for p in pts[: max(3, samples // 2)]:
        for trial in range(5):
            C0 = rng.standard_normal((k, k))
            C_field = adapted_endo_field(geom, top=C0)
            d = div_bot(geom, C_field.eval, p, cfg)
            Xv = vertical_basis(geom, p)[trial % (M.dim - k)]
            A = A_Y_endo(geom, Xv, cfg)
            onb = [TangentVector(p, adapted_frame(M, D, p).columns[:, i]) for i in range(M.dim)]
            val = endo_inner(M, p, A, C_field.eval(p), onb)
            g = metric_eval(M, p)
            dual = max(dual, abs(val + float(Xv.components @ g @ d)))
    out.append(make_check(f"{entry.id}.lift.div_duality",
                          "<A_X | C> = -g(X, vertical divergence of C)",
                          dual, cfg.tol_fd2, samples=5, wall_ms=sw.lap_ms()))

    # the lifted frame
    ortho = 0.0
    for p in pts[:3]:
        u = adapted_frame(M, D, p)
        v = lift_map(geom, u, cfg)
        gN = metric_eval(phi.target, v.base)
        lam, _ = dilatation(phi, p, cfg, geom)
        G = v.columns.T @ gN @ v.columns
        ortho = max(ortho, float(np.max(np.abs(G - lam * np.eye(k)))))
    out.append(make_check(f"{entry.id}.lift.lifted_frame_gram",
                          "lifted frame Gram equals the dilatation times identity",
                          ortho, cfg.tol_fd1, wall_ms=sw.lap_ms()))

    # lift differential: formula vs finite differences, three input types
    worst = {"horizontal-of-H": 0.0, "horizontal-of-V": 0.0, "vertical": 0.0}
    for p in pts[: max(3, samples // 2)]:
        u = adapted_frame(M, D, p)
        g = metric_eval(M, p)
        hb = horizontal_basis(geom, p)
        vb = vertical_basis(geom, p)
        x = sum(c * e.components for c, e in zip(rng.standard_normal(k), hb))
        t = adapted_horizontal_lift(M, D, TangentVector(p, x), u, cfg)
        d = lift_differential_fd(geom, t, cfg) - lift_differential_formula(
            geom, "horizontal-of-H", x, u, cfg)
        worst["horizontal-of-H"] = max(worst["horizontal-of-H"], mok_norm(phi.target, d, cfg))
        y = sum(c * e.components for c, e in zip(rng.standard_normal(M.dim - k), vb))
        t = adapted_horizontal_lift(M, D, TangentVector(p, y), u, cfg)
        d = lift_differential_fd(geom, t, cfg) - lift_differential_formula(
            geom, "horizontal-of-V", y, u, cfg)
        worst["horizontal-of-V"] = max(worst["horizontal-of-V"], mok_norm(phi.target, d, cfg))
        blk = np.zeros((M.dim, M.dim))
        if k >= 2:
            blk[0, 1], blk[1, 0] = 1.0, -1.0
        if M.dim - k >= 2:
            blk[k, k + 1], blk[k + 1, k] = 1.0, -1.0
        P0 = u.columns @ blk @ u.columns.T @ g
        t = fundamental_vertical(P0, u)
        d = lift_differential_fd(geom, t, cfg) - lift_differential_formula(
            geom, "vertical", P0, u, cfg)
        worst["vertical"] = max(worst["vertical"], mok_norm(phi.target, d, cfg))
    for case, w in worst.items():
        out.append(make_check(f"{entry.id}.lift.differential.{case}",
                              "lift differential formula matches central differences",
                              w, cfg.tol_fd2, wall_ms=sw.lap_ms()))

    # kernel / orthogonal distributions of the lift
    kern = 0.0
    cross = 0.0
    dims_ok = True
    for p in pts[: max(3, samples // 2)]:
        u = adapted_frame(M, D, p)
        Vb, Hb = lift_distributions(geom, u, cfg)
        n = M.dim
        dims_ok = dims_ok and (len(Vb), len(Hb)) == (
            (n - k) + (n - k) * (n - k - 1) // 2, k + k * (k - 1) // 2)
        for v in Vb:
            kern = max(kern, mok_norm(phi.target, lift_differential_fd(
                geom, v, cfg, check_tangency=False), cfg))
        for v in Vb:
            for h in Hb:
                cross = max(cross, abs(mok_metric(M, v, h, cfg)))
    out.append(make_check(f"{entry.id}.lift.kernel_distribution",
                          "lift differential kills the kernel basis", kern,
                          cfg.tol_fd2, wall_ms=sw.lap_ms()))
    out.append(make_check(f"{entry.id}.lift.distribution_orthogonality",
                          "kernel and orthogonal bases have zero Mok cross Gram",
                          cross, cfg.tol_fd1, wall_ms=sw.lap_ms()))
    out.append(make_check(f"{entry.id}.lift.dimension_identity",
                          "kernel and orthogonal dimensions sum to the bundle dimension",
                          0.0 if dims_ok else 1.0, 0.5, wall_ms=sw.lap_ms()))
    return out


# ---------------------------------------------------------------------------
# theorems
# ---------------------------------------------------------------------------

def suite_theorems(entry: CatalogEntry, cfg: FDConfig = DEFAULT_FD,
                   seed: int = 42, samples: int = 10) -> list[CheckReport]:
    out: list[CheckReport] = []
    sw = Stopwatch()
    phi = entry.phi
    geom = derive_geometry(phi, cfg)
    pts = sample_points(phi.source, seed, max(3, samples // 2))
    rep = classify(phi, pts, cfg, geom)

    flags = [
        ("horizontally_conformal", rep.horizontally_conformal, True if entry.expected_lambda is not None else None),
        ("totally_geodesic", rep.totally_geodesic, entry.totally_geodesic),
        ("fibers_totally_geodesic", rep.fibers_totally_geodesic, entry.fibers_totally_geodesic),
        ("h_integrable", rep.h_integrable, entry.h_integrable),
        ("harmonic_morphism", rep.harmonic_morphism, entry.harmonic_morphism),
    ]
    for name, got, expect in flags:
        if expect is None:
            continue
        ok = got is expect
        out.append(make_check(f"{entry.id}.theorems.flag.{name}",
                              f"measured {name} verdict matches the catalog",
                              0.0 if ok else 1.0, 0.5,
                              inconclusive=got is None, wall_ms=sw.lap_ms()))

    if entry.expected_lambda is not None:
        err = max(abs(l - entry.expected_lambda) for l in rep.dilatation_samples)
        out.append(make_check(f"{entry.id}.theorems.dilatation_constant",
                              "dilatation constant at the catalog value", err,
                              cfg.tol_fd1 * (1 + entry.expected_lambda),
                              samples=len(pts), wall_ms=sw.lap_ms()))

    # two-sided conformality of the lift
    if entry.lift_conformal:
        out.append(make_check(f"{entry.id}.theorems.lift_defect_small",
                              "measured lift conformality defect below 5e-3",
                              rep.lift_defect_measured, 5e-3, samples=len(pts),
                              wall_ms=sw.lap_ms()))
        out.append(make_check(f"{entry.id}.theorems.lift_lambda_constant",
                              "lift dilatation constant (std below 1e-4)",
                              rep.lift_lambda_std, 1e-4, samples=len(pts),
                              wall_ms=sw.lap_ms()))
        out.append(make_check(f"{entry.id}.theorems.lift_lambda_matches_base",
                              "lift dilatation equals base dilatation along the projection",
                              rep.lift_lambda_vs_base_max, 1e-4, samples=len(pts),
                              wall_ms=sw.lap_ms()))
        if entry.expected_big_lambda is not None:
            err = max(abs(l - entry.expected_big_lambda) for l in rep.lift_lambda_samples)
            out.append(make_check(f"{entry.id}.theorems.lift_lambda_value",
                                  "lift dilatation matches the catalog value", err,
                                  1e-4 * (1 + entry.expected_big_lambda),
                                  samples=len(pts), wall_ms=sw.lap_ms()))
    else:
        out.append(make_check(f"{entry.id}.theorems.lift_defect_large",
                              "measured lift conformality defect above 0.01",
                              max(rep.lift_defect_measured,
                                  float(np.max(rep.lift_lambda_samples) - np.min(rep.lift_lambda_samples))),
                              0.01, invert=True, samples=len(pts), wall_ms=sw.lap_ms()))

    agree = rep.verdicts_agree
    out.append(make_check(f"{entry.id}.theorems.conformality_two_sided",
                          "predicted and measured lift conformality agree",
                          0.0 if agree else 1.0, 0.5,
                          inconclusive=agree is None, wall_ms=sw.lap_ms()))

    # harmonic morphism side
    expected_lift_hm = entry.harmonic_morphism and entry.totally_geodesic and (
        entry.expected_lambda is not None)
    got = rep.lift_harmonic_morphism_predicted
    out.append(make_check(f"{entry.id}.theorems.lift_harmonic_morphism",
                          "lift harmonic-morphism verdict via the characterization",
                          0.0 if got is expected_lift_hm else 1.0, 0.5,
                          inconclusive=got is None, wall_ms=sw.lap_ms()))

    # tension magnitude expectations
    if entry.id == "E3":
        out.append(make_check(f"{entry.id}.theorems.tension_zero",
                              "tension field vanishes for the Hopf fibration",
                              rep.tension_max, cfg.tol_fd2, samples=len(pts),
                              wall_ms=sw.lap_ms()))
    if entry.id == "E4":
        p0 = np.array([0.0, 0.25])
        tau = tension_field(phi, p0, cfg, geom)
        gN = metric_eval(phi.target, phi.value(p0))
        tn = float(np.sqrt(max(tau @ gN @ tau, 0.0)))
        H = mean_curvature_fibers(geom, p0, cfg)
        J = differential_matrix(phi, p0, cfg)
        pushed = J @ H.components
        hn = float(np.sqrt(max(pushed @ gN @ pushed, 0.0)))
        out.append(make_check(f"{entry.id}.theorems.tension_norm_one",
                              "tension norm equals 1 at the warped origin",
                              abs(tn - 1.0), 5e-3, wall_ms=sw.lap_ms()))
        out.append(make_check(f"{entry.id}.theorems.tension_equals_fiber_curvature",
                              "tension norm equals pushed mean-curvature norm",
                              abs(tn - hn), 5e-3, wall_ms=sw.lap_ms()))

    # the two tension displays agree on constant-dilatation entries
    if entry.expected_lambda is not None:
        worst = 0.0
        for p in pts[:2]:
            tau = tension_field(phi, p, cfg, geom)
            tau2 = tension_conformal_display(geom, p, cfg)
            gN = metric_eval(phi.target, phi.value(p))
            d = tau - tau2
            worst = max(worst, float(np.sqrt(max(d @ gN @ d, 0.0))))
        out.append(make_check(f"{entry.id}.theorems.tension_displays_agree",
                              "trace form of the tension matches the conformal form",
                              worst, cfg.tol_fd2, wall_ms=sw.lap_ms()))

    # direct total-space tension of the lift (small example only).  The image
    # of the E1 lift is R^2 times a circle of radius sqrt(2) in the flat fibre
    # of L(R^2), so the tension is that circle's curvature vector: normal to
    # the image, of norm 1/sqrt(2)
    if entry.id == "E1":
        res = lift_tension_direct(geom, np.array([0.2, -0.3, 0.4]), cfg)
        out.append(make_check(f"{entry.id}.theorems.lift_tension_direct",
                              "ambient tension of the lift into the full frame bundle",
                              res["ambient"], 1e-3, wall_ms=sw.lap_ms()))
        out.append(make_check(f"{entry.id}.theorems.lift_tension_tangential",
                              "image-tangential tension of the lift (diagnostic)",
                              res["tangential"], 1e-3, kind="audit", wall_ms=sw.lap_ms()))
        out.append(make_check(f"{entry.id}.theorems.lift_tension_normal",
                              "normal component equals the image curvature (diagnostic)",
                              abs(res["normal"] - 1.0 / np.sqrt(2.0)), 1e-3,
                              kind="audit", wall_ms=sw.lap_ms()))
    return out


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
