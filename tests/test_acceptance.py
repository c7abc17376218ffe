"""Acceptance criteria, one test per criterion, at their stated tolerances.

Each test prints one PASS/FAIL line.  Criterion 10 fails (see the notes in
the repository README): the warped example measures as lift-conformal, but
the prediction rule in ``classify`` also demands a totally geodesic map, and
so totally geodesic fibres, which the lift differential never contains.  The
same disagreement appears with a two-dimensional horizontal space, so it is
the rule that is wrong, not a low-dimensional artefact.  The clause is
asserted as stated and fails until the rule and the catalog flag change.

Criterion 11 checks harmonicity of the lift onto its image.  For the flat
projection it pins the closed-form tension of the lift: image-tangential
part 0, ambient and normal norms 1/sqrt(2), the curvature of the image
circle inside the frame bundle.
"""

import numpy as np
import pytest

from framelift.adapted import (
    S_components,
    W_endo,
    adapted_frame,
    adapted_horizontal_lift,
    od_tangency_residual,
)
from framelift.catalog import entries, euclidean_chart, get, sphere_chart
from framelift.fields import g_skew_endo_field, polynomial_endo_field, polynomial_vector_field
from framelift.frames import (
    Frame,
    FrameTangent,
    LMChart,
    bracket_residual,
    connection_audit,
    fundamental_vertical,
    horizontal_lift_frame,
    mok_metric,
    mok_norm,
    reference_frame,
)
from framelift.geometry import (
    FDConfig,
    TangentVector,
    christoffel,
    christoffel_contract,
    covariant_derivative,
    curvature_tensor,
    directional_diff,
    lie_bracket,
    metric_eval,
    orthonormal_basis,
    sample_points,
)
from framelift.reporting import strip_wall_times
from framelift.submersion import (
    A_Y_endos,
    adapted_endo_field,
    classify,
    derive_geometry,
    dilatation,
    div_bot,
    horizontal_basis,
    lift_differential_fd,
    lift_differential_formula,
    lift_distributions,
    lift_tension_direct,
    mean_curvature_fibers,
    differential_matrix,
    second_fundamental_tensor,
    splitting,
    tension_field,
    vertical_basis,
)
from framelift.tangent import (
    connection_map_K,
    phi_second_differential_fd,
    phi_second_differential_formula,
    tm_split,
    tm_vertical_lift,
)
from jets import jet
from looping import per_point

CFG = FDConfig()
SEED = 42


def report(num, name, ok, detail=""):
    print(f"ACCEPTANCE {num:>2} {name}: {'PASS' if ok else 'FAIL'} {detail}")


def test_criterion_01_core_calculus():
    worst = 0.0
    for M in (get("E1").phi.source, get("E1").phi.target, sphere_chart(2)):
        rng = np.random.default_rng([SEED, 101])
        for p in sample_points(M, SEED, 20):
            gamma = christoffel(M, p)
            worst = max(worst, float(np.max(np.abs(gamma - gamma.transpose(0, 2, 1)))))
            X = polynomial_vector_field(M.dim, rng)
            Y = polynomial_vector_field(M.dim, rng)
            Z = polynomial_vector_field(M.dim, rng)

            def gYZ(q):
                return np.array([float(Y.eval(q) @ metric_eval(M, q) @ Z.eval(q))])

            lhs = directional_diff(per_point(gYZ), p, X.eval(p), CFG.step_h)[0]
            g = metric_eval(M, p)
            nXY = covariant_derivative(M, X, Y, p, CFG).components
            nXZ = covariant_derivative(M, X, Z, p, CFG).components
            worst = max(worst, abs(lhs - float(nXY @ g @ Z.eval(p)) - float(Y.eval(p) @ g @ nXZ)))

            br = lie_bracket(X, Y, p, CFG).components
            tf = (covariant_derivative(M, X, Y, p, CFG).components
                  - covariant_derivative(M, Y, X, p, CFG).components - br)
            worst = max(worst, float(np.sqrt(max(tf @ g @ tf, 0.0))))

            x, y, z = (rng.standard_normal(M.dim) for _ in range(3))
            R = curvature_tensor(M, p, CFG)
            b = (np.einsum("ijkl,i,j,k->l", R, x, y, z) + np.einsum("ijkl,i,j,k->l", R, y, z, x)
                 + np.einsum("ijkl,i,j,k->l", R, z, x, y))
            worst = max(worst, float(np.sqrt(max(b @ g @ b, 0.0))))

    S2 = sphere_chart(2)
    sec_err = 0.0
    for p in sample_points(S2, SEED + 1, 5):
        e1, e2 = (e.components for e in orthonormal_basis(S2, p))
        K = np.einsum("ijkl,i,j,k->l", curvature_tensor(S2, p, CFG), e1, e2, e2) @ metric_eval(S2, p) @ e1
        sec_err = max(sec_err, abs(K - 1.0))

    ok = worst < 1e-6 and sec_err < 5e-4
    report(1, "core calculus", ok, f"(residual {worst:.3g}, sectional error {sec_err:.3g})")
    assert worst < 1e-6
    assert sec_err < 5e-4


def test_criterion_02_bracket_formulas():
    S2 = sphere_chart(2)
    rng = np.random.default_rng([SEED, 102])
    X = polynomial_vector_field(2, rng)
    Y = polynomial_vector_field(2, rng)
    Q = polynomial_endo_field(2, rng)
    P = polynomial_endo_field(2, rng)
    chart = LMChart(S2)
    cases = [("hh", (X, Y)), ("hv", (X, Q)), ("vv", (P, Q))]
    worst = dict.fromkeys([case for case, _ in cases], 0.0)
    for p in sample_points(S2, SEED, 10):
        u = Frame(p, reference_frame(S2, p))
        R = curvature_tensor(S2, p, CFG)
        for (case, _), res in zip(cases, bracket_residual(S2, chart, cases, u, *jet(S2, p), R, CFG)):
            worst[case] = max(worst[case], res["resolved"])
    ok = all(w < 5e-4 for w in worst.values())
    report(2, "bracket formulas", ok,
           "(" + ", ".join(f"{c}={w:.3g}" for c, w in worst.items()) + ")")
    for case, w in worst.items():
        assert w < 5e-4, case


def test_criterion_03_connection_formulas():
    rng = np.random.default_rng([SEED, 103])
    worst = 0.0
    for M in (euclidean_chart(2), sphere_chart(2)):
        X = polynomial_vector_field(2, rng)
        Y = polynomial_vector_field(2, rng)
        Q = polynomial_endo_field(2, rng)
        P = polynomial_endo_field(2, rng)
        Qs = g_skew_endo_field(M, rng)
        Ps = g_skew_endo_field(M, rng)
        for p in sample_points(M, SEED, 3):
            u = Frame(p, reference_frame(M, p))
            R = curvature_tensor(M, p, CFG)
            # every case on L(M), the vv case on O(M): the "resolved" readings
            rows = connection_audit(M, u, {"L": dict(X=X, Y=Y, P=P, Q=Q), "O": dict(X=X, Y=Y, P=Ps, Q=Qs)},
                                    *jet(M, p), R, CFG)
            worst = max(worst, *(r["residual"] for r in rows
                                 if r["asserted"] and (r["bundle"] == "L" or r["case"] == "vv")))

    # the adapted-bundle displays are audited, never asserted
    from framelift.adapted import adapted_connection_audit
    e = get("E3")
    geom = derive_geometry(e.phi)
    p = sample_points(e.phi.source, SEED, 1)[0]
    u = adapted_frame(e.phi.source, geom.horizontal, p)
    Xa = polynomial_vector_field(3, rng)
    Ya = polynomial_vector_field(3, rng)
    J = np.array([[0.0, -1.0], [1.0, 0.0]])
    Pa = adapted_endo_field(geom, top=0.7 * J)
    Qa = adapted_endo_field(geom, top=-1.1 * J)
    rows = adapted_connection_audit(e.phi.source, geom.horizontal, u,
                                    dict(X=Xa, Y=Ya, P=Pa, Q=Qa), *jet(e.phi.source, p),
                                    curvature_tensor(e.phi.source, p, CFG), CFG)
    assert rows and any(r["best_match"] for r in rows)
    best = {r["case"]: f"{r['reading']} [{r['residual']:.2g}]"
            for r in rows if r["best_match"]}
    ok = worst < 5e-4
    report(3, "connection formulas", ok,
           f"(oracle residual {worst:.3g}; adapted-bundle audit best variants: {best})")
    assert worst < 5e-4


def S_at(M, D, p):
    """S_components of D at p, from Gamma(p) and P(p)."""
    return S_components(M, D, p, christoffel(M, p), D.projector(p), CFG)


def test_criterion_04_adapted_lemma():
    e = get("E4")
    geom = derive_geometry(e.phi)
    M, D = e.phi.source, geom.horizontal
    rng = np.random.default_rng([SEED, 104])
    ident = 0.0
    tang = 0.0
    for p in sample_points(M, SEED, 10):
        u = adapted_frame(M, D, p)
        x = rng.standard_normal(2)
        t = adapted_horizontal_lift(M, D, TangentVector(p, x), u, CFG)
        t2 = horizontal_lift_frame(christoffel(M, p), TangentVector(p, x), u) + fundamental_vertical(
            christoffel_contract(S_at(M, D, p), x), u)
        ident = max(ident,
                    float(np.max(np.abs(t.frame_rate - t2.frame_rate))),
                    float(np.max(np.abs(t.base_rate - t2.base_rate))))
        tang = max(tang, od_tangency_residual(M, D, t, CFG))
    ok = ident == 0.0 and tang < 1e-6
    report(4, "adapted lift lemma", ok, f"(identity {ident:.3g}, tangency {tang:.3g})")
    assert ident == 0.0
    assert tang < 1e-6


def test_criterion_05_w_lemma():
    rng = np.random.default_rng([SEED, 105])
    worst = 0.0
    min_eig = 1.0
    for eid in ("E3", "E4"):
        e = get(eid)
        geom = derive_geometry(e.phi)
        M, D = e.phi.source, geom.horizontal
        for p in sample_points(M, SEED, 10):
            u = adapted_frame(M, D, p)
            g = metric_eval(M, p)
            W = W_endo(g, u, S_at(M, D, p))
            x, y = rng.standard_normal((2, M.dim))
            tx = adapted_horizontal_lift(M, D, TangentVector(p, x), u, CFG)
            ty = adapted_horizontal_lift(M, D, TangentVector(p, y), u, CFG)
            worst = max(worst, abs(float(x @ g @ (W @ y)) - mok_metric(g, christoffel(M, p), tx, ty)))
            W_onb = np.linalg.inv(u.columns) @ W @ u.columns
            min_eig = min(min_eig, float(np.min(np.linalg.eigvalsh(0.5 * (W_onb + W_onb.T)))))
    ok = worst < 1e-6 and min_eig > 0.0
    report(5, "W lemma", ok, f"(residual {worst:.3g}, min eigenvalue {min_eig:.6f})")
    assert worst < 1e-6
    assert min_eig > 0.0


def test_criterion_06_divergence_lemma():
    from framelift.geometry import endo_inner
    rng = np.random.default_rng([SEED, 106])
    worst = 0.0
    for e in entries():
        geom = derive_geometry(e.phi)
        M, D = e.phi.source, geom.horizontal
        k = geom.rank
        p = sample_points(M, SEED, 1)[0]
        u = adapted_frame(M, D, p)
        onb = [TangentVector(p, u.columns[:, i]) for i in range(M.dim)]
        g = metric_eval(M, p)
        vb = vertical_basis(geom, p)
        for trial in range(5):
            top = rng.standard_normal((k, k))
            C = adapted_endo_field(geom, top=top)
            [d] = div_bot(geom, top[None], u, christoffel(M, p), D.projector(p), CFG)
            X = vb[trial % len(vb)]
            x = rng.standard_normal(M.dim)
            Xr = TangentVector(p, (np.eye(M.dim) - D.projector(p)) @ x)
            for V in (X, Xr):
                [A] = A_Y_endos([V.components], S_at(M, D, p), D.projector(p))
                val = endo_inner(M, p, A, C.eval(p), onb)
                worst = max(worst, abs(val + float(V.components @ g @ d)))
    ok = worst < 5e-4
    report(6, "divergence duality lemma", ok, f"(residual {worst:.3g})")
    assert worst < 5e-4


def test_criterion_07_tangent_bundle_lemmas():
    rng = np.random.default_rng([SEED, 107])
    worst = 0.0
    for e in entries():
        phi = e.phi
        n = phi.source.dim
        for p in sample_points(phi.source, SEED, 5):
            Z = Frame(p, 0.6 * rng.standard_normal((n, 1)))
            X = TangentVector(p, rng.standard_normal(n))
            for kind in ("vertical", "horizontal"):
                t = (tm_vertical_lift(X, Z) if kind == "vertical"
                     else horizontal_lift_frame(christoffel(phi.source, Z.base), X, Z))
                d = phi_second_differential_fd(phi, t, CFG) - phi_second_differential_formula(
                    phi, kind, X, Z, CFG)
                worst = max(worst, float(np.max(np.abs(d.base_rate))),
                            float(np.max(np.abs(d.frame_rate))))

    flat = euclidean_chart(3)
    exact = 0.0
    for p in sample_points(flat, SEED, 5):
        Z = Frame(p, rng.standard_normal((3, 1)))
        x = rng.standard_normal(3)
        v = tm_vertical_lift(TangentVector(p, x), Z)
        h = horizontal_lift_frame(christoffel(flat, Z.base), TangentVector(p, x), Z)
        exact = max(exact,
                    float(np.max(np.abs(connection_map_K(flat, v).components - x))),
                    float(np.max(np.abs(connection_map_K(flat, h).components))),
                    float(np.max(np.abs(h.base_rate - x))))
        t = FrameTangent(Z, rng.standard_normal(3), rng.standard_normal((3, 1)))
        hh, vv = tm_split(flat, t)
        rec = hh + vv
        exact = max(exact, float(np.max(np.abs(rec.base_rate - t.base_rate))),
                    float(np.max(np.abs(rec.frame_rate - t.frame_rate))))
    ok = worst < 5e-4 and exact < 1e-10
    report(7, "tangent bundle lemmas", ok,
           f"(second differential {worst:.3g}, flat identities {exact:.3g})")
    assert worst < 5e-4
    assert exact < 1e-10


def test_criterion_08_lift_differential_lemma():
    rng = np.random.default_rng([SEED, 108])
    worst = 0.0
    for eid in ("E2", "E3", "E4"):
        e = get(eid)
        geom = derive_geometry(e.phi)
        M, D = e.phi.source, geom.horizontal
        k = geom.rank
        for p in sample_points(M, SEED, 3):
            u = adapted_frame(M, D, p)
            g = metric_eval(M, p)
            x = sum(c * b.components for c, b in
                    zip(rng.standard_normal(k), horizontal_basis(geom, p)))
            S, B, Pi_H = S_at(M, D, p), second_fundamental_tensor(e.phi, p, CFG), D.projector(p)
            split = splitting(e.phi, p)
            t = adapted_horizontal_lift(M, D, TangentVector(p, x), u, CFG)
            d = lift_differential_fd(geom, t, Pi_H, CFG) - lift_differential_formula(
                geom, "horizontal-of-H", x, u, S, B, split)
            worst = max(worst, mok_norm(*jet(e.phi.target, d.at.base), d))
            y = vertical_basis(geom, p)[0].components
            t = adapted_horizontal_lift(M, D, TangentVector(p, y), u, CFG)
            d = lift_differential_fd(geom, t, Pi_H, CFG) - lift_differential_formula(
                geom, "horizontal-of-V", y, u, S, B, split)
            worst = max(worst, mok_norm(*jet(e.phi.target, d.at.base), d))
            blk = np.zeros((M.dim, M.dim))
            if k >= 2:
                blk[0, 1], blk[1, 0] = -1.0, 1.0
            if M.dim - k >= 2:
                blk[k, k + 1], blk[k + 1, k] = -1.0, 1.0
            P0 = u.columns @ blk @ u.columns.T @ g
            t = fundamental_vertical(P0, u)
            d = lift_differential_fd(geom, t, Pi_H, CFG) - lift_differential_formula(
                geom, "vertical", P0, u, S, B, split)
            worst = max(worst, mok_norm(*jet(e.phi.target, d.at.base), d))
    ok = worst < 5e-4
    report(8, "lift differential lemma", ok, f"(residual {worst:.3g})")
    assert worst < 5e-4


def test_criterion_09_lift_distributions():
    kern = 0.0
    cross = 0.0
    dims_ok = True
    for e in entries():
        geom = derive_geometry(e.phi)
        M = e.phi.source
        n, k = M.dim, geom.rank
        for p in sample_points(M, SEED, 2):
            u = adapted_frame(M, geom.horizontal, p)
            Pi_H = geom.horizontal.projector(p)
            Vb, Hb = lift_distributions(geom, u, christoffel(M, p), Pi_H,
                                        S_at(M, geom.horizontal, p), CFG)
            dims_ok = dims_ok and (len(Vb), len(Hb)) == (
                (n - k) + (n - k) * (n - k - 1) // 2, k + k * (k - 1) // 2)
            for v in Vb:
                d = lift_differential_fd(geom, v, Pi_H, CFG, check_tangency=False)
                kern = max(kern, mok_norm(*jet(e.phi.target, d.at.base), d))
            for v in Vb:
                for h in Hb:
                    cross = max(cross, abs(mok_metric(*jet(M, p), v, h)))
    ok = kern < 5e-4 and cross < 1e-6 and dims_ok
    report(9, "lift kernel and orthogonal distributions", ok,
           f"(kernel {kern:.3g}, cross {cross:.3g}, dims {'exact' if dims_ok else 'WRONG'})")
    assert kern < 5e-4
    assert cross < 1e-6
    assert dims_ok


def _classification(eid):
    e = get(eid)
    geom = derive_geometry(e.phi)
    pts = sample_points(e.phi.source, SEED, 5)
    return e, classify(geom, pts, CFG)


def test_criterion_10_conformality_theorem():
    details = []
    failures = []
    for eid in ("E1", "E2", "E5"):
        e, rep = _classification(eid)
        lam_pi = rep.lift_lambda_vs_base_max
        details.append(f"{eid}: defect={rep.lift_defect_measured:.3g} "
                       f"std={rep.lift_lambda_std:.3g} |L-l|={lam_pi:.3g}")
        if not (rep.lift_defect_measured < 5e-3 and rep.lift_lambda_std < 1e-4
                and lam_pi < 1e-4 and rep.verdicts_agree):
            failures.append(eid)
    for eid in ("E3", "E4"):
        e, rep = _classification(eid)
        spread = float(np.max(rep.lift_lambda_samples) - np.min(rep.lift_lambda_samples))
        measured = max(rep.lift_defect_measured, spread)
        details.append(f"{eid}: defect={measured:.3g} agree={rep.verdicts_agree}")
        if not (measured > 0.01 and rep.verdicts_agree):
            failures.append(eid)
    ok = not failures
    report(10, "conformality theorem (two-sided)", ok, "; ".join(details))

    for eid in ("E1", "E2", "E5"):
        e, rep = _classification(eid)
        assert rep.lift_defect_measured < 5e-3, eid
        assert rep.lift_lambda_std < 1e-4, eid
        assert rep.lift_lambda_vs_base_max < 1e-4, eid
        assert rep.verdicts_agree, eid
    e, rep = _classification("E3")
    assert rep.lift_defect_measured > 0.01
    assert rep.verdicts_agree
    e, rep = _classification("E4")
    spread = float(np.max(rep.lift_lambda_samples) - np.min(rep.lift_lambda_samples))
    measured = max(rep.lift_defect_measured, spread)
    assert measured > 0.01, (
        "the warped example measures as lift-conformal: defect "
        f"{measured:.3g} with dilatation samples {rep.lift_lambda_samples}; "
        "the expected non-conformal verdict comes from a prediction rule "
        "that demands totally geodesic fibres, which the lift differential "
        "never contains (the same happens with a two-dimensional horizontal "
        "space); the catalog flag lift_conformal=False follows that rule"
    )
    assert rep.verdicts_agree, (
        "predicted (non-conformal) and measured (conformal) verdicts differ "
        "on the warped example: classify predicts from horizontal "
        "conformality, constant dilatation and total geodesy of the map, "
        "but the lift differential contains only the horizontal second "
        "fundamental form and the A tensor, never the fibres' second "
        "fundamental form; see the acceptance notes in the README"
    )


def test_criterion_11_harmonic_morphism_theorem():
    details = []
    e2, rep2 = _classification("E2")
    e5, rep5 = _classification("E5")
    e3, rep3 = _classification("E3")
    ok_hm = (rep2.lift_harmonic_morphism_predicted is True
             and rep5.lift_harmonic_morphism_predicted is True
             and rep3.harmonic_morphism is True
             and rep3.lift_conformal_measured is False)
    details.append(f"lift-hm(E2)={rep2.lift_harmonic_morphism_predicted} "
                   f"lift-hm(E5)={rep5.lift_harmonic_morphism_predicted} "
                   f"hm(E3)={rep3.harmonic_morphism} "
                   f"lift-conf(E3)={rep3.lift_conformal_measured}")

    # tension magnitudes
    e3 = get("E3")
    geom3 = derive_geometry(e3.phi)
    tau_hopf = 0.0
    for p in sample_points(e3.phi.source, SEED, 5):
        tau = tension_field(geom3, p, CFG)
        gN = metric_eval(e3.phi.target, e3.phi.value(p))
        tau_hopf = max(tau_hopf, float(np.sqrt(max(tau @ gN @ tau, 0.0))))
    details.append(f"|tau|(E3)={tau_hopf:.3g}")

    e4 = get("E4")
    geom4 = derive_geometry(e4.phi)
    p0 = np.array([0.0, 0.25])
    tau = tension_field(geom4, p0, CFG)
    gN = metric_eval(e4.phi.target, e4.phi.value(p0))
    tn = float(np.sqrt(max(tau @ gN @ tau, 0.0)))
    H = mean_curvature_fibers(geom4, adapted_frame(e4.phi.source, geom4.horizontal, p0),
                              christoffel(e4.phi.source, p0), geom4.horizontal.projector(p0), CFG)
    J = differential_matrix(e4.phi, p0)
    ph = J @ H.components
    hn = float(np.sqrt(max(ph @ gN @ ph, 0.0)))
    details.append(f"|tau|(E4)={tn:.6f} |push H|={hn:.6f}")

    # direct tension of the lift on the smallest example
    e1 = get("E1")
    geom1 = derive_geometry(e1.phi)
    res = lift_tension_direct(geom1, np.array([0.2, -0.3, 0.4]), CFG)
    details.append(f"lift tension(E1): ambient={res['ambient']:.6f} "
                   f"tangential={res['tangential']:.3g} normal={res['normal']:.6f}")

    # Over flat R^3 -> R^2, O(H) is flat R^3 times a circle: the SO(2)
    # rotation of the horizontal frame, with |E'|^2 = 2, so of radius
    # sqrt(2).  The lift (x, theta) -> ((x1, x2), R_theta) is a Riemannian
    # submersion onto R^2 x {R_theta}, a circle of radius sqrt(2) in the flat
    # 4-dimensional fibre of L(R^2).  Its tension is therefore that circle's
    # curvature vector: norm 1/sqrt(2), normal to the image, with
    # image-tangential part 0.  The theorem means harmonicity onto the image
    # (the lift-hm clauses above hold only on that reading).
    curvature_of_image = 1.0 / np.sqrt(2.0)
    ok_tension = (res["tangential"] < 1e-3
                  and abs(res["ambient"] - curvature_of_image) < 1e-3
                  and abs(res["normal"] - curvature_of_image) < 1e-3)

    ok = (ok_hm and tau_hopf < 5e-4 and abs(tn - 1.0) < 5e-3
          and abs(tn - hn) < 5e-3 and ok_tension)
    report(11, "harmonic morphism theorem", ok, "; ".join(details))

    assert ok_hm
    assert tau_hopf < 5e-4
    assert abs(tn - 1.0) < 5e-3
    assert abs(tn - hn) < 5e-3
    assert res["tangential"] < 1e-3
    assert abs(res["ambient"] - curvature_of_image) < 1e-3
    assert abs(res["normal"] - curvature_of_image) < 1e-3


def test_criterion_12_determinism():
    from framelift.reporting import reports_to_json
    from framelift.suites import run_suites

    e = get("E1")
    a = reports_to_json(CFG, 7, 5, run_suites(e, ["core", "lift"], CFG, 7, 5))
    b = reports_to_json(CFG, 7, 5, run_suites(e, ["core", "lift"], CFG, 7, 5))
    ok = strip_wall_times(a) == strip_wall_times(b)
    report(12, "determinism", ok)
    assert ok
