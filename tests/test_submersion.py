import numpy as np
import pytest

import framelift.adapted as adapted_module
import framelift.frames as frames_module
import framelift.submersion as submersion_module
from framelift.adapted import W_endo, W_inverse_apply, adapted_frame, adapted_horizontal_lift
from framelift.catalog import euclidean_chart, get
from framelift.fields import polynomial_vector_field
from framelift.frames import Frame, fundamental_vertical, mok_metric, mok_norm, skew_basis
import framelift.geometry as geometry_module
from framelift.geometry import (
    TangentVector,
    VectorField,
    constant_field,
    metric_eval,
    sample_points,
)
from framelift.submersion import (
    A_identity_residual,
    A_identity_residuals,
    A_Y_endo,
    A_Y_endos,
    Pi_X_endo,
    Pi_X_endo_alt,
    SubmersionSpec,
    adapted_endo_field,
    classify,
    derive_geometry,
    differential,
    differential_matrix,
    dilatation,
    div_bot,
    fiber_second_fundamental_defect,
    horizontal_basis,
    lift_conformality_measurement,
    lift_differential_fd,
    lift_differential_formula,
    lift_distributions,
    lift_map,
    lift_tension_direct,
    mean_curvature_fibers,
    pullback_connection,
    pushforward_endo,
    second_fundamental_form,
    splitting_projectors,
    tension_conformal_display,
    tension_field,
    vertical_basis,
)

E = {eid: get(eid) for eid in ("E1", "E2", "E3", "E4", "E5")}
GEOM = {eid: derive_geometry(e.phi) for eid, e in E.items()}


def entry_point(eid, seed=21, idx=0):
    return sample_points(E[eid].phi.source, seed, idx + 1)[idx]


class TestDifferential:
    def test_identity_map(self):
        R2 = euclidean_chart(2)
        ident = SubmersionSpec(source=R2, target=R2, map=lambda p: p.copy())
        X = TangentVector(np.array([0.1, 0.2]), np.array([1.0, -1.0]))
        out = differential(ident, X)
        assert np.allclose(out.components, X.components, atol=1e-9)

    def test_scaling(self):
        X = TangentVector(np.array([0.1, 0.2, 0.3]), np.array([1.0, 2.0, 3.0]))
        out = differential(E["E5"].phi, X)
        assert np.allclose(out.components, [2.0, 4.0])

    def test_fd_vs_exact_jacobian_hopf(self):
        from framelift.geometry import central_diff
        phi = E["E3"].phi
        for p in sample_points(phi.source, 22, 5):
            fd = central_diff(phi.map, p, 1e-5).T
            assert np.max(np.abs(fd - phi.jacobian(p))) < 1e-6


class TestSplitting:
    def test_flat_projection_vertical(self):
        p = np.array([0.2, 0.1, -0.4])
        Pi_V, Pi_H = splitting_projectors(E["E1"].phi, p)
        expect = np.zeros((3, 3))
        expect[2, 2] = 1.0
        assert np.allclose(Pi_V, expect)

    def test_complementary(self):
        for eid in E:
            p = entry_point(eid)
            Pi_V, Pi_H = splitting_projectors(E[eid].phi, p)
            assert np.max(np.abs(Pi_H @ Pi_V)) < 1e-12
            assert np.max(np.abs(Pi_V + Pi_H - np.eye(E[eid].phi.source.dim))) < 1e-12
            J = differential_matrix(E[eid].phi, p)
            assert np.max(np.abs(J @ Pi_V)) < 1e-12

    def test_hopf_fiber_dimension(self):
        p = entry_point("E3")
        Pi_V, _ = splitting_projectors(E["E3"].phi, p)
        assert abs(np.trace(Pi_V) - 1.0) < 1e-12

    def test_hopf_vertical_field_in_kernel(self):
        phi = E["E3"].phi
        for p in sample_points(phi.source, 23, 5):
            v = phi.vertical_fields[0].eval(p)
            assert np.max(np.abs(differential_matrix(phi, p) @ v)) < 1e-9


class TestDilatation:
    def test_values(self):
        for eid, expect in (("E1", 1.0), ("E2", 1.0), ("E3", 1.0), ("E4", 1.0), ("E5", 4.0)):
            for p in sample_points(E[eid].phi.source, 24, 4):
                lam, defect = dilatation(E[eid].phi, p, geom=GEOM[eid])
                assert abs(lam - expect) < 1e-8
                assert defect < 1e-8

    def test_composition_law(self):
        # the homothety-projection factors as a flat projection followed by a
        # plane scaling; dilatations multiply along the composition
        R3 = euclidean_chart(3)
        R2a = euclidean_chart(2)
        R2b = euclidean_chart(2, half_width=3.5)
        proj = SubmersionSpec(source=R3, target=R2a, map=lambda p: p[:2].copy(),
                              jacobian=lambda p: np.array([[1.0, 0.0, 0.0],
                                                           [0.0, 1.0, 0.0]]),
                              vertical_fields=[constant_field(np.array([0.0, 0.0, 1.0]))])
        scale = SubmersionSpec(source=R2a, target=R2b, map=lambda p: 2.0 * p,
                               jacobian=lambda p: 2.0 * np.eye(2),
                               vertical_fields=[])
        p = np.array([0.2, -0.4, 0.6])
        lam_proj, _ = dilatation(proj, p)
        lam_scale, _ = dilatation(scale, p[:2])
        lam_comp, _ = dilatation(E["E5"].phi, p, geom=GEOM["E5"])
        assert abs(lam_comp - lam_proj * lam_scale) < 1e-6


class TestPullbackConnection:
    def test_flat_target_is_directional_derivative(self):
        phi = E["E1"].phi
        p = np.array([0.3, -0.2, 0.5])
        W = lambda q: np.array([q[0] ** 2, q[1] * q[2]])
        X = TangentVector(p, np.array([1.0, 0.0, 2.0]))
        out = pullback_connection(phi, X, W)
        expect = np.array([2.0 * p[0] * 1.0, p[2] * 0.0 + p[1] * 2.0])
        assert np.max(np.abs(out - expect)) < 1e-8

    def test_product_rule(self):
        phi = E["E3"].phi
        rng = np.random.default_rng(25)
        p = entry_point("E3")
        W = lambda q: np.array([np.sin(q[0]), q[1] * q[2]])
        f = lambda q: 1.0 + 0.5 * q[0] - 0.2 * q[1]
        df = np.array([0.5, -0.2, 0.0])
        x = rng.standard_normal(3)
        X = TangentVector(p, x)
        lhs = pullback_connection(phi, X, lambda q: f(q) * W(q))
        rhs = float(df @ x) * W(p) + f(p) * pullback_connection(phi, X, W)
        assert np.max(np.abs(lhs - rhs)) < 1e-6


class TestSecondFundamentalForm:
    def test_flat_projection_zero(self):
        rng = np.random.default_rng(26)
        p = np.array([0.2, 0.0, -0.3])
        for _ in range(4):
            x, y = rng.standard_normal((2, 3))
            out = second_fundamental_form(E["E1"].phi, TangentVector(p, x), TangentVector(p, y))
            assert np.max(np.abs(out)) < 1e-10

    def test_symmetric(self):
        rng = np.random.default_rng(27)
        for eid in ("E3", "E4"):
            p = entry_point(eid)
            n = E[eid].phi.source.dim
            x, y = rng.standard_normal((2, n))
            a = second_fundamental_form(E[eid].phi, TangentVector(p, x), TangentVector(p, y))
            b = second_fundamental_form(E[eid].phi, TangentVector(p, y), TangentVector(p, x))
            assert np.max(np.abs(a - b)) < 5e-4

    def test_warped_mixed_is_large(self):
        p = np.array([0.0, 0.3])
        u = adapted_frame(E["E4"].phi.source, GEOM["E4"].horizontal, p)
        e_s = u.columns[:, 1]
        out = second_fundamental_form(E["E4"].phi, TangentVector(p, e_s), TangentVector(p, e_s))
        assert np.linalg.norm(out) > 0.1

    def test_hopf_basic_horizontal_zero(self):
        p = entry_point("E3")
        hb = horizontal_basis(GEOM["E3"], p)
        gN = metric_eval(E["E3"].phi.target, E["E3"].phi.value(p))
        for X in hb:
            for Y in hb:
                out = second_fundamental_form(E["E3"].phi, X, Y)
                assert float(np.sqrt(out @ gN @ out)) < 5e-4


class TestAEndomorphism:
    def test_flat_and_product_zero(self):
        for eid in ("E1", "E2"):
            p = entry_point(eid)
            Y = vertical_basis(GEOM[eid], p)[0]
            assert np.max(np.abs(A_Y_endo(GEOM[eid], Y))) < 1e-8

    def test_identity_with_corrected_sign(self):
        for eid in ("E2", "E3", "E4"):
            p = entry_point(eid)
            for X in horizontal_basis(GEOM[eid], p):
                for Y in vertical_basis(GEOM[eid], p):
                    assert A_identity_residual(GEOM[eid], X, Y)["asserted"] < 5e-4

    def test_printed_sign_fails_on_hopf(self):
        p = entry_point("E3")
        X = horizontal_basis(GEOM["E3"], p)[0]
        Y = vertical_basis(GEOM["E3"], p)[0]
        assert A_identity_residual(GEOM["E3"], X, Y)["printed"] > 0.1

    def test_rejects_horizontal_argument(self):
        p = entry_point("E3")
        X = horizontal_basis(GEOM["E3"], p)[0]
        with pytest.raises(ValueError):
            A_Y_endo(GEOM["E3"], X)


class TestPiXEndo:
    def test_totally_geodesic_zero(self):
        rng = np.random.default_rng(28)
        for eid in ("E1", "E2", "E5"):
            p = entry_point(eid)
            X = TangentVector(p, rng.standard_normal(3))
            assert np.max(np.abs(Pi_X_endo(GEOM[eid], X))) < 1e-7

    def test_displays_agree(self):
        rng = np.random.default_rng(29)
        for eid in ("E3", "E4"):
            p = entry_point(eid)
            n = E[eid].phi.source.dim
            X = TangentVector(p, rng.standard_normal(n))
            a = Pi_X_endo(GEOM[eid], X)
            b = Pi_X_endo_alt(GEOM[eid], X)
            assert np.max(np.abs(a - b)) < 5e-4

    def test_linearity(self):
        p = entry_point("E3")
        x, y = np.random.default_rng(30).standard_normal((2, 3))
        a = Pi_X_endo(GEOM["E3"], TangentVector(p, x))
        b = Pi_X_endo(GEOM["E3"], TangentVector(p, y))
        c = Pi_X_endo(GEOM["E3"], TangentVector(p, 2.0 * x - 0.5 * y))
        assert np.max(np.abs(c - (2.0 * a - 0.5 * b))) < 1e-6


class TestPushforward:
    def test_identity(self):
        p = entry_point("E3")
        _, Pi_H = splitting_projectors(E["E3"].phi, p)
        out = pushforward_endo(GEOM["E3"], p, Pi_H)
        assert np.max(np.abs(out - np.eye(2))) < 1e-10

    def test_diagonal_scaling_commutes(self):
        p = np.array([0.1, 0.2, 0.3])
        P0 = np.diag([0.5, 2.0, 0.0])
        out = pushforward_endo(GEOM["E5"], p, P0)
        assert np.allclose(out, np.diag([0.5, 2.0]), atol=1e-12)

    def test_multiplicative(self):
        rng = np.random.default_rng(31)
        p = entry_point("E3")
        _, Pi_H = splitting_projectors(E["E3"].phi, p)
        P0 = Pi_H @ rng.standard_normal((3, 3)) @ Pi_H
        Q0 = Pi_H @ rng.standard_normal((3, 3)) @ Pi_H
        lhs = pushforward_endo(GEOM["E3"], p, P0 @ Q0)
        rhs = pushforward_endo(GEOM["E3"], p, P0) @ pushforward_endo(GEOM["E3"], p, Q0)
        assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_rejects_vertical_component(self):
        p = entry_point("E3")
        with pytest.raises(ValueError):
            pushforward_endo(GEOM["E3"], p, np.eye(3))


class TestDivergenceDuality:
    def test_constant_flat(self):
        geom = GEOM["E1"]
        p = np.array([0.2, -0.2, 0.4])
        C = adapted_endo_field(geom, top=np.array([[0.0, -1.0], [1.0, 0.0]]))
        assert np.max(np.abs(div_bot(geom, C.eval, p))) < 1e-8

    def test_product_constant_blocks(self):
        geom = GEOM["E2"]
        p = entry_point("E2")
        C = adapted_endo_field(geom, top=np.array([[0.3, -1.0], [1.0, 0.2]]))
        assert np.max(np.abs(div_bot(geom, C.eval, p))) < 1e-7

    @pytest.mark.parametrize("eid", ["E1", "E2", "E3", "E4", "E5"])
    def test_duality(self, eid):
        from framelift.geometry import endo_inner
        geom = GEOM[eid]
        phi = E[eid].phi
        M = phi.source
        rng = np.random.default_rng(32)
        k = geom.rank
        for p in sample_points(M, 33, 2):
            u = adapted_frame(M, geom.horizontal, p)
            onb = [TangentVector(p, u.columns[:, i]) for i in range(M.dim)]
            g = metric_eval(M, p)
            for _ in range(5):
                C = adapted_endo_field(geom, top=rng.standard_normal((k, k)))
                d = div_bot(geom, C.eval, p)
                X = vertical_basis(geom, p)[0]
                A = A_Y_endo(geom, X)
                val = endo_inner(M, p, A, C.eval(p), onb)
                assert abs(val + float(X.components @ g @ d)) < 5e-4


class TestLiftMap:
    def test_flat_identity_frame(self):
        p = np.array([0.1, 0.2, 0.3])
        u = adapted_frame(E["E1"].phi.source, GEOM["E1"].horizontal, p)
        v = lift_map(GEOM["E1"], u)
        assert np.allclose(v.columns, np.eye(2))
        assert np.allclose(v.base, [0.1, 0.2])

    def test_scaling_frame(self):
        p = np.array([0.1, 0.2, 0.3])
        u = adapted_frame(E["E5"].phi.source, GEOM["E5"].horizontal, p)
        v = lift_map(GEOM["E5"], u)
        assert np.allclose(v.columns, 2.0 * np.eye(2))

    def test_hopf_image_orthonormal(self):
        for p in sample_points(E["E3"].phi.source, 34, 3):
            u = adapted_frame(E["E3"].phi.source, GEOM["E3"].horizontal, p)
            v = lift_map(GEOM["E3"], u)
            gN = metric_eval(E["E3"].phi.target, v.base)
            assert np.max(np.abs(v.columns.T @ gN @ v.columns - np.eye(2))) < 1e-6

    def test_rejects_unadapted(self):
        p = np.array([0.1, 0.2, 0.3])
        with pytest.raises(ValueError):
            lift_map(GEOM["E3"], Frame(p, np.eye(3)))


class TestLiftDifferential:
    @pytest.mark.parametrize("eid", ["E2", "E3", "E4"])
    def test_three_cases_vs_fd(self, eid):
        geom = GEOM[eid]
        phi = E[eid].phi
        M, D = phi.source, geom.horizontal
        rng = np.random.default_rng(35)
        k = geom.rank
        for p in sample_points(M, 36, 3):
            u = adapted_frame(M, D, p)
            g = metric_eval(M, p)
            x = sum(c * e.components for c, e in
                    zip(rng.standard_normal(k), horizontal_basis(geom, p)))
            t = adapted_horizontal_lift(M, D, TangentVector(p, x), u)
            d = lift_differential_fd(geom, t) - lift_differential_formula(
                geom, "horizontal-of-H", x, u)
            assert mok_norm(phi.target, d) < 5e-4
            y = vertical_basis(geom, p)[0].components
            t = adapted_horizontal_lift(M, D, TangentVector(p, y), u)
            d = lift_differential_fd(geom, t) - lift_differential_formula(
                geom, "horizontal-of-V", y, u)
            assert mok_norm(phi.target, d) < 5e-4
            blk = np.zeros((M.dim, M.dim))
            if k >= 2:
                blk[0, 1], blk[1, 0] = -1.0, 1.0
            P0 = u.columns @ blk @ u.columns.T @ g
            t = fundamental_vertical(P0, u)
            d = lift_differential_fd(geom, t) - lift_differential_formula(
                geom, "vertical", P0, u)
            assert mok_norm(phi.target, d) < 5e-4

    def test_totally_geodesic_pure_horizontal(self):
        geom = GEOM["E1"]
        p = np.array([0.4, -0.1, 0.2])
        u = adapted_frame(E["E1"].phi.source, geom.horizontal, p)
        x = np.array([1.0, 1.0, 0.0])
        out = lift_differential_formula(geom, "horizontal-of-H", x, u)
        assert np.max(np.abs(out.frame_rate)) < 1e-10
        assert np.allclose(out.base_rate, [1.0, 1.0])

    def test_product_vertical_input_killed(self):
        geom = GEOM["E2"]
        p = entry_point("E2")
        u = adapted_frame(E["E2"].phi.source, geom.horizontal, p)
        y = vertical_basis(geom, p)[0].components
        out = lift_differential_formula(geom, "horizontal-of-V", y, u)
        assert mok_norm(E["E2"].phi.target, out) < 1e-8

    def test_fd_rejects_non_tangent(self):
        geom = GEOM["E3"]
        p = entry_point("E3")
        u = adapted_frame(E["E3"].phi.source, geom.horizontal, p)
        from framelift.frames import FrameTangent
        bad = FrameTangent(u, np.zeros(3), np.eye(3))  # scaling: not tangent to O(D)
        with pytest.raises(ValueError):
            lift_differential_fd(geom, bad)


class TestLiftDistributions:
    @pytest.mark.parametrize("eid", ["E1", "E2", "E3", "E4", "E5"])
    def test_kernel_orthogonality_dimensions(self, eid):
        geom = GEOM[eid]
        phi = E[eid].phi
        M = phi.source
        n, k = M.dim, geom.rank
        for p in sample_points(M, 37, 2):
            u = adapted_frame(M, geom.horizontal, p)
            Vb, Hb = lift_distributions(geom, u)
            assert (len(Vb), len(Hb)) == (
                (n - k) + (n - k) * (n - k - 1) // 2, k + k * (k - 1) // 2)
            for v in Vb:
                assert mok_norm(phi.target,
                                lift_differential_fd(geom, v, check_tangency=False)) < 5e-4
            for v in Vb:
                for h in Hb:
                    assert abs(mok_metric(M, v, h)) < 1e-6


class TestTension:
    def test_identity_map_zero(self):
        R2 = euclidean_chart(2)
        ident = SubmersionSpec(source=R2, target=R2, map=lambda p: p.copy(),
                               vertical_fields=[])
        p = np.array([0.3, 0.1])
        assert np.max(np.abs(tension_field(ident, p))) < 1e-8

    def test_hopf_harmonic(self):
        phi = E["E3"].phi
        gN = lambda y: metric_eval(phi.target, y)
        for p in sample_points(phi.source, 38, 3):
            tau = tension_field(phi, p, geom=GEOM["E3"])
            g = gN(phi.value(p))
            assert float(np.sqrt(tau @ g @ tau)) < 5e-4

    def test_warped_norm_one(self):
        phi = E["E4"].phi
        p = np.array([0.0, 0.4])
        tau = tension_field(phi, p, geom=GEOM["E4"])
        gN = metric_eval(phi.target, phi.value(p))
        assert abs(float(np.sqrt(tau @ gN @ tau)) - 1.0) < 5e-3

    def test_warped_equals_pushed_mean_curvature(self):
        phi = E["E4"].phi
        p = np.array([0.2, -0.3])
        tau = tension_field(phi, p, geom=GEOM["E4"])
        H = mean_curvature_fibers(GEOM["E4"], p)
        J = differential_matrix(phi, p)
        assert np.max(np.abs(tau + J @ H.components)) < 5e-4

    def test_displays_agree_on_constant_dilatation(self):
        for eid in ("E2", "E3", "E4", "E5"):
            p = entry_point(eid)
            tau = tension_field(E[eid].phi, p, geom=GEOM[eid])
            tau2 = tension_conformal_display(GEOM[eid], p)
            assert np.max(np.abs(tau - tau2)) < 5e-4

    def test_basis_independent(self):
        # same value from a rotated orthonormal frame: tensoriality of the trace
        phi = E["E3"].phi
        p = entry_point("E3")
        tau = tension_field(phi, p, geom=GEOM["E3"])
        # second evaluation at a fresh derive (different internal sampling order)
        tau2 = tension_field(phi, p, geom=derive_geometry(phi))
        assert np.max(np.abs(tau - tau2)) < 5e-4


class TestMeanCurvature:
    def test_totally_geodesic_fibers_zero(self):
        for eid in ("E1", "E2", "E5"):
            p = entry_point(eid)
            H = mean_curvature_fibers(GEOM[eid], p)
            assert np.max(np.abs(H.components)) < 1e-7

    def test_hopf_minimal_fibers(self):
        p = entry_point("E3")
        H = mean_curvature_fibers(GEOM["E3"], p)
        g = metric_eval(E["E3"].phi.source, p)
        assert float(np.sqrt(H.components @ g @ H.components)) < 5e-4

    def test_warped_unit_norm(self):
        p = np.array([0.0, 0.2])
        H = mean_curvature_fibers(GEOM["E4"], p)
        g = metric_eval(E["E4"].phi.source, p)
        assert abs(float(np.sqrt(H.components @ g @ H.components)) - 1.0) < 1e-6
        # direction: minus the horizontal coordinate vector
        assert H.components[0] < 0


class TestConformalityMeasurement:
    def test_conformal_entries(self):
        for eid, expect in (("E1", 1.0), ("E2", 1.0), ("E5", 4.0)):
            p = entry_point(eid)
            u = adapted_frame(E[eid].phi.source, GEOM[eid].horizontal, p)
            Lam, defect = lift_conformality_measurement(GEOM[eid], u)
            assert abs(Lam - expect) < 1e-6
            assert defect < 1e-6

    def test_hopf_nonconformal(self):
        p = entry_point("E3")
        u = adapted_frame(E["E3"].phi.source, GEOM["E3"].horizontal, p)
        Lam, defect = lift_conformality_measurement(GEOM["E3"], u)
        assert defect > 0.01

    def test_warped_measures_conformal(self):
        # the one-dimensional orthogonal space cannot detect the failure of
        # total geodesy: the measured lift dilatation is identically one
        p = entry_point("E4")
        u = adapted_frame(E["E4"].phi.source, GEOM["E4"].horizontal, p)
        Lam, defect = lift_conformality_measurement(GEOM["E4"], u)
        assert abs(Lam - 1.0) < 1e-9
        assert defect < 1e-9


class TestClassify:
    @pytest.mark.parametrize("eid", ["E1", "E2", "E3", "E5"])
    def test_flags_match_catalog(self, eid):
        e = E[eid]
        pts = sample_points(e.phi.source, 39, 3)
        rep = classify(e.phi, pts, geom=GEOM[eid])
        assert rep.horizontally_conformal is True
        assert rep.dilatation_constant is True
        assert rep.totally_geodesic is e.totally_geodesic
        assert rep.fibers_totally_geodesic is e.fibers_totally_geodesic
        assert rep.h_integrable is e.h_integrable
        assert rep.harmonic_morphism is e.harmonic_morphism
        assert rep.lift_conformal_predicted is e.lift_conformal
        assert rep.lift_conformal_measured is e.lift_conformal
        assert rep.verdicts_agree is True

    def test_warped_theorem_counterexample(self):
        # predicted non-conformal (not totally geodesic) yet measured conformal
        e = E["E4"]
        pts = sample_points(e.phi.source, 39, 3)
        rep = classify(e.phi, pts, geom=GEOM["E4"])
        assert rep.lift_conformal_predicted is False
        assert rep.lift_conformal_measured is True
        assert rep.verdicts_agree is False

    @pytest.mark.parametrize("name, defect, flag", [
        ("dilatation", "conformal_defect", "horizontally_conformal"),
        ("fiber_second_fundamental_defect", "fibers_defect", "fibers_totally_geodesic"),
        ("lift_conformality_measurement", "lift_defect_measured", "lift_conformal_measured"),
    ])
    def test_nan_at_a_later_point_is_inconclusive(self, monkeypatch, name, defect, flag):
        e = E["E1"]
        pts = sample_points(e.phi.source, 39, 3)
        real = getattr(submersion_module, name)

        def nan_at_second_point(*args, **kwargs):
            out = real(*args, **kwargs)
            p = args[1].base if isinstance(args[1], Frame) else args[1]
            if not np.array_equal(p, pts[1]):
                return out
            return (out[0], np.nan) if isinstance(out, tuple) else np.nan

        monkeypatch.setattr(submersion_module, name, nan_at_second_point)
        rep = classify(e.phi, pts, geom=GEOM["E1"])
        assert np.isnan(getattr(rep, defect))
        assert getattr(rep, flag) is None

    def test_nan_dilatation_leaves_the_constancy_and_predictions_open(self, monkeypatch):
        e = E["E1"]
        pts = sample_points(e.phi.source, 39, 3)
        real = submersion_module.dilatation

        def nan_lambda_at_second_point(phi, p, *args, **kwargs):
            lam, defect = real(phi, p, *args, **kwargs)
            return (np.nan if np.array_equal(p, pts[1]) else lam), defect

        monkeypatch.setattr(submersion_module, "dilatation", nan_lambda_at_second_point)
        rep = classify(e.phi, pts, geom=GEOM["E1"])
        assert np.isnan(rep.dilatation_std)
        assert rep.dilatation_constant is None
        assert rep.lift_conformal_predicted is None
        assert rep.lift_harmonic_morphism_predicted is None


class TestLiftTensionDirect:
    def test_flat_projection_values(self):
        res = lift_tension_direct(GEOM["E1"], np.array([0.2, -0.3, 0.4]))
        # tangentially harmonic; the ambient tension is the curvature of the
        # rotation-group image circle, of norm 1/sqrt(2)
        assert res["tangential"] < 1e-6
        assert abs(res["ambient"] - 1.0 / np.sqrt(2.0)) < 1e-4
        assert abs(res["normal"] - res["ambient"]) < 1e-6


# A submersion with a two-dimensional kernel, so that per-column costs show:
# (x, y, z) -> x + 0.3 y^2 on flat R^3.  Its fibers bend in y, so A != 0.
LINE = SubmersionSpec(
    source=euclidean_chart(3), target=euclidean_chart(1),
    map=lambda p: np.array([p[0] + 0.3 * p[1] ** 2]),
    jacobian=lambda p: np.array([[1.0, 0.6 * p[1], 0.0]]),
    vertical_fields=[VectorField(eval=lambda p: np.array([-0.6 * p[1], 1.0, 0.0])),
                     constant_field(np.array([0.0, 0.0, 1.0]))],
    name="line",
)
GEOM_LINE = derive_geometry(LINE)


def rows_jacobian(rows):
    return SubmersionSpec(source=euclidean_chart(3), target=euclidean_chart(2),
                          map=lambda p: np.array(rows) @ p,
                          jacobian=lambda p: np.array(rows, dtype=float))


class TestSplittingRankCheck:
    """The rank check reads Cholesky pivots of J g^-1 J^T, not a second SVD."""

    @pytest.mark.parametrize("rows", [
        [[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]],      # exactly deficient
        [[1.0, 0.0, 0.0], [1.0, 1e-9, 0.0]],     # singular-value ratio of JA ~1e-18
    ])
    def test_rank_deficient_differential_raises(self, rows):
        with pytest.raises(ValueError, match="rank deficient"):
            splitting_projectors(rows_jacobian(rows), np.array([0.1, 0.2, 0.3]))

    def test_catalog_points_pass_without_matrix_rank(self, monkeypatch):
        def no_matrix_rank(*args, **kwargs):
            raise AssertionError("matrix_rank called")

        monkeypatch.setattr(np.linalg, "matrix_rank", no_matrix_rank)
        for eid, e in E.items():
            for p in sample_points(e.phi.source, 17, 4):
                Pi_V, Pi_H = splitting_projectors(e.phi, p)
                assert np.max(np.abs(Pi_V + Pi_H - np.eye(p.size))) < 1e-12
        with pytest.raises(ValueError, match="rank deficient"):
            splitting_projectors(rows_jacobian([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]]),
                                 np.zeros(3))


class TestSeedFrame:
    def test_without_vertical_fields_the_kernel_is_projected(self):
        # the last n-k coordinate directions, projected onto the kernel
        phi = SubmersionSpec(source=euclidean_chart(3), target=euclidean_chart(2),
                             map=lambda p: p[:2].copy(), jacobian=lambda p: np.eye(2, 3))
        p = np.array([0.1, 0.2, 0.3])
        E = adapted_frame(phi.source, derive_geometry(phi).horizontal, p).columns
        assert np.array_equal(E, np.eye(3))


def count_calls(monkeypatch, name, *modules):
    """Tally the calls of ``name`` made through any of ``modules``."""
    tally = []
    for module in modules:
        def counting(*args, real=getattr(module, name), **kwargs):
            tally.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
    return tally


class TestPerPointCosts:
    """One adapted frame stencil per direction, one Christoffel, one S per point."""

    def christoffel_calls(self, monkeypatch):
        return count_calls(monkeypatch, "christoffel", geometry_module, adapted_module,
                           submersion_module)

    @pytest.mark.parametrize("fn", [fiber_second_fundamental_defect, mean_curvature_fibers])
    @pytest.mark.parametrize("geom", [GEOM["E3"], GEOM_LINE], ids=["E3", "line"])
    def test_fiber_operators_take_one_frame_stencil_per_vertical_direction(
            self, monkeypatch, fn, geom):
        M = geom.phi.source
        p = sample_points(M, 18, 1)[0]
        frames = count_calls(monkeypatch, "adapted_frame", submersion_module)
        christoffels = self.christoffel_calls(monkeypatch)
        fn(geom, p)
        assert len(frames) == 1 + 2 * (M.dim - geom.rank)
        assert len(christoffels) == 1

    def test_div_bot_evaluates_christoffel_once(self, monkeypatch):
        geom = GEOM["E3"]
        p = sample_points(geom.phi.source, 19, 1)[0]
        C_field = adapted_endo_field(geom, top=np.array([[0.0, 1.0], [-1.0, 0.0]]))
        christoffels = self.christoffel_calls(monkeypatch)
        div_bot(geom, C_field.eval, p)
        assert len(christoffels) == 1  # one per horizontal direction before

    @pytest.mark.parametrize("geom", [GEOM["E3"], GEOM_LINE], ids=["E3", "line"])
    def test_lift_distributions_assembles_S_once(self, monkeypatch, geom):
        M = geom.phi.source
        p = sample_points(M, 20, 1)[0]
        u = adapted_frame(M, geom.horizontal, p)
        calls = count_calls(monkeypatch, "S_components", submersion_module)
        lift_distributions(geom, u)
        assert len(calls) == 1

    def test_lift_distributions_checks_membership_once_and_batches_S(self, monkeypatch):
        # E3 (n = 3, k = 2) lifts 1 vertical, 2 horizontal and 1 divergence
        # direction: one Christoffel per horizontal part, one for the S batch,
        # and one each in W, A and div
        geom = GEOM["E3"]
        M = geom.phi.source
        u = adapted_frame(M, geom.horizontal, sample_points(M, 20, 1)[0])
        christoffels = count_calls(monkeypatch, "christoffel", geometry_module, frames_module,
                                   adapted_module, submersion_module)
        memberships = count_calls(monkeypatch, "od_membership_defect", adapted_module)
        lift_distributions(geom, u)
        assert len(christoffels) == 4 + 1 + 3
        assert len(memberships) == 1

    @pytest.mark.parametrize("eid", ["E1", "E2", "E3", "E4", "E5"])
    def test_lift_distributions_equal_the_per_vector_lifts(self, eid):
        # one S batch at u gives bit for bit what a lift per vector gives
        geom = GEOM[eid]
        M, D = geom.phi.source, geom.horizontal
        p = sample_points(M, 24, 1)[0]
        u = adapted_frame(M, D, p)
        n, k = M.dim, geom.rank
        Ep = u.columns
        Wm = W_endo(M, D, p, [TangentVector(p, e) for e in Ep.T])
        lift = lambda x: adapted_horizontal_lift(M, D, TangentVector(p, x), u)
        Vb, Hb = lift_distributions(geom, u)
        expect_V = [lift(Ep[:, k + j]) + fundamental_vertical(A, u)
                    for j, A in enumerate(A_Y_endos(geom, Ep[:, k:].T, p))]
        expect_H = [lift(W_inverse_apply(Wm, Ep[:, a])) for a in range(k)]
        for c in skew_basis(k):
            C = adapted_endo_field(geom, top=c)
            expect_H.append(lift(W_inverse_apply(Wm, div_bot(geom, C.eval, p)))
                            + fundamental_vertical(C.eval(p), u))
        assert len(Hb) == len(expect_H)
        for got, want in zip(Vb[:n - k] + Hb, expect_V + expect_H):
            assert np.array_equal(got.base_rate, want.base_rate)
            assert np.array_equal(got.frame_rate, want.frame_rate)

    @pytest.mark.parametrize("geom", [*GEOM.values(), GEOM_LINE],
                             ids=[*GEOM, "line"])
    def test_batched_A_equals_the_one_case(self, geom):
        M = geom.phi.source
        rng = np.random.default_rng(21)
        for p in sample_points(M, 21, 2):
            Pi_V, _ = splitting_projectors(geom.phi, p)
            ys = [Pi_V @ v for v in rng.standard_normal((3, M.dim))]
            batch = A_Y_endos(geom, ys, p)
            for y, A in zip(ys, batch):
                assert np.array_equal(A, A_Y_endo(geom, TangentVector(p, y)))
        if geom is GEOM_LINE:
            assert np.max(np.abs(batch[0])) > 1e-3  # the fibers bend, so A != 0

    def test_batched_A_identity_equals_the_one_pair_calls(self):
        geom = GEOM_LINE
        p = sample_points(geom.phi.source, 22, 1)[0]
        E = adapted_frame(geom.phi.source, geom.horizontal, p).columns
        batch = A_identity_residuals(geom, E[:, :1].T, E[:, 1:].T, p)
        one = [A_identity_residual(geom, TangentVector(p, E[:, 0]), TangentVector(p, E[:, j]))
               for j in (1, 2)]
        assert batch == one
        assert max(r["asserted"] for r in batch) < 5e-4

    def test_rejects_a_horizontal_argument_in_a_batch(self):
        geom = GEOM["E3"]
        p = sample_points(geom.phi.source, 23, 1)[0]
        E = adapted_frame(geom.phi.source, geom.horizontal, p).columns
        with pytest.raises(ValueError, match="vertical"):
            A_Y_endos(geom, [E[:, 2], E[:, 0]], p)
