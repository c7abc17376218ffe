import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framelift.catalog import euclidean_chart, get, sphere_chart
from framelift.fields import polynomial_vector_field
import framelift.frames as frames_module
from framelift.frames import Frame, fundamental_vertical, horizontal_lift_frame, mok_metric, reference_frame
from framelift.geometry import (
    TangentVector,
    VectorField,
    covariant_derivative,
    directional_diff,
    metric_eval,
    sample_points,
)
from framelift.submersion import derive_geometry
from framelift.tangent import (
    TMPoint,
    TMTangent,
    connection_map_K,
    phi_second_differential_fd,
    phi_second_differential_formula,
    pi_i_differential,
    pi_i_differential_fd,
    sasaki_mok_tm,
    tm_distributions,
    tm_horizontal_lift,
    tm_split,
    tm_vertical_lift,
)

R2 = euclidean_chart(2)
S2 = sphere_chart(2)


class TestLifts:
    def test_vertical_lift_components(self):
        p = np.array([0.1, 0.2])
        Z = TMPoint(p, np.array([0.5, -0.5]))
        v = tm_vertical_lift(TangentVector(p, np.array([1.0, 0.0])), Z)
        assert np.array_equal(v.base_rate, [0.0, 0.0])
        assert np.array_equal(v.fiber_rate, [1.0, 0.0])

    def test_zero_vector(self):
        p = np.zeros(2)
        Z = TMPoint(p, np.array([1.0, 1.0]))
        v = tm_vertical_lift(TangentVector(p, np.zeros(2)), Z)
        assert np.max(np.abs(v.fiber_rate)) == 0.0

    def test_base_mismatch(self):
        Z = TMPoint(np.zeros(2), np.ones(2))
        with pytest.raises(ValueError):
            tm_vertical_lift(TangentVector(np.ones(2), np.ones(2)), Z)

    def test_horizontal_flat(self):
        p = np.array([0.3, 0.3])
        Z = TMPoint(p, np.array([0.0, 1.0]))
        h = tm_horizontal_lift(R2, TangentVector(p, np.array([1.0, 0.0])), Z)
        assert np.array_equal(h.base_rate, [1.0, 0.0])
        assert np.max(np.abs(h.fiber_rate)) == 0.0

    def test_horizontal_sphere_origin(self):
        Z = TMPoint(np.zeros(2), np.array([0.7, 0.1]))
        h = tm_horizontal_lift(S2, TangentVector(np.zeros(2), np.array([0.2, 0.9])), Z)
        assert np.max(np.abs(h.fiber_rate)) < 1e-14

    def test_K_annihilates_horizontal(self):
        p = np.array([0.4, -0.2])
        Z = TMPoint(p, np.array([0.3, 0.8]))
        h = tm_horizontal_lift(S2, TangentVector(p, np.array([1.0, -1.0])), Z)
        assert np.max(np.abs(connection_map_K(S2, h).components)) < 1e-14

    def test_K_recovers_vertical(self):
        p = np.array([0.4, -0.2])
        Z = TMPoint(p, np.array([0.3, 0.8]))
        x = np.array([0.6, 0.5])
        v = tm_vertical_lift(TangentVector(p, x), Z)
        assert np.allclose(connection_map_K(S2, v).components, x)

    def test_K_flat_is_fiber_rate(self):
        Z = TMPoint(np.zeros(2), np.ones(2))
        t = TMTangent(Z, np.array([1.0, 2.0]), np.array([3.0, 4.0]))
        assert np.allclose(connection_map_K(R2, t).components, [3.0, 4.0])

    def test_K_of_field_differential(self):
        # K applied to the differential of a section recovers its derivative
        rng = np.random.default_rng(7)
        Zf = polynomial_vector_field(2, rng, exact_jacobian=False)
        for p in sample_points(S2, 3, 10):
            x = rng.standard_normal(2)
            zr = directional_diff(Zf.eval, p, x, 1e-5)
            t = TMTangent(TMPoint(p, Zf.eval(p)), x, zr)
            got = connection_map_K(S2, t).components
            expect = covariant_derivative(S2, VectorField(eval=lambda q: x), Zf, p).components
            assert np.max(np.abs(got - expect)) < 1e-7

    def test_splitting_exact(self):
        p = np.array([0.2, 0.5])
        Z = TMPoint(p, np.array([-0.4, 0.9]))
        t = TMTangent(Z, np.array([1.2, -0.7]), np.array([0.3, 0.8]))
        h, v = tm_split(S2, t)
        rec = h + v
        assert np.max(np.abs(rec.base_rate - t.base_rate)) == 0.0
        assert np.max(np.abs(rec.fiber_rate - t.fiber_rate)) < 1e-15


class TestSasakiMok:
    def test_horizontal_pair_flat(self):
        p = np.zeros(2)
        Z = TMPoint(p, np.array([1.0, 0.0]))
        h1 = tm_horizontal_lift(R2, TangentVector(p, np.array([1.0, 0.0])), Z)
        h2 = tm_horizontal_lift(R2, TangentVector(p, np.array([0.0, 1.0])), Z)
        assert sasaki_mok_tm(R2, h1, h2) == 0.0

    def test_mixed_pair_zero(self):
        p = np.array([0.3, -0.3])
        Z = TMPoint(p, np.array([0.2, 0.2]))
        h = tm_horizontal_lift(S2, TangentVector(p, np.array([1.0, 2.0])), Z)
        v = tm_vertical_lift(TangentVector(p, np.array([-1.0, 1.0])), Z)
        assert abs(sasaki_mok_tm(S2, h, v)) < 1e-14

    def test_vertical_norm(self):
        p = np.array([0.1, 0.1])
        Z = TMPoint(p, np.zeros(2))
        x = np.array([0.7, -0.2])
        v = tm_vertical_lift(TangentVector(p, x), Z)
        g = metric_eval(S2, p)
        assert abs(sasaki_mok_tm(S2, v, v) - float(x @ g @ x)) < 1e-14


class TestSecondDifferential:
    def test_identity_map(self):
        from framelift.submersion import SubmersionSpec
        ident = SubmersionSpec(source=R2, target=R2, map=lambda p: p.copy(),
                               jacobian=lambda p: np.eye(2))
        Z = TMPoint(np.array([0.2, 0.3]), np.array([0.5, -0.5]))
        t = TMTangent(Z, np.array([1.0, 2.0]), np.array([3.0, 4.0]))
        out = phi_second_differential_fd(ident, t)
        assert np.allclose(out.base_rate, t.base_rate, atol=1e-9)
        assert np.allclose(out.fiber_rate, t.fiber_rate, atol=1e-9)

    def test_linear_projection(self):
        e1 = get("E1")
        Z = TMPoint(np.array([0.1, 0.2, 0.3]), np.array([1.0, -1.0, 2.0]))
        t = TMTangent(Z, np.array([0.5, 0.6, 0.7]), np.array([-0.1, 0.2, -0.3]))
        out = phi_second_differential_fd(e1.phi, t)
        assert np.allclose(out.base_rate, [0.5, 0.6], atol=1e-10)
        assert np.allclose(out.fiber_rate, [-0.1, 0.2], atol=1e-10)

    def test_vertical_case_fiber_rate(self):
        e3 = get("E3")
        rng = np.random.default_rng(8)
        p = sample_points(e3.phi.source, 5, 1)[0]
        Z = TMPoint(p, rng.standard_normal(3))
        x = rng.standard_normal(3)
        out = phi_second_differential_formula(e3.phi, "vertical", TangentVector(p, x), Z)
        from framelift.submersion import differential_matrix
        J = differential_matrix(e3.phi, p)
        assert np.allclose(out.fiber_rate, J @ x)
        assert np.max(np.abs(out.base_rate)) == 0.0

    @pytest.mark.parametrize("eid", ["E1", "E2", "E3", "E4", "E5"])
    @pytest.mark.parametrize("kind", ["vertical", "horizontal"])
    def test_formula_vs_fd(self, eid, kind):
        e = get(eid)
        rng = np.random.default_rng(9)
        for p in sample_points(e.phi.source, 6, 4):
            Z = TMPoint(p, 0.6 * rng.standard_normal(e.phi.source.dim))
            X = TangentVector(p, rng.standard_normal(e.phi.source.dim))
            t = (tm_vertical_lift(X, Z) if kind == "vertical"
                 else tm_horizontal_lift(e.phi.source, X, Z))
            fd = phi_second_differential_fd(e.phi, t)
            fm = phi_second_differential_formula(e.phi, kind, X, Z)
            d = fd - fm
            assert max(np.max(np.abs(d.base_rate)), np.max(np.abs(d.fiber_rate))) < 5e-4

    def test_warped_mixed_term_nonzero(self):
        # horizontal input with a vertical fiber point picks up the
        # second-fundamental-form correction on the warped example
        e4 = get("E4")
        p = np.array([0.0, 0.3])
        Z = TMPoint(p, np.array([0.0, 1.0]))
        X = TangentVector(p, np.array([0.0, 1.0]))
        out = phi_second_differential_formula(e4.phi, "horizontal", X, Z)
        assert np.max(np.abs(out.fiber_rate)) > 0.5


class TestSasakiGram:
    @settings(derandomize=True, deadline=None, database=None, max_examples=60)
    @given(st.sampled_from(["E1", "E2", "E3", "E4", "E5"]), st.integers(0, 2**32 - 1))
    def test_one_column_lift_gram_is_pairwise_sasaki_mok(self, eid, seed):
        # the Mok lift Gram on frames of the single column Z is the Sasaki-Mok metric
        M = get(eid).phi.source
        rng = np.random.default_rng(seed)
        Z = TMPoint(sample_points(M, seed % 1000, 1)[0], rng.standard_normal(M.dim))
        X, F = rng.standard_normal((2, 4, M.dim))
        G = frames_module._lift_gram(M, Z.base, Z.fiber[:, None], X, F[:, :, None])
        ts = [TMTangent(Z, x, f) for x, f in zip(X, F)]
        pairwise = np.array([[sasaki_mok_tm(M, s, t) for t in ts] for s in ts])
        assert np.max(np.abs(G - pairwise)) < 1e-12 * max(1.0, np.max(np.abs(pairwise)))


class TestDistributions:
    @pytest.mark.parametrize("eid", ["E1", "E2", "E3", "E4", "E5"])
    def test_kernel_and_dims(self, eid):
        e = get(eid)
        geom = derive_geometry(e.phi)
        rng = np.random.default_rng(10)
        n, k = e.phi.source.dim, e.phi.target.dim
        for p in sample_points(e.phi.source, 7, 2):
            Z = TMPoint(p, 0.5 * rng.standard_normal(n))
            Vb, Hb = tm_distributions(e.phi, Z, geom=geom)
            assert (len(Vb), len(Hb)) == (2 * (n - k), 2 * k)
            for v in Vb:
                img = phi_second_differential_fd(e.phi, v)
                assert max(np.max(np.abs(img.base_rate)), np.max(np.abs(img.fiber_rate))) < 5e-4
            for v in Vb:
                for h in Hb:
                    assert abs(sasaki_mok_tm(e.phi.source, v, h)) < 1e-6

    def test_flat_projection_kernel_structure(self):
        # kernel of the flat projection: vertical and horizontal lifts of e3
        e1 = get("E1")
        Z = TMPoint(np.array([0.1, 0.2, 0.3]), np.array([0.4, 0.5, 0.6]))
        Vb, _ = tm_distributions(e1.phi, Z)
        mats = [np.concatenate([v.base_rate, v.fiber_rate]) for v in Vb]
        expect_a = np.concatenate([np.zeros(3), [0, 0, 1.0]])
        expect_b = np.concatenate([[0, 0, 1.0], np.zeros(3)])
        span = np.column_stack(mats)
        for target in (expect_a, expect_b):
            coef, res, *_ = np.linalg.lstsq(span, target, rcond=None)
            assert np.max(np.abs(span @ coef - target)) < 1e-10


class TestFrameProjections:
    def test_lemma_matches_fd(self):
        rng = np.random.default_rng(11)
        p = np.array([0.25, -0.1])
        u = Frame(p, reference_frame(S2, p))
        for i in range(2):
            x = rng.standard_normal(2)
            P = rng.standard_normal((2, 2))
            t = horizontal_lift_frame(S2, TangentVector(p, x), u) + fundamental_vertical(P, u)
            lemma = pi_i_differential(S2, t, i)
            fd = pi_i_differential_fd(S2, t, i)
            d = lemma - fd
            assert max(np.max(np.abs(d.base_rate)), np.max(np.abs(d.fiber_rate))) < 1e-8

    def test_riemannian_submersion_property(self):
        # isometric on horizontal lifts, kills the complementary verticals
        p = np.array([0.2, 0.2])
        u = Frame(p, reference_frame(S2, p))
        x = np.array([0.8, -0.3])
        th = horizontal_lift_frame(S2, TangentVector(p, x), u)
        for i in range(2):
            img = pi_i_differential(S2, th, i)
            assert abs(mok_metric(S2, th, th) - sasaki_mok_tm(S2, img, img)) < 1e-12
        # an endomorphism killing column 0 generates a vertical direction in
        # the kernel of the first column projection
        g = metric_eval(S2, p)
        dual1 = g @ u.columns[:, 1]  # covector with <dual1, u_i> = delta_1i
        P = np.outer(u.columns[:, 1], dual1)  # u0 -> 0, u1 -> u1
        tv = fundamental_vertical(P, u)
        img = pi_i_differential(S2, tv, 0)
        assert np.max(np.abs(img.fiber_rate)) < 1e-12
        assert np.max(np.abs(img.base_rate)) < 1e-12
        # while pi^1 sees it
        assert np.max(np.abs(pi_i_differential(S2, tv, 1).fiber_rate)) > 0.1
