import numpy as np
import pytest
import scipy.linalg

from framelift.adapted import adapted_chart
from framelift.catalog import euclidean_chart, get, sphere_chart
from framelift.fields import g_skew_endo_field, polynomial_endo_field, polynomial_vector_field
from framelift.frames import (
    Frame,
    FrameTangent,
    LMChart,
    bracket_residual,
    connection_audit,
    connection_residual,
    frame_orthonormality_defect,
    fundamental_vertical,
    horizontal_lift_frame,
    induced_metric_on_chart,
    lc_connection_formula,
    mok_gram,
    mok_metric,
    mok_norm,
    om_chart,
    om_chart_decode,
    om_chart_encode,
    reference_frame,
    skew_basis,
    vertical_part,
)
from framelift.geometry import TangentVector, metric_eval, sample_points
from framelift.submersion import derive_geometry

R1 = euclidean_chart(1)
R2 = euclidean_chart(2)
S2 = sphere_chart(2)


def on_frame(M, p):
    return Frame(p, reference_frame(M, p))


class TestLiftsAndVerticals:
    def test_flat_horizontal_lift(self):
        p = np.array([0.3, 0.4])
        u = on_frame(R2, p)
        t = horizontal_lift_frame(R2, TangentVector(p, np.array([1.0, -2.0])), u)
        assert np.array_equal(t.base_rate, [1.0, -2.0])
        assert np.max(np.abs(t.frame_rate)) == 0.0

    def test_sphere_origin_horizontal_lift(self):
        u = on_frame(S2, np.zeros(2))
        t = horizontal_lift_frame(S2, TangentVector(np.zeros(2), np.array([0.5, 0.5])), u)
        assert np.max(np.abs(t.frame_rate)) < 1e-14

    def test_horizontal_lift_has_zero_vertical_part(self):
        p = np.array([0.4, -0.2])
        u = on_frame(S2, p)
        t = horizontal_lift_frame(S2, TangentVector(p, np.array([0.9, 0.1])), u)
        assert np.max(np.abs(vertical_part(S2, t))) < 1e-12

    def test_fundamental_vertical_zero(self):
        u = on_frame(R2, np.zeros(2))
        t = fundamental_vertical(np.zeros((2, 2)), u)
        assert np.max(np.abs(t.frame_rate)) == 0.0

    def test_fundamental_vertical_identity_scaling(self):
        u = on_frame(R2, np.zeros(2))
        t = fundamental_vertical(np.eye(2), u)
        assert np.allclose(t.frame_rate, u.columns)

    def test_fundamental_vertical_rotation(self):
        u = Frame(np.zeros(2), np.eye(2))
        J = np.array([[0.0, -1.0], [1.0, 0.0]])
        t = fundamental_vertical(J, u)
        assert np.allclose(t.frame_rate, J)

    def test_vertical_part_recovers_endomorphism(self):
        p = np.array([0.2, 0.6])
        u = on_frame(S2, p)
        P = np.array([[0.3, -1.2], [0.8, 0.1]])
        t = fundamental_vertical(P, u)
        assert np.max(np.abs(vertical_part(S2, t) - P)) < 1e-12

    def test_decomposition_exact(self):
        rng = np.random.default_rng(0)
        p = np.array([0.5, -0.3])
        u = on_frame(S2, p)
        t = FrameTangent(u, rng.standard_normal(2), rng.standard_normal((2, 2)))
        V = vertical_part(S2, t)
        rec = horizontal_lift_frame(S2, TangentVector(p, t.base_rate), u) + fundamental_vertical(V, u)
        assert np.max(np.abs(rec.frame_rate - t.frame_rate)) < 1e-13
        assert np.max(np.abs(rec.base_rate - t.base_rate)) == 0.0


class TestMokMetric:
    def test_horizontal_pair(self):
        rng = np.random.default_rng(1)
        p = np.array([0.2, -0.4])
        u = on_frame(S2, p)
        g = metric_eval(S2, p)
        x, y = rng.standard_normal((2, 2))
        tx = horizontal_lift_frame(S2, TangentVector(p, x), u)
        ty = horizontal_lift_frame(S2, TangentVector(p, y), u)
        assert abs(mok_metric(S2, tx, ty) - float(x @ g @ y)) < 1e-12

    def test_block_orthogonality(self):
        p = np.array([0.1, 0.3])
        u = on_frame(S2, p)
        th = horizontal_lift_frame(S2, TangentVector(p, np.array([1.0, 1.0])), u)
        tv = fundamental_vertical(np.array([[0.0, -1.0], [1.0, 0.0]]), u)
        assert abs(mok_metric(S2, th, tv)) < 1e-13

    def test_rotation_generator_norm(self):
        u = Frame(np.zeros(2), np.eye(2))
        J = np.array([[0.0, -1.0], [1.0, 0.0]])
        t = fundamental_vertical(J, u)
        assert abs(mok_metric(R2, t, t) - 2.0) < 1e-14

    def test_vertical_product_over_frame_columns(self):
        # at a non-orthonormal frame the sum runs over the frame vectors
        u = Frame(np.zeros(2), np.diag([2.0, 1.0]))
        P = np.array([[1.0, 0.0], [0.0, 0.0]])
        t = fundamental_vertical(P, u)
        # sum_i |P u_i|^2 = |2 e1|^2 = 4
        assert abs(mok_metric(R2, t, t) - 4.0) < 1e-14

    def test_positive_definite(self):
        rng = np.random.default_rng(2)
        p = np.array([0.3, 0.2])
        u = on_frame(S2, p)
        for _ in range(5):
            t = FrameTangent(u, rng.standard_normal(2), rng.standard_normal((2, 2)))
            assert mok_metric(S2, t, t) > 0


class TestOMChart:
    def test_zero_coordinates_give_reference(self):
        chart = om_chart(S2)
        p = np.array([0.2, 0.1])
        u = om_chart_decode(np.zeros(1), p, chart)
        assert np.max(np.abs(u.columns - reference_frame(S2, p))) < 1e-14

    def test_roundtrip(self):
        chart = om_chart(S2)
        rng = np.random.default_rng(3)
        p = np.array([0.4, -0.1])
        a = 0.5 * rng.standard_normal(1)
        u = om_chart_decode(a, p, chart)
        assert np.max(np.abs(om_chart_encode(u, chart) - a)) < 1e-10

    def test_two_dim_rotation_closed_form(self):
        chart = om_chart(R2)
        theta = 0.7
        u = om_chart_decode(np.array([theta]), np.zeros(2), chart)
        B = skew_basis(2)[0]
        assert np.max(np.abs(u.columns - scipy.linalg.expm(theta * B))) < 1e-12

    def test_decoded_frames_orthonormal(self):
        chart = om_chart(S2)
        rng = np.random.default_rng(4)
        for p in sample_points(S2, 5, 5):
            u = om_chart_decode(0.6 * rng.standard_normal(1), p, chart)
            assert frame_orthonormality_defect(S2, u) < 1e-12

    def test_encode_rejects_non_orthonormal(self):
        chart = om_chart(S2)
        with pytest.raises(ValueError):
            chart.encode(Frame(np.zeros(2), np.eye(2)))  # not orthonormal for g = 4I


class TestInducedMetric:
    def test_line_bundle_chart(self):
        chart = LMChart(R1)
        G = induced_metric_on_chart(chart, np.array([0.2, 1.0]))
        assert np.allclose(G, np.eye(2), atol=1e-12)

    def test_flat_om_chart(self):
        chart = om_chart(R2)
        G = induced_metric_on_chart(chart, np.array([0.1, -0.2, 0.0]))
        assert np.allclose(G, np.diag([1.0, 1.0, 2.0]), atol=1e-12)

    def test_block_structure_at_flat_points(self):
        chart = LMChart(R2)
        q = chart.join(np.array([0.3, 0.4]), np.eye(2))
        G = induced_metric_on_chart(chart, q)
        assert np.allclose(G[:2, 2:], 0.0, atol=1e-12)
        assert np.min(np.linalg.eigvalsh(G)) > 0


class TestBrackets:
    @pytest.mark.parametrize("case", ["hh", "hv", "vv"])
    def test_flat_residuals(self, case):
        rng = np.random.default_rng(5)
        X = polynomial_vector_field(2, rng)
        Y = polynomial_vector_field(2, rng)
        P = polynomial_endo_field(2, rng)
        Q = polynomial_endo_field(2, rng)
        inputs = {"hh": (X, Y), "hv": (X, Q), "vv": (P, Q)}[case]
        u = on_frame(R2, np.array([0.2, 0.3]))
        assert bracket_residual(R2, LMChart(R2), case, inputs, u) < 5e-4

    @pytest.mark.parametrize("case", ["hh", "hv", "vv"])
    def test_sphere_residuals(self, case):
        rng = np.random.default_rng(6)
        X = polynomial_vector_field(2, rng)
        Y = polynomial_vector_field(2, rng)
        P = polynomial_endo_field(2, rng)
        Q = polynomial_endo_field(2, rng)
        inputs = {"hh": (X, Y), "hv": (X, Q), "vv": (P, Q)}[case]
        for p in sample_points(S2, 7, 3):
            u = on_frame(S2, p)
            assert bracket_residual(S2, LMChart(S2), case, inputs, u) < 5e-4

    def test_hh_bracket_is_curvature_vertical(self):
        # coordinate fields commute, so the bracket of their lifts is the
        # pure vertical curvature term
        from framelift.geometry import coordinate_field
        from framelift.frames import fd_bracket_on_chart, horizontal_field_on_chart, curvature_endo

        p = np.array([0.3, -0.2])
        u = on_frame(S2, p)
        chart = LMChart(S2)
        A = horizontal_field_on_chart(chart, coordinate_field(0, 2))
        B = horizontal_field_on_chart(chart, coordinate_field(1, 2))
        fd = fd_bracket_on_chart(chart, A, B, chart.encode(u))
        R = curvature_endo(S2, p, np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        expect = fundamental_vertical(-R, u)
        assert mok_norm(S2, fd - expect) < 5e-4
        assert np.max(np.abs(fd.base_rate)) < 5e-4

    def test_vv_commuting(self):
        u = on_frame(R2, np.zeros(2))
        from framelift.geometry import EndomorphismField
        P = EndomorphismField(eval=lambda q: np.eye(2))
        Q = EndomorphismField(eval=lambda q: 2.0 * np.eye(2))
        assert bracket_residual(R2, LMChart(R2), "vv", (P, Q), u) < 1e-10

    def test_hv_literal_sign_fails(self):
        rng = np.random.default_rng(7)
        X = polynomial_vector_field(2, rng)
        Q = polynomial_endo_field(2, rng)
        u = on_frame(S2, np.array([0.2, 0.2]))
        assert bracket_residual(S2, LMChart(S2), "hv", (X, Q), u, variant="literal") > 0.01


class TestConnectionFormulas:
    def setup_method(self):
        rng = np.random.default_rng(8)
        self.X = polynomial_vector_field(2, rng)
        self.Y = polynomial_vector_field(2, rng)
        self.P = polynomial_endo_field(2, rng)
        self.Q = polynomial_endo_field(2, rng)

    def test_flat_hh_no_curvature_term(self):
        from framelift.geometry import covariant_derivative
        p = np.array([0.3, 0.1])
        u = on_frame(R2, p)
        out = lc_connection_formula(R2, "L", "hh", (self.X, self.Y), u)
        nab = covariant_derivative(R2, self.X, self.Y, p)
        expect = horizontal_lift_frame(R2, nab, u)
        assert mok_norm(R2, out - expect) < 1e-12

    def test_om_vv_antisymmetric_vanishes_for_equal_fields(self):
        # -1/2 [P, P]* = 0
        chartM = sphere_chart(2)
        p = np.array([0.2, -0.3])
        u = on_frame(chartM, p)
        rng = np.random.default_rng(9)
        P = g_skew_endo_field(chartM, rng)
        out = lc_connection_formula(chartM, "O", "vv", (P, P), u)
        assert mok_norm(chartM, out) < 1e-12

    def test_lm_vv_matches_oracle_flat(self):
        u = on_frame(R2, np.array([0.1, 0.4]))
        res = connection_residual(R2, LMChart(R2), "L", "vv", (self.P, self.Q), u)
        assert res < 5e-4

    @pytest.mark.parametrize("case", ["hh", "hv", "vh", "vv"])
    def test_all_cases_match_oracle_on_sphere(self, case):
        p = np.array([0.25, -0.15])
        u = on_frame(S2, p)
        inputs = {"hh": (self.X, self.Y), "hv": (self.X, self.Q),
                  "vh": (self.P, self.Y), "vv": (self.P, self.Q)}[case]
        assert connection_residual(S2, LMChart(S2), "L", case, inputs, u) < 5e-4

    def test_audit_table_shape(self):
        u = on_frame(S2, np.array([0.2, 0.2]))
        rows = connection_audit(S2, "L", u, dict(X=self.X, Y=self.Y, P=self.P, Q=self.Q))
        cases = {(r["case"], r["variant"]) for r in rows}
        assert ("hh", "resolved") in cases
        assert ("hv", "literal") in cases
        assert all(r["residual"] < 5e-4 for r in rows if r["variant"] == "resolved")


class TestRightInvariance:
    def test_mok_invariant_under_right_rotation(self):
        rng = np.random.default_rng(10)
        p = np.array([0.3, 0.3])
        u = on_frame(S2, p)
        g = metric_eval(S2, p)
        K = rng.standard_normal((2, 2))
        skew = np.linalg.solve(g, 0.5 * (K - K.T))
        s = horizontal_lift_frame(S2, TangentVector(p, np.array([1.0, -0.5])), u) + \
            fundamental_vertical(skew, u)
        theta = 0.9
        Q = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        uk = Frame(p, u.columns @ Q)
        sk = FrameTangent(uk, s.base_rate, s.frame_rate @ Q)
        assert abs(mok_metric(S2, s, s) - mok_metric(S2, sk, sk)) < 1e-12


def bundle_chart_point(example, bundle):
    """A bundle chart over the source of a catalog example and a point off the identity frame."""
    phi = get(example).phi
    M = phi.source
    rng = np.random.default_rng(11)
    x = sample_points(M, 12, 1)[0]
    if bundle == "L":
        chart = LMChart(M)
        E = reference_frame(M, x) @ (np.eye(M.dim) + 0.3 * rng.standard_normal((M.dim, M.dim)))
        return chart, chart.join(x, E)
    chart = om_chart(M) if bundle == "O" else adapted_chart(M, derive_geometry(phi).horizontal)
    return chart, chart.join(x, 0.4 * rng.standard_normal(len(chart.basis)))


EXAMPLE_BUNDLES = [(e, b) for e in ("E1", "E2", "E3", "E4", "E5") for b in ("L", "O", "D")]


class TestOnePassAssembly:
    @pytest.mark.parametrize("example,bundle", EXAMPLE_BUNDLES)
    def test_induced_metric_matches_pairwise_mok_metric(self, example, bundle):
        chart, q = bundle_chart_point(example, bundle)
        G = induced_metric_on_chart(chart, q)
        m = chart.dim
        tangents = [chart.chart_to_tangent(q, e) for e in np.eye(m)]
        ref = np.zeros((m, m))
        for i in range(m):
            for j in range(i, m):
                ref[i, j] = ref[j, i] = mok_metric(chart.manifold, tangents[i], tangents[j])
        assert np.max(np.abs(G - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("example,bundle", EXAMPLE_BUNDLES)
    def test_tangent_rows_match_central_differences_of_decode(self, example, bundle):
        chart, q = bundle_chart_point(example, bundle)
        h = 1e-6
        for k, t in enumerate(chart.chart_to_tangents(q, np.eye(chart.dim))):
            dq = np.zeros(chart.dim)
            dq[k] = h
            up, down = chart.decode(q + dq), chart.decode(q - dq)
            assert np.max(np.abs(t.base_rate - (up.base - down.base) / (2 * h))) < 1e-7
            assert np.max(np.abs(t.frame_rate - (up.columns - down.columns) / (2 * h))) < 1e-7

    @pytest.mark.parametrize("bundle", ["L", "O", "D"])
    def test_tangent_rows_share_the_decoded_frame(self, bundle):
        chart, q = bundle_chart_point("E3", bundle)
        tangents = chart.chart_to_tangents(q, np.eye(chart.dim))
        u = chart.decode(q)
        assert all(t.at is tangents[0].at for t in tangents)
        assert np.array_equal(tangents[0].at.base, u.base)
        assert np.array_equal(tangents[0].at.columns, u.columns)

    def test_gram_rejects_tangents_at_different_frames(self):
        p = np.array([0.2, 0.1])
        u = on_frame(S2, p)
        v = Frame(p, u.columns @ np.diag([1.0, -1.0]))
        s = fundamental_vertical(np.eye(2), u)
        t = fundamental_vertical(np.eye(2), v)
        assert mok_gram(S2, [s, s]).shape == (2, 2)
        with pytest.raises(ValueError):
            mok_gram(S2, [s, t])
