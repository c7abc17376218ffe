import functools

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import framelift.frames as frames_module
from framelift.adapted import (
    adapted_chart,
    adapted_connection_audit,
    adapted_frame,
    adapted_horizontal_field_on_chart,
    adapted_horizontal_lift,
)
from framelift.catalog import euclidean_chart, get, sphere_chart
from framelift.fields import g_skew_endo_field, polynomial_endo_field, polynomial_vector_field
from framelift.frames import (
    Frame,
    FrameTangent,
    LMChart,
    bracket_residual,
    connection_audit,
    connection_residual,
    FrameChart,
    fundamental_vertical,
    horizontal_field_on_chart,
    horizontal_lift_frame,
    induced_metric_on_chart,
    lc_connection_formula,
    lc_total_space_oracle,
    mok_gram,
    mok_metric,
    mok_norm,
    block_skew_basis,
    offdiag_skew_basis,
    om_chart,
    reference_frame,
    skew_basis,
    vertical_field_on_chart,
    vertical_part,
)
from framelift.geometry import TangentVector, metric_eval, sample_points
from framelift.submersion import adapted_endo_field, derive_geometry

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
        u = chart.decode(chart.join(p, np.zeros(1)))
        assert np.max(np.abs(u.columns - reference_frame(S2, p))) < 1e-14

    def test_roundtrip(self):
        chart = om_chart(S2)
        rng = np.random.default_rng(3)
        p = np.array([0.4, -0.1])
        a = 0.5 * rng.standard_normal(1)
        u = chart.decode(chart.join(p, a))
        _, a2 = chart.split(chart.encode(u))
        assert np.max(np.abs(a2 - a)) < 1e-10

    def test_two_dim_rotation_closed_form(self):
        chart = om_chart(R2)
        theta = 0.7
        u = chart.decode(chart.join(np.zeros(2), np.array([theta])))
        B = skew_basis(2)[0]
        assert np.max(np.abs(u.columns - scipy.linalg.expm(theta * B))) < 1e-12

    def test_decoded_frames_orthonormal(self):
        chart = om_chart(S2)
        rng = np.random.default_rng(4)
        for p in sample_points(S2, 5, 5):
            u = chart.decode(chart.join(p, 0.6 * rng.standard_normal(1)))
            g = metric_eval(S2, u.base)
            assert np.max(np.abs(u.columns.T @ g @ u.columns - np.eye(2))) < 1e-12

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
        assert bracket_residual(R2, LMChart(R2), case, inputs, u)["resolved"] < 5e-4

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
            assert bracket_residual(S2, LMChart(S2), case, inputs, u)["resolved"] < 5e-4

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
        assert bracket_residual(R2, LMChart(R2), "vv", (P, Q), u)["resolved"] < 1e-10

    def test_hv_literal_sign_fails(self):
        rng = np.random.default_rng(7)
        X = polynomial_vector_field(2, rng)
        Q = polynomial_endo_field(2, rng)
        u = on_frame(S2, np.array([0.2, 0.2]))
        res = bracket_residual(S2, LMChart(S2), "hv", (X, Q), u)
        assert res["literal"] > 0.01
        assert res["resolved"] < 5e-4


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
        out = lc_connection_formula(R2, "L", "hh", (self.X, self.Y), u)["resolved"]
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
        out = lc_connection_formula(chartM, "O", "vv", (P, P), u)["resolved"]
        assert mok_norm(chartM, out) < 1e-12

    def test_lm_vv_matches_oracle_flat(self):
        u = on_frame(R2, np.array([0.1, 0.4]))
        res = connection_residual(R2, LMChart(R2), "L", "vv", (self.P, self.Q), u)
        assert res["resolved"] < 5e-4

    @pytest.mark.parametrize("case", ["hh", "hv", "vh", "vv"])
    def test_all_cases_match_oracle_on_sphere(self, case):
        p = np.array([0.25, -0.15])
        u = on_frame(S2, p)
        inputs = {"hh": (self.X, self.Y), "hv": (self.X, self.Q),
                  "vh": (self.P, self.Y), "vv": (self.P, self.Q)}[case]
        assert connection_residual(S2, LMChart(S2), "L", case, inputs, u)["resolved"] < 5e-4

    def test_audit_table_shape(self):
        u = on_frame(S2, np.array([0.2, 0.2]))
        rows = connection_audit(S2, "L", u, dict(X=self.X, Y=self.Y, P=self.P, Q=self.Q))
        cases = {(r["case"], r["reading"]) for r in rows}
        assert ("hh", "resolved") in cases
        assert ("hv", "literal") in cases
        assert all(r["residual"] < 5e-4 for r in rows if r["reading"] == "resolved")


class TestOneEvaluationPerCase:
    """Every reading of a case is judged against one finite-difference evaluation."""

    def count(self, monkeypatch, name):
        tally = []
        real = getattr(frames_module, name)

        def counting(*args, **kwargs):
            tally.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(frames_module, name, counting)
        return tally

    @pytest.mark.parametrize("bundle", ["L", "O"])
    def test_connection_audit_runs_the_oracle_once_per_case(self, monkeypatch, bundle):
        rng = np.random.default_rng(19)
        X = polynomial_vector_field(2, rng)
        Y = polynomial_vector_field(2, rng)
        if bundle == "L":
            P, Q = polynomial_endo_field(2, rng), polynomial_endo_field(2, rng)
        else:
            P, Q = g_skew_endo_field(S2, rng), g_skew_endo_field(S2, rng)
        calls = self.count(monkeypatch, "lc_total_space_oracle")
        rows = connection_audit(S2, bundle, on_frame(S2, np.array([0.2, -0.1])),
                                dict(X=X, Y=Y, P=P, Q=Q))
        assert len(calls) == 1  # one oracle call serves all four cases
        readings = {}
        for r in rows:
            readings.setdefault(r["case"], []).append(r["reading"])
        assert readings == {"hh": ["resolved"], "hv": ["resolved", "literal"],
                            "vh": ["resolved", "literal"], "vv": ["resolved"]}
        assert all(r["asserted"] == (r["reading"] == "resolved") for r in rows)

    @pytest.mark.parametrize("bundle", ["L(M)", "O(M)", "O(D)"])
    def test_batched_oracle_equals_one_pair_calls(self, bundle):
        e = get("E3")
        M = e.phi.source
        p = sample_points(M, 42, 1)[0]
        if bundle == "L(M)":
            chart, u = LMChart(M), on_frame(M, p)
        elif bundle == "O(M)":
            chart, u = om_chart(M), on_frame(M, p)
        else:
            D = derive_geometry(e.phi).horizontal
            chart, u = adapted_chart(M, D), adapted_frame(M, D, p)
        q = chart.encode(u)
        rng = np.random.default_rng(23)
        pairs = [tuple(polynomial_vector_field(chart.dim, rng, exact_jacobian=False).eval
                       for _ in range(2)) for _ in range(4)]
        batched = lc_total_space_oracle(chart, pairs, q)
        assert len(batched) == 4
        for pair, t in zip(pairs, batched):
            [one] = lc_total_space_oracle(chart, [pair], q)
            assert np.array_equal(t.base_rate, one.base_rate)
            assert np.array_equal(t.frame_rate, one.frame_rate)

    def test_each_field_is_evaluated_once_at_the_centre(self):
        e = get("E3")
        M = e.phi.source
        chart = om_chart(M)
        q = chart.encode(on_frame(M, sample_points(M, 42, 1)[0]))
        rng = np.random.default_rng(24)
        centre_calls = {}

        def counted(name):
            f = polynomial_vector_field(chart.dim, rng, exact_jacobian=False).eval

            def field(x):
                if np.array_equal(x, q):
                    centre_calls[name] = centre_calls.get(name, 0) + 1
                return f(x)

            return field

        hX, hY, vP, vQ = (counted(name) for name in ("hX", "hY", "vP", "vQ"))
        lc_total_space_oracle(chart, [(hX, hY), (hX, vQ), (vP, hY), (vP, vQ)], q)
        assert centre_calls == {"hX": 1, "hY": 1, "vP": 1, "vQ": 1}

    def test_bracket_readings_share_one_fd_bracket(self, monkeypatch):
        rng = np.random.default_rng(20)
        X = polynomial_vector_field(2, rng)
        Q = polynomial_endo_field(2, rng)
        calls = self.count(monkeypatch, "fd_bracket_on_chart")
        res = bracket_residual(S2, LMChart(S2), "hv", (X, Q), on_frame(S2, np.array([0.1, 0.3])))
        assert len(calls) == 1
        assert set(res) == {"resolved", "literal"}


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


class TestChartConversions:
    """Both conversions read one chart Jacobian J(q) and invert each other."""

    @pytest.mark.parametrize("example,bundle", EXAMPLE_BUNDLES)
    def test_tangent_to_chart_inverts_chart_to_tangents(self, example, bundle):
        chart, q = bundle_chart_point(example, bundle)
        Q = np.random.default_rng(31).standard_normal((4, chart.dim))
        for rates, t in zip(Q, chart.chart_to_tangents(q, Q)):
            assert np.max(np.abs(chart.tangent_to_chart(q, t) - rates)) < 1e-10

    @pytest.mark.parametrize("example", ["E1", "E2", "E3", "E4", "E5"])
    def test_rejects_a_symmetric_frame_rate_on_om(self, example):
        chart, q = bundle_chart_point(example, "O")
        u = chart.decode(q)
        S = np.random.default_rng(32).standard_normal((chart.manifold.dim,) * 2)
        t = FrameTangent(u, np.zeros(u.base.size), u.columns @ (S + S.T))
        with pytest.raises(ValueError, match="not tangent"):
            chart.tangent_to_chart(q, t)

    @pytest.mark.parametrize("example,bundle", EXAMPLE_BUNDLES)
    def test_rejects_a_tangent_at_another_frame(self, example, bundle):
        chart, q = bundle_chart_point(example, bundle)
        n = chart.manifold.dim
        rates = np.random.default_rng(33).standard_normal(chart.dim)
        moved_base, moved_frame = q.copy(), q.copy()
        moved_base[:n] += 0.01
        moved_frame[n:] += 0.01
        # E4's O(D) chart has no fibre coordinate to move
        for other in [moved_base] + ([moved_frame] if chart.dim > n else []):
            with pytest.raises(ValueError, match="different frames"):
                chart.tangent_to_chart(q, chart.chart_to_tangent(other, rates))


class TestNoReencoding:
    """The chart fields convert at their own q; only an audit's entry frame is encoded."""

    def count(self, monkeypatch, owner, name):
        tally = []
        real = getattr(owner, name)

        def counting(*args, **kwargs):
            tally.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)
        return tally

    def test_chart_fields_call_neither_encode_nor_logm(self, monkeypatch):
        rng = np.random.default_rng(34)
        om, q_om = bundle_chart_point("E3", "O")
        od, q_od = bundle_chart_point("E3", "D")
        M = om.manifold
        D = derive_geometry(get("E3").phi).horizontal
        fields = [
            (horizontal_field_on_chart(om, polynomial_vector_field(M.dim, rng)), q_om),
            (vertical_field_on_chart(om, g_skew_endo_field(M, rng)), q_om),
            (adapted_horizontal_field_on_chart(od, M, D, polynomial_vector_field(M.dim, rng)),
             q_od),
        ]
        encodes = self.count(monkeypatch, FrameChart, "encode")
        logms = self.count(monkeypatch, frames_module.scipy.linalg, "logm")
        log_rotations = self.count(monkeypatch, frames_module, "_log_rotation")
        for field, q in fields:
            assert field(q).shape == q.shape
        assert encodes == [] and logms == [] and log_rotations == []

    def test_chart_fields_decode_once_through_the_jacobian(self, monkeypatch):
        # each evaluation builds its tangent at the frame jacobian(q) returns,
        # which is the frame decode(q) gives: the rates are unchanged
        rng = np.random.default_rng(37)
        om, q_om = bundle_chart_point("E3", "O")
        od, q_od = bundle_chart_point("E3", "D")
        M = om.manifold
        D = derive_geometry(get("E3").phi).horizontal
        X, P = polynomial_vector_field(M.dim, rng), g_skew_endo_field(M, rng)
        cases = [
            (horizontal_field_on_chart(om, X), om, q_om,
             lambda u: horizontal_lift_frame(M, TangentVector(u.base, X.eval(u.base)), u)),
            (vertical_field_on_chart(om, P), om, q_om,
             lambda u: fundamental_vertical(P.eval(u.base), u)),
            (adapted_horizontal_field_on_chart(od, M, D, X), od, q_od,
             lambda u: adapted_horizontal_lift(M, D, TangentVector(u.base, X.eval(u.base)), u)),
        ]
        expected = [chart.tangent_to_chart(q, lift(chart.decode(q)))
                    for _, chart, q, lift in cases]
        jacobians = self.count(monkeypatch, FrameChart, "jacobian")
        decodes = self.count(monkeypatch, FrameChart, "decode")
        for (field, _, q, _), rates in zip(cases, expected):
            jacobians.clear()
            assert np.array_equal(field(q), rates)
            assert len(jacobians) == 1 and decodes == []

    def test_connection_audit_encodes_once(self, monkeypatch):
        rng = np.random.default_rng(35)
        fields = dict(X=polynomial_vector_field(2, rng), Y=polynomial_vector_field(2, rng),
                      P=g_skew_endo_field(S2, rng), Q=g_skew_endo_field(S2, rng))
        encodes = self.count(monkeypatch, FrameChart, "encode")
        connection_audit(S2, "O", on_frame(S2, np.array([0.2, -0.1])), fields)
        assert len(encodes) == 1

    def test_adapted_connection_audit_encodes_once(self, monkeypatch):
        geom = derive_geometry(get("E3").phi)
        M, D = geom.phi.source, geom.horizontal
        rng = np.random.default_rng(36)
        J = np.array([[0.0, -1.0], [1.0, 0.0]])
        fields = dict(X=polynomial_vector_field(3, rng), Y=polynomial_vector_field(3, rng),
                      P=adapted_endo_field(geom, top=0.8 * J),
                      Q=adapted_endo_field(geom, top=-1.3 * J))
        encodes = self.count(monkeypatch, FrameChart, "encode")
        adapted_connection_audit(M, D, adapted_frame(M, D, sample_points(M, 46, 1)[0]), fields)
        assert len(encodes) == 1


@functools.cache
def skew_chart(example, bundle):
    phi = get(example).phi
    if bundle == "O":
        return om_chart(phi.source)
    return adapted_chart(phi.source, derive_geometry(phi).horizontal)


@st.composite
def skew_chart_points(draw):
    """An O(M) or O(D) chart of E1-E5 and a point (x, a) on it with |a| < 1."""
    chart = skew_chart(draw(st.sampled_from(["E1", "E2", "E3", "E4", "E5"])),
                       draw(st.sampled_from(["O", "D"])))
    x = sample_points(chart.manifold, draw(st.integers(0, 10**6)), 1)[0]
    a = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=len(chart.basis),
                               max_size=len(chart.basis))))
    return chart, chart.join(x, 0.99 * a / max(1.0, float(np.linalg.norm(a))))


class TestChartJacobianProperties:
    @settings(derandomize=True, deadline=None, database=None, max_examples=60)
    @given(skew_chart_points())
    def test_jacobian_rows_are_central_differences_of_decode(self, chart_point):
        chart, q = chart_point
        u, Jx, JE = chart.jacobian(q)
        assert np.array_equal(u.columns, chart.decode(q).columns)
        h = 1e-6
        for k in range(chart.dim):
            dq = np.zeros(chart.dim)
            dq[k] = h
            up, down = chart.decode(q + dq), chart.decode(q - dq)
            assert np.max(np.abs(Jx[k] - (up.base - down.base) / (2 * h))) < 1e-7
            assert np.max(np.abs(JE[k] - (up.columns - down.columns) / (2 * h))) < 1e-7

    @settings(derandomize=True, deadline=None, database=None, max_examples=60)
    @given(skew_chart_points())
    def test_encode_inverts_decode(self, chart_point):
        chart, q = chart_point
        assert np.max(np.abs(chart.encode(chart.decode(q)) - q)) < 1e-10


@st.composite
def skew_points(draw):
    """A in so(n) or a block subalgebra (n = 2, 3, 4) with coordinates |a| < 2, and the basis."""
    n = draw(st.integers(2, 4))
    k = draw(st.integers(0, n - 1))
    basis = skew_basis(n) if k == 0 else block_skew_basis(n, k)
    a = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=len(basis),
                               max_size=len(basis))))
    a = 1.99 * a / max(1.0, float(np.linalg.norm(a)))
    return sum((c * B for c, B in zip(a, basis)), np.zeros((n, n))), basis


def two_plane(n, *angles):
    """Rotation generator turning the planes (0, 1), (2, 3), ... by the given angles."""
    A = np.zeros((n, n))
    for i, theta in enumerate(angles):
        A[2 * i, 2 * i + 1], A[2 * i + 1, 2 * i] = -theta, theta
    return A


class TestSkewClosedForms:
    """exp, its Frechet rows and the rotation log from one factorisation, against SciPy."""

    def check_against_scipy(self, A, basis):
        expA, L = frames_module._exp_frechet_skew(A, basis)
        assert np.max(np.abs(expA - scipy.linalg.expm(A))) < 1e-13
        assert L.shape == (len(basis),) + A.shape
        for B, LB in zip(basis, L):
            assert np.max(np.abs(LB - scipy.linalg.expm_frechet(A, B, compute_expm=False))) < 1e-13
        log = frames_module._log_rotation(expA, 1e-8)
        assert np.max(np.abs(log - A)) < 1e-12
        assert np.max(np.abs(log - scipy.linalg.logm(expA))) < 1e-12

    @settings(derandomize=True, deadline=None, database=None, max_examples=150)
    @given(skew_points())
    def test_match_scipy(self, skew_point):
        self.check_against_scipy(*skew_point)

    @pytest.mark.parametrize("A", [np.zeros((3, 3)), two_plane(3, 0.7), two_plane(4, 0.9, 0.9),
                                   two_plane(4, 1.9, 1.9)],
                             ids=["zero", "one_plane_n3", "equal_angles_n4",
                                  "equal_large_angles_n4"])
    def test_repeated_eigenvalues(self, A):
        self.check_against_scipy(A, skew_basis(A.shape[0]))

    def test_exp_does_not_depend_on_the_basis(self):
        A = two_plane(3, 0.4) + 0.3 * skew_basis(3)[2]
        alone, none = frames_module._exp_frechet_skew(A, ())
        with_rows, _ = frames_module._exp_frechet_skew(A, skew_basis(3))
        assert np.array_equal(alone, with_rows) and none.shape == (0, 3, 3)


class TestNoScipyMatrixFunctions:
    """The chart's exp, Frechet rows and log come from one factorisation, not scipy.linalg."""

    @pytest.fixture
    def eighs(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("scipy matrix function called")

        for name in ("expm", "expm_frechet", "logm"):
            monkeypatch.setattr(scipy.linalg, name, forbidden)
        tally = []
        eigh = np.linalg.eigh

        def counting(*args, **kwargs):
            tally.append(1)
            return eigh(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        return tally

    @pytest.mark.parametrize("example", ["E1", "E2", "E3", "E4", "E5"])
    @pytest.mark.parametrize("bundle", ["O", "D"])
    def test_jacobian_decode_and_encode(self, eighs, example, bundle):
        chart = skew_chart(example, bundle)
        x = sample_points(chart.manifold, 48, 1)[0]
        q = chart.join(x, 0.3 * np.ones(len(chart.basis)))
        u, _, _ = chart.jacobian(q)
        assert len(eighs) == 1
        assert np.array_equal(chart.decode(q).columns, u.columns)
        assert np.max(np.abs(chart.encode(u) - q)) < 1e-12


class TestEncodeRejections:
    def test_half_turn_raises(self):
        chart = skew_chart("E3", "O")
        x = sample_points(chart.manifold, 49, 1)[0]
        a = np.zeros(len(chart.basis))
        a[0] = np.pi
        with pytest.raises(ValueError, match="eigenvalue angle at pi"):
            chart.encode(chart.decode(chart.join(x, a)))

    def test_three_radians_round_trip(self):
        chart = skew_chart("E3", "O")
        x = sample_points(chart.manifold, 49, 1)[0]
        a = np.zeros(len(chart.basis))
        a[0] = 3.0
        q = chart.join(x, a)
        assert np.max(np.abs(chart.encode(chart.decode(q)) - q)) < 1e-10

    def test_rotation_mixing_the_blocks_raises(self):
        chart = skew_chart("E3", "D")
        M = chart.manifold
        x = sample_points(M, 50, 1)[0]
        k = derive_geometry(get("E3").phi).horizontal.rank
        mix = scipy.linalg.expm(0.3 * offdiag_skew_basis(M.dim, k)[0])
        u = Frame(x, chart.reference(x) @ mix)
        with pytest.raises(ValueError, match="leaves the chart's skew directions"):
            chart.encode(u)
