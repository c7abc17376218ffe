import functools
import sys

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import framelift.adapted as adapted_module
import framelift.frames as frames_module
from framelift.adapted import (
    adapted_connection_audit,
    adapted_frame,
    adapted_horizontal_lift,
)
from framelift.catalog import euclidean_chart, get, sphere_chart
from framelift.fields import g_skew_endo_field, polynomial_endo_field, polynomial_vector_field
from framelift.frames import (
    Frame,
    _gram,
    _vertical_rate,
    FrameTangent,
    LMChart,
    bracket_residual,
    connection_audit,
    fd_bracket_on_chart,
    fundamental_vertical,
    gauss_projection,
    horizontal_lift_frame,
    induced_metric_on_chart,
    lc_connection_formula,
    lc_total_space_oracle,
    mok_gram,
    mok_metric,
    mok_norm,
    block_skew_basis,
    offdiag_skew_basis,
    reference_frame,
    skew_basis,
    total_space_cfg,
    total_space_christoffel,
    total_space_manifold,
    vertical_part,
)
from framelift.geometry import (
    DEFAULT_FD,
    DomainError,
    FDConfig,
    TangentVector,
    VectorField,
    central_diff,
    christoffel,
    curvature_tensor,
    directional_diff,
    metric_derivative_eval,
    metric_eval,
    orthonormalizer,
    sample_points,
)
from framelift.submersion import adapted_endo_field, derive_geometry
from budget import recording
from jets import jet
from roundoff import LEADING, assert_rows, roundoff
from skew_charts import RatesChart, adapted_chart, om_chart

R1 = euclidean_chart(1)
R2 = euclidean_chart(2)
S2 = sphere_chart(2)


def on_frame(M, p):
    return Frame(p, reference_frame(M, p))


def plain_lift(M, X, v):
    """The horizontal lift as a frame field reads it: Gamma at the frames v it is handed."""
    return horizontal_lift_frame(christoffel(M, v.base), X, v)


class TestLiftsAndVerticals:
    def test_flat_horizontal_lift(self):
        p = np.array([0.3, 0.4])
        u = on_frame(R2, p)
        t = horizontal_lift_frame(christoffel(R2, u.base), TangentVector(p, np.array([1.0, -2.0])), u)
        assert np.array_equal(t.base_rate, [1.0, -2.0])
        assert np.max(np.abs(t.frame_rate)) == 0.0

    def test_sphere_origin_horizontal_lift(self):
        u = on_frame(S2, np.zeros(2))
        t = horizontal_lift_frame(christoffel(S2, u.base), TangentVector(np.zeros(2), np.array([0.5, 0.5])), u)
        assert np.max(np.abs(t.frame_rate)) < 1e-14

    def test_horizontal_lift_has_zero_vertical_part(self):
        p = np.array([0.4, -0.2])
        u = on_frame(S2, p)
        t = horizontal_lift_frame(christoffel(S2, u.base), TangentVector(p, np.array([0.9, 0.1])), u)
        assert np.max(np.abs(vertical_part(christoffel(S2, t.at.base), t))) < 1e-12

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
        assert np.max(np.abs(vertical_part(christoffel(S2, t.at.base), t) - P)) < 1e-12

    def test_decomposition_exact(self):
        rng = np.random.default_rng(0)
        p = np.array([0.5, -0.3])
        u = on_frame(S2, p)
        t = FrameTangent(u, rng.standard_normal(2), rng.standard_normal((2, 2)))
        V = vertical_part(christoffel(S2, t.at.base), t)
        rec = horizontal_lift_frame(christoffel(S2, u.base), TangentVector(p, t.base_rate), u) + fundamental_vertical(V, u)
        assert np.max(np.abs(rec.frame_rate - t.frame_rate)) < 1e-13
        assert np.max(np.abs(rec.base_rate - t.base_rate)) == 0.0


class TestMokMetric:
    def test_horizontal_pair(self):
        rng = np.random.default_rng(1)
        p = np.array([0.2, -0.4])
        u = on_frame(S2, p)
        g = metric_eval(S2, p)
        x, y = rng.standard_normal((2, 2))
        tx = horizontal_lift_frame(christoffel(S2, u.base), TangentVector(p, x), u)
        ty = horizontal_lift_frame(christoffel(S2, u.base), TangentVector(p, y), u)
        assert abs(mok_metric(*jet(S2, tx.at.base), tx, ty) - float(x @ g @ y)) < 1e-12

    def test_block_orthogonality(self):
        p = np.array([0.1, 0.3])
        u = on_frame(S2, p)
        th = horizontal_lift_frame(christoffel(S2, u.base), TangentVector(p, np.array([1.0, 1.0])), u)
        tv = fundamental_vertical(np.array([[0.0, -1.0], [1.0, 0.0]]), u)
        assert abs(mok_metric(*jet(S2, th.at.base), th, tv)) < 1e-13

    def test_rotation_generator_norm(self):
        u = Frame(np.zeros(2), np.eye(2))
        J = np.array([[0.0, -1.0], [1.0, 0.0]])
        t = fundamental_vertical(J, u)
        assert abs(mok_metric(*jet(R2, t.at.base), t, t) - 2.0) < 1e-14

    def test_vertical_product_over_frame_columns(self):
        # at a non-orthonormal frame the sum runs over the frame vectors
        u = Frame(np.zeros(2), np.diag([2.0, 1.0]))
        P = np.array([[1.0, 0.0], [0.0, 0.0]])
        t = fundamental_vertical(P, u)
        # sum_i |P u_i|^2 = |2 e1|^2 = 4
        assert abs(mok_metric(*jet(R2, t.at.base), t, t) - 4.0) < 1e-14

    def test_positive_definite(self):
        rng = np.random.default_rng(2)
        p = np.array([0.3, 0.2])
        u = on_frame(S2, p)
        for _ in range(5):
            t = FrameTangent(u, rng.standard_normal(2), rng.standard_normal((2, 2)))
            assert mok_metric(*jet(S2, t.at.base), t, t) > 0

    def test_norm_evaluates_the_vertical_part_once(self, calls):
        # the Mok metric pairs the vertical rates W = V E of the vertical parts V
        rng = np.random.default_rng(3)
        u = on_frame(S2, np.array([0.3, -0.1]))
        t = FrameTangent(u, rng.standard_normal(2), rng.standard_normal((2, 2)))
        twin = FrameTangent(u, t.base_rate.copy(), t.frame_rate.copy())
        want = float(np.sqrt(mok_metric(*jet(S2, t.at.base), t, twin)))  # two evaluations, same arithmetic
        rates = calls("_vertical_rate")["_vertical_rate"]
        assert mok_norm(*jet(S2, t.at.base), t) == want
        assert len(rates) == 1

    def test_metric_of_two_tangents_reads_the_callers_christoffel(self, calls):
        rng = np.random.default_rng(4)
        u = on_frame(S2, np.array([0.3, -0.1]))
        s, t = (FrameTangent(u, rng.standard_normal(2), rng.standard_normal((2, 2))) for _ in range(2))
        g, gamma = jet(S2, u.base)
        gammas = calls("christoffel")["christoffel"]
        mok_metric(g, gamma, s, t)
        assert len(gammas) == 0  # the caller's Gamma serves both vertical parts


class TestMatmulVerticalRate:
    """The vertical rate and the Mok Gram against their einsum definitions, to the
    reordered-sum bound ``roundoff``: Gamma E is built once per frame and serves the T
    tangents there, whose rates are the rows of one matmul.  A stack of frames' rows equal
    row-by-row calls bit for bit."""

    @staticmethod
    def draws(shape, n, m, T, seed=45):
        rng = np.random.default_rng(seed)
        A = rng.standard_normal(shape + (n, n))
        g = np.eye(n) + 0.3 * A @ A.swapaxes(-1, -2) / n
        gamma, E = rng.standard_normal(shape + (n, n, n)), rng.standard_normal(shape + (n, m))
        return g, gamma, E, rng.standard_normal(shape + (T, n)), rng.standard_normal(shape + (T, n, m))

    @pytest.mark.parametrize("n, m", [(3, 3), (3, 1), (2, 2)])
    @pytest.mark.parametrize("shape", LEADING)
    def test_vertical_rate(self, shape, n, m):
        _, gamma, E, X, Edot = self.draws(shape, n, m, T=4)
        want = Edot + np.einsum("...kij,...ti,...jc->...tkc", gamma, X, E)
        bound = roundoff(n * n, np.abs(Edot) + np.einsum("...kij,...ti,...jc->...tkc",
                                                         np.abs(gamma), np.abs(X), np.abs(E)))
        assert np.all(np.abs(_vertical_rate(gamma, X, E, Edot) - want) <= bound)
        assert_rows(_vertical_rate, shape, gamma, X, E, Edot)

    @pytest.mark.parametrize("T", [1, 2, 12])
    @pytest.mark.parametrize("n, m", [(3, 3), (3, 1)])
    @pytest.mark.parametrize("shape", LEADING)
    def test_gram_reads_one_gamma_per_frame_for_T_tangents(self, shape, n, m, T):
        g, gamma, E, X, Edot = self.draws(shape, n, m, T)
        W = Edot + np.einsum("...kij,...ti,...jc->...tkc", gamma, X, E)
        G = X @ g @ X.swapaxes(-1, -2) + np.einsum("...akc,...kl,...blc->...ab", W, g, W)
        # W's own bound propagates through the pairing, whose sum takes n n m terms
        W_abs = np.abs(Edot) + np.einsum("...kij,...ti,...jc->...tkc", np.abs(gamma), np.abs(X), np.abs(E))
        magnitude = (np.abs(X) @ np.abs(g) @ np.abs(X).swapaxes(-1, -2)
                     + np.einsum("...akc,...kl,...blc->...ab", W_abs, np.abs(g), W_abs))
        got, want = _gram(g, gamma, E, X, Edot), 0.5 * (G + G.swapaxes(-1, -2))
        assert np.all(np.abs(got - want) <= roundoff(2 * n * n + n * n * m, magnitude))
        assert_rows(_gram, shape, g, gamma, E, X, Edot)

    @pytest.mark.parametrize("shape", LEADING[1:])
    def test_gram_of_directions_shared_by_every_frame(self, shape):
        # gauss_projection's chart directions: one (T, n) stack of rates at every frame
        g, gamma, E, X, Edot = self.draws(shape, 3, 3, T=12)
        shared = _gram(g, gamma, E, X[(0,) * len(shape)], Edot[(0,) * len(shape)])
        each = _gram(g, gamma, E, *(np.broadcast_to(a[(0,) * len(shape)], a.shape) for a in (X, Edot)))
        assert np.array_equal(shared, each)


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


class TestSkewBases:
    @pytest.mark.parametrize("n, k", [(n, k) for n in range(1, 5) for k in range(n + 1)])
    def test_block_and_mixed_bases_partition_so_n_in_order(self, n, k):
        # so(k) + so(n-k) is E_ij - E_ji over the pairs i < j on one side of k, so(k)'s
        # first; the mixed block is the pairs i < k <= j; both in lexicographic order
        def generators(pairs):
            out = []
            for i, j in pairs:
                B = np.zeros((n, n))
                B[i, j], B[j, i] = 1.0, -1.0
                out.append(B)
            return out

        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        block = generators([(i, j) for i, j in pairs if j < k] + [(i, j) for i, j in pairs if i >= k])
        mixed = generators([(i, j) for i, j in pairs if i < k <= j])
        for got, want in ((block_skew_basis(n, k), block), (offdiag_skew_basis(n, k), mixed)):
            assert len(got) == len(want)
            assert all(np.array_equal(a, b) for a, b in zip(got, want))
        assert len(block) + len(mixed) == len(skew_basis(n)) == n * (n - 1) // 2


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
        R = curvature_tensor(R2, u.base)
        [res] = bracket_residual(R2, LMChart(R2), [(case, inputs)], u, *jet(R2, u.base), R)
        assert res["resolved"] < 5e-4

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
            R = curvature_tensor(S2, p)
            [res] = bracket_residual(S2, LMChart(S2), [(case, inputs)], u, *jet(S2, p), R)
            assert res["resolved"] < 5e-4

    def test_hh_bracket_is_curvature_vertical(self):
        # coordinate fields commute, so the bracket of their lifts is the
        # pure vertical curvature term
        from framelift.geometry import coordinate_field

        p = np.array([0.3, -0.2])
        u = on_frame(S2, p)
        chart = LMChart(S2)
        A, B = (lambda v, X=coordinate_field(i, 2): plain_lift(S2, X.at(v.base), v) for i in range(2))
        [fd] = fd_bracket_on_chart(chart, [(A, B)], u)
        R = np.einsum("ijkl,i,j->lk", curvature_tensor(S2, p), np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        expect = fundamental_vertical(-R, u)
        assert mok_norm(*jet(S2, p), fd - expect) < 5e-4
        assert np.max(np.abs(fd.base_rate)) < 5e-4

    def test_vv_commuting(self):
        u = on_frame(R2, np.zeros(2))
        from framelift.geometry import EndomorphismField
        P = EndomorphismField(eval=lambda q: np.eye(2))
        Q = EndomorphismField(eval=lambda q: 2.0 * np.eye(2))
        R = curvature_tensor(R2, u.base)
        [res] = bracket_residual(R2, LMChart(R2), [("vv", (P, Q))], u, *jet(R2, u.base), R)
        assert res["resolved"] < 1e-10

    def test_hv_literal_sign_fails(self):
        rng = np.random.default_rng(7)
        X = polynomial_vector_field(2, rng)
        Q = polynomial_endo_field(2, rng)
        u = on_frame(S2, np.array([0.2, 0.2]))
        [res] = bracket_residual(S2, LMChart(S2), [("hv", (X, Q))], u, *jet(S2, u.base), curvature_tensor(S2, u.base))
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
        out = lc_connection_formula(R2, {"L": [("hh", (self.X, self.Y))]}, u, *jet(R2, p),
                                    curvature_tensor(R2, p))["L"][0]["resolved"]
        nab = covariant_derivative(R2, self.X, self.Y, p, christoffel(R2, p))
        expect = horizontal_lift_frame(christoffel(R2, p), nab, u)
        assert mok_norm(*jet(R2, p), out - expect) < 1e-12

    def test_om_vv_antisymmetric_vanishes_for_equal_fields(self):
        # -1/2 [P, P]* = 0
        chartM = sphere_chart(2)
        p = np.array([0.2, -0.3])
        u = on_frame(chartM, p)
        rng = np.random.default_rng(9)
        P = g_skew_endo_field(chartM, rng)
        out = lc_connection_formula(chartM, {"O": [("vv", (P, P))]}, u, *jet(chartM, p),
                                    curvature_tensor(chartM, p))["O"][0]["resolved"]
        assert mok_norm(*jet(chartM, p), out) < 1e-12

    def resolved(self, M, p, case):
        """The audit's "resolved" residual of one case on L(M) at the reference frame at p."""
        u = on_frame(M, p)
        rows = connection_audit(M, u, {"L": dict(X=self.X, Y=self.Y, P=self.P, Q=self.Q)},
                                *jet(M, p), curvature_tensor(M, p), total_space_christoffel(LMChart(M), u))
        [res] = [r["residual"] for r in rows if r["case"] == case and r["reading"] == "resolved"]
        return res

    def test_lm_vv_matches_oracle_flat(self):
        assert self.resolved(R2, np.array([0.1, 0.4]), "vv") < 5e-4

    @pytest.mark.parametrize("case", ["hh", "hv", "vh", "vv"])
    def test_all_cases_match_oracle_on_sphere(self, case):
        assert self.resolved(S2, np.array([0.25, -0.15]), case) < 5e-4

    def test_audit_table_shape(self):
        u = on_frame(S2, np.array([0.2, 0.2]))
        rows = connection_audit(S2, u, {"L": dict(X=self.X, Y=self.Y, P=self.P, Q=self.Q)},
                                *jet(S2, u.base), curvature_tensor(S2, u.base),
                                total_space_christoffel(LMChart(S2), u))
        cases = {(r["case"], r["reading"]) for r in rows}
        assert ("hh", "resolved") in cases
        assert ("hv", "literal") in cases
        assert all(r["residual"] < 5e-4 for r in rows if r["reading"] == "resolved")


class TestOneEvaluationPerCase:
    """Every reading of a case is judged against one finite-difference evaluation."""

    @pytest.mark.parametrize("bundle", ["L", "O"])
    def test_connection_audit_runs_the_oracle_once_per_case(self, calls, bundle):
        rng = np.random.default_rng(19)
        X = polynomial_vector_field(2, rng)
        Y = polynomial_vector_field(2, rng)
        if bundle == "L":
            P, Q = polynomial_endo_field(2, rng), polynomial_endo_field(2, rng)
        else:
            P, Q = g_skew_endo_field(S2, rng), g_skew_endo_field(S2, rng)
        oracles = calls("lc_total_space_oracle")["lc_total_space_oracle"]
        p = np.array([0.2, -0.1])
        u = on_frame(S2, p)
        rows = connection_audit(S2, u, {bundle: dict(X=X, Y=Y, P=P, Q=Q)},
                                *jet(S2, p), curvature_tensor(S2, p), total_space_christoffel(LMChart(S2), u))
        assert len(oracles) == 1  # one oracle call serves all four cases
        readings = {}
        for r in rows:
            readings.setdefault(r["case"], []).append(r["reading"])
        assert readings == {"hh": ["resolved"], "hv": ["resolved", "literal"],
                            "vh": ["resolved", "literal"], "vv": ["resolved"]}
        assert all(r["asserted"] == (r["reading"] == "resolved") for r in rows)

    @pytest.mark.parametrize("bundle", ["L", "O", "D"])
    def test_batched_oracle_equals_one_pair_calls(self, bundle):
        chart, u, pairs = lift_pairs("E3", bundle, 42)
        gamma_total = total_space_christoffel(chart, u)
        batched = lc_total_space_oracle(chart, pairs, u, gamma_total)
        assert len(batched) == 4
        for pair, t in zip(pairs, batched):
            [one] = lc_total_space_oracle(chart, [pair], u, gamma_total)
            assert np.array_equal(t.base_rate, one.base_rate)
            assert np.array_equal(t.frame_rate, one.frame_rate)

    def test_each_field_is_evaluated_once_at_the_centre(self):
        # the directions hX and vP at the centre alone; hY and vQ, differenced along both,
        # once on the stack of the centre and its stencil, 1 + 2 * 2 frames
        chart, u, pairs = lift_pairs("E3", "O", 24)
        seen = {name: [] for name in ("hX", "hY", "vP", "vQ")}
        (hX, hY), (_, vQ), (vP, _), _ = pairs
        hX, hY, vP, vQ = (recording(F, seen[name]) for name, F in zip(seen, (hX, hY, vP, vQ)))
        lc_total_space_oracle(chart, [(hX, hY), (hX, vQ), (vP, hY), (vP, vQ)], u, total_space_christoffel(chart, u))
        centre = u.base.shape  # u's own base points, not a stencil
        assert {name: [c.args[0].base.shape for c in s] for name, s in seen.items()} == {
            "hX": [centre], "hY": [(5,) + centre], "vP": [centre], "vQ": [(5,) + centre]}
        assert all(np.array_equal(c.args[0].base[0], u.base) for c in seen["hY"] + seen["vQ"])

    def test_bracket_readings_share_one_fd_bracket(self, calls):
        rng = np.random.default_rng(20)
        X = polynomial_vector_field(2, rng)
        Q = polynomial_endo_field(2, rng)
        brackets = calls("fd_bracket_on_chart")["fd_bracket_on_chart"]
        p = np.array([0.1, 0.3])
        [res] = bracket_residual(S2, LMChart(S2), [("hv", (X, Q))], on_frame(S2, p), *jet(S2, p),
                                 curvature_tensor(S2, p))
        assert len(brackets) == 1
        assert set(res) == {"resolved", "literal"}


def lift_pairs(example, bundle, seed, count=None):
    """A bundle chart over the example's source, the suite's frame at its first sample
    point (or the frames at the first ``count``: reference frames, adapted ones on O(D))
    and the four case pairs of frame fields as the audits build them:
    (X^h, Y^h), (X^h, Q*), (P*, Y^h), (P*, Q*), with the adapted lift and block-diagonal
    g-skew P, Q on O(D), g-skew P, Q on O(M)."""
    phi = get(example).phi
    M = phi.source
    rng = np.random.default_rng(seed)
    pts = sample_points(M, seed, count or 1)[slice(None) if count else 0]
    X, Y = polynomial_vector_field(M.dim, rng), polynomial_vector_field(M.dim, rng)
    horizontal = plain_lift
    if bundle == "D":
        geom = derive_geometry(phi)
        D, k = geom.horizontal, geom.rank
        chart, u = adapted_chart(M, D), adapted_frame(M, D, pts)
        Ja = np.zeros((k, k))
        if k >= 2:
            Ja[0, 1], Ja[1, 0] = -1.0, 1.0
        P, Q = adapted_endo_field(geom, top=0.8 * Ja), adapted_endo_field(geom, top=-1.3 * Ja)
        horizontal = lambda M, X, v: adapted_horizontal_lift(M, D, X, v)  # noqa: E731
    elif bundle == "O":
        chart, u = om_chart(M), Frame(pts, reference_frame(M, pts))
        P, Q = g_skew_endo_field(M, rng), g_skew_endo_field(M, rng)
    else:
        chart, u = LMChart(M), Frame(pts, reference_frame(M, pts))
        P, Q = polynomial_endo_field(M.dim, rng), polynomial_endo_field(M.dim, rng)
    cases = [("hh", (X, Y)), ("hv", (X, Q)), ("vh", (P, Y)), ("vv", (P, Q))]
    return chart, u, frames_module._case_fields(M, cases, horizontal)


class TestGenericPathReference:
    """The oracle and the FD bracket equal the textbook formulas on the chart fields
    q -> field_to_chart(q, F), bit for bit: nabla_A B = dB(a) + Gamma(a, b)
    and [A, B] = dB(a) - dA(b), each pair on its own fields, one difference stencil per
    derivative and the total space's ``christoffel``.  The oracle's sharing of fields and
    stencils between pairs changes no bit."""

    @pytest.mark.parametrize("seed", [42, 1])
    @pytest.mark.parametrize("bundle", ["L", "O", "D"])
    @pytest.mark.parametrize("example", ["E1", "E2", "E3", "E4", "E5"])
    def test_oracle_and_bracket_equal_the_generic_path(self, example, bundle, seed):
        chart, u, pairs = lift_pairs(example, bundle, seed, count=3)
        q = chart.encode(u)
        h = total_space_cfg(DEFAULT_FD).step_h
        gamma = christoffel(total_space_manifold(chart), q)
        assert np.array_equal(total_space_christoffel(chart, u), gamma)
        for (A, B), nabla, bracket in zip(pairs, lc_total_space_oracle(chart, pairs, u, gamma),
                                          fd_bracket_on_chart(chart, pairs, u)):
            a, b = (VectorField(eval=lambda qq, F=F: chart.field_to_chart(qq, F)) for F in (A, B))
            x, y = a.eval(q), b.eval(q)
            dBa, dAb = directional_diff(b.eval, q, x, h), directional_diff(a.eval, q, y, h)
            # Gamma(a, b) = einsum("...kij,...i,...j->...k", gamma, x, y), as Gamma_x times y
            gxy = ((x[..., None, None, :] @ gamma)[..., 0, :] @ y[..., None])[..., 0]
            for got, rates in ((nabla, dBa + gxy),
                               (bracket, dBa - dAb)):
                ref = chart.chart_to_tangent(q, rates)
                assert np.array_equal(got.base_rate, ref.base_rate)
                assert np.array_equal(got.frame_rate, ref.frame_rate)


class TestOneCovariantDerivative:
    """The oracle and the FD bracket compute no derivative themselves: each call is one
    ``geometry.covariant_derivatives`` or ``geometry.lie_brackets`` on the total space."""

    def test_the_oracle_is_one_covariant_derivatives_call_on_the_total_space(self, calls):
        chart, u, pairs = lift_pairs("E3", "L", 42, count=3)
        gamma_total = total_space_christoffel(chart, u)
        counted = calls("covariant_derivatives")["covariant_derivatives"]
        lc_total_space_oracle(chart, pairs, u, gamma_total)
        assert [(c.args[0].name, len(c.args[1]), c.args[3] is gamma_total, c.args[4]) for c in counted] == [
            ("total[L(M)]", 4, True, total_space_cfg(DEFAULT_FD))]

    def test_the_bracket_is_one_lie_brackets_call(self, calls):
        chart, u, pairs = lift_pairs("E3", "L", 42, count=3)
        counted = calls("lie_brackets")["lie_brackets"]
        fd_bracket_on_chart(chart, pairs, u)
        assert [(len(c.args[0]), c.args[2]) for c in counted] == [(4, total_space_cfg(DEFAULT_FD))]

    def test_the_fused_path_is_gone(self):
        assert not hasattr(frames_module, "_field_differences") and not hasattr(frames_module, "_field_rates")
        assert not hasattr(LMChart, "_tangents_at") and not hasattr(LMChart, "_rates_at")


class TestTwoChartJacobians:
    """The chart Jacobians that one call on the four pairs of ``lift_pairs`` reads.  The
    oracle's total-space Christoffel symbols are its caller's: ``total_space_christoffel``
    reads 2, in the induced metric at the points and on one stencil.  On L(M), where the
    audits run them, the oracle and the bracket then read none, since L(M)'s chart rates
    are the frame fields' rates themselves.  On the O(M) and O(D) charts, which only the
    tests run them on, every chart conversion reads J(q): each field at q or on the one
    stack of q and its stencil, and the read-back at q."""

    JACOBIANS = {
        ("lc_total_space_oracle", "L"): 0,
        ("fd_bracket_on_chart", "L"): 0,
        # the 2 directions at q 2 + the 2 differenced fields on q and their stencil 2 + read-back 1
        ("lc_total_space_oracle", "O"): 5,
        ("lc_total_space_oracle", "D"): 5,
        # fields at q 4 + one stencil of each field 4 + read-back 1
        ("fd_bracket_on_chart", "O"): 9,
        ("fd_bracket_on_chart", "D"): 9,
    }

    @pytest.mark.parametrize("bundle", ["L", "O", "D"])
    @pytest.mark.parametrize("kernel", [lc_total_space_oracle, fd_bracket_on_chart])
    def test_four_pairs(self, calls, kernel, bundle):
        chart, u, pairs = lift_pairs("E3", bundle, 42, count=3)
        name = "LMChart.jacobian" if bundle == "L" else "FrameChart.jacobian"
        jacobians = calls(name)[name]
        gamma_total = (total_space_christoffel(chart, u),) if kernel is lc_total_space_oracle else ()
        assert len(jacobians) == 2 * len(gamma_total)
        jacobians.clear()
        kernel(chart, pairs, u, *gamma_total)
        assert len(jacobians) == self.JACOBIANS[kernel.__name__, bundle]


class TestRightInvariance:
    def test_mok_invariant_under_right_rotation(self):
        rng = np.random.default_rng(10)
        p = np.array([0.3, 0.3])
        u = on_frame(S2, p)
        g = metric_eval(S2, p)
        K = rng.standard_normal((2, 2))
        skew = np.linalg.solve(g, 0.5 * (K - K.T))
        s = horizontal_lift_frame(christoffel(S2, u.base), TangentVector(p, np.array([1.0, -0.5])), u) + \
            fundamental_vertical(skew, u)
        theta = 0.9
        Q = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        uk = Frame(p, u.columns @ Q)
        sk = FrameTangent(uk, s.base_rate, s.frame_rate @ Q)
        assert abs(mok_metric(*jet(S2, s.at.base), s, s) - mok_metric(*jet(S2, sk.at.base), sk, sk)) < 1e-12


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


class TestTotalSpaceJets:
    """A total space has no closed-form jets: ``total_space_manifold`` derives its metric
    derivative, at step_h2, and its orthonormal frame from the induced metric."""

    CFG = FDConfig(step_h=2e-5, step_h2=3e-4)

    @pytest.mark.parametrize("bundle", ["L", "O", "D"])
    def test_metric_derivative_differences_the_metric_at_step_h2(self, bundle):
        chart, q = bundle_chart_point("E3", bundle)
        total = total_space_manifold(chart, self.CFG)
        assert np.array_equal(total.metric_derivative(q), central_diff(total.metric_field, q, self.CFG.step_h2))

    @pytest.mark.parametrize("bundle", ["L", "O", "D"])
    def test_orthonormal_frame_orthonormalises_the_coordinate_basis(self, bundle):
        chart, q = bundle_chart_point("E3", bundle)
        total = total_space_manifold(chart, self.CFG)
        assert np.array_equal(total.orthonormal_frame(q),
                              orthonormalizer(total.metric_field(q)).swapaxes(-1, -2))

    @pytest.mark.parametrize("bundle", ["L", "O", "D"])
    def test_metric_derivative_raises_where_its_stencil_leaves_the_chart(self, bundle):
        chart, q = bundle_chart_point("E3", bundle)
        x, h, n = chart.split(q)[0], self.CFG.step_h2, chart.manifold.dim
        if bundle == "L":  # det E = h > 0, and the stencil steps E[-1, -1] to 0
            q = chart.join(x, np.diag([1.0] * (n - 1) + [h]))
        else:  # |a| < 2, and the stencil steps a[0] past 2
            q = chart.join(x, np.eye(len(chart.basis))[0] * (2.0 - h / 2))
        total = total_space_manifold(chart, self.CFG)
        assert total.contains(q)
        with pytest.raises(DomainError, match="stencil"):
            total.metric_derivative(q)


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
                ref[i, j] = ref[j, i] = mok_metric(*jet(chart.manifold, tangents[i].at.base), tangents[i], tangents[j])
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
        assert mok_gram(*jet(S2, s.at.base), [s, s]).shape == (2, 2)
        with pytest.raises(ValueError):
            mok_gram(*jet(S2, s.at.base), [s, t])


class TestChartConversions:
    """The two conversions invert each other at one point and reject tangents they cannot convert."""

    @pytest.mark.parametrize("example,bundle", EXAMPLE_BUNDLES)
    def test_field_to_chart_inverts_chart_to_tangents(self, example, bundle):
        chart, q = bundle_chart_point(example, bundle)
        Q = np.random.default_rng(31).standard_normal((4, chart.dim))
        for rates, t in zip(Q, chart.chart_to_tangents(q, Q)):
            assert np.max(np.abs(chart.field_to_chart(q, lambda u: t) - rates)) < 1e-10

    @pytest.mark.parametrize("example", ["E1", "E2", "E3", "E4", "E5"])
    def test_rejects_a_symmetric_frame_rate_on_om(self, example):
        chart, q = bundle_chart_point(example, "O")
        u = chart.decode(q)
        S = np.random.default_rng(32).standard_normal((chart.manifold.dim,) * 2)
        t = FrameTangent(u, np.zeros(u.base.size), u.columns @ (S + S.T))
        with pytest.raises(ValueError, match="not tangent"):
            chart.field_to_chart(q, lambda v: t)

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
                chart.field_to_chart(q, lambda u: chart.chart_to_tangent(other, rates))


def chart_field(chart, F):
    """The chart field q -> field_to_chart(q, F) through which the oracle reads F."""
    [(field, _)] = frames_module._chart_fields(chart, [(F, F)], DEFAULT_FD)
    return field


class TestNoReencoding:
    """The frame fields are read at the decoded frames; only an audit's entry frame is encoded."""

    def lift_cases(self):
        """(frame field, chart, q, reference tangent at a frame) for X^h and P* on O(M) and
        the adapted X^h on O(D), E3."""
        rng = np.random.default_rng(34)
        om, q_om = bundle_chart_point("E3", "O")
        od, q_od = bundle_chart_point("E3", "D")
        M = om.manifold
        D = derive_geometry(get("E3").phi).horizontal
        X, P = polynomial_vector_field(M.dim, rng), g_skew_endo_field(M, rng)
        [(hX, vP)] = frames_module._case_fields(M, [("hv", (X, P))])
        [(aX, _)] = frames_module._case_fields(
            M, [("hv", (X, P))], lambda M, X, v: adapted_horizontal_lift(M, D, X, v))
        return [
            (hX, om, q_om, lambda u: plain_lift(M, TangentVector(u.base, X.eval(u.base)), u)),
            (vP, om, q_om, lambda u: fundamental_vertical(P.eval(u.base), u)),
            (aX, od, q_od, lambda u: adapted_horizontal_lift(M, D, TangentVector(u.base, X.eval(u.base)), u)),
        ]

    def test_frame_fields_call_neither_encode_nor_logm(self, calls):
        # the chart fields encode nothing: each oracle and bracket call encodes its own
        # entry frame once, and nothing else is encoded
        cases = self.lift_cases()
        frames = [chart.decode(q) for _, chart, q, _ in cases]
        gammas = [total_space_christoffel(chart, u) for (_, chart, _, _), u in zip(cases, frames)]
        encodes, logms, log_rotations = calls("FrameChart.encode", "scipy.linalg.logm", "_log_rotation").values()
        for (field, chart, q, _), u, gamma_total in zip(cases, frames, gammas):
            before = len(encodes)
            assert chart_field(chart, field).eval(q).shape == q.shape
            assert len(encodes) == before
            [t] = lc_total_space_oracle(chart, [(field, field)], u, gamma_total)
            [b] = fd_bracket_on_chart(chart, [(field, field)], u)
            assert b.frame_rate.shape == t.frame_rate.shape
        assert [c.args[1] for c in encodes] == [u for u in frames for _ in range(2)]
        assert logms == [] and len(log_rotations) == len(encodes)

    def test_frame_fields_are_read_at_the_decoded_frame(self, calls):
        # each chart field builds its tangent at the frame decode(q) gives: the rates are
        # the lift's, and the oracle decodes once per field read, at q and on one stencil
        cases = self.lift_cases()
        expected = [chart.field_to_chart(q, lift) for _, chart, q, lift in cases]
        frames = [chart.decode(q) for _, chart, q, _ in cases]
        decodes = calls("FrameChart.decode")["FrameChart.decode"]
        for (field, chart, q, _), rates, u in zip(cases, expected, frames):
            decodes.clear()
            assert np.array_equal(chart_field(chart, field).eval(q), rates)
            assert [c.args[1].shape for c in decodes] == [q.shape]
            gamma_total = total_space_christoffel(chart, u)
            decodes.clear()
            lc_total_space_oracle(chart, [(field, field)], u, gamma_total)
            assert [c.args[1].shape for c in decodes] == [q.shape, (2, 1) + q.shape]

    def test_connection_audit_encodes_once(self, calls):
        # the O(M) audit reads the L(M) oracle: no O(M) chart is entered, and its frames
        # are encoded once, on L(M)
        rng = np.random.default_rng(35)
        fields = dict(X=polynomial_vector_field(2, rng), Y=polynomial_vector_field(2, rng),
                      P=g_skew_endo_field(S2, rng), Q=g_skew_endo_field(S2, rng))
        p = np.array([0.2, -0.1])
        u = on_frame(S2, p)
        gamma_total = total_space_christoffel(LMChart(S2), u)  # the caller's, encoded by its builder
        *skew, encodes = calls("FrameChart.encode", "FrameChart.jacobian", "LMChart.encode").values()
        connection_audit(S2, u, {"O": fields}, *jet(S2, p), curvature_tensor(S2, p), gamma_total)
        assert skew == [[], []] and len(encodes) == 1

    def test_adapted_connection_audit_encodes_once(self, calls):
        geom = derive_geometry(get("E3").phi)
        M, D = geom.phi.source, geom.horizontal
        rng = np.random.default_rng(36)
        J = np.array([[0.0, -1.0], [1.0, 0.0]])
        fields = dict(X=polynomial_vector_field(3, rng), Y=polynomial_vector_field(3, rng),
                      P=adapted_endo_field(geom, top=0.8 * J),
                      Q=adapted_endo_field(geom, top=-1.3 * J))
        p = sample_points(M, 46, 1)[0]
        u = adapted_frame(M, D, p)
        gamma_total = total_space_christoffel(LMChart(M), u)  # the caller's, encoded by its builder
        *skew, encodes = calls("FrameChart.encode", "FrameChart.jacobian", "LMChart.encode").values()
        adapted_connection_audit(M, D, u, fields, *jet(M, p), curvature_tensor(M, p), gamma_total)
        assert skew == [[], []] and len(encodes) == 1


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
    @settings(max_examples=60)
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

    @settings(max_examples=60)
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
        log = frames_module._log_rotation(expA)
        assert np.max(np.abs(log - A)) < 1e-12
        assert np.max(np.abs(log - scipy.linalg.logm(expA))) < 1e-12

    @settings(max_examples=150)
    @given(skew_points())
    def test_match_scipy(self, skew_point):
        self.check_against_scipy(*skew_point)

    @pytest.mark.parametrize("A", [np.zeros((3, 3)), two_plane(3, 0.7), two_plane(4, 0.9, 0.9),
                                   two_plane(4, 1.9, 1.9)],
                             ids=["zero", "one_plane_n3", "equal_angles_n4",
                                  "equal_large_angles_n4"])
    def test_repeated_eigenvalues(self, A):
        self.check_against_scipy(A, skew_basis(A.shape[0]))

    # I + R is nearly singular here, so the Cayley transform is large
    @pytest.mark.parametrize("A", [two_plane(2, 3.14), two_plane(3, 3.1), two_plane(4, 3.0, 3.0),
                                   two_plane(4, 3.1, -3.1)],
                             ids=["n2", "one_plane_n3", "equal_angles_n4", "opposite_angles_n4"])
    def test_near_the_half_turn(self, A):
        self.check_against_scipy(A, skew_basis(A.shape[0]))

    @pytest.mark.parametrize("R", [-np.eye(2), np.diag([-1.0, -1.0, 1.0]), np.diag([1.0, 1.0, -1.0]),
                                   frames_module._exp_frechet_skew(two_plane(3, np.pi - 5e-9), ())[0],
                                   frames_module._exp_frechet_skew(two_plane(4, 1.0, np.pi - 5e-9), ())[0]],
                             ids=["half_turn_n2", "half_turn_n3", "reflection_n3",
                                  "within_tol_n3", "within_tol_n4"])
    def test_half_turn_within_tol_raises_value_error(self, R):
        # I + R singular or an angle within tol of pi: a ValueError, not a LinAlgError
        with pytest.raises(ValueError, match="eigenvalue angle at pi") as raised:
            frames_module._log_rotation(R)
        assert not isinstance(raised.value, np.linalg.LinAlgError)

    def test_exp_does_not_depend_on_the_basis(self):
        A = two_plane(3, 0.4) + 0.3 * skew_basis(3)[2]
        alone, none = frames_module._exp_frechet_skew(A, ())
        with_rows, _ = frames_module._exp_frechet_skew(A, skew_basis(3))
        assert np.array_equal(alone, with_rows) and none.shape == (0, 3, 3)


class TestNoScipyMatrixFunctions:
    """The chart's exp, Frechet rows and log come from one factorisation, not scipy.linalg."""

    @pytest.fixture
    def eighs(self, monkeypatch, calls):
        def forbidden(*args, **kwargs):
            raise AssertionError("scipy matrix function called")

        for name in ("expm", "expm_frechet", "logm"):
            monkeypatch.setattr(scipy.linalg, name, forbidden)
        return calls("numpy.linalg.eigh")["numpy.linalg.eigh"]

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


def rotation_generator(m):
    """The skew m x m matrix turning the plane of the first two axes, or zeros for m < 2."""
    J = np.zeros((m, m))
    if m >= 2:
        J[0, 1], J[1, 0] = -1.0, 1.0
    return J


def subbundle(example, bundle, seed, count=3):
    """The audits' frames of O(M) (reference frames) or O(D) (adapted frames) at the first
    ``count`` sample points, with the subbundle's data for ``gauss_projection``: g, Gamma,
    dg, P, dP at the base points and k (P = I, dP = 0 and k = n on O(M), which is O(D) of
    D = TM)."""
    phi = get(example).phi
    M, geom = phi.source, derive_geometry(phi)
    pts = sample_points(M, seed, count)
    if bundle == "O":
        u, k, P, dP = Frame(pts, reference_frame(M, pts)), M.dim, np.eye(M.dim), np.zeros((M.dim,) * 3)
    else:
        D, k = geom.horizontal, geom.rank
        u, P, dP = adapted_frame(M, D, pts), D.projector(pts), central_diff(D.projector, pts, DEFAULT_FD.step_h)
    return geom, u, (*jet(M, pts), metric_derivative_eval(M, pts), P, dP, k)


def extended_lift(geom):
    """X^h + (S_X)* at any frame of L(M): the adapted horizontal lift without its O(D) guard."""
    D = geom.horizontal

    def lift(M, X, v):
        gamma = christoffel(M, v.base)
        S = adapted_module.S_components(M, D, v.base, gamma, D.projector(v.base))
        return adapted_module._S_lifts([X], v, gamma, S)[0]

    return lift


def constraint_rates(g, dg, P, dP, t, k):
    """The largest rate of the O(D) constraints E^T g E - I, (I - P) E_top and P E_bot along
    the tangent t at its frames, by the product rule, one value per frame."""
    E, Edot = t.at.columns, t.frame_rate
    gdot, Pdot = (np.einsum("...k,...kij->...ij", t.base_rate, d) for d in (dg, dP))
    A = Edot.swapaxes(-1, -2) @ g @ E
    parts = [A + A.swapaxes(-1, -2) + E.swapaxes(-1, -2) @ gdot @ E,
             (np.eye(E.shape[-1]) - P) @ Edot[..., :k] - Pdot @ E[..., :k],
             P @ Edot[..., k:] + Pdot @ E[..., k:]]
    return np.max([np.max(np.abs(a), axis=(-2, -1), initial=0.0) for a in parts], axis=0)


class TestGaussProjection:
    """O(M) and O(D) carry the Mok metric of L(M), so their Levi-Civita connections are the
    Mok-orthogonal tangential parts of L(M)'s (the Gauss formula): ``gauss_projection``
    projects onto the null space of the subbundle's linearised constraints."""

    # The largest Mok-norm gap between the projected L(M) oracle and the chart oracle over
    # the four audit cases, E1-E5 and seeds 42, 1 and 7, measured at oracle values of Mok
    # norm up to 7.2: 7.4e-8 on O(M) (E4 hh at seed 42) and 3.6e-7 on O(D) (E3 hh at seed
    # 42); both oracles difference at step_h2 = 1e-4, so the gap is their O(h^2) terms.
    # The bounds are twice those.
    GAP = {"O": 1.5e-7, "D": 7e-7}

    @pytest.mark.parametrize("seed", [42, 1, 7])
    @pytest.mark.parametrize("bundle", ["O", "D"])
    @pytest.mark.parametrize("example", ["E1", "E2", "E3", "E4", "E5"])
    def test_projected_oracle_matches_the_chart_oracle(self, example, bundle, seed):
        geom, u, data = subbundle(example, bundle, seed)
        M, n, k = geom.phi.source, geom.phi.source.dim, data[-1]
        rng = np.random.default_rng(seed)
        X, Y = polynomial_vector_field(n, rng), polynomial_vector_field(n, rng)
        if bundle == "O":
            P, Q = g_skew_endo_field(M, rng), g_skew_endo_field(M, rng)
            chart, extension = om_chart(M), plain_lift
            lift = extension
        else:
            J = rotation_generator(k)
            P, Q = adapted_endo_field(geom, top=0.8 * J), adapted_endo_field(geom, top=-1.3 * J)
            chart, extension = adapted_chart(M, geom.horizontal), extended_lift(geom)
            lift = lambda M, X, v: adapted_horizontal_lift(M, geom.horizontal, X, v)  # noqa: E731
        cases = [("hh", (X, Y)), ("hv", (X, Q)), ("vh", (P, Y)), ("vv", (P, Q))]
        lm = LMChart(M)
        projected = gauss_projection(M, lc_total_space_oracle(
            lm, frames_module._case_fields(M, cases, extension), u, total_space_christoffel(lm, u)), *data)
        charted = lc_total_space_oracle(chart, frames_module._case_fields(M, cases, lift), u,
                                        total_space_christoffel(chart, u))
        gap = mok_norm(*data[:2], FrameTangent.stack([a - b for a, b in zip(projected, charted)]))
        assert np.max(gap) < self.GAP[bundle]

    @settings(max_examples=40)
    @given(st.sampled_from(["E1", "E2", "E3", "E4", "E5"]), st.sampled_from(["O", "D"]),
           st.integers(0, 10**6))
    def test_idempotent_self_adjoint_and_tangent(self, example, bundle, seed):
        geom, u, data = subbundle(example, bundle, seed, count=2)
        M, n = geom.phi.source, geom.phi.source.dim
        rng = np.random.default_rng(seed)
        s, t = (FrameTangent(u, rng.standard_normal(u.base.shape), rng.standard_normal(u.columns.shape))
                for _ in range(2))
        ps, pt = gauss_projection(M, [s, t], *data)
        [ppt] = gauss_projection(M, [pt], *data)
        g, gamma, dg, P, dP, k = data
        scale = (1.0 + mok_norm(g, gamma, s)) * (1.0 + mok_norm(g, gamma, t))
        # measured over 110 draws: 6e-17, 1.3e-16 and 2.3e-12
        assert np.max(mok_norm(g, gamma, ppt - pt) / scale) < 1e-13
        assert np.max(np.abs(mok_metric(g, gamma, ps, t) - mok_metric(g, gamma, s, pt)) / scale) < 1e-13
        assert np.max(constraint_rates(g, dg, P, dP, pt, k) / scale) < 1e-10
        # the rates are the derivative of the constraints: against central differences
        h = 1e-6
        if bundle == "D":
            c = adapted_module.od_constraints(M, geom.horizontal, k)
            fd = (c(u.base + h * t.base_rate, u.columns + h * t.frame_rate)
                  - c(u.base - h * t.base_rate, u.columns - h * t.frame_rate)) / (2 * h)
            assert np.max(np.abs(np.max(np.abs(fd), axis=-1) - constraint_rates(g, dg, P, dP, t, k))
                          / scale) < 1e-5

    @pytest.mark.parametrize("bundle,tol", [("O", 1e-13), ("D", 1e-9)])
    @pytest.mark.parametrize("example", ["E1", "E2", "E3", "E4", "E5"])
    def test_leaves_tangents_of_the_subbundle_unchanged(self, example, bundle, tol):
        # X^h and g-skew P* at orthonormal frames, to roundoff (2.5e-16 measured);
        # X^h + (S_X)* and block-skew P* at adapted frames, where S carries the error of
        # its central difference of the projector at step_h (5.9e-11 measured, E3)
        geom, u, data = subbundle(example, bundle, 43)
        M, n, k = geom.phi.source, geom.phi.source.dim, data[-1]
        rng = np.random.default_rng(44)
        x = TangentVector(u.base, rng.standard_normal(u.base.shape))
        if bundle == "O":
            P = g_skew_endo_field(M, rng).eval(u.base)
            h = horizontal_lift_frame(data[1], x, u)
        else:
            P = adapted_endo_field(geom, top=rotation_generator(k), bot=rotation_generator(n - k)).eval(u.base)
            h = extended_lift(geom)(M, x, u)
        ts = [h, fundamental_vertical(P, u), h + fundamental_vertical(P, u)]
        for t, pt in zip(ts, gauss_projection(M, ts, *data)):
            assert np.max(mok_norm(*data[:2], pt - t)) < tol * (1.0 + np.max(mok_norm(*data[:2], t)))

    def test_enters_no_closed_form(self):
        geom, u, data = subbundle("E3", "D", 42)
        M = geom.phi.source
        rng = np.random.default_rng(45)
        t = FrameTangent(u, rng.standard_normal(u.base.shape), rng.standard_normal(u.columns.shape))
        entered = set()

        def profile(frame, event, arg):
            if event == "call":
                entered.add(frame.f_code.co_name)

        sys.setprofile(profile)
        try:
            gauss_projection(M, [t], *data)
        finally:
            sys.setprofile(None)
        assert "gauss_projection" in entered
        assert not entered & {"lc_connection_formula", "bracket_rhs", "L_P_applies", "curvature_R_P"}


class TestLMChartStandsAlone:
    @pytest.mark.parametrize("example", ["E1", "E2", "E3", "E4", "E5"])
    def test_tangents_are_the_identity_jacobian_product(self, example):
        # the rates split as (xdot, Edot) equal, bit for bit, the product with the chart's
        # identity Jacobian that the O(M) chart's conversion computes
        M = get(example).phi.source
        chart = LMChart(M)
        rng = np.random.default_rng(46)
        x = sample_points(M, 46, 3)
        q = chart.join(x, reference_frame(M, x) + 0.3 * rng.standard_normal((3, M.dim, M.dim)))
        qdots = rng.standard_normal((4,) + q.shape)
        for got, ref in zip(chart.chart_to_tangents(q, qdots), RatesChart.chart_to_tangents(chart, q, qdots)):
            assert np.array_equal(got.base_rate, ref.base_rate)
            assert np.array_equal(got.frame_rate, ref.frame_rate)
