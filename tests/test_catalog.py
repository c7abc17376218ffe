import dataclasses

import numpy as np
import pytest

from framelift.catalog import (
    CatalogEntry,
    coordinate_projection,
    entries,
    euclidean_chart,
    get,
    hopf_jacobian,
    hopf_map,
    sphere_chart,
    warped_plane_chart,
)
from framelift.geometry import central_diff, metric_eval, sample_points
from framelift.submersion import lift_conformal_rule, lift_harmonic_morphism_rule


class TestRegistry:
    def test_ids_unique_and_sorted(self):
        ids = [e.id for e in entries()]
        assert ids == sorted(ids)
        assert len(ids) == len(set(ids)) == 5

    def test_get_known(self):
        assert get("E3").phi.name == "hopf"

    def test_get_unknown(self):
        with pytest.raises(KeyError):
            get("bogus")

    def test_flag_consistency_enforced(self):
        # the lift flags are read from the rules, so no entry can declare one
        with pytest.raises(TypeError):
            dataclasses.replace(get("E1"), lift_conformal=False)
        for e in entries():
            lam_const = e.expected_lambda is not None
            assert e.lift_conformal is lift_conformal_rule(lam_const, lam_const, e.totally_geodesic)
            assert e.lift_harmonic_morphism is lift_harmonic_morphism_rule(
                e.harmonic_morphism, e.totally_geodesic, lam_const)


class TestCoordinateProjection:
    @pytest.mark.parametrize("factor", [1.0, 2.0])
    @pytest.mark.parametrize("n, k", [(3, 2), (2, 1), (4, 2)])
    def test_map_jacobian_and_kernel_fields(self, n, k, factor):
        phi = coordinate_projection(euclidean_chart(n), euclidean_chart(k), factor, "projection")
        p = np.random.default_rng(3).uniform(-1.0, 1.0, (2, 5, n))
        J = phi.jacobian(p)
        V = np.stack([v.eval(p) for v in phi.vertical_fields], axis=-1)
        assert np.array_equal(phi.value(p), factor * p[..., :k])
        assert J.shape == (2, 5, k, n)
        assert np.array_equal(J, np.broadcast_to(factor * np.eye(k, n), J.shape))
        assert np.array_equal(V, np.broadcast_to(np.eye(n)[:, k:], V.shape))
        assert np.array_equal(J @ V, np.zeros((2, 5, k, n - k)))


class TestChartData:
    @pytest.mark.parametrize("eid", ["E1", "E2", "E3", "E4", "E5"])
    def test_metric_derivatives_match_fd(self, eid):
        e = get(eid)
        for M in (e.phi.source, e.phi.target):
            for p in sample_points(M, 50, 5):
                fd = central_diff(M.metric_field, p, 1e-5)
                assert np.max(np.abs(fd - M.metric_derivative(p))) < 1e-6

    @pytest.mark.parametrize("eid", ["E1", "E2", "E3", "E4", "E5"])
    def test_frames_orthonormal(self, eid):
        e = get(eid)
        for M in (e.phi.source, e.phi.target):
            for p in sample_points(M, 51, 5):
                E = M.orthonormal_frame(p)
                g = metric_eval(M, p)
                assert np.max(np.abs(E.T @ g @ E - np.eye(M.dim))) < 1e-12

    @pytest.mark.parametrize("eid", ["E1", "E2", "E3", "E4", "E5"])
    def test_samples_stay_in_both_domains(self, eid):
        e = get(eid)
        for p in sample_points(e.phi.source, 53, 30):
            assert e.phi.source.contains(p)
            assert e.phi.target.contains(e.phi.value(p))

    @pytest.mark.parametrize("eid", ["E1", "E2", "E3", "E4", "E5"])
    def test_full_rank(self, eid):
        e = get(eid)
        for p in sample_points(e.phi.source, 54, 10):
            J = e.phi.jacobian(p)
            assert np.linalg.matrix_rank(J) == e.phi.target.dim


class TestHopfMap:
    def test_lands_on_unit_direction_sphere(self):
        # the intermediate ambient image is a unit vector, so the chart
        # composition is well defined wherever sampled
        from framelift.catalog import _stereo_inverse_s3
        from hopf_composite import _hopf_ambient
        for p in sample_points(get("E3").phi.source, 55, 20):
            m = _hopf_ambient(_stereo_inverse_s3(p))
            assert abs(np.linalg.norm(m) - 1.0) < 1e-12

    def test_fiber_invariance(self):
        # the Hopf value is constant along the circle action upstairs
        from framelift.catalog import _stereo_inverse_s3
        rng = np.random.default_rng(56)
        for p in sample_points(get("E3").phi.source, 57, 5):
            P = _stereo_inverse_s3(p)
            z1 = complex(P[0], P[1])
            z2 = complex(P[2], P[3])
            t = rng.random() * 2.0 * np.pi
            w1, w2 = np.exp(1j * t) * z1, np.exp(1j * t) * z2
            Q = np.array([w1.real, w1.imag, w2.real, w2.imag])
            q_chart = Q[:3] / (1.0 - Q[3])
            assert np.max(np.abs(hopf_map(p) - hopf_map(q_chart))) < 1e-9

    def test_jacobian_consistency(self):
        for p in sample_points(get("E3").phi.source, 58, 5):
            fd = central_diff(hopf_map, p, 1e-6).T
            assert np.max(np.abs(fd - hopf_jacobian(p))) < 1e-7

    def test_riemannian_submersion_normalization(self):
        # unit tangent circles upstairs map isometrically onto the
        # half-radius sphere thanks to the quarter metric scaling
        from framelift.adapted import adapted_frame
        from framelift.submersion import derive_geometry, dilatation
        e = get("E3")
        geom = derive_geometry(e.phi)
        for p in sample_points(e.phi.source, 59, 5):
            lam, defect = dilatation(geom, adapted_frame(e.phi.source, geom.horizontal, p))
            assert abs(lam - 1.0) < 1e-9
            assert defect < 1e-9


class TestChartBuilders:
    def test_sphere_scaling(self):
        S_half = sphere_chart(2, scale=0.25)
        g = metric_eval(S_half, np.zeros(2))
        assert np.allclose(g, np.eye(2))

    def test_warped_derivative(self):
        W = warped_plane_chart()
        p = np.array([0.7, -0.2])
        d = W.metric_derivative(p)
        assert abs(d[0, 1, 1] - 2.0 * np.exp(1.4)) < 1e-12

    def test_euclidean_dimensions(self):
        for n in (1, 2, 3):
            M = euclidean_chart(n)
            assert M.dim == n
            assert np.allclose(metric_eval(M, np.zeros(n)), np.eye(n))


class TestPointChecks:
    """The theorems suite's point checks are plain data on the entry whose row they make."""

    SET_ON = {"tension_zero": ["E3"], "tension_unit_at": ["E4"],
              "lift_tension_at": ["E1"], "lift_tension_normal": ["E1"]}

    def test_each_is_set_on_the_entry_that_has_the_row(self):
        fields = {f.name: f.default for f in dataclasses.fields(CatalogEntry)}
        for name, ids in self.SET_ON.items():
            assert [e.id for e in entries() if getattr(e, name) != fields[name]] == ids

    def test_each_is_plain_python_data(self):
        for e in entries():
            assert isinstance(e.tension_zero, bool)
            for point in (e.tension_unit_at, e.lift_tension_at):
                assert point is None or (isinstance(point, tuple)
                                         and all(type(c) is float for c in point))
            assert e.lift_tension_normal is None or isinstance(e.lift_tension_normal, float)

    @pytest.mark.parametrize("eid", ["E1", "E2", "E3", "E4", "E5"])
    def test_points_lie_in_the_source_chart(self, eid):
        e = get(eid)
        for point in (e.tension_unit_at, e.lift_tension_at):
            if point is not None:
                assert len(point) == e.phi.source.dim and e.phi.source.contains(np.array(point))
