import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framelift.catalog import euclidean_chart, get, sphere_chart
from framelift.fields import polynomial_vector_field
import framelift.frames as frames_module
from framelift.frames import (
    Frame,
    FrameTangent,
    fundamental_vertical,
    horizontal_lift_frame,
    mok_gram,
    mok_metric,
    reference_frame,
)
from framelift.geometry import (
    TangentVector,
    VectorField,
    _pairing_at,
    christoffel,
    constant_field,
    covariant_derivative,
    covariant_derivatives,
    directional_diff,
    metric_eval,
    sample_points,
)
from framelift.adapted import S_components
from framelift.submersion import derive_geometry, horizontal_basis, splitting_projectors, vertical_basis
from framelift.tangent import (
    connection_map_K,
    phi_second_differential_fd,
    phi_second_differential_formula,
    pi_i_differential,
    pi_i_differential_fd,
    tm_distributions,
    tm_split,
    tm_vertical_lift,
)
from jets import jet
from looping import per_point

R2 = euclidean_chart(2)
S2 = sphere_chart(2)


def tm_point(x, z):
    """The point (x, Z) of TM: the frame of the one column Z."""
    return Frame(x, np.asarray(z, dtype=float)[..., None])


def tm_tangent(Z, base_rate, fiber_rate):
    """The tangent to TM at Z with the given base and fiber rates."""
    return FrameTangent(Z, base_rate, np.asarray(fiber_rate, dtype=float)[..., None])


class TestLifts:
    def test_vertical_lift_components(self):
        p = np.array([0.1, 0.2])
        Z = tm_point(p, np.array([0.5, -0.5]))
        v = tm_vertical_lift(TangentVector(p, np.array([1.0, 0.0])), Z)
        assert np.array_equal(v.base_rate, [0.0, 0.0])
        assert np.array_equal(v.frame_rate[..., 0], [1.0, 0.0])

    def test_zero_vector(self):
        p = np.zeros(2)
        Z = tm_point(p, np.array([1.0, 1.0]))
        v = tm_vertical_lift(TangentVector(p, np.zeros(2)), Z)
        assert np.max(np.abs(v.frame_rate[..., 0])) == 0.0

    def test_base_mismatch(self):
        Z = tm_point(np.zeros(2), np.ones(2))
        with pytest.raises(ValueError):
            tm_vertical_lift(TangentVector(np.ones(2), np.ones(2)), Z)

    def test_horizontal_flat(self):
        p = np.array([0.3, 0.3])
        Z = tm_point(p, np.array([0.0, 1.0]))
        h = horizontal_lift_frame(christoffel(R2, Z.base), TangentVector(p, np.array([1.0, 0.0])), Z)
        assert np.array_equal(h.base_rate, [1.0, 0.0])
        assert np.max(np.abs(h.frame_rate[..., 0])) == 0.0

    def test_horizontal_sphere_origin(self):
        Z = tm_point(np.zeros(2), np.array([0.7, 0.1]))
        h = horizontal_lift_frame(christoffel(S2, Z.base), TangentVector(np.zeros(2), np.array([0.2, 0.9])), Z)
        assert np.max(np.abs(h.frame_rate[..., 0])) < 1e-14

    def test_K_annihilates_horizontal(self):
        p = np.array([0.4, -0.2])
        Z = tm_point(p, np.array([0.3, 0.8]))
        h = horizontal_lift_frame(christoffel(S2, Z.base), TangentVector(p, np.array([1.0, -1.0])), Z)
        assert np.max(np.abs(connection_map_K(christoffel(S2, p), h).components)) < 1e-14

    def test_K_recovers_vertical(self):
        p = np.array([0.4, -0.2])
        Z = tm_point(p, np.array([0.3, 0.8]))
        x = np.array([0.6, 0.5])
        v = tm_vertical_lift(TangentVector(p, x), Z)
        assert np.allclose(connection_map_K(christoffel(S2, p), v).components, x)

    def test_K_flat_is_fiber_rate(self):
        Z = tm_point(np.zeros(2), np.ones(2))
        t = tm_tangent(Z, np.array([1.0, 2.0]), np.array([3.0, 4.0]))
        assert np.allclose(connection_map_K(christoffel(R2, Z.base), t).components, [3.0, 4.0])

    def test_K_of_field_differential(self):
        # K applied to the differential of a section recovers its derivative
        rng = np.random.default_rng(7)
        Zf = polynomial_vector_field(2, rng, exact_jacobian=False)
        for p in sample_points(S2, 3, 10):
            x = rng.standard_normal(2)
            zr = directional_diff(per_point(Zf.eval), p, x, 1e-5)
            t = tm_tangent(tm_point(p, Zf.eval(p)), x, zr)
            gamma = christoffel(S2, p)
            got = connection_map_K(gamma, t).components
            expect = covariant_derivative(S2, VectorField(eval=lambda q: x), Zf, p, gamma).components
            assert np.max(np.abs(got - expect)) < 1e-7

    def test_splitting_exact(self):
        p = np.array([0.2, 0.5])
        Z = tm_point(p, np.array([-0.4, 0.9]))
        t = tm_tangent(Z, np.array([1.2, -0.7]), np.array([0.3, 0.8]))
        h, v = tm_split(christoffel(S2, p), t)
        rec = h + v
        assert np.max(np.abs(rec.base_rate - t.base_rate)) == 0.0
        assert np.max(np.abs(rec.frame_rate[..., 0] - t.frame_rate[..., 0])) < 1e-15


class TestSasakiMok:
    def test_horizontal_pair_flat(self):
        p = np.zeros(2)
        Z = tm_point(p, np.array([1.0, 0.0]))
        h1 = horizontal_lift_frame(christoffel(R2, Z.base), TangentVector(p, np.array([1.0, 0.0])), Z)
        h2 = horizontal_lift_frame(christoffel(R2, Z.base), TangentVector(p, np.array([0.0, 1.0])), Z)
        assert mok_metric(*jet(R2, h1.at.base), h1, h2) == 0.0

    def test_mixed_pair_zero(self):
        p = np.array([0.3, -0.3])
        Z = tm_point(p, np.array([0.2, 0.2]))
        h = horizontal_lift_frame(christoffel(S2, Z.base), TangentVector(p, np.array([1.0, 2.0])), Z)
        v = tm_vertical_lift(TangentVector(p, np.array([-1.0, 1.0])), Z)
        assert abs(mok_metric(*jet(S2, h.at.base), h, v)) < 1e-14

    def test_vertical_norm(self):
        p = np.array([0.1, 0.1])
        Z = tm_point(p, np.zeros(2))
        x = np.array([0.7, -0.2])
        v = tm_vertical_lift(TangentVector(p, x), Z)
        g = metric_eval(S2, p)
        assert abs(mok_metric(*jet(S2, v.at.base), v, v) - float(x @ g @ x)) < 1e-14


class TestOneColumnFrames:
    """TM is the bundle of one-column frames: the frame bundle's Mok metric on them is the
    Sasaki-Mok metric, and its Gram table pairs them the same way."""

    @settings(max_examples=60)
    @given(st.sampled_from(["E1", "E2", "E3", "E4", "E5"]), st.integers(0, 2**32 - 1))
    def test_mok_metric_is_sasaki_mok_bit_for_bit(self, eid, seed):
        M = get(eid).phi.source
        rng = np.random.default_rng(seed)
        p = sample_points(M, seed % 1000, 1)[0]
        Z = tm_point(p, rng.standard_normal(M.dim))
        s, t = (tm_tangent(Z, *rng.standard_normal((2, M.dim))) for _ in range(2))
        Ks, Kt = (connection_map_K(christoffel(M, p), r).components for r in (s, t))
        g = metric_eval(M, p)
        G = mok_gram(*jet(M, p), [s, t])
        assert mok_metric(*jet(M, p), s, t) == G[0, 1]
        sasaki_mok = _pairing_at(g, s.base_rate, t.base_rate) + _pairing_at(g, Ks, Kt)
        assert abs(G[0, 1] - sasaki_mok) <= 1e-14 * np.sqrt(G[0, 0] * G[1, 1])

    def test_frame_takes_any_number_of_columns_with_one_row_per_dimension(self):
        for m in (1, 2, 3):
            assert Frame(np.zeros(3), np.ones((3, m))).vector(m - 1).shape == (3,)
        for columns in (np.ones((2, 1)), np.ones((4, 1)), np.ones((3, 0)), np.ones(3),
                        np.ones((2, 3, 1))):
            with pytest.raises(ValueError):
                Frame(np.zeros(3), columns)
        with pytest.raises(ValueError):  # a stack of points takes a stack of column blocks
            Frame(np.zeros((2, 3)), np.ones((3, 1)))


class TestSecondDifferential:
    def test_identity_map(self):
        from framelift.submersion import SubmersionSpec
        ident = SubmersionSpec(source=R2, target=R2, map=lambda p: p.copy(),
                               jacobian=lambda p: np.eye(2), vertical_fields=[])
        Z = tm_point(np.array([0.2, 0.3]), np.array([0.5, -0.5]))
        t = tm_tangent(Z, np.array([1.0, 2.0]), np.array([3.0, 4.0]))
        out = phi_second_differential_fd(ident, t)
        assert np.allclose(out.base_rate, t.base_rate, atol=1e-9)
        assert np.allclose(out.frame_rate[..., 0], t.frame_rate[..., 0], atol=1e-9)

    def test_linear_projection(self):
        e1 = get("E1")
        Z = tm_point(np.array([0.1, 0.2, 0.3]), np.array([1.0, -1.0, 2.0]))
        t = tm_tangent(Z, np.array([0.5, 0.6, 0.7]), np.array([-0.1, 0.2, -0.3]))
        out = phi_second_differential_fd(e1.phi, t)
        assert np.allclose(out.base_rate, [0.5, 0.6], atol=1e-10)
        assert np.allclose(out.frame_rate[..., 0], [-0.1, 0.2], atol=1e-10)

    def test_vertical_case_fiber_rate(self):
        e3 = get("E3")
        rng = np.random.default_rng(8)
        p = sample_points(e3.phi.source, 5, 1)[0]
        Z = tm_point(p, rng.standard_normal(3))
        x = rng.standard_normal(3)
        out = phi_second_differential_formula(e3.phi, "vertical", TangentVector(p, x), Z)
        from framelift.submersion import differential_matrix
        J = differential_matrix(e3.phi, p)
        assert np.allclose(out.frame_rate[..., 0], J @ x)
        assert np.max(np.abs(out.base_rate)) == 0.0

    @pytest.mark.parametrize("eid", ["E1", "E2", "E3", "E4", "E5"])
    @pytest.mark.parametrize("kind", ["vertical", "horizontal"])
    def test_formula_vs_fd(self, eid, kind):
        e = get(eid)
        rng = np.random.default_rng(9)
        for p in sample_points(e.phi.source, 6, 4):
            Z = tm_point(p, 0.6 * rng.standard_normal(e.phi.source.dim))
            X = TangentVector(p, rng.standard_normal(e.phi.source.dim))
            t = (tm_vertical_lift(X, Z) if kind == "vertical"
                 else horizontal_lift_frame(christoffel(e.phi.source, Z.base), X, Z))
            fd = phi_second_differential_fd(e.phi, t)
            fm = phi_second_differential_formula(e.phi, kind, X, Z)
            d = fd - fm
            assert max(np.max(np.abs(d.base_rate)), np.max(np.abs(d.frame_rate[..., 0]))) < 5e-4

    def test_warped_mixed_term_nonzero(self):
        # horizontal input with a vertical fiber point picks up the
        # second-fundamental-form correction on the warped example
        e4 = get("E4")
        p = np.array([0.0, 0.3])
        Z = tm_point(p, np.array([0.0, 1.0]))
        X = TangentVector(p, np.array([0.0, 1.0]))
        out = phi_second_differential_formula(e4.phi, "horizontal", X, Z)
        assert np.max(np.abs(out.frame_rate[..., 0])) > 0.5


class TestSasakiGram:
    @settings(max_examples=60)
    @given(st.sampled_from(["E1", "E2", "E3", "E4", "E5"]), st.integers(0, 2**32 - 1))
    def test_one_column_lift_gram_is_pairwise_sasaki_mok(self, eid, seed):
        # the Mok lift Gram on frames of the single column Z is the Sasaki-Mok metric
        M = get(eid).phi.source
        rng = np.random.default_rng(seed)
        Z = tm_point(sample_points(M, seed % 1000, 1)[0], rng.standard_normal(M.dim))
        X, F = rng.standard_normal((2, 4, M.dim))
        G = frames_module._gram(*jet(M, Z.base), Z.columns, X, F[:, :, None])
        ts = [tm_tangent(Z, x, f) for x, f in zip(X, F)]
        pairwise = np.array([[mok_metric(*jet(M, s.at.base), s, t) for t in ts] for s in ts])
        assert np.max(np.abs(G - pairwise)) < 1e-12 * max(1.0, np.max(np.abs(pairwise)))
        # the same table from one call on the stacks of its pairs
        table = mok_metric(*jet(M, Z.base), FrameTangent.stack([s for s in ts for _ in ts]), FrameTangent.stack(ts * 4))
        assert np.array_equal(table.reshape(4, 4), pairwise)


def distribution_jet(geom, p):
    """(S, g, Gamma) at one point p: ``S_components``, the metric and the Christoffel
    symbols, as a caller of ``tm_distributions`` builds them."""
    M, D = geom.phi.source, geom.horizontal
    g, gamma = jet(M, p)
    return S_components(M, D, p, gamma, D.projector(p)), g, gamma


def field_level_bases(geom, Z):
    """The kernel, its constant-extension reading and the displayed h-side by their
    field-level definition: each basis vector e of V (part 0) or H (part 1) lifted that
    way, then lifted the other way plus that way's lift of the other projection of
    nabla_Z of an extension of e, differenced by ``covariant_derivatives``.  The
    extension is Pi_part(q) e, or for the constant-extension reading the constant field e."""
    M, p = geom.phi.source, Z.base

    def projected(part):
        return lambda x: VectorField(eval=lambda q: splitting_projectors(geom.phi, q)[part] @ x)

    def lifted(part, extend):
        basis = (vertical_basis, horizontal_basis)[part](geom, p)
        Pi = splitting_projectors(geom.phi, p)[1 - part]
        lifts = (lambda e: tm_vertical_lift(e, Z)), (lambda e: horizontal_lift_frame(christoffel(M, Z.base), e, Z))
        same, other = lifts[part], lifts[1 - part]
        nabs = covariant_derivatives(
            M, [(constant_field(Z.vector(0)), extend(e.components)) for e in basis], p, christoffel(M, p))
        return [same(e) for e in basis] + [other(e) + same(TangentVector(p, Pi @ nab.components))
                                           for e, nab in zip(basis, nabs)]

    kernel = lifted(0, projected(0))
    return kernel, lifted(0, constant_field)[len(kernel) // 2:], lifted(1, projected(1))


def rates(basis):
    """The rows (base rate, fiber rate) of a list of tangents to TM."""
    return np.array([np.concatenate([t.base_rate, t.frame_rate[:, 0]]) for t in basis])


class TestDistributions:
    @pytest.mark.parametrize("eid", ["E1", "E2", "E3", "E4", "E5"])
    def test_kernel_and_dims(self, eid):
        e = get(eid)
        geom = derive_geometry(e.phi)
        rng = np.random.default_rng(10)
        n, k = e.phi.source.dim, e.phi.target.dim
        for p in sample_points(e.phi.source, 7, 2):
            Z = tm_point(p, 0.5 * rng.standard_normal(n))
            Vb, Hb, const_ext, shown = tm_distributions(geom, Z, *distribution_jet(geom, p))
            assert (len(Vb), len(Hb), len(const_ext), len(shown)) == (2 * (n - k), 2 * k, n - k, 2 * k)
            for v in Vb:
                img = phi_second_differential_fd(e.phi, v)
                assert max(np.max(np.abs(img.base_rate)), np.max(np.abs(img.frame_rate[..., 0]))) < 5e-4
            for v in Vb:
                for h in Hb:
                    assert abs(mok_metric(*jet(e.phi.source, v.at.base), v, h)) < 1e-6

    @pytest.mark.parametrize("eid", ["E1", "E2", "E3", "E4", "E5"])
    def test_bases_match_the_field_level_definition(self, eid):
        # S_Z e for vertical e is the horizontal part of nabla_Z of a vertical extension,
        # and for horizontal e the vertical part of nabla_Z of a horizontal one
        geom = derive_geometry(get(eid).phi)
        M = geom.phi.source
        rng = np.random.default_rng(12)
        for p in sample_points(M, 13, 3):
            Z = tm_point(p, 0.7 * rng.standard_normal(M.dim))
            Vb, _, const_ext, shown = tm_distributions(geom, Z, *distribution_jet(geom, p))
            for got, want in zip((Vb, const_ext, shown), field_level_bases(geom, Z)):
                assert np.max(np.abs(rates(got) - rates(want))) <= 1e-9 * np.max(np.abs(rates(want)))

    def test_flat_projection_kernel_structure(self):
        # kernel of the flat projection: vertical and horizontal lifts of e3
        geom = derive_geometry(get("E1").phi)
        p = np.array([0.1, 0.2, 0.3])
        Vb, *_ = tm_distributions(geom, tm_point(p, np.array([0.4, 0.5, 0.6])), *distribution_jet(geom, p))
        span = rates(Vb).T
        expect_a = np.concatenate([np.zeros(3), [0, 0, 1.0]])
        expect_b = np.concatenate([[0, 0, 1.0], np.zeros(3)])
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
            t = horizontal_lift_frame(christoffel(S2, u.base), TangentVector(p, x), u) + fundamental_vertical(P, u)
            lemma = pi_i_differential(S2, t, i)
            fd = pi_i_differential_fd(S2, t, i)
            d = lemma - fd
            assert max(np.max(np.abs(d.base_rate)), np.max(np.abs(d.frame_rate[..., 0]))) < 1e-8

    def test_riemannian_submersion_property(self):
        # isometric on horizontal lifts, kills the complementary verticals
        p = np.array([0.2, 0.2])
        u = Frame(p, reference_frame(S2, p))
        x = np.array([0.8, -0.3])
        th = horizontal_lift_frame(christoffel(S2, u.base), TangentVector(p, x), u)
        for i in range(2):
            img = pi_i_differential(S2, th, i)
            assert abs(mok_metric(*jet(S2, p), th, th) - mok_metric(*jet(S2, p), img, img)) < 1e-12
        # an endomorphism killing column 0 generates a vertical direction in
        # the kernel of the first column projection
        g = metric_eval(S2, p)
        dual1 = g @ u.columns[:, 1]  # covector with <dual1, u_i> = delta_1i
        P = np.outer(u.columns[:, 1], dual1)  # u0 -> 0, u1 -> u1
        tv = fundamental_vertical(P, u)
        img = pi_i_differential(S2, tv, 0)
        assert np.max(np.abs(img.frame_rate[..., 0])) < 1e-12
        assert np.max(np.abs(img.base_rate)) < 1e-12
        # while pi^1 sees it
        assert np.max(np.abs(pi_i_differential(S2, tv, 1).frame_rate[..., 0])) > 0.1
