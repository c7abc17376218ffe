import dataclasses
import itertools

import numpy as np
import pytest

import framelift.adapted as adapted_module
import framelift.submersion as submersion_module
import framelift.suites as suites_module
from framelift.adapted import (
    DistributionSpec,
    S_components,
    W_endo,
    W_inverse_apply,
    adapted_frame,
    adapted_horizontal_lift,
)
from framelift.catalog import euclidean_chart, get
from framelift.frames import (
    Frame,
    fundamental_vertical,
    induced_metric_on_chart,
    mok_metric,
    mok_norm,
    skew_basis,
)
import framelift.geometry as geometry_module
from framelift.geometry import (
    DomainError,
    TangentVector,
    VectorField,
    christoffel,
    christoffel_contract,
    constant_field,
    covariant_derivative,
    directional_diff,
    metric_eval,
    orthonormalizer,
    sample_points,
)
from framelift.submersion import (
    A_identity_residuals,
    A_Y_endos,
    Pi_X_endo,
    Pi_X_endo_alt,
    SubmersionSpec,
    adapted_endo_field,
    classify,
    derive_geometry,
    differential_matrix,
    dilatation,
    div_bot,
    fiber_second_fundamental_defect,
    fiber_second_fundamental_form,
    horizontal_basis,
    lift_conformal_rule,
    lift_conformality_measurement,
    lift_differential_fd,
    lift_differential_formula,
    lift_distributions,
    lift_harmonic_morphism_rule,
    lift_map,
    lift_tension_direct,
    mean_curvature_fibers,
    pushforward_endo,
    second_fundamental_form,
    second_fundamental_tensor,
    splitting,
    splitting_projectors,
    tension_conformal_display,
    tension_field,
    vertical_basis,
)
from framelift.suites import suite_theorems
from jets import jet
from lift_tension import lift_tension_by_columns
from pullback import horizontal_lift_matrix, pullback_connection
from scan import readers

E = {eid: get(eid) for eid in ("E1", "E2", "E3", "E4", "E5")}
GEOM = {eid: derive_geometry(e.phi) for eid, e in E.items()}


def framed(geom, p):
    """The adapted frame of the geometry at p."""
    return adapted_frame(geom.phi.source, geom.horizontal, p)


def S_at(geom, p):
    """S_components of the horizontal distribution at the point or stack p."""
    M, D = geom.phi.source, geom.horizontal
    return S_components(M, D, p, christoffel(M, p), D.projector(p))


def Pi_at(geom, p):
    """The horizontal projector at the point or stack p, as a caller holds it."""
    return geom.horizontal.projector(p)


def split_at(geom, p):
    """(J, L, Pi_H) of the submersion at the point or stack p, as a caller holds them."""
    return splitting(geom.phi, p)


def held(geom, p):
    """Gamma and the horizontal projector at the point or stack p, as a caller holds them."""
    return christoffel(geom.phi.source, p), Pi_at(geom, p)


def stacked(p, value):
    """A copy of the constant ``value`` for each point of p (..., dim)."""
    return np.zeros(np.shape(p)[:-1] + (1,) * value.ndim) + value


def entry_point(eid, seed=21, idx=0):
    return sample_points(E[eid].phi.source, seed, idx + 1)[idx]


class TestDifferential:
    def test_fd_vs_exact_jacobian_hopf(self):
        from framelift.geometry import central_diff
        phi = E["E3"].phi
        for p in sample_points(phi.source, 22, 5):
            fd = central_diff(phi.map, p, 1e-5).T
            assert np.max(np.abs(fd - phi.jacobian(p))) < 1e-6


class TestSpecsAreComplete:
    """A submersion's exact Jacobian and kernel fields, and a distribution's seed frame,
    are required: no construction falls back to differences or projected coordinates."""

    @pytest.mark.parametrize("missing", ["jacobian", "vertical_fields"])
    def test_a_submersion_without_its_exact_inputs_is_refused(self, missing):
        R2 = euclidean_chart(2)
        given = {"jacobian": lambda p: stacked(p, np.eye(2)), "vertical_fields": []}
        del given[missing]
        with pytest.raises(TypeError, match=missing):
            SubmersionSpec(source=R2, target=R2, map=lambda p: p.copy(), **given)

    def test_a_distribution_without_a_seed_frame_is_refused(self):
        with pytest.raises(TypeError, match="seed_frame"):
            DistributionSpec(rank=1, projector_field=lambda p: stacked(p, np.diag([1.0, 0.0])))

    def test_only_the_name_has_a_default(self):
        def defaulted(cls):
            return [f.name for f in dataclasses.fields(cls) if f.default is not dataclasses.MISSING]

        assert (defaulted(SubmersionSpec), defaulted(DistributionSpec)) == (["name"], [])


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

    def test_the_split_lifts_the_differential_onto_the_horizontal_space(self):
        for eid in E:
            phi, p = E[eid].phi, entry_point(eid)
            J, L, Pi_H = splitting(phi, p)
            assert np.array_equal(J, differential_matrix(phi, p))
            assert np.array_equal(Pi_H, splitting_projectors(phi, p)[1])
            assert np.max(np.abs(J @ L - np.eye(phi.target.dim))) < 1e-12
            assert np.max(np.abs(L @ J - Pi_H)) < 1e-12

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
                lam, defect = dilatation(GEOM[eid], framed(GEOM[eid], p))
                assert abs(lam - expect) < 1e-8
                assert defect < 1e-8

    def test_composition_law(self):
        # the homothety-projection factors as a flat projection followed by a
        # plane scaling; dilatations multiply along the composition
        R3 = euclidean_chart(3)
        R2a = euclidean_chart(2)
        R2b = euclidean_chart(2, half_width=3.5)
        proj = SubmersionSpec(source=R3, target=R2a, map=lambda p: p[..., :2].copy(),
                              jacobian=lambda p: stacked(p, np.eye(2, 3)),
                              vertical_fields=[constant_field(np.array([0.0, 0.0, 1.0]))])
        scale = SubmersionSpec(source=R2a, target=R2b, map=lambda p: 2.0 * p,
                               jacobian=lambda p: stacked(p, 2.0 * np.eye(2)),
                               vertical_fields=[])
        p = np.array([0.2, -0.4, 0.6])
        geoms = [derive_geometry(proj), derive_geometry(scale), GEOM["E5"]]
        lam_proj, lam_scale, lam_comp = (dilatation(geom, framed(geom, q))[0]
                                         for geom, q in zip(geoms, (p, p[:2], p)))
        assert abs(lam_comp - lam_proj * lam_scale) < 1e-6


class TestPullbackConnection:
    def test_flat_target_is_directional_derivative(self):
        phi = E["E1"].phi
        p = np.array([0.3, -0.2, 0.5])
        W = lambda q: np.stack([q[..., 0] ** 2, q[..., 1] * q[..., 2]], axis=-1)
        X = TangentVector(p, np.array([1.0, 0.0, 2.0]))
        out = pullback_connection(phi, X, W)
        expect = np.array([2.0 * p[0] * 1.0, p[2] * 0.0 + p[1] * 2.0])
        assert np.max(np.abs(out - expect)) < 1e-8

    def test_product_rule(self):
        phi = E["E3"].phi
        rng = np.random.default_rng(25)
        p = entry_point("E3")
        W = lambda q: np.stack([np.sin(q[..., 0]), q[..., 1] * q[..., 2]], axis=-1)
        f = lambda q: 1.0 + 0.5 * q[..., 0] - 0.2 * q[..., 1]
        df = np.array([0.5, -0.2, 0.0])
        x = rng.standard_normal(3)
        X = TangentVector(p, x)
        lhs = pullback_connection(phi, X, lambda q: f(q)[..., None] * W(q))
        rhs = float(df @ x) * W(p) + f(p) * pullback_connection(phi, X, W)
        assert np.max(np.abs(lhs - rhs)) < 1e-6


class TestSecondFundamentalForm:
    @pytest.mark.parametrize("eid", ["E1", "E2", "E3", "E4", "E5"])
    def test_tensor_equals_the_pullback_connection_construction(self, eid):
        # nabla d(phi)(X, Y) = nabla^phi_X (phi_* Y) - phi_*(nabla_X Y) for constant X, Y
        phi = E[eid].phi
        M = phi.source
        rng = np.random.default_rng(28)
        for p in sample_points(M, 28, 2):
            x, y = rng.standard_normal((2, M.dim))
            pushed = lambda q: differential_matrix(phi, q) @ y  # noqa: E731
            nab = covariant_derivative(M, constant_field(x), constant_field(y), p).components
            want = pullback_connection(phi, TangentVector(p, x), pushed) - differential_matrix(phi, p) @ nab
            got = np.einsum("cij,i,j->c", second_fundamental_tensor(phi, p), x, y)
            assert np.max(np.abs(got - want)) < 1e-6

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
            [A] = A_Y_endos([Y.components], S_at(GEOM[eid], p), Pi_at(GEOM[eid], p))
            assert np.max(np.abs(A)) < 1e-8

    def test_identity_with_corrected_sign(self):
        for eid in ("E2", "E3", "E4"):
            p = entry_point(eid)
            for X in horizontal_basis(GEOM[eid], p):
                for Y in vertical_basis(GEOM[eid], p):
                    [res] = A_identity_residuals(GEOM[eid], [X.components], [Y.components], p,
                                                 second_fundamental_tensor(E[eid].phi, p),
                                                 S_at(GEOM[eid], p), Pi_at(GEOM[eid], p))
                    assert res["asserted"] < 5e-4

    def test_printed_sign_fails_on_hopf(self):
        p = entry_point("E3")
        X = horizontal_basis(GEOM["E3"], p)[0]
        Y = vertical_basis(GEOM["E3"], p)[0]
        B = second_fundamental_tensor(E["E3"].phi, p)
        assert A_identity_residuals(GEOM["E3"], [X.components], [Y.components], p, B,
                                    S_at(GEOM["E3"], p), Pi_at(GEOM["E3"], p))[0]["printed"] > 0.1

    def test_rejects_horizontal_argument(self):
        p = entry_point("E3")
        X = horizontal_basis(GEOM["E3"], p)[0]
        with pytest.raises(ValueError):
            A_Y_endos([X.components], S_at(GEOM["E3"], p), Pi_at(GEOM["E3"], p))


class TestPiXEndo:
    def test_totally_geodesic_zero(self):
        rng = np.random.default_rng(28)
        for eid in ("E1", "E2", "E5"):
            p = entry_point(eid)
            B = second_fundamental_tensor(E[eid].phi, p)
            assert np.max(np.abs(Pi_X_endo(split_at(GEOM[eid], p), rng.standard_normal(3), B))) < 1e-7

    def test_displays_agree(self):
        rng = np.random.default_rng(29)
        for eid in ("E3", "E4"):
            p = entry_point(eid)
            n = E[eid].phi.source.dim
            X = TangentVector(p, rng.standard_normal(n))
            split = split_at(GEOM[eid], p)
            a = Pi_X_endo(split, X.components, second_fundamental_tensor(E[eid].phi, p))
            b = Pi_X_endo_alt(GEOM[eid], X, split)
            assert np.max(np.abs(a - b)) < 5e-4

    @pytest.mark.parametrize("eid", ["E1", "E2", "E3", "E4", "E5"])
    def test_alt_display_equals_the_per_column_construction(self, eid):
        # column j is lift(nabla^phi_X phi_* Y_j) - (nabla_X Y_j)^top for Y_j = Pi_H d_j,
        # one pullback_connection per column; the batched stencil rounds J Pi_H as a
        # matrix product, which the 1e-5 step amplifies to about 1e-11
        phi = GEOM[eid].phi
        n = phi.source.dim
        rng = np.random.default_rng(31)
        for p in sample_points(phi.source, 31, 2):
            X = TangentVector(p, rng.standard_normal(n))
            _, Pi_H = splitting_projectors(phi, p)
            gx = christoffel_contract(christoffel(phi.source, p), X.components)
            cols = []
            for j in range(n):
                def Y(q, j=j):
                    return splitting_projectors(phi, q)[1][..., :, j]

                def pushed(q, Y=Y):
                    return (differential_matrix(phi, q) @ Y(q)[..., None])[..., 0]

                nab = directional_diff(Y, p, X.components, 1e-5) + gx @ Y(p)
                cols.append(horizontal_lift_matrix(phi, p) @ pullback_connection(phi, X, pushed)
                            - Pi_H @ nab)
            want = np.stack(cols, axis=-1) @ Pi_H
            assert np.max(np.abs(Pi_X_endo_alt(GEOM[eid], X, splitting(phi, p)) - want)) < 1e-9

    def test_linearity(self):
        p = entry_point("E3")
        x, y = np.random.default_rng(30).standard_normal((2, 3))
        B, split = second_fundamental_tensor(E["E3"].phi, p), split_at(GEOM["E3"], p)
        a = Pi_X_endo(split, x, B)
        b = Pi_X_endo(split, y, B)
        c = Pi_X_endo(split, 2.0 * x - 0.5 * y, B)
        assert np.max(np.abs(c - (2.0 * a - 0.5 * b))) < 1e-6


class TestPushforward:
    def test_identity(self):
        split = split_at(GEOM["E3"], entry_point("E3"))
        out = pushforward_endo(split, split[2])
        assert np.max(np.abs(out - np.eye(2))) < 1e-10

    def test_diagonal_scaling_commutes(self):
        p = np.array([0.1, 0.2, 0.3])
        P0 = np.diag([0.5, 2.0, 0.0])
        out = pushforward_endo(split_at(GEOM["E5"], p), P0)
        assert np.allclose(out, np.diag([0.5, 2.0]), atol=1e-12)

    def test_multiplicative(self):
        rng = np.random.default_rng(31)
        split = split_at(GEOM["E3"], entry_point("E3"))
        Pi_H = split[2]
        P0 = Pi_H @ rng.standard_normal((3, 3)) @ Pi_H
        Q0 = Pi_H @ rng.standard_normal((3, 3)) @ Pi_H
        lhs = pushforward_endo(split, P0 @ Q0)
        rhs = pushforward_endo(split, P0) @ pushforward_endo(split, Q0)
        assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_rejects_vertical_component(self):
        with pytest.raises(ValueError):
            pushforward_endo(split_at(GEOM["E3"], entry_point("E3")), np.eye(3))


class TestDivergenceDuality:
    def test_constant_flat(self):
        geom = GEOM["E1"]
        u = framed(geom, np.array([0.2, -0.2, 0.4]))
        assert np.max(np.abs(div_bot(geom, np.array([[[0.0, -1.0], [1.0, 0.0]]]), u,
                                     *held(geom, u.base)))) < 1e-8

    def test_product_constant_blocks(self):
        geom = GEOM["E2"]
        u = framed(geom, entry_point("E2"))
        assert np.max(np.abs(div_bot(geom, np.array([[[0.3, -1.0], [1.0, 0.2]]]), u,
                                     *held(geom, u.base)))) < 1e-7

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
                top = rng.standard_normal((k, k))
                C = adapted_endo_field(geom, top=top)
                [d] = div_bot(geom, top[None], u, *held(geom, p))
                X = vertical_basis(geom, p)[0]
                [A] = A_Y_endos([X.components], S_at(geom, p), Pi_at(geom, p))
                val = endo_inner(M, p, A, C.eval(p), onb)
                assert abs(val + float(X.components @ g @ d)) < 5e-4


class TestLiftMap:
    def test_flat_identity_frame(self):
        p = np.array([0.1, 0.2, 0.3])
        u = adapted_frame(E["E1"].phi.source, GEOM["E1"].horizontal, p)
        v = lift_map(GEOM["E1"], u, Pi_at(GEOM["E1"], p))
        assert np.allclose(v.columns, np.eye(2))
        assert np.allclose(v.base, [0.1, 0.2])

    def test_scaling_frame(self):
        p = np.array([0.1, 0.2, 0.3])
        u = adapted_frame(E["E5"].phi.source, GEOM["E5"].horizontal, p)
        v = lift_map(GEOM["E5"], u, Pi_at(GEOM["E5"], p))
        assert np.allclose(v.columns, 2.0 * np.eye(2))

    def test_hopf_image_orthonormal(self):
        for p in sample_points(E["E3"].phi.source, 34, 3):
            u = adapted_frame(E["E3"].phi.source, GEOM["E3"].horizontal, p)
            v = lift_map(GEOM["E3"], u, Pi_at(GEOM["E3"], p))
            gN = metric_eval(E["E3"].phi.target, v.base)
            assert np.max(np.abs(v.columns.T @ gN @ v.columns - np.eye(2))) < 1e-6

    def test_rejects_unadapted(self):
        p = np.array([0.1, 0.2, 0.3])
        with pytest.raises(ValueError):
            lift_map(GEOM["E3"], Frame(p, np.eye(3)), Pi_at(GEOM["E3"], p))


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
            S, B, Pi_H = S_at(geom, p), second_fundamental_tensor(phi, p), Pi_at(geom, p)
            split = split_at(geom, p)
            d = lift_differential_fd(geom, t, Pi_H) - lift_differential_formula(
                geom, "horizontal-of-H", x, u, S, B, split)
            assert mok_norm(*jet(phi.target, d.at.base), d) < 5e-4
            y = vertical_basis(geom, p)[0].components
            t = adapted_horizontal_lift(M, D, TangentVector(p, y), u)
            d = lift_differential_fd(geom, t, Pi_H) - lift_differential_formula(
                geom, "horizontal-of-V", y, u, S, B, split)
            assert mok_norm(*jet(phi.target, d.at.base), d) < 5e-4
            blk = np.zeros((M.dim, M.dim))
            if k >= 2:
                blk[0, 1], blk[1, 0] = -1.0, 1.0
            P0 = u.columns @ blk @ u.columns.T @ g
            t = fundamental_vertical(P0, u)
            d = lift_differential_fd(geom, t, Pi_H) - lift_differential_formula(
                geom, "vertical", P0, u, S, B, split)
            assert mok_norm(*jet(phi.target, d.at.base), d) < 5e-4

    def test_totally_geodesic_pure_horizontal(self):
        geom = GEOM["E1"]
        p = np.array([0.4, -0.1, 0.2])
        u = adapted_frame(E["E1"].phi.source, geom.horizontal, p)
        x = np.array([1.0, 1.0, 0.0])
        out = lift_differential_formula(geom, "horizontal-of-H", x, u, S_at(geom, p),
                                        second_fundamental_tensor(geom.phi, p), split_at(geom, p))
        assert np.max(np.abs(out.frame_rate)) < 1e-10
        assert np.allclose(out.base_rate, [1.0, 1.0])

    def test_product_vertical_input_killed(self):
        geom = GEOM["E2"]
        p = entry_point("E2")
        u = adapted_frame(E["E2"].phi.source, geom.horizontal, p)
        y = vertical_basis(geom, p)[0].components
        out = lift_differential_formula(geom, "horizontal-of-V", y, u, S_at(geom, p),
                                        second_fundamental_tensor(geom.phi, p), split_at(geom, p))
        assert mok_norm(*jet(E["E2"].phi.target, out.at.base), out) < 1e-8

    def test_fd_rejects_non_tangent(self):
        geom = GEOM["E3"]
        p = entry_point("E3")
        u = adapted_frame(E["E3"].phi.source, geom.horizontal, p)
        from framelift.frames import FrameTangent
        bad = FrameTangent(u, np.zeros(3), np.eye(3))  # scaling: not tangent to O(D)
        with pytest.raises(ValueError):
            lift_differential_fd(geom, bad, Pi_at(geom, p))


class TestLiftDistributions:
    @pytest.mark.parametrize("eid", ["E1", "E2", "E3", "E4", "E5"])
    def test_kernel_orthogonality_dimensions(self, eid):
        geom = GEOM[eid]
        phi = E[eid].phi
        M = phi.source
        n, k = M.dim, geom.rank
        for p in sample_points(M, 37, 2):
            u = adapted_frame(M, geom.horizontal, p)
            gamma, Pi_H = held(geom, p)
            Vb, Hb = lift_distributions(geom, u, gamma, Pi_H, S_at(geom, p))
            assert (len(Vb), len(Hb)) == (
                (n - k) + (n - k) * (n - k - 1) // 2, k + k * (k - 1) // 2)
            for v in Vb:
                d = lift_differential_fd(geom, v, Pi_H, check_tangency=False)
                assert mok_norm(*jet(phi.target, d.at.base), d) < 5e-4
            for v in Vb:
                for h in Hb:
                    assert abs(mok_metric(*jet(M, v.at.base), v, h)) < 1e-6


class TestTension:
    def test_identity_map_zero(self):
        R2 = euclidean_chart(2)
        ident = SubmersionSpec(source=R2, target=R2, map=lambda p: p.copy(),
                               jacobian=lambda p: stacked(p, np.eye(2)), vertical_fields=[])
        p = np.array([0.3, 0.1])
        assert np.max(np.abs(tension_field(derive_geometry(ident), p))) < 1e-8

    def test_hopf_harmonic(self):
        phi = E["E3"].phi
        gN = lambda y: metric_eval(phi.target, y)
        for p in sample_points(phi.source, 38, 3):
            tau = tension_field(GEOM["E3"], p)
            g = gN(phi.value(p))
            assert float(np.sqrt(tau @ g @ tau)) < 5e-4

    def test_warped_norm_one(self):
        phi = E["E4"].phi
        p = np.array([0.0, 0.4])
        tau = tension_field(GEOM["E4"], p)
        gN = metric_eval(phi.target, phi.value(p))
        assert abs(float(np.sqrt(tau @ gN @ tau)) - 1.0) < 5e-3

    def test_warped_equals_pushed_mean_curvature(self):
        phi = E["E4"].phi
        p = np.array([0.2, -0.3])
        tau = tension_field(GEOM["E4"], p)
        H = mean_curvature_fibers(GEOM["E4"], framed(GEOM["E4"], p), *held(GEOM["E4"], p))
        J = differential_matrix(phi, p)
        assert np.max(np.abs(tau + J @ H.components)) < 5e-4

    def test_displays_agree_on_constant_dilatation(self):
        for eid in ("E2", "E3", "E4", "E5"):
            p = entry_point(eid)
            tau = tension_field(GEOM[eid], p)
            tau2 = tension_conformal_display(GEOM[eid], p)
            assert np.max(np.abs(tau - tau2)) < 5e-4

    def test_basis_independent(self):
        # same value from a rotated orthonormal frame: tensoriality of the trace
        phi = E["E3"].phi
        p = entry_point("E3")
        tau = tension_field(GEOM["E3"], p)
        # second evaluation at a fresh derive (different internal sampling order)
        tau2 = tension_field(derive_geometry(phi), p)
        assert np.max(np.abs(tau - tau2)) < 5e-4


    @pytest.mark.parametrize("eid", ["E1", "E2", "E3", "E4", "E5"])
    def test_metric_trace_equals_the_frame_trace(self, eid):
        geom = GEOM[eid]
        for p in sample_points(geom.phi.source, 40, 2):
            E = framed(geom, p).columns
            frame_trace = np.einsum("cij,ia,ja->c", second_fundamental_tensor(geom.phi, p), E, E)
            assert np.max(np.abs(tension_field(geom, p) - frame_trace)) < 1e-9


class TestMeanCurvature:
    def test_totally_geodesic_fibers_zero(self):
        for eid in ("E1", "E2", "E5"):
            p = entry_point(eid)
            H = mean_curvature_fibers(GEOM[eid], framed(GEOM[eid], p), *held(GEOM[eid], p))
            assert np.max(np.abs(H.components)) < 1e-7

    def test_hopf_minimal_fibers(self):
        p = entry_point("E3")
        H = mean_curvature_fibers(GEOM["E3"], framed(GEOM["E3"], p), *held(GEOM["E3"], p))
        g = metric_eval(E["E3"].phi.source, p)
        assert float(np.sqrt(H.components @ g @ H.components)) < 5e-4

    def test_warped_unit_norm(self):
        p = np.array([0.0, 0.2])
        H = mean_curvature_fibers(GEOM["E4"], framed(GEOM["E4"], p), *held(GEOM["E4"], p))
        g = metric_eval(E["E4"].phi.source, p)
        assert abs(float(np.sqrt(H.components @ g @ H.components)) - 1.0) < 1e-6
        # direction: minus the horizontal coordinate vector
        assert H.components[0] < 0


class TestConformalityMeasurement:
    def test_conformal_entries(self):
        for eid, expect in (("E1", 1.0), ("E2", 1.0), ("E5", 4.0)):
            p = entry_point(eid)
            u = adapted_frame(E[eid].phi.source, GEOM[eid].horizontal, p)
            Lam, defect = lift_conformality_measurement(GEOM[eid], u, *held(GEOM[eid], p),
                                                        S_at(GEOM[eid], p))
            assert abs(Lam - expect) < 1e-6
            assert defect < 1e-6

    def test_hopf_nonconformal(self):
        p = entry_point("E3")
        u = adapted_frame(E["E3"].phi.source, GEOM["E3"].horizontal, p)
        Lam, defect = lift_conformality_measurement(GEOM["E3"], u, *held(GEOM["E3"], p),
                                                    S_at(GEOM["E3"], p))
        assert defect > 0.01

    def test_warped_measures_conformal(self):
        # the one-dimensional orthogonal space cannot detect the failure of
        # total geodesy: the measured lift dilatation is identically one
        p = entry_point("E4")
        u = adapted_frame(E["E4"].phi.source, GEOM["E4"].horizontal, p)
        Lam, defect = lift_conformality_measurement(GEOM["E4"], u, *held(GEOM["E4"], p),
                                                    S_at(GEOM["E4"], p))
        assert abs(Lam - 1.0) < 1e-9
        assert defect < 1e-9


class TestClassify:
    @pytest.mark.parametrize("eid", ["E1", "E2", "E3", "E5"])
    def test_flags_match_catalog(self, eid):
        e = E[eid]
        pts = sample_points(e.phi.source, 39, 3)
        rep = classify(GEOM[eid], pts)
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
        rep = classify(GEOM["E4"], pts)
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
            # the rows at the second point turn NaN, in a call at one point or at a stack
            out = real(*args, **kwargs)
            p = args[1].base if isinstance(args[1], Frame) else np.asarray(args[1])
            at = np.all(p == pts[1], axis=-1)
            if isinstance(out, tuple):
                return out[0], np.where(at, np.nan, out[1])
            return np.where(at, np.nan, out)

        monkeypatch.setattr(submersion_module, name, nan_at_second_point)
        rep = classify(GEOM["E1"], pts)
        assert np.isnan(getattr(rep, defect))
        assert getattr(rep, flag) is None

    def test_nan_dilatation_leaves_the_constancy_and_predictions_open(self, monkeypatch):
        e = E["E1"]
        pts = sample_points(e.phi.source, 39, 3)
        real = submersion_module.dilatation

        def nan_lambda_at_second_point(geom, u, *args, **kwargs):
            lam, defect = real(geom, u, *args, **kwargs)
            return np.where(np.all(u.base == pts[1], axis=-1), np.nan, lam), defect

        monkeypatch.setattr(submersion_module, "dilatation", nan_lambda_at_second_point)
        rep = classify(GEOM["E1"], pts)
        assert np.isnan(rep.dilatation_std)
        assert rep.dilatation_constant is None
        assert rep.lift_conformal_predicted is None
        assert rep.lift_harmonic_morphism_predicted is None


def _negated_rule(a, b, c):
    """A lift rule with every decided verdict flipped."""
    return None if None in (a, b, c) else not (a and b and c)


class TestLiftRules:
    @pytest.mark.parametrize("rule", [lift_conformal_rule, lift_harmonic_morphism_rule])
    def test_truth_table(self, rule):
        for flags in itertools.product((True, False, None), repeat=3):
            want = None if None in flags else all(flags)
            assert rule(*flags) is want, flags

    def test_each_rule_is_the_one_that_catalog_classify_and_suite_read(self, monkeypatch):
        # patching a rule's code changes every binding of it: the catalog's lift flags,
        # classify's prediction and suite_theorems' expectation (the catalog's) all follow
        e, geom = E["E1"], GEOM["E1"]
        pts = sample_points(e.phi.source, 42, 3)
        before = classify(geom, pts)
        assert e.lift_conformal is True and e.lift_harmonic_morphism is True
        assert before.lift_conformal_predicted is True
        assert before.lift_harmonic_morphism_predicted is True
        row = "E1.theorems.lift_harmonic_morphism"
        assert {r.name: r.status for r in suite_theorems(e, seed=42, samples=6)}[row] == "pass"

        monkeypatch.setattr(lift_conformal_rule, "__code__", _negated_rule.__code__)
        assert e.lift_conformal is False
        assert classify(geom, pts).lift_conformal_predicted is False

        monkeypatch.setattr(lift_harmonic_morphism_rule, "__code__", _negated_rule.__code__)
        assert e.lift_harmonic_morphism is False
        assert classify(geom, pts).lift_harmonic_morphism_predicted is False
        monkeypatch.setattr(suites_module, "classify", lambda *args: before)  # the measured side fixed
        assert {r.name: r.status for r in suite_theorems(e, seed=42, samples=6)}[row] == "fail"


class TestLiftTensionDirect:
    def test_flat_projection_values(self):
        res = lift_tension_direct(GEOM["E1"], np.array([0.2, -0.3, 0.4]))
        # tangentially harmonic; the ambient tension is the curvature of the
        # rotation-group image circle, of norm 1/sqrt(2)
        assert res["tangential"] < 1e-6
        assert abs(res["ambient"] - 1.0 / np.sqrt(2.0)) < 1e-4
        assert abs(res["normal"] - res["ambient"]) < 1e-6

    @pytest.mark.parametrize("eid, seed", [("E1", None)] + [(eid, seed) for eid in E for seed in (42, 1)],
                             ids=lambda v: {None: "lift_tension_at"}.get(v, str(v)))
    def test_equals_the_column_reference_bit_for_bit(self, eid, seed):
        x0 = (np.array(E[eid].lift_tension_at) if seed is None
              else sample_points(E[eid].phi.source, seed, 1)[0])
        assert lift_tension_direct(GEOM[eid], x0) == lift_tension_by_columns(GEOM[eid], x0)

    @pytest.mark.parametrize("eid", ["E1", "E3"])
    def test_reads_the_chart_once_per_stencil(self, calls, eid):
        # 4 chart Jacobians (the frame at q0, the metric and its stencil in christoffel,
        # the frame on the outer stencil), 1 decode and 9 adapted frames; 19, 10 and 48
        # at E1's catalog point when each column was its own field.  E1's frame there is
        # the coordinate basis, so E3 checks that E_i is read at q0 +- h2 E0_i/|E0_i|.
        geom = GEOM[eid]
        x0 = np.array(E[eid].lift_tension_at) if eid == "E1" else entry_point(eid, seed=42)
        h, h2 = geometry_module.DEFAULT_FD.step_h, geometry_module.DEFAULT_FD.step_h2
        chart = adapted_module.adapted_chart(geom.phi.source, geom.horizontal)
        q0 = chart.join(x0, np.zeros(chart.dim - x0.size))

        def frame(q):
            return orthonormalizer(induced_metric_on_chart(chart, q)).swapaxes(-1, -2)

        def stencil(q, v, step):  # q +- step v/|v| for each row of v
            hv = step * v / np.linalg.norm(v, axis=-1, keepdims=True)
            return np.stack([q + hv, q - hv])

        E0 = frame(q0)
        outer = stencil(q0, E0.T, h2)  # row i of each side: where E_i is read
        E_out = np.array([[frame(outer[s, i])[:, i] for i in range(chart.dim)] for s in range(2)])
        want_jacobian = [q0, q0, stencil(q0, np.eye(chart.dim), h2), outer]
        want_F = np.concatenate([q0[None], stencil(q0, np.eye(chart.dim), h).reshape(-1, chart.dim),
                                 stencil(q0, E0.T, h).reshape(-1, chart.dim),
                                 stencil(outer, E_out, h).reshape(-1, chart.dim)])
        counted = calls("FrameChart.jacobian", "FrameChart.decode", "adapted.adapted_frame")
        lift_tension_direct(geom, x0)
        seen = {name.rpartition(".")[2]: [c.args[1 + name.startswith("adapted")] for c in record]
                for name, record in counted.items()}
        assert [len(seen[k]) for k in ("jacobian", "decode", "adapted_frame")] == [4, 1, 9]
        for got, want in zip(seen["jacobian"], want_jacobian):
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-14)
        got_F = seen["decode"][0]
        assert got_F.shape == want_F.shape
        dist = np.linalg.norm(got_F[:, None, :] - want_F[None, :, :], axis=-1)
        assert dist.min(axis=0).max() < 1e-13 and dist.min(axis=1).max() < 1e-13

    @pytest.mark.parametrize("eid", ["E1", "E3"])
    def test_reads_the_target_metric_once(self, calls, eid):
        # 6 Mok Gram tables a call: 4 on the source total space (the frame at q0 and the
        # metric there, its stencil and the outer stencil's frames) and 2 on L(N), G(y0)
        # and its stencil.  G(y0) was built twice (7) when the Christoffel symbols and
        # the norms each read it
        x0 = np.array(E[eid].lift_tension_at) if eid == "E1" else entry_point(eid, seed=42)
        grams = calls("_gram")["_gram"]
        lift_tension_direct(GEOM[eid], x0)
        assert len(grams) == 6

    def test_domain_error_matches_the_reference(self):
        # the coordinate stencil at step_h2 of the total space leaves R3 along the fibre
        # of E1, while the lift's stencils at step_h and the target stay inside
        x0 = np.array([0.2, -0.3, 10.0 - 5e-5])
        with pytest.raises(DomainError) as ref:
            lift_tension_by_columns(GEOM["E1"], x0)
        with pytest.raises(DomainError) as new:
            lift_tension_direct(GEOM["E1"], x0)
        assert str(new.value) == str(ref.value)
        assert str(new.value).startswith("finite-difference stencil leaves chart domain")


# A submersion with a two-dimensional kernel, so that per-column costs show:
# (x, y, z) -> x + 0.3 y^2 on flat R^3.  Its fibers bend in y, so A != 0.
LINE = SubmersionSpec(
    source=euclidean_chart(3), target=euclidean_chart(1),
    map=lambda p: p[..., :1] + 0.3 * p[..., 1:2] ** 2,
    jacobian=lambda p: (stacked(p, np.eye(1, 3)) + 0.6 * p[..., 1, None, None]
                        * np.array([[0.0, 1.0, 0.0]])),
    vertical_fields=[VectorField(eval=lambda p: stacked(p, np.array([0.0, 1.0, 0.0]))
                                 - 0.6 * p[..., 1:2] * np.array([1.0, 0.0, 0.0])),
                     constant_field(np.array([0.0, 0.0, 1.0]))],
    name="line",
)
GEOM_LINE = derive_geometry(LINE)


def rows_jacobian(rows):
    # the kernel of two rows in R^3 is spanned by their cross product
    return SubmersionSpec(source=euclidean_chart(3), target=euclidean_chart(2),
                          map=lambda p: p @ np.array(rows).T,
                          jacobian=lambda p: stacked(p, np.array(rows, dtype=float)),
                          vertical_fields=[constant_field(np.cross(*np.array(rows, dtype=float)))])


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


class TestPerPointCosts:
    """One adapted frame stencil over all directions, one Christoffel, one S per point."""

    @pytest.mark.parametrize("fn", [fiber_second_fundamental_form,
                                    fiber_second_fundamental_defect, mean_curvature_fibers])
    @pytest.mark.parametrize("geom", [GEOM["E3"], GEOM_LINE], ids=["E3", "line"])
    def test_fiber_operators_take_one_frame_stencil_over_the_vertical_directions(
            self, calls, fn, geom):
        # the fibre kernel, and each reduction through one kernel call; the frame,
        # Gamma and the projector at p are the caller's
        M = geom.phi.source
        u = framed(geom, sample_points(M, 18, 1)[0])
        gamma, Pi_H = held(geom, u.base)
        counted = calls("adapted_frame", "christoffel", "splitting_projectors", "fiber_second_fundamental_form")
        fn(geom, u, gamma, Pi_H)
        assert list(counted.counts().values()) == [1, 0, 0, fn is not fiber_second_fundamental_form]

    def test_Pi_X_endo_alt_splits_once_on_its_stencil(self, calls):
        geom = GEOM["E3"]
        p = sample_points(geom.phi.source, 32, 3)
        split = split_at(geom, p)
        counted = calls("splitting")
        Pi_X_endo_alt(geom, TangentVector(p, np.ones_like(p)), split)
        # the stencil for every column; the values at p are the caller's
        assert [c.args[1].shape for c in counted["splitting"]] == [(2, 3, 3)]

    def test_the_horizontal_span_has_two_readers(self):
        # the split, which every closed form reads from its caller, and the seed frame
        assert readers("_horizontal_span") == {"submersion.splitting", "submersion.derive_geometry"}

    def test_the_reader_scan_sees_a_second_home_of_the_span(self, tmp_path):
        (tmp_path / "m.py").write_text('''
def splitting(phi, p):
    J, A = _horizontal_span(phi, p)
    return J, A @ np.linalg.inv(J @ A), A @ np.linalg.solve(J @ A, J)

def pushforward_endo(geom, p, P0):
    J, A = _horizontal_span(geom.phi, p)
    return J @ P0 @ A @ np.linalg.inv(J @ A)

def derive_geometry(phi):
    def seed_frame(q):
        return submersion._horizontal_span(phi, q)[1]
    return seed_frame

def Pi_X_endo(split, x, B):
    _, L, Pi_H = split
    return L @ (x @ B) @ Pi_H
''')
        assert readers("_horizontal_span", tmp_path) == {"m.splitting", "m.pushforward_endo", "m.derive_geometry"}

    def test_div_bot_reads_the_callers_christoffel(self, calls):
        geom = GEOM["E3"]
        u = framed(geom, sample_points(geom.phi.source, 19, 1)[0])
        gamma, Pi_H = held(geom, u.base)
        counted = calls("christoffel", "adapted_frame")
        div_bot(geom, np.random.default_rng(19).standard_normal((5, 2, 2)), u, gamma, Pi_H)
        # one Christoffel per horizontal direction and block before, then one; one frame
        # stencil for every block
        assert counted.counts() == {"christoffel": 0, "adapted_frame": 1}

    @pytest.mark.parametrize("eid", ["E1", "E2", "E3", "E4", "E5"])
    def test_div_bot_blocks_equal_one_call_per_block(self, eid):
        geom = GEOM[eid]
        u = framed(geom, sample_points(geom.phi.source, 26, 3))
        tops = np.random.default_rng(26).standard_normal((4, geom.rank, geom.rank))
        at_u = held(geom, u.base)
        batch = div_bot(geom, tops, u, *at_u)
        assert batch.shape == (4, 3, geom.phi.source.dim)
        for top, d in zip(tops, batch):
            assert np.array_equal(d, div_bot(geom, top[None], u, *at_u)[0])
        assert div_bot(geom, tops[:0], u, *at_u).shape == (0, 3, geom.phi.source.dim)

    @pytest.mark.parametrize("eid", ["E1", "E2", "E3", "E4", "E5"])
    def test_classify_builds_one_frame_stack_and_one_second_fundamental_tensor(
            self, calls, eid):
        geom = GEOM[eid]
        pts = sample_points(geom.phi.source, 27, 3)
        frames, tensors = calls("submersion.adapted_frame", "second_fundamental_tensor").values()
        classify(geom, pts)
        # the frames at the points, then the stencils of the fibre kernel and of div_bot
        assert sorted(c.args[2].shape == pts.shape for c in frames) == [False, False, True]
        assert len(tensors) == 1

    @pytest.mark.parametrize("geom", [*GEOM.values(), GEOM_LINE], ids=[*GEOM, "line"])
    def test_lift_distributions_read_the_callers_values(self, calls, geom):
        # one batch lifts the vertical, horizontal and divergence directions (E3: 1, 2 and
        # 1): their horizontal parts and div read the caller's Gamma (one Christoffel each
        # before), W, A and every S_X contract the caller's S, and the membership check
        # runs once; the only adapted frames are the stencil of the one div_bot call, for
        # every so(k) direction
        M = geom.phi.source
        p = sample_points(M, 25, 3)
        u, S, (gamma, Pi_H) = framed(geom, p), S_at(geom, p), held(geom, p)
        counted = calls("S_components", "christoffel", "od_membership_defect", "adapted_frame", "div_bot")
        lift_distributions(geom, u, gamma, Pi_H, S)
        assert list(counted.counts().values()) == [0, 0, 1, 1, 1]

    @pytest.mark.parametrize("eid", ["E1", "E2", "E3", "E4", "E5"])
    def test_lift_distributions_equal_the_per_vector_lifts(self, eid):
        # one batch at u gives bit for bit what a lift per vector gives
        geom = GEOM[eid]
        M, D = geom.phi.source, geom.horizontal
        p = sample_points(M, 24, 1)[0]
        u, S, (gamma, Pi_H) = adapted_frame(M, D, p), S_at(geom, p), held(geom, p)
        n, k = M.dim, geom.rank
        Ep = u.columns
        Wm = W_endo(metric_eval(M, p), u, S)
        lift = lambda x: adapted_horizontal_lift(M, D, TangentVector(p, x), u)
        Vb, Hb = lift_distributions(geom, u, gamma, Pi_H, S)
        expect_V = [lift(Ep[:, k + j]) + fundamental_vertical(A, u)
                    for j, A in enumerate(A_Y_endos(Ep[:, k:].T, S, Pi_H))]
        expect_H = [lift(W_inverse_apply(Wm, Ep[:, a])) for a in range(k)]
        for c in skew_basis(k):
            C = adapted_endo_field(geom, top=c)
            expect_H.append(lift(W_inverse_apply(Wm, div_bot(geom, c[None], u, gamma, Pi_H)[0]))
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
            Pi_V, Pi_H = splitting_projectors(geom.phi, p)
            ys = [Pi_V @ v for v in rng.standard_normal((3, M.dim))]
            S = S_at(geom, p)
            batch = A_Y_endos(ys, S, Pi_H)
            for y, A in zip(ys, batch):
                assert np.array_equal(A, A_Y_endos([y], S, Pi_H)[0])
        if geom is GEOM_LINE:
            assert np.max(np.abs(batch[0])) > 1e-3  # the fibers bend, so A != 0

    def test_batched_A_identity_equals_the_one_pair_calls(self):
        geom = GEOM_LINE
        p = sample_points(geom.phi.source, 22, 1)[0]
        E = adapted_frame(geom.phi.source, geom.horizontal, p).columns
        B = second_fundamental_tensor(geom.phi, p)
        S, Pi_H = S_at(geom, p), Pi_at(geom, p)
        batch = A_identity_residuals(geom, E[:, :1].T, E[:, 1:].T, p, B, S, Pi_H)
        one = [A_identity_residuals(geom, [E[:, 0]], [E[:, j]], p, B, S, Pi_H)[0] for j in (1, 2)]
        assert batch == one
        assert max(r["asserted"] for r in batch) < 5e-4

    def test_rejects_a_horizontal_argument_in_a_batch(self):
        geom = GEOM["E3"]
        p = sample_points(geom.phi.source, 23, 1)[0]
        E = adapted_frame(geom.phi.source, geom.horizontal, p).columns
        with pytest.raises(ValueError, match="vertical"):
            A_Y_endos([E[:, 2], E[:, 0]], S_at(geom, p), Pi_at(geom, p))


class TestOracleIndependence:
    """The cross-checks of nabla d(phi) build their own values, not the tensor they audit."""

    @pytest.mark.parametrize("eid", ["E3", "E4"])
    def test_oracles_do_not_read_the_second_fundamental_tensor(self, calls, eid):
        geom = GEOM[eid]
        M, D = geom.phi.source, geom.horizontal
        p = sample_points(M, 29, 1)[0]
        u = framed(geom, p)
        x = np.random.default_rng(29).standard_normal(M.dim)
        gamma, Pi_H = held(geom, p)
        split = split_at(geom, p)
        tensors = calls("second_fundamental_tensor")["second_fundamental_tensor"]
        Pi_X_endo_alt(geom, TangentVector(p, x), split)
        lift_differential_fd(geom, adapted_horizontal_lift(M, D, TangentVector(p, x), u), Pi_H)
        fiber_second_fundamental_form(geom, u, gamma, Pi_H)
        mean_curvature_fibers(geom, u, gamma, Pi_H)
        assert len(tensors) == 0
        tension_field(geom, p)
        assert len(tensors) == 1
        B = submersion_module.second_fundamental_tensor(geom.phi, p)
        Pi_X_endo(split, x, B)
        assert len(tensors) == 2  # the formula reads the caller's tensor
        lift_differential_formula(geom, "horizontal-of-H", x, u, S_at(geom, p), B, split)
        assert len(tensors) == 2  # and so does the lift differential, for its Pi_X_endo
