import numpy as np
import pytest

import framelift.adapted as adapted_module
from framelift.adapted import (
    DistributionSpec,
    L_P_applies,
    S_components,
    W_endo,
    W_inverse_apply,
    adapted_chart,
    adapted_connection_audit,
    adapted_derivatives,
    adapted_frame,
    adapted_horizontal_lift,
    block_decompose,
    curvature_RD_tensor,
    curvature_relation_residual,
    m_projection,
    od_membership_defect,
    od_tangency_residual,
    projector_defects,
    reductive_split_defect,
    torsion_TD,
)
from framelift.catalog import euclidean_chart, get
from framelift.fields import polynomial_vector_field
from framelift.frames import endo_covariant_derivative, fundamental_vertical, horizontal_lift_frame, mok_metric
from framelift.geometry import (
    DEFAULT_FD,
    EndomorphismField,
    TangentVector,
    VectorField,
    central_diff,
    christoffel,
    christoffel_contract,
    constant_field,
    coordinate_field,
    curvature_tensor,
    metric_eval,
    sample_points,
)
from framelift.submersion import A_Y_endos, adapted_endo_field, derive_geometry
from looping import per_point

R3 = euclidean_chart(3)


def S_at(M, D, p, cfg=DEFAULT_FD):
    """S_components of D at the point or stack p, from Gamma(p) and P(p)."""
    return S_components(M, D, p, christoffel(M, p), D.projector(p), cfg)


def S_along(M, D, x, p, cfg=DEFAULT_FD):
    """S_x at p: S_components contracted with x."""
    return christoffel_contract(S_at(M, D, p, cfg), x)


def nabla_D_of(M, D, X, Y, p):
    """nabla^D_X Y at p, the first reading of ``adapted_derivatives`` from Gamma(p) and P(p)."""
    return adapted_derivatives(M, D, X.eval(p), [Y], p, christoffel(M, p), D.projector(p))[0][0]


def S_of(M, D, X, Y, p):
    """S_X Y at p, the second reading of ``adapted_derivatives`` from Gamma(p) and P(p)."""
    return adapted_derivatives(M, D, X.eval(p), [Y], p, christoffel(M, p), D.projector(p))[1][0]


def LP_pairs(M, pairs, p):
    """The (P(p), (nabla_x P)(p), x) values that ``L_P_applies`` reads, of each (P, x) at p."""
    gamma = christoffel(M, p)
    return [(P.eval(p), endo_covariant_derivative(P, x, p, P.eval(p), gamma), x) for P, x in pairs]


def flat_parallel_distribution(k: int, n: int) -> DistributionSpec:
    P = np.zeros((n, n))
    P[:k, :k] = np.eye(k)
    return DistributionSpec(
        rank=k,
        projector_field=lambda q: np.zeros(q.shape[:-1] + (1, 1)) + P,
        seed_frame=lambda p: np.zeros(p.shape[:-1] + (1, 1)) + np.eye(n),
    )


E4 = get("E4")
GEOM4 = derive_geometry(E4.phi)
D4 = GEOM4.horizontal
M4 = E4.phi.source

E3 = get("E3")
GEOM3 = derive_geometry(E3.phi)
D3 = GEOM3.horizontal
M3 = E3.phi.source


class TestProjectors:
    @pytest.mark.parametrize("eid", ["E1", "E2", "E3", "E4", "E5"])
    def test_invariants(self, eid):
        e = get(eid)
        geom = derive_geometry(e.phi)
        for p in sample_points(e.phi.source, 2, 5):
            d = projector_defects(e.phi.source, geom.horizontal, p, geom.horizontal.projector(p))
            assert d["idempotent"] < 1e-10
            assert d["self_adjoint"] < 1e-10
            assert d["trace"] < 1e-10


class TestBlocks:
    def test_identity_blocks(self):
        D = flat_parallel_distribution(2, 3)
        b = block_decompose(np.eye(3), D.projector(np.zeros(3)))
        assert np.allclose(b.top, np.diag([1.0, 1.0, 0.0]))
        assert np.allclose(b.bot, np.diag([0.0, 0.0, 1.0]))
        assert np.max(np.abs(b.off1)) == 0.0 and np.max(np.abs(b.off2)) == 0.0

    def test_projector_blocks(self):
        D = flat_parallel_distribution(2, 3)
        b = block_decompose(D.projector(np.zeros(3)), D.projector(np.zeros(3)))
        assert np.allclose(b.top, np.diag([1.0, 1.0, 0.0]))
        assert np.max(np.abs(b.bot)) == 0.0

    def test_reassembly_exact(self):
        rng = np.random.default_rng(0)
        for p in sample_points(M3, 3, 5):
            P = rng.standard_normal((3, 3))
            b = block_decompose(P, D3.projector(p))
            assert np.max(np.abs(b.reassemble() - P)) < 1e-13

    def test_m_projection_properties(self):
        rng = np.random.default_rng(1)
        p = sample_points(M3, 4, 1)[0]
        g = metric_eval(M3, p)
        K = rng.standard_normal((3, 3))
        skew = np.linalg.solve(g, 0.5 * (K - K.T))
        Pi = D3.projector(p)
        m1 = m_projection(M3, p, skew, Pi)
        # idempotent, skew, and block-diagonal input maps to zero
        assert np.max(np.abs(m_projection(M3, p, m1, Pi) - m1)) < 1e-10
        assert np.max(np.abs(g @ m1 + (g @ m1).T)) < 1e-10
        bd = block_decompose(skew, Pi)
        assert np.max(np.abs(m_projection(M3, p, skew - bd.off1 - bd.off2, Pi))) < 1e-10

    def test_m_projection_rejects_non_skew(self):
        p = sample_points(M3, 4, 1)[0]
        with pytest.raises(ValueError):
            m_projection(M3, p, np.eye(3), D3.projector(p))


class TestAdaptedConnection:
    def test_parallel_distribution_reduces_to_levi_civita(self):
        D = flat_parallel_distribution(2, 3)
        rng = np.random.default_rng(2)
        X = polynomial_vector_field(3, rng)
        Y = polynomial_vector_field(3, rng)
        p = np.array([0.1, -0.2, 0.3])
        from framelift.geometry import covariant_derivative
        a = nabla_D_of(R3, D, X, Y, p)
        b = covariant_derivative(R3, X, Y, p).components
        assert np.max(np.abs(a - b)) < 1e-9

    def test_preserves_distribution(self):
        rng = np.random.default_rng(3)
        X = polynomial_vector_field(2, rng)
        Ytop = VectorField(eval=lambda q: D4.projector(q) @ np.array([1.0, 0.4]))
        for p in sample_points(M4, 5, 5):
            out = nabla_D_of(M4, D4, X, Ytop, p)
            assert np.max(np.abs((np.eye(2) - D4.projector(p)) @ out)) < 1e-6


class TestDifferenceTensor:
    def test_parallel_zero(self):
        D = flat_parallel_distribution(1, 3)
        rng = np.random.default_rng(4)
        X = polynomial_vector_field(3, rng)
        Y = polynomial_vector_field(3, rng)
        out = S_of(R3, D, X, Y, np.array([0.2, 0.1, 0.0]))
        assert np.max(np.abs(out)) < 1e-9

    def test_warped_closed_form(self):
        # S_{ds} ds = -e^{2t} dt from the warped Christoffel symbols
        for t0 in (0.0, 0.3, -0.4):
            p = np.array([t0, 0.2])
            out = S_of(M4, D4, coordinate_field(1, 2), coordinate_field(1, 2), p)
            assert np.allclose(out, [-np.exp(2.0 * t0), 0.0], atol=1e-9)

    def test_swaps_blocks(self):
        rng = np.random.default_rng(5)
        for p in sample_points(M3, 6, 3):
            x = rng.standard_normal(3)
            Sx = S_along(M3, D3, x, p)
            Pi = D3.projector(p)
            Pic = np.eye(3) - Pi
            # S_x maps the distribution into the complement and back
            assert np.max(np.abs(Pi @ Sx @ Pi)) < 1e-8
            assert np.max(np.abs(Pic @ Sx @ Pic)) < 1e-8

    def test_skew_in_last_two_slots(self):
        rng = np.random.default_rng(6)
        p = sample_points(M3, 7, 1)[0]
        g = metric_eval(M3, p)
        x, y, z = rng.standard_normal((3, 3))
        Sx = S_along(M3, D3, x, p)
        assert abs(float((Sx @ y) @ g @ z) + float(y @ g @ (Sx @ z))) < 1e-8


def _example_distribution(eid: str):
    phi = get(eid).phi
    geom = derive_geometry(phi)
    return phi.source, geom.horizontal, geom


class TestBatchedS:
    """S_components, contracted along a vector, and A_Y_endos against the field-level S of
    ``adapted_derivatives``."""

    @pytest.mark.parametrize("eid", ["E1", "E2", "E3", "E4", "E5"])
    def test_columns_match_the_definition(self, eid):
        M, D, _ = _example_distribution(eid)
        rng = np.random.default_rng(40)
        n = M.dim
        for p in sample_points(M, 40, 3):
            for x in [np.zeros(n), *rng.standard_normal((2, n))]:
                Sx = S_along(M, D, x, p)
                ref = np.column_stack([
                    S_of(M, D, constant_field(x), constant_field(e), p)
                    for e in np.eye(n)])
                assert np.max(np.abs(Sx - ref)) <= 1e-9 * (1.0 + np.max(np.abs(ref)))

    @pytest.mark.parametrize("eid", ["E1", "E2", "E3", "E4", "E5"])
    def test_components_are_the_rows_of_S_endo(self, eid):
        # S has Gamma's index layout: S_{d_i} is S[:, i, :], the contraction along d_i
        M, D, _ = _example_distribution(eid)
        for p in sample_points(M, 41, 2):
            S = S_at(M, D, p)
            for i, e in enumerate(np.eye(M.dim)):
                assert np.array_equal(S[:, i, :], christoffel_contract(S, e))

    @pytest.mark.parametrize("eid", ["E1", "E2", "E3", "E4", "E5"])
    def test_A_Y_matches_the_per_column_loop(self, eid):
        M, D, geom = _example_distribution(eid)
        rng = np.random.default_rng(42)
        for p in sample_points(M, 42, 2):
            Pi = D.projector(p)
            Y = (np.eye(M.dim) - Pi) @ rng.standard_normal(M.dim)
            loop = np.column_stack([S_along(M, D, e, p) @ Y for e in np.eye(M.dim)])
            [got] = A_Y_endos([Y], S_at(M, D, p), Pi)
            assert np.max(np.abs(got - Pi @ loop @ Pi)) <= 1e-12


class TestSCallCount:
    """S costs one projector stencil over the coordinate directions, from the caller's
    Gamma(p) and P(p); its readers take S from their caller."""

    KERNELS = ("christoffel", "DistributionSpec.projector")

    def test_S_components(self, calls):
        p = sample_points(M3, 43, 1)[0]
        gamma, P = christoffel(M3, p), D3.projector(p)
        counted = calls(*self.KERNELS)
        S_components(M3, D3, p, gamma, P)
        assert counted.counts() == {"christoffel": 0, "DistributionSpec.projector": 1}

    def test_adapted_derivatives_of_many_fields(self, calls):
        # one projector stencil along x for every field, and the caller's Gamma(p) and P(p);
        # each field's readings equal a call for that field alone, bit for bit
        p = sample_points(M3, 47, 4)
        rng = np.random.default_rng(47)
        x = rng.standard_normal((4, 3))
        Ys = [polynomial_vector_field(3, rng) for _ in range(3)]
        gamma, P = christoffel(M3, p), D3.projector(p)
        counted = calls(*self.KERNELS)
        nab, S = adapted_derivatives(M3, D3, x, Ys, p, gamma, P)
        assert counted.counts() == {"christoffel": 0, "DistributionSpec.projector": 1}
        assert nab.shape == S.shape == (3, 4, 3)
        for Y, a, b in zip(Ys, nab, S):
            one = adapted_derivatives(M3, D3, x, [Y], p, gamma, P)
            assert np.array_equal(one[0][0], a) and np.array_equal(one[1][0], b)

    def test_W_endo(self, calls):
        p = sample_points(M3, 44, 1)[0]
        u = adapted_frame(M3, D3, p)
        g, S = metric_eval(M3, p), S_at(M3, D3, p)
        counted = calls(*self.KERNELS)
        W_endo(g, u, S)
        assert counted.counts() == {"christoffel": 0, "DistributionSpec.projector": 0}

    def test_L_P_applies_takes_S_from_its_caller(self, calls):
        p = sample_points(M3, 45, 1)[0]
        u = adapted_frame(M3, D3, p)
        onb = [TangentVector(p, u.columns[:, i]) for i in range(M3.dim)]
        P = EndomorphismField(eval=lambda q: q[..., :, None] * np.array([1.0, 0.0, -1.0]))
        R, P_D, S = curvature_tensor(M3, p), D3.projector(p), S_at(M3, D3, p)
        pairs = LP_pairs(M3, [(P, np.array([0.3, -0.2, 0.4])), (P, np.array([-0.1, 0.5, 0.2]))], p)
        counted = calls(*self.KERNELS)
        L_P_applies(metric_eval(M3, p), pairs, p, onb, R, P_D, S)
        # the caller's nabla_x P and P(p) serve every block decomposition
        assert counted.counts() == {"christoffel": 0, "DistributionSpec.projector": 0}

    def test_od_membership_defect_reads_no_projector(self, calls):
        u = adapted_frame(M3, D3, sample_points(M3, 47, 1)[0])
        P = D3.projector(u.base)
        counted = calls(*self.KERNELS)
        od_membership_defect(M3, D3, u, P)
        assert counted.counts()["DistributionSpec.projector"] == 0  # the caller's P(p)

    def test_adapted_lifts_read_the_callers_christoffel(self, calls):
        # a batch of 5 vectors at a stack of 10 frames: the plain lifts read the
        # caller's Gamma(p), the membership check its P(p) and every S_X its S
        pts = sample_points(M3, 48, 10)
        u = adapted_frame(M3, D3, pts)
        gamma, P = christoffel(M3, pts), D3.projector(pts)
        S = S_components(M3, D3, pts, gamma, P)
        gammas = calls("christoffel")["christoffel"]
        xs = np.random.default_rng(48).standard_normal((5, 10, 3))
        adapted_module._adapted_horizontal_lifts(M3, D3, [TangentVector(pts, x) for x in xs], u,
                                                 gamma, P, S)
        assert len(gammas) == 0


class TestTorsion:
    def test_parallel_zero(self):
        D = flat_parallel_distribution(2, 3)
        rng = np.random.default_rng(7)
        X = polynomial_vector_field(3, rng)
        Y = polynomial_vector_field(3, rng)
        p = np.array([0.0, 0.1, 0.2])
        out = torsion_TD(X, Y, p, S_at(R3, D, p))
        assert np.max(np.abs(out.components)) < 1e-9

    def test_matches_connection_torsion(self):
        rng = np.random.default_rng(8)
        X = polynomial_vector_field(2, rng)
        Y = polynomial_vector_field(2, rng)
        p = np.array([0.2, -0.1])
        from framelift.geometry import lie_bracket
        td = torsion_TD(X, Y, p, S_at(M4, D4, p)).components
        alt = (nabla_D_of(M4, D4, X, Y, p)
               - nabla_D_of(M4, D4, Y, X, p)
               - lie_bracket(X, Y, p).components)
        assert np.max(np.abs(td - alt)) < 1e-6

    def test_product_horizontal_integrable(self):
        e2 = get("E2")
        geom = derive_geometry(e2.phi)
        from framelift.submersion import horizontal_basis
        for p in sample_points(e2.phi.source, 9, 3):
            hb = horizontal_basis(geom, p)
            td = torsion_TD(constant_field(hb[0].components), constant_field(hb[1].components), p,
                            S_at(e2.phi.source, geom.horizontal, p))
            assert np.max(np.abs(td.components)) < 1e-6

    def test_hopf_horizontal_nonintegrable(self):
        from framelift.submersion import horizontal_basis
        p = sample_points(M3, 10, 1)[0]
        hb = horizontal_basis(GEOM3, p)
        td = torsion_TD(constant_field(hb[0].components), constant_field(hb[1].components), p,
                        S_at(M3, D3, p))
        g = metric_eval(M3, p)
        assert float(np.sqrt(td.components @ g @ td.components)) > 0.1


class TestCurvatureRelation:
    def test_parallel_equals_levi_civita_curvature(self):
        e2 = get("E2")
        geom = derive_geometry(e2.phi)
        rng = np.random.default_rng(9)
        p = sample_points(e2.phi.source, 11, 1)[0]
        x, y, z = rng.standard_normal((3, 3))
        jet = adapted_module._GD_S_jet(e2.phi.source, geom.horizontal, p, christoffel(e2.phi.source, p),
                                       S_at(e2.phi.source, geom.horizontal, p), DEFAULT_FD)
        RD = np.einsum("ijkl,i,j,k->l", curvature_RD_tensor(jet),
                       x, y, z)
        R = np.einsum("ijkl,i,j,k->l", curvature_tensor(e2.phi.source, p), x, y, z)
        assert np.max(np.abs(RD - R)) < 5e-4

    def test_flat_relation(self):
        # with zero ambient curvature the relation balances the S-terms
        e1 = get("E1")
        geom = derive_geometry(e1.phi)
        rng = np.random.default_rng(10)
        p = np.array([0.1, 0.2, -0.1])
        x, y, z = rng.standard_normal((3, 3))
        assert curvature_relation_residual(e1.phi.source, geom.horizontal, x, y, z, p,
                                           S_at(e1.phi.source, geom.horizontal, p))["standard"] < 5e-4

    @pytest.mark.parametrize("eid", ["E2", "E3", "E4"])
    def test_relation_standard_convention(self, eid):
        e = get(eid)
        geom = derive_geometry(e.phi)
        rng = np.random.default_rng(11)
        for p in sample_points(e.phi.source, 12, 2):
            x, y, z = rng.standard_normal((3, e.phi.source.dim))
            assert curvature_relation_residual(
                e.phi.source, geom.horizontal, x, y, z, p,
                S_at(e.phi.source, geom.horizontal, p))["standard"] < 5e-4

    def test_display_convention_fails_on_warped(self):
        rng = np.random.default_rng(12)
        p = np.array([0.2, 0.3])
        x, y, z = rng.standard_normal((3, 2))
        res = curvature_relation_residual(M4, D4, x, y, z, p, S_at(M4, D4, p))
        assert res["display"] > 0.01
        assert res["standard"] < 5e-4


class TestOneEvaluationPerReading:
    """Diagnostic readings come from the evaluation the asserted reading uses."""

    def test_curvature_relation_assembles_RD_once(self, calls):
        RDs = calls("curvature_RD_tensor")["curvature_RD_tensor"]
        rng = np.random.default_rng(21)
        x, y, z = rng.standard_normal((3, 2))
        p = np.array([0.1, -0.2])
        res = curvature_relation_residual(M4, D4, x, y, z, p, S_at(M4, D4, p))
        assert len(RDs) == 1
        assert set(res) == {"standard", "display"}

    def test_adapted_audit_runs_the_oracle_once_per_case(self, calls):
        oracles = calls("lc_total_space_oracle")["lc_total_space_oracle"]
        rng = np.random.default_rng(22)
        p = sample_points(M3, 46, 1)[0]
        J = np.array([[0.0, -1.0], [1.0, 0.0]])
        fields = dict(X=polynomial_vector_field(3, rng), Y=polynomial_vector_field(3, rng),
                      P=adapted_endo_field(GEOM3, top=0.8 * J),
                      Q=adapted_endo_field(GEOM3, top=-1.3 * J))
        rows = adapted_connection_audit(M3, D3, adapted_frame(M3, D3, p), fields, metric_eval(M3, p),
                                        christoffel(M3, p), curvature_tensor(M3, p))
        assert len(oracles) == 1  # one oracle call serves all four cases
        assert [r["case"] for r in rows] == ["hh"] * 2 + ["hv"] * 3 + ["vh"] * 2 + ["vv"]
        assert sum(r["best_match"] for r in rows) == 4


class TestCurvatureRelationStencil:
    """RD and nabla^D S read one central stencil of the stacked (GD, S)."""

    @staticmethod
    def separate_stencils(M, D, x, y, z, p, cfg=DEFAULT_FD):
        """The relation residual with GD and S differenced on separate stencils."""
        def GD_at(q):
            return christoffel(M, q) - S_at(M, D, q, cfg)

        GD, S = GD_at(p), S_at(M, D, p, cfg)
        dGD = central_diff(per_point(GD_at), p, cfg.step_h2)
        dS = central_diff(per_point(lambda q: S_at(M, D, q, cfg)), p, cfg.step_h2)
        term_a = np.transpose(dGD, (0, 2, 3, 1))
        quad_a = np.einsum("lim,mjk->ijkl", GD, GD)
        RD = term_a - term_a.swapaxes(0, 1) + quad_a - quad_a.swapaxes(0, 1)
        shared = dS + np.einsum("kma,aij->mkij", GD, S) - np.einsum("kaj,ami->mkij", S, GD)
        readings = {"standard": shared - np.einsum("kia,amj->mkij", S, GD),
                    "display": shared - np.einsum("kma,aij->mkij", S, GD)}
        lhs = np.einsum("ijkl,i,j,k->l", curvature_tensor(M, p, cfg), x, y, z)
        RD_xyz = np.einsum("ijkl,i,j,k->l", RD, x, y, z)
        Sx, Sy = christoffel_contract(S, x), christoffel_contract(S, y)
        S_td_z = christoffel_contract(S, Sy @ x - Sx @ y) @ z
        comm_z = (Sx @ Sy - Sy @ Sx) @ z
        g = metric_eval(M, p)
        out = {}
        for reading, NS in readings.items():
            d = lhs - (RD_xyz + np.einsum("mkij,m,i,j->k", NS, x, y, z)
                       - np.einsum("mkij,m,i,j->k", NS, y, x, z) + S_td_z + comm_z)
            out[reading] = float(np.sqrt(max(d @ g @ d, 0.0)))
        return out

    def test_values_equal_the_separate_stencils(self):
        rng = np.random.default_rng(47)
        for p in sample_points(M3, 47, 2):
            x, y, z = rng.standard_normal((3, M3.dim))
            got = curvature_relation_residual(M3, D3, x, y, z, p, S_at(M3, D3, p))
            ref = self.separate_stencils(M3, D3, x, y, z, p)
            assert set(got) == set(ref)
            assert all(np.array_equal(got[r], ref[r]) for r in ref)

    def test_halves_the_christoffel_calls_on_E3(self, calls):
        x, y, z = np.random.default_rng(48).standard_normal((3, M3.dim))
        p = sample_points(M3, 48, 1)[0]
        S = S_at(M3, D3, p)
        gammas = calls("christoffel")["christoffel"]
        curvature_relation_residual(M3, D3, x, y, z, p, S)
        # separate stencils: 1 + 2n for R, 2 + 4n for RD, 3 + 2n for nabla^D S
        # and 3 for S_x, S_y and S_{T^D}, i.e. 9 + 8n = 33 at n = 3
        assert len(gammas) <= (9 + 8 * M3.dim) // 2

    def test_reads_christoffel_once_besides_its_two_stencils(self, calls):
        x, y, z = np.random.default_rng(49).standard_normal((3, M3.dim))
        p = sample_points(M3, 49, 1)[0]
        S = S_at(M3, D3, p)
        gammas = calls("christoffel")["christoffel"]
        curvature_relation_residual(M3, D3, x, y, z, p, S)
        # Gamma(p) serves R and the jet, whose S at p is the caller's; then the
        # stencils of R and of the jet
        assert sorted(c.args[1].shape for c in gammas) == [(2, 3, 3), (2, 3, 3), (3,)]


class TestW:
    def test_parallel_identity(self):
        e1 = get("E1")
        geom = derive_geometry(e1.phi)
        p = np.array([0.3, 0.1, 0.0])
        u = adapted_frame(e1.phi.source, geom.horizontal, p)
        W = W_endo(metric_eval(e1.phi.source, p), u, S_at(e1.phi.source, geom.horizontal, p))
        assert np.allclose(W, np.eye(3), atol=1e-10)

    def test_warped_closed_form(self):
        # W = diag(1, 3) in the orthonormal frame (unit horizontal, unit vertical)
        p = np.array([0.4, -0.2])
        u = adapted_frame(M4, D4, p)
        W = W_endo(metric_eval(M4, p), u, S_at(M4, D4, p))
        W_onb = np.linalg.inv(u.columns) @ W @ u.columns
        assert np.allclose(W_onb, np.diag([1.0, 3.0]), atol=1e-8)

    @pytest.mark.parametrize("eid", ["E3", "E4"])
    def test_lemma_identity(self, eid):
        e = get(eid)
        geom = derive_geometry(e.phi)
        M, D = e.phi.source, geom.horizontal
        rng = np.random.default_rng(13)
        for p in sample_points(M, 13, 3):
            u = adapted_frame(M, D, p)
            g = metric_eval(M, p)
            W = W_endo(g, u, S_at(M, D, p))
            x, y = rng.standard_normal((2, M.dim))
            tx = adapted_horizontal_lift(M, D, TangentVector(p, x), u)
            ty = adapted_horizontal_lift(M, D, TangentVector(p, y), u)
            assert abs(float(x @ g @ (W @ y)) - mok_metric(g, christoffel(M, p), tx, ty)) < 1e-6

    def test_positive_definite_and_inverse(self):
        p = sample_points(M3, 14, 1)[0]
        u = adapted_frame(M3, D3, p)
        W = W_endo(metric_eval(M3, p), u, S_at(M3, D3, p))
        W_onb = np.linalg.inv(u.columns) @ W @ u.columns
        assert float(np.min(np.linalg.eigvalsh(0.5 * (W_onb + W_onb.T)))) >= 1.0 - 1e-10
        v = np.array([0.3, -0.8, 0.5])
        assert np.max(np.abs(W @ W_inverse_apply(W, v) - v)) < 1e-10


class TestLP:
    def test_flat_parallel_zero(self):
        D = flat_parallel_distribution(2, 3)
        p = np.array([0.1, 0.1, 0.1])
        onb = [TangentVector(p, np.eye(3)[:, i]) for i in range(3)]
        J = np.zeros((3, 3))
        J[0, 1], J[1, 0] = -1.0, 1.0
        P = EndomorphismField(eval=lambda q: np.zeros(q.shape[:-1] + J.shape) + J)
        out = L_P_applies(metric_eval(R3, p), LP_pairs(R3, [(P, np.array([1.0, -1.0, 0.5]))], p), p, onb,
                          curvature_tensor(R3, p), D.projector(p), S_at(R3, D, p))[0]
        assert max(np.max(np.abs(v)) for v in out.values()) < 1e-9

    def test_reduces_to_R_P_when_S_vanishes(self):
        e2 = get("E2")
        geom = derive_geometry(e2.phi)
        M, D = e2.phi.source, geom.horizontal
        p = sample_points(M, 15, 1)[0]
        u = adapted_frame(M, D, p)
        onb = [TangentVector(p, u.columns[:, i]) for i in range(3)]
        from framelift.geometry import curvature_R_P
        from framelift.submersion import adapted_endo_field
        J = np.array([[0.0, -1.0], [1.0, 0.0]])
        P = adapted_endo_field(geom, top=J)
        x = np.array([0.5, 0.2, -0.3])
        R = curvature_tensor(M, p)
        g = metric_eval(M, p)
        got = L_P_applies(g, LP_pairs(M, [(P, x)], p), p, onb, R, D.projector(p), S_at(M, D, p))[0]["printed"]
        expect = curvature_R_P(g, P.eval(p), onb, R) @ x
        assert np.max(np.abs(got - expect)) < 1e-6

    def test_componentwise_reassembly(self):
        # the operator agrees with assembling its pieces by hand on E4
        from framelift.geometry import curvature_R_P
        p = np.array([0.2, 0.4])
        u = adapted_frame(M4, D4, p)
        onb = [TangentVector(p, u.columns[:, i]) for i in range(2)]
        g = metric_eval(M4, p)
        Sfield = EndomorphismField(eval=lambda q: S_along(M4, D4, np.array([1.0, 0.0]), q))
        P = Sfield  # any smooth g-skew field with nonzero m-part derivative
        x = np.array([0.7, -0.2])
        R = curvature_tensor(M4, p)
        got = L_P_applies(g, LP_pairs(M4, [(P, x)], p), p, onb, R, D4.projector(p), S_at(M4, D4, p))[0]["printed"]
        RP = curvature_R_P(g, P.eval(p), onb, R)
        nP = endo_covariant_derivative(P, x, p, P.eval(p), christoffel(M4, p))
        b = block_decompose(nP, D4.projector(p))
        nPm = b.off1 + b.off2
        vec = RP @ x
        for e in onb:
            Se = S_along(M4, D4, e.components, p)
            coef = sum(float((nPm @ f.components) @ g @ (Se @ f.components)) for f in onb)
            vec = vec - coef * e.components
        W = W_endo(g, u, S_at(M4, D4, p))
        assert np.max(np.abs(got - W_inverse_apply(W, vec))) < 1e-9


class TestAdaptedLift:
    def test_parallel_coincides_with_plain_lift(self):
        e1 = get("E1")
        geom = derive_geometry(e1.phi)
        p = np.array([0.1, -0.1, 0.2])
        u = adapted_frame(e1.phi.source, geom.horizontal, p)
        X = TangentVector(p, np.array([0.4, 0.5, 0.6]))
        a = adapted_horizontal_lift(e1.phi.source, geom.horizontal, X, u)
        b = horizontal_lift_frame(christoffel(e1.phi.source, p), X, u)
        assert np.max(np.abs(a.frame_rate - b.frame_rate)) < 1e-12

    def test_difference_identity_exact(self):
        rng = np.random.default_rng(16)
        for p in sample_points(M4, 17, 4):
            u = adapted_frame(M4, D4, p)
            x = rng.standard_normal(2)
            t = adapted_horizontal_lift(M4, D4, TangentVector(p, x), u)
            t2 = horizontal_lift_frame(christoffel(M4, p), TangentVector(p, x), u) + \
                fundamental_vertical(S_along(M4, D4, x, p), u)
            assert np.max(np.abs(t.frame_rate - t2.frame_rate)) == 0.0

    def test_tangency_on_warped(self):
        rng = np.random.default_rng(17)
        for p in sample_points(M4, 18, 5):
            u = adapted_frame(M4, D4, p)
            x = rng.standard_normal(2)
            t = adapted_horizontal_lift(M4, D4, TangentVector(p, x), u)
            assert od_tangency_residual(M4, D4, t) < 1e-6

    def test_rejects_unadapted_frame(self):
        p = np.array([0.3, 0.2])
        bad = np.eye(2)  # not adapted: columns not orthonormal for the warped metric
        from framelift.frames import Frame
        with pytest.raises(ValueError):
            adapted_horizontal_lift(M4, D4, TangentVector(p, np.array([1.0, 0.0])),
                                    Frame(p, bad))

    def test_membership_defect(self):
        p = np.array([0.1, 0.6])
        u = adapted_frame(M4, D4, p)
        assert od_membership_defect(M4, D4, u, D4.projector(p)) < 1e-12


class TestAlgebraSplit:
    def test_reductive(self):
        rng = np.random.default_rng(18)
        assert reductive_split_defect(3, 2, rng) < 1e-13
        assert reductive_split_defect(4, 2, rng) < 1e-13
        assert reductive_split_defect(2, 1, rng) < 1e-13

    def test_adapted_chart_dimensions(self):
        chart = adapted_chart(M3, D3)
        # n + so(k) + so(n-k) with n=3, k=2
        assert chart.dim == 3 + 1 + 0
        p = sample_points(M3, 19, 1)[0]
        u = chart.decode(chart.join(p, np.array([0.4])))
        assert od_membership_defect(M3, D3, u, D3.projector(u.base)) < 1e-10
