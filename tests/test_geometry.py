import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framelift.catalog import euclidean_chart, sphere_chart, warped_plane_chart
from framelift.fields import polynomial_vector_field
from framelift.geometry import (
    DEFAULT_FD,
    ChartManifold,
    DomainError,
    FDConfig,
    TangentVector,
    VectorField,
    christoffel,
    column_gram,
    coordinate_field,
    covariant_derivative,
    covariant_derivatives,
    curvature,
    curvature_R_P,
    endo_inner,
    gram_schmidt,
    inner,
    lie_bracket,
    metric_eval,
    orthonormal_basis,
    orthonormalizer,
    sample_points,
)

R2 = euclidean_chart(2)
R3 = euclidean_chart(3)
S2 = sphere_chart(2)


def sphere_gamma_closed_form(x):
    """Symbolic Christoffel symbols of the unit-sphere stereographic chart."""
    n = len(x)
    w = 1.0 + float(x @ x)
    G = np.zeros((n, n, n))
    for k in range(n):
        for i in range(n):
            for j in range(n):
                G[k, i, j] = -2.0 * ((i == k) * x[j] + (j == k) * x[i] - (i == j) * x[k]) / w
    return G


class TestFDConfig:
    def test_defaults_valid(self):
        cfg = FDConfig()
        assert cfg.step_h2 >= cfg.step_h
        assert cfg.tol_exact <= cfg.tol_fd1 <= cfg.tol_fd2

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            FDConfig(step_h=1e-4, step_h2=1e-5)
        with pytest.raises(ValueError):
            FDConfig(tol_exact=1.0, tol_fd1=1e-6)


class TestMetric:
    def test_flat_identity(self):
        assert np.allclose(metric_eval(R2, np.array([0.3, -0.5])), np.eye(2))

    def test_sphere_at_origin(self):
        # conformal factor 4/(1+|x|^2)^2 evaluates to 4 at the origin
        assert np.allclose(metric_eval(S2, np.zeros(2)), 4.0 * np.eye(2))

    def test_warped_at_origin(self):
        W = warped_plane_chart()
        assert np.allclose(metric_eval(W, np.zeros(2)), np.eye(2))

    def test_out_of_domain(self):
        with pytest.raises(DomainError):
            metric_eval(S2, np.array([5.0, 0.0]))

    def test_positive_definite_on_samples(self):
        for p in sample_points(S2, 0, 20):
            assert np.min(np.linalg.eigvalsh(metric_eval(S2, p))) > 0


class TestChristoffel:
    def test_flat_zero(self):
        assert np.max(np.abs(christoffel(R3, np.array([0.1, 0.2, -0.3])))) == 0.0

    def test_sphere_origin_zero(self):
        assert np.max(np.abs(christoffel(S2, np.zeros(2)))) < 1e-14

    def test_sphere_closed_form(self):
        p = np.array([1.0, 0.0])
        G = christoffel(S2, p)
        assert abs(G[0, 0, 0] - (-1.0)) < 1e-12
        assert np.max(np.abs(G - sphere_gamma_closed_form(p))) < 1e-12

    def test_symmetry_exact(self):
        for p in sample_points(S2, 1, 10):
            G = christoffel(S2, p)
            assert np.max(np.abs(G - G.transpose(0, 2, 1))) == 0.0

    def test_fd_matches_exact_derivative(self):
        # strip the supplied derivative and compare pure finite differences
        import dataclasses
        S2fd = dataclasses.replace(S2, metric_derivative=None)
        p = np.array([0.3, -0.2])
        assert np.max(np.abs(christoffel(S2, p) - christoffel(S2fd, p))) < 1e-9


class TestCovariantDerivative:
    def test_flat_coordinate_fields(self):
        p = np.array([0.4, 0.1])
        out = covariant_derivative(R2, coordinate_field(0, 2), coordinate_field(1, 2), p)
        assert np.max(np.abs(out.components)) == 0.0

    def test_flat_linear_field(self):
        # nabla_{d1} (x1 d2) = d2
        Y = VectorField(eval=lambda q: np.array([0.0, q[0]]))
        out = covariant_derivative(R2, coordinate_field(0, 2), Y, np.array([0.7, -0.2]))
        assert np.allclose(out.components, [0.0, 1.0], atol=1e-10)

    def test_sphere_origin_reduces_to_flat_derivative(self):
        out = covariant_derivative(S2, coordinate_field(0, 2), coordinate_field(0, 2), np.zeros(2))
        assert np.max(np.abs(out.components)) < 1e-14

    def test_tensorial_in_direction(self):
        rng = np.random.default_rng(0)
        p = np.array([0.2, 0.3])
        Y = polynomial_vector_field(2, rng, exact_jacobian=False)
        f = lambda q: 1.0 + 2.0 * (q[0] - p[0]) - (q[1] - p[1])
        X = polynomial_vector_field(2, rng, exact_jacobian=False)
        Xs = VectorField(eval=lambda q: f(q) * X.eval(q))
        a = covariant_derivative(S2, X, Y, p).components
        b = covariant_derivative(S2, Xs, Y, p).components
        assert np.max(np.abs(a - b)) < 1e-8


    @pytest.mark.parametrize("step", [None, 1e-4])
    def test_batched_equals_one_pair_calls(self, step):
        rng = np.random.default_rng(24)
        p = np.array([0.3, -0.4])
        fields = [polynomial_vector_field(2, rng, exact_jacobian=exact)
                  for exact in (True, False, True, False)]
        pairs = [(fields[0], fields[1]), (fields[1], fields[0]),
                 (fields[2], fields[3]), (fields[3], fields[2])]
        batched = covariant_derivatives(S2, pairs, p, step=step)
        assert len(batched) == len(pairs)
        for (X, Y), v in zip(pairs, batched):
            one = covariant_derivative(S2, X, Y, p, step=step)
            assert np.array_equal(v.base, one.base)
            assert np.array_equal(v.components, one.components)

class TestCurvature:
    def test_flat_zero(self):
        p = np.array([0.1, -0.1, 0.2])
        vs = [TangentVector(p, v) for v in np.random.default_rng(1).standard_normal((3, 3))]
        out = curvature(R3, *vs)
        assert np.max(np.abs(out.components)) < 1e-12

    def test_unit_sphere_sectional(self):
        # constant curvature +1: R(X,Y)Z = g(Y,Z)X - g(X,Z)Y
        p = np.array([0.3, -0.1])
        e1, e2 = orthonormal_basis(S2, p)
        val = curvature(S2, e1, e2, e2)
        assert abs(inner(S2, p, val.components, e1.components) - 1.0) < 5e-4

    def test_constant_curvature_closed_form(self):
        rng = np.random.default_rng(2)
        p = np.array([0.2, 0.4])
        g = metric_eval(S2, p)
        x, y, z = rng.standard_normal((3, 2))
        got = curvature(S2, TangentVector(p, x), TangentVector(p, y), TangentVector(p, z))
        expect = float(y @ g @ z) * x - float(x @ g @ z) * y
        assert np.max(np.abs(got.components - expect)) < 1e-6

    def test_antisymmetry(self):
        p = np.array([0.2, 0.4])
        x = TangentVector(p, np.array([1.0, 2.0]))
        z = TangentVector(p, np.array([-0.5, 0.3]))
        out = curvature(S2, x, x, z)
        assert np.max(np.abs(out.components)) < 1e-12


class TestCurvatureRP:
    def test_flat_any(self):
        p = np.array([0.1, 0.2])
        onb = orthonormal_basis(R2, p)
        P = np.array([[0.0, -1.0], [1.0, 0.0]])
        out = curvature_R_P(R2, p, P, onb) @ np.array([1.0, 1.0])
        assert np.max(np.abs(out)) < 1e-12

    def test_zero_endomorphism(self):
        p = np.array([0.2, -0.3])
        onb = orthonormal_basis(S2, p)
        out = curvature_R_P(S2, p, np.zeros((2, 2)), onb) @ np.array([1.0, 0.0])
        assert np.max(np.abs(out)) < 1e-12

    def test_sphere_rotation_generator(self):
        # with J e1 = e2, J e2 = -e1: R_J(X) = 2 R(e1, e2) X
        p = np.array([0.15, 0.25])
        onb = orthonormal_basis(S2, p)
        E = np.column_stack([e.components for e in onb])
        g = metric_eval(S2, p)
        Jmat = np.array([[0.0, -1.0], [1.0, 0.0]])
        J = E @ Jmat @ E.T @ g
        X = TangentVector(p, np.array([0.7, -0.4]))
        got = curvature_R_P(S2, p, J, onb) @ X.components
        expect = 2.0 * curvature(S2, onb[0], onb[1], X).components
        assert np.max(np.abs(got - expect)) < 1e-6

    def test_rejects_bad_basis(self):
        p = np.array([0.2, 0.0])
        bad = [TangentVector(p, np.array([1.0, 0.0])), TangentVector(p, np.array([1.0, 1.0]))]
        with pytest.raises(ValueError):
            curvature_R_P(S2, p, np.eye(2), bad)


class TestLieBracket:
    def test_coordinate_fields(self):
        out = lie_bracket(coordinate_field(0, 2), coordinate_field(1, 2), np.array([0.3, 0.4]))
        assert np.max(np.abs(out.components)) < 1e-12

    def test_linear_field(self):
        # [x1 d2, d1] = -d2
        X = VectorField(eval=lambda q: np.array([0.0, q[0]]))
        out = lie_bracket(X, coordinate_field(0, 2), np.array([0.5, -0.1]))
        assert np.allclose(out.components, [0.0, -1.0], atol=1e-9)

    def test_self_bracket(self):
        rng = np.random.default_rng(3)
        X = polynomial_vector_field(2, rng, exact_jacobian=False)
        out = lie_bracket(X, X, np.array([0.2, 0.2]))
        assert np.max(np.abs(out.components)) < 1e-9


class TestGramSchmidt:
    def test_flat_coordinate_basis(self):
        basis = gram_schmidt(R2, np.array([0.1, 0.9]), list(np.eye(2)))
        assert np.allclose(np.column_stack([e.components for e in basis]), np.eye(2))

    def test_sphere_normalization(self):
        # at the origin g = 4 I so d1 normalizes to d1 / 2
        basis = gram_schmidt(S2, np.zeros(2), list(np.eye(2)))
        assert np.allclose(basis[0].components, [0.5, 0.0])

    def test_degenerate_seed(self):
        with pytest.raises(ValueError):
            gram_schmidt(R2, np.zeros(2), [np.array([1.0, 0.0]), np.array([1.0, 0.0])])

    def test_orthonormal(self):
        rng = np.random.default_rng(4)
        p = np.array([0.3, 0.1])
        g = metric_eval(S2, p)
        basis = gram_schmidt(S2, p, list(rng.standard_normal((2, 2))))
        E = np.column_stack([e.components for e in basis])
        assert np.max(np.abs(E.T @ g @ E - np.eye(2))) < 1e-12


class TestEndoInner:
    def test_identity_trace(self):
        p = np.array([0.1, 0.2, 0.3])
        onb = orthonormal_basis(R3, p)
        assert abs(endo_inner(R3, p, np.eye(3), np.eye(3), onb) - 3.0) < 1e-12

    def test_skew_vs_symmetric_orthogonal(self):
        rng = np.random.default_rng(5)
        p = np.array([0.25, -0.2])
        g = metric_eval(S2, p)
        onb = orthonormal_basis(S2, p)
        for _ in range(10):
            K = rng.standard_normal((2, 2))
            skew = np.linalg.solve(g, 0.5 * (K - K.T))
            H = rng.standard_normal((2, 2))
            sym = np.linalg.solve(g, 0.5 * (H + H.T))
            assert abs(endo_inner(S2, p, skew, sym, onb)) < 1e-12

    def test_rotation_generator_norm(self):
        p = np.array([0.0, 0.0])
        onb = orthonormal_basis(R2, p)
        J = np.array([[0.0, -1.0], [1.0, 0.0]])
        assert abs(endo_inner(R2, p, J, J, onb) - 2.0) < 1e-12

    def test_basis_independent(self):
        rng = np.random.default_rng(6)
        p = np.array([0.3, 0.3])
        P, Q = rng.standard_normal((2, 2, 2))
        onb1 = orthonormal_basis(S2, p)
        onb2 = gram_schmidt(S2, p, [np.array([1.0, 1.0]), np.array([0.2, -1.0])])
        a = endo_inner(S2, p, P, Q, onb1)
        b = endo_inner(S2, p, P, Q, onb2)
        assert abs(a - b) < 1e-10 * max(1.0, abs(a))

    @settings(derandomize=True, deadline=None, database=None, max_examples=100)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 5))
    def test_basis_independent_property(self, seed, n):
        # <P | Q> = tr(P^T g Q g^-1) over any g-orthonormal basis
        rng = np.random.default_rng(seed)
        M, g = random_metric(rng, n)
        p = np.zeros(n)
        P, Q = rng.standard_normal((2, n, n))
        seeds = list(3.0 * np.eye(n) + 0.5 * rng.standard_normal((n, n)))
        expected = np.trace(P.T @ g @ Q @ np.linalg.inv(g))
        scale = max(1.0, abs(expected))
        for onb in (orthonormal_basis(M, p), gram_schmidt(M, p, seeds)):
            assert abs(endo_inner(M, p, P, Q, onb) - expected) < 1e-12 * scale * n


def random_metric(rng, n):
    """A constant, well-conditioned metric on R^n as a chart."""
    A = rng.standard_normal((n, n))
    g = np.eye(n) + 0.3 * A @ A.T / n
    return ChartManifold(dim=n, metric_field=lambda _p: g), g


def modified_gram_schmidt(V, g):
    """Reference: g-orthonormalise the rows of V one at a time."""
    out = []
    for v in V:
        w = v.copy()
        for e in out:
            w = w - (e @ g @ w) * e
        out.append(w / np.sqrt(w @ g @ w))
    return np.array(out)


@st.composite
def seed_lists(draw):
    """A metric on R^n and m <= n rows, kept away from degeneracy."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, n))
    M, g = random_metric(rng, n)
    return M, g, 3.0 * np.eye(m, n) + 0.5 * rng.standard_normal((m, n))


class TestColumnGram:
    @settings(derandomize=True, deadline=None, database=None, max_examples=50)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(1, 5))
    def test_matches_the_column_loop(self, seed, n, m):
        rng = np.random.default_rng(seed)
        _, g = random_metric(rng, n)
        A, B = rng.standard_normal((3, n, m)), rng.standard_normal((2, n, m))
        loop = np.array([[sum(a[:, i] @ g @ b[:, i] for i in range(m)) for b in B] for a in A])
        assert np.max(np.abs(column_gram(g, A, B) - loop)) < 1e-12 * max(1.0, np.max(np.abs(loop)))
        assert np.array_equal(column_gram(g, A), column_gram(g, A, A))


class TestOrthonormalizer:
    """C B C^T = I from the Cholesky factor of the Gram matrix B, in the list's order."""

    @settings(derandomize=True, deadline=None, database=None, max_examples=100)
    @given(seed_lists())
    def test_whitens_the_gram_matrix_and_matches_gram_schmidt(self, case):
        _, g, V = case
        B = V @ g @ V.T
        C = orthonormalizer(B)
        assert np.array_equal(C, np.tril(C))
        assert np.max(np.abs(C @ B @ C.T - np.eye(len(V)))) < 1e-12
        assert np.max(np.abs(C @ V - modified_gram_schmidt(V, g))) < 1e-12

    @settings(derandomize=True, deadline=None, database=None, max_examples=100)
    @given(seed_lists(), st.integers(0, 2**32 - 1))
    def test_raises_on_a_rank_deficient_list(self, case, seed):
        M, g, V = case
        rng = np.random.default_rng(seed)
        # append a combination of the rows (the zero row when the list is one row)
        V = np.vstack([V, rng.standard_normal(len(V)) @ V * (len(V) > 1)])
        with pytest.raises(ValueError, match="degenerate"):
            orthonormalizer(V @ g @ V.T)
        with pytest.raises(ValueError, match="degenerate"):
            gram_schmidt(M, np.zeros(M.dim), list(V))


class TestSampling:
    def test_deterministic(self):
        a = sample_points(S2, 42, 7)
        b = sample_points(S2, 42, 7)
        assert np.array_equal(a, b)

    def test_in_domain(self):
        for p in sample_points(S2, 9, 25):
            assert S2.contains(p)
