"""Points with leading axes: one call per stencil, equal to the calls per point."""

import dataclasses
import functools
import inspect
import types

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import framelift.adapted as adapted_module
import framelift.catalog as catalog_module
import framelift.fields as fields_module
import framelift.frames as frames_module
import framelift.geometry as geometry_module
import framelift.submersion as submersion_module
import framelift.tangent as tangent_module
from framelift.adapted import (
    L_P_applies,
    S_components,
    adapted_connection_audit,
    adapted_frame,
    torsion_TD,
)
from framelift.catalog import (
    entries,
    euclidean_chart,
    get,
    hopf_jacobian,
    hopf_map,
    hopf_vertical_field,
)
from framelift.fields import (
    _polynomial_vector_field,
    g_skew_endo_field,
    polynomial_endo_field,
    polynomial_vector_field,
)
from framelift.frames import (
    Frame,
    FrameTangent,
    LMChart,
    endo_covariant_derivative,
    fd_bracket_on_chart,
    induced_metric_on_chart,
    lc_total_space_oracle,
    total_space_manifold,
)
from framelift.geometry import (
    DomainError,
    FDConfig,
    TangentVector,
    VectorField,
    central_diff,
    christoffel,
    christoffel_contract,
    christoffel_derivative,
    constant_field,
    coordinate_field,
    covariant_derivatives,
    curvature_R_P,
    curvature_tensor,
    directional_diff,
    lie_bracket,
    metric_eval,
    orthonormal_basis,
    reference_frame,
    sample_points,
)
from framelift.submersion import (
    SubmersionSpec,
    _frame_jet,
    adapted_endo_field,
    derive_geometry,
    div_bot,
    splitting_projectors,
)
from budget import recording
from hopf_composite import hopf_composite, hopf_composite_jacobian
from jets import jet
from looping import per_point
from skew_charts import adapted_chart, om_chart

EXAMPLES = ["E1", "E2", "E3", "E4", "E5"]
CHARTS = {M.name: M for e in entries() for M in (e.phi.source, e.phi.target)}


def S_at(geom, p):
    """S_components of the horizontal distribution at the point or stack p."""
    M, D = geom.phi.source, geom.horizontal
    return S_components(M, D, p, christoffel(M, p), D.projector(p))


def held(geom, p):
    """Gamma and the horizontal projector at the point or stack p, as a caller holds them."""
    return christoffel(geom.phi.source, p), geom.horizontal.projector(p)


def rows_of(f, ps):
    """f called on each point of the stack ps, restacked."""
    return np.array([f(p) for p in ps.reshape(-1, ps.shape[-1])]).reshape(
        ps.shape[:-1] + np.shape(f(ps.reshape(-1, ps.shape[-1])[0])))


class TestCatalogFields:
    @pytest.mark.parametrize("name", sorted(CHARTS))
    @pytest.mark.parametrize("shape", [(7,), (2, 3)], ids=["k_n", "stencil"])
    def test_stack_equals_rows_bit_for_bit(self, name, shape):
        M = CHARTS[name]
        ps = sample_points(M, 61, int(np.prod(shape))).reshape(shape + (M.dim,))
        for field in (M.metric_field, M.metric_derivative, M.orthonormal_frame,
                      M.domain_predicate):
            assert np.array_equal(field(ps), rows_of(field, ps))

    @pytest.mark.parametrize("name", sorted(CHARTS))
    def test_predicate_reads_each_point(self, name):
        M = CHARTS[name]
        ps = sample_points(M, 62, 3)
        ps[1] = 50.0  # outside every catalog chart
        assert list(M.domain_predicate(ps)) == [True, False, True]
        assert not M.contains(ps) and M.contains(ps[[0, 2]])


class TestStencil:
    def test_central_diff_on_a_stack_equals_the_rows(self):
        M = CHARTS["S3"]
        ps = sample_points(M, 63, 4)
        batched = central_diff(M.metric_field, ps, 1e-5)
        assert np.array_equal(batched, rows_of(lambda p: central_diff(M.metric_field, p, 1e-5), ps))

    def test_per_point_loops_over_leading_axes(self):
        f = per_point(lambda p: np.outer(p, p[:2]))
        ps = np.arange(18.0).reshape(3, 2, 3)
        assert np.array_equal(f(ps), rows_of(lambda p: np.outer(p, p[:2]), ps))

    def test_a_point_outside_raises_from_one_predicate_call(self):
        S2 = CHARTS["S2"]
        calls = []
        M = dataclasses.replace(S2, domain_predicate=recording(S2.domain_predicate, calls))
        h = 1e-5
        p = np.array([2.0 - h / 2, 0.0])  # inside; only p + h e_0 leaves the chart
        assert M.contains(p)
        calls.clear()
        with pytest.raises(DomainError, match="stencil"):
            christoffel_derivative(M, p)
        assert [c.args[0].shape for c in calls] == [(2, 2, 2)]

    def test_total_space_stencil_leaving_the_chart_raises(self):
        chart = om_chart(get("E3").phi.source)
        x = sample_points(chart.manifold, 64, 1)[0]
        a = np.zeros(len(chart.basis))
        a[0] = 2.0 - 1e-5  # |a| < 2, but the step_h2 stencil crosses it
        total = total_space_manifold(chart, FDConfig(step_h2=1e-4))
        assert total.contains(chart.join(x, a))
        with pytest.raises(DomainError, match="stencil"):
            christoffel(total, chart.join(x, a))

    @pytest.mark.parametrize("a0,match", [(2.0 - 1e-5, "stencil"), (2.5, "outside chart domain")])
    def test_oracle_raises_where_the_total_space_christoffel_raises(self, a0, match):
        chart = om_chart(get("E3").phi.source)
        q = chart.join(sample_points(chart.manifold, 64, 1)[0], np.eye(len(chart.basis))[0] * a0)
        vP = lift_field(chart, "v", g_skew_endo_field(chart.manifold, np.random.default_rng(64)))
        with pytest.raises(DomainError, match=match) as generic:
            christoffel(total_space_manifold(chart), q)
        u = chart.decode(q)
        with pytest.raises(DomainError, match=match) as oracle:
            lc_total_space_oracle(chart, [(vP, vP)], u)
        assert str(oracle.value) == str(generic.value)


@functools.cache
def bundle_chart(example, bundle):
    phi = get(example).phi
    if bundle == "L":
        return LMChart(phi.source)
    if bundle == "O":
        return om_chart(phi.source)
    return adapted_chart(phi.source, derive_geometry(phi).horizontal)


def bundle_points(chart, seed, count):
    """count points (x, fibre) of a bundle chart away from its edges."""
    M = chart.manifold
    rng = np.random.default_rng(seed)
    xs = sample_points(M, seed, count)
    if isinstance(chart, LMChart):
        E = reference_frame(M, xs) @ (np.eye(M.dim) + 0.3 * rng.standard_normal((count, M.dim, M.dim)))
        return np.concatenate([xs, E.reshape(count, -1)], axis=1)
    return np.concatenate([xs, 0.4 * rng.standard_normal((count, len(chart.basis)))], axis=1)


def assert_close_rows(batched, rows):
    assert batched.shape == rows.shape
    assert np.max(np.abs(batched - rows)) <= 1e-14 * np.max(np.abs(rows))


class TestBatchedKernels:
    @settings(max_examples=40)
    @given(st.sampled_from(sorted(CHARTS)), st.integers(0, 10**6), st.integers(1, 6))
    def test_christoffel(self, name, seed, count):
        M = CHARTS[name]
        ps = sample_points(M, seed, count)
        ps = ps[M.domain_predicate(ps)]
        assume(len(ps) > 0)
        assert_close_rows(christoffel(M, ps), rows_of(lambda p: christoffel(M, p), ps))

    @settings(max_examples=40)
    @given(st.sampled_from(EXAMPLES), st.sampled_from(["L", "O", "D"]),
           st.integers(0, 10**6), st.integers(1, 4))
    def test_induced_metric(self, example, bundle, seed, count):
        chart = bundle_chart(example, bundle)
        qs = bundle_points(chart, seed, count)
        assert_close_rows(induced_metric_on_chart(chart, qs),
                          rows_of(lambda q: induced_metric_on_chart(chart, q), qs))

    @pytest.mark.parametrize("bundle", ["L", "O", "D"])
    def test_induced_metric_on_a_stencil_stack(self, bundle):
        chart = bundle_chart("E3", bundle)
        q = bundle_points(chart, 65, 1)[0]
        stencil = geometry_module._stencil(q, 1e-4)
        assert_close_rows(induced_metric_on_chart(chart, stencil),
                          rows_of(lambda p: induced_metric_on_chart(chart, p), stencil))


class TestOneInducedMetricPerStencil:
    @pytest.mark.parametrize("example", EXAMPLES)
    @pytest.mark.parametrize("bundle", ["L", "O", "D"])
    def test_total_space_christoffel_evaluates_the_metric_twice(self, calls, example, bundle):
        chart = bundle_chart(example, bundle)
        q = bundle_points(chart, 66, 1)[0]
        metrics = calls("induced_metric_on_chart")["induced_metric_on_chart"]
        christoffel(total_space_manifold(chart, FDConfig(step_h2=1e-4)), q)
        assert len(metrics) == 2  # q, then the whole 2 dim-point stencil


E3_GEOM = derive_geometry(get("E3").phi)
J2 = np.array([[0.0, -1.0], [1.0, 0.0]])


class TestLPairs:
    def fields(self):
        rng = np.random.default_rng(67)
        return dict(X=polynomial_vector_field(3, rng), Y=polynomial_vector_field(3, rng),
                    P=adapted_endo_field(E3_GEOM, top=0.8 * J2),
                    Q=adapted_endo_field(E3_GEOM, top=-1.3 * J2))

    def test_pairs_equal_one_call_per_pair(self):
        M, D = E3_GEOM.phi.source, E3_GEOM.horizontal
        f = self.fields()
        u = adapted_frame(M, D, sample_points(M, 68, 1)[0])
        p = u.base
        onb = [TangentVector(p, e) for e in u.columns.T]
        g, gamma = jet(M, p)
        pairs = [(E.eval(p), endo_covariant_derivative(E, x, p, E.eval(p), gamma), x)
                 for E, x in ((f["Q"], f["X"].eval(p)), (f["P"], f["Y"].eval(p)))]
        R = curvature_tensor(M, p)
        P_D, S = D.projector(p), S_at(E3_GEOM, p)
        for got, pair in zip(L_P_applies(g, pairs, p, onb, R, P_D, S), pairs):
            [want] = L_P_applies(g, [pair], p, onb, R, P_D, S)
            assert all(np.array_equal(got[k], want[k]) for k in want)

    def test_audit_builds_one_S_batch_and_W_and_no_curvature_tensor(self, calls):
        M, D = E3_GEOM.phi.source, E3_GEOM.horizontal
        u = adapted_frame(M, D, sample_points(M, 46, 1)[0])
        R = curvature_tensor(M, u.base)
        counted = calls("L_P_applies", "lc_total_space_oracle", "curvature_tensor", "S_components", "W_endo")
        adapted_connection_audit(M, D, u, self.fields(), *jet(M, u.base), R)
        # the caller's curvature tensor and S serve every pair, with one W
        assert {name: sum("L_P_applies" in c.within for c in counted[name])
                for name in ("curvature_tensor", "S_components", "W_endo")} == {
            "curvature_tensor": 0, "S_components": 0, "W_endo": 1}
        # besides the oracle's fields' own lifts, one S at u serves L_P, the lifted
        # right-hand sides and the jet, whose stencil is the other build
        assert [np.array_equal(c.args[2], u.base) for c in counted["S_components"]
                if "lc_total_space_oracle" not in c.within] == [True, False]


class TestDivBot:
    @pytest.mark.parametrize("example", EXAMPLES)
    def test_equals_the_opaque_field_stencil(self, example):
        # the stencil built C(q) from its own adapted frame before; the frame is the same
        geom = derive_geometry(get(example).phi)
        M, k = geom.phi.source, geom.rank
        u = adapted_frame(M, geom.horizontal, sample_points(M, 69, 1)[0])
        top = np.random.default_rng(70).standard_normal((k, k))
        C = adapted_endo_field(geom, top=top)
        gamma, Pi_H = held(geom, u.base)
        dCE = _frame_jet(geom, u, range(k), geometry_module.DEFAULT_FD, lambda q, Eq: C.eval(q) @ Eq)
        E = u.columns[:, :k]
        want = (np.eye(M.dim) - Pi_H) @ (np.einsum("aia->i", dCE[..., :k])
                                         + np.einsum("mij,ia,ja->m", gamma, E, C.eval(u.base) @ E))
        assert np.array_equal(div_bot(geom, top[None], u, gamma, Pi_H)[0], want)

    @pytest.mark.parametrize("example", EXAMPLES)
    def test_blocks_per_frame_equal_one_call_per_frame(self, example):
        u, geom = frame_stack(example)
        tops = np.random.default_rng(111).standard_normal((4, 3, geom.rank, geom.rank))
        got = div_bot(geom, tops, u, *held(geom, u.base))
        assert got.shape == (4, 3, geom.phi.source.dim)
        for i in range(3):
            assert np.array_equal(got[:, i], div_bot(geom, tops[:, i], u[i], *held(geom, u.base[i])))

    def test_builds_one_adapted_frame_per_stencil(self, calls):
        M = E3_GEOM.phi.source
        u = adapted_frame(M, E3_GEOM.horizontal, sample_points(M, 71, 1)[0])
        frames = calls("adapted_frame")["adapted_frame"]
        div_bot(E3_GEOM, np.array([J2, 0.5 * J2]), u, *held(E3_GEOM, u.base))
        assert len(frames) == 1  # the whole stencil over the k directions, for every block


class TestSameFrame:
    def test_one_frame_object_is_not_compared(self):
        u = types.SimpleNamespace(base=None, columns=None)  # any comparison would raise
        frames_module._same_frame(u, u)
        with pytest.raises(TypeError):
            frames_module._same_frame(u, types.SimpleNamespace(base=None, columns=None))

    def test_a_stack_of_frames(self):
        M = CHARTS["S3"]
        xs = sample_points(M, 72, 4)
        u = Frame(xs, reference_frame(M, xs))
        assert u.vector(1).shape == (4, 3)
        assert np.array_equal(metric_eval(M, xs), rows_of(lambda x: metric_eval(M, x), xs))


GEOMS = {eid: derive_geometry(get(eid).phi) for eid in EXAMPLES}


def stencil_points(M, seed):
    """Six sample points of M as a (2, 3, n) stack, the shape of a stencil over 3 directions."""
    return sample_points(M, seed, 6).reshape(2, 3, M.dim)


class TestSplittingStack:
    """The splitting path takes stacks: a stack's rows equal row-by-row calls bit for bit."""

    @pytest.mark.parametrize("example", EXAMPLES)
    def test_submersion_fields(self, example):
        phi = get(example).phi
        ps = stencil_points(phi.source, 73)
        for f in (phi.map, phi.jacobian, *(V.eval for V in phi.vertical_fields)):
            assert np.array_equal(f(ps), rows_of(f, ps))

    @pytest.mark.parametrize("example", EXAMPLES)
    def test_projectors_seed_frame_and_adapted_frame(self, example):
        geom = GEOMS[example]
        M, D = geom.phi.source, geom.horizontal
        ps = stencil_points(M, 74)
        for part in (0, 1):
            f = lambda q: splitting_projectors(geom.phi, q)[part]  # noqa: E731
            assert np.array_equal(f(ps), rows_of(f, ps))
        for f in (D.projector, D.seed_frame, lambda q: adapted_frame(M, D, q).columns):
            assert np.array_equal(f(ps), rows_of(f, ps))
        u = adapted_frame(M, D, ps)
        assert np.array_equal(u.base, ps) and u.columns.shape == ps.shape + (M.dim,)

    @pytest.mark.parametrize("example", EXAMPLES)
    def test_directional_diff_over_stacked_directions(self, example):
        geom = GEOMS[example]
        M, D = geom.phi.source, geom.horizontal
        p = sample_points(M, 75, 1)[0]
        vs = np.random.default_rng(76).standard_normal((4, M.dim))
        vs[2] = 0.0
        calls = []
        got = directional_diff(recording(D.projector, calls), p, vs, 1e-5)
        assert [c.args[0].shape for c in calls] == [(2, 4, M.dim)]  # one call on the whole stencil
        want = np.array([directional_diff(D.projector, p, v, 1e-5) for v in vs])
        assert np.array_equal(got, want)
        assert np.array_equal(got[2], np.zeros((M.dim, M.dim)))

    def test_one_rank_deficient_point_raises(self):
        # J = [[1, 0, 0], [0, y, 0]] loses rank where y = 0
        phi = SubmersionSpec(
            source=euclidean_chart(3), target=euclidean_chart(2),
            map=lambda p: np.stack([p[..., 0], 0.5 * p[..., 1] ** 2], axis=-1),
            jacobian=lambda p: np.eye(2, 3) * np.stack(
                [np.ones(p.shape[:-1]), p[..., 1]], axis=-1)[..., :, None],
            vertical_fields=[constant_field(np.array([0.0, 0.0, 1.0]))])
        ps = np.array([[0.1, 0.5, 0.2], [0.3, 0.0, -0.1], [0.2, -0.4, 0.3]])
        for p in ps[[0, 2]]:
            splitting_projectors(phi, p)
        splitting_projectors(phi, ps[[0, 2]])
        with pytest.raises(ValueError, match="rank deficient"):
            splitting_projectors(phi, ps)

    def test_k_equals_n_builds_its_seed_frame(self):
        # the plane scaling of TestDilatation::test_composition_law: no kernel
        R2 = euclidean_chart(2)
        scale = SubmersionSpec(source=R2, target=euclidean_chart(2, half_width=3.5),
                               map=lambda p: 2.0 * p,
                               jacobian=lambda p: np.zeros(p.shape[:-1] + (1, 1)) + 2.0 * np.eye(2),
                               vertical_fields=[])
        D = derive_geometry(scale).horizontal
        ps = stencil_points(R2, 77)
        assert D.seed_frame(ps).shape == (2, 3, 2, 2)
        assert np.array_equal(D.seed_frame(ps), rows_of(D.seed_frame, ps))
        assert np.array_equal(adapted_frame(R2, D, ps[0, 0]).columns, np.eye(2))


class TestHopfQuotient:
    """hopf_map is z1/z2 in closed form; it equals the chart composite it replaced."""

    @settings(max_examples=200)
    @given(st.lists(st.floats(-0.4, 0.4), min_size=3, max_size=3))
    def test_equals_the_composite(self, x):
        x = np.array(x)
        assert np.max(np.abs(hopf_map(x) - hopf_composite(x))) <= 1e-14
        assert np.max(np.abs(hopf_jacobian(x) - hopf_composite_jacobian(x))) <= 1e-14


def on_base(example, *fields):
    """(points, function) for each field function of fields on the example's source chart."""
    ps = stencil_points(get(example).phi.source, 83)
    return [(ps, f) for F in fields for f in (F.eval, getattr(F, "jacobian", None)) if f is not None]


def on_bundle(example, bundle, field):
    """(points, chart rates) for the frame field ``field(chart)`` on a bundle chart of the
    example, read through its chart field as the oracle reads it."""
    chart = bundle_chart(example, bundle)
    F = field(chart)
    [(chart_field, _)] = frames_module._chart_fields(chart, [(F, F)], geometry_module.DEFAULT_FD)
    return [(bundle_points(chart, 84, 6).reshape(2, 3, chart.dim), chart_field.eval)]


def lift_field(chart, kind, F, *horizontal):
    """The frame field ``frames._case_fields`` makes of F: its horizontal lift for kind "h"
    (``_case_fields``' own, or the one ``horizontal`` names), the fundamental vertical of
    an endomorphism field for "v"."""
    case = kind + kind
    return frames_module._case_fields(
        chart.manifold, [(case, (F, F))], *horizontal)[0][0]


def skew_blocks(geom):
    """Adapted endomorphism field, g-skew with a rotation in each block of size >= 2."""
    n, k = geom.phi.source.dim, geom.rank
    top, bot = np.zeros((k, k)), np.zeros((n - k, n - k))
    if k >= 2:
        top[:2, :2] = J2
    if n - k >= 2:
        bot[:2, :2] = -0.7 * J2
    return adapted_endo_field(geom, top=top, bot=bot)


def source_dim(example):
    return get(example).phi.source.dim


# Every field constructor in src, by module: (example, rng) -> [(points (2, 3, dim), field function)].
# ``test_the_table_lists_every_public_field_constructor`` keeps the public ones complete.
FIELD_CONSTRUCTORS = {
    "geometry.constant_field": lambda ex, rng: on_base(
        ex, constant_field(rng.standard_normal(source_dim(ex)))),
    "geometry.coordinate_field": lambda ex, rng: on_base(ex, coordinate_field(1, source_dim(ex))),
    "fields.polynomial_vector_field": lambda ex, rng: on_base(
        ex, polynomial_vector_field(source_dim(ex), rng),
        polynomial_vector_field(source_dim(ex), rng, exact_jacobian=False)),
    "fields.polynomial_endo_field": lambda ex, rng: on_base(
        ex, polynomial_endo_field(source_dim(ex), rng)),
    "fields.g_skew_endo_field": lambda ex, rng: on_base(
        ex, g_skew_endo_field(get(ex).phi.source, rng)),
    "catalog.hopf_vertical_field": lambda ex, rng: on_base("E3", hopf_vertical_field()),
    "submersion.adapted_endo_field": lambda ex, rng: on_base(ex, skew_blocks(GEOMS[ex])),
    "frames._case_fields(h)": lambda ex, rng: [
        case for bundle in ("L", "O") for case in on_bundle(ex, bundle, lambda chart: (
            lift_field(chart, "h", polynomial_vector_field(source_dim(ex), rng))))],
    "frames._case_fields(v)": lambda ex, rng: [
        *on_bundle(ex, "L", lambda chart: lift_field(
            chart, "v", polynomial_endo_field(source_dim(ex), rng))),
        *on_bundle(ex, "O", lambda chart: lift_field(
            chart, "v", g_skew_endo_field(get(ex).phi.source, rng))),
        *on_bundle(ex, "D", lambda chart: lift_field(chart, "v", skew_blocks(GEOMS[ex])))],
    "frames._case_fields(adapted h)": lambda ex, rng: on_bundle(
        ex, "D", lambda chart: lift_field(
            chart, "h", polynomial_vector_field(source_dim(ex), rng),
            lambda M, X, v: adapted_module.adapted_horizontal_lift(M, GEOMS[ex].horizontal, X, v))),
}


class TestFieldStack:
    """Every field takes stacks of points: a stack's rows equal row-by-row calls bit for bit."""

    @pytest.mark.parametrize("example", EXAMPLES)
    @pytest.mark.parametrize("constructor", sorted(FIELD_CONSTRUCTORS))
    def test_stack_equals_rows_bit_for_bit(self, constructor, example):
        cases = FIELD_CONSTRUCTORS[constructor](example, np.random.default_rng(85))
        assert cases
        for qs, f in cases:
            got = f(qs)
            assert got.shape[:3] == qs.shape[:2] + got.shape[2:3]
            assert np.array_equal(got, rows_of(f, qs))

    def test_the_table_lists_every_public_field_constructor(self):
        found = set()
        for module in (geometry_module, fields_module, catalog_module, frames_module,
                       adapted_module, submersion_module, tangent_module):
            for name, fn in inspect.getmembers(module, inspect.isfunction):
                returns = inspect.signature(fn).return_annotation
                if fn.__module__ == module.__name__ and not name.startswith("_") and (
                        returns in ("VectorField", "EndomorphismField")
                        or name.endswith("_field_on_chart")):
                    found.add(f"{module.__name__.rpartition('.')[2]}.{name}")
        assert found == {name for name in FIELD_CONSTRUCTORS if "._" not in name}

    def test_polynomial_fields_keep_their_single_point_values(self):
        M = get("E2").phi.source
        n = M.dim
        rng = np.random.default_rng(86)
        X, P, K = (polynomial_vector_field(n, rng), polynomial_endo_field(n, rng),
                   g_skew_endo_field(M, rng))
        rng = np.random.default_rng(86)  # the same coefficients, drawn again
        c0, c1, c2 = rng.standard_normal(n), 0.3 * rng.standard_normal((n, n)), \
            0.3 * rng.standard_normal((n, n, n))
        c2 = 0.5 * (c2 + c2.transpose(0, 2, 1))
        d0, d1 = rng.standard_normal((n, n)), 0.3 * rng.standard_normal((n, n, n))
        k0, k1 = rng.standard_normal((n, n)), 0.3 * rng.standard_normal((n, n, n))
        for p in sample_points(M, 87, 5):
            assert np.array_equal(X.eval(p), c0 + c1 @ p + 0.5 * np.einsum("ijk,j,k->i", c2, p, p))
            assert np.array_equal(X.jacobian(p), c1 + np.einsum("ijk,k->ij", c2, p))
            assert np.array_equal(P.eval(p), d0 + np.einsum("ijk,k->ij", d1, p))
            Kp = k0 + np.einsum("ijk,k->ij", k1, p)
            assert np.array_equal(K.eval(p), np.linalg.solve(metric_eval(M, p), 0.5 * (Kp - Kp.T)))

    @pytest.mark.parametrize("example", EXAMPLES)
    @pytest.mark.parametrize("exact_jacobian", [True, False])
    def test_per_point_coefficients_equal_one_field_per_row(self, example, exact_jacobian):
        # row i of points (2, 4, 3, n) uses the coefficients of draw i; stencil axes lead
        M = get(example).phi.source
        n = M.dim
        draws = np.random.default_rng(88).standard_normal((3, n + n**2 + n**3))
        qs = sample_points(M, 89, 24).reshape(2, 4, 3, n)
        F = _polynomial_vector_field(draws, n, exact_jacobian=exact_jacobian)
        rows = [_polynomial_vector_field(d, n, exact_jacobian=exact_jacobian) for d in draws]
        assert np.array_equal(F.eval(qs), np.stack([f.eval(qs[..., i, :]) for i, f in enumerate(rows)],
                                                   axis=-2))
        if exact_jacobian:
            assert np.array_equal(F.jacobian(qs), np.stack(
                [f.jacobian(qs[..., i, :]) for i, f in enumerate(rows)], axis=-3))
        else:
            assert F.jacobian is None and rows[0].jacobian is None

    def test_a_function_of_one_point_raises_on_a_stencil(self):
        p, v = np.array([0.1, 0.2, 0.3]), np.array([1.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="leading axes"):
            directional_diff(lambda q: np.outer(q, q), p, v, 1e-5)
        with pytest.raises(ValueError, match="leading axes"):
            central_diff(lambda q: np.linalg.norm(q), p, 1e-5)


class TestChartFieldStack:
    @pytest.mark.parametrize("bundle", ["O", "D"])
    def test_field_to_chart_raises_when_one_point_is_not_tangent(self, bundle):
        chart = bundle_chart("E3", bundle)
        qs = bundle_points(chart, 88, 3)

        def tangent_at(u, bad=1):
            rate = np.zeros(u.columns.shape)
            rate[bad] = u.columns[bad]  # P = I: not skew, so off O(M) and O(D)
            return FrameTangent(u, np.zeros(u.base.shape), rate)

        def rates_at(q, *bad):
            return chart.field_to_chart(q, lambda u: tangent_at(u, *bad))

        with pytest.raises(ValueError, match="not tangent"):
            rates_at(qs)
        with pytest.raises(ValueError, match="not tangent"):
            rates_at(qs[1], ...)
        assert np.array_equal(rates_at(qs[[0, 2]], []), np.zeros((2, chart.dim)))

    def test_lm_join_keeps_the_stack(self):
        chart = bundle_chart("E2", "L")
        qs = bundle_points(chart, 89, 6).reshape(2, 3, chart.dim)
        u = chart.decode(qs)
        assert np.array_equal(chart.join(u.base, u.columns), qs)
        assert np.array_equal(chart.encode(chart.decode(qs[1, 2])), qs[1, 2])


def base_shapes(calls):
    """The base shape of the frame at which each recorded call of a frame field ran."""
    return [c.args[0].base.shape for c in calls]


class TestFieldCallCounts:
    def test_oracle_of_four_pairs_makes_six_field_calls(self):
        chart = bundle_chart("E3", "O")
        M = chart.manifold
        rng = np.random.default_rng(90)
        calls = []
        hX, hY = (recording(lift_field(chart, "h", polynomial_vector_field(3, rng)), calls)
                  for _ in range(2))
        vP, vQ = (recording(lift_field(chart, "v", g_skew_endo_field(M, rng)), calls)
                  for _ in range(2))
        u = chart.decode(bundle_points(chart, 91, 1)[0])
        lc_total_space_oracle(chart, [(hX, hY), (hX, vQ), (vP, hY), (vP, vQ)], u)
        # each field at q's frame, then hY and vQ once on the stencil frames of both directions
        assert sorted(base_shapes(calls)) == sorted([(M.dim,)] * 4 + [(2, 2, M.dim)] * 2)

    def test_fd_bracket_makes_four_field_calls(self):
        chart = bundle_chart("E3", "O")
        M = chart.manifold
        rng = np.random.default_rng(90)
        calls = []
        A = recording(lift_field(chart, "h", polynomial_vector_field(3, rng)), calls)
        B = recording(lift_field(chart, "v", g_skew_endo_field(M, rng)), calls)
        fd_bracket_on_chart(chart, [(A, B)], chart.decode(bundle_points(chart, 91, 1)[0]))
        # A and B at q's frame, B along a and A along b on the one stencil
        assert base_shapes(calls) == [(M.dim,), (M.dim,), (2, 1, M.dim), (2, 1, M.dim)]

    def test_fd_bracket_of_three_cases_makes_eight_field_calls(self):
        # the frame suite's hh, hv and vv cases in one call: X^h, Y^h, Q* and P* once at
        # q's frame and once on the stencil rows of the directions each is differenced
        # along: Y^h along X^h; X^h along Y^h and Q*; Q* along X^h and P*; P* along Q*
        chart = bundle_chart("E3", "L")
        M = chart.manifold
        rng = np.random.default_rng(90)
        calls = []
        hX, hY = (recording(lift_field(chart, "h", polynomial_vector_field(3, rng)), calls)
                  for _ in range(2))
        vQ, vP = (recording(lift_field(chart, "v", polynomial_endo_field(3, rng)), calls)
                  for _ in range(2))
        fd_bracket_on_chart(chart, [(hX, hY), (hX, vQ), (vP, vQ)], chart.decode(bundle_points(chart, 91, 1)[0]))
        assert sorted(base_shapes(calls)) == sorted([(M.dim,)] * 4 + [(2, 1, M.dim)] * 2 + [(2, 2, M.dim)] * 2)

    @pytest.mark.parametrize("bundles,reads", [("L", 6), ("O", 6), ("LO", 9)], ids=["L", "O", "LO"])
    def test_connection_audit_reads_each_frame_field_once(self, calls, bundles, reads):
        # X^h, Y^h, P*, Q* of each bundle at q, and the B fields Y^h and Q* on the stencil;
        # both bundles share X^h and Y^h.  Every read is on L(M): O(M) is its projection
        M = get("E2").phi.source
        rng = np.random.default_rng(92)
        X, Y = polynomial_vector_field(3, rng), polynomial_vector_field(3, rng)
        fields = {bundle: dict(X=X, Y=Y, P=g_skew_endo_field(M, rng) if bundle == "O" else polynomial_endo_field(3, rng),
                               Q=g_skew_endo_field(M, rng) if bundle == "O" else polynomial_endo_field(3, rng))
                  for bundle in bundles}
        p = sample_points(M, 93, 1)[0]
        R = curvature_tensor(M, p)
        counted = calls("FrameChart.jacobian", "LMChart.field_to_chart")
        frames_module.connection_audit(M, Frame(p, reference_frame(M, p)), fields, *jet(M, p), R)
        assert len(counted["LMChart.field_to_chart"]) == reads and counted["FrameChart.jacobian"] == []

    def test_lie_bracket_makes_four_field_calls(self):
        rng = np.random.default_rng(94)
        calls = []
        X, Y = (VectorField(eval=recording(polynomial_vector_field(3, rng, exact_jacobian=False).eval,
                                           calls)) for _ in range(2))
        lie_bracket(X, Y, np.array([0.1, -0.2, 0.3]))
        # X and Y at p, then each on the stencil of its one direction
        assert [c.args[0].shape for c in calls] == [(3,), (3,), (2, 1, 3), (2, 1, 3)]


class TestTorsionBatch:
    @pytest.mark.parametrize("example", EXAMPLES)
    def test_torsion_equals_the_difference_tensor_lines(self, example):
        geom = GEOMS[example]
        M, D = geom.phi.source, geom.horizontal
        p = sample_points(M, 95, 1)[0]
        rng = np.random.default_rng(96)
        X, Y = (polynomial_vector_field(M.dim, rng) for _ in range(2))
        SXY, SYX = (adapted_module.adapted_derivatives(M, D, F.eval(p), [G], p, *held(geom, p))[1][0]
                    for F, G in ((X, Y), (Y, X)))
        want = SYX - SXY
        assert np.max(np.abs(torsion_TD(X, Y, p, S_at(geom, p)).components - want)) < 1e-6


class TestJacobianProducts:
    @pytest.mark.parametrize("example", EXAMPLES)
    def test_stacked_products_equal_the_rows(self, example):
        # a stack laid out unlike one point makes matmul round its rows differently
        phi = get(example).phi
        ps = stencil_points(phi.source, 97)
        ys = np.random.default_rng(98).standard_normal(ps.shape)
        product = lambda p, y: (phi.jacobian(p) @ y[..., None])[..., 0]  # noqa: E731
        rows = np.array([product(p, y) for p, y in zip(ps.reshape(6, -1), ys.reshape(6, -1))])
        assert np.array_equal(product(ps, ys), rows.reshape(ps.shape[:2] + rows.shape[1:]))


def frame_stack(example, seed=99):
    """Three adapted frames of the example, as one stack, and its geometry."""
    geom = GEOMS[example]
    return adapted_frame(geom.phi.source, geom.horizontal, sample_points(geom.phi.source, seed, 3)), geom


def flat(value):
    """The arrays of a function's value, in order: tangents by their frame or point and rates."""
    if isinstance(value, TangentVector):
        return [value.base, value.components]
    if isinstance(value, FrameTangent):
        return [*flat(value.at), value.base_rate, value.frame_rate]
    if isinstance(value, Frame):
        return [value.base, value.columns]
    if isinstance(value, (list, tuple)):
        return [a for v in value for a in flat(v)]
    return [np.asarray(value)]


def lifted(geom, u, x):
    """The adapted horizontal lift of x at u, for a frame or a stack."""
    return adapted_module.adapted_horizontal_lift(geom.phi.source, geom.horizontal,
                                                  TangentVector(u.base, x), u)


def tangent_at(geom, u, x, P):
    """X^h + P* at u, for a frame or a stack."""
    M = geom.phi.source
    return (frames_module.horizontal_lift_frame(christoffel(M, u.base), TangentVector(u.base, x), u)
            + frames_module.fundamental_vertical(P, u))


def vertical(geom, E, c):
    """The vector with coefficients c[k:] in the vertical columns of the frames E."""
    return (E[..., :, geom.rank:] @ c[..., geom.rank:, None])[..., 0]


def horizontal(geom, E, c):
    """The vector with coefficients c[:k] in the horizontal columns of the frames E."""
    return (E[..., :, :geom.rank] @ c[..., :geom.rank, None])[..., 0]


def lift_differential_cases(geom, u, x, c, P):
    """The closed-form lift differential at u for each input type: x, the vertical
    vector with coefficients c and the endomorphism P."""
    S, B = S_at(geom, u.base), submersion_module.second_fundamental_tensor(geom.phi, u.base)
    split = submersion_module.splitting(geom.phi, u.base)
    return [submersion_module.lift_differential_formula(geom, case, value, u, S, B, split) for case, value in (
        ("horizontal-of-H", x), ("horizontal-of-V", vertical(geom, u.columns, c)), ("vertical", P))]


# two so(k) blocks by rank, the same at every frame
TOPS = {k: np.random.default_rng(105).standard_normal((2, k, k)) for k in (1, 2)}


def vectors(*shape):
    return lambda geom, rng: rng.standard_normal((3, *shape, geom.phi.source.dim))


def endos(*shape):
    return lambda geom, rng: rng.standard_normal((3, *shape) + (geom.phi.source.dim,) * 2)


def columns(geom, rng):
    """A frame column index at each of 3 frames."""
    return rng.integers(geom.phi.source.dim, size=3)


def audit_fields(geom, bundle):
    """X, Y and P, Q (g-skew for O(M)) on the example's source, the same fields at every call."""
    M = geom.phi.source
    rng = np.random.default_rng(108)
    endo = (lambda: g_skew_endo_field(M, rng)) if bundle == "O" else (
        lambda: polynomial_endo_field(M.dim, rng))
    return dict(X=polynomial_vector_field(M.dim, rng), Y=polynomial_vector_field(M.dim, rng),
                P=endo(), Q=endo())


def audit_cases(geom, bundle, names):
    """(case, inputs) of each named case, on ``audit_fields``."""
    f = audit_fields(geom, bundle)
    inputs = {"hh": ("X", "Y"), "hv": ("X", "Q"), "vh": ("P", "Y"), "vv": ("P", "Q")}
    return [(case, tuple(f[k] for k in inputs[case])) for case in names]


def bracket_readings(geom, u, of):
    """The readings of ``of`` (``bracket_rhs``, a case at a time, or ``bracket_residual``, the
    cases at once) for each bracket case at u."""
    M, R = geom.phi.source, curvature_tensor(geom.phi.source, u.base)
    cases = audit_cases(geom, "L", ("hh", "hv", "vv"))
    g, gamma = jet(M, u.base)
    readings = (of(M, LMChart(M), cases, u, g, gamma, R) if of is frames_module.bracket_residual
                else [of(case, inputs, u, gamma, R) for case, inputs in cases])
    return [value for lines in readings for value in lines.values()]


def connection_lines(geom, u):
    """Every closed-form connection line at u, on L(M) and O(M)."""
    M = geom.phi.source
    lines = frames_module.lc_connection_formula(
        M, {bundle: audit_cases(geom, bundle, ("hh", "hv", "vh", "vv")) for bundle in ("L", "O")}, u,
        *jet(M, u.base), curvature_tensor(M, u.base))
    return [t for bundle in ("L", "O") for d in lines[bundle] for t in d.values()]


def connection_residuals(geom, u):
    """The residual of every connection_audit row at u on L(M), and at the reference frames on O(M)."""
    M = geom.phi.source
    R = curvature_tensor(M, u.base)
    return [r["residual"] for bundle, v in (("L", u), ("O", Frame(u.base, reference_frame(M, u.base))))
            for r in frames_module.connection_audit(M, v, {bundle: audit_fields(geom, bundle)}, *jet(M, u.base), R)]


def projected(geom, u, t):
    """``gauss_projection`` of the tangent t at the adapted frames u onto O(D)."""
    M, D, p = geom.phi.source, geom.horizontal, u.base
    return frames_module.gauss_projection(M, [t], *jet(M, p), geometry_module.metric_derivative_eval(M, p),
                                          D.projector(p), central_diff(D.projector, p, geometry_module.DEFAULT_FD.step_h), geom.rank)


def od_oracle(geom, u, of):
    """``of`` (``lc_total_space_oracle`` or ``fd_bracket_on_chart``) on the audits' four pairs
    of frame fields on O(D), adapted lifts and block-diagonal verticals, at the adapted
    frames u."""
    M, D = geom.phi.source, geom.horizontal
    chart, f = adapted_chart(M, D), audit_fields(geom, "L")
    P, Q = skew_blocks(geom), skew_blocks(geom)
    pairs = frames_module._case_fields(
        M, [("hh", (f["X"], f["Y"])), ("hv", (f["X"], Q)), ("vh", (P, f["Y"])), ("vv", (P, Q))],
        lambda M, X, v: adapted_module.adapted_horizontal_lift(M, D, X, v))
    return of(chart, pairs, u)


# Every public function of a frame or a frame tangent, by module.  A function that
# takes a stack of frames maps to (inputs, f): ``inputs`` draw per-frame arrays
# (leading axis 3) and f(geom, u, *inputs) calls the function at the frame or stack
# u.  A function that takes one frame maps to the reason.
# ``test_the_table_lists_every_public_frame_function`` keeps the table complete.
ONE_FRAME_AUDIT = ("audits one frame against the total-space oracle, which encodes u as one "
                   "chart point; its closed forms differentiate fields at one point")
FRAME_FUNCTIONS = {
    "frames.horizontal_lift_frame": ([vectors()], lambda geom, u, x: frames_module.horizontal_lift_frame(
        christoffel(geom.phi.source, u.base), TangentVector(u.base, x), u)),
    "frames.fundamental_vertical": ([endos()], lambda geom, u, P: frames_module.fundamental_vertical(P, u)),
    "frames.vertical_part": ([vectors(), endos()], lambda geom, u, x, P: frames_module.vertical_part(
        christoffel(geom.phi.source, u.base), tangent_at(geom, u, x, P))),
    "frames.mok_metric": ([vectors(), endos(), vectors(), endos()],
                          lambda geom, u, x, P, y, Q: frames_module.mok_metric(
                              *jet(geom.phi.source, u.base), tangent_at(geom, u, x, P), tangent_at(geom, u, y, Q))),
    "frames.frame_diff": ([vectors(), endos()], lambda geom, u, x, P: frames_module.frame_diff(
        lambda xs, Es: (metric_eval(geom.phi.source, xs), Es), tangent_at(geom, u, x, P), 1e-5)),
    "frames.mok_norm": ([vectors(), endos()], lambda geom, u, x, P: frames_module.mok_norm(
        *jet(geom.phi.source, u.base), tangent_at(geom, u, x, P))),
    "frames.mok_gram": ([vectors(4), endos(4)], lambda geom, u, xs, Ps: frames_module.mok_gram(
        *jet(geom.phi.source, u.base), [tangent_at(geom, u, xs[..., a, :], Ps[..., a, :, :]) for a in range(4)])),
    "frames.mok_orthonormalize": ([vectors(4), endos(4)], lambda geom, u, xs, Ps: frames_module.mok_orthonormalize(
        *jet(geom.phi.source, u.base), [tangent_at(geom, u, xs[..., a, :], Ps[..., a, :, :]) for a in range(4)])),
    "adapted.W_endo": ([], lambda geom, u: adapted_module.W_endo(
        metric_eval(geom.phi.source, u.base), u, S_at(geom, u.base))),
    "adapted.adapted_horizontal_lift": ([vectors()], lifted),
    "adapted.od_membership_defect": ([], lambda geom, u: adapted_module.od_membership_defect(
        geom.phi.source, geom.horizontal, u, geom.horizontal.projector(u.base))),
    "adapted.od_tangency_residual": ([vectors()], lambda geom, u, x: adapted_module.od_tangency_residual(
        geom.phi.source, geom.horizontal, lifted(geom, u, x))),
    "submersion.lift_map": ([], lambda geom, u: submersion_module.lift_map(
        geom, u, geom.horizontal.projector(u.base))),
    "submersion.lift_differential_fd": ([vectors()], lambda geom, u, x: submersion_module.lift_differential_fd(
        geom, lifted(geom, u, x), geom.horizontal.projector(u.base))),
    "submersion.lift_distributions": ([], lambda geom, u: submersion_module.lift_distributions(
        geom, u, *held(geom, u.base), S_at(geom, u.base))),
    "submersion.lift_conformality_measurement": ([], lambda geom, u: (
        submersion_module.lift_conformality_measurement(geom, u, *held(geom, u.base), S_at(geom, u.base)))),
    "submersion.lift_differential_formula": ([vectors(), vectors(), endos()], lift_differential_cases),
    "submersion.dilatation": ([], lambda geom, u: submersion_module.dilatation(geom, u)),
    "submersion.div_bot": ([], lambda geom, u: np.moveaxis(
        submersion_module.div_bot(geom, TOPS[geom.rank], u, *held(geom, u.base)), 0, -2)),
    "submersion.fiber_second_fundamental_form": ([], lambda geom, u: (
        submersion_module.fiber_second_fundamental_form(geom, u, *held(geom, u.base)))),
    "submersion.fiber_second_fundamental_defect": ([], lambda geom, u: (
        submersion_module.fiber_second_fundamental_defect(geom, u, *held(geom, u.base)))),
    "submersion.mean_curvature_fibers": ([], lambda geom, u: (
        submersion_module.mean_curvature_fibers(geom, u, *held(geom, u.base)))),
    "frames.lc_connection_formula": ([], connection_lines),
    "frames.bracket_rhs": ([], lambda geom, u: bracket_readings(geom, u, frames_module.bracket_rhs)),
    "frames.bracket_residual": ([], lambda geom, u: bracket_readings(geom, u, frames_module.bracket_residual)),
    "frames.connection_audit": ([], connection_residuals),
    "frames.lc_total_space_oracle": ([], lambda geom, u: od_oracle(geom, u, frames_module.lc_total_space_oracle)),
    "frames.fd_bracket_on_chart": ([], lambda geom, u: od_oracle(geom, u, frames_module.fd_bracket_on_chart)),
    "frames.gauss_projection": ([vectors(), endos()], lambda geom, u, x, P: projected(geom, u, tangent_at(geom, u, x, P))),
    "adapted.adapted_connection_audit": ONE_FRAME_AUDIT,
    # each column of every frame, then one column per frame
    "tangent.pi_i_differential": ([vectors(), endos(), columns], lambda geom, u, x, P, c: [
        tangent_module.pi_i_differential(geom.phi.source, tangent_at(geom, u, x, P), i)
        for i in [*range(geom.phi.source.dim), c]]),
    "tangent.pi_i_differential_fd": ([vectors(), endos(), columns], lambda geom, u, x, P, c: [
        tangent_module.pi_i_differential_fd(geom.phi.source, tangent_at(geom, u, x, P), i)
        for i in [*range(geom.phi.source.dim), c]]),
}
STACKED = sorted(name for name, case in FRAME_FUNCTIONS.items() if not isinstance(case, str))


class TestFrameStack:
    """Every function of a frame takes a stack of frames: a stack's rows equal row-by-row calls."""

    @pytest.mark.parametrize("example", EXAMPLES)
    @pytest.mark.parametrize("name", STACKED)
    def test_stack_equals_rows(self, name, example):
        draws, f = FRAME_FUNCTIONS[name]
        u, geom = frame_stack(example)
        rng = np.random.default_rng(100)
        inputs = [draw(geom, rng) for draw in draws]
        got = flat(f(geom, u, *inputs))
        rows = [flat(f(geom, u[i], *(a[i] for a in inputs))) for i in range(3)]
        if name == "adapted.od_membership_defect":  # the worst frame of the stack
            assert got[0] == max(r[0] for r in rows)
            return
        assert len(got) == len(rows[0])
        for j, a in enumerate(got):
            assert np.array_equal(a, np.stack([r[j] for r in rows])), (name, j)

    def test_the_table_lists_every_public_frame_function(self):
        found = set()
        for module in (geometry_module, fields_module, catalog_module, frames_module,
                       adapted_module, submersion_module, tangent_module):
            for name, fn in inspect.getmembers(module, inspect.isfunction):
                annotations = [str(p.annotation) for p in inspect.signature(fn).parameters.values()]
                if fn.__module__ == module.__name__ and not name.startswith("_") and any(
                        a == "Frame" or "FrameTangent" in a for a in annotations):
                    found.add(f"{module.__name__.rpartition('.')[2]}.{name}")
        # the tangent bundle's functions take one-column frames and have a table of their own
        assert found == set(FRAME_FUNCTIONS) | set(TANGENT_FUNCTIONS)


class TestFrameCallCounts:
    @pytest.mark.parametrize("example", EXAMPLES)
    def test_lifts_check_membership_once_from_the_projector_they_share(self, calls, example):
        u, geom = frame_stack(example, 101)
        D, S, (gamma, Pi_H) = geom.horizontal, S_at(geom, u.base), held(geom, u.base)
        projectors = []
        geom = dataclasses.replace(geom, horizontal=dataclasses.replace(
            D, projector_field=recording(D.projector_field, projectors)))
        counted = calls("_adapted_horizontal_lifts", "od_membership_defect")
        submersion_module.lift_distributions(geom, u, gamma, Pi_H, S)
        assert [len(c) for c in counted.values()] == [1, 1]
        # the membership check reads the caller's P(p)
        assert [c.args[0].shape for c in projectors].count(u.base.shape) == 0

    def test_audit_lifts_its_right_hand_sides_in_one_batch(self, calls):
        M, D = E3_GEOM.phi.source, E3_GEOM.horizontal
        u = adapted_frame(M, D, sample_points(M, 102, 1)[0])
        lifts = calls("_adapted_horizontal_lifts")["_adapted_horizontal_lifts"]
        adapted_connection_audit(M, D, u, TestLPairs().fields(), *jet(M, u.base), curvature_tensor(M, u.base))
        # the oracle's chart fields decode frames of their own
        assert [len(c.args[2]) for c in lifts if c.args[3] is u] == [6]

    @pytest.mark.parametrize("bundle", ["L", "O"])
    def test_connection_audit_builds_one_basis_and_no_curvature_tensor(self, calls, bundle):
        M = get("E2").phi.source
        rng = np.random.default_rng(103)
        endo = (lambda: g_skew_endo_field(M, rng)) if bundle == "O" else (
            lambda: polynomial_endo_field(3, rng))
        fields = dict(X=polynomial_vector_field(3, rng), Y=polynomial_vector_field(3, rng),
                      P=endo(), Q=endo())
        p = sample_points(M, 104, 1)[0]
        R = curvature_tensor(M, p)
        counted = calls("curvature_tensor", "orthonormal_basis")
        frames_module.connection_audit(M, Frame(p, reference_frame(M, p)), {bundle: fields}, *jet(M, p), R)
        # the caller's curvature tensor serves every case
        assert [len(c) for c in counted.values()] == [0, 1]


def horizontal_endo(geom, p, P):
    """Pi_H P Pi_H at points p: an endomorphism of the horizontal space."""
    _, Pi_H = splitting_projectors(geom.phi, p)
    return Pi_H @ P @ Pi_H


def frame_pairs(geom, p, f):
    """f(xs, ys) for the horizontal and vertical columns of the adapted frames at p."""
    E = adapted_frame(geom.phi.source, geom.horizontal, p).columns
    return f(np.moveaxis(E[..., :, :geom.rank], -1, 0), np.moveaxis(E[..., :, geom.rank:], -1, 0))


# Every public submersion function of points (a parameter p, x or points, or a
# TangentVector), by name.  One that takes a stack of points maps to (inputs, f):
# ``inputs`` draw per-point arrays (leading axis 3) and f(geom, p, *inputs) calls the
# function at the point or stack p.  One that takes one point maps to the reason.
# ``test_the_table_lists_every_public_function_of_points`` keeps the table complete.
POINT_FUNCTIONS = {
    "submersion.differential_matrix": ([], lambda geom, p: submersion_module.differential_matrix(
        geom.phi, p)),
    "submersion.splitting": ([], lambda geom, p: submersion_module.splitting(geom.phi, p)),
    "submersion.splitting_projectors": ([], lambda geom, p: splitting_projectors(geom.phi, p)),
    "submersion.horizontal_basis": ([], lambda geom, p: submersion_module.horizontal_basis(geom, p)),
    "submersion.vertical_basis": ([], lambda geom, p: submersion_module.vertical_basis(geom, p)),
    "submersion.second_fundamental_tensor": ([], lambda geom, p: (
        submersion_module.second_fundamental_tensor(geom.phi, p))),
    "submersion.second_fundamental_form": ([vectors(), vectors()], lambda geom, p, x, y: (
        submersion_module.second_fundamental_form(geom.phi, TangentVector(p, x), TangentVector(p, y)))),
    "submersion.A_identity_residuals": ([], lambda geom, p: frame_pairs(geom, p, lambda xs, ys: [
        r[reading] for r in submersion_module.A_identity_residuals(
            geom, xs, ys, p, submersion_module.second_fundamental_tensor(geom.phi, p), S_at(geom, p),
            geom.horizontal.projector(p))
        for reading in ("asserted", "printed")])),
    "submersion.Pi_X_endo": ([vectors()], lambda geom, p, x: submersion_module.Pi_X_endo(
        submersion_module.splitting(geom.phi, p), x, submersion_module.second_fundamental_tensor(geom.phi, p))),
    "submersion.Pi_X_endo_alt": ([vectors()], lambda geom, p, x: submersion_module.Pi_X_endo_alt(
        geom, TangentVector(p, x), submersion_module.splitting(geom.phi, p))),
    "submersion.tension_field": ([], lambda geom, p: submersion_module.tension_field(geom, p)),
    "submersion.tension_conformal_display": ([], lambda geom, p: (
        submersion_module.tension_conformal_display(geom, p))),
    "submersion.lift_map_raw": ([endos()], lambda geom, p, E: submersion_module.lift_map_raw(
        geom.phi, geom.rank, p, E)),
    "submersion.lift_tension_direct": ("the ambient tension of the lift at one point, "
                                       "through two total-space charts (4-8 ms a call on "
                                       "a 2-vCPU x86_64 Xeon, one BLAS thread)"),
    "submersion.classify": "reduces its stack of sample points to one report",
}
STACKED_AT_POINTS = sorted(name for name, case in POINT_FUNCTIONS.items() if not isinstance(case, str))


def calculus_pairs(M):
    """(X, Y) pairs of fields with and without an exact Jacobian, one Y along two X."""
    rng = np.random.default_rng(109)
    X, Y, Z = (polynomial_vector_field(M.dim, rng, exact_jacobian=jac) for jac in (True, False, True))
    return [(X, Y), (Z, Y), (Y, Z), (X, X)]


def R_P_values(geom, p, P, Ps):
    """R_P at p for one endomorphism value per point, and for a stack of 4 per point."""
    M = geom.phi.source
    onb, R = orthonormal_basis(M, p), curvature_tensor(M, p)
    g = metric_eval(M, p)
    return [curvature_R_P(g, P, onb, R),
            np.moveaxis(curvature_R_P(g, np.moveaxis(Ps, -3, 0), onb, R), 0, -3)]


# The chart calculus that the frame audits run at their stack of base points, in the
# form of POINT_FUNCTIONS, on the source chart of each example.
CALCULUS_FUNCTIONS = {
    "geometry.covariant_derivatives": ([], lambda geom, p: covariant_derivatives(
        geom.phi.source, calculus_pairs(geom.phi.source), p)),
    "geometry.curvature_tensor": ([], lambda geom, p: curvature_tensor(geom.phi.source, p)),
    "geometry.curvature_R_P": ([endos(), endos(4)], R_P_values),
    "geometry.orthonormal_basis": ([], lambda geom, p: orthonormal_basis(geom.phi.source, p)),
}


def g_skew(M, p, K):
    """The g-skew part of K at points p, (K - K^T)/2 raised by g^-1."""
    return np.linalg.solve(metric_eval(M, p), 0.5 * (K - K.swapaxes(-1, -2)))


# The projector algebra that the adapted and lift suites run at their stacks of sample
# points, in the form of POINT_FUNCTIONS, on the horizontal distribution of each example.
# A_Y_endos reads S and the projector values only, as block_decompose reads the latter,
# and pushforward_endo reads the split.
PROJECTOR_FUNCTIONS = {
    "submersion.A_Y_endos": ([], lambda geom, p: frame_pairs(
        geom, p, lambda xs, ys: submersion_module.A_Y_endos(ys, S_at(geom, p), geom.horizontal.projector(p)))),
    "submersion.pushforward_endo": ([endos()], lambda geom, p, P: submersion_module.pushforward_endo(
        submersion_module.splitting(geom.phi, p), horizontal_endo(geom, p, P))),
    "geometry.skew_defect": ([endos()], lambda geom, p, K: geometry_module.skew_defect(
        geom.phi.source, p, K)),
    "adapted.projector_defects": ([], lambda geom, p: list(adapted_module.projector_defects(
        geom.phi.source, geom.horizontal, p, geom.horizontal.projector(p)).values())),
    "adapted.block_decompose": ([endos()], lambda geom, p, P: dataclasses.astuple(
        adapted_module.block_decompose(P, geom.horizontal.projector(p)))),
    "adapted.m_projection": ([endos()], lambda geom, p, K: adapted_module.m_projection(
        geom.phi.source, p, g_skew(geom.phi.source, p, K), geom.horizontal.projector(p))),
}


def coefficients(geom, rng):
    """The coefficients of a polynomial vector field at each of 3 points."""
    n = geom.phi.source.dim
    return rng.standard_normal((3, n + n**2 + n**3))


def adapted_call(f):
    """f(M, D, ...) on the horizontal distribution of the example, at the point or stack p."""
    return lambda geom, p, *args: f(geom.phi.source, geom.horizontal, *args, p)


def derivatives_along(geom, p, x, cy, cz):
    """Both readings of ``adapted_derivatives`` along x for the polynomial fields Y, Z of
    coefficients per point."""
    M, D = geom.phi.source, geom.horizontal
    return [np.moveaxis(a, 0, -2) for a in adapted_module.adapted_derivatives(
        M, D, x, [_polynomial_vector_field(c, M.dim) for c in (cy, cz)], p, *held(geom, p))]


def adapted_jet(geom, p):
    """(GD, S) and its central differences at the point or stack p."""
    M, D = geom.phi.source, geom.horizontal
    return adapted_module._GD_S_jet(M, D, p, christoffel(M, p), S_at(geom, p),
                                    geometry_module.DEFAULT_FD)


# Every public adapted function of points (a parameter p, or the jet of a point), in the form
# of POINT_FUNCTIONS, on the horizontal distribution of each example, S_x as every reader
# contracts it, and the endomorphism inner product of the div-duality block; the projector
# algebra is in PROJECTOR_FUNCTIONS.
# ``test_the_table_lists_every_adapted_function_of_points`` keeps it complete.
ADAPTED_FUNCTIONS = {
    "adapted.adapted_frame": ([], adapted_call(adapted_frame)),
    "adapted.adapted_derivatives": ([vectors(), coefficients, coefficients], derivatives_along),
    "adapted.S_components": ([], S_at),
    "geometry.christoffel_contract@S": ([vectors()], lambda geom, p, x: christoffel_contract(S_at(geom, p), x)),
    "adapted.torsion_TD": ([vectors(), vectors()], lambda geom, p, x, y: torsion_TD(
        constant_field(x), constant_field(y), p, S_at(geom, p))),
    "adapted.curvature_relation_residual": ([vectors(), vectors(), vectors()], lambda geom, p, *xyz: list(
        adapted_module.curvature_relation_residual(
            geom.phi.source, geom.horizontal, *xyz, p, S_at(geom, p)).values())),
    "adapted.curvature_RD_tensor": ([], lambda geom, p: adapted_module.curvature_RD_tensor(
        adapted_jet(geom, p))),
    "adapted.nabla_D_S": ([], lambda geom, p: list(
        adapted_module.nabla_D_S(adapted_jet(geom, p)).values())),
    "adapted.L_P_applies": "serves the adapted connection audit, which audits one frame",
    "geometry.endo_inner": ([endos(), endos()], lambda geom, p, P, Q: geometry_module.endo_inner(
        geom.phi.source, p, P, Q, orthonormal_basis(geom.phi.source, p))),
}
STACKED_ADAPTED = sorted(name for name, case in ADAPTED_FUNCTIONS.items() if not isinstance(case, str))


def tm_point(p, z):
    """The point (p, z) of the tangent bundle: the frame of the one column z."""
    return Frame(p, z[..., None])


def tm_tangent(p, r):
    """The tangent at (p, r[..., 0, :]) with base and fiber rates r[..., 1, :] and r[..., 2, :]."""
    return FrameTangent(tm_point(p, r[..., 0, :]), r[..., 1, :], r[..., 2, :, None])


ONE_TM_POINT = "builds its bases at one point: the null space of the kernel's pairings is per point"
# Every public tangent-bundle function of points, in the form of POINT_FUNCTIONS, on the
# source chart of each example.  ``test_the_table_lists_every_tangent_function_of_points``
# keeps it complete; the column projections, functions of square frames, are in FRAME_FUNCTIONS.
TANGENT_FUNCTIONS = {
    "tangent.tm_vertical_lift": ([vectors(), vectors()], lambda geom, p, x, z: (
        tangent_module.tm_vertical_lift(TangentVector(p, x), tm_point(p, z)))),
    "tangent.connection_map_K": ([vectors(3)], lambda geom, p, r: (
        tangent_module.connection_map_K(geom.phi.source, tm_tangent(p, r)))),
    "tangent.tm_split": ([vectors(3)], lambda geom, p, r: tangent_module.tm_split(
        geom.phi.source, tm_tangent(p, r))),
    "tangent.tm_map": ([vectors()], lambda geom, p, z: tangent_module.tm_map(geom.phi, tm_point(p, z))),
    "tangent.phi_second_differential_fd": ([vectors(3)], lambda geom, p, r: (
        tangent_module.phi_second_differential_fd(geom.phi, tm_tangent(p, r)))),
    "tangent.phi_second_differential_formula": ([vectors(), vectors()], lambda geom, p, x, z: [
        tangent_module.phi_second_differential_formula(geom.phi, kind, TangentVector(p, x), tm_point(p, z))
        for kind in ("vertical", "horizontal")]),
    "tangent.tm_distributions": ONE_TM_POINT,
}
STACKED_IN_TM = sorted(name for name, case in TANGENT_FUNCTIONS.items() if not isinstance(case, str))
# The frame-bundle functions that serve the tangent bundle as the bundle of one-column frames:
# the horizontal lift and the Mok metric, which is the Sasaki-Mok metric there.
ONE_COLUMN_FUNCTIONS = {
    "frames.horizontal_lift_frame@TM": ([vectors(), vectors()], lambda geom, p, x, z: (
        frames_module.horizontal_lift_frame(christoffel(geom.phi.source, p), TangentVector(p, x), tm_point(p, z)))),
    "frames.mok_metric@TM": ([vectors(3), vectors(2)], lambda geom, p, r, w: frames_module.mok_metric(
        *jet(geom.phi.source, p), tm_tangent(p, r), tm_tangent(p, np.concatenate([r[..., :1, :], w], axis=-2)))),
}


class TestPointStack:
    """Every submersion, adapted and tangent-bundle function of points, and the calculus of the
    frame audits and the projector algebra of the adapted suite, takes a stack: a stack's rows
    equal row-by-row calls."""

    @pytest.mark.parametrize("example", EXAMPLES)
    @pytest.mark.parametrize("name", STACKED_AT_POINTS + sorted(CALCULUS_FUNCTIONS)
                             + sorted(PROJECTOR_FUNCTIONS) + STACKED_ADAPTED + STACKED_IN_TM
                             + sorted(ONE_COLUMN_FUNCTIONS))
    def test_stack_equals_rows(self, name, example):
        draws, f = {**POINT_FUNCTIONS, **CALCULUS_FUNCTIONS, **PROJECTOR_FUNCTIONS, **ADAPTED_FUNCTIONS,
                    **TANGENT_FUNCTIONS, **ONE_COLUMN_FUNCTIONS}[name]
        geom = GEOMS[example]
        ps = sample_points(geom.phi.source, 106, 3)
        rng = np.random.default_rng(107)
        inputs = [draw(geom, rng) for draw in draws]
        got = flat(f(geom, ps, *inputs))
        rows = [flat(f(geom, ps[i], *(a[i] for a in inputs))) for i in range(3)]
        assert len(got) == len(rows[0])
        for j, a in enumerate(got):
            assert np.array_equal(a, np.stack([r[j] for r in rows])), (name, j)

    def test_a_stack_of_g_skew_values_is_skew_at_every_point(self):
        # a stack's transpose reverses every axis, pairing rows of different points
        M = GEOMS["E3"].phi.source
        ps = sample_points(M, 42, 3)
        skew = g_skew(M, ps, np.random.default_rng(110).standard_normal((3, 3, 3)))
        assert np.max(geometry_module.skew_defect(M, ps, skew)) < 1e-12

    def test_the_table_lists_every_public_function_of_points(self):
        found = set()
        for name, fn in inspect.getmembers(submersion_module, inspect.isfunction):
            params = inspect.signature(fn).parameters.values()
            if fn.__module__ == submersion_module.__name__ and not name.startswith("_") and any(
                    p.name in ("p", "x", "x0", "points") or "TangentVector" in str(p.annotation)
                    for p in params):
                found.add(f"submersion.{name}")
        assert found == set(POINT_FUNCTIONS)

    def test_the_table_lists_every_adapted_function_of_points(self):
        found = set()
        for name, fn in inspect.getmembers(adapted_module, inspect.isfunction):
            params = inspect.signature(fn).parameters
            if fn.__module__ == adapted_module.__name__ and not name.startswith("_") and (
                    params.keys() & {"p", "jet"}):
                found.add(f"adapted.{name}")
        tables = {**ADAPTED_FUNCTIONS, **PROJECTOR_FUNCTIONS}
        # block_decompose is a function of projector values, not of points
        listed = {name for name in tables if name.startswith("adapted.")}
        assert found == listed - {"adapted.block_decompose"}

    def test_the_table_lists_every_tangent_function_of_points(self):
        found = set()
        for name, fn in inspect.getmembers(tangent_module, inspect.isfunction):
            annotations = {str(p.annotation) for p in inspect.signature(fn).parameters.values()}
            if fn.__module__ == tangent_module.__name__ and not name.startswith("_") and (
                    annotations & {"Frame", "FrameTangent", "TangentVector"}):
                found.add(f"tangent.{name}")
        projections = {name for name in FRAME_FUNCTIONS if name.startswith("tangent.")}
        assert found == set(TANGENT_FUNCTIONS) | projections
