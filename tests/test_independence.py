"""Oracle independence: no finite-difference oracle reaches a closed form it audits.

The frame, lift and tangent suites run once on E3 under ``sys.setprofile``.  Each
package function that runs inside an oracle is recorded, and so is each one that runs
inside a closed form.  The oracles are the total-space Levi-Civita oracle (through
``connection_audit`` on L(M) and O(M) and through ``adapted_connection_audit`` on O(D))
with the total-space Christoffel symbols that its caller builds for it, the FD bracket
and the three differentials by ``frame_diff``.  The closed forms are the
formulas that rows compare against them.  A frame field that the caller passes to an
oracle is the caller's input, so the calls made inside it are not the oracle's: the
adapted horizontal lift of O(D), X^h + (S_X)*, calls ``S_components``.

No oracle may enter a closed form.  A function that both sides enter is a shared
definition, and ``SHARED`` names each one with the reason it may be shared.
"""

import functools
import importlib.util
import sys

from framelift.catalog import get
from framelift.suites import SUITES

ORACLES = {"frames.lc_total_space_oracle", "frames.total_space_christoffel", "frames.fd_bracket_on_chart",
           "submersion.lift_differential_fd",
           "tangent.pi_i_differential_fd", "tangent.phi_second_differential_fd"}
CLOSED_FORMS = {"frames.lc_connection_formula", "frames.bracket_rhs", "geometry.curvature_R_P",
                "adapted.L_P_applies", "adapted.S_components", "submersion.lift_differential_formula",
                "submersion.second_fundamental_tensor", "tangent.pi_i_differential",
                "tangent.phi_second_differential_formula", "tangent.tm_distributions"}

SHARED = {name: reason for reason, names in {
    "chart calculus: the metric, its derivative and the Christoffel symbols of a chart and the "
    "difference kernels, which the core rows check against differences of the metric": [
        "geometry.metric_eval", "geometry.metric_derivative_eval", "geometry.christoffel",
        "geometry._christoffel_from", "geometry.christoffel_contract", "geometry._check_domain",
        "geometry.ChartManifold.contains", "geometry.central_diff", "geometry.directional_diff",
        "geometry._stencil", "geometry._on_stencil", "geometry._directional_stencil", "geometry._difference",
        "geometry._norm2", "geometry.field_derivative"],
    "chart calculus of fields: the core rows and the oracle self-check rows audit the covariant "
    "derivative and the Lie bracket against directional_diff of the metric": [
        "geometry.covariant_derivatives", "geometry.lie_brackets", "geometry._field_differences"],
    "the Mok metric, from which the oracle's total-space metric is induced": [
        "frames._gram", "frames._vertical_rate", "geometry.column_gram"],
    "the frame and tangent values and the check that tangents share a frame": [
        "frames.Frame.__post_init__", "frames.FrameTangent.__post_init__", "frames._same_frame",
        "geometry.TangentVector.__post_init__"],
    "the subbundle O(D): the distribution's projector and the guard that a frame lies in O(D)": [
        "adapted.DistributionSpec.projector", "submersion.derive_geometry.<locals>.projector",
        "adapted._od_constraints", "adapted.od_membership_defect"],
    "the splitting of the submersion, which the lift map reads": [
        "submersion.splitting", "submersion.splitting_projectors", "submersion._horizontal_span"],
    "the maps themselves, which the differentials difference": [
        "submersion.lift_map", "submersion.lift_map_raw", "submersion.differential_matrix",
        "submersion.SubmersionSpec.value", "submersion.SubmersionGeometry.rank", "tangent._column"],
    "the catalog's charts and maps, the geometry both sides are computed on": ["catalog"],
}.items() for name in names}

# frames of comprehensions and of generated dataclass methods belong to their function
UNNAMED = ("<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>", "__create_fn__")


def entered(run, oracles, closed, package="framelift"):
    """Run ``run()`` under ``sys.setprofile``: the package functions that run inside each
    oracle, by name, and those that run inside a closed form.  A name is the module, less
    the package, and the qualified name: ``frames.mok_gram``.  The calls made inside a
    callable that the caller passes to an oracle, alone or in a list or tuple, are left
    out: they are the caller's."""
    within, reached, fields = {name: set() for name in oracles}, set(), {}

    def qualname(frame):
        return f"{frame.f_globals.get('__name__', '').removeprefix(package + '.')}.{frame.f_code.co_qualname}"

    def profile(frame, event, arg):
        if event == "return":
            fields.pop(id(frame), None)
        if event != "call":
            return
        name = qualname(frame)
        if name in oracles:
            fields[id(frame)] = {F.__code__ for F in _callables(frame.f_locals.values())}
        if not frame.f_globals.get("__name__", "").startswith(package) or any(s in name for s in UNNAMED):
            return
        between, f = set(), frame
        while f is not None:
            outer = qualname(f)
            if outer in closed:
                reached.add(name)
            if outer in oracles and not fields.get(id(f), set()) & between:
                within[outer].add(name)
            between.add(f.f_code)
            f = f.f_back

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return within, reached


def _callables(values):
    for v in values:
        if isinstance(v, (list, tuple)):
            yield from _callables(v)
        elif hasattr(v, "__code__"):
            yield v


@functools.cache
def profiled():
    entry = get("E3")
    return entered(lambda: [SUITES[suite](entry, seed=42) for suite in ("frame", "lift", "tangent")],
                   ORACLES, CLOSED_FORMS)


def shared_names():
    within, reached = profiled()
    return set().union(*within.values()) & reached


def is_shared(name):
    return name in SHARED or name.partition(".")[0] in SHARED


def test_every_oracle_and_closed_form_runs():
    within, reached = profiled()
    assert {name for name, inside in within.items() if name not in inside} == set()
    assert CLOSED_FORMS - reached == set()


def test_no_oracle_enters_a_closed_form():
    within, _ = profiled()
    assert {name: sorted(inside & CLOSED_FORMS) for name, inside in within.items()} == {
        name: [] for name in ORACLES}


def test_every_function_both_sides_enter_is_a_shared_definition():
    extra = sorted(name for name in shared_names() if not is_shared(name))
    assert not extra, "an oracle and a closed form both run these; share a definition only with a reason: " + \
        ", ".join(extra)


def test_every_shared_definition_is_still_shared():
    names = shared_names()
    assert {key for key in SHARED if not any(n == key or n.partition(".")[0] == key for n in names)} == set()
    assert not set(SHARED) & CLOSED_FORMS


def test_the_profile_sees_an_oracle_that_calls_a_closed_form(tmp_path):
    (tmp_path / "mutant.py").write_text('''
def formula(x):
    return kernel(x) + 1.0

def kernel(x):
    return 2.0 * x

def lift(x):
    return formula(x)  # a field's own call

def oracle(pairs, x):
    return pairs[0][0](x) + formula(x)

def clean_oracle(pairs, x):
    return pairs[0][0](x) + kernel(x)
''')
    spec = importlib.util.spec_from_file_location("mutant", tmp_path / "mutant.py")
    m = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(m)
    within, reached = entered(lambda: (m.oracle([(m.lift, m.lift)], 1.0), m.clean_oracle([(m.lift,)], 1.0),
                                       m.formula(1.0)),
                              {"mutant.oracle", "mutant.clean_oracle"}, {"mutant.formula"}, package="mutant")
    assert within == {"mutant.oracle": {"mutant.oracle", "mutant.formula", "mutant.kernel"},
                      "mutant.clean_oracle": {"mutant.clean_oracle", "mutant.kernel"}}
    assert reached == {"mutant.formula", "mutant.kernel"}
