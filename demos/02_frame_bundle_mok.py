#!/usr/bin/env python3
"""The frame bundle over a chart and its diagonal (Mok) metric.

A frame is a matrix of column vectors over a base point; tangent vectors to
the bundle split exactly into a horizontal lift plus a fundamental vertical
vector.  The script then treats the whole bundle as one big chart, computes
the induced metric, and lets a brute-force Levi-Civita oracle on that chart
audit the closed-form bracket and connection identities.
"""

import numpy as np

from framelift.catalog import sphere_chart
from framelift.fields import polynomial_endo_field, polynomial_vector_field
from framelift.frames import (
    Frame,
    FrameTangent,
    LMChart,
    bracket_residual,
    connection_audit,
    fundamental_vertical,
    horizontal_lift_frame,
    induced_metric_on_chart,
    mok_metric,
    om_chart,
    reference_frame,
    vertical_part,
)
from framelift.geometry import TangentVector, christoffel, curvature_tensor, metric_eval

S2 = sphere_chart(2)
p = np.array([0.25, -0.15])
u = Frame(p, reference_frame(S2, p))
g, gamma = metric_eval(S2, p), christoffel(S2, p)  # the base jet at p, read by every kernel below
print("an orthonormal frame at", p)
print(u.columns)

print("\n== the exact horizontal/vertical splitting ==")
rng = np.random.default_rng(1)
t = FrameTangent(u, rng.standard_normal(2), rng.standard_normal((2, 2)))
V = vertical_part(gamma, t)
rec = horizontal_lift_frame(gamma, TangentVector(p, t.base_rate), u) + fundamental_vertical(V, u)
print("reconstruction residual:",
      np.max(np.abs(rec.frame_rate - t.frame_rate)))

print("\n== the Mok metric ==")
x = np.array([1.0, -0.5])
th = horizontal_lift_frame(gamma, TangentVector(p, x), u)
J = np.array([[0.0, -1.0], [1.0, 0.0]])
tv = fundamental_vertical(u.columns @ J @ np.linalg.inv(u.columns), u)
print("horizontal norm^2 equals the base norm^2:",
      mok_metric(g, gamma, th, th))
print("horizontal-vertical product (always zero):", mok_metric(g, gamma, th, tv))
print("vertical norm^2 of the rotation generator:", mok_metric(g, gamma, tv, tv))

print("\n== the induced total-space metric ==")
chart = om_chart(S2)
q = chart.join(p, np.zeros(1))
print("orthonormal-bundle chart metric at a reference frame:")
print(induced_metric_on_chart(chart, q))

print("\n== identities audited by the total-space oracle ==")
X = polynomial_vector_field(2, rng)
Y = polynomial_vector_field(2, rng)
P = polynomial_endo_field(2, rng)
Q = polynomial_endo_field(2, rng)
lm = LMChart(S2)
R = curvature_tensor(S2, p)  # the base curvature, shared by every closed form at u
cases = (
    ("hh", (X, Y), "[X^h, Y^h] = [X,Y]^h - R(X,Y)*"),
    ("hv", (X, Q), "[X^h, Q*]  = (nabla_X Q)*"),
    ("vv", (P, Q), "[P*, Q*]   = -[P,Q]*"),
)
brackets = {}  # one finite-difference bracket call serves the three cases
for (case, _, label), res in zip(cases, bracket_residual(S2, lm, [c[:2] for c in cases], u, g, gamma, R)):
    brackets[case] = res
    print(f"bracket {case}: {label:<38s} residual {res['resolved']:.2e}")
print(f"(the opposite sign for the hv bracket misses by {brackets['hv']['literal']:.2f})")

print("\nconnection formulas against the oracle:")
for row in connection_audit(S2, u, {"L": dict(X=X, Y=Y, P=P, Q=Q)}, g, gamma, R):
    mark = "  " if row["asserted"] else "  [displayed reading]"
    print(f"  L({row['case']}) {row['reading']:<9s} residual {row['residual']:.2e}{mark}")
