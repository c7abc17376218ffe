#!/usr/bin/env python3
"""Lifting the Hopf fibration to frame bundles.

The round 3-sphere fibers over the half-radius 2-sphere by the Hopf map, a
Riemannian submersion with totally geodesic fibers, a non-integrable
horizontal distribution, and a nonzero mixed second fundamental form.  Its
lift sends an adapted orthonormal frame to the pushed-forward horizontal
frame downstairs; the differential, its kernel, and the orthogonal
distribution are all computed and checked against central differences.
"""

import numpy as np

from framelift.adapted import S_components, adapted_frame, adapted_horizontal_lift
from framelift.catalog import get
from framelift.frames import fundamental_vertical, mok_metric, mok_norm
from framelift.geometry import TangentVector, christoffel, metric_eval, sample_points
from framelift.submersion import (
    A_Y_endos,
    derive_geometry,
    dilatation,
    horizontal_basis,
    lift_conformality_measurement,
    lift_differential_fd,
    lift_differential_formula,
    lift_distributions,
    lift_map,
    mean_curvature_fibers,
    second_fundamental_form,
    second_fundamental_tensor,
    splitting,
    tension_field,
    vertical_basis,
)

entry = get("E3")
phi = entry.phi
geom = derive_geometry(phi)
M, D = phi.source, geom.horizontal
p = sample_points(M, 5, 1)[0]
u = adapted_frame(M, D, p)
# Gamma, the split (the differential, its horizontal lift and the horizontal projector),
# the difference tensor and the second fundamental tensor at p, built once and read by
# every kernel below
gamma, split = christoffel(M, p), splitting(phi, p)
Pi = split[2]
S, B = S_components(M, D, p, gamma, Pi), second_fundamental_tensor(phi, p)

print("== the submersion ==")
lam, defect = dilatation(geom, u)
print(f"dilatation {lam:.9f} with conformality defect {defect:.2e}")
tau = tension_field(geom, p)
gN = metric_eval(phi.target, phi.value(p))
print(f"tension norm {float(np.sqrt(tau @ gN @ tau)):.2e} (harmonic)")
H = mean_curvature_fibers(geom, u, gamma, Pi)
g = metric_eval(M, p)
print(f"fiber mean curvature {float(np.sqrt(H.components @ g @ H.components)):.2e} (geodesic fibers)")

X = horizontal_basis(geom, p)[0]
Y = vertical_basis(geom, p)[0]
mixed = second_fundamental_form(phi, X, Y)
print(f"mixed second fundamental form norm {float(np.sqrt(mixed @ gN @ mixed)):.3f}",
      "(not totally geodesic)")

print("\n== the lifted frame ==")
v = lift_map(geom, u, Pi)
print("image frame Gram matrix (orthonormal because the dilatation is 1):")
print(v.columns.T @ gN @ v.columns)

print("\n== the lift differential against central differences ==")
gamma_N = christoffel(phi.target, phi.value(p))  # with gN, the target jet the Mok norms read
x = X.components
t = adapted_horizontal_lift(M, D, TangentVector(p, x), u)
d = lift_differential_fd(geom, t, Pi) - lift_differential_formula(geom, "horizontal-of-H", x, u, S, B, split)
print(f"horizontal input:          residual {mok_norm(gN, gamma_N, d):.2e}")
y = Y.components
t = adapted_horizontal_lift(M, D, TangentVector(p, y), u)
d = lift_differential_fd(geom, t, Pi) - lift_differential_formula(geom, "horizontal-of-V", y, u, S, B, split)
print(f"vertical input:            residual {mok_norm(gN, gamma_N, d):.2e}")
print("  (the image is the pushforward of minus the A-endomorphism,")
print("   A_Y =", np.array2string(A_Y_endos([y], S, Pi)[0], precision=3), ")")
blk = np.zeros((3, 3))
blk[0, 1], blk[1, 0] = -1.0, 1.0
P0 = u.columns @ blk @ u.columns.T @ g
t = fundamental_vertical(P0, u)
d = lift_differential_fd(geom, t, Pi) - lift_differential_formula(geom, "vertical", P0, u, S, B, split)
print(f"fundamental vertical input: residual {mok_norm(gN, gamma_N, d):.2e}")

print("\n== kernel and orthogonal distributions ==")
Vb, Hb = lift_distributions(geom, u, gamma, Pi, S)
print(f"dimensions: kernel {len(Vb)}, orthogonal {len(Hb)},",
      f"bundle {M.dim + 1}")
worst = max(mok_norm(gN, gamma_N, lift_differential_fd(geom, w, Pi, check_tangency=False))
            for w in Vb)
print(f"kernel basis killed by the differential to {worst:.2e}")
cross = max(abs(mok_metric(g, gamma, a, b)) for a in Vb for b in Hb)
print(f"cross Gram block {cross:.2e}")

print("\n== measured conformality of the lift ==")
Lam, defect = lift_conformality_measurement(geom, u, gamma, Pi, S)
print(f"lift dilatation estimate {Lam:.4f} with defect {defect:.3f}")
print("the defect is far above threshold: the Hopf lift is not conformal,")
print("exactly because the mixed second fundamental form is nonzero.")
