#!/usr/bin/env python3
"""Distributions, the adapted connection, and the adapted frame bundle.

The warped plane (metric diag(1, e^{2t})) projecting onto its first
coordinate carries the simplest non-parallel horizontal distribution: the
difference tensor S, the torsion, the W endomorphism, and the adapted
horizontal lift all have closed forms to compare against.
"""

import numpy as np

from framelift.adapted import (
    S_components,
    W_endo,
    adapted_derivatives,
    adapted_frame,
    adapted_horizontal_lift,
    block_decompose,
    curvature_relation_residual,
    od_tangency_residual,
    projector_defects,
    torsion_TD,
)
from framelift.catalog import get
from framelift.geometry import TangentVector, christoffel, christoffel_contract, coordinate_field, metric_eval
from framelift.submersion import derive_geometry

entry = get("E4")
phi = entry.phi
geom = derive_geometry(phi)
M, D = phi.source, geom.horizontal
p = np.array([0.3, 0.2])
t0 = p[0]
gamma, P = christoffel(M, p), D.projector(p)  # built once at p, read by every kernel below

print("== the distribution ==")
print("projector onto the horizontal line field:")
print(P)
print("defects:", {k: float(v) for k, v in projector_defects(M, D, p, P).items()})

print("\n== the difference tensor ==")
_, [S_ss] = adapted_derivatives(M, D, np.array([0.0, 1.0]), [coordinate_field(1, 2)], p, gamma, P)
print("S_ds ds =", S_ss, "  closed form: (-e^{2t}, 0) =", (-np.exp(2 * t0), 0.0))
# S as one array with the index layout of the Christoffel symbols
S = S_components(M, D, p, gamma, P)
print("S as an endomorphism for the unit vertical direction:")
e_s = np.array([0.0, np.exp(-t0)])
print(christoffel_contract(S, e_s))

print("\n== torsion and block structure ==")
td = torsion_TD(coordinate_field(0, 2), coordinate_field(1, 2), p, S)
print("torsion of the two coordinate fields:", td.components,
      "(the two one-dimensional blocks are both integrable)")
b = block_decompose(np.arange(4.0).reshape(2, 2), P)
print("block reassembly residual:",
      np.max(np.abs(b.reassemble() - np.arange(4.0).reshape(2, 2))))

print("\n== the W endomorphism ==")
u = adapted_frame(M, D, p)
W = W_endo(metric_eval(M, p), u, S)
print("W in the adapted orthonormal frame (closed form diag(1, 3)):")
print(np.linalg.inv(u.columns) @ W @ u.columns)

print("\n== the curvature relation ==")
rng = np.random.default_rng(2)
x, y, z = rng.standard_normal((3, 2))
rel = curvature_relation_residual(M, D, x, y, z, p, S)
print("residual with the tensorial derivative convention:", rel["standard"])
print("residual with the displayed third-term convention:", rel["display"])

print("\n== the adapted horizontal lift ==")
x = rng.standard_normal(2)
t = adapted_horizontal_lift(M, D, TangentVector(p, x), u)
print("tangency of the lift to the adapted bundle (derivative of the")
print("membership constraints along the lift):",
      od_tangency_residual(M, D, t))
