#!/usr/bin/env python3
"""Chart-level Riemannian calculus on the round sphere.

Everything in this package happens on a single coordinate chart carrying a
metric field.  This script walks through the basic operators on the unit
sphere in stereographic coordinates and checks each one against something
independently known: the closed-form Christoffel symbols, the constant
curvature, and the defining identities of the Levi-Civita connection.
"""

import numpy as np

from framelift.catalog import sphere_chart
from framelift.fields import polynomial_vector_field
from framelift.geometry import (
    christoffel,
    covariant_derivative,
    curvature_tensor,
    endo_inner,
    gram_schmidt,
    lie_bracket,
    metric_eval,
    orthonormal_basis,
    sample_points,
)

S2 = sphere_chart(2)
p = np.array([0.3, -0.1])

print("== the chart ==")
print("metric at the origin (conformal factor 4):")
print(metric_eval(S2, np.zeros(2)))
print("metric at", p, ":")
print(metric_eval(S2, p))

print("\n== Christoffel symbols ==")
G = christoffel(S2, np.array([1.0, 0.0]))
print("Gamma^1_11 at (1,0) =", G[0, 0, 0], " (closed form gives -1)")
print("symmetry defect:", np.max(np.abs(G - G.transpose(0, 2, 1))))

print("\n== covariant derivative ==")
rng = np.random.default_rng(0)
X = polynomial_vector_field(2, rng)
Y = polynomial_vector_field(2, rng)
nXY = covariant_derivative(S2, X, Y, p)
nYX = covariant_derivative(S2, Y, X, p)
br = lie_bracket(X, Y, p)
print("torsion residual |nabla_X Y - nabla_Y X - [X,Y]| =",
      np.max(np.abs(nXY.components - nYX.components - br.components)))

print("\n== curvature ==")
R = curvature_tensor(S2, p)  # R[i, j, k, l] = (R(d_i, d_j) d_k)^l
e1, e2 = (e.components for e in orthonormal_basis(S2, p))
g = metric_eval(S2, p)
K = np.einsum("ijkl,i,j,k->l", R, e1, e2, e2) @ g @ e1
print("sectional curvature of the unit sphere:", K)
x, y, z = rng.standard_normal((3, 2))
got = np.einsum("ijkl,i,j,k->l", R, x, y, z)
closed = float(y @ g @ z) * x - float(x @ g @ z) * y
print("constant-curvature closed form residual:", np.max(np.abs(got - closed)))

print("\n== frames and the endomorphism product ==")
basis = gram_schmidt(S2, p, [np.array([1.0, 1.0]), np.array([0.0, 1.0])])
E = np.column_stack([e.components for e in basis])
print("Gram matrix of the orthonormalized seed basis:")
print(E.T @ g @ E)
J = E @ np.array([[0.0, -1.0], [1.0, 0.0]]) @ np.linalg.inv(E)
print("<J|J> for the rotation generator:", endo_inner(S2, p, J, J, basis),
      " (dimension-independent value 2)")

print("\n== reproducible sampling ==")
pts = sample_points(S2, 42, 3)
print(pts)
