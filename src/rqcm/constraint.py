"""Lorentz-invariant constraint-space coordinates.

The constraint space of a bound system is the 3-plane Minkowski-orthogonal
to its total momentum P. One map, constraint_coordinates, reads any 4-vector
off in rectangular coordinates referred to axes inside that plane: xi of a
relative position, pi of a relative momentum, alpha of a Bargmann point.
They reduce to the plain spatial components in the system's rest frame and
their lengths and mutual angles are the same for all observers (components
rotate between observers by a Wigner rotation, so the frame-independent API
is dot products).

Index bookkeeping: the stored tuples are contravariant, and every
contraction written here is the proper pairing P^mu d_mu = sum of spatial
products plus P4 times the time partial. With that reading the chain rule
reproduces the Kronecker-delta Jacobian exactly; reading the contraction
as a signed Minkowski dot of raw partial tuples does not.
"""
from __future__ import annotations

import numpy as np

from .minkowski import BoundSystem, FourVector, minkowski_dot


def constraint_coordinates(w: FourVector, sys: BoundSystem) -> np.ndarray:
    """xi of a relative 4-position, pi of a relative 4-momentum, alpha of a Bargmann point.

    w_i + P_i (P.w - M0 w4) / (M0 (M0 + P4)): the spatial part of w boosted to
    the rest frame, and exactly w_i in the rest frame itself. Shape (3,),
    float64 for a real w and complex128 for a complex one.
    """
    P = sys.P
    num = minkowski_dot(P, w) - sys.M0 * w.c4
    den = sys.M0 * (sys.M0 + P.c4)
    return w.spatial + P.spatial * (num / den)


def xi_jacobian(sys: BoundSystem) -> np.ndarray:
    """Partial derivatives d xi_i / d x_mu of the coordinate map, shape (3, 4).

    The map is linear, so the Jacobian depends only on the system.
    """
    P = sys.P
    M0 = sys.M0
    c = 1.0 / (M0 * (M0 + P.c4))
    sp = P.spatial
    jac = np.empty((3, 4))
    jac[:, :3] = np.eye(3) + c * np.outer(sp, sp)
    jac[:, 3] = -sp / M0
    return jac


def _grad_components(grad4) -> np.ndarray:
    if isinstance(grad4, FourVector):
        return grad4.components
    g = np.asarray(grad4)
    if g.shape != (4,):
        raise ValueError("grad4 must supply four partial derivatives")
    return g


def xi_directional_derivative(grad4, axis: int, sys: BoundSystem):
    """df/dxi_i from the 4-space partials of f at a point.

    grad4 holds the plain partials (df/dc1, ..., df/dc4) with respect to
    the stored contravariant components; axis is 1-based. Applied to the
    coordinate field xi_j this returns the Kronecker delta, and on fields
    obeying the transversality condition P^mu d_mu f = 0 it agrees with
    the reduced two-term form used by the explicit ladder operators.
    """
    if axis not in (1, 2, 3):
        raise ValueError("axis must be 1, 2 or 3")
    g = _grad_components(grad4)
    P = sys.P
    sp = P.spatial
    i = axis - 1
    radial = sp[0] * g[0] + sp[1] * g[1] + sp[2] * g[2]
    return g[i] + (sp[i] / sys.M0) * (radial / (sys.M0 + P.c4) + g[3])


def invariant_norm(w: FourVector, sys: BoundSystem) -> float:
    """Manifestly scalar squared length w.w + (P.w / M0)^2.

    Equals the squared norm of constraint_coordinates(w, sys); the same
    expression serves 4-positions and 4-momenta.
    """
    pw = minkowski_dot(sys.P, w) / sys.M0
    return minkowski_dot(w, w) + pw * pw
