"""Lorentz-invariant constraint-space coordinates.

The constraint space of a bound system is the 3-plane Minkowski-orthogonal
to its total momentum P. One map, constraint_coordinates, reads any 4-vector
off in rectangular coordinates referred to axes inside that plane: xi of a
relative position, pi of a relative momentum, alpha of a Bargmann point.
They reduce to the plain spatial components in the system's rest frame and
their lengths and mutual angles are the same for all observers (components
rotate between observers by a Wigner rotation, so the frame-independent API
is dot products).

Index bookkeeping: a gradient (d1, d2, d3, d4) of plain partials is raised
to (d1, d2, d3, -d4) before it goes through the map; then the map's P.w is
the pairing P^mu d_mu, and the chain rule gives the Kronecker delta.
"""
from __future__ import annotations

import numpy as np

from .minkowski import (BoundSystem, FourVector, _components, _finite_map, _integer,
                        _over_real, minkowski_dot)


def constraint_coordinates(w, sys: BoundSystem) -> np.ndarray:
    """xi of a relative 4-position, pi of a relative 4-momentum, alpha of a Bargmann point.

    w_i + P_i (P.w - M0 w4) / (M0 (M0 + P4)): the spatial part of w boosted to
    the rest frame, and exactly w_i in the rest frame itself. w is a
    FourVector or a (..., 4) array; the result has shape (..., 3), float64
    for a real w and complex128 for a complex one. ValueError where w or the
    result is not finite.
    """
    return _finite_map(_coordinates, w, sys.P, sys.M0, image="constraint coordinates")


def _coordinates(w, P, M0) -> np.ndarray:
    """constraint_coordinates for stacked systems, P (..., 4) and M0 (...) broadcasting
    against w; each row has the bits of its own BoundSystem's map."""
    w = _components(w)
    num = minkowski_dot(P, w) - M0 * w[..., 3][()]
    P = _components(P)
    return w[..., :3] + P[..., :3] * _over_real(num, M0 * (M0 + P[..., 3]))[..., None]


def xi_jacobian(sys: BoundSystem) -> np.ndarray:
    """Partial derivatives d xi_i / d x_mu of the coordinate map, shape (3, 4).

    The map is linear, so column mu is the image of the unit vector e_mu.
    """
    return _jacobian(sys.P, sys.M0)


def _jacobian(P, M0) -> np.ndarray:
    """xi_jacobian for stacked systems P (..., 4) and M0 (...), shape (..., 3, 4)."""
    P = _components(P)
    return np.swapaxes(_coordinates(np.eye(4), P[..., None, :], np.asarray(M0)[..., None]),
                       -1, -2)


def xi_directional_derivative(grad4, axis: int, sys: BoundSystem):
    """df/dxi_i from the 4-space partials of f, at one point or at a batch.

    grad4 holds the plain partials (df/dc1, ..., df/dc4) with respect to
    the stored contravariant components, as a FourVector or a (..., 4)
    array; axis is 1-based. The result is that component of the map of the
    raised gradient (df/dc1, df/dc2, df/dc3, -df/dc4). Applied to the
    coordinate field xi_j this returns the Kronecker delta, and on fields
    obeying the transversality condition P^mu d_mu f = 0 it agrees with the
    reduced two-term form used by the explicit ladder operators.
    """
    i = _integer(axis, "axis", 1, 3) - 1
    g = _components(grad4)
    raised = np.concatenate([g[..., :3], -g[..., 3:]], axis=-1)
    return constraint_coordinates(raised, sys)[..., i][()]


def invariant_norm(w: FourVector, sys: BoundSystem) -> float:
    """Manifestly scalar squared length w.w + (P.w / M0)^2.

    Equals the squared norm of constraint_coordinates(w, sys); the same
    expression serves 4-positions and 4-momenta.
    """
    pw = minkowski_dot(sys.P, w) / sys.M0
    return minkowski_dot(w, w) + pw * pw
