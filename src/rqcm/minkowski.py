"""Minkowski 4-vector algebra, pure Lorentz boosts, and two-body kinematics.

Conventions used throughout the package:

* metric signature (+, +, +, -): lowering an index flips the sign of the
  4th component only;
* vectors are stored as contravariant component tuples (c1, c2, c3, c4),
  with c4 the time-like component;
* natural units, c = hbar = 1.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Relative tolerance for mass-shell preconditions (P.P = -M0^2).
ON_SHELL_RTOL = 1e-9

# Boost speeds this close to 1 lose all precision in gamma; reject them.
_SPEED_LIMIT = 1.0 - 1e-12


_COMPLEX = (complex, np.complexfloating)


@dataclass(frozen=True)
class FourVector:
    """Minkowski 4-vector, stored contravariant.

    A complex component (Python or numpy; Bargmann points) stays complex,
    any other is coerced with float.
    """

    c1: float
    c2: float
    c3: float
    c4: float

    def __post_init__(self):
        for name in ("c1", "c2", "c3", "c4"):
            value = getattr(self, name)
            # float is the common case, and a cheaper check than _COMPLEX
            complex_ = not isinstance(value, float) and isinstance(value, _COMPLEX)
            object.__setattr__(self, name, complex(value) if complex_ else float(value))

    @classmethod
    def from_components(cls, comps):
        c1, c2, c3, c4 = comps
        return cls(c1, c2, c3, c4)

    @property
    def components(self) -> np.ndarray:
        return np.array([self.c1, self.c2, self.c3, self.c4])

    @property
    def spatial(self) -> np.ndarray:
        return np.array([self.c1, self.c2, self.c3])

    def __add__(self, other):
        return FourVector(self.c1 + other.c1, self.c2 + other.c2,
                          self.c3 + other.c3, self.c4 + other.c4)

    def __sub__(self, other):
        return FourVector(self.c1 - other.c1, self.c2 - other.c2,
                          self.c3 - other.c3, self.c4 - other.c4)

    def __rmul__(self, scalar):
        return FourVector(scalar * self.c1, scalar * self.c2,
                          scalar * self.c3, scalar * self.c4)

    def __neg__(self):
        return -1.0 * self


def minkowski_dot(a, b):
    """a1*b1 + a2*b2 + a3*b3 - a4*b4 for contravariant component tuples."""
    return a.c1 * b.c1 + a.c2 * b.c2 + a.c3 * b.c3 - a.c4 * b.c4


def _speed_squared(v) -> float:
    v = np.asarray(v, dtype=float)
    if v.shape != (3,):
        raise ValueError("velocity must be a 3-vector")
    v2 = float(v @ v)
    if not v2 < math.inf:
        raise ValueError(f"velocity must be finite, got {v.tolist()}")
    return v2


def _check_speed(v2: float):
    if v2 >= _SPEED_LIMIT * _SPEED_LIMIT:
        raise ValueError(f"superluminal or near-luminal velocity: |v| = {math.sqrt(v2):.17g}")


def general_boost(x, v):
    """Pure Lorentz boost of x into a frame moving with velocity v.

    x'_i = x_i + gamma v_i (gamma v.x / (1 + gamma) - x4),
    x'_4 = gamma (x4 - v.x),  gamma = (1 - v^2)^(-1/2).

    x may have complex components; v is real.
    """
    v = np.asarray(v, dtype=float)
    v2 = _speed_squared(v)
    _check_speed(v2)
    g = 1.0 / math.sqrt(1.0 - v2)
    sp = x.spatial
    vx = v[0] * sp[0] + v[1] * sp[1] + v[2] * sp[2]
    shift = g * vx / (1.0 + g) - x.c4
    new_sp = sp + g * v * shift
    new_c4 = g * (x.c4 - vx)
    return FourVector(new_sp[0], new_sp[1], new_sp[2], new_c4)


def rest_mass(m1: float, m2: float, sigma: float, branch: str = "minus") -> float:
    """Total rest mass of the bound system from the separation constant.

    M0 = sqrt(m1^2 + m2^2 + 4 sigma + sqrt((m1^2 + m2^2 + 4 sigma)^2 -+ (m1^2 - m2^2)^2))

    The default "minus" branch subtracts the mass-difference term inside the
    inner square root; it is the branch that gives M0 = m1 + m2 at sigma = 0
    and the correct Schroedinger limit. The "plus" branch keeps the inner
    addition for audits; it does neither for unequal masses.
    """
    if not (0.0 < m1 < math.inf and 0.0 < m2 < math.inf):
        raise ValueError(f"particle masses must be positive and finite, got {m1!r}, {m2!r}")
    if not -math.inf < sigma < math.inf:
        raise ValueError(f"sigma must be finite, got {sigma!r}")
    if branch not in ("minus", "plus"):
        raise ValueError(f"branch must be 'minus' or 'plus', got {branch!r}")
    a = m1 * m1 + m2 * m2 + 4.0 * sigma
    b = (m1 * m1 - m2 * m2) ** 2
    inner = a * a - b if branch == "minus" else a * a + b
    if inner < 0.0:
        raise ValueError(f"unbound system: negative inner radicand {inner:.17g}")
    outer = a + math.sqrt(inner)
    if outer < 0.0:
        raise ValueError(f"unbound system: negative outer radicand {outer:.17g}")
    M0 = math.sqrt(outer)
    if not 0.0 < M0 < math.inf:
        raise ValueError(f"rest mass {M0!r} is not positive and finite for "
                         f"m1={m1!r}, m2={m2!r}, sigma={sigma!r}")
    return M0


def reduced_mass(m1: float, m2: float) -> float:
    return m1 * m2 / (m1 + m2)


def eta_params(m1: float, m2: float, M0: float) -> tuple[float, float]:
    """Center-of-mass weights eta1 = 1/2 + (m1^2 - m2^2)/M0^2 and complement.

    eta2 is defined as the exact floating-point complement of eta1; a
    last-ulp nudge absorbs double rounding so eta1 + eta2 == 1.0 always
    holds. The nudge never moves eta2 more than one ulp from the printed
    formula's value.
    """
    if not (M0 > 0.0 and 0.0 < M0 * M0 < math.inf):
        raise ValueError(f"M0 and M0^2 must be positive and finite, got M0={M0!r}")
    d = (m1 * m1 - m2 * m2) / (M0 * M0)
    eta1 = 0.5 + d
    eta2 = 1.0 - eta1
    for _ in range(20):
        s = eta1 + eta2
        if s == 1.0:
            return eta1, eta2
        stepped = eta2 + (1.0 - s)
        if stepped == eta2:
            stepped = np.nextafter(eta2, math.copysign(math.inf, 1.0 - s))
        eta2 = float(stepped)
    raise ValueError(f"eta weights cannot sum to one exactly for m1={m1!r}, m2={m2!r}, M0={M0!r}")


def on_shell_momentum(M0: float, v) -> FourVector:
    """Total momentum (gamma M0 v, gamma M0) of a system of mass M0 moving with v."""
    if not 0.0 < M0 < math.inf:
        raise ValueError(f"M0 must be positive and finite, got {M0!r}")
    v = np.asarray(v, dtype=float)
    v2 = _speed_squared(v)
    _check_speed(v2)
    g = 1.0 / math.sqrt(1.0 - v2)
    return FourVector(g * M0 * v[0], g * M0 * v[1], g * M0 * v[2], g * M0)


@dataclass(frozen=True)
class BoundSystem:
    """Two-body bound system: masses, separation constant, derived kinematics.

    Invariants enforced on construction: positive masses and rest mass,
    positive-energy total momentum on the mass shell, and eta weights that
    sum to one exactly.
    """

    m1: float
    m2: float
    sigma: float
    M0: float
    eta1: float
    eta2: float
    P: FourVector

    def __post_init__(self):
        pp = minkowski_dot(self.P, self.P)
        if isinstance(pp, complex):  # some component of P is complex
            raise ValueError("total momentum P must be real")
        if not (0.0 < self.m1 < math.inf and 0.0 < self.m2 < math.inf):
            raise ValueError("particle masses must be positive and finite")
        if not 0.0 < self.M0 < math.inf:
            raise ValueError("rest mass must be positive and finite")
        if not self.P.c4 > 0:
            raise ValueError("positive-energy branch requires P.c4 > 0")
        if self.eta1 + self.eta2 != 1.0:
            raise ValueError("eta weights must sum to one exactly")
        miss = abs(pp + self.M0 * self.M0)
        if not miss <= ON_SHELL_RTOL * self.M0 * self.M0:
            raise ValueError(f"total momentum off shell: |P.P + M0^2| = {miss:.3e}")

    @property
    def velocity(self) -> np.ndarray:
        return self.P.spatial / self.P.c4

    @property
    def reduced_mass(self) -> float:
        return reduced_mass(self.m1, self.m2)

    def with_sigma(self, sigma: float, branch: str = "minus") -> "BoundSystem":
        """Same constituents and velocity, new separation constant."""
        return bound_system(self.m1, self.m2, sigma, self.velocity, branch)

    def boosted(self, v) -> "BoundSystem":
        """The same system seen from a frame moving with velocity v."""
        return BoundSystem(self.m1, self.m2, self.sigma, self.M0,
                           self.eta1, self.eta2, general_boost(self.P, v))


def bound_system(m1: float, m2: float, sigma: float = 0.0,
                 velocity=(0.0, 0.0, 0.0), branch: str = "minus") -> BoundSystem:
    """Construct an on-shell BoundSystem from masses, sigma and a velocity."""
    M0 = rest_mass(m1, m2, sigma, branch)
    eta1, eta2 = eta_params(m1, m2, M0)
    return BoundSystem(m1, m2, float(sigma), M0, eta1, eta2,
                       on_shell_momentum(M0, velocity))


def cm_and_relative(x1: FourVector, x2: FourVector, sys: BoundSystem):
    """Center-of-mass and relative 4-positions: X = eta1 x1 + eta2 x2, x = x1 - x2."""
    X = sys.eta1 * x1 + sys.eta2 * x2
    return X, x1 - x2


def momentum_cm_and_relative(p1: FourVector, p2: FourVector, sys: BoundSystem):
    """Total and relative 4-momenta: P = p1 + p2, p = eta2 p1 - eta1 p2."""
    return p1 + p2, sys.eta2 * p1 - sys.eta1 * p2


def perp_projection(w: FourVector, P: FourVector, M0: float,
                    rtol: float = ON_SHELL_RTOL) -> FourVector:
    """Component of w orthogonal (Minkowski sense) to P: w + P (P.w)/M0^2.

    Requires P on the mass shell of M0; the result satisfies P.w_perp = 0.
    """
    miss = abs(minkowski_dot(P, P) + M0 * M0)
    if not miss <= rtol * M0 * M0:
        raise ValueError(f"P off shell for M0={M0!r}: |P.P + M0^2| = {miss:.3e}")
    return w + (minkowski_dot(P, w) / (M0 * M0)) * P
