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
from sys import float_info

import numpy as np

# Relative tolerance for mass-shell preconditions (P.P = -M0^2).
ON_SHELL_RTOL = 1e-9

# Boost speeds this close to 1 lose all precision in gamma; reject them.
_SPEED_LIMIT = 1.0 - 1e-12


_COMPLEX = (complex, np.complexfloating)
_MAX = float_info.max


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


def _components(w) -> np.ndarray:
    """The (..., 4) float64 or complex128 component array of a FourVector or array-like."""
    if isinstance(w, FourVector):
        return w.components
    arr = np.asarray(w)
    arr = arr.astype(complex if arr.dtype.kind == "c" else float, copy=False)
    if arr.ndim == 0 or arr.shape[-1] != 4:
        raise ValueError(f"4-vectors need a trailing axis of length 4, got shape {arr.shape}")
    return arr


def _parts(w):
    """The four components; numpy scalars, not slow 0-d arrays, for one 4-vector."""
    if isinstance(w, FourVector):
        return w.c1, w.c2, w.c3, w.c4
    w = _components(w)
    return w[..., 0][()], w[..., 1][()], w[..., 2][()], w[..., 3][()]


def _complex(re, im):
    """The complex array re + i im, assembled part by part: re + 1j * im
    would turn some negative zeros positive."""
    out = np.empty(np.broadcast_shapes(np.shape(re), np.shape(im)), dtype=complex)
    out.real, out.imag = re, im
    return out[()]


def _over_real(num, den):
    """num / den for a real den; a complex num is divided part by part, as
    Python does, where numpy multiplies by 1/den and can differ in the last ulp."""
    if np.asarray(num).dtype.kind != "c":
        return num / den
    return _complex(np.real(num) / den, np.imag(num) / den)


def minkowski_dot(a, b):
    """a1*b1 + a2*b2 + a3*b3 - a4*b4 of two FourVectors (a Python scalar), or
    of contravariant components on the last axis of arrays (an array)."""
    a1, a2, a3, a4 = _parts(a)
    b1, b2, b3, b4 = _parts(b)
    return a1 * b1 + a2 * b2 + a3 * b3 - a4 * b4


def _all(mask) -> bool:
    """mask.all(), without numpy's reduction (microseconds a call) for one value,
    which may be a Python bool."""
    return bool(mask.all() if getattr(mask, "ndim", 0) else mask)


def _positive(x, name: str):
    """x once it is positive and finite, each entry of an array; else ValueError.
    The bound is the float maximum, not inf, so an int beyond the float range fails,
    and a bool (Python's, numpy's or a bool array) is not a number here."""
    # one float takes the chained comparison, which costs less than the array test
    if not (0.0 < x <= _MAX if isinstance(x, float) else
            not (isinstance(x, bool) or getattr(x, "dtype", None) == bool)
            and _all((0.0 < x) & (x <= _MAX))):
        raise ValueError(f"{name} must be positive and finite, got {np.asarray(x).tolist()!r}")
    return x


def _dot(u: np.ndarray, w: np.ndarray):
    """Row by row u @ w, each row with the bits of a 1-D u @ w (a sum over the last
    axis need not have them); 1-D u and w take u @ w itself, which costs less."""
    if u.ndim == w.ndim == 1:
        return u @ w
    return np.matmul(u[..., None, :], w[..., :, None])[..., 0, 0]


def _lorentz(v) -> tuple[np.ndarray, np.ndarray]:
    """Finite, subluminal velocities as a float (..., 3) array, and their gamma factors (...)."""
    v = np.asarray(v, dtype=float)
    if v.ndim == 0 or v.shape[-1] != 3:
        raise ValueError(f"velocities need a trailing axis of length 3, got shape {v.shape}")
    v2 = _dot(v, v)
    if not _all(v2 < math.inf):
        raise ValueError(f"velocity must be finite, got {v.tolist()}")
    if not _all(v2 < _SPEED_LIMIT * _SPEED_LIMIT):
        raise ValueError("superluminal or near-luminal velocity: "
                         f"|v| = {math.sqrt(np.max(v2)):.17g}")
    return v, 1.0 / np.sqrt(1.0 - v2)


def _finite_map(f, w, *args, image: str):
    """f(w, *args) for a map f of the 4-vector w, a boost or the constraint map, with
    numpy's overflow and invalid warnings off; ValueError naming the first vector of w,
    or else of its image (what `image` calls it), that is not finite. Both maps carry a
    NaN or an infinity of w into its image, so a finite image needs no test of w."""
    w = _components(w)
    with np.errstate(over="ignore", invalid="ignore"):
        out = f(w, *args)
    if np.isfinite(out).all():  # the per-vector test costs ten times more
        return out
    v, what = (w, "4-vector") if not np.isfinite(w).all() else (out, image)
    raise ValueError(f"non-finite {what} {v[~np.isfinite(v).all(axis=-1)][0].tolist()}:"
                     " its entries must not be NaN or infinite")


def _boost(w, v, g):
    """The components w (..., 4) boosted by velocities v (..., 3) with gamma factors g."""
    w1, w2, w3, w4 = _parts(w)
    vx = v[..., 0] * w1 + v[..., 1] * w2 + v[..., 2] * w3
    shift = g * vx / (1.0 + g) - w4
    return np.concatenate((w[..., :3] + g[..., None] * v * shift[..., None],
                           (g * (w4 - vx))[..., None]), axis=-1)


def general_boost(x, v):
    """Pure Lorentz boost of x into a frame moving with velocity v.

    x'_i = x_i + gamma v_i (gamma v.x / (1 + gamma) - x4),
    x'_4 = gamma (x4 - v.x),  gamma = (1 - v^2)^(-1/2).

    x is a FourVector or a real or complex (..., 4) array, v real of shape (3,)
    or (..., 3), broadcasting against x; one FourVector and one v give a FourVector.
    ValueError where x or its boost is not finite.
    """
    v, g = _lorentz(v)
    out = _finite_map(_boost, x, v, g, image="boosted 4-vector")
    four = out.ndim == 1 and isinstance(x, FourVector)
    return FourVector.from_components(out.tolist()) if four else out


def rest_mass(m1: float, m2: float, sigma: float, branch: str = "minus") -> float:
    """Total rest mass of the bound system from the separation constant.

    M0 = sqrt(m1^2 + m2^2 + 4 sigma + sqrt((m1^2 + m2^2 + 4 sigma)^2 -+ (m1^2 - m2^2)^2))

    The default "minus" branch subtracts the mass-difference term inside the
    inner square root; it is the branch that gives M0 = m1 + m2 at sigma = 0
    and the correct Schroedinger limit. The "plus" branch keeps the inner
    addition for audits; it does neither for unequal masses.
    """
    _positive(m1, "m1")
    _positive(m2, "m2")
    if not -_MAX <= sigma <= _MAX:
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
    return _positive(math.sqrt(outer), "rest mass M0")


def reduced_mass(m1: float, m2: float) -> float:
    """m1 m2 / (m1 + m2) of two positive finite masses; ValueError if it overflows."""
    return _positive(_positive(m1, "m1") * _positive(m2, "m2") / (m1 + m2), "reduced mass")


def eta_params(m1: float, m2: float, M0: float) -> tuple[float, float]:
    """Center-of-mass weights eta1 = 1/2 + (m1^2 - m2^2)/M0^2 and complement.

    eta2 is defined as the exact floating-point complement of eta1; a
    last-ulp nudge absorbs double rounding so eta1 + eta2 == 1.0 always
    holds. The nudge never moves eta2 more than one ulp from the printed
    formula's value.
    """
    M0_sq = _positive(_positive(M0, "M0") * M0, "M0^2")
    d = (_positive(m1, "m1") * m1 - _positive(m2, "m2") * m2) / M0_sq
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


def on_shell_momentum(M0, v):
    """Total momentum (gamma M0 v, gamma M0) of a system of mass M0 moving with v:
    a FourVector for one M0 and v, a (..., 4) array for M0 (...) and v (..., 3)."""
    M0 = _positive(np.asarray(M0, dtype=float)[()], "M0")
    v, g = _lorentz(v)
    gM0 = g * M0
    if gM0.ndim == 0:  # one system: skip the array assembly, microseconds a call
        return FourVector(*(gM0 * v).tolist(), gM0)
    return np.concatenate((gM0[..., None] * v, gM0[..., None]), axis=-1)


def _check_momentum(P, M0):
    """Raise ValueError unless each P, a FourVector or (..., 4) array, is a real,
    positive-energy momentum with |P.P + M0^2| <= ON_SHELL_RTOL M0^2 for its M0, a
    float or a (...) array. One FourVector and a float stay Python scalars."""
    pp = minkowski_dot(P, P)
    _positive(M0, "rest mass")
    if np.asarray(pp).dtype.kind == "c":
        raise ValueError("total momentum P must be real")
    if not _all(_parts(P)[3] > 0):
        raise ValueError("positive-energy branch requires P.c4 > 0")
    miss = abs(pp + M0 * M0)
    if not _all(miss <= ON_SHELL_RTOL * M0 * M0):
        raise ValueError(f"total momentum off shell: |P.P + M0^2| = {np.max(miss):.3e}")


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
        _positive(self.m1, "m1")
        _positive(self.m2, "m2")
        if self.eta1 + self.eta2 != 1.0:
            raise ValueError("eta weights must sum to one exactly")
        _check_momentum(self.P, self.M0)

    @property
    def velocity(self) -> np.ndarray:
        return self.P.spatial / self.P.c4

    def with_sigma(self, sigma: float) -> "BoundSystem":
        """Same constituents and velocity, new separation constant."""
        return bound_system(self.m1, self.m2, sigma, self.velocity)

    def boosted(self, v) -> "BoundSystem":
        """The same system seen from a frame moving with velocity v."""
        return BoundSystem(self.m1, self.m2, self.sigma, self.M0,
                           self.eta1, self.eta2, general_boost(self.P, v))


def bound_system(m1: float, m2: float, sigma: float = 0.0,
                 velocity=(0.0, 0.0, 0.0)) -> BoundSystem:
    """Construct an on-shell BoundSystem from masses, sigma and a velocity."""
    M0 = rest_mass(m1, m2, sigma)
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


def perp_projection(w, P, M0):
    """Component of w orthogonal (Minkowski sense) to P: w + P (P.w)/M0^2.

    P must pass BoundSystem's checks for M0; the result satisfies P.w_perp = 0.
    FourVectors w and P give a FourVector, else w, P (..., 4) and M0 (...) broadcast.
    ValueError where w or the result is not finite.
    """
    _check_momentum(P, M0)
    four, P = isinstance(w, FourVector) and isinstance(P, FourVector), _components(P)
    k = lambda w: np.asarray(_over_real(minkowski_dot(P, w), M0 * M0))[..., None]
    out = _finite_map(lambda w: w + k(w) * P, w, image="projection")
    return FourVector.from_components(out.tolist()) if four else out
