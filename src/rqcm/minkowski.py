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
import numbers
from dataclasses import dataclass
from sys import float_info

import numpy as np

# Relative tolerance for mass-shell preconditions (P.P = -M0^2).
_ON_SHELL_RTOL = 1e-9

# Boost speeds this close to 1 lose all precision in gamma; reject them.
_SPEED_LIMIT = 1.0 - 1e-12


_MAX = float_info.max
_FLOAT64 = np.dtype(float)  # the dtype _components reads as it is


@dataclass(frozen=True)
class FourVector:
    """Minkowski 4-vector, stored contravariant.

    Each component is one number, read by _components: a complex one (Bargmann
    points) stays complex, any other is a float. NaN and inf stay, for the maps to refuse.
    """

    c1: float
    c2: float
    c3: float
    c4: float

    def __post_init__(self):
        for name in ("c1", "c2", "c3", "c4"):
            value = getattr(self, name)
            # a float (numpy's float64 too) is the common case, and the cheaper test
            if not isinstance(value, float) and (value := _components(value, None)).ndim:
                raise ValueError(f"{name} must be one number, got {value.tolist()!r}")
            object.__setattr__(self, name, value.item() if isinstance(value, np.ndarray)
                               else float(value))

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


def _components(w, length=4, real: bool = False) -> np.ndarray:
    """w, a FourVector or array-like, as float64 or (unless real) complex128 components of
    shape (..., length), or of any shape for length None; ValueError for a bool, an int
    beyond the float range or, with real, a complex number. Any width reads as its value."""
    arr = w.components if isinstance(w, FourVector) else np.asarray(w)
    if arr.dtype != _FLOAT64:  # float64 is the common case, and needs no reading
        kind = arr.dtype.kind
        try:
            if kind == "b" or kind == "c" and real:
                raise TypeError(f"got {arr.dtype}")
            arr = arr.astype(complex if kind == "c" else float, copy=False)
        except (TypeError, OverflowError) as err:
            raise ValueError(f"components must be {'real ' if real else ''}numbers in the "
                             f"float range: {err}") from None
    if length is not None and (arr.ndim == 0 or arr.shape[-1] != length):
        raise ValueError(f"vectors need a trailing axis of length {length}, got shape {arr.shape}")
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


def _real(x, name: str, stack: bool = False, positive: bool = True):
    """The finite real number x, positive unless positive is False, as a float, or with stack
    a list or array of them as float64; else ValueError. Any numpy width, a 0-d array too,
    reads as its float64 (a float32 would meet the bound in its own width, and overflow); a
    bool, a complex number, an array without stack or an int beyond the float range fails."""
    # one float takes a chained comparison alone, which costs less than any type test
    if type(x) is float and (0.0 < x <= _MAX if positive else -_MAX <= x <= _MAX):
        return x
    y = math.nan  # refused below
    x = np.asarray(x) if stack and isinstance(x, (list, tuple)) else x
    if isinstance(x, np.ndarray) and x.dtype.kind in "iuf" and (stack or not x.ndim):
        y = x.astype(float, copy=False) if x.ndim else float(x)
    elif isinstance(x, numbers.Real) and not isinstance(x, bool):
        try:
            y = float(x)
        except OverflowError:
            pass
    if not _all((0.0 < y if positive else -_MAX <= y) & (y <= _MAX)):
        rule = "positive" if positive else "real"
        raise ValueError(f"{name} must be {rule} and finite, got {np.asarray(x).tolist()!r}")
    return y


def _integer(x, name: str, low: int = 0, high=math.inf) -> int:
    """x, a Python int or a numpy integer of any width, as a Python int in [low, high];
    else ValueError. A bool, a float (2.0 too), a string or an array is not one."""
    # one int takes a chained comparison alone, which costs less than any other test
    if type(x) is int and low <= x <= high:
        return x
    if isinstance(x, np.integer) and low <= (y := int(x)) <= high:
        return y
    bounds = f">= {low}" if high == math.inf else f"in [{low}, {high}]"
    raise ValueError(f"{name} must be an integer {bounds}, got {x!r}")


def _dot(u: np.ndarray, w: np.ndarray):
    """Row by row u @ w, each row with the bits of a 1-D u @ w (a sum over the last
    axis need not have them); 1-D u and w take u @ w itself, which costs less."""
    if u.ndim == w.ndim == 1:
        return u @ w
    return np.matmul(u[..., None, :], w[..., :, None])[..., 0, 0]


def _lorentz(v) -> tuple[np.ndarray, np.ndarray]:
    """Finite, subluminal velocities as a float (..., 3) array, and their gamma factors (...)."""
    v = _components(v, 3, real=True)
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


def _by_rows(f, *args):
    """f(*args, True) on the arrays args, broadcast, with numpy's overflow and invalid warnings
    off: f's expressions run once over the stack, each entry with the bits of f on its row
    alone. Where f refuses the stack, f runs row by row, so it raises its first bad row's."""
    arrays = np.broadcast_arrays(*args)
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return f(*arrays, True)
    except ValueError:
        for row in zip(*(a.ravel().tolist() for a in arrays)):
            f(*row, False)
        raise


def _stacked(a, b, c) -> bool:
    """Whether a, b or c is an array: then they describe a stack of systems, not one."""
    return isinstance(a, np.ndarray) or isinstance(b, np.ndarray) or isinstance(c, np.ndarray)


def rest_mass(m1: float, m2: float, sigma: float, branch: str = "minus") -> float:
    """Total rest mass of the bound system from the separation constant.

    M0 = sqrt(m1^2 + m2^2 + 4 sigma + sqrt((m1^2 + m2^2 + 4 sigma)^2 -+ (m1^2 - m2^2)^2))

    The default "minus" branch subtracts the mass-difference term inside the
    inner square root; it is the branch that gives M0 = m1 + m2 at sigma = 0
    and the correct Schroedinger limit. The "plus" branch keeps the inner
    addition for audits; it does neither for unequal masses.

    Masses and sigma may be arrays, broadcasting to the rest masses' shape. Each entry
    has the bits of the call on its row, and a stack with a row that call refuses raises
    its ValueError: numpy's sqrt and float_power run the expressions that math.sqrt and
    ** run on one system (an array's ** 2 is a square, which is not libm's pow).
    """
    # one system of floats skips the array test
    if float is type(m1) is type(m2) is type(sigma) or not _stacked(m1, m2, sigma):
        return _rest_mass(m1, m2, sigma, branch, False)
    return _by_rows(lambda m1, m2, sigma, stacked: _rest_mass(m1, m2, sigma, branch, stacked),
                    m1, m2, sigma)


def _rest_mass(m1, m2, sigma, branch, stacked):
    """rest_mass of one system, or of a stack of them, whose refused rows end in a rest
    mass that is not positive and finite."""
    m1, m2 = _real(m1, "m1", stacked), _real(m2, "m2", stacked)
    sigma = _real(sigma, "sigma", stacked, positive=False)
    if branch not in ("minus", "plus"):
        raise ValueError(f"branch must be 'minus' or 'plus', got {branch!r}")
    sqrt = np.sqrt if stacked else math.sqrt
    a = m1 * m1 + m2 * m2 + 4.0 * sigma
    try:
        b = np.float_power(m1 * m1 - m2 * m2, 2) if stacked else (m1 * m1 - m2 * m2) ** 2
    except OverflowError:  # a float's ** raises where numpy's gives inf
        b = math.inf
    inner = a * a - b if branch == "minus" else a * a + b
    if not stacked and inner < 0.0:
        raise ValueError(f"unbound system: negative inner radicand {inner:.17g}")
    outer = a + sqrt(inner)
    if not stacked and outer < 0.0:
        raise ValueError(f"unbound system: negative outer radicand {outer:.17g}")
    M0 = sqrt(outer)
    if stacked or not 0.0 < M0 <= _MAX:
        _real(M0, "rest mass M0", stacked)
    return M0


def reduced_mass(m1: float, m2: float) -> float:
    """m1 m2 / (m1 + m2) of two positive finite masses; ValueError if it overflows."""
    m1, m2 = _real(m1, "m1"), _real(m2, "m2")
    return _real(m1 * m2 / (m1 + m2), "reduced mass")


def eta_params(m1: float, m2: float, M0: float) -> tuple[float, float]:
    """Center-of-mass weights eta1 = 1/2 + (m1^2 - m2^2)/M0^2 and complement.

    eta2 is defined as the exact floating-point complement of eta1; a
    last-ulp nudge absorbs double rounding so eta1 + eta2 == 1.0 always
    holds. The nudge never moves eta2 more than one ulp from the printed
    formula's value.

    Arrays broadcast as in rest_mass: each entry has the bits of the call on its row,
    the nudge steps only the rows that do not yet sum to one, and a stack with a row
    that call refuses raises its ValueError.
    """
    if float is type(m1) is type(m2) is type(M0) or not _stacked(m1, m2, M0):
        return _eta_params(m1, m2, M0, False)
    return _by_rows(_eta_params, m1, m2, M0)


def _eta_params(m1, m2, M0, stacked):
    """eta_params of one system, or of a stack of them."""
    M0 = _real(M0, "M0", stacked)
    m1, m2 = _real(m1, "m1", stacked), _real(m2, "m2", stacked)
    M0_sq = _real(M0 * M0, "M0^2", stacked)
    d = (m1 * m1 - m2 * m2) / M0_sq
    eta1 = 0.5 + d
    eta2 = 1.0 - eta1
    for _ in range(20):
        s = eta1 + eta2
        if _all(s == 1.0) if stacked else s == 1.0:
            return eta1, eta2
        stepped = eta2 + (1.0 - s)
        stepped = np.where(stepped == eta2, np.nextafter(eta2, np.copysign(math.inf, 1.0 - s)),
                           stepped)
        eta2 = np.where(s == 1.0, eta2, stepped) if stacked else float(stepped)
    raise ValueError(f"eta weights cannot sum to one exactly for m1={m1!r}, m2={m2!r}, M0={M0!r}")


def on_shell_momentum(M0, v):
    """Total momentum (gamma M0 v, gamma M0) of a system of mass M0 moving with v:
    a FourVector for one M0 and v, a (..., 4) array for M0 (...) and v (..., 3)."""
    M0 = _real(M0, "M0", stack=True)
    v, g = _lorentz(v)
    gM0 = g * M0
    if gM0.ndim == 0:  # one system: skip the array assembly, microseconds a call
        return FourVector(*(gM0 * v).tolist(), gM0)
    return np.concatenate((gM0[..., None] * v, gM0[..., None]), axis=-1)


def _check_momentum(P, M0):
    """M0 as _real reads it; ValueError unless each P, a FourVector or (..., 4) array, is a
    real, positive-energy momentum with |P.P + M0^2| <= _ON_SHELL_RTOL M0^2 for its M0, a
    float or a (...) array. One FourVector and a float stay Python scalars."""
    pp = minkowski_dot(P, P)
    M0 = _real(M0, "rest mass", stack=True)
    if np.asarray(pp).dtype.kind == "c":
        raise ValueError("total momentum P must be real")
    if not _all(_parts(P)[3] > 0):
        raise ValueError("positive-energy branch requires P.c4 > 0")
    miss = abs(pp + M0 * M0)
    if not _all(miss <= _ON_SHELL_RTOL * M0 * M0):
        raise ValueError(f"total momentum off shell: |P.P + M0^2| = {np.max(miss):.3e}")
    return M0


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
        m1, m2 = _real(self.m1, "m1"), _real(self.m2, "m2")
        if m1 is not self.m1 or m2 is not self.m2:  # a float32 or an int mass keeps its float
            object.__setattr__(self, "m1", m1)
            object.__setattr__(self, "m2", m2)
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
    # one system: the scalar bodies, without rest_mass's and eta_params' array test
    M0 = _rest_mass(m1, m2, sigma, "minus", False)
    eta1, eta2 = _eta_params(m1, m2, M0, False)
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
    M0 = _check_momentum(P, M0)
    four, P = isinstance(w, FourVector) and isinstance(P, FourVector), _components(P)
    k = lambda w: np.asarray(_over_real(minkowski_dot(P, w), M0 * M0))[..., None]
    out = _finite_map(lambda w: w + k(w) * P, w, image="projection")
    return FourVector.from_components(out.tolist()) if four else out
