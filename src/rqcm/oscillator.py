"""Relativistic 3D harmonic oscillator in constraint-space coordinates.

Eigenfunctions are products of 1D Hermite-Gaussian factors of the
constraint coordinates times the centre-of-mass plane wave exp(i P.X).
The spring constant Omega carries units of mass squared; the separation
constant of the level with total quantum number n is sigma_n = Omega (3/2 + n).

One owner, _factor, evaluates the 1D factor of direction sign (+1 position,
-1 momentum), Omega^(sign/4) h_l(_scale(Omega, sign) t), for the factors, the
transforms' tables, verify and the position and momentum psi_*: h_l comes from the
three-term recurrence (values stay O(1) for any quantum number), never from the raw
2^l l! normalisation, so no overflow occurs anywhere in the admitted range l <= 64.
_hermite_levels writes every level into one array, in place; the transforms' tables, the
projector and _overlaps read that array without a copy.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from sys import float_info

import numpy as np

from .constraint import _coordinates, _jacobian
from .minkowski import (BoundSystem, _all, _complex, _components, _finite_map, _integer,
                        _real, bound_system, minkowski_dot, reduced_mass)

# Highest admissible 1D quantum number.
MAX_LEVEL = 64


def _hermite_levels(top: int, y) -> np.ndarray:
    """Orthonormal Hermite functions H_l(y) exp(-y^2/2) / sqrt(2^l l! sqrt(pi)) for
    l = 0..top, from one pass of the three-term recurrence, as one array (top + 1, *y.shape)
    whose row l is level l. The rows are written in place, with one scratch array; real
    products and differences round the same in place, so every entry has the bits of
    sqrt(2/(k+1)) * y * h_k - sqrt(k/(k+1)) * h_(k-1) computed out of place."""
    y = np.asarray(y, dtype=float)
    if y.size == 1:  # one value: Python's floats round as numpy's do, and cost less
        v = y.item()
        levels = [float(np.pi ** -0.25 * np.exp(-0.5 * v * v))]
        if top > 0:
            levels.append(math.sqrt(2.0) * v * levels[0])
        for k in range(1, top):
            levels.append(math.sqrt(2.0 / (k + 1)) * v * levels[k]
                          - math.sqrt(k / (k + 1)) * levels[k - 1])
        return np.array(levels).reshape(top + 1, *y.shape)
    h = np.empty((top + 1, *y.shape))
    level = h[0]
    np.multiply(np.exp(-0.5 * y * y), np.pi ** -0.25, out=level)
    scratch = np.empty_like(y) if top > 1 else None
    for k in range(top):
        upper = h[k + 1]  # a view: h[k + 1] *= ... would assign the row to itself as well
        np.multiply(y, math.sqrt(2.0 / (k + 1)), out=upper)
        upper *= level
        if k:
            np.multiply(lower, math.sqrt(k / (k + 1)), out=scratch)
            upper -= scratch
        lower, level = level, upper
    return h


def _clipped(t, scale: float):
    """scale t for a real t, read by _components, clipped at +-1e150 / scale before it is
    scaled: every Hermite level is exactly 0 past |scale t| = 38.6, so the clip moves no
    value, and it keeps scale t from overflowing and the recurrence from inf * 0 = nan.
    ValueError for a complex or NaN argument; +-inf clips, so its levels are exactly 0."""
    bound = 1e150 / scale
    y = np.minimum(np.maximum(_components(t, None, real=True), -bound), bound)
    # y . y is NaN just where an entry is, since its terms are squares (never inf - inf);
    # one BLAS pass costs less than np.isnan(y).any()
    if math.isnan(np.vdot(y, y) if y.ndim else y):
        raise ValueError("Hermite arguments must not be NaN")
    y *= scale  # in place: one argument-sized temporary fewer, the same bits
    return y


def _scale(omega: float, sign: int) -> float:
    """Omega**(sign / 2) for a positive finite Omega: the argument scale of the factor of
    direction sign, and the sample scale of the transform in that direction."""
    return _real(omega, "spring constant") ** (0.5 * sign)


def _pick(want, level):
    """level(k) at each entry's level k of want, an int or an int array broadcasting against
    level's arrays, 0.0 where k < 0: each entry has the bits of its own level's array."""
    got = {want} if isinstance(want, int) else set(want.ravel().tolist())
    if len(got) == 1:
        return level(k) if (k := got.pop()) >= 0 else 0.0 * level(0)
    row = level(0)  # every level has its shape and dtype
    out = np.zeros(np.broadcast_shapes(want.shape, row.shape), row.dtype)
    for k in got:
        if k >= 0:
            np.copyto(out, level(k), where=want == k)
    return out


def _factor(sign: int, ls, omega: float, t, offsets=(0,), slope: bool = False):
    """The 1D factor of direction sign (+1 position, -1 momentum) at t (as _clipped reads
    it), Omega^(sign/4) h_k(Omega^(sign/2) t), at the level k = ls + d for each offset d,
    0.0 where k < 0, as the rows of one array; with slope, a list of those rows and then
    the t-derivative at the level ls, Omega^(3 sign/4) (sqrt(ls/2) h_(ls-1) - sqrt((ls+1)/2)
    h_(ls+1)). ls is an int or an int array broadcasting against t; one _hermite_levels
    pass gives every entry its level's bits. A range of offsets at an int ls, without slope,
    is a table: the recurrence's own array, scaled in place, with no copy."""
    omega = _real(omega, "spring constant")
    y = _clipped(t, _scale(omega, sign))
    wants = [ls + d for d in (*offsets, *((-1, 1) if slope else ()))]
    h = _hermite_levels(max(wants) if isinstance(ls, int) else int(max(map(np.max, wants))), y)
    if isinstance(offsets, range):
        table = h[ls + offsets.start:]
        table *= omega ** (0.25 * sign)
        return table
    rows = [h[want] if isinstance(want, int) and want >= 0 else _pick(want, h.__getitem__)
            for want in wants]  # a table's rows, read directly: no call per row
    if slope:
        lower, upper = rows[len(offsets):]
        d = omega ** (0.75 * sign) * (np.sqrt(ls / 2.0) * lower - np.sqrt((ls + 1) / 2.0) * upper)
    # out of place, so the product is the one copy: a row of h would keep all of h alive
    values = np.multiply(rows[0][None] if len(offsets) == 1 else rows[:len(offsets)],
                         omega ** (0.25 * sign))
    return [*values, d] if slope else values


def _factor_table(sign: int, top: int, omega: float, t) -> np.ndarray:
    """The factor of direction sign at the levels 0..top, shape (top + 1, *t.shape): the
    recurrence's array, scaled in place, whose row l has the bits of the level-l factor at t;
    ValueError unless t is real and finite."""
    if not np.isfinite(t := _components(t, None, real=True)).all():
        raise ValueError("targets must be finite")
    return _factor(sign, 0, omega, t, range(top + 1))


def phi_1d(l: int, omega: float, xi):
    """Position-space factor (Omega/pi)^(1/4)/sqrt(2^l l!) H_l(sqrt(Omega) xi) exp(-Omega xi^2/2)."""
    out = _factor(+1, _integer(l, "quantum number", 0, MAX_LEVEL), omega, xi)[0]
    return out if out.ndim else float(out)


def phi_1d_momentum(l: int, omega: float, pi_):
    """Momentum-space factor (1/(Omega pi))^(1/4)/sqrt(2^l l!) H_l(pi/sqrt(Omega)) exp(-pi^2/(2 Omega))."""
    out = _factor(-1, _integer(l, "quantum number", 0, MAX_LEVEL), omega, pi_)[0]
    return out if out.ndim else float(out)


def _monomial(l: int, alpha):
    """alpha^l / sqrt(l!) as complex, with numpy's overflow warnings off."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.asarray(alpha, dtype=complex) ** l / math.sqrt(math.factorial(l))


def phi_1d_bargmann(l: int, omega: float, alpha):
    """Bargmann-space factor alpha^l / sqrt(l!), complex; Omega is checked, not used."""
    _real(omega, "spring constant")
    out = _monomial(l := _integer(l, "quantum number", 0, MAX_LEVEL), _components(alpha, None))
    if not _all(np.isfinite(out)):
        raise ValueError(f"the Bargmann factor alpha^{l} / sqrt({l}!) is non-finite")
    return out if out.ndim else complex(out)


def phi_1d_derivative(l: int, omega: float, xi):
    """d/dxi of phi_1d: sqrt(Omega) (sqrt(l/2) phi_{l-1} - sqrt((l+1)/2) phi_{l+1})."""
    out = _factor(+1, _integer(l, "quantum number", 0, MAX_LEVEL), omega, xi, (), slope=True)[0]
    return out if np.ndim(out) else float(out)


def sigma_n(omega: float, n: int) -> float:
    """Separation-constant eigenvalue Omega (3/2 + n) of the level n, for a positive and
    finite Omega (a numpy float read as its float64), checked for overflow."""
    n = _integer(n, "level", 0, float_info.max)
    return _real(_real(omega, "spring constant") * (1.5 + n), "Omega (3/2 + n)")


def nr_spring_constant(m1: float, m2: float, omega_nr: float) -> float:
    """Map a Schroedinger angular frequency to the covariant spring constant, Omega = m_r omega."""
    omega_nr = _real(omega_nr, "Schroedinger frequency")
    return _real(reduced_mass(m1, m2) * omega_nr, "spring constant")


def degeneracy(n: int) -> int:
    """Number of (l1, l2, l3) triples with l1 + l2 + l3 = n."""
    n = _integer(n, "level")
    return (n + 1) * (n + 2) // 2


def quantum_numbers_at_level(n: int):
    """All QuantumNumbers with total n <= MAX_LEVEL, in lexicographic order."""
    n = _integer(n, "level", 0, MAX_LEVEL)
    return [QuantumNumbers(l1, l2, n - l1 - l2)
            for l1 in range(n + 1) for l2 in range(n - l1 + 1)]


@dataclass(frozen=True)
class QuantumNumbers:
    """Triple of 1D oscillator quantum numbers."""

    l1: int
    l2: int
    l3: int

    def __post_init__(self):
        for name in ("l1", "l2", "l3"):
            object.__setattr__(self, name, _integer(getattr(self, name), name, 0, MAX_LEVEL))

    @property
    def n(self) -> int:
        return self.l1 + self.l2 + self.l3

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.l1, self.l2, self.l3)

    def replace_axis(self, axis: int, value: int) -> "QuantumNumbers":
        ls = list(self.as_tuple())
        ls[_integer(axis, "axis", 1, 3) - 1] = value
        return QuantumNumbers(*ls)


@dataclass(frozen=True)
class OscillatorState:
    """Oscillator eigenstate: quantum numbers, spring constant, bound system.

    The attached system must carry the eigenvalue sigma_n of the level,
    which ties its rest mass to the state.
    """

    q: QuantumNumbers
    omega: float
    sys: BoundSystem

    def __post_init__(self):
        target = sigma_n(self.omega, self.q.n)
        if abs(self.sys.sigma - target) > 1e-12 * max(1.0, target):
            raise ValueError(
                f"system sigma {self.sys.sigma!r} does not match sigma_n = {target!r}")

    @property
    def sigma(self) -> float:
        return self.sys.sigma


def oscillator_state(l, omega: float, m1: float, m2: float,
                     velocity=(0.0, 0.0, 0.0)) -> OscillatorState:
    """Build an eigenstate; the bound system gets sigma_n and the requested velocity."""
    q = l if isinstance(l, QuantumNumbers) else QuantumNumbers(*l)
    sys = bound_system(m1, m2, sigma_n(omega, q.n), velocity)
    return OscillatorState(q, float(omega), sys)


# Each psi_* takes FourVectors, which give a Python complex, or (..., 4)
# arrays of points and centre-of-mass positions X, which broadcast to a
# (...) array; X = None omits the phase.

def _phase(P, X):
    """exp(i P.X), or ValueError where P.X is complex or not finite."""
    if X is None:
        return 1.0 + 0.0j
    with np.errstate(over="ignore", invalid="ignore"):
        px = minkowski_dot(P, X)
    if np.asarray(px).dtype.kind == "c" or not _all(np.isfinite(px)):
        raise ValueError("the centre-of-mass phase P.X must be real and finite")
    return np.exp(1j * px)


def _product(a, b):
    """a * b, multiplying two complex operands by the textbook formula:
    numpy's vectorised complex multiply may fuse a multiply and an add, and
    then a batch differs from its rows, and from Python, in the last ulp."""
    if not np.asarray(a).dtype.kind == np.asarray(b).dtype.kind == "c":
        return a * b
    return _complex(np.real(a) * np.real(b) - np.imag(a) * np.imag(b),
                    np.real(a) * np.imag(b) + np.imag(a) * np.real(b))


def _scalar(value):
    """A 0-d result as a Python complex, the type a single FourVector gives."""
    return value if np.ndim(value) else complex(value)


def _per_state(a, states: int, ndim: int):
    """a, whose first `states` axes run over stacked states, with ones inserted after
    them, so that it broadcasts against (S..., ..., k) points of ndim axes."""
    shape = np.shape(a)
    return np.reshape(a, shape[:states] + (1,) * (ndim - 1 - states) + shape[states:])


def _psi(ls, omega: float, P, M0, x, X=None, gradient: bool = False, rep: str = "position"):
    """psi_position, psi_momentum or psi_bargmann (rep) at x, and with gradient also the
    partials (..., 4) of psi_position, for stacked states at one Omega: levels ls (S..., 3),
    momenta P (S..., 4) and rest masses M0 (S...) against points x and X (S..., ..., 4), or
    one state's three levels, P and M0. Each entry has the bits of its own state's call; one
    FourVector x gives a 0-d result. ValueError where a point or its coordinates are not
    finite, or a Bargmann value overflows."""
    x = _components(x)
    if states := getattr(M0, "ndim", 0):
        ls, P, M0 = (_per_state(a, states, x.ndim) for a in (ls, _components(P), M0))
        ls = np.moveaxis(ls, -1, 0)
    # one recurrence per axis, as the 1D factors run it; the coordinates are freed after the loop
    (v1, *d1), (v2, *d2), (v3, *d3) = [
        [_pick(l, lambda k: _monomial(k, t))] if rep == "bargmann" else
        _factor(-1 if rep == "momentum" else +1, l, omega, t, slope=gradient)
        for l, t in zip(ls, np.moveaxis(_finite_map(_coordinates, x, P, M0,
                                                    image="constraint coordinates"), -1, 0))]
    phase = _phase(P, X)
    with np.errstate(over="ignore", invalid="ignore"):  # a Bargmann product may overflow
        value = _product(_product(_product(v1, v2), v3), phase)
    if rep == "bargmann" and not _all(np.isfinite(value)):
        raise ValueError("the Bargmann wave function is non-finite")
    if not gradient:
        return value
    grad_xi = np.stack([d1[0] * v2 * v3, v1 * d2[0] * v3, v1 * v2 * d3[0]], axis=-1)
    # one vector-matrix product per point: a plain 2-D @ rounds differently
    grad = np.matmul(grad_xi[..., None, :], _jacobian(P, M0))[..., 0, :]
    return value, grad * np.asarray(phase)[..., None]


def _state_args(state: OscillatorState):
    """One state's arguments of _psi before the points."""
    return state.q.as_tuple(), state.omega, state.sys.P, state.sys.M0


def psi_position(state: OscillatorState, x, X=None):
    """Position-representation wave function phi(xi_1) phi(xi_2) phi(xi_3) exp(i P.X)."""
    return _scalar(_psi(*_state_args(state), x, X))


def psi_momentum(state: OscillatorState, p, X=None):
    """Momentum-representation wave function, the product of momentum factors times exp(i P.X)."""
    return _scalar(_psi(*_state_args(state), p, X, rep="momentum"))


def psi_bargmann(state: OscillatorState, a, X=None):
    """Bargmann-representation wave function, the product of Bargmann factors times exp(i P.X);
    ValueError where a factor or that product overflows."""
    return _scalar(_psi(*_state_args(state), a, X, rep="bargmann"))


def psi_position_gradient(state: OscillatorState, x, X=None) -> np.ndarray:
    """Closed-form partials (dpsi/dc1, ..., dpsi/dc4) of psi_position at x, shape (..., 4)."""
    return _psi(*_state_args(state), x, X, gradient=True)[1]


def _ladder_sign(direction: str, axis: int) -> tuple[int, int]:
    """The sign of a move, +1 to raise and -1 to lower, and the 0-based index of its axis."""
    i = _integer(axis, "axis", 1, 3) - 1
    if direction == "raise":
        return +1, i
    if direction == "lower":
        return -1, i
    raise ValueError(f"direction must be 'raise' or 'lower', got {direction!r}")


def ladder_apply(direction: str, axis: int, state: OscillatorState):
    """Raise or lower one axis quantum number; returns (coefficient, new state):
    sqrt(l + 1) to raise, sqrt(l) to lower.

    Lowering a zero quantum number annihilates the state: the coefficient
    is 0.0 and the state slot holds None. The new state's system keeps the
    velocity and gets the eigenvalue of the new level.
    """
    sign, i = _ladder_sign(direction, axis)
    li = state.q.as_tuple()[i]
    if sign < 0 and not li:
        return 0.0, None
    q_new = state.q.replace_axis(axis, li + sign)
    sys_new = state.sys.with_sigma(sigma_n(state.omega, q_new.n))
    return math.sqrt(li + 1 if sign > 0 else li), OscillatorState(q_new, state.omega, sys_new)


def ladder_explicit_value(direction: str, axis: int, omega: float, sys: BoundSystem,
                          x, value, grad4):
    """Explicit 4-space ladder operator applied to a field value and gradient at x.

    Derivative part: the constraint-space derivative reduced with the
    transversality condition, d_i + P_i/(M0 + P4) d_4 on stored components.
    Multiplicative part: Omega xi_i(x). Valid for fields satisfying
    P^mu d_mu f = 0; oscillator eigenfunctions do. ValueError where x or the value is not finite.
    """
    sign, i = _ladder_sign(direction, axis)
    omega = _real(omega, "spring constant")
    out = _ladder_explicit(sign, i, omega, _components(sys.P), sys.M0, x,
                           _components(value, None), _components(grad4))
    if not _all(np.isfinite(out)):
        raise ValueError("non-finite ladder value: the field and its gradient must be finite")
    return out


def _component(a, i):
    """a[..., i] for an int i; for an int array i, entry i of a's last axis, with i
    broadcasting against a[..., 0]."""
    if isinstance(i, int):
        return a[..., i]
    i = np.asarray(i)
    index = np.reshape(i, (1,) * (a.ndim - 1 - i.ndim) + i.shape + (1,))
    return np.take_along_axis(a, index, -1)[..., 0]


def _ladder_explicit(sign, i, omega: float, P, M0, x, value, grad4):
    """ladder_explicit_value for signs (+1 raise, -1 lower) and 0-based axes i, ints or
    arrays broadcasting against value, at stacked systems P (..., 4) and M0 (...)."""
    d_xi = _component(grad4, i) + (_component(P, i) / (M0 + P[..., 3])) * grad4[..., 3]
    xi_i = _component(_finite_map(_coordinates, x, P, M0, image="constraint coordinates"), i)
    return (-sign * d_xi + omega * xi_i * value) / math.sqrt(2.0 * omega)


def ladder_explicit_4d_value(direction: str, axis: int, omega: float, sys: BoundSystem,
                             x, value, grad4):
    """Same operator assembled from the four flat-space ladder components.

    Each component is (-+ d^mu + Omega x^mu)/sqrt(2 Omega) on contravariant
    components (the time component's derivative picks up the metric sign),
    combined with the constraint-coordinate map applied to the component
    values. Agrees with ladder_explicit_value on transversal fields. ValueError where
    x or the map of the components is not finite.
    """
    sign, i = _ladder_sign(direction, axis)
    omega = _real(omega, "spring constant")
    return _ladder_explicit_4d(sign, i, omega, _components(sys.P), sys.M0, x,
                               _components(value, None), _components(grad4))


def _ladder_explicit_4d(sign, i, omega: float, P, M0, x, value, grad4):
    """ladder_explicit_4d_value as _ladder_explicit takes its arguments."""
    d_contra = np.concatenate([grad4[..., :3], -grad4[..., 3:]], axis=-1)
    a_mu = lambda w: _coordinates((-np.asarray(sign)[..., None] * d_contra + omega * w
                                   * np.expand_dims(value, -1)) / math.sqrt(2.0 * omega), P, M0)
    return _component(_finite_map(a_mu, x, image="map of the ladder components"), i)


def _factors(factor, state: OscillatorState):
    """The state's three 1D factors, one per axis, whose product is its profile."""
    return [functools.partial(factor, l, state.omega) for l in state.q.as_tuple()]


def momentum_profile(state: OscillatorState):
    """Vectorised (pi1, pi2, pi3) -> product of momentum factors, phase omitted."""
    f1, f2, f3 = _factors(phi_1d_momentum, state)
    return lambda x1, x2, x3: f1(x1) * f2(x2) * f3(x3)
