"""Relativistic 3D harmonic oscillator in constraint-space coordinates.

Eigenfunctions are products of 1D Hermite-Gaussian factors of the
constraint coordinates times the centre-of-mass plane wave exp(i P.X).
The spring constant Omega carries units of mass squared; the separation
constant of the level with total quantum number n is sigma_n = Omega (3/2 + n).

Hermite-Gaussian factors are evaluated with the orthonormal-function
three-term recurrence (values stay O(1) for any quantum number), never
through the raw 2^l l! normalisation, so no overflow occurs anywhere in
the admitted range l <= 64.
"""
from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from sys import float_info

import numpy as np

from .constraint import _axis, constraint_coordinates, xi_jacobian
from .minkowski import (BoundSystem, _all, _complex, _components, _positive, bound_system,
                        minkowski_dot, reduced_mass)

# Highest admissible 1D quantum number.
MAX_LEVEL = 64


def _hermite_levels(top: int, y) -> list:
    """Orthonormal Hermite functions H_l(y) exp(-y^2/2) / sqrt(2^l l! sqrt(pi)) for
    l = 0..top, from one pass of the three-term recurrence; entry l is level l."""
    y = np.asarray(y, dtype=float)
    levels = [np.pi ** -0.25 * np.exp(-0.5 * y * y)]
    if top > 0:
        levels.append(math.sqrt(2.0) * y * levels[0])
    for k in range(1, top):
        levels.append(math.sqrt(2.0 / (k + 1)) * y * levels[k]
                      - math.sqrt(k / (k + 1)) * levels[k - 1])
    return levels


def _level(value, name: str = "level", top=MAX_LEVEL) -> int:
    """value as an int: integral (2.0 reads as 2), not a bool, in [0, top]."""
    if type(value) is not int and (isinstance(value, bool) or not isinstance(value, numbers.Real)
                                   or value % 1 != 0) or not 0 <= value <= top:
        raise ValueError(f"{name} must be an integer in [0, {top}], got {value!r}")
    return value if type(value) is int else int(value)  # int() would return it, at a call's cost


def _check_1d_args(l: int, omega: float) -> int:
    _positive(omega, "spring constant")
    return _level(l, "quantum number")


def phi_1d(l: int, omega: float, xi):
    """Position-space factor (Omega/pi)^(1/4)/sqrt(2^l l!) H_l(sqrt(Omega) xi) exp(-Omega xi^2/2)."""
    l = _check_1d_args(l, omega)
    out = omega ** 0.25 * _hermite_levels(l, math.sqrt(omega) * np.asarray(xi, dtype=float))[l]
    return out if out.ndim else float(out)


def phi_1d_momentum(l: int, omega: float, pi_):
    """Momentum-space factor (1/(Omega pi))^(1/4)/sqrt(2^l l!) H_l(pi/sqrt(Omega)) exp(-pi^2/(2 Omega))."""
    l = _check_1d_args(l, omega)
    out = omega ** -0.25 * _hermite_levels(l, np.asarray(pi_, dtype=float) / math.sqrt(omega))[l]
    return out if out.ndim else float(out)


def phi_1d_bargmann(l: int, omega: float, alpha):
    """Bargmann-space factor alpha^l / sqrt(l!), complex; Omega is checked, not used."""
    l = _check_1d_args(l, omega)
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.asarray(alpha, dtype=complex) ** l / math.sqrt(math.factorial(l))
    if not _all(np.isfinite(out)):
        raise ValueError(f"the Bargmann factor alpha^{l} / sqrt({l}!) is non-finite")
    return out if out.ndim else complex(out)


def phi_1d_derivative(l: int, omega: float, xi):
    """d/dxi of phi_1d: sqrt(Omega) (sqrt(l/2) phi_{l-1} - sqrt((l+1)/2) phi_{l+1})."""
    l = _check_1d_args(l, omega)
    h = _hermite_levels(l + 1, math.sqrt(omega) * np.asarray(xi, dtype=float))
    lower = math.sqrt(l / 2.0) * h[l - 1] if l > 0 else 0.0
    upper = math.sqrt((l + 1) / 2.0) * h[l + 1]
    out = omega ** 0.75 * (lower - upper)
    return out if np.ndim(out) else float(out)


def sigma_n(omega: float, n: int) -> float:
    """Separation-constant eigenvalue Omega (3/2 + n) of the level n, checked positive
    and finite: that checks Omega, since 3/2 + n > 0, and catches an overflow."""
    return _positive(omega * (1.5 + _level(n, "level", float_info.max)), "Omega (3/2 + n)")


def nr_spring_constant(m1: float, m2: float, omega_nr: float) -> float:
    """Map a Schroedinger angular frequency to the covariant spring constant, Omega = m_r omega."""
    _positive(omega_nr, "Schroedinger frequency")
    return _positive(reduced_mass(m1, m2) * omega_nr, "spring constant")


def degeneracy(n: int) -> int:
    """Number of (l1, l2, l3) triples with l1 + l2 + l3 = n."""
    n = _level(n, top=math.inf)
    return (n + 1) * (n + 2) // 2


def quantum_numbers_at_level(n: int):
    """All QuantumNumbers with total n, in lexicographic order."""
    n = _level(n, top=math.inf)
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
            object.__setattr__(self, name, _level(getattr(self, name), name))

    @property
    def n(self) -> int:
        return self.l1 + self.l2 + self.l3

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.l1, self.l2, self.l3)

    def replace_axis(self, axis: int, value: int) -> "QuantumNumbers":
        ls = list(self.as_tuple())
        ls[_axis(axis)] = value
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


def states_up_to(max_n: int, omega: float, m1: float, m2: float) -> list[OscillatorState]:
    """All eigenstates at rest with total quantum number <= max_n, deterministic order."""
    return [oscillator_state(q, omega, m1, m2)
            for n in range(_level(max_n, "max_n", math.inf) + 1)
            for q in quantum_numbers_at_level(n)]


# Each psi_* takes FourVectors, which give a Python complex, or (..., 4)
# arrays of points and centre-of-mass positions X, which broadcast to a
# (...) array; X = None omits the phase.

def _phase(state: OscillatorState, X):
    """exp(i P.X), or ValueError where P.X is not finite."""
    if X is None:
        return 1.0 + 0.0j
    with np.errstate(over="ignore", invalid="ignore"):
        px = minkowski_dot(state.sys.P, X)
    if not _all(np.isfinite(px)):
        raise ValueError("the centre-of-mass phase P.X is non-finite")
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


def _separable(factor, state: OscillatorState, w, X):
    c = constraint_coordinates(w, state.sys)
    return _scalar(_product(_profile(factor, state)(c[..., 0], c[..., 1], c[..., 2]),
                            _phase(state, X)))


def psi_position(state: OscillatorState, x, X=None):
    """Position-representation wave function phi(xi_1) phi(xi_2) phi(xi_3) exp(i P.X)."""
    return _separable(phi_1d, state, x, X)


def psi_momentum(state: OscillatorState, p, X=None):
    """Momentum-representation wave function, the product of momentum factors times exp(i P.X)."""
    return _separable(phi_1d_momentum, state, p, X)


def psi_bargmann(state: OscillatorState, a, X=None):
    """Bargmann-representation wave function, the product of Bargmann factors times exp(i P.X);
    ValueError where that product of finite factors overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        out = _separable(phi_1d_bargmann, state, a, X)
    if not _all(np.isfinite(out)):
        raise ValueError("the Bargmann wave function is non-finite")
    return out


def psi_position_gradient(state: OscillatorState, x, X=None) -> np.ndarray:
    """Closed-form partials (dpsi/dc1, ..., dpsi/dc4) of psi_position at x, shape (..., 4)."""
    xi = constraint_coordinates(x, state.sys)
    ls = state.q.as_tuple()
    vals = [phi_1d(ls[k], state.omega, xi[..., k]) for k in range(3)]
    ders = [phi_1d_derivative(ls[k], state.omega, xi[..., k]) for k in range(3)]
    grad_xi = np.stack([ders[0] * vals[1] * vals[2],
                        vals[0] * ders[1] * vals[2],
                        vals[0] * vals[1] * ders[2]], axis=-1)
    # one vector-matrix product per point: a plain 2-D @ rounds differently
    grad = np.matmul(grad_xi[..., None, :], xi_jacobian(state.sys))[..., 0, :]
    return grad * np.asarray(_phase(state, X))[..., None]


def _ladder_sign(direction: str, axis: int) -> tuple[int, int]:
    """The sign of a move, +1 to raise and -1 to lower, and the 0-based index of its axis."""
    i = _axis(axis)
    if direction == "raise":
        return +1, i
    if direction == "lower":
        return -1, i
    raise ValueError(f"direction must be 'raise' or 'lower', got {direction!r}")


def _ladder_step(direction: str, axis: int, q: QuantumNumbers):
    """The coefficient and the new level of one axis of q: sqrt(l) and l - 1 to
    lower (0.0 and None at l = 0), sqrt(l + 1) and l + 1 to raise."""
    sign, i = _ladder_sign(direction, axis)
    li = q.as_tuple()[i]
    if sign > 0:
        return math.sqrt(li + 1), li + 1
    return (math.sqrt(li), li - 1) if li else (0.0, None)


def ladder_apply(direction: str, axis: int, state: OscillatorState):
    """Raise or lower one axis quantum number; returns (coefficient, new state).

    Lowering a zero quantum number annihilates the state: the coefficient
    is 0.0 and the state slot holds None. The new state's system keeps the
    velocity and gets the eigenvalue of the new level.
    """
    coeff, new_li = _ladder_step(direction, axis, state.q)
    if new_li is None:
        return coeff, None
    q_new = state.q.replace_axis(axis, new_li)
    sys_new = state.sys.with_sigma(sigma_n(state.omega, q_new.n))
    return coeff, OscillatorState(q_new, state.omega, sys_new)


def ladder_explicit_value(direction: str, axis: int, omega: float, sys: BoundSystem,
                          x, value, grad4):
    """Explicit 4-space ladder operator applied to a field value and gradient at x.

    Derivative part: the constraint-space derivative reduced with the
    transversality condition, d_i + P_i/(M0 + P4) d_4 on stored components.
    Multiplicative part: Omega xi_i(x). Valid for fields satisfying
    P^mu d_mu f = 0; oscillator eigenfunctions do.
    """
    sign, i = _ladder_sign(direction, axis)
    g = np.asarray(grad4)
    P = sys.P
    d_xi = g[..., i] + (P.spatial[i] / (sys.M0 + P.c4)) * g[..., 3]
    xi_i = constraint_coordinates(x, sys)[..., i]
    return (-sign * d_xi + omega * xi_i * value) / math.sqrt(2.0 * omega)


def ladder_explicit_4d_value(direction: str, axis: int, omega: float, sys: BoundSystem,
                             x, value, grad4):
    """Same operator assembled from the four flat-space ladder components.

    Each component is (-+ d^mu + Omega x^mu)/sqrt(2 Omega) on contravariant
    components (the time component's derivative picks up the metric sign),
    combined with the constraint-coordinate map applied to the component
    values. Agrees with ladder_explicit_value on transversal fields.
    """
    sign, i = _ladder_sign(direction, axis)
    g = np.asarray(grad4)
    d_contra = np.concatenate([g[..., :3], -g[..., 3:]], axis=-1)
    a_mu = ((-sign * d_contra + omega * _components(x) * np.expand_dims(value, -1))
            / math.sqrt(2.0 * omega))
    P = sys.P
    pa = minkowski_dot(P, a_mu)
    return a_mu[..., i] + P.spatial[i] * (pa - sys.M0 * a_mu[..., 3]) / (sys.M0 * (sys.M0 + P.c4))


def ladder_apply_explicit(direction: str, axis: int, state: OscillatorState, x, X=None):
    """The explicit ladder operator on the state's wave function at x, a FourVector
    or a (..., 4) array of points: coefficient * psi_new(x) of ladder_apply, with the
    original state's centre-of-mass phase. It takes the closed-form gradient; for
    another, such as finite differences, call ladder_explicit_value."""
    return ladder_explicit_value(direction, axis, state.omega, state.sys, x,
                                 psi_position(state, x, X), psi_position_gradient(state, x, X))


def _factors(factor, state: OscillatorState):
    """The state's three 1D factors, one per axis, whose product is its profile."""
    return [functools.partial(factor, l, state.omega) for l in state.q.as_tuple()]


def _profile(factor, state: OscillatorState):
    f1, f2, f3 = _factors(factor, state)
    return lambda x1, x2, x3: _product(_product(f1(x1), f2(x2)), f3(x3))


def position_profile(state: OscillatorState):
    """Vectorised (xi1, xi2, xi3) -> product of position factors, phase omitted."""
    return _profile(phi_1d, state)


def momentum_profile(state: OscillatorState):
    """Vectorised (pi1, pi2, pi3) -> product of momentum factors, phase omitted."""
    return _profile(phi_1d_momentum, state)
