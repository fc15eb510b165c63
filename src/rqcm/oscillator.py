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

import math
from dataclasses import dataclass

import numpy as np

from .constraint import constraint_coordinates, xi_jacobian
from .minkowski import BoundSystem, FourVector, bound_system, minkowski_dot, reduced_mass

# Highest admissible 1D quantum number.
MAX_LEVEL = 64


def _hermite_function(l: int, y):
    """Orthonormal Hermite function H_l(y) exp(-y^2/2) / sqrt(2^l l! sqrt(pi))."""
    y = np.asarray(y, dtype=float)
    h0 = np.pi ** -0.25 * np.exp(-0.5 * y * y)
    if l == 0:
        return h0
    h1 = math.sqrt(2.0) * y * h0
    for k in range(1, l):
        h0, h1 = h1, math.sqrt(2.0 / (k + 1)) * y * h1 - math.sqrt(k / (k + 1)) * h0
    return h1


def _check_1d_args(l: int, omega: float):
    if not 0 <= l <= MAX_LEVEL:
        raise ValueError(f"quantum number must be in [0, {MAX_LEVEL}], got {l}")
    if not 0.0 < omega < math.inf:
        raise ValueError(f"spring constant must be positive and finite, got {omega!r}")


def phi_1d(l: int, omega: float, xi):
    """Position-space factor (Omega/pi)^(1/4)/sqrt(2^l l!) H_l(sqrt(Omega) xi) exp(-Omega xi^2/2)."""
    _check_1d_args(l, omega)
    out = omega ** 0.25 * _hermite_function(l, math.sqrt(omega) * np.asarray(xi, dtype=float))
    return out if out.ndim else float(out)


def phi_1d_momentum(l: int, omega: float, pi_):
    """Momentum-space factor (1/(Omega pi))^(1/4)/sqrt(2^l l!) H_l(pi/sqrt(Omega)) exp(-pi^2/(2 Omega))."""
    _check_1d_args(l, omega)
    out = omega ** -0.25 * _hermite_function(l, np.asarray(pi_, dtype=float) / math.sqrt(omega))
    return out if out.ndim else float(out)


def phi_1d_derivative(l: int, omega: float, xi):
    """d/dxi of phi_1d: sqrt(Omega) (sqrt(l/2) phi_{l-1} - sqrt((l+1)/2) phi_{l+1})."""
    _check_1d_args(l, omega)
    y = math.sqrt(omega) * np.asarray(xi, dtype=float)
    lower = math.sqrt(l / 2.0) * _hermite_function(l - 1, y) if l > 0 else 0.0
    upper = math.sqrt((l + 1) / 2.0) * _hermite_function(l + 1, y)
    out = omega ** 0.75 * (lower - upper)
    return out if np.ndim(out) else float(out)


def sigma_n(omega: float, n: int) -> float:
    """Separation-constant eigenvalue Omega (3/2 + n) of the level n."""
    if not 0.0 < omega < math.inf:
        raise ValueError(f"spring constant must be positive and finite, got {omega!r}")
    if n < 0:
        raise ValueError("level must be non-negative")
    return omega * (1.5 + n)


def nr_spring_constant(m1: float, m2: float, omega_nr: float) -> float:
    """Map a Schroedinger angular frequency to the covariant spring constant, Omega = m_r omega."""
    return reduced_mass(m1, m2) * omega_nr


def degeneracy(n: int) -> int:
    """Number of (l1, l2, l3) triples with l1 + l2 + l3 = n."""
    if n < 0:
        raise ValueError("level must be non-negative")
    return (n + 1) * (n + 2) // 2


def quantum_numbers_at_level(n: int):
    """All QuantumNumbers with total n, in lexicographic order."""
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
            value = getattr(self, name)
            if isinstance(value, (bool, np.bool_)) or not 0 <= value <= MAX_LEVEL:
                raise ValueError(f"{name} must be an integer in [0, {MAX_LEVEL}], got {value!r}")
            if int(value) != value:
                raise ValueError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))

    @property
    def n(self) -> int:
        return self.l1 + self.l2 + self.l3

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.l1, self.l2, self.l3)

    def replace_axis(self, axis: int, value: int) -> "QuantumNumbers":
        ls = list(self.as_tuple())
        ls[axis - 1] = value
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
        if not 0.0 < self.omega < math.inf:
            raise ValueError(f"spring constant must be positive and finite, got {self.omega!r}")
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


def states_up_to(max_n: int, omega: float, m1: float, m2: float,
                 velocity=(0.0, 0.0, 0.0)) -> list[OscillatorState]:
    """All eigenstates with total quantum number <= max_n, deterministic order."""
    return [oscillator_state(q, omega, m1, m2, velocity)
            for n in range(max_n + 1) for q in quantum_numbers_at_level(n)]


def _phase(state: OscillatorState, X) -> complex:
    if X is None:
        return 1.0 + 0.0j
    return complex(np.exp(1j * minkowski_dot(state.sys.P, X)))


def psi_position(state: OscillatorState, x: FourVector, X: FourVector | None = None) -> complex:
    """Position-representation wave function phi(xi_1) phi(xi_2) phi(xi_3) exp(i P.X)."""
    xi = constraint_coordinates(x, state.sys)
    q = state.q
    val = (phi_1d(q.l1, state.omega, xi[0])
           * phi_1d(q.l2, state.omega, xi[1])
           * phi_1d(q.l3, state.omega, xi[2]))
    return val * _phase(state, X)


def psi_momentum(state: OscillatorState, p: FourVector, X: FourVector | None = None) -> complex:
    """Momentum-representation wave function, the product of momentum factors times exp(i P.X)."""
    pi = constraint_coordinates(p, state.sys)
    q = state.q
    val = (phi_1d_momentum(q.l1, state.omega, pi[0])
           * phi_1d_momentum(q.l2, state.omega, pi[1])
           * phi_1d_momentum(q.l3, state.omega, pi[2]))
    return val * _phase(state, X)


def psi_bargmann(state: OscillatorState, a: FourVector,
                 X: FourVector | None = None) -> complex:
    """Bargmann-representation wave function alpha1^l1 alpha2^l2 alpha3^l3 / sqrt(l1! l2! l3!) exp(i P.X)."""
    al = constraint_coordinates(a, state.sys)
    q = state.q
    norm = math.sqrt(math.factorial(q.l1) * math.factorial(q.l2) * math.factorial(q.l3))
    return (al[0] ** q.l1) * (al[1] ** q.l2) * (al[2] ** q.l3) / norm * _phase(state, X)


def psi_position_gradient(state: OscillatorState, x: FourVector,
                          X: FourVector | None = None) -> np.ndarray:
    """Closed-form partials (dpsi/dc1, ..., dpsi/dc4) of psi_position at x."""
    xi = constraint_coordinates(x, state.sys)
    ls = state.q.as_tuple()
    vals = [phi_1d(ls[k], state.omega, xi[k]) for k in range(3)]
    ders = [phi_1d_derivative(ls[k], state.omega, xi[k]) for k in range(3)]
    grad_xi = np.array([ders[0] * vals[1] * vals[2],
                        vals[0] * ders[1] * vals[2],
                        vals[0] * vals[1] * ders[2]])
    return (grad_xi @ xi_jacobian(state.sys)) * _phase(state, X)


def _ladder_sign(direction: str) -> int:
    if direction == "raise":
        return +1
    if direction == "lower":
        return -1
    raise ValueError(f"direction must be 'raise' or 'lower', got {direction!r}")


def ladder_apply(direction: str, axis: int, state: OscillatorState):
    """Raise or lower one axis quantum number; returns (coefficient, new state).

    Lowering a zero quantum number annihilates the state: the coefficient
    is 0.0 and the state slot holds None. The new state's system keeps the
    velocity and gets the eigenvalue of the new level.
    """
    sign = _ladder_sign(direction)
    if axis not in (1, 2, 3):
        raise ValueError("axis must be 1, 2 or 3")
    li = state.q.as_tuple()[axis - 1]
    if sign < 0:
        if li == 0:
            return 0.0, None
        coeff = math.sqrt(li)
        new_li = li - 1
    else:
        coeff = math.sqrt(li + 1)
        new_li = li + 1
    q_new = state.q.replace_axis(axis, new_li)
    sys_new = state.sys.with_sigma(sigma_n(state.omega, q_new.n))
    return coeff, OscillatorState(q_new, state.omega, sys_new)


def ladder_explicit_value(direction: str, axis: int, omega: float, sys: BoundSystem,
                          x: FourVector, value, grad4) -> complex:
    """Explicit 4-space ladder operator applied to a field value and gradient at x.

    Derivative part: the constraint-space derivative reduced with the
    transversality condition, d_i + P_i/(M0 + P4) d_4 on stored components.
    Multiplicative part: Omega xi_i(x). Valid for fields satisfying
    P^mu d_mu f = 0; oscillator eigenfunctions do.
    """
    sign = _ladder_sign(direction)
    if axis not in (1, 2, 3):
        raise ValueError("axis must be 1, 2 or 3")
    g = np.asarray(grad4)
    P = sys.P
    i = axis - 1
    d_xi = g[i] + (P.spatial[i] / (sys.M0 + P.c4)) * g[3]
    xi_i = constraint_coordinates(x, sys)[i]
    return (-sign * d_xi + omega * xi_i * value) / math.sqrt(2.0 * omega)


def ladder_explicit_4d_value(direction: str, axis: int, omega: float, sys: BoundSystem,
                             x: FourVector, value, grad4) -> complex:
    """Same operator assembled from the four flat-space ladder components.

    Each component is (-+ d^mu + Omega x^mu)/sqrt(2 Omega) on contravariant
    components (the time component's derivative picks up the metric sign),
    combined with the constraint-coordinate map applied to the component
    values. Agrees with ladder_explicit_value on transversal fields.
    """
    sign = _ladder_sign(direction)
    if axis not in (1, 2, 3):
        raise ValueError("axis must be 1, 2 or 3")
    g = np.asarray(grad4)
    d_contra = np.array([g[0], g[1], g[2], -g[3]])
    a_mu = (-sign * d_contra + omega * x.components * value) / math.sqrt(2.0 * omega)
    P = sys.P
    sp = P.spatial
    pa = sp[0] * a_mu[0] + sp[1] * a_mu[1] + sp[2] * a_mu[2] - P.c4 * a_mu[3]
    i = axis - 1
    return a_mu[i] + sp[i] * (pa - sys.M0 * a_mu[3]) / (sys.M0 * (sys.M0 + P.c4))


def ladder_apply_explicit(direction: str, axis: int, state: OscillatorState,
                          x: FourVector, X: FourVector | None = None,
                          gradient=None) -> complex:
    """Evaluate the explicit ladder operator on the state's wave function at x.

    gradient=None uses the closed-form gradient; otherwise gradient must be
    a callable (field, x) -> length-4 array of partials, e.g. the finite
    difference engine from the verify module. The result equals
    coefficient * psi_new(x) of ladder_apply, with the centre-of-mass phase
    of the original state.
    """
    value = psi_position(state, x, X)
    if gradient is None:
        grad4 = psi_position_gradient(state, x, X)
    else:
        field = lambda pt: psi_position(state, pt, X)
        grad4 = gradient(field, x)
    return ladder_explicit_value(direction, axis, state.omega, state.sys, x, value, grad4)


def position_profile(state: OscillatorState):
    """Vectorised (xi1, xi2, xi3) -> product of position factors, phase omitted."""
    ls = state.q.as_tuple()
    om = state.omega

    def profile(x1, x2, x3):
        return phi_1d(ls[0], om, x1) * phi_1d(ls[1], om, x2) * phi_1d(ls[2], om, x3)

    return profile


def momentum_profile(state: OscillatorState):
    """Vectorised (pi1, pi2, pi3) -> product of momentum factors, phase omitted."""
    ls = state.q.as_tuple()
    om = state.omega

    def profile(p1, p2, p3):
        return (phi_1d_momentum(ls[0], om, p1) * phi_1d_momentum(ls[1], om, p2)
                * phi_1d_momentum(ls[2], om, p3))

    return profile
