"""Gauss-Hermite quadrature and the integral transforms between constraint spaces.

All integrals here have Gaussian envelopes, so a single family of
Gauss-Hermite rules (weight exp(-y^2)) drives normalisation integrals,
the symmetric-kernel Fourier pair and the Segal-Bargmann transform. An
integral with envelope exp(-c xi^2) is evaluated by substituting
y = sqrt(c) xi; the envelope then cancels against the rule's weight and
the Jacobian c^(-1/2) is applied per axis.

Oscillatory kernels put a resolution limit on a rule: an order-N rule
reproduces exp(i b y) factors accurately only up to |b| roughly
0.196 N - 0.75 (measured at 1e-10 absolute error against closed forms).
fourier_forward warns when asked for momenta beyond that trust limit, and
fourier_inverse compresses its node span so that it never samples a
forward transform outside the limit. Round-trip identity to 1e-8 needs
order >= 64; order 32 resolves the transforms themselves comfortably.

The 3D Fourier pair takes either one evaluator g(xi1, xi2, xi3) or a
sequence of three 1D factors; a product such as an oscillator state
(fourier_of_state) then costs three 1D transforms instead of an N^3 node
tensor, and the tensor path remains for general evaluators.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .oscillator import OscillatorState, phi_1d

MAX_ORDER = 256


class InsufficientOrderWarning(UserWarning):
    """The requested quadrature order under-resolves the requested integral."""


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss-Hermite nodes and weights for integrals against exp(-y^2)."""

    order: int
    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        if len(self.nodes) != self.order or len(self.weights) != self.order:
            raise ValueError("rule arrays must match the order")


def _hermnorm_and_deriv(order: int, y: np.ndarray):
    """Orthonormal Hermite polynomial (weight exp(-y^2)) and derivative, vectorised."""
    p1 = np.full(np.shape(y), np.pi ** -0.25)
    p2 = np.zeros_like(p1)
    for j in range(1, order + 1):
        p1, p2 = y * math.sqrt(2.0 / j) * p1 - math.sqrt((j - 1) / j) * p2, p1
    return p1, math.sqrt(2.0 * order) * p2


@lru_cache(maxsize=None)
def gauss_hermite(order: int) -> QuadratureRule:
    """Gauss-Hermite rule of the given order, 1 <= order <= 256.

    Positive roots are bracketed by a sign scan at the asymptotic zero
    density (spacing pi/sqrt(2N+1)) and polished with bracket-clamped
    Newton iterations; weights are 2 / Hn'(x)^2 in the orthonormal
    normalisation. Nodes are symmetric about zero by construction.
    """
    if not 1 <= order <= MAX_ORDER:
        raise ValueError(f"order must be in [1, {MAX_ORDER}], got {order}")
    if order == 1:
        nodes = np.array([0.0])
        weights = np.array([math.sqrt(math.pi)])
    else:
        limit = math.sqrt(2.0 * order + 1.0)
        step = 0.45 * math.pi / limit
        grid = np.arange(step / 3.0, limit + step, step)
        vals, _ = _hermnorm_and_deriv(order, grid)
        flip = np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]
        if len(flip) != order // 2:
            raise RuntimeError(
                f"root scan found {len(flip)} sign changes, expected {order // 2}")
        lo, hi = grid[flip].copy(), grid[flip + 1].copy()
        flo = vals[flip].copy()
        z = 0.5 * (lo + hi)
        for _ in range(100):
            p, dp = _hermnorm_and_deriv(order, z)
            on_lo_side = np.sign(p) * np.sign(flo) > 0
            lo = np.where(on_lo_side, z, lo)
            flo = np.where(on_lo_side, p, flo)
            hi = np.where(on_lo_side, hi, z)
            zn = z - p / dp
            outside = (zn <= lo) | (zn >= hi)
            zn = np.where(outside, 0.5 * (lo + hi), zn)
            if np.all(np.abs(zn - z) <= 1e-15 * np.maximum(1.0, np.abs(zn))):
                z = zn
                break
            z = zn
        p, dp = _hermnorm_and_deriv(order, z)
        z = z - p / dp
        _, dp = _hermnorm_and_deriv(order, z)
        wpos = 2.0 / (dp * dp)
        if order % 2:
            _, dp0 = _hermnorm_and_deriv(order, np.array([0.0]))
            nodes = np.concatenate([-z[::-1], [0.0], z])
            weights = np.concatenate([wpos[::-1], 2.0 / (dp0 * dp0), wpos])
        else:
            nodes = np.concatenate([-z[::-1], z])
            weights = np.concatenate([wpos[::-1], wpos])
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return QuadratureRule(order, nodes, weights)


def rescaled_nodes(rule: QuadratureRule, rate: float):
    """Substitution y = sqrt(rate) xi: sample points and effective weights.

    Returns (points, eff) with points = nodes/sqrt(rate) and
    eff = weights exp(nodes^2) / sqrt(rate), so that
    sum(eff * F(points)) approximates the integral of F over the line for
    integrands F with Gaussian envelope exp(-rate xi^2).
    """
    if rate <= 0:
        raise ValueError("rate must be positive")
    root = math.sqrt(rate)
    return rule.nodes / root, rule.weights * np.exp(rule.nodes ** 2) / root


def trust_frequency(order: int) -> float:
    """Largest kernel frequency (in rule y-units) resolved to ~1e-10."""
    return max(0.5, 0.196 * order - 0.75)


def trust_momentum(rule: QuadratureRule, omega: float) -> float:
    """Largest |pi| at which fourier_forward with this rule is accurate."""
    return trust_frequency(rule.order) * math.sqrt(omega / 2.0)


def normalization_integral(state: OscillatorState, rule: QuadratureRule) -> float:
    """Norm of the state over the constraint space, exact value one.

    The squared factors are polynomials of degree 2 l_i against the
    absorbed Gaussian, so the tensor-product quadrature is exact (up to
    rounding) once the order exceeds the per-axis degree; orders below
    n + 2 raise InsufficientOrderWarning.
    """
    if rule.order < state.q.n + 2:
        warnings.warn(f"order {rule.order} < n + 2 = {state.q.n + 2} under-resolves "
                      "the normalisation integral", InsufficientOrderWarning, stacklevel=2)
    pts, eff = rescaled_nodes(rule, state.omega)
    total = 1.0
    for l in state.q.as_tuple():
        vals = phi_1d(l, state.omega, pts)
        total *= float(np.sum(eff * vals * vals))
    return total


def overlap_integral(state_a: OscillatorState, state_b: OscillatorState,
                     rule: QuadratureRule) -> float:
    """Constraint-space overlap of two states sharing a spring constant."""
    if state_a.omega != state_b.omega:
        raise ValueError("overlap requires a common spring constant")
    pts, eff = rescaled_nodes(rule, state_a.omega)
    total = 1.0
    for la, lb in zip(state_a.q.as_tuple(), state_b.q.as_tuple()):
        total *= float(np.sum(eff * phi_1d(la, state_a.omega, pts)
                              * phi_1d(lb, state_b.omega, pts)))
    return total


def fourier_forward1d(g, targets, rule: QuadratureRule, omega: float,
                      _sign: int = -1, _rate: float | None = None):
    """One axis of the transform: (2 pi)^(-1/2) integral g(xi) exp(-i pi xi) dxi."""
    rate = 0.5 * omega if _rate is None else _rate
    pts, eff = rescaled_nodes(rule, rate)
    targets = np.asarray(targets, dtype=float)
    vals = np.asarray(g(pts)) * eff
    kern = np.exp(_sign * 1j * np.outer(np.atleast_1d(targets), pts))
    out = (kern @ vals) / math.sqrt(2.0 * math.pi)
    return out if targets.ndim else complex(out[0])


def fourier_inverse1d(f, targets, rule: QuadratureRule, omega: float):
    """One axis of the inverse transform, kernel exp(+i pi xi), measure d pi."""
    return fourier_forward1d(f, targets, rule, omega, _sign=+1,
                             _rate=_momentum_rate(rule, omega, 1.0 / (2.0 * omega)))


def _momentum_rate(rule: QuadratureRule, omega: float, natural: float) -> float:
    """Node-span policy for integrals over momentum constraint coordinates.

    The natural envelope rate is raised when needed so no sample lands
    beyond trust_momentum, where a numerically transformed integrand
    would be garbage.
    """
    ymax = float(rule.nodes[-1]) if rule.order > 1 else 1.0
    return max(natural, (ymax / trust_momentum(rule, omega)) ** 2)


def _target_grid(targets):
    """Accept a product grid (three 1D arrays) or a point list of shape (..., 3)."""
    if isinstance(targets, (tuple, list)) and len(targets) == 3 \
            and all(np.asarray(t).ndim == 1 for t in targets):
        return tuple(np.asarray(t, dtype=float) for t in targets), True
    pts = np.asarray(targets, dtype=float)
    if pts.shape[-1] != 3:
        raise ValueError("targets must be (..., 3) points or three 1D axis arrays")
    return pts.reshape(-1, 3), False


def _tensor_grid_values(g, pts, eff):
    G = np.asarray(g(pts[:, None, None], pts[None, :, None], pts[None, None, :]),
                   dtype=complex)
    return G * (eff[:, None, None] * eff[None, :, None] * eff[None, None, :])


def _apply_kernels(G, k1, k2, k3):
    T = np.einsum('ai,ijk->ajk', k1, G)
    T = np.einsum('bj,ajk->abk', k2, T)
    return np.einsum('ck,abk->abc', k3, T)


def _separable_transform(factors, grid, is_grid, rule, omega, rate, sign):
    if len(factors) != 3:
        raise ValueError("need one 3D evaluator or a sequence of three 1D factors")
    f1, f2, f3 = (fourier_forward1d(f, t, rule, omega, _sign=sign, _rate=rate)
                  for f, t in zip(factors, grid if is_grid else grid.T))
    if is_grid:
        return f1[:, None, None] * f2[None, :, None] * f3[None, None, :]
    return f1 * f2 * f3


def _tensor_transform(g, grid, is_grid, rule, rate, sign):
    pts, eff = rescaled_nodes(rule, rate)
    G = _tensor_grid_values(g, pts, eff)
    norm = (2.0 * math.pi) ** -1.5
    if is_grid:
        kerns = [np.exp(sign * 1j * np.outer(t, pts)) for t in grid]
        return norm * _apply_kernels(G, *kerns)
    kerns = [np.exp(sign * 1j * np.outer(grid[:, a], pts)) for a in range(3)]
    return norm * np.einsum('ijk,mi,mj,mk->m', G, *kerns, optimize=True)


def _transform3(g, targets, rule, omega, rate, sign):
    """Three 1D factors take the separable path, one 3D evaluator the tensor path."""
    grid, is_grid = _target_grid(targets)
    if callable(g):
        out = _tensor_transform(g, grid, is_grid, rule, rate, sign)
    else:
        out = _separable_transform(g, grid, is_grid, rule, omega, rate, sign)
    if is_grid:
        return out
    shape = np.asarray(targets, dtype=float).shape[:-1]
    return out.reshape(shape) if shape else complex(out[0])


def fourier_forward(g, targets, rule: QuadratureRule, omega: float):
    """Momentum-representation values of g: (8 pi^3)^(-1/2) integral g exp(-i pi.xi) d3xi.

    g must be an evaluator g(xi1, xi2, xi3) broadcastable over arrays and
    built on the omega Gaussian envelope (oscillator states and their
    linear combinations are), or a sequence of three 1D evaluators whose
    product is the integrand; the latter is transformed one axis at a
    time. targets may be a list of points of shape (..., 3) or a product
    grid given as three 1D axis arrays.
    """
    grid, is_grid = _target_grid(targets)
    reach = max((float(np.max(np.abs(t))) if len(t) else 0.0) for t in grid) if is_grid \
        else (float(np.max(np.abs(grid))) if grid.size else 0.0)
    limit = trust_momentum(rule, omega) * (1.0 + 1e-9)
    if reach > limit:
        warnings.warn(f"momentum target {reach:.3g} beyond the order-{rule.order} "
                      f"trust limit {limit:.3g}; raise the order",
                      InsufficientOrderWarning, stacklevel=2)
    return _transform3(g, targets, rule, omega, 0.5 * omega, -1)


def fourier_inverse(f, targets, rule: QuadratureRule, omega: float):
    """Position-representation values of f: (8 pi^3)^(-1/2) integral f exp(+i pi.xi) d3pi.

    f is a 3D evaluator or three 1D factors, as for fourier_forward. The
    momentum sampling obeys the trust-limit policy so that f may be a
    numerically computed forward transform at the same order.
    """
    return _transform3(f, targets, rule, omega,
                       _momentum_rate(rule, omega, 1.0 / (2.0 * omega)), +1)


def momentum_quadrature(rule: QuadratureRule, omega: float):
    """Sample points and weights for integrating |f(pi)|^2-type densities.

    Natural envelope rate 1/omega, compressed to the trust limit like
    fourier_inverse; used for Parseval checks against numerically
    transformed integrands.
    """
    return rescaled_nodes(rule, _momentum_rate(rule, omega, 1.0 / omega))


_BARGMANN_ALPHA_MAX = 10.0


def bargmann_transform(g, alpha, omega: float, rule: QuadratureRule, sign: int = +1):
    """One axis of the Segal-Bargmann transform of g at complex alpha.

    (Omega/pi)^(1/4) integral g(xi) exp((-Omega xi^2 - alpha^2)/2)
                                  exp(sign sqrt(2 Omega) alpha xi) dxi

    sign=+1 maps the l-th oscillator factor to alpha^l / sqrt(l!); the
    printed-kernel sign=-1 variant produces the same monomials with an
    extra (-1)^l and stays available for audits. alpha may be a scalar or
    an array; |alpha| is capped at 10 to guard the kernel growth.
    """
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    alpha_arr = np.asarray(alpha, dtype=complex)
    if np.any(np.abs(alpha_arr) > _BARGMANN_ALPHA_MAX):
        raise ValueError(f"|alpha| exceeds the kernel guard {_BARGMANN_ALPHA_MAX}")
    pts, eff = rescaled_nodes(rule, omega)
    vals = np.asarray(g(pts)) * eff * np.exp(-0.5 * omega * pts ** 2)
    a = alpha_arr.reshape(-1)
    kern = np.exp(-0.5 * a[:, None] ** 2 + sign * math.sqrt(2.0 * omega) * a[:, None] * pts[None, :])
    out = (omega / math.pi) ** 0.25 * (kern @ vals)
    return out.reshape(alpha_arr.shape) if alpha_arr.ndim else complex(out[0])


def bargmann_transform3(profiles, alphas, omega: float, rule: QuadratureRule,
                        sign: int = +1) -> complex:
    """Product of per-axis transforms for a separable 3D function.

    profiles is a sequence of three 1D evaluators; alphas a length-3
    complex sequence.
    """
    if len(profiles) != 3 or len(alphas) != 3:
        raise ValueError("need three profiles and three alpha values")
    out = 1.0 + 0.0j
    for g, a in zip(profiles, alphas):
        out *= bargmann_transform(g, a, omega, rule, sign)
    return out


def _position_factors(state: OscillatorState):
    """The three 1D position factors whose product is the state's profile."""
    return [lambda xi, l=l: phi_1d(l, state.omega, xi) for l in state.q.as_tuple()]


def bargmann_of_state(state: OscillatorState, alphas, rule: QuadratureRule,
                      sign: int = +1) -> complex:
    """Segal-Bargmann transform of a state's position profile at constraint coordinates alphas."""
    return bargmann_transform3(_position_factors(state), alphas, state.omega, rule, sign)


def fourier_of_state(state: OscillatorState, targets, rule: QuadratureRule):
    """Numeric forward transform of a state's position profile (phase omitted)."""
    return fourier_forward(_position_factors(state), targets, rule, state.omega)
