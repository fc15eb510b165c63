"""Gauss-Hermite quadrature and the integral transforms between constraint spaces.

All integrals here have Gaussian envelopes, so one family of Gauss-Hermite
rules (weight exp(-y^2)) drives the normalisation integrals, the Fourier pair
and the Segal-Bargmann transform: the substitution y = sqrt(c) xi absorbs an
envelope exp(-c xi^2) into the weight (rescaled_nodes).

Every transform is diagonal on the oscillator's Hermite levels and runs
through one spectral kernel: the rule's projector takes a 1D factor sampled
at y / sqrt(Omega) (position) or y sqrt(Omega) (momentum) to its
coefficients on the levels l < order. Level l maps to (-i)^l phi_l^mom
(forward Fourier), (+i)^l phi_l (inverse) or alpha^l / sqrt(l!)
(Segal-Bargmann, also summed about Re(alpha)). A Fourier synthesis table
holds the real Hermite levels at the targets; the phase (-i)^l or (+i)^l
multiplies the coefficients instead, so no complex table is built.
Once the order exceeds the integrand's highest level, both are exact up to
rounding: at every target for Fourier, on the real axis for Segal-Bargmann,
whose rounding grows like exp(Im(alpha)^2 / 2) off it. verify holds the
direct quadrature as the oracle; trust_momentum is its reach. Tables are
shared per distinct axis, so (t, t, t) and (t, t.copy(), t.copy()) build one.
"""
from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .minkowski import _positive
from .oscillator import OscillatorState, _factors, _hermite_levels, phi_1d

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

    @cached_property
    def projector(self) -> np.ndarray:
        """P[l, j] = w_j exp(y_j^2) h_l(y_j), read-only: P @ f(nodes) gives the
        coefficients of f on the Hermite functions h_l, l < order, exactly
        when f is a combination of them."""
        P = np.array(_hermite_levels(self.order - 1, self.nodes))
        P *= self.weights * np.exp(self.nodes ** 2)
        P.flags.writeable = False
        return P


def gauss_hermite(order: int) -> QuadratureRule:
    """Gauss-Hermite rule of the given order, an integer 1 <= order <= 256.

    The nodes and weights are numpy's hermgauss; rules are cached and
    their arrays read-only, so every caller shares one copy per order.
    """
    if isinstance(order, bool) or not isinstance(order, numbers.Integral) \
            or not 1 <= order <= MAX_ORDER:
        raise ValueError(f"order must be an integer in [1, {MAX_ORDER}], got {order!r}")
    return _gauss_hermite(int(order))


@lru_cache(maxsize=None)
def _gauss_hermite(order: int) -> QuadratureRule:
    nodes, weights = np.polynomial.hermite.hermgauss(order)
    nodes.flags.writeable = weights.flags.writeable = False
    return QuadratureRule(order, nodes, weights)


gauss_hermite.cache_info = _gauss_hermite.cache_info  # cache misses count rule builds


def rescaled_nodes(rule: QuadratureRule, rate: float):
    """Substitution y = sqrt(rate) xi: points = nodes / sqrt(rate) and weights
    eff = weights exp(nodes^2) / sqrt(rate), so that sum(eff * F(points)) is the
    integral of F over the line for integrands with envelope exp(-rate xi^2)."""
    root = math.sqrt(_positive(rate, "rate"))
    return rule.nodes / root, rule.weights * np.exp(rule.nodes ** 2) / root


def trust_momentum(rule: QuadratureRule, omega: float) -> float:
    """Reach of the direct quadrature of exp(-i pi xi), verify's Fourier oracle:
    an order-N rule resolves exp(i b y) to ~1e-10 (measured against closed
    forms) only for |b| up to 0.196 N - 0.75. The spectral kernel has no limit."""
    return max(0.5, 0.196 * rule.order - 0.75) * math.sqrt(omega / 2.0)


def unresolved(levels, rule: QuadratureRule):
    """Why the kernel is not exact for these levels (one is not below the order), or None."""
    top = max(levels)
    return f"level {top} is not below the order {rule.order}" if top >= rule.order else None


def _warn_unresolved(state: OscillatorState, rule: QuadratureRule):
    if why := unresolved(state.q.as_tuple(), rule):
        warnings.warn(f"{why}: the result is not exact", InsufficientOrderWarning, stacklevel=3)


def normalization_integral(state: OscillatorState, rule: QuadratureRule) -> float:
    """Norm of the state over the constraint space, exact value one.

    This is overlap_integral of the state with itself: exact up to rounding
    once the order exceeds every level, else InsufficientOrderWarning.
    """
    return overlap_integral(state, state, rule)


def overlap_integral(state_a: OscillatorState, state_b: OscillatorState,
                     rule: QuadratureRule) -> float:
    """Constraint-space overlap of two states sharing a spring constant.

    An order-N rule is exact on an axis with levels la and lb only when
    la + lb <= 2N - 1; past that it warns with InsufficientOrderWarning.
    """
    if state_a.omega != state_b.omega:
        raise ValueError("overlap requires a common spring constant")
    levels = list(zip(state_a.q.as_tuple(), state_b.q.as_tuple()))
    top = max(la + lb for la, lb in levels)
    if top >= 2 * rule.order:
        warnings.warn(f"level sum {top} exceeds 2 * order - 1 = {2 * rule.order - 1}: "
                      "the result is not exact", InsufficientOrderWarning, stacklevel=2)
    pts, eff = rescaled_nodes(rule, state_a.omega)
    total = 1.0
    for la, lb in levels:
        fa = phi_1d(la, state_a.omega, pts)
        fb = fa if lb == la else phi_1d(lb, state_b.omega, pts)
        total *= float(np.sum(eff * fa * fb))
    return total


def _scale(omega: float, power: float) -> float:
    """The sample scale omega**power, for a positive finite spring constant."""
    return _positive(omega, "spring constant") ** power


def _coefficients(g, rule: QuadratureRule, scale: float):
    """Coefficients of g on h_l(x / scale) / sqrt(scale), l < order, from g(scale * nodes)."""
    return math.sqrt(scale) * (rule.projector @ np.asarray(g(scale * rule.nodes)))


def _level_table(t, scale: float, order: int):
    """sqrt(scale) h_l(scale t), shape (order, len(t)), real: up to the phase (sign i)^l
    that _synthesis puts on the coefficients, the transform of h_l(x / scale) / sqrt(scale)
    under the kernel exp(sign i t x) / sqrt(2 pi)."""
    if not np.all(np.isfinite(t)):
        raise ValueError("targets must be finite")
    return math.sqrt(scale) * np.array(_hermite_levels(order - 1, scale * t))


def _synthesis(table, c, sign: int):
    """sum_l (sign i)^l c[l] table[l] for coefficients c of shape (order, ...): the
    phase multiplies c, exactly, and the real table meets the real and imaginary
    parts of c in one real product, never cast to complex."""
    c = np.asarray(c)
    phase = np.array([1, sign * 1j, -1, -sign * 1j])[np.arange(len(c)) % 4]
    phased = c.reshape(len(c), -1) * phase[:, None]
    out = table.T @ np.stack([phased.real, phased.imag], -1).reshape(len(c), -1)
    return out.view(complex).reshape(-1, *c.shape[1:])


def fourier_forward1d(g, targets, rule: QuadratureRule, omega: float):
    """One axis of the transform: (2 pi)^(-1/2) integral g(xi) exp(-i pi xi) dxi.

    g is sampled at xi = y / sqrt(Omega); level l maps to (-i)^l phi_l^mom(pi).
    """
    t, scale = _array(targets, float), _scale(omega, -0.5)
    out = _synthesis(_level_table(t.reshape(-1), scale, rule.order),
                     _coefficients(g, rule, scale), -1)
    return out.reshape(t.shape) if t.ndim else complex(out[0])


def _array(targets, dtype):
    """targets as an array of dtype: float for Fourier targets, which raise ValueError
    when complex instead of losing their imaginary parts, complex for Segal-Bargmann."""
    t = np.asarray(targets)
    if dtype is float and np.iscomplexobj(t):
        raise ValueError("Fourier targets must be real, got complex values")
    return np.asarray(t, dtype=dtype)


def _targets(targets, dtype):
    """Three 1D axes, whether they span a product grid, and what shapes the result:
    a tuple of three 1D axes is a grid, and anything else is (..., 3) points, of
    which one alone gives a Python complex."""
    if isinstance(targets, tuple) and len(targets) == 3 and all(np.ndim(t) == 1 for t in targets):
        return [_array(t, dtype) for t in targets], True, lambda out: out
    pts = _array(targets, dtype)
    if pts.ndim == 0 or pts.shape[-1] != 3:
        raise ValueError("targets must be (..., 3) points or a tuple of three 1D axis arrays")
    shaped = lambda out: out.reshape(pts.shape[:-1]) if pts.ndim > 1 else complex(out[0])
    return list(pts.reshape(-1, 3).T), False, shaped


def _transform3(g, targets, rule: QuadratureRule, scale: float, sign: int):
    """The kernel on each of three axes, sampled at scale * nodes; see fourier_forward."""
    axes, grid, shaped = _targets(targets, float)
    keys = [t.tobytes() for t in axes]  # equal axes share one table
    table = {k: _level_table(t, scale, rule.order) for k, t in dict(zip(keys, axes)).items()}
    if callable(g):
        x = scale * rule.nodes
        G = np.asarray(g(x[:, None, None], x[None, :, None], x[None, None, :]), dtype=complex)
        kernel = {k: _synthesis(H, math.sqrt(scale) * rule.projector, sign)
                  for k, H in table.items()}
        out = np.einsum('ai,bj,ck,ijk->abc' if grid else 'ai,aj,ak,ijk->a',
                        *(kernel[k] for k in keys), G, optimize=True)
    elif len(g) == 3:
        out = np.einsum('a,b,c->abc' if grid else 'a,a,a->a',
                        *(_synthesis(table[k], _coefficients(f, rule, scale), sign)
                          for f, k in zip(g, keys)))
    else:
        raise ValueError("need one 3D evaluator or a sequence of three 1D factors")
    return shaped(out)


def fourier_forward(g, targets, rule: QuadratureRule, omega: float):
    """Momentum-representation values of g: (8 pi^3)^(-1/2) integral g exp(-i pi.xi) d3xi.

    g is an evaluator g(xi1, xi2, xi3) broadcastable over arrays, or three 1D
    evaluators whose product is the integrand, transformed one axis at a time.
    targets are a product grid, given as a tuple of three 1D axes, or else
    points of shape (..., 3), also when given as a list.
    Level l maps to (-i)^l phi_l^mom per axis, exactly once the order exceeds
    every level of g.
    """
    return _transform3(g, targets, rule, _scale(omega, -0.5), -1)


def fourier_inverse(f, targets, rule: QuadratureRule, omega: float):
    """Position-representation values of f: (8 pi^3)^(-1/2) integral f exp(+i pi.xi) d3pi.

    f is a 3D evaluator or three 1D factors, as for fourier_forward. Each
    axis is sampled at y sqrt(Omega) and level l maps to (+i)^l phi_l, so
    the inverse of a forward transform at the same order is the identity.
    """
    return _transform3(f, targets, rule, _scale(omega, 0.5), +1)


def _bargmann_series(g, a, rule: QuadratureRule, scale: float, c):
    """sum_l C_l (a - c)^l / sqrt(l!) about the real centres c, exact once the order
    exceeds every level of g, and a bound on its rounding error. C projects g
    sampled at scale z, z = y + c / sqrt(2), and weighted by exp((z^2 - y^2) / 2);
    targets sharing a centre share the samples."""
    centres, which = np.unique(c, return_inverse=True)
    y = rule.nodes[:, None]
    z = y + centres / math.sqrt(2.0)
    samples = np.asarray(g(scale * z)) * np.exp((z * z - y * y) / 2)
    coef = (rule.projector @ samples)[:, which]
    bound = (np.abs(rule.projector) @ np.abs(samples))[:, which]
    x, val, err = a - c, coef[-1], bound[-1]
    for l in range(rule.order - 1, 0, -1):
        val = coef[l - 1] + val * x / math.sqrt(l)
        err = bound[l - 1] + err * np.abs(x) / math.sqrt(l)
    return math.sqrt(scale) * val, err


def bargmann_transform(g, alpha, omega: float, rule: QuadratureRule):
    """One axis of the Segal-Bargmann transform of g at complex alpha.

    (Omega/pi)^(1/4) integral g(xi) exp((-Omega xi^2 - alpha^2)/2 + sqrt(2 Omega) alpha xi) dxi

    Level l of g maps to alpha^l / sqrt(l!); the kernel with the opposite sign
    of alpha xi is this transform at -alpha. Of the series about 0 and about the
    integer nearest Re(alpha), the one with the smaller rounding bound is kept.
    On phi_l, l <= 48, that holds to 4e-12 relative on the real axis; off it
    rounding grows like exp(Im(alpha)^2 / 2), to 1e-11 at |Im alpha| = 4 and
    1e-7 at 6. alpha is a scalar or an array with |alpha| finite and at most 10.
    """
    a = np.asarray(alpha, dtype=complex)
    if not np.all(np.abs(a) <= 10.0):
        raise ValueError("|alpha| must be finite and at most 10")
    scale, flat = _scale(omega, -0.5), a.reshape(-1)
    (origin, k0), (shifted, k1) = (_bargmann_series(g, flat, rule, scale, c)
                                   for c in (np.zeros(1), np.round(flat.real)))
    out = np.where(k1 < k0, shifted, origin)
    return out.reshape(a.shape) if a.ndim else complex(out[0])


def bargmann_of_state(state: OscillatorState, alphas, rule: QuadratureRule):
    """Segal-Bargmann transform of a state's position profile at complex constraint
    coordinates alphas, one axis at a time; alphas are read as fourier_forward reads
    its targets: a product grid or (..., 3) points."""
    axes, grid, shaped = _targets(alphas, complex)
    _warn_unresolved(state, rule)
    out = np.einsum('a,b,c->abc' if grid else 'a,a,a->a',
                    *(bargmann_transform(g, a, state.omega, rule)
                      for g, a in zip(_factors(phi_1d, state), axes)))
    return shaped(out)


def fourier_of_state(state: OscillatorState, targets, rule: QuadratureRule):
    """Forward transform of a state's position profile (phase omitted): its
    momentum profile times (-i)^n."""
    _warn_unresolved(state, rule)
    return fourier_forward(_factors(phi_1d, state), targets, rule, state.omega)
