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
holds the real factors at the targets (oscillator._factor_table): one array that
the recurrence writes in place, which the synthesis, like the projector and
_overlaps, reads without a copy. The phase (-i)^l or (+i)^l multiplies the
coefficients instead, so no complex table is built.
Once the order exceeds the integrand's highest level, both are exact up to
rounding: at every target for Fourier, on the real axis for Segal-Bargmann,
whose rounding grows like exp(Im(alpha)^2 / 2) off it. verify holds the
direct quadrature as the oracle; trust_momentum is its reach. One Hermite
recurrence per call builds the table over the distinct axes joined, so
(t, t, t) and (t, t.copy(), t.copy()) share one table and a point list runs
one recurrence, not three; overlap_integral likewise runs one. Segal-Bargmann
sums by Horner's rule, scaling both parts by 1 / sqrt(l) per step.

fourier_forward1d and bargmann_transform (and _fourier1d, _overlaps) take
stacked integrands: g may return (..., order) samples, or (..., order, centres)
for Segal-Bargmann, for a result (..., *targets.shape). Each BLAS product runs
once per slice, at the shape of one integrand's call, so every slice has the
bits it has alone. oscillator._scale owns the sample scale, _join the three-axis
product and _shaped the result's shape; verify's transforms suite reads the same code.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .constraint import constraint_coordinates
from .minkowski import _components, _integer, _real
from .oscillator import (OscillatorState, _factor, _factor_table, _factors, _hermite_levels,
                         _scale, phi_1d)

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
        P = _hermite_levels(self.order - 1, self.nodes)
        P *= self.weights * np.exp(self.nodes ** 2)
        P.flags.writeable = False
        return P


def gauss_hermite(order: int) -> QuadratureRule:
    """Gauss-Hermite rule of the given order, an integer 1 <= order <= 256.

    The nodes and weights are numpy's hermgauss; rules are cached and
    their arrays read-only, so every caller shares one copy per order.
    """
    return _gauss_hermite(_integer(order, "order", 1, MAX_ORDER))


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
    root = math.sqrt(_real(rate, "rate"))
    return rule.nodes / root, rule.weights * np.exp(rule.nodes ** 2) / root


def trust_momentum(rule: QuadratureRule, omega: float) -> float:
    """Reach of the direct quadrature of exp(-i pi xi), verify's Fourier oracle:
    an order-N rule resolves exp(i b y) to ~1e-10 (measured against closed
    forms) only for |b| up to 0.196 N - 0.75. The spectral kernel has no limit."""
    root = math.sqrt(_real(omega, "spring constant") / 2.0)
    return max(0.5, 0.196 * rule.order - 0.75) * root


def unresolved(levels, rule: QuadratureRule):
    """Why the kernel is not exact for these levels (one is not below the order), or None."""
    top = max(levels)
    return f"level {top} is not below the order {rule.order}" if top >= rule.order else None


def _warn_unresolved(levels, rule: QuadratureRule):
    if why := unresolved(levels, rule):
        warnings.warn(f"{why}: the result is not exact", InsufficientOrderWarning, stacklevel=3)


def normalization_integral(state: OscillatorState, rule: QuadratureRule) -> float:
    """Norm of the state over the constraint space, exact value one.

    This is overlap_integral of the state with itself: exact up to rounding
    once the order exceeds every level, else InsufficientOrderWarning.
    """
    levels = np.array(state.q.as_tuple())
    return float(_overlaps(levels, levels, state.omega, rule))


def overlap_integral(state_a: OscillatorState, state_b: OscillatorState,
                     rule: QuadratureRule) -> float:
    """Constraint-space overlap of two states sharing a spring constant.

    An order-N rule is exact on an axis with levels la and lb only when
    la + lb <= 2N - 1; past that it warns with InsufficientOrderWarning.
    """
    if state_a.omega != state_b.omega:
        raise ValueError("overlap requires a common spring constant")
    return float(_overlaps(np.array(state_a.q.as_tuple()), np.array(state_b.q.as_tuple()),
                           state_a.omega, rule))


def _overlaps(la, lb, omega: float, rule: QuadratureRule):
    """overlap_integral of the states at one Omega with levels la and lb (..., 3), shape (...),
    warning once per level sum past the exact order; each entry has its own pair's bits,
    and lb is la reuses la's factors."""
    for top in dict.fromkeys((la + lb).max(axis=-1, initial=0).ravel().tolist()):
        if top >= 2 * rule.order:
            warnings.warn(f"level sum {top} exceeds 2 * order - 1 = {2 * rule.order - 1}: "
                          "the result is not exact", InsufficientOrderWarning, stacklevel=3)
    pts, eff = rescaled_nodes(rule, omega)
    # phi_1d's rows up to the highest level of any state, at nodes, which need no target check
    phi = _factor(+1, 0, omega, pts, range(max(la.max(initial=0), lb.max(initial=0)) + 1))
    fa = phi[la]
    axes = (eff * fa * (fa if lb is la else phi[lb])).sum(axis=-1)
    return axes[..., 0] * axes[..., 1] * axes[..., 2]


def _shaped(out, shape: tuple):
    """Results out (..., M) at targets given in the shape shape, as (..., *shape); one
    target given alone, for one integrand, is a Python complex."""
    return complex(out[0]) if out.ndim == 1 and not shape else out.reshape(out.shape[:-1] + shape)


def _join(a, b, c, grid: bool):
    """The products of three axes' values with leading stack axes: (..., A, B, C) over
    the grid they span, or (..., M) at M points."""
    return np.einsum('...a,...b,...c->...abc' if grid else '...a,...a,...a->...a', a, b, c)


def _coefficients(g, rule: QuadratureRule, scale: float):
    """Coefficients (..., order) of g on h_l(x / scale) / sqrt(scale), l < order, from the
    samples g(scale * nodes) of shape (..., order): one projector product per slice."""
    samples = np.asarray(g(scale * rule.nodes))
    return math.sqrt(scale) * (rule.projector @ samples[..., None])[..., 0]


def _synthesis(table, c, sign: int):
    """sum_l (sign i)^l c[..., l] table[l] for coefficients c (..., order), shape (..., M):
    the phase multiplies c, exactly, and the real table meets the real and imaginary
    parts of each slice of c in one real product, never cast to complex."""
    c = np.asarray(c)
    phased = c * np.array([1, sign * 1j, -1, -sign * 1j])[np.arange(c.shape[-1]) % 4]
    return (table.T @ np.stack([phased.real, phased.imag], -1)).view(complex)[..., 0]


def _fourier1d(g, t, rule: QuadratureRule, omega: float, sign: int):
    """The kernel on one axis in the direction sign: g sampled at _scale(omega, sign) *
    nodes, (..., order), at the targets t (M,), shape (..., M)."""
    return _synthesis(_factor_table(sign, rule.order - 1, omega, t),
                      _coefficients(g, rule, _scale(omega, sign)), sign)


def fourier_forward1d(g, targets, rule: QuadratureRule, omega: float):
    """One axis of the transform: (2 pi)^(-1/2) integral g(xi) exp(-i pi xi) dxi.

    g is sampled at xi = y / sqrt(Omega); level l maps to (-i)^l phi_l^mom(pi).
    A g returning stacked samples (..., order) gives (..., *targets.shape).
    """
    t = np.asarray(targets)
    return _shaped(_fourier1d(g, t.reshape(-1), rule, omega, -1), t.shape)


def _targets(targets, sys=None):
    """Three 1D axes, whether they span a product grid, and what shapes the result:
    a tuple of three 1D axes is a grid, and anything else is (..., 3) points, of
    which one alone gives a Python complex. With a state's system sys, (..., 4) points
    are 4-vectors, read at their constraint coordinates."""
    if isinstance(targets, tuple) and len(targets) == 3 and all(np.ndim(t) == 1 for t in targets):
        return [np.asarray(t) for t in targets], True, lambda out: out
    pts = np.asarray(targets)
    if sys is not None and pts.shape[-1:] == (4,):
        pts = constraint_coordinates(pts, sys)
    if pts.ndim == 0 or pts.shape[-1] != 3:
        raise ValueError("targets must be (..., 3) points or a tuple of three 1D axis arrays")
    return list(pts.reshape(-1, 3).T), False, lambda out: _shaped(out, pts.shape[:-1])


def _transform3(g, targets, rule: QuadratureRule, omega: float, sign: int):
    """The kernel on each of three axes in the direction sign; see fourier_forward."""
    scale = _scale(omega, sign)
    axes, grid, shaped = _targets(targets)
    keys = [(t.dtype, t.tobytes()) for t in axes]  # equal axes of one dtype share one table
    distinct = dict(zip(keys, axes))
    # one recurrence over the distinct axes joined, split back into one table per axis
    joined = _factor_table(sign, rule.order - 1, omega, np.concatenate(list(distinct.values())))
    ends = np.cumsum([len(t) for t in distinct.values()])[:-1]
    table = dict(zip(distinct, np.split(joined, ends, axis=1)))
    if callable(g):
        # kernel column j: the synthesis of node j's coefficients (projector column j),
        # in C order, which keeps the bits of the einsum that reads it
        kernel = {k: np.ascontiguousarray(_synthesis(H, math.sqrt(scale) * rule.projector.T,
                                                     sign).T)
                  for k, H in table.items()}
        del joined, table  # spent: the samples need not share the peak with them
        x = scale * rule.nodes
        G = np.asarray(g(x[:, None, None], x[None, :, None], x[None, None, :]), dtype=complex)
        kernels = [kernel[k] for k in keys]
        if grid:
            out = np.einsum('ai,bj,ck,ijk->abc', *kernels, G, optimize=True)
        else:  # one node axis at a time, the last first, in chunks of points
            # points per contraction: the (chunk, N, N) intermediate stays near 1 MB,
            # and within the N^3 samples for N >= 16
            path, step = ['einsum_path', (2, 3), (1, 2), (0, 1)], max(16, 65536 // rule.order ** 2)
            chunks = [[k[i:i + step] for k in kernels]
                      for i in range(0, max(len(axes[0]), 1), step)]
            out = np.concatenate([np.einsum('ai,aj,ak,ijk->a', *c, G, optimize=path)
                                  for c in chunks])
    elif len(g) == 3:
        out = _join(*(_synthesis(table[k], _coefficients(f, rule, scale), sign)
                      for f, k in zip(g, keys)), grid)
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
    return _transform3(g, targets, rule, omega, -1)


def fourier_inverse(f, targets, rule: QuadratureRule, omega: float):
    """Position-representation values of f: (8 pi^3)^(-1/2) integral f exp(+i pi.xi) d3pi.

    f is a 3D evaluator or three 1D factors, as for fourier_forward. Each
    axis is sampled at y sqrt(Omega) and level l maps to (+i)^l phi_l, so
    the inverse of a forward transform at the same order is the identity.
    """
    return _transform3(f, targets, rule, omega, +1)


def _bargmann_series(g, a, rule: QuadratureRule, scale: float, c):
    """sum_l C_l (a - c)^l / sqrt(l!) about the real centres c, exact once the order
    exceeds every level of g, and a bound on its rounding error, both (..., M) for samples
    of g of shape (..., order, centres). C projects g sampled at scale z, z = y + c / sqrt(2),
    and weighted by exp((z^2 - y^2) / 2), one projector product per slice; targets sharing
    a centre share the samples."""
    centres, which = np.unique(c, return_inverse=True)
    y = rule.nodes[:, None]
    z = y + centres / math.sqrt(2.0)
    samples = np.asarray(g(scale * z)) * np.exp((z * z - y * y) / 2)
    # take, not [..., which], gives C order, so that with the levels moved first each
    # level's coefficients are contiguous in the targets: the Horner step views val as floats
    levels_first = (samples.ndim - 2, *range(samples.ndim - 2), samples.ndim - 1)
    coef, bound = (np.take(m, which, axis=-1).transpose(levels_first)
                   for m in (rule.projector @ samples, np.abs(rule.projector) @ np.abs(samples)))
    x, val, err = a - c, coef[-1], bound[-1]
    size = np.abs(x)
    for l in range(rule.order - 1, 0, -1):
        # numpy divides by sqrt(l) + 0j by scaling both parts by 1 / sqrt(l): the same
        # bits without the complex division. The product stays out of place, since
        # numpy rounds it differently in place on one element
        val = val * x
        parts = val.view(float)
        parts *= 1.0 / math.sqrt(l)
        val += coef[l - 1]
        err = err * size
        err /= math.sqrt(l)
        err += bound[l - 1]
    return math.sqrt(scale) * val, err


def bargmann_transform(g, alpha, omega: float, rule: QuadratureRule):
    """One axis of the Segal-Bargmann transform of g at complex alpha.

    (Omega/pi)^(1/4) integral g(xi) exp((-Omega xi^2 - alpha^2)/2 + sqrt(2 Omega) alpha xi) dxi

    Level l of g maps to alpha^l / sqrt(l!); the kernel with the opposite sign
    of alpha xi is this transform at -alpha. Of the series about 0 and about the
    integer nearest Re(alpha), the one with the smaller rounding bound is kept.
    On phi_l, l <= 48, that holds to 4e-12 relative on the real axis; off it
    rounding grows like exp(Im(alpha)^2 / 2), to 1e-11 at |Im alpha| = 4 and
    1e-7 at 6. alpha is a scalar or an array with |alpha| finite and at most 10;
    a g returning stacked samples (..., order, centres) gives (..., *alpha.shape).
    """
    a = _components(alpha, None).astype(complex, copy=False)
    if not np.all(np.abs(a) <= 10.0):
        raise ValueError("|alpha| must be finite and at most 10")
    flat, scale = a.reshape(-1), _scale(omega, -1)
    (origin, k0), (shifted, k1) = (_bargmann_series(g, flat, rule, scale, c)
                                   for c in (np.zeros(1), np.round(flat.real)))
    return _shaped(np.where(k1 < k0, shifted, origin), a.shape)


def bargmann_of_state(state: OscillatorState, alphas, rule: QuadratureRule):
    """Segal-Bargmann transform of a state's position profile at complex constraint
    coordinates alphas, one axis at a time; alphas are read as fourier_forward reads
    its targets, a product grid or (..., 3) points, or are (..., 4) Bargmann points."""
    axes, grid, shaped = _targets(alphas, state.sys)
    _warn_unresolved(state.q.as_tuple(), rule)
    return shaped(_join(*(bargmann_transform(g, a, state.omega, rule)
                          for g, a in zip(_factors(phi_1d, state), axes)), grid))


def fourier_of_state(state: OscillatorState, targets, rule: QuadratureRule):
    """Forward transform of a state's position profile (phase omitted): its
    momentum profile times (-i)^n. targets are read as fourier_forward reads them,
    or are (..., 4) momenta."""
    _warn_unresolved(state.q.as_tuple(), rule)
    axes, grid, shaped = _targets(targets, state.sys)
    return shaped(fourier_forward(_factors(phi_1d, state), tuple(axes) if grid
                                  else np.stack(axes, -1), rule, state.omega))
