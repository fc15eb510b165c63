"""Verification suites: frame invariance, operator identities, PDE residuals,
non-relativistic limits and transform cross-checks, with the shared
finite-difference engine and the direct transform quadratures they use as
oracles.

Every suite draws its cases from a seeded generator and is bit-for-bit
reproducible; reports serialise to JSON with sorted keys so fixed-seed
runs diff clean. A report passes iff every case is within its own
tolerance; max_rel_err is expressed on the scale of the headline
tolerance (rel/tol * headline) so that pass == (max_rel_err <= tolerance)
holds for suites that mix tolerances.
"""
from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field
from itertools import repeat
from types import SimpleNamespace

import numpy as np

from . import constraint, minkowski, oscillator, transforms
from .minkowski import (_components, _over_real, bound_system, eta_params, minkowski_dot,
                        reduced_mass, rest_mass)
from .oscillator import (OscillatorState, _ladder_step, ladder_apply, ladder_explicit_4d_value,
                         ladder_explicit_value, oscillator_state, psi_position, states_up_to)

DEFAULT_H_FIRST = 1e-6
DEFAULT_H_SECOND = 1e-5


# ---------------------------------------------------------------------------
# finite-difference engine
#
# Each function takes a FourVector or a (..., 4) array of points and calls
# field once, on the whole stencil stacked as a (..., k, 4) array; field
# returns the (..., k) values. Steps scale as h * max(1, |component|).

def _axis_steps(x: np.ndarray, h: float) -> np.ndarray:
    return h * np.maximum(1.0, np.abs(x))


def _direction_step(x: np.ndarray, h: float) -> np.ndarray:
    return h * np.maximum(1.0, np.max(np.abs(x), axis=-1, keepdims=True))


def finite_difference_gradient4(field, x, h: float = DEFAULT_H_FIRST) -> np.ndarray:
    """Central-difference partials of a scalar field at x, error O(h^2).

    Shape (..., 4), from one call on the 8-point stencil; the result is
    complex when the field is.
    """
    x = _components(x)
    step = _axis_steps(x, h)
    shift = step[..., None] * np.eye(4)
    f = field(np.concatenate([x[..., None, :] + shift, x[..., None, :] - shift], axis=-2))
    return _over_real(f[..., :4] - f[..., 4:], 2.0 * step)


def _second_differences(field, x: np.ndarray, directions: np.ndarray, steps: np.ndarray):
    """Central second differences along each row of directions (k, 4) with
    steps (..., k), from one call on the (..., 2k + 1, 4) stencil; returns
    them, shape (..., k), and the centre value, shape (...)."""
    k = len(directions)
    centre = x[..., None, :]
    shift = steps[..., None] * directions
    f = field(np.concatenate([centre, centre + shift, centre - shift], axis=-2))
    f0 = f[..., :1]
    d2 = _over_real(f[..., 1:k + 1] - 2.0 * f0 + f[..., k + 1:], steps * steps)
    return d2, f[..., 0]


def _wave(d2: np.ndarray):
    """Spatial second derivatives minus the time one, in that order."""
    return d2[..., 0] + d2[..., 1] + d2[..., 2] - d2[..., 3]


def finite_difference_second4(field, x, mu: int, h: float = DEFAULT_H_SECOND):
    """Central second difference along one stored component."""
    x = _components(x)
    d2, _ = _second_differences(field, x, np.eye(4)[[mu]], _axis_steps(x, h)[..., [mu]])
    return d2[..., 0][()]


def finite_difference_directional2(field, x, direction, h: float = DEFAULT_H_SECOND):
    """Second derivative along a 4-direction in component space."""
    x = _components(x)
    d = np.asarray(direction, dtype=float).reshape(1, 4)
    d2, _ = _second_differences(field, x, d, _direction_step(x, h))
    return d2[..., 0][()]


def box4(field, x, h: float = DEFAULT_H_SECOND):
    """Wave operator: spatial second derivatives minus the time one."""
    x = _components(x)
    d2, _ = _second_differences(field, x, np.eye(4), _axis_steps(x, h))
    return _wave(d2)


# ---------------------------------------------------------------------------
# reports

_BLOCK_CASES = 1000  # cases per piece of report text: the writer's memory bound


def _json_values(values: list) -> list:
    """Each value as json.dumps writes it, from one call of the C encoder; with
    ensure_ascii no value's text holds a newline, so the split is exact."""
    return json.dumps(values, separators=("\n", ": "))[1:-1].split("\n")


@dataclass
class CaseRecord:
    """One verification case, or a block of them.

    Any field, and any value in inputs, may be an array. They broadcast to
    one shape, whose entries in C order are the cases; abs_err and rel_err
    take that shape, elementwise, so each case has the bits it has alone.
    """
    check: str
    inputs: dict
    observed: float
    expected: float
    provenance: str
    tol: float
    abs_err: float = field(init=False)
    rel_err: float = field(init=False)

    def __post_init__(self):
        self.observed, self.expected, self.tol = (
            np.asarray(v, dtype=float)[()] for v in (self.observed, self.expected, self.tol))
        shape = np.broadcast(self.check, self.observed, self.expected, self.provenance, self.tol,
                             *self.inputs.values()).shape
        abs_err = abs(self.observed - self.expected)
        rel_err = abs_err / np.maximum(np.maximum(abs(self.observed), abs(self.expected)), 1.0)
        self.abs_err, self.rel_err = (e if np.shape(e) == shape else np.broadcast_to(e, shape)
                                      for e in (abs_err, rel_err))

    def rows(self) -> list:
        """The cases as dicts of plain Python values, in C order."""
        shape = np.shape(self.abs_err)
        # one value for all cases is repeated; an array is broadcast unless it has the shape
        col = lambda a: (a.ravel().tolist() * math.prod(shape) if a.ndim == 0 else
                         (a if a.shape == shape else np.broadcast_to(a, shape)).ravel().tolist())
        fields = (self.check, self.observed, self.expected, self.provenance, self.tol,
                  self.abs_err, self.rel_err, *self.inputs.values())
        return [{"check": c, "inputs": dict(zip(self.inputs, ins)), "observed": o,
                 "expected": e, "provenance": p, "tol": t, "abs_err": a, "rel_err": r}
                for c, o, e, p, t, a, r, *ins in zip(*(col(np.asarray(v)) for v in fields))]

    def _json_rows(self, pad: str):
        """The rows as json.dumps(..., sort_keys=True, indent=2) writes them in the cases
        of a report whose lines start with pad, each led by ',\\n', in pieces of at most
        _BLOCK_CASES rows. A value shared by all cases is encoded once."""
        shape = np.shape(self.abs_err)
        if not (n := math.prod(shape)):
            return
        names = sorted(self.inputs)
        arrays = [np.asarray(v) for v in (self.abs_err, self.check, self.expected,
                                          *(self.inputs[k] for k in names), self.observed,
                                          self.provenance, self.rel_err, self.tol)]
        # one encoder call for the keys and the values shared by all cases
        keys = _json_values([*names, *(a.item() for a in arrays if not a.ndim)])
        shared = iter(keys[len(names):])
        # the text between the values; no JSON text holds a NUL
        q = f"\n{pad}      "
        ins = "".join(f'{q}  {k}: \0,' for k in keys[:len(names)])
        seps = (f',\n{pad}    {{{q}"abs_err": \0,{q}"check": \0,{q}"expected": \0,'
                f'{q}"inputs": {{{ins[:-1]}{q if ins else ""}}},{q}"observed": \0,'
                f'{q}"provenance": \0,{q}"rel_err": \0,{q}"tol": \0\n{pad}    }}').split("\0")
        parts, text = [], seps[0]  # constant texts alternating with value columns
        for a, sep in zip(arrays, seps[1:]):
            if a.ndim:
                parts += [text, a if a.shape == shape else np.broadcast_to(a, shape)]
                text = sep
            else:
                text += next(shared) + sep
        parts.append(text)
        for i in range(0, n, _BLOCK_CASES):
            m = min(_BLOCK_CASES, n - i)
            yield "".join(map("".join, zip(*(
                repeat(p, m) if isinstance(p, str) else _json_values(p.flat[i:i + m].tolist())
                for p in parts))))


@dataclass
class VerificationReport:
    """A suite's records, each one case or a block, and its verdict over all cases."""
    suite: str
    tolerance: float
    records: list
    notes: list
    max_abs_err: float = field(init=False)
    max_rel_err: float = field(init=False)
    passed: bool = field(init=False)

    def __post_init__(self):
        # over every case, 0.0 for none; np.max keeps a NaN wherever it sits
        worst = lambda err: float(np.max(np.concatenate(
            [[0.0], *(np.ravel(err(r)) for r in self.records)])))
        self.max_abs_err = worst(lambda r: r.abs_err)
        # worst error on the headline-tolerance scale
        self.max_rel_err = worst(lambda r: r.rel_err / r.tol) * self.tolerance
        self.passed = self.max_rel_err <= self.tolerance

    @property
    def cases(self) -> list:
        """Every case, the blocks expanded in row order: the rows of the JSON, read
        by CaseRecord's field names (case.check, case.rel_err, ...)."""
        return [SimpleNamespace(**row) for record in self.records for row in record.rows()]

    def to_dict(self) -> dict:
        return {"suite": self.suite, "tolerance": self.tolerance,
                "cases": [row for record in self.records for row in record.rows()],
                "max_abs_err": self.max_abs_err, "max_rel_err": self.max_rel_err,
                "pass": self.passed, "notes": list(self.notes)}

    def to_json(self) -> str:
        """json.dumps(self.to_dict(), sort_keys=True, indent=2), written from the records."""
        return "".join(self._json_blocks(""))

    def _json_blocks(self, pad: str):
        """to_json() in pieces of at most _BLOCK_CASES cases, every line after the
        first indented by pad."""
        head, tail = json.dumps(
            {"suite": self.suite, "tolerance": self.tolerance, "cases": [],
             "max_abs_err": self.max_abs_err, "max_rel_err": self.max_rel_err,
             "pass": self.passed, "notes": list(self.notes)},
            sort_keys=True, indent=2).replace("\n", "\n" + pad).split("[]", 1)  # "cases" is first
        yield head + "["
        empty = True
        for record in self.records:
            for text in record._json_rows(pad):
                yield text[empty:]  # the first case has no comma before it
                empty = False
        yield ("]" if empty else f"\n{pad}  ]") + tail


def _reports_json(reports: dict):
    """The report of `rqcm verify`, json.dumps({name: report.to_dict()}, sort_keys=True,
    indent=2) + '\\n', in pieces of at most _BLOCK_CASES cases."""
    yield "{"
    for i, name in enumerate(sorted(reports)):
        yield f'{"," if i else ""}\n  {json.dumps(name)}: '
        yield from reports[name]._json_blocks("  ")
    yield "\n}\n" if reports else "}\n"


# ---------------------------------------------------------------------------
# random-case generation (shared conventions)

def _draw_masses(rng):
    m1, m2 = rng.uniform(0.5, 3.0, 2)
    return m1, m2, rng.uniform(0.0, 0.5 * m1 * m2)


def _draw_velocity(rng, vmax: float) -> np.ndarray:
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    return rng.uniform(0.0, vmax) * direction


# ---------------------------------------------------------------------------
# suites

def _count(name: str, n, least: int = 1):
    if isinstance(n, bool) or not (isinstance(n, (int, np.integer)) and n >= least):
        raise ValueError(f"{name} must be a {'positive' if least else 'non-negative'} integer")


def _check_options(trials=1, points=1, max_n=0, sigma_perturb=0.0, order=None,
                   bargmann_sign=1):
    """Raise ValueError for a bad value of any option the suites take; each
    suite checks its own, and a caller can check all before running any."""
    _count("trials", trials)
    _count("points", points)
    _count("max_n", max_n, 0)
    if not math.isfinite(sigma_perturb):
        raise ValueError("sigma_perturb must be finite")
    if order is not None:
        transforms.gauss_hermite(order)  # raises for a bad order
    if bargmann_sign not in (+1, -1):
        raise ValueError("bargmann_sign must be +1 or -1")


def _dot(u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Row by row u @ w, with the bits of a 1D u @ w; a sum over the last axis can differ."""
    return np.matmul(u[..., None, :], w[..., :, None])[..., 0, 0]


def run_invariance_suite(trials: int = 1000, vmax: float = 0.99,
                         seed: int = 0) -> VerificationReport:
    """Frame equality of |xi|^2, |pi|^2 and xi.pi plus projection orthogonality.

    Each trial draws a system, a position, a momentum and a second boost;
    constraint coordinates computed in both frames must agree in their
    rotation-invariant combinations (tolerance 1e-9), and the projections
    orthogonal to P must be orthogonal to it (tolerance 1e-10). The draws
    run trial by trial; one boost, one map and one projection then serve
    the stack of all trials, and P passes BoundSystem's checks in both frames.
    """
    _check_options(trials=trials)
    if not 0.0 < vmax < 1.0:
        raise ValueError("vmax must be in (0, 1)")
    rng = np.random.default_rng(seed)
    draws = []
    for _ in range(trials):
        m1, m2, sigma = _draw_masses(rng)
        M0 = rest_mass(m1, m2, sigma)
        eta_params(m1, m2, M0)  # raises unless eta1 + eta2 == 1
        draws.append(([M0], _draw_velocity(rng, vmax), rng.uniform(-2.0, 2.0, (2, 4)),
                      _draw_velocity(rng, vmax)))
    M0, v_a, xp, v_b = map(np.array, zip(*draws))  # M0 (trials, 1), xp (trials, 2, 4)
    P_a = minkowski.on_shell_momentum(M0, v_a[:, None])  # (trials, 1, 4)
    frame_a = np.concatenate((P_a, xp), axis=1)  # P, x and p of each trial
    frames = np.stack((frame_a, minkowski.general_boost(frame_a, v_b[:, None])))
    P = frames[:, :, :1]  # in both frames, (2, trials, 1, 4)
    minkowski._check_momentum(P, M0)
    k = constraint._coordinates(frames[:, :, 1:], P, M0)
    # row by row, the bits of a left-to-right sum; other orders can differ
    dot3 = lambda a, b: a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1] + a[..., 2] * b[..., 2]
    a, b = dot3(k[..., [0, 1, 0], :], k[..., [0, 1, 1], :])  # xi.xi, pi.pi, xi.pi
    perp = minkowski.perp_projection(xp, P_a, M0)
    scale = np.maximum(np.sqrt(_dot(P_a, P_a)) * np.sqrt(_dot(perp, perp)), 1.0)
    ortho = abs(minkowski_dot(P_a, perp)) / scale
    # one case per trial (row) and check (column)
    record = CaseRecord(["xi_sq", "pi_sq", "xi_dot_pi", "perp_x", "perp_p"],
                        {"trial": np.arange(trials)[:, None]},
                        np.hstack((b, ortho)), np.hstack((a, np.zeros_like(ortho))),
                        ["frame-invariant combination"] * 3 + ["projection orthogonal to P"] * 2,
                        [1e-9] * 3 + [1e-10] * 2)
    return VerificationReport("invariance", 1e-9, [record], [f"seed={seed}", f"vmax={vmax}"])


def _phi_second(l: int, omega: float, xi):
    """Second derivative of the 1D position factor from the recurrence algebra.

    phi_l'' = Omega [ sqrt(l(l-1))/2 phi_{l-2} - (2l+1)/2 phi_l
                      + sqrt((l+1)(l+2))/2 phi_{l+2} ]
    (independent of the eigenvalue relation it is used to check).
    """
    h = oscillator._hermite_levels(l + 2, math.sqrt(omega) * xi)
    down = math.sqrt(l * (l - 1)) / 2.0 * h[l - 2] if l >= 2 else 0.0
    mid = (2.0 * l + 1.0) / 2.0 * h[l]
    up = math.sqrt((l + 1) * (l + 2)) / 2.0 * h[l + 2]
    return omega ** 1.25 * (down - mid + up)


def _internal_residual(om: float, xi, lap_xi, psi, sigma_used: float):
    """(-sum d2/dxi2 + Omega^2 xi^2 - 2 sigma) psi from the Laplacian and
    the value at xi (..., 3); returns (residual, |2 sigma psi|), each (...)."""
    resid = -lap_xi + om * om * _dot(xi, xi) * psi - 2.0 * sigma_used * psi
    return resid, np.abs(2.0 * sigma_used * psi)


def _internal_residual_analytic(state: OscillatorState, x, sigma_used: float):
    """The residual with closed-form second derivatives of the 1D factors."""
    xi = constraint.constraint_coordinates(x, state.sys)
    om = state.omega
    ls = state.q.as_tuple()
    vals = [oscillator.phi_1d(ls[k], om, xi[..., k]) for k in range(3)]
    secs = [_phi_second(ls[k], om, xi[..., k]) for k in range(3)]
    psi = vals[0] * vals[1] * vals[2]
    lap = (secs[0] * vals[1] * vals[2] + vals[0] * secs[1] * vals[2]
           + vals[0] * vals[1] * secs[2])
    return _internal_residual(om, xi, lap, psi, sigma_used)


def _internal_residual_fd(state: OscillatorState, x, sigma_used: float,
                          h: float = DEFAULT_H_SECOND):
    """The residual with the constraint-space Laplacian reduced to 4-space
    finite differences: sum d2/dxi2 = box - (P^mu d_mu / M0)^2. box4's
    stencil and the directional one share their centre: one field call."""
    sys = state.sys
    x = _components(x)
    directions = np.vstack([np.eye(4), sys.P.components / sys.M0])
    steps = np.concatenate([_axis_steps(x, h), _direction_step(x, h)], axis=-1)
    d2, psi = _second_differences(lambda pt: psi_position(state, pt).real, x,
                                  directions, steps)
    xi = constraint.constraint_coordinates(x, sys)
    return _internal_residual(state.omega, xi, _wave(d2) - d2[..., 4], psi, sigma_used)


def _draw_states(rng, max_n: int, moving: bool) -> list[OscillatorState]:
    """Eigenstates up to level max_n at Omega = 1, m1 = 1, m2 = 1.3 in level order;
    moving states draw |v| < 0.9 one by one, resting ones draw nothing."""
    return [oscillator_state(q, 1.0, 1.0, 1.3,
                             _draw_velocity(rng, 0.9) if moving else (0.0, 0.0, 0.0))
            for n in range(max_n + 1) for q in oscillator.quantum_numbers_at_level(n)]


def run_pde_suite(states=None, points: int = 20, mode: str = "fd", seed: int = 0,
                  sigma_perturb: float = 0.0, max_n: int = 4) -> VerificationReport:
    """Residuals of the centre-of-mass wave equation, the transversality
    condition and the internal oscillator equation on random points.

    mode="analytic" evaluates closed-form derivatives in the rest frame
    (tolerance 1e-10); mode="fd" uses 4-space finite differences in frames
    boosted up to |v| = 0.9 (tolerance 1e-5). sigma_perturb (units of Omega)
    offsets the eigenvalue used in the residual; nonzero values are a
    deliberate failure control.
    """
    _check_options(points=points, max_n=max_n, sigma_perturb=sigma_perturb)
    if mode not in ("analytic", "fd"):
        raise ValueError("mode must be 'analytic' or 'fd'")
    tol = 1e-10 if mode == "analytic" else 1e-5
    rng = np.random.default_rng(seed)
    if states is None:
        states = _draw_states(rng, max_n, moving=mode == "fd")
    residual = _internal_residual_analytic if mode == "analytic" else _internal_residual_fd
    records = []
    for idx, state in enumerate(states):
        sys = state.sys
        sigma_used = state.sigma + sigma_perturb * state.omega
        resids, scales = residual(state, rng.uniform(-1.5, 1.5, (points, 4)), sigma_used)
        records.append(CaseRecord("internal_equation",
                                  {"state": idx, "point": np.arange(points), "mode": mode},
                                  resids / max(np.max(scales), 1e-30), 0.0,
                                  "internal oscillator equation", tol))
        # centre-of-mass wave equation
        if mode == "analytic":
            records.append(CaseRecord("cm_wave", {"state": idx},
                                      -minkowski_dot(sys.P, sys.P), sys.M0 ** 2,
                                      "plane-wave phase, exact", tol))
        else:
            x0 = rng.uniform(-1.0, 1.0, 4)
            phase_fn = lambda X: psi_position(state, x0, X)
            X0 = rng.uniform(-2.0, 2.0, 4)
            lap = box4(phase_fn, X0, 1e-4)
            want = sys.M0 ** 2 * phase_fn(X0)
            records.append(CaseRecord("cm_wave", {"state": idx},
                                      abs(lap - want) / max(abs(want), 1.0), 0.0,
                                      "plane-wave phase, finite differences", tol))
        # transversality of the internal factor
        xs = rng.uniform(-1.5, 1.5, (3, 4))
        if mode == "analytic":
            grads = oscillator.psi_position_gradient(state, xs).real
        else:
            grads = finite_difference_gradient4(lambda pt: psi_position(state, pt).real, xs)
        contraction = _dot(grads[:, :3], sys.P.spatial) + sys.P.c4 * grads[:, 3]
        scale = np.maximum(np.linalg.norm(sys.P.components) * np.sqrt(_dot(grads, grads)), 1e-3)
        records.append(CaseRecord("transversality", {"state": idx, "axis": np.arange(1, 4)},
                                  contraction / scale, 0.0, "P^mu d_mu psi = 0", tol))
    notes = [f"seed={seed}", f"mode={mode}", f"sigma_perturb={sigma_perturb}"]
    return VerificationReport("pde", tol, records, notes)


def _constrained_test_field(sys, coeffs):
    """Smooth transversal field g(xi(x)) with an analytic value; used by the
    decomposition checks. coeffs parameterises a polynomial-Gaussian bump."""
    c0, c1, c2, c3 = coeffs

    def value(x):
        k = constraint.constraint_coordinates(x, sys)
        poly = c0 + c1 * k[..., 0] + c2 * k[..., 1] * k[..., 2] + c3 * k[..., 0] * k[..., 2]
        return np.exp(-0.5 * _dot(k, k)) * poly

    return value


def _decomposition_cases(check: str, inputs: dict, provenance: str, omega: float,
                         sys, x, value, grad):
    """The explicit ladder operator against its flat 4-space decomposition at
    one point or a batch (n, 4), as a list of one record: one case per point
    (row) and axis and direction (column; tolerance 1e-5)."""
    diffs = [np.reshape(ladder_explicit_value(direction, axis, omega, sys, x, value, grad)
                        - ladder_explicit_4d_value(direction, axis, omega, sys, x, value, grad),
                        -1)
             for axis in (1, 2, 3) for direction in ("lower", "raise")]
    return [CaseRecord(check, {**inputs, "axis": np.repeat([1, 2, 3], 2)},
                       np.abs(np.stack(diffs, axis=-1)), 0.0, provenance, 1e-5)]


def run_ladder_suite(max_n: int = 4, points: int = 20, seed: int = 0) -> VerificationReport:
    """Raising/lowering coefficients, the eigenvalue identity, and the
    equality of the explicit operator with its flat 4-space decomposition, for
    states moving with |v| < 0.9. Tolerances: 1e-5 for the explicit operators
    and the decomposition, 1e-8 for annihilation, 1e-12 for the coefficient algebra.

    Each state draws its six (points, 4) blocks, one per axis and direction
    (lower, then raise), as one (6, points, 4) stack; the wave function and
    its finite-difference gradient run once over the stack, the explicit
    operator once per block, and each ladder_apply of the state serves every check.
    """
    _check_options(points=points, max_n=max_n)
    rng = np.random.default_rng(seed)
    records = []
    states = _draw_states(rng, max_n, moving=True)
    moves = [(axis, direction) for axis in (1, 2, 3) for direction in ("lower", "raise")]
    for idx, state in enumerate(states):
        xs = rng.uniform(-1.5, 1.5, (len(moves), points, 4))
        field = lambda pt: psi_position(state, pt)
        values, grads = field(xs), finite_difference_gradient4(field, xs)
        applied = {(a, d): ladder_apply(d, a, state) for a, d in moves}
        number = 0.0
        for x, value, grad, (axis, direction) in zip(xs, values, grads, moves):
            coeff, new_state = applied[axis, direction]
            gots = ladder_explicit_value(direction, axis, state.omega, state.sys, x, value, grad)
            # the values are complex with zero imaginary parts, so numpy's abs
            # has the bits of Python's on each one
            if new_state is None:
                errs, tol = np.abs(gots), 1e-8
                check, why = "annihilation", "lowering the ground level gives zero"
            else:
                wants = coeff * psi_position(new_state, x)
                errs, tol = np.abs(gots - wants) / max(np.max(np.abs(wants)), 1e-3), 1e-5
                check, why = f"explicit_{direction}", "explicit operator vs ladder coefficient"
            records.append(CaseRecord(check, {"state": idx, "axis": axis,
                                              "point": np.arange(points)}, errs, 0.0, why, tol))
            if direction == "raise":
                # coefficient algebra, exact in integer arithmetic
                (c_low, lowered), (c_up, raised) = applied[axis, "lower"], applied[axis, "raise"]
                down_up = c_low * (_ladder_step("raise", axis, lowered.q)[0] if lowered else 0.0)
                up_down = c_up * _ladder_step("lower", axis, raised.q)[0]
                number += down_up  # adds 0.0 where lowering annihilates
                records.append(CaseRecord("commutator", {"state": idx, "axis": axis},
                                          down_up - up_down, -1.0,
                                          "raise-lower minus lower-raise", 1e-12))
        records.append(CaseRecord("eigenvalue_identity", {"state": idx},
                                  state.omega * (number + 1.5), state.sigma,
                                  "number operator plus zero point", 1e-12))
        # decomposition into flat 4-space ladder components, on the state itself
        xs = rng.uniform(-1.5, 1.5, (3, 4))
        records.extend(_decomposition_cases(
            "decomposition_state", {"state": idx},
            "4-space decomposition on eigenstates", state.omega, state.sys,
            xs, psi_position(state, xs), oscillator.psi_position_gradient(state, xs)))
    # decomposition on generic transversal fields, finite-difference gradients
    sys = bound_system(*_draw_masses(rng), _draw_velocity(rng, 0.9))
    for k in range(20):
        fld = _constrained_test_field(sys, rng.uniform(-1.0, 1.0, 4))
        x = rng.uniform(-1.5, 1.5, 4)
        records.extend(_decomposition_cases(
            "decomposition_field", {"field": k}, "4-space decomposition on test fields",
            1.0, sys, x, fld(x), finite_difference_gradient4(fld, x)))
    return VerificationReport("ladder", 1e-5, records, [f"seed={seed}", "vmax=0.9"])


def run_nr_limit_suite(mass_pairs=None, seed: int = 0) -> VerificationReport:
    """Quadratic approach of the rest mass to m1 + m2 + sigma/m_r, the
    free-particle identity and the rest-frame ladder coefficients. Halving
    sigma = 1e-3 must divide the error by 4 +- 0.5 (the ratio window [3.5, 4.5]);
    the small-sigma energy holds to 5e-6, the other identities to 1e-12."""
    rng = np.random.default_rng(seed)
    if mass_pairs is None:
        mass_pairs = [tuple(rng.uniform(0.5, 3.0, 2)) for _ in range(20)]
    sigma0 = 1e-3
    records = []
    for k, (m1, m2) in enumerate(mass_pairs):
        mr = reduced_mass(m1, m2)
        err = lambda s: abs(rest_mass(m1, m2, s) - (m1 + m2 + s / mr))
        ratio = err(sigma0) / err(sigma0 / 2.0)
        records.append(CaseRecord("quadratic_convergence", {"pair": k, "ratio": ratio},
                                  ratio - 4.0, 0.0,
                                  "halving the separation constant", 0.5))
        records.append(CaseRecord("free_particle", {"pair": k},
                                  rest_mass(m1, m2, 0.0), m1 + m2,
                                  "sigma = 0 rest mass", 1e-12))
    # small-sigma energy for the equal-mass reference point
    records.append(CaseRecord("nr_energy", {"m1": 1.0, "m2": 1.0, "sigma": sigma0},
                              rest_mass(1.0, 1.0, sigma0) - (2.0 + sigma0 / 0.5), 0.0,
                              "small-sigma rest mass expansion", 5e-6))
    # rest-frame ladder operator equals the Schroedinger form with Omega = m_r w
    m1, m2, w_nr = 1.0, 1.3, 0.7
    om = oscillator.nr_spring_constant(m1, m2, w_nr)
    state = oscillator_state((1, 0, 0), om, m1, m2)
    xs = np.random.default_rng(seed + 1).uniform(-1.0, 1.0, (5, 4))
    values = psi_position(state, xs)
    grads = oscillator.psi_position_gradient(state, xs)
    diffs = [ladder_explicit_value(direction, 1, om, state.sys, xs, values, grads)
             - (-sgn * grads[:, 0] + om * xs[:, 0] * values) / math.sqrt(2.0 * om)
             for direction, sgn in (("raise", +1), ("lower", -1))]
    records.append(CaseRecord("schrodinger_form", {"point": np.arange(len(xs))[:, None],
                                                   "direction": ["raise", "lower"]},
                              np.abs(np.stack(diffs, axis=-1)), 0.0,
                              "rest-frame operator vs Schroedinger ladder", 1e-12))
    return VerificationReport("nr-limit", 0.5, records, [f"seed={seed}", f"sigma0={sigma0}"])


# ---------------------------------------------------------------------------
# direct-kernel quadratures: the oracles of the spectral transform kernel

def _direct_fourier(g, targets, rule, omega: float):
    """fourier_forward1d's integral with its kernel summed at the nodes for the
    envelope exp(-Omega xi^2 / 2); ~1e-10 for |pi| <= trust_momentum(rule, omega)."""
    pts, eff = transforms.rescaled_nodes(rule, 0.5 * omega)
    kern = np.exp(-1j * np.outer(np.atleast_1d(targets), pts))
    return (kern @ (np.asarray(g(pts)) * eff)) / math.sqrt(2.0 * math.pi)


def _direct_bargmann(g, alpha, omega: float, rule, sign: int):
    """bargmann_transform's integral with its kernel summed at the nodes for exp(-Omega xi^2)."""
    pts, eff = transforms.rescaled_nodes(rule, omega)
    a = alpha[:, None]
    kern = np.exp(-0.5 * a ** 2 + sign * math.sqrt(2.0 * omega) * a * pts - 0.5 * omega * pts ** 2)
    return (omega / math.pi) ** 0.25 * (kern @ (np.asarray(g(pts)) * eff))


def run_transform_suite(max_n: int = 4, order: int = 32, bargmann_sign: int = +1,
                        seed: int = 0) -> VerificationReport:
    """Numeric Fourier against the closed momentum forms, round-trip
    inversion, Parseval, Segal-Bargmann monomials, normalisation and the
    kernel against the direct quadratures, for states at Omega = 1.1, m1 = 1,
    m2 = 1.3. Tolerances: 1e-8 for the Fourier modulus and (at order 64) the
    round trip and Parseval, 1e-9 for the monomials l <= 8 (order 48), 1e-10
    for the norms up to level 6 and orthogonality, 1e-12 for the kernel.
    """
    _check_options(max_n=max_n, bargmann_sign=bargmann_sign)
    omega, m1, m2, tol = 1.1, 1.0, 1.3, 1e-8
    rng = np.random.default_rng(seed)
    notes = [f"seed={seed}", f"order={order}"]
    rule = transforms.gauss_hermite(order)
    rule_rt = transforms.gauss_hermite(64)
    rule_bg = transforms.gauss_hermite(48)
    # levels come in order, so every set of states used below is a prefix of the pool
    pool = states_up_to(max(max_n, 6), omega, m1, m2)
    up_to = lambda n: [state for state in pool if state.q.n <= n]
    states = up_to(max_n)
    reach = 3.5 * math.sqrt(omega)
    axis_targets = np.linspace(-reach, reach, 5)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        cube = np.ix_(axis_targets, axis_targets, axis_targets)
        errs = [np.max(np.abs(np.abs(transforms.fourier_of_state(state, (axis_targets,) * 3, rule))
                              - np.abs(oscillator.momentum_profile(state)(*cube))))
                for state in states]
        records = [CaseRecord("fourier_modulus", {"state": np.arange(len(states))}, errs, 0.0,
                              "numeric transform vs closed momentum form", tol)]
        # forward eigenphase, measured with the direct quadrature; recorded, not asserted
        factors = [lambda xi, l=l: oscillator.phi_1d(l, omega, xi) for l in range(9)]
        phases = []
        for l, g in enumerate(factors[:5]):
            num = complex(_direct_fourier(g, 0.6 * math.sqrt(omega), rule, omega)[0])
            ana = oscillator.phi_1d_momentum(l, omega, 0.6 * math.sqrt(omega))
            phases.append(num / ana)
        notes.append("forward eigenphase per l (measured): "
                     + ", ".join(f"{z:.6f}" for z in phases))
        # round trip and Parseval on the worst few states at the round-trip order
        rt_targets = np.linspace(-2.5 / math.sqrt(omega), 2.5 / math.sqrt(omega), 4)
        ppts, peff = transforms.rescaled_nodes(rule_rt, 1.0 / omega)
        for idx, state in enumerate(states[:: max(1, len(states) // 7)]):
            g = oscillator.position_profile(state)

            def fwd(*grid, state=state):
                # the inverse samples a product grid; ravel back to axes so the
                # forward runs on a product grid, one axis at a time
                axes = tuple(np.asarray(p, dtype=float).ravel() for p in grid)
                return transforms.fourier_of_state(state, axes, rule_rt)

            back = transforms.fourier_inverse(fwd, (rt_targets,) * 3, rule_rt, omega)
            truth = g(*np.ix_(rt_targets, rt_targets, rt_targets))
            records.append(CaseRecord("roundtrip", {"state": idx},
                                      np.max(np.abs(back - truth)), 0.0,
                                      "inverse of forward is the identity", tol))
            fnum = transforms.fourier_of_state(state, (ppts,) * 3, rule_rt)
            w3 = peff[:, None, None] * peff[None, :, None] * peff[None, None, :]
            records.append(CaseRecord("parseval", {"state": idx}, np.sum(w3 * np.abs(fnum) ** 2),
                                      1.0, "momentum norm equals position norm", tol))
        # Segal-Bargmann monomials over a complex grid
        grid = np.array([a + 1j * b for a in (-2.0, -1.0, 0.0, 1.0, 2.0)
                         for b in (-2.0, -1.0, 0.0, 1.0, 2.0)])
        errs = [np.max(np.abs(transforms.bargmann_transform(g, grid, omega, rule_bg, bargmann_sign)
                              - oscillator.phi_1d_bargmann(l, omega, grid)))
                for l, g in enumerate(factors)]
        records.append(CaseRecord("bargmann_monomial", {"l": np.arange(9)}, errs, 0.0,
                                  "transform of the l-th factor", 1e-9))
        # normalisation across levels
        norms = [transforms.normalization_integral(state, rule)
                 for state in up_to(6)]
        records.append(CaseRecord("normalization", {"state": np.arange(len(norms))}, norms, 1.0,
                                  "unit norm over the constraint space", 1e-10))
        # orthogonality spot checks
        base = up_to(2)
        pairs = [rng.integers(0, len(base), 2) for _ in range(6)]
        pairs = np.reshape([(i, j) for i, j in pairs if base[i].q != base[j].q], (-1, 2))
        overlaps = [transforms.overlap_integral(base[i], base[j], rule) for i, j in pairs]
        records.append(CaseRecord("orthogonality", {"i": pairs[:, 0], "j": pairs[:, 1]},
                                  overlaps, 0.0, "distinct states are orthogonal", 1e-10))
        # the kernel against the direct quadratures on levels l <= 8 and on a
        # non-eigenfunction, at momenta within 3/4 of the order-64 trust limit,
        # where the direct quadrature holds to ~1e-15 on these integrands
        momenta = 0.75 * transforms.trust_momentum(rule_rt, omega) * rng.uniform(-1.0, 1.0, 8)
        alphas = rng.uniform(-2.0, 2.0, 8) + 1j * rng.uniform(-2.0, 2.0, 8)
        integrands = [(f"phi_{l}", g) for l, g in enumerate(factors)]
        integrands.append(("gauss_cos",
                           lambda xi: np.exp(-0.5 * omega * xi ** 2) * np.cos(1.7 * xi)))
        errs = []
        for _, g in integrands:
            fourier = (transforms.fourier_forward1d(g, momenta, rule_rt, omega)
                       - _direct_fourier(g, momenta, rule_rt, omega))
            bargmann = (transforms.bargmann_transform(g, alphas, omega, rule_bg, bargmann_sign)
                        - _direct_bargmann(g, alphas, omega, rule_bg, bargmann_sign))
            errs.append([np.max(np.abs(fourier)), np.max(np.abs(bargmann))])
        records.append(CaseRecord("kernel_oracle", {"transform": ["fourier", "bargmann"],
                                                    "integrand": [[n] for n, _ in integrands]},
                                  errs, 0.0, "spectral kernel vs direct quadrature", 1e-12))
    for w in caught:
        if issubclass(w.category, transforms.InsufficientOrderWarning):
            note = f"insufficient order: {w.message}"
            if note not in notes:
                notes.append(note)
    return VerificationReport("transforms", tol, records, notes)


SUITES = {
    "invariance": run_invariance_suite,
    "pde": run_pde_suite,
    "ladder": run_ladder_suite,
    "nr-limit": run_nr_limit_suite,
    "transforms": run_transform_suite,
}


def run_all(seed: int = 0, **overrides) -> dict:
    """Run every suite with shared seed; overrides are keyed by suite name."""
    out = {}
    for name, runner in SUITES.items():
        kwargs = dict(overrides.get(name, {}))
        kwargs.setdefault("seed", seed)
        out[name] = runner(**kwargs)
    return out
