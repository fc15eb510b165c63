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
import sys
import warnings
from contextlib import suppress
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import repeat
from types import SimpleNamespace

import numpy as np

from . import constraint, minkowski, oscillator, transforms
from .minkowski import (_components, _dot, _integer, _over_real, bound_system, eta_params,
                        minkowski_dot, reduced_mass, rest_mass)
from .oscillator import ladder_explicit_value, oscillator_state, psi_position

DEFAULT_H_FIRST = 1e-6
DEFAULT_H_SECOND = 1e-5


# ---------------------------------------------------------------------------
# finite-difference engine
#
# Each function takes a FourVector or a (..., 4) array of points and calls
# field once, on the whole stencil stacked as a (..., k, 4) array; field
# returns the (..., k) values. Steps scale as h * max(1, |component|). A bad
# point or step raises ValueError before field is called.

def _point(x, h) -> np.ndarray:
    """The components (..., 4) of x; ValueError naming a point that is not finite,
    or for a step h that is not positive and finite."""
    minkowski._real(h, "step h")
    return minkowski._finite_map(_components, x, image="point")


def _axis_steps(x: np.ndarray, h: float) -> np.ndarray:
    return h * np.maximum(1.0, np.abs(x))


def _direction_step(x: np.ndarray, h: float) -> np.ndarray:
    return h * np.maximum(1.0, np.max(np.abs(x), axis=-1, keepdims=True))


def finite_difference_gradient4(field, x, h: float = DEFAULT_H_FIRST) -> np.ndarray:
    """Central-difference partials of a scalar field at x, error O(h^2).

    Shape (..., 4), from one call on the 8-point stencil; the result is
    complex when the field is.
    """
    x = _point(x, h)
    step = _axis_steps(x, h)
    shift = step[..., None] * np.eye(4)
    f = field(np.concatenate([x[..., None, :] + shift, x[..., None, :] - shift], axis=-2))
    return _over_real(f[..., :4] - f[..., 4:], 2.0 * step)


def _second_differences(field, x: np.ndarray, directions: np.ndarray, steps: np.ndarray):
    """Central second differences along each row of directions (..., k, 4) with
    steps (..., k), from one call on the (..., 2k + 1, 4) stencil; returns
    them, shape (..., k), and the centre value, shape (...)."""
    k = directions.shape[-2]
    centre = x[..., None, :]
    shift = steps[..., None] * directions
    f = field(np.concatenate([centre, centre + shift, centre - shift], axis=-2))
    f0 = f[..., :1]
    d2 = _over_real(f[..., 1:k + 1] - 2.0 * f0 + f[..., k + 1:], steps * steps)
    return d2, f[..., 0]


def _wave(d2: np.ndarray):
    """Spatial second derivatives minus the time one, in that order."""
    return d2[..., 0] + d2[..., 1] + d2[..., 2] - d2[..., 3]


def box4(field, x, h: float = DEFAULT_H_SECOND):
    """Wave operator: spatial second derivatives minus the time one."""
    x = _point(x, h)
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
    """A block of verification cases, one check's over its states or points.

    Any field, and any value in inputs, may be an array. They broadcast to
    one shape, whose entries in C order are the cases (one case for shape ());
    abs_err and rel_err take that shape, elementwise, so each case has the bits
    it has alone.
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
        self.observed, self.expected, self.tol = (np.asarray(v, dtype=float)[()] for v in
                                                  (self.observed, self.expected, self.tol))
        shape = np.broadcast(self.check, self.observed, self.expected, self.provenance,
                             self.tol, *self.inputs.values()).shape
        observed, expected = self.observed, self.expected
        abs_err = abs(observed - expected)
        rel_err = abs_err / np.maximum(np.maximum(abs(observed), abs(expected)), 1.0)
        self.abs_err, self.rel_err = (e if e.shape == shape else np.broadcast_to(e, shape)
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
        _BLOCK_CASES rows. A value shared by all cases is encoded once, and so is each
        entry of a broadcast column (an array without the record's shape) in a piece."""
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

        def column(a):
            """The texts of a column's cases i to i + m, given i and m."""
            if a.shape == shape:
                return lambda i, m: _json_values(a.flat[i:i + m].tolist())
            index = np.broadcast_to(np.arange(a.size).reshape(a.shape), shape)

            def texts(i, m):
                entries, at = np.unique(index.flat[i:i + m], return_inverse=True)
                return np.array(_json_values(a.flat[entries].tolist()), dtype=object)[at].tolist()
            return texts

        parts, text = [], seps[0]  # constant texts alternating with value columns
        for a, sep in zip(arrays, seps[1:]):
            if a.ndim:
                parts += [text, column(a)]
                text = sep
            else:
                text += next(shared) + sep
        parts.append(text)
        for i in range(0, n, _BLOCK_CASES):
            m = min(_BLOCK_CASES, n - i)
            yield "".join(map("".join, zip(*(
                repeat(p, m) if isinstance(p, str) else p(i, m) for p in parts))))


@dataclass
class VerificationReport:
    """A suite's records, one block per check, and its verdict over all cases."""
    suite: str
    tolerance: float
    records: list
    notes: list
    max_abs_err: float = field(init=False)
    max_rel_err: float = field(init=False)
    passed: bool = field(init=False)

    def __post_init__(self):
        def worst(errs):
            """The largest error over every case, 0.0 for none; np.max keeps a NaN
            wherever it sits."""
            return float(np.max(np.concatenate([[0.0], *map(np.ravel, errs)])))
        self.max_abs_err = worst(r.abs_err for r in self.records)
        # worst error on the headline-tolerance scale
        self.max_rel_err = worst(r.rel_err / r.tol for r in self.records) * self.tolerance
        self.passed = self.max_rel_err <= self.tolerance

    @property
    def cases(self) -> list:
        """Every case, the blocks expanded in row order: the rows of the JSON, read
        by CaseRecord's field names (case.check, case.rel_err, ...)."""
        return [SimpleNamespace(**row) for record in self.records for row in record.rows()]

    def _head(self, cases: list) -> dict:
        """The report as a dict around the given cases: to_dict and the writer share it."""
        return {"suite": self.suite, "tolerance": self.tolerance, "cases": cases,
                "max_abs_err": self.max_abs_err, "max_rel_err": self.max_rel_err,
                "pass": self.passed, "notes": list(self.notes)}

    def to_dict(self) -> dict:
        return self._head([row for record in self.records for row in record.rows()])

    def to_json(self) -> str:
        """json.dumps(self.to_dict(), sort_keys=True, indent=2), written from the records."""
        return "".join(self._json_blocks(""))

    def _json_blocks(self, pad: str):
        """to_json() in pieces of at most _BLOCK_CASES cases, every line after the
        first indented by pad."""
        head, tail = json.dumps(self._head([]), sort_keys=True, indent=2).replace(
            "\n", "\n" + pad).split("[]", 1)  # "cases" is first
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

def _draw_masses(rng, size=()):
    m1, m2 = rng.uniform(0.5, 3.0, (2, *size))
    return m1, m2, rng.uniform(0.0, 0.5 * m1 * m2)


def _draw_velocity(rng, vmax: float, size=()) -> np.ndarray:
    """(*size, 3) velocities, |v| < vmax, each row with the bits of its own single draw."""
    direction = rng.normal(size=(*size, 3))
    direction /= np.sqrt(_dot(direction, direction))[..., None]  # np.linalg.norm's bits
    return rng.uniform(0.0, vmax, (*size, 1)) * direction


def _systems(m1, m2, sigma, v):
    """The momenta (..., 4) and rest masses (...) of a stack of bound systems: masses and
    separation constants broadcasting to the rest masses' shape, velocities v (..., 3) to
    the momenta's. Each row has the bits of its own bound_system, after its checks:
    rest_mass and eta_params over the stack, then its mass shell."""
    m1, m2, sigma = np.broadcast_arrays(m1, m2, sigma)
    M0 = rest_mass(m1, m2, sigma)
    eta_params(m1, m2, M0)  # raises unless eta1 + eta2 == 1 in every row
    P = minkowski.on_shell_momentum(M0, v)
    minkowski._check_momentum(P, M0)
    return P, M0


@lru_cache(maxsize=16)
def _levels(max_n: int) -> np.ndarray:
    """The levels (S, 3) of the eigenstates up to level max_n, in level order; one
    read-only array per max_n, built once."""
    levels = np.array([q.as_tuple() for n in range(max_n + 1)
                       for q in oscillator.quantum_numbers_at_level(n)])
    levels.flags.writeable = False
    return levels


# ---------------------------------------------------------------------------
# suites

# the bounds of each integer option of the suites but bargmann_sign
_BOUNDS = {"seed": (0, math.inf), "trials": (1, sys.maxsize), "points": (1, sys.maxsize),
           "max_n": (0, oscillator.MAX_LEVEL), "order": (1, transforms.MAX_ORDER)}


def _option(value, name: str):
    """The suite option name as its rule reads it, else ValueError: sigma_perturb a finite
    real, bargmann_sign +1 or -1, any other an integer in its _BOUNDS."""
    if name == "sigma_perturb":
        return minkowski._real(value, name, positive=False)
    if name != "bargmann_sign":
        return _integer(value, name, *_BOUNDS[name])
    with suppress(ValueError):
        if abs(sign := _integer(value, name, -1, 1)) == 1:
            return sign
    raise ValueError(f"bargmann_sign must be +1 or -1, got {value!r}")


def run_invariance_suite(trials: int = 1000, vmax: float = 0.99,
                         seed: int = 0) -> VerificationReport:
    """Frame equality of |xi|^2, |pi|^2 and xi.pi plus projection orthogonality.

    Each trial draws a system, a position, a momentum and a second boost;
    constraint coordinates computed in both frames must agree in their
    rotation-invariant combinations (tolerance 1e-9), and the projections
    orthogonal to P must be orthogonal to it (tolerance 1e-10). The masses, both
    boosts and x and p come as blocks over all trials; one boost, one map and one
    projection serve the stack, and P passes BoundSystem's checks in both frames.
    """
    trials, seed = _option(trials, "trials"), _option(seed, "seed")
    if not (vmax := minkowski._real(vmax, "vmax")) < 1.0:
        raise ValueError("vmax must be in (0, 1)")
    rng = np.random.default_rng(seed)
    m1, m2, sigma = _draw_masses(rng, (trials, 1))
    v_a, v_b = _draw_velocity(rng, vmax, (2, trials, 1))
    xp = rng.uniform(-2.0, 2.0, (trials, 2, 4))
    P_a, M0 = _systems(m1, m2, sigma, v_a)  # (trials, 1, 4), (trials, 1)
    frame_a = np.concatenate((P_a, xp), axis=1)  # P, x and p of each trial
    frames = np.stack((frame_a, minkowski.general_boost(frame_a, v_b)))
    P = frames[:, :, :1]  # in both frames, (2, trials, 1, 4)
    minkowski._check_momentum(P[1], M0)
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


def _internal_residual(om: float, xi, lap_xi, psi, sigma_used: float):
    """(-sum d2/dxi2 + Omega^2 xi^2 - 2 sigma) psi from the Laplacian and
    the value at xi (..., 3); returns (residual, |2 sigma psi|), each (...)."""
    resid = -lap_xi + om * om * _dot(xi, xi) * psi - 2.0 * sigma_used * psi
    return resid, np.abs(2.0 * sigma_used * psi)


def _internal_residual_analytic(stack, x, sigma_used):
    """The residual with closed-form second derivatives of the 1D factors, for the
    stacked states (the arguments of oscillator._psi before the points) at x (S, ..., 4)."""
    ls, omega, P, M0 = stack
    xi = constraint._coordinates(x, P[:, None], M0[:, None])
    vals, secs = [], []
    for l, c in zip(ls.T[..., None], np.moveaxis(xi, -1, 0)):
        phi, down, up = oscillator._factor(+1, l, omega, c, (0, -2, 2))
        # phi_l'' = Omega [ sqrt(l(l-1))/2 phi_{l-2} - (2l+1)/2 phi_l + sqrt((l+1)(l+2))/2 phi_{l+2} ]
        # (independent of the eigenvalue relation it is used to check)
        vals.append(phi)
        secs.append(omega * (np.sqrt(l * (l - 1)) / 2.0 * down
                             - (2.0 * l + 1.0) / 2.0 * phi
                             + np.sqrt((l + 1) * (l + 2)) / 2.0 * up))
    lap = (secs[0] * vals[1] * vals[2] + vals[0] * secs[1] * vals[2]
           + vals[0] * vals[1] * secs[2])
    # psi itself, with the bits of oscillator._psi's product of the same factors
    return _internal_residual(omega, xi, lap, vals[0] * vals[1] * vals[2], sigma_used)


def _internal_residual_fd(stack, x, sigma_used):
    """The residual with the constraint-space Laplacian reduced to 4-space
    finite differences at step DEFAULT_H_SECOND: sum d2/dxi2 = box - (P^mu d_mu / M0)^2.
    box4's stencil and the directional one share their centre: one field call."""
    _, _, P, M0 = stack
    h = DEFAULT_H_SECOND
    directions = np.concatenate([np.broadcast_to(np.eye(4), (len(P), 4, 4)),
                                 (P / M0[:, None])[:, None]], axis=1)[:, None]
    steps = np.concatenate([_axis_steps(x, h), _direction_step(x, h)], axis=-1)
    d2, psi = _second_differences(lambda pt: oscillator._psi(*stack, pt).real, x,
                                  directions, steps)
    xi = constraint._coordinates(x, P[:, None], M0[:, None])
    return _internal_residual(stack[1], xi, _wave(d2) - d2[..., 4], psi, sigma_used)


# stencil points per chunk of states in the stacked suites: their memory bound
_CHUNK_POINTS = 8192


def _chunks(count: int, stencil: int):
    """Slices of a stack of count states, runs of consecutive ones, as many per run as
    _CHUNK_POINTS holds at stencil points per state (at least one)."""
    size = max(1, _CHUNK_POINTS // stencil)
    return [slice(i, i + size) for i in range(0, count, size)]


def run_pde_suite(points: int = 20, mode: str = "fd", seed: int = 0,
                  sigma_perturb: float = 0.0, max_n: int = 4) -> VerificationReport:
    """Residuals of the centre-of-mass wave equation, the transversality
    condition and the internal oscillator equation on random points, for the
    eigenstates up to level max_n at Omega = 1, m1 = 1, m2 = 1.3 that the suite
    draws itself, so points is the first positional parameter.

    mode="analytic" evaluates closed-form derivatives in the rest frame
    (tolerance 1e-10); mode="fd" uses 4-space finite differences in frames
    boosted up to |v| = 0.9 (tolerance 1e-5). sigma_perturb (units of Omega)
    offsets the eigenvalue used in the residual; nonzero values are a
    deliberate failure control.

    The states run in chunks: each chunk draws its states' points in one block,
    and the wave function and its differences at the residual points run once over
    the chunk. The plane-wave phase and transversality, at a few points per state,
    run after the chunks over all states (in runs of the same budget), at the points
    kept from those draws.
    Each check is one block over all states.
    """
    _option(sigma_perturb, "sigma_perturb")  # used as given, so that its note keeps it
    points, max_n = _option(points, "points"), _option(max_n, "max_n")
    seed = _option(seed, "seed")
    if mode not in ("analytic", "fd"):
        raise ValueError("mode must be 'analytic' or 'fd'")
    fd = mode == "fd"
    tol = 1e-5 if fd else 1e-10
    rng = np.random.default_rng(seed)
    residual = _internal_residual_fd if fd else _internal_residual_analytic
    # per state: its points, in fd mode a cm_wave point x0 and a centre of mass X0,
    # then three transversality points, each drawn on [-half, half]
    half = np.repeat([1.5, 1.0, 2.0, 1.5], [4 * points, 4 * fd, 4 * fd, 12])
    ls = _levels(max_n)
    sigma = np.array([oscillator.sigma_n(1.0, n) for n in ls.sum(axis=-1).tolist()])
    P, M0 = _systems(1.0, 1.3, sigma, [_draw_velocity(rng, 0.9) for _ in ls] if fd else
                     (0.0, 0.0, 0.0))  # moving states draw one by one, resting ones nothing
    internal, kept = [], []  # per chunk: residuals (states, points), the other points
    # stencil points per state: 11 per residual point
    for chunk in _chunks(len(ls), 11 * points):
        stack = ls[chunk], 1.0, P[chunk], M0[chunk]
        # rng.uniform(-half, half) for each state in turn, with its bits
        draws = -half + 2.0 * half * rng.random((len(stack[0]), len(half)))
        x = draws[:, :4 * points].reshape(-1, points, 4)
        resids, scales = residual(stack, x, sigma[chunk, None] + sigma_perturb * 1.0)
        internal.append(resids / np.maximum(np.max(scales, axis=-1, keepdims=True), 1e-30))
        kept.append(draws[:, 4 * points:].copy())  # a view would keep the whole draw alive
    kept = np.concatenate(kept)
    cm_wave, transversality = [], []  # per chunk (states, ...); cm_wave per state
    # the plane-wave phase, and the gradients for transversality of the internal factor, at
    # few points per state: 9 stencil points for the phase, 8 per gradient
    for chunk in _chunks(len(ls), 33):
        stack = ls[chunk], 1.0, P[chunk], M0[chunk]
        xs = kept[chunk, -12:].reshape(-1, 3, 4)
        if fd:
            x0, X0 = kept[chunk, :4], kept[chunk, 4:8]
            lap = box4(lambda X: oscillator._psi(*stack, x0[:, None], X), X0, 1e-4)
            wants = [m ** 2 * z for m, z in zip(stack[3].tolist(),
                                                oscillator._psi(*stack, x0, X0).tolist())]
            # Python's complex arithmetic and abs: numpy's can differ in the last bit
            cm_wave += [abs(l - w) / max(abs(w), 1.0) for l, w in zip(lap.tolist(), wants)]
            grads = finite_difference_gradient4(lambda pt: oscillator._psi(*stack, pt).real, xs)
        else:
            grads = oscillator._psi(*stack, xs, gradient=True)[1].real
        Pc = P[chunk, None]
        contraction = _dot(grads[..., :3], Pc[..., :3]) + Pc[..., 3] * grads[..., 3]
        scale = np.maximum(np.sqrt(_dot(Pc, Pc)) * np.sqrt(_dot(grads, grads)), 1e-3)
        transversality.append(contraction / scale)
    state = np.arange(len(ls))
    if fd:
        cm = (cm_wave, 0.0, "plane-wave phase, finite differences")
    else:  # centre-of-mass wave equation, exact
        cm = (-minkowski_dot(P, P), [m ** 2 for m in M0.tolist()], "plane-wave phase, exact")
    records = [CaseRecord("internal_equation",
                          {"state": state[:, None], "point": np.arange(points), "mode": mode},
                          np.concatenate(internal), 0.0, "internal oscillator equation", tol),
               CaseRecord("cm_wave", {"state": state}, *cm, tol),
               CaseRecord("transversality", {"state": state[:, None], "axis": np.arange(1, 4)},
                          np.concatenate(transversality), 0.0, "P^mu d_mu psi = 0", tol)]
    notes = [f"seed={seed}", f"mode={mode}", f"sigma_perturb={sigma_perturb}"]
    return VerificationReport("pde", tol, records, notes)


def _constrained_test_field(sys, coeffs):
    """Smooth transversal fields g(xi(x)) with analytic values, used by the decomposition
    checks: one polynomial-Gaussian bump per row of coeffs (..., 4), whose leading
    axes lead those of the points."""
    coeffs = np.asarray(coeffs)

    def value(x):
        k = constraint.constraint_coordinates(x, sys)
        c0, c1, c2, c3 = np.moveaxis(
            oscillator._per_state(coeffs, coeffs.ndim - 1, k.ndim), -1, 0)
        poly = c0 + c1 * k[..., 0] + c2 * k[..., 1] * k[..., 2] + c3 * k[..., 0] * k[..., 2]
        return np.exp(-0.5 * _dot(k, k)) * poly

    return value


def _decomposition(omega: float, P, M0, x, value, grad):
    """|explicit ladder operator - its flat 4-space decomposition| at points x (..., 4)
    of systems P (..., 4) and M0 (...), shape (..., 6): axis by axis, lower then raise."""
    x, value, grad = x[..., None, :], value[..., None], grad[..., None, :]
    P, M0 = np.expand_dims(P, -2), np.expand_dims(M0, -1)
    sign, i = np.array([-1, 1] * 3), np.repeat([0, 1, 2], 2)
    return np.abs(oscillator._ladder_explicit(sign, i, omega, P, M0, x, value, grad)
                  - oscillator._ladder_explicit_4d(sign, i, omega, P, M0, x, value, grad))


def run_ladder_suite(max_n: int = 4, points: int = 20, seed: int = 0) -> VerificationReport:
    """Raising/lowering coefficients, the eigenvalue identity, and the
    equality of the explicit operator with its flat 4-space decomposition, for
    states moving with |v| < 0.9. Tolerances: 1e-5 for the explicit operators
    and the decomposition, 1e-8 for annihilation, 1e-12 for the coefficient algebra.

    Each state draws six (points, 4) blocks, one per axis and direction (lower,
    then raise), and three decomposition points. The states run in chunks, each
    drawing its states' points in one block: the wave function, its
    finite-difference gradient, the explicit operators and the wave functions of
    the raised and lowered states run once over the chunk; their systems and the
    states' are one stack each, with BoundSystem's checks. The decomposition on the
    states runs after the chunks over all of them (in runs of the same budget), at the
    points kept from those draws. The 20 test fields run as one batch, the coefficient algebra as one over all
    states, and each check is one block.
    """
    points, max_n = _option(points, "points"), _option(max_n, "max_n")
    seed = _option(seed, "seed")
    rng = np.random.default_rng(seed)
    # the states up to level max_n at Omega = 1, m1 = 1, m2 = 1.3, each drawing its velocity
    # in turn, and the eigenvalue of each level a move reaches
    omega, m1, m2 = 1.0, 1.0, 1.3
    ls = _levels(max_n)
    sigmas = np.array([oscillator.sigma_n(omega, n) for n in range(max_n + 2)])
    sigma = sigmas[ls.sum(axis=-1)]
    P, M0 = _systems(m1, m2, sigma, [_draw_velocity(rng, 0.9) for _ in ls])
    # each (state, axis, direction) move, lower then raise: its coefficient, sqrt(l) or
    # sqrt(l + 1), and its new level; lowering l = 0 annihilates, with coefficient 0.0
    coeffs = np.sqrt(ls[..., None] + [0, 1])
    levels = ls[..., None] + [-1, 1]
    gone = levels < 0
    # the levels of each move's new state (state, move, axis); an annihilated one at 0
    on_axis = np.repeat(np.eye(3, dtype=bool), 2, axis=0)  # (move, axis)
    new_ls = np.where(on_axis, np.maximum(levels, 0).reshape(-1, 6, 1), ls[:, None])
    # the systems of ladder_apply's new states: with_sigma keeps the velocity
    new_P, new_M0 = _systems(m1, m2, sigmas[new_ls.sum(axis=-1)],
                             (P[:, :3] / P[:, 3:])[:, None])
    point, move_axis = np.arange(points), np.repeat([1, 2, 3], 2)  # input columns all share
    sign = np.array([[-1], [+1]])  # (direction, point): lower, raise
    errs, kept = [], []  # per chunk: errors (states, ...), the decomposition points
    # stencil points per state: 8 per gradient at its 6 * points
    for moved in _chunks(len(ls), 8 * 6 * points):
        stack = ls[moved], omega, P[moved], M0[moved]
        xs = rng.uniform(-1.5, 1.5, (len(stack[0]), 6 * points + 3, 4))
        x = xs[:, :6 * points].reshape(-1, 3, 2, points, 4)  # state, axis, direction
        field = lambda pt: oscillator._psi(*stack, pt)
        values, grads = field(x), finite_difference_gradient4(field, x)
        gots = oscillator._ladder_explicit(sign, np.arange(3)[:, None, None], omega,
                                           P[moved, None, None, None],
                                           M0[moved, None, None, None],
                                           x, values, grads)
        wants = coeffs[moved, ..., None] * oscillator._psi(
            new_ls[moved], omega, new_P[moved], new_M0[moved],
            x.reshape(-1, 6, points, 4)).reshape(gots.shape)
        scale = np.maximum(np.max(np.abs(wants), axis=-1, keepdims=True), 1e-3)
        # the values are complex with zero imaginary parts, so numpy's abs
        # has the bits of Python's on each one
        errs.append(np.where(gone[moved, ..., None], np.abs(gots),
                             np.abs(gots - wants) / scale))
        kept.append(xs[:, 6 * points:].copy())  # a view would keep the whole draw alive
    # decomposition into flat 4-space ladder components, on the states themselves, at their
    # three closed-form points
    kept = np.concatenate(kept)
    decomposition = [_decomposition(omega, P[c, None], M0[c, None], kept[c], *oscillator._psi(
        ls[c], omega, P[c], M0[c], kept[c], gradient=True)) for c in _chunks(len(ls), 3)]
    # coefficient algebra, exact in integer arithmetic: lower-then-raise gives
    # sqrt(l) sqrt(l), raise-then-lower sqrt(l + 1) sqrt(l + 1)
    down_up, up_down = np.moveaxis(coeffs * coeffs, -1, 0)
    number = down_up[:, 0] + down_up[:, 1] + down_up[:, 2]
    state = np.arange(len(ls))
    axis = np.arange(1, 4)
    pick = lambda annihilated, explicit: np.where(gone[..., None], annihilated, explicit)
    records = [
        CaseRecord(pick("annihilation", [["explicit_lower"], ["explicit_raise"]]),
                   {"state": state[:, None, None, None], "axis": axis[:, None, None],
                    "point": point}, np.concatenate(errs), 0.0,
                   pick("lowering the ground level gives zero",
                        "explicit operator vs ladder coefficient"), pick(1e-8, 1e-5)),
        CaseRecord("commutator", {"state": state[:, None], "axis": axis}, down_up - up_down,
                   -1.0, "raise-lower minus lower-raise", 1e-12),
        CaseRecord("eigenvalue_identity", {"state": state}, omega * (number + 1.5),
                   sigma, "number operator plus zero point", 1e-12),
        CaseRecord("decomposition_state", {"state": state[:, None, None], "axis": move_axis},
                   np.concatenate(decomposition), 0.0,
                   "4-space decomposition on eigenstates", 1e-5)]
    # decomposition on generic transversal fields, finite-difference gradients
    sys = bound_system(*_draw_masses(rng), _draw_velocity(rng, 0.9))
    # rng.uniform(-1, 1, 4) for the field, then rng.uniform(-1.5, 1.5, 4) for its point, 20 times
    draws = rng.random((20, 8))
    coeffs, x = -1.0 + 2.0 * draws[:, :4], -1.5 + 3.0 * draws[:, 4:]
    fld = _constrained_test_field(sys, coeffs)
    records.append(CaseRecord("decomposition_field",
                              {"field": np.arange(20)[:, None], "axis": move_axis},
                              _decomposition(1.0, _components(sys.P), sys.M0, x, fld(x),
                                             finite_difference_gradient4(fld, x)),
                              0.0, "4-space decomposition on test fields", 1e-5))
    return VerificationReport("ladder", 1e-5, records, [f"seed={seed}", "vmax=0.9"])


def run_nr_limit_suite(seed: int = 0) -> VerificationReport:
    """Quadratic approach of the rest mass to m1 + m2 + sigma/m_r, the
    free-particle identity and the rest-frame ladder coefficients, on 20 mass
    pairs the suite draws from [0.5, 3), so seed is its only parameter. Halving
    sigma = 1e-3 must divide the error by 4 +- 0.5 (the ratio window [3.5, 4.5]);
    the small-sigma energy holds to 5e-6, the other identities to 1e-12."""
    seed = _option(seed, "seed")
    rng = np.random.default_rng(seed)
    mass_pairs = rng.uniform(0.5, 3.0, (20, 2))
    sigma0 = 1e-3

    def ratio(m1, m2):
        mr = reduced_mass(m1, m2)
        err = lambda s: abs(rest_mass(m1, m2, s) - (m1 + m2 + s / mr))
        return err(sigma0) / err(sigma0 / 2.0)

    ratios = np.array([ratio(m1, m2) for m1, m2 in mass_pairs])
    pair = np.arange(len(mass_pairs))
    records = [CaseRecord("quadratic_convergence", {"pair": pair, "ratio": ratios},
                          ratios - 4.0, 0.0, "halving the separation constant", 0.5),
               CaseRecord("free_particle", {"pair": pair},
                          [rest_mass(m1, m2, 0.0) for m1, m2 in mass_pairs],
                          mass_pairs[:, 0] + mass_pairs[:, 1], "sigma = 0 rest mass", 1e-12),
               # small-sigma energy for the equal-mass reference point
               CaseRecord("nr_energy", {"m1": 1.0, "m2": 1.0, "sigma": sigma0},
                          rest_mass(1.0, 1.0, sigma0) - (2.0 + sigma0 / 0.5), 0.0,
                          "small-sigma rest mass expansion", 5e-6)]
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
#
# Each takes g returning samples (..., order) at the nodes and gives (..., targets):
# one kernel product per slice, so a stacked slice has the bits of its own call.

def _direct_fourier(g, targets, rule, omega: float):
    """fourier_forward1d's integral with its kernel summed at the nodes for the
    envelope exp(-Omega xi^2 / 2); ~1e-10 for |pi| <= trust_momentum(rule, omega)."""
    pts, eff = transforms.rescaled_nodes(rule, 0.5 * omega)
    kern = np.exp(-1j * np.outer(np.atleast_1d(targets), pts))
    return (kern @ (np.asarray(g(pts)) * eff)[..., None])[..., 0] / math.sqrt(2.0 * math.pi)


def _direct_bargmann(g, alpha, omega: float, rule):
    """bargmann_transform's integral with its kernel summed at the nodes for exp(-Omega xi^2)."""
    pts, eff = transforms.rescaled_nodes(rule, omega)
    a = alpha[:, None]
    kern = np.exp(-0.5 * a ** 2 + math.sqrt(2.0 * omega) * a * pts - 0.5 * omega * pts ** 2)
    return (omega / math.pi) ** 0.25 * (kern @ (np.asarray(g(pts)) * eff)[..., None])[..., 0]


def run_transform_suite(max_n: int = 4, order: int = 32, bargmann_sign: int = +1,
                        seed: int = 0) -> VerificationReport:
    """Numeric Fourier against the closed momentum forms, round-trip
    inversion, Parseval, Segal-Bargmann monomials, normalisation and the
    kernel against the direct quadratures, for states at rest at Omega = 1.1.
    Tolerances: 1e-8 for the Fourier modulus and (at order 64) the
    round trip and Parseval, 1e-9 for the monomials l <= 8 (order 48), 1e-10
    for the norms up to level 6 and orthogonality, 1e-12 for the kernel.
    bargmann_sign=-1, a negative control, takes the Segal-Bargmann transform at -alpha.

    Every check runs once over its states or integrands: the 1D transforms take the
    factors of all levels as one stacked integrand, each level's row with the bits of
    its own call, and each state joins its three levels' rows, the states of the
    Fourier modulus in chunks.
    """
    max_n, order = _option(max_n, "max_n"), _option(order, "order")
    bargmann_sign, seed = _option(bargmann_sign, "bargmann_sign"), _option(seed, "seed")
    omega, tol = 1.1, 1e-8
    rng = np.random.default_rng(seed)
    notes = [f"seed={seed}", f"order={order}"]
    rule = transforms.gauss_hermite(order)
    rule_rt = transforms.gauss_hermite(64)
    rule_bg = transforms.gauss_hermite(48)
    # every set of states used below is a prefix of the pool, in level order
    pool = _levels(max(max_n, 6))
    up_to = lambda n: pool[:(n + 1) * (n + 2) * (n + 3) // 6]
    states = up_to(max_n)
    # the 1D factors as stacks: those of the states' levels, and the levels 0..8
    phis = lambda xi: oscillator._factor_table(+1, max_n, omega, xi)
    factors = lambda xi: oscillator._factor_table(+1, 8, omega, xi)
    grids = lambda rows, ls: transforms._join(*rows[ls.T], True)  # each state's grid
    reach = 3.5 * math.sqrt(omega)
    axis_targets = np.linspace(-reach, reach, 5)
    with warnings.catch_warnings(record=True) as caught:
        # order warnings become notes; others meet the caller's filters, and show after the run
        warnings.simplefilter("always", transforms.InsufficientOrderWarning)
        for top in dict.fromkeys(np.max(states, axis=1).tolist()):
            transforms._warn_unresolved((top,), rule)
        fwd = transforms.fourier_forward1d(phis, axis_targets, rule, omega)
        mom = oscillator._factor_table(-1, max_n, omega, axis_targets)
        # a state's 5^3 grid counts as four stencil points per grid point: the complex
        # transform and the moduli it is compared through
        errs = [np.max(np.abs(np.abs(grids(fwd, states[c])) - np.abs(grids(mom, states[c]))),
                       axis=(1, 2, 3)) for c in _chunks(len(states), 4 * axis_targets.size ** 3)]
        records = [CaseRecord("fourier_modulus", {"state": np.arange(len(states))},
                              np.concatenate(errs), 0.0,
                              "numeric transform vs closed momentum form", tol)]
        # forward eigenphase, measured with the direct quadrature; recorded, not asserted
        nums = _direct_fourier(factors, 0.6 * math.sqrt(omega), rule, omega)[:5, 0]
        phases = [complex(num) / oscillator.phi_1d_momentum(l, omega, 0.6 * math.sqrt(omega))
                  for l, num in enumerate(nums)]
        notes.append("forward eigenphase per l (measured): "
                     + ", ".join(f"{z:.6f}" for z in phases))
        # round trip and Parseval on the worst few states at the round-trip order, one
        # axis at a time: the inverse of the factors' forward transforms, and (Fubini)
        # the momentum norm as the product of the axes' norms
        rt_targets = np.linspace(-2.5 / math.sqrt(omega), 2.5 / math.sqrt(omega), 4)
        ppts, peff = transforms.rescaled_nodes(rule_rt, 1.0 / omega)
        fwd_rt = lambda p: transforms.fourier_forward1d(phis, p, rule_rt, omega)
        back = transforms._fourier1d(fwd_rt, rt_targets, rule_rt, omega, +1)
        axis_norms = np.sum(peff * np.abs(fwd_rt(ppts)) ** 2, axis=-1)
        ls = states[:: max(1, len(states) // 7)]
        roundtrip = np.max(np.abs(grids(back, ls) - grids(phis(rt_targets), ls)),
                           axis=(1, 2, 3))
        parseval = axis_norms[ls[:, 0]] * axis_norms[ls[:, 1]] * axis_norms[ls[:, 2]]
        records.append(CaseRecord(["roundtrip", "parseval"],
                                  {"state": np.arange(len(ls))[:, None]},
                                  np.stack([roundtrip, parseval], axis=-1), [0.0, 1.0],
                                  ["inverse of forward is the identity",
                                   "momentum norm equals position norm"], tol))
        # Segal-Bargmann monomials over a complex grid
        grid = np.array([a + 1j * b for a in (-2.0, -1.0, 0.0, 1.0, 2.0)
                         for b in (-2.0, -1.0, 0.0, 1.0, 2.0)])
        got = transforms.bargmann_transform(factors, bargmann_sign * grid, omega, rule_bg)
        errs = [np.max(np.abs(row - oscillator.phi_1d_bargmann(l, omega, grid)))
                for l, row in enumerate(got)]
        records.append(CaseRecord("bargmann_monomial", {"l": np.arange(9)}, errs, 0.0,
                                  "transform of the l-th factor", 1e-9))
        # normalisation across levels
        ls = up_to(6)
        norms = transforms._overlaps(ls, ls, omega, rule)
        records.append(CaseRecord("normalization", {"state": np.arange(len(norms))}, norms, 1.0,
                                  "unit norm over the constraint space", 1e-10))
        # orthogonality spot checks
        base = up_to(2)
        pairs = rng.integers(0, len(base), (6, 2))
        pairs = pairs[np.any(base[pairs[:, 0]] != base[pairs[:, 1]], axis=1)]
        overlaps = transforms._overlaps(base[pairs[:, 0]], base[pairs[:, 1]], omega, rule)
        records.append(CaseRecord("orthogonality", {"i": pairs[:, 0], "j": pairs[:, 1]},
                                  overlaps, 0.0, "distinct states are orthogonal", 1e-10))
        # the kernel against the direct quadratures on levels l <= 8 and on a
        # non-eigenfunction, at momenta within 3/4 of the order-64 trust limit,
        # where the direct quadrature holds to ~1e-15 on these integrands
        momenta = 0.75 * transforms.trust_momentum(rule_rt, omega) * rng.uniform(-1.0, 1.0, 8)
        alphas = bargmann_sign * (rng.uniform(-2.0, 2.0, 8) + 1j * rng.uniform(-2.0, 2.0, 8))
        integrands = lambda xi: np.concatenate(
            [factors(xi), [np.exp(-0.5 * omega * xi ** 2) * np.cos(1.7 * xi)]])
        fourier = (transforms.fourier_forward1d(integrands, momenta, rule_rt, omega)
                   - _direct_fourier(integrands, momenta, rule_rt, omega))
        bargmann = (transforms.bargmann_transform(integrands, alphas, omega, rule_bg)
                    - _direct_bargmann(integrands, alphas, omega, rule_bg))
        names = [f"phi_{l}" for l in range(9)] + ["gauss_cos"]
        records.append(CaseRecord("kernel_oracle", {"transform": ["fourier", "bargmann"],
                                                    "integrand": [[n] for n in names]},
                                  np.stack([np.max(np.abs(fourier), axis=-1),
                                            np.max(np.abs(bargmann), axis=-1)], axis=-1),
                                  0.0, "spectral kernel vs direct quadrature", 1e-12))
    for w in caught:
        if not issubclass(w.category, transforms.InsufficientOrderWarning):
            warnings.warn_explicit(w.message, w.category, w.filename, w.lineno, source=w.source)
        elif (note := f"insufficient order: {w.message}") not in notes:
            notes.append(note)
    return VerificationReport("transforms", tol, records, notes)


SUITES = {
    "invariance": run_invariance_suite,
    "pde": run_pde_suite,
    "ladder": run_ladder_suite,
    "nr-limit": run_nr_limit_suite,
    "transforms": run_transform_suite,
}


def run_all(seed: int = 0) -> dict:
    """Every suite's report at its defaults and the shared seed, keyed by suite name."""
    return {name: runner(seed=seed) for name, runner in SUITES.items()}
